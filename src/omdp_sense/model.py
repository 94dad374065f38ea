"""Parameter records, susceptibilities, and the classical working point.

Everything downstream runs in whatever frequency unit the caller picks;
the model is scale-free, so the natural choice is units of the mechanical
frequency (all defaults in the CLI are expressed that way). Only
``thermal_occupation`` and the drive ingestion touch SI constants.
"""

import cmath
import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConvergenceError, ParameterError

HBAR = 1.054571817e-34  # J s
KB = 1.380649e-23       # J / K


@dataclass(frozen=True)
class DetectorParams:
    """Linearized working point of the two-oscillator, one-cavity detector.

    All rates share one frequency unit. ``g_lin`` is the drive-enhanced
    coupling (complex allowed, real in every standard configuration);
    ``theta`` is the homodyne phase selecting the measured quadrature.
    """

    delta_prime: float
    kappa: float
    g_lin: complex
    omega_m1: float
    omega_m2: float
    gamma1: float
    gamma2: float
    v_coupling: float
    theta: float = 0.0
    nth1: float = 0.0
    nth2: float = 0.0

    def __post_init__(self):
        # store Python numbers: numpy scalars round complex arithmetic
        # differently, which would make results depend on the input's type
        reals = _real_fields(self)
        if set(map(type, reals)) != {float}:
            reals = tuple(map(float, reals))
            for name, x in zip(_REAL_FIELDS, reals):
                object.__setattr__(self, name, x)
        g = self.g_lin
        if type(g) not in (float, complex):
            object.__setattr__(self, "g_lin", complex(g) if isinstance(
                g, (complex, np.complexfloating)) else float(g))
        if not (all(map(math.isfinite, reals))
                and cmath.isfinite(self.g_lin)):
            raise ParameterError("detector parameters must be finite")
        if self.kappa <= 0:
            raise ParameterError("kappa must be positive")
        if self.omega_m1 <= 0 or self.omega_m2 <= 0:
            raise ParameterError("mechanical frequencies must be positive")
        if self.gamma1 <= 0 or self.gamma2 <= 0:
            raise ParameterError("mechanical damping rates must be positive")
        # positive-definite coupled-oscillator potential
        if self.v_coupling ** 2 >= self.omega_m1 * self.omega_m2:
            raise ParameterError(
                "v_coupling^2 = %g exceeds omega_m1*omega_m2 = %g (unstable)"
                % (self.v_coupling ** 2, self.omega_m1 * self.omega_m2))
        if self.nth1 < 0 or self.nth2 < 0:
            raise ParameterError("thermal occupations must be non-negative")


_REAL_FIELDS = tuple(f.name for f in fields(DetectorParams)
                     if f.name != "g_lin")
_real_fields = operator.attrgetter(*_REAL_FIELDS)


@dataclass(frozen=True)
class DriveConfig:
    """External drive and geometry, used only to derive the working point."""

    power: float          # W
    omega_d: float        # rad/s
    kappa_ex: float       # rad/s
    g0_1: float           # rad/s, single-photon coupling of oscillator 1
    g0_2: float           # rad/s
    delta_bare: float     # rad/s
    cavity_length: float = 1.0  # m
    mass: float = 1.0           # kg

    def __post_init__(self):
        if self.power < 0:
            raise ParameterError("power must be non-negative")
        if self.kappa_ex < 0:
            raise ParameterError("kappa_ex must be non-negative")
        if self.mass <= 0 or self.cavity_length <= 0:
            raise ParameterError("mass and cavity_length must be positive")

    @property
    def epsilon(self):
        """Drive amplitude 2*sqrt(P*kappa_ex/(hbar*omega_d))."""
        if self.power == 0:
            return 0.0
        return 2.0 * math.sqrt(self.power * self.kappa_ex / (HBAR * self.omega_d))


def single_photon_coupling(omega_c, length, mass, omega_m):
    """(omega_c/L)*sqrt(hbar/(2 m omega_m)), the per-photon coupling rate."""
    if length <= 0 or mass <= 0 or omega_m <= 0:
        raise ParameterError("length, mass and omega_m must be positive")
    return (omega_c / length) * math.sqrt(HBAR / (2.0 * mass * omega_m))


def chi_cavity(omega, delta_prime, kappa):
    """Cavity response 1/(i(delta' - omega) + kappa/2)."""
    if kappa <= 0:
        raise ParameterError("kappa must be positive")
    return 1.0 / (1j * (delta_prime - omega) + kappa / 2.0)


def chi_cavity_conj(omega, delta_prime, kappa):
    """Conjugate-field response 1/(-i(delta' + omega) + kappa/2).

    Equals conj(chi_cavity(-omega)) for real omega.
    """
    if kappa <= 0:
        raise ParameterError("kappa must be positive")
    return 1.0 / (-1j * (delta_prime + omega) + kappa / 2.0)


def chi_mech(omega, omega_m, gamma):
    """Mechanical response 1/(omega_m - omega^2/omega_m - i gamma omega/omega_m)."""
    if omega_m <= 0 or gamma <= 0:
        raise ParameterError("omega_m and gamma must be positive")
    return 1.0 / (omega_m - omega ** 2 / omega_m - 1j * gamma * omega / omega_m)


def thermal_occupation(omega_m, temperature):
    """Bose occupation 1/(exp(hbar*omega_m/(kB*T)) - 1); zero at T = 0."""
    if omega_m <= 0:
        raise ParameterError("omega_m must be positive")
    if temperature < 0:
        raise ParameterError("temperature must be non-negative")
    if temperature == 0:
        return 0.0
    return 1.0 / math.expm1(HBAR * omega_m / (KB * temperature))


def occupation_temperature(omega_m, n_th):
    """Inverse of thermal_occupation: the bath temperature giving n_th."""
    if n_th <= 0:
        return 0.0
    return HBAR * omega_m / (KB * math.log1p(1.0 / n_th))


def omega_eff(omega_m, v_coupling):
    """Upper normal-mode frequency sqrt(omega_m*(omega_m + v)).

    This is where the coupled pair gives its best noise performance.
    """
    if omega_m <= 0 or omega_m + v_coupling <= 0:
        raise ParameterError("need omega_m > 0 and omega_m + v_coupling > 0")
    return math.sqrt(omega_m * (omega_m + v_coupling))


@dataclass(frozen=True)
class SteadyState:
    a_mean: complex
    q1: float
    q2: float
    delta_prime: float
    g_lin1: complex
    g_lin2: complex
    residual: float
    iterations: int
    newton_used: bool = False
    near_singular: bool = False


def steady_state(drive, kappa, omega_m1, omega_m2, v_coupling,
                 xi_b1=0.0, xi_b2=0.0, tol=1e-12, max_iter=10000):
    """Classical fixed point of the driven detector.

    Solves a = eps/(i*delta' + kappa/2), delta' = delta - g1*q1 - g2*q2,
    omega_mj*qj + v*q(other) = gj*|a|^2 + xi_j*B by damped iteration
    (relaxation 0.5) with a Newton fallback on (|a|^2, q1, q2). Returns
    the branch continuously connected to the undriven solution.
    """
    if kappa <= 0 or drive.kappa_ex > kappa:
        raise ParameterError("need 0 < kappa and kappa_ex <= kappa")
    det = omega_m1 * omega_m2 - v_coupling ** 2
    if det <= 0:
        raise ParameterError("v_coupling^2 must stay below omega_m1*omega_m2")

    eps = drive.epsilon
    g1, g2 = drive.g0_1, drive.g0_2
    delta = drive.delta_bare

    def mech_solve(na):
        # 2x2 linear solve for (q1, q2) at fixed photon number
        b1 = g1 * na + xi_b1
        b2 = g2 * na + xi_b2
        return ((omega_m2 * b1 - v_coupling * b2) / det,
                (omega_m1 * b2 - v_coupling * b1) / det)

    def residual_of(na, q1, q2):
        dp = delta - g1 * q1 - g2 * q2
        r_a = abs(na * (dp ** 2 + kappa ** 2 / 4.0) - eps ** 2)
        s_a = max(eps ** 2, abs(na) * (dp ** 2 + kappa ** 2 / 4.0), 1e-300)
        r1 = abs(omega_m1 * q1 + v_coupling * q2 - g1 * na - xi_b1)
        s1 = max(abs(omega_m1 * q1), abs(v_coupling * q2), abs(g1 * na),
                 abs(xi_b1), 1e-300)
        r2 = abs(omega_m2 * q2 + v_coupling * q1 - g2 * na - xi_b2)
        s2 = max(abs(omega_m2 * q2), abs(v_coupling * q1), abs(g2 * na),
                 abs(xi_b2), 1e-300)
        return max(r_a / s_a, r1 / s1, r2 / s2)

    q1 = q2 = 0.0
    na = 0.0
    it = 0
    newton_used = False
    near_singular = False
    for it in range(1, max_iter + 1):
        dp = delta - g1 * q1 - g2 * q2
        na = eps ** 2 / (dp ** 2 + kappa ** 2 / 4.0)
        n1, n2 = mech_solve(na)
        q1 = 0.5 * q1 + 0.5 * n1
        q2 = 0.5 * q2 + 0.5 * n2
        if residual_of(na, q1, q2) < tol:
            break
    else:
        # Newton on the 3-variable real system
        newton_used = True
        x = np.array([na, q1, q2])
        last = residual_of(*x)
        for jt in range(100):
            na, q1, q2 = x
            dp = delta - g1 * q1 - g2 * q2
            f = np.array([
                na * (dp ** 2 + kappa ** 2 / 4.0) - eps ** 2,
                omega_m1 * q1 + v_coupling * q2 - g1 * na - xi_b1,
                omega_m2 * q2 + v_coupling * q1 - g2 * na - xi_b2,
            ])
            jac = np.array([
                [dp ** 2 + kappa ** 2 / 4.0, -2.0 * na * dp * g1, -2.0 * na * dp * g2],
                [-g1, omega_m1, v_coupling],
                [-g2, v_coupling, omega_m2],
            ])
            cond = np.linalg.cond(jac)
            if not np.isfinite(cond) or cond > 1e12:
                near_singular = True
            try:
                x = x - np.linalg.solve(jac, f)
            except np.linalg.LinAlgError:
                raise ConvergenceError(
                    "steady-state Jacobian is singular, residual %.3g" % last,
                    residual=last)
            last = residual_of(*x)
            if last < tol:
                break
        na, q1, q2 = x
        it = max_iter + jt + 1
        if last >= tol:
            raise ConvergenceError(
                "steady state did not converge, residual %.3g" % last,
                residual=last)

    dp = delta - g1 * q1 - g2 * q2
    a_mean = eps / (1j * dp + kappa / 2.0) if eps else 0.0 + 0.0j
    return SteadyState(a_mean=a_mean, q1=q1, q2=q2, delta_prime=dp,
                       g_lin1=g1 * a_mean, g_lin2=g2 * a_mean,
                       residual=residual_of(na, q1, q2), iterations=it,
                       newton_used=newton_used, near_singular=near_singular)


def frequency_grid(centers, linewidth_scale, span, base_points):
    """Uniform grid over ``span`` plus log-refined clusters at each center.

    Cluster offsets run from linewidth_scale/10 out to the span width at
    8 points per decade, both sides of every center, so features of width
    ~linewidth_scale are resolved by ten points or better near the center.
    """
    lo, hi = float(span[0]), float(span[1])
    if not hi > lo:
        raise ParameterError("span must be an increasing pair")
    if base_points < 2:
        raise ParameterError("base_points must be at least 2")
    pts = [np.linspace(lo, hi, int(base_points))]
    if centers:
        if linewidth_scale <= 0:
            raise ParameterError("linewidth_scale must be positive")
        d0 = linewidth_scale / 10.0
        dmax = hi - lo
        ndec = math.log10(dmax / d0)
        if ndec > 0:
            k = np.arange(0, int(math.ceil(8 * ndec)) + 1)
            offs = d0 * 10.0 ** (k / 8.0)
            offs = offs[offs <= dmax]
            for c in centers:
                cluster = np.concatenate(([c], c + offs, c - offs))
                pts.append(cluster[(cluster >= lo) & (cluster <= hi)])
    grid = np.unique(np.concatenate(pts))
    return grid
