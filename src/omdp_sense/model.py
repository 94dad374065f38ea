"""Detector parameters, susceptibilities and frequency grids.

The detector is described by its linearized working point (``g_lin``,
``delta_prime``), taken as given. Everything downstream runs in whatever
frequency unit the caller picks; the model is scale-free, so the natural
choice is units of the mechanical frequency (all defaults in the CLI are
expressed that way). Only ``thermal_occupation`` and its inverse touch SI
constants.
"""

import cmath
import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from .errors import ParameterError
from .exact import Exact

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


def _nonpositive(rate):
    # a rate is a number, or an Exact array of one rate per point
    if isinstance(rate, Exact):
        return bool((rate.value <= 0).any())
    return rate <= 0


def chi_cavity(omega, delta_prime, kappa):
    """Cavity response 1/(i(delta' - omega) + kappa/2)."""
    if _nonpositive(kappa):
        raise ParameterError("kappa must be positive")
    return 1.0 / (1j * (delta_prime - omega) + kappa / 2.0)


def chi_cavity_conj(omega, delta_prime, kappa):
    """Conjugate-field response 1/(-i(delta' + omega) + kappa/2).

    Equals conj(chi_cavity(-omega)) for real omega.
    """
    if _nonpositive(kappa):
        raise ParameterError("kappa must be positive")
    return 1.0 / (-1j * (delta_prime + omega) + kappa / 2.0)


def chi_mech(omega, omega_m, gamma):
    """Mechanical response 1/(omega_m - omega^2/omega_m - i gamma omega/omega_m)."""
    if _nonpositive(omega_m) or _nonpositive(gamma):
        raise ParameterError("omega_m and gamma must be positive")
    return 1.0 / (omega_m - omega ** 2 / omega_m - 1j * gamma * omega / omega_m)


def _chi_mechs(omega, p):
    """chi_mech of both oscillators, the first once where their omega_m and
    gamma are equal numbers (Exact fields compare by identity)."""
    x1 = chi_mech(omega, p.omega_m1, p.gamma1)
    same = (p.omega_m2, p.gamma2) == (p.omega_m1, p.gamma1)
    return x1, x1 if same else chi_mech(omega, p.omega_m2, p.gamma2)


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
