"""Additional-noise spectra for the dual-probe detector and its single-probe baseline."""

import math
from dataclasses import dataclass

from .coefficients import solve_coefficients
from .errors import ParameterError, TransductionAbsentError
from .model import chi_mech


@dataclass(frozen=True)
class AddNoise:
    s_add: float
    s_th: float


@dataclass(frozen=True)
class SpectrumPoint:
    omega: float
    s_add: float
    s_th: float
    a_p: float


@dataclass(frozen=True)
class SpectrumResult:
    points: tuple


def s_add(params, omega):
    """Additional noise of the dual-probe output, referred to the signal.

    S_add = (|A/E|^2 + |B/E|^2)/2 + S_th with E = C + D and
    S_th = gamma1 nth1 |C/E|^2 + gamma2 nth2 |D/E|^2.
    """
    if params.g_lin == 0:
        raise TransductionAbsentError("g_lin = 0 carries no signal")
    sadd, sth = _noise(params, solve_coefficients(params, omega))
    return AddNoise(s_add=sadd, s_th=sth)


def _noise(params, co):
    """(S_add, S_th) from the output coefficients at one frequency."""
    e = co.e_coef
    if e == 0:
        raise TransductionAbsentError("output transduction vanished")
    sth = (params.gamma1 * params.nth1 * abs(co.c_coef / e) ** 2
           + params.gamma2 * params.nth2 * abs(co.d_coef / e) ** 2)
    quantum = 0.5 * (abs(co.a_coef / e) ** 2 + abs(co.b_coef / e) ** 2)
    return quantum + sth, sth


def _shot_prefactor(omega, kappa):
    # -i [w^2 + (k/2 - iw)^2] / (2 sqrt(k) (k/2 - iw))
    return -1j * (omega ** 2 + (kappa / 2.0 - 1j * omega) ** 2) / (
        2.0 * math.sqrt(kappa) * (kappa / 2.0 - 1j * omega))


def _backaction_prefactor(omega_m, kappa):
    # 2 (k - i w_m) / (sqrt(k) (k - 2 i w_m))
    return 2.0 * (kappa - 1j * omega_m) / (
        math.sqrt(kappa) * (kappa - 2j * omega_m))


def s_add_resonant(params, omega):
    """Reduced on-resonance expression, valid for delta' = omega_m1 = omega_m2.

    Single-modulus form |X/G * (1 - v^2 x1 x2)/(2 v x1 x2 - x1 - x2) + Y G|^2
    plus the thermal term. It bakes resonance conditions into X and Y, so it
    is a near-resonance companion to s_add rather than an equal of it; the
    validation report tracks their measured deviation.
    """
    wm = params.omega_m1
    same = (params.omega_m2 == wm and params.delta_prime == wm)
    g = complex(params.g_lin)
    if not same or params.theta != 0.0 or g.imag != 0.0:
        raise ParameterError(
            "resonant form needs delta_prime = omega_m1 = omega_m2, real g, theta 0")
    if g == 0:
        raise TransductionAbsentError("g_lin = 0 carries no signal")
    gr = g.real
    x1 = chi_mech(omega, wm, params.gamma1)
    x2 = chi_mech(omega, params.omega_m2, params.gamma2)
    w2 = 2.0 * params.v_coupling * x1 * x2 - x1 - x2
    shot = _shot_prefactor(omega, params.kappa) * (
        1.0 - params.v_coupling ** 2 * x1 * x2) / w2
    y = _backaction_prefactor(wm, params.kappa)
    # thermal part through the exact coupling-independent output ratios
    rc = (params.v_coupling * x1 * x2 - x1) / w2
    rd = (params.v_coupling * x1 * x2 - x2) / w2
    sth = (params.gamma1 * params.nth1 * abs(rc) ** 2
           + params.gamma2 * params.nth2 * abs(rd) ** 2)
    return abs(shot / gr + y * gr) ** 2 + sth


def s_add_som(omega_m, gamma1, kappa, g_lin, nth1, omega):
    """Single-oscillator baseline: |X/(x1 G) + Y G|^2 + gamma1 nth1."""
    if omega_m <= 0 or gamma1 <= 0 or kappa <= 0:
        raise ParameterError("rates must be positive")
    if g_lin == 0:
        raise TransductionAbsentError("g_lin = 0 carries no signal")
    x1 = chi_mech(omega, omega_m, gamma1)
    shot = _shot_prefactor(omega, kappa) / x1
    y = _backaction_prefactor(omega_m, kappa)
    return abs(shot / g_lin + y * g_lin) ** 2 + gamma1 * nth1


def spectrum_sweep(params, grid):
    """Per-frequency s_add, s_th and transduction gain over an increasing grid."""
    pts = []
    last = None
    for w in grid:
        w = float(w)
        if last is not None and w <= last:
            raise ParameterError("frequency grid must be strictly increasing")
        last = w
        co = solve_coefficients(params, w)
        sadd, sth = _noise(params, co)
        pts.append(SpectrumPoint(omega=w, s_add=sadd, s_th=sth,
                                 a_p=abs(co.e_coef)))
    return SpectrumResult(points=tuple(pts))
