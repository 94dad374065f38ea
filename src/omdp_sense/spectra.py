"""Additional-noise spectra for the dual-probe detector and its single-probe baseline."""

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import _fields, solve_coefficients
from .errors import (ParameterError, SingularSystemError,
                     TransductionAbsentError)
from .exact import Exact, quotients
from .model import chi_mech

# frequencies per batched solve in spectrum_sweep: large enough to amortize
# the per-call overhead (per point, 16384 is no faster and 4096 is 15%
# slower); a one-block sweep peaks about 8 MB above its start under
# tracemalloc
SOLVE_BLOCK = 8192

# points per block of _scans and of validate's batched checks: a
# per-point batch carries every detector field as an array; blocks of 1024
# raise no job's peak memory above what blocks of 64 to 512 give
POINT_BLOCK = 1024


@dataclass(frozen=True)
class AddNoise:
    s_add: float
    s_th: float


@dataclass(frozen=True)
class SpectrumResult:
    """Float arrays over the sweep's grid: frequency, S_add, S_th, |E|."""

    omega: np.ndarray
    s_add: np.ndarray
    s_th: np.ndarray
    a_p: np.ndarray


def s_add(params, omega):
    """Additional noise of the dual-probe output, referred to the signal.

    S_add = (|A/E|^2 + |B/E|^2)/2 + S_th with E = C + D and
    S_th = gamma1 nth1 |C/E|^2 + gamma2 nth2 |D/E|^2.

    One point, or a batch as solve_coefficients takes it: float arrays,
    equal bit for bit to the calls point by point. Only one detector is
    refused for g_lin = 0 before its solve; a batch fails in _noise.
    """
    if not isinstance(params, (list, tuple)) and params.g_lin == 0:
        raise TransductionAbsentError("g_lin = 0 carries no signal")
    noise = _noise(params, solve_coefficients(params, omega))
    return AddNoise(*(x.value if isinstance(x, Exact) else x for x in noise))


def _noise(params, co):
    """(S_add, S_th) from the output coefficients and the detector, or the
    sequence of detectors, they were solved for.

    At one point the results are floats; for coefficient arrays they are
    Exact arrays, rounded as the scalar evaluation rounds each point.
    """
    a, b, c, d, e = co.a_coef, co.b_coef, co.c_coef, co.d_coef, co.e_coef
    if isinstance(e, np.ndarray):
        e = Exact(e)
    if not e:
        raise TransductionAbsentError("output transduction vanished")
    # arrays share E's divisor set-up; one point keeps CPython's own /
    ra, rb, rc, rd = (quotients((a, b, c, d), e) if isinstance(e, Exact)
                      else (a / e, b / e, c / e, d / e))
    sth = _thermal(_fields(params), rc, rd)
    quantum = 0.5 * (abs(ra) ** 2 + abs(rb) ** 2)
    return quantum + sth, sth


def _scans(f, sets, grids):
    """Yield, set by set, f(*set, x) over the set's grid as a float array.

    All grids are one batch f(*fields, xs), each field repeated over its
    set's grid (detectors as a list, numbers as an array), in blocks of
    POINT_BLOCK points, numpy's warnings off. A block that raises an error
    one point can raise is NaN; a batch's ParameterError raises at once.
    Just before a set is yielded, each value that is not finite is redone
    alone, in grid order, so it keeps the scalar value or raises what a
    loop over the sets and points would, in that order.
    """
    sizes = [len(xs) for xs in grids]
    fields = [np.repeat(np.asarray(col), sizes) for col in zip(*sets)]
    fields = [x.tolist() if x.dtype == object else x for x in fields]
    xs_all = np.concatenate([np.empty(0)] + list(grids))
    ys_all = np.empty(len(xs_all))
    for lo in range(0, len(xs_all), POINT_BLOCK):
        part = slice(lo, lo + POINT_BLOCK)
        try:
            with np.errstate(all="ignore"):
                ys_all[part] = f(*(x[part] for x in fields), xs_all[part])
        except (ArithmeticError, SingularSystemError,
                TransductionAbsentError):
            ys_all[part] = np.nan
    for s, xs, ys in zip(sets, grids,
                         np.split(ys_all, np.cumsum(sizes)[:-1])):
        for i in np.flatnonzero(~np.isfinite(ys)).tolist():
            ys[i] = f(*s, float(xs[i]))
        yield ys


def _thermal(params, rc, rd):
    """Thermal noise gamma1 nth1 |rc|^2 + gamma2 nth2 |rd|^2 for the
    thermal-force output ratios rc = C/E and rd = D/E."""
    return (params.gamma1 * params.nth1 * abs(rc) ** 2
            + params.gamma2 * params.nth2 * abs(rd) ** 2)


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
    return abs(shot / gr + y * gr) ** 2 + _thermal(params, rc, rd)


def s_add_som(omega_m, gamma1, kappa, g_lin, nth1, omega):
    """Single-oscillator baseline: |X/(x1 G) + Y G|^2 + gamma1 nth1.

    ``omega`` may be a numpy frequency array; the result is then a float
    array, every value equal, bit for bit, to the call at that frequency
    alone.
    """
    if omega_m <= 0 or gamma1 <= 0 or kappa <= 0:
        raise ParameterError("rates must be positive")
    if g_lin == 0:
        raise TransductionAbsentError("g_lin = 0 carries no signal")
    w = Exact(omega) if isinstance(omega, np.ndarray) else omega
    x1 = chi_mech(w, omega_m, gamma1)
    shot = _shot_prefactor(w, kappa) / x1
    y = _backaction_prefactor(omega_m, kappa)
    s = abs(shot / g_lin + y * g_lin) ** 2 + gamma1 * nth1
    return s.value if isinstance(s, Exact) else s


def spectrum_sweep(params, grid):
    """s_add, s_th and transduction gain |E| over a strictly increasing grid.

    The grid is solved in blocks of SOLVE_BLOCK frequencies; every value
    equals, bit for bit, what s_add gives at that frequency alone.
    """
    omega = np.array(grid, dtype=float)
    if omega.ndim != 1 or not np.isfinite(omega).all():
        raise ParameterError("frequency grid must be 1-D and finite")
    if (np.diff(omega) <= 0.0).any():
        raise ParameterError("frequency grid must be strictly increasing")
    sadd, sth, gain = (np.empty_like(omega) for _ in range(3))
    for lo in range(0, len(omega), SOLVE_BLOCK):
        part = slice(lo, lo + SOLVE_BLOCK)
        co = solve_coefficients(params, omega[part])
        sadd[part], sth[part] = _noise(params, co)
        gain[part] = abs(Exact(co.e_coef))
    return SpectrumResult(omega=omega, s_add=sadd, s_th=sth, a_p=gain)
