"""Quantum-limit extraction: minimize the zero-temperature noise over the coupling.

At T = 0 the additional noise is exactly p/g^2 + q g^2 + r in the (real)
coupling g, with p, q and r in closed form from the susceptibilities, so the
minimum 2 sqrt(pq) + r at g = (p/q)^(1/4) is computed directly. Two
independent routes check it against the response solver: a three-point fit
of s_add in g (the structure check) and a scan-plus-golden-section search
over g (the numeric optimum).
"""

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import optimize
from .coefficients import _fields, solve_coefficients
from .errors import ParameterError, StructureViolationError
from .exact import Exact
from .model import (_chi_mechs, chi_cavity, chi_cavity_conj, chi_mech,
                    frequency_grid, omega_eff)
from .spectra import (_backaction_prefactor, _noise, _scans,
                      _shot_prefactor, s_add)

DEFAULT_G_RANGE_FACTORS = (1e-4, 10.0)  # times the mechanical frequency

# Figure-resolution scan window for the sweep harness, in units of the
# mechanical frequency. 51 points over [0.8, 1.3] is the sampling the sweep
# anchors were read at; the "refined" mode resolves the true linewidth-scale
# structure instead and finds deeper interference notches.
SWEEP_SPAN = (0.8, 1.3)
SWEEP_POINTS = 51


@dataclass(frozen=True)
class GMinAnalytic:
    s_sql: float
    g_opt: float


@dataclass(frozen=True)
class GMinNumeric:
    s_sql: float
    g_opt: float
    at_boundary: bool


@dataclass(frozen=True)
class SweepResult:
    values: tuple
    s_min: tuple
    omega_at_min: tuple
    g_opt: tuple
    skipped: tuple
    at_boundary: int  # values whose minimum sat on an end of the scan grid


def _require_t0(params):
    if params.nth1 != 0 or params.nth2 != 0:
        raise ParameterError("quantum-limit extraction requires nth = 0")
    if params.theta != 0.0:
        raise ParameterError("quantum-limit extraction assumes theta = 0")
    if complex(params.g_lin).imag != 0.0:
        raise ParameterError("quantum-limit extraction assumes real g")


def fit_shot_backaction(evaluator, omega, g0):
    """Fit s(g) = p/g^2 + q g^2 + r through g in {g0/2, g0, 2 g0}.

    Returns (p, q, r, residual), the residual being the relative misfit at a
    fourth probe g0 sqrt(2). This is the solver-route check of the closed
    form in ``minimize_over_g_analytic``.
    """
    gs = (g0 / 2.0, g0, 2.0 * g0)
    ys = [evaluator(g, omega) for g in gs]
    m = np.array([[1.0 / g ** 2, g ** 2, 1.0] for g in gs])
    p, q, r = np.linalg.solve(m, ys)
    g4 = g0 * math.sqrt(2.0)
    y4 = evaluator(g4, omega)
    residual = abs(p / g4 ** 2 + q * g4 ** 2 + r - y4) / abs(y4)
    return float(p), float(q), float(r), float(residual)


def minimize_over_g_analytic(params, omega):
    """Exact coupling optimum 2 sqrt(pq) + r at g = (p/q)^(1/4)."""
    _require_t0(params)
    p, q, r = _shot_backaction(params, omega)
    if not (p > 0 and q > 0):
        raise StructureViolationError(
            "noise has no shot/back-action balance (p = %.3g, q = %.3g)"
            % (p, q))
    return GMinAnalytic(s_sql=2.0 * math.sqrt(p * q) + r,
                        g_opt=(p / q) ** 0.25)


def _t0_limit(params, omega):
    """minimize_over_g_analytic(params, omega).s_sql at one point. On a
    numpy frequency array, with one detector or one per point (not checked
    for T = 0): 2 sqrt(pq) + r as a float array, NaN where p or q is not
    positive."""
    if not isinstance(omega, np.ndarray):
        return minimize_over_g_analytic(params, omega).s_sql
    p, q, r = map(np.asarray, _shot_backaction(params, Exact(omega)))
    # np.sqrt rounds as math.sqrt does
    return np.where((p > 0) & (q > 0), 2.0 * np.sqrt(p * q) + r, np.nan)


def _s_sql(params, omega):
    """minimize_over_g_analytic(params, omega).s_sql; for a numpy frequency
    array, one scan of _t0_limit, equal to it point by point, bit for bit:
    a point that fails the balance test or is not finite is redone alone,
    so it keeps the scalar value or raises the scalar route's own error."""
    if not isinstance(omega, np.ndarray):
        return _t0_limit(params, omega)
    _require_t0(params)
    # the detector bound, so its fields stay numbers, not per-point arrays
    return next(_scans(partial(_t0_limit, params), [()], [omega]))


def _at(params, omega, g):
    """The solver's S_add with the coupling g handed to the solver: one
    point, or a batch as solve_coefficients takes it."""
    return _noise(params, solve_coefficients(params, omega, g))[0]


def minimize_over_g_numeric(params, omega, g_range):
    """Minimize the solver's s_add over real g: scan, then golden section.

    The log grid over g_range (optimize.PER_DECADE points a decade) is
    solved as one batch, equal bit for bit to s_add point by point; the
    polish solves one point at a time, the coupling handed to the solver.
    The result is flagged when the scan minimum sits on the range boundary.

    ``params`` may also be a sequence of detectors, with ``omega`` and
    ``g_range`` sequences of the same length, one set each: the scans of
    all sets are then solved as one batch, and a tuple of results returned;
    each set redoes its bad scan points just before its polish, so errors
    come in set order.
    """
    batch = isinstance(params, (list, tuple))
    if not batch:
        params, omega, g_range = [params], [omega], [g_range]
    elif not len(params) == len(omega) == len(g_range) > 0:
        raise ParameterError("a batch needs detectors, each with one "
                             "frequency and one g range")
    sets = list(zip(params, omega))
    grids = [optimize.log_grid(*r) for r in g_range]
    out = []
    for s, xs, ys in zip(sets, grids, _scans(_at, sets, grids)):
        x, fx, edge = optimize.scan_then_golden(partial(_at, *s), xs, ys)
        out.append(GMinNumeric(s_sql=fx, g_opt=x, at_boundary=edge))
    return tuple(out) if batch else out[0]


def default_g_range(params):
    return (DEFAULT_G_RANGE_FACTORS[0] * params.omega_m1,
            DEFAULT_G_RANGE_FACTORS[1] * params.omega_m1)


def som_sql(omega_m, gamma1, kappa, omega):
    """Single-oscillator quantum limit 2(|alpha beta| + Re(alpha conj(beta)))."""
    alpha = _shot_prefactor(omega, kappa) / chi_mech(omega, omega_m, gamma1)
    beta = _backaction_prefactor(omega_m, kappa)
    return 2.0 * (abs(alpha * beta) + (alpha * beta.conjugate()).real)


def _shot_backaction(params, omega):
    """Exact (p, q, r) of the T = 0 noise p/g^2 + q g^2 + r at real g.

    With theta = 0 the ratios A/E and B/E are each alpha/g + beta g, where
    alpha and beta do not depend on g; the dual-probe analogue of som_sql.
    ``params`` may be one detector or a sequence of detectors, one per
    point, and ``omega`` an Exact frequency array; p, q and r are then Exact
    arrays, every value equal bit for bit to the call at that point alone.
    """
    if not isinstance(omega, Exact):
        # a numpy scalar would round the complex arithmetic differently
        omega = float(omega)
    params = _fields(params)
    xc = chi_cavity(omega, params.delta_prime, params.kappa)
    xcd = chi_cavity_conj(omega, params.delta_prime, params.kappa)
    x1, x2 = _chi_mechs(omega, params)
    v = params.v_coupling
    k = params.kappa
    # np.sqrt rounds as math.sqrt does
    sk = Exact(np.sqrt(k.value)) if isinstance(k, Exact) else math.sqrt(k)
    w2 = 2.0 * v * x1 * x2 - x1 - x2
    u = v ** 2 * x1 * x2 - 1.0
    den = 1j * sk * (xc + xcd) * w2
    alpha_a = -(1.0 - k * xc) * u / den
    alpha_b = (1.0 - k * xcd) * u / den
    beta_a = 1j * w2 * ((1.0 - k * xc) * (xc - xcd)
                        + k * xc * (xc + xcd)) / den
    beta_b = 1j * w2 * (-(1.0 - k * xcd) * (xc - xcd)
                        + k * xcd * (xc + xcd)) / den
    p = 0.5 * (abs(alpha_a) ** 2 + abs(alpha_b) ** 2)
    q = 0.5 * (abs(beta_a) ** 2 + abs(beta_b) ** 2)
    r = (alpha_a * beta_a.conjugate() + alpha_b * beta_b.conjugate()).real
    return p, q, r


def r_factors(params, omega):
    """Quantum-limit ratios against the two reference scenarios.

    r1 divides by the single-oscillator limit at omega_m; r2 divides by the
    uncoupled (v = 0) dual limit at omega_m. ``omega`` may be a numpy
    frequency array; the ratios are then float arrays, each value equal bit
    for bit to the call at that frequency alone. The first frequency is
    taken alone first, so errors come in the order a loop raises them.
    """
    def ratios(num):
        den1 = som_sql(params.omega_m1, params.gamma1, params.kappa,
                       params.omega_m1)
        den2 = minimize_over_g_analytic(replace(params, v_coupling=0.0),
                                        params.omega_m1).s_sql
        return {"r1": num / den1, "r2": num / den2}
    if isinstance(omega, np.ndarray) and len(omega):
        # its own error, then a reference limit's, then a zero limit's
        ratios(_s_sql(params, float(omega[0])))
    return ratios(_s_sql(params, omega))


@dataclass(frozen=True)
class RMap:
    omega_grid: tuple
    v_grid: tuple
    log10_r1: tuple  # rows follow v_grid
    log10_r2: tuple
    r1_crossings: tuple  # per row: omegas where r1 crosses 1
    r2_crossings: tuple


def _unit_crossings(omegas, logvals):
    out = []
    for i in range(len(logvals) - 1):
        a, b = logvals[i], logvals[i + 1]
        if a == 0.0:
            out.append(omegas[i])
        # a zero b is recorded once: as the next step's a, or as the last
        elif b != 0.0 and (a < 0.0) != (b < 0.0):
            t = a / (a - b)
            out.append(omegas[i] + t * (omegas[i + 1] - omegas[i]))
    if logvals and logvals[-1] == 0.0:
        out.append(omegas[-1])
    return tuple(out)


def r_map(params, omega_grid, v_grid):
    """log10 of both ratios on an omega x v grid, with unit-contour crossings.

    Each v row is one r_factors call on the omega grid as a float array.
    """
    omega_grid = tuple(float(w) for w in omega_grid)
    v_grid = tuple(float(v) for v in v_grid)
    omegas = np.array(omega_grid, dtype=float)
    rows1, rows2, cr1, cr2 = [], [], [], []
    for v in v_grid:
        rf = r_factors(replace(params, v_coupling=v), omegas)
        # math.log10 point by point, as the scalar route takes it
        l1 = list(map(math.log10, rf["r1"].tolist()))
        l2 = list(map(math.log10, rf["r2"].tolist()))
        rows1.append(tuple(l1))
        rows2.append(tuple(l2))
        cr1.append(_unit_crossings(omega_grid, l1))
        cr2.append(_unit_crossings(omega_grid, l2))
    return RMap(omega_grid=omega_grid, v_grid=v_grid,
                log10_r1=tuple(rows1), log10_r2=tuple(rows2),
                r1_crossings=tuple(cr1), r2_crossings=tuple(cr2))


_SWEEP_PARAMS = ("v", "delta_omega", "g", "kappa")


def _sweep_point(template, name, value):
    if name == "v":
        return replace(template, v_coupling=value)
    if name == "delta_omega":
        center = 0.5 * (template.omega_m1 + template.omega_m2)
        return replace(template, omega_m1=center + value / 2.0,
                       omega_m2=center - value / 2.0)
    if name == "g":
        return replace(template, g_lin=value)
    if name == "kappa":
        return replace(template, kappa=value)
    raise ParameterError("unknown sweep parameter %r" % (name,))


def s_min_sweep(template, param, values, mode="fixed_g", grid="figure"):
    """Minimal noise against one swept parameter.

    ``mode="fixed_g"`` keeps the template coupling and minimizes s_add over
    the frequency window; ``mode="sql"`` additionally optimizes the coupling
    at every frequency (zero-temperature template required). ``grid`` picks
    the frequency sampling: "figure" scans the fixed figure-resolution
    window, "refined" resolves linewidth-scale structure and polishes the
    winning cell by golden section, which reaches the narrow interference
    notches the coarse window steps over.
    """
    if param not in _SWEEP_PARAMS:
        raise ParameterError("sweep parameter must be one of %s" % (_SWEEP_PARAMS,))
    if mode not in ("fixed_g", "sql"):
        raise ParameterError("mode must be fixed_g or sql")
    if grid not in ("figure", "refined"):
        raise ParameterError("grid must be figure or refined")
    if mode == "sql":
        _require_t0(template)
    vals = [float(v) for v in values]
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ParameterError("swept values must be strictly increasing")

    scale = math.sqrt(template.omega_m1 * template.omega_m2)
    span = (SWEEP_SPAN[0] * scale, SWEEP_SPAN[1] * scale)

    points, skipped, failure = [], [], None
    for v in vals:
        try:
            points.append((v, _sweep_point(template, param, v)))
        except ParameterError as exc:
            skipped.append((v, str(exc)))
        except ArithmeticError as exc:
            # raised after the values before it are done, as a loop over
            # the values would raise it
            failure = exc
            break
    if grid == "figure":
        grids = [np.linspace(*span, SWEEP_POINTS)] * len(points)
    else:
        grids = [frequency_grid([scale, omega_eff(scale, pv.v_coupling)],
                                min(pv.gamma1, pv.gamma2), span, 201)
                 for _, pv in points]
    # all values' scans in one batch, redone value by value (_scans)
    objective = (_t0_limit if mode == "sql"
                 else lambda p, w: s_add(p, w).s_add)
    scans = _scans(objective, [(pv,) for _, pv in points], grids)

    out_v, out_s, out_w, out_g = [], [], [], []
    at_boundary = 0
    for (v, pv), xs, ys in zip(points, grids, scans):
        if grid == "figure":
            k = int(np.argmin(ys))
            w_at, s_at = float(xs[k]), float(ys[k])
            edge = k in (0, len(xs) - 1)
        else:
            w_at, s_at, edge = optimize.scan_then_golden(
                partial(objective, pv), xs, ys)

        at_boundary += edge
        out_v.append(v)
        out_s.append(s_at)
        out_w.append(w_at)
        if mode == "sql":
            out_g.append(minimize_over_g_analytic(pv, w_at).g_opt)
    if failure is not None:
        raise failure

    return SweepResult(values=tuple(out_v), s_min=tuple(out_s),
                       omega_at_min=tuple(out_w),
                       g_opt=tuple(out_g) if mode == "sql" else None,
                       skipped=tuple(skipped), at_boundary=at_boundary)
