"""Deterministic minimization: a scan whose values the caller supplies,
then a polish of the winning cell through the scalar objective.

Callers evaluate a scan grid on arrays, bit for bit equal to the objective
point by point; this module picks the grid minimum and polishes its cell.
The polish is Brent's method by default: it needs a quarter to a third of
golden section's evaluations, and the tests hold its minima within 1e-12
of golden's. golden_min stays for the refined mode=sql sweep, whose g_opt
reference pins golden's path (sql.s_min_sweep), and as the tests' slow
reference.
"""

import math

import numpy as np

from .errors import OmdpError, ParameterError

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 0.618...
INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0

# polish stopping rule: relative bracket width, evaluation cap
REL_TOL = 1e-10
MAX_ITER = 400

# coupling scan density, points per decade
PER_DECADE = 64


def golden_min(f, a, b):
    """Golden-section minimum of f on [a, b] to relative interval REL_TOL."""
    a, b = float(a), float(b)
    c = a + INVPHI2 * (b - a)
    d = a + INVPHI * (b - a)
    fc, fd = f(c), f(d)
    best_x, best_f = (c, fc) if fc <= fd else (d, fd)
    for _ in range(MAX_ITER):
        if (b - a) <= REL_TOL * max(abs(a), abs(b), 1e-300):
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = a + INVPHI2 * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + INVPHI * (b - a)
            fd = f(d)
        if fc < best_f:
            best_x, best_f = c, fc
        if fd < best_f:
            best_x, best_f = d, fd
    # comparison-based shrinking goes blind once f differences drop under
    # double precision (position error ~sqrt(eps)); one parabolic vertex at
    # a curvature-resolving spacing recovers the position
    h = 1e-5 * max(abs(best_x), 1e-30)
    try:
        fl, fr = f(best_x - h), f(best_x + h)
        denom = fl - 2.0 * best_f + fr
        if denom > 0.0:
            vertex = best_x + 0.5 * h * (fl - fr) / denom
            if abs(vertex - best_x) <= h:
                fv = f(vertex)
                if fv <= best_f:
                    best_x, best_f = vertex, fv
    except (ArithmeticError, ValueError, OmdpError):
        pass
    return best_x, best_f


def brent_min(f, a, b):
    """Brent's minimum of f on [a, b]: parabolic steps through the three
    best points, a golden step wherever a parabola would not shrink the
    bracket fast enough (R. P. Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 5). Returns (x, fx) as golden_min does; errors
    from f propagate. Its tolerance is golden_min's REL_TOL, relative to
    x: it stops once both ends of the bracket lie within 2 REL_TOL |x| of
    x, or after MAX_ITER evaluations.
    """
    a, b = float(a), float(b)
    x = w = v = a + INVPHI2 * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    for _ in range(MAX_ITER):
        m = 0.5 * (a + b)
        tol = REL_TOL * max(abs(x), 1e-300)
        if abs(x - m) <= 2.0 * tol - 0.5 * (b - a):
            break
        p = q = 0.0
        if abs(e) > tol:
            # the vertex of the parabola through x, w and v is x + p / q
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
        if q and abs(p) < abs(0.5 * q * e_prev) and a - x < p / q < b - x:
            d = p / q
            if (x + d) - a < 2.0 * tol or b - (x + d) < 2.0 * tol:
                d = tol if x < m else -tol
        else:
            e = (b - x) if x < m else (a - x)
            d = INVPHI2 * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def scan_then_golden(f, xs, ys, polish=None):
    """Minimum over the grid xs, polished in its cell.

    ``ys`` are the values of f on xs, computed by the caller (on arrays,
    equal to f point by point); only the polish calls f. ``polish`` is
    brent_min when None (looked up at the call, so it can be wrapped), or
    golden_min where a reference pins golden's path. Returns
    (x, fx, at_boundary) with fx a float; at_boundary is True when the scan
    minimum sits on the first or last grid point, a sign the range may be
    too narrow.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys)
    k = int(np.argmin(ys))
    fk = float(ys[k])
    at_boundary = k == 0 or k == len(xs) - 1
    lo = xs[max(k - 1, 0)]
    hi = xs[min(k + 1, len(xs) - 1)]
    if hi > lo:
        x, fx = (polish or brent_min)(f, lo, hi)
        if fx < fk:
            return x, fx, at_boundary
    return float(xs[k]), fk, at_boundary


def log_grid(lo, hi):
    """Logarithmic coupling grid over [lo, hi], PER_DECADE points a decade."""
    if not 0 < lo < hi:
        raise ParameterError("g_range must be positive and increasing")
    n = max(int(math.ceil(PER_DECADE * math.log10(hi / lo))) + 1, 2)
    return np.geomspace(lo, hi, n)
