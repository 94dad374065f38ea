"""Deterministic minimization: a scan whose values the caller supplies,
then a golden-section polish through the scalar objective.

Callers evaluate a scan grid on arrays, bit for bit equal to the objective
point by point; this module picks the grid minimum and polishes its cell.
"""

import math

import numpy as np

from .errors import OmdpError, ParameterError

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 0.618...
INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0

# golden-section stopping rule: relative bracket width, iteration cap
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


def scan_then_golden(f, xs, ys):
    """Minimum over the grid xs, polished by golden section in its cell.

    ``ys`` are the values of f on xs, computed by the caller (on arrays,
    equal to f point by point); only the polish calls f. Returns
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
        x, fx = golden_min(f, lo, hi)
        if fx < fk:
            return x, fx, at_boundary
    return float(xs[k]), fk, at_boundary


def log_grid(lo, hi):
    """Logarithmic coupling grid over [lo, hi], PER_DECADE points a decade."""
    if not 0 < lo < hi:
        raise ParameterError("g_range must be positive and increasing")
    n = max(int(math.ceil(PER_DECADE * math.log10(hi / lo))) + 1, 2)
    return np.geomspace(lo, hi, n)
