"""Deterministic scalar minimization: coarse scans plus golden-section polish."""

import math

import numpy as np

from .errors import OmdpError

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 0.618...
INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0

# golden-section stopping rule: relative bracket width, iteration cap
REL_TOL = 1e-10
MAX_ITER = 400


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


def scan_min(f, xs, f_grid=None):
    """Evaluate f on the grid xs and return (index, value) of the minimum.

    ``f_grid``, if given, evaluates the whole grid in one call and returns
    an array of the values f would give point by point.
    """
    vals = ([f(x) for x in xs] if f_grid is None
            else np.asarray(f_grid(xs)).tolist())
    k = int(np.argmin(vals))
    return k, vals[k]


def scan_then_golden(f, xs, f_grid=None):
    """Grid scan followed by golden-section polish in the winning cell.

    ``f_grid`` is passed on to ``scan_min``; the polish always calls f.
    Returns (x, fx, at_boundary); at_boundary is True when the scan minimum
    sits on the first or last grid point, a sign the range may be too narrow.
    """
    xs = np.asarray(xs, dtype=float)
    k, fk = scan_min(f, xs, f_grid)
    at_boundary = k == 0 or k == len(xs) - 1
    lo = xs[max(k - 1, 0)]
    hi = xs[min(k + 1, len(xs) - 1)]
    if hi > lo:
        x, fx = golden_min(f, lo, hi)
        if fx < fk:
            return x, fx, at_boundary
    return float(xs[k]), fk, at_boundary


def log_grid(lo, hi, per_decade=64):
    """Logarithmic grid with a fixed point density per decade."""
    if not 0 < lo < hi:
        raise ValueError("need 0 < lo < hi")
    n = max(int(math.ceil(per_decade * math.log10(hi / lo))) + 1, 2)
    return np.geomspace(lo, hi, n)
