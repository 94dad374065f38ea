"""Homodyne output coefficients M_out = A a_in + B a_in^dag + C F_1 + D F_2.

Two independent routes compute the same decomposition. ``solve_coefficients``
assembles the frequency-domain response system and eliminates it directly;
it handles arbitrary homodyne phase and a complex coupling, shared by both
oscillators, and it is the canonical path everywhere downstream.
``closed_form_coefficients`` is the compact algebraic expression, valid for
theta = 0 and equal couplings, kept as a fast cross-check of the solver.

The solver also takes a batch of points: one detector per point, one
frequency per point, one coupling per point, or any mix of these with
shared values. One elimination runs on numbers for one point and on Exact
arrays for a batch, with each point's own pivots and roundings, so the
arrays it returns equal the scalar results bit for bit. The one exception
is a point whose coefficients are all NaN, where the NaNs may carry other
sign bits; callers redo or refuse such a point, so no output moves.
"""

import cmath
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import ParameterError, SingularSystemError
from .exact import Exact, _raw, quotients, to_complex, where
from .model import (_REAL_FIELDS, _chi_mechs, _real_fields, chi_cavity,
                    chi_cavity_conj, chi_mech)


@dataclass(frozen=True)
class OutputCoefficients:
    """Coefficients at one frequency, or arrays of them over a frequency array."""

    a_coef: complex
    b_coef: complex
    c_coef: complex
    d_coef: complex
    e_coef: complex


def _back_substitute(a):
    # solve the eliminated upper-triangular rows of a for all four
    # right-hand-side columns, s0..s3; entries are numbers or Exact arrays,
    # and an Exact pivot divides its four sums with one divisor set-up
    out = [None] * 4
    for i in range(3, -1, -1):
        row = a[i]
        s0, s1, s2, s3 = row[4:]
        for c in range(i + 1, 4):
            f, (y0, y1, y2, y3) = row[c], out[c]
            s0, s1, s2, s3 = s0 - f * y0, s1 - f * y1, s2 - f * y2, s3 - f * y3
        d = row[i]
        out[i] = (quotients((s0, s1, s2, s3), d) if isinstance(d, Exact)
                  else [s0 / d, s1 / d, s2 / d, s3 / d])
    return out


def _solve4(m, rhs):
    # Gaussian elimination with partial pivoting on a 4x4 complex system,
    # four right-hand sides at once, on numbers or on Exact arrays of one
    # length. gamma > 0 keeps the system regular, so a vanishing pivot is a
    # hard error, not a rank decision.
    a = [list(m[i]) + list(rhs[i]) for i in range(4)]
    pivots = []
    for col in range(4):
        # a strict > lets the first maximum win, as max() does
        p, piv = col, _raw(abs(a[col][col]))
        for r in range(col + 1, 4):
            mag = _raw(abs(a[r][col]))
            p, piv = where(mag > piv, (r, mag), (p, piv))
        for r in range(col + 1, 4):  # each point's pivot row moves up
            a[col], a[r] = where(p == r, (a[r], a[col]), (a[col], a[r]))
        if not a[col][col]:  # a zero pivot, at some point of a batch
            k = int(np.argmax(np.ravel(piv) == 0.0))  # the first such point
            # a pivot that is one number holds at every point
            seen = [np.ravel(pv)[min(k, np.size(pv) - 1)] for pv in pivots]
            cond = float(max(seen) / min(seen)) if seen else float("inf")
            raise SingularSystemError(
                "response system is singular at this frequency", cond)
        pivots.append(piv)
        inv = 1.0 / a[col][col]
        row_c = a[col]
        for r in range(col + 1, 4):
            row_r = a[r]
            fac = row_r[col] * inv
            for c in range(col + 1, 8):  # column col is never read again
                row_r[c] -= fac * row_c[c]
    return _back_substitute(a)


def _batch_size(params, omega, g_lin):
    """The number of points of a batch, or None for one point."""
    sizes = set()
    if isinstance(params, (list, tuple)):
        sizes.add(len(params))
    if isinstance(omega, np.ndarray):
        if omega.ndim != 1:
            raise ParameterError("frequencies must be a number or a 1-D array")
        sizes.add(len(omega))
    finite = True
    if isinstance(g_lin, (int, float, complex)):
        finite = cmath.isfinite(g_lin)  # one point, without numpy's overhead
    elif g_lin is not None:
        g = np.asarray(g_lin)
        finite = g.ndim < 2 and np.isfinite(g).all()
        if g.ndim == 1:
            sizes.add(len(g))
    if not finite:
        raise ParameterError(
            "couplings must be finite, a number or a 1-D array")
    if len(sizes) > 1:
        raise ParameterError("a batch's per-point inputs differ in length: %s"
                             % sorted(sizes))
    return sizes.pop() if sizes else None


def _fields(params):
    """The fields of one detector; for a sequence of detectors, one per
    point, a namespace of their fields as Exact arrays over the points.

    The detectors of a sequence must share theta: numpy's sin and cos do
    not round as libm's do, so theta stays one Python number.
    """
    if not isinstance(params, (list, tuple)):
        return params
    if not params:
        raise ParameterError("a batch needs at least one detector")
    # each distinct detector is read once: a batch repeats its detectors
    # over many frequencies or couplings
    ids = np.fromiter(map(id, params), dtype=np.uint64, count=len(params))
    _, first, at = np.unique(ids, return_index=True, return_inverse=True)
    ones = [params[i] for i in first.tolist()]
    reals = np.array(list(map(_real_fields, ones)), dtype=float)
    theta = reals[:, _REAL_FIELDS.index("theta")].view(np.uint64)
    if (theta != theta[0]).any():
        raise ParameterError("the detectors of a batch must share theta")
    fields = dict(zip(_REAL_FIELDS, map(Exact, reals[at].T.copy())))
    fields["theta"] = ones[0].theta
    fields["g_lin"] = Exact(np.array([p.g_lin for p in ones],
                                     dtype=complex)[at])
    return SimpleNamespace(**fields)


def solve_coefficients(params, omega, g_lin=None):
    """Transfer coefficients from the eliminated response system.

    Unknowns are (da, da^dag at -omega, q1, q2) driven by unit inputs
    (a_in, a_in^dag, F_1, F_2); the output quadrature is
    i[a_out^dag e^{-i theta} - a_out e^{i theta}] with
    a_out = sqrt(kappa) da - a_in.

    One point, or a batch of n points: ``params`` is one detector or a
    sequence of n detectors, ``omega`` one frequency or a 1-D array of n,
    and ``g_lin``, if given, one coupling or a 1-D array of n that stand
    in for the detectors' couplings. A value given once holds at every
    point, and the detectors of a batch must share theta. A batch gives
    coefficient arrays, bit-identical to solving point by point, save that
    at a point whose coefficients are all NaN the NaNs' sign bits may
    differ.
    """
    n = _batch_size(params, omega, g_lin)
    # every entry of m is complex, as a pivot divides as a complex number;
    # in a batch, an entry that is the same at every point stays a number
    if n is None:
        # a numpy scalar would round the complex arithmetic differently
        w = float(omega)
        g1 = complex(params.g_lin if g_lin is None else g_lin)
        vc = complex(params.v_coupling)
    else:
        params = _fields(params)
        w = (Exact(omega.astype(float)) if isinstance(omega, np.ndarray)
             else float(omega))
        if g_lin is None:
            g1 = params.g_lin  # a complex Exact array, made by _fields
        else:
            g1 = np.asarray(g_lin)
            g1 = Exact(g1.astype(complex)) if g1.ndim else complex(g1)
        vc = to_complex(params.v_coupling)
    xc = chi_cavity(w, params.delta_prime, params.kappa)
    xcd = chi_cavity_conj(w, params.delta_prime, params.kappa)
    x1, x2 = _chi_mechs(w, params)
    g2 = g1  # single drive, shared coupling
    m = (
        (1.0 / xc, 0j, -1j * g1, -1j * g2),
        (0j, 1.0 / xcd, 1j * g1.conjugate(), 1j * g2.conjugate()),
        (-g1.conjugate(), -g1, 1.0 / x1, vc),
        (-g2.conjugate(), -g2, vc, 1.0 / x2),
    )
    sk = params.kappa ** 0.5
    rhs = (
        (sk, 0j, 0j, 0j),
        (0j, sk, 0j, 0j),
        (0j, 0j, 1.0 + 0j, 0j),
        (0j, 0j, 0j, 1.0 + 0j),
    )
    xa, xad = _solve4(m, rhs)[:2]
    ep = cmath.exp(1j * params.theta)
    em = ep.conjugate()
    a = 1j * (sk * xad[0] * em - (sk * xa[0] - 1.0) * ep)
    b = 1j * ((sk * xad[1] - 1.0) * em - sk * xa[1] * ep)
    c = 1j * (sk * xad[2] * em - sk * xa[2] * ep)
    d = 1j * (sk * xad[3] * em - sk * xa[3] * ep)
    if n is not None:
        a, b, c, d = (np.asarray(z) for z in (a, b, c, d))
    return OutputCoefficients(a, b, c, d, c + d)


def closed_form_coefficients(params, omega, b_form="conjugate"):
    """Algebraic coefficients for theta = 0 and equal couplings.

    ``b_form`` picks the coupling-squared factor in B: "conjugate" uses
    conj(G)^2, "direct" uses G^2. The two agree for real G; the solver
    settles which one the physics produces when G is complex.
    """
    if params.theta != 0.0:
        raise ParameterError("closed form is stated for theta = 0")
    w = omega
    xc = chi_cavity(w, params.delta_prime, params.kappa)
    xcd = chi_cavity_conj(w, params.delta_prime, params.kappa)
    x1 = chi_mech(w, params.omega_m1, params.gamma1)
    x2 = chi_mech(w, params.omega_m2, params.gamma2)
    g = complex(params.g_lin)
    v = params.v_coupling
    k = params.kappa
    gsq = g.conjugate() ** 2 if b_form == "conjugate" else g ** 2
    w2 = 2.0 * v * x1 * x2 - x1 - x2
    de = 1j * (v ** 2 * x1 * x2 - 1.0) + abs(g) ** 2 * (xc - xcd) * w2
    scale = abs(1j * (v ** 2 * x1 * x2 - 1.0)) + abs(g) ** 2 * abs(xc - xcd) * abs(w2)
    if abs(de) < 1e-30 * max(scale, 1e-300):
        raise SingularSystemError("denominator vanished", condition=float("inf"))
    a = 1j * (1.0 - k * xc) + 1j * k * xc * (
        abs(g) ** 2 * xc + g.conjugate() ** 2 * xcd) * w2 / de
    b = -1j * (1.0 - k * xcd) + 1j * k * xcd * (
        abs(g) ** 2 * xcd + gsq * xc) * w2 / de
    gcpl = 1j * (k ** 0.5) * (g * xc + g.conjugate() * xcd) / de
    c = gcpl * (v * x1 * x2 - x1)
    d = gcpl * (v * x1 * x2 - x2)
    return OutputCoefficients(a, b, c, d, c + d)
