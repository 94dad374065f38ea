"""The coefficient routes, s_add and the T = 0 optimum against a 50-digit
oracle: the stated response matrix, built from the detector's fields in
mpmath and inverted there.

The oracle restates the system that ``solve_coefficients`` documents, not
its code: unknowns (da, da^dag at -omega, q1, q2) driven by unit inputs
(a_in, a_in^dag, F_1, F_2), and the output quadrature
i[a_out^dag e^{-i theta} - a_out e^{i theta}] with a_out = sqrt(kappa) da -
a_in. S_add and S_th follow ``s_add``'s docstring. Each bound is the worst
relative error measured over these points, rounded up to the next power of
ten; README tabulates the worst errors by route and region.
"""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from omdp_sense import (closed_form_coefficients, minimize_over_g_analytic,
                        s_add, solve_coefficients)
from omdp_sense.checks import reference_params

mpmath = pytest.importorskip("mpmath")

DIGITS = 50
COUPLINGS = (0.0, 0.2, 0.4)
COEFFICIENTS = ("a_coef", "b_coef", "c_coef", "d_coef", "e_coef")

# the worst relative error against the oracle, by route and region
BOUNDS = {
    "solver": {"omega = 1": 1e-12, "sqrt(1 - v)": 1e-10, "random": 1e-13},
    "closed form": {"omega = 1": 1e-14, "sqrt(1 - v)": 1e-11,
                    "random": 1e-13},
    "s_add": {"omega = 1": 1e-12, "sqrt(1 - v)": 1e-11, "random": 1e-13},
    "T = 0 optimum": {"omega = 1": 1e-11, "sqrt(1 - v)": 1e-11,
                      "random": 1e-14},
}


def oracle(params, omega):
    """(A, B, C, D, E) at ``DIGITS`` digits, with E = C + D."""
    with mpmath.workdps(DIGITS):
        mpf, j = mpmath.mpf, mpmath.mpc(0, 1)
        w, dp, k, v = map(mpf, (omega, params.delta_prime, params.kappa,
                                params.v_coupling))
        g = mpmath.mpc(params.g_lin)
        gc = mpmath.conj(g)
        xc = 1 / (j * (dp - w) + k / 2)
        xcd = 1 / (-j * (dp + w) + k / 2)
        x1, x2 = (1 / (mpf(wm) - w ** 2 / wm - j * mpf(gm) * w / wm)
                  for wm, gm in ((params.omega_m1, params.gamma1),
                                 (params.omega_m2, params.gamma2)))
        inv = mpmath.inverse(mpmath.matrix([
            [1 / xc, 0, -j * g, -j * g],
            [0, 1 / xcd, j * gc, j * gc],
            [-gc, -g, 1 / x1, v],
            [-gc, -g, v, 1 / x2]]))
        sk = mpmath.sqrt(k)
        # rows 0 and 1 of the response to (sqrt(k) a_in, sqrt(k) a_in^dag,
        # F_1, F_2)
        scale = (sk, sk, 1, 1)
        xa = [inv[0, c] * scale[c] for c in range(4)]
        xad = [inv[1, c] * scale[c] for c in range(4)]
        ep = mpmath.exp(j * mpf(params.theta))
        em = mpmath.conj(ep)
        out = [j * (sk * xad[c] * em - sk * xa[c] * ep) for c in range(4)]
        out[0] += j * ep  # a_out's -a_in
        out[1] -= j * em  # a_out^dag's -a_in^dag
        return (*out, out[2] + out[3])


def oracle_noise(params, co):
    """(S_add, S_th) from oracle coefficients."""
    a, b, c, d, e = co
    with mpmath.workdps(DIGITS):
        mpf = mpmath.mpf
        sth = (mpf(params.gamma1) * params.nth1 * abs(c / e) ** 2
               + mpf(params.gamma2) * params.nth2 * abs(d / e) ** 2)
        return (abs(a / e) ** 2 + abs(b / e) ** 2) / 2 + sth, sth


def rel(x, ref):
    with mpmath.workdps(DIGITS):
        return float(abs(mpmath.mpmathify(x) - ref) / abs(ref))


def windows(v, rng):
    """Frequencies within 2e-3 of omega = 1 and of the lower mode
    sqrt(1 - v), and random frequencies in [0.9, 1.2], by region."""
    offsets = np.geomspace(1e-7, 2e-3, 13)
    out = {}
    for region, center in (("omega = 1", 1.0),
                           ("sqrt(1 - v)", math.sqrt(1.0 - v))):
        near = np.concatenate(([0.0], offsets, -offsets,
                               rng.uniform(-2e-3, 2e-3, 8)))
        out[region] = (center + near).tolist()
    out["random"] = rng.uniform(0.9, 1.2, 30).tolist()
    return out


@pytest.fixture(scope="module")
def points():
    """(region, detector, frequency, oracle coefficients) at nth = 10."""
    rng = np.random.default_rng(20261020)
    out = []
    for v in COUPLINGS:
        p = reference_params(nth1=10.0, nth2=10.0, v_coupling=v)
        for region, ws in windows(v, rng).items():
            out += [(region, p, w, oracle(p, w)) for w in ws]
    return out


def assert_within(route, errors):
    """Every (region, error) pair within its route's bound for the region."""
    worst = {}
    for region, err in errors:
        worst[region] = max(worst.get(region, 0.0), err)
    assert all(worst[r] < BOUNDS[route][r] for r in worst), (route, worst)


def coefficient_errors(route, points):
    return ((region, max(rel(getattr(route(p, w), name), ref)
                         for name, ref in zip(COEFFICIENTS, co)))
            for region, p, w, co in points)


def test_solver_against_oracle(points):
    assert_within("solver", coefficient_errors(solve_coefficients, points))


def test_closed_form_against_oracle(points):
    assert_within("closed form",
                  coefficient_errors(closed_form_coefficients, points))


def test_s_add_against_oracle(points):
    errors = []
    for region, p, w, co in points:
        got, (sadd, sth) = s_add(p, w), oracle_noise(p, co)
        errors.append((region, max(rel(got.s_add, sadd),
                                   rel(got.s_th, sth))))
    assert_within("s_add", errors)


@pytest.mark.parametrize("theta, g", [
    (0.7, 0.03 * cmath.exp(0.9j)), (-2.1, 0.05 - 0.02j), (math.pi / 2, 0.03j)])
def test_solver_against_oracle_at_any_phase_and_complex_g(theta, g):
    rng = np.random.default_rng(7)
    pts = []
    for v in COUPLINGS:
        p = reference_params(nth1=10.0, nth2=10.0, v_coupling=v, theta=theta,
                             g_lin=g)
        pts += [(region, p, w, oracle(p, w))
                for region, ws in windows(v, rng).items() for w in ws[::4]]
    assert_within("solver", coefficient_errors(solve_coefficients, pts))


def oracle_optimum(params, omega):
    """(s_sql, g_opt) of the oracle's p/g^2 + q g^2 + r at T = 0, with p, q
    and r solved from three 50-digit evaluations, and the relative misfit
    of that form at a fourth coupling."""
    g0 = params.g_lin
    gs = (g0 / 2.0, g0, 2.0 * g0, g0 * math.sqrt(2.0))

    def at(g):
        p = replace(params, g_lin=g)
        return oracle_noise(p, oracle(p, omega))[0]
    ys = list(map(at, gs))
    with mpmath.workdps(DIGITS):
        m = mpmath.matrix([[1 / mpmath.mpf(g) ** 2, mpmath.mpf(g) ** 2, 1]
                           for g in gs[:3]])
        p, q, r = mpmath.lu_solve(m, mpmath.matrix(ys[:3]))
        g4 = mpmath.mpf(gs[3])
        misfit = abs(p / g4 ** 2 + q * g4 ** 2 + r - ys[3]) / ys[3]
        return 2 * mpmath.sqrt(p * q) + r, (p / q) ** 0.25, misfit


def test_t0_optimum_against_oracle():
    rng = np.random.default_rng(11)
    errors = []
    for v in COUPLINGS:
        p = reference_params(v_coupling=v)
        for region, ws in windows(v, rng).items():
            for w in ws[::3]:
                s_ref, g_ref, misfit = oracle_optimum(p, w)
                # the oracle's noise is that form to its working precision
                assert misfit < 1e-40, (v, w)
                got = minimize_over_g_analytic(p, w)
                errors.append((region, max(rel(got.s_sql, s_ref),
                                           rel(got.g_opt, g_ref))))
    assert_within("T = 0 optimum", errors)
