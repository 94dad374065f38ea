import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from omdp_sense import (DetectorParams, ParameterError,
                        closed_form_coefficients, solve_coefficients)

RNG_SEED = 74205


def params(**kw):
    d = dict(delta_prime=1.0, kappa=0.1, g_lin=0.03, omega_m1=1.0,
             omega_m2=1.0, gamma1=1e-5, gamma2=1e-5, v_coupling=0.2)
    d.update(kw)
    return DetectorParams(**d)


def random_params(rng):
    wm1 = rng.uniform(0.5, 2.0)
    wm2 = rng.uniform(0.5, 2.0)
    return DetectorParams(
        delta_prime=rng.uniform(-2.0, 2.0),
        kappa=rng.uniform(0.01, 1.0),
        g_lin=rng.uniform(1e-3, 0.3),
        omega_m1=wm1, omega_m2=wm2,
        gamma1=rng.uniform(1e-5, 1e-2), gamma2=rng.uniform(1e-5, 1e-2),
        v_coupling=rng.uniform(0.0, 0.9) * math.sqrt(wm1 * wm2))


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# frozen reference point: V = 0.2, omega = 1.05, T = 0
REF_A = 0.9434026131429816 + 0.31303454682431897j
REF_B = -0.05760907973898188 - 0.9923403356169199j
REF_C = 0.6757712518346812 + 0.9740656719711093j


class TestReferencePoint:
    def test_solver_values(self):
        c = solve_coefficients(params(), 1.05)
        assert c.a_coef == pytest.approx(REF_A, rel=1e-12)
        assert c.b_coef == pytest.approx(REF_B, rel=1e-12)
        assert c.c_coef == pytest.approx(REF_C, rel=1e-12)

    def test_identical_probes_transduce_equally(self):
        c = solve_coefficients(params(), 1.05)
        assert c.c_coef == pytest.approx(c.d_coef, rel=1e-12)

    def test_e_is_sum(self):
        c = solve_coefficients(params(), 1.05)
        assert c.e_coef == pytest.approx(c.c_coef + c.d_coef, rel=1e-14)


class TestOracleEquivalence:
    def test_routes_agree_on_random_sets(self):
        rng = np.random.default_rng(RNG_SEED)
        worst = 0.0
        for _ in range(200):
            p = random_params(rng)
            w = rng.uniform(0.1, 2.2)
            cf = closed_form_coefficients(p, w)
            so = solve_coefficients(p, w)
            for a, b in ((cf.a_coef, so.a_coef), (cf.b_coef, so.b_coef),
                         (cf.c_coef, so.c_coef), (cf.d_coef, so.d_coef)):
                worst = max(worst, rel(a, b))
        assert worst < 1e-9, "routes disagree, worst %.3e" % worst

    def test_closed_form_wants_zero_homodyne_angle(self):
        with pytest.raises(ParameterError):
            closed_form_coefficients(params(theta=0.3), 1.05)

    def test_solver_accepts_rotated_quadrature(self):
        c = solve_coefficients(params(theta=0.3), 1.05)
        assert np.isfinite(abs(c.a_coef))


class TestExchangeSymmetry:
    def test_swap_maps_c_to_d(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        for _ in range(50):
            p = random_params(rng)
            w = rng.uniform(0.1, 2.2)
            ps = replace(p, omega_m1=p.omega_m2, omega_m2=p.omega_m1,
                         gamma1=p.gamma2, gamma2=p.gamma1)
            co = solve_coefficients(p, w)
            cs = solve_coefficients(ps, w)
            assert rel(co.c_coef, cs.d_coef) < 1e-9
            assert rel(co.d_coef, cs.c_coef) < 1e-9
            assert rel(co.a_coef, cs.a_coef) < 1e-9
            assert rel(co.b_coef, cs.b_coef) < 1e-9


class TestCouplingStructure:
    """A/E and B/E against G decompose as alpha/G + beta*G."""

    def quotient_fit(self, which, v):
        base = params(v_coupling=v)
        gs = (0.01, 0.02, 0.04)
        ys = []
        for g in gs:
            c = solve_coefficients(replace(base, g_lin=g), 1.05)
            ys.append(getattr(c, which) / c.e_coef)
        m = np.array([[1.0 / g, g] for g in gs[:2]], dtype=complex)
        alpha, beta = np.linalg.solve(m, ys[:2])
        pred = alpha / gs[2] + beta * gs[2]
        return abs(pred - ys[2]) / abs(ys[2])

    def test_a_quotient(self):
        assert self.quotient_fit("a_coef", 0.2) < 1e-10

    def test_b_quotient(self):
        assert self.quotient_fit("b_coef", 0.2) < 1e-10

    def test_b_quotient_uncoupled(self):
        assert self.quotient_fit("b_coef", 0.0) < 1e-10


class TestComplexCouplingVariant:
    # the printed closed form squares the conjugate coupling in the
    # reflection term; the linear solve matches squaring the coupling
    # itself, and the two coincide for real G
    def test_solver_matches_direct_square(self):
        rng = np.random.default_rng(RNG_SEED + 2)
        for _ in range(20):
            p = random_params(rng)
            p = replace(p, g_lin=p.g_lin * cmath.exp(1j * rng.uniform(0.2, 3.0)))
            w = rng.uniform(0.5, 1.5)
            so = solve_coefficients(p, w)
            direct = closed_form_coefficients(p, w, b_form="direct")
            assert rel(direct.b_coef, so.b_coef) < 1e-12

    def test_conjugate_square_differs_for_complex_coupling(self):
        p = params(g_lin=0.03 * cmath.exp(0.7j))
        so = solve_coefficients(p, 1.05)
        conj = closed_form_coefficients(p, 1.05, b_form="conjugate")
        assert rel(conj.b_coef, so.b_coef) > 1e-6

    def test_variants_coincide_for_real_coupling(self):
        a = closed_form_coefficients(params(), 1.05, b_form="conjugate")
        b = closed_form_coefficients(params(), 1.05, b_form="direct")
        assert a.b_coef == pytest.approx(b.b_coef, rel=1e-14)


def test_amplification_grows_with_coupling():
    from omdp_sense import omega_eff
    a0 = abs(solve_coefficients(params(v_coupling=0.0), 1.0).e_coef)
    a2 = abs(solve_coefficients(params(), omega_eff(1.0, 0.2)).e_coef)
    assert a2 > a0
