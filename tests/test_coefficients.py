import cmath
from dataclasses import replace

import numpy as np
import pytest

from omdp_sense import (ParameterError, closed_form_coefficients,
                        coefficients, solve_coefficients)
from omdp_sense.checks import (b_variant, coefficient_oracle,
                               exchange_symmetry, reference_params as params,
                               rel)

RNG_SEED = 74205


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
        entry = coefficient_oracle(rng, 200)["coefficient_oracle"]
        assert entry["pass"], "routes disagree, worst %.3e" % (
            entry["worst_rel_err"])

    def test_closed_form_wants_zero_homodyne_angle(self):
        with pytest.raises(ParameterError):
            closed_form_coefficients(params(theta=0.3), 1.05)

    def test_solver_accepts_rotated_quadrature(self):
        c = solve_coefficients(params(theta=0.3), 1.05)
        assert np.isfinite(abs(c.a_coef))


class TestExchangeSymmetry:
    def test_swap_maps_c_to_d(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        entry = exchange_symmetry(rng, 50)["exchange_symmetry"]
        assert entry["pass"], entry["worst_rel_err"]


@pytest.mark.parametrize("check", (coefficient_oracle, exchange_symmetry))
def test_non_finite_coefficient_fails_the_gate(check, monkeypatch):
    # one overflowed set among finite ones: rel(inf, x) is NaN, and the
    # worst error must stay NaN past the finite sets after it
    real = coefficients.solve_coefficients

    def overflowing(*args, **kw):
        c = real(*args, **kw)
        c_coef = c.c_coef.copy()
        c_coef[1] = complex("inf")  # the second set of the batch
        return replace(c, c_coef=c_coef)
    monkeypatch.setattr(coefficients, "solve_coefficients", overflowing)
    entry = check(np.random.default_rng(RNG_SEED), 5)[check.__name__]
    assert np.isnan(entry["worst_rel_err"]) and entry["pass"] is False


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
        entry = b_variant(rng, 20)["b_variant"]
        assert entry["worst_rel_err_direct"] < 1e-12
        assert entry["solver_matches"] == "direct"

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
