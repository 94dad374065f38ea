import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from omdp_sense import (ParameterError, chi_cavity, chi_cavity_conj, chi_mech,
                        frequency_grid, occupation_temperature, omega_eff,
                        thermal_occupation)
from omdp_sense.checks import reference_params as params

W_SI = 2.0 * math.pi * 10.56e6


class TestChiCavity:
    def test_static_value(self):
        got = chi_cavity(0.0, 1.0, 0.1)
        assert got == pytest.approx(0.04987531172069826 - 0.9975062344139651j,
                                    rel=1e-12)

    def test_antiresonant_is_real(self):
        assert chi_cavity(-1.0, -1.0, 0.4) == pytest.approx(2.0 / 0.4)

    def test_conj_at_zero(self):
        assert chi_cavity_conj(0.0, 1.3, 0.2) == pytest.approx(
            chi_cavity(0.0, 1.3, 0.2).conjugate())

    @given(st.floats(-3, 3), st.floats(-2, 2),
           st.floats(0.01, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_conj_mirror(self, w, dp, kappa):
        assert chi_cavity_conj(w, dp, kappa) == pytest.approx(
            chi_cavity(-w, dp, kappa).conjugate(), rel=1e-14)

    @given(st.floats(-3, 3))
    @settings(max_examples=50, deadline=None)
    def test_reciprocal_identity(self, w):
        val = chi_cavity(w, 1.0, 0.1) * (1j * (1.0 - w) + 0.05)
        assert val == pytest.approx(1.0, rel=1e-14)


class TestChiMech:
    def test_static_real(self):
        assert chi_mech(0.0, 2.5, 0.01) == pytest.approx(1.0 / 2.5)

    def test_on_resonance_imaginary(self):
        got = chi_mech(1.0, 1.0, 0.01)
        assert got == pytest.approx(1j / 0.01, rel=1e-14)

    def test_off_resonance_value(self):
        got = chi_mech(2.0, 1.0, 0.01)
        want = 1.0 / (1.0 - 4.0 - 0.02j)
        assert got == pytest.approx(want, rel=1e-14)

    def test_rejects_bad_rates(self):
        with pytest.raises(ParameterError):
            chi_mech(1.0, 0.0, 0.01)
        with pytest.raises(ParameterError):
            chi_mech(1.0, 1.0, -1e-5)

    def test_peak_near_resonance(self):
        ws = np.linspace(0.99, 1.01, 2001)
        mags = np.abs([chi_mech(float(w), 1.0, 1e-3) for w in ws])
        w_peak = ws[int(np.argmax(mags))]
        assert abs(w_peak - 1.0) < 2e-3


class TestThermalOccupation:
    def test_zero_temperature(self):
        assert thermal_occupation(W_SI, 0.0) == 0.0

    def test_millikelvin_value(self):
        assert thermal_occupation(W_SI, 1e-3) == pytest.approx(1.515, abs=5e-4)

    def test_ln2_identity(self):
        # hbar w / kB T = ln 2 makes the Bose factor exactly 1
        import omdp_sense.model as m
        T = m.HBAR * W_SI / (m.KB * math.log(2.0))
        assert thermal_occupation(W_SI, T) == pytest.approx(1.0, rel=1e-12)

    @given(st.floats(0.1, 100.0), st.floats(1e-4, 10.0),
           st.floats(0.5, 2.0))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, w, T, c):
        a = thermal_occupation(w * 1e7, T)
        b = thermal_occupation(c * w * 1e7, c * T)
        assert a == pytest.approx(b, rel=1e-9)

    def test_monotone_in_temperature(self):
        vals = [thermal_occupation(W_SI, T) for T in (1e-4, 1e-3, 1e-2, 1.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_inverse_roundtrip(self):
        T = occupation_temperature(W_SI, 1e3)
        assert thermal_occupation(W_SI, T) == pytest.approx(1e3, rel=1e-12)


class TestOmegaEff:
    def test_uncoupled(self):
        assert omega_eff(1.0, 0.0) == 1.0

    def test_reference_coupling(self):
        assert omega_eff(1.0, 0.2) == pytest.approx(1.09545, abs=1e-5)

    def test_perfect_square(self):
        assert omega_eff(1.0, 3.0) == pytest.approx(2.0, rel=1e-14)

    def test_domain_error(self):
        with pytest.raises(ParameterError):
            omega_eff(1.0, -1.0)


class TestDetectorParams:
    def test_rejects_strong_coupling(self):
        with pytest.raises(ParameterError):
            params(v_coupling=1.0)
        with pytest.raises(ParameterError):
            params(omega_m2=0.5, v_coupling=0.75)

    def test_accepts_boundary_interior(self):
        p = params(omega_m2=0.5, v_coupling=0.7)
        assert p.v_coupling == 0.7

    def test_rejects_negative_occupation(self):
        with pytest.raises(ParameterError):
            params(nth1=-1.0)

    def test_rejects_nonpositive_rates(self):
        for field in ("kappa", "omega_m1", "gamma2"):
            with pytest.raises(ParameterError):
                params(**{field: 0.0})

    def test_rejects_non_finite(self):
        for field, bad in (("kappa", math.nan), ("gamma1", math.inf),
                           ("delta_prime", -math.inf), ("theta", math.nan),
                           ("nth2", math.inf), ("v_coupling", math.nan),
                           ("g_lin", complex(0.03, math.nan))):
            with pytest.raises(ParameterError, match="finite"):
                params(**{field: bad})


class TestFrequencyGrid:
    def test_uniform_fallback(self):
        got = frequency_grid([], 1e-5, (0.9, 1.1), 3)
        assert np.allclose(got, [0.9, 1.0, 1.1])

    def test_cluster_density(self):
        grid = frequency_grid([1.0], 1e-5, (0.9, 1.1), 11)
        near = grid[np.abs(grid - 1.0) <= 1e-4]
        assert len(near) >= 20

    def test_deterministic(self):
        a = frequency_grid([1.0, 1.095], 1e-5, (0.9, 1.2), 101)
        b = frequency_grid([1.0, 1.095], 1e-5, (0.9, 1.2), 101)
        assert np.array_equal(a, b)

    def test_strictly_increasing(self):
        grid = frequency_grid([1.0, 1.05], 2e-5, (0.8, 1.3), 57)
        assert np.all(np.diff(grid) > 0)
