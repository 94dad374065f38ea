import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from omdp_sense import (DetectorParams, ParameterError,
                        TransductionAbsentError, frequency_grid, omega_eff,
                        s_add, s_add_resonant, s_add_som, solve_coefficients,
                        spectrum_sweep)


def params(**kw):
    d = dict(delta_prime=1.0, kappa=0.1, g_lin=0.03, omega_m1=1.0,
             omega_m2=1.0, gamma1=1e-5, gamma2=1e-5, v_coupling=0.2,
             nth1=10.0, nth2=10.0)
    d.update(kw)
    return DetectorParams(**d)


class TestSAdd:
    def test_reference_values(self):
        assert s_add(params(), 1.05).s_add == pytest.approx(
            0.1757969259477165, rel=1e-12)
        assert s_add(params(v_coupling=0.0), 1.0).s_add == pytest.approx(
            0.00911733236397097, rel=1e-12)
        assert s_add(params(v_coupling=0.4), 1.1).s_add == pytest.approx(
            1.3066079791946767, rel=1e-12)

    def test_thermal_part_splits_off(self):
        cold = s_add(params(nth1=0.0, nth2=0.0), 1.05)
        warm = s_add(params(), 1.05)
        assert cold.s_th == 0.0
        assert warm.s_add == pytest.approx(cold.s_add + warm.s_th, rel=1e-12)

    def test_zero_coupling_has_no_transduction(self):
        with pytest.raises(TransductionAbsentError):
            s_add(params(g_lin=0.0), 1.05)

    @given(st.floats(0.5, 1.5), st.floats(0.0, 80.0))
    @settings(max_examples=60, deadline=None)
    def test_identical_probes_halve_thermal_noise(self, w, nth):
        p = params(nth1=nth, nth2=nth)
        got = s_add(p, w).s_th
        assert got == pytest.approx(p.gamma1 * nth / 2.0, rel=1e-12, abs=1e-300)

    def test_distinct_probes_do_not_halve(self):
        p = params(omega_m2=1.3, gamma2=3e-5, nth1=10.0, nth2=10.0)
        got = s_add(p, 1.05).s_th
        assert got != pytest.approx(p.gamma1 * 10.0 / 2.0, rel=1e-3)

    def test_positive_everywhere(self):
        p = params()
        for w in np.linspace(0.5, 1.6, 23):
            assert s_add(p, float(w)).s_add > 0.0


class TestResonantRoute:
    def test_regression_value(self):
        assert s_add_resonant(params(), 1.05) == pytest.approx(
            0.07861583809566522, rel=1e-12)

    def test_requires_matched_resonance(self):
        with pytest.raises(ParameterError):
            s_add_resonant(params(delta_prime=0.9), 1.05)
        with pytest.raises(ParameterError):
            s_add_resonant(params(omega_m2=1.1), 1.05)

    def test_thermal_part_is_coupling_free(self):
        # the thermal transduction ratios cancel G, so s_th matches the
        # full route at any coupling
        for g in (0.01, 0.03, 0.1):
            p = params(g_lin=g)
            full = s_add(p, 1.03).s_th
            assert full == pytest.approx(p.gamma1 * 10.0 / 2.0, rel=1e-12)


class TestSomBaseline:
    def test_min_scale_matches_dual_uncoupled(self):
        grid = frequency_grid([1.0], 1e-5, (0.9, 1.2), 401)
        p = params(v_coupling=0.0)
        dual = min(s_add(p, float(w)).s_add for w in grid)
        som = min(s_add_som(1.0, 1e-5, 0.1, 0.03, 10.0, float(w))
                  for w in grid)
        assert abs(dual - som) / som < 0.05

    def test_shot_noise_slope(self):
        gs = np.geomspace(1e-6, 1e-5, 9)
        ys = [s_add_som(1.0, 1e-5, 0.1, g, 0.0, 1.0) for g in gs]
        slope = np.polyfit(np.log(gs), np.log(ys), 1)[0]
        assert slope == pytest.approx(-2.0, abs=0.02)

    def test_backaction_slope(self):
        gs = np.geomspace(1e2, 1e3, 9)
        ys = [s_add_som(1.0, 1e-5, 0.1, g, 0.0, 1.0) for g in gs]
        slope = np.polyfit(np.log(gs), np.log(ys), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.02)

    def test_thermal_floor_added_whole(self):
        cold = s_add_som(1.0, 1e-5, 0.1, 0.03, 0.0, 1.0)
        warm = s_add_som(1.0, 1e-5, 0.1, 0.03, 10.0, 1.0)
        assert warm - cold == pytest.approx(1e-5 * 10.0, rel=1e-12)


class TestSpectrumSweep:
    def test_requires_increasing_grid(self):
        with pytest.raises(ParameterError):
            spectrum_sweep(params(), np.array([1.0, 0.9, 1.1]))

    def test_points_carry_gain(self):
        grid = np.linspace(0.95, 1.15, 21)
        res = spectrum_sweep(params(), grid)
        assert len(res.points) == 21
        pt = res.points[3]
        assert pt.a_p == pytest.approx(
            abs(solve_coefficients(params(), pt.omega).e_coef), rel=1e-14)
        assert pt.s_add > 0 and pt.s_th > 0

    def test_minimum_sits_at_dressed_notch(self):
        weff = omega_eff(1.0, 0.2)
        grid = frequency_grid([1.0, weff], 1e-5, (0.9, 1.2), 401)
        res = spectrum_sweep(params(), grid)
        vals = [pt.s_add for pt in res.points]
        w_min = res.points[int(np.argmin(vals))].omega
        assert abs(w_min - weff) / weff < 0.01

    def test_stronger_coupling_digs_deeper(self):
        mins = {}
        for v in (0.0, 0.2, 0.4):
            grid = frequency_grid([1.0, omega_eff(1.0, v)], 1e-5,
                                  (0.9, 1.35), 401)
            res = spectrum_sweep(params(v_coupling=v), grid)
            mins[v] = min(pt.s_add for pt in res.points)
        assert mins[0.4] < mins[0.2] < mins[0.0]
