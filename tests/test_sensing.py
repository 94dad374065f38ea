import math
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from omdp_sense import (MagnetometerConfig, ParameterError, frequency_grid,
                        make_report, occupation_temperature, omega_eff,
                        response_coefficient, s_add, s_add_som, s_r, snr,
                        thermal_occupation)
from omdp_sense import sensing
from omdp_sense.checks import reference_params
from omdp_sense.cli import main

W_SI = 2.0 * math.pi * 10.56e6
GAMMA = 32.0 / 10.56e6        # 2*pi*32 Hz in mechanical-frequency units
XI = 1.5e-10                  # 10 uA times 15 um
ANCHOR_SNR = 1.7e6
ANCHOR_B = 1e-13


params = partial(reference_params, gamma1=GAMMA, gamma2=GAMMA)


CONFIG = MagnetometerConfig(current=10e-6, probe_size=15e-6, field=ANCHOR_B,
                            temperature=1e-3)


def reports(p=None):
    return make_report(params() if p is None else p, CONFIG, ANCHOR_SNR,
                       rate_scale=W_SI)


class TestResponseCoefficient:
    def test_product(self):
        assert response_coefficient(10e-6, 15e-6) == pytest.approx(
            XI, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            response_coefficient(0.0, 15e-6)


class TestSnr:
    def thermal_params(self):
        occ = thermal_occupation(W_SI, 1e-3)
        return params(nth1=occ, nth2=occ)

    def test_power_form(self):
        s = s_add(self.thermal_params(), omega_eff(1.0, 0.2)).s_add
        xin = 2.5e3
        got = snr(s, xin * ANCHOR_B, "power")
        assert got == pytest.approx((xin * ANCHOR_B) ** 2 / s, rel=1e-12)

    def test_amplitude_form(self):
        s = s_add(self.thermal_params(), omega_eff(1.0, 0.2)).s_add
        xin = 2.5e3
        got = snr(s, xin * ANCHOR_B, "amplitude")
        assert got == pytest.approx(xin * ANCHOR_B / math.sqrt(s), rel=1e-12)

    def test_unknown_convention_rejected(self):
        with pytest.raises(ParameterError):
            snr(1.0, 1e-13, "decibel")

    def test_slopes_are_exact(self):
        reps = reports()
        assert reps["power"].slope == pytest.approx(2.0, abs=1e-9)
        assert reps["amplitude"].slope == pytest.approx(1.0, abs=1e-9)
        # SNR against field is a straight line in log-log: the least-squares
        # residual over the report's field range stays at rounding
        bs = np.geomspace(ANCHOR_B / 100.0, ANCHOR_B * 10.0, 7)
        for conv, rep in reps.items():
            logs = np.log10([snr(rep.noise, rep.eta * XI * b, conv)
                             for b in bs])
            slope, icpt = np.polyfit(np.log10(bs), logs, 1)
            resid = np.max(np.abs(logs - (slope * np.log10(bs) + icpt)))
            assert resid < 1e-9


class TestCalibration:
    def test_anchor_is_honored(self):
        reps = reports()
        assert list(reps) == ["power", "amplitude"]
        for rep in reps.values():
            assert rep.snr_at_omega_eff == pytest.approx(ANCHOR_SNR, rel=1e-9)

    def test_conventions_differ_by_root_of_anchor(self):
        reps = reports()
        rp, ra = reps["power"], reps["amplitude"]
        assert rp.b_min / ra.b_min == pytest.approx(
            math.sqrt(ANCHOR_SNR), rel=1e-9)


class TestDetectionAccuracy:
    def test_frozen_values(self):
        reps = reports()
        rp, ra = reps["power"], reps["amplitude"]
        assert rp.b_min == pytest.approx(7.669649888473706e-17, rel=1e-9)
        assert ra.b_min == pytest.approx(5.882352941176472e-20, rel=1e-9)

    def test_unit_snr_at_reported_field(self):
        rep = reports()["amplitude"]
        got = snr(rep.noise, rep.eta * XI * rep.b_min, "amplitude")
        assert got == pytest.approx(1.0, rel=1e-9)

    def test_same_field_for_fixed_transduction(self):
        # with the conversion held fixed the two conventions invert the
        # unit-snr condition to the same field; calibration is what
        # separates them
        occ = thermal_occupation(W_SI, 1e-3)
        s = s_add(params(nth1=occ, nth2=occ), omega_eff(1.0, 0.2)).s_add
        b = math.sqrt(s) / 1e3
        assert snr(s, 1e3 * b, "power") == pytest.approx(1.0, rel=1e-12)
        assert snr(s, 1e3 * b, "amplitude") == pytest.approx(1.0, rel=1e-12)


class TestEnhancementFactor:
    def test_frozen_occupation_series(self):
        vals = {1e3: 1.327262661626298, 1e4: 1.731198423176891,
                1e5: 1.9616236813747254}
        for nth, want in vals.items():
            T = occupation_temperature(W_SI, nth)
            assert s_r(params(), T, W_SI) == pytest.approx(want, rel=1e-9)

    def test_floor_scan_on_arrays_equals_scalar_scan(self, checked_scans):
        for v in (0.02, 0.2, 0.4):
            for temperature in (1e-4, 1e-3, 300.0):
                s_r(params(v_coupling=v), temperature, W_SI)
        assert len(checked_scans) == 9

    def test_floor_scan_raises_what_the_scalar_scan_raises(self):
        # at g = 1e-156 most of the grid overflows, yet some points stay
        # finite; the scalar scan raises at the first point that overflows
        p = reference_params(g_lin=1e-156)
        wm = p.omega_m1
        grid = frequency_grid([wm], p.gamma1, (0.8 * wm, 1.3 * wm), 201)
        with pytest.raises(OverflowError) as loop:
            for w in grid.tolist():
                s_add_som(wm, p.gamma1, p.kappa, abs(p.g_lin), p.nth1, w)
        # the array scan overflows quietly; the scalar redo raises
        with pytest.raises(OverflowError) as floor, \
                warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sensing.som_noise_floor(p)
        assert str(floor.value) == str(loop.value)

    @staticmethod
    def _count_floor_searches(monkeypatch):
        floor, calls = sensing.som_noise_floor, []
        monkeypatch.setattr(sensing, "som_noise_floor",
                            lambda p: calls.append(p) or floor(p))
        return calls

    def test_coupling_table_searches_the_floor_once(self, monkeypatch):
        # the floor reads no v, so the s_r_vs_v table needs one search
        vs = np.linspace(0.02, 0.4, 20).tolist()
        want = [s_r(params(v_coupling=v), 1e-3, W_SI) for v in vs]
        calls = self._count_floor_searches(monkeypatch)
        got = s_r([params(v_coupling=v) for v in vs], 1e-3, W_SI)
        assert got == want
        assert len(calls) == 1

    def test_temperature_table_searches_the_floor_once(self, monkeypatch):
        # the floor's thermal term gamma1 n1 is frequency-independent, so
        # the T = 0 floor serves every temperature
        temps = np.geomspace(1e-4, 300.0, 25).tolist()
        want = [s_r(params(), tk, W_SI) for tk in temps]
        calls = self._count_floor_searches(monkeypatch)
        assert s_r(params(), temps, W_SI) == want
        assert len(calls) == 1

    def test_one_search_per_distinct_baseline(self, monkeypatch):
        ps = [params(), params(kappa=0.2), params(v_coupling=0.3),
              params(g_lin=-0.03), params(gamma1=2 * GAMMA)]
        temps = [1e-3, 1e-3, 1.0, 10.0, 1e-3]
        want = [s_r(p, tk, W_SI) for p, tk in zip(ps, temps)]
        calls = self._count_floor_searches(monkeypatch)
        assert s_r(ps, temps, W_SI) == want
        assert len(calls) == 3

    def test_list_lengths_must_agree(self):
        with pytest.raises(ParameterError):
            s_r([params()] * 2, [1e-3] * 3, W_SI)

    def test_snr_searches_the_floor_once_per_table(self, monkeypatch,
                                                   tmp_path):
        calls = self._count_floor_searches(monkeypatch)
        assert main(["snr", "--out", str(tmp_path)]) == 0
        assert len(calls) == 2

    def test_closed_form_in_occupation(self):
        # identical oscillators halve the dual probe's thermal noise,
        # |C/E|^2 + |D/E|^2 = 1/2, so S_R = (F0 + gamma n)/(S0 + gamma n/2)
        p = reference_params()
        s0 = s_add(p, omega_eff(p.omega_m1, p.v_coupling)).s_add
        f0 = sensing.som_noise_floor(p)
        for nth in (1e3, 1e4, 1e5):
            T = occupation_temperature(W_SI, nth)
            n = thermal_occupation(W_SI, T)
            want = (f0 + p.gamma1 * n) / (s0 + p.gamma1 * n / 2)
            assert s_r(p, T, W_SI) == pytest.approx(want, rel=1e-12)
        # S_R reaches 1.9 one order above n = 1e3
        n_star = 20.0 * (1.9 * s0 - f0) / p.gamma1
        assert n_star == pytest.approx(1.07e4, rel=0.01)
        T = occupation_temperature(W_SI, n_star)
        assert s_r(p, T, W_SI) == pytest.approx(1.9, rel=1e-9)

    def test_room_temperature_limit(self):
        assert s_r(params(), 300.0, W_SI) == pytest.approx(2.0, rel=0.05)

    def test_exceeds_unity_in_cold_regime(self):
        assert s_r(params(), 1e-3, W_SI) > 1.0

    def test_monotone_toward_two(self):
        temps = (0.1, 1.0, 10.0, 100.0)
        vals = [s_r(params(), T, W_SI) for T in temps]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(v < 2.0 for v in vals)


class TestReport:
    def test_fields_are_coherent(self):
        rep = reports()["amplitude"]
        assert rep.eta > 0
        assert len(rep.snr_omegas) == len(rep.snr_values)
        occ = thermal_occupation(W_SI, 1e-3)
        assert rep.noise == pytest.approx(
            s_add(params(nth1=occ, nth2=occ), omega_eff(1.0, 0.2)).s_add,
            rel=1e-12)
        assert rep.slope == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("kw", [
        {}, dict(delta_prime=1.013, kappa=0.097, g_lin=0.0304,
                 omega_m2=1.02, gamma2=2.0 * GAMMA, v_coupling=0.17)])
    def test_one_noise_value_route(self, kw):
        # the report's spectrum and anchor numbers equal, bit for bit, the
        # snr formula on s_add at each point of the thermalized detector
        p = params(**kw)
        pt = replace(p, nth1=thermal_occupation(p.omega_m1 * W_SI, 1e-3),
                     nth2=thermal_occupation(p.omega_m2 * W_SI, 1e-3))
        w_eff = omega_eff(pt.omega_m1, pt.v_coupling)
        xi = response_coefficient(10e-6, 15e-6)
        for conv, rep in reports(p).items():
            assert rep.noise == s_add(pt, w_eff).s_add
            signal = rep.eta * xi * ANCHOR_B
            assert rep.snr_values == tuple(
                snr(s_add(pt, w).s_add, signal, conv)
                for w in rep.snr_omegas)
            assert rep.snr_at_omega_eff == snr(rep.noise, signal, conv)

    def test_one_solve_serves_both_conventions(self, monkeypatch):
        calls = {"s_add": 0, "spectrum_sweep": 0}

        def counted(name):
            inner = getattr(sensing, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)
            return wrapper
        for name in calls:
            monkeypatch.setattr(sensing, name, counted(name))
        reps = reports()
        assert calls == {"s_add": 1, "spectrum_sweep": 1}
        rp, ra = reps["power"], reps["amplitude"]
        assert rp.noise == ra.noise
        assert rp.snr_omegas is ra.snr_omegas

    def test_spectrum_peaks_near_effective_frequency(self):
        rep = reports()["power"]
        w_best = rep.snr_omegas[int(np.argmax(rep.snr_values))]
        assert abs(w_best - omega_eff(1.0, 0.2)) / omega_eff(1.0, 0.2) < 0.01


class TestMagnetometerConfig:
    def test_rejects_non_finite(self):
        good = dict(current=10e-6, probe_size=15e-6, field=1e-13,
                    temperature=1e-3)
        for key in good:
            for bad in (math.nan, math.inf):
                with pytest.raises(ParameterError, match="finite"):
                    MagnetometerConfig(**dict(good, **{key: bad}))

    def test_rejects_negative_temperature(self):
        with pytest.raises(ParameterError):
            MagnetometerConfig(current=10e-6, probe_size=15e-6, field=1e-13,
                               temperature=-1.0)
