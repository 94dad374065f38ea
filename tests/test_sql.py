import math
from dataclasses import replace

import numpy as np
import pytest

import omdp_sense.sql as sql
from omdp_sense import (DetectorParams, ParameterError,
                        StructureViolationError, TransductionAbsentError,
                        default_g_range,
                        fit_shot_backaction, minimize_over_g_analytic,
                        minimize_over_g_numeric, omega_eff, r_factors, r_map,
                        s_add, s_min_sweep, som_sql)
from omdp_sense.checks import (random_t0, reference_params as params,
                               s_add_in_g)
from omdp_sense.cli import PANELS
from omdp_sense.exact import Exact
from omdp_sense.optimize import golden_min, log_grid, scan_then_golden
from omdp_sense.sql import SWEEP_POINTS, SWEEP_SPAN, _s_sql, _shot_backaction


class PolishError(Exception):
    """Raised by an objective patched to fail off a scan grid."""


# frozen reference limits at omega = omega_m
SOM_LIMIT_AT_WM = 2.794585205904759e-08
DUAL_LIMIT_V0_AT_WM = 5.0139729260295225e-06
R1_V0_AT_WM = 179.4174289420611


class TestStructureFit:
    def test_synthetic_quartic(self):
        f = lambda g, w: 1.0 / g ** 2 + g ** 2
        p, q, r, resid = fit_shot_backaction(f, 1.0, 0.7)
        assert p == pytest.approx(1.0, rel=1e-9)
        assert q == pytest.approx(1.0, rel=1e-9)
        assert r == pytest.approx(0.0, abs=1e-9)
        assert resid < 1e-12

    def test_offset_recovered(self):
        f = lambda g, w: 3.0 / g ** 2 + 0.5 * g ** 2 + 0.25
        p, q, r, _ = fit_shot_backaction(f, 1.0, 1.3)
        assert (p, q, r) == pytest.approx((3.0, 0.5, 0.25), rel=1e-9)


class TestGoldenSection:
    def test_convex_synthetic(self):
        x, fx = golden_min(lambda g: (g - 1.0) ** 2 + 1.0, 0.2, 3.0)
        assert abs(x - 1.0) < 1e-9
        assert abs(fx - 1.0) < 1e-9


class TestAnalyticMinimizer:
    def test_synthetic_balance(self):
        # p = q = 1, r = 0 gives s_sql = 2 at g = 1; checked through the
        # quartic-structure identity on fitted coefficients
        f = lambda g, w: 1.0 / g ** 2 + g ** 2
        p, q, r, _ = fit_shot_backaction(f, 1.0, 0.6)
        s = 2.0 * math.sqrt(p * q) + r
        g = (p / q) ** 0.25
        assert s == pytest.approx(2.0, rel=1e-9)
        assert g == pytest.approx(1.0, rel=1e-9)

    def test_rejects_thermal_occupation(self):
        with pytest.raises(ParameterError):
            minimize_over_g_analytic(params(nth1=10.0, nth2=10.0), 1.0)

    def test_rejects_non_finite_frequency(self):
        with pytest.raises(StructureViolationError):
            minimize_over_g_analytic(params(), math.nan)

    def test_uncoupled_limit_frozen(self):
        p = params(v_coupling=0.0)
        an = minimize_over_g_analytic(p, 1.0)
        assert an.s_sql == pytest.approx(DUAL_LIMIT_V0_AT_WM, rel=1e-9)
        assert fit_shot_backaction(s_add_in_g(p), 1.0, an.g_opt)[3] < 1e-8

    def test_closed_form_matches_solver(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            p, w = random_t0(rng)
            pp, qq, rr = _shot_backaction(p, w)
            for g in (1e-3, 0.03, 0.3):
                assert pp / g ** 2 + qq * g ** 2 + rr == pytest.approx(
                    s_add_in_g(p)(g, w), rel=1e-11)

    def test_independent_of_seed_coupling(self):
        p = params()
        w = omega_eff(1.0, 0.2)
        first = minimize_over_g_analytic(p, w)
        for g in (1e-3, 0.05, 0.3, 2.0):
            assert minimize_over_g_analytic(replace(p, g_lin=g), w) == first

    def test_interior_optimum_for_reference_parameters(self):
        an = minimize_over_g_analytic(params(v_coupling=0.0), 1.0)
        lo, hi = default_g_range(params())
        assert lo < an.g_opt < hi

    def test_agrees_with_numeric(self):
        rng = np.random.default_rng(8472)
        for _ in range(20):
            wm = rng.uniform(0.5, 2.0)
            p = DetectorParams(
                delta_prime=rng.uniform(0.8, 1.2) * wm,
                kappa=rng.uniform(0.05, 0.5) * wm, g_lin=0.03 * wm,
                omega_m1=wm, omega_m2=wm,
                gamma1=rng.uniform(1e-5, 1e-3) * wm,
                gamma2=rng.uniform(1e-5, 1e-3) * wm,
                v_coupling=rng.uniform(0.0, 0.4) * wm)
            w = rng.uniform(0.9, 1.2) * wm
            an = minimize_over_g_analytic(p, w)
            nu = minimize_over_g_numeric(p, w, default_g_range(p))
            assert abs(an.s_sql - nu.s_sql) / nu.s_sql < 1e-6
            assert not nu.at_boundary

    def test_scale_invariance(self):
        # joint rescale of all rates and omega leaves the limit fixed up to
        # the overall noise normalization staying dimensionless
        c = 3.7
        base = params(v_coupling=0.0)
        scaled = DetectorParams(
            delta_prime=c * base.delta_prime, kappa=c * base.kappa,
            g_lin=c * base.g_lin, omega_m1=c, omega_m2=c,
            gamma1=c * base.gamma1, gamma2=c * base.gamma2, v_coupling=0.0)
        r_base = r_factors(base, 1.0)
        r_scaled = r_factors(scaled, c)
        assert r_scaled["r1"] == pytest.approx(r_base["r1"], rel=1e-9)
        assert r_scaled["r2"] == pytest.approx(r_base["r2"], rel=1e-9)


class TestArrayOptimum:
    """The T = 0 optimum on a numpy frequency array against
    minimize_over_g_analytic point by point, bit for bit."""

    def test_equals_scalar_on_random_sets(self):
        rng = np.random.default_rng(4113)
        for _ in range(100):
            p, w = random_t0(rng)
            wm = p.omega_m1
            ws = np.concatenate(([w], np.linspace(0.8, 1.3, 302) * wm))
            got = _s_sql(p, ws).tolist()
            assert got == [minimize_over_g_analytic(p, x).s_sql
                           for x in ws.tolist()]

    @pytest.mark.parametrize("panel", sorted(PANELS))
    def test_equals_scalar_on_refined_scan_grids(self, checked_scans, panel):
        name, lo, hi, points, spacing = PANELS[panel]
        values = (np.geomspace if spacing == "log" else np.linspace)(
            lo, hi, points)
        sw = s_min_sweep(params(), name, values, mode="sql", grid="refined")
        assert len(checked_scans) == len(sw.values) > 0

    def test_shot_backaction_takes_one_detector_per_point(self):
        # the detectors of sweep panels a-d, each at its own frequency
        ps = []
        for name, lo, hi, points, spacing in PANELS.values():
            values = (np.geomspace if spacing == "log" else np.linspace)(
                lo, hi, points)
            for v in values.tolist():
                try:
                    ps.append(sql._sweep_point(params(), name, v))
                except ParameterError:
                    pass
        ws = np.random.default_rng(61).uniform(0.8, 1.3, len(ps))
        p, q, r = map(np.asarray, _shot_backaction(ps, Exact(ws)))
        for i, (pv, w) in enumerate(zip(ps, ws.tolist())):
            assert (p[i], q[i], r[i]) == _shot_backaction(pv, w), i

    @pytest.mark.parametrize("fields", [
        dict(delta_prime=-1e308),            # complex division by zero
        dict(gamma1=1e308, gamma2=1e308),    # overflow
        dict(kappa=1e-300),                  # not finite, no raise
        # finite points, then one with no shot/back-action balance
        dict(gamma1=1e-300, gamma2=1e-300, kappa=1e-150)])
    def test_bad_points_keep_scalar_values_and_errors(self, fields):
        p = params(**fields)
        ws = np.linspace(0.9, 1.15, 41)
        want, first = [], None
        for w in ws.tolist():
            try:
                want.append(minimize_over_g_analytic(p, w).s_sql)
            except (ArithmeticError, StructureViolationError) as exc:
                first = exc
                break
        if first is None:
            got = _s_sql(p, ws).tolist()
            assert np.array_equal(got, want, equal_nan=True)
        else:
            with pytest.raises(type(first)) as exc:
                _s_sql(p, ws)
            assert str(exc.value) == str(first)


    @pytest.mark.parametrize("gamma", [1e-100, 1e-150, 1e-200, 1e-300,
                                       1e-308])
    @pytest.mark.parametrize("kappa", [1e-5, 0.1, 1e3])
    def test_tiny_damping_limit_is_positive_or_refused(self, gamma, kappa):
        # the sql-map grid at defaults; a limit 2 sqrt(pq) + r <= 0 would
        # give finite log10 ratios of two negative limits
        ws = np.linspace(0.9, 1.15, 101)
        for v in np.linspace(0.0, 0.3, 13).tolist():
            p = params(gamma1=gamma, gamma2=gamma, kappa=kappa, v_coupling=v)
            try:
                s = _s_sql(p, ws)
            except StructureViolationError:
                continue
            assert (s > 0).all(), v

    @pytest.mark.parametrize("g", [1e-3, 0.03, 1.0])
    def test_tiny_damping_limit_is_positive_by_both_routes(self, g):
        # at gamma = 1e-100 p and q are huge and r nearly cancels them; on
        # the sql-map grid at defaults the limit must stay above zero point
        # by point and on arrays
        ws = np.linspace(0.9, 1.15, 101)
        for v in np.linspace(0.0, 0.3, 13).tolist():
            p = params(gamma1=1e-100, gamma2=1e-100, g_lin=g, v_coupling=v)
            assert (sql._t0_limit(p, ws) > 0).all(), v
            assert all(minimize_over_g_analytic(p, w).s_sql > 0
                       for w in ws.tolist()), v


class TestNumericMinimizer:
    def test_boundary_flagged(self):
        # s_add rises with g above the optimum, so the range's low end wins
        p = params(v_coupling=0.0)
        lo = 2.0 * minimize_over_g_analytic(p, 1.0).g_opt
        nu = minimize_over_g_numeric(p, 1.0, (lo, 5.0 * lo))
        assert nu.at_boundary
        assert nu.g_opt == pytest.approx(lo, rel=1e-6)

    def test_bad_range_rejected(self):
        for g_range in ((0.0, 1.0), (-1.0, 1.0), (1.0, 0.5), (1.0, 1.0)):
            with pytest.raises(ParameterError, match="g_range"):
                minimize_over_g_numeric(params(), 1.0, g_range)
            with pytest.raises(ParameterError, match="g_range"):
                log_grid(*g_range)

    def test_equals_scalar_evaluator_route(self):
        # the grid is solved as one coupling array; the result must be the
        # one a point-by-point scan over s_add gives, field for field
        rng = np.random.default_rng(31)
        for _ in range(10):
            p, w = random_t0(rng)
            g_range = default_g_range(p)
            gs = log_grid(*g_range)

            def at(g):
                return s_add(replace(p, g_lin=g), w).s_add
            x, fx, edge = scan_then_golden(at, gs,
                                           [at(g) for g in gs.tolist()])
            nu = minimize_over_g_numeric(p, w, g_range)
            assert (nu.g_opt, nu.s_sql, nu.at_boundary) == (x, fx, edge)
            assert type(nu.s_sql) is float and type(nu.g_opt) is float


    def test_batch_equals_one_set_at_a_time(self, checked_scans):
        rng = np.random.default_rng(97)
        sets = [random_t0(rng) for _ in range(12)]
        ps, ws = zip(*sets)
        ranges = [default_g_range(p) for p in ps]
        one = tuple(minimize_over_g_numeric(p, w, r)
                    for p, w, r in zip(ps, ws, ranges))
        del checked_scans[:]
        assert minimize_over_g_numeric(ps, ws, ranges) == one
        assert len(checked_scans) == len(sets)

    def test_a_polish_error_comes_before_a_later_scan_error(
            self, monkeypatch):
        # one batch scans both sets; set 1's scan has a failing point, and
        # set 0's polish raises first, as one call per set would
        p0, p1 = params(), params(delta_prime=1e154)
        r0 = default_g_range(p0)
        with pytest.raises(TransductionAbsentError), \
                np.errstate(all="ignore"):
            minimize_over_g_numeric(p1, 1.0, r0)
        grid0 = set(log_grid(*r0).tolist())
        solve = sql.solve_coefficients

        def polish_fails(p, w, g_lin=None):
            # the polish solves one point, its coupling off the scan grid
            if (not isinstance(p, list) and p.delta_prime == 1.0
                    and g_lin not in grid0):
                raise PolishError
            return solve(p, w, g_lin)
        monkeypatch.setattr(sql, "solve_coefficients", polish_fails)
        with pytest.raises(PolishError), np.errstate(all="ignore"):
            minimize_over_g_numeric([p0, p1], [1.0, 1.0], [r0, r0])

    def test_batch_needs_a_frequency_and_range_per_detector(self):
        p, w = params(), 1.0
        for args in (([p, p], [w], [default_g_range(p)] * 2),
                     ([p], [w], [default_g_range(p)] * 2), ([], [], [])):
            with pytest.raises(ParameterError):
                minimize_over_g_numeric(*args)


class TestSomSql:
    def test_frozen_value_at_resonance(self):
        assert som_sql(1.0, 1e-5, 0.1, 1.0) == pytest.approx(
            SOM_LIMIT_AT_WM, rel=1e-12)

    def test_matches_numeric_coupling_scan(self):
        from omdp_sense.spectra import s_add_som
        gs = log_grid(1e-6, 10.0)
        for w in (0.97, 1.0, 1.05):
            def at(g):
                return s_add_som(1.0, 1e-5, 0.1, g, 0.0, w)
            _, s_min, _ = scan_then_golden(at, gs,
                                           [at(g) for g in gs.tolist()])
            assert som_sql(1.0, 1e-5, 0.1, w) == pytest.approx(
                s_min, rel=1e-8)

    def test_minimal_at_mechanical_resonance(self):
        ws = np.linspace(0.9, 1.1, 81)
        vals = [som_sql(1.0, 1e-5, 0.1, float(w)) for w in ws]
        assert ws[int(np.argmin(vals))] == pytest.approx(1.0, abs=0.01)


class TestRFactors:
    def test_independent_of_call_history(self):
        p = params()
        w = omega_eff(1.0, 0.2)
        first = r_factors(p, w)
        r_factors(replace(p, g_lin=0.05), w)
        assert r_factors(p, w) == first

    def test_no_mutable_module_state(self):
        mutable = [name for name, value in vars(sql).items()
                   if not name.startswith("__")
                   and isinstance(value, (dict, list, set, bytearray))]
        assert mutable == []

    def test_uncoupled_normalization(self):
        rf = r_factors(params(v_coupling=0.0), 1.0)
        assert rf["r2"] == pytest.approx(1.0, rel=1e-12)
        assert rf["r1"] == pytest.approx(R1_V0_AT_WM, rel=1e-9)

    def test_rejects_thermal_state(self):
        with pytest.raises(ParameterError):
            r_factors(params(nth1=1.0, nth2=1.0), 1.0)
        with pytest.raises(ParameterError):
            r_factors(params(nth1=1.0, nth2=1.0), np.array([1.0, 1.1]))

    def test_numpy_array_equals_scalar_calls(self):
        # float arrays in, float arrays out, bit for bit the scalar calls
        omegas = np.linspace(0.9, 1.15, 41)
        for v in (0.0, 0.2):
            rf = r_factors(params(v_coupling=v), omegas)
            each = [r_factors(params(v_coupling=v), w)
                    for w in omegas.tolist()]
            for key in ("r1", "r2"):
                assert type(rf[key]) is np.ndarray
                assert rf[key].tolist() == [r[key] for r in each]
        assert r_factors(params(), omegas[:0])["r1"].shape == (0,)


class TestRMap:
    def test_rows_equal_point_by_point_loop(self):
        omegas = np.linspace(0.9, 1.15, 101)
        vs = np.linspace(0.0, 0.3, 13)
        m = r_map(params(), omegas, vs)
        for v, row1, row2 in zip(vs.tolist(), m.log10_r1, m.log10_r2):
            rfs = [r_factors(params(v_coupling=v), w)
                   for w in omegas.tolist()]
            assert row1 == tuple(math.log10(rf["r1"]) for rf in rfs)
            assert row2 == tuple(math.log10(rf["r2"]) for rf in rfs)

    @pytest.mark.parametrize("fields", [
        dict(kappa=1e-300),  # a zero reference limit
        dict(gamma1=5e-324, gamma2=5e-324, kappa=1e308),
        dict(delta_prime=-1e308),
        # the first point finite, a zero reference limit, and a later
        # point that fails on its own: the reference's error comes first
        dict(kappa=1e-300, delta_prime=1.1, gamma1=1e-200, gamma2=1e-200)])
    def test_array_row_raises_what_the_loop_raises_first(self, fields):
        p = params(**fields)
        omegas = np.linspace(0.9, 1.15, 21)
        with pytest.raises(ArithmeticError) as loop:
            for w in omegas.tolist():
                r_factors(p, w)
        with pytest.raises(type(loop.value)) as row:
            r_factors(p, omegas)
        assert str(row.value) == str(loop.value)

    def grid_map(self):
        omegas = np.linspace(0.9, 1.15, 51)
        vs = np.linspace(0.0, 0.3, 7)
        return r_map(params(), omegas, vs), omegas, vs

    def test_uncoupled_row_floor(self):
        m, omegas, _ = self.grid_map()
        row = np.array(m.log10_r2[0])
        j = int(np.argmin(row))
        assert omegas[j] == pytest.approx(1.0, abs=0.005)
        assert row[j] == pytest.approx(0.0, abs=1e-9)

    def test_dip_tracks_effective_frequency(self):
        m, omegas, vs = self.grid_map()
        step = omegas[1] - omegas[0]
        for i, v in enumerate(vs):
            j = int(np.argmin(m.log10_r2[i]))
            assert abs(omegas[j] - omega_eff(1.0, float(v))) <= 1.5 * step

    def test_coupling_trend_at_formula_frequency(self):
        # the zero-temperature floor rises with coupling; the coupling
        # advantage is carried by the thermal term, not the T = 0 limit
        # (see the ordering test in test_spectra)
        r1s, r2s = [], []
        for v in np.linspace(0.0, 0.3, 7):
            rf = r_factors(params(v_coupling=float(v)),
                           omega_eff(1.0, float(v)))
            r1s.append(rf["r1"])
            r2s.append(rf["r2"])
        assert all(b > a for a, b in zip(r1s, r1s[1:]))
        assert all(b > a for a, b in zip(r2s, r2s[1:]))
        assert r2s[0] == pytest.approx(1.0, rel=1e-12)

    def test_optimized_floor_dips_at_formula_frequency(self):
        # minimizing over the coupling as well as scanning omega puts the
        # dip of the floor right on sqrt(omega_m (omega_m + v))
        from omdp_sense import frequency_grid, minimize_over_g_analytic
        from omdp_sense.optimize import golden_min
        p = params(v_coupling=0.2)
        weff = omega_eff(1.0, 0.2)
        grid = frequency_grid([1.0, weff], 1e-5, (0.9, 1.35), 401)
        f = lambda w: minimize_over_g_analytic(p, float(w)).s_sql
        vals = [f(w) for w in grid]
        k = int(np.argmin(vals))
        wb, _ = golden_min(f, grid[k - 1], grid[k + 1])
        assert wb == pytest.approx(weff, rel=1e-4)

    def test_unit_crossing_recorded_for_uncoupled_row(self):
        m, _, _ = self.grid_map()
        assert len(m.r2_crossings[0]) >= 1
        assert min(abs(w - 1.0) for w in m.r2_crossings[0]) < 0.005

    @pytest.mark.parametrize("logvals, want", [
        ([-1.0, 0.0, 1.0], (2.0,)),
        ([1.0, 0.0, -1.0], (2.0,)),
        ([1.0, 0.0, 1.0], (2.0,)),
        ([-1.0, 0.0], (2.0,)),
        ([-1.0, 1.0], (1.5,)),
        ([1.0, 2.0], ())])
    def test_a_sign_change_through_zero_is_one_crossing(self, logvals,
                                                       want):
        omegas = (1.0, 2.0, 3.0)[:len(logvals)]
        assert sql._unit_crossings(omegas, logvals) == want


class TestSMinSweep:
    def template(self, nth=10.0):
        return params(nth1=nth, nth2=nth)

    def test_coupling_sweep_anchor(self):
        vals = np.linspace(0.0, 0.5, 51)
        sw = s_min_sweep(self.template(), "v", vals)
        i = int(np.argmin(np.abs(np.array(sw.values) - 0.47)))
        assert sw.s_min[i] == pytest.approx(0.016051122322590754, rel=1e-9)
        # the local bump the anchor sits on tops out at that same value
        assert max(sw.s_min[20:]) == sw.s_min[i]

    def test_drive_sweep_anchor(self):
        gs = np.geomspace(0.005, 0.09, 61)
        sw = s_min_sweep(self.template(), "g", gs)
        j = int(np.argmin(sw.s_min))
        assert sw.values[j] == pytest.approx(0.024511499610247036, rel=1e-12)
        assert 0.014 <= sw.values[j] <= 0.026

    def test_split_sweep_consistent_with_coupling_sweep(self):
        sw_v = s_min_sweep(self.template(), "v", np.linspace(0.0, 0.5, 51))
        sw_d = s_min_sweep(self.template(), "delta_omega",
                           np.linspace(-0.05, 0.05, 41))
        iv = int(np.argmin(np.abs(np.array(sw_v.values) - 0.2)))
        jd = int(np.argmin(np.abs(np.array(sw_d.values))))
        assert sw_d.s_min[jd] == sw_v.s_min[iv]

    def test_unstable_values_skipped_with_note(self):
        sw = s_min_sweep(self.template(), "v", np.array([0.2, 1.5]))
        assert len(sw.s_min) == 1
        assert len(sw.skipped) == 1
        assert sw.skipped[0][0] == 1.5
        assert "stab" in sw.skipped[0][1].lower() or \
               "reject" in sw.skipped[0][1].lower()

    def test_sql_mode_reports_coupling_optimum(self):
        sw = s_min_sweep(self.template(nth=0.0), "v",
                         np.array([0.0, 0.2]), mode="sql")
        assert sw.g_opt is not None and len(sw.g_opt) == 2
        assert all(g > 0 for g in sw.g_opt)
        # optimizing the coupling can only lower the floor
        fixed = s_min_sweep(self.template(nth=0.0), "v", np.array([0.0, 0.2]))
        assert all(s <= f + 1e-15 for s, f in zip(sw.s_min, fixed.s_min))

    def test_deterministic(self):
        vals = np.linspace(0.0, 0.4, 11)
        a = s_min_sweep(self.template(), "v", vals)
        b = s_min_sweep(self.template(), "v", vals)
        assert a.s_min == b.s_min
        assert a.omega_at_min == b.omega_at_min

    def test_refined_grid_digs_deeper(self):
        vals = np.array([0.47])
        fig = s_min_sweep(self.template(), "v", vals, grid="figure")
        ref = s_min_sweep(self.template(), "v", vals, grid="refined")
        assert ref.s_min[0] < fig.s_min[0]

    def test_refined_scan_on_arrays_equals_scalar_scan(self, checked_scans):
        # panels a-d, all values' scans in one batch
        for name, lo, hi, points, spacing in PANELS.values():
            values = (np.geomspace if spacing == "log" else np.linspace)(
                lo, hi, points)
            del checked_scans[:]
            sw = s_min_sweep(self.template(), name, values, grid="refined")
            assert len(checked_scans) == len(sw.values) > 0

    @pytest.mark.parametrize("mode, nth", [
        ("fixed_g", 10.0), ("fixed_g", 0.0), ("sql", 0.0)])
    @pytest.mark.parametrize("panel", sorted(PANELS) + ["unstable"])
    def test_figure_grid_equals_point_by_point_loop(self, panel, mode, nth):
        # the loop over values that the figure grid ran before it was
        # solved as one batch: one scalar objective call per point
        if panel == "unstable":
            name, values = "v", np.linspace(0.0, 1.5, 31)  # v >= 1 skipped
        else:
            name, lo, hi, points, spacing = PANELS[panel]
            values = (np.geomspace if spacing == "log" else np.linspace)(
                lo, hi, points)
        template = self.template(nth=nth)
        grid = np.linspace(SWEEP_SPAN[0], SWEEP_SPAN[1], SWEEP_POINTS)
        rows, skipped, edges = [], [], 0
        for v in values.tolist():
            try:
                pv = sql._sweep_point(template, name, v)
            except ParameterError as exc:
                skipped.append((v, str(exc)))
                continue
            if mode == "fixed_g":
                vals = [s_add(pv, w).s_add for w in grid.tolist()]
            else:
                vals = [minimize_over_g_analytic(pv, w).s_sql
                        for w in grid.tolist()]
            k = int(np.argmin(vals))
            fk = vals[k]
            edges += k in (0, len(grid) - 1)
            rows.append((v, fk, float(grid[k])))
        sw = s_min_sweep(template, name, values, mode=mode)
        assert tuple(zip(sw.values, sw.s_min, sw.omega_at_min)) == tuple(rows)
        assert sw.skipped == tuple(skipped)
        assert sw.at_boundary == edges
        assert len(skipped) == (11 if panel == "unstable" else 0)

    @pytest.mark.parametrize("mode", ["fixed_g", "sql"])
    @pytest.mark.parametrize("grid", ["figure", "refined"])
    def test_errors_keep_the_order_of_the_values(self, mode, grid):
        # the first value's scan raises before the second value's
        # detector overflows; alone, the second value overflows
        fields, first = {
            "fixed_g": (dict(delta_prime=1e154), TransductionAbsentError),
            "sql": (dict(delta_prime=-1e308), ZeroDivisionError)}[mode]
        with pytest.raises(first), np.errstate(all="ignore"):
            s_min_sweep(params(**fields), "v", [0.1, 1e200], mode=mode,
                        grid=grid)
        with pytest.raises(OverflowError):
            s_min_sweep(params(), "v", [0.1, 1e200], mode=mode, grid=grid)

    @pytest.mark.parametrize("mode", ["fixed_g", "sql"])
    def test_a_polish_error_comes_before_a_later_scan_error(
            self, checked_scans, monkeypatch, mode):
        # all values are scanned in one batch; value 1's scan has a failing
        # point, and value 0's polish raises first, as a loop would
        template = params(gamma1=1e100, gamma2=1e100)
        with pytest.raises(OverflowError), np.errstate(all="ignore"):
            s_min_sweep(template, "kappa", [1e200], mode=mode,
                        grid="refined")
        s_min_sweep(template, "kappa", [0.1], mode=mode, grid="refined")
        grid0 = set(checked_scans[-1].tolist())
        name = "s_add" if mode == "fixed_g" else "minimize_over_g_analytic"
        scalar = getattr(sql, name)

        def polish_fails(p, w):
            # a batch of the fixed_g scan passes through
            if (not isinstance(p, list) and p.kappa == 0.1
                    and w not in grid0):
                raise PolishError
            return scalar(p, w)
        monkeypatch.setattr(sql, name, polish_fails)
        with pytest.raises(PolishError), np.errstate(all="ignore"):
            s_min_sweep(template, "kappa", [0.1, 1e200], mode=mode,
                        grid="refined")

    def test_zero_coupling_raises_the_scalar_error(self):
        # a g = 0 value stops either grid with s_add's own message
        for grid in ("figure", "refined"):
            with pytest.raises(TransductionAbsentError, match="g_lin = 0"):
                s_min_sweep(self.template(), "g", [0.0, 0.01], grid=grid)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ParameterError):
            s_min_sweep(self.template(), "mass", np.array([1.0]))
