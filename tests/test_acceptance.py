"""Acceptance gate: one test per numbered criterion, stated tolerances.

Each test prints one criterion line with the measured values, then asserts
at the criterion's tolerance. Two checks encode anchor targets the model,
implemented faithfully and cross-validated by two independent routes, does
not attain (4 and 8); they fail with the measured values on record rather
than with loosened tolerances.
"""

import math
import time

import numpy as np

from omdp_sense import (frequency_grid, occupation_temperature, omega_eff,
                        r_factors, s_add, s_add_som, s_min_sweep, s_r,
                        MagnetometerConfig, make_report)
from omdp_sense.checks import (coefficient_oracle, coupling_optimum, rel,
                               reference_params as reference)
from omdp_sense.cli import main as cli_main
from omdp_sense.optimize import golden_min

W_SI = 2.0 * math.pi * 10.56e6


def report(n, ok, detail):
    print("criterion %02d %s: %s" % (n, "PASS" if ok else "FAIL", detail))


def test_criterion_01_coefficient_oracle():
    rng = np.random.default_rng(1)
    t0 = time.monotonic()
    worst = coefficient_oracle(rng, 1000)["coefficient_oracle"][
        "worst_rel_err"]
    elapsed = time.monotonic() - t0
    ok = worst < 1e-9 and elapsed < 5.0
    report(1, ok, "worst rel err %.3e over 1000 sets in %.2f s"
           % (worst, elapsed))
    assert worst < 1e-9, "coefficient routes disagree: %.3e" % worst
    assert elapsed < 5.0, "too slow: %.2f s" % elapsed


def test_criterion_02_sql_minimizer_cross_check():
    rng = np.random.default_rng(2)
    t0 = time.monotonic()
    worst = coupling_optimum(rng, 100)["sql_cross_check"]["worst_rel_err"]
    elapsed = time.monotonic() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    report(2, ok, "worst rel err %.3e over 100 sets in %.2f s"
           % (worst, elapsed))
    assert worst < 1e-6, "minimizers disagree: %.3e" % worst
    assert elapsed < 10.0, "too slow: %.2f s" % elapsed


def test_criterion_03_optimized_frequency():
    devs = {}
    for v in (0.1, 0.2, 0.3):
        p = reference(v_coupling=v)
        weff = omega_eff(1.0, v)
        grid = frequency_grid([1.0, weff], 1e-5, (0.9, 1.35), 401)
        vals = [s_add(p, float(w)).s_add for w in grid]
        k = int(np.argmin(vals))
        wb, _ = golden_min(lambda w: s_add(p, w).s_add,
                           grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)])
        devs[v] = abs(wb - weff) / weff
    ok = all(d < 0.01 for d in devs.values())
    report(3, ok, "argmin deviation from formula: " +
           ", ".join("V=%g: %.3e" % (v, d) for v, d in devs.items()))
    assert all(d < 0.01 for d in devs.values()), devs


def test_criterion_04_sql_ratios():
    p = reference()
    rf = r_factors(p, omega_eff(1.0, 0.2))
    band = np.linspace(0.9, 1.1, 201)
    r1_band = max(r_factors(reference(v_coupling=0.0), float(w))["r1"]
                  for w in band)
    ok = rf["r1"] <= 1e-6 and rf["r2"] <= 1e-4 and r1_band <= 1.0
    report(4, ok, "R1=%.4g (<=1e-6?), R2=%.4g (<=1e-4?), "
           "max R1 on uncoupled band=%.4g (<=1?)"
           % (rf["r1"], rf["r2"], r1_band))
    assert rf["r1"] <= 1e-6, (
        "R1 at the effective frequency measures %.6g, above the 1e-6 target "
        "by ~8 orders; both coefficient routes agree on the value" % rf["r1"])
    assert rf["r2"] <= 1e-4, "R2 measures %.6g" % rf["r2"]
    assert r1_band <= 1.0, "uncoupled-band R1 peaks at %.6g" % r1_band


def test_criterion_05_sweep_anchors():
    template = reference(nth1=10.0, nth2=10.0)
    sw_v = s_min_sweep(template, "v", np.linspace(0.0, 0.5, 51))
    i = int(np.argmin(np.abs(np.array(sw_v.values) - 0.47)))
    s47 = sw_v.s_min[i]
    sw_g = s_min_sweep(template, "g", np.geomspace(0.005, 0.09, 61))
    g_at = sw_g.values[int(np.argmin(sw_g.s_min))]
    ok = 0.0075 <= s47 <= 0.03 and 0.014 <= g_at <= 0.026
    report(5, ok, "S_min(V=0.47)=%.4g (target 0.015 x/2), "
           "argmin G=%.4g (target 0.02 +-30%%)" % (s47, g_at))
    assert 0.015 / 2.0 <= s47 <= 0.015 * 2.0, s47
    assert 0.02 * 0.7 <= g_at <= 0.02 * 1.3, g_at


def test_criterion_06_thermal_halving():
    rng = np.random.default_rng(6)
    errs = []
    for _ in range(100):
        nth = rng.uniform(0.1, 100.0)
        p = reference(nth1=nth, nth2=nth,
                      v_coupling=rng.uniform(0.0, 0.9))
        w = rng.uniform(0.5, 1.5)
        errs.append(rel(s_add(p, w).s_th, p.gamma1 * nth / 2.0))
    worst = float(np.max(errs))  # a NaN error stays NaN and fails
    ok = worst < 1e-12
    report(6, ok, "worst rel err %.3e over 100 random frequencies" % worst)
    assert worst < 1e-12, worst


def test_criterion_07_som_scaling():
    gs_lo = np.geomspace(1e-6, 1e-5, 9)
    gs_hi = np.geomspace(1e2, 1e3, 9)
    slope_lo = np.polyfit(np.log(gs_lo),
                          np.log([s_add_som(1.0, 1e-5, 0.1, g, 0.0, 1.0)
                                  for g in gs_lo]), 1)[0]
    slope_hi = np.polyfit(np.log(gs_hi),
                          np.log([s_add_som(1.0, 1e-5, 0.1, g, 0.0, 1.0)
                                  for g in gs_hi]), 1)[0]
    ok = abs(slope_lo + 2.0) <= 0.02 and abs(slope_hi - 2.0) <= 0.02
    report(7, ok, "slopes %.4f (shot) and %.4f (back-action)"
           % (slope_lo, slope_hi))
    assert abs(slope_lo + 2.0) <= 0.02, slope_lo
    assert abs(slope_hi - 2.0) <= 0.02, slope_hi


def test_criterion_08_enhancement_limit():
    nth = 1e3
    T = occupation_temperature(W_SI, nth)
    val = s_r(reference(), T, W_SI)
    ok = abs(val - 2.0) / 2.0 <= 0.05
    report(8, ok, "S_R=%.6g at n_th=1e3 (2 +-5%% wanted); measured approach: "
           "1.513 @1e3, 1.894 @1e4, 1.988 @1e5" % val)
    assert abs(val - 2.0) / 2.0 <= 0.05, (
        "S_R at the n_th = 1e3 threshold measures %.6g; the limit of 2 is "
        "approached but the stated occupation is one order short of the "
        "convergence scale set by the zero-temperature floor: S_R reaches "
        "1.9 at n_th ~ 1.07e4" % val)


def test_criterion_09_magnetometer_soft():
    gam = 32.0 / 10.56e6
    p = reference(gamma1=gam, gamma2=gam)
    cfg = MagnetometerConfig(current=10e-6, probe_size=15e-6, field=1e-13,
                             temperature=1e-3)
    reports = make_report(p, cfg, 1.7e6, rate_scale=W_SI)
    b_amp = reports["amplitude"].b_min
    b_pow = reports["power"].b_min
    anchor = 8.4e-20
    within_oom = anchor / 10.0 <= b_amp <= anchor * 10.0
    labeled = set(reports) == {"power", "amplitude"}
    ok = within_oom and labeled
    report(9, ok, "amplitude b_min=%.4g (anchor %.2g, ratio %.2f); "
           "power convention residual: b_min=%.4g, %.0fx the anchor"
           % (b_amp, anchor, b_amp / anchor, b_pow, b_pow / anchor))
    assert labeled
    assert within_oom, b_amp


def test_criterion_10_linearity_invariant():
    # fields 1e-15 to 1e-12 T: field/100 to field*10 at field = 1e-13
    cfg = MagnetometerConfig(current=10e-6, probe_size=15e-6, field=1e-13,
                             temperature=1e-3)
    reports = make_report(reference(), cfg, 1.7e6, rate_scale=W_SI)
    slope_p = reports["power"].slope
    slope_a = reports["amplitude"].slope
    ok = abs(slope_p - 2.0) <= 1e-9 and abs(slope_a - 1.0) <= 1e-9
    report(10, ok, "slopes %.12f (power) and %.12f (amplitude)"
           % (slope_p, slope_a))
    assert abs(slope_p - 2.0) <= 1e-9, slope_p
    assert abs(slope_a - 1.0) <= 1e-9, slope_a


def test_criterion_11_cli_determinism(tmp_path):
    jobs = {
        "spectrum": (["spectrum"], ["spectrum.csv"],
                     "spectrum.csv.manifest.json"),
        "sql-map": (["sql-map"], ["sql_map.csv", "sql_map_contours.csv"],
                    "sql_map.csv.manifest.json"),
        "sweep": (["sweep"], ["sweep_a.csv"], "sweep_a.csv.manifest.json"),
        "snr": (["snr"], ["s_r_vs_v.csv", "s_r_vs_temperature.csv",
                          "snr_spectrum.csv", "snr_vs_b.csv",
                          "accuracy.json"],
                "accuracy.json.manifest.json"),
        "validate": (["validate"], ["validate_report.json"],
                     "validate_report.json.manifest.json"),
    }
    mismatched = []
    for name, (argv, outputs, manifest) in jobs.items():
        first = tmp_path / name / "first"
        second = tmp_path / name / "second"
        first.mkdir(parents=True)
        second.mkdir(parents=True)
        rc1 = cli_main(argv + ["--out", str(first)])
        rc2 = cli_main(argv + ["--config", str(first / manifest),
                               "--out", str(second)])
        assert rc1 == 0 and rc2 == 0, (name, rc1, rc2)
        for out in outputs:
            if (first / out).read_bytes() != (second / out).read_bytes():
                mismatched.append("%s/%s" % (name, out))
    ok = not mismatched
    report(11, ok, "all data files byte-identical on manifest rerun"
           if ok else "mismatches: %s" % ", ".join(mismatched))
    assert not mismatched, mismatched
