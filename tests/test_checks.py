"""validate's checks solve their sets in batches; each must give what a
loop over its sets, solving one point at a time, gives, and draw the same
numbers from the generator in the same order."""

from dataclasses import replace

import numpy as np
import pytest

from omdp_sense import (checks, closed_form_coefficients, default_g_range,
                        fit_shot_backaction, minimize_over_g_analytic,
                        minimize_over_g_numeric, s_add, s_add_resonant,
                        solve_coefficients)
from omdp_sense import spectra
from omdp_sense.checks import random_params, random_t0, rel, s_add_in_g
from omdp_sense.spectra import POINT_BLOCK


def oracle_loop(rng, sets):
    errs = []
    for _ in range(sets):
        p = random_params(rng)
        w = rng.uniform(0.1, 2.2)
        cf, so = closed_form_coefficients(p, w), solve_coefficients(p, w)
        errs += [rel(cf.a_coef, so.a_coef), rel(cf.b_coef, so.b_coef),
                 rel(cf.c_coef, so.c_coef), rel(cf.d_coef, so.d_coef)]
    return {"worst_rel_err": max(errs)}


def exchange_loop(rng, sets):
    errs = []
    for _ in range(sets):
        p = random_params(rng)
        w = rng.uniform(0.1, 2.2)
        ps = replace(p, omega_m1=p.omega_m2, omega_m2=p.omega_m1,
                     gamma1=p.gamma2, gamma2=p.gamma1)
        co, cs = solve_coefficients(p, w), solve_coefficients(ps, w)
        errs += [rel(co.c_coef, cs.d_coef), rel(co.d_coef, cs.c_coef),
                 rel(co.a_coef, cs.a_coef), rel(co.b_coef, cs.b_coef)]
    return {"worst_rel_err": max(errs)}


def halving_loop(rng, sets):
    errs = []
    for _ in range(sets):
        p = random_params(rng)
        wm = p.omega_m1
        p = replace(p, omega_m2=wm, gamma2=p.gamma1,
                    v_coupling=min(p.v_coupling, 0.9 * wm),
                    nth1=rng.uniform(0.0, 100.0))
        p = replace(p, nth2=p.nth1)
        w = rng.uniform(0.5, 1.5) * wm
        errs.append(rel(s_add(p, w).s_th, p.gamma1 * p.nth1 / 2.0))
    return {"worst_rel_err": max(errs)}


def optimum_loop(rng, sets):
    fits, errs, edges = [], [], 0
    for _ in range(sets):
        p, w = random_t0(rng)
        an = minimize_over_g_analytic(p, w)
        fits.append(fit_shot_backaction(s_add_in_g(p), w, an.g_opt)[3])
        nu = minimize_over_g_numeric(p, w, default_g_range(p))
        errs.append(rel(an.s_sql, nu.s_sql))
        edges += nu.at_boundary
    return {"structure_fit": {"worst_residual": max(fits)},
            "sql_cross_check": {"worst_rel_err": max(errs)},
            "at_boundary": edges}


def b_variant_loop(rng, sets):
    errs = {"conjugate": [], "direct": []}
    for _ in range(sets):
        p = random_params(rng)
        p = replace(p, g_lin=p.g_lin * np.exp(1j * rng.uniform(0.1, 3.0)))
        w = rng.uniform(0.5, 1.5)
        so = solve_coefficients(p, w)
        for form in errs:
            cf = closed_form_coefficients(p, w, b_form=form)
            errs[form].append(rel(cf.b_coef, so.b_coef))
    return {"worst_rel_err_conjugate": max(errs["conjugate"]),
            "worst_rel_err_direct": max(errs["direct"])}


def picked(entry, like):
    """The fields of a check's entry that its loop reference computes."""
    if isinstance(like, dict):
        return {k: picked(entry[k], v) for k, v in like.items()}
    return entry


@pytest.mark.parametrize("check, loop, sets", [
    # more sets than one block holds, so the sets span blocks
    (checks.coefficient_oracle, oracle_loop, POINT_BLOCK + 5),
    (checks.exchange_symmetry, exchange_loop, POINT_BLOCK + 5),
    (checks.thermal_halving, halving_loop, POINT_BLOCK + 5),
    (checks.b_variant, b_variant_loop, 50),
    (checks.coupling_optimum, optimum_loop, 7)])
def test_batched_check_equals_its_loop(check, loop, sets):
    assert_equals_loop(check, loop, sets)


@pytest.mark.parametrize("check, loop", [
    (checks.coefficient_oracle, oracle_loop),
    (checks.coupling_optimum, optimum_loop)])
def test_check_equals_its_loop_across_small_blocks(check, loop,
                                                   monkeypatch):
    # 9 sets in blocks of 4, 4 and 1; the optimum's g scans are solved 4
    # points at a time, so its blocks cut across the sets' scans
    monkeypatch.setattr(spectra, "POINT_BLOCK", 4)
    assert_equals_loop(check, loop, 9)


def assert_equals_loop(check, loop, sets):
    batched_rng, loop_rng = (np.random.default_rng(20240817) for _ in "ab")
    entries = check(batched_rng, sets)
    want = loop(loop_rng, sets)
    # coupling_optimum reports several entries, the others one each
    entry = entries.get(check.__name__, entries)
    assert picked(entry, want) == want
    # the same draws, in the same order, and no more
    assert batched_rng.bit_generator.state == loop_rng.bit_generator.state


def test_resonant_deviation_equals_its_loop():
    p = checks.reference_params(nth1=10.0, nth2=10.0)
    ws = np.linspace(0.9, 1.1, 201).tolist()
    devs = [abs(s_add_resonant(p, w) - s_add(p, w).s_add) / s_add(p, w).s_add
            for w in ws]
    entry = checks.resonant_reduction_deviation(None, 201)[
        "resonant_reduction_deviation"]
    assert entry["median"] == float(np.median(devs))
    assert entry["max"] == max(devs)
