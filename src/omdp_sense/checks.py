"""The validation suite: cross-checks between independent routes.

Each check draws its sets from a numpy Generator and returns its report
entries by name. ``CHECKS`` lists them in ``validate``'s order. The layers
are called through their modules (``sql.minimize_over_g_numeric``), so a
wrapper set on a module attribute, to trace calls or to inject a fault,
sees every call the suite makes.
"""

import math
from dataclasses import replace

import numpy as np

from . import coefficients, spectra, sql
from .model import DetectorParams


def reference_params(**kw):
    """The reference detector (V = 0.2, T = 0), with any field replaced."""
    return DetectorParams(**dict(
        dict(delta_prime=1.0, kappa=0.1, g_lin=0.03, omega_m1=1.0,
             omega_m2=1.0, gamma1=1e-5, gamma2=1e-5, v_coupling=0.2), **kw))


def random_params(rng):
    """A random valid detector: mismatched oscillators, any detuning."""
    wm1 = rng.uniform(0.5, 2.0)
    wm2 = rng.uniform(0.5, 2.0)
    return DetectorParams(
        delta_prime=rng.uniform(-2.0, 2.0),
        kappa=rng.uniform(0.01, 1.0),
        g_lin=rng.uniform(1e-3, 0.3),
        omega_m1=wm1, omega_m2=wm2,
        gamma1=rng.uniform(1e-5, 1e-2), gamma2=rng.uniform(1e-5, 1e-2),
        v_coupling=rng.uniform(0.0, 0.9) * math.sqrt(wm1 * wm2))


def random_t0(rng):
    """A random detector for the T = 0 coupling optimum, and a frequency."""
    p = random_params(rng)
    p = replace(p, delta_prime=rng.uniform(0.8, 1.2) * p.omega_m1,
                v_coupling=rng.uniform(0.0, 0.4) * p.omega_m1)
    return p, rng.uniform(0.9, 1.2) * p.omega_m1


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def s_add_in_g(p):
    """The solver's s_add of p as a function of (g, omega)."""
    return lambda g, w: spectra.s_add(replace(p, g_lin=g), w).s_add


def _gated(errs, sets, gate, measure="rel_err"):
    # np.max keeps a NaN, and a NaN worst fails its gate
    worst = float(np.max(errs))
    return {"worst_" + measure: worst, "sets": sets, "pass": worst < gate}


def coefficient_oracle(rng, sets):
    """Closed-form coefficients A to D against the solver's."""
    errs = []
    for _ in range(sets):
        p = random_params(rng)
        w = rng.uniform(0.1, 2.2)
        cf = coefficients.closed_form_coefficients(p, w)
        so = coefficients.solve_coefficients(p, w)
        errs += [rel(cf.a_coef, so.a_coef), rel(cf.b_coef, so.b_coef),
                 rel(cf.c_coef, so.c_coef), rel(cf.d_coef, so.d_coef)]
    return {"coefficient_oracle": _gated(errs, sets, 1e-9)}


def exchange_symmetry(rng, sets):
    """Swapping the two oscillators swaps C and D and keeps A and B."""
    errs = []
    for _ in range(sets):
        p = random_params(rng)
        w = rng.uniform(0.1, 2.2)
        ps = replace(p, omega_m1=p.omega_m2, omega_m2=p.omega_m1,
                     gamma1=p.gamma2, gamma2=p.gamma1)
        co = coefficients.solve_coefficients(p, w)
        cs = coefficients.solve_coefficients(ps, w)
        errs += [rel(co.c_coef, cs.d_coef), rel(co.d_coef, cs.c_coef),
                 rel(co.a_coef, cs.a_coef), rel(co.b_coef, cs.b_coef)]
    return {"exchange_symmetry": _gated(errs, sets, 1e-9)}


def thermal_halving(rng, sets):
    """Identical thermal oscillators add gamma nth / 2 at any frequency."""
    errs = []
    for _ in range(sets):
        p = random_params(rng)
        wm = p.omega_m1
        p = replace(p, omega_m2=wm, gamma2=p.gamma1,
                    v_coupling=min(p.v_coupling, 0.9 * wm),
                    nth1=rng.uniform(0.0, 100.0))
        p = replace(p, nth2=p.nth1)
        w = rng.uniform(0.5, 1.5) * wm
        errs.append(rel(spectra.s_add(p, w).s_th, p.gamma1 * p.nth1 / 2.0))
    return {"thermal_halving": _gated(errs, sets, 1e-12)}


def coupling_optimum(rng, sets):
    """The exact coupling optimum against a fit and a search of s_add.

    ``at_boundary`` counts the sets whose numeric optimum sat on an end of
    the g range; it belongs in a sidecar manifest, not in the report.
    """
    fits, errs, at_boundary = [], [], 0
    for _ in range(sets):
        p, w = random_t0(rng)
        an = sql.minimize_over_g_analytic(p, w)
        fits.append(sql.fit_shot_backaction(s_add_in_g(p), w, an.g_opt)[3])
        nu = sql.minimize_over_g_numeric(p, w, sql.default_g_range(p))
        errs.append(rel(an.s_sql, nu.s_sql))
        at_boundary += nu.at_boundary
    return {"structure_fit": _gated(fits, sets, 1e-8, "residual"),
            "sql_cross_check": _gated(errs, sets, 1e-6),
            "at_boundary": at_boundary}


def resonant_reduction_deviation(rng, points):
    """Reduced against full spectrum at points frequencies near resonance.

    Draws nothing from rng; it takes one for CHECKS' uniform call.
    """
    p = reference_params(nth1=10.0, nth2=10.0)
    ws = np.linspace(0.9, 1.1, points).tolist()
    full = np.array([spectra.s_add(p, w).s_add for w in ws])
    red = np.array([spectra.s_add_resonant(p, w) for w in ws])
    devs = np.abs(red - full) / full
    return {"resonant_reduction_deviation": {
        "band": [0.9, 1.1], "median": float(np.median(devs)),
        "max": float(np.max(devs)), "gated": False}}


def b_variant(rng, sets):
    """Which coupling square in B the solver produces for complex g.

    Reported, not gated: every gated check uses real g, where conj(G)^2
    and G^2 agree.
    """
    errs = {"conjugate": [], "direct": []}
    for _ in range(sets):
        p = random_params(rng)
        p = replace(p, g_lin=p.g_lin * np.exp(1j * rng.uniform(0.1, 3.0)))
        w = rng.uniform(0.5, 1.5)
        so = coefficients.solve_coefficients(p, w)
        for form in errs:
            cf = coefficients.closed_form_coefficients(p, w, b_form=form)
            errs[form].append(rel(cf.b_coef, so.b_coef))
    conj, direct = (float(np.max(errs[form])) for form in errs)
    return {"b_variant": {
        "worst_rel_err_conjugate": conj, "worst_rel_err_direct": direct,
        "solver_matches": "conjugate" if conj < direct else "direct",
        "gated": False}}


# (check, its set count from the config table t), in validate's draw order
CHECKS = (
    (coefficient_oracle, lambda t: t["sets"]),
    (exchange_symmetry, lambda t: t["sets"]),
    (thermal_halving, lambda t: t["sets"]),
    (coupling_optimum, lambda t: t["sql_sets"]),
    (resonant_reduction_deviation, lambda t: 201),  # frequency points
    (b_variant, lambda t: 50),
)
