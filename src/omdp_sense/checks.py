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
    """The solver's s_add of p as a function of (g, omega), the coupling
    handed to the solver."""
    return lambda g, w: sql._at(p, w, g)


def _gated(errs, sets, gate, measure="rel_err"):
    # np.max keeps a NaN, and a NaN worst fails its gate
    worst = float(np.max(errs))
    return {"worst_" + measure: worst, "sets": sets, "pass": worst < gate}


def _blocks(rng, sets, draw):
    """The sets of a check, drawn in validate's order by draw(rng), in
    lists of at most POINT_BLOCK sets. A set of many points, such as the
    coupling optimum's g scan, is split again by spectra._scans."""
    for lo in range(0, sets, spectra.POINT_BLOCK):
        yield [draw(rng) for _ in range(min(spectra.POINT_BLOCK, sets - lo))]


def _solved(block):
    """Solve a block of (detector, frequency) sets as one batch; its
    coefficient arrays as lists of Python complex numbers."""
    ps, ws = zip(*block)
    co = coefficients.solve_coefficients(ps, np.array(ws))
    return (co.a_coef.tolist(), co.b_coef.tolist(), co.c_coef.tolist(),
            co.d_coef.tolist())


def _general_set(rng):
    return random_params(rng), rng.uniform(0.1, 2.2)


def coefficient_oracle(rng, sets):
    """Closed-form coefficients A to D against the solver's."""
    errs = []
    for block in _blocks(rng, sets, _general_set):
        for (p, w), a, b, c, d in zip(block, *_solved(block)):
            cf = coefficients.closed_form_coefficients(p, w)
            errs += [rel(cf.a_coef, a), rel(cf.b_coef, b),
                     rel(cf.c_coef, c), rel(cf.d_coef, d)]
    return {"coefficient_oracle": _gated(errs, sets, 1e-9)}


def exchange_symmetry(rng, sets):
    """Swapping the two oscillators swaps C and D and keeps A and B."""
    errs = []
    for block in _blocks(rng, sets, _general_set):
        swapped = [(replace(p, omega_m1=p.omega_m2, omega_m2=p.omega_m1,
                            gamma1=p.gamma2, gamma2=p.gamma1), w)
                   for p, w in block]
        for a, b, c, d, sa, sb, sc, sd in zip(*_solved(block),
                                              *_solved(swapped)):
            errs += [rel(c, sd), rel(d, sc), rel(a, sa), rel(b, sb)]
    return {"exchange_symmetry": _gated(errs, sets, 1e-9)}


def _halving_set(rng):
    p = random_params(rng)
    wm = p.omega_m1
    p = replace(p, omega_m2=wm, gamma2=p.gamma1,
                v_coupling=min(p.v_coupling, 0.9 * wm),
                nth1=rng.uniform(0.0, 100.0))
    return replace(p, nth2=p.nth1), rng.uniform(0.5, 1.5) * wm


def thermal_halving(rng, sets):
    """Identical thermal oscillators add gamma nth / 2 at any frequency."""
    errs = []
    for block in _blocks(rng, sets, _halving_set):
        ps, ws = zip(*block)
        sth = spectra._noise(ps, coefficients.solve_coefficients(
            ps, np.array(ws)))[1]
        errs += [rel(s, p.gamma1 * p.nth1 / 2.0)
                 for p, s in zip(ps, np.asarray(sth).tolist())]
    return {"thermal_halving": _gated(errs, sets, 1e-12)}


def coupling_optimum(rng, sets):
    """The exact coupling optimum against a fit and a search of s_add.

    ``at_boundary`` counts the sets whose numeric optimum sat on an end of
    the g range; it belongs in a sidecar manifest, not in the report.
    """
    fits, errs, at_boundary = [], [], 0
    for block in _blocks(rng, sets, random_t0):
        ps, ws = zip(*block)
        numeric = sql.minimize_over_g_numeric(
            ps, ws, [sql.default_g_range(p) for p in ps])
        for p, w, nu in zip(ps, ws, numeric):
            an = sql.minimize_over_g_analytic(p, w)
            fits.append(sql.fit_shot_backaction(s_add_in_g(p), w,
                                                an.g_opt)[3])
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
    ws = np.linspace(0.9, 1.1, points)
    full = spectra.spectrum_sweep(p, ws).s_add
    red = np.array([spectra.s_add_resonant(p, w) for w in ws.tolist()])
    devs = np.abs(red - full) / full
    return {"resonant_reduction_deviation": {
        "band": [0.9, 1.1], "median": float(np.median(devs)),
        "max": float(np.max(devs)), "gated": False}}


def _complex_g_set(rng):
    p = random_params(rng)
    p = replace(p, g_lin=p.g_lin * np.exp(1j * rng.uniform(0.1, 3.0)))
    return p, rng.uniform(0.5, 1.5)


def b_variant(rng, sets):
    """Which coupling square in B the solver produces for complex g.

    Reported, not gated: every gated check uses real g, where conj(G)^2
    and G^2 agree.
    """
    errs = {"conjugate": [], "direct": []}
    for block in _blocks(rng, sets, _complex_g_set):
        for (p, w), b in zip(block, _solved(block)[1]):
            for form in errs:
                cf = coefficients.closed_form_coefficients(p, w, b_form=form)
                errs[form].append(rel(cf.b_coef, b))
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
