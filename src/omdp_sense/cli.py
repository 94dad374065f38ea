"""Command-line front end: figure-style sweeps, validation, CSV/JSON emission.

Every run writes plot-ready data files plus a sidecar manifest holding the
fully resolved parameter table. Data files contain no timestamps, so a rerun
from the same manifest is byte-identical; the manifest itself carries the
timestamp. Frequencies in config tables are in units of the mechanical
frequency unless units = si.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from itertools import repeat

import numpy as np

from . import __version__
from .errors import OmdpError, UsageError
from .model import DetectorParams, frequency_grid, omega_eff
from .coefficients import closed_form_coefficients, solve_coefficients
from .spectra import s_add, s_add_resonant, s_add_som, spectrum_sweep
from .sql import (default_g_range, fit_shot_backaction,
                  minimize_over_g_analytic, minimize_over_g_numeric, r_map,
                  s_min_sweep)
from .sensing import (DEFAULT_RATE_SCALE, MagnetometerConfig, make_report,
                      response_coefficient, s_r, snr)


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    table: dict
    out_dir: str
    fmt: str


SPECTRUM_DEFAULTS = {
    "units": "omega_m", "omega_m_si": None,
    "delta_prime": 1.0, "kappa": 0.1, "g": 0.03, "gamma": 1e-5,
    "nth": 10.0, "v_list": (0.0, 0.2, 0.4),
    "span_lo": 0.9, "span_hi": 1.2, "base_points": 401,
}

SQL_MAP_DEFAULTS = {
    "units": "omega_m", "omega_m_si": None,
    "delta_prime": 1.0, "kappa": 0.1, "g": 0.03, "gamma": 1e-5,
    "omega_lo": 0.9, "omega_hi": 1.15, "omega_points": 101,
    "v_lo": 0.0, "v_hi": 0.3, "v_points": 13,
}

SWEEP_DEFAULTS = {
    "units": "omega_m", "omega_m_si": None,
    "panel": "a", "mode": "fixed_g", "grid": "figure",
    "delta_prime": 1.0, "kappa": 0.1, "g": 0.03, "gamma": 1e-5,
    "v": 0.2, "nth": 10.0,
    "lo": None, "hi": None, "points": None, "spacing": None,
}

# per-panel swept parameter and default range
PANELS = {
    "a": ("v", 0.0, 0.5, 51, "lin"),
    "b": ("delta_omega", -0.05, 0.05, 41, "lin"),
    "c": ("g", 0.005, 0.09, 61, "log"),
    "d": ("kappa", 0.05, 0.5, 46, "lin"),
}

SNR_DEFAULTS = {
    "units": "omega_m",
    "delta_prime": 1.0, "kappa": 0.1, "g": 0.03,
    "gamma": 32.0 / 10.56e6,      # 2*pi*32 Hz on the 10.56 MHz oscillator
    "v": 0.2, "omega_m_si": DEFAULT_RATE_SCALE,
    "temperature": 1e-3, "current": 10e-6, "probe_size": 15e-6,
    "field": 1e-13, "anchor_snr": 1.7e6,
    "v_lo": 0.02, "v_hi": 0.4, "v_points": 20,
    "t_lo": 1e-4, "t_hi": 300.0, "t_points": 25,
    "b_lo": 1e-15, "b_hi": 1e-12, "b_points": 13,
}

VALIDATE_DEFAULTS = {
    "units": "omega_m",
    "seed": 20240817, "sets": 300, "sql_sets": 40,
}

DEFAULTS = {
    "spectrum": SPECTRUM_DEFAULTS,
    "sql-map": SQL_MAP_DEFAULTS,
    "sweep": SWEEP_DEFAULTS,
    "snr": SNR_DEFAULTS,
    "validate": VALIDATE_DEFAULTS,
}


def _parse_scalar(text):
    t = text.strip()
    try:
        return int(t)
    except ValueError:
        pass
    try:
        return float(t)
    except ValueError:
        pass
    return t


def _parse_value(text):
    if "," in text:
        return tuple(_parse_scalar(p) for p in text.split(","))
    return _parse_scalar(text)


def load_config_file(path):
    """key = value lines with # comments, or a manifest JSON to rerun."""
    with open(path, "r", encoding="utf-8") as fh:
        content = fh.read()
    stripped = content.lstrip()
    if stripped.startswith("{"):
        doc = json.loads(content)
        table = doc.get("parameters", doc)
        return {k: tuple(v) if isinstance(v, list) else v
                for k, v in table.items()}
    out = {}
    for lineno, raw in enumerate(content.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError("%s:%d: expected key = value" % (path, lineno))
        key, val = line.split("=", 1)
        out[key.strip()] = _parse_value(val)
    return out


def resolve_table(subcommand, config_path, overrides):
    table = dict(DEFAULTS[subcommand])
    layers = []
    if config_path:
        layers.append(load_config_file(config_path))
    if overrides:
        parsed = {}
        for item in overrides:
            if "=" not in item:
                raise UsageError("--set needs key=value, got %r" % item)
            key, val = item.split("=", 1)
            parsed[key.strip()] = _parse_value(val)
        layers.append(parsed)
    for layer in layers:
        for key, val in layer.items():
            if key not in table:
                raise UsageError("unknown config key %r for %s"
                                 % (key, subcommand))
            table[key] = val
    if table.get("units") not in ("omega_m", "si"):
        raise UsageError("units must be omega_m or si")
    return table


def _number(key, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise UsageError("%s must be a number, got %r" % (key, value))
    return float(value)


def _numbers(key, value):
    values = value if isinstance(value, tuple) else (value,)
    return tuple(_number(key, v) for v in values)


def _count(key, value, least=0):
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise UsageError("%s must be a whole number, got %r" % (key, value))
    if value < least:
        raise UsageError("%s must be at least %d, got %r"
                         % (key, least, value))
    return value


def _si_normalize(table):
    # in si mode rate-like keys arrive in rad/s; rescale to omega_m units
    if table.get("units") != "si":
        return table
    if "omega_m_si" not in table or not table["omega_m_si"]:
        raise UsageError("units = si requires omega_m_si in rad/s")
    w = _number("omega_m_si", table["omega_m_si"])
    out = dict(table)
    for key in ("delta_prime", "kappa", "g", "gamma", "v",
                "lo", "hi", "v_lo", "v_hi", "omega_lo", "omega_hi",
                "span_lo", "span_hi"):
        if key in out and out[key] is not None:
            out[key] = _number(key, out[key]) / w
    if "v_list" in out:
        out["v_list"] = tuple(v / w for v in _numbers("v_list", out["v_list"]))
    out["units"] = "omega_m"
    return out


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return list(obj)


class Emitter:
    """Writes one run's data files plus their manifests."""

    def __init__(self, config, config_path=None):
        self.config = config
        self.out_dir = config.out_dir
        os.makedirs(self.out_dir, exist_ok=True)
        self.fmt = config.fmt
        self.config_digest = _digest(config_path) if config_path else None
        self.extra = {}
        self.sidecar = {}  # sidecars only, so data files keep their bytes
        self.files = []

    def _manifest(self, filename, digest):
        man = {
            "tool": "omdp-sense",
            "version": __version__,
            "subcommand": self.config.subcommand,
            "parameters": self.config.table,
            "output": filename,
            "sha256": digest,
        }
        man.update(self.extra)
        return man

    def _write_manifest(self, data_path, filename):
        # provenance lives only in the sidecar so data files stay
        # byte-identical when rerun from their own manifest
        man = self._manifest(filename, _digest(data_path))
        man.update(self.sidecar)
        man["config_digest"] = self.config_digest
        man["timestamp"] = datetime.now(timezone.utc).isoformat()
        path = data_path + ".manifest.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(man, fh, indent=2, sort_keys=True, default=_json_default)
            fh.write("\n")

    def table_file(self, stem, columns, rows):
        if self.fmt == "csv":
            filename = stem + ".csv"
            path = os.path.join(self.out_dir, filename)
            with open(path, "w", encoding="utf-8", newline="") as fh:
                wr = csv.writer(fh, lineterminator="\n")
                wr.writerow(columns)
                # %.17g round-trips every float and prints integers whole
                wr.writerows([x if isinstance(x, str) else "%.17g" % x
                              for x in row] for row in rows)
        else:
            filename = stem + ".json"
            path = os.path.join(self.out_dir, filename)
            doc = {"manifest": self._manifest(filename, None),
                   "data": {"columns": list(columns),
                            "rows": [list(r) for r in rows]}}
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True, default=_json_default)
                fh.write("\n")
        self._write_manifest(path, filename)
        self.files.append(path)
        return path

    def json_file(self, stem, payload):
        filename = stem + ".json"
        path = os.path.join(self.out_dir, filename)
        doc = {"manifest": self._manifest(filename, None), "data": payload}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True, default=_json_default)
            fh.write("\n")
        self._write_manifest(path, filename)
        self.files.append(path)
        return path


def _detector(table, v, nth):
    gamma = _number("gamma", table["gamma"])
    nth = _number("nth", nth)
    return DetectorParams(
        delta_prime=_number("delta_prime", table["delta_prime"]),
        kappa=_number("kappa", table["kappa"]),
        g_lin=_number("g", table["g"]),
        omega_m1=1.0, omega_m2=1.0, gamma1=gamma, gamma2=gamma,
        v_coupling=_number("v", v), nth1=nth, nth2=nth)


def cmd_spectrum(config, emitter):
    t = config.table
    gamma, kappa, g, nth, lo, hi = (_number(k, t[k]) for k in (
        "gamma", "kappa", "g", "nth", "span_lo", "span_hi"))
    base_points = _count("base_points", t["base_points"])
    rows = []
    for v in _numbers("v_list", t["v_list"]):
        params = _detector(t, v, nth)
        grid = frequency_grid([1.0, omega_eff(1.0, v)], gamma, (lo, hi),
                              base_points)
        res = spectrum_sweep(params, grid)
        rows += zip(res.omega.tolist(), res.s_add.tolist(), res.s_th.tolist(),
                    res.a_p.tolist(), repeat("v=%g" % v))
    for w in frequency_grid([1.0], gamma, (lo, hi), base_points).tolist():
        rows.append((w, s_add_som(1.0, gamma, kappa, g, nth, w), gamma * nth,
                     "", "som"))
    emitter.table_file("spectrum",
                       ("omega_over_omega_m", "s_add", "s_th", "a_p", "series"),
                       rows)


def cmd_sql_map(config, emitter):
    t = config.table
    params = _detector(t, 0.0, 0.0)
    omegas = np.linspace(float(t["omega_lo"]), float(t["omega_hi"]),
                         _count("omega_points", t["omega_points"]))
    vs = np.linspace(float(t["v_lo"]), float(t["v_hi"]),
                     _count("v_points", t["v_points"]))
    m = r_map(params, omegas, vs)
    rows = []
    for i, v in enumerate(m.v_grid):
        for j, w in enumerate(m.omega_grid):
            rows.append((w, v, m.log10_r1[i][j], m.log10_r2[i][j]))
    emitter.table_file("sql_map",
                       ("omega_over_omega_m", "v_over_omega_m",
                        "log10_r1", "log10_r2"), rows)
    crossings = []
    for i, v in enumerate(m.v_grid):
        for w in m.r1_crossings[i]:
            crossings.append((v, "r1", w))
        for w in m.r2_crossings[i]:
            crossings.append((v, "r2", w))
    emitter.table_file("sql_map_contours",
                       ("v_over_omega_m", "factor", "omega_crossing"),
                       crossings)


def cmd_sweep(config, emitter):
    t = config.table
    panel = str(t["panel"])
    if panel not in PANELS:
        raise UsageError("panel must be one of a, b, c, d")
    name, lo, hi, points, spacing = PANELS[panel]
    lo = float(t["lo"]) if t["lo"] is not None else lo
    hi = float(t["hi"]) if t["hi"] is not None else hi
    if t["points"] is not None:
        points = _count("points", t["points"])
    spacing = str(t["spacing"]) if t["spacing"] is not None else spacing
    if spacing == "log":
        values = np.geomspace(lo, hi, points)
    elif spacing == "lin":
        values = np.linspace(lo, hi, points)
    else:
        raise UsageError("spacing must be lin or log")
    mode = str(t["mode"])
    nth = 0.0 if mode == "sql" else float(t["nth"])
    template = _detector(t, t["v"], nth)
    res = s_min_sweep(template, name, values, mode=mode, grid=str(t["grid"]))
    emitter.extra["swept_parameter"] = name
    emitter.extra["skipped"] = [list(s) for s in res.skipped]
    emitter.extra["at_boundary"] = res.at_boundary
    if res.g_opt is not None:
        cols = ("swept_value", "s_min", "omega_at_min", "g_opt")
        rows = list(zip(res.values, res.s_min, res.omega_at_min, res.g_opt))
    else:
        cols = ("swept_value", "s_min", "omega_at_min")
        rows = list(zip(res.values, res.s_min, res.omega_at_min))
    emitter.table_file("sweep_%s" % panel, cols, rows)


def cmd_snr(config, emitter):
    t = config.table
    rate_scale = float(t["omega_m_si"])
    base = _detector(t, t["v"], 0.0)

    # enhancement against coupling and against temperature
    vs = np.linspace(float(t["v_lo"]), float(t["v_hi"]),
                     _count("v_points", t["v_points"]))
    rows = [(float(v), s_r(replace(base, v_coupling=float(v)),
                           float(t["temperature"]), rate_scale))
            for v in vs]
    emitter.table_file("s_r_vs_v", ("v_over_omega_m", "s_r"), rows)

    temps = np.geomspace(float(t["t_lo"]), float(t["t_hi"]),
                         _count("t_points", t["t_points"]))
    rows = [(float(tk), s_r(base, float(tk), rate_scale)) for tk in temps]
    emitter.table_file("s_r_vs_temperature", ("temperature_k", "s_r"), rows)

    # calibrated magnetometer tables under both conventions
    reports = {}
    for conv in ("power", "amplitude"):
        cfg = MagnetometerConfig(
            current=float(t["current"]), probe_size=float(t["probe_size"]),
            field=float(t["field"]), temperature=float(t["temperature"]),
            conversion=1.0, convention=conv)
        reports[conv] = make_report(base, cfg, float(t["anchor_snr"]),
                                    rate_scale=rate_scale)

    rp, ra = reports["power"], reports["amplitude"]
    rows = [(w, sp, sa) for w, sp, sa in
            zip(rp.snr_omegas, rp.snr_values, ra.snr_values)]
    emitter.table_file("snr_spectrum",
                       ("omega_over_omega_m", "snr_power", "snr_amplitude"),
                       rows)

    bs = np.geomspace(float(t["b_lo"]), float(t["b_hi"]),
                      _count("b_points", t["b_points"]))
    xi = response_coefficient(float(t["current"]), float(t["probe_size"]))
    w_eff = omega_eff(1.0, float(t["v"]))
    pt = rp.params
    rows = [(float(b),
             snr(pt, w_eff, rp.eta * xi, float(b), "power"),
             snr(pt, w_eff, ra.eta * xi, float(b), "amplitude"))
            for b in bs]
    emitter.table_file("snr_vs_b", ("b_tesla", "snr_power", "snr_amplitude"),
                       rows)

    emitter.json_file("accuracy", {
        "power": {"eta": rp.eta, "b_min_tesla": rp.b_min,
                  "snr_at_anchor": rp.snr_at_omega_eff,
                  "loglog_slope": rp.slope},
        "amplitude": {"eta": ra.eta, "b_min_tesla": ra.b_min,
                      "snr_at_anchor": ra.snr_at_omega_eff,
                      "loglog_slope": ra.slope},
        "convention_note": (
            "the two conventions disagree about absolute accuracy by "
            "sqrt(anchor snr); both are reported, labeled"),
        "b_min_ratio_power_over_amplitude": rp.b_min / ra.b_min,
    })


def _random_params(rng):
    wm1 = rng.uniform(0.5, 2.0)
    wm2 = rng.uniform(0.5, 2.0)
    return DetectorParams(
        delta_prime=rng.uniform(-2.0, 2.0),
        kappa=rng.uniform(0.01, 1.0),
        g_lin=rng.uniform(1e-3, 0.3),
        omega_m1=wm1, omega_m2=wm2,
        gamma1=rng.uniform(1e-5, 1e-2), gamma2=rng.uniform(1e-5, 1e-2),
        v_coupling=rng.uniform(0.0, 0.9) * math.sqrt(wm1 * wm2))


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def cmd_validate(config, emitter):
    t = config.table
    rng = np.random.default_rng(_count("seed", t["seed"]))
    sets = _count("sets", t["sets"], least=1)
    sql_sets = _count("sql_sets", t["sql_sets"], least=1)
    report = {}

    worst = 0.0
    for _ in range(sets):
        p = _random_params(rng)
        w = rng.uniform(0.1, 2.2)
        cf = closed_form_coefficients(p, w)
        so = solve_coefficients(p, w)
        for a, b in ((cf.a_coef, so.a_coef), (cf.b_coef, so.b_coef),
                     (cf.c_coef, so.c_coef), (cf.d_coef, so.d_coef)):
            worst = max(worst, _rel(a, b))
    report["coefficient_oracle"] = {"worst_rel_err": worst,
                                    "sets": sets, "pass": worst < 1e-9}

    worst = 0.0
    for _ in range(sets):
        p = _random_params(rng)
        w = rng.uniform(0.1, 2.2)
        ps = replace(p, omega_m1=p.omega_m2, omega_m2=p.omega_m1,
                     gamma1=p.gamma2, gamma2=p.gamma1)
        co, cs = solve_coefficients(p, w), solve_coefficients(ps, w)
        worst = max(worst, _rel(co.c_coef, cs.d_coef),
                    _rel(co.d_coef, cs.c_coef), _rel(co.a_coef, cs.a_coef),
                    _rel(co.b_coef, cs.b_coef))
    report["exchange_symmetry"] = {"worst_rel_err": worst,
                                   "sets": sets, "pass": worst < 1e-9}

    worst = 0.0
    for _ in range(sets):
        p = _random_params(rng)
        wm = p.omega_m1
        p = replace(p, omega_m2=wm, gamma2=p.gamma1,
                    v_coupling=min(p.v_coupling, 0.9 * wm),
                    nth1=rng.uniform(0.0, 100.0))
        p = replace(p, nth2=p.nth1)
        w = rng.uniform(0.5, 1.5) * wm
        got = s_add(p, w).s_th
        want = p.gamma1 * p.nth1 / 2.0
        worst = max(worst, _rel(got, want))
    report["thermal_halving"] = {"worst_rel_err": worst,
                                 "sets": sets, "pass": worst < 1e-12}

    worst_fit = 0.0
    worst_sql = 0.0
    at_boundary = 0
    for _ in range(sql_sets):
        p = _random_params(rng)
        p = replace(p, delta_prime=rng.uniform(0.8, 1.2) * p.omega_m1,
                    v_coupling=rng.uniform(0.0, 0.4) * p.omega_m1)
        w = rng.uniform(0.9, 1.2) * p.omega_m1
        an = minimize_over_g_analytic(p, w)

        def ev(g, w_, p=p):
            return s_add(replace(p, g_lin=g), w_).s_add

        worst_fit = max(worst_fit, fit_shot_backaction(ev, w, an.g_opt)[3])
        nu = minimize_over_g_numeric(p, w, default_g_range(p))
        worst_sql = max(worst_sql, _rel(an.s_sql, nu.s_sql))
        at_boundary += nu.at_boundary
    report["structure_fit"] = {"worst_residual": worst_fit,
                               "sets": sql_sets, "pass": worst_fit < 1e-8}
    report["sql_cross_check"] = {"worst_rel_err": worst_sql,
                                 "sets": sql_sets, "pass": worst_sql < 1e-6}
    # sets whose numeric coupling optimum sat on an end of the g range
    emitter.sidecar["at_boundary"] = at_boundary

    # reduced-vs-full spectrum deviation near resonance: reported, not gated
    p = _detector({"delta_prime": 1.0, "kappa": 0.1, "g": 0.03,
                   "gamma": 1e-5}, 0.2, 10.0)
    devs = []
    for w in np.linspace(0.9, 1.1, 201):
        full = s_add(p, float(w)).s_add
        red = s_add_resonant(p, float(w))
        devs.append(abs(red - full) / full)
    devs = np.array(devs)
    report["resonant_reduction_deviation"] = {
        "band": [0.9, 1.1], "median": float(np.median(devs)),
        "max": float(np.max(devs)), "gated": False}

    # coupling-squared variant diagnostic for complex g
    match = {"conjugate": 0.0, "direct": 0.0}
    for _ in range(50):
        p = _random_params(rng)
        p = replace(p, g_lin=p.g_lin * np.exp(1j * rng.uniform(0.1, 3.0)))
        w = rng.uniform(0.5, 1.5)
        so = solve_coefficients(p, w)
        for form in match:
            cf = closed_form_coefficients(p, w, b_form=form)
            match[form] = max(match[form], _rel(cf.b_coef, so.b_coef))
    report["b_variant"] = {
        "worst_rel_err_conjugate": match["conjugate"],
        "worst_rel_err_direct": match["direct"],
        "solver_matches": ("conjugate" if match["conjugate"] < match["direct"]
                           else "direct"),
        "gated": False}

    ok = all(chk.get("pass", True) for chk in report.values())
    report["all_pass"] = ok
    emitter.json_file("validate_report", report)
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="omdp-sense",
        description="dual-probe detector noise and sensitivity toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, helptext in (
            ("spectrum", "additional-noise spectra per coupling value"),
            ("sql-map", "quantum-limit ratio maps over frequency and coupling"),
            ("sweep", "minimal-noise sweeps; panel = a (v), b (frequency "
                      "split), c (drive coupling), d (cavity linewidth)"),
            ("snr", "enhancement factor and magnetometer tables"),
            ("validate", "oracle and property suite")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="key = value file or manifest JSON")
        p.add_argument("--set", action="append", default=[], metavar="K=V",
                       help="override one config key")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--format", default="csv", choices=("csv", "json"))
    args = parser.parse_args(argv)

    try:
        table = resolve_table(args.subcommand, args.config, args.set)
        table = _si_normalize(table)
        config = RunConfig(subcommand=args.subcommand, table=table,
                           out_dir=args.out, fmt=args.format)
        emitter = Emitter(config, config_path=args.config)
        handler = {
            "spectrum": cmd_spectrum,
            "sql-map": cmd_sql_map,
            "sweep": cmd_sweep,
            "snr": cmd_snr,
            "validate": cmd_validate,
        }[args.subcommand]
        rc = handler(config, emitter)
        for path in emitter.files:
            print(path)
        return int(rc) if rc else 0
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except OmdpError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
