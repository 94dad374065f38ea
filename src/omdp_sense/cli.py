"""Command-line front end: figure-style sweeps, validation, CSV/JSON emission.

Every run writes plot-ready data files plus a sidecar manifest holding the
fully resolved parameter table. Data files contain no timestamps, so a rerun
from the same manifest is byte-identical; the manifest itself carries the
timestamp. Frequencies in config tables are in units of the mechanical
frequency unless units = si.
"""

import argparse
import collections
import csv
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from itertools import repeat

import numpy as np

from . import __version__, checks
from .errors import OmdpError, ParameterError, UsageError
from .exact import g17
from .model import DetectorParams, frequency_grid, omega_eff
from .spectra import s_add_som, spectrum_sweep
from .sql import r_map, s_min_sweep
from .sensing import (DEFAULT_RATE_SCALE, MagnetometerConfig, make_report,
                      response_coefficient, s_r, snr)


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    table: dict
    out_dir: str
    fmt: str


# per-panel swept parameter and default range
PANELS = {
    "a": ("v", 0.0, 0.5, 51, "lin"),
    "b": ("delta_omega", -0.05, 0.05, 41, "lin"),
    "c": ("g", 0.005, 0.09, 61, "log"),
    "d": ("kappa", 0.05, 0.5, 46, "lin"),
}

# Config keys as key: (default, kind). A kind is "rate" (a finite number,
# divided by omega_m_si under units = si), "real" (a finite number),
# "positive" (a finite number > 0), "count" (a whole number from 1 to
# MAX_COUNT; seed any whole number >= 0) or the tuple of words the key
# accepts. A tuple default makes a list key; a None default makes a key
# that may stay unset.
_DETECTOR = {
    "units": ("omega_m", ("omega_m", "si")),
    "omega_m_si": (None, "positive"),
    "delta_prime": (1.0, "rate"), "kappa": (0.1, "rate"),
    "g": (0.03, "rate"), "gamma": (1e-5, "rate"),
}

# largest grid or set count, and largest table in rows: counts size
# arrays and row lists, and a count near 1e308 would end in numpy's
# allocation error instead of a message
MAX_COUNT = 10 ** 6

SCHEMA = {
    "spectrum": dict(
        _DETECTOR, nth=(10.0, "real"), v_list=((0.0, 0.2, 0.4), "rate"),
        span_lo=(0.9, "rate"), span_hi=(1.2, "rate"),
        base_points=(401, "count")),
    "sql-map": dict(
        _DETECTOR, omega_lo=(0.9, "rate"), omega_hi=(1.15, "rate"),
        omega_points=(101, "count"), v_lo=(0.0, "rate"), v_hi=(0.3, "rate"),
        v_points=(13, "count")),
    "sweep": dict(
        _DETECTOR, panel=("a", tuple(PANELS)),
        mode=("fixed_g", ("fixed_g", "sql")),
        grid=("figure", ("figure", "refined")), v=(0.2, "rate"),
        nth=(10.0, "real"), lo=(None, "rate"), hi=(None, "rate"),
        points=(None, "count"), spacing=(None, ("lin", "log"))),
    "snr": dict(
        # gamma: 2*pi*32 Hz on the 10.56 MHz oscillator
        _DETECTOR, gamma=(32.0 / 10.56e6, "rate"),
        v=(0.2, "rate"), omega_m_si=(DEFAULT_RATE_SCALE, "positive"),
        temperature=(1e-3, "real"), current=(10e-6, "positive"),
        probe_size=(15e-6, "positive"), field=(1e-13, "positive"),
        anchor_snr=(1.7e6, "positive"),
        v_lo=(0.02, "rate"), v_hi=(0.4, "rate"), v_points=(20, "count"),
        t_lo=(1e-4, "positive"), t_hi=(300.0, "positive"),
        t_points=(25, "count"),
        b_lo=(1e-15, "positive"), b_hi=(1e-12, "positive"),
        b_points=(13, "count")),
    "validate": {
        "seed": (20240817, "count"), "sets": (300, "count"),
        "sql_sets": (40, "count")},
}


def _scalar(key, kind, x, scale):
    """One value of `key` as its kind: text is parsed, numbers checked."""
    given = x
    if isinstance(kind, tuple):
        x = x.strip() if isinstance(x, str) else x
        if x not in kind:
            raise UsageError("%s must be one of %s, got %r"
                             % (key, ", ".join(kind), x))
        return x
    if isinstance(x, str):
        text = x.strip()
        try:
            x = (int(text) if kind == "count" and text.isdigit()
                 else float(text))
        except ValueError:
            raise UsageError("%s must be a number, got %r"
                             % (key, text)) from None
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise UsageError("%s must be a number, got %r" % (key, x))
    if kind == "count":
        if isinstance(x, float):
            if not x.is_integer():
                raise UsageError("%s must be a whole number, got %r"
                                 % (key, x))
            x = int(x)
        least = 0 if key == "seed" else 1
        if x < least:
            raise UsageError("%s must be at least %d, got %r"
                             % (key, least, x))
        if key != "seed" and x > MAX_COUNT:
            raise UsageError("%s must be at most %d, got %s"
                             % (key, MAX_COUNT, str(given).strip()))
        return x
    x = float(x) / scale if kind == "rate" else float(x)
    if not math.isfinite(x):
        raise ParameterError("%s must be finite, got %r" % (key, x))
    if kind == "positive" and x <= 0:
        raise ParameterError("%s must be positive, got %r" % (key, x))
    return x


def _typed(key, value, default, kind, scale=1.0):
    """A config value (text, number or list) as the kind its key declares."""
    if value is None and default is None:
        return None
    if isinstance(value, str) and "," in value:
        value = value.split(",")
    if isinstance(default, tuple):
        items = value if isinstance(value, (list, tuple)) else (value,)
        return tuple(_scalar(key, kind, x, scale) for x in items)
    if isinstance(value, (list, tuple)):
        raise UsageError("%s takes one value, got a list" % key)
    return _scalar(key, kind, value, scale)


def load_config_file(path):
    """key = value lines with # comments, or a manifest JSON to rerun."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            content = fh.read()
        if content.lstrip().startswith("{"):
            doc = json.loads(content)
            table = doc.get("parameters", doc)
            if not isinstance(table, dict):
                raise ValueError("parameters must be an object")
            return table
    except (OSError, ValueError) as exc:
        raise UsageError("%s: %s" % (path, exc)) from None
    out = {}
    for lineno, raw in enumerate(content.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError("%s:%d: expected key = value" % (path, lineno))
        key, val = line.split("=", 1)
        out[key.strip()] = val
    return out


def resolve_table(subcommand, config_path, overrides):
    """The typed parameter table: defaults, then the config file, then --set.

    Under units = si, rate keys are divided by omega_m_si and the table is
    recorded in units of the mechanical frequency.
    """
    schema = SCHEMA[subcommand]
    raw = {key: default for key, (default, _) in schema.items()}
    layers = [load_config_file(config_path)] if config_path else []
    for item in overrides:
        if "=" not in item:
            raise UsageError("--set needs key=value, got %r" % item)
        key, val = item.split("=", 1)
        layers.append({key.strip(): val})
    for layer in layers:
        for key, val in layer.items():
            if key not in schema:
                raise UsageError("unknown config key %r for %s"
                                 % (key, subcommand))
            raw[key] = val
    scale = 1.0
    if "units" in schema and _typed("units", raw["units"],
                                    *schema["units"]) == "si":
        if raw.get("omega_m_si") is None:
            raise UsageError("units = si requires omega_m_si in rad/s")
        scale = _typed("omega_m_si", raw["omega_m_si"], *schema["omega_m_si"])
        raw["units"] = "omega_m"
    return {key: _typed(key, raw[key], default, kind, scale)
            for key, (default, kind) in schema.items()}


def _digest(path):
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return list(obj)


# rows per block of a CSV table, assembled in memory and written at once
CSV_CHUNK = 2048


def _column(column, lone):
    """A column of text (every cell a str), numbers (a numeric array or a
    sequence of numbers) or a masked numeric array (masked cells are empty,
    whatever they hold), as ("numbers", floats, empty mask) or ("text", an
    index per cell into its distinct texts, those quoted, their lengths).
    NaN or inf in a cell not empty raises ValueError, mixed kinds TypeError."""
    empty = np.broadcast_to(False, len(column))
    if isinstance(column, np.ma.MaskedArray):
        # the data as it stands, not a filled copy
        empty, column = np.ma.getmaskarray(column), column.data
    elif not (isinstance(column, np.ndarray) and column.dtype.kind in "biuf"):
        if all(map(isinstance, column, repeat(str))):
            index = collections.defaultdict(lambda: len(index))
            codes = np.fromiter(map(index.__getitem__, column), np.int32,
                                len(column))
            quoted = [b""] * (not index)
            for text in index:  # quoted once, by csv itself; empty text
                buf = io.StringIO()  # alone in its row is a pair of quotes
                csv.writer(buf, lineterminator="\n").writerow([text])
                quoted.append(buf.getvalue()[:-1].encode("utf-8")
                              if text or lone else b"")
            return "text", codes, np.array(quoted), np.array(
                list(map(len, quoted)))
        if any(map(isinstance, column, repeat(str))):
            raise TypeError("a table column mixes text and numbers")
    nums = np.asarray(column, dtype=float)
    if not (np.isfinite(nums) | empty).all():
        raise ValueError("NaN or inf cell")
    return "numbers", nums, empty


def _write_csv(fh, header, columns):
    """Write the header, then the columns as rows, with the bytes of
    csv.writer and %.17g numbers, which round-trip every float and print
    integers whole.

    A block of CSV_CHUNK rows is built as bytes, its numbers from one
    exact.g17 call. Row after row, each cell is copied as a fixed-width item
    to where its text starts, the next item overwriting the padding; then
    come the separators, and one write.
    """
    csv.writer(fh, lineterminator="\n").writerow(header)
    cols = [_column(c, len(columns) == 1) for c in columns]
    num = [j for j, c in enumerate(cols) if c[0] == "numbers"]
    width = max([24] + [c[2].itemsize for c in cols if c[0] == "text"])
    seps = np.array([b","] * (len(cols) - 1) + [b"\n"]).view(np.uint8)
    for lo in range(0, len(columns[0]), CSV_CHUNK):
        rows = min(CSV_CHUNK, len(columns[0]) - lo)
        cells = np.empty((rows, len(cols)), dtype="S%d" % width)
        sizes = np.empty(cells.shape, dtype=np.intp)
        if num:
            values, empty = (np.stack([cols[j][k][lo:lo + rows] for j in num],
                                      axis=1) for k in (1, 2))
            full = not empty.any()
            numbers = g17(values) if full else np.zeros(values.shape, "S24")
            if not full:  # an empty cell is not formatted
                numbers[~empty] = g17(values[~empty])
                numbers[empty] = b'""' if len(cols) == 1 else b""
            cells[:, num], sizes[:, num] = numbers, np.char.str_len(numbers)
        for j, c in enumerate(cols):
            if c[0] == "text":
                at = c[1][lo:lo + rows]
                cells[:, j], sizes[:, j] = np.take(c[2], at), np.take(c[3], at)
        ends = np.cumsum(sizes + 1)
        out = np.empty(ends[-1] + width, dtype=np.uint8)
        items = np.ndarray(ends[-1] + 1, dtype="V%d" % width, buffer=out,
                           strides=(1,))
        items[ends - 1 - sizes.ravel()] = cells.view("V%d" % width).ravel()
        out[ends - 1] = np.tile(seps, rows)
        fh.write(str(out[:ends[-1]], "utf-8"))


def _fill(path, write):
    """Create the file at path and write it through write(fh); on any error
    the partial file is removed before the error goes on."""
    fh = open(path, "w", encoding="utf-8", newline="")
    try:
        with fh:
            write(fh)
    except BaseException:
        os.remove(path)
        raise


class Emitter:
    """Writes one run's data files plus their manifests; the run's notes,
    ``sidecar``, go into the sidecar manifests only, never a data file."""

    def __init__(self, config, config_path=None):
        self.config = config
        self.out_dir = config.out_dir
        os.makedirs(self.out_dir, exist_ok=True)
        self.fmt = config.fmt
        self.config_digest = _digest(config_path) if config_path else None
        self.sidecar = {}
        self.files = []

    def _manifest(self, filename, digest):
        return {
            "tool": "omdp-sense",
            "version": __version__,
            "subcommand": self.config.subcommand,
            "parameters": self.config.table,
            "output": filename,
            "sha256": digest,
        }

    def _write_manifest(self, data_path, filename):
        # provenance lives only in the sidecar so data files stay
        # byte-identical when rerun from their own manifest
        man = self._manifest(filename, _digest(data_path))
        man.update(self.sidecar)
        man["config_digest"] = self.config_digest
        man["timestamp"] = datetime.now(timezone.utc).isoformat()

        def write(fh):
            json.dump(man, fh, indent=2, sort_keys=True, default=_json_default)
            fh.write("\n")
        _fill(data_path + ".manifest.json", write)

    def _write(self, filename, write):
        path = os.path.join(self.out_dir, filename)
        try:
            _fill(path, write)
        except ValueError:
            # a NaN or inf, refused by _write_csv or by json's allow_nan=False
            raise ParameterError("%s: refusing to write NaN or inf"
                                 % filename) from None
        try:
            self._write_manifest(path, filename)
        except BaseException:
            os.remove(path)  # no data file without its manifest
            raise
        self.files.append(path)
        return path

    def _json(self, filename, data):
        doc = {"manifest": self._manifest(filename, None), "data": data}

        def write(fh):
            json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False,
                      default=_json_default)
            fh.write("\n")
        return self._write(filename, write)

    def table_file(self, stem, header, *columns):
        """One table, given column by column. A column is text (a sequence
        of str), numbers (a numeric array or a sequence of numbers) or a
        masked numeric array, whose masked cells are empty."""
        if self.fmt == "json":
            columns = [c.astype(object).filled("").tolist()
                       if isinstance(c, np.ma.MaskedArray)
                       else c.tolist() if isinstance(c, np.ndarray) else c
                       for c in columns]
            return self._json(stem + ".json",
                              {"columns": list(header),
                               "rows": [list(r) for r in zip(*columns)]})
        return self._write(stem + ".csv",
                           lambda fh: _write_csv(fh, header, columns))

    def json_file(self, stem, payload):
        return self._json(stem + ".json", payload)

    def discard(self):
        """Remove every data file and manifest this run has written."""
        for path in self.files:
            os.remove(path)
            os.remove(path + ".manifest.json")


def _check_rows(table, rows, keys):
    """Refuse, before any solve, a table of more than MAX_COUNT rows."""
    if rows > MAX_COUNT:
        raise UsageError("%s table would hold %d rows, more than %d; "
                         "lower %s" % (table, rows, MAX_COUNT,
                                       " or ".join(keys)))


def _detector(table, v, nth):
    gamma = table["gamma"]
    return DetectorParams(
        delta_prime=table["delta_prime"], kappa=table["kappa"],
        g_lin=table["g"], omega_m1=1.0, omega_m2=1.0, gamma1=gamma,
        gamma2=gamma, v_coupling=v, nth1=nth, nth2=nth)


def cmd_spectrum(config, emitter):
    t = config.table
    gamma, nth, points = t["gamma"], t["nth"], t["base_points"]
    span = (t["span_lo"], t["span_hi"])
    _check_rows("spectrum", (len(t["v_list"]) + 1) * points,
                ("v_list", "base_points"))
    # per series, in v order and then the single oscillator: its label and
    # detector, and its grid; an error is raised after the sweeps of the
    # series before it, as a loop over the values would raise it
    series, grids, failure = [], [], None
    try:
        for v in t["v_list"]:
            params = _detector(t, v, nth)
            grids.append(frequency_grid([1.0, omega_eff(1.0, v)], gamma,
                                        span, points))
            series.append(("v=%g" % v, params))
        grids.append(frequency_grid([1.0], gamma, span, points))
        series.append(("som", None))
    except (OmdpError, ArithmeticError) as exc:
        failure = exc
    # each column allocated once, each series copied into its slice
    ends = np.cumsum([0] + list(map(len, grids))).tolist()
    omega = np.concatenate([np.empty(0)] + grids)
    del grids
    n = len(omega)
    s_add, s_th = np.empty(n), np.empty(n)
    # the single-oscillator series has no gain |E|: its a_p cells are
    # empty, and hold 0.0 rather than whatever np.empty would leave
    a_p = np.ma.masked_array(np.zeros(n), mask=True)
    for (_, params), lo, hi in zip(series, ends, ends[1:]):
        part = slice(lo, hi)
        if params is None:
            s_add[part] = s_add_som(1.0, gamma, t["kappa"], t["g"], nth,
                                    omega[part])
            s_th[part] = gamma * nth
        else:
            res = spectrum_sweep(params, omega[part])
            s_add[part], s_th[part], a_p[part] = res.s_add, res.s_th, res.a_p
            del res
    if failure is not None:
        raise failure
    # the labels after the sweeps, so their column is not held through them
    label = np.repeat(np.array([name for name, _ in series], dtype=object),
                      np.diff(ends))
    emitter.table_file("spectrum",
                       ("omega_over_omega_m", "s_add", "s_th", "a_p", "series"),
                       omega, s_add, s_th, a_p, label)


def cmd_sql_map(config, emitter):
    t = config.table
    _check_rows("sql_map", t["omega_points"] * t["v_points"],
                ("omega_points", "v_points"))
    params = _detector(t, 0.0, 0.0)
    omegas = np.linspace(t["omega_lo"], t["omega_hi"], t["omega_points"])
    vs = np.linspace(t["v_lo"], t["v_hi"], t["v_points"])
    m = r_map(params, omegas, vs)
    emitter.table_file("sql_map",
                       ("omega_over_omega_m", "v_over_omega_m",
                        "log10_r1", "log10_r2"),
                       np.tile(m.omega_grid, len(m.v_grid)),
                       np.repeat(m.v_grid, len(m.omega_grid)),
                       np.ravel(m.log10_r1), np.ravel(m.log10_r2))
    crossings = [(v, factor, w) for i, v in enumerate(m.v_grid)
                 for factor, ws in (("r1", m.r1_crossings[i]),
                                    ("r2", m.r2_crossings[i]))
                 for w in ws]
    emitter.table_file("sql_map_contours",
                       ("v_over_omega_m", "factor", "omega_crossing"),
                       *(list(zip(*crossings)) or [(), (), ()]))


def cmd_sweep(config, emitter):
    t = config.table
    panel, mode = t["panel"], t["mode"]
    name, *panel_range = PANELS[panel]
    # an unset lo, hi, points or spacing takes the panel's default
    lo, hi, points, spacing = (
        d if t[k] is None else t[k]
        for k, d in zip(("lo", "hi", "points", "spacing"), panel_range))
    if spacing == "log" and min(lo, hi) <= 0:
        raise ParameterError("log spacing needs lo and hi > 0, got %r and %r"
                             % (lo, hi))
    space = np.geomspace if spacing == "log" else np.linspace
    values = space(lo, hi, points)
    nth = 0.0 if mode == "sql" else t["nth"]
    template = _detector(t, t["v"], nth)
    res = s_min_sweep(template, name, values, mode=mode, grid=t["grid"])
    emitter.sidecar["swept_parameter"] = name
    emitter.sidecar["skipped"] = [list(s) for s in res.skipped]
    emitter.sidecar["at_boundary"] = res.at_boundary
    # g_opt is a column only where the sweep optimized the coupling
    n = 3 if res.g_opt is None else 4
    cols = ("swept_value", "s_min", "omega_at_min", "g_opt")[:n]
    series = (res.values, res.s_min, res.omega_at_min, res.g_opt)[:n]
    emitter.table_file("sweep_%s" % panel, cols, *series)


def cmd_snr(config, emitter):
    t = config.table
    rate_scale, temperature = t["omega_m_si"], t["temperature"]
    base = _detector(t, t["v"], 0.0)

    # calibrated magnetometer reports under both conventions, made before
    # the first table so a bad magnetometer input writes nothing
    reports = make_report(base, MagnetometerConfig(
        current=t["current"], probe_size=t["probe_size"], field=t["field"],
        temperature=temperature), t["anchor_snr"], rate_scale)
    rp, ra = reports["power"], reports["amplitude"]

    # enhancement against coupling and against temperature, each table
    # with one baseline floor search
    vs = np.linspace(t["v_lo"], t["v_hi"], t["v_points"]).tolist()
    emitter.table_file("s_r_vs_v", ("v_over_omega_m", "s_r"), vs, s_r(
        [replace(base, v_coupling=v) for v in vs], temperature, rate_scale))

    temps = np.geomspace(t["t_lo"], t["t_hi"], t["t_points"]).tolist()
    emitter.table_file("s_r_vs_temperature", ("temperature_k", "s_r"), temps,
                       s_r(base, temps, rate_scale))

    emitter.table_file("snr_spectrum",
                       ("omega_over_omega_m", "snr_power", "snr_amplitude"),
                       rp.snr_omegas, rp.snr_values, ra.snr_values)

    bs = np.geomspace(t["b_lo"], t["b_hi"], t["b_points"])
    xi = response_coefficient(t["current"], t["probe_size"])
    rows = [(float(b), snr(rp.noise, rp.eta * xi * float(b), "power"),
             snr(ra.noise, ra.eta * xi * float(b), "amplitude"))
            for b in bs]
    # b by b, both conventions each, so errors come in row order
    emitter.table_file("snr_vs_b", ("b_tesla", "snr_power", "snr_amplitude"),
                       *zip(*rows))

    accuracy = {conv: {"eta": r.eta, "b_min_tesla": r.b_min,
                       "snr_at_anchor": r.snr_at_omega_eff,
                       "loglog_slope": r.slope}
                for conv, r in reports.items()}
    accuracy["convention_note"] = (
        "the two conventions disagree about absolute accuracy by "
        "sqrt(anchor snr); both are reported, labeled")
    accuracy["b_min_ratio_power_over_amplitude"] = rp.b_min / ra.b_min
    emitter.json_file("accuracy", accuracy)


def cmd_validate(config, emitter):
    t = config.table
    rng = np.random.default_rng(t["seed"])
    report = {}
    for check, sets in checks.CHECKS:
        report.update(check(rng, sets(t)))
    # sets whose numeric coupling optimum sat on an end of the g range
    emitter.sidecar["at_boundary"] = report.pop("at_boundary")
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

    emitter = None
    try:
        table = resolve_table(args.subcommand, args.config, args.set)
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
        # an overflow shows as NaN or inf, which Emitter refuses, or as an
        # ArithmeticError; numpy's warnings would only repeat it
        with np.errstate(all="ignore"):
            rc = handler(config, emitter)
    except (OmdpError, ArithmeticError, OSError, MemoryError) as exc:
        # an error exit leaves no file from its run
        if emitter is not None:
            emitter.discard()
        if isinstance(exc, OSError):
            # --out names a file, or a path under it is not writable
            exc = UsageError("cannot write output: %s" % exc)
        if isinstance(exc, UsageError):
            print("usage error: %s" % exc, file=sys.stderr)
            return 2
        if isinstance(exc, ArithmeticError):
            # an overflow or a zero divisor deep in the model
            exc = "%s: %s" % (type(exc).__name__, exc)
        elif isinstance(exc, MemoryError):
            exc = "out of memory" + (": %s" % exc if str(exc) else "")
        print("error: %s" % exc, file=sys.stderr)
        return 1
    for path in emitter.files:
        print(path)
    return int(rc) if rc else 0


if __name__ == "__main__":
    sys.exit(main())
