"""Per-layer tracing, installed from outside the package.

Tracer.install() wraps every public function of the omdp_sense modules in
every namespace that binds it, so the `from .x import y` aliases in
spectra, sql, sensing and cli are wrapped as well. It also wraps
DetectorParams construction (dataclasses.replace included) and the CLI
emitter's two file writers. Wrappers pass arguments and results through
unchanged, so data files stay byte-identical; the package source is not
touched.

Every call is a span with a name, start, end and parent. Its self time is
its duration minus the time of its child spans. CLI spans are kept whole.
Spans of the numeric layers below, called up to a million times a pass,
are aggregated per (name, parent name) so the trace fits in memory.
"""

import collections
import importlib
import inspect
import os
import time

import numpy as np

from workloads import SUBCOMMANDS

LAYERS = ("model", "coefficients", "spectra", "sql", "optimize", "sensing",
          "cli")

# (metric, unit); run.py adds trace.overhead_s
PER_LAYER = (
    ("model.params_new.calls", "count"),
    ("model.frequency_grid.points", "count"),
    ("coefficients.solve.calls", "count"),
    ("coefficients.solve.points", "count"),
    ("coefficients.solve.self_s", "s"),
    ("coefficients.solve.us_per_point", "us"),
    ("coefficients.closed_form.points", "count"),
    ("coefficients.closed_form.self_s", "s"),
    ("spectra.s_add.calls", "count"),
    ("spectra.s_add.self_s", "s"),
    ("spectra.spectrum_sweep.self_s", "s"),
    ("spectra.s_add_som.calls", "count"),
    ("sql.g_analytic.calls", "count"),
    ("sql.g_analytic.self_s", "s"),
    ("sql.fit.calls", "count"),
    ("sql.s_add_per_optimum", "calls/optimum"),
    ("sql.g_numeric.calls", "count"),
    ("sql.g_numeric.self_s", "s"),
    ("sql.r_factors.calls", "count"),
    ("sql.r_factors.self_s", "s"),
    ("optimize.evals", "count"),
    ("optimize.self_s", "s"),
    ("optimize.at_boundary", "count"),
    ("sensing.s_r.self_s", "s"),
    ("sensing.som_noise_floor.self_s", "s"),
    ("sensing.make_report.self_s", "s"),
    ("cli.emit_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("cli.rows_written", "count"),
    ("cli.files_written", "count"),
    ("cli.resolve_s", "s"),
) + tuple(("cli.job_s." + sub, "s") for sub in SUBCOMMANDS)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_points(key):
    def after(counts, args, kwargs, result):
        counts[key] += int(np.size(_arg(args, kwargs, 1, "omega")))
    return after


def _count_grid(counts, args, kwargs, result):
    counts["model.frequency_grid.points"] += len(result)


def _count_boundary(counts, args, kwargs, result):
    counts["optimize.at_boundary"] += bool(result[2])


def _count_table(counts, args, kwargs, result):
    counts["cli.rows_written"] += len(_arg(args, kwargs, 3, "rows"))
    _count_file(counts, args, kwargs, result)


def _count_file(counts, args, kwargs, result):
    counts["cli.files_written"] += 1
    counts["cli.bytes_written"] += os.path.getsize(result)


def _count_objective(counts, args, kwargs):
    # the objective is the first argument of scan_min and golden_min
    f = args[0]

    def counted(x):
        counts["optimize.evals"] += 1
        return f(x)
    return (counted,) + tuple(args[1:]), kwargs


BEFORE = {
    "optimize.scan_min": _count_objective,
    "optimize.golden_min": _count_objective,
}

AFTER = {
    "model.frequency_grid": _count_grid,
    "coefficients.solve_coefficients":
        _count_points("coefficients.solve.points"),
    "coefficients.closed_form_coefficients":
        _count_points("coefficients.closed_form.points"),
    "optimize.scan_then_golden": _count_boundary,
    "cli.Emitter.table_file": _count_table,
    "cli.Emitter.json_file": _count_file,
}


class Tracer:
    def __init__(self):
        self.stack = []   # open spans: [name, child seconds, kept span id]
        self.agg = {}     # (name, parent name) -> [calls, total s, self s]
        self.spans = []   # kept CLI spans: [id, name, start, end, parent id]
        self.counts = collections.Counter()
        self._undo = []

    def wrap(self, fn, name):
        stack, agg, spans, counts = (self.stack, self.agg, self.spans,
                                     self.counts)
        clock = time.perf_counter
        keep = name.startswith("cli.")
        before = BEFORE.get(name)
        after = AFTER.get(name)

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(counts, args, kwargs)
            parent = stack[-1] if stack else None
            ancestor = parent[2] if parent else None
            if keep:
                span_id = len(spans)
                spans.append([span_id, name, 0.0, 0.0, ancestor])
            frame = [name, 0.0, span_id if keep else ancestor]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                key = (name, parent[0] if parent else None)
                entry = agg.get(key)
                if entry is None:
                    entry = agg[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[1]
                if keep:
                    spans[span_id][2] = start
                    spans[span_id][3] = end
            if after is not None:
                after(counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        package = importlib.import_module("omdp_sense")
        modules = {layer: importlib.import_module("omdp_sense." + layer)
                   for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self.wrap(obj, "%s.%s" % (layer, attr))
        for mod in (package,) + tuple(modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])
        emitter = modules["cli"].Emitter
        for cls, attr, name in (
                (modules["model"].DetectorParams, "__init__",
                 "model.DetectorParams"),
                (emitter, "table_file", "cli.Emitter.table_file"),
                (emitter, "json_file", "cli.Emitter.json_file")):
            self._set(cls, attr, self.wrap(cls.__dict__[attr], name))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def report(self):
        keys = sorted(self.agg, key=lambda k: (k[0], k[1] or ""))
        return {"agg": [list(k) + self.agg[k] for k in keys],
                "counts": dict(self.counts),
                "spans": self.spans}


def layer_metrics(report):
    """Per-layer metric values, named as in PER_LAYER, from one traced pass."""
    calls = collections.Counter()
    total = collections.Counter()
    self_s = collections.Counter()
    s_add_in_optimum = 0
    for name, parent, n, tot, slf in report["agg"]:
        calls[name] += n
        self_s[name] += slf
        if parent != name:
            total[name] += tot
        if name == "spectra.s_add" and parent in (
                "sql.fit_shot_backaction", "sql.minimize_over_g_analytic"):
            s_add_in_optimum += n
    counts = collections.Counter(report["counts"])
    solve_points = counts["coefficients.solve.points"]
    optima = calls["sql.minimize_over_g_analytic"]
    m = {
        "model.params_new.calls": calls["model.DetectorParams"],
        "model.frequency_grid.points": counts["model.frequency_grid.points"],
        "coefficients.solve.calls": calls["coefficients.solve_coefficients"],
        "coefficients.solve.points": solve_points,
        "coefficients.solve.self_s": self_s["coefficients.solve_coefficients"],
        "coefficients.solve.us_per_point": (
            1e6 * self_s["coefficients.solve_coefficients"] / solve_points
            if solve_points else 0.0),
        "coefficients.closed_form.points":
            counts["coefficients.closed_form.points"],
        "coefficients.closed_form.self_s":
            self_s["coefficients.closed_form_coefficients"],
        "spectra.s_add.calls": calls["spectra.s_add"],
        "spectra.s_add.self_s": self_s["spectra.s_add"],
        "spectra.spectrum_sweep.self_s": self_s["spectra.spectrum_sweep"],
        "spectra.s_add_som.calls": calls["spectra.s_add_som"],
        "sql.g_analytic.calls": optima,
        "sql.g_analytic.self_s": self_s["sql.minimize_over_g_analytic"],
        "sql.fit.calls": calls["sql.fit_shot_backaction"],
        "sql.s_add_per_optimum": s_add_in_optimum / optima if optima else 0.0,
        "sql.g_numeric.calls": calls["sql.minimize_over_g_numeric"],
        "sql.g_numeric.self_s": self_s["sql.minimize_over_g_numeric"],
        "sql.r_factors.calls": calls["sql.r_factors"],
        "sql.r_factors.self_s": self_s["sql.r_factors"],
        "optimize.evals": counts["optimize.evals"],
        "optimize.self_s": sum(v for k, v in self_s.items()
                               if k.startswith("optimize.")),
        "optimize.at_boundary": counts["optimize.at_boundary"],
        "sensing.s_r.self_s": self_s["sensing.s_r"],
        "sensing.som_noise_floor.self_s": self_s["sensing.som_noise_floor"],
        "sensing.make_report.self_s": self_s["sensing.make_report"],
        "cli.emit_s": (self_s["cli.Emitter.table_file"]
                       + self_s["cli.Emitter.json_file"]),
        "cli.bytes_written": counts["cli.bytes_written"],
        "cli.rows_written": counts["cli.rows_written"],
        "cli.files_written": counts["cli.files_written"],
        "cli.resolve_s": total["cli.resolve_table"],
    }
    for sub in SUBCOMMANDS:
        m["cli.job_s." + sub] = total["cli.cmd_" + sub.replace("-", "_")]
    return m


def count_metrics():
    """Names of the per-layer metrics that must repeat exactly."""
    return [name for name, unit in PER_LAYER if unit not in ("s", "us")]
