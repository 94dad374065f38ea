"""Self-tests of the benchmark. From the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402
import outcheck  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import SUBCOMMANDS, jobs_for  # noqa: E402

sys.path.insert(0, str(harness.SRC))

TOL = outcheck.TOLERANCES["cli_defaults"]

# every subcommand, on grids small enough for a test
SMALL_JOBS = [
    ["spectrum", "--set", "base_points=51", "--set", "v_list=0,0.2"],
    ["sql-map", "--set", "omega_points=11", "--set", "v_points=3"],
    ["sweep", "--set", "mode=sql", "--set", "points=3", "--set", "lo=0",
     "--set", "hi=0.2"],
    ["snr", "--set", "v_points=3", "--set", "t_points=3"],
    ["validate", "--set", "sets=20", "--set", "sql_sets=4"],
]


def data_files(pass_dir):
    return {p.relative_to(pass_dir): p.read_bytes()
            for p in sorted(pass_dir.rglob("*"))
            if p.is_file() and not p.name.endswith(outcheck.MANIFEST)}


def run_ok(jobs, out_dir, trace=False):
    res = harness.run_pass(jobs, out_dir, trace=trace)
    assert "error" not in res, res["error"]
    assert [job["rc"] for job in res["jobs"]] == [0] * len(jobs), res
    return res


@pytest.fixture(scope="module")
def small_pass(tmp_path_factory):
    out = tmp_path_factory.mktemp("small")
    run_ok(SMALL_JOBS[:1] + SMALL_JOBS[-1:], out)
    return out


def recorded(job_dir):
    arrays = []
    files = outcheck.record_job(job_dir, arrays)
    for ref in files.values():
        for col in ref.get("columns", {}).values():
            if "array" in col:
                col["array"] = arrays[col["array"]]
    return files


def copy_job(src, dst):
    shutil.copytree(src, dst)
    return dst


def edit_csv_cell(path, row, col, edit):
    lines = path.read_text().split("\n")
    cells = lines[row + 1].split(",")
    cells[col] = edit(cells[col])
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines))


def edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc["data"])
    path.write_text(json.dumps(doc))


class TestOutputCheck:
    def test_unchanged_output_passes(self, small_pass):
        for job in ("j0", "j1"):
            assert outcheck.check_job(small_pass / job,
                                      recorded(small_pass / job), TOL) == []

    def test_perturbed_cell_is_caught(self, small_pass, tmp_path):
        ref = recorded(small_pass / "j0")
        job = copy_job(small_pass / "j0", tmp_path / "j0")
        edit_csv_cell(job / "spectrum.csv", 7, 1,
                      lambda c: repr(float(c) * (1 + 1e-10)))
        problems = outcheck.check_job(job, ref, TOL)
        assert any("out of tolerance" in p for p in problems), problems

    def test_change_within_tolerance_passes_values(self, small_pass, tmp_path):
        ref = recorded(small_pass / "j0")
        job = copy_job(small_pass / "j0", tmp_path / "j0")
        edit_csv_cell(job / "spectrum.csv", 7, 1,
                      lambda c: repr(float(c) * (1 + 1e-14)))
        # only the manifest digest notices a change this small
        problems = outcheck.check_job(job, ref, TOL)
        assert problems == ["spectrum.csv: manifest does not match the "
                            "data file"], problems

    def test_perturbed_reference_cell_is_caught(self, small_pass):
        ref = recorded(small_pass / "j0")
        ref["spectrum.csv"]["columns"]["s_add"]["array"][3] *= 1 + 1e-10
        problems = outcheck.check_job(small_pass / "j0", ref, TOL)
        assert any("out of tolerance" in p for p in problems), problems

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_injected_non_finite_cell_is_caught(self, small_pass, tmp_path,
                                                bad):
        ref = recorded(small_pass / "j0")
        job = copy_job(small_pass / "j0", tmp_path / "j0")
        edit_csv_cell(job / "spectrum.csv", 2, 2, lambda c: bad)
        problems = outcheck.check_job(job, ref, TOL)
        assert any("non-finite" in p for p in problems), problems

    def test_injected_nan_in_json_is_caught(self, small_pass, tmp_path):
        ref = recorded(small_pass / "j1")
        job = copy_job(small_pass / "j1", tmp_path / "j1")
        edit_json(job / "validate_report.json",
                  lambda d: d["resonant_reduction_deviation"].update(
                      median=math.nan))
        problems = outcheck.check_job(job, ref, TOL)
        assert any("not finite" in p for p in problems), problems

    def test_failed_validation_is_caught(self, small_pass, tmp_path):
        ref = recorded(small_pass / "j1")
        job = copy_job(small_pass / "j1", tmp_path / "j1")
        edit_json(job / "validate_report.json",
                  lambda d: d.update(all_pass=False))
        problems = outcheck.check_job(job, ref, TOL)
        assert any("all_pass" in p for p in problems), problems

    def test_error_measure_over_its_gate_is_caught(self, small_pass,
                                                   tmp_path):
        ref = recorded(small_pass / "j1")
        job = copy_job(small_pass / "j1", tmp_path / "j1")
        edit_json(job / "validate_report.json",
                  lambda d: d["coefficient_oracle"].update(
                      worst_rel_err=2e-9))
        problems = outcheck.check_job(job, ref, TOL)
        assert any("coefficient_oracle.worst_rel_err" in p
                   for p in problems), problems

    def test_missing_file_and_rows_are_caught(self, small_pass, tmp_path):
        ref = recorded(small_pass / "j0")
        job = copy_job(small_pass / "j0", tmp_path / "j0")
        lines = (job / "spectrum.csv").read_text().split("\n")
        (job / "spectrum.csv").write_text("\n".join(lines[:-3] + [""]))
        assert any("rows" in p for p in outcheck.check_job(job, ref, TOL))
        (job / "spectrum.csv").unlink()
        assert any("data files" in p
                   for p in outcheck.check_job(job, ref, TOL))

    def test_malformed_files_are_caught(self, small_pass, tmp_path):
        ref = recorded(small_pass / "j1")
        job = copy_job(small_pass / "j1", tmp_path / "j1")
        (job / "validate_report.json").write_text("{")
        problems = outcheck.check_job(job, ref, TOL)
        assert any("unreadable" in p for p in problems), problems
        ref = recorded(small_pass / "j0")
        job = copy_job(small_pass / "j0", tmp_path / "j0")
        (job / "spectrum.csv").write_text("")
        problems = outcheck.check_job(job, ref, TOL)
        assert any("unreadable" in p for p in problems), problems

    def test_reference_round_trip(self, small_pass, tmp_path):
        arrays = []
        jobs = [outcheck.record_job(small_pass / "j0", arrays)]
        path = tmp_path / "ref.npz.xz"
        outcheck.save_reference(path, jobs, arrays)
        loaded = outcheck.load_reference(path)
        assert outcheck.check_job(small_pass / "j0", loaded[0], TOL) == []


def test_recorded_reference_matches_a_fresh_pass(tmp_path):
    refs = outcheck.load_reference(outcheck.ref_path("cli_defaults", 0))
    run_ok(jobs_for("cli_defaults", 0), tmp_path)
    for i, ref in enumerate(refs):
        assert outcheck.check_job(tmp_path / ("j%d" % i), ref,
                                  TOL) == [], i


class TestTracing:
    @pytest.fixture(scope="class")
    def passes(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("traced")
        return {name: (out / name, run_ok(SMALL_JOBS, out / name,
                                          trace=name.startswith("traced")))
                for name in ("plain", "traced1", "traced2")}

    def test_counts_repeat_exactly(self, passes):
        first = tracing.layer_metrics(passes["traced1"][1]["trace"])
        second = tracing.layer_metrics(passes["traced2"][1]["trace"])
        names = tracing.count_metrics()
        assert {n: first[n] for n in names} == {n: second[n] for n in names}
        assert first["sql.s_add_per_optimum"] == 8
        assert first["cli.files_written"] == 10

    def test_tracing_changes_no_output(self, passes):
        plain = data_files(passes["plain"][0])
        assert plain and data_files(passes["traced1"][0]) == plain

    def test_every_layer_and_job_is_seen(self, passes):
        m = tracing.layer_metrics(passes["traced1"][1]["trace"])
        for sub in SUBCOMMANDS:
            assert m["cli.job_s." + sub] > 0
        for name in ("coefficients.solve.calls", "coefficients.closed_form"
                     ".points", "spectra.s_add_som.calls", "sql.g_numeric"
                     ".calls", "sql.r_factors.calls", "optimize.evals",
                     "sensing.s_r.self_s", "cli.bytes_written"):
            assert m[name] > 0, name

    def test_spans_nest_inside_their_parents(self, passes):
        spans = passes["traced1"][1]["trace"]["spans"]
        by_id = {s[0]: s for s in spans}
        assert {s[1] for s in spans if s[4] is None} == {"cli.main"}
        for span_id, name, start, end, parent in spans:
            assert start <= end
            if parent is not None:
                p = by_id[parent]
                assert p[2] <= start and end <= p[3], name

    def test_install_is_undone(self):
        import omdp_sense.spectra as spectra
        import omdp_sense.sql as sql
        before = sql.s_add
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert sql.s_add is not before and sql.s_add.__wrapped__ is before
            assert spectra.s_add is sql.s_add
        finally:
            tracer.uninstall()
        assert sql.s_add is before


def test_passes_do_not_depend_on_call_history(tmp_path):
    # a fresh worker per pass keeps the sql module's denominator caches cold
    jobs = [["sql-map", "--set", "omega_points=21", "--set", "v_points=4"]]
    for k in range(3):
        run_ok(jobs, tmp_path / ("pass%d" % k))
    assert (data_files(tmp_path / "pass0")
            == data_files(tmp_path / "pass2"))


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    per_layer = dict(tracing.PER_LAYER, **{"trace.overhead_s": "s"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, why) for name, (_, why) in run.WORKLOADS.items()]


def test_fails_without_the_package(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_defaults",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_worker_threads_are_pinned():
    env = harness.worker_env()
    assert all(env[name] == "1" for name in harness.THREAD_VARS)
    assert np.__version__ == harness.env_info()["numpy"]
