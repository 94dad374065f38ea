import contextlib
import csv
import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from omdp_sense import cli, coefficients, sql
from omdp_sense.cli import SCHEMA, main, resolve_table, load_config_file
from omdp_sense.errors import ParameterError, UsageError
from omdp_sense.exact import Exact
from omdp_sense.spectra import POINT_BLOCK


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[_maybe_float(x) for x in r] for r in rows[1:]]


def _maybe_float(x):
    try:
        return float(x)
    except ValueError:
        return x


class TestConfigResolution:
    def test_unknown_key_rejected(self):
        with pytest.raises(UsageError, match="bogus"):
            resolve_table("spectrum", None, ["bogus=1"])

    def test_override_applies(self):
        table = resolve_table("spectrum", None, ["kappa=0.25"])
        assert table["kappa"] == 0.25

    def test_config_file_layering(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa = 0.2  # wider cavity\n\ng = 0.05\n")
        table = resolve_table("spectrum", str(cfg), ["g=0.07"])
        assert table["kappa"] == 0.2
        assert table["g"] == 0.07  # cli override wins over file

    def test_malformed_line_flagged(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa 0.2\n")
        with pytest.raises(UsageError, match="key = value"):
            load_config_file(str(cfg))

    def test_list_value_parsed(self):
        table = resolve_table("spectrum", None, ["v_list=0,0.1,0.3"])
        assert table["v_list"] == (0, 0.1, 0.3)

    def test_values_take_their_kind(self, tmp_path):
        # the same value typed alike from --set, a key = value file and
        # a manifest JSON: rates as floats, counts as ints, lists as tuples
        cfg = tmp_path / "run.cfg"
        cfg.write_text("v_list = 0\nbase_points = 7.0\nnth = 3\n")
        man = tmp_path / "run.json"
        man.write_text(json.dumps({"parameters": {
            "v_list": [0], "base_points": 7, "nth": 3}}))
        sets = resolve_table("spectrum", None,
                             ["v_list=0", "base_points=7", "nth=3"])
        for table in (sets, resolve_table("spectrum", str(cfg), []),
                      resolve_table("spectrum", str(man), [])):
            assert [(table[k], type(table[k]))
                    for k in ("nth", "base_points")] == [(3.0, float),
                                                         (7, int)]
            assert table["v_list"] == (0.0,)
            assert type(table["v_list"][0]) is float

    def test_si_rescales_rate_keys_only(self):
        table = resolve_table("snr", None, [
            "units=si", "omega_m_si=2.0", "kappa=0.5", "v=0.25",
            "temperature=2"])
        assert table["units"] == "omega_m"
        assert (table["kappa"], table["v"]) == (0.25, 0.125)
        assert (table["omega_m_si"], table["temperature"]) == (2.0, 2.0)

    def test_unreadable_config_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        for path in (bad, tmp_path / "missing.cfg"):
            with pytest.raises(UsageError, match=path.name):
                load_config_file(str(path))


class TestExitCodes:
    def test_usage_error_is_two(self, tmp_path, capsys):
        rc = main(["spectrum", "--set", "bogus=1", "--out", str(tmp_path)])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    def test_model_error_is_one(self, tmp_path, capsys):
        rc = main(["spectrum", "--set", "g=0", "--out", str(tmp_path)])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["kappa=nan", "gamma=inf"])
    def test_non_finite_parameter_is_one(self, tmp_path, capsys, setting):
        rc = main(["spectrum", "--set", setting, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert not (tmp_path / "spectrum.csv").exists()

    @pytest.mark.parametrize("settings, message", [
        # the second coupling's detector is unstable; its grid would fail too
        (["v_list=0.2,-1"],
         "v_coupling^2 = 1 exceeds omega_m1*omega_m2 = 1 (unstable)"),
        # the first coupling's sweep fails before the second's detector
        (["g=0", "v_list=0,-1"], "output transduction vanished")])
    def test_spectrum_raises_in_coupling_order(self, tmp_path, capsys,
                                              settings, message):
        argv = ["spectrum", "--out", str(tmp_path)]
        for setting in settings:
            argv += ["--set", setting]
        rc = main(argv)
        assert rc == 1
        assert capsys.readouterr().err == "error: %s\n" % message
        assert not (tmp_path / "spectrum.csv").exists()

    @pytest.mark.parametrize("setting, key", [
        ("v_list=0.2,abc", "v_list"), ("base_points=3.7", "base_points"),
        ("span_lo=low", "span_lo")])
    def test_bad_spectrum_input_is_two(self, tmp_path, capsys, setting, key):
        rc = main(["spectrum", "--set", setting, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("usage error:") and key in err
        assert not (tmp_path / "spectrum.csv").exists()

    @pytest.mark.parametrize("setting, key", [
        ("seed=abc", "seed"), ("sets=-2", "sets"), ("sql_sets=0", "sql_sets"),
        ("sets=2.5", "sets")])
    def test_bad_validate_input_is_two(self, tmp_path, capsys, setting, key):
        rc = main(["validate", "--set", setting, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("usage error:") and key in err
        assert not (tmp_path / "validate_report.json").exists()

    @pytest.mark.parametrize("value", ["si", "omega_m"])
    def test_validate_takes_no_units_key(self, tmp_path, capsys, value):
        # validate reads no rate, so units would rescale nothing
        rc = main(["validate", "--set", "units=" + value,
                   "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("usage error: unknown config key 'units'")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command, setting, key", [
        ("sweep", "points=3.7", "points"),
        ("sql-map", "omega_points=5.5", "omega_points"),
        ("snr", "v_points=2.5", "v_points")])
    def test_non_integral_count_is_two(self, tmp_path, capsys, command,
                                       setting, key):
        rc = main([command, "--set", setting, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("usage error:") and key in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command, setting, key", [
        ("sweep", "lo=abc", "lo"), ("snr", "temperature=warm", "temperature"),
        ("sql-map", "omega_lo=x", "omega_lo"),
        ("snr", "omega_m_si=abc", "omega_m_si"), ("sweep", "mode=xyz", "mode"),
        ("sweep", "points=0", "points"),
        ("sql-map", "omega_points=0", "omega_points"),
        ("snr", "v_points=0", "v_points"), ("snr", "t_lo=1,2", "t_lo"),
        ("spectrum", "units=si", "omega_m_si"),
        ("sweep", "points=1e308", "points"), ("sweep", "points=1e12", "points"),
        ("sql-map", "omega_points=1e308", "omega_points"),
        ("snr", "v_points=1e300", "v_points")])
    def test_bad_value_is_two(self, tmp_path, capsys, command, setting, key):
        rc = main([command, "--set", setting, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("usage error:") and key in err
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command, settings, word", [
        ("sweep", ["lo=nan"], "lo"), ("sweep", ["panel=c", "lo=-1"], "log"),
        ("snr", ["b_lo=-1"], "b_lo"), ("snr", ["b_hi=0"], "b_hi"),
        ("sql-map", ["gamma=1e308"], "Overflow"),
        ("sql-map", ["delta_prime=-1e308"], "ZeroDivision"),
        ("sweep", ["gamma=1e308"], "NaN or inf"),
        ("spectrum", ["gamma=1e308"], "NaN or inf"),
        # snr_vs_b overflows after three tables are written
        ("snr", ["b_hi=1e200"], "Overflow"),
        # field/100 underflows to zero while xi * field does not
        ("snr", ["current=1e10", "probe_size=1e10", "field=5e-324"],
         "field/100"),
        # the refined sql scan runs on arrays and keeps the scalar errors
        ("sweep", ["mode=sql", "grid=refined", "delta_prime=-1e308"],
         "ZeroDivision"),
        ("sweep", ["mode=sql", "grid=refined", "gamma=1e308"], "Overflow"),
        ("sweep", ["mode=sql", "grid=refined", "kappa=1e-300"],
         "NaN or inf"),
        # the floor scan overflows at some points and not at others; it
        # raises where the scalar scan does
        ("snr", ["g=1e-156"], "OverflowError")])
    def test_value_outside_domain_is_one(self, tmp_path, capsys, command,
                                         settings, word):
        argv = [command, "--out", str(tmp_path)]
        for setting in settings:
            argv += ["--set", setting]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and word in err
        assert "Traceback" not in err and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("gamma", ["1e-100", "1e-150", "1e-200",
                                       "1e-300", "1e-308"])
    @pytest.mark.parametrize("kappa", ["1e-5", "0.1", "1e3"])
    def test_tiny_damping_sql_map_exits_cleanly(self, tmp_path, capsys,
                                                gamma, kappa):
        rc = main(["sql-map", "--set", "gamma=" + gamma,
                   "--set", "kappa=" + kappa, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        if rc == 0:
            header, rows = read_csv(tmp_path / "sql_map.csv")
            cols = [header.index("log10_r1"), header.index("log10_r2")]
            assert all(math.isfinite(r[j]) for r in rows for j in cols)
        else:
            assert rc == 1 and err.startswith("error:")
            assert "Traceback" not in err and err.count("\n") == 1
            assert not list(tmp_path.iterdir())

    def test_out_of_memory_is_one(self, tmp_path, capsys, monkeypatch):
        # a valid sweep of very many values whose scans do not fit
        message = ("Unable to allocate 389. MiB for an array with shape "
                   "(51000000,) and data type float64")

        def no_memory(*args, **kwargs):
            raise MemoryError(message)
        monkeypatch.setattr(cli, "s_min_sweep", no_memory)
        rc = main(["sweep", "--set", "points=1000000",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == "error: out of memory: %s\n" % (
            message,)
        assert not list(tmp_path.iterdir())

    def test_out_of_memory_removes_the_files_written_before(
            self, tmp_path, capsys, monkeypatch):
        # snr's first table is written, its second runs out of memory
        calls, s_r = [], cli.s_r

        def second_fails(*args):
            calls.append(args)
            if len(calls) == 2:
                raise MemoryError
            return s_r(*args)
        monkeypatch.setattr(cli, "s_r", second_fails)
        rc = main(["snr", "--out", str(tmp_path)])
        assert rc == 1 and len(calls) == 2
        assert capsys.readouterr().err == "error: out of memory\n"
        assert not list(tmp_path.iterdir())

    def test_overflow_prints_no_numpy_warning(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["spectrum", "--set", "gamma=1e308",
                       "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.count("\n") == 1

    def test_non_finite_table_leaves_no_file(self, tmp_path, capsys):
        # the field range overflows in the calibration, before any table
        rc = main(["snr", "--set", "field=1e308", "--out", str(tmp_path)])
        assert rc == 1
        assert "not finite" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("setting", [
        "anchor_snr=0", "anchor_snr=-1", "current=0", "probe_size=0",
        "field=0"])
    def test_non_positive_anchor_is_one(self, tmp_path, capsys, setting):
        rc = main(["snr", "--set", setting, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert setting.split("=")[0] in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, rows, keys", [
        (["spectrum", "--set", "base_points=1000000"], 4000000,
         ("v_list", "base_points")),
        (["spectrum", "--set", "v_list=0.2", "--set", "base_points=500001"],
         1000002, ("v_list", "base_points")),
        (["sql-map", "--set", "omega_points=1001", "--set", "v_points=1000"],
         1001000, ("omega_points", "v_points"))])
    def test_oversized_table_is_two(self, tmp_path, capsys, monkeypatch,
                                    argv, rows, keys):
        def unreachable(*args):
            raise AssertionError("solve started for an oversized table")
        monkeypatch.setattr(cli, "r_map", unreachable)
        monkeypatch.setattr(cli, "spectrum_sweep", unreachable)
        rc = main(argv + ["--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert str(rows) in err and all(k in err for k in keys)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--set", "v_list=0.2", "--set", "base_points=500000"],
        ["sql-map", "--set", "omega_points=1000", "--set", "v_points=1000"]])
    def test_table_of_max_count_rows_is_solved(self, tmp_path, monkeypatch,
                                               argv):
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached
        monkeypatch.setattr(cli, "r_map", reached)
        monkeypatch.setattr(cli, "spectrum_sweep", reached)
        with pytest.raises(Reached):
            main(argv + ["--out", str(tmp_path)])

    def test_clean_run_is_zero(self, tmp_path):
        rc = main(["sweep", "--set", "panel=b", "--set", "points=5",
                   "--out", str(tmp_path)])
        assert rc == 0

    @pytest.mark.parametrize("blocked", [
        "", "sub", "spectrum.csv", "spectrum.csv.manifest.json"])
    def test_unwritable_output_is_two(self, tmp_path, capsys, blocked):
        # --out names a regular file ("") or a path under one ("sub"), or a
        # directory takes the path of a data file or of its manifest
        out = tmp_path / "out"
        if blocked.startswith("spectrum"):
            (out / blocked).mkdir(parents=True)
        else:
            out.write_text("")
            out = out / blocked
        rc = main(["spectrum", "--set", "base_points=11", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("usage error:")
        assert err.count("\n") == 1
        if blocked.startswith("spectrum"):
            assert str(out / blocked) in err
            assert [p.name for p in out.iterdir()] == [blocked]
        else:
            assert str(out) in err

    @pytest.mark.parametrize("target", ["data", "manifest"])
    @pytest.mark.parametrize("error, rc", [
        (OSError(errno.ENOSPC, "No space left on device"), 2),
        (OverflowError("int too large to convert to float"), 1)])
    def test_error_while_writing_leaves_no_file(self, tmp_path, capsys,
                                                monkeypatch, target, error,
                                                rc):
        # the writer of the data file or of its manifest writes one line,
        # then fails
        def failing(*args, **kwargs):
            args[1 if target == "manifest" else 0].write("one line\n")
            raise error
        if target == "manifest":
            monkeypatch.setattr(cli.json, "dump", failing)
        else:
            monkeypatch.setattr(cli, "_write_csv", failing)
        assert main(["sweep", "--out", str(tmp_path)]) == rc
        assert capsys.readouterr().err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    def test_missing_out_dir_is_created(self, tmp_path):
        out = tmp_path / "fresh" / "nested"
        rc = main(["sweep", "--set", "panel=b", "--set", "points=5",
                   "--out", str(out)])
        assert rc == 0
        assert (out / "sweep_b.csv").exists()


def test_module_runs_as_a_program():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "omdp_sense", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: omdp-sense")


class TestSpectrumCommand:
    def run(self, tmp_path, *extra):
        rc = main(["spectrum", "--out", str(tmp_path),
                   "--set", "base_points=201"] + list(extra))
        assert rc == 0
        return tmp_path / "spectrum.csv"

    def test_layout_and_manifest(self, tmp_path):
        path = self.run(tmp_path)
        header, rows = read_csv(path)
        assert header == ["omega_over_omega_m", "s_add", "s_th", "a_p",
                          "series"]
        man = json.loads((tmp_path / "spectrum.csv.manifest.json").read_text())
        assert man["subcommand"] == "spectrum"
        assert man["parameters"]["base_points"] == 201
        assert "sha256" in man and "timestamp" in man

    def test_reference_block_dips_at_effective_frequency(self, tmp_path):
        header, rows = read_csv(self.run(tmp_path))
        block = [r for r in rows if r[4] == "v=0.2"]
        w_min = min(block, key=lambda r: r[1])[0]
        assert abs(w_min - 1.09545) / 1.09545 < 0.01

    def test_uncoupled_matches_single_oscillator_floor(self, tmp_path):
        header, rows = read_csv(self.run(tmp_path, "--set", "v_list=0"))
        dual = min(r[1] for r in rows if r[4] == "v=0")
        som = min(r[1] for r in rows if r[4] == "som")
        assert abs(dual - som) / som < 0.05

    def test_json_som_rows_have_empty_a_p(self, tmp_path):
        assert main(["spectrum", "--format", "json", "--set", "base_points=11",
                     "--out", str(tmp_path)]) == 0
        rows = json.loads((tmp_path / "spectrum.json").read_text())[
            "data"]["rows"]
        assert {r[3] for r in rows if r[4] == "som"} == {""}
        assert {type(r[3]) for r in rows if r[4] != "som"} == {float}

    def test_dense_table_peak_memory(self, tmp_path):
        # a 201,477-row table: with its columns filled in place it traced
        # 17.2 MB (numpy 2.4); holding every series beside their
        # concatenation, and np.unique with counts per column, traced 27.1
        tracemalloc.start()
        try:
            rc = main(["spectrum", "--out", str(tmp_path),
                       "--set", "v_list=0,0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4",
                       "--set", "base_points=20001"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 20e6

    def test_si_units_equivalent(self, tmp_path):
        w = 2 * math.pi * 10.56e6
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        main(["spectrum", "--out", str(a), "--set", "base_points=51",
              "--set", "v_list=0.2"])
        main(["spectrum", "--out", str(b), "--set", "base_points=51",
              "--set", "units=si", "--set", "omega_m_si=%r" % w,
              "--set", "delta_prime=%r" % w, "--set", "kappa=%r" % (0.1 * w),
              "--set", "g=%r" % (0.03 * w), "--set", "gamma=%r" % (1e-5 * w),
              "--set", "v_list=%r" % (0.2 * w),
              "--set", "span_lo=%r" % (0.9 * w),
              "--set", "span_hi=%r" % (1.2 * w)])
        ha, ra = read_csv(a / "spectrum.csv")
        hb, rb = read_csv(b / "spectrum.csv")
        assert len(ra) == len(rb)
        for x, y in zip(ra, rb):
            assert x[0] == pytest.approx(y[0], rel=1e-12)
            assert x[1] == pytest.approx(y[1], rel=1e-12)


def csv_writer_bytes(columns, rows):
    """A table as csv.writer writes it with %.17g numbers, cell by cell."""
    buf = io.StringIO()
    wr = csv.writer(buf, lineterminator="\n")
    wr.writerow(columns)
    wr.writerows([x if isinstance(x, str) else "%.17g" % x for x in row]
                 for row in rows)
    return buf.getvalue().encode("utf-8")


class TestCsvEmission:
    def emit(self, tmp_path, header, *columns):
        config = cli.RunConfig(subcommand="spectrum", table={},
                               out_dir=str(tmp_path), fmt="csv")
        path = cli.Emitter(config).table_file("t", header, *columns)
        with open(path, "rb") as fh:
            return fh.read()

    def test_bytes_equal_csv_writer_on_adversarial_rows(self, tmp_path):
        # columns of one kind each: a, b and c numbers, d text
        rng = np.random.default_rng(5)
        n = cli.CSV_CHUNK
        edge = (-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1.0, 3)
        # one chunk of numbers of every kind, with plain text
        rows = [(float(x), np.float64(y), 7 * k, "v=0.2")
                for k, (x, y) in enumerate(rng.normal(size=(n, 2)))]
        rows[:len(edge)] = [(x, np.float64(x), k, "som")
                            for k, x in enumerate(edge)]
        # a chunk with text csv quotes, empty text, text with a NUL, which
        # csv.writer writes as is, and text longer than any number
        texts = ("a,b", 'say "hi"', "a\nb", "cr\r", "", "word", "a\x00b",
                 "é, long" * 5)
        rows += [(float(k), float(rng.normal()), k % 5, texts[k % len(texts)])
                 for k in range(n)]
        # a chunk whose number columns mix ints, floats and numpy floats
        # from row to row
        mixed = [(0.1, 1, np.float64(-0.0), ""), (1, 0.3, 2.0, 'say "hi"'),
                 (np.float64(2.0), -0.0, 3, "x"), (-0.0, 2.0, 0.5, "cr\r")]
        rows += (mixed * n)[:n]
        # a chunk and a half of values that recur across chunks: the first
        # chunk's again, the edges, and -0.0 beside 0.0 in one column
        rows += [(rows[k % n][0], edge[k % len(edge)], (0.0, -0.0)[k % 2],
                  "som") for k in range(n + n // 2)]
        assert len(rows) > 4 * n
        header = ("a", "b", "c", "d")
        assert self.emit(tmp_path, header, *zip(*rows)) == csv_writer_bytes(
            header, rows)

    def test_lone_cells_of_a_one_column_table(self, tmp_path):
        # csv.writer writes empty text alone in its row as ""
        cells = ["x", "", "1.5", "", "-0.0", 'q"', "a,b", "0.0"] * 700
        assert self.emit(tmp_path, ("only",), cells) == csv_writer_bytes(
            ("only",), [(c,) for c in cells])

    def test_arrays_write_as_their_values(self, tmp_path):
        rng = np.random.default_rng(6)
        n = 2 * cli.CSV_CHUNK + 7
        floats = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n)
        floats[:6] = (-0.0, 0.0, 5e-324, 1e308, 0.1, -0.0)
        ints = rng.integers(-10 ** 6, 10 ** 6, n)
        recurring = rng.choice([0.25, -0.0, 0.0, 1e-310], n)
        columns = (floats, ints, recurring, ["v=0.2"] * n)
        header = ("f", "i", "r", "s")
        assert self.emit(tmp_path, header, *columns) == csv_writer_bytes(
            header, list(zip(*(c.tolist() if isinstance(c, np.ndarray)
                               else c for c in columns))))

    def test_empty_cells_are_never_formatted(self, tmp_path, monkeypatch):
        # a masked cell is empty whatever it holds, so its value never
        # reaches the formatter, in blocks with and without empty cells
        formatted, g17 = [], cli.g17

        def recording(values):
            formatted.extend(np.ravel(values).tolist())
            return g17(values)
        monkeypatch.setattr(cli, "g17", recording)
        n = 2 * cli.CSV_CHUNK + 5
        ones = np.arange(n) + 0.5
        data = np.where(np.arange(n) % 3 == 0, math.inf, 2.5)
        data[cli.CSV_CHUNK:2 * cli.CSV_CHUNK] = 2.5  # a block of no empties
        column = np.ma.masked_array(data, mask=np.isinf(data))
        self.emit(tmp_path, ("ok", "a_p"), ones, column)
        assert sorted(formatted) == sorted(
            ones.tolist() + data[~np.isinf(data)].tolist())

    @pytest.mark.parametrize("column", [
        np.array([math.nan] + [0.5] * 5000),
        [0.25] * 5000 + [math.inf],
        np.array([1.0] * 9000 + [-math.inf]),
        np.ma.masked_array([0.5, -math.inf, 2.0] * 1000,
                           mask=[True, False, False] * 1000),
        [0.5, math.nan, 1]])
    def test_non_finite_cell_is_refused(self, tmp_path, column):
        ones = [1.0] * len(column)
        with pytest.raises(ParameterError, match="refusing to write NaN"):
            self.emit(tmp_path, ("ok", "bad"), ones, column)
        assert not list(tmp_path.iterdir())

    def test_masked_non_finite_cells_are_empty(self, tmp_path):
        # a masked cell is empty whatever it holds, NaN and inf included
        data = [math.nan, 0.5, math.inf, -math.inf, 0.5] * 1000
        mask = [True, False, True, True, False] * 1000
        column = np.ma.masked_array(data, mask=mask)
        assert self.emit(tmp_path, ("ok", "a_p"), [1.0] * len(data),
                         column) == csv_writer_bytes(
            ("ok", "a_p"), [(1.0, "" if m else x) for x, m in zip(data, mask)])

    def test_column_of_text_and_numbers_is_a_type_error(self, tmp_path):
        with pytest.raises(TypeError, match="mixes text and numbers"):
            self.emit(tmp_path, ("ok", "bad"), [1.0, 2.0], ["a", 0.5])
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_last_row_exits_one_and_writes_nothing(
            self, tmp_path, capsys, monkeypatch, bad):
        som = cli.s_add_som

        def poisoned(*args):
            out = np.array(som(*args))
            out[-1] = bad
            return out
        monkeypatch.setattr(cli, "s_add_som", poisoned)
        # four series of about 1,300 rows: the last row, a som row, lies
        # past the first chunk boundary
        rc = main(["spectrum", "--set", "base_points=1200",
                   "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "error: spectrum.csv: refusing to write NaN or inf\n"
        assert not list(tmp_path.iterdir())

    def test_digest_reads_in_chunks(self, tmp_path):
        data = np.random.default_rng(3).bytes((1 << 20) * 2 + 12345)
        path = tmp_path / "blob"
        path.write_bytes(data)
        assert cli._digest(str(path)) == hashlib.sha256(data).hexdigest()


# cells that %.17g or csv.writer treat apart, drawn often so that they recur
# in their column: signed zeros, subnormals, extremes, quotes, separators,
# line breaks, empty text and the format's own %
EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e308,
               -1e308, 0.1, 1.0, 3.0)
FLOATS = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False,
                                                  allow_infinity=False)
INTS = st.integers(-2 ** 63, 2 ** 63 - 1)
TEXTS = st.sampled_from(("", "som", "a,b", 'say "hi"', "a\nb", "cr\r",
                         "%s", "100%")) | st.text(
    st.sampled_from('a,"\n\r %'), max_size=4)


@st.composite
def typed_columns(draw, rows):
    """A table column of one kind, and its cells as csv.writer takes them:
    numbers, or text where the column has text or a masked cell."""
    kind = draw(st.sampled_from(("float", "int", "masked", "text", "list")))
    cell = {"int": INTS, "text": TEXTS,
            "list": FLOATS | INTS}.get(kind, FLOATS)
    cells = draw(st.lists(cell, min_size=rows, max_size=rows))
    if kind == "masked":
        mask = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
        return (np.ma.masked_array(cells, mask=mask),
                ["" if m else x for x, m in zip(cells, mask)])
    if kind == "float":
        return np.array(cells, dtype=float), cells
    if kind == "int":
        return np.array(cells, dtype=np.int64), cells
    return cells, cells


@st.composite
def typed_tables(draw):
    """1 to 24 columns of 0 to 12 rows, and the rows per chunk to write
    them with."""
    rows = draw(st.integers(0, 12))
    columns = draw(st.lists(typed_columns(rows), min_size=1, max_size=24))
    return columns, draw(st.integers(1, 5))


# examples per run come from the hypothesis profile (tests/conftest.py)
@settings(deadline=None)
@given(typed_tables())
# 24 columns: a writer that made a template for each of the 2 ** 24 slot
# patterns up front would not finish
@example(table=([(np.array([0.5, 0.5]), [0.5, 0.5])] * 24, 1))
# alone in its row, an empty cell is a pair of quotes
@example(table=([(np.ma.masked_array([0.5, 1.0], mask=[True, False]),
                  ["", 1.0])], 1))
def test_typed_tables_write_as_csv_writer_does(table):
    columns, chunk = table
    header = ["c%d" % j for j in range(len(columns))]
    buf = io.StringIO()
    with mock.patch.object(cli, "CSV_CHUNK", chunk):
        cli._write_csv(buf, header, [c for c, _ in columns])
    assert buf.getvalue().encode("utf-8") == csv_writer_bytes(
        header, list(zip(*(cells for _, cells in columns))))


@pytest.mark.parametrize("argv", [
    ["spectrum", "--set", "base_points=21"],
    ["sql-map", "--set", "omega_points=11", "--set", "v_points=4"],
    ["sweep", "--set", "points=5"],
    ["sweep", "--set", "panel=c", "--set", "mode=sql", "--set", "points=5"],
    ["snr", "--set", "v_points=4", "--set", "t_points=4",
     "--set", "b_points=4"]])
def test_written_tables_reread_as_csv_writer_bytes(tmp_path, argv):
    # every table, read back and written again by csv.writer with its
    # numbers as %.17g, gives the bytes the command wrote
    assert main(argv + ["--out", str(tmp_path)]) == 0
    tables = sorted(tmp_path.glob("*.csv"))
    assert tables
    for path in tables:
        assert path.read_bytes() == csv_writer_bytes(*read_csv(path))


# the snr defaults need no spectrum-sized grids, so keep full defaults here
class TestSnrCommand:
    def test_accuracy_report(self, tmp_path):
        rc = main(["snr", "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "accuracy.json").read_text())
        data = doc["data"]
        assert set(data) >= {"power", "amplitude",
                             "b_min_ratio_power_over_amplitude"}
        assert data["power"]["loglog_slope"] == pytest.approx(2.0, abs=1e-9)
        assert data["amplitude"]["loglog_slope"] == pytest.approx(1.0,
                                                                  abs=1e-9)
        assert data["b_min_ratio_power_over_amplitude"] == pytest.approx(
            math.sqrt(1.7e6), rel=1e-9)
        assert data["amplitude"]["b_min_tesla"] == pytest.approx(
            5.882352941176472e-20, rel=1e-9)

    def test_enhancement_tables(self, tmp_path):
        rc = main(["snr", "--out", str(tmp_path)])
        assert rc == 0
        _, sv = read_csv(tmp_path / "s_r_vs_v.csv")
        assert all(r[1] > 1.0 for r in sv)
        _, st = read_csv(tmp_path / "s_r_vs_temperature.csv")
        assert st[-1][1] == pytest.approx(2.0, rel=0.05)
        assert all(b[1] >= a[1] for a, b in zip(st, st[1:]))


class TestSqlMapCommand:
    def test_uncoupled_row_and_contours(self, tmp_path):
        rc = main(["sql-map", "--out", str(tmp_path),
                   "--set", "omega_points=51", "--set", "v_points=4"])
        assert rc == 0
        _, rows = read_csv(tmp_path / "sql_map.csv")
        v0 = [r for r in rows if r[1] == 0.0]
        best = min(v0, key=lambda r: r[3])
        assert best[0] == pytest.approx(1.0, abs=0.01)
        assert best[3] == pytest.approx(0.0, abs=1e-9)
        _, crossings = read_csv(tmp_path / "sql_map_contours.csv")
        r2x = [r for r in crossings if r[0] == 0.0 and r[1] == "r2"]
        assert r2x and min(abs(r[2] - 1.0) for r in r2x) < 0.01

    def test_crossing_on_a_grid_point_is_written_once(self, tmp_path):
        # r2 = 1 exactly at omega_m on the v = 0 row, and log10 r2 changes
        # sign through that grid point here
        rc = main(["sql-map", "--out", str(tmp_path), "--set", "kappa=0.01",
                   "--set", "delta_prime=1.5"])
        assert rc == 0
        _, crossings = read_csv(tmp_path / "sql_map_contours.csv")
        r2x = [r[2] for r in crossings if r[0] == 0.0 and r[1] == "r2"]
        assert r2x.count(1.0) == 1
        assert len(set(map(tuple, crossings))) == len(crossings)


class TestSweepCommand:
    def test_split_sweep_matches_coupling_sweep(self, tmp_path):
        assert main(["sweep", "--out", str(tmp_path)]) == 0
        assert main(["sweep", "--set", "panel=b", "--out", str(tmp_path)]) == 0
        _, rows_a = read_csv(tmp_path / "sweep_a.csv")
        _, rows_b = read_csv(tmp_path / "sweep_b.csv")
        at_v = min(rows_a, key=lambda r: abs(r[0] - 0.2))
        at_zero = min(rows_b, key=lambda r: abs(r[0]))
        assert at_zero[1] == at_v[1]

    def test_unstable_values_noted_in_manifest(self, tmp_path):
        rc = main(["sweep", "--set", "lo=0.9", "--set", "hi=1.2",
                   "--set", "points=4", "--out", str(tmp_path)])
        assert rc == 0
        man = json.loads((tmp_path / "sweep_a.csv.manifest.json").read_text())
        assert len(man["skipped"]) >= 1
        _, rows = read_csv(tmp_path / "sweep_a.csv")
        assert len(rows) + len(man["skipped"]) == 4

    def test_sql_mode_emits_coupling_column(self, tmp_path):
        rc = main(["sweep", "--set", "mode=sql", "--set", "points=3",
                   "--set", "lo=0", "--set", "hi=0.2", "--out",
                   str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "sweep_a.csv")
        assert header[-1] == "g_opt"
        assert all(r[-1] > 0 for r in rows)

    def test_boundary_hits_noted_in_manifest(self, tmp_path):
        # the refined scan ends at 1.3; a split of 0.6 puts oscillator 1
        # there, so its minimum sits on the scan's last point
        for panel, lo, hi, hits in (("a", 0.0, 0.2, 0), ("b", 0.5, 0.6, 1)):
            rc = main(["sweep", "--set", "panel=" + panel,
                       "--set", "grid=refined", "--set", "points=3",
                       "--set", "lo=%g" % lo, "--set", "hi=%g" % hi,
                       "--out", str(tmp_path)])
            assert rc == 0
            man = json.loads((tmp_path / ("sweep_%s.csv.manifest.json"
                                          % panel)).read_text())
            assert man["at_boundary"] == hits
            _, rows = read_csv(tmp_path / ("sweep_%s.csv" % panel))
            assert sum(r[2] == 1.3 for r in rows) == hits

    def test_run_notes_go_to_the_sidecar_only(self, tmp_path):
        notes = ("swept_parameter", "skipped", "at_boundary")
        argv = ["sweep", "--set", "lo=0.9", "--set", "hi=1.2",
                "--set", "points=4", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert main(argv + ["--format", "json"]) == 0
        csv_man = json.loads(
            (tmp_path / "sweep_a.csv.manifest.json").read_text())
        json_man = json.loads(
            (tmp_path / "sweep_a.json.manifest.json").read_text())
        doc = json.loads((tmp_path / "sweep_a.json").read_text())
        assert len(csv_man["skipped"]) >= 1
        assert not set(notes) & set(doc["manifest"])
        assert {k: json_man[k] for k in notes} == {k: csv_man[k]
                                                   for k in notes}


class TestValidateCommand:
    def test_default_suite_passes(self, tmp_path):
        rc = main(["validate", "--set", "sets=60", "--set", "sql_sets=8",
                   "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "validate_report.json").read_text())
        data = doc["data"]
        assert data["all_pass"] is True
        assert data["coefficient_oracle"]["pass"] is True
        # cross-model deviation is reported for the record, never gated
        assert data["resonant_reduction_deviation"]["gated"] is False
        assert data["b_variant"]["solver_matches"] == "direct"

    def test_boundary_hits_noted_in_manifest_only(self, tmp_path):
        rc = main(["validate", "--set", "sets=5", "--set", "sql_sets=4",
                   "--out", str(tmp_path)])
        assert rc == 0
        man = json.loads(
            (tmp_path / "validate_report.json.manifest.json").read_text())
        assert man["at_boundary"] == 0
        doc = json.loads((tmp_path / "validate_report.json").read_text())
        assert "at_boundary" not in doc["manifest"]
        assert "at_boundary" not in doc["data"]

    def test_failed_gate_exits_one_and_keeps_report(self, tmp_path,
                                                    monkeypatch):
        real = coefficients.closed_form_coefficients

        def perturbed(*args, **kw):
            c = real(*args, **kw)
            return replace(c, a_coef=c.a_coef * (1.0 + 1e-6))
        monkeypatch.setattr(coefficients, "closed_form_coefficients",
                            perturbed)
        rc = main(["validate", "--set", "sets=5", "--set", "sql_sets=2",
                   "--out", str(tmp_path)])
        doc = json.loads((tmp_path / "validate_report.json").read_text())
        assert rc == 1 and doc["data"]["all_pass"] is False
        assert doc["data"]["coefficient_oracle"]["pass"] is False


class TestSolveCounts:
    """Figure sweeps and validate's checks solve their points in batches;
    points are solved one at a time only where a search or a fit probes
    one coupling at a time."""

    def count(self, monkeypatch, tmp_path, argv,
              alone=("golden_min", "fit_shot_backaction")):
        # golden_min holds the polish and its parabolic step
        calls = {"scalar": 0, "batched": 0, "elsewhere": 0}
        solve = coefficients._solve4

        def counted(m, rhs):
            # a batch's entries are Exact arrays, one point's are numbers
            if isinstance(m[0][0], Exact):
                calls["batched"] += 1
                return solve(m, rhs)
            calls["scalar"] += 1
            frame, names = sys._getframe(1), set()
            while frame is not None:
                names.add(frame.f_code.co_name)
                frame = frame.f_back
            if not names.intersection(alone):
                calls["elsewhere"] += 1
            return solve(m, rhs)
        monkeypatch.setattr(coefficients, "_solve4", counted)
        assert main(argv + ["--out", str(tmp_path)]) == 0
        return calls

    def test_sweep_solves_no_point_alone(self, monkeypatch, tmp_path):
        calls = self.count(monkeypatch, tmp_path, ["sweep"])
        assert calls["scalar"] == 0 and calls["batched"] >= 1

    def test_refined_sweep_solves_alone_only_in_polish(self, monkeypatch,
                                                       tmp_path):
        # all values' scans are one batch, 18,863 points for panel a, in
        # blocks of POINT_BLOCK; golden_min probes alone
        calls = self.count(monkeypatch, tmp_path,
                           ["sweep", "--set", "grid=refined"],
                           alone=("golden_min",))
        assert calls["elsewhere"] == 0 and calls["scalar"] > 0
        assert calls["batched"] == -(-18863 // POINT_BLOCK) == 19

    def test_refined_sql_sweep_batches_its_optima(self, monkeypatch,
                                                  tmp_path):
        arrays, scalar = [], sql._shot_backaction

        def counted(params, omega):
            if isinstance(omega, Exact):
                arrays.append(len(omega.value))
            return scalar(params, omega)
        monkeypatch.setattr(sql, "_shot_backaction", counted)
        argv = ["sweep", "--set", "mode=sql", "--set", "grid=refined",
                "--out", str(tmp_path)]
        assert main(argv) == 0
        assert len(arrays) == 19 and max(arrays) == POINT_BLOCK

    @pytest.mark.parametrize("mode", ["fixed_g", "sql"])
    @pytest.mark.parametrize("grid", ["figure", "refined"])
    def test_sweep_of_only_unstable_values_is_an_empty_table(
            self, tmp_path, mode, grid):
        argv = ["sweep", "--set", "lo=1.0", "--set", "hi=1.5",
                "--set", "points=3", "--set", "mode=" + mode,
                "--set", "grid=" + grid, "--out", str(tmp_path)]
        assert main(argv) == 0
        header, rows = read_csv(tmp_path / "sweep_a.csv")
        assert header and rows == []
        doc = json.loads((tmp_path / "sweep_a.csv.manifest.json").read_text())
        assert len(doc["skipped"]) == 3

    def test_validate_solves_alone_only_in_polish_and_fit(self, monkeypatch,
                                                          tmp_path):
        calls = self.count(monkeypatch, tmp_path, ["validate"])
        assert calls["elsewhere"] == 0
        assert 0 < calls["scalar"] < 2400 and calls["batched"] >= 1


class TestManifestReruns:
    def test_rerun_is_byte_identical(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        first.mkdir()
        second.mkdir()
        main(["spectrum", "--out", str(first), "--set", "base_points=101"])
        main(["spectrum", "--config",
              str(first / "spectrum.csv.manifest.json"),
              "--out", str(second)])
        assert (first / "spectrum.csv").read_bytes() == \
               (second / "spectrum.csv").read_bytes()

    def test_json_format_rerun(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        first.mkdir()
        second.mkdir()
        main(["sweep", "--format", "json", "--set", "points=7",
              "--out", str(first)])
        main(["sweep", "--format", "json", "--config",
              str(first / "sweep_a.json.manifest.json"),
              "--out", str(second)])
        assert (first / "sweep_a.json").read_bytes() == \
               (second / "sweep_a.json").read_bytes()


# settings drawn at random, as --set layers, as a key = value config file or
# as one key of a real run's manifest: each run exits 0 with finite data
# files, or exits 1 or 2 with one message line, no traceback and no file
# left behind; a validate gate that fails exits 1 silently and keeps its
# report
FUZZED = ("spectrum", "sql-map", "sweep", "snr", "validate")
JUNK = ("abc", "warm", "1,2", "0", "-1", "1e308", "-1e308", "nan", "inf", "")
# values a manifest's JSON can hold that no text setting gives
JSON_JUNK = (None, True, 0, -1, 1e308, float("nan"), float("inf"), [],
             [1.0, "abc"], {})
VALID = {
    "rate": st.floats(-2.0, 2.0),
    "real": st.floats(0.0, 1e3),
    "positive": st.floats(1e-15, 1e3),
}


def _value(command, key):
    default, kind = SCHEMA[command][key]
    if isinstance(kind, tuple):
        return st.sampled_from(kind + JUNK)
    if kind == "count":
        # counts stay small: a huge one is a memory request, not a value
        return st.integers(1, 50).map(str) | st.sampled_from(
            ("0", "-3", "2.5", "abc", "nan", "1,2"))
    value = VALID[kind].map(repr) | st.sampled_from(JUNK)
    if isinstance(default, tuple):
        value = value | st.lists(VALID[kind].map(repr), min_size=1,
                                 max_size=3).map(",".join)
    return value


def _setting(command, key):
    return _value(command, key).map(lambda v: "%s=%s" % (key, v))


def _refuse(constant):
    raise AssertionError("%s in a data file" % constant)


def _assert_finite(path):
    with open(path, encoding="utf-8") as fh:
        if path.endswith(".json"):
            json.load(fh, parse_constant=_refuse)
            return
        for row in list(csv.reader(fh))[1:]:
            for cell in row:
                x = _maybe_float(cell)
                assert isinstance(x, str) or math.isfinite(x), (path, row)


def _assert_exits_cleanly(argv):
    command = argv[0]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv + ["--out", out])
        if rc == 0:
            for name in os.listdir(out):
                if not name.endswith(".manifest.json"):
                    _assert_finite(os.path.join(out, name))
        elif command == "validate" and not err.getvalue():
            # a failed gated check is not an error: exit 1, report kept
            with open(os.path.join(out, "validate_report.json")) as fh:
                assert rc == 1 and not json.load(fh)["data"]["all_pass"], argv
            return
        else:
            assert not os.listdir(out), argv
    msg = err.getvalue()
    assert rc in (0, 1, 2), argv
    if rc:
        prefix = "error:" if rc == 1 else "usage error:"
        assert msg.startswith(prefix) and msg.count("\n") == 1, (argv, msg)


# examples per run come from the hypothesis profile (tests/conftest.py)
@settings(deadline=None)
@given(data=st.data())
def test_random_set_layers_exit_cleanly(data):
    command = data.draw(st.sampled_from(FUZZED))
    keys = st.sampled_from(sorted(SCHEMA[command]))
    layer = data.draw(st.lists(keys.flatmap(
        lambda key: _setting(command, key)), max_size=4))
    fmt = data.draw(st.sampled_from(("csv", "json")))
    route = data.draw(st.sampled_from(("--set", "--config")))
    argv = [command, "--format", fmt]
    with tempfile.TemporaryDirectory() as tmp:
        if route == "--set":
            for setting in layer:
                argv += ["--set", setting]
        else:
            # the same settings, one key = value line each
            path = os.path.join(tmp, "layer.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("".join(s.replace("=", " = ", 1) + "\n"
                                 for s in layer))
            argv += ["--config", path]
        _assert_exits_cleanly(argv)


@pytest.fixture(scope="module")
def manifests(tmp_path_factory):
    """A manifest of a real run at defaults, per subcommand."""
    out = {}
    for command in FUZZED:
        run = tmp_path_factory.mktemp(command)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([command, "--out", str(run)]) == 0
        out[command] = str(min(run.glob("*.manifest.json")))
    return out


@settings(deadline=None)
@given(data=st.data())
def test_edited_manifest_reruns_exit_cleanly(manifests, data):
    command = data.draw(st.sampled_from(FUZZED))
    with open(manifests[command], encoding="utf-8") as fh:
        doc = json.load(fh)
    key = data.draw(st.sampled_from(sorted(doc["parameters"])))
    doc["parameters"][key] = data.draw(
        _value(command, key) | st.sampled_from(JSON_JUNK))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "manifest.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        _assert_exits_cleanly([command, "--config", path])
