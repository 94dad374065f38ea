"""Output check: a pass's data files against the recorded references.

A reference holds, per job and data file, what the reference commit wrote:
for a CSV file its header, its row count, each numeric column as a float64
array (NaN marks an empty cell) and a sha256 digest of each text column;
for a JSON file its "data" payload. tolerances.json gives the tolerance of
every numeric column or JSON leaf, per workload and file, as pinned by the
package tests for that quantity. A cell passes when
|value - reference| <= max(rel * |reference|, abs). A "max" entry marks an
error measure whose value depends on rounding; it must stay under the gate
that validate itself applies. Every numeric cell must be finite, and every
data file needs a manifest whose sha256 matches it.
"""

import csv
import hashlib
import io
import json
import lzma
import math
import os
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REFS = BENCH_DIR / "refs"
MANIFEST = ".manifest.json"

with open(BENCH_DIR / "tolerances.json", encoding="utf-8") as _fh:
    TOLERANCES = json.load(_fh)


def ref_path(workload, k):
    return REFS / workload / ("seed%d.npz.xz" % k)


def _data_files(job_dir):
    return sorted(f for f in os.listdir(job_dir) if not f.endswith(MANIFEST))


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _text_digest(cells):
    return hashlib.sha256("\n".join(cells).encode("utf-8")).hexdigest()


def _as_number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        yield prefix, obj
        return
    for key, val in items:
        path = "%s.%s" % (prefix, key) if prefix else str(key)
        yield from _flatten(val, path)


# ---------------------------------------------------------------- recording

def record_job(job_dir, arrays):
    """Reference of one job's data files; numeric columns go to `arrays`."""
    files = {}
    for name in _data_files(job_dir):
        path = os.path.join(job_dir, name)
        if not name.endswith(".csv"):
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)["data"]
            for leaf, val in _flatten(data):
                if isinstance(val, float) and not math.isfinite(val):
                    raise ValueError("%s: %s is not finite" % (name, leaf))
            files[name] = {"data": data}
            continue
        header, body = _read_csv(path)
        columns = {}
        for j, col in enumerate(header):
            cells = [row[j] for row in body]
            values = [_as_number(c) if c else math.nan for c in cells]
            if any(v is None for v in values):
                columns[col] = {"text": _text_digest(cells)}
                continue
            arr = np.array(values, dtype=np.float64)
            if np.isinf(arr).any() or np.isnan(arr).sum() != cells.count(""):
                raise ValueError("%s: column %s is not finite" % (name, col))
            columns[col] = {"array": len(arrays)}
            arrays.append(arr)
        files[name] = {"header": header, "rows": len(body),
                       "columns": columns}
    return files


def save_reference(path, jobs, arrays):
    buf = io.BytesIO()
    np.savez(buf, meta=np.array(json.dumps({"jobs": jobs}, sort_keys=True)),
             **{"a%d" % i: arr for i, arr in enumerate(arrays)})
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(lzma.compress(buf.getvalue(), preset=9))


def load_reference(path):
    """Per job, {data file: reference}, with column arrays resolved."""
    with np.load(io.BytesIO(lzma.decompress(path.read_bytes())),
                 allow_pickle=False) as z:
        jobs = json.loads(str(z["meta"]))["jobs"]
        for files in jobs:
            for ref in files.values():
                for col in ref.get("columns", {}).values():
                    if "array" in col:
                        col["array"] = z["a%d" % col["array"]]
    return jobs


# ----------------------------------------------------------------- checking

def _bad(values, ref, tol):
    if "max" in tol:
        return values > tol["max"]
    limit = np.maximum(tol.get("rel", 0.0) * np.abs(ref), tol.get("abs", 0.0))
    return np.abs(values - ref) > limit


def _tolerance(tolerances, name, key):
    spec = tolerances[name]
    return spec[key] if key in spec else spec["*"]


def _check_csv(path, name, ref, tolerances):
    header, body = _read_csv(path)
    if header != ref["header"]:
        return ["%s: header %s, reference %s" % (name, header, ref["header"])]
    if len(body) != ref["rows"]:
        return ["%s: %d rows, reference %d" % (name, len(body), ref["rows"])]
    if any(len(row) != len(header) for row in body):
        return ["%s: ragged rows" % name]
    problems = []
    columns = list(zip(*body)) if body else [()] * len(header)
    for col, cells in zip(header, columns):
        spec = ref["columns"][col]
        if "text" in spec:
            if _text_digest(cells) != spec["text"]:
                problems.append("%s: text column %s differs" % (name, col))
            continue
        want = spec["array"]
        out = np.array(cells, dtype=str)
        empty = out == ""
        if (empty != np.isnan(want)).any():
            problems.append("%s: empty cells of %s differ" % (name, col))
            continue
        want = want[~empty]
        try:
            got = out[~empty].astype(np.float64)
        except ValueError:
            problems.append("%s: non-numeric cell in %s" % (name, col))
            continue
        nonfinite = ~np.isfinite(got)
        if nonfinite.any():
            problems.append("%s: %d non-finite cells in %s"
                            % (name, int(nonfinite.sum()), col))
            continue
        bad = _bad(got, want, _tolerance(tolerances, name, col))
        if bad.any():
            i = int(np.argmax(bad))
            problems.append("%s: %d cells of %s out of tolerance, first %r "
                            "against %r" % (name, int(bad.sum()), col,
                                            float(got[i]), float(want[i])))
    return problems


def _check_json(path, name, ref, tolerances):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)["data"]
    got = dict(_flatten(data))
    want = dict(_flatten(ref["data"]))
    if set(got) != set(want):
        return ["%s: keys %s differ from the reference"
                % (name, sorted(set(got) ^ set(want)))]
    problems = []
    if name == "validate_report.json" and data.get("all_pass") is not True:
        problems.append("%s: all_pass is not true" % name)
    for leaf, w in want.items():
        g = got[leaf]
        numeric = (isinstance(w, (int, float)) and not isinstance(w, bool)
                   and isinstance(g, (int, float)) and not isinstance(g, bool))
        if not numeric:
            if g != w or type(g) is not type(w):
                problems.append("%s: %s is %r, reference %r"
                                % (name, leaf, g, w))
        elif not math.isfinite(g):
            problems.append("%s: %s is not finite" % (name, leaf))
        elif _bad(np.float64(g), np.float64(w),
                  _tolerance(tolerances, name, leaf)):
            problems.append("%s: %s is %r, reference %r"
                            % (name, leaf, g, w))
    return problems


def _check_manifest(path, name):
    try:
        with open(path + MANIFEST, encoding="utf-8") as fh:
            man = json.load(fh)
    except (OSError, ValueError) as exc:
        return ["%s: manifest unreadable (%s)" % (name, exc)]
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    if man.get("sha256") != digest or man.get("output") != name:
        return ["%s: manifest does not match the data file" % name]
    return []


def check_job(job_dir, ref_files, tolerances):
    """Problems found in one job's output directory; empty means correct."""
    if not os.path.isdir(job_dir):
        return ["no output directory"]
    written = _data_files(job_dir)
    problems = []
    if written != sorted(ref_files):
        problems.append("data files %s, reference %s"
                        % (written, sorted(ref_files)))
    for name in sorted(set(written) & set(ref_files)):
        path = os.path.join(job_dir, name)
        problems += _check_manifest(path, name)
        check = _check_csv if name.endswith(".csv") else _check_json
        try:
            problems += check(path, name, ref_files[name], tolerances)
        except (ValueError, IndexError, KeyError, TypeError) as exc:
            # an empty or malformed file fails the check, not the benchmark
            problems.append("%s: unreadable (%r)" % (name, exc))
    return problems


def reference_rows(ref_jobs):
    """Data rows the reference pass wrote to its CSV files."""
    return sum(ref.get("rows", 0) for files in ref_jobs
               for ref in files.values())
