"""Spawning benchmark workers and describing the machine they ran on."""

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKER = BENCH_DIR / "worker.py"

PASS_TIMEOUT_S = 120

# one thread per BLAS/OpenMP runtime, whichever numpy was built with
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def package_present():
    return (SRC / "omdp_sense" / "__init__.py").is_file()


def worker_env():
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(jobs, out_dir, trace=False):
    """Run one pass in a fresh worker and return its timings.

    setup_s runs from just before the worker is spawned until it has
    imported omdp_sense. On a crash or timeout the result carries "error"
    and no timings.
    """
    spec = json.dumps({"jobs": jobs, "out": str(out_dir), "trace": trace})
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), spec],
                              cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": "worker exceeded %d s" % PASS_TIMEOUT_S}
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": "worker exited %d: %s"
                % (proc.returncode, proc.stderr.strip()[-2000:])}
    result = json.loads(lines[-1])
    result["setup_s"] = result.pop("ready") - start
    result["stderr"] = proc.stderr.strip()[-2000:]
    return result


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    # read the files directly: the checkout may not be a git repository
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def env_info():
    """What every result is recorded next to."""
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "cpu": _cpu_model(),
            "commit": _git_commit(), "source_sha256": _source_digest(),
            "worker_threads": {name: "1" for name in THREAD_VARS}}
