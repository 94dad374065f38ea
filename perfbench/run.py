"""omdp-sense benchmark. From the repository root:

    python3 perfbench/run.py --workload sql_refined --seed 1 \
        --seconds 40 --trace 0

Each pass runs the workload's CLI jobs in one fresh worker process
(worker.py) and is checked against the recorded references (outcheck.py).
Passes repeat, one at a time, for about --seconds seconds. With --trace 0
the passes are untraced and the end-to-end metrics are reported; with
--trace 1 untraced and traced passes alternate and the per-layer metrics
(tracing.py) are reported, with the tracing overhead. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Full results, and the trace of a traced run, go to .perfbench_out/.
"""

import argparse
import json
import shutil
import statistics
import sys
import time

import harness
import outcheck
import tracing
from workloads import WORKLOADS, jobs_for, shipped_seed

SETUP_PROBES = 7

END_TO_END_UNITS = {"wall_s": "s", "rows_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def _median(values):
    return statistics.median(values) if values else float("nan")


def _tail(values):
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n <= 20:
        return "too few samples for a tail percentile"
    pct = 100.0 * (n - 10) / n
    return "p%.0f %.6g" % (pct, sorted(values)[n - 11])


def _spread(values):
    if len(values) < 2:
        return "n=%d" % len(values)
    q = statistics.quantiles(values, n=4)
    return "n=%d, quartiles %.6g .. %.6g" % (len(values), q[0], q[2])


def _run_passes(workload, seed, seconds, trace, run_dir):
    jobs = jobs_for(workload, seed)
    ref_jobs = outcheck.load_reference(
        outcheck.ref_path(workload, shipped_seed(seed)))
    tolerances = outcheck.TOLERANCES[workload]
    passes, problems, setup = [], [], []
    start = time.perf_counter()
    for _ in range(SETUP_PROBES):
        probe = harness.run_pass([], run_dir / "probe")
        if "error" in probe:
            problems.append("set-up probe: %s" % probe["error"])
        else:
            setup.append(probe["setup_s"])
    durations = []
    while True:
        traced = trace and len(passes) % 2 == 1
        pass_dir = run_dir / ("pass%d" % len(passes))
        t0 = time.perf_counter()
        res = harness.run_pass(jobs, pass_dir, trace=traced)
        res["traced"] = traced
        res["failed"] = 0
        if "error" in res:
            res["failed"] = len(jobs)
            problems.append("pass %d: %s" % (len(passes), res["error"]))
        else:
            setup.append(res["setup_s"])
            for i, (job, ref) in enumerate(zip(res["jobs"], ref_jobs)):
                found = ([] if job["rc"] == 0 else
                         ["exit %r %s" % (job["rc"],
                                          job["error"] or res["stderr"])])
                found += outcheck.check_job(pass_dir / ("j%d" % i), ref,
                                            tolerances)
                if found:
                    res["failed"] += 1
                    problems += ["pass %d job %d: %s" % (len(passes), i, p)
                                 for p in found]
        shutil.rmtree(pass_dir, ignore_errors=True)
        passes.append(res)
        durations.append(time.perf_counter() - t0)
        # in a traced run a step is one untraced and one traced pass
        step = 2 if trace else 1
        if len(passes) % step:
            continue
        # stop at the step boundary nearest the deadline, so that a long
        # workload is not cut to two passes when a third nearly fits
        per_step = statistics.median(durations) * step
        if time.perf_counter() - start + per_step / 2 > seconds:
            break
    return jobs, ref_jobs, setup, passes, problems


def _per_layer(traced, walls, problems):
    layer = [tracing.layer_metrics(p["trace"]) for p in traced]
    counts = set(tracing.count_metrics())
    metrics = {}
    for name, unit in tracing.PER_LAYER:
        values = [m[name] for m in layer]
        if name in counts and len(set(values)) > 1:
            problems.append("count %s differs between passes: %s"
                            % (name, values))
            print("FAILED " + problems[-1])
        metrics[name] = {"value": _median(values), "unit": unit}
    traced_wall = [p["wall_s"] for p in traced]
    metrics["trace.overhead_s"] = {
        "value": _median(traced_wall) - _median(walls), "unit": "s"}
    print("trace.overhead_s: traced wall_s %s minus untraced %s"
          % (_spread(traced_wall), _spread(walls)))
    return metrics


def _end_to_end(plain, walls, setup, rows):
    wall = _median(walls)
    rss = [p["peak_rss_kb"] / 1024.0 for p in plain]
    print("wall_s: median %.6g s, %s, %s" % (wall, _spread(walls),
                                             _tail(walls)))
    print("rows_per_s: %d rows / median wall_s" % rows)
    print("setup_s: median %.6g s, %s" % (_median(setup), _spread(setup)))
    print("peak_rss_mb: median %.6g MB, %s" % (_median(rss), _spread(rss)))
    values = {"wall_s": wall, "rows_per_s": rows / wall,
              "setup_s": _median(setup), "peak_rss_mb": _median(rss)}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not harness.package_present():
        print("perfbench: %s/omdp_sense not found; run from a checkout of "
              "the repository" % harness.SRC, file=sys.stderr)
        return 2

    run_dir = harness.OUT / ("%s-seed%d-trace%d" % (args.workload, args.seed,
                                                   args.trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    harness.OUT.mkdir(parents=True, exist_ok=True)
    jobs, ref_jobs, setup, passes, problems = _run_passes(
        args.workload, args.seed, args.seconds, bool(args.trace), run_dir)

    good = [p for p in passes if not p["failed"]]
    plain = [p for p in good if not p["traced"]]
    attempted = len(jobs) * len(passes)
    failed = sum(p["failed"] for p in passes)
    rows = outcheck.reference_rows(ref_jobs)
    env = harness.env_info()
    print("perfbench %s seed %d (input set %d), %d jobs a pass, %d data rows "
          "a pass, trace %d" % (args.workload, args.seed,
                                shipped_seed(args.seed), len(jobs), rows,
                                args.trace))
    print("env " + json.dumps(env, sort_keys=True))
    for p in problems[:20]:
        print("FAILED " + p)

    walls = [p["wall_s"] for p in plain]
    if args.trace:
        traced = [p for p in good if p["traced"]]
        metrics = _per_layer(traced, walls, problems)
        if traced:
            with open(run_dir.with_suffix(".trace.json"), "w") as fh:
                json.dump(traced[-1]["trace"], fh)
    else:
        metrics = _end_to_end(plain, walls, setup, rows)
    print("failed_ops: %d of %d jobs (%.4g)" % (failed, attempted,
                                                failed / attempted))
    for name, m in metrics.items():
        print("%s = %.6g %s" % (name, m["value"], m["unit"]))

    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(run_dir.with_suffix(".result.json"), "w") as fh:
        json.dump({"args": vars(args), "env": env, "result": result,
                   "problems": problems, "setup_s": setup,
                   "passes": [{k: v for k, v in p.items() if k != "trace"}
                              for p in passes]}, fh, indent=1)
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
