"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workloads sql_refined,cli_defaults \
        --seeds 1-10 [--seconds 30] [--trace 0] [--json summary.json]

For every workload and metric it prints the median of the per-run values,
their quartiles, and the quartile distance as a share of the median, next
to the metric's bound from BENCHMARK.json. A spread above a third of the
bound is flagged: the run is not steady enough to judge that bound.
"""

import argparse
import json
import statistics
import subprocess
import sys

import harness


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None):
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write the summary to this file")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary = {"env": harness.env_info(), "seconds": args.seconds,
               "trace": args.trace, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(harness.BENCH_DIR / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=harness.ROOT, capture_output=True, text=True, timeout=600)
            result = json.loads(proc.stdout.splitlines()[-1])
            runs.append(result)
            print("%s seed %d: correct %s, failed %d of %d, %s" % (
                workload, seed, result["correct"], result["failed"],
                result["attempted"], ", ".join(
                    "%s %.6g" % (k, v["value"])
                    for k, v in result["metrics"].items()
                    if k in bounds or k == "trace.overhead_s")), flush=True)
        metrics = {}
        for name, m in runs[0]["metrics"].items():
            s = summarize([r["metrics"][name]["value"] for r in runs])
            s["unit"] = m["unit"]
            metrics[name] = s
            bound = bounds.get(name)
            if bound is not None:
                flag = "  <-- above bound/3" if s["spread"] > bound / 3 else ""
                print("  %-12s median %.6g %s, quartiles %.6g .. %.6g, "
                      "spread %.4f (bound %.2f)%s" % (
                          name, s["median"], s["unit"], s["q1"], s["q3"],
                          s["spread"], bound, flag), flush=True)
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics}
        print("  failed_ops   %(failed)d of %(attempted)d jobs, "
              "correct %(correct)s" % summary["workloads"][workload],
              flush=True)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
