"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_refs.py [--workload NAME]

Runs one pass of each workload for every shipped seed, in a fresh worker,
and stores its data files under refs/. Run it only at the commit whose
outputs are the reference; the check exists to hold later commits to them.
"""

import argparse
import shutil
import sys

import harness
import outcheck
from workloads import SHIPPED_SEEDS, WORKLOADS, jobs_for


def record(workload, k):
    jobs = jobs_for(workload, k)
    pass_dir = harness.OUT / "record" / ("%s-seed%d" % (workload, k))
    shutil.rmtree(pass_dir, ignore_errors=True)
    res = harness.run_pass(jobs, pass_dir)
    if "error" in res or any(job["rc"] != 0 for job in res["jobs"]):
        raise RuntimeError("%s seed %d failed: %s" % (workload, k, res))
    arrays = []
    refs = [outcheck.record_job(pass_dir / ("j%d" % i), arrays)
            for i in range(len(jobs))]
    path = outcheck.ref_path(workload, k)
    outcheck.save_reference(path, refs, arrays)
    # the recorded pass must pass its own check
    tolerances = outcheck.TOLERANCES[workload]
    for i, ref in enumerate(outcheck.load_reference(path)):
        problems = outcheck.check_job(pass_dir / ("j%d" % i), ref, tolerances)
        if problems:
            raise RuntimeError("%s seed %d: %s" % (workload, k, problems))
    shutil.rmtree(pass_dir)
    print("%s seed %d: %d bytes, %.1f s" % (workload, k, path.stat().st_size,
                                            res["wall_s"]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    for workload in [args.workload] if args.workload else sorted(WORKLOADS):
        for k in range(SHIPPED_SEEDS):
            record(workload, k)
    return 0


if __name__ == "__main__":
    sys.exit(main())
