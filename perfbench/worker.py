"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py SPEC_JSON

SPEC_JSON holds "jobs" (CLI argument lists), "out" (pass directory) and
"trace" (bool). The worker imports omdp_sense, notes when it is ready,
runs every job in-process through omdp_sense.cli.main, each with its own
output directory out/j<index>, and prints one JSON line with its timings.
A fresh process per pass keeps module-level caches cold, as in a user's run.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def peak_rss_kb():
    # VmHWM belongs to this process image alone; ru_maxrss can carry the
    # parent's peak over fork and exec
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main():
    spec = json.loads(sys.argv[1])
    import omdp_sense.cli as cli
    ready = time.perf_counter()

    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    jobs = []
    first = time.perf_counter()
    for i, argv in enumerate(spec["jobs"]):
        out = os.path.join(spec["out"], "j%d" % i)
        start = time.perf_counter()
        error = None
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv + ["--out", out])
        except Exception:
            # an uncaught error is a failed job, not a failed pass
            rc, error = None, traceback.format_exc()
        jobs.append({"rc": rc, "s": time.perf_counter() - start,
                     "error": error})
    last = time.perf_counter()

    result = {"ready": ready, "wall_s": last - first, "jobs": jobs,
              "peak_rss_kb": peak_rss_kb()}
    if tracer is not None:
        result["trace"] = tracer.report()
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
