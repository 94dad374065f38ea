"""The benchmark's workloads: which `omdp-sense` jobs one pass runs.

Each workload stresses a different pattern of layer use (see README.md).
A workload seed selects one of SHIPPED_SEEDS input sets, for which
reference outputs are recorded under refs/. The CLI receives only the
generated `--set` values. No seed changes a grid size or a row count, so
the work per pass stays fixed.
"""

import random

SHIPPED_SEEDS = 4

DEFAULT_VALIDATE_SEED = 20240817

# (key, default) pairs perturbed by up to PERTURBATION relative
PERTURBED_KEYS = (("kappa", 0.1), ("g", 0.03), ("delta_prime", 1.0))
PERTURBATION = 0.03

SUBCOMMANDS = ("spectrum", "sql-map", "sweep", "snr", "validate")


def shipped_seed(seed):
    """Map any workload seed onto the shipped input set it selects."""
    return int(seed) % SHIPPED_SEEDS


def _perturbed(k):
    rng = random.Random(k)
    out = []
    for key, default in PERTURBED_KEYS:
        factor = 1.0 + PERTURBATION * (2.0 * rng.random() - 1.0)
        out += ["--set", "%s=%.6g" % (key, default * factor)]
    return out


def _sql_refined(k):
    return [["sweep", "--set", "panel=a", "--set", "mode=sql",
             "--set", "grid=refined"] + _perturbed(k)]


def _spectrum_dense(k):
    return [["spectrum",
             "--set", "v_list=0,0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4",
             "--set", "base_points=20001"] + _perturbed(k)]


def _cli_defaults(k):
    jobs = [[name] for name in SUBCOMMANDS]
    jobs[-1] += ["--set", "seed=%d" % (DEFAULT_VALIDATE_SEED + k)]
    return jobs


# name -> (jobs of one pass for an input set, why it is in the benchmark)
WORKLOADS = {
    "sql_refined": (
        _sql_refined,
        "sweep mode=sql grid=refined: ~20k coupling optima through s_add, "
        "51 rows out; the SQL optimizer path, emission is negligible"),
    "spectrum_dense": (
        _spectrum_dense,
        "spectrum over 9 couplings at 20001 base points: 181k coefficient "
        "solves plus 201,477 CSV rows; kernel and bulk emission"),
    "cli_defaults": (
        _cli_defaults,
        "all five subcommands at defaults: the same layers called a point "
        "at a time, with module caches, sensing and validate"),
}


def jobs_for(workload, seed):
    """CLI argument lists (without --out) for one pass of a workload."""
    build, _ = WORKLOADS[workload]
    return build(shipped_seed(seed))
