"""Thinned statistics of every test function against their limits, as one CSV table.

For each built-in test function f with nonzero disk variance, runs
partial-fixed-K at K = 1, 2, 4 and partial-growing-K, at one size
and seed, and prints one row per run: the variance of the removed part
against its limit (K Var Re f(U) for fixed K, Var Re f(U) after the sqrt(K)
normalisation for growing K), the two-sample KS p-value against the limit
law, and the kind's --assert verdict.

Matrix seeds depend on the kind, base seed, n and replicate only, so every
run of one kind measures the same matrices: the first run solves them and
the later ones reuse its spectra.  The table costs one solve per matrix per
kind, not one per row.

    PYTHONPATH=src python scripts/thinned_table.py --n 256 --reps 500 > thinned.csv
"""

from __future__ import annotations

import argparse
import csv
import sys

from thinspec.experiments import KINDS, ExperimentConfig, run_experiment
from thinspec.stats import BUILTIN_FUNCTIONS, disk_moments

K_LIST = (1, 2, 4)
COLUMNS = ("kind", "f", "n", "k", "replicates", "removed_var", "target_var", "ks_p", "gate")

# Summary-row keys of the removed part's variance and its limit, per kind.
_VARIANCE_KEYS = {
    "partial-fixed-K": ("removed_var", "removed_var_target"),
    "partial-growing-K": ("removed_var_re", "target_var_re"),
}


def sweep(n: int, reps: int, seed: int) -> list:
    """The table's rows, the fixed-K runs first, then the growing-K runs."""
    f_ids = [f_id for f_id, f in BUILTIN_FUNCTIONS.items() if disk_moments(f).var_re > 0]
    base = dict(n_list=(n,), replicates=reps, base_seed=seed)
    configs = [ExperimentConfig(kind="partial-fixed-K", k=k, f_id=f_id, **base)
               for k in K_LIST for f_id in f_ids]
    configs += [ExperimentConfig(kind="partial-growing-K", f_id=f_id, **base) for f_id in f_ids]
    rows = []
    for config in configs:
        summary = run_experiment(config).summary
        row = summary["rows"][0]
        var_key, target_key = _VARIANCE_KEYS[config.kind]
        failures = KINDS[config.kind].gate(summary)
        rows.append((config.kind, config.f_id, n, row["k"], row["replicates"], row[var_key],
                     row[target_key], row["ks_p"], "; ".join(failures) or "pass"))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--n", type=int, default=256, help="matrix size (default 256)")
    parser.add_argument("--reps", type=int, default=500, help="replicates per run (default 500)")
    parser.add_argument("--seed", type=int, default=11, help="base seed (default 11)")
    args = parser.parse_args(argv)
    writer = csv.writer(sys.stdout)
    writer.writerow(COLUMNS)
    writer.writerows(sweep(args.n, args.reps, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
