"""Command-line interface.

Exit codes: 0 on success, 2 on configuration errors (unknown config keys
included), 3 when an --assert threshold fails (CI mode), 4 when more
replicates fail to solve than the skip budget allows.  The --assert
thresholds live in each kind's entry of `experiments.KINDS`.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .ensembles import AtomDistribution, DistributionError, atom_moments, sample_matrix
from .experiments import (
    KINDS,
    ConfigError,
    ExperimentConfig,
    SkipBudgetError,
    run_experiment,
    write_records_jsonl,
    write_summary_csv,
)
from .lattice import lattice, ring_and_slot
from .spectral import eigenvalues, spiral_sort
from .stats import FunctionLookupError, ginibre_variance, function_by_id

ENSEMBLE_CHOICES = ("complex-gaussian", "real-gaussian", "rademacher")


def _common_flags(parser):
    parser.add_argument("--config", help="JSON config file; flags override its fields")
    parser.add_argument("--seed", type=int, default=None, help="base seed (default 1)")
    parser.add_argument("--threads", type=int, default=None, help="worker processes (default 1)")
    parser.add_argument("--out", default=None, help="output path")


def _experiment_flags(parser):
    _common_flags(parser)
    parser.add_argument(
        "--ensemble", choices=ENSEMBLE_CHOICES, default=None,
        help="atom distribution (default complex-gaussian; custom via --config)",
    )
    parser.add_argument("--n-list", default=None, help="comma-separated sizes (default 256)")
    parser.add_argument("--f", dest="f_id", default=None, help="test function id (default re)")
    parser.add_argument("--summary", default=None, help="summary CSV path")
    parser.add_argument(
        "--assert",
        dest="assert_mode",
        action="store_true",
        help="apply CI thresholds; exit 3 on failure",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thinspec",
        description="Thinned eigenvalue statistics, spiral lattices, and W1 experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="emit one sampled matrix as CSV (i, j, re, im)")
    _common_flags(p)
    p.add_argument("--ensemble", choices=ENSEMBLE_CHOICES, default="complex-gaussian")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("spectrum", help="spiral-sorted scaled spectrum CSV (index, re, im)")
    _common_flags(p)
    p.add_argument("--ensemble", choices=ENSEMBLE_CHOICES, default="complex-gaussian")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("lattice", help="predicted locations CSV (i, re, im, ell, q)")
    _common_flags(p)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("wasserstein", help="W1 decay experiment; CSV (n, trial, w1, method, seed)")
    _experiment_flags(p)
    p.add_argument("--trials", type=int, default=None, help="trials per size (default 100)")
    p.add_argument("--method", choices=("sample", "lattice"), default=None,
                   help="disk-distance estimator (default sample)")
    p.add_argument("--w1-reps", type=int, default=None,
                   help="disk samples averaged per trial (default 1)")
    p.add_argument("--records", default=None, help="also write records JSONL here")

    p = sub.add_parser("partial-stats", help="thinned-statistic experiment (JSONL records)")
    _experiment_flags(p)
    p.add_argument("--k", type=int, default=None, help="fixed removal count (default 1)")
    p.add_argument("--growing", action="store_true",
                   help="use the growing-K rule max(1, floor(n^(1/4)/1.2))")
    p.add_argument("--reps", type=int, default=None, help="replicates (default 100)")

    p = sub.add_parser("full-clt", help="full linear-statistic variance experiment")
    _experiment_flags(p)
    p.add_argument("--reps", type=int, default=None, help="replicates (default 100)")

    p = sub.add_parser("local-law", help="per-cell count discrepancy vs independent Ginibre")
    _experiment_flags(p)
    p.add_argument("--trials", type=int, default=None, help="trials per size (default 100)")
    p.add_argument("--bound", type=float, default=None, help="grid half-side C (default 1.25)")

    p = sub.add_parser("thinning-bound", help="exhaustive removal-overlap bound check")
    _experiment_flags(p)
    p.add_argument("--n-max", type=int, default=None, help="largest population scanned (default 60)")

    p = sub.add_parser("variance", help="print the limiting variance and its terms")
    _common_flags(p)
    p.add_argument("--f", dest="f_id", default="re")
    p.add_argument("--atom", choices=ENSEMBLE_CHOICES, default="complex-gaussian")

    return parser


def _load_config_dict(args, kind: str) -> dict:
    base = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as handle:
            base = json.load(handle)
        if not isinstance(base, dict):
            raise ConfigError("config file must hold a JSON object")
    base["kind"] = base.get("kind", kind)
    if base["kind"] != kind:
        raise ConfigError(f"config kind {base['kind']!r} does not match subcommand {kind!r}")
    reps = getattr(args, "reps", None)  # a 0 is kept, so it fails validation
    overrides = {
        "ensemble": {"kind": args.ensemble} if getattr(args, "ensemble", None) else None,
        "n_list": [int(x) for x in args.n_list.split(",")] if getattr(args, "n_list", None) else None,
        "f": getattr(args, "f_id", None),
        "base_seed": getattr(args, "seed", None),
        "threads": getattr(args, "threads", None),
        "k": getattr(args, "k", None),
        "replicates": reps if reps is not None else getattr(args, "trials", None),
        "method": getattr(args, "method", None),
        "w1_reps": getattr(args, "w1_reps", None),
        "grid_bound": getattr(args, "bound", None),
        "n_max": getattr(args, "n_max", None),
    }
    for key, value in overrides.items():
        if value is not None:
            base[key] = value
    return base


def _write_csv(path, fieldnames, rows):
    handle = open(path, "w", newline="", encoding="utf-8") if path else sys.stdout
    try:
        writer = csv.writer(handle)
        writer.writerow(fieldnames)
        writer.writerows(rows)
    finally:
        if path:
            handle.close()


def _cmd_sample(args) -> int:
    dist = AtomDistribution(args.ensemble)
    matrix = sample_matrix(dist, args.n, args.seed if args.seed is not None else 1)
    rows = [
        (i, j, repr(float(matrix.entries[i, j].real)), repr(float(matrix.entries[i, j].imag)))
        for i in range(args.n)
        for j in range(args.n)
    ]
    _write_csv(args.out, ("i", "j", "re", "im"), rows)
    return 0


def _cmd_spectrum(args) -> int:
    dist = AtomDistribution(args.ensemble)
    matrix = sample_matrix(dist, args.n, args.seed if args.seed is not None else 1)
    spectrum = spiral_sort(eigenvalues(matrix, scale=True))
    rows = [
        (idx, repr(float(z.real)), repr(float(z.imag)))
        for idx, z in enumerate(spectrum.values, start=1)
    ]
    _write_csv(args.out, ("index", "re", "im"), rows)
    return 0


def _cmd_lattice(args) -> int:
    grid = lattice(args.n)
    rows = []
    for idx, z in enumerate(grid.points, start=1):
        ring, slot = ring_and_slot(idx)
        rows.append((idx, repr(float(z.real)), repr(float(z.imag)), ring, slot))
    _write_csv(args.out, ("i", "re", "im", "ell", "q"), rows)
    return 0


def _cmd_variance(args) -> int:
    f = function_by_id(args.f_id)
    dist = AtomDistribution(args.atom)
    result = ginibre_variance(f, atom_moments(dist), real_atom=dist.is_real)
    print(f"f={args.f_id} atom={args.atom}")
    print(f"sigma2={result.sigma2:.12g}")
    print(f"gradient_term={result.gradient_term:.12g}")
    print(f"fourier_term={result.fourier_term:.12g}")
    print(f"fourth_moment_term={result.fourth_moment_term:.12g}")
    if result.warning:
        print(f"warning: {result.warning}", file=sys.stderr)
    return 0


def _cmd_experiment(args, kind: str) -> int:
    config = ExperimentConfig.from_dict(_load_config_dict(args, kind))
    result = run_experiment(config)

    if kind == "wasserstein-decay":
        rows = [
            (r["n"], r["replicate"], repr(float(r["w1"])), r["method"], r["seed_matrix"])
            for r in result.records
        ]
        _write_csv(args.out, ("n", "trial", "w1", "method", "seed"), rows)
        if getattr(args, "records", None):
            write_records_jsonl(args.records, result)
    elif args.out:
        write_records_jsonl(args.out, result)
    else:
        print(json.dumps(result.summary, sort_keys=True, default=str, indent=2))
    if getattr(args, "summary", None):
        write_summary_csv(args.summary, result)

    if getattr(args, "assert_mode", False):
        failures = KINDS[kind].gate(result.summary)
        if failures:
            for failure in failures:
                print(f"ASSERT FAIL: {failure}", file=sys.stderr)
            return 3
        print("ASSERT PASS", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command
    try:
        if command == "sample":
            return _cmd_sample(args)
        if command == "spectrum":
            return _cmd_spectrum(args)
        if command == "lattice":
            return _cmd_lattice(args)
        if command == "variance":
            return _cmd_variance(args)
        kind_by_command = {
            "wasserstein": "wasserstein-decay",
            "partial-stats": "partial-growing-K" if getattr(args, "growing", False) else "partial-fixed-K",
            "full-clt": "full-clt",
            "local-law": "local-law-cells",
            "thinning-bound": "thinning-bound",
        }
        return _cmd_experiment(args, kind_by_command[command])
    except (ConfigError, DistributionError, FunctionLookupError, ValueError, OSError,
            SkipBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4 if isinstance(exc, SkipBudgetError) else 2


if __name__ == "__main__":
    sys.exit(main())
