"""Command-line interface.

Each flag is defined once, in `_FLAGS`, and each subcommand registers only
the flags it reads (`_COMMANDS`, tabled in the README); any other flag is a
usage error.  An experiment flag's argparse dest is its config-file key, so
the flags given override those fields of `--config`.

Exit codes: 0 on success, 2 on usage and configuration errors (unknown
config keys included), 3 when an --assert threshold fails (CI mode), 4 when
more replicates fail to solve than the skip budget allows; any other error
is a fault and propagates.  The --assert thresholds live in `experiments.KINDS`.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import nullcontext

from .ensembles import (
    BUILTIN_KINDS, AtomDistribution, DistributionError, atom_moments, sample_matrix,
)
from .experiments import (
    CONFIG_FIELDS,
    KINDS,
    MAX_N,
    ConfigError,
    ExperimentConfig,
    SkipBudgetError,
    run_experiment,
    write_records_jsonl,
    write_summary_csv,
)
from .lattice import MIN_N, lattice, ring_and_slot
from .spectral import eigenvalues, spiral_sort
from .stats import FunctionLookupError, ginibre_variance, function_by_id
from .transport import W1_METHODS


def _int_list(text: str) -> list:
    return [int(x) for x in text.split(",")]


# Every flag once.  A default of None leaves the config file's value (or the
# config default) in place; subcommands set their own defaults otherwise.
_FLAGS = {
    "--config": dict(help="JSON config file; flags override its fields"),
    "--seed": dict(dest="base_seed", metavar="SEED", type=int, help="base seed (default 1)"),
    "--threads": dict(type=int, help="worker processes; 0 is one per usable core (default 0)"),
    "--out": dict(help="output path"),
    "--ensemble": dict(choices=BUILTIN_KINDS, help="atom distribution (default complex-gaussian)"),
    "--n": dict(type=int, required=True),
    "--n-list": dict(type=_int_list, help="comma-separated sizes (default 256)"),
    "--f": dict(help="test function id (default re)"),
    "--summary": dict(help="summary CSV path"),
    "--assert": dict(dest="assert_mode", action="store_true",
                     help="apply CI thresholds; exit 3 on failure"),
    "--trials": dict(dest="replicates", metavar="TRIALS", type=int,
                     help="trials per size (default 100)"),
    "--reps": dict(dest="replicates", metavar="REPS", type=int, help="replicates (default 100)"),
    "--method": dict(choices=W1_METHODS, help="disk-distance estimator (default sample)"),
    "--w1-reps": dict(type=int, help="disk samples averaged per trial (default 1)"),
    "--records": dict(help="also write records JSONL here"),
    "--k": dict(type=int, help="fixed removal count (default 1)"),
    "--growing": dict(dest="kind", action="store_const", const="partial-growing-K",
                      help="use the growing-K rule max(1, floor(n^(1/4)/1.2))"),
    "--bound": dict(dest="grid_bound", metavar="BOUND", type=float,
                    help="grid half-side C (default 1.25)"),
    "--n-max": dict(type=int, help="largest population scanned (default 60)"),
    "--atom": dict(choices=BUILTIN_KINDS, default="complex-gaussian"),
}


def _config_dict(args) -> dict:
    """The --config file's fields, overridden by every config flag given."""
    config = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            try:
                config = json.load(handle)
            except ValueError as exc:  # not UTF-8, or not JSON
                raise ConfigError(f"config file {args.config} is not UTF-8 JSON: {exc}") from exc
        if not isinstance(config, dict):
            raise ConfigError("config file must hold a JSON object")
    config.setdefault("kind", args.kind)
    if config["kind"] != args.kind:
        raise ConfigError(f"config kind {config['kind']!r} does not match subcommand {args.kind!r}")
    for key, value in vars(args).items():
        if key in CONFIG_FIELDS and value is not None:
            config[key] = {"kind": value} if key == "ensemble" else value
    return config


def _write_csv(path, fieldnames, rows):
    target = open(path, "w", newline="", encoding="utf-8") if path else nullcontext(sys.stdout)
    with target as handle:
        writer = csv.writer(handle)
        writer.writerow(fieldnames)
        writer.writerows(rows)


def _size(args, least: int = 1) -> int:
    """`--n`, which must lie in least..MAX_N; outside it is a ConfigError."""
    if not least <= args.n <= MAX_N:
        raise ConfigError(f"{args.command} needs {least} <= --n <= {MAX_N}, got {args.n}")
    return args.n


def _sampled_matrix(args):
    """The matrix of `--ensemble`, `--n` and `--seed`; a bad size or seed is a ConfigError."""
    if not 0 <= args.base_seed < 2 ** 128:
        raise ConfigError(f"{args.command} needs 0 <= --seed < 2**128, got {args.base_seed}")
    return sample_matrix(AtomDistribution(args.ensemble), _size(args), args.base_seed)


def _cmd_sample(args) -> int:
    entries = _sampled_matrix(args).entries
    rows = (  # a generator: the n^2 rows are written as they are made
        (i, j, repr(re), repr(im))
        for i, row in enumerate(entries)
        for j, (re, im) in enumerate(zip(row.real.tolist(), row.imag.tolist()))
    )
    _write_csv(args.out, ("i", "j", "re", "im"), rows)
    return 0


def _cmd_spectrum(args) -> int:
    spectrum = spiral_sort(eigenvalues(_sampled_matrix(args), scale=True))
    rows = (
        (idx, repr(float(z.real)), repr(float(z.imag)))
        for idx, z in enumerate(spectrum.values, start=1)
    )
    _write_csv(args.out, ("index", "re", "im"), rows)
    return 0


def _cmd_lattice(args) -> int:
    grid = lattice(_size(args, MIN_N))
    rows = (
        (idx, repr(float(z.real)), repr(float(z.imag)), *ring_and_slot(idx))
        for idx, z in enumerate(grid.points, start=1)
    )
    _write_csv(args.out, ("i", "re", "im", "ell", "q"), rows)
    return 0


def _cmd_variance(args) -> int:
    dist = AtomDistribution(args.atom)
    result = ginibre_variance(function_by_id(args.f), atom_moments(dist), real_atom=dist.is_real)
    print(f"f={args.f} atom={args.atom}")
    for term in ("sigma2", "gradient_term", "fourier_term", "fourth_moment_term"):
        print(f"{term}={getattr(result, term):.12g}")
    if result.warning:
        print(f"warning: {result.warning}", file=sys.stderr)
    return 0


def _cmd_experiment(args) -> int:
    result = run_experiment(ExperimentConfig.from_dict(_config_dict(args)))

    if args.kind == "wasserstein-decay":
        rows = [
            (r["n"], r["replicate"], repr(float(r["w1"])), r["method"], r["seed_matrix"])
            for r in result.records
        ]
        _write_csv(args.out, ("n", "trial", "w1", "method", "seed"), rows)
        if args.records:
            write_records_jsonl(args.records, result)
    elif args.out:
        write_records_jsonl(args.out, result)
    else:
        print(json.dumps(result.summary, sort_keys=True, default=str, indent=2))
    if args.summary:
        write_summary_csv(args.summary, result)

    if args.assert_mode:
        failures = KINDS[args.kind].gate(result.summary)
        if failures:
            for failure in failures:
                print(f"ASSERT FAIL: {failure}", file=sys.stderr)
            return 3
        print("ASSERT PASS", file=sys.stderr)
    return 0


_MATRIX = ("--ensemble", "--n", "--seed", "--out")
_EXPERIMENT = ("--config", "--seed", "--threads", "--out", "--ensemble", "--n-list",
               "--summary", "--assert")

# Subcommand: help, flags and parser defaults: `run` (default `_cmd_experiment`),
# an experiment's config `kind`, and the subcommand's own flag defaults.
_COMMANDS = {
    "sample": ("emit one sampled matrix as CSV (i, j, re, im)", _MATRIX,
               dict(run=_cmd_sample, ensemble="complex-gaussian", base_seed=1)),
    "spectrum": ("spiral-sorted scaled spectrum CSV (index, re, im)", _MATRIX,
                 dict(run=_cmd_spectrum, ensemble="complex-gaussian", base_seed=1)),
    "lattice": ("predicted locations CSV (i, re, im, ell, q)", ("--n", "--out"),
                dict(run=_cmd_lattice)),
    "wasserstein": ("W1 decay experiment; CSV (n, trial, w1, method, seed)",
                    _EXPERIMENT + ("--trials", "--method", "--w1-reps", "--records"),
                    dict(kind="wasserstein-decay")),
    "partial-stats": ("thinned-statistic experiment (JSONL records)",
                      _EXPERIMENT + ("--f", "--k", "--growing", "--reps"),
                      dict(kind="partial-fixed-K")),
    "full-clt": ("full linear-statistic variance experiment", _EXPERIMENT + ("--f", "--reps"),
                 dict(kind="full-clt")),
    "local-law": ("per-cell count discrepancy vs independent Ginibre",
                  _EXPERIMENT + ("--trials", "--bound"), dict(kind="local-law-cells")),
    "thinning-bound": ("exhaustive removal-overlap bound check",
                       ("--config", "--out", "--summary", "--assert", "--n-max"),
                       dict(kind="thinning-bound")),
    "variance": ("print the limiting variance and its terms", ("--f", "--atom"),
                 dict(run=_cmd_variance, f="re")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thinspec",
        description="Thinned eigenvalue statistics, spiral lattices, and W1 experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, defaults) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(**{"run": _cmd_experiment, **defaults})
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ConfigError, DistributionError, FunctionLookupError, OSError,
            SkipBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4 if isinstance(exc, SkipBudgetError) else 2


if __name__ == "__main__":
    sys.exit(main())
