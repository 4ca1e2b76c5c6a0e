"""The benchmark's workloads: thinspec pipelines run serially from one seed.

Each workload function takes the sizes and a base seed, calls thinspec
through its module attributes (so an installed `Tracer` sees the calls) and
returns an `Outcome`: the records the pipelines produced, how many they were
meant to produce, and any error a pipeline raised.  Output checks live in
`checks.py` and run outside the timed region.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from thinspec import cli, experiments, stats, transport
from thinspec.ensembles import AtomDistribution, atom_moments

# Functions swept at one base seed in thinned-n256.  Matrix seeds do not
# depend on f, so each swept matrix is solved once per function.
SWEEP = ("re", "abs2", "repow_3")


@dataclass(frozen=True)
class Sizes:
    n: int = 256  # thinned-statistic size; small wasserstein size
    n_large: int = 1024
    replicates: int = 10  # per thinned-n256 pipeline
    n_max: int = 120  # thinning-bound scan; its memory is cubic in n_max
    pairs: tuple = ((64, 16), (256, 8), (1024, 4))  # (n, point-set pairs)


FULL = Sizes()


@dataclass
class Outcome:
    """What one run of a workload produced.

    `records` are counted for records_per_s (replicate rows, scan rows,
    coupling pairs); `values` are other checked outputs.  `planned` is the
    number of records and values the pipelines were asked for.
    """

    records: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    planned: int = 0
    replicates_attempted: int = 0
    replicates_skipped: int = 0
    errors: list = field(default_factory=list)

    @property
    def record_count(self) -> int:
        return sum(len(rows) for rows in self.records.values())

    @property
    def produced(self) -> int:
        return self.record_count + sum(len(rows) for rows in self.values.values())


def _collect(out: Outcome, into: dict, name: str, planned: int, produce):
    """Store `produce()`'s rows under `name`; a raised error fails all `planned`."""
    out.planned += planned
    try:
        into[name] = produce()
    except Exception as exc:  # a failing pipeline is counted, not fatal
        out.errors.append(f"{name}: {type(exc).__name__}: {exc}")


def _experiment(out: Outcome, name: str, config):
    planned = config.replicates * len(config.n_list)

    def produce():
        result = experiments.run_experiment(config)
        experiments.records_jsonl(result)  # emission is part of config -> records
        out.replicates_skipped += planned - len(result.records)
        return result.records

    out.replicates_attempted += planned
    _collect(out, out.records, name, planned, produce)


def thinned_n256(sizes: Sizes, seed: int, workdir: Path) -> Outcome:
    out = Outcome()
    for f_id in SWEEP:
        _experiment(out, f"partial-fixed-K/{f_id}", experiments.ExperimentConfig(
            kind="partial-fixed-K", n_list=(sizes.n,), k=1, f_id=f_id,
            replicates=sizes.replicates, base_seed=seed,
        ))
    _experiment(out, "partial-growing-K", experiments.ExperimentConfig(
        kind="partial-growing-K", n_list=(sizes.n,), replicates=sizes.replicates,
        base_seed=seed,
    ))
    return out


def large_n1024(sizes: Sizes, seed: int, workdir: Path) -> Outcome:
    out = Outcome()
    _experiment(out, "local-law-cells", experiments.ExperimentConfig(
        kind="local-law-cells", ensemble=AtomDistribution("rademacher"),
        n_list=(sizes.n_large,), replicates=1, base_seed=seed,
    ))
    _experiment(out, "wasserstein-decay", experiments.ExperimentConfig(
        kind="wasserstein-decay", n_list=(sizes.n, sizes.n_large), replicates=1,
        base_seed=seed, method="sample",
    ))
    return out


def disk_pair(seed: int, n: int, pair: int):
    """Two seeded sets of n uniform points on the closed unit disk."""
    rng = np.random.default_rng([seed, n, pair])
    points = np.sqrt(rng.random((2, n))) * np.exp(2j * np.pi * rng.random((2, n)))
    return points[0], points[1]


def no_solve(sizes: Sizes, seed: int, workdir: Path) -> Outcome:
    out = Outcome()
    path = Path(workdir) / "thinning-bound.jsonl"

    def thinning():
        argv = ["thinning-bound", "--n-max", str(sizes.n_max), "--out", str(path), "--assert"]
        out.values["thinning-bound-exit"] = [{"exit": cli.main(argv)}]
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        return [json.loads(line) for line in lines]

    out.planned += 1  # the exit code
    _collect(out, out.records, "thinning-bound", sizes.n_max, thinning)

    for n, count in sizes.pairs:
        def couplings(n=n, count=count):
            rows = []
            grid = transport.default_grid(n)
            for pair in range(count):
                a, b = disk_pair(seed, n, pair)
                coupled = transport.grid_pairing(a, b, grid)
                rows.append({
                    "n": n, "pair": pair, "grid": coupled.value,
                    "bad_count": coupled.bad_count, "exact": transport.w1_exact(a, b).value,
                })
            return rows

        _collect(out, out.records, f"coupling/n={n}", count, couplings)

    n_lattice = max(n for n, _ in sizes.pairs)
    _collect(out, out.values, "w1-to-lattice", 1, lambda: [{
        "n": n_lattice,
        "w1": transport.w1_to_disk(disk_pair(seed, n_lattice, 0)[0], method="lattice"),
    }])

    def moments():
        atom = atom_moments(AtomDistribution("complex-gaussian"))
        rows = []
        for f_id in sorted(stats.BUILTIN_FUNCTIONS):
            f = stats.function_by_id(f_id)
            m = stats.disk_moments(f)
            v = stats.ginibre_variance(f, atom, real_atom=False)
            rows.append({
                "f": f_id, "mean_re": m.mean_f.real, "mean_im": m.mean_f.imag,
                "var_re": m.var_re, "var_im": m.var_im, "cov": m.cov, "err": m.err,
                "sigma2": v.sigma2, "gradient_term": v.gradient_term,
                "fourier_term": v.fourier_term, "fourth_moment_term": v.fourth_moment_term,
            })
        return rows

    _collect(out, out.values, "moments", len(stats.BUILTIN_FUNCTIONS), moments)
    return out


WORKLOADS = {
    "thinned-n256": thinned_n256,
    "large-n1024": large_n1024,
    "no-solve": no_solve,
}
