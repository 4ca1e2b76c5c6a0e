"""Seeded, persisted experiment pipelines and their result emission.

Each pipeline draws all randomness from seeds derived per replicate and per
stream (matrix draws and index-set draws are separate streams), and every
solve runs on one BLAS thread, so re-runs are byte-identical regardless of
how many workers execute the replicates or how many threads BLAS may use.
`threads` workers solve a run's replicates side by side, one process each
and one pool for all sizes; 0 (the default) means one per usable core.  A run
with too little solve work for a process pool to pay off runs serially.  When
a run has fewer replicates to solve than workers, each solve is a task of its
own, so a replicate's matrices are solved side by side.

Every kind runs the same path: `_solve` samples each matrix and solves it
scaled, and `_measured` hands a replicate's spectra to the kind's `measure`.
A replicate is measured where it is solved, by `_replicate` in a pool worker
or in this process.  Spectra read from the memo, or solved as tasks of their
own, arrive here without a record, as one stream in run order, and only they
are measured apart from their solves.  The runner summarizes the records per
size.  `KINDS` holds each kind's seed streams, `measure`, `summarize` and
`--assert` gate.

Matrix seeds do not depend on what is measured, so the spectra of the most
recent run are kept in `_SPECTRA`: a run with the same kind, base seed,
ensemble, sizes and replicate count draws the same matrices, whatever its f,
K or method, and reads them instead of solving again, with the same records.
Any other run solves every matrix and replaces them.

The local-law grid's half-side is fixed at 1.25 (`default_grid`), and the
`sample` W1 method matches against one uniform-disk sample per trial.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
import multiprocessing
import os
import sys
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from itertools import islice
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import gammaln

from .ensembles import AtomDistribution, DistributionError, atom_moments, sample_matrix
from .lattice import MIN_N
from .seeding import derive_seed64
from .spectral import EigensolverError, eigenvalues, pin_blas_to_one_thread, spectral_radius
from .stats import (
    BUILTIN_FUNCTIONS,
    disk_moments,
    ginibre_variance,
    ks_two_sample,
    limit_sampler_fixed_K,
    linear_statistic,
    partial_statistic,
    sample_index_set,
    function_by_id,
)
from .transport import DEFAULT_EXACT_CAP, W1_METHODS, cell_counts, default_grid, w1_to_disk

log = logging.getLogger(__name__)

# At most this fraction of replicates may be skipped due to solver failures.
MAX_SKIP_FRACTION = 0.01

# Caps that keep memory bounded for any accepted config: matrix sizes (the
# exact-W1 cap; a complex sample at the cap draws 2n^2 float64 normals,
# 256 MiB), replicates times distinct sizes (a run holds every replicate's
# arguments and record, up to about 2 KiB each), and worker processes (a
# forked pool starts all its workers at once).  thinning-bound's n_max stops
# where every feasible pmf and binomial is still a normal double, which the
# scan's filter needs (`_thinning_scan_for_n`).
MAX_N = DEFAULT_EXACT_CAP
MAX_RUN_REPLICATES = 1 << 17
MAX_THREADS = 256
_SCAN_NORMAL_N = 1021

# The growing-K rule: K = max(1, floor(n^(1/4) / _K_DIVISOR)) unless `k` sets K.
_K_DIVISOR = 1.2


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


# By field annotation: what a config value must be, in words and as a test (a
# bool is no number), and its conversion to the stored field.
_FIELD_TYPES = {
    "str": ("a string", lambda v: isinstance(v, str), str),
    "int": ("an integer", _is_integer, int),
    "int | None": ("an integer or null", lambda v: v is None or _is_integer(v),
                   lambda v: v if v is None else int(v)),
    "bool": ("a boolean", lambda v: isinstance(v, bool), bool),
    "tuple": ("a list of integers",
              lambda v: isinstance(v, (list, tuple)) and all(map(_is_integer, v)),
              lambda v: tuple(map(int, v))),
    "AtomDistribution": ("an object", lambda v: isinstance(v, AtomDistribution), lambda v: v),
}


class ConfigError(ValueError):
    """Invalid experiment configuration."""


class SkipBudgetError(RuntimeError):
    """More replicates were skipped for solver failures than the budget allows."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Single JSON-expressible description of an experiment run."""

    kind: str
    ensemble: AtomDistribution = field(
        default_factory=lambda: AtomDistribution("complex-gaussian")
    )
    n_list: tuple = (256,)
    k: int | None = None
    allow_large_k: bool = False
    f_id: str = "re"
    replicates: int = 100
    base_seed: int = 1
    threads: int = 0  # worker processes; 0: one per usable core
    method: str = "sample"  # wasserstein only: "sample" or "lattice"
    n_max: int = 60  # thinning-bound only

    def __post_init__(self):
        for key, f in CONFIG_FIELDS.items():
            expected, check, convert = _FIELD_TYPES[f.type]
            value = getattr(self, f.name)
            if not check(value):
                raise ConfigError(f"config field {key!r} must be {expected}, got {value!r}")
            object.__setattr__(self, f.name, convert(value))
        if self.kind == "partial-fixed-K" and self.k is None:
            object.__setattr__(self, "k", 1)
        for invalid, message in self._checks():
            if invalid:
                raise ConfigError(message)

    def _checks(self):
        """Each range rule as (invalid, message), in order.  `__post_init__` stops
        at the first invalid one, so a rule may take every earlier rule as held."""
        yield self.kind not in KINDS, f"unknown experiment kind {self.kind!r}"
        yield (not self.n_list or min(self.n_list) < 1 or max(self.n_list) > MAX_N,
               f"n_list must be a nonempty list of integers in 1..{MAX_N}")
        yield self.replicates < 1, "replicates must be >= 1"
        yield (self.replicates * len(set(self.n_list)) > MAX_RUN_REPLICATES,
               f"replicates times the distinct sizes of n_list must be at most "
               f"{MAX_RUN_REPLICATES}, got {self.replicates} x {len(set(self.n_list))}")
        yield self.base_seed < 0, "base_seed must be nonnegative"
        yield (not 0 <= self.threads <= MAX_THREADS,
               f"threads must be in 0..{MAX_THREADS} (0: one per usable core)")
        yield self.method not in W1_METHODS, f"unknown wasserstein method {self.method!r}"
        yield (self.f_id not in BUILTIN_FUNCTIONS,
               f"unknown test function {self.f_id!r}; known: {sorted(BUILTIN_FUNCTIONS)}")
        yield (self.kind == "thinning-bound" and not 1 <= self.n_max <= _SCAN_NORMAL_N,
               f"n_max must be in 1..{_SCAN_NORMAL_N}")
        yield (self.kind == "wasserstein-decay" and self.method == "lattice"
               and any(n < MIN_N for n in self.n_list),
               f"the lattice method needs n >= {MIN_N}")
        yield (self.kind == "full-clt" and not self.ensemble.is_real
               and abs(atom_moments(self.ensemble).second) > 1e-9,
               "full-clt with a complex atom needs E[xi^2] = 0")
        for n in self.n_list if self.kind.startswith("partial") else ():
            k = self.k_for(n)
            yield not 1 <= k <= n, f"K={k} at n={n} must satisfy 1 <= K <= n"
            yield (self.kind == "partial-growing-K" and not self.allow_large_k
                   and k > n ** 0.25 + 1e-9,
                   f"K={k} at n={n} exceeds the n^(1/4) growth budget; "
                   "set allow_large_k to override")

    def k_for(self, n: int) -> int:
        """Thinning size at matrix size n under this configuration."""
        if self.k is not None:  # always set for partial-fixed-K
            return self.k
        return max(1, math.floor(n ** 0.25 / _K_DIVISOR))

    def to_dict(self) -> dict:
        """Canonical JSON form: every field but `threads`, under its file key."""
        d = {key: getattr(self, f.name) for key, f in CONFIG_FIELDS.items() if key != "threads"}
        d.update(ensemble=self.ensemble.to_dict(), n_list=list(self.n_list))
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Inverse of `to_dict`, also accepting `threads`; other keys are errors."""
        unknown = sorted(set(d) - set(CONFIG_FIELDS))
        if unknown:
            raise ConfigError(f"unknown config field(s) {unknown}; known: {sorted(CONFIG_FIELDS)}")
        if "kind" not in d:
            raise ConfigError("missing config field: 'kind'")
        kwargs = {CONFIG_FIELDS[key].name: value for key, value in d.items()}
        if isinstance(kwargs.get("ensemble"), dict):
            try:
                kwargs["ensemble"] = AtomDistribution.from_dict(kwargs["ensemble"])
            except DistributionError as exc:
                raise ConfigError(f"config field 'ensemble': {exc}") from exc
        return cls(**kwargs)


# Each field by its config-file key, which is also the argparse dest of its CLI
# flag: the field's name, but "f" for f_id.
CONFIG_FIELDS = {"f" if f.name == "f_id" else f.name: f for f in fields(ExperimentConfig)}


def config_hash(config: ExperimentConfig) -> str:
    """Provenance hash over the canonical JSON form (threads excluded)."""
    payload = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    records: list
    summary: dict


# ---------------------------------------------------------------------------
# The replicate path and the runner

# The last run's solves under its matrix identity, which fixes every matrix
# seed: each solve's read-only scaled spectrum or the reason it failed, in
# run order.
_SPECTRA: dict = {}

# Most bytes the memo holds, counted per solve as its n eigenvalues (16 bytes
# each) and _SPECTRUM_OVERHEAD: a run whose solves would pass it keeps none of
# them.  16 MiB holds 996 solves at n=1024 (16.4 KiB each); a run that no
# later run reads back, such as a CLI run, holds them for nothing.
_SPECTRA_BUDGET = 16 << 20

# Bytes a kept spectrum holds beside its eigenvalues, by tracemalloc: its
# objects and list slot take 208 when solved here and up to 430 when
# unpickled from a pool worker.
_SPECTRUM_OVERHEAD = 448


# Least solve work, in n^3 units summed over the matrices of all a run's
# sizes, that a process pool is started for; a run starts at most one
# pool, whether a task is a replicate or one solve.  On 2 cores a pool adds
# about 0.1 s to a run (start-up and the workers' first solves).  A real
# solve costs about 2.8 ns per unit and a complex one 2.5x that, so a run of
# real solves breaks even near 7e7 units; 1.3e8 leaves a margin for both.  Those figures are for
# forked workers; a spawned one imports numpy and scipy again (about 1.4 s),
# so where the pool cannot fork the cutoff is too low for a pool to pay off.
_POOL_MIN_WORK = 1 << 27

# Workers are forked on Linux, as _POOL_MIN_WORK was measured (the default
# there before Python 3.14); elsewhere they start the platform's default way.
_POOL_CONTEXT = multiprocessing.get_context("fork" if sys.platform.startswith("linux") else None)


# Tasks in flight per pool worker (queued, running, or done and unread): enough
# to keep each worker busy while results are read, and no run holds more.
_TASKS_PER_WORKER = 4


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):  # not on macOS or Windows
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _solve(args):
    """One matrix sampled and solved scaled: its read-only spectrum, or why the solve failed."""
    dist, n, seed = args
    try:
        spectrum = eigenvalues(sample_matrix(dist, n, seed), scale=True)
    except EigensolverError as exc:
        return str(exc)
    spectrum.values.flags.writeable = False
    return spectrum


def _pool_map(pool, fn, items, workers):
    """`pool.map(fn, items)` with no more than _TASKS_PER_WORKER * workers tasks unread."""
    items = iter(items)
    futures = deque(pool.submit(fn, x) for x in islice(items, _TASKS_PER_WORKER * workers))
    while futures:
        result = futures.popleft().result()
        futures.extend(pool.submit(fn, x) for x in islice(items, 1))
        yield result


def _solves(config: ExperimentConfig, n: int, seeds: dict) -> list:
    """`_solve`'s arguments for each matrix of one replicate, in the kind's order."""
    return [(dist or config.ensemble, n, seeds[name]) for name, dist in KINDS[config.kind].solves]


def _measured(config: ExperimentConfig, n: int, seeds: dict, solved: list):
    """(record, solved) of one replicate, or (reason, solved) when a solve failed.

    `solved` holds each solve's spectrum or failure reason; the first reason
    stands for the replicate.
    """
    reason = next((s for s in solved if isinstance(s, str)), None)
    if reason is not None:
        return reason, solved
    return {"n": n, **seeds, **KINDS[config.kind].measure(config, n, solved, seeds)}, solved


def _replicate(args):
    """One replicate sampled, solved and measured: the task of a serial run and of a pool worker."""
    config, n, seeds = args
    return _measured(config, n, seeds, [_solve(a) for a in _solves(config, n, seeds)])


def _replicate_records(config: ExperimentConfig) -> list:
    """(n, records) per size of n_list, records in replicate order, failed solves dropped.

    A run with the same kind, base seed, ensemble, sizes and replicate count
    as the memo's run draws the same matrices and reads their spectra.  Any
    other run solves every matrix, and its solves replace the memo if they fit
    _SPECTRA_BUDGET.  Its matrices, of all sizes, are solved here if their work
    is below _POOL_MIN_WORK, else in one pool of up to `threads` worker
    processes (0: one per usable core) and no more than there are matrices.
    Serial or pooled, a task is one replicate (`_replicate`), measured where
    it is solved, or in a pool one solve when there are fewer replicates than
    workers.  Spectra read from the memo or solved one per task arrive as one
    stream in run order and are measured here.  Outcomes are read a size at a time in n_list order,
    with _TASKS_PER_WORKER tasks per worker submitted ahead.  Raises
    SkipBudgetError at the first size where more than MAX_SKIP_FRACTION of
    the replicates failed, and cancels the queued tasks.
    """
    sizes = dict.fromkeys(config.n_list)  # a repeated size is solved and measured once
    run = (config.kind, config.base_seed, config.ensemble, tuple(sizes), config.replicates)
    streams = KINDS[config.kind].streams
    replicates = [(config, n, {name: derive_seed64(config.base_seed, config.kind, n, r, tag)
                               for name, tag in streams.items()})
                  for n in sizes for r in range(config.replicates)]
    memo = _SPECTRA.get(run)
    _SPECTRA.clear()  # until this run's solves are all in
    per_replicate = len(KINDS[config.kind].solves)
    nbytes = sum(16 * n + _SPECTRUM_OVERHEAD for n in sizes) * config.replicates * per_replicate
    kept = [] if nbytes <= _SPECTRA_BUDGET else None  # the solves to store, in run order
    workers = 1
    work = config.replicates * per_replicate * sum(n ** 3 for n in sizes)
    if not memo and work >= _POOL_MIN_WORK:
        workers = min(config.threads or _usable_cores(), len(replicates) * per_replicate)
    pool = None
    try:
        if workers > 1:
            pool = ProcessPoolExecutor(max_workers=workers, mp_context=_POOL_CONTEXT,
                                       initializer=pin_blas_to_one_thread)
        if memo or len(replicates) < workers:
            # spectra without their records: measured here as one stream in run order
            spectra = iter(memo) if memo else _pool_map(
                pool, _solve, (a for args in replicates for a in _solves(*args)), workers)
            outcomes = (_measured(*args, list(islice(spectra, per_replicate)))
                        for args in replicates)
        elif pool is None:
            outcomes = map(_replicate, replicates)
        else:
            # a measure's working memory (an n=1024 W1 sample's 8 MiB cost) stays in the worker
            outcomes = _pool_map(pool, _replicate, replicates, workers)
        by_n = {n: _size_records(config, n, outcomes, kept) for n in sizes}
        if kept is not None:
            for spectrum in (s for s in kept if not isinstance(s, str)):
                spectrum.values.flags.writeable = False  # a pool's spectra arrive writeable
            _SPECTRA[run] = kept
        return [(n, by_n[n]) for n in config.n_list]
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def _size_records(config, n, outcomes, kept) -> list:
    """Size n's records from the run's outcome stream; its solves go on `kept` if a list."""
    records = []
    for replicate in range(config.replicates):
        record, solved = next(outcomes)
        if kept is not None:
            kept.extend(solved)
        if isinstance(record, str):
            log.warning("replicate %d skipped: %s", replicate, record)
        else:
            records.append({"kind": config.kind, "replicate": replicate, **record})
    skipped = config.replicates - len(records)
    if skipped > MAX_SKIP_FRACTION * config.replicates:
        raise SkipBudgetError(
            f"n={n}: {skipped}/{config.replicates} replicates skipped; exceeding the "
            f"{MAX_SKIP_FRACTION:.0%} budget"
        )
    return records


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Records of every size in `config`, then the kind's summary of them."""
    if config.kind == "thinning-bound":
        sizes = [
            (n, [{**_thinning_scan_for_n(n), "kind": config.kind}])
            for n in range(1, config.n_max + 1)
        ]
    else:
        sizes = _replicate_records(config)
    records = [record for _, rows in sizes for record in rows]
    return ExperimentResult(config, records, KINDS[config.kind].summarize(config, sizes))


# ---------------------------------------------------------------------------
# Per kind: measure (spectra to record fields), summary rows, --assert gate

def _measure_partial(config, n, spectra, seeds):
    """Kept and removed sums of f, removing a uniform K-subset drawn from its own stream."""
    k = config.k_for(n)
    index_set = sample_index_set(n, k, seeds["seed_index"])
    kept, removed = partial_statistic(spectra[0], function_by_id(config.f_id), index_set)
    full = kept + removed
    return {"f": config.f_id, "k": k, "kept_re": kept.real, "kept_im": kept.imag,
            "removed_re": removed.real, "removed_im": removed.imag,
            "full_re": full.real, "full_im": full.imag}


def _measure_full(config, n, spectra, seeds):
    full = linear_statistic(spectra[0], function_by_id(config.f_id))
    return {"f": config.f_id, "full_re": full.real, "full_im": full.imag}


def _measure_w1(config, n, spectra, seeds):
    w1 = w1_to_disk(spectra[0].values, config.method, seeds["seed_disk"])
    return {"method": config.method, "w1": w1}


def _measure_cells(config, n, spectra, seeds):
    """Per-cell count discrepancy of X's spectrum against an independent Ginibre one."""
    spec_x, spec_g = spectra
    grid = default_grid(n, odd=True)  # real eigenvalues inside a row
    live = grid.cell_count  # real cells; the final entry is overflow
    counts_x = cell_counts(spec_x.values, grid)[:live]
    counts_g = cell_counts(spec_g.values, grid)[:live]
    max_disc = int(np.max(np.abs(counts_x - counts_g)))
    return {"max_cell_discrepancy": max_disc, "normalized_discrepancy": max_disc / n ** 0.25,
            "x_in_grid": int(counts_x.sum()), "g_in_grid": int(counts_g.sum()),
            "radius_x": spectral_radius(spec_x), "radius_g": spectral_radius(spec_g)}


def _centered_variance(values: np.ndarray) -> float:
    return float(np.var(values - values.mean())) if values.size else 0.0


def _per_size(row):
    """Summarize with one `row(config, n, records)` per size."""
    return lambda config, sizes: {"rows": [row(config, n, records) for n, records in sizes]}


def _fixed_k_row(config, n, rows):
    """Removed part versus the fixed-K limit law.

    Centers by cross-replicate means and compares the removed part to the
    fixed-K limit law (two-sample KS, sigma2 = 0 side).
    """
    f = function_by_id(config.f_id)
    moments = disk_moments(f)
    k = config.k_for(n)
    removed = np.array([r["removed_re"] for r in rows])
    kept = np.array([r["kept_re"] for r in rows])
    # Removed-part limit is sum_i (f(U_i) - E f(U_i)): the negated
    # sigma2=0 sampler output.
    limit_samples = -limit_sampler_fixed_K(
        f, moments.mean_f, K=k, sigma2=0.0, count=len(rows),
        seed=derive_seed64(config.base_seed, config.kind, n, 0, "limit"),
    ).real
    ks_stat, ks_p = ks_two_sample(removed - removed.mean(), limit_samples)
    return {
        "n": n,
        "k": k,
        "replicates": len(rows),
        "removed_mean": float(removed.mean()),
        "removed_var": _centered_variance(removed),
        "removed_var_target": k * moments.var_re,
        "kept_var": _centered_variance(kept),
        "ks_stat": ks_stat,
        "ks_p": ks_p,
    }


def _growing_k_row(config, n, rows):
    """sqrt(K)-normalized parts versus the Gaussian disk-moment limit.

    Compares the centered, sqrt(K)-normalized removed and kept parts to the
    Gaussian limit with disk-moment covariances, including a two-sample KS
    against Gaussian draws of the target variance (the limit sampler at K = 0).
    """
    f = function_by_id(config.f_id)
    moments = disk_moments(f)
    k = config.k_for(n)
    sqrt_k = math.sqrt(k)
    rem_re = np.array([r["removed_re"] for r in rows]) / sqrt_k
    rem_im = np.array([r["removed_im"] for r in rows]) / sqrt_k
    kept_re = np.array([r["kept_re"] for r in rows]) / sqrt_k
    centered = rem_re - rem_re.mean()
    gauss = limit_sampler_fixed_K(
        f, moments.mean_f, K=0, sigma2=moments.var_re, count=len(rows),
        seed=derive_seed64(config.base_seed, config.kind, n, 0, "gauss"),
    ).real
    ks_stat, ks_p = ks_two_sample(centered, gauss)
    return {
        "n": n,
        "k": k,
        "replicates": len(rows),
        "removed_var_re": _centered_variance(rem_re),
        "removed_var_im": _centered_variance(rem_im),
        "removed_cov": float(np.mean(centered * (rem_im - rem_im.mean()))),
        "kept_var_re": _centered_variance(kept_re),
        "target_var_re": moments.var_re,
        "target_var_im": moments.var_im,
        "target_cov": moments.cov,
        "ks_stat": ks_stat,
        "ks_p": ks_p,
    }


def _full_clt_row(config, n, rows):
    """Centered full linear statistic versus the limiting Gaussian variance."""
    f = function_by_id(config.f_id)
    atom = atom_moments(config.ensemble)
    target = ginibre_variance(f, atom, real_atom=config.ensemble.is_real)
    full = np.array([r["full_re"] for r in rows])
    return {
        "n": n,
        "replicates": len(rows),
        "full_var": _centered_variance(full),
        "target_var": target.sigma2,
        "gradient_term": target.gradient_term,
        "fourier_term": target.fourier_term,
        "fourth_moment_term": target.fourth_moment_term,
    }


def _w1_row(config, n, rows):
    w1 = np.array([r["w1"] for r in rows])
    return {
        "n": n,
        "trials": len(rows),
        "w1_mean": float(w1.mean()),
        "w1_std": float(w1.std()),
        "frac_below_quarter_power": float(np.mean(w1 <= n ** -0.25)),
    }


def _summarize_w1(config, sizes):
    """Per-size W1 rows and the log-log regression slope of the mean W1 against n."""
    summary_rows = _per_size(_w1_row)(config, sizes)["rows"]
    slope = None
    if len({row["n"] for row in summary_rows}) >= 2:
        xs = np.log([row["n"] for row in summary_rows])
        ys = np.log([row["w1_mean"] for row in summary_rows])
        slope = float(np.polyfit(xs, ys, 1)[0])
    return {"rows": summary_rows, "loglog_slope": slope}


def _cells_row(config, n, rows):
    """Largest and mean normalized discrepancy, and the grid mass of contained spectra."""
    norm = np.array([r["normalized_discrepancy"] for r in rows])
    bound = default_grid(n, odd=True).bound
    contained = [r for r in rows if max(r["radius_x"], r["radius_g"]) <= bound]
    return {
        "n": n,
        "trials": len(rows),
        "grid_bound": bound,
        "max_normalized_discrepancy": float(norm.max()),
        "mean_normalized_discrepancy": float(norm.mean()),
        "contained_trials": len(contained),
        "contained_count_ok": all(
            r["x_in_grid"] == n and r["g_in_grid"] == n for r in contained
        ),
    }


# The thinning scan's filter (`_thinning_scan_for_n`): a slice whose log
# ratios are all at most _SCAN_CLEAR holds no violation, and only cells within
# _SCAN_TIE of the largest log ratio can hold the largest float ratio.
_SCAN_CLEAR = -1e-6
_SCAN_TIE = 1e-9


def _thinning_scan_for_n(n: int):
    """Worst pmf/bound ratio over all feasible (K, J, j) at fixed n.

    At each |J| = s the feasible cells are the rectangle 0 <= j <= n - s,
    0 <= m = K - j <= s, less the K = 0 corner (elsewhere pmf = 0, which
    neither violates the bound nor holds the worst ratio), so the scan takes
    one 2-D slice [j, m] per s and its memory is O(n^2).

    A cheap filter in the log domain decides which cells need the exact
    float ratio.  With p = 1 - s/n and q = s/n, log(pmf/bound) separates as
    alpha[s, j] + beta[s, m] + gamma[K]:
    alpha = log C(n - s, j) + log j! - j log p,
    beta = log C(s, m) + log m! - m log q and
    gamma = -log C(n, K) - log K! - K^2/n / sqrt(1 - (K - 1)/n),
    which is -inf at K = 0.  It is the same at (s, j, m) as at (n - s, m, j)
    in exact arithmetic, so only s <= n/2 is filtered and each cell found
    brings its mirror.  One exact evaluator applies the float expressions of
    the bound's definition, with the same operands in the same order (log p
    or log q is 0 at s = 0 and s = n, so the binomial is exp(0) = 1, a point
    mass at the only feasible j), and counts violations and ratios:
    - on every cell of a slice the filter cannot clear, one slice at a time.
      It clears a slice whose log ratios are all at most _SCAN_CLEAR: for
      n <= _SCAN_NORMAL_N, the n_max cap, every feasible pmf and binomial is
      at least 2^-n, a normal double, so its float ratio is the exp of its
      log ratio to within a few ulp and cannot exceed 1 + 1e-12.
    - once, on the cells of cleared slices within _SCAN_TIE of the largest
      log ratio; no other cell's float ratio can be the largest.
    Ties keep the first cell in (K, J, j) order.  At K = 1 the pmf equals
    the binomial pmf, so all 2n feasible cells have ratio exp(-1/n) in exact
    arithmetic, and for every n <= 400 that is the worst; rounding decides
    which of those cells the record names, which is why the exact evaluator
    sees every tied cell.  tracemalloc peaks at 0.58 MiB at n = 120, 2.9 MiB
    at n = 300, 5.1 MiB at n = 400 and 31 MiB at n = 1000.
    """
    w = n + 1
    a = np.arange(w)
    lg = gammaln(a + 1)
    lc = (lg[:, None] - lg) - lg[np.abs(a[:, None] - a)]  # log C(a, b) at [a, b], b <= a
    exponent = (a * a / n) / np.sqrt(1.0 - (a - 1.0) / n)
    # An overflowed prefactor is an infinite bound.
    with np.errstate(over="ignore"):
        prefactor = np.exp(exponent)
    p = 1.0 - a / n
    log_p = np.log(p, out=np.zeros(w), where=p > 0)  # 0 at the point masses p = 0 and 1,
    log_q = np.log1p(-p, out=np.zeros(w), where=p < 1)  # so the binomial is exp(0) = 1
    # log C(n, K) is taken as +inf at K = 0, which removes nothing, so that
    # cell's pmf is exp(-inf) = 0 and its log ratio is -inf
    lc_n = np.where(a > 0, lc[n], math.inf)
    gamma = (-lc_n - lg) - exponent
    alpha = (lc[::-1] + lg) - a * log_p[:, None]  # [s, j]
    beta = (lc + lg) - a * log_q[:, None]  # [s, m]
    # [j, m] -> v[j + m] views; the zero padding only fills cells with K > n, which no slice reads
    padded = np.zeros((4, 2 * n + 1))
    padded[:, :w] = lc_n, lg, prefactor, gamma
    lc_n_k, lg_k, prefactor_k, gamma_k = sliding_window_view(padded, w, axis=1)

    def exact(s, j, m, at):
        """Violations among the cells (s, j, m) and their least (-ratio, K, s, j).

        `at` indexes the [j, m] views at the same cells: a slice for a whole
        slice, the index arrays for gathered cells.
        """
        pmf = np.exp((lc[n - s, j] + lc[s, m]) - lc_n_k[at])
        binom = np.exp(((lg_k[at] - lg[j]) - lg[m]) + j * log_p[s] + m * log_q[s])
        bound = prefactor_k[at] * binom
        ratio = pmf / bound
        top = np.flatnonzero(ratio == ratio.max())
        s, j, m = (np.broadcast_to(v, ratio.shape).flat[top] for v in (s, j, m))
        return (int(np.count_nonzero(pmf > bound * (1 + 1e-12))),
                min(zip(-ratio.flat[top], j + m, s, j)))

    violations, worst, best, near = 0, (math.inf,), -math.inf, []
    for s in range(n // 2 + 1):  # the ratio at (s, j, m) is the ratio at (n - s, m, j)
        log_ratio = (alpha[s, :w - s, None] + gamma_k[:w - s, :s + 1]) + beta[s, :s + 1]
        top = log_ratio.max()
        best = max(best, top)
        if top <= _SCAN_CLEAR:
            if top > best - _SCAN_TIE:
                j, m = np.nonzero(log_ratio > best - _SCAN_TIE)
                near += [(s, j, m), (n - s, m, j)] if 2 * s < n else [(s, j, m)]
            continue
        for t in {s, n - s}:  # every cell of a slice the filter cannot clear
            count, cell = exact(t, a[:w - t, None], a[:t + 1], np.s_[:w - t, :t + 1])
            violations, worst = violations + count, min(worst, cell)
    if near:
        slices, j, m = zip(*near)
        s = np.repeat(slices, [v.size for v in j])
        j, m = np.concatenate(j), np.concatenate(m)
        count, cell = exact(s, j, m, (j, m))
        violations, worst = violations + count, min(worst, cell)
    return {"n": n, "worst_ratio": float(-worst[0]), "k": int(worst[1]),
            "j_size": int(worst[2]), "j": int(worst[3]), "violations": violations}


def _summarize_thinning(config, sizes):
    """Exhaustive pmf <= bound verification for all feasible tuples up to n_max.

    `worst_case` names the worst record's cell; for n_max <= 400 that is one
    of the K = 1 cells, which tie in exact arithmetic, so rounding picks it.
    """
    records = [row for _, rows in sizes for row in rows]
    worst = max(records, key=lambda r: r["worst_ratio"])
    return {
        "n_max": config.n_max,
        "violations": int(sum(r["violations"] for r in records)),
        "worst_ratio": worst["worst_ratio"],
        "worst_case": {key: worst[key] for key in ("n", "k", "j_size", "j")},
    }


def _row_gate(check):
    """Gate applying `check(row)` to every summary row, in row order."""
    return lambda summary: [msg for row in summary["rows"] for msg in check(row)]


def _window(row, key, target_key, tol):
    target = row[target_key]
    if (1 - tol) * target <= row[key] <= (1 + tol) * target:
        return []
    return [f"n={row['n']}: {key} {row[key]:.4f} outside {tol:.0%} of {target:.4f}"]


def _ks_floor(row):
    return [f"n={row['n']}: KS p {row['ks_p']:.2e} <= 0.001"] if row["ks_p"] <= 0.001 else []


def _cells_check(row):
    failures = []
    if row["max_normalized_discrepancy"] > 5.0:
        failures.append(
            f"n={row['n']}: normalized discrepancy "
            f"{row['max_normalized_discrepancy']:.2f} > 5"
        )
    if not row["contained_count_ok"]:
        failures.append(f"n={row['n']}: contained spectra missing grid mass")
    return failures


def _gate_w1(summary):
    rows = summary["rows"]
    failures = []
    means = [row["w1_mean"] for row in rows]
    if any(b >= a for a, b in zip(means, means[1:])):
        failures.append(f"mean W1 not strictly decreasing: {means}")
    for row in rows:
        if row["n"] >= 256 and row["frac_below_quarter_power"] < 1.0:
            failures.append(
                f"n={row['n']}: only {row['frac_below_quarter_power']:.0%} of "
                "trials below n^(-1/4)"
            )
    return failures


def _gate_thinning(summary):
    return [f"{summary['violations']} bound violations"] if summary["violations"] else []


@dataclass(frozen=True)
class KindSpec:
    """One experiment kind: seed streams, measure, summary and `--assert` gate.

    `streams` maps each record seed field to its stream tag; `solves` pairs
    the fields that draw a matrix with its ensemble (None: the configured
    one).  `measure(config, n, spectra, seeds)` gives a replicate's fields,
    `summarize(config, [(n, records)])` the summary and `gate(summary)` the
    failure messages.  thinning-bound solves nothing; its records are scan rows.
    """

    streams: dict
    measure: Callable | None
    summarize: Callable
    gate: Callable
    solves: tuple = (("seed_matrix", None),)


_PARTIAL_STREAMS = {"seed_matrix": "matrix", "seed_index": "index"}

KINDS = {
    "partial-fixed-K": KindSpec(
        _PARTIAL_STREAMS, _measure_partial, _per_size(_fixed_k_row),
        _row_gate(lambda row: (
            _window(row, "removed_var", "removed_var_target", 0.2) + _ks_floor(row)
        )),
    ),
    "partial-growing-K": KindSpec(
        _PARTIAL_STREAMS, _measure_partial, _per_size(_growing_k_row),
        _row_gate(lambda row: (
            _window(row, "removed_var_re", "target_var_re", 0.25) + _ks_floor(row)
        )),
    ),
    "full-clt": KindSpec(
        {"seed_matrix": "matrix"}, _measure_full, _per_size(_full_clt_row),
        _row_gate(lambda row: _window(row, "full_var", "target_var", 0.25)),
    ),
    "wasserstein-decay": KindSpec(
        {"seed_matrix": "matrix", "seed_disk": "disk"}, _measure_w1, _summarize_w1, _gate_w1,
    ),
    "local-law-cells": KindSpec(
        {"seed_x": "matrix-x", "seed_g": "matrix-g"}, _measure_cells, _per_size(_cells_row),
        _row_gate(_cells_check),
        solves=(("seed_x", None), ("seed_g", AtomDistribution("complex-gaussian"))),
    ),
    "thinning-bound": KindSpec({}, None, _summarize_thinning, _gate_thinning, solves=()),
}


# ---------------------------------------------------------------------------
# Emission

def records_jsonl(result: ExperimentResult) -> str:
    """Records as JSONL with a config-hash header line and stable key order."""
    header = {"config_hash": config_hash(result.config), "config": result.config.to_dict()}
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    lines.extend(
        json.dumps(record, sort_keys=True, separators=(",", ":"))
        for record in result.records
    )
    return "\n".join(lines) + "\n"


def write_records_jsonl(path, result: ExperimentResult):
    Path(path).write_text(records_jsonl(result), encoding="utf-8")


def write_summary_csv(path, result: ExperimentResult):
    """Summary rows, each with the summary's other fields, as CSV under a config-hash header."""
    scalars = {key: value for key, value in result.summary.items() if key != "rows"}
    rows = [{**row, **scalars} for row in result.summary.get("rows", ())] or [scalars]
    fieldnames = sorted({key for row in rows for key in row})
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(f"# config_hash={config_hash(result.config)}\n")
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({key: _csv_cell(row.get(key)) for key in fieldnames})


def _csv_cell(value):
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return value
