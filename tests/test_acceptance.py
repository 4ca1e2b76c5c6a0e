"""Acceptance suite: one test per release criterion, at the stated tolerance.

Each test prints a single pass/fail line (run with `pytest -s` to stream
them).  Quantitative desk-scale thresholds were frozen after calibration
pre-runs with the seeds used here.  The full module takes several minutes,
dominated by the 2000-replicate thinned-statistics run.
"""

import itertools
import time

import numpy as np
import pytest

from thinspec import experiments
from thinspec.ensembles import AtomDistribution, atom_moments
from thinspec.experiments import (
    ExperimentConfig,
    records_jsonl,
    run_experiment,
)
from thinspec.lattice import lattice_params
from thinspec.spectral import spiral_compare, spiral_key
from thinspec.stats import disk_moments, function_by_id, ginibre_variance
from thinspec.transport import default_grid, grid_pairing, w1_exact


def _report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_exact_transport_oracle():
    # w1_exact equals the brute-force permutation minimum, 1000 cases, n <= 7
    rng = np.random.default_rng(1001)
    t0 = time.time()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        cost = np.abs(a[:, None] - b[None, :])
        perms = np.array(list(itertools.permutations(range(n))))
        brute = cost[np.arange(n), perms].sum(axis=1).min() / n
        worst = max(worst, abs(w1_exact(a, b).value - brute))
    elapsed = time.time() - t0
    _report(
        1,
        "exact transport equals brute force (n<=7, 1000 cases, tol 1e-12)",
        worst <= 1e-12 and elapsed < 10,
        f"worst diff {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_coupling_dominance():
    # grid pairing never beats the exact matching
    rng = np.random.default_rng(1002)
    t0 = time.time()
    violations = 0
    for _ in range(200):
        n = int(rng.integers(2, 257))
        scale = rng.uniform(0.3, 0.8)
        a = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        b = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        grid = default_grid(n, 1.25)
        if grid_pairing(a, b, grid).value < w1_exact(a, b).value:
            violations += 1
    elapsed = time.time() - t0
    _report(
        2,
        "grid coupling dominates exact W1 (200 cases, n<=256)",
        violations == 0 and elapsed < 120,
        f"{violations} violations, {elapsed:.1f}s",
    )


def test_criterion_03_thinning_bound_exhaustive():
    t0 = time.time()
    result = run_experiment(ExperimentConfig(kind="thinning-bound", n_max=60))
    elapsed = time.time() - t0
    _report(
        3,
        "removal-overlap pmf <= inflated-binomial bound (all n<=60)",
        result.summary["violations"] == 0
        and result.summary["worst_ratio"] <= 1.0
        and elapsed < 60,
        f"worst ratio {result.summary['worst_ratio']:.6f} at "
        f"{result.summary['worst_case']}, {elapsed:.1f}s",
    )


def test_criterion_04_lattice_structure_exhaustive():
    # vectorized exhaustive check 9 <= n <= 1e6, plus scalar spot checks
    t0 = time.time()
    n = np.arange(9, 1_000_001, dtype=np.int64)
    root = np.floor(np.sqrt(n.astype(np.float64))).astype(np.int64)
    root = np.where(root * root > n, root - 1, root)
    root = np.where((root + 1) * (root + 1) <= n, root + 1, root)
    sqrt_ceil = root + (root * root < n).astype(np.int64)
    ok = bool(
        np.all((sqrt_ceil - 1) ** 2 <= n)
        and np.all(n <= sqrt_ceil**2)
    )
    boundary = n - (sqrt_ceil - 2) ** 2
    sq = np.sqrt(n.astype(np.float64))
    ok = ok and bool(np.all(2 * sq - 3 <= boundary) and np.all(boundary <= 4 * sq))
    rng = np.random.default_rng(1004)
    for m in rng.integers(9, 1_000_001, size=200):
        p = lattice_params(int(m))
        ok = ok and p.sqrt_ceil == int(sqrt_ceil[m - 9]) and p.boundary_count == int(
            boundary[m - 9]
        )
    elapsed = time.time() - t0
    _report(4, "lattice parameter invariants for 9 <= n <= 1e6", ok and elapsed < 10,
            f"{elapsed:.1f}s")


def test_criterion_05_spiral_order_axioms():
    t0 = time.time()
    rng = np.random.default_rng(1005)
    pool = 0.8 * (rng.standard_normal(4000) + 1j * rng.standard_normal(4000))
    pool[:40] = 0.0  # include exact zeros
    n = 128
    ok = True
    idx = rng.integers(0, pool.size, size=(100_000, 3))
    for i, j, k in idx:
        w, z, u = pool[i], pool[j], pool[k]
        cwz = spiral_compare(w, z, n)
        ok = ok and cwz in (-1, 0, 1) and cwz == -spiral_compare(z, w, n)
        if cwz == 0 and spiral_key(w, n) != spiral_key(z, n):
            ok = False
        if cwz <= 0 and spiral_compare(z, u, n) <= 0 and spiral_compare(w, u, n) > 0:
            ok = False  # transitivity breach
        if not ok:
            break
    zero_first = all(
        spiral_compare(0j, pool[m], n) == -1 for m in range(40, 140)
    )
    elapsed = time.time() - t0
    _report(
        5,
        "spiral order: totality, antisymmetry, transitivity, zero first",
        ok and zero_first and elapsed < 5,
        f"1e5 triples, {elapsed:.1f}s",
    )


def test_criterion_06_variance_formula_analytic():
    t0 = time.time()
    f = function_by_id("re")
    cg = atom_moments(AtomDistribution("complex-gaussian"))
    sigma2 = ginibre_variance(f, cg, real_atom=False).sigma2
    m = disk_moments(f)
    ok = (
        abs(sigma2 - 0.5) <= 1e-6
        and abs(m.mean_f) <= 1e-8
        and abs(m.var_re - 0.25) <= 1e-8
        and abs(m.var_im) <= 1e-8
        and abs(m.cov) <= 1e-8
    )
    elapsed = time.time() - t0
    _report(
        6,
        "limit variance 1/2 (tol 1e-6) and disk moments (0, 1/4, 0, 0) (tol 1e-8)",
        ok and elapsed < 5,
        f"sigma2={sigma2:.8f}, var_re={m.var_re:.10f}, {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_criterion_07_fixed_thinning_desk_scale():
    # Ginibre, n=256, K=1, f=re, 2000 replicates (seed frozen after pre-run)
    t0 = time.time()
    cfg = ExperimentConfig(
        kind="partial-fixed-K", n_list=(256,), k=1, f_id="re",
        replicates=2000, base_seed=11,
    )
    row = run_experiment(cfg).summary["rows"][0]
    ok = 0.20 <= row["removed_var"] <= 0.30 and row["ks_p"] > 0.001
    _report(
        7,
        "fixed-K removed-part variance in [0.20, 0.30] and KS p > 0.001",
        ok,
        f"var={row['removed_var']:.4f}, ks_p={row['ks_p']:.3g}, {time.time()-t0:.0f}s",
    )


@pytest.mark.slow
def test_criterion_08_growing_thinning_desk_scale():
    # Ginibre, n=256, K=4, f=re, 1000 replicates
    t0 = time.time()
    cfg = ExperimentConfig(
        kind="partial-growing-K", n_list=(256,), k=4, f_id="re",
        replicates=1000, base_seed=21,
    )
    row = run_experiment(cfg).summary["rows"][0]
    ok = 0.1875 <= row["removed_var_re"] <= 0.3125 and row["ks_p"] > 0.001
    _report(
        8,
        "growing-K normalized variance in [0.1875, 0.3125] and KS p > 0.001",
        ok,
        f"var={row['removed_var_re']:.4f}, ks_p={row['ks_p']:.3g}, {time.time()-t0:.0f}s",
    )


@pytest.mark.slow
def test_criterion_09_full_clt_desk_scale():
    # Ginibre, n=256, f=re, 1000 replicates; target variance 1/2
    t0 = time.time()
    cfg = ExperimentConfig(
        kind="full-clt", n_list=(256,), f_id="re", replicates=1000, base_seed=31
    )
    row = run_experiment(cfg).summary["rows"][0]
    ok = 0.375 <= row["full_var"] <= 0.625
    _report(
        9,
        "full-statistic variance in [0.375, 0.625] (target 1/2)",
        ok,
        f"var={row['full_var']:.4f}, target={row['target_var']:.4f}, {time.time()-t0:.0f}s",
    )


@pytest.mark.slow
def test_criterion_10_wasserstein_decay():
    # Ginibre, n in {64, 256, 1024}, 10 trials each
    t0 = time.time()
    cfg = ExperimentConfig(
        kind="wasserstein-decay", n_list=(64, 256, 1024), replicates=10,
        base_seed=101, method="sample",
    )
    rows = run_experiment(cfg).summary["rows"]
    means = [row["w1_mean"] for row in rows]
    decreasing = all(b < a for a, b in zip(means, means[1:]))
    below = all(
        row["frac_below_quarter_power"] == 1.0 for row in rows if row["n"] >= 256
    )
    _report(
        10,
        "mean W1 strictly decreasing; all trials at n>=256 below n^(-1/4)",
        decreasing and below,
        f"means={[f'{m:.4f}' for m in means]}, {time.time()-t0:.0f}s",
    )


@pytest.mark.slow
def test_criterion_11_local_law_cells():
    # rademacher vs Ginibre, n=1024, 10 trials; discrepancy <= 5 n^(1/4)
    t0 = time.time()
    cfg = ExperimentConfig(
        kind="local-law-cells", ensemble=AtomDistribution("rademacher"),
        n_list=(1024,), replicates=10, base_seed=51,
    )
    row = run_experiment(cfg).summary["rows"][0]
    ok = (
        row["max_normalized_discrepancy"] <= 5.0
        and row["contained_trials"] == 10
        and row["contained_count_ok"]
    )
    _report(
        11,
        "cell-count discrepancy <= 5 n^(1/4); contained spectra fully counted",
        ok,
        f"max={row['max_normalized_discrepancy']:.3f}, {time.time()-t0:.0f}s",
    )


def test_criterion_12_byte_identical_replay(pools):
    # identical config replays byte-identically, independent of thread count
    t0 = time.time()
    base = dict(
        kind="partial-fixed-K", n_list=(64,), k=2, f_id="re", replicates=10,
        base_seed=61,
    )
    # each run solves its own matrices, not the previous run's memoized spectra
    experiments._SPECTRA.clear()
    first = records_jsonl(run_experiment(ExperimentConfig(**base, threads=1)))
    experiments._SPECTRA.clear()
    second = records_jsonl(run_experiment(ExperimentConfig(**base, threads=1)))
    experiments._SPECTRA.clear()
    threaded = records_jsonl(run_experiment(ExperimentConfig(**base, threads=3)))
    ok = first == second == threaded and pools == [3]
    _report(
        12,
        "byte-identical JSONL replay across runs and thread counts",
        ok,
        f"{len(first.splitlines())} lines, {time.time()-t0:.0f}s",
    )
