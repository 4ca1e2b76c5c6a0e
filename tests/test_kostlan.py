"""Exact finite-n oracle: Kostlan's theorem for complex Ginibre.

The squared moduli of the eigenvalues of an n x n complex Ginibre matrix
(E|x|^2 = 1) have the law of independent Gamma(k, 1), k = 1..n (E. Kostlan,
"On the spectra of Gaussian matrices", Linear Algebra Appl. 162-164, 1992).
The removed index set is uniform and independent of the matrix, so the full,
kept and removed abs2 sums of the scaled spectrum have an exactly samplable
law at every n: draw the Gammas, divide by n, and sum a uniform K-subset.
The full sum has mean (n+1)/2 and variance (n+1)/(2n).
"""

import numpy as np
import pytest

from thinspec.experiments import ExperimentConfig, run_experiment
from thinspec.stats import ks_two_sample

N, K, REPS = 32, 4, 1000


def kostlan_abs2(n, k, draws, seed):
    """`draws` samples of the (full, removed) abs2 sums of a scaled n x n Ginibre spectrum."""
    rng = np.random.default_rng(seed)
    moduli2 = rng.gamma(np.arange(1, n + 1), size=(draws, n)) / n
    subsets = np.argsort(rng.random((draws, n)), axis=1)[:, :k]
    return moduli2.sum(axis=1), np.take_along_axis(moduli2, subsets, axis=1).sum(axis=1)


@pytest.fixture(scope="module")
def exact():
    return kostlan_abs2(N, K, 20_000, seed=7)


def test_kostlan_sampler_moments(exact):
    full, removed = exact
    assert full.mean() == pytest.approx((N + 1) / 2, abs=0.02)
    assert full.var() == pytest.approx((N + 1) / (2 * N), rel=0.05)
    assert removed.mean() == pytest.approx(K * (N + 1) / (2 * N), abs=0.02)


def _records(kind, **extra):
    config = ExperimentConfig(kind=kind, n_list=(N,), replicates=REPS, f_id="abs2",
                              base_seed=5, **extra)
    return run_experiment(config).records


def test_full_clt_abs2_follows_kostlan(exact):
    # KS p at base seed 5 against Kostlan seed 7, measured before committing: 0.098
    full = [r["full_re"] for r in _records("full-clt")]
    assert ks_two_sample(full, exact[0])[1] > 0.001


def test_partial_fixed_k_abs2_follows_kostlan(exact):
    # KS p at base seed 5 against Kostlan seed 7, measured before committing:
    # removed 0.61, kept 0.84
    records = _records("partial-fixed-K", k=K)
    full, removed = exact
    assert ks_two_sample([r["removed_re"] for r in records], removed)[1] > 0.001
    assert ks_two_sample([r["kept_re"] for r in records], full - removed)[1] > 0.001
