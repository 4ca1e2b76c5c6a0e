"""Exact finite-n oracle: the full sum of a power of z is a trace of the matrix.

For the scaled eigenvalues λ_i of X / sqrt(n), Σ λ_i^k = tr(X^k) / n^(k/2).
So every record's `full_re` for f = re, im, repow_2 and repow_3 equals the
real part (for im: the imaginary part) of that trace, for any matrix: a check
of the solve, its scaling and f on every record, with no asymptotic error.
"""

import numpy as np
import pytest

from thinspec.ensembles import BUILTIN_KINDS, AtomDistribution, sample_matrix
from thinspec.experiments import ExperimentConfig, run_experiment

# f id -> the power k of z whose real part it sums (im: the imaginary part of z)
POWERS = {"re": 1, "im": 1, "repow_2": 2, "repow_3": 3}
# The worst gap measured over 5,760 records (n 8, 33 and 64, these kinds,
# ensembles and f, 40 replicates, seeds 17 and 23) was 9.2e-14.
TOLERANCE = 5e-13


@pytest.mark.parametrize("ensemble", BUILTIN_KINDS)
@pytest.mark.parametrize("kind, extra", [("full-clt", {}), ("partial-fixed-K", {"k": 2})],
                         ids=["full-clt", "partial-fixed-K"])
def test_full_sum_is_the_trace_of_a_matrix_power(kind, extra, ensemble):
    dist = AtomDistribution(ensemble)
    for f_id, k in POWERS.items():
        config = ExperimentConfig(kind=kind, ensemble=dist, n_list=(8, 33, 64), replicates=4,
                                  f_id=f_id, threads=1, base_seed=17, **extra)
        records = run_experiment(config).records
        assert len(records) == 12
        for record in records:
            n = record["n"]
            x = sample_matrix(dist, n, record["seed_matrix"]).entries
            trace = np.trace(np.linalg.matrix_power(x, k)) / n ** (k / 2)
            expected = trace.imag if f_id == "im" else trace.real
            assert abs(record["full_re"] - expected) <= TOLERANCE, (f_id, n, record["replicate"])
