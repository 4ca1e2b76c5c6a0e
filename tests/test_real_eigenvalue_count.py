"""Exact finite-n oracle for the real solve path: Edelman-Kostlan-Shub.

An n x n matrix of iid N(0, 1) entries has, in expectation,
E_n = 1/2 + sqrt(2) * 2F1(1, -1/2; n; 1/2) / B(n, 1/2) real eigenvalues
(A. Edelman, E. Kostlan, M. Shub, "How many eigenvalues of a random matrix
are real?", J. Amer. Math. Soc. 7, 1994).  A real-arithmetic solve returns
each real eigenvalue with an imaginary part of exactly 0, and a complex one
does not, so the count of exact zeros checks both the sampler and the solve.
"""

import math

import numpy as np
import pytest
from scipy.special import beta, hyp2f1

from thinspec.ensembles import AtomDistribution, sample_matrix
from thinspec.seeding import derive_seed64
from thinspec.spectral import eigenvalues

REPS = 2000


def expected_real_count(n):
    return 0.5 + math.sqrt(2.0) * hyp2f1(1.0, -0.5, n, 0.5) / beta(n, 0.5)


def test_expected_real_count_values():
    assert expected_real_count(1) == pytest.approx(1.0, abs=1e-14)
    assert expected_real_count(2) == pytest.approx(math.sqrt(2.0), abs=1e-14)
    assert expected_real_count(16) == pytest.approx(3.6165, abs=5e-5)
    assert expected_real_count(64) == pytest.approx(6.8456, abs=5e-5)


@pytest.mark.parametrize("n", [16, 64])
def test_real_gaussian_real_eigenvalue_count(n):
    # Six seed bases read z-scores from -1.9 to +1.2 (standard errors 0.032 at
    # n=16, 0.045 at n=64); Rademacher entries read 2.6 and 1.7 standard errors
    # low, so the oracle is for real Gaussian entries only.
    dist = AtomDistribution("real-gaussian")
    counts = np.array([
        np.count_nonzero(eigenvalues(sample_matrix(dist, n, derive_seed64(0, "eks", n, r)),
                                     scale=True).values.imag == 0.0)
        for r in range(REPS)
    ])
    stderr = counts.std(ddof=1) / math.sqrt(REPS)
    assert abs(counts.mean() - expected_real_count(n)) <= 4.0 * stderr
