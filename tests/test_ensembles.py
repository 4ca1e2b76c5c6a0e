import math

import numpy as np
import pytest

from thinspec.ensembles import (
    AtomDistribution,
    ComplexMatrix,
    DistributionError,
    atom_moments,
    sample_atoms,
    sample_matrix,
)
from thinspec.seeding import make_rng


def test_builtin_moments_table():
    cg = atom_moments(AtomDistribution("complex-gaussian"))
    assert (cg.mean, cg.abs_second, cg.second, cg.abs_fourth) == (0j, 1.0, 0j, 2.0)
    rg = atom_moments(AtomDistribution("real-gaussian"))
    assert (rg.mean, rg.abs_second, rg.second, rg.abs_fourth) == (0j, 1.0, 1.0 + 0j, 3.0)
    ra = atom_moments(AtomDistribution("rademacher"))
    assert (ra.mean, ra.abs_second, ra.second, ra.abs_fourth) == (0j, 1.0, 1.0 + 0j, 1.0)


def test_custom_discrete_moments():
    # symmetric three-atom distribution: +-sqrt(2) w.p. 1/4 each, 0 w.p. 1/2
    dist = AtomDistribution(
        "custom-discrete", atoms=(math.sqrt(2), -math.sqrt(2), 0.0), probs=(0.25, 0.25, 0.5)
    )
    m = atom_moments(dist)
    assert m.mean == 0j
    assert m.abs_second == pytest.approx(1.0, abs=1e-15)
    assert m.second == pytest.approx(1.0 + 0j, abs=1e-15)
    assert m.abs_fourth == pytest.approx(2.0, abs=1e-15)
    assert dist.is_real


@pytest.mark.parametrize(
    "atoms,probs",
    [
        ((1.0, -1.0), (0.6, 0.6)),  # probs do not sum to 1
        ((1.0, -0.5), (0.5, 0.5)),  # nonzero mean
        ((2.0, -2.0), (0.5, 0.5)),  # E|xi|^2 != 1
        ((1.0,), (-1.0,)),  # negative probability
        ((), ()),  # empty support
        ((1e100, -1e100), (0.5, 0.5)),  # E|xi|^4 overflows float64
        ((1e200, -1e200), (0.5, 0.5)),  # E|xi|^2 overflows float64
        # a value that is no number, or no list or tuple of them
        ((1, -1), ("0.5", "0.5")),
        ((7, 1, -1), (False, 0.5, 0.5)),
        (("1", "-1"), (0.5, 0.5)),
        (5, (1.0,)),
        ((1,), 5),
        # an integer past float64's range, which used to raise OverflowError
        ((10**400, -1.0), (0.5, 0.5)),
        ((-10**400, 1), (0.5, 0.5)),
        ((1.0, -1.0), (10**400, 0.5)),
    ],
)
def test_custom_discrete_rejects_bad_parameters(atoms, probs):
    with pytest.raises(DistributionError):
        AtomDistribution("custom-discrete", atoms=atoms, probs=probs)


def test_unknown_kind_rejected():
    with pytest.raises(DistributionError):
        AtomDistribution("cauchy")


def test_rademacher_support():
    m = sample_matrix(AtomDistribution("rademacher"), 2, seed=3)
    assert np.all(np.isin(m.entries.real, (-1.0, 1.0)))
    assert np.all(m.entries.imag == 0.0)


def test_seed_determinism():
    dist = AtomDistribution("complex-gaussian")
    a = sample_matrix(dist, 32, seed=9)
    b = sample_matrix(dist, 32, seed=9)
    assert np.array_equal(a.entries, b.entries)
    c = sample_matrix(dist, 32, seed=10)
    assert not np.array_equal(a.entries, c.entries)


def test_complex_gaussian_mean_is_clt_small():
    # CLT scale for 500x500 entries is ~1/500; 0.05 leaves a wide margin
    m = sample_matrix(AtomDistribution("complex-gaussian"), 500, seed=12)
    assert abs(m.entries.mean()) <= 0.05


def test_matrix_validation():
    with pytest.raises(ValueError):
        ComplexMatrix(entries=np.zeros((2, 3), complex))
    with pytest.raises(ValueError):
        ComplexMatrix(entries=np.array([[np.inf]], complex))
    with pytest.raises(ValueError):
        ComplexMatrix(entries=np.array([[np.nan]]))
    with pytest.raises(ValueError):
        ComplexMatrix(entries=np.zeros((2, 3)))
    with pytest.raises(ValueError):
        ComplexMatrix(entries=np.zeros(4))
    assert ComplexMatrix(entries=np.zeros((3, 3))).n == 3
    with pytest.raises(ValueError):
        sample_matrix(AtomDistribution("rademacher"), 0, seed=1)


@pytest.mark.parametrize(
    "dist",
    [
        AtomDistribution("complex-gaussian"),
        AtomDistribution("real-gaussian"),
        AtomDistribution("rademacher"),
        AtomDistribution("custom-discrete", atoms=(1j, -1j, 1.0, -1.0), probs=(0.25,) * 4),
    ],
    ids=lambda d: d.kind,
)
def test_monte_carlo_moments_match_analytic(dist):
    # 1e6 draws; every analytic moment within 5 empirical standard errors
    exact = atom_moments(dist)
    draws = sample_atoms(dist, 1_000_000, make_rng(2024))
    count = draws.size

    def within(samples, target):
        se = max(samples.std() / math.sqrt(count), 1e-12)
        return abs(samples.mean() - target) <= 5 * se

    assert within(draws.real, exact.mean.real)
    assert within(draws.imag, exact.mean.imag)
    assert within(np.abs(draws) ** 2, exact.abs_second)
    assert within((draws**2).real, exact.second.real)
    assert within((draws**2).imag, exact.second.imag)
    assert within(np.abs(draws) ** 4, exact.abs_fourth)
