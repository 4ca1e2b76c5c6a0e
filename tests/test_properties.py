"""Property tests of the paper's structural claims: the spiral order is a total
order, the grid and spiral couplings dominate exact W1, and kept + removed = full."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from thinspec.ensembles import AtomDistribution, sample_matrix
from thinspec.lattice import lattice
from thinspec.spectral import ComplexSpectrum, eigenvalues, spiral_compare, spiral_sort
from thinspec.stats import (
    BUILTIN_FUNCTIONS,
    IndexSet,
    function_by_id,
    linear_statistic,
    partial_statistic,
)
from thinspec.transport import default_grid, grid_pairing, uniform_disk_sample, w1_exact

angles = st.floats(0.0, 2.0 * math.pi)


def points(n, max_magnitude=2.0):
    """0, positive reals, points on a ring boundary k/sqrt(n), and general points."""
    ring = st.tuples(st.integers(1, 2 * math.isqrt(n) + 2), angles).map(
        lambda ka: ka[0] / math.sqrt(n) * cmath.exp(1j * ka[1]))
    return st.one_of(
        st.just(0j),
        st.floats(0.0, max_magnitude, exclude_min=True).map(complex),
        ring,
        st.complex_numbers(max_magnitude=max_magnitude, allow_nan=False, allow_infinity=False),
    )


@given(st.data())
def test_spiral_order_is_a_total_order(data):
    n = data.draw(st.integers(1, 10))
    zs = data.draw(st.lists(points(n), min_size=n, max_size=n))
    for a in zs:
        assert spiral_compare(a, a, n) == 0
        for b in zs:
            assert spiral_compare(a, b, n) == -spiral_compare(b, a, n)
            for c in zs:
                if spiral_compare(a, b, n) <= 0 and spiral_compare(b, c, n) <= 0:
                    assert spiral_compare(a, c, n) <= 0
    # spiral_sort orders by its own vectorized keys; check it with the comparator
    values = spiral_sort(ComplexSpectrum(np.array(zs), scaled=True)).values.tolist()
    assert sorted(values, key=repr) == sorted(zs, key=repr)
    assert all(spiral_compare(w, z, n) <= 0 for w, z in zip(values, values[1:]))


@given(st.data())
def test_grid_coupling_dominates_exact_w1(data):
    n = data.draw(st.integers(1, 64))
    pair = st.lists(points(n, max_magnitude=1.6), min_size=n, max_size=n)
    a, b = np.array(data.draw(pair)), np.array(data.draw(pair))
    coupling = grid_pairing(a, b, default_grid(n))
    assert sorted(coupling.permutation.tolist()) == list(range(n))
    assert coupling.value >= w1_exact(a, b).value * (1 - 1e-12)


@pytest.mark.parametrize("n", [9, 64, 256])
@pytest.mark.parametrize("source", ["ginibre", "disk"])
def test_spiral_coupling_dominates_exact_w1(source, n):
    # the i-th point in spiral order paired with the i-th predicted location
    points = lattice(n).points
    for seed in range(3):
        if source == "ginibre":
            values = eigenvalues(sample_matrix(AtomDistribution("complex-gaussian"), n, seed),
                                 scale=True).values
        else:
            values = uniform_disk_sample(n, seed)
        spiral = spiral_sort(ComplexSpectrum(values, scaled=True)).values
        coupling = np.mean(np.abs(spiral - points))
        assert coupling >= w1_exact(values, points).value * (1 - 1e-12)


@given(st.data())
def test_kept_plus_removed_is_full(data):
    n = data.draw(st.integers(1, 40))
    finite = st.floats(-1e6, 1e6, allow_nan=False)
    zs = data.draw(st.lists(st.builds(complex, finite, finite), min_size=n, max_size=n))
    removed_at = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    f = function_by_id(data.draw(st.sampled_from(sorted(BUILTIN_FUNCTIONS))))
    spectrum = ComplexSpectrum(np.array(zs), scaled=True)
    kept, removed = partial_statistic(spectrum, f, IndexSet(n, np.sort(removed_at)))
    full = linear_statistic(spectrum, f)
    for part in ("real", "imag"):
        k, r, total = getattr(kept, part), getattr(removed, part), getattr(full, part)
        assert abs((k + r) - total) <= math.ulp(max(abs(k), abs(r), abs(total)))
