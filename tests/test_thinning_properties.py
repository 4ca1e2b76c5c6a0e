"""Property tests of the removal pmf and its near-binomial bound (pmf <= bound)."""

import math

from hypothesis import given, strategies as st

from thinspec.experiments import _SCAN_NORMAL_N, _thinning_scan_for_n
from thinspec.stats import _binomial_pmf, hypergeom_removal_pmf, near_binomial_bound


@st.composite
def population_and_sizes(draw, n_max=300):
    n = draw(st.integers(1, n_max))
    return n, draw(st.integers(1, n)), draw(st.integers(0, n))


@given(population_and_sizes(), st.data())
def test_pmf_is_at_most_the_bound(sizes, data):
    n, k, j_size = sizes
    j = data.draw(st.integers(0, k))
    pmf = hypergeom_removal_pmf(n, k, j_size, j)
    assert pmf <= near_binomial_bound(n, k, j_size, j) * (1 + 1e-12)


@given(population_and_sizes())
def test_pmf_sums_to_one(sizes):
    n, k, j_size = sizes
    total = math.fsum(hypergeom_removal_pmf(n, k, j_size, j) for j in range(k + 1))
    assert abs(total - 1.0) <= 1e-12


@given(population_and_sizes(n_max=_SCAN_NORMAL_N), st.data())
def test_feasible_pmf_and_binomial_are_normal_doubles(sizes, data):
    # the scan's filter clears slices on this fact for every n up to the n_max
    # cap: each feasible value is at least 2^-n >= 2^-1021, above the subnormal range
    n, k, j_size = sizes
    j = data.draw(st.integers(max(0, k - j_size), min(k, n - j_size)))
    assert hypergeom_removal_pmf(n, k, j_size, j) >= 2.0 ** -n
    assert _binomial_pmf(k, 1.0 - j_size / n, j) >= 2.0 ** -n


def test_scan_rows_hold_the_bound():
    # exhaustive over every n <= 40, so no sampling
    for n in range(1, 41):
        row = _thinning_scan_for_n(n)
        assert row["violations"] == 0
        assert 0.0 < row["worst_ratio"] <= 1.0
