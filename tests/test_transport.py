import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from thinspec import transport
from thinspec.lattice import MIN_N, lattice
from thinspec.seeding import derive_seed64
from thinspec.transport import (
    _COST_ROWS,
    GridSpec,
    TransportCapError,
    cell_counts,
    default_grid,
    grid_pairing,
    uniform_disk_sample,
    w1_exact,
    w1_to_disk,
)


def brute_force_w1(a, b):
    """Independent oracle: minimum over all permutations (n <= 8)."""
    a, b = np.asarray(a, complex), np.asarray(b, complex)
    n = a.size
    cost = np.abs(a[:, None] - b[None, :])
    perms = np.array(list(itertools.permutations(range(n))))
    totals = cost[np.arange(n), perms].sum(axis=1)
    return totals.min() / n


def random_points(rng, n, scale=1.0):
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def test_w1_exact_trivial_cases():
    rng = np.random.default_rng(0)
    a = random_points(rng, 6)
    assert w1_exact(a, a).value == 0.0
    assert w1_exact(a, a[rng.permutation(6)]).value == pytest.approx(0.0, abs=1e-15)
    assert w1_exact([0.0], [1.0]).value == 1.0
    # frozen from the brute-force oracle: optimal shift costs 0.5 per point
    assert w1_exact([0, 1, 2], [0.5, 1.5, 2.5]).value == pytest.approx(0.5, abs=1e-15)
    assert brute_force_w1([0, 1, 2], [0.5, 1.5, 2.5]) == pytest.approx(0.5, abs=1e-15)


def test_w1_exact_matches_brute_force():
    rng = np.random.default_rng(123)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        a, b = random_points(rng, n), random_points(rng, n)
        result = w1_exact(a, b)
        assert result.value == pytest.approx(brute_force_w1(a, b), abs=1e-12)
        # reported permutation reproduces the reported value
        assert result.value == pytest.approx(
            np.abs(a - b[result.permutation]).sum() / n, abs=1e-12
        )
        assert sorted(result.permutation) == list(range(n))


def test_w1_exact_errors(monkeypatch):
    with pytest.raises(ValueError):
        w1_exact([0.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        w1_exact([], [])
    with pytest.raises(TransportCapError):
        w1_exact(np.zeros(4097, complex), np.zeros(4097, complex))
    monkeypatch.setattr(transport, "DEFAULT_EXACT_CAP", 10)
    w1_exact(np.zeros(10, complex), np.zeros(10, complex))
    with pytest.raises(TransportCapError):
        w1_exact(np.zeros(11, complex), np.zeros(11, complex))


@pytest.mark.parametrize("n", [1, _COST_ROWS - 1, _COST_ROWS, _COST_ROWS + 1, 200])
def test_row_blocked_cost_gives_the_same_matching(n):
    rng = np.random.default_rng(n)
    a = random_points(rng, n)
    # duplicate points: the lattice pins its last points to z = 1
    b = lattice(n) if n >= MIN_N else np.ones(n, dtype=complex)
    result = w1_exact(a, b)  # first, so its cost cannot reuse the reference's memory
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert np.array_equal(rows, np.arange(n))
    assert np.array_equal(result.permutation, cols)
    assert result.value == float(cost[rows, cols].sum() / n)


def test_w1_exact_memory_is_the_cost_matrix_and_one_block():
    # the whole-matrix complex difference alone was twice the cost matrix
    n = 512
    rng = np.random.default_rng(5)
    a, b = random_points(rng, n), random_points(rng, n)
    tracemalloc.start()
    try:
        w1_exact(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * n * n


def test_w1_metric_properties():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        a, b, c = (random_points(rng, n) for _ in range(3))
        ab, ba = w1_exact(a, b).value, w1_exact(b, a).value
        assert ab == pytest.approx(ba, abs=1e-12)
        assert ab >= 0
        # triangle inequality
        assert ab <= w1_exact(a, c).value + w1_exact(c, b).value + 1e-9
    # identity of indiscernibles: zero iff equal as multisets
    a = random_points(rng, 5)
    assert w1_exact(a, a[::-1]).value == pytest.approx(0.0, abs=1e-15)
    b = a.copy()
    b[0] += 0.5
    assert w1_exact(a, b).value > 0.01


def test_w1_scale_equivariance():
    rng = np.random.default_rng(8)
    a, b = random_points(rng, 6), random_points(rng, 6)
    base = w1_exact(a, b).value
    for c in (2.0, -3.0, 1j, 0.5 - 0.25j):
        assert w1_exact(c * a, c * b).value == pytest.approx(abs(c) * base, rel=1e-12)


def test_default_grid_examples():
    g = default_grid(256, 1.25)
    assert (g.cells_per_axis, g.cell_side) == (10, 0.25)
    g = default_grid(16, 2.0)
    assert g.cells_per_axis == 8
    assert g.cell_count == 64
    for n, c in [(10, 1.1), (100, 1.25), (5000, 3.0)]:
        g = default_grid(n, c)
        assert g.cell_side * g.cells_per_axis == pytest.approx(2 * c, rel=1e-12)
        assert g.cell_side <= n**-0.25 * (1 + 1e-9)


def test_odd_grid_keeps_the_real_axis_inside_a_row():
    x = np.linspace(-0.9, 0.9, 7)
    for n in (32, 64, 256, 1024):
        even, odd = default_grid(n, 1.25), default_grid(n, 1.25, odd=True)
        assert odd.cells_per_axis == even.cells_per_axis | 1
        assert odd.cell_side <= n**-0.25 * (1 + 1e-9)
        cells = [odd.cell_indices(x + 1j * t) for t in (0.0, 1e-15, -1e-15)]
        assert all(np.array_equal(cells[0], c) for c in cells)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(bound=1.0, cells_per_axis=4)
    with pytest.raises(ValueError):
        GridSpec(bound=2.0, cells_per_axis=0)


def test_grid_pairing_identical_points():
    rng = np.random.default_rng(2)
    a = random_points(rng, 40, scale=0.4)
    result = grid_pairing(a, a, default_grid(40, 1.25))
    assert result.value == 0.0
    assert result.bad_count == 0


def test_grid_pairing_forced_bad_pair():
    grid = default_grid(16, 2.0)  # cell side 0.5
    a = np.array([0.1 + 0.1j])
    b = np.array([0.1 + 2 * grid.cell_side + 0.1j])
    result = grid_pairing(a, b, grid)
    assert result.bad_count == 1
    assert result.value == pytest.approx(abs(a[0] - b[0]), abs=1e-15)


def test_grid_pairing_overflow_cell_is_bad():
    grid = default_grid(16, 2.0)
    a = np.array([10.0 + 10.0j])  # outside [-2, 2)^2 for both sets
    b = np.array([10.5 + 10.0j])
    result = grid_pairing(a, b, grid)
    assert result.bad_count == 1
    assert cell_counts(a, grid)[-1] == cell_counts(b, grid)[-1] == 1  # overflow cell holds both


def test_grid_pairing_dominates_exact():
    rng = np.random.default_rng(77)
    for trial in range(30):
        n = int(rng.integers(2, 120))
        a, b = random_points(rng, n, 0.5), random_points(rng, n, 0.5)
        grid = default_grid(n, 1.25)
        gp = grid_pairing(a, b, grid)
        assert gp.value >= w1_exact(a, b).value
        assert sorted(gp.permutation) == list(range(n))


def test_grid_pairing_dominates_on_spectra():
    # independent Ginibre spectra, the coupling's home turf
    from thinspec.ensembles import AtomDistribution, sample_matrix
    from thinspec.spectral import eigenvalues

    dist = AtomDistribution("complex-gaussian")
    a = eigenvalues(sample_matrix(dist, 256, seed=31), scale=True).values
    b = eigenvalues(sample_matrix(dist, 256, seed=32), scale=True).values
    grid = default_grid(256, 1.25)
    gp = grid_pairing(a, b, grid)
    exact = w1_exact(a, b)
    assert gp.value >= exact.value
    assert gp.bad_count is not None and gp.bad_count < 256


def test_grid_pairing_bookkeeping():
    n = 100
    # disk samples stay inside the grid, so the overflow cell is empty
    a, b = uniform_disk_sample(n, seed=13), uniform_disk_sample(n, seed=14)
    grid = default_grid(n, 1.25)
    result = grid_pairing(a, b, grid)
    counts_a, counts_b = cell_counts(a, grid), cell_counts(b, grid)
    paired_in_cell = np.minimum(counts_a, counts_b).sum()
    leftover = n - paired_in_cell
    assert counts_a.sum() == counts_b.sum() == n
    # bad pairs are exactly the leftovers here (nothing in the overflow cell)
    assert counts_a[-1] == counts_b[-1] == 0
    assert result.bad_count == leftover


def _coupling_digest(a, b, grid):
    """SHA-256 prefix of grid_pairing's output (permutation bytes, value, bad count)
    and of each cell's (count in a, count in b)."""
    result = grid_pairing(a, b, grid)
    assert result.permutation.dtype == np.int64
    digest = hashlib.sha256(result.permutation.tobytes())
    counts = tuple(zip(cell_counts(a, grid).tolist(), cell_counts(b, grid).tolist()))
    digest.update(repr((result.value, result.bad_count, counts)).encode())
    return digest.hexdigest()[:16]


def _coupling_inputs(case):
    rng = np.random.default_rng(sum(map(ord, case)))
    pts = lambda n, scale: random_points(rng, n, scale)  # noqa: E731
    if case == "n1_apart":
        return [0.3 + 0.2j], [-0.9 - 0.9j], default_grid(1)
    if case == "duplicates":  # each point four times, b a shuffled near-copy
        a = np.repeat(pts(5, 0.5), 4)
        return a, rng.permutation(a) + 0.01, default_grid(20)
    if case == "lattice_pins":  # b's last points all sit at z = 1
        return pts(64, 0.6), lattice(64), default_grid(64, odd=True)
    if case == "overflow":  # many points of both sets outside the grid
        return pts(50, 1.5), pts(50, 1.5), default_grid(50, 1.1)
    if case == "unequal":  # a crowds the middle cells, b spreads and shifts
        return pts(120, 0.2), pts(120, 0.9) + 0.3, GridSpec(bound=1.7, cells_per_axis=9)
    assert case == "one_cell"
    return pts(299, 1.0), pts(299, 1.0), GridSpec(bound=1.25, cells_per_axis=1)


# To hold across versions of grid_pairing: n=1, duplicate points, points in
# the overflow cell, empty cells and cells with unequal counts.
COUPLING_PINS = {
    "n1_apart": "ca6eebeddb14c8c0",
    "duplicates": "ab8a072a10f72cc4",
    "lattice_pins": "10c4e174048078a0",
    "overflow": "023f645c4dbaf9bc",
    "unequal": "2d61a94963a46426",
    "one_cell": "02b2966169ab11d2",
}


@pytest.mark.parametrize("case", COUPLING_PINS)
def test_grid_pairing_outputs_are_pinned(case):
    assert _coupling_digest(*_coupling_inputs(case)) == COUPLING_PINS[case]


@pytest.mark.parametrize("case", COUPLING_PINS)
def test_grid_pairing_pairs_in_cell_by_index_order(case):
    a, b, grid = _coupling_inputs(case)
    result = grid_pairing(a, b, grid)
    perm, cells_a, cells_b = result.permutation, grid.cell_indices(a), grid.cell_indices(b)
    in_cell = cells_a == cells_b[perm]
    assert np.array_equal(np.sort(perm), np.arange(perm.size))
    # every cell pairs as many points as both sets have there
    pairs = np.bincount(cells_a[in_cell], minlength=grid.cell_count + 1)
    assert np.array_equal(pairs, np.minimum(cell_counts(a, grid), cell_counts(b, grid)))
    for cell in np.unique(cells_a[in_cell]):
        src = np.flatnonzero(in_cell & (cells_a == cell))
        # the first points of each set in this cell, in ascending index order
        assert np.array_equal(src, np.flatnonzero(cells_a == cell)[:src.size])
        assert np.array_equal(perm[src], np.flatnonzero(cells_b == cell)[:src.size])
    # the rest pair in ascending index order on both sides
    assert np.all(np.diff(perm[~in_cell]) > 0)
    overflow = cells_a == grid.cell_count
    assert result.bad_count == np.count_nonzero(~in_cell | overflow)


def test_cell_counts_total():
    rng = np.random.default_rng(3)
    pts = random_points(rng, 200, 0.6)
    grid = default_grid(200, 1.25)
    counts = cell_counts(pts, grid)
    assert counts.sum() == 200
    assert counts.size == grid.cell_count + 1


def test_uniform_disk_sample_statistics():
    pts = uniform_disk_sample(1_000_000, seed=99)
    mods = np.abs(pts)
    assert mods.max() <= 1.0
    assert mods.mean() == pytest.approx(2.0 / 3.0, abs=0.002)  # E|U| = 2/3
    se = pts.real.std() / 1000.0
    assert abs(pts.real.mean()) <= 3 * se + 1e-4
    assert abs(pts.imag.mean()) <= 3 * se + 1e-4
    # determinism
    assert np.array_equal(uniform_disk_sample(10, seed=4), uniform_disk_sample(10, seed=4))


def test_w1_to_disk_lattice_method_identity():
    from thinspec.lattice import lattice

    pts = lattice(64)
    assert w1_to_disk(pts, method="lattice") == 0.0


def test_w1_to_disk_point_mass():
    # W1(delta_0, disk) = E|U| = 2/3
    z = np.zeros(2000, complex)
    value = w1_to_disk(z, method="sample", seed=3)
    assert value == pytest.approx(2.0 / 3.0, abs=0.02)


def test_w1_to_disk_sample_matches_one_disk_sample():
    # the uniform-disk sample of seed derive_seed64(seed, "disk-rep", 0)
    rng = np.random.default_rng(21)
    pts = random_points(rng, 30, 0.4)
    ref = uniform_disk_sample(30, derive_seed64(11, "disk-rep", 0))
    assert w1_to_disk(pts, method="sample", seed=11) == w1_exact(pts, ref).value
    with pytest.raises(ValueError):
        w1_to_disk(pts, method="unknown")
