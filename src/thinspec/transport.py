"""Wasserstein-1 machinery for equal-size empirical measures.

`w1_exact` solves the min-cost perfect matching (the W1 optimum for uniform
empirical measures of equal size); `grid_pairing` builds the cheaper
cell-by-cell coupling whose cost always dominates the exact value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .seeding import derive_seed64, make_rng

DEFAULT_EXACT_CAP = 4096
# The estimators of `w1_to_disk`.
W1_METHODS = ("sample", "lattice")
# Rows of w1_exact's cost matrix built per step.  A step's complex128
# differences take 16 * _COST_ROWS * n bytes (1 MiB at the cap), a fraction
# 2 * _COST_ROWS / n of the float64 cost matrix.
_COST_ROWS = 16


class TransportCapError(ValueError):
    """Instance exceeds DEFAULT_EXACT_CAP, the size cap of the exact solver."""


@dataclass(frozen=True)
class GridSpec:
    """Partition of the square [-C, C)^2 into cells_per_axis^2 equal cells."""

    bound: float  # C: half-side of the covering square, > 1
    cells_per_axis: int

    def __post_init__(self):
        if self.bound <= 1.0:
            raise ValueError("grid bound C must exceed 1")
        if self.cells_per_axis < 1:
            raise ValueError("cells_per_axis must be >= 1")

    @property
    def cell_side(self) -> float:
        return 2.0 * self.bound / self.cells_per_axis

    @property
    def cell_count(self) -> int:
        return self.cells_per_axis ** 2

    def cell_indices(self, points: np.ndarray) -> np.ndarray:
        """Cell id per point; points outside [-C, C)^2 get the overflow id.

        Real cells are numbered 0 .. cell_count-1 row by row; the synthetic
        overflow cell is cell_count.
        """
        points = np.asarray(points, dtype=np.complex128)
        ix = np.floor((points.real + self.bound) / self.cell_side).astype(np.int64)
        iy = np.floor((points.imag + self.bound) / self.cell_side).astype(np.int64)
        m = self.cells_per_axis
        inside = (ix >= 0) & (ix < m) & (iy >= 0) & (iy < m)
        return np.where(inside, iy * m + ix, self.cell_count)


@dataclass(frozen=True)
class TransportResult:
    """Pairing permutation and its average transport cost.

    `permutation[k]` is the 0-based index in `b` matched to `a[k]`, and
    `value` is (1/n) * sum_k |a_k - b_perm(k)|.  `bad_count` is populated
    by the grid method only; `cell_counts` gives each set's occupancy there.
    """

    permutation: np.ndarray
    value: float
    bad_count: int | None = None


def _as_points(a) -> np.ndarray:
    arr = np.ascontiguousarray(a, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError("point sets must be 1-D")
    return arr


def _as_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """`a` and `b` as point sets of one nonempty size."""
    a, b = _as_points(a), _as_points(b)
    if a.size != b.size:
        raise ValueError(f"point sets must have equal size, got {a.size} and {b.size}")
    if a.size == 0:
        raise ValueError("point sets must be nonempty")
    return a, b


def w1_exact(a, b) -> TransportResult:
    """Exact W1 between the uniform empirical measures of a and b.

    Solves the assignment problem on the |a_i - b_j| cost matrix; O(n^3)
    time, capped at DEFAULT_EXACT_CAP points (4096, a few minutes at the cap).
    The float64 cost matrix is built _COST_ROWS rows at a time, so memory is
    8n^2 bytes (128 MiB at the cap) plus one block of complex differences.
    """
    a, b = _as_pair(a, b)
    n = a.size
    if n > DEFAULT_EXACT_CAP:
        raise TransportCapError(f"n={n} exceeds exact-solver cap {DEFAULT_EXACT_CAP}")
    cost = np.empty((n, n))
    for i in range(0, n, _COST_ROWS):
        np.abs(a[i:i + _COST_ROWS, None] - b, out=cost[i:i + _COST_ROWS])
    rows, perm = linear_sum_assignment(cost)  # rows is arange(n)
    value = float(cost[rows, perm].sum() / n)
    return TransportResult(permutation=perm, value=value)


def grid_pairing(a, b, grid: GridSpec) -> TransportResult:
    """Cell-by-cell coupling of a to b on `grid`.

    A point's rank is its place among its cell's points in index order.  In
    each cell the points of rank below min(count_a, count_b) pair by rank;
    the leftovers pair in ascending index order across the whole set.  An
    index is bad when its pair is not co-located in a real cell (leftover
    pairs and overflow-cell pairs).  The reported value always dominates
    `w1_exact` on the same inputs.
    """
    a, b = _as_pair(a, b)
    n = a.size
    cells_a, cells_b = grid.cell_indices(a), grid.cell_indices(b)
    counts_a, counts_b = _occupancy(cells_a, grid), _occupancy(cells_b, grid)
    pairs = np.minimum(counts_a, counts_b)
    in_cell_a, leftover_a = _split_by_rank(cells_a, counts_a, pairs)
    in_cell_b, leftover_b = _split_by_rank(cells_b, counts_b, pairs)
    perm = np.empty(n, dtype=np.int64)
    perm[in_cell_a] = in_cell_b
    perm[leftover_a] = leftover_b

    value = float(np.abs(a - b[perm]).sum() / n)
    return TransportResult(permutation=perm, value=value, bad_count=int(n - pairs[:-1].sum()))


def _split_by_rank(cells, counts, pairs) -> tuple[np.ndarray, np.ndarray]:
    """Indices of rank below their cell's `pairs`, by cell then rank; the rest ascending."""
    order = np.argsort(cells, kind="stable")
    sorted_cells = cells[order]
    rank = np.arange(cells.size) - (np.cumsum(counts) - counts)[sorted_cells]
    in_cell = rank < pairs[sorted_cells]
    return order[in_cell], np.sort(order[~in_cell])


def _occupancy(cells, grid: GridSpec) -> np.ndarray:
    return np.bincount(cells, minlength=grid.cell_count + 1)


def cell_counts(points, grid: GridSpec) -> np.ndarray:
    """Occupancy of every grid cell; the last entry is the overflow cell."""
    return _occupancy(grid.cell_indices(_as_points(points)), grid)


def default_grid(n: int, bound: float = 1.25, odd: bool = False) -> GridSpec:
    """Grid whose cell side is at most n^(-1/4) in scaled coordinates.

    With `odd` the count per axis is rounded up to an odd number, so the
    real axis runs through the middle of a row of cells, not along a cell
    edge where half-open cells would put every real eigenvalue in the row
    above it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    target = 2.0 * bound * n ** 0.25
    m = math.ceil(target - 1e-9)  # guard against float fuzz just above an integer
    if odd:
        m |= 1
    return GridSpec(bound=bound, cells_per_axis=m)


def disk_points(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform draws from the closed unit disk (radius sqrt(u), angle uniform)."""
    radius = np.sqrt(rng.random(shape))
    theta = 2.0 * np.pi * rng.random(shape)
    return radius * np.exp(1j * theta)


def uniform_disk_sample(count: int, seed: int) -> np.ndarray:
    """`count` iid uniform points on the closed unit disk."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return disk_points(make_rng(seed), count)


def w1_to_disk(points, method: str = "sample", reps: int = 1, seed: int = 0) -> float:
    """Estimated W1 from the empirical measure of `points` to the disk law.

    method "lattice" matches against the predicted-location lattice (bias =
    lattice-to-disk distance); method "sample" averages exact matchings
    against `reps` >= 1 uniform-disk samples, the r-th drawn from seed
    `derive_seed64(seed, "disk-rep", r)`.
    """
    points = _as_points(points)
    if method == "lattice":
        from .lattice import lattice

        return w1_exact(points, lattice(points.size).points).value
    if method == "sample":
        if reps < 1:
            raise ValueError("reps must be >= 1")
        refs = (uniform_disk_sample(points.size, derive_seed64(seed, "disk-rep", r))
                for r in range(reps))
        return float(np.mean([w1_exact(points, ref).value for ref in refs]))
    raise ValueError(f"unknown method {method!r}")
