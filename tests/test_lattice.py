import cmath
import math

import numpy as np
import pytest

from thinspec.lattice import (
    MIN_N,
    lattice,
    lattice_params,
    predicted_location,
    ring_and_slot,
)


@pytest.mark.parametrize(
    "n,sqrt_ceil,boundary",
    [(16, 4, 12), (81, 9, 32), (100, 10, 36), (9, 3, 8), (17, 5, 8)],
)
def test_params_examples(n, sqrt_ceil, boundary):
    p = lattice_params(n)
    assert (p.sqrt_ceil, p.boundary_count) == (sqrt_ceil, boundary)
    assert (p.sqrt_ceil - 1) ** 2 <= n <= p.sqrt_ceil**2
    assert 2 * math.sqrt(n) - 3 <= p.boundary_count <= 4 * math.sqrt(n)


def test_params_rejects_small_n():
    for n in (0, 1, 8):
        with pytest.raises(ValueError):
            lattice_params(n)
    lattice_params(MIN_N)


def test_params_invariants_exhaustive_small():
    for n in range(9, 20001):
        p = lattice_params(n)
        assert (p.sqrt_ceil - 1) ** 2 <= n <= p.sqrt_ceil**2
        assert n - p.boundary_count == (p.sqrt_ceil - 2) ** 2
        assert 2 * math.sqrt(n) - 3 <= p.boundary_count <= 4 * math.sqrt(n)


def test_predicted_location_examples():
    assert predicted_location(1, 16) == 0
    assert predicted_location(1, 1000) == 0
    expected = 0.25 * cmath.exp(2j * cmath.pi / 3)  # ring 2, slot 1
    assert predicted_location(2, 16) == pytest.approx(expected, abs=1e-15)
    # indices past the formula range are pinned to 1
    for i in range(5, 17):
        assert predicted_location(i, 16) == 1
    with pytest.raises(IndexError):
        predicted_location(17, 16)
    with pytest.raises(IndexError):
        predicted_location(0, 16)


def test_ring_and_slot():
    assert ring_and_slot(1) == (1, 1)
    assert ring_and_slot(2) == (2, 1)
    assert ring_and_slot(4) == (2, 3)
    assert ring_and_slot(5) == (3, 1)
    assert ring_and_slot(9) == (3, 5)


def test_bulk_matches_scalar():
    for n in (9, 16, 100, 257):
        points = lattice(n)
        for i in (1, 2, n // 2, n):
            assert points[i - 1] == predicted_location(i, n)


def test_point_counts():
    points = lattice(16)
    assert isinstance(points, np.ndarray)
    assert points.dtype == np.complex128 and points.shape == (16,)
    assert np.sum(points == 1) >= 12  # the 12 boundary points
    assert lattice_params(16).formula_count == 4
    points = lattice(100)
    assert lattice_params(100).formula_count == 64
    assert np.sum(points[64:] == 1) == 36


def test_modulus_at_most_one():
    for n in (9, 50, 256, 1234):
        assert np.all(np.abs(lattice(n)) <= 1.0 + 1e-15)


def test_ring_structure():
    # points sharing a ring share a modulus and spread over 2*ring-1 angles
    n = 100
    points = lattice(n)
    for ring in (2, 3, 5, 8):
        lo, hi = (ring - 1) ** 2 + 1, ring * ring
        if hi > lattice_params(n).formula_count:
            continue
        ring_points = points[lo - 1 : hi]
        mods = np.abs(ring_points)
        assert np.allclose(mods, (ring - 1) / math.sqrt(n), atol=1e-15)
        args = np.sort(np.angle(ring_points))
        gaps = np.diff(args)
        assert len(ring_points) == 2 * ring - 1
        assert np.allclose(gaps, 2 * math.pi / (2 * ring - 1), atol=1e-12)


def test_formula_point_modulus_rule():
    n = 400
    points = lattice(n)
    for i in (1, 5, 37, lattice_params(n).formula_count):
        ring, _ = ring_and_slot(i)
        assert abs(points[i - 1]) == pytest.approx(
            (ring - 1) / math.sqrt(n), abs=1e-15
        )


def test_lattice_disk_distance_decreases():
    # thinned to a trend check; acceptance covers matrix-spectrum decay
    from thinspec.transport import uniform_disk_sample, w1_exact

    means = []
    for n in (16, 64, 256):
        vals = [
            w1_exact(lattice(n), uniform_disk_sample(n, 77 + r)).value
            for r in range(3)
        ]
        means.append(np.mean(vals))
    assert means[0] > means[1] > means[2]
