"""Deterministic predicted eigenvalue locations on concentric rings.

For n points the construction fills rings of radius (ring-1)/sqrt(n) with
2*ring - 1 equally spaced points each; the final `boundary_count` points,
whose ring would spill past the unit circle, are pinned to the point 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MIN_N = 9  # below this the construction degenerates (fewer than one full ring)


@dataclass(frozen=True)
class LatticeParams:
    """Structural parameters of the predicted-location construction.

    `sqrt_ceil` is the least integer whose square is >= n (so that
    (sqrt_ceil - 1)^2 <= n <= sqrt_ceil^2) and `boundary_count` is
    n - (sqrt_ceil - 2)^2, the number of trailing points pinned to 1.
    """

    n: int
    sqrt_ceil: int
    boundary_count: int

    @property
    def formula_count(self) -> int:
        """Number of leading points placed by the ring formula."""
        return self.n - self.boundary_count


@dataclass(frozen=True)
class PredictedLattice:
    params: LatticeParams
    points: np.ndarray  # length n, complex128


def lattice_params(n: int) -> LatticeParams:
    """(sqrt_ceil, boundary_count) for n >= 9; sqrt_ceil is n's ring under `ring_and_slot`."""
    if n < MIN_N:
        raise ValueError(f"lattice construction requires n >= {MIN_N}, got {n}")
    sqrt_ceil = ring_and_slot(n)[0]
    boundary_count = n - (sqrt_ceil - 2) ** 2
    return LatticeParams(n=n, sqrt_ceil=sqrt_ceil, boundary_count=boundary_count)


def ring_and_slot(i: int) -> tuple[int, int]:
    """Ring index ceil(sqrt(i)) and position within the ring, for 1-based i."""
    if i < 1:
        raise ValueError(f"index must be >= 1, got {i}")
    s = math.isqrt(i)
    ring = s if s * s == i else s + 1
    return ring, i - (ring - 1) ** 2


def predicted_location(i: int, n: int) -> complex:
    """Predicted location of the i-th point (1-based) of the n-point lattice.

    For i <= n - boundary_count the point sits on ring ceil(sqrt(i)) at
    angle 2*pi*slot/(2*ring - 1); beyond that it is the constant 1, which
    lies inside the allowed boundary annulus.
    """
    params = lattice_params(n)
    if not 1 <= i <= n:
        raise IndexError(f"index {i} out of range 1..{n}")
    if i > params.formula_count:
        return 1.0 + 0.0j
    ring, slot = ring_and_slot(i)
    radius = (ring - 1) / math.sqrt(n)
    angle = 2.0 * math.pi * slot / (2 * ring - 1)
    return complex(radius * math.cos(angle), radius * math.sin(angle))


def lattice(n: int) -> PredictedLattice:
    """All n predicted locations, index order 1..n; rings and slots from `ring_and_slot`."""
    params = lattice_params(n)
    ring, slot = np.array([ring_and_slot(i) for i in range(1, n + 1)], dtype=np.int64).T
    radius = (ring - 1) / math.sqrt(n)
    angle = 2.0 * np.pi * slot / (2 * ring - 1)
    points = radius * np.exp(1j * angle)
    points[params.formula_count:] = 1.0
    return PredictedLattice(params=params, points=points)
