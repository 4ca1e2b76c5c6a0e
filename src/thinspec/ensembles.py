"""Seeded generation of square random matrices with iid entries.

Every supported entry (atom) distribution has mean zero, unit absolute
second moment, and finite moments of all orders; the exact low moments are
available analytically through `atom_moments`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .seeding import make_rng

_PARAM_TOL = 1e-12

BUILTIN_KINDS = ("complex-gaussian", "real-gaussian", "rademacher")


class DistributionError(ValueError):
    """Atom-distribution parameters violate the moment contract."""


def as_float64(value, convert=float):
    """`convert(value)`, reading an integer past float64's range as infinite."""
    try:
        return convert(value)
    except OverflowError:
        return convert(math.inf if value > 0 else -math.inf)


@dataclass(frozen=True)
class MomentSummary:
    """Exact analytic moments of an atom distribution."""

    mean: complex
    abs_second: float  # E|xi|^2
    second: complex  # E[xi^2]
    abs_fourth: float  # E|xi|^4


@dataclass(frozen=True)
class AtomDistribution:
    """Entry distribution for an iid matrix.

    `kind` is one of "complex-gaussian", "real-gaussian", "rademacher", or
    "custom-discrete".  Custom distributions are restricted to finite
    support so the moment requirements are checkable analytically at
    construction time.
    """

    kind: str
    atoms: tuple = field(default=())
    probs: tuple = field(default=())

    def __post_init__(self):
        # Each a Python or NumPy number, complex only for an atom; a bool or str is none.
        for name, numbers, convert in (("atoms", (int, float, complex, np.number), complex),
                                       ("probs", (int, float, np.integer, np.floating), float)):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)):
                raise DistributionError(f"{name} must be a list or tuple, got {values!r}")
            if not all(isinstance(v, numbers) and type(v) is not bool for v in values):
                raise DistributionError(f"{name} {list(values)!r} must be numbers")
            object.__setattr__(self, name, tuple(as_float64(v, convert) for v in values))
        if self.kind in BUILTIN_KINDS:
            if self.atoms or self.probs:
                raise DistributionError(
                    f"kind {self.kind!r} takes no atoms/probs parameters"
                )
            return
        if self.kind != "custom-discrete":
            raise DistributionError(f"unknown distribution kind {self.kind!r}")
        if len(self.atoms) == 0 or len(self.atoms) != len(self.probs):
            raise DistributionError("custom-discrete needs matching nonempty atoms/probs")
        if not all(map(cmath.isfinite, self.atoms + self.probs)):
            raise DistributionError("atoms and probabilities must be finite")
        if any(p < 0 for p in self.probs):
            raise DistributionError("probabilities must be nonnegative")
        if abs(math.fsum(self.probs) - 1.0) > _PARAM_TOL:
            raise DistributionError("probabilities must sum to 1 within 1e-12")
        try:
            moments = atom_moments(self)
        except OverflowError:  # |a|^2 or |a|^4 past float64's range
            raise DistributionError("atom moments must be finite in float64") from None
        if abs(moments.mean) > _PARAM_TOL:
            raise DistributionError(f"atom mean must be 0, got {moments.mean}")
        if abs(moments.abs_second - 1.0) > _PARAM_TOL:
            raise DistributionError(f"atom E|xi|^2 must be 1, got {moments.abs_second}")

    @property
    def is_real(self) -> bool:
        """True when the atom variable is real-valued."""
        if self.kind in ("real-gaussian", "rademacher"):
            return True
        if self.kind == "complex-gaussian":
            return False
        return all(a.imag == 0.0 for a in self.atoms)

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.kind == "custom-discrete":
            d["atoms"] = [[a.real, a.imag] for a in self.atoms]
            d["probs"] = list(self.probs)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "AtomDistribution":
        """Inverse of `to_dict`; an atom may also be a plain number."""
        unknown = sorted(set(d) - {"kind", "atoms", "probs"})
        if unknown:
            raise DistributionError(
                f"unknown ensemble field(s) {unknown}; known: ['atoms', 'kind', 'probs']"
            )
        atoms = d.get("atoms", ())
        if isinstance(atoms, list):
            atoms = [_atom_from_json(a) for a in atoms]
        return cls(kind=d.get("kind"), atoms=atoms, probs=d.get("probs", ()))


def _atom_from_json(a) -> complex:
    """A number, or a [re, im] pair of numbers, as a complex atom."""
    parts = list(a) if isinstance(a, (list, tuple)) else [a, 0.0]
    if len(parts) != 2 or not all(type(p) in (int, float) for p in parts):
        raise DistributionError(f"atom {a!r} must be a number or a [re, im] pair of numbers")
    return complex(*parts)


@dataclass(frozen=True)
class ComplexMatrix:
    """Square matrix with optional sampling provenance.

    Real input is stored as float64, so a real ensemble is solved in real
    arithmetic; any complex input is stored as complex128.
    """

    entries: np.ndarray  # shape (n, n), float64 if real else complex128, row-major
    seed: int | None = None
    dist_kind: str | None = None

    def __post_init__(self):
        dtype = np.complex128 if np.iscomplexobj(self.entries) else np.float64
        entries = np.ascontiguousarray(self.entries, dtype=dtype)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"entries must be a square 2-D array, got shape {entries.shape}")
        if not np.all(np.isfinite(entries.view(np.float64))):
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def atom_moments(dist: AtomDistribution) -> MomentSummary:
    """Exact analytic moments (mean, E|xi|^2, E[xi^2], E|xi|^4)."""
    if dist.kind == "complex-gaussian":
        # real/imag parts iid N(0, 1/2)
        return MomentSummary(0j, 1.0, 0j, 2.0)
    if dist.kind == "real-gaussian":
        return MomentSummary(0j, 1.0, 1.0 + 0j, 3.0)
    if dist.kind == "rademacher":
        return MomentSummary(0j, 1.0, 1.0 + 0j, 1.0)
    mean = sum(p * a for p, a in zip(dist.probs, dist.atoms))
    abs2 = math.fsum(p * abs(a) ** 2 for p, a in zip(dist.probs, dist.atoms))
    second = sum(p * a * a for p, a in zip(dist.probs, dist.atoms))
    abs4 = math.fsum(p * abs(a) ** 4 for p, a in zip(dist.probs, dist.atoms))
    return MomentSummary(complex(mean), abs2, complex(second), abs4)


def sample_atoms(dist: AtomDistribution, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `count` iid atoms as a flat array: float64 when `dist.is_real`,
    complex128 otherwise."""
    if dist.kind == "complex-gaussian":
        parts = rng.standard_normal((2, count))
        return (parts[0] + 1j * parts[1]) * np.sqrt(0.5)
    if dist.kind == "real-gaussian":
        return rng.standard_normal(count)
    if dist.kind == "rademacher":
        return 2.0 * rng.integers(0, 2, size=count) - 1.0
    idx = rng.choice(len(dist.atoms), size=count, p=np.asarray(dist.probs))
    atoms = np.asarray(dist.atoms, dtype=np.complex128)
    return (atoms.real if dist.is_real else atoms)[idx]


def sample_matrix(dist: AtomDistribution, n: int, seed: int) -> ComplexMatrix:
    """Sample an n-by-n matrix with iid entries from `dist`.

    Entry (i, j) is the (i*n + j)-th draw of a counter-based stream keyed by
    `seed`, so the fill is independent of traversal order and identical
    (dist, n, seed) triples yield bit-identical matrices.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = make_rng(seed)
    entries = sample_atoms(dist, n * n, rng).reshape(n, n)
    return ComplexMatrix(entries=entries, seed=seed, dist_kind=dist.kind)
