"""Eigenvalue extraction and the spiral ordering.

Angles throughout use the convention arg z in (0, 2*pi], so a positive real
number has argument 2*pi.

Every solve runs on one BLAS thread, so its eigenvalue bytes do not depend
on the machine's core count or on OPENBLAS_NUM_THREADS; parallelism comes
from solving replicates in separate processes instead.  `one_blas_thread`
does the same for other BLAS work, such as the disk quadratures in `stats`.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ensembles import ComplexMatrix

log = logging.getLogger(__name__)

# Moduli this close to an exact multiple of 1/sqrt(n) are snapped before the
# floor key is taken, keeping the comparator deterministic across platforms.
_SNAP_TOL = 1e-12


class EigensolverError(RuntimeError):
    """Dense eigensolver failed to converge; message carries the seed."""


@dataclass(frozen=True)
class ComplexSpectrum:
    """Ordered eigenvalues; `scaled` means values belong to X / sqrt(n)."""

    values: np.ndarray  # 1-D complex128
    scaled: bool

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.complex128)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("spectrum must be a nonempty 1-D array")
        if not np.all(np.isfinite(values.view(np.float64))):
            raise ValueError("spectrum values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.size


def arg_in_2pi(z: np.ndarray) -> np.ndarray:
    """Argument in (0, 2*pi]; positive reals map to 2*pi."""
    a = np.angle(z)
    return np.where(a <= 0.0, a + 2.0 * np.pi, a)


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled scipy-openblas, or None.

    Any other BLAS is logged once and left at its own thread count.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        lib = ctypes.CDLL(str(path))  # the copy numpy has loaded already
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_ is not None:
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            return get, set_
    log.warning("numpy's BLAS is not the bundled scipy-openblas; BLAS work runs at "
                "its own thread count, so its bytes may depend on that count")
    return None


def pin_blas_to_one_thread() -> None:
    """Keep this process's BLAS on one thread from now on.

    Pool workers run it first: restoring a second thread after every solve
    would leave a BLAS thread in each worker competing for the cores.
    """
    threads = _openblas_threads()
    if threads is not None:
        threads[1](1)


@contextmanager
def one_blas_thread():
    """Run the block on one BLAS thread, then restore the caller's count."""
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


def eigenvalues(m: ComplexMatrix, scale: bool) -> ComplexSpectrum:
    """Dense spectrum of `m`, ordered by (modulus, argument).

    Uses a backward-stable Schur-based general eigensolver on one BLAS
    thread, in real arithmetic when `m` has float64 entries.  With `scale`
    the eigenvalues of m / sqrt(n) are returned; they are complex128 either
    way.
    """
    try:
        with one_blas_thread():
            vals = np.linalg.eigvals(m.entries)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"eigensolver failed for n={m.n}, dist={m.dist_kind}, seed={m.seed}: {exc}"
        ) from exc
    if scale:
        vals = vals / math.sqrt(m.n)
    order = np.lexsort((arg_in_2pi(vals), np.abs(vals)))
    return ComplexSpectrum(values=vals[order], scaled=scale)


def spiral_key(z: complex, n: int) -> tuple:
    """Sort key for the spiral order: zero first, then (floor key, arg, modulus)."""
    if z == 0:
        return (0, 0, 0.0, 0.0)
    mod = abs(z)
    sqrt_n = math.sqrt(n)
    t = mod * sqrt_n
    nearest = round(t)
    if abs(mod - nearest / sqrt_n) <= _SNAP_TOL:
        floor_key = int(nearest)
    else:
        floor_key = int(math.floor(t))
    arg = math.atan2(z.imag, z.real)
    if arg <= 0.0:
        arg += 2.0 * math.pi
    return (1, floor_key, arg, mod)


def spiral_compare(w: complex, z: complex, n: int) -> int:
    """-1, 0, or +1 as w precedes, equals, or follows z in the spiral order.

    Zero precedes everything nonzero; nonzero points compare
    lexicographically on (floor(sqrt(n)|.|), arg in (0, 2*pi], |.|) and are
    equal only when all three keys tie.
    """
    kw, kz = spiral_key(w, n), spiral_key(z, n)
    if kw < kz:
        return -1
    if kw > kz:
        return 1
    return 0


def spiral_sort(s: ComplexSpectrum) -> ComplexSpectrum:
    """Spectrum re-ordered by `spiral_key`; stable on full-key ties."""
    values = s.values.tolist()
    order = sorted(range(s.n), key=lambda i: spiral_key(values[i], s.n))
    return ComplexSpectrum(values=s.values[order], scaled=s.scaled)


def spectral_radius(s: ComplexSpectrum) -> float:
    """Largest modulus among the spectrum values."""
    return float(np.max(np.abs(s.values)))
