"""Test functions, partial linear statistics, and limit-law calculators.

The statistics operate on scaled spectra (eigenvalues of X / sqrt(n)).
Disk moments and the limiting-variance formula are evaluated by
tensor-product polar quadrature (Gauss-Legendre in r^2, trapezoid in the
angle) plus FFT Fourier coefficients on the unit circle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .seeding import make_rng
from .spectral import ComplexSpectrum, one_blas_thread
from .transport import disk_points


class FunctionLookupError(KeyError):
    """Unknown test-function id."""

    __str__ = Exception.__str__  # the message itself, not KeyError's repr of it


# A test function f of the statistic sum_i f(lambda_i).  It takes complex
# ndarrays; `ginibre_variance` rejects an f whose values have a nonzero
# imaginary part.
TestFunction = Callable[[np.ndarray], np.ndarray]


def _repow(k: int) -> TestFunction:
    return lambda z: np.real(np.asarray(z, dtype=np.complex128) ** k)


BUILTIN_FUNCTIONS: dict[str, TestFunction] = {
    "const_1": lambda z: np.ones_like(np.asarray(z), dtype=np.float64),
    "re": np.real,
    "im": np.imag,
    "abs2": lambda z: np.abs(z) ** 2,
    "repow_2": _repow(2),
    "repow_3": _repow(3),
}


def function_by_id(func_id: str) -> TestFunction:
    try:
        return BUILTIN_FUNCTIONS[func_id]
    except KeyError:
        raise FunctionLookupError(
            f"unknown test function {func_id!r}; known: {sorted(BUILTIN_FUNCTIONS)}"
        ) from None


@dataclass(frozen=True)
class IndexSet:
    """Strictly increasing 0-based positions into a population of size n."""

    n: int
    indices: np.ndarray

    def __post_init__(self):
        idx = np.ascontiguousarray(self.indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError("indices must be 1-D")
        if idx.size and (idx[0] < 0 or idx[-1] >= self.n or np.any(np.diff(idx) <= 0)):
            raise ValueError("indices must be strictly increasing within 0..n-1")
        object.__setattr__(self, "indices", idx)


def _exact_sum(terms: np.ndarray) -> complex:
    """Exactly rounded sum of complex terms (order-independent)."""
    terms = np.asarray(terms, dtype=np.complex128)
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def linear_statistic(s: ComplexSpectrum, f: TestFunction) -> complex:
    """Sum of f over the spectrum (uncentered), exactly rounded."""
    if not s.scaled:
        raise ValueError("linear statistics are defined on scaled spectra")
    return _exact_sum(np.asarray(f(s.values)))


def partial_statistic(s: ComplexSpectrum, f: TestFunction, index_set: IndexSet
                      ) -> tuple[complex, complex]:
    """(kept, removed) sums of f with `index_set` removed.

    Both parts are exactly rounded sums of their own terms, so replays are
    bit-identical.  Each component of kept + removed is within one ulp of
    max(|kept|, |removed|, |full|) of full = `linear_statistic` (tested, not
    proven); one ulp of the larger part can fail when the sum crosses a binade.
    """
    if index_set.n != s.n:
        raise ValueError(f"index set population {index_set.n} != spectrum size {s.n}")
    if not s.scaled:
        raise ValueError("linear statistics are defined on scaled spectra")
    terms = np.asarray(f(s.values), dtype=np.complex128)
    mask = np.zeros(s.n, dtype=bool)
    mask[index_set.indices] = True
    removed = _exact_sum(terms[mask])
    kept = _exact_sum(terms[~mask])
    return kept, removed


def sample_index_set(n: int, k: int, seed: int) -> IndexSet:
    """Uniformly random k-subset of 0..n-1."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    rng = make_rng(seed)
    idx = rng.choice(n, size=k, replace=False)
    return IndexSet(n=n, indices=np.sort(idx))


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def hypergeom_removal_pmf(n: int, k: int, j_size: int, j: int) -> float:
    """P(|I \\ J| = j) for a uniform k-subset I and a fixed set J of size j_size.

    Equals C(n - j_size, j) * C(j_size, k - j) / C(n, k); zero when the
    overlap pattern is infeasible.  Computed in log space.
    """
    if not (1 <= k <= n and 0 <= j_size <= n):
        raise ValueError(f"invalid (n={n}, k={k}, j_size={j_size})")
    if not 0 <= j <= k:
        raise ValueError(f"invalid j={j} for k={k}")
    if j > n - j_size or k - j > j_size:
        return 0.0
    log_p = (
        _log_comb(n - j_size, j) + _log_comb(j_size, k - j) - _log_comb(n, k)
    )
    return math.exp(log_p)


def _binomial_pmf(k: int, p: float, j: int) -> float:
    if not 0 <= j <= k:
        return 0.0
    if p <= 0.0:
        return 1.0 if j == 0 else 0.0
    if p >= 1.0:
        return 1.0 if j == k else 0.0
    return math.exp(_log_comb(k, j) + j * math.log(p) + (k - j) * math.log1p(-p))


def near_binomial_bound(n: int, k: int, j_size: int, j: int) -> float:
    """Inflated-binomial upper bound dominating `hypergeom_removal_pmf`.

    exp(k^2/n / sqrt(1 - (k-1)/n)) times the Binomial(k, 1 - j_size/n) pmf
    at j.  Valid for k - 1 < n.  A prefactor beyond the largest double
    gives inf, or 0 where the binomial pmf is 0.
    """
    if not (1 <= k <= n and 0 <= j_size <= n):
        raise ValueError(f"invalid (n={n}, k={k}, j_size={j_size})")
    if j < 0:
        raise ValueError(f"invalid j={j}")
    binom = _binomial_pmf(k, 1.0 - j_size / n, j)
    if binom == 0.0:
        return 0.0
    try:
        prefactor = math.exp((k * k / n) / math.sqrt(1.0 - (k - 1) / n))
    except OverflowError:
        return math.inf
    return prefactor * binom


# Resolution of the disk quadrature and the circle Fourier transform, read at
# call time: Gauss-Legendre nodes in r^2 and trapezoid nodes in the angle; FFT
# nodes on |z| = 1, more than 2 * _K_MAX so no retained frequency aliases; the
# largest retained |k|; the finite-difference step; and the Fourier-tail level
# above which `ginibre_variance` warns.
_RADIAL_NODES = 64
_ANGULAR_NODES = 512
_CIRCLE_NODES = 1024
_K_MAX = 256
_FD_STEP = 1e-4
_TAIL_TOL = 1e-6


@dataclass(frozen=True)
class DiskMoments:
    """Moments of f(U) for U uniform on the unit disk, plus a refinement error."""

    mean_f: complex
    var_re: float
    var_im: float
    cov: float
    err: float


@functools.cache
def _disk_grid(radial_nodes: int, angular_nodes: int):
    """Nodes z and weights w with sum(w * g(z)) ~= E[g(U)], U uniform on the disk.

    Built once per resolution and shared by every caller, so both arrays are
    read-only.
    """
    x, wx = np.polynomial.legendre.leggauss(radial_nodes)
    s = 0.5 * (x + 1.0)  # Gauss-Legendre in s = r^2 on [0, 1]
    ws = 0.5 * wx
    theta = 2.0 * np.pi * np.arange(angular_nodes) / angular_nodes
    z = np.sqrt(s)[:, None] * np.exp(1j * theta)[None, :]
    w = np.repeat(ws[:, None] / angular_nodes, angular_nodes, axis=1)
    z, w = z.ravel(), w.ravel()
    z.flags.writeable = w.flags.writeable = False
    return z, w


def _moments_on_grid(f: TestFunction, radial_nodes: int, angular_nodes: int):
    z, w = _disk_grid(radial_nodes, angular_nodes)
    vals = np.asarray(f(z), dtype=np.complex128)
    re, im = vals.real, vals.imag
    mean = complex(np.dot(w, re), np.dot(w, im))
    e_re2 = float(np.dot(w, re * re))
    e_im2 = float(np.dot(w, im * im))
    e_reim = float(np.dot(w, re * im))
    # cancellation can leave variances a few ulp below zero
    return (
        mean,
        max(e_re2 - mean.real ** 2, 0.0),
        max(e_im2 - mean.imag ** 2, 0.0),
        e_reim - mean.real * mean.imag,
    )


@one_blas_thread()  # the dot products' bytes follow the BLAS thread count
def disk_moments(f: TestFunction) -> DiskMoments:
    """E f(U), Var(Re f), Var(Im f), and Cov for uniform U on the unit disk.

    The reported `err` is the change under halving both grid resolutions.
    """
    fine = _moments_on_grid(f, _RADIAL_NODES, _ANGULAR_NODES)
    coarse = _moments_on_grid(f, _RADIAL_NODES // 2, _ANGULAR_NODES // 2)
    err = max(
        abs(fine[0] - coarse[0]),
        abs(fine[1] - coarse[1]),
        abs(fine[2] - coarse[2]),
        abs(fine[3] - coarse[3]),
    )
    return DiskMoments(
        mean_f=fine[0], var_re=fine[1], var_im=fine[2], cov=fine[3], err=float(err)
    )


@dataclass(frozen=True)
class VarianceBreakdown:
    """Limiting Gaussian variance with its three formula terms.

    sigma2 = gradient_term + fourier_term + fourth_moment_term, clamped at 0
    (the terms are kept as computed); the `fourier_tail` diagnostic is the
    contribution of the last decade of retained frequencies, and `warning` is
    set when it exceeds _TAIL_TOL (truncation suspect).
    """

    sigma2: float
    gradient_term: float
    fourier_term: float
    fourth_moment_term: float
    fourier_tail: float
    warning: str | None = None


def _fd_gradient_sq(evaluate, z: np.ndarray) -> np.ndarray:
    """|grad f|^2 by central differences with h = _FD_STEP * (1 + |z|)."""
    h = _FD_STEP * (1.0 + np.abs(z))
    fx = (np.real(evaluate(z + h)) - np.real(evaluate(z - h))) / (2.0 * h)
    fy = (np.real(evaluate(z + 1j * h)) - np.real(evaluate(z - 1j * h))) / (2.0 * h)
    return fx * fx + fy * fy


def _circle_coefficients(evaluate, k_max: int):
    """Fourier coefficients of f on |z| = 1 for |k| <= k_max, via FFT."""
    theta = 2.0 * np.pi * np.arange(_CIRCLE_NODES) / _CIRCLE_NODES
    vals = np.real(evaluate(np.exp(1j * theta)))
    coeffs = np.fft.fft(vals) / _CIRCLE_NODES
    k = np.arange(-k_max, k_max + 1)
    return k, coeffs[k % _CIRCLE_NODES]


@one_blas_thread()
def ginibre_variance(f: TestFunction, moments, real_atom: bool) -> VarianceBreakdown:
    """Limiting variance of the centered full linear statistic for real f.

    Complex-atom case (E[xi^2] = 0):
        (1/4pi) int_{|z|<1} |grad f|^2 + (1/2) sum_k |k| |fhat(k)|^2
        + (E|xi|^4 - 2) * ((1/pi) int f - fhat(0))^2.
    Real-atom case: same structure with f symmetrized about the real axis,
    doubled first two terms, and fourth-moment factor (E|xi|^4 - 3); the
    last term keeps the original f.  Raises ValueError when f has a nonzero
    imaginary part on the disk grid.
    """
    if not real_atom and abs(moments.second) > 1e-9:
        raise ValueError("complex-atom formula requires E[xi^2] = 0")

    z, w = _disk_grid(_RADIAL_NODES, _ANGULAR_NODES)
    values = np.asarray(f(z))
    if np.any(np.imag(values)):
        raise ValueError("the Gaussian-variance formula applies to real-valued f only")
    mean_f = float(np.dot(w, np.real(values)))  # = (1/pi) int_{|z|<1} f

    if real_atom:
        def sym_evaluate(x):
            x = np.asarray(x, dtype=np.complex128)
            return 0.5 * (np.asarray(f(x)) + np.asarray(f(np.conj(x))))

        grad_scale, fourier_scale = 0.5, 1.0
        fourth_factor = moments.abs_fourth - 3.0
        spectral_evaluate = sym_evaluate
    else:
        grad_scale, fourier_scale = 0.25, 0.5
        fourth_factor = moments.abs_fourth - 2.0
        spectral_evaluate = f

    grad_term = grad_scale * float(np.dot(w, _fd_gradient_sq(spectral_evaluate, z)))

    k, coeffs = _circle_coefficients(spectral_evaluate, _K_MAX)
    energies = np.abs(k) * np.abs(coeffs) ** 2
    fourier_term = fourier_scale * float(energies.sum())
    tail = float(energies[np.abs(k) > _K_MAX // 10].sum())

    _, base_coeffs = _circle_coefficients(f, 0)
    fhat0 = float(base_coeffs[0].real)
    fourth_term = fourth_factor * (mean_f - fhat0) ** 2

    warning = None
    if tail > _TAIL_TOL:
        warning = (f"fourier tail {tail:.3e} exceeds {_TAIL_TOL:.1e}; "
                   f"f is too rough for |k| <= {_K_MAX}")
    # for E|xi|^4 < 3 a rounding-sized mean_f - fhat0 can take the sum just below zero
    return VarianceBreakdown(
        sigma2=max(grad_term + fourier_term + fourth_term, 0.0),
        gradient_term=grad_term,
        fourier_term=fourier_term,
        fourth_moment_term=fourth_term,
        fourier_tail=tail,
        warning=warning,
    )


def limit_sampler_fixed_K(f: TestFunction, mean_f: complex, K: int, sigma2: float,
                          count: int, seed: int) -> np.ndarray:
    """iid samples of S - sum_{i<=K} (f(U_i) - mean_f).

    S is N(0, sigma2) independent of the iid uniform-disk U_i, and mean_f is
    E f(U); this is the fixed-thinning limit of the kept-part statistic
    (sigma2 = 0 gives the negated removed-part limit, K = 0 the Gaussian).
    """
    if count < 1 or K < 0 or sigma2 < 0:
        raise ValueError("need count >= 1, K >= 0 and sigma2 >= 0")
    rng = make_rng(seed)
    gauss = math.sqrt(sigma2) * rng.standard_normal(count)
    samples = gauss.astype(np.complex128)
    if K > 0:
        u = disk_points(rng, (count, K))
        deviations = np.asarray(f(u), dtype=np.complex128) - mean_f
        samples = samples - deviations.sum(axis=1)
    return samples


def ks_two_sample(a, b) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic and asymptotic p-value."""
    from scipy.stats import ks_2samp  # about 0.8 s to import; only partial summaries need it

    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    result = ks_2samp(a, b, method="asymp")
    return float(result.statistic), float(result.pvalue)
