import math
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from thinspec import spectral, stats
from thinspec.ensembles import BUILTIN_KINDS, AtomDistribution, ComplexMatrix, atom_moments
from thinspec.spectral import ComplexSpectrum, eigenvalues
from thinspec.stats import (
    BUILTIN_FUNCTIONS,
    FunctionLookupError,
    IndexSet,
    TestFunction,
    _fd_gradient_sq,
    disk_moments,
    ginibre_variance,
    hypergeom_removal_pmf,
    ks_two_sample,
    limit_sampler_fixed_K,
    linear_statistic,
    near_binomial_bound,
    partial_statistic,
    sample_index_set,
    function_by_id,
)
from thinspec.transport import uniform_disk_sample


def _spectrum(values):
    return ComplexSpectrum(values=np.asarray(values, complex), scaled=True)


# ---------------------------------------------------------------------------
# Test functions


def test_unknown_function_id():
    with pytest.raises(FunctionLookupError):
        function_by_id("nope")


def _repow_gradient(k):
    # d/dx Re z^k = Re(k z^(k-1)) and d/dy Re z^k = Re(i k z^(k-1))
    return lambda z: (np.real(k * z ** (k - 1)), -np.imag(k * z ** (k - 1)))


# Each built-in's exact gradient (d/dx, d/dy), by id
EXACT_GRADIENTS = {
    "const_1": lambda z: (np.zeros(z.shape), np.zeros(z.shape)),
    "re": lambda z: (np.ones(z.shape), np.zeros(z.shape)),
    "im": lambda z: (np.zeros(z.shape), np.ones(z.shape)),
    "abs2": lambda z: (2.0 * z.real, 2.0 * z.imag),
    "repow_2": _repow_gradient(2),
    "repow_3": _repow_gradient(3),
}


def test_builtin_gradients_match_finite_differences():
    # exact gradients validate the finite-difference formula path; a new
    # built-in needs its own entry
    assert EXACT_GRADIENTS.keys() == BUILTIN_FUNCTIONS.keys()
    rng = np.random.default_rng(2)
    z = 0.9 * (rng.standard_normal(500) + 1j * rng.standard_normal(500))
    for f in BUILTIN_FUNCTIONS.values():
        fx, fy = EXACT_GRADIENTS[f.id](z)
        exact = np.asarray(fx, float) ** 2 + np.asarray(fy, float) ** 2
        fd = _fd_gradient_sq(f.evaluate, z)
        assert np.allclose(fd, exact, atol=1e-6, rtol=1e-6), f.id


# ---------------------------------------------------------------------------
# Linear and partial statistics


def test_linear_statistic_examples():
    s = _spectrum([1.0, 1j])
    assert linear_statistic(s, function_by_id("const_1")) == 2
    assert linear_statistic(s, function_by_id("re")) == 1
    with pytest.raises(ValueError):
        linear_statistic(ComplexSpectrum(np.ones(2, complex), scaled=False), function_by_id("re"))


def test_abs2_frobenius_identity_on_normal_matrix():
    # for normal X, sum |lambda_i(X/sqrt(n))|^2 = ||X||_F^2 / n
    rng = np.random.default_rng(3)
    n = 40
    diag = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    x = q @ np.diag(diag) @ q.conj().T
    m = ComplexMatrix(entries=x)
    s = eigenvalues(m, scale=True)
    stat = linear_statistic(s, function_by_id("abs2"))
    frob = np.linalg.norm(x, "fro") ** 2 / n
    assert stat.real == pytest.approx(frob, rel=1e-8)
    assert stat.imag == pytest.approx(0.0, abs=1e-12)


def test_partial_statistic_examples():
    s = _spectrum([0.3 + 0.1j, -0.2 + 0.4j])
    f = function_by_id("re")
    kept, removed = partial_statistic(s, f, IndexSet(n=2, indices=np.array([0])))
    assert removed == pytest.approx(0.3)
    assert kept == pytest.approx(-0.2)
    # removing everything leaves an exact zero
    kept, removed = partial_statistic(s, f, IndexSet(n=2, indices=np.array([0, 1])))
    assert kept == 0.0
    assert removed == linear_statistic(s, f)


def test_partial_statistic_decomposition():
    # each part is the exactly rounded sum of its own terms; the identity
    # with the full statistic holds to one ulp and replays bit-identically
    rng = np.random.default_rng(4)
    for f_id in ("re", "abs2"):
        f = function_by_id(f_id)
        exact_hits, cases = 0, 300
        for _ in range(cases):
            n = int(rng.integers(2, 200))
            s = _spectrum(0.8 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
            k = int(rng.integers(1, n + 1))
            idx = IndexSet(n=n, indices=np.sort(rng.choice(n, k, replace=False)))
            kept, removed = partial_statistic(s, f, idx)
            full = linear_statistic(s, f)
            scale = max(1.0, abs(kept), abs(removed))
            assert abs((kept + removed) - full) <= 2 * np.finfo(float).eps * scale
            exact_hits += kept + removed == full
            assert (kept, removed) == partial_statistic(s, f, idx)
        assert exact_hits >= 0.5 * cases, f_id
    with pytest.raises(ValueError):
        partial_statistic(
            _spectrum([1.0]), function_by_id("re"), IndexSet(n=2, indices=np.array([0]))
        )


def test_index_set_validation():
    with pytest.raises(ValueError):
        IndexSet(n=3, indices=np.array([0, 0]))
    with pytest.raises(ValueError):
        IndexSet(n=3, indices=np.array([3]))
    with pytest.raises(ValueError):
        IndexSet(n=3, indices=np.array([-1]))


# ---------------------------------------------------------------------------
# Index-set sampling


def test_sample_index_set_degenerate_and_errors():
    assert np.array_equal(sample_index_set(5, 5, seed=1).indices, np.arange(5))
    with pytest.raises(ValueError):
        sample_index_set(5, 0, seed=1)
    with pytest.raises(ValueError):
        sample_index_set(5, 6, seed=1)


def test_sample_index_set_uniformity():
    # n=10, K=2: each of the 45 pairs within 5 standard errors of 1/45
    n, k, draws = 10, 2, 100_000
    counts = {c: 0 for c in combinations(range(n), k)}
    for r in range(draws):
        idx = sample_index_set(n, k, seed=r)
        counts[tuple(idx.indices)] += 1
    p = 1.0 / len(counts)
    se = math.sqrt(p * (1 - p) / draws)
    for c, count in counts.items():
        assert abs(count / draws - p) <= 5 * se, c


# ---------------------------------------------------------------------------
# Thinning bounds


def test_hypergeom_removal_pmf_examples():
    # C(5,2) C(5,0) / C(10,2) = 10/45
    assert hypergeom_removal_pmf(10, 2, 5, 2) == pytest.approx(10 / 45, abs=1e-14)
    # infeasible overlap patterns have zero mass
    assert hypergeom_removal_pmf(10, 2, 9, 2) == 0.0  # j > n - |J|
    assert hypergeom_removal_pmf(10, 4, 1, 0) == 0.0  # K - j > |J|
    with pytest.raises(ValueError):
        hypergeom_removal_pmf(10, 11, 5, 2)
    with pytest.raises(ValueError):
        hypergeom_removal_pmf(10, 2, 5, 3)


def test_hypergeom_removal_pmf_normalizes():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        k = int(rng.integers(1, n + 1))
        j_size = int(rng.integers(0, n + 1))
        total = math.fsum(hypergeom_removal_pmf(n, k, j_size, j) for j in range(k + 1))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_near_binomial_bound_examples():
    # exp(0.4/sqrt(0.9)) * 0.25 ~ 0.3811, dominating the pmf 0.2222
    bound = near_binomial_bound(10, 2, 5, 2)
    assert bound == pytest.approx(math.exp(0.4 / math.sqrt(0.9)) * 0.25, rel=1e-12)
    assert bound >= hypergeom_removal_pmf(10, 2, 5, 2)
    # K = 1 prefactor is exp(1/n)
    assert near_binomial_bound(10, 1, 5, 1) == pytest.approx(
        math.exp(0.1) * 0.5, rel=1e-12
    )
    # infeasible j still yields a nonnegative bound
    assert near_binomial_bound(10, 2, 9, 2) >= 0.0


def test_thinning_dominance_exhaustive_small():
    # acceptance covers n <= 60; the scalar path is verified here to n <= 25
    for n in range(1, 26):
        for k in range(1, n + 1):
            for j_size in range(n + 1):
                for j in range(k + 1):
                    pmf = hypergeom_removal_pmf(n, k, j_size, j)
                    bound = near_binomial_bound(n, k, j_size, j)
                    assert pmf <= bound * (1 + 1e-12), (n, k, j_size, j)


# ---------------------------------------------------------------------------
# Disk moments and the variance formula


def test_disk_moments_analytic_values():
    m = disk_moments(function_by_id("re"))
    assert m.mean_f == pytest.approx(0j, abs=1e-14)
    assert m.var_re == pytest.approx(0.25, abs=1e-14)
    assert m.var_im == 0.0
    assert m.cov == pytest.approx(0.0, abs=1e-14)
    assert m.err < 1e-12

    m = disk_moments(function_by_id("abs2"))
    assert m.mean_f.real == pytest.approx(0.5, abs=1e-12)
    assert m.var_re == pytest.approx(1 / 12, abs=1e-12)  # E|U|^4 - 1/4 = 1/3 - 1/4

    m = disk_moments(function_by_id("const_1"))
    assert m.var_re == pytest.approx(0.0, abs=1e-12)
    assert m.var_im == 0.0


def test_disk_moments_match_monte_carlo():
    u = uniform_disk_sample(1_000_000, seed=17)
    for f in BUILTIN_FUNCTIONS.values():
        m = disk_moments(f)
        vals = np.asarray(f.evaluate(u))
        re = vals.real
        se_mean = max(re.std() / 1000.0, 1e-9)
        assert abs(re.mean() - m.mean_f.real) <= 4 * se_mean, f.id
        centered = (re - re.mean()) ** 2
        se_var = max(centered.std() / 1000.0, 1e-9)
        assert abs(centered.mean() - m.var_re) <= 4 * se_var, f.id


def test_ginibre_variance_analytic():
    cg = atom_moments(AtomDistribution("complex-gaussian"))
    out = ginibre_variance(function_by_id("re"), cg, real_atom=False)
    assert out.sigma2 == pytest.approx(0.5, abs=1e-6)
    assert out.gradient_term == pytest.approx(0.25, abs=1e-6)
    assert out.fourier_term == pytest.approx(0.25, abs=1e-9)
    assert out.fourth_moment_term == pytest.approx(0.0, abs=1e-12)
    assert out.warning is None

    out = ginibre_variance(function_by_id("const_1"), cg, real_atom=False)
    assert out.sigma2 == pytest.approx(0.0, abs=1e-9)

    # real-atom symmetrized formula with fourth-moment factor E|xi|^4 - 3
    ra = atom_moments(AtomDistribution("rademacher"))
    out = ginibre_variance(function_by_id("re"), ra, real_atom=True)
    assert out.sigma2 == pytest.approx(1.0, abs=1e-6)
    assert out.gradient_term == pytest.approx(0.5, abs=1e-6)
    assert out.fourier_term == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("dist, sigma2, fourth_term", [
    (AtomDistribution("complex-gaussian"), 0.5, 0.0),
    (AtomDistribution("real-gaussian"), 1.0, 0.0),
    (AtomDistribution("rademacher"), 0.5, -0.5),
    # E xi^4 = 10: the fourth-moment term is 7 * (1/2 - 1)^2 = 7/4
    (AtomDistribution("custom-discrete", atoms=(math.sqrt(10), -math.sqrt(10), 0.0),
                      probs=(0.05, 0.05, 0.9)), 2.75, 1.75),
], ids=["complex-gaussian", "real-gaussian", "rademacher", "sparse"])
def test_ginibre_variance_fourth_moment_term_for_abs2(dist, sigma2, fourth_term):
    # the worst error measured was 2.5e-14
    out = ginibre_variance(function_by_id("abs2"), atom_moments(dist), real_atom=dist.is_real)
    assert out.sigma2 == pytest.approx(sigma2, abs=1e-13)
    assert out.fourth_moment_term == pytest.approx(fourth_term, abs=1e-13)


@pytest.mark.parametrize("f_id, excess_kurtosis", [
    ("re", -1.0), ("abs2", -6 / 5), ("repow_2", -3 / 10), ("repow_3", 3 / 7),
])
def test_disk_grid_excess_kurtosis(f_id, excess_kurtosis):
    # exact up to rounding: Re f(U)^4 is a polynomial of degree <= 6 in r^2 and a
    # trigonometric one of degree <= 12 in the angle (worst error measured 6e-15)
    z, w = stats._disk_grid(64, 512)
    values = np.real(function_by_id(f_id).evaluate(z))
    centered = values - np.dot(w, values)
    kurtosis = np.dot(w, centered ** 4) / np.dot(w, centered ** 2) ** 2 - 3.0
    assert kurtosis == pytest.approx(excess_kurtosis, abs=1e-12)


def test_ginibre_variance_quadrature_refinement(monkeypatch):
    cg = atom_moments(AtomDistribution("complex-gaussian"))
    for radial, angular, circle, k_max in ((16, 64, 256, 64), (128, 1024, 2048, 512)):
        for name, value in (("_RADIAL_NODES", radial), ("_ANGULAR_NODES", angular),
                            ("_CIRCLE_NODES", circle), ("_K_MAX", k_max)):
            monkeypatch.setattr(stats, name, value)
        out = ginibre_variance(function_by_id("re"), cg, real_atom=False)
        assert out.sigma2 == pytest.approx(0.5, abs=1e-6)


def test_ginibre_variance_tail_warning_for_rough_function():
    # a jump on the circle makes |k||fhat(k)|^2 ~ 1/k: truncation suspect
    sign_re = TestFunction(id="sign_re", evaluate=lambda z: np.sign(np.real(z)))
    cg = atom_moments(AtomDistribution("complex-gaussian"))
    out = ginibre_variance(sign_re, cg, real_atom=False)
    assert out.warning is not None
    assert out.fourier_tail > stats._TAIL_TOL


@pytest.mark.skipif(spectral._openblas_threads() is None,
                    reason="numpy's BLAS is not scipy-openblas")
@pytest.mark.parametrize("f_id", ["re", "abs2", "repow_3"])
def test_quadratures_run_on_one_blas_thread_and_restore_the_callers(monkeypatch, f_id):
    get, set_ = spectral._openblas_threads()
    grid, seen = stats._disk_grid, []
    monkeypatch.setattr(stats, "_disk_grid", lambda *a: seen.append(get()) or grid(*a))
    f, atom = function_by_id(f_id), atom_moments(AtomDistribution("rademacher"))
    previous, outputs = get(), []
    try:
        for threads in (1, 2):
            set_(threads)
            outputs.append((disk_moments(f), ginibre_variance(f, atom, real_atom=True)))
            assert get() == threads
    finally:
        set_(previous)
    assert set(seen) == {1}
    assert outputs[0] == outputs[1]


def test_ginibre_variance_rejects_bad_inputs():
    cg = atom_moments(AtomDistribution("complex-gaussian"))
    # complex values are found on the grid; no flag has to say so (z^2 gave sigma2 ~ 1.0)
    complex_f = TestFunction(id="z2", evaluate=lambda z: np.asarray(z) ** 2)
    for real_atom in (False, True):
        with pytest.raises(ValueError, match="real-valued"):
            ginibre_variance(complex_f, cg, real_atom=real_atom)
    # complex-atom formula needs E[xi^2] = 0
    rg = atom_moments(AtomDistribution("real-gaussian"))
    with pytest.raises(ValueError):
        ginibre_variance(function_by_id("re"), rg, real_atom=False)


@pytest.mark.parametrize("kind", BUILTIN_KINDS)
def test_ginibre_variance_is_never_negative(kind):
    # E|xi|^4 - 3 < 0 times a rounding-sized (mean_f - fhat0)^2 made the Rademacher
    # sigma2 -7.9e-36 for im and -6.3e-30 for const_1
    dist = AtomDistribution(kind)
    for f_id in sorted(BUILTIN_FUNCTIONS):
        out = ginibre_variance(function_by_id(f_id), atom_moments(dist), real_atom=dist.is_real)
        assert out.sigma2 >= 0.0, f_id


# ---------------------------------------------------------------------------
# Limit sampler and KS harness


def test_limit_sampler_pure_gaussian():
    re = function_by_id("re")
    samples = limit_sampler_fixed_K(re, 0j, K=0, sigma2=0.5, count=200_000, seed=6).real
    se = samples.std() ** 2 * math.sqrt(2 / samples.size) * 1.5
    assert abs(samples.var() - 0.5) <= 5 * se
    again = limit_sampler_fixed_K(re, 0j, K=0, sigma2=0.5, count=200_000, seed=6).real
    assert np.all(samples == again)


def test_limit_sampler_disk_only():
    re = function_by_id("re")
    samples = limit_sampler_fixed_K(re, 0j, K=1, sigma2=0.0, count=200_000, seed=7).real
    assert abs(samples.var() - 0.25) <= 0.005
    assert abs(samples.mean()) <= 0.005


def test_limit_sampler_variance_additivity():
    # independence of the Gaussian and the disk draws: variances add
    re = function_by_id("re")
    samples = limit_sampler_fixed_K(re, 0j, K=1, sigma2=0.5, count=200_000, seed=8).real
    assert abs(samples.var() - 0.75) <= 0.01


def test_limit_sampler_validation():
    for K, sigma2, count in ((0, -1.0, 10), (-1, 0.5, 10), (1, 0.5, 0)):
        with pytest.raises(ValueError):
            limit_sampler_fixed_K(function_by_id("re"), 0j, K=K, sigma2=sigma2, count=count, seed=1)


def test_ks_two_sample_basics():
    rng = np.random.default_rng(9)
    a = rng.standard_normal(1000)
    stat, p = ks_two_sample(a, a)
    assert stat == 0.0
    stat, p = ks_two_sample(a, rng.standard_normal(1000) + 5.0)
    assert p < 1e-10
    with pytest.raises(ValueError):
        ks_two_sample([], [1.0])


def test_importing_thinspec_leaves_scipy_stats_to_the_ks_test():
    # scipy.stats takes most of a CLI start to import; only ks_two_sample needs it
    code = "import sys, thinspec, thinspec.cli; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert proc.stdout.strip() == "False"


def test_ks_two_sample_null_calibration():
    # p > 0.001 should fail for ~0.1% of same-distribution pairs
    rng = np.random.default_rng(10)
    rejected = 0
    trials = 1000
    for _ in range(trials):
        _, p = ks_two_sample(rng.standard_normal(1000), rng.standard_normal(1000))
        if p <= 0.001:
            rejected += 1
    assert rejected / trials <= 0.005  # frequency of p > 0.001 at least 0.995
