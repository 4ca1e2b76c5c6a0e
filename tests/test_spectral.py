import cmath
import logging
import math

import numpy as np
import pytest

from thinspec import spectral
from thinspec.ensembles import AtomDistribution, ComplexMatrix, sample_atoms, sample_matrix
from thinspec.seeding import make_rng
from thinspec.spectral import (
    ComplexSpectrum,
    arg_in_2pi,
    eigenvalues,
    spectral_radius,
    spiral_compare,
    spiral_key,
    spiral_sort,
)


def _spectrum(values, scaled=True):
    return ComplexSpectrum(values=np.asarray(values, complex), scaled=scaled)


def test_diagonal_spectrum():
    m = ComplexMatrix(entries=np.diag([1.0, 2.0, 3.0]).astype(complex))
    s = eigenvalues(m, scale=False)
    assert np.allclose(np.sort(s.values.real), [1, 2, 3], atol=1e-12)
    assert np.allclose(s.values.imag, 0, atol=1e-12)


def test_rotation_matrix_spectrum():
    m = ComplexMatrix(entries=np.array([[0, 1], [-1, 0]], complex))
    s = eigenvalues(m, scale=False)
    assert set(np.round(s.values, 12)) == {1j, -1j}


def test_companion_matrix_cube_roots():
    # companion matrix of z^3 - 1; roots are the cube roots of unity
    comp = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], complex)
    s = eigenvalues(ComplexMatrix(entries=comp), scale=False)
    key = lambda z: (round(z.real, 8), round(z.imag, 8))
    expected = sorted((cmath.exp(2j * cmath.pi * k / 3) for k in range(3)), key=key)
    got = sorted(s.values.tolist(), key=key)
    for g, e in zip(got, expected):
        assert abs(g - e) < 1e-10


def _assert_eigenpair_residual(a: np.ndarray, vals: np.ndarray, tol: float = 1e-6):
    """Inverse iteration on the largest eigenvalue; residual <= tol * ||A||."""
    lam = vals[np.argmax(np.abs(vals))]
    n = a.shape[0]
    scale = np.linalg.norm(a, ord="fro") / math.sqrt(n)
    shifted = a - (lam + 1e-10 * (1 + abs(lam))) * np.eye(n)
    v = np.ones(n, dtype=np.complex128) / math.sqrt(n)
    for _ in range(3):
        v = np.linalg.solve(shifted, v)
        v = v / np.linalg.norm(v)
    residual = np.linalg.norm(a @ v - lam * v)
    norm = np.linalg.norm(a, ord=2) if n <= 64 else scale * math.sqrt(n)
    assert residual <= tol * max(norm, 1.0), (
        f"eigenpair residual {residual:.3e} exceeds {tol:.1e} * ||A||"
    )


def test_scaling_and_residual_check():
    m = sample_matrix(AtomDistribution("complex-gaussian"), 64, seed=5)
    raw = eigenvalues(m, scale=False)
    _assert_eigenpair_residual(m.entries, raw.values)
    scaled = eigenvalues(m, scale=True)
    assert np.allclose(np.sort(np.abs(raw.values)) / 8.0, np.sort(np.abs(scaled.values)))
    assert scaled.scaled and not raw.scaled


def test_trace_identity():
    for seed in range(5):
        m = sample_matrix(AtomDistribution("real-gaussian"), 100, seed=seed)
        s = eigenvalues(m, scale=False)
        bound = 1e-8 * m.n * np.abs(m.entries).max()
        assert abs(s.values.sum() - np.trace(m.entries)) <= bound


REAL_CUSTOM = AtomDistribution("custom-discrete", atoms=(2.0, -0.5), probs=(0.2, 0.8))
COMPLEX_CUSTOM = AtomDistribution("custom-discrete", atoms=(1j, -1j, 1.0, -1.0), probs=(0.25,) * 4)


@pytest.mark.parametrize("dist, dtype", [
    (AtomDistribution("rademacher"), np.float64),
    (AtomDistribution("real-gaussian"), np.float64),
    (REAL_CUSTOM, np.float64),
    (AtomDistribution("complex-gaussian"), np.complex128),
    (COMPLEX_CUSTOM, np.complex128),
], ids=["rademacher", "real-gaussian", "real-custom", "complex-gaussian", "complex-custom"])
def test_solver_input_dtype_follows_the_ensemble(monkeypatch, dist, dtype):
    atoms = sample_atoms(dist, 64, make_rng(4))
    assert atoms.dtype == dtype
    m = sample_matrix(dist, 8, seed=4)
    assert np.array_equal(m.entries.ravel(), atoms)  # same stream, row-major
    solve, seen = np.linalg.eigvals, []

    def spy(a):
        seen.append(a.dtype)
        return solve(a)

    monkeypatch.setattr(spectral.np.linalg, "eigvals", spy)
    s = eigenvalues(m, scale=True)
    assert seen == [np.dtype(dtype)]
    assert s.values.dtype == np.complex128
    assert ComplexMatrix(entries=m.entries.astype(complex)).entries.dtype == np.complex128
    assert ComplexMatrix(entries=[[1]]).entries.dtype == np.float64


_OPENBLAS = spectral._openblas_threads()
needs_openblas = pytest.mark.skipif(_OPENBLAS is None, reason="numpy's BLAS is not scipy-openblas")


@needs_openblas
@pytest.mark.parametrize("caller_threads", [1, 2])
@pytest.mark.parametrize("fails", [False, True], ids=["solves", "fails"])
def test_solve_runs_on_one_blas_thread_and_restores_the_callers(monkeypatch, caller_threads,
                                                                 fails):
    get, set_ = _OPENBLAS
    solve, seen = np.linalg.eigvals, []

    def spy(a):
        seen.append(get())
        if fails:
            raise np.linalg.LinAlgError("forced")
        return solve(a)

    monkeypatch.setattr(spectral.np.linalg, "eigvals", spy)
    matrix = sample_matrix(AtomDistribution("complex-gaussian"), 8, seed=1)
    previous = get()
    set_(caller_threads)
    try:
        if fails:
            with pytest.raises(spectral.EigensolverError):
                eigenvalues(matrix, scale=True)
        else:
            eigenvalues(matrix, scale=True)
        after = get()
    finally:
        set_(previous)
    assert seen == [1]
    assert after == caller_threads


def test_other_blas_is_logged_once_and_solved_unpinned(monkeypatch, tmp_path, caplog):
    monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    spectral._openblas_threads.cache_clear()
    try:
        with caplog.at_level(logging.WARNING, logger=spectral.__name__):
            spectra = [eigenvalues(sample_matrix(AtomDistribution("complex-gaussian"), 4, seed=s),
                                   scale=True) for s in (1, 2)]
    finally:
        spectral._openblas_threads.cache_clear()
    assert [s.n for s in spectra] == [4, 4]
    assert [r.getMessage() for r in caplog.records] == [
        "numpy's BLAS is not the bundled scipy-openblas; BLAS work runs at its own "
        "thread count, so its bytes may depend on that count"
    ]


def _by_position(values):
    """Values sorted by (real part to 6 places, imaginary part): an order that
    rounding-level perturbations of a spectrum do not change."""
    return values[np.lexsort((values.imag, np.round(values.real, 6)))]


@pytest.mark.parametrize("dist", [AtomDistribution("rademacher"),
                                  AtomDistribution("real-gaussian"), REAL_CUSTOM],
                         ids=["rademacher", "real-gaussian", "real-custom"])
@pytest.mark.parametrize("n", [3, 16, 64])
def test_real_path_matches_the_complex_solve(dist, n):
    m = sample_matrix(dist, n, seed=n)
    assert m.entries.dtype == np.float64
    real = eigenvalues(m, scale=True).values
    cast = eigenvalues(ComplexMatrix(entries=m.entries.astype(complex)), scale=True).values
    assert real.dtype == cast.dtype == np.complex128
    assert np.max(np.abs(_by_position(real) - _by_position(cast))) <= 1e-10
    # Eigenvalues the complex solve puts within rounding of the real axis are
    # exactly real here; the others come in exact conjugate pairs.
    assert np.count_nonzero(real.imag == 0) == np.count_nonzero(np.abs(cast.imag) < 1e-12) > 0
    upper, lower = real[real.imag > 0], real[real.imag < 0]
    assert np.array_equal(np.sort_complex(upper), np.sort_complex(np.conj(lower)))
    _assert_eigenpair_residual(m.entries, eigenvalues(m, scale=False).values)


@pytest.mark.parametrize("entries, expected", [
    ([[3.0]], [3.0]),
    ([[-2.0]], [-2.0]),
    ([[2.0, 1.0], [1.0, 2.0]], [1.0, 3.0]),
    ([[1.0, 0.0], [0.0, -1.0]], [1.0, -1.0]),
], ids=["n1", "n1_negative", "n2_symmetric", "n2_diagonal"])
def test_all_real_spectrum_is_complex128(entries, expected):
    m = ComplexMatrix(entries=np.array(entries))
    assert m.entries.dtype == np.float64
    for scale in (False, True):
        s = eigenvalues(m, scale=scale)
        assert s.values.dtype == np.complex128
        want = np.sort(expected) / (math.sqrt(m.n) if scale else 1.0)
        assert np.allclose(np.sort(s.values.real), want, atol=1e-12)
        assert np.all(s.values.imag == 0.0)
        assert spiral_sort(s).values.dtype == np.complex128


def test_arg_convention_positive_real_is_two_pi():
    assert arg_in_2pi(np.array([1.0 + 0j]))[0] == pytest.approx(2 * math.pi)
    assert arg_in_2pi(np.array([-1.0 + 0j]))[0] == pytest.approx(math.pi)
    assert arg_in_2pi(np.array([1j]))[0] == pytest.approx(math.pi / 2)
    assert arg_in_2pi(np.array([-1j]))[0] == pytest.approx(3 * math.pi / 2)
    assert spiral_key(1.0 + 0j, 4)[2] == pytest.approx(2 * math.pi)


def test_spiral_compare_examples():
    assert spiral_compare(0, 1 + 1j, 16) == -1  # zero precedes everything
    assert spiral_compare(1 + 1j, 0, 16) == 1
    assert spiral_compare(0, 0, 16) == 0
    # floor keys 0 vs 1 at n=4
    assert spiral_compare(0.4, 0.9, 4) == -1
    # same ring, smaller argument first
    w = cmath.exp(1j * math.pi / 3)
    z = cmath.exp(1j * math.pi / 2)
    assert spiral_compare(w, z, 7) == -1
    # full tie
    assert spiral_compare(w, w, 7) == 0


def test_spiral_compare_axioms_random():
    rng = np.random.default_rng(42)
    pts = (rng.standard_normal(3000) + 1j * rng.standard_normal(3000)) * 0.6
    n = 64
    for _ in range(10_000):
        i, j, k = rng.integers(0, pts.size, 3)
        w, z, u = pts[i], pts[j], pts[k]
        cwz, czw = spiral_compare(w, z, n), spiral_compare(z, w, n)
        assert cwz == -czw  # antisymmetry
        if cwz == 0:
            assert spiral_key(w, n) == spiral_key(z, n)  # equal only on full key tie
        # transitivity through the key tuples
        if cwz <= 0 and spiral_compare(z, u, n) <= 0:
            assert spiral_compare(w, u, n) <= 0


def test_spiral_floor_key_snapping():
    # modulus within 1e-12 of a multiple of 1/sqrt(n) snaps before flooring
    n = 4
    exact = 0.5  # = 1/sqrt(4)
    assert spiral_key(exact - 1e-13, n)[1] == 1
    assert spiral_key(exact + 1e-13, n)[1] == 1
    assert spiral_key(exact - 1e-9, n)[1] == 0  # outside the snap window


def test_spiral_sort_properties():
    rng = np.random.default_rng(7)
    values = (rng.standard_normal(100) + 1j * rng.standard_normal(100)) * 0.7
    values[0] = 0.0
    s = _spectrum(values)
    s1 = spiral_sort(s)
    assert s1.values[0] == 0.0
    # idempotence and permutation invariance
    assert np.array_equal(spiral_sort(s1).values, s1.values)
    shuffled = _spectrum(values[rng.permutation(100)])
    assert np.array_equal(spiral_sort(shuffled).values, s1.values)
    # output is a permutation, pairwise ordered under the comparator
    assert sorted(map(tuple, zip(s1.values.real, s1.values.imag))) == sorted(
        map(tuple, zip(values.real, values.imag))
    )
    for a, b in zip(s1.values, s1.values[1:]):
        assert spiral_compare(a, b, 100) <= 0


def test_spectral_radius():
    assert spectral_radius(_spectrum([0.0])) == 0.0
    assert spectral_radius(_spectrum([1.0, -2.0])) == 2.0


@pytest.mark.slow
def test_ginibre_containment_frequency():
    # calibrated: all 100 seeds land inside radius 1.1 at n=256
    inside = 0
    for seed in range(100):
        m = sample_matrix(AtomDistribution("complex-gaussian"), 256, seed=seed)
        s = eigenvalues(m, scale=True)
        inside += spectral_radius(s) <= 1.1
    assert inside >= 99
    # larger matrices concentrate harder
    for seed in (0, 1):
        m = sample_matrix(AtomDistribution("complex-gaussian"), 1024, seed=seed)
        assert 0.95 < spectral_radius(eigenvalues(m, scale=True)) < 1.1


def test_eigenvalues_base_ordering():
    # output is ordered by modulus, ties by argument in (0, 2*pi]
    m = sample_matrix(AtomDistribution("real-gaussian"), 60, seed=6)
    s = eigenvalues(m, scale=True)
    mods = np.abs(s.values)
    args = arg_in_2pi(s.values)
    for i in range(1, s.n):
        assert mods[i] > mods[i - 1] or (
            mods[i] == mods[i - 1] and args[i] >= args[i - 1]
        )


def test_spectrum_validation():
    with pytest.raises(ValueError):
        ComplexSpectrum(values=np.array([], complex), scaled=True)
    with pytest.raises(ValueError):
        ComplexSpectrum(values=np.array([np.nan + 0j]), scaled=True)
