import numpy as np
import pytest

from regcert import ProblemSpec, factors, make_problem, spectral, spectrum, svd
from regcert.errors import InvalidMatrixError
from regcert.seeding import rng_from
from regcert.spectral import MAX_DENSE_N, PROBLEM_KINDS, ZERO_SV_RTOL, volterra_matrix


def _check_triple(a, tri):
    n = a.shape[0]
    eye = np.eye(n)
    assert np.max(np.abs(tri.u.T @ tri.u - eye)) <= 1e-10
    assert np.max(np.abs(tri.v.T @ tri.v - eye)) <= 1e-10
    recon = tri.u @ np.diag(tri.sigma) @ tri.v.T
    assert np.max(np.abs(recon - a)) <= 1e-10 * n * max(tri.sigma[0], 1e-300)
    assert np.all(np.diff(tri.sigma) <= 0)
    assert np.all(tri.sigma >= 0)


class TestSvd:
    def test_diagonal_sorted(self):
        tri = svd(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(tri.sigma, [3.0, 2.0, 1.0], atol=1e-14)

    def test_random_invariants(self, rng):
        a = rng.standard_normal((50, 50))
        tri = svd(a)
        _check_triple(a, tri)

    def test_zero_matrix(self):
        tri = svd(np.zeros((4, 4)))
        np.testing.assert_array_equal(tri.sigma, np.zeros(4))
        _check_triple(np.zeros((4, 4)), tri)

    def test_determinism(self, rng):
        a = rng.standard_normal((20, 20))
        t1, t2 = svd(a), svd(a)
        assert np.array_equal(t1.u, t2.u)
        assert np.array_equal(t1.sigma, t2.sigma)
        assert np.array_equal(t1.v, t2.v)

    def test_tiny_singular_values_flushed(self):
        a = np.diag([1.0, 1e-16])
        tri = svd(a)
        assert tri.sigma[1] == 0.0

    def test_rejections(self):
        with pytest.raises(InvalidMatrixError):
            svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(InvalidMatrixError):
            svd(np.zeros((3, 4)))
        with pytest.raises(InvalidMatrixError):
            svd(np.zeros((1025, 1025)))

    def test_s_property(self):
        tri = svd(np.diag([2.0, 0.5]))
        np.testing.assert_allclose(tri.s, [4.0, 0.25], rtol=1e-14)


def _volterra_matrix_reference(n):
    """The row-by-row trapezoid weights that volterra_matrix builds in closed form."""
    dx = 1.0 / (n - 1)
    a = np.zeros((n, n))
    for i in range(1, n):
        a[i, 0] = 0.5 * dx
        a[i, 1:i] = dx
        a[i, i] = 0.5 * dx
    return a


def _diagonal_kind_reference(spec):
    """The three-factor product Q1 diag(d) Q2^T that the diagonal kinds stand
    for, with the flushed d as their singular values."""
    n = spec.n
    d = np.arange(1, n + 1, dtype=float) ** (-spec.q)
    if spec.kind == "diagonal":
        q1 = q2 = np.eye(n)
    else:
        rng = rng_from(spec.seed)
        q1, q2 = (_orthogonal_reference(n, rng) for _ in range(2))
    return q1 @ np.diag(d) @ q2.T, np.where(d < ZERO_SV_RTOL * d[0], 0.0, d)


def _orthogonal_reference(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q @ np.diag(np.sign(np.diag(r)))


def _no_dense_svd(*args, **kwargs):
    raise AssertionError("dense SVD called for a gallery kind")


class TestClosedForm:
    """Every gallery kind returns its SVD without a dense factorization: the
    diagonal kinds from their own factors, volterra from its closed form."""

    @pytest.mark.parametrize("n", [1, 2, 24, 256])
    @pytest.mark.parametrize("kind", ["diagonal", "rotated-diagonal"])
    def test_triple_from_factors(self, kind, n, monkeypatch):
        spec = ProblemSpec(kind, n, q=0.7, seed=5)
        want_a, want_sigma = _diagonal_kind_reference(spec)
        monkeypatch.setattr(np.linalg, "svd", _no_dense_svd)
        a, tri = make_problem(spec)
        assert np.array_equal(a, want_a)
        assert np.array_equal(tri.sigma, want_sigma)
        eye = np.eye(n)
        assert np.linalg.norm(tri.u.T @ tri.u - eye) <= 1e-12
        assert np.linalg.norm(tri.v.T @ tri.v - eye) <= 1e-12
        recon = tri.u @ np.diag(tri.sigma) @ tri.v.T
        assert np.max(np.abs(recon - a)) <= 1e-13 * tri.sigma[0]
        for arr in (tri.u, tri.sigma, tri.v):
            assert not arr.flags.writeable

    @pytest.mark.parametrize("n", [3, 4, 17, 256, 1024])
    def test_volterra_triple_closed_form(self, n, monkeypatch):
        want_sigma = np.linalg.svd(volterra_matrix(n), compute_uv=False)
        monkeypatch.setattr(np.linalg, "svd", _no_dense_svd)
        a, tri = make_problem(ProblemSpec("volterra", n))
        assert np.array_equal(a, volterra_matrix(n))
        top = tri.sigma[0]
        assert np.max(np.abs(tri.sigma - want_sigma)) <= 1e-14 * top
        eye = np.eye(n)
        assert np.max(np.abs(tri.u.T @ tri.u - eye)) <= 1e-13
        assert np.max(np.abs(tri.v.T @ tri.v - eye)) <= 1e-13
        assert np.max(np.abs((tri.u * tri.sigma) @ tri.v.T - a)) <= 1e-14 * top
        # The null pair is exact: u = e_0, v_j = (-1)^j / sqrt(n), sigma = 0.
        assert tri.sigma[-1] == 0.0 and np.all(np.diff(tri.sigma) < 0)
        assert np.array_equal(tri.u[:, -1], eye[0])
        assert np.array_equal(tri.v[:, -1], (-1.0) ** np.arange(n) / np.sqrt(n))
        # The sign convention: v_k[0] > 0 and u_k[1] > 0 on every positive mode.
        assert np.all(tri.v[0, :-1] > 0) and np.all(tri.u[1, :-1] > 0)
        for arr in (tri.u, tri.sigma, tri.v):
            assert not arr.flags.writeable


class TestFactors:
    """``factors`` builds make_problem's triple, bit for bit, with no dense
    SVD and without forming A."""

    @pytest.mark.parametrize("n", [3, 64, 257])
    @pytest.mark.parametrize("kind", PROBLEM_KINDS)
    def test_left_only_equals_make_problem(self, kind, n, monkeypatch):
        spec = ProblemSpec(kind, n, q=0.7, seed=5)
        _, full = make_problem(spec)

        def no_matrix(*args, **kwargs):
            raise AssertionError("factors formed A")

        monkeypatch.setattr(np.linalg, "svd", _no_dense_svd)
        monkeypatch.setattr(spectral, "volterra_matrix", no_matrix)
        tri = factors(spec)
        # The left factor and sigma, then V, each equal make_problem's.
        assert np.array_equal(tri.u, full.u) and np.array_equal(tri.sigma, full.sigma)
        assert np.array_equal(tri.v, full.v)
        for arr in (tri.u, tri.sigma, tri.v):
            assert not arr.flags.writeable


class TestSpectrum:
    """``spectrum`` builds sigma alone, with make_problem's bits."""

    @pytest.mark.parametrize("n", [3, 4, 17, 257, 1024])
    @pytest.mark.parametrize("kind", PROBLEM_KINDS)
    def test_equals_make_problem(self, kind, n, monkeypatch):
        spec = ProblemSpec(kind, n, q=0.7, seed=5)
        _, full = make_problem(spec)

        def no_factorization(*args, **kwargs):
            raise AssertionError("spectrum ran a factorization")

        monkeypatch.setattr(np.linalg, "svd", no_factorization)
        monkeypatch.setattr(np.linalg, "qr", no_factorization)
        got = spectrum(spec)
        assert np.array_equal(got.sigma, full.sigma)
        assert not got.sigma.flags.writeable


class TestGallery:
    def test_diagonal_exact(self):
        _, tri = make_problem(ProblemSpec("diagonal", 4, q=1.0))
        assert tri.sigma.tolist() == [1.0, 0.5, 1.0 / 3.0, 0.25]

    def test_volterra_spectrum(self):
        # Analytic singular values of the continuum integration operator are
        # 2/((2j-1) pi); the n = 512 discretization matches the top ones to 1%.
        _, tri = make_problem(ProblemSpec("volterra", 512))
        for j in range(3):
            want = 2.0 / ((2 * j + 1) * np.pi)
            assert tri.sigma[j] == pytest.approx(want, rel=0.01)

    def test_volterra_matches_trapezoid_integral(self, rng):
        n = 65
        a = volterra_matrix(n)
        u = rng.standard_normal(n)
        dx = 1.0 / (n - 1)
        manual = np.concatenate(([0.0], np.cumsum(0.5 * dx * (u[1:] + u[:-1]))))
        np.testing.assert_allclose(a @ u, manual, atol=1e-14)

    @pytest.mark.parametrize("n", [3, 4, 17, 1024])
    def test_volterra_equals_row_loop(self, n):
        assert np.array_equal(volterra_matrix(n), _volterra_matrix_reference(n))

    def test_rotated_determinism(self):
        a1, _ = make_problem(ProblemSpec("rotated-diagonal", 24, q=0.7, seed=5))
        a2, _ = make_problem(ProblemSpec("rotated-diagonal", 24, q=0.7, seed=5))
        assert np.array_equal(a1, a2)
        a3, _ = make_problem(ProblemSpec("rotated-diagonal", 24, q=0.7, seed=6))
        assert not np.array_equal(a1, a3)

    def test_rotation_preserves_spectrum(self):
        _, plain = make_problem(ProblemSpec("diagonal", 24, q=0.7))
        _, rot = make_problem(ProblemSpec("rotated-diagonal", 24, q=0.7, seed=5))
        assert np.array_equal(plain.sigma, rot.sigma)

    def test_rotation_preserves_null_space(self):
        # k^-6 < 1e-14 exactly for k >= 216, so 41 of 256 modes are null for
        # both kinds (a dense SVD of the rotated matrix flushed 42).
        for kind in ("diagonal", "rotated-diagonal"):
            _, tri = make_problem(ProblemSpec(kind, 256, q=6.0, seed=3))
            assert np.count_nonzero(tri.sigma == 0.0) == 41

    def test_spec_validation(self):
        with pytest.raises(InvalidMatrixError):
            ProblemSpec("hilbert", 8)
        with pytest.raises(InvalidMatrixError):
            ProblemSpec("diagonal", 8, q=0.0)
        for q in (np.inf, np.nan):
            with pytest.raises(InvalidMatrixError, match="decay exponent"):
                ProblemSpec("rotated-diagonal", 8, q=q)
        with pytest.raises(InvalidMatrixError):
            ProblemSpec("diagonal", 0)
        # Rejected before make_problem builds the n x n matrix.
        for kind in PROBLEM_KINDS:
            with pytest.raises(InvalidMatrixError):
                ProblemSpec(kind, MAX_DENSE_N + 1)

