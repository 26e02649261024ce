import numpy as np
import pytest

from regcert import ProblemSpec, make_problem, svd
from regcert.errors import InvalidMatrixError
from regcert.spectral import MAX_DENSE_N, PROBLEM_KINDS, volterra_matrix


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


class TestGallery:
    def test_diagonal_exact(self):
        _, tri = make_problem(ProblemSpec("diagonal", 4, q=1.0))
        np.testing.assert_allclose(tri.sigma, [1.0, 0.5, 1.0 / 3.0, 0.25], atol=1e-12)

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
        assert np.max(np.abs(plain.sigma - rot.sigma)) <= 1e-10

    def test_spec_validation(self):
        with pytest.raises(InvalidMatrixError):
            ProblemSpec("hilbert", 8)
        with pytest.raises(InvalidMatrixError):
            ProblemSpec("diagonal", 8, q=0.0)
        with pytest.raises(InvalidMatrixError):
            ProblemSpec("diagonal", 0)
        # Rejected before make_problem builds the n x n matrix.
        for kind in PROBLEM_KINDS:
            with pytest.raises(InvalidMatrixError):
                ProblemSpec(kind, MAX_DENSE_N + 1)

