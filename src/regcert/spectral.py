"""Dense SVD and a gallery of discretized ill-posed linear problems.

The singular triple (U, sigma, V) of a square matrix A carries everything
the spectral calculus needs: T = A^T A has eigenvalues s_i = sigma_i^2 with
eigenvectors the columns of V, and functions of T act diagonally there.
This module also holds what linreg and varreg share: ``apply``, the filter
(T + aI)^{-1} A^T = V diag(sigma/(s + a)) U^T on a triple (linreg's
regularizer, varreg's linearized start), and the row norms ``_norms`` and
``_sqnorms``, which give each row of a stack the bits of np.linalg.norm.

No gallery kind runs a dense SVD.  The diagonal kinds are built from their
own SVD, A = Q1 diag(d) Q2^T, so they carry the triple by construction; the
volterra matrix's triple has a closed form (``_volterra_triple``).
``spectrum`` builds a kind's sigma alone, all that the spectral bounds
read; ``factors`` builds its full triple and ``make_problem`` adds A.
``svd`` stays as the dense LAPACK SVD of a general square matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidMatrixError, choice, count, positive_finite, vector, within
from .seeding import rng_from

MAX_DENSE_N = 1024

# Singular values below this relative threshold count as exact zeros
# (null-space modes).
ZERO_SV_RTOL = 1e-14

PROBLEM_KINDS = ("volterra", "diagonal", "rotated-diagonal")


@dataclass(frozen=True)
class Spectrum:
    """Singular values sigma of a square matrix, descending and read-only."""

    sigma: np.ndarray

    def __post_init__(self):
        for field in fields(self):
            arr = np.asarray(getattr(self, field.name), dtype=float).copy()
            arr.flags.writeable = False
            object.__setattr__(self, field.name, arr)

    @property
    def s(self) -> np.ndarray:
        """Eigenvalues of A^T A."""
        return self.sigma**2

    @property
    def n(self) -> int:
        return self.sigma.shape[0]


@dataclass(frozen=True)
class SvdTriple(Spectrum):
    """Singular value decomposition A = U diag(sigma) V^T, sigma descending."""

    u: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class ProblemSpec:
    """Gallery problem: integration operator, power-law diagonal, or a
    seeded orthogonal conjugation of the latter."""

    kind: str
    n: int
    q: float = 1.0
    seed: int = 0

    def __post_init__(self):
        choice(self.kind, PROBLEM_KINDS, "problem kind", InvalidMatrixError)
        count(self.n, "dimension", InvalidMatrixError)
        within(self.n, 1, MAX_DENSE_N, "dimension", InvalidMatrixError)
        if self.kind == "volterra" and self.n < 3:
            raise InvalidMatrixError("volterra problem needs n >= 3")
        if self.kind != "volterra":
            positive_finite(self.q, "decay exponent", InvalidMatrixError)


def svd(a: np.ndarray) -> SvdTriple:
    """SVD of a general square matrix (dense LAPACK), singular values sorted
    descending.  The gallery kinds do not need it: ``make_problem`` builds
    their triples in closed form.

    Values below 1e-14 * sigma_max are flushed to exact zero so null-space
    modes are detected reliably.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidMatrixError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] > MAX_DENSE_N:
        raise InvalidMatrixError(
            f"dense SVD capped at n={MAX_DENSE_N}, got n={a.shape[0]}"
        )
    if not np.all(np.isfinite(a)):
        raise InvalidMatrixError("matrix entries must all be finite")
    u, sig, vh = np.linalg.svd(a)
    return SvdTriple(u=u, sigma=_flush_null_modes(sig), v=vh.T)


def _flush_null_modes(sig: np.ndarray) -> np.ndarray:
    """Descending singular values with those below ZERO_SV_RTOL * sigma_max set to 0."""
    if sig.size and sig[0] > 0.0:
        sig = np.where(sig < ZERO_SV_RTOL * sig[0], 0.0, sig)
    return sig


def _filter(svd: Spectrum, a: float) -> np.ndarray:
    return svd.sigma / (svd.s + a)


def apply(svd: SvdTriple, f_delta: np.ndarray, a: float) -> np.ndarray:
    """Regularized solution V diag(sigma_i/(s_i + a)) U^T f_delta.

    This is the exact finite-dimensional (T + aI)^{-1} A^T; the output has no
    component on null-space modes, so it converges to the normal solution.
    """
    positive_finite(a, "regularization parameter")
    f_delta = vector(f_delta, svd.n, "data vector")
    return svd.v @ (_filter(svd, a) * (svd.u.T @ f_delta))


def _sqnorms(x: np.ndarray) -> np.ndarray:
    """x @ x along the last axis, for a vector or a stack of shape (..., n).

    The stacked matmul gives every row the bits of the 1-D dot product (and
    so of np.linalg.norm squared); einsum and (x * x).sum do not.  [()]
    turns the 0-d result for a single vector into a scalar.
    """
    return (x[..., None, :] @ x[..., :, None])[..., 0, 0][()]


def _norms(x: np.ndarray) -> np.ndarray:
    """Norms along the last axis, with the bits of np.linalg.norm per row."""
    return np.sqrt(_sqnorms(x))


def volterra_matrix(n: int) -> np.ndarray:
    """Trapezoid discretization of u -> integral of u from 0 to x on n nodes."""
    dx = 1.0 / (n - 1)
    a = np.tril(np.full((n, n), dx))
    a[:, 0] = 0.5 * dx
    np.fill_diagonal(a, 0.5 * dx)
    a[0, 0] = 0.0
    return a


def _volterra_modes(m: int) -> tuple[np.ndarray, np.ndarray]:
    """theta_k/2, k = 1..m, and sigma of ``volterra_matrix(m + 1)`` (``_volterra_triple``)."""
    target = (np.arange(1, m + 1) - 0.5) * np.pi
    theta = target / (m + 0.25)
    # Newton on m theta + phi(theta); phi' = (1 + t^2)/(4 + t^2) with
    # t = tan(theta/2), so the slope lies in [m + 1/4, m + 1).  Four steps
    # converge for every n <= MAX_DENSE_N.
    for _ in range(8):
        half_cos, half_sin = np.cos(0.5 * theta), np.sin(0.5 * theta)
        t2 = (half_sin / half_cos) ** 2
        step = (m * theta + np.arctan2(half_sin, 2.0 * half_cos) - target) / (
            m + (1.0 + t2) / (4.0 + t2)
        )
        theta -= step
        if np.max(np.abs(step)) <= 1e-15:
            break
    half = 0.5 * theta
    return half, _flush_null_modes(np.append(0.5 / (m * np.tan(half)), 0.0))


def _volterra_triple(n: int) -> SvdTriple:
    """Closed-form SVD of ``volterra_matrix(n)``.

    With m = n - 1 and h = 1/m, row 0 is zero and rows 1..m are (h/2) L B,
    L the m x m lower-triangular ones and B[i, i] = B[i, i+1] = 1.  The
    positive modes are sigma_k = (h/2) cot(theta_k/2), k = 1..m, where
    theta_k in (0, pi) solves m theta + phi(theta) = (k - 1/2) pi with
    phi(theta) = arctan(tan(theta/2) / 2).  With alpha_i = (i + 1/2) theta_k
    + phi_k, u_k = [0, sin alpha_0, ..., sin alpha_{m-1}] and v_k = [cos phi_k
    / (2 cos(theta_k/2)), cos alpha_0, ..., cos alpha_{m-1}], both
    normalized, so v_k[0] > 0 and u_k[1] > 0.  The null pair is u = e_0,
    v_j = (-1)^j / sqrt(n).
    """
    m = n - 1
    half, sigma = _volterra_modes(m)
    phi = np.arctan2(np.sin(half), 2.0 * np.cos(half))
    # alpha = x theta_k + phi_k for x = i + 1/2, with theta_k = ((k - 1/2) pi
    # - phi_k)/m: x (k - 1/2) pi / m = pi (2x)(2k - 1) / (4m), whose integer
    # number of half-turns is reduced exactly, modulo 8m, before scaling.
    # Unreduced, U's orthogonality error grows to about 3e-13 at n = 1024.
    two_x = np.arange(1, 2 * m, 2)
    alpha = np.outer(2 * np.arange(1, m + 1) - 1, two_x) % (8 * m) * (np.pi / (4 * m))
    alpha += phi[:, None] * (1.0 - two_x / (2.0 * m))
    ut = np.zeros((n, n))
    np.sin(alpha, out=ut[:m, 1:])
    ut[:m] /= np.linalg.norm(ut[:m], axis=1)[:, None]
    ut[m, 0] = 1.0
    vt = np.empty((n, n))
    np.cos(alpha, out=vt[:m, 1:])
    vt[:m, 0] = np.cos(phi) / (2.0 * np.cos(half))
    vt[:m] /= np.linalg.norm(vt[:m], axis=1)[:, None]
    vt[m] = (-1.0) ** np.arange(n) / np.sqrt(n)
    return SvdTriple(u=ut.T, sigma=sigma, v=vt.T)


def spectrum(spec: ProblemSpec) -> Spectrum:
    """The gallery matrix's sigma, bit for bit ``make_problem``'s, with no
    factor, draw or matrix: ``rotated-diagonal``'s is ``diagonal``'s."""
    if spec.kind == "volterra":
        return Spectrum(sigma=_volterra_modes(spec.n - 1)[1])
    return Spectrum(sigma=_flush_null_modes(np.arange(1, spec.n + 1, dtype=float) ** (-spec.q)))


def _seeded_orthogonal(n: int, rng) -> np.ndarray:
    m = rng.standard_normal((n, n))
    q, r = np.linalg.qr(m)
    # Fix the sign convention so the factor is a deterministic function of m.
    return q * np.sign(np.diag(r))


def factors(spec: ProblemSpec) -> SvdTriple:
    """The gallery matrix's singular triple, with ``spectrum``'s sigma.

    The diagonal kinds are A = Q1 diag(d) Q2^T with the descending power
    law d_k = k^-q, so their triple is (Q1, d, Q2) with no factorization:
    Q1 = Q2 = I for ``diagonal``, and for ``rotated-diagonal`` Q1 and then
    Q2 are the seeded QR factors of two draws from one generator;
    ``volterra``'s is its closed form.  No kind runs a dense SVD or forms A.
    """
    if spec.kind == "volterra":
        return _volterra_triple(spec.n)
    if spec.kind == "diagonal":
        q1 = q2 = np.eye(spec.n)
    else:
        rng = rng_from(spec.seed)
        q1 = _seeded_orthogonal(spec.n, rng)
        q2 = _seeded_orthogonal(spec.n, rng)
    return SvdTriple(u=q1, sigma=spectrum(spec).sigma, v=q2)


def make_problem(spec: ProblemSpec) -> tuple[np.ndarray, SvdTriple]:
    """The gallery matrix A and its singular triple, ``factors(spec)``.

    A is ``volterra_matrix`` for ``volterra`` and Q1 diag(d) Q2^T, with d
    before the null-mode flush, for the diagonal kinds.  Only the callers
    that form A y, or need U or V, want this: linreg's certify reads sigma
    alone and calls ``spectrum``.
    """
    tri = factors(spec)
    if spec.kind == "volterra":
        return volterra_matrix(spec.n), tri
    d = np.arange(1, spec.n + 1, dtype=float) ** (-spec.q)
    a = np.diag(d) if spec.kind == "diagonal" else (tri.u * d) @ tri.v.T
    return a, tri
