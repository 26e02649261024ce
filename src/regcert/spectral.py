"""Dense SVD and a gallery of discretized ill-posed linear problems.

The singular triple (U, sigma, V) of a square matrix A carries everything
the spectral calculus needs: T = A^T A has eigenvalues s_i = sigma_i^2 with
eigenvectors the columns of V, and functions of T act diagonally there.

The diagonal gallery kinds are built from their own SVD, A = Q1 diag(d) Q2^T,
so they carry the triple by construction; only the volterra matrix goes
through the dense LAPACK SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMatrixError, choice, count, positive_finite, within
from .seeding import rng_from

MAX_DENSE_N = 1024

# Singular values below this relative threshold count as exact zeros
# (null-space modes).
ZERO_SV_RTOL = 1e-14

PROBLEM_KINDS = ("volterra", "diagonal", "rotated-diagonal")


@dataclass(frozen=True)
class SvdTriple:
    """Singular value decomposition A = U diag(sigma) V^T, sigma descending."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        for name in ("u", "sigma", "v"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def s(self) -> np.ndarray:
        """Eigenvalues of A^T A."""
        return self.sigma**2

    @property
    def n(self) -> int:
        return self.sigma.shape[0]


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
    """SVD of a square matrix, singular values sorted descending.

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


def volterra_matrix(n: int) -> np.ndarray:
    """Trapezoid discretization of u -> integral of u from 0 to x on n nodes."""
    dx = 1.0 / (n - 1)
    a = np.tril(np.full((n, n), dx))
    a[:, 0] = 0.5 * dx
    np.fill_diagonal(a, 0.5 * dx)
    a[0, 0] = 0.0
    return a


def _seeded_orthogonal(n: int, rng) -> np.ndarray:
    m = rng.standard_normal((n, n))
    q, r = np.linalg.qr(m)
    # Fix the sign convention so the factor is a deterministic function of m.
    return q * np.sign(np.diag(r))


def make_problem(spec: ProblemSpec) -> tuple[np.ndarray, SvdTriple]:
    """Build the gallery matrix and its singular triple.

    The diagonal kinds are assembled as A = Q1 diag(d) Q2^T from the
    descending power law d_k = k^-q (Q1 = Q2 = I for ``diagonal``), so their
    triple is (Q1, d, Q2) with no factorization; ``volterra`` runs ``svd``.
    """
    if spec.kind == "volterra":
        a = volterra_matrix(spec.n)
        return a, svd(a)
    d = np.arange(1, spec.n + 1, dtype=float) ** (-spec.q)
    if spec.kind == "diagonal":
        q1 = q2 = np.eye(spec.n)
        a = np.diag(d)
    else:
        rng = rng_from(spec.seed)
        q1 = _seeded_orthogonal(spec.n, rng)
        q2 = _seeded_orthogonal(spec.n, rng)
        a = (q1 * d) @ q2.T
    return a, SvdTriple(u=q1, sigma=_flush_null_modes(d), v=q2)
