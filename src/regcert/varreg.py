"""Penalized minimization for injective nonlinear problems.

Minimizes F(v) = ||A(v) - f_delta|| + delta * phi(v) over the admissible set
{residual <= delta, phi(v) <= c} with phi(v) = ||v||^2, on small gallery
problems A(v) = B * sigma(v) with an elementwise monotone nonlinearity.  The
truth is always feasible with F(truth) <= (1 + phi(truth)) * delta, so a
2-approximate minimizer certifies the same linear-in-delta bound, and the
delta -> 0 study tracks convergence of the minimizers to the truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InfeasibleError, InvalidMatrixError, InvalidParameterError
from .linreg import apply
from .seeding import rng_from
from .spectral import ProblemSpec, SvdTriple, make_problem, svd

NONLINEARITIES = ("identity", "cubic")

FEAS_TOL = 1.0 + 1e-9


@dataclass(frozen=True)
class NonlinearProblem:
    """Forward map A(v) = B sigma(v) with phi-ball compactum of radius cap."""

    b: np.ndarray
    nonlinearity: str
    phi_cap: float
    b_svd: SvdTriple = None

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise InvalidMatrixError(f"B must be square, got shape {b.shape}")
        if self.nonlinearity not in NONLINEARITIES:
            raise InvalidMatrixError(
                f"unknown nonlinearity {self.nonlinearity!r}; choose one of {NONLINEARITIES}"
            )
        if not 0.0 < self.phi_cap < np.inf:
            raise InvalidParameterError(f"phi cap must be positive and finite, got {self.phi_cap}")
        b = b.copy()
        b.flags.writeable = False
        object.__setattr__(self, "b", b)
        tri = svd(b) if self.b_svd is None else self.b_svd
        if tri.sigma[-1] <= 0.0:
            raise InvalidMatrixError("B must be injective (smallest singular value > 0)")
        object.__setattr__(self, "b_svd", tri)

    @property
    def n(self) -> int:
        return self.b.shape[0]

    def forward(self, v: np.ndarray) -> np.ndarray:
        return self.b @ _sigma(v, self.nonlinearity)


@dataclass(frozen=True)
class MinimizeReport:
    v_delta: np.ndarray
    F_value: float
    iterations: int
    restarts: int


@dataclass(frozen=True)
class StudyRow:
    delta: float
    F_value: float
    c1_delta_bound: float
    error_to_truth: float


def _sigma(v: np.ndarray, kind: str) -> np.ndarray:
    if kind == "identity":
        return v
    return v + v**3 / 3.0


def _sigma_inverse(x: np.ndarray, kind: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if kind == "identity":
        return x
    # Cardano: the real root of t^3 + 3t = 3x is 3x / (w^2 + 1 + w^-2) with
    # w^3 = (3|x| + hypot(3x, 2))/2; the denominator is even in x, so nothing cancels.
    w2 = np.cbrt((3.0 * np.abs(x) + np.hypot(3.0 * x, 2.0)) / 2.0) ** 2
    return 3.0 * x / (w2 + 1.0 + 1.0 / w2)


def make_nonlinear_problem(
    kind: str, n: int, nonlinearity: str, phi_cap: float, q: float = 1.0, seed: int = 0
) -> NonlinearProblem:
    """Nonlinear problem with B taken from the spectral gallery."""
    b, tri = make_problem(ProblemSpec(kind=kind, n=n, q=q, seed=seed))
    return NonlinearProblem(b=b, nonlinearity=nonlinearity, phi_cap=phi_cap, b_svd=tri)


def phi(v: np.ndarray) -> float:
    v = np.asarray(v, dtype=float)
    return float(v @ v)


def functional(problem: NonlinearProblem, v: np.ndarray, f_delta: np.ndarray, delta: float) -> float:
    """F(v) = ||A(v) - f_delta|| + delta * ||v||^2."""
    if not 0.0 < delta < np.inf:
        raise InvalidParameterError(f"delta must be positive and finite, got {delta}")
    v = np.asarray(v, dtype=float)
    return float(np.linalg.norm(problem.forward(v) - f_delta)) + delta * phi(v)


def _residual(problem, v, f_delta) -> float:
    return float(np.linalg.norm(problem.forward(v) - f_delta))


def _project_cap(v: np.ndarray, cap: float) -> np.ndarray:
    r = phi(v)
    if r <= cap:
        return v
    return v * np.sqrt(cap / r)


def _gradient(problem, v, f_delta, delta=None):
    """Gradient of ||r||^2 or, given ``delta``, of F, from J^T r = sigma'(v) * B^T r."""
    r = problem.forward(v) - f_delta
    jtr = (1.0 if problem.nonlinearity == "identity" else 1.0 + v**2) * (problem.b.T @ r)
    if delta is None:
        return 2.0 * jtr
    rn = float(np.linalg.norm(r))
    # At r = 0 the residual term is 0, as a symmetric difference quotient gives.
    return (jtr / rn if rn > 0.0 else 0.0) + 2.0 * delta * v


def _descend(fn, grad, v, cap, iters):
    """Projected gradient descent with backtracking; ``grad`` is fn's gradient."""
    fv = fn(v)
    used = 0
    for _ in range(iters):
        used += 1
        g = grad(v)
        gn = float(np.linalg.norm(g))
        if gn < 1e-14:
            break
        t = 1.0 / max(gn, 1.0)
        improved = False
        while t > 1e-14:
            cand = _project_cap(v - t * g, cap)
            fc = fn(cand)
            if fc < fv - 1e-4 * t * gn * gn:
                v, fv = cand, fc
                improved = True
                break
            t *= 0.5
        if not improved:
            break
    return v, fv, used


def minimize(
    problem: NonlinearProblem,
    f_delta: np.ndarray,
    delta: float,
    budget: int = 200,
    seed: int = 0,
    restarts: int = 32,
    extra_starts: Optional[Sequence[np.ndarray]] = None,
) -> MinimizeReport:
    """Best feasible minimizer of F found by multi-start local descent.

    Starts: the origin, the linearized regularized solution
    sigma^{-1}((B^T B + delta I)^{-1} B^T f_delta), any ``extra_starts``, and
    seeded random points inside the phi ball.  Each start first descends the
    residual until it clears delta, then descends F itself with radial
    projection back into the ball; steps that break feasibility are repaired
    or rejected.  Both phases follow closed-form gradients of their objective;
    ``budget`` caps the descent iterations per phase and start.
    """
    if not 0.0 < delta < np.inf:
        raise InvalidParameterError(f"delta must be positive and finite, got {delta}")
    if budget < 1:
        raise InvalidParameterError(f"budget must be >= 1, got {budget}")
    if restarts < 1:
        raise InvalidParameterError(f"restarts must be >= 1, got {restarts}")
    f_delta = np.asarray(f_delta, dtype=float)
    cap = problem.phi_cap
    n = problem.n

    starts: list[np.ndarray] = [np.zeros(n)]
    lin = _sigma_inverse(apply(problem.b_svd, f_delta, delta), problem.nonlinearity)
    starts.append(_project_cap(lin, cap))
    if extra_starts is not None:
        starts.extend(_project_cap(np.asarray(v, dtype=float), cap) for v in extra_starts)
    rng = rng_from(seed)
    while len(starts) < restarts:
        d = rng.standard_normal(n)
        r = float(rng.uniform(0.0, 1.0)) ** (1.0 / n) * np.sqrt(cap)
        starts.append(r * d / max(float(np.linalg.norm(d)), 1e-300))

    sq = lambda w: _residual(problem, w, f_delta) ** 2
    sq_grad = lambda w: _gradient(problem, w, f_delta)
    fn = lambda w: functional(problem, w, f_delta, delta)
    fn_grad = lambda w: _gradient(problem, w, f_delta, delta)
    best_v = None
    best_f = np.inf
    total_iters = 0
    for v0 in starts[:restarts]:
        # Phase A: reach the admissible set.
        v, _, it_a = _descend(sq, sq_grad, v0, cap, budget)
        total_iters += it_a
        if _residual(problem, v, f_delta) > delta * FEAS_TOL:
            continue
        # Phase B: descend the penalized functional, repairing residual drift.
        v, fv, it_b = _descend(fn, fn_grad, v, cap, budget)
        total_iters += it_b
        if _residual(problem, v, f_delta) > delta * FEAS_TOL:
            v, _, it_c = _descend(sq, sq_grad, v, cap, budget)
            total_iters += it_c
            fv = fn(v)
        if _residual(problem, v, f_delta) <= delta * FEAS_TOL and fv < best_f:
            best_v, best_f = v, fv
    if best_v is None:
        raise InfeasibleError(
            "no feasible point found within budget; the data may be inconsistent "
            "with the noise radius or the phi cap too small"
        )
    return MinimizeReport(
        v_delta=best_v,
        F_value=float(best_f),
        iterations=total_iters,
        restarts=restarts,
    )


def noise_at_radius(rng: np.random.Generator, n: int, delta: float) -> np.ndarray:
    """Gaussian direction drawn from ``rng``, scaled to Euclidean norm just
    under delta."""
    e = rng.standard_normal(n)
    return e * (delta * (1.0 - 1e-12) / max(float(np.linalg.norm(e)), 1e-300))


def convergence_study(
    problem: NonlinearProblem,
    u_true: np.ndarray,
    delta_seq: Sequence[float],
    budget: int = 200,
    seed: int = 0,
) -> list[StudyRow]:
    """Reconstruction error along a decreasing noise sweep.

    Per delta: data f_delta = A(u_true) + seeded noise of Euclidean radius
    delta, one minimize call, and the distance of its minimizer to the truth.
    """
    u_true = np.asarray(u_true, dtype=float)
    if phi(u_true) > problem.phi_cap:
        raise InvalidParameterError(
            f"phi(u_true)={phi(u_true):.3g} exceeds the cap {problem.phi_cap:.3g}"
        )
    deltas = [float(d) for d in delta_seq]
    if not deltas or not all(0.0 < d < np.inf for d in deltas):
        raise InvalidParameterError(f"delta_seq must be positive and finite, got {deltas}")
    if sorted(deltas, reverse=True) != deltas:
        raise InvalidParameterError("delta_seq must be decreasing")
    f_exact = problem.forward(u_true)
    rows = []
    for di, delta in enumerate(deltas):
        f_delta = f_exact + noise_at_radius(rng_from(seed, di), problem.n, delta)
        report = minimize(problem, f_delta, delta, budget=budget, seed=seed + di + 1)
        rows.append(
            StudyRow(
                delta=delta,
                F_value=report.F_value,
                c1_delta_bound=(1.0 + phi(u_true)) * delta,
                error_to_truth=float(np.linalg.norm(report.v_delta - u_true)),
            )
        )
    return rows
