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

from .errors import BOUND_TOL, InfeasibleError, InvalidMatrixError, InvalidParameterError
from .errors import choice, count, positive_finite, vector, vectors
from .seeding import rng_from
from .spectral import ProblemSpec, SvdTriple, apply, make_problem, svd
from .spectral import _norms as _norm, _sqnorms

NONLINEARITIES = ("identity", "cubic")


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
        choice(self.nonlinearity, NONLINEARITIES, "nonlinearity", InvalidMatrixError)
        positive_finite(self.phi_cap, "phi cap")
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
        """A(v) for a vector or for each row of a stack of shape (..., n)."""
        return (self.b @ _sigma(v, self.nonlinearity)[..., None])[..., 0]


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
    # Two IEEE multiplies, not v**3: numpy's float64 pow kernel disagrees
    # with libm's pow on about 5% of positive bases, so its bits depend on the
    # kernel numpy dispatches to, and it costs ~6-8 ns per element on a
    # positive base and ~120-150 ns on a negative one, against ~1 ns here.
    return v + v * v * v / 3.0


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
    if kind == "volterra":
        raise InvalidMatrixError(
            "the volterra gallery matrix has a zero first row (its quadrature weights "
            "at x = 0), so B is never injective; choose diagonal | rotated-diagonal"
        )
    b, tri = make_problem(ProblemSpec(kind=kind, n=n, q=q, seed=seed))
    return NonlinearProblem(b=b, nonlinearity=nonlinearity, phi_cap=phi_cap, b_svd=tri)


def phi(v: np.ndarray) -> float:
    """||v||^2 of a vector, or of each row of a stack of shape (..., n)."""
    return _sqnorms(np.asarray(v, dtype=float))


def functional(problem: NonlinearProblem, v: np.ndarray, f_delta: np.ndarray, delta: float) -> float:
    """F(v) = ||A(v) - f_delta|| + delta * ||v||^2, per row for a stack (..., n)."""
    positive_finite(delta, "delta")
    f_delta = vector(f_delta, problem.n, "data vector")
    return _objective(problem, vectors(v, problem.n, "v"), f_delta, delta)


def _objective(problem, v, f_delta, delta=None):
    """||r||^2 or, given ``delta``, F: the objective whose gradient _gradient
    gives.  The descent's inner loop calls it on checked inputs."""
    rn = _norm(problem.forward(v) - f_delta)
    if delta is not None:
        return rn + delta * phi(v)
    # float_power is C pow, as Python's float ** 2 is; x * x differs in the last bit.
    return np.float_power(rn, 2.0)


def _project_cap(v: np.ndarray, cap: float) -> np.ndarray:
    """Radial projection of each row of v into the ball phi <= cap."""
    # Rows inside the ball scale by sqrt(cap / cap) = 1, which leaves them as they are.
    return v * np.sqrt(cap / np.maximum(phi(v), cap))[..., None]


def _gradient(problem, v, f_delta, delta=None):
    """Gradient of ||r||^2 or, given ``delta``, of F, from J^T r = sigma'(v) * B^T r."""
    r = problem.forward(v) - f_delta
    jtr = (1.0 if problem.nonlinearity == "identity" else 1.0 + v**2) * (
        problem.b.T @ r[..., None])[..., 0]
    if delta is None:
        return 2.0 * jtr
    rn = _norm(r)[..., None]
    # At r = 0 the residual term is 0, as a symmetric difference quotient gives.
    return np.divide(jtr, rn, out=np.zeros_like(jtr), where=rn > 0.0) + 2.0 * delta * v


# Trial steps t, t/2, ..., t/128 that a line search evaluates in one batch.
# Halving a step is exact in binary, so the first that passes the Armijo test
# is the step a one-at-a-time search would stop at; batching them cuts the
# Python-level passes per line search from about 9 to 1 or 2.
_HALVINGS = 0.5 ** np.arange(8)


def _descend(problem, f_delta, delta, v, iters):
    """Projected gradient descent with backtracking, one start per row of v.

    Descends ||r||^2 or, given ``delta``, F.  Every row runs the one-start
    iteration on its own: its own step t = 1/max(|g|, 1), Armijo test and
    halving, and it leaves the working set at its own stopping test (a
    gradient below 1e-14, a line search that halves t below 1e-14, or
    ``iters`` iterations).  Returns the final rows, their objective values
    and the iterations each row used.
    """
    cap = problem.phi_cap
    v = v.copy()
    fv = _objective(problem, v, f_delta, delta)
    used = np.zeros(len(v), dtype=int)
    live = np.arange(len(v))
    for _ in range(iters):
        used[live] += 1
        g = _gradient(problem, v[live], f_delta, delta)
        gn = _norm(g)
        moving = ~(gn < 1e-14)
        live, g, gn = live[moving], g[moving], gn[moving]
        t = 1.0 / np.maximum(gn, 1.0)
        improved = np.zeros(len(live), dtype=bool)
        s = np.flatnonzero(t > 1e-14)  # positions in live still searching
        while s.size:
            rows = live[s]
            tk = t[s, None] * _HALVINGS
            cand = _project_cap(v[rows, None] - tk[..., None] * g[s, None], cap)
            fc = _objective(problem, cand, f_delta, delta)
            ok = (tk > 1e-14) & (fc < fv[rows, None] - 1e-4 * tk * gn[s, None] * gn[s, None])
            hit = ok.any(axis=1)
            first = ok[hit].argmax(axis=1)
            v[rows[hit]], fv[rows[hit]] = cand[hit, first], fc[hit, first]
            improved[s[hit]] = True
            s = s[~hit]
            t[s] = tk[~hit, -1] * 0.5
            s = s[t[s] > 1e-14]
        live = live[improved]
        if not live.size:
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
    seeded random points inside the phi ball, ``restarts`` starts in all, so
    ``restarts`` must cover the origin, the linearized start and every extra
    start.  Each start first descends the residual until it clears delta,
    then descends F itself with radial projection back into the ball; steps
    that break feasibility are repaired or rejected.  Both phases follow
    closed-form gradients of their objective; ``budget`` caps the descent
    iterations per phase and start.  The starts run as the rows of one array
    (see _descend), each exactly as it would alone.
    """
    positive_finite(delta, "delta")
    count(budget, "budget")
    count(restarts, "restarts")
    extra_starts = [] if extra_starts is None else [
        vector(v, problem.n, "extra start") for v in extra_starts]
    if restarts < 2 + len(extra_starts):
        raise InvalidParameterError(
            f"restarts must be >= {2 + len(extra_starts)} (the origin, the linearized "
            f"start and {len(extra_starts)} extra starts), got {restarts}"
        )
    f_delta = vector(f_delta, problem.n, "data vector")
    cap = problem.phi_cap
    n = problem.n

    starts: list[np.ndarray] = [np.zeros(n)]
    lin = _sigma_inverse(apply(problem.b_svd, f_delta, delta), problem.nonlinearity)
    starts.append(_project_cap(lin, cap))
    starts.extend(_project_cap(v, cap) for v in extra_starts)
    rng = rng_from(seed)
    while len(starts) < restarts:
        d = rng.standard_normal(n)
        r = float(rng.uniform(0.0, 1.0)) ** (1.0 / n) * np.sqrt(cap)
        starts.append(r * d / max(float(np.linalg.norm(d)), 1e-300))

    tol = delta * BOUND_TOL
    # Phase A: reach the admissible set.
    v, _, used = _descend(problem, f_delta, None, np.stack(starts), budget)
    total_iters = int(used.sum())
    v = v[~(_norm(problem.forward(v) - f_delta) > tol)]
    # Phase B: descend the penalized functional, repairing residual drift.
    v, fv, used = _descend(problem, f_delta, delta, v, budget)
    total_iters += int(used.sum())
    drift = _norm(problem.forward(v) - f_delta) > tol
    if drift.any():
        v[drift], _, used = _descend(problem, f_delta, None, v[drift], budget)
        total_iters += int(used.sum())
        fv[drift] = functional(problem, v[drift], f_delta, delta)
    # The first feasible row of least F, as a scan in start order keeps it.
    found = np.flatnonzero((_norm(problem.forward(v) - f_delta) <= tol) & (fv < np.inf))
    if not found.size:
        raise InfeasibleError(
            "no feasible point found within budget; the data may be inconsistent "
            "with the noise radius or the phi cap too small"
        )
    best = found[np.argmin(fv[found])]
    return MinimizeReport(
        v_delta=v[best],
        F_value=float(fv[best]),
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
    u_true = vector(u_true, problem.n, "u_true")
    if phi(u_true) > problem.phi_cap:
        raise InvalidParameterError(
            f"phi(u_true)={phi(u_true):.3g} exceeds the cap {problem.phi_cap:.3g}"
        )
    deltas = [positive_finite(float(d), "delta") for d in delta_seq]
    count(len(deltas), "number of deltas")
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
                c1_delta_bound=float((1.0 + phi(u_true)) * delta),
                error_to_truth=float(np.linalg.norm(report.v_delta - u_true)),
            )
        )
    return rows
