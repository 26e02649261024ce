"""A-priori regularization of linear ill-posed systems with worst-case certificates.

The regularizer is the spectral filter (T + aI)^{-1} A^T with T = A^T A
(``spectral.apply``), the smoothness class is the source set
{y : sum s_i^{-2p} <y, v_i>^2 <= k_p^2}, and the parameter rule
a(delta) = b_p delta^{2/(2p+1)} minimizes the closed form noise + bias bound.
A certificate brackets the worst-case error: an analytic upper chain
J1 + J2 <= C_p delta^{2p/(2p+1)} on one side, and a searched lower estimate
over the admissible set on the other.
"""

from __future__ import annotations

import os
# ThreadPoolExecutor is not used here: the benchmark's tracer rebinds linreg's name.
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BOUND_TOL, Bracket, DegenerateProblemError, InfeasibleError, InvalidSourceError
# count as _count: sample_source_set has a parameter named count.
from .errors import count as _count, positive_finite, vector, within
from .seeding import rng_from
# make_problem is not called here: linreg.make_problem stays a name for callers.
from .spectral import ProblemSpec, SvdTriple, _filter, _norms, factors, make_problem, right

# Coefficients on exact null-space modes larger than this are treated as a
# genuine component outside the source set.
NULL_COEF_TOL = 1e-14

# Starts per search, in certify and worst_case_search alike.
RESTARTS = 4


@dataclass(frozen=True)
class SourceSpec:
    """Source-set parameters: order p in (0, 1) and finite radius k_p > 0."""

    p: float
    k_p: float

    def __post_init__(self):
        within(self.p, 0, 1, "order p", InvalidSourceError, "()")
        positive_finite(self.k_p, "radius k_p", InvalidSourceError)


@dataclass(frozen=True)
class ConstantsPack:
    """Closed-form constants of the a-priori rule.

    c_p = p^p (1-p)^(1-p)
    b_p = (4 p c_p k_p)^(-2/(2p+1))
    C_p = 1/(2 sqrt(b_p)) + c_p k_p b_p^p
    """

    c_p: float
    b_p: float
    C_p: float


@dataclass(frozen=True)
class Certificate(Bracket):
    """Worst-case error bracket for one noise level: rate_bound over empirical_lower.

    The fields are the columns of ``regcert certify-linear``'s CSV, in order.
    """

    UPPER = "rate_bound"

    delta: float
    a: float
    p: float
    k: float
    J1_cont: float
    J2_cont: float
    J1_disc: float
    J2_disc: float
    rate_bound: float
    empirical_lower: float

    @property
    def total_cont(self) -> float:
        """The continuous upper chain J1 + J2; rate_bound up to round-off."""
        return self.J1_cont + self.J2_cont


def constants(source: SourceSpec) -> ConstantsPack:
    p, k = source.p, source.k_p
    c_p = p**p * (1.0 - p) ** (1.0 - p)
    b_p = (4.0 * p * c_p * k) ** (-2.0 / (2.0 * p + 1.0))
    cap = 1.0 / (2.0 * np.sqrt(b_p)) + c_p * k * b_p**p
    return ConstantsPack(c_p=float(c_p), b_p=float(b_p), C_p=float(cap))


def choose_a(delta: float, source: SourceSpec) -> float:
    """A-priori rule a = b_p * delta^(2/(2p+1))."""
    positive_finite(delta, "noise radius")
    pack = constants(source)
    return float(pack.b_p * delta ** (2.0 / (2.0 * source.p + 1.0)))


def operator_norm(svd: SvdTriple, a: float) -> float:
    """max_i sigma_i/(s_i + a); never exceeds 1/(2 sqrt(a))."""
    positive_finite(a, "regularization parameter")
    return float(np.max(_filter(svd, a))) if svd.n else 0.0


def source_membership(y: np.ndarray, svd: SvdTriple, source: SourceSpec) -> tuple[float, bool]:
    """Source-set functional sum s_i^{-2p} <y, v_i>^2 and the bound check.

    Any coefficient above 1e-14 on an exact null-space mode puts y outside
    the set (value +inf): the weight s^{-2p} diverges there.
    """
    y = vector(y, svd.n, "vector")
    coef = right(svd).T @ y
    pos = svd.sigma > 0.0
    if np.any(np.abs(coef[~pos]) > NULL_COEF_TOL):
        return float("inf"), False
    value = float(np.sum(svd.s[pos] ** (-2.0 * source.p) * coef[pos] ** 2))
    return value, value <= source.k_p**2 * BOUND_TOL


def sample_source_set(
    svd: SvdTriple, source: SourceSpec, count: int, seed: int = 0
) -> list[np.ndarray]:
    """Seeded boundary members V c of the source set, c from ``_boundary_coef``.

    Every sample meets the source bound with value k_p^2 up to round-off.
    """
    _count(count, "count")
    v = right(svd)
    return [v @ _boundary_coef(svd, source, rng_from(seed, j)) for j in range(count)]


def _boundary_coef(svd: SvdTriple, source: SourceSpec, rng: np.random.Generator) -> np.ndarray:
    """V-coordinates c = V^T y of one seeded boundary member y of the source set.

    Spectral energies are a random unit-simplex split of k_p^2 s_i^{2p}
    across the positive modes, with random signs; null modes get 0.
    """
    pos = np.flatnonzero(svd.sigma > 0.0)
    if pos.size == 0:
        raise DegenerateProblemError("all singular values are zero")
    w = rng.dirichlet(np.ones(pos.size))
    signs = rng.choice([-1.0, 1.0], size=pos.size)
    coef = np.zeros(svd.n)
    coef[pos] = signs * source.k_p * np.sqrt(w) * svd.s[pos] ** source.p
    return coef


def bias_sup(svd: SvdTriple, source: SourceSpec, a: float) -> float:
    """Exact sup over the discrete source set of a ||(T + aI)^{-1} y||.

    Equals k_p * max_i a s_i^p/(s_i + a); bounded by c_p k_p a^p, with
    equality when some s_i hits the maximizer p a/(1 - p).
    """
    positive_finite(a, "regularization parameter")
    s = svd.s[svd.sigma > 0.0]
    if s.size == 0:
        return 0.0
    return float(source.k_p * np.max(a * s**source.p / (s + a)))


# ---------------------------------------------------------------------------
# Worst-case search over the admissible set

# In V-coordinates z = V^T y the two constraints are axis-aligned:
#   source ellipsoid   sum c_i z_i^2 <= k^2          with c_i = s_i^-2p
#   data ellipsoid     sum (sigma_i z_i - g_i)^2 <= delta_eff^2
# and the objective ||z - rho||, rho the filtered data, is maximized by
# multi-start projected gradient ascent with Dykstra alternating projections.
#
# Every routine below acts on an (R, n) array of rows.  A row is one ascent:
# one restart of one search, where a search is one f_delta (one certify task).
# A row's result never depends on its neighbours: a row sum of a C-contiguous
# array is the same pairwise sum whatever the other rows hold, a stacked
# (1, n) @ (n, 1) matmul is one BLAS dot per row, and each loop drops a row
# from its working arrays as soon as the row meets its own stopping test.
# certify runs its searches in blocks of whole searches of about
# _SEARCH_BLOCK elements each.  The inner loops already run at numpy's
# per-element floor, so the block size only trades the fixed cost of each
# numpy call against memory: a multiply costs about 0.9 ns per element at
# 2^13 elements and 0.6 ns at 2^15 (2 cores).  At 2^14 the criterion-6
# p = 0.5 slice takes 9.2-10.4 s against 11.6 s at 2^13, for 5% more peak
# RSS on the linear-sweep benchmark; 2^15 (8.1-9.0 s) adds 15% to that RSS,
# past the benchmark's 10% bound, and 2^16, whose arrays outgrow the cache,
# is no faster (8.9-9.9 s) for 33% more.

_SEARCH_BLOCK = 1 << 14


def _secular_start(r2: np.ndarray, w: np.ndarray, bound_sq: np.ndarray) -> np.ndarray:
    """Per row max(0, max_j (sqrt(r2_ij/bound_sq_i) - 1)/w_j), capped at 1e200.

    There the largest term alone equals bound_sq, so the start is left of
    the root; fmax skips the 0/0 of a zero entry under a zero bound.
    """
    ratio = (np.sqrt(r2 / bound_sq[:, None]) - 1.0) / w
    return np.minimum(np.fmax.reduce(ratio, axis=1, initial=0.0), 1e200)


def _shrink_root(r2: np.ndarray, w: np.ndarray, bound_sq) -> np.ndarray:
    """Solve phi_i(mu) = sum_j r2_ij/(1 + mu w_j)^2 = bound_sq_i for mu >= 0, per row.

    r2 is (R, n), w is (n,) and bound_sq a scalar or (R,).  Newton runs on
    the reciprocal form phi^(-1/2) = bound_sq^(-1/2) (More & Sorensen 1983),
    which is concave and increasing in mu, so from _secular_start, left of
    the root, it rises monotonically to it.  A zero bound (root at infinity)
    keeps the capped start.
    """
    rows = r2.shape[0]
    bound_sq = np.broadcast_to(np.asarray(bound_sq, dtype=float), (rows,))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        mu = _secular_start(r2, w, bound_sq)
        live, r2_l, b_l = np.arange(rows), r2, bound_sq
        mu_l, wr2 = mu.copy(), w * r2
        for _ in range(40):
            denom = 1.0 + mu_l[:, None] * w
            d2 = denom * denom
            phi = (r2_l / d2).sum(axis=1)
            slope = -2.0 * (wr2 / (d2 * denom)).sum(axis=1)
            mu_new = mu_l - 2.0 * (phi / slope) * (np.sqrt(phi / b_l) - 1.0)
            # A zero bound, or a zero slope where (1 + mu w)^3 overflowed,
            # gives a non-finite step, which stops the row where it is.
            val = phi - b_l
            go = ~(val <= b_l * 1e-13) & np.isfinite(mu_new) & ~(mu_new <= mu_l * (1.0 + 1e-15))
            mu[live[go]] = mu_new[go]
            if not go.all():
                if not go.any():
                    break
                live, r2_l, b_l, wr2 = live[go], r2_l[go], b_l[go], wr2[go]
            mu_l = mu_new[go]
    return mu


# The two projections write the rows over their bound into z and return it.

def _project_source(z: np.ndarray, c: np.ndarray, k_sq: float) -> np.ndarray:
    cz2 = c * z * z
    over = ~(cz2.sum(axis=1) <= k_sq)
    if over.any():
        mu = _shrink_root(cz2[over], c, k_sq)
        z[over] = z[over] / (1.0 + mu[:, None] * c)
    return z


def _project_data(z: np.ndarray, sigma: np.ndarray, s: np.ndarray, g: np.ndarray,
                  delta_sq: np.ndarray) -> np.ndarray:
    r2 = np.square(sigma * z - g)
    over = ~(r2.sum(axis=1) <= delta_sq)
    if over.any():
        nu = _shrink_root(r2[over], s, delta_sq[over])[:, None]
        z[over] = (z[over] + nu * sigma * g[over]) / (1.0 + nu * s)
    return z


def _project_intersection(z0, c, k_sq, sigma, s, g, delta_sq, sweeps, tol):
    """Dykstra alternating projections onto the two ellipsoids, per row.

    The projected rows are written into z0, which is returned.
    """
    live = np.flatnonzero(~_feasible(z0, c, k_sq, sigma, g, delta_sq, tol=1.0))
    z, g, delta_sq = z0[live], g[live], delta_sq[live]
    p = np.zeros_like(z)
    q = np.zeros_like(z)
    for _ in range(sweeps):
        if not live.size:
            break
        y = _project_source(z + p, c, k_sq)
        p += z - y
        z_new = _project_data(y + q, sigma, s, g, delta_sq)
        q += y - z_new
        done = np.max(np.abs(z_new - z), axis=1) < tol
        z = z_new
        if done.any():
            z0[live[done]] = z[done]
            keep = ~done
            live, z, p, q, g, delta_sq = (
                live[keep], z[keep], p[keep], q[keep], g[keep], delta_sq[keep])
    z0[live] = z
    return z0


def _feasible(z, c, k_sq, sigma, g, delta_sq, tol=BOUND_TOL) -> np.ndarray:
    r = sigma * z - g
    return (
        ((c * z * z).sum(axis=1) <= k_sq * tol)
        & ((r * r).sum(axis=1) <= delta_sq * tol + 1e-300)
    )


def _objective(z: np.ndarray, rho: np.ndarray) -> np.ndarray:
    d = z - rho
    return np.sqrt((d * d).sum(axis=1))


@dataclass(frozen=True)
class _Search:
    """One search in positive-mode coordinates, with its unprojected starts."""

    g: np.ndarray
    rho: np.ndarray
    anchor: np.ndarray
    delta_sq: float
    scale: float
    starts: np.ndarray  # (restarts, n); row 0 is the anchor
    rng: np.random.Generator


def _prepare(svd, source, f_delta, delta, a, restarts, seed) -> _Search | float:
    """Set up one search, or return its value where no ascent is needed.

    Raises InfeasibleError when no y satisfies both constraints.
    """
    positive_finite(delta, "noise radius")
    positive_finite(a, "regularization parameter")
    f_delta = vector(f_delta, svd.n, "data vector")
    g_full = svd.u.T @ f_delta
    rho_full = _filter(svd, a) * g_full
    pos = svd.sigma > 0.0

    # Null modes carry y_i = 0; their data residual is fixed.
    res0_sq = float(np.sum(g_full[~pos] ** 2))
    delta_eff_sq = delta**2 - res0_sq
    if delta_eff_sq < 0.0:
        raise InfeasibleError(
            "data has more null-space content than the noise radius allows"
        )
    sigma = svd.sigma[pos]
    s = svd.s[pos]
    g = g_full[pos]
    rho = rho_full[pos]
    k_sq = source.k_p**2
    if sigma.size == 0:
        return 0.0
    c = s ** (-2.0 * source.p)

    # Feasibility: minimize the data residual over the source ellipsoid.
    # Lagrange form z_i = sigma_i g_i / (s_i + lam c_i), lam >= 0 chosen so the
    # source constraint holds with equality when the unconstrained LS point is
    # outside the ellipsoid.
    z_ls = sigma * g / s
    lam = 0.0
    if float(np.sum(c * z_ls**2)) > k_sq:
        lam_lo, lam_hi = 0.0, 1.0
        def src_val(lam_):
            zz = sigma * g / (s + lam_ * c)
            return float(np.sum(c * zz**2))
        while src_val(lam_hi) > k_sq:
            lam_hi *= 4.0
            if lam_hi > 1e300:
                break
        for _ in range(200):
            mid = 0.5 * (lam_lo + lam_hi)
            if src_val(mid) > k_sq:
                lam_lo = mid
            else:
                lam_hi = mid
            if lam_hi - lam_lo <= 1e-15 * max(1.0, lam_hi):
                break
        lam = lam_hi
    anchor = sigma * g / (s + lam * c)
    min_res_sq = float(np.sum((sigma * anchor - g) ** 2))
    if min_res_sq > delta_eff_sq * BOUND_TOL + 1e-300:
        raise InfeasibleError(
            f"no admissible y: minimal data residual {np.sqrt(min_res_sq):.3g} "
            f"exceeds the noise radius {np.sqrt(max(delta_eff_sq, 0.0)):.3g}"
        )

    if svd.n == 1:
        half = source.k_p * s[0] ** source.p
        lo = max(-half, (g[0] - np.sqrt(delta_eff_sq)) / sigma[0])
        hi = min(half, (g[0] + np.sqrt(delta_eff_sq)) / sigma[0])
        if lo > hi:
            raise InfeasibleError("feasible interval is empty")
        return float(max(abs(lo - rho[0]), abs(hi - rho[0])))

    starts = [anchor]
    # Push along the most noise-amplified direction first.
    j_star = int(np.argmax(sigma / (s + a)))
    for sign in (1.0, -1.0):
        e = anchor.copy()
        e[j_star] = sign * source.k_p * s[j_star] ** source.p
        starts.append(e)
    rng = rng_from(seed)
    while len(starts) < restarts:
        d = rng.standard_normal(sigma.size)
        r = source.k_p * s**source.p * d / max(float(np.linalg.norm(d)), 1e-300)
        starts.append(anchor + r)

    scale = max(float(np.linalg.norm(anchor - rho)), source.k_p * float(np.max(s**source.p)), 1e-12)
    return _Search(g, rho, anchor, delta_eff_sq, scale, np.array(starts[:restarts]), rng)


def _ascend(svd: SvdTriple, source: SourceSpec, searches: Sequence[_Search]) -> list[float]:
    """Run every restart of every search as one row, at most 30 steps; each search's best value.

    A row whose ascent direction vanishes (distance to rho below 1e-15 of
    the scale) is redirected along a standard normal draw from its search's
    generator; the rows that need one within a step draw in row order.
    """
    pos = svd.sigma > 0.0
    sigma, s = svd.sigma[pos], svd.s[pos]
    c = s ** (-2.0 * source.p)
    k_sq = source.k_p**2
    owner = np.repeat(np.arange(len(searches)), [len(x.starts) for x in searches])
    g = np.stack([x.g for x in searches])[owner]
    rho = np.stack([x.rho for x in searches])[owner]
    anchor = np.stack([x.anchor for x in searches])[owner]
    delta_sq = np.array([x.delta_sq for x in searches])[owner]
    scale = np.array([x.scale for x in searches])[owner]
    z = np.concatenate([x.starts for x in searches])

    # Loose projections steer the ascent cheaply; only the final point is
    # projected tightly and feasibility-checked before its value counts.
    def project(z, rows, sweeps, tol):
        return _project_intersection(z, c, k_sq, sigma, s, g[rows], delta_sq[rows], sweeps, tol)

    # Every start but the anchor (each search's first row) is projected.
    pushed = np.flatnonzero(np.r_[False, owner[1:] == owner[:-1]])
    z[pushed] = project(z[pushed], pushed, 3, 1e-8)

    live = np.arange(len(z))
    zl, rho_l, scale_l = z.copy(), rho, scale
    val = _objective(zl, rho_l)
    step = np.full(len(z), 0.5)
    for _ in range(30):
        d = zl - rho_l
        nd = _norms(d)
        for i in np.flatnonzero(nd < 1e-15 * scale_l):
            d[i] = searches[owner[live[i]]].rng.standard_normal(sigma.size)
            nd[i] = np.linalg.norm(d[i])
        cand = project(zl + ((step * scale_l) / nd)[:, None] * d, live, 3, 1e-8)
        v = _objective(cand, rho_l)
        up = v > val * (1.0 + 1e-14)
        zl[up], val[up] = cand[up], v[up]
        step = np.where(up, step * 1.4, step * 0.4)
        done = step < 1e-9
        if done.any():
            z[live[done]] = zl[done]
            keep = ~done
            live, zl, val, step, rho_l, scale_l = (
                live[keep], zl[keep], val[keep], step[keep], rho_l[keep], scale_l[keep])
            if not live.size:
                break
    z[live] = zl

    z = project(z, np.arange(len(z)), 30, 1e-12)
    # Soundness: only count a point if it is feasible (shrink toward the
    # strictly feasible anchor when projections left round-off violations).
    # Round k puts a row at 2^-k of its projected displacement from the anchor.
    live = np.flatnonzero(~_feasible(z, c, k_sq, sigma, g, delta_sq))
    reach = z[live] - anchor[live]
    t = 1.0
    while live.size and t > 1e-6:
        t *= 0.5
        z[live] = anchor[live] + t * reach
        ok = _feasible(z[live], c, k_sq, sigma, g[live], delta_sq[live])
        live, reach = live[~ok], reach[~ok]
    ok = _feasible(z, c, k_sq, sigma, g, delta_sq)
    values = _objective(z, rho)
    return [max([0.0, *(float(v) for v in values[(owner == i) & ok])])
            for i in range(len(searches))]


def worst_case_search(
    svd: SvdTriple,
    source: SourceSpec,
    f_delta: np.ndarray,
    delta: float,
    a: float,
    restarts: int | None = None,
    seed: int = 0,
) -> float:
    """Lower estimate of sup ||r - y|| over admissible y.

    r is the regularized solution for f_delta; y ranges over the source set
    intersected with the data ball of radius delta.  Multi-start projected
    gradient ascent, with the restarts run together as the rows of one
    array (see _ascend); at n = 1 the feasible set is an interval and the
    distance to rho, convex along it, peaks at one of its ends, so the
    result is exact there.  With ``restarts`` None it runs RESTARTS starts,
    read at the call, so it is certify's search of one task.  Raises
    InfeasibleError when no y satisfies both constraints.
    """
    restarts = RESTARTS if restarts is None else _count(restarts, "restarts")
    search = _prepare(svd, source, f_delta, delta, a, restarts, seed)
    if isinstance(search, float):
        return search
    return _ascend(svd, source, [search])[0]


# certify's workers.  A block's ascent is a Python loop over numpy calls on
# ~2^14-element arrays, so threads serialize on the interpreter lock; worker
# processes do not.  The workers are forked, so they start without a fresh
# import and inherit the searches; only their values are sent back.  The
# package loads OpenBLAS with one thread (see __init__.py), so by default no
# process has a BLAS pool.  For callers who raise the BLAS thread count, the
# parent makes every BLAS call before the first fork: an idle pool spins
# after a threaded call, and a fork shuts the parent's pool down.  The
# workers run only _ascend, whose products are single-threaded dots, so no
# worker starts a pool of its own.

def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _install(fn, parts: list) -> None:
    """In a forked worker: keep the inherited fn and parts for _run_part."""
    global _work
    _work = fn, parts


def _run_part(i: int):
    """In a worker: fn(parts[i])."""
    fn, parts = _work
    return fn(parts[i])


def _map_forked(fn, parts: list) -> list:
    """[fn(part) for part in parts]: parts[0] here, each other in a forked worker.

    A worker's exception is re-raised with its own type, the first in part
    order; a worker that dies raises BrokenProcessPool, a RuntimeError.
    Every worker is joined on every path: when this process raises, after
    the running workers finish their parts.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(len(parts) - 1, multiprocessing.get_context("fork"),
                             _install, (fn, parts)) as pool:
        futures = [pool.submit(_run_part, i) for i in range(1, len(parts))]
        return [fn(parts[0])] + [f.result() for f in futures]


def certify(
    problem: ProblemSpec,
    source: SourceSpec,
    deltas: Sequence[float],
    trials: int,
    seed: int = 0,
    threads: int = 1,
) -> list[Certificate]:
    """Certificates over a noise sweep.

    Every delta's a = choose_a(delta), which also checks delta, is worked
    out before the factors are built.  Only U and sigma are built
    (``factors``): the search and the bounds work in V-coordinates, so V
    and the matrix A are never formed.  Per delta: `trials` seeded draws
    of the V-coordinates c of a boundary source-set member y = V c (the
    draws of ``sample_source_set``) and of a noise vector with
    ||e|| <= delta (the first trial uses the most noise-amplified singular
    direction), with data f_delta = U (sigma * c) + e, which is A y + e;
    the recorded empirical lower bound is the max over trials of
    worst_case_search's value from RESTARTS starts.
    Every task is drawn and prepared here first; the searches then run in
    blocks of whole searches, every restart of a block as one row of its
    arrays.  With `threads` > 1 the blocks are split into at most
    min(threads, blocks, usable CPUs) contiguous shares: this process runs
    the first and a forked worker process runs each other one.  Where
    os.fork is missing, this process runs every share.  Results are
    identical for any thread count and block size: every task is seeded
    independently, every row runs on its own, and values are reduced in
    index order.
    """
    _count(len(deltas), "number of deltas")
    _count(trials, "trials")
    _count(threads, "threads")
    deltas = [float(d) for d in deltas]
    a_of = [choose_a(delta, source) for delta in deltas]
    tri = factors(problem)
    pack = constants(source)
    p, k = source.p, source.k_p

    def one_trial(di: int, ti: int) -> _Search | float:
        delta, a = deltas[di], a_of[di]
        rng = rng_from(seed, di, ti)
        c = _boundary_coef(tri, source, rng_from(int(rng.integers(0, 2**63)), 0))
        if ti == 0:
            j_star = int(np.argmax(_filter(tri, a)))
            e = delta * tri.u[:, j_star]
        else:
            d = rng.standard_normal(tri.n)
            e = delta * d / max(float(np.linalg.norm(d)), 1e-300)
        f_delta = tri.u @ (tri.sigma * c) + e
        return _prepare(
            tri, source, f_delta, delta, a, RESTARTS, seed=int(rng.integers(0, 2**63))
        )

    def ascend(share: list[list[_Search]]) -> list[float]:
        return [v for block in share for v in _ascend(tri, source, block)]

    # Every BLAS call (factors, and the gemvs of one_trial and _prepare)
    # runs before any worker starts; see the comment above _usable_cpus.
    items = [one_trial(di, ti) for di in range(len(deltas)) for ti in range(trials)]
    searches = [x for x in items if isinstance(x, _Search)]
    per_block = max(1, _SEARCH_BLOCK // (RESTARTS * tri.n))
    blocks = [searches[i:i + per_block] for i in range(0, len(searches), per_block)]
    workers = min(threads, len(blocks), _usable_cpus())
    shares = [blocks[i * len(blocks) // workers:(i + 1) * len(blocks) // workers]
              for i in range(workers)]
    if len(shares) > 1 and hasattr(os, "fork"):
        found = _map_forked(ascend, shares)
    else:
        found = [ascend(share) for share in shares]
    found = iter([v for share in found for v in share])
    values = [x if isinstance(x, float) else next(found) for x in items]

    certs = []
    for di, (delta, a) in enumerate(zip(deltas, a_of)):
        emp = max(values[di * trials + ti] for ti in range(trials))
        j1_cont = delta / (2.0 * np.sqrt(a))
        j2_cont = pack.c_p * k * a**p
        j1_disc = delta * operator_norm(tri, a)
        j2_disc = bias_sup(tri, source, a)
        rate = pack.C_p * delta ** (2.0 * p / (2.0 * p + 1.0))
        certs.append(
            Certificate(
                delta=delta,
                a=a,
                p=float(p),
                k=float(k),
                J1_cont=float(j1_cont),
                J2_cont=float(j2_cont),
                J1_disc=float(j1_disc),
                J2_disc=float(j2_disc),
                rate_bound=float(rate),
                empirical_lower=float(emp),
            )
        )
    return certs
