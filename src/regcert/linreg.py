"""A-priori regularization of linear ill-posed systems with worst-case certificates.

The regularizer is the spectral filter (T + aI)^{-1} A^T with T = A^T A
(``spectral.apply``), the smoothness class is the source set
{y : sum s_i^{-2p} <y, v_i>^2 <= k_p^2}, and the parameter rule
a(delta) = b_p delta^{2/(2p+1)} minimizes the closed form noise + bias bound.
A certificate brackets the worst-case error over the class: an analytic
upper chain J1 + J2 <= C_p delta^{2p/(2p+1)} on one side, and on the other
the class-wide worst case itself, in closed form, as the error of an explicit
admissible witness (y, e) that is checked before it counts.  For given data,
worst_case_search searches sup ||R f_delta - y|| over the admissible y.
"""

from __future__ import annotations

# ThreadPoolExecutor is not used here: the benchmark's tracer rebinds linreg's name.
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (BOUND_TOL, Bracket, DegenerateProblemError, InfeasibleError,
                     InvalidSourceError, RegcertError)
# count as _count: sample_source_set has a parameter named count.
from .errors import count as _count, positive_finite, vector, within
from .seeding import rng_from
# make_problem is not called here: linreg.make_problem stays a name for callers.
from .spectral import ProblemSpec, Spectrum, SvdTriple, _filter, _norms, make_problem, spectrum

# Coefficients on exact null-space modes larger than this are treated as a
# genuine component outside the source set.
NULL_COEF_TOL = 1e-14

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


def operator_norm(svd: Spectrum, a: float) -> float:
    """max_i sigma_i/(s_i + a); never exceeds 1/(2 sqrt(a))."""
    positive_finite(a, "regularization parameter")
    return float(np.max(_filter(svd, a))) if svd.n else 0.0


def source_membership(y: np.ndarray, svd: SvdTriple, source: SourceSpec) -> tuple[float, bool]:
    """Source-set functional sum s_i^{-2p} <y, v_i>^2 and the bound check.

    Any coefficient above 1e-14 on an exact null-space mode puts y outside
    the set (value +inf): the weight s^{-2p} diverges there.
    """
    y = vector(y, svd.n, "vector")
    coef = svd.v.T @ y
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
    return [svd.v @ _boundary_coef(svd, source, rng_from(seed, j)) for j in range(count)]


def _boundary_coef(svd: Spectrum, source: SourceSpec, rng: np.random.Generator) -> np.ndarray:
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


def bias_sup(svd: Spectrum, source: SourceSpec, a: float) -> float:
    """Exact sup over the discrete source set of a ||(T + aI)^{-1} y||.

    Equals k_p * max_i a s_i^p/(s_i + a); bounded by c_p k_p a^p, with
    equality when some s_i hits the maximizer p a/(1 - p).
    """
    positive_finite(a, "regularization parameter")
    s = svd.s[svd.sigma > 0.0]
    if s.size == 0:
        return 0.0
    return float(source.k_p * np.max(a * s**source.p / (s + a)))


def _worst_case(svd: Spectrum, source: SourceSpec, delta: float, a: float):
    """(error, z, eta): the class-wide worst case M* = sup ||R(A y + e) - y||
    over the source set and ||e|| <= delta, as the error of the witness
    y = V z, e = U eta (positive modes) that attains it.

    With D1 = a s^p/(s + a), D2 = sigma/(s + a) and z = s^p w, the error is
    -D1 w + D2 eta, so M* = max over unit u of k ||D1 u|| + delta ||D2 u||
    (optimal recovery; Micchelli & Rivlin 1977).  In w = u^2 that is
    sqrt(<A, w>) + sqrt(<B, w>), A = (k D1)^2 and B = (delta D2)^2, concave
    and increasing on the hull of the points (A_i, B_i): its maximum lies on
    an upper-right hull edge, at the edge's stationary weight clipped to
    [0, 1].  The witness z = -(1 - 1e-13) s^p k D1 u/||D1 u||,
    eta = (1 - 1e-13) delta D2 u/||D2 u|| counts only if sum s^-2p z^2 <= k^2
    and ||eta|| <= delta hold as computed; otherwise RegcertError is raised.
    """
    pos = svd.sigma > 0.0
    if not pos.any():
        raise DegenerateProblemError("all singular values are zero")
    sigma, s = svd.sigma[pos], svd.s[pos]
    k, sp = source.k_p, s**source.p
    d1 = a * sp / (s + a)
    d2 = sigma / (s + a)
    big_a, big_b = (k * d1) ** 2, (delta * d2) ** 2

    # The staircase: by A falling (ties by B falling), each point whose B
    # beats every B before it.  Every point lies on the curve
    # s -> (A(s), B(s)), whose curvature keeps one sign for s > 0 (at
    # p = 1/2 it is a ray, and the staircase one point), so the points are
    # in convex position and neighbouring staircase points are the
    # upper-right hull's edges.  Edge (i, j) at weight t on i, with
    # dA = A_i - A_j < 0 < dB = B_i - B_j: sqrt(A_j + t dA) + sqrt(B_j + t dB)
    # is stationary at the t below.  A one-point staircase is its own edge.
    order = np.lexsort((-big_b, -big_a))
    stair = order[big_b[order] > np.maximum.accumulate(np.r_[-1.0, big_b[order][:-1]])]
    i, j = (stair[1:], stair[:-1]) if stair.size > 1 else (stair, stair)
    da, db = big_a[i] - big_a[j], big_b[i] - big_b[j]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (db * db * big_a[j] - da * da * big_b[j]) / (da * db * (da - db))
    t = np.clip(np.nan_to_num(t, nan=1.0), 0.0, 1.0)
    best = int(np.argmax(np.sqrt(t * big_a[i] + (1.0 - t) * big_a[j])
                         + np.sqrt(t * big_b[i] + (1.0 - t) * big_b[j])))
    u = np.zeros(sigma.size)
    u[j[best]] = np.sqrt(1.0 - t[best])
    u[i[best]] = np.sqrt(t[best])

    shrink = 1.0 - 1e-13
    d1u, d2u = d1 * u, d2 * u
    z = -shrink * sp * (k * d1u / np.linalg.norm(d1u))
    eta = shrink * delta * d2u / np.linalg.norm(d2u)
    if not (np.sum(s ** (-2.0 * source.p) * z * z) <= k * k and np.linalg.norm(eta) <= delta):
        raise RegcertError("the closed-form worst-case witness failed its admissibility check")
    return float(np.linalg.norm(d2 * (sigma * z + eta) - z)), z, eta


# ---------------------------------------------------------------------------
# Worst-case search over the admissible set, for given data

# In V-coordinates z = V^T y over the positive modes, the admissible set
# S(f_delta) is the intersection of two axis-aligned ellipsoids, each written
# once as ||a * z - b||^2 <= r^2 (an _Ellipsoid):
#   source ellipsoid   a = s^-p,   b = 0,   r^2 = k^2
#   data ellipsoid     a = sigma,  b = g,   r^2 = delta_eff^2
# with g = U^T f_delta.  The objective ||z - rho||, rho the filtered data, is
# maximized by multi-start projected gradient ascent with Dykstra alternating
# projections (Boyle & Dykstra 1986) onto the two.
#
# Every routine below acts on an (R, n) array of rows, one row per restart
# of the search.  A row's result never depends on its neighbours: a row sum
# of a C-contiguous array is the same pairwise sum whatever the other rows
# hold, and each loop drops a row from its working arrays as soon as the row
# meets its own stopping test.


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


class _Ellipsoid(NamedTuple):
    """The set ||a * z - b||^2 <= r_sq of rows z, with a > 0."""

    a: np.ndarray
    b: np.ndarray | float
    r_sq: float


def _project(z: np.ndarray, e: _Ellipsoid) -> np.ndarray:
    """Write the nearest point of e into each row of z outside it; returns z.

    That point is (z + mu a b)/(1 + mu a^2), with mu >= 0 from _shrink_root.
    """
    a, b, r_sq = e
    r2 = np.square(a * z - b)
    over = ~(r2.sum(axis=1) <= r_sq)
    if over.any():
        w = a * a
        mu = _shrink_root(r2[over], w, r_sq)[:, None]
        z[over] = (z[over] + mu * a * b) / (1.0 + mu * w)
    return z


def _feasible(z: np.ndarray, sets, tol=BOUND_TOL) -> np.ndarray:
    """Per row: is z in every ellipsoid of sets, each r_sq relaxed to r_sq * tol + 1e-300?"""
    return np.logical_and.reduce(
        [np.square(a * z - b).sum(axis=1) <= r_sq * tol + 1e-300 for a, b, r_sq in sets])


def _project_intersection(z0, sets, sweeps, tol):
    """Dykstra alternating projections onto sets = (source, data), per row.

    The projected rows are written into z0, which is returned.
    """
    live = np.flatnonzero(~_feasible(z0, sets, tol=1.0))
    z = z0[live]
    p, q = np.zeros_like(z), np.zeros_like(z)
    for _ in range(sweeps):
        if not live.size:
            break
        y = _project(z + p, sets[0])
        p += z - y
        z_new = _project(y + q, sets[1])
        q += y - z_new
        done = np.max(np.abs(z_new - z), axis=1) < tol
        z = z_new
        if done.any():
            z0[live[done]] = z[done]
            keep = ~done
            live, z, p, q = live[keep], z[keep], p[keep], q[keep]
    z0[live] = z
    return z0


@dataclass(frozen=True)
class _Search:
    """One search in positive-mode coordinates: S(f_delta) as sets, rho and the starts."""

    sets: tuple[_Ellipsoid, _Ellipsoid]  # (source, data)
    rho: np.ndarray
    anchor: np.ndarray
    scale: float
    starts: np.ndarray  # (restarts, n); row 0 is the anchor, all unprojected
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
        raise InfeasibleError("data has more null-space content than the noise radius allows")
    sigma, s = svd.sigma[pos], svd.s[pos]
    g, rho = g_full[pos], rho_full[pos]
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

    sets = (_Ellipsoid(s ** -source.p, 0.0, k_sq), _Ellipsoid(sigma, g, delta_eff_sq))
    if svd.n == 1:
        # Each ellipsoid is the interval |a z - b| <= r; the distance to rho,
        # convex along their intersection, peaks at one of its ends.
        lo = max(np.max((e.b - np.sqrt(e.r_sq)) / e.a) for e in sets)
        hi = min(np.min((e.b + np.sqrt(e.r_sq)) / e.a) for e in sets)
        if lo > hi:
            raise InfeasibleError("feasible interval is empty")
        return float(max(abs(lo - rho[0]), abs(hi - rho[0])))

    starts = [anchor]
    # Push along the most noise-amplified direction first.
    j_star = int(np.argmax(sigma / (s + a)))
    reach = source.k_p * s**source.p  # the source ellipsoid's semi-axes
    for sign in (1.0, -1.0):
        e = anchor.copy()
        e[j_star] = sign * reach[j_star]
        starts.append(e)
    rng = rng_from(seed)
    while len(starts) < restarts:
        d = rng.standard_normal(sigma.size)
        starts.append(anchor + reach * d / max(float(np.linalg.norm(d)), 1e-300))

    scale = max(float(np.linalg.norm(anchor - rho)), float(np.max(reach)), 1e-12)
    return _Search(sets, rho, anchor, scale, np.array(starts[:restarts]), rng)


def _ascend(search: _Search) -> float:
    """Run every restart of the search as one row, at most 30 steps; the best value.

    Every projection and feasibility test reads the two ellipsoids of
    search.sets.  A row whose ascent direction vanishes (distance to rho
    below 1e-15 of the scale) is redirected along a standard normal draw
    from the search's generator; the rows that need one within a step draw
    in row order.
    """
    sets, rho, anchor, scale = search.sets, search.rho, search.anchor, search.scale
    z = search.starts.copy()

    # Loose projections steer the ascent cheaply; only the final point is
    # projected tightly and feasibility-checked before its value counts.
    # Every start but the anchor (row 0) is projected.
    z[1:] = _project_intersection(z[1:], sets, 3, 1e-8)

    live = np.arange(len(z))
    zl = z.copy()
    val = _norms(zl - rho)
    step = np.full(len(z), 0.5)
    for _ in range(30):
        d = zl - rho
        nd = _norms(d)
        for i in np.flatnonzero(nd < 1e-15 * scale):
            d[i] = search.rng.standard_normal(rho.size)
            nd[i] = np.linalg.norm(d[i])
        cand = _project_intersection(zl + ((step * scale) / nd)[:, None] * d, sets, 3, 1e-8)
        v = _norms(cand - rho)
        up = v > val * (1.0 + 1e-14)
        zl[up], val[up] = cand[up], v[up]
        step = np.where(up, step * 1.4, step * 0.4)
        done = step < 1e-9
        if done.any():
            z[live[done]] = zl[done]
            keep = ~done
            live, zl, val, step = live[keep], zl[keep], val[keep], step[keep]
            if not live.size:
                break
    z[live] = zl

    z = _project_intersection(z, sets, 30, 1e-12)
    # Soundness: only count a point if it is feasible (shrink toward the
    # strictly feasible anchor when projections left round-off violations).
    # Round k puts a row at 2^-k of its projected displacement from the anchor.
    live = np.flatnonzero(~_feasible(z, sets))
    reach = z[live] - anchor
    t = 1.0
    while live.size and t > 1e-6:
        t *= 0.5
        z[live] = anchor + t * reach
        ok = _feasible(z[live], sets)
        live, reach = live[~ok], reach[~ok]
    ok = _feasible(z, sets)
    return max([0.0, *(float(v) for v in _norms(z - rho)[ok])])


def worst_case_search(
    svd: SvdTriple,
    source: SourceSpec,
    f_delta: np.ndarray,
    delta: float,
    a: float,
    restarts: int = 4,
    seed: int = 0,
) -> float:
    """Lower estimate of sup ||r - y|| over admissible y.

    r is the regularized solution for f_delta; y ranges over the source set
    intersected with the data ball of radius delta.  Multi-start projected
    gradient ascent, with the restarts run together as the rows of one
    array (see _ascend); at n = 1 the feasible set is an interval and the
    distance to rho, convex along it, peaks at one of its ends, so the
    result is exact there.  The search is bounded above by the class-wide
    worst case that ``certify`` reports as its lower bound.  Raises
    InfeasibleError when no y satisfies both constraints.
    """
    search = _prepare(svd, source, f_delta, delta, a, _count(restarts, "restarts"), seed)
    if isinstance(search, float):
        return search
    return _ascend(search)


def certify(
    problem: ProblemSpec,
    source: SourceSpec,
    deltas: Sequence[float],
    *,
    threads: int = 1,
) -> list[Certificate]:
    """Certificates over a noise sweep.

    Every delta's a = choose_a(delta), which also checks delta, is worked
    out before ``spectrum`` builds sigma, which is all that certify reads.
    empirical_lower is the class-wide worst case M* of ``_worst_case``,
    the error of an admissible witness that attains it; J1_disc + J2_disc
    bounds it by the triangle inequality.  ``threads`` must be an integer
    >= 1 and is otherwise unused: nothing is searched, so the certificates
    are the same for any count.
    """
    _count(len(deltas), "number of deltas")
    _count(threads, "threads")
    deltas = [float(d) for d in deltas]
    a_of = [choose_a(delta, source) for delta in deltas]
    sv = spectrum(problem)
    pack = constants(source)
    p, k = source.p, source.k_p

    return [
        Certificate(
            delta=delta, a=a, p=float(p), k=float(k),
            J1_cont=float(delta / (2.0 * np.sqrt(a))),
            J2_cont=float(pack.c_p * k * a**p),
            J1_disc=delta * operator_norm(sv, a),
            J2_disc=bias_sup(sv, source, a),
            rate_bound=float(pack.C_p * delta ** (2.0 * p / (2.0 * p + 1.0))),
            empirical_lower=_worst_case(sv, source, delta, a)[0],
        )
        for delta, a in zip(deltas, a_of)
    ]
