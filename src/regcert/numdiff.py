"""Stable numerical differentiation of noisy data with certified error budgets.

The regularizer is a three-branch difference quotient with step h chosen from
the noise radius and the a-priori smoothness class alone.  Its worst-case
error over every admissible pair (a solution whose class norm is within m_a,
and data within delta of its integral) is bracketed from above by an
explicit noise + bias budget and from below by admissible solutions:
``certify`` takes the error on one checked class-wide witness, a linear
solution under a two-node noise spike that the regularizer turns into noise
and bias of one sign at node 0, and adversarial bump witnesses are two
admissible solutions sharing the same data, whose separation no method can
resolve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    BOUND_TOL,
    Bracket,
    EmptyAdmissibleSetError,
    RegcertError,
    ResolutionError,
    StepTooLargeError,
    UnsupportedExponentError,
)
from .errors import choice, count, positive_finite, within
from .function_space import (
    Grid,
    HolderSpec,
    NoisyData,
    SampledFunction,
    holder_norm,
    integrate_volterra,
    noise_shrink,
    sup_distance,
)
from .seeding import rng_from

# Mass of the unit bump profile (1 - t^2)^3 over [-1, 1].
BUMP_MASS = 32.0 / 35.0

# One-sided stencils of ``differentiate``: step 2h (the default, covered by
# ``error_budget`` at every node) or the paper's step h.
BOUNDARY_STENCILS = ("sound", "paper")


@dataclass(frozen=True)
class DiffErrorBudget:
    """Error budget for the difference regularizer at one noise level.

    total = noise_term + bias_term is the certified upper bound; rate_bound
    is the same budget minimized over the (un-snapped) step, i.e. the clean
    power law the step rule targets.
    """

    h: float
    noise_term: float
    bias_term: float
    total: float
    rate_bound: float


@dataclass(frozen=True)
class WitnessPair:
    """Two admissible solutions indistinguishable from shared data.

    Half the separation lower-bounds the worst-case error of every possible
    reconstruction method on this data.
    """

    v_plus: SampledFunction
    v_minus: SampledFunction
    f_delta: SampledFunction
    separation: float
    bump_width: float
    bump_amplitude: float


@dataclass(frozen=True)
class Certificate(Bracket):
    """Worst-case error bracket for one noise level: the budget total above,
    the error on the checked class-wide witness of ``_worst_case`` below.

    The fields are the columns of ``regcert certify-diff``'s CSV, in order:
    the class (a, M) and the budget's step and terms.
    """

    UPPER = "total"

    delta: float
    a: float
    M: float
    h: float
    noise_term: float
    bias_term: float
    total: float
    empirical_lower: float


class Membership(NamedTuple):
    ok: bool
    residual: float
    norm: float


def step_size(delta: float, spec: HolderSpec, grid: Optional[Grid] = None) -> float:
    """Step h = c_a * delta**(1/a) minimizing delta/h + m_a * h**(a-1).

    c_a = ((a - 1) * m_a)**(-1/a) is the exact minimizer of the budget.
    With a grid supplied, h is clamped into [dx, 1/2].
    """
    positive_finite(delta, "noise radius")
    if spec.a <= 1.0:
        raise UnsupportedExponentError(
            f"difference regularizer needs exponent a > 1 (got a={spec.a}); "
            "for a <= 1 use witness_pair to quantify the attainable error"
        )
    c_a = ((spec.a - 1.0) * spec.m_a) ** (-1.0 / spec.a)
    h = c_a * delta ** (1.0 / spec.a)
    if grid is not None:
        h = min(max(h, grid.dx), 0.5)
    return h


def _snapped_step(delta: float, spec: HolderSpec, grid: Grid) -> tuple[int, float]:
    h = step_size(delta, spec, grid)
    m = max(1, round(h / grid.dx))
    return m, m * grid.dx


def _one_sided_step(
    delta: float, spec: HolderSpec, grid: Grid, boundary: str
) -> tuple[int, int, float]:
    """(k, m, h): the snapped step h = m dx and the one-sided step k h of
    ``boundary``'s stencil, k = 2 on the sound one and 1 on the paper's.

    Raises StepTooLargeError when the stencil does not fit [0, 1].
    """
    choice(boundary, BOUNDARY_STENCILS, "boundary stencil")
    m, h = _snapped_step(delta, spec, grid)
    # The paper's k = 1, or k = 2, whose noise amplification is the budget's
    # delta/h.
    k = 2 if boundary == "sound" else 1
    if h >= 0.5 or (k + 1) * m > grid.n - 1:
        raise StepTooLargeError(
            f"snapped step h={h:.4g} leaves no room for the one-sided step {k}h "
            "inside [0, 1]; delta is too large for this grid and class"
        )
    return k, m, h


def differentiate(data: NoisyData, spec: HolderSpec, boundary: str = "sound") -> SampledFunction:
    """Three-branch difference quotient at step h snapped to the grid.

    Central (f(x+h) - f(x-h))/(2h) for h <= x <= 1-h, forward for x < h,
    backward for x > 1-h.  The one-sided branches depend on ``boundary``:

    - ``"sound"`` (default): forward (f(x+2h) - f(x))/(2h) and its mirror
      image.  Sup-norm-delta noise then costs at most delta/h and the bias at
      most M (2h)^(a-1)/a <= M h^(a-1), so ``error_budget`` bounds the error
      at every node.  Needs 3h <= 1.
    - ``"paper"``: forward (f(x+h) - f(x))/h and its mirror image, the
      stencil as stated in the paper.  It amplifies the noise by up to 2
      delta/h against the budget's delta/h, and exceeds the budget in 9 of
      the 64 cells of acceptance criterion 1 (by up to ~10%).  Kept for
      that reproduction.  Needs h < 1/2.
    """
    grid = data.f_delta.grid
    k, m, h = _one_sided_step(data.delta, spec, grid, boundary)
    f = data.f_delta.values
    n = grid.n
    out = np.empty(n)
    out[m : n - m] = (f[2 * m :] - f[: n - 2 * m]) / (2.0 * h)
    out[:m] = (f[k * m : (k + 1) * m] - f[:m]) / (k * h)
    out[n - m :] = (f[n - m :] - f[n - (k + 1) * m : n - k * m]) / (k * h)
    return SampledFunction(grid, out)


def error_budget(delta: float, spec: HolderSpec, grid: Optional[Grid] = None) -> DiffErrorBudget:
    """Noise + bias budget at the rule step (snapped when a grid is given)."""
    if grid is None:
        h = step_size(delta, spec)
    else:
        _, h = _snapped_step(delta, spec, grid)
    noise = delta / h
    bias = spec.m_a * h ** (spec.a - 1.0)
    h_star = step_size(delta, spec)
    rate = delta / h_star + spec.m_a * h_star ** (spec.a - 1.0)
    return DiffErrorBudget(h=h, noise_term=noise, bias_term=bias, total=noise + bias, rate_bound=rate)


def membership(v: SampledFunction, data: NoisyData, spec: HolderSpec) -> Membership:
    """Is v an admissible solution for (f_delta, delta, class)?

    residual = sup |cumulative integral of v - f_delta|, norm = grid
    smoothness norm; both must sit within their bounds up to the factor
    BOUND_TOL = 1 + 1e-9.
    """
    residual = sup_distance(integrate_volterra(v), data.f_delta)
    norm = holder_norm(v, spec.a)
    ok = residual <= data.delta * BOUND_TOL and norm <= spec.m_a * BOUND_TOL
    return Membership(bool(ok), residual, norm)


# ---------------------------------------------------------------------------
# Bump construction


def _bump_samples(grid: Grid, center: float, width: float) -> np.ndarray:
    t = (grid.nodes - center) / width
    inside = np.abs(t) < 1.0
    out = np.zeros(grid.n)
    # The cube as two IEEE multiplies, not an array pow, whose bits depend on
    # the pow kernel numpy dispatches to.
    t = t[inside]
    b = 1.0 - t * t
    out[inside] = b * b * b
    return out


@cache
def _bump_norm_constant(a: float) -> float:
    """Norm of the unit bump at scale 1, estimated once per a on a dense grid."""
    ref = Grid(4097)
    w_ref = 0.1
    profile = SampledFunction(ref, _bump_samples(ref, 0.5, w_ref))
    return holder_norm(profile, a) * w_ref**a


def witness_pair(delta: float, spec: HolderSpec, center: float, grid: Grid) -> WitnessPair:
    """Adversarial pair v0 +/- psi around the zero solution.

    psi is a smooth compactly supported bump scaled so that its class norm
    stays within m_a / 2 and its integral stays within delta; both members
    are therefore admissible for the shared data f_delta = 0, and any
    reconstruction errs by at least half their separation on one of them.
    The amplitude scales like delta**(a/(a+1)); at a = 0 it is independent
    of delta, the signature of a class too large to regularize.
    """
    positive_finite(delta, "noise radius")
    within(center, 0, 1, "bump center", ends="()")
    # Snap the center to a node so the bump peak (and hence the separation)
    # is realized exactly on the grid.
    center = grid.nodes[int(round(center * (grid.n - 1)))]
    k_a = _bump_norm_constant(spec.a)
    # Width balancing the norm and residual constraints, with 5% slack so the
    # residual constraint is the binding one.
    w = 1.05 * (2.0 * k_a * delta / (BUMP_MASS * spec.m_a)) ** (1.0 / (spec.a + 1.0))
    w = min(w, 0.999 * min(center, 1.0 - center))
    if w < 4.0 * grid.dx:
        raise ResolutionError(
            f"bump width {w:.3g} needs at least 4 grid cells (dx={grid.dx:.3g}); "
            "refine the grid or increase delta"
        )
    profile = SampledFunction(grid, _bump_samples(grid, center, w))
    norm_unit = holder_norm(profile, spec.a)
    resid_unit = float(np.max(np.abs(integrate_volterra(profile).values)))
    amplitude = min(spec.m_a / (2.0 * norm_unit), delta / resid_unit)
    psi = amplitude * profile.values
    v_plus = SampledFunction(grid, psi)
    v_minus = SampledFunction(grid, -psi)
    data = NoisyData(SampledFunction(grid, np.zeros(grid.n)), delta)
    for v in (v_plus, v_minus):
        got = membership(v, data, spec)
        if not got.ok:
            raise ResolutionError(
                f"witness construction failed admissibility: residual={got.residual:.3g} "
                f"(delta={delta:.3g}), norm={got.norm:.3g} (bound={spec.m_a:.3g})"
            )
    return WitnessPair(
        v_plus=v_plus,
        v_minus=v_minus,
        f_delta=data.f_delta,
        separation=sup_distance(v_plus, v_minus),
        bump_width=float(w),
        bump_amplitude=float(amplitude),
    )


# ---------------------------------------------------------------------------
# Lower bound from admissible solutions


def member_candidates(
    base: SampledFunction,
    data: NoisyData,
    spec: HolderSpec,
    n_samples: int,
    seed: int = 0,
) -> list[SampledFunction]:
    """A known admissible base solution and seeded perturbations of it.

    Seeded bumps are scaled into the residual and class-norm slack the base
    leaves, so by the triangle inequality each one stays admissible; they are
    not tested here, because ``empirical_sup_error`` tests every candidate
    before it counts.  Returns [] for an inadmissible base and [base] when it
    leaves no slack.
    """
    got = membership(base, data, spec)
    if not got.ok:
        return []
    grid = base.grid
    out = [base]
    res_slack = data.delta * BOUND_TOL - got.residual
    norm_slack = spec.m_a * BOUND_TOL - got.norm
    if res_slack <= 0.0 or norm_slack <= 0.0:
        return out
    for k in range(n_samples):
        rng = rng_from(seed, k)
        center = float(rng.uniform(0.1, 0.9))
        width = float(np.exp(rng.uniform(np.log(4.0 * grid.dx), np.log(0.2))))
        profile = _bump_samples(grid, center, width)
        unit = SampledFunction(grid, profile)
        resid_unit = float(np.max(np.abs(integrate_volterra(unit).values)))
        norm_unit = holder_norm(unit, spec.a)
        scale = 0.98 * min(res_slack / resid_unit, norm_slack / norm_unit)
        sign = 1.0 if rng.integers(0, 2) else -1.0
        out.append(SampledFunction(grid, base.values + sign * scale * profile))
    return out


def empirical_sup_error(
    data: NoisyData,
    spec: HolderSpec,
    candidates: Sequence[SampledFunction],
    boundary: str = "sound",
) -> float:
    """Largest distance from the regularized derivative to an admissible
    candidate.

    A candidate counts only if it passes ``membership``, and a pool in
    which none does raises ``EmptyAdmissibleSetError``.  The result is a
    lower estimate of the true supremum over the admissible set.
    ``boundary`` selects the stencil of ``differentiate``.
    """
    r_out = differentiate(data, spec, boundary)
    accepted = [v for v in candidates if membership(v, data, spec).ok]
    if not accepted:
        raise EmptyAdmissibleSetError(
            "no candidate passed admissibility; data, noise radius and "
            "class bound look mutually inconsistent"
        )
    return max(sup_distance(r_out, v) for v in accepted)


def _slope(grid: Grid, spec: HolderSpec) -> tuple[SampledFunction, SampledFunction]:
    """The delta-independent half of ``_worst_case``'s witness: v* = c (x - 1/2),
    c = (1 - 1e-8) m_a / holder_norm(x - 1/2), and its integral."""
    ramp = grid.nodes - 0.5
    c = (1.0 - 1e-8) * spec.m_a / holder_norm(SampledFunction(grid, ramp), spec.a)
    v = SampledFunction(grid, c * ramp)
    return v, integrate_volterra(v)


def _worst_case(
    slope: tuple[SampledFunction, SampledFunction],
    spec: HolderSpec,
    delta: float,
    boundary: str = "sound",
) -> float:
    """Error of the regularizer on an explicit admissible pair (v*, f*), the
    optimal-recovery construction of Micchelli & Rivlin 1977: up to its
    inward margins, its node-0 error is the largest over every admissible
    pair (a linear program over all of them agrees to 5e-9 at n <= 65).

    ``slope`` is (v*, integral of v*) from ``_slope``, and f* = integral of
    v* + e*, with e* = -s delta at node 0, +s delta at node k m and zero
    elsewhere: m is the snapped step in nodes, k the one-sided step of
    ``boundary``'s stencil and s = ``noise_shrink``.  At node 0 the
    one-sided quotient then reads the noise 2 s delta/(k h) and the bias
    c k h / 2 with one sign.  The pair counts only if the residual is within
    delta and the norm within m_a as computed, with no tolerance; otherwise
    RegcertError is raised.
    """
    v, f = slope
    k, m, _ = _one_sided_step(delta, spec, v.grid, boundary)
    s = noise_shrink(f, delta)
    e = np.zeros(v.grid.n)
    e[0], e[k * m] = -s * delta, s * delta
    data = NoisyData(SampledFunction(v.grid, f.values + e), delta)
    return _witness_error(v, data, spec, boundary)


def _witness_error(v: SampledFunction, data: NoisyData, spec: HolderSpec, boundary: str) -> float:
    """Sup distance from the regularized derivative of ``data`` to v, once
    v's residual and norm, as ``membership`` computes them, sit within delta
    and m_a with no tolerance; RegcertError otherwise."""
    got = membership(v, data, spec)
    if not (got.residual <= data.delta and got.norm <= spec.m_a):
        raise RegcertError(
            f"the worst-case witness failed its admissibility check: residual={got.residual!r} "
            f"(delta={data.delta!r}), norm={got.norm!r} (bound={spec.m_a!r})"
        )
    return sup_distance(differentiate(data, spec, boundary), v)


def certify(
    grid: Grid,
    spec: HolderSpec,
    deltas: Sequence[float],
    boundary: str = "sound",
) -> list[Certificate]:
    """Certificates over a noise sweep on ``grid``.

    Per delta the upper bound is the budget total, and the lower bound the
    error on the checked class-wide witness of ``_worst_case``, which needs
    no truth and no data; its delta-independent half (``_slope``) is built
    once per call.  Every count, the stencil and every delta
    (through its budget) are checked before any norm is computed.
    """
    count(len(deltas), "number of deltas")
    choice(boundary, BOUNDARY_STENCILS, "boundary stencil")
    budgets = [error_budget(delta, spec, grid) for delta in deltas]
    slope = _slope(grid, spec)
    return [
        Certificate(
            float(delta), float(spec.a), float(spec.m_a), budget.h, budget.noise_term,
            budget.bias_term, budget.total, _worst_case(slope, spec, delta, boundary))
        for delta, budget in zip(deltas, budgets)
    ]
