"""Stable numerical differentiation of noisy data with certified error budgets.

The regularizer is a three-branch difference quotient with step h chosen from
the noise radius and the a-priori smoothness class alone.  Its worst-case
error over every admissible solution (residual within delta, class norm
within m_a) is bracketed from above by an explicit noise + bias budget and
from below by admissible solutions: ``certify`` measures the distance to a
synthetic truth that passes the admissibility gate for its own data, and
adversarial bump witnesses are two admissible solutions sharing the same
data, whose separation no method can resolve.
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
    InvalidModelError,
    ResolutionError,
    StepTooLargeError,
    UnsupportedExponentError,
)
from .errors import choice, count, positive_finite, within
from .function_space import (
    NOISE_MODELS,
    Grid,
    HolderSpec,
    NoisyData,
    SampledFunction,
    add_noise,
    holder_norm,
    integrate_volterra,
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
    the distance to the admissible truth below.

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
    choice(boundary, BOUNDARY_STENCILS, "boundary stencil")
    positive_finite(data.delta, "noise radius")
    grid = data.f_delta.grid
    m, h = _snapped_step(data.delta, spec, grid)
    f = data.f_delta.values
    n = grid.n
    # One-sided step k*h: the paper's k = 1, or k = 2, whose noise
    # amplification is the budget's delta/h.
    k = 2 if boundary == "sound" else 1
    if h >= 0.5 or (k + 1) * m > n - 1:
        raise StepTooLargeError(
            f"snapped step h={h:.4g} leaves no room for the one-sided step {k}h "
            "inside [0, 1]; delta is too large for this grid and class"
        )
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

    This is the one gate of the lower bound: a candidate counts only if it
    passes ``membership``, and a pool in which none does raises
    ``EmptyAdmissibleSetError``.  The result is a lower estimate of the true
    supremum over the admissible set.  ``boundary`` selects the stencil of
    ``differentiate``.
    """
    r_out = differentiate(data, spec, boundary)
    accepted = [v for v in candidates if membership(v, data, spec).ok]
    if not accepted:
        raise EmptyAdmissibleSetError(
            "no candidate passed admissibility; data, noise radius and "
            "class bound look mutually inconsistent"
        )
    return max(sup_distance(r_out, v) for v in accepted)


def certify(
    truth: SampledFunction,
    spec: HolderSpec,
    deltas: Sequence[float],
    models: Sequence[str],
    seed: int = 0,
    boundary: str = "sound",
) -> list[Certificate]:
    """Certificates over a noise sweep for data synthesized from ``truth``.

    Per delta and noise model: data = integral of truth plus the model's
    noise at radius delta.  The truth is an admissible solution for its own
    data, so the cell's error is ``empirical_sup_error`` over [truth]: the
    sup distance from the regularized derivative to it.  A truth outside the
    class raises ``EmptyAdmissibleSetError``.  The certificate's lower bound
    is the max over models, and its upper bound the budget total.  Every
    count, model, stencil and delta (through its budget) is checked before
    any norm is computed.
    """
    count(len(deltas), "number of deltas")
    count(len(models), "number of noise models")
    for model in models:
        choice(model, NOISE_MODELS, "noise model", InvalidModelError)
    choice(boundary, BOUNDARY_STENCILS, "boundary stencil")
    budgets = [error_budget(delta, spec, truth.grid) for delta in deltas]
    f = integrate_volterra(truth)
    certs = []
    for delta, budget in zip(deltas, budgets):
        emp = max(empirical_sup_error(add_noise(f, delta, model, seed), spec, [truth], boundary)
                  for model in models)
        certs.append(Certificate(
            float(delta), float(spec.a), float(spec.m_a), budget.h, budget.noise_term,
            budget.bias_term, budget.total, emp))
    return certs
