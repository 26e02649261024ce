"""Sampled functions on the unit interval.

Uniform grids, the cumulative (Volterra) integration operator, sup-norm
distances, grid estimates of smoothness norms, and bounded-noise models.
All values are plain float arrays; objects are immutable after construction
and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    GridMismatchError,
    InvalidExponentError,
    InvalidGridError,
    InvalidModelError,
    InvalidParameterError,
)
from .errors import choice, positive_finite, within
from .seeding import rng_from

NOISE_MODELS = ("exact-shift", "alternating", "spike", "smooth", "seeded-uniform")


@dataclass(frozen=True)
class Grid:
    """Uniform grid x_i = i/(n-1) on [0, 1], endpoints exact."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 3:
            raise InvalidGridError(f"grid needs an integer node count >= 3, got {self.n!r}")

    @property
    def dx(self) -> float:
        return 1.0 / (self.n - 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        x = np.linspace(0.0, 1.0, self.n)
        x.flags.writeable = False
        return x


@dataclass(frozen=True)
class SampledFunction:
    """Real values attached to the nodes of a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n,):
            raise InvalidGridError(
                f"expected {self.grid.n} values for this grid, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise InvalidGridError("sampled values must all be finite")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class HolderSpec:
    """Smoothness class parameters: exponent a in [0, 2] and finite norm bound m_a > 0."""

    a: float
    m_a: float

    def __post_init__(self):
        within(self.a, 0, 2, "exponent", InvalidExponentError)
        positive_finite(self.m_a, "norm bound", InvalidExponentError)


@dataclass(frozen=True)
class NoisyData:
    """The data {f_delta, delta}: noisy samples and their sup-norm noise radius.

    delta = 0 is allowed as the degenerate exact-data case; operations that
    need strictly positive noise check that themselves.
    """

    f_delta: SampledFunction
    delta: float

    def __post_init__(self):
        within(self.delta, 0, np.inf, "noise radius", ends="[)")


def integrate_volterra(u: SampledFunction) -> SampledFunction:
    """Cumulative trapezoid integral of u, anchored at zero at x = 0.

    Exact on affine integrands; linear in u.
    """
    v = u.values
    steps = 0.5 * u.grid.dx * (v[1:] + v[:-1])
    out = np.concatenate(([0.0], np.cumsum(steps)))
    return SampledFunction(u.grid, out)


def sup_distance(f: SampledFunction, g: SampledFunction) -> float:
    """max_i |f(x_i) - g(x_i)| for two functions on one grid."""
    if f.grid != g.grid:
        raise GridMismatchError(f"grids differ: {f.grid.n} vs {g.grid.n} nodes")
    return float(np.max(np.abs(f.values - g.values)))


def grid_derivative(u: SampledFunction) -> np.ndarray:
    """Centered-difference derivative, one-sided at the endpoints."""
    v = u.values
    dx = u.grid.dx
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - v[:-2]) / (2.0 * dx)
    d[0] = (v[1] - v[0]) / dx
    d[-1] = (v[-1] - v[-2]) / dx
    return d


def _lag_quotient(w: np.ndarray, k: int, den: np.ndarray) -> float:
    """max over node pairs at lag k of |w_{i+k} - w_i| / den[k - 1]."""
    return float(np.max(np.abs(w[k:] - w[: len(w) - k])) / den[k - 1])


def _pair_quotient(dx: float, w: np.ndarray, b: float) -> float:
    """max over node pairs i < j of |w_j - w_i| / ((j - i) dx)**b, 0 <= b <= 1.

    Exact on every grid: the result is the maximum over all pairs, bit for
    bit.  b = 0 and b = 1 reduce to O(n) forms (the oscillation
    osc = max(w) - min(w), and the largest adjacent difference step / dx,
    where the maximum sits by telescoping).

    For fractional b the pairs are taken lag by lag: every pair at lag k
    shares the denominator (k dx)**b, so one array reduction gives the
    lag's quotient.  Two bounds limit a lag's largest difference: osc, and
    k * step by telescoping.  So
    B(k) = min(osc, k step) (1 + 1e-12) / (k dx)**b bounds every quotient at
    lag k; the margin covers the few roundings of a difference and of
    k * step.  B rises while k step < osc and falls after, so the lags with
    B(k) > best form one interval around its peak.  The scan seeds best with
    the peak lag, then walks outward from it on each side, one lag at a
    time, raising best as it goes, and stops a side at its first lag with
    B(k) <= best: none beyond can raise best.  Every lag scanned gives the
    same quotient as a scan of all lags, so the maximum is the same float.
    """
    n = len(w)
    if b == 0.0:
        return float(np.max(w) - np.min(w))
    step = float(np.max(np.abs(np.diff(w))))
    if b == 1.0:
        return step / dx
    osc = float(np.max(w) - np.min(w))
    k = np.arange(1, n)
    den = (k * dx) ** b
    bound = np.minimum(osc, k * step) * (1.0 + 1e-12) / den
    peak = int(np.argmax(bound)) + 1
    best = _lag_quotient(w, peak, den)
    for side in (range(peak + 1, n), range(peak - 1, 0, -1)):
        for lag in side:
            if not bound[lag - 1] > best:
                break
            best = max(best, _lag_quotient(w, lag, den))
    return best


def holder_norm(u: SampledFunction, a: float) -> float:
    """Grid estimate of the order-a smoothness norm of u.

    For 0 <= a <= 1 this is the sup of |u| plus the largest difference
    quotient with exponent a over node pairs.  For 1 < a <= 2 it is
    sup(|u| + |u'|) plus the largest exponent-(a-1) quotient of the discrete
    derivative u'.  The quotient is taken over every node pair at every grid
    size (see _pair_quotient), so the value is exact for the grid; as an
    estimate of the continuum norm it is from below and grows under grid
    refinement.
    """
    within(a, 0, 2, "exponent", InvalidExponentError)
    dx = u.grid.dx
    v = u.values
    if a <= 1.0:
        return _pair_quotient(dx, v, a) + float(np.max(np.abs(v)))
    d = grid_derivative(u)
    return float(np.max(np.abs(v) + np.abs(d))) + _pair_quotient(dx, d, a - 1.0)


def noise_shrink(f: SampledFunction, delta: float) -> float:
    """1 - 4 eps (||f||_inf + delta) / delta for delta > 0, eps the float64
    machine epsilon: a noise profile e with |e| <= delta, scaled by it, keeps
    |(f + e) - f| <= delta as computed.  A delta at or below the rounding of
    f, where the factor is not positive, raises InvalidParameterError.
    """
    sup_f = float(np.max(np.abs(f.values)))
    shrink = 1.0 - 4.0 * np.finfo(float).eps * (sup_f + delta) / delta
    if not shrink > 0.0:
        raise InvalidParameterError(
            f"noise radius {delta!r} is below the rounding of f (sup |f| = {sup_f:.3g})")
    return shrink


def add_noise(f: SampledFunction, delta: float, model: str, seed: int = 0) -> NoisyData:
    """Perturb f by a noise profile with sup-norm radius just under delta.

    Each profile below is scaled by ``noise_shrink(f, delta)``, so the
    rounding of f + e cannot lift |(f + e) - f| above delta as computed: f
    is admissible for its own data at every accepted delta.  A delta at or
    below the rounding of f raises InvalidParameterError.

    Models:
      exact-shift     f + delta at every node
      alternating     f + delta * (-1)**i
      spike           f + delta at one seeded node
      smooth          f + delta * cos(2 pi x)
      seeded-uniform  i.i.d. uniform in [-delta, delta], rescaled so the
                      largest deviation equals delta
    """
    choice(model, NOISE_MODELS, "noise model", InvalidModelError)
    # Before the noise is built, where a NaN radius would fail as InvalidGridError.
    within(delta, 0, np.inf, "noise radius", ends="[)")
    if delta == 0.0:
        return NoisyData(SampledFunction(f.grid, f.values), 0.0)
    shrink = noise_shrink(f, delta)
    n = f.grid.n
    if model == "exact-shift":
        e = np.full(n, delta)
    elif model == "alternating":
        e = delta * (-1.0) ** np.arange(n)
    elif model == "spike":
        e = np.zeros(n)
        e[int(rng_from(seed).integers(0, n))] = delta
    elif model == "smooth":
        e = delta * np.cos(2.0 * np.pi * f.grid.nodes)
    else:  # seeded-uniform
        e = rng_from(seed).uniform(-delta, delta, size=n)
        peak = np.max(np.abs(e))
        if peak == 0.0:
            e[0] = delta
        else:
            e *= delta / peak
    return NoisyData(SampledFunction(f.grid, f.values + shrink * e), float(delta))


def read_function_csv(path) -> SampledFunction:
    """Read a ``x,value`` CSV, one node per row, as ``regcert differentiate``
    writes it.

    Every consumer assumes the uniform grid, so the x column must hold the
    nodes of Grid(rows) to within 1e-12; files written by the CLI match them
    exactly.  A file that is not UTF-8 text, a row that is not two numbers,
    or an x off the grid raises InvalidGridError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise InvalidGridError(f"{path} is not UTF-8 text: {exc}") from None
    header = lines[0].strip() if lines else ""
    if header != "x,value":
        raise InvalidGridError(f"expected header 'x,value', got {header!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            x, value = map(float, line.split(","))
        except ValueError:
            raise InvalidGridError(
                f"line {lineno}: expected 'x,value', got {line.strip()!r}"
            ) from None
        rows.append((x, value))
    grid = Grid(len(rows))
    x, values = np.asarray(rows).T
    # Written so that a NaN x fails too.
    off = np.flatnonzero(~(np.abs(x - grid.nodes) <= 1e-12))
    if off.size:
        i = int(off[0])
        raise InvalidGridError(
            f"x column is not the uniform grid on {grid.n} nodes: "
            f"row {i + 1} has x={x[i]!r}, expected {float(grid.nodes[i])!r}"
        )
    return SampledFunction(grid, values)
