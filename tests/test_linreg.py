import dataclasses
import tracemalloc

import numpy as np
import pytest

from regcert import (
    ProblemSpec,
    SourceSpec,
    apply,
    bias_sup,
    certify,
    choose_a,
    constants,
    make_problem,
    operator_norm,
    sample_source_set,
    source_membership,
    svd,
    worst_case_search,
)
from regcert.errors import (
    DegenerateProblemError,
    InfeasibleError,
    InvalidParameterError,
    InvalidSourceError,
)
from regcert import linreg, spectral
from regcert.cli import run
from regcert.seeding import rng_from
from regcert.spectral import volterra_matrix

# Frozen from a 50-digit mpmath evaluation of the closed forms.
CONSTS_P025_K1 = (0.56987676423869441, 2.1165347359575993, 1.0310472277489520)
CONSTS_P05_K2 = (0.5, 0.5, 1.4142135623730950)
A_P025_D01 = 0.0045599358578045253


class TestConstants:
    def test_symmetric_point(self):
        pack = constants(SourceSpec(0.5, 1.0))
        assert pack.c_p == pytest.approx(0.5, abs=1e-14)
        assert pack.b_p == pytest.approx(1.0, abs=1e-14)
        assert pack.C_p == pytest.approx(1.0, abs=1e-14)

    def test_quarter_order(self):
        pack = constants(SourceSpec(0.25, 1.0))
        assert pack.c_p == pytest.approx(CONSTS_P025_K1[0], rel=1e-14)
        assert pack.b_p == pytest.approx(CONSTS_P025_K1[1], rel=1e-14)
        assert pack.C_p == pytest.approx(CONSTS_P025_K1[2], rel=1e-14)

    def test_radius_two(self):
        pack = constants(SourceSpec(0.5, 2.0))
        assert pack.c_p == pytest.approx(CONSTS_P05_K2[0], abs=1e-14)
        assert pack.b_p == pytest.approx(CONSTS_P05_K2[1], abs=1e-14)
        assert pack.C_p == pytest.approx(CONSTS_P05_K2[2], rel=1e-14)

    def test_domain(self):
        for p in (0.0, 1.0, -0.5):
            with pytest.raises(InvalidSourceError):
                SourceSpec(p, 1.0)
        for k in (0.0, float("nan"), float("inf")):
            with pytest.raises(InvalidSourceError):
                SourceSpec(0.5, k)


class TestChooseA:
    def test_symmetric(self):
        assert choose_a(1e-4, SourceSpec(0.5, 1.0)) == pytest.approx(1e-4, rel=1e-12)

    def test_quarter(self):
        assert choose_a(1e-2, SourceSpec(0.25, 1.0)) == pytest.approx(A_P025_D01, rel=1e-13)

    def test_halving_scaling(self):
        src = SourceSpec(0.3, 0.7)
        ratio = choose_a(5e-4, src) / choose_a(1e-3, src)
        assert ratio == pytest.approx(2.0 ** (-2.0 / (2 * 0.3 + 1)), rel=1e-12)

    def test_bad_delta(self):
        for delta in (0.0, -1e-3, float("nan"), float("inf")):
            with pytest.raises(InvalidParameterError):
                choose_a(delta, SourceSpec(0.5, 1.0))
            with pytest.raises(InvalidParameterError):
                worst_case_search(svd(np.eye(2)), SourceSpec(0.5, 1.0), np.zeros(2), delta, 0.1)


class TestApply:
    def test_identity_half(self, rng):
        tri = svd(np.eye(3))
        f = rng.standard_normal(3)
        np.testing.assert_allclose(apply(tri, f, 1.0), f / 2.0, atol=1e-14)

    def test_componentwise_filter(self):
        tri = svd(np.diag([1.0, 0.1]))
        got = apply(tri, np.array([1.0, 1.0]), 0.01)
        np.testing.assert_allclose(sorted(np.abs(got)), sorted([1 / 1.01, 5.0]), rtol=1e-12)

    def test_normal_solution_property(self):
        tri = svd(np.diag([1.0, 0.0]))
        got = apply(tri, np.array([1.0, 1.0]), 0.25)
        assert got[0] == pytest.approx(1.0 / 1.25, rel=1e-14)
        assert abs(got[1]) <= 1e-12

    def test_null_components_vanish(self, rng):
        a = rng.standard_normal((6, 6))
        a[:, 3] = a[:, 0] + a[:, 1]  # rank deficient
        tri = svd(a)
        out = apply(tri, rng.standard_normal(6), 1e-3)
        coef = tri.v.T @ out
        assert np.all(np.abs(coef[tri.sigma == 0.0]) <= 1e-12)

    def test_bad_a(self):
        tri, src = svd(np.eye(2)), SourceSpec(0.5, 1.0)
        for a in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidParameterError):
                apply(tri, np.zeros(2), a)
            with pytest.raises(InvalidParameterError):
                operator_norm(tri, a)
            with pytest.raises(InvalidParameterError):
                bias_sup(tri, src, a)
            with pytest.raises(InvalidParameterError):
                worst_case_search(tri, src, np.zeros(2), 0.1, a)


class TestOperatorNorm:
    def test_equality_at_sqrt_a(self):
        tri = svd(np.diag([1.0]))
        assert operator_norm(tri, 1.0) == pytest.approx(0.5, abs=1e-14)

    def test_two_values(self):
        tri = svd(np.diag([2.0, 0.5]))
        assert operator_norm(tri, 1.0) == pytest.approx(0.4, rel=1e-14)

    def test_never_exceeds_half_inv_sqrt(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 30))
            tri = svd(rng.standard_normal((n, n)))
            a = float(np.exp(rng.uniform(np.log(1e-8), np.log(10.0))))
            assert operator_norm(tri, a) <= 1.0 / (2.0 * np.sqrt(a)) * (1 + 1e-12)

    def test_inserted_sqrt_a_attains_bound(self, rng):
        for a in (1e-6, 1e-2, 3.7):
            sigmas = np.sort(np.concatenate([rng.uniform(0.1, 2.0, 4), [np.sqrt(a)]]))[::-1]
            tri = svd(np.diag(sigmas))
            assert operator_norm(tri, a) == pytest.approx(1.0 / (2.0 * np.sqrt(a)), rel=1e-12)


class TestSourceMembership:
    def test_zero_vector(self):
        tri = svd(np.diag([1.0, 0.5]))
        value, ok = source_membership(np.zeros(2), tri, SourceSpec(0.5, 1.0))
        assert value == 0.0 and ok

    def test_boundary_member(self):
        tri = svd(np.diag([2.0, 0.5]))
        src = SourceSpec(0.3, 1.3)
        y = src.k_p * tri.s[0] ** src.p * tri.v[:, 0]
        value, ok = source_membership(y, tri, src)
        assert value == pytest.approx(src.k_p**2, rel=1e-12)
        assert ok

    def test_null_component_infinite(self):
        tri = svd(np.diag([1.0, 0.0]))
        y = tri.v[:, 1] * 0.1
        value, ok = source_membership(y, tri, SourceSpec(0.5, 1.0))
        assert value == np.inf and not ok


class TestSampleSourceSet:
    def test_all_members_on_boundary(self):
        _, tri = make_problem(ProblemSpec("volterra", 32))
        src = SourceSpec(0.4, 0.9)
        for y in sample_source_set(tri, src, 16, seed=3):
            value, ok = source_membership(y, tri, src)
            assert ok
            assert value == pytest.approx(src.k_p**2, rel=1e-9)

    def test_determinism(self):
        _, tri = make_problem(ProblemSpec("diagonal", 8, q=1.0))
        src = SourceSpec(0.5, 1.0)
        a = sample_source_set(tri, src, 5, seed=11)
        b = sample_source_set(tri, src, 5, seed=11)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_degenerate(self):
        tri = svd(np.zeros((3, 3)))
        with pytest.raises(DegenerateProblemError):
            sample_source_set(tri, SourceSpec(0.5, 1.0), 1, seed=0)

    @pytest.mark.parametrize("kind", spectral.PROBLEM_KINDS)
    def test_boundary_coef_is_the_samples_coordinates(self, kind):
        _, tri = make_problem(ProblemSpec(kind, 64, q=1.2, seed=3))
        src = SourceSpec(0.4, 0.9)
        c = linreg._boundary_coef(tri, src, rng_from(11, 0))
        assert np.array_equal(tri.v @ c, sample_source_set(tri, src, 1, seed=11)[0])

    @pytest.mark.parametrize("n", [3, 64, 257])
    @pytest.mark.parametrize("kind", spectral.PROBLEM_KINDS)
    def test_left_data_equals_matrix_data(self, kind, n):
        # certify forms A y, y = V c, as U (sigma * c).
        a, tri = make_problem(ProblemSpec(kind, n, q=1.2, seed=3))
        c = linreg._boundary_coef(tri, SourceSpec(0.5, 1.0), rng_from(4, 0))
        ay = a @ (tri.v @ c)
        assert np.max(np.abs(ay - tri.u @ (tri.sigma * c))) <= 1e-12 * np.max(np.abs(ay))


class TestBiasSup:
    def test_maximizer_inserted(self):
        # Spectrum containing s = p a/(1-p) attains c_p k a^p exactly.
        p, a, k = 0.5, 0.01, 1.0
        s_star = p * a / (1.0 - p)
        tri = svd(np.diag(np.sqrt([s_star, 1.0])))
        got = bias_sup(tri, SourceSpec(p, k), a)
        c_p = constants(SourceSpec(p, k)).c_p
        assert got == pytest.approx(c_p * k * a**p, rel=1e-12)

    def test_never_exceeds_closed_form(self, rng):
        src = SourceSpec(0.35, 2.0)
        c_p = constants(src).c_p
        for _ in range(50):
            n = int(rng.integers(1, 20))
            tri = svd(np.diag(rng.uniform(1e-4, 3.0, n)))
            a = float(np.exp(rng.uniform(np.log(1e-6), np.log(1.0))))
            assert bias_sup(tri, src, a) <= c_p * src.k_p * a**src.p * (1 + 1e-12)

    def test_single_mode(self):
        tri = svd(np.diag([1.0]))
        got = bias_sup(tri, SourceSpec(0.5, 1.0), 0.01)
        assert got == pytest.approx(0.01 * 1.0 / 1.01, rel=1e-12)


def _brute_force_2d(tri, src, f_delta, delta, a, npts=400):
    """Grid scan over the bounding box of the feasible intersection."""
    g = tri.u.T @ f_delta
    rho = tri.sigma / (tri.s + a) * g
    half = src.k_p * tri.s**src.p
    lo = np.maximum(-half, (g - delta) / tri.sigma)
    hi = np.minimum(half, (g + delta) / tri.sigma)
    z1, z2 = np.meshgrid(
        np.linspace(lo[0], hi[0], npts), np.linspace(lo[1], hi[1], npts), indexing="ij"
    )
    feas = (tri.s[0] ** (-2 * src.p) * z1**2 + tri.s[1] ** (-2 * src.p) * z2**2 <= src.k_p**2) & (
        (tri.sigma[0] * z1 - g[0]) ** 2 + (tri.sigma[1] * z2 - g[1]) ** 2 <= delta**2
    )
    obj = np.sqrt((z1 - rho[0]) ** 2 + (z2 - rho[1]) ** 2)
    return float(obj[feas].max())


class TestWorstCaseSearch:
    def test_scalar_example(self):
        tri = svd(np.array([[1.0]]))
        got = worst_case_search(tri, SourceSpec(0.5, 10.0), np.array([1.0]), 0.1, 0.01)
        assert got == pytest.approx(abs(1.0 / 1.01 - 1.1), abs=1e-9)

    def test_small_delta_shrinks_to_filter_bias(self):
        # delta -> 0 with generous k: the feasible set collapses to y_true and
        # the distance becomes the filter bias a*y/(s+a).
        sigma, a, y_true = 1.0, 0.05, 0.8
        tri = svd(np.array([[sigma]]))
        f = np.array([sigma * y_true])
        got = worst_case_search(tri, SourceSpec(0.5, 50.0), f, 1e-9, a)
        want = a * y_true / (sigma**2 + a)
        assert got == pytest.approx(want, abs=1e-6)

    def test_matches_2d_grid(self, rng):
        src = SourceSpec(0.4, 1.0)
        for i in range(8):
            m = rng.standard_normal((2, 2))
            tri = svd(m)
            y = sample_source_set(tri, src, 1, seed=i)[0]
            delta = 0.1
            e = rng.standard_normal(2)
            e *= 0.9 * delta / np.linalg.norm(e)
            f = m @ y + e
            a = choose_a(delta, src)
            got = worst_case_search(tri, src, f, delta, a, restarts=32, seed=i)
            brute = _brute_force_2d(tri, src, f, delta, a)
            assert got == pytest.approx(brute, rel=0.02)

    def test_zero_data_redirects_the_anchor(self):
        # Zero data puts the anchor on rho = 0, where the ascent direction
        # vanishes, so the anchor's row is redirected along a seeded draw.
        # The supremum is 0.2, at y = (0, 0.2) on the data bound; the search
        # may exceed it by the slack of its feasibility check.
        tri = svd(np.diag([1.0, 0.5]))
        got = worst_case_search(tri, SourceSpec(0.5, 1.0), np.zeros(2), 0.1, 0.1)
        assert got == pytest.approx(0.2, rel=1e-12)
        assert worst_case_search(tri, SourceSpec(0.5, 1.0), np.zeros(2), 0.1, 0.1) == got

    def test_infeasible(self):
        tri = svd(np.array([[1.0]]))
        # k tiny and data far from anything the source ball can produce
        with pytest.raises(InfeasibleError):
            worst_case_search(tri, SourceSpec(0.5, 1e-6), np.array([5.0]), 1e-3, 0.01)

    def test_feasible_value_is_sound(self, rng):
        # Returned value never exceeds the discrete J1 + J2 chain.
        src = SourceSpec(0.5, 1.0)
        m = rng.standard_normal((6, 6))
        tri = svd(m)
        y = sample_source_set(tri, src, 1, seed=0)[0]
        delta = 1e-2
        a = choose_a(delta, src)
        e = rng.standard_normal(6)
        e *= delta / np.linalg.norm(e)
        got = worst_case_search(tri, src, m @ y + e, delta, a, restarts=8, seed=1)
        j1 = delta * operator_norm(tri, a)
        j2 = bias_sup(tri, src, a)
        assert got <= j1 + j2 + 1e-9

    def test_soundness_shrink_halves_toward_anchor(self, monkeypatch):
        # The soundness check is forced to reject row 1 after the final
        # projection and after the first shrink round, so the shrink runs
        # two rounds.  Round k puts the row at 2^-k of its projected
        # displacement from the anchor: the counted point is
        # anchor + (z - anchor) / 4, not the compounded / 8.
        m, tri = make_problem(ProblemSpec("volterra", 16))
        src = SourceSpec(0.5, 1.0)
        y = sample_source_set(tri, src, 1, seed=0)[0]
        delta = 1e-2
        e = rng_from(5).standard_normal(16)
        e *= delta / np.linalg.norm(e)
        search = linreg._prepare(tri, src, m @ y + e, delta, choose_a(delta, src), 4, seed=1)
        real, seen = linreg._feasible, []

        def forced(z, *args, **kwargs):
            ok = real(z, *args, **kwargs)
            if kwargs:  # the projections' loose check, not the soundness gate
                return ok
            if not seen:
                ok[1] = False
            elif len(seen) == 1:
                ok[:] = False
            seen.append((z.copy(), ok))
            return ok

        monkeypatch.setattr(linreg, "_feasible", forced)
        got = linreg._ascend(search)
        assert len(seen) == 4  # initial check, two rounds, final check
        projected, (final, ok) = seen[0][0][1], seen[-1]
        assert np.array_equal(final[1], search.anchor + 0.25 * (projected - search.anchor))
        assert ok[1]
        assert got >= spectral._norms(final[1] - search.rho)


class TestSearchFindsTheTruth:
    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("kind", ["volterra", "diagonal", "rotated-diagonal"])
    def test_value_at_least_the_truths_error(self, kind, n):
        # y = 0.9 times a source-set member and ||e|| = 0.9 delta make y
        # admissible for f_delta = A y + e, so the sup the search estimates
        # is at least y's own error ||R f_delta - y||.
        m, tri = make_problem(ProblemSpec(kind, n, seed=2))
        cells = [(p, delta) for p in (0.25, 0.5, 0.75) for delta in (1e-4, 1e-2, 0.2)]
        for i, (p, delta) in enumerate(cells):
            src = SourceSpec(p, 1.0)
            a = choose_a(delta, src)
            y = 0.9 * sample_source_set(tri, src, 1, seed=i)[0]
            e = rng_from(n, i).standard_normal(n)
            f = m @ y + e * (0.9 * delta / np.linalg.norm(e))
            got = worst_case_search(tri, src, f, delta, a, seed=i)
            assert got >= np.linalg.norm(apply(tri, f, a) - y) * (1.0 - 1e-9), (p, delta)


def _project_source_reference(z, c, k_sq):
    """The source projection in the weights c = s^-2p: z / (1 + mu c)."""
    z = z.copy()
    cz2 = c * z * z
    over = ~(cz2.sum(axis=1) <= k_sq)
    if over.any():
        mu = linreg._shrink_root(cz2[over], c, k_sq)
        z[over] = z[over] / (1.0 + mu[:, None] * c)
    return z


def _project_data_reference(z, sigma, s, g, delta_sq):
    """The data projection with g and delta^2 copied per row:
    (z + nu sigma g) / (1 + nu s)."""
    g = np.broadcast_to(g, z.shape)
    delta_sq = np.full(len(z), delta_sq)
    z = z.copy()
    r2 = np.square(sigma * z - g)
    over = ~(r2.sum(axis=1) <= delta_sq)
    if over.any():
        nu = linreg._shrink_root(r2[over], s, delta_sq[over])[:, None]
        z[over] = (z[over] + nu * sigma * g[over]) / (1.0 + nu * s)
    return z


class TestProject:
    # Rows at these multiples of the radius from the centre b / a.
    FACTORS = [0.3, 0.99, 1.0 - 1e-9, 1.01, 2.0, 10.0, 1e3, 1e6]

    def _sets(self, kind, p):
        m, tri = make_problem(ProblemSpec(kind, 64, seed=3))
        src, delta = SourceSpec(p, 1.0), 1e-2
        y = sample_source_set(tri, src, 1, seed=0)[0]
        e = rng_from(9).standard_normal(64)
        f = m @ y + e * (delta / np.linalg.norm(e))
        search = linreg._prepare(tri, src, f, delta, choose_a(delta, src), 4, seed=0)
        return tri, search.sets

    def _rows(self, e, seed):
        u = rng_from(seed).standard_normal((len(self.FACTORS), e.a.size))
        u /= np.linalg.norm(u, axis=1)[:, None]
        return (e.b + np.array(self.FACTORS)[:, None] * np.sqrt(e.r_sq) * u) / e.a

    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("kind", ["volterra", "rotated-diagonal"])
    def test_inside_rows_stay_and_outside_rows_land_on_it(self, kind, p):
        for i, e in enumerate(self._sets(kind, p)[1]):
            z = self._rows(e, i)
            got = linreg._project(z.copy(), e)
            inside = np.square(e.a * z - e.b).sum(axis=1) <= e.r_sq
            assert inside.any() and not inside.all()
            assert np.array_equal(got[inside], z[inside])
            level = np.square(e.a * got[~inside] - e.b).sum(axis=1)
            assert np.all(np.abs(level - e.r_sq) <= 1e-12 * e.r_sq)

    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("kind", ["volterra", "rotated-diagonal"])
    def test_matches_the_per_ellipsoid_formulas(self, kind, p):
        tri, (source, data) = self._sets(kind, p)
        s = tri.s[tri.sigma > 0.0]
        z = self._rows(data, 1)
        want = _project_data_reference(z, data.a, s, data.b, data.r_sq)
        assert np.array_equal(linreg._project(z.copy(), data), want)
        z = self._rows(source, 0)
        want = _project_source_reference(z, s ** (-2.0 * p), source.r_sq)
        assert np.all(np.abs(linreg._project(z.copy(), source) - want) <= 1e-14 * np.abs(want))


def _shrink_root_reference(r2, w, bound_sq):
    """One-row secular root by a doubling search and Newton on the sum itself:
    the reference the closed-form start and reciprocal Newton must match."""
    wr2 = w * r2

    def val_at(mu_):
        return float((r2 / (1.0 + mu_ * w) ** 2).sum()) - bound_sq

    mu = 0.0
    step = 1.0
    for _ in range(340):
        trial = mu + step
        if trial < 1e200 and val_at(trial) > 0.0:
            mu = trial
            step *= 4.0
        else:
            break
    for _ in range(40):
        denom = 1.0 + mu * w
        d2 = denom * denom
        val = float((r2 / d2).sum()) - bound_sq
        if val <= bound_sq * 1e-13:
            break
        slope = -2.0 * float((wr2 / (d2 * denom)).sum())
        mu_new = mu - val / slope
        if not np.isfinite(mu_new) or mu_new <= mu * (1.0 + 1e-15):
            break
        mu = mu_new
    return mu


def _phi(r2, w, mu):
    with np.errstate(over="ignore"):
        denom = 1.0 + mu * w
        return float((r2 / (denom * denom)).sum())


class TestShrinkRoot:
    N = 37

    def _check(self, r2, w, bound):
        got = linreg._shrink_root(r2, w, bound)
        with np.errstate(over="ignore", under="ignore"):
            want = [_shrink_root_reference(r2[i], w, float(bound[i])) for i in range(len(r2))]
        for i, (mu, ref) in enumerate(zip(got.tolist(), want)):
            if bound[i] == 0.0:
                assert np.isfinite(mu) and mu > 1e199
                continue
            assert abs(mu - ref) <= 1e-11 * ref
            if mu > 0.0:
                assert abs(_phi(r2[i], w, mu) - bound[i]) <= 1e-13 * bound[i]
        return want

    def _ordinary(self, rng, rows):
        w = 10.0 ** rng.uniform(-3, 3, self.N)
        r2 = rng.uniform(0.0, 1.0, (rows, self.N))
        bound = r2.sum(axis=1) * rng.uniform(0.01, 0.9, rows)
        return r2, w, bound

    def _far(self, rng, rows):
        w = 10.0 ** rng.uniform(-9, -7, self.N)
        r2 = rng.uniform(0.5, 1.0, (rows, self.N))
        return r2, w, np.full(rows, 1e-10)

    def test_ordinary_rows(self, rng):
        self._check(*self._ordinary(rng, 40))

    def test_far_roots_run_a_long_pre_phase(self, rng):
        want = self._check(*self._far(rng, 12))
        # The reference's doubling search ran more than 20 steps here:
        # after k steps mu = (4^k - 1)/3, and the root lies beyond.
        assert min(want) > (4.0**21 - 1.0) / 3.0

    def test_zero_bound_is_huge_but_finite(self, rng):
        # Weights this small keep the reference's Newton slope finite and
        # nonzero past its 1e200 cap.
        r2, _, _ = self._ordinary(rng, 8)
        w = 10.0 ** rng.uniform(-160, -155, self.N)
        self._check(r2, w, np.zeros(8))

    def test_zero_slope_stops_the_row(self, rng):
        # With ordinary weights and a zero bound, (1 + mu w)^3 overflows while
        # the residual is still positive: the one-row reference divides by a
        # zero slope (ZeroDivisionError); a row stops there instead.
        r2, w, _ = self._ordinary(rng, 4)
        with pytest.raises(ZeroDivisionError), np.errstate(over="ignore"):
            _shrink_root_reference(r2[0], w, 0.0)
        got = linreg._shrink_root(r2, w, np.zeros(4))
        assert np.all(np.isfinite(got)) and np.all(got > 1e100)

    def test_rows_inside_the_bound_stay_put(self, rng):
        r2, w, _ = self._ordinary(rng, 8)
        assert self._check(r2, w, r2.sum(axis=1) * 1.5) == [0.0] * 8

    def _mixed(self, rng):
        # Ordinary, far, zero-bound and inside rows, shuffled, under one w
        # whose three tiny weights keep the far and zero-bound roots finite.
        r2, _, bound = self._ordinary(rng, 6)
        far_r2, _, far_bound = self._far(rng, 6)
        rows = np.concatenate([r2, far_r2, r2[:3], r2[:4]])
        bounds = np.concatenate([bound, far_bound, np.zeros(3), r2[:4].sum(axis=1) * 2.0])
        order = rng.permutation(len(rows))
        w = 10.0 ** np.concatenate([rng.uniform(-160, -155, 3), rng.uniform(-9, 3, self.N - 3)])
        return rows[order], w, bounds[order]

    def test_mixed_rows_in_one_call(self, rng):
        want = self._check(*self._mixed(rng))
        assert want.count(0.0) == 4 and max(want) > 1e199

    def test_row_alone_equals_row_in_batch(self, rng):
        r2, w, bound = self._mixed(rng)
        together = linreg._shrink_root(r2, w, bound)
        alone = [linreg._shrink_root(r2[i:i + 1], w, bound[i:i + 1])[0] for i in range(len(r2))]
        assert together.tolist() == alone

    def test_start_is_left_of_the_root(self, rng):
        for make in (self._ordinary, self._far):
            r2, w, bound = make(rng, 40)
            start = linreg._secular_start(r2, w, bound)
            assert np.all(start <= linreg._shrink_root(r2, w, bound))
            assert all(_phi(r2[i], w, start[i]) >= bound[i] for i in range(len(r2)))
        # The last batch, the far rows, starts far from 0, near the roots.
        assert np.all(start > 1e9)

    def test_zero_bound_with_zero_entries(self, rng):
        r2, w, _ = self._ordinary(rng, 3)
        r2[:, ::2] = 0.0
        r2[2] = 0.0
        got = linreg._shrink_root(r2, w, np.zeros(3))
        assert np.all(np.isfinite(got[:2])) and np.all(got[:2] > 1e100)
        assert got[2] == 0.0


def test_row_norms_match_the_one_row_norm(rng):
    for n in (1, 2, 7, 64, 255, 1024):
        d = rng.standard_normal((20, n)) * 10.0 ** rng.uniform(-8, 8, (20, 1))
        assert spectral._norms(d).tolist() == [float(np.linalg.norm(row)) for row in d]
        assert (d * d).sum(axis=1).tolist() == [float((row * row).sum()) for row in d]


def _all_pairs_worst_case(tri, src, delta, a):
    """max over unit u of k ||D1 u|| + delta ||D2 u||, scanning every pair of modes."""
    pos = tri.sigma > 0.0
    sigma, s = tri.sigma[pos], tri.s[pos]
    big_a = (src.k_p * a * s**src.p / (s + a)) ** 2
    big_b = (delta * sigma / (s + a)) ** 2
    best = float(np.max(np.sqrt(big_a) + np.sqrt(big_b)))
    for i in range(sigma.size - 1):
        aj, bj = big_a[i + 1:], big_b[i + 1:]
        da, db = big_a[i] - aj, big_b[i] - bj
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (db * db * aj - da * da * bj) / (da * db * (da - db))
        # Same-signed differences have no interior maximum: the ends cover them.
        t = np.clip(np.where(da * db < 0.0, t, 0.0), 0.0, 1.0)
        value = np.sqrt(t * big_a[i] + (1 - t) * aj) + np.sqrt(t * big_b[i] + (1 - t) * bj)
        best = max(best, float(value.max()))
    return best


# Gallery cells for the closed-form worst case: three kinds, three orders and
# a delta sweep.
_GALLERY = [ProblemSpec("volterra", 256), ProblemSpec("diagonal", 256, q=1.5),
            ProblemSpec("rotated-diagonal", 256, q=1.0, seed=4)]
_CELLS = [(p, float(delta)) for p in (0.25, 0.5, 0.75) for delta in np.logspace(-6, -1, 6)]


class TestWorstCase:
    def test_no_unit_vector_beats_it_at_n2(self, rng):
        theta = np.linspace(0.0, 2.0 * np.pi, 200001)
        u = np.stack([np.cos(theta), np.sin(theta)])
        for _ in range(20):
            sigma = np.sort(rng.uniform(0.05, 2.0, 2))[::-1]
            tri = spectral.Spectrum(sigma=sigma)
            src = SourceSpec(float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.5, 5.0)))
            delta = float(np.exp(rng.uniform(np.log(1e-4), np.log(0.3))))
            a = choose_a(delta, src)
            d1 = (a * tri.s**src.p / (tri.s + a))[:, None]
            d2 = (sigma / (tri.s + a))[:, None]
            grid = src.k_p * np.linalg.norm(d1 * u, axis=0) + delta * np.linalg.norm(d2 * u, axis=0)
            got = linreg._worst_case(tri, src, delta, a)[0]
            assert grid.max() <= got * (1 + 1e-12)
            assert grid.max() >= got * (1 - 1e-8)

    @pytest.mark.parametrize("problem", _GALLERY, ids=lambda spec: spec.kind)
    def test_hull_scan_equals_all_pairs(self, problem):
        tri = spectral.factors(problem)
        for p, delta in _CELLS:
            src = SourceSpec(p, 1.0)
            a = choose_a(delta, src)
            want = _all_pairs_worst_case(tri, src, delta, a)
            assert linreg._worst_case(tri, src, delta, a)[0] == pytest.approx(want, rel=1e-9)

    def test_hull_scan_equals_all_pairs_on_random_spectra(self, rng):
        # The scan takes neighbouring staircase points as the hull's edges,
        # which holds because every mode lies on one curve of one-signed
        # curvature: checked here on scattered spectra at any a, not only
        # the a-priori one.
        for _ in range(200):
            sigma = np.sort(10.0 ** rng.uniform(-5, 0, 40))[::-1]
            tri = spectral.Spectrum(sigma=sigma)
            src = SourceSpec(float(rng.uniform(0.01, 0.99)), float(10.0 ** rng.uniform(-2, 2)))
            delta, a = (float(x) for x in 10.0 ** rng.uniform([-8, -10], [0, 1]))
            want = _all_pairs_worst_case(tri, src, delta, a)
            assert linreg._worst_case(tri, src, delta, a)[0] == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("problem", _GALLERY, ids=lambda spec: spec.kind)
    def test_witness_is_admissible_and_attains_it(self, problem):
        tri = spectral.factors(problem)
        sigma, s = tri.sigma[tri.sigma > 0.0], tri.s[tri.sigma > 0.0]
        for p, delta in _CELLS:
            src = SourceSpec(p, 1.0)
            a = choose_a(delta, src)
            got, z, eta = linreg._worst_case(tri, src, delta, a)
            # The strict checks, with no tolerance.
            assert np.sum(s ** (-2 * p) * z * z) <= 1.0
            assert np.linalg.norm(eta) <= delta
            # The error of the witness: R(A y + e) - y in V coordinates.
            assert got == float(np.linalg.norm(sigma / (s + a) * (sigma * z + eta) - z))
            assert got == pytest.approx(_all_pairs_worst_case(tri, src, delta, a), rel=1e-9)
            assert got <= delta * operator_norm(tri, a) + bias_sup(tri, src, a)


class TestCertify:
    def test_chain_and_pass(self):
        certs = certify(ProblemSpec("volterra", 64), SourceSpec(0.5, 1.0), [1e-2, 1e-3, 1e-4])
        pack = constants(SourceSpec(0.5, 1.0))
        for c in certs:
            assert c.passed
            assert c.empirical_lower <= c.J1_disc + c.J2_disc + 1e-9
            assert c.J1_disc <= c.J1_cont * (1 + 1e-12)
            assert c.J2_disc <= c.J2_cont * (1 + 1e-12)
            assert c.total_cont == pytest.approx(c.rate_bound, rel=1e-10)
            assert c.rate_bound == pytest.approx(
                pack.C_p * c.delta ** (2 * 0.5 / (2 * 0.5 + 1)), rel=1e-12
            )

    def test_perturbed_a_increases_bound(self, rng):
        # The chosen a minimizes delta/(2 sqrt(a)) + c_p k a^p.
        for _ in range(100):
            p = float(rng.uniform(0.05, 0.95))
            k = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
            delta = float(np.exp(rng.uniform(np.log(1e-8), np.log(1e-1))))
            src = SourceSpec(p, k)
            c_p = constants(src).c_p
            bound = lambda a: delta / (2 * np.sqrt(a)) + c_p * k * a**p
            a_star = choose_a(delta, src)
            assert bound(a_star) < bound(2 * a_star)
            assert bound(a_star) < bound(a_star / 2)

    def test_thread_count_invariance(self):
        # threads is validated and otherwise unused.
        args = (ProblemSpec("diagonal", 24, q=1.5), SourceSpec(0.25, 1.0), [1e-2, 1e-4])
        assert certify(*args) == certify(*args, threads=8)

    def test_thread_count_invariance_rotated(self):
        args = (ProblemSpec("rotated-diagonal", 64, q=1.0, seed=4), SourceSpec(0.5, 1.0),
                [1e-1, 1e-2, 1e-3])
        assert certify(*args) == certify(*args, threads=8)

    # The closed-form worst case of each cell, captured exactly.  The label
    # "one-per-block" is kept from an earlier pin of the same cell.
    PINNED = {
        "diagonal-24": (
            (ProblemSpec("diagonal", 24, q=1.5), SourceSpec(0.25, 1.0), [1e-2, 1e-4]),
            [0.21503716884771057, 0.021378832216403493],
        ),
        "volterra-64": (
            (ProblemSpec("volterra", 64), SourceSpec(0.5, 1.0), [1e-2, 1e-3, 1e-4]),
            [0.0995648198479679, 0.03159346176642433, 0.009997107890095246],
        ),
        "one-per-block": (
            (ProblemSpec("volterra", 64), SourceSpec(0.75, 1.0), [1e-3, 1e-1]),
            [0.015812328802294433, 0.22796102328846918],
        ),
    }

    @pytest.mark.parametrize("threads", [1, 8])
    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_pinned_lower_bounds(self, case, threads):
        (problem, src, deltas), want = self.PINNED[case]
        certs = certify(problem, src, deltas, threads=threads)
        assert [c.empirical_lower for c in certs] == want

    def test_volterra_sign_convention_leaves_first_trial(self, monkeypatch):
        # certify reads sigma alone, so the closed-form volterra sigma and
        # LAPACK's, whose singular vectors also have other signs, give the
        # same certificates up to the rounding of sigma.
        args = (ProblemSpec("volterra", 64), SourceSpec(0.5, 1.0), [1e-2, 1e-3, 1e-4])
        closed = certify(*args)
        dense_sigma = svd(volterra_matrix(64)).sigma
        assert not np.array_equal(dense_sigma, spectral.spectrum(args[0]).sigma)
        built = []

        def lapack_spectrum(spec):
            built.append(spec)
            return spectral.Spectrum(sigma=dense_sigma)

        monkeypatch.setattr(linreg, "spectrum", lapack_spectrum)
        dense = certify(*args)
        assert built == [args[0]]
        for c, d in zip(closed, dense):
            names = [f.name for f in dataclasses.fields(c)]
            assert [getattr(c, f) for f in names] == pytest.approx(
                [getattr(d, f) for f in names], rel=1e-12)
            assert c.passed == d.passed

    @pytest.mark.parametrize("problem", [ProblemSpec("volterra", 64),
                                         ProblemSpec("rotated-diagonal", 64, q=1.0, seed=4),
                                         ProblemSpec("diagonal", 64, q=1.0)],
                             ids=["volterra", "rotated-diagonal", "diagonal"])
    def test_builds_sigma_alone(self, problem, monkeypatch):
        # certify reads sigma alone: no QR draw, no closed-form singular
        # vectors, no matrix A and no triple.
        built = []

        def recording(name, inner):
            def wrapper(*args, **kwargs):
                built.append(name)
                return inner(*args, **kwargs)
            return wrapper

        for module, name in ((np.linalg, "qr"), (spectral, "make_problem"),
                             (linreg, "make_problem"), (spectral, "volterra_matrix"),
                             (spectral, "factors"), (spectral, "_seeded_orthogonal"),
                             (spectral, "_volterra_triple")):
            monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
        certify(problem, SourceSpec(0.5, 1.0), [1e-2, 1e-4])
        assert built == []

    @pytest.mark.parametrize("problem", [ProblemSpec("volterra", 1024),
                                         ProblemSpec("rotated-diagonal", 1024, q=1.0)],
                             ids=["volterra", "rotated-diagonal"])
    def test_peak_memory_below_a_quarter_matrix(self, problem):
        # One n x n float64 matrix is n * n * 8 bytes; certify, reading
        # sigma alone, stays under a quarter of that at n = 1024.
        src, deltas = SourceSpec(0.5, 1.0), [1e-4, 1e-3, 1e-2, 1e-1]
        tracemalloc.start()
        try:
            certify(problem, src, deltas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < problem.n * problem.n * 8 / 4

    @pytest.mark.parametrize("problem, restarts", [
        (ProblemSpec("volterra", 64), 4),
        (ProblemSpec("rotated-diagonal", 64, q=1.0, seed=4), 4),
        (ProblemSpec("volterra", 64), 16),
        (ProblemSpec("rotated-diagonal", 64, q=1.0, seed=4), 16),
    ], ids=["volterra", "rotated-diagonal", "volterra-restarts16", "rotated-diagonal-restarts16"])
    def test_lower_bound_dominates_the_search(self, problem, restarts):
        # Data f_delta = U (sigma * c) + e from a seeded boundary member c
        # and noise e = delta * u_{j*}: the worst case for these data is one
        # of those the class-wide worst case bounds.
        src, delta, seed = SourceSpec(0.5, 1.0), 1e-3, 11
        tri = spectral.factors(problem)
        a = choose_a(delta, src)
        rng = rng_from(seed, 0, 0)
        c = linreg._boundary_coef(tri, src, rng_from(int(rng.integers(0, 2**63)), 0))
        e = delta * tri.u[:, np.argmax(tri.sigma / (tri.s + a))]
        f_delta = tri.u @ (tri.sigma * c) + e
        got = worst_case_search(tri, src, f_delta, delta, a, restarts=restarts,
                                seed=int(rng.integers(0, 2**63)))
        assert 0.0 < got <= certify(problem, src, [delta])[0].empirical_lower

    def test_empirical_slope_tracks_rate(self):
        src = SourceSpec(0.5, 1.0)
        deltas = list(np.logspace(-5, -1, 6))
        certs = certify(ProblemSpec("volterra", 64), src, deltas)
        logs = np.log([c.empirical_lower for c in certs])
        slope = np.polyfit(np.log(deltas), logs, 1)[0]
        want = 2 * src.p / (2 * src.p + 1)
        assert slope >= want - 0.15
        bound_slope = np.polyfit(np.log(deltas), np.log([c.rate_bound for c in certs]), 1)[0]
        assert bound_slope == pytest.approx(want, abs=1e-6)

    def test_validation(self):
        spec, src = ProblemSpec("diagonal", 4), SourceSpec(0.5, 1.0)
        with pytest.raises(InvalidParameterError):
            certify(spec, src, [])
        for threads in (0, -2):
            with pytest.raises(InvalidParameterError):
                certify(spec, src, [1e-3], threads=threads)
        tri = svd(np.eye(2))
        for restarts in (0, -3):
            with pytest.raises(InvalidParameterError):
                worst_case_search(tri, src, np.zeros(2), 0.1, 0.1, restarts=restarts)

    def test_csv_rows(self, tmp_path):
        src = SourceSpec(0.5, 1.0)
        certs = certify(ProblemSpec("diagonal", 8, q=1.0), src, [1e-3])
        out = tmp_path / "c.csv"
        assert run(["certify-linear", "--problem", "diagonal", "--n", "8", "--q", "1",
                    "--p", "0.5", "--k", "1", "--deltas", "1e-3", "--trials", "2",
                    "--seed", "0", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[0].startswith("delta,a,p,k,J1_cont")
        fields = rows[1].split(",")
        assert float(fields[0]) == certs[0].delta
        assert float(fields[9]) == certs[0].empirical_lower
        assert fields[10] == "true"
