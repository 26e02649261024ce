import dataclasses
import os

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
        got = linreg._ascend(tri, src, [search])[0]
        assert len(seen) == 4  # initial check, two rounds, final check
        projected, (final, ok) = seen[0][0][1], seen[-1]
        assert np.array_equal(final[1], search.anchor + 0.25 * (projected - search.anchor))
        assert ok[1]
        assert got >= linreg._objective(final[1:2], search.rho)[0]


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


class TestCertify:
    def test_chain_and_pass(self):
        certs = certify(
            ProblemSpec("volterra", 64), SourceSpec(0.5, 1.0), [1e-2, 1e-3, 1e-4], trials=8, seed=3
        )
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

    def test_thread_count_invariance(self, monkeypatch):
        # A budget of one task (4 restarts of 24 elements) per block makes
        # the 12 tasks twelve blocks, so the pool really splits the work.
        monkeypatch.setattr(linreg, "_SEARCH_BLOCK", 4 * 24)
        assert linreg._SEARCH_BLOCK // (4 * 24) == 1
        kwargs = dict(trials=6, seed=17)
        c1 = certify(ProblemSpec("diagonal", 24, q=1.5), SourceSpec(0.25, 1.0), [1e-2, 1e-4], **kwargs)
        c8 = certify(
            ProblemSpec("diagonal", 24, q=1.5), SourceSpec(0.25, 1.0), [1e-2, 1e-4], threads=8, **kwargs
        )
        assert c1 == c8

    def test_thread_count_invariance_rotated(self, monkeypatch):
        # Dense singular vectors mix every coordinate; 64 restarts put four
        # tasks in a block, so the 12 tasks run as three blocks across the pool.
        monkeypatch.setattr(linreg, "RESTARTS", 64)
        args = (ProblemSpec("rotated-diagonal", 64, q=1.0, seed=4), SourceSpec(0.5, 1.0),
                [1e-1, 1e-2, 1e-3])
        c1 = certify(*args, trials=4, seed=9)
        c8 = certify(*args, trials=4, seed=9, threads=8)
        assert c1 == c8

    # empirical_lower values pinned from the one-task-at-a-time search that
    # the row-wise blocks replaced; the secular root's closed-form start
    # moves them in the last bits only.  "one-per-block" holds a single task
    # per block: its RESTARTS * n exceeds the block budget, pinned to the
    # 2^13 elements the case was written for.
    PINNED = {
        "diagonal-24": (
            (ProblemSpec("diagonal", 24, q=1.5), SourceSpec(0.25, 1.0), [1e-2, 1e-4],
             dict(trials=6, seed=17)),
            [0.18671049181890476, 0.015064355508835316],
        ),
        # The delta = 1e-4 value was 0.008177411217103815 with LAPACK's
        # singular vectors.  Its max comes from a trial >= 1, whose noise is
        # drawn in the standard basis, so it moved (-0.41%) when the volterra
        # triple took the closed form's sign convention; trial 0 does not see
        # the signs (test_volterra_sign_convention_leaves_first_trial).
        "volterra-64": (
            (ProblemSpec("volterra", 64), SourceSpec(0.5, 1.0), [1e-2, 1e-3, 1e-4],
             dict(trials=8, seed=42)),
            [0.07628707782663376, 0.026188491717579705, 0.008143821549780448],
        ),
        "one-per-block": (
            (ProblemSpec("volterra", 64), SourceSpec(0.75, 1.0), [1e-3, 1e-1],
             dict(trials=3, seed=5)),
            [0.01363577988282692, 0.1401956470486567],
        ),
    }

    @pytest.mark.parametrize("threads", [1, 8])
    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_pinned_lower_bounds(self, case, threads, monkeypatch):
        (problem, src, deltas, kwargs), want = self.PINNED[case]
        if case == "one-per-block":
            monkeypatch.setattr(linreg, "RESTARTS", 160)
            monkeypatch.setattr(linreg, "_SEARCH_BLOCK", 1 << 13)
            assert linreg._SEARCH_BLOCK // (linreg.RESTARTS * problem.n) == 0
        certs = certify(problem, src, deltas, threads=threads, **kwargs)
        assert [c.empirical_lower for c in certs] == pytest.approx(want, rel=1e-12)

    def test_volterra_sign_convention_leaves_first_trial(self, monkeypatch):
        # Trial 0 puts its noise along u_{j*} and draws its source member in
        # V coordinates, so it does not see the singular vectors' signs: the
        # closed-form volterra factors and LAPACK's give the same certificates.
        args = (ProblemSpec("volterra", 64), SourceSpec(0.5, 1.0), [1e-2, 1e-3, 1e-4])
        closed = certify(*args, trials=1, seed=42)
        dense_tri = svd(volterra_matrix(64))
        assert not np.all(dense_tri.u[1, :-1] > 0)  # LAPACK's signs differ
        built = []

        def lapack_factors(spec):
            built.append(spec)
            return spectral.SvdTriple(u=dense_tri.u, sigma=dense_tri.sigma, v=None)

        monkeypatch.setattr(linreg, "factors", lapack_factors)
        dense = certify(*args, trials=1, seed=42)
        assert built == [args[0]]
        for c, d in zip(closed, dense):
            names = [f.name for f in dataclasses.fields(c) if f.name != "passed"]
            assert [getattr(c, f) for f in names] == pytest.approx(
                [getattr(d, f) for f in names], rel=1e-12)
            assert c.passed == d.passed

    @pytest.mark.parametrize("problem", [ProblemSpec("volterra", 64),
                                         ProblemSpec("rotated-diagonal", 64, q=1.0, seed=4)],
                             ids=["volterra", "rotated-diagonal"])
    def test_builds_only_u_and_sigma(self, problem, monkeypatch):
        # rotated-diagonal's V is the second seeded QR; volterra's A is
        # volterra_matrix.  certify reads neither, nor make_problem's triple.
        built = []

        def recording(name, inner):
            def wrapper(*args, **kwargs):
                built.append(name)
                return inner(*args, **kwargs)
            return wrapper

        for module, name in ((np.linalg, "qr"), (spectral, "make_problem"),
                             (linreg, "make_problem"), (spectral, "volterra_matrix")):
            monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
        certify(problem, SourceSpec(0.5, 1.0), [1e-2, 1e-4], trials=2, seed=1)
        assert built == (["qr"] if problem.kind == "rotated-diagonal" else [])

    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize("problem", [ProblemSpec("volterra", 64),
                                         ProblemSpec("rotated-diagonal", 64, q=1.0, seed=4)],
                             ids=["volterra", "rotated-diagonal"])
    def test_block_size_invariance(self, problem, threads, monkeypatch):
        # One task per block, the default budget, and every task in one block.
        args = (problem, SourceSpec(0.5, 1.0), [1e-1, 1e-3])
        kwargs = dict(trials=3, seed=8, threads=threads)
        got = []
        for budget in (1, linreg._SEARCH_BLOCK, 1 << 20):
            monkeypatch.setattr(linreg, "_SEARCH_BLOCK", budget)
            got.append(certify(*args, **kwargs))
        assert got[0] == got[1] == got[2]

    # Two deltas x six trials, one task (4 restarts of 24 elements) per block:
    # twelve blocks for the workers to share.
    FAN_OUT = (ProblemSpec("diagonal", 24, q=1.5), SourceSpec(0.25, 1.0), [1e-2, 1e-4])

    @pytest.fixture
    def fan_out(self, monkeypatch):
        """Twelve one-task blocks; returns the list each os.fork call appends to."""
        monkeypatch.setattr(linreg, "_SEARCH_BLOCK", 4 * 24)
        forks, fork = [], os.fork

        def counted_fork():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        return forks

    def test_every_task_prepared_before_first_fork(self, fan_out, monkeypatch):
        # The parent makes every BLAS call before it forks; a gemv in a
        # child would restart OpenBLAS's spinning thread pool there.
        monkeypatch.setattr(linreg, "_usable_cpus", lambda: 3)
        prepared, prepare = [], linreg._prepare

        def recorded_prepare(svd, source, f_delta, delta, *args, **kwargs):
            prepared.append(delta)
            return prepare(svd, source, f_delta, delta, *args, **kwargs)

        seen_at_fork, fork = [], os.fork

        def recorded_fork():
            seen_at_fork.append(list(prepared))
            return fork()

        monkeypatch.setattr(linreg, "_prepare", recorded_prepare)
        monkeypatch.setattr(os, "fork", recorded_fork)
        certify(*self.FAN_OUT, trials=6, seed=17, threads=3)
        assert len(fan_out) == 2
        assert sorted(seen_at_fork[0]) == [1e-4] * 6 + [1e-2] * 6

    @pytest.mark.parametrize("where", ["child", "parent"])
    def test_workers_reaped_and_errors_keep_their_type(self, fan_out, monkeypatch, where):
        monkeypatch.setattr(linreg, "_usable_cpus", lambda: 4)
        certs = certify(*self.FAN_OUT, trials=6, seed=17, threads=4)
        assert len(fan_out) == 3
        assert certs == certify(*self.FAN_OUT, trials=6, seed=17)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

        parent, ascend = os.getpid(), linreg._ascend

        def failing_ascend(*args):
            if (os.getpid() == parent) == (where == "parent"):
                raise InfeasibleError(f"{where} failed")
            return ascend(*args)

        monkeypatch.setattr(linreg, "_ascend", failing_ascend)
        with pytest.raises(InfeasibleError, match=f"{where} failed"):
            certify(*self.FAN_OUT, trials=6, seed=17, threads=4)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_dead_worker_raises_runtime_error_and_is_reaped(self, fan_out, monkeypatch):
        monkeypatch.setattr(linreg, "_usable_cpus", lambda: 4)
        parent, ascend = os.getpid(), linreg._ascend

        def dying_ascend(*args):
            if os.getpid() != parent:
                os._exit(3)
            return ascend(*args)

        monkeypatch.setattr(linreg, "_ascend", dying_ascend)
        with pytest.raises(RuntimeError):
            certify(*self.FAN_OUT, trials=6, seed=17, threads=4)
        assert len(fan_out) == 3
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_workers_capped_at_usable_cpus(self, fan_out):
        certs = certify(*self.FAN_OUT, trials=6, seed=17, threads=10**6)
        assert len(fan_out) == min(12, linreg._usable_cpus()) - 1
        assert certs == certify(*self.FAN_OUT, trials=6, seed=17)

    def test_serial_where_fork_is_missing(self, fan_out, monkeypatch):
        # Threads serialize on the interpreter lock, so without fork this
        # process runs every share and no thread pool starts.
        def no_pool(*args, **kwargs):
            raise AssertionError("certify started a thread pool")

        monkeypatch.setattr(linreg, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(linreg, "_usable_cpus", lambda: 4)
        monkeypatch.delattr(os, "fork")
        certs = certify(*self.FAN_OUT, trials=6, seed=17, threads=4)
        assert certs == certify(*self.FAN_OUT, trials=6, seed=17)

    def test_task_value_independent_of_its_block(self, rng):
        m, tri = make_problem(ProblemSpec("volterra", 48))
        src = SourceSpec(0.5, 1.0)

        def searches():
            out = []
            for i, delta in enumerate([1e-1, 1e-2, 1e-3, 1e-4, 1e-5]):
                y = sample_source_set(tri, src, 1, seed=i)[0]
                e = rng_from(3, i).standard_normal(48)
                e *= delta / np.linalg.norm(e)
                a = choose_a(delta, src)
                out.append(linreg._prepare(tri, src, m @ y + e, delta, a, 3 + i, seed=i))
            return out

        together = linreg._ascend(tri, src, searches())
        alone = [linreg._ascend(tri, src, [x])[0] for x in searches()]
        assert together == alone
        assert linreg._ascend(tri, src, searches()[::-1]) == together[::-1]

    @pytest.mark.parametrize("problem, restarts", [
        (ProblemSpec("volterra", 64), 4),
        (ProblemSpec("rotated-diagonal", 64, q=1.0, seed=4), 4),
        (ProblemSpec("volterra", 64), 16),
        (ProblemSpec("rotated-diagonal", 64, q=1.0, seed=4), 16),
    ], ids=["volterra", "rotated-diagonal", "volterra-restarts16", "rotated-diagonal-restarts16"])
    def test_worst_case_search_is_certifys_search(self, problem, restarts, monkeypatch):
        # certify's first trial, rebuilt from its seeds: c from a generator
        # seeded by the trial generator's first draw, noise delta * u_{j*},
        # f_delta = U (sigma * c) + e, and the next draw seeds the search.
        # Both read RESTARTS when they run; on volterra 16 starts find more
        # than 4.
        monkeypatch.setattr(linreg, "RESTARTS", restarts)
        src, delta, seed = SourceSpec(0.5, 1.0), 1e-3, 11
        tri = spectral.factors(problem)
        a = choose_a(delta, src)
        rng = rng_from(seed, 0, 0)
        c = linreg._boundary_coef(tri, src, rng_from(int(rng.integers(0, 2**63)), 0))
        e = delta * tri.u[:, np.argmax(tri.sigma / (tri.s + a))]
        f_delta = tri.u @ (tri.sigma * c) + e
        got = worst_case_search(tri, src, f_delta, delta, a, seed=int(rng.integers(0, 2**63)))
        assert got == certify(problem, src, [delta], trials=1, seed=seed)[0].empirical_lower

    def test_empirical_slope_tracks_rate(self):
        src = SourceSpec(0.5, 1.0)
        deltas = list(np.logspace(-5, -1, 6))
        certs = certify(ProblemSpec("volterra", 64), src, deltas, trials=8, seed=5)
        logs = np.log([c.empirical_lower for c in certs])
        slope = np.polyfit(np.log(deltas), logs, 1)[0]
        want = 2 * src.p / (2 * src.p + 1)
        assert slope >= want - 0.15
        bound_slope = np.polyfit(np.log(deltas), np.log([c.rate_bound for c in certs]), 1)[0]
        assert bound_slope == pytest.approx(want, abs=1e-6)

    def test_validation(self):
        spec, src = ProblemSpec("diagonal", 4), SourceSpec(0.5, 1.0)
        with pytest.raises(InvalidParameterError):
            certify(spec, src, [], trials=1)
        with pytest.raises(InvalidParameterError):
            certify(spec, src, [1e-3], trials=0)
        for threads in (0, -2):
            with pytest.raises(InvalidParameterError):
                certify(spec, src, [1e-3], trials=1, threads=threads)
        tri = svd(np.eye(2))
        for restarts in (0, -3):
            with pytest.raises(InvalidParameterError):
                worst_case_search(tri, src, np.zeros(2), 0.1, 0.1, restarts=restarts)

    def test_csv_rows(self, tmp_path):
        src = SourceSpec(0.5, 1.0)
        certs = certify(ProblemSpec("diagonal", 8, q=1.0), src, [1e-3], trials=2, seed=0)
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
