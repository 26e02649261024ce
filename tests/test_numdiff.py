import numpy as np
import pytest

from regcert import (
    Grid,
    HolderSpec,
    NoisyData,
    SampledFunction,
    add_noise,
    differentiate,
    empirical_sup_error,
    error_budget,
    holder_norm,
    integrate_volterra,
    member_candidates,
    membership,
    numdiff,
    step_size,
    sup_distance,
    witness_pair,
)
from regcert.errors import (
    BOUND_TOL,
    EmptyAdmissibleSetError,
    InvalidParameterError,
    ResolutionError,
    StepTooLargeError,
    UnsupportedExponentError,
)
from regcert import cli
from regcert.numdiff import certify
from regcert.seeding import rng_from
from conftest import scaled_truth


def _scan_minimizer(delta, a, m):
    """Independent oracle: 1-D scan of the budget delta/h + m*h**(a-1)."""
    hs = np.exp(np.linspace(np.log(1e-6), np.log(0.5), 200001))
    vals = delta / hs + m * hs ** (a - 1.0)
    return hs[np.argmin(vals)], vals.min()


class TestStepSize:
    @pytest.mark.parametrize(
        "delta,a,m,expected",
        [(1e-4, 2.0, 1.0, 1e-2), (1e-3, 1.5, 2.0, 1e-2), (1e-4, 2.0, 4.0, 5e-3)],
    )
    def test_closed_form(self, delta, a, m, expected):
        h = step_size(delta, HolderSpec(a, m))
        assert h == pytest.approx(expected, rel=1e-12)
        h_scan, _ = _scan_minimizer(delta, a, m)
        assert h == pytest.approx(h_scan, rel=1e-3)

    def test_rejects_low_exponent(self):
        with pytest.raises(UnsupportedExponentError, match="witness"):
            step_size(1e-3, HolderSpec(1.0, 1.0))

    def test_rejects_bad_delta(self):
        for delta in (0.0, -1e-3, float("nan"), float("inf")):
            with pytest.raises(InvalidParameterError):
                step_size(delta, HolderSpec(2.0, 1.0))
            with pytest.raises(InvalidParameterError):
                witness_pair(delta, HolderSpec(2.0, 1.0), 0.5, Grid(257))

    def test_grid_clamp(self):
        g = Grid(11)
        assert step_size(1e-12, HolderSpec(2.0, 1.0), g) == g.dx
        assert step_size(10.0, HolderSpec(2.0, 1.0), g) == 0.5


class TestDifferentiate:
    def test_affine_exact_all_branches(self):
        g = Grid(101)
        data = NoisyData(SampledFunction(g, g.nodes.copy()), 1e-3)
        out = differentiate(data, HolderSpec(2.0, 1.0))
        np.testing.assert_allclose(out.values, 1.0, rtol=0, atol=1e-12)

    def test_quadratic_stencils(self):
        # f(x) = x^2/2: central is exact (x), forward gives x + h/2,
        # backward gives x - h/2; closed-form stencil arithmetic.
        g = Grid(201)
        spec = HolderSpec(2.0, 1.0)
        delta = 1e-3  # h snaps to 6 cells
        data = NoisyData(SampledFunction(g, g.nodes**2 / 2.0), delta)
        out = differentiate(data, spec, boundary="paper")
        h = error_budget(delta, spec, g).h
        m = round(h / g.dx)
        x = g.nodes
        np.testing.assert_allclose(out.values[m:-m], x[m:-m], atol=1e-12)
        np.testing.assert_allclose(out.values[:m], x[:m] + h / 2.0, atol=1e-12)
        np.testing.assert_allclose(out.values[-m:], x[-m:] - h / 2.0, atol=1e-12)

    def test_alternating_noise_hand_evaluation(self):
        # f_delta = x + delta*(-1)^i with h = dx.  Hand evaluation of the
        # stencils: the central branch sees equal noise at x-h and x+h, so the
        # interior output is exactly 1; the one-sided branches see a full sign
        # flip and give 1 -+ 2*delta/h.
        g = Grid(401)
        delta = g.dx**2  # forces h = c*sqrt(delta) = dx exactly, m = 1
        spec = HolderSpec(2.0, 1.0)
        e = delta * (-1.0) ** np.arange(g.n)
        data = NoisyData(SampledFunction(g, g.nodes + e), delta)
        out = differentiate(data, spec, boundary="paper")
        np.testing.assert_allclose(out.values[1:-1], 1.0, rtol=0, atol=1e-10)
        assert out.values[0] == pytest.approx(1.0 - 2.0 * delta / g.dx, rel=1e-10)
        assert out.values[-1] == pytest.approx(1.0 + 2.0 * delta / g.dx, rel=1e-10)

    def test_branch_consistency_at_seams(self):
        # Nodes at x = h and x = 1-h belong to the central branch.
        g = Grid(101)
        spec = HolderSpec(2.0, 1.0)
        delta = 2.5e-3  # h = 5 dx
        f = np.sin(3.0 * g.nodes)
        data = NoisyData(SampledFunction(g, f), delta)
        out = differentiate(data, spec, boundary="paper")
        m = round(error_budget(delta, spec, g).h / g.dx)
        h = m * g.dx
        assert out.values[m] == (f[2 * m] - f[0]) / (2 * h)
        assert out.values[g.n - 1 - m] == (f[-1] - f[g.n - 1 - 2 * m]) / (2 * h)
        assert out.values[m - 1] == (f[2 * m - 1] - f[m - 1]) / h
        assert out.values[g.n - m] == (f[g.n - m] - f[g.n - 2 * m]) / h

    def test_quadratic_stencils_sound(self):
        # f(x) = x^2/2 under the default one-sided step 2h: central is exact
        # (x), forward gives x + h, backward gives x - h.
        g = Grid(201)
        spec = HolderSpec(2.0, 1.0)
        delta = 1e-3  # h snaps to 6 cells
        data = NoisyData(SampledFunction(g, g.nodes**2 / 2.0), delta)
        out = differentiate(data, spec)
        h = error_budget(delta, spec, g).h
        m = round(h / g.dx)
        x = g.nodes
        np.testing.assert_allclose(out.values[m:-m], x[m:-m], atol=1e-12)
        np.testing.assert_allclose(out.values[:m], x[:m] + h, atol=1e-12)
        np.testing.assert_allclose(out.values[-m:], x[-m:] - h, atol=1e-12)

    def test_alternating_noise_hand_evaluation_sound(self):
        # f_delta = x + delta*(-1)^i with h = dx.  The default one-sided
        # branches difference nodes two cells apart, which carry equal noise,
        # so the output is exactly 1 at every node, boundary nodes included.
        g = Grid(401)
        delta = g.dx**2  # forces h = dx, m = 1
        spec = HolderSpec(2.0, 1.0)
        e = delta * (-1.0) ** np.arange(g.n)
        data = NoisyData(SampledFunction(g, g.nodes + e), delta)
        out = differentiate(data, spec)
        np.testing.assert_allclose(out.values, 1.0, rtol=0, atol=1e-10)

    def test_branch_consistency_at_seams_sound(self):
        # Default stencil: nodes at x = h and x = 1-h are central; the last
        # one-sided nodes difference across 2h.
        g = Grid(101)
        spec = HolderSpec(2.0, 1.0)
        delta = 2.5e-3  # h = 5 dx
        f = np.sin(3.0 * g.nodes)
        data = NoisyData(SampledFunction(g, f), delta)
        out = differentiate(data, spec)
        m = round(error_budget(delta, spec, g).h / g.dx)
        h = m * g.dx
        assert out.values[m] == (f[2 * m] - f[0]) / (2 * h)
        assert out.values[g.n - 1 - m] == (f[-1] - f[g.n - 1 - 2 * m]) / (2 * h)
        assert out.values[m - 1] == (f[3 * m - 1] - f[m - 1]) / (2 * h)
        assert out.values[g.n - m] == (f[g.n - m] - f[g.n - 3 * m]) / (2 * h)

    def test_step_too_large(self):
        g = Grid(11)
        data = NoisyData(SampledFunction(g, g.nodes.copy()), 0.5)
        with pytest.raises(StepTooLargeError):
            differentiate(data, HolderSpec(2.0, 1.0))

    def test_step_too_large_for_sound_stencil(self):
        # h = 0.4 (m = 4 on 11 nodes) is below 1/2, so the paper stencil runs,
        # but the step-2h branches would read past x = 1.
        g = Grid(11)
        spec = HolderSpec(2.0, 1.0)
        data = NoisyData(SampledFunction(g, g.nodes.copy()), 0.16)
        assert round(error_budget(0.16, spec, g).h / g.dx) == 4
        differentiate(data, spec, boundary="paper")
        with pytest.raises(StepTooLargeError):
            differentiate(data, spec)

    def test_step_guard_is_exact(self):
        # Every step the stencil cannot fit (sound: 3m > n-1, paper: h >= 1/2)
        # is refused with the typed error; every other step runs and is exact
        # on affine data.
        spec = HolderSpec(2.0, 1.0)
        for n in range(3, 40):
            g = Grid(n)
            for delta in np.logspace(-4, 0, 25):
                data = NoisyData(SampledFunction(g, g.nodes.copy()), delta)
                m = round(error_budget(delta, spec, g).h / g.dx)
                for boundary, too_large in (("sound", 3 * m > n - 1), ("paper", 2 * m >= n - 1)):
                    if too_large:
                        with pytest.raises(StepTooLargeError):
                            differentiate(data, spec, boundary=boundary)
                    else:
                        out = differentiate(data, spec, boundary=boundary)
                        np.testing.assert_allclose(out.values, 1.0, rtol=0, atol=1e-9)

    def test_unknown_boundary_rejected(self):
        g = Grid(101)
        data = NoisyData(SampledFunction(g, g.nodes.copy()), 1e-3)
        with pytest.raises(InvalidParameterError, match="boundary"):
            differentiate(data, HolderSpec(2.0, 1.0), boundary="central")


class TestErrorBudget:
    def test_pinned_values_a2(self):
        b = error_budget(1e-4, HolderSpec(2.0, 1.0))
        assert b.noise_term == pytest.approx(1e-2, rel=1e-12)
        assert b.bias_term == pytest.approx(1e-2, rel=1e-12)
        assert b.total == pytest.approx(2e-2, rel=1e-12)
        assert b.total == pytest.approx(2.0 * np.sqrt(1e-4), rel=1e-12)

    def test_pinned_values_a15(self):
        b = error_budget(1e-3, HolderSpec(1.5, 2.0))
        assert (b.noise_term, b.bias_term, b.total) == pytest.approx((0.1, 0.2, 0.3), rel=1e-12)

    def test_total_is_sum_and_dominates_rate(self):
        g = Grid(257)
        for delta in np.logspace(-6, -2, 9):
            for spec in (HolderSpec(2.0, 1.0), HolderSpec(1.5, 0.03), HolderSpec(1.2, 7.0)):
                b = error_budget(delta, spec, g)
                assert b.total == b.noise_term + b.bias_term
                assert b.total >= b.rate_bound * (1 - 1e-9)
                b_free = error_budget(delta, spec)
                assert b_free.total == pytest.approx(b_free.rate_bound, rel=1e-12)

    def test_total_vs_scan_oracle(self):
        # rate_bound equals the scanned minimum of the budget curve.
        for delta, a, m in [(1e-4, 2.0, 1.0), (1e-3, 1.5, 2.0), (1e-5, 1.8, 0.5)]:
            _, scan_min = _scan_minimizer(delta, a, m)
            b = error_budget(delta, HolderSpec(a, m))
            assert b.rate_bound == pytest.approx(scan_min, rel=1e-6)

    def test_total_vanishes_with_delta(self):
        spec = HolderSpec(2.0, 1.0)
        totals = [error_budget(d, spec).total for d in np.logspace(-2, -12, 11)]
        assert all(t1 > t2 for t1, t2 in zip(totals, totals[1:]))


class TestMembership:
    def test_truth_is_member(self):
        g = Grid(513)
        spec = HolderSpec(2.0, 1.0)
        u = scaled_truth(g, spec, g.nodes**2)
        data = add_noise(integrate_volterra(u), 1e-3, "seeded-uniform", seed=1)
        got = membership(u, data, spec)
        assert got.ok
        assert got.residual <= 1e-3 * (1 + 1e-9)
        assert got.norm <= 1.0 * (1 + 1e-9)

    def test_constant_shift_rejected(self):
        g = Grid(513)
        spec = HolderSpec(2.0, 2.0)
        u = scaled_truth(g, HolderSpec(2.0, 1.0), g.nodes**2)
        delta = 1e-4
        data = add_noise(integrate_volterra(u), delta, "smooth", seed=1)
        shifted = SampledFunction(g, u.values + 3.0 * delta)
        got = membership(shifted, data, spec)
        assert not got.ok
        # residual grows like 3*delta*x, so roughly 3*delta at x = 1
        assert got.residual == pytest.approx(3.0 * delta, rel=0.5)

    def test_witness_members(self):
        g = Grid(1025)
        spec = HolderSpec(2.0, 1.0)
        wp = witness_pair(1e-4, spec, 0.5, g)
        data = NoisyData(wp.f_delta, 1e-4)
        assert membership(wp.v_plus, data, spec).ok
        assert membership(wp.v_minus, data, spec).ok


@pytest.mark.parametrize("n", [1025, 4097])
def test_bump_samples_ieee_product(n):
    # (1 - t^2)^3 as two IEEE multiplies, byte for byte against Python floats.
    g = Grid(n)
    center, width = 0.5, 0.1
    expected = []
    for x in g.nodes.tolist():
        t = (x - center) / width
        b = 1.0 - t * t
        expected.append(b * b * b if abs(t) < 1.0 else 0.0)
    got = numdiff._bump_samples(g, center, width)
    assert got.tobytes() == np.array(expected).tobytes()


class TestWitnessPair:
    def test_construction_contracts(self):
        g = Grid(2049)
        spec = HolderSpec(2.0, 1.0)
        wp = witness_pair(1e-4, spec, 0.5, g)
        assert wp.separation == pytest.approx(2.0 * wp.bump_amplitude, abs=1e-12)
        resid_p = np.max(np.abs(integrate_volterra(wp.v_plus).values - wp.f_delta.values))
        assert resid_p <= 1e-4 * (1 + 1e-9)
        assert holder_norm(wp.v_plus, 2.0) <= 1.0 * (1 + 1e-9)

    def test_a0_no_decay(self):
        # Non-decaying separation across three decades: the class without a
        # derivative bound admits no worst-case regularizer.
        g = Grid(500001)
        spec = HolderSpec(0.0, 3.0)
        s_hi = witness_pair(1e-2, spec, 0.5, g).separation
        s_lo = witness_pair(1e-5, spec, 0.5, g).separation
        assert s_hi / s_lo == pytest.approx(1.0, abs=0.05)

    def test_a2_scaling_law(self):
        g = Grid(2049)
        spec = HolderSpec(2.0, 1.0)
        r = witness_pair(1e-4, spec, 0.5, g).separation / witness_pair(1e-4 / 8, spec, 0.5, g).separation
        assert r == pytest.approx(8.0 ** (2.0 / 3.0), rel=0.05)

    def test_resolution_error(self):
        g = Grid(65)
        with pytest.raises(ResolutionError):
            witness_pair(1e-9, HolderSpec(2.0, 1.0), 0.5, g)

    def test_center_validation(self):
        g = Grid(257)
        with pytest.raises(InvalidParameterError):
            witness_pair(1e-3, HolderSpec(2.0, 1.0), 1.5, g)


class TestEmpiricalSupError:
    def test_restricted_to_truth(self):
        g = Grid(513)
        spec = HolderSpec(2.0, 1.0)
        u = scaled_truth(g, spec, g.nodes**2)
        data = add_noise(integrate_volterra(u), 1e-3, "spike", seed=3)
        got = empirical_sup_error(data, spec, 1, seed=0, candidates=[u])
        assert got == sup_distance(differentiate(data, spec), u)

    def test_gate_drops_inadmissible_candidate(self):
        # A shifted truth lies farther from the regularized derivative than
        # the truth does, but its residual is far above delta: it must not
        # count, so the bound is the truth's distance alone.
        g = Grid(513)
        spec = HolderSpec(2.0, 1.0)
        u = scaled_truth(g, spec, g.nodes**2)
        data = add_noise(integrate_volterra(u), 1e-3, "spike", seed=3)
        shifted = SampledFunction(g, u.values + 0.5)
        assert not membership(shifted, data, spec).ok
        r_out = differentiate(data, spec)
        assert sup_distance(r_out, shifted) > sup_distance(r_out, u)
        for pool in ([u, shifted], [shifted, u]):
            got = empirical_sup_error(data, spec, 1, seed=0, candidates=pool)
            assert got == sup_distance(r_out, u)
        with pytest.raises(EmptyAdmissibleSetError):
            empirical_sup_error(data, spec, 1, seed=0, candidates=[shifted])

    def test_boundary_threaded_through(self):
        g = Grid(513)
        spec = HolderSpec(2.0, 1.0)
        u = scaled_truth(g, spec, g.nodes**2)
        data = add_noise(integrate_volterra(u), 1e-3, "alternating", seed=3)
        got = {}
        for boundary in ("sound", "paper"):
            got[boundary] = empirical_sup_error(data, spec, 1, seed=0, candidates=[u],
                                                boundary=boundary)
            assert got[boundary] == sup_distance(differentiate(data, spec, boundary=boundary), u)
        assert got["sound"] != got["paper"]

    def test_witness_injection_lower_bound(self):
        g = Grid(1025)
        spec = HolderSpec(2.0, 1.0)
        wp = witness_pair(1e-4, spec, 0.5, g)
        data = NoisyData(wp.f_delta, 1e-4)
        got = empirical_sup_error(data, spec, 2, seed=0, candidates=[wp.v_plus, wp.v_minus])
        assert got >= wp.separation / 2.0

    def test_below_certified_budget(self):
        # Data and noise where the budget chain is airtight (spike and smooth
        # keep the one-sided noise amplification within the noise term).
        g = Grid(1025)
        spec = HolderSpec(2.0, 1.0)
        u = scaled_truth(g, spec, np.sin(2 * np.pi * g.nodes))
        f = integrate_volterra(u)
        for delta in (1e-3, 1e-4):
            budget = error_budget(delta, spec, g)
            for model in ("spike", "smooth", "exact-shift"):
                data = add_noise(f, delta, model, seed=11)
                pool = member_candidates(u, data, spec, 12, seed=5)
                got = empirical_sup_error(data, spec, 12, seed=5, candidates=pool)
                assert got <= budget.total

    def test_auto_pool_with_slack(self):
        g = Grid(513)
        spec = HolderSpec(2.0, 5.0)
        u = scaled_truth(g, HolderSpec(2.0, 2.0), g.nodes**2)
        data = add_noise(integrate_volterra(u), 1e-2, "spike", seed=3)
        got = empirical_sup_error(data, spec, 8, seed=0)
        assert got <= error_budget(1e-2, spec, g).total

    def test_member_candidates_are_admissible(self):
        # A base with slack in both the residual and the norm: every bump
        # member_candidates scales into that slack passes membership.
        g = Grid(513)
        spec = HolderSpec(1.5, 2.0)
        u = scaled_truth(g, HolderSpec(1.5, 1.0), np.sin(2 * np.pi * g.nodes))
        data = add_noise(integrate_volterra(u), 1e-3, "smooth", seed=4)
        data = NoisyData(data.f_delta, 2e-3)
        base = membership(u, data, spec)
        assert base.residual < 0.6 * data.delta and base.norm < 0.6 * spec.m_a
        pool = member_candidates(u, data, spec, 16, seed=7)
        assert len(pool) == 17 and pool[0] is u
        for v in pool:
            assert membership(v, data, spec).ok
        assert len({sup_distance(u, v) for v in pool[1:]}) == 16

    @pytest.mark.parametrize("samples, calls", [(4, 12), (8, 16), (16, 24)])
    def test_generated_pool_membership_calls(self, monkeypatch, samples, calls):
        # Six bases meet the base filter; the two admissible ones and their
        # bumps meet the gate.  The filter's membership feeds the bumps' slack.
        g = Grid(257)
        spec = HolderSpec(1.5, 2.0)
        u = scaled_truth(g, HolderSpec(1.5, 1.0), np.sin(2 * np.pi * g.nodes))
        data = add_noise(integrate_volterra(u), 1e-3, "spike", seed=3)
        made = []

        def counted(v, data, spec):
            made.append(v)
            return membership(v, data, spec)

        monkeypatch.setattr(numdiff, "membership", counted)
        got = empirical_sup_error(data, spec, samples, seed=0)
        assert len(made) == calls
        assert got == 0.04418953300990417

    def test_empty_admissible_set(self):
        g = Grid(257)
        data = NoisyData(SampledFunction(g, 5.0 * g.nodes), 1e-6)
        with pytest.raises(EmptyAdmissibleSetError):
            empirical_sup_error(data, HolderSpec(2.0, 0.05), 4, seed=0)

    def test_order_independence(self):
        g = Grid(513)
        spec = HolderSpec(2.0, 1.0)
        u = scaled_truth(g, spec, g.nodes**2)
        data = add_noise(integrate_volterra(u), 1e-3, "smooth", seed=9)
        pool = member_candidates(u, data, spec, 8, seed=2)
        a = empirical_sup_error(data, spec, 8, seed=2, candidates=pool)
        b = empirical_sup_error(data, spec, 8, seed=2, candidates=list(reversed(pool)))
        assert a == b



class TestCertify:
    def test_one_certificate_per_delta(self):
        g = Grid(513)
        spec = HolderSpec(2.0, 1.0)
        u = scaled_truth(g, spec, g.nodes**2)
        deltas = [1e-3, 1e-4]
        certs = certify(u, spec, deltas, ["spike", "smooth"], 3, seed=4)
        assert [c.delta for c in certs] == deltas
        for c in certs:
            budget = error_budget(c.delta, spec, g)
            assert (c.h, c.noise_term, c.bias_term, c.total) == (
                budget.h, budget.noise_term, budget.bias_term, budget.total)
            # The truth anchors every cell, so its error is a floor.
            assert c.empirical_lower > 0.0
            assert c.passed == (c.empirical_lower <= c.total * BOUND_TOL)
        assert certify(u, spec, deltas, ["spike", "smooth"], 3, seed=4) == certs

    def test_one_membership_call_per_candidate(self, monkeypatch):
        # Per (delta, model): one gate call on the truth, which passes; no
        # pool is built around it, so empirical_sup_error (None here) is
        # never called.
        g = Grid(513)
        spec = HolderSpec(2.0, 1.0)
        u = scaled_truth(g, spec, g.nodes**2)
        calls = []
        real = numdiff.membership

        def counting(v, data, spec):
            calls.append(v)
            return real(v, data, spec)

        monkeypatch.setattr(numdiff, "membership", counting)
        monkeypatch.setattr(numdiff, "empirical_sup_error", None)
        samples, deltas, models = 5, [1e-3, 1e-4], ["spike", "smooth"]
        certify(u, spec, deltas, models, samples, seed=2)
        assert len(calls) == len(deltas) * len(models)
        assert all(v is u for v in calls)

    def test_inadmissible_truth_falls_back_to_generated_pool(self):
        # A truth outside the class ball fails the gate, so each cell's lower
        # bound is empirical_sup_error's generated pool at the cell's sub-seed.
        g = Grid(257)
        spec = HolderSpec(1.5, 1.0)
        u = scaled_truth(g, HolderSpec(1.5, 1.05), np.sin(2 * np.pi * g.nodes))
        deltas, models, samples = [1e-2], ["spike", "smooth"], 4
        f = integrate_volterra(u)
        certs = certify(u, spec, deltas, models, samples, seed=3)
        for di, (delta, cert) in enumerate(zip(deltas, certs)):
            expected = []
            for mi, model in enumerate(models):
                data = add_noise(f, delta, model, 3)
                assert not membership(u, data, spec).ok
                sub_seed = int(rng_from(3, di, mi).integers(0, 2**63))
                expected.append(empirical_sup_error(data, spec, samples, seed=sub_seed))
            assert cert.empirical_lower == max(expected)

    @pytest.mark.parametrize("argv", [
        ["--n", "4097", "--a", "2", "--m", "1", "--deltas", "1e-2:1e-5:log4",
         "--truth", "quadratic"],
        ["--n", "1025", "--a", "1.5", "--m", "1", "--deltas", "1e-2:1e-5:log4",
         "--samples", "4", "--truth", "quadratic", "--seed", "1"],
    ], ids=["readme", "diff-sweep-a15"])
    def test_cli_lower_bound_is_truth_distance(self, argv, tmp_path):
        # certify-diff's empirical_lower is the regularizer's sup distance to
        # the truth, maximized over the noise models, bit for bit.
        out = tmp_path / "certs.csv"
        assert cli.run(["certify-diff", *argv, "--out", str(out)]) == 0
        cfg = cli.resolve_config(["certify-diff", *argv])
        p, seed = cfg.params, cfg.seed
        spec = HolderSpec(p["a"], p["m"])
        truth = cli.make_truth(p["truth"], Grid(p["n"]), spec, seed)
        f = integrate_volterra(truth)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == len(p["deltas"])
        for delta, row in zip(p["deltas"], rows):
            expected = max(
                sup_distance(differentiate(add_noise(f, delta, model, seed), spec), truth)
                for model in p["models"]
            )
            assert float(row[7]) == expected

    def test_lower_bound_is_max_over_models(self):
        g = Grid(513)
        spec = HolderSpec(2.0, 1.0)
        u = scaled_truth(g, spec, g.nodes**2)
        both = certify(u, spec, [1e-3], ["spike", "smooth"], 2, seed=1)[0]
        spike = certify(u, spec, [1e-3], ["spike"], 2, seed=1)[0]
        assert both.empirical_lower >= spike.empirical_lower


def test_budget_dominance_guaranteed_models():
    # Known truths inside the ball, every delta in a log sweep, for the noise
    # shapes whose one-sided amplification stays within the noise term.
    g = Grid(2049)
    spec = HolderSpec(2.0, 1.0)
    truths = [
        scaled_truth(g, spec, g.nodes**2),
        scaled_truth(g, spec, np.sin(2 * np.pi * g.nodes)),
    ]
    for u in truths:
        f = integrate_volterra(u)
        for delta in np.logspace(-5, -2, 7):
            budget = error_budget(delta, spec, g)
            for model in ("exact-shift", "spike", "smooth"):
                data = add_noise(f, delta, model, seed=21)
                err = sup_distance(differentiate(data, spec), u)
                assert err <= budget.total * (1 + 1e-6), (model, delta, err, budget.total)
