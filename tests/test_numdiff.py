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
    RegcertError,
    ResolutionError,
    StepTooLargeError,
    UnsupportedExponentError,
)
from regcert import cli
from regcert.function_space import grid_derivative
from regcert.numdiff import certify
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
        got = empirical_sup_error(data, spec, [u])
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
            got = empirical_sup_error(data, spec, pool)
            assert got == sup_distance(r_out, u)
        with pytest.raises(EmptyAdmissibleSetError):
            empirical_sup_error(data, spec, [shifted])

    def test_boundary_threaded_through(self):
        g = Grid(513)
        spec = HolderSpec(2.0, 1.0)
        u = scaled_truth(g, spec, g.nodes**2)
        data = add_noise(integrate_volterra(u), 1e-3, "alternating", seed=3)
        got = {}
        for boundary in ("sound", "paper"):
            got[boundary] = empirical_sup_error(data, spec, [u], boundary=boundary)
            assert got[boundary] == sup_distance(differentiate(data, spec, boundary=boundary), u)
        assert got["sound"] != got["paper"]

    def test_witness_injection_lower_bound(self):
        g = Grid(1025)
        spec = HolderSpec(2.0, 1.0)
        wp = witness_pair(1e-4, spec, 0.5, g)
        data = NoisyData(wp.f_delta, 1e-4)
        got = empirical_sup_error(data, spec, [wp.v_plus, wp.v_minus])
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
                got = empirical_sup_error(data, spec, pool)
                assert got <= budget.total

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

    def test_empty_admissible_set(self):
        # Data whose slope 5 no solution within the class bound 0.05 can
        # reproduce: neither the zero function nor the regularized
        # derivative is admissible.
        g = Grid(257)
        spec = HolderSpec(2.0, 0.05)
        data = NoisyData(SampledFunction(g, 5.0 * g.nodes), 1e-6)
        pool = [SampledFunction(g, np.zeros(g.n)), differentiate(data, spec)]
        with pytest.raises(EmptyAdmissibleSetError):
            empirical_sup_error(data, spec, pool)

    def test_order_independence(self):
        g = Grid(513)
        spec = HolderSpec(2.0, 1.0)
        u = scaled_truth(g, spec, g.nodes**2)
        data = add_noise(integrate_volterra(u), 1e-3, "smooth", seed=9)
        pool = member_candidates(u, data, spec, 8, seed=2)
        a = empirical_sup_error(data, spec, pool)
        b = empirical_sup_error(data, spec, list(reversed(pool)))
        assert a == b



class TestCertify:
    def test_one_certificate_per_delta(self):
        g = Grid(513)
        spec = HolderSpec(2.0, 1.0)
        deltas = [1e-3, 1e-4]
        certs = certify(g, spec, deltas)
        assert [c.delta for c in certs] == deltas
        for c in certs:
            budget = error_budget(c.delta, spec, g)
            assert (c.h, c.noise_term, c.bias_term, c.total) == (
                budget.h, budget.noise_term, budget.bias_term, budget.total)
            assert c.empirical_lower == numdiff._worst_case(numdiff._slope(g, spec), spec, c.delta)
            assert c.passed == (c.empirical_lower <= c.total * BOUND_TOL)
        assert certify(g, spec, deltas) == certs

    def test_one_membership_call_per_candidate(self, monkeypatch):
        # Per delta: one gate call, on that delta's witness alone; v* is built
        # once per call, so holder_norm runs once for its scale and once per
        # delta in the check.
        g = Grid(513)
        spec = HolderSpec(2.0, 1.0)
        calls, norms = [], []
        real, real_norm = numdiff.membership, numdiff.holder_norm

        def counting(v, data, spec):
            calls.append((v, data.delta))
            return real(v, data, spec)

        def counting_norm(v, a):
            norms.append(v)
            return real_norm(v, a)

        monkeypatch.setattr(numdiff, "membership", counting)
        monkeypatch.setattr(numdiff, "holder_norm", counting_norm)
        deltas = [1e-3, 1e-4, 1e-5]
        certify(g, spec, deltas)
        assert [delta for _, delta in calls] == deltas
        assert all(v is calls[0][0] for v, _ in calls)
        assert len(norms) == len(deltas) + 1

    @pytest.mark.parametrize("argv", [
        ["--n", "4097", "--a", "2", "--m", "1", "--deltas", "1e-2:1e-5:log4",
         "--truth", "quadratic"],
        ["--n", "1025", "--a", "1.5", "--m", "1", "--deltas", "1e-2:1e-5:log4",
         "--samples", "4", "--truth", "quadratic", "--seed", "1"],
    ], ids=["readme", "diff-sweep-a15"])
    def test_cli_lower_bound_is_truth_distance(self, argv, tmp_path):
        # certify-diff's empirical_lower is the witness's error, bit for bit,
        # and no less than the regularizer's sup distance to the truth under
        # any of the noise models.
        out = tmp_path / "certs.csv"
        assert cli.run(["certify-diff", *argv, "--out", str(out)]) == 0
        cfg = cli.resolve_config(["certify-diff", *argv])
        p, seed = cfg.params, cfg.seed
        spec = HolderSpec(p["a"], p["m"])
        grid = Grid(p["n"])
        truth = cli.make_truth(p["truth"], grid, spec, seed)
        f = integrate_volterra(truth)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == len(p["deltas"])
        for delta, row in zip(p["deltas"], rows):
            on_truth = max(
                sup_distance(differentiate(add_noise(f, delta, model, seed), spec), truth)
                for model in p["models"]
            )
            assert float(row[7]) == numdiff._worst_case(numdiff._slope(grid, spec), spec, delta)
            assert float(row[7]) >= on_truth


# Every certify-diff cell of the benchmark's diff-sweep workload and of the
# tests: (n, a, deltas, boundary).
_LOG4 = [float(d) for d in np.geomspace(1e-2, 1e-5, 4)]
_CERTIFY_DIFF_CELLS = [
    (1025, 1.5, _LOG4, "sound"),
    (4097, 2.0, _LOG4, "sound"),
    (4097, 2.0, _LOG4, "paper"),
    (4097, 2.0, [1e-3, 1e-4], "paper"),
    (513, 2.0, [1e-2, 1e-3, 1e-4], "sound"),
    (257, 1.5, [1e-2, 1e-3], "sound"),
    (65, 1.5, [1e-3], "sound"),
    (1025, 1.5, [1e-10], "sound"),
    (4097, 2.0, [1e-10], "sound"),
    (257, 1.2, [1e-10], "sound"),
]


def _rebuilt_witness(grid, spec, delta, boundary):
    """v* and the data f* = integral of v* + e*, built from their formulas."""
    x = grid.nodes
    ramp = SampledFunction(grid, x - 0.5)
    v = SampledFunction(grid, (1.0 - 1e-8) * spec.m_a / holder_norm(ramp, spec.a) * (x - 0.5))
    f = integrate_volterra(v).values
    s = 1.0 - 4.0 * np.finfo(float).eps * (np.max(np.abs(f)) + delta) / delta
    k = 2 if boundary == "sound" else 1
    m = round(error_budget(delta, spec, grid).h / grid.dx)
    e = np.zeros(grid.n)
    e[0], e[k * m] = -s * delta, s * delta
    return v, f, e


class TestWorstCase:
    @pytest.mark.parametrize("n, a, deltas, boundary", _CERTIFY_DIFF_CELLS)
    def test_witness_passes_its_strict_check(self, n, a, deltas, boundary):
        grid, spec = Grid(n), HolderSpec(a, 1.0)
        for delta in deltas:
            got = numdiff._worst_case(numdiff._slope(grid, spec), spec, delta, boundary)
            budget = error_budget(delta, spec, grid)
            # Node 0 reads at least the noise term (twice it on the paper
            # stencil), up to the rounding guard, plus a bias of one sign.
            assert got > budget.noise_term * 0.99
            if boundary == "sound":
                assert got <= budget.total

    @pytest.mark.parametrize("n, a, delta, boundary", [
        (1025, 1.5, 1e-3, "sound"), (4097, 2.0, 1e-2, "paper"), (257, 1.2, 1e-4, "sound"),
        (65, 1.5, 1e-3, "paper"),
    ])
    def test_check_refuses_1e_12_over_either_bound(self, n, a, delta, boundary):
        grid, spec = Grid(n), HolderSpec(a, 1.0)
        v, f, e = _rebuilt_witness(grid, spec, delta, boundary)
        data = NoisyData(SampledFunction(grid, f + e), delta)
        got = numdiff._worst_case(numdiff._slope(grid, spec), spec, delta, boundary)
        assert got == sup_distance(differentiate(data, spec, boundary), v)

        # v* scaled to 1 + 1e-12 over the norm bound: the tolerant gate
        # admits it, the witness check does not.
        over = SampledFunction(grid, v.values * ((1.0 + 1e-12) * spec.m_a / holder_norm(v, a)))
        data = NoisyData(SampledFunction(grid, integrate_volterra(over).values + e), delta)
        got = membership(over, data, spec)
        assert got.ok and got.residual <= delta
        assert spec.m_a < got.norm <= spec.m_a * BOUND_TOL
        with pytest.raises(RegcertError, match="admissibility check"):
            numdiff._witness_error(over, data, spec, boundary)

        # e* at 1 + 1e-12 times delta.
        wide = e * ((1.0 + 1e-12) * delta / np.max(np.abs(e)))
        data = NoisyData(SampledFunction(grid, f + wide), delta)
        got = membership(v, data, spec)
        assert got.ok and got.norm <= spec.m_a
        assert delta < got.residual <= delta * BOUND_TOL
        with pytest.raises(RegcertError, match="admissibility check"):
            numdiff._witness_error(v, data, spec, boundary)

    @pytest.mark.parametrize("boundary", ["sound", "paper"])
    @pytest.mark.parametrize("a", [1.5, 2.0])
    @pytest.mark.parametrize("n", [33, 65])
    def test_lp_oracle_bounds_the_witness(self, n, a, boundary):
        # The class-wide worst case at node 0 as a linear program over
        # (v, e, t1, t2): the error (R (I v + e))_0 - v_0 with |e_i| <= delta,
        # and holder_norm's grid definition, max |v_i| + |d_i| <= t1, every
        # pair |d_j - d_i| <= t2 ((j - i) dx)^(a - 1) and t1 + t2 <= M, with
        # d = grid_derivative(v).  R, I and d are the library's own linear maps.
        linprog = pytest.importorskip("scipy.optimize").linprog
        grid, spec = Grid(n), HolderSpec(a, 1.0)
        eye = np.eye(n)
        d = np.column_stack([grid_derivative(SampledFunction(grid, col)) for col in eye])
        integral = np.column_stack(
            [integrate_volterra(SampledFunction(grid, col)).values for col in eye])
        i, j = np.triu_indices(n, 1)
        pair = d[j] - d[i]
        lag = ((j - i) * grid.dx) ** (a - 1.0)
        zeros, ones = np.zeros((n, n)), np.ones((n, 1))
        rows = [np.hstack([s1 * eye + s2 * d, zeros, -ones, np.zeros((n, 1))])
                for s1 in (1, -1) for s2 in (1, -1)]
        rows += [np.hstack([sign * pair, np.zeros((len(i), n + 1)), -lag[:, None]])
                 for sign in (1, -1)]
        rows.append(np.r_[np.zeros(2 * n), 1.0, 1.0][None, :])
        a_ub = np.vstack(rows)
        b_ub = np.zeros(len(a_ub))
        b_ub[-1] = spec.m_a
        for delta in (1e-2, 3e-3, 1e-3):
            r0 = np.array([differentiate(NoisyData(SampledFunction(grid, col), delta), spec,
                                         boundary).values[0] for col in eye])
            gain = np.r_[r0 @ integral - eye[0], r0, 0.0, 0.0]
            bounds = [(None, None)] * n + [(-delta, delta)] * n + [(0.0, None)] * 2
            res = linprog(-gain, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
            assert res.status == 0, res.message
            witness = numdiff._worst_case(numdiff._slope(grid, spec), spec, delta, boundary)
            assert -res.fun >= witness * (1.0 - 1e-9)
            if boundary == "sound":
                assert -res.fun <= error_budget(delta, spec, grid).total * BOUND_TOL


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
