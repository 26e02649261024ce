import numpy as np
import pytest

from regcert import (
    apply,
    convergence_study,
    functional,
    make_nonlinear_problem,
    minimize,
)
from regcert.errors import BOUND_TOL, InfeasibleError, InvalidMatrixError, InvalidParameterError
from regcert.seeding import rng_from
from regcert import varreg
from regcert.cli import _seeded_truth_in_ball, run
from regcert.varreg import (
    NonlinearProblem,
    _descend,
    _gradient,
    _norm,
    _objective,
    _project_cap,
    _sigma,
    _sigma_inverse,
    noise_at_radius,
    phi,
)


def _truth(n, cap, seed, fill=0.7):
    rng = rng_from(seed)
    u = rng.standard_normal(n)
    return u * (fill * np.sqrt(cap) / np.linalg.norm(u)) * 0.7


class TestFunctional:
    def test_zero_noise_leaves_penalty(self):
        prob = make_nonlinear_problem("diagonal", 3, "cubic", phi_cap=4.0)
        u = np.array([0.5, -0.2, 0.1])
        f = prob.forward(u)
        assert functional(prob, u, f, 0.01) == pytest.approx(0.01 * phi(u), abs=1e-15)

    def test_zero_vector_gives_data_norm(self):
        prob = make_nonlinear_problem("diagonal", 3, "cubic", phi_cap=4.0)
        f = np.array([0.3, 0.4, 0.0])
        assert functional(prob, np.zeros(3), f, 0.2) == pytest.approx(0.5, rel=1e-14)

    def test_cubic_hand_arithmetic(self):
        # B = diag(1, 1/2), sigma(t) = t + t^3/3, v = (0.5, -1), f = (0.1, 0.2):
        # A(v) = (0.5416666..., -0.6666666...), residual norm and penalty by hand.
        prob = make_nonlinear_problem("diagonal", 2, "cubic", phi_cap=4.0, q=1.0)
        v = np.array([0.5, -1.0])
        f = np.array([0.1, 0.2])
        av = np.array([0.5 + 0.5**3 / 3.0, 0.5 * (-1.0 - 1.0 / 3.0)])
        want = float(np.linalg.norm(av - f)) + 0.05 * (0.25 + 1.0)
        assert functional(prob, v, f, 0.05) == pytest.approx(want, rel=1e-14)


class TestSigma:
    def test_cubic_inverse_round_trip(self, rng):
        x = rng.standard_normal(50) * 2.0
        t = _sigma_inverse(_sigma(x, "cubic"), "cubic")
        np.testing.assert_allclose(t, x, atol=1e-10)
        # Magnitudes 1e-12 to 1e8 of both signs, where the cubic term goes
        # from negligible to dominant; the signed zeros come back unchanged.
        mags = np.logspace(-12, 8, 201)
        x = np.concatenate([mags, -mags])
        t = _sigma_inverse(_sigma(x, "cubic"), "cubic")
        assert np.max(np.abs(t - x) / np.abs(x)) <= 1e-14
        zeros = _sigma_inverse(np.array([0.0, -0.0]), "cubic")
        assert np.array_equal(zeros, [0.0, 0.0])
        assert list(np.signbit(zeros)) == [False, True]

    def test_cubic_is_two_ieee_multiplies(self, rng):
        # x + x*x*x/3 with Python floats: IEEE products, whatever pow kernel
        # numpy would dispatch v**3 to.  Mixed signs, magnitudes 1e-150 to 1e3
        # (the small cubes underflow), and both signed zeros.
        v = 10.0 ** rng.uniform(-150.0, 3.0, 4000) * rng.choice([-1.0, 1.0], 4000)
        v = np.concatenate([v, [0.0, -0.0]])
        got = _sigma(v, "cubic")
        want = np.array([x + x * x * x / 3.0 for x in v.tolist()])
        assert got.tobytes() == want.tobytes()

    def test_injectivity_sanity(self, rng):
        prob = make_nonlinear_problem("rotated-diagonal", 4, "cubic", phi_cap=4.0, seed=2)
        scale = 1.0
        for _ in range(100):
            v = rng.standard_normal(4)
            w = rng.standard_normal(4)
            v *= np.sqrt(prob.phi_cap) / max(np.linalg.norm(v), 1.0)
            w *= np.sqrt(prob.phi_cap) / max(np.linalg.norm(w), 1.0)
            if np.array_equal(v, w):
                continue
            assert np.linalg.norm(prob.forward(v) - prob.forward(w)) > 1e-12 * scale


def _central_difference(fn, v, step):
    """Symmetric difference quotient per coordinate: the reference gradient."""
    g = np.empty_like(v)
    for i in range(v.size):
        e = np.zeros_like(v)
        e[i] = step
        g[i] = (fn(v + e) - fn(v - e)) / (2.0 * step)
    return g


class TestGradient:
    @pytest.mark.parametrize("nonlinearity", ["identity", "cubic"])
    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_matches_central_difference(self, nonlinearity, n):
        prob = make_nonlinear_problem("rotated-diagonal", n, nonlinearity, phi_cap=4.0, seed=n)
        rng = rng_from(40 + n)
        delta = 1e-2
        for _ in range(10):
            v = rng.standard_normal(n)
            f = rng.standard_normal(n)
            step = 1e-6 * max(1.0, float(np.max(np.abs(f))))
            sq = lambda w: float(np.linalg.norm(prob.forward(w) - f)) ** 2
            fn = lambda w: functional(prob, w, f, delta)
            for got, want in (
                (_gradient(prob, v, f), _central_difference(sq, v, step)),
                (_gradient(prob, v, f, delta), _central_difference(fn, v, step)),
            ):
                assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)

    @pytest.mark.parametrize("nonlinearity", ["identity", "cubic"])
    def test_zero_residual_leaves_penalty_gradient(self, nonlinearity):
        prob = make_nonlinear_problem("rotated-diagonal", 3, nonlinearity, phi_cap=4.0, seed=1)
        v = np.array([0.5, -0.2, 0.1])
        f = prob.forward(v)
        assert np.array_equal(_gradient(prob, v, f, 0.01), 2.0 * 0.01 * v)
        assert np.array_equal(_gradient(prob, v, f), np.zeros(3))


class TestShapeGeneric:
    """One definition serves a vector and the rows of a stack, bit for bit.

    The row-wise descent returns the one-start bits only while a stacked
    matmul row equals the 1-D gemv and dot product; a numpy or BLAS change
    that breaks this fails here before it moves any F_value.
    """

    @pytest.mark.parametrize("nonlinearity", ["identity", "cubic"])
    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_row_of_stack_equals_vector(self, nonlinearity, n):
        prob = make_nonlinear_problem("rotated-diagonal", n, nonlinearity, phi_cap=1.0, seed=n)
        rng = rng_from(80 + n)
        stack = rng.standard_normal((12, n)) * np.logspace(-3, 1, 12)[:, None]
        stack[1] = 0.0
        f = prob.forward(stack[0])  # row 0 has zero residual, so the r = 0 branch runs
        delta = 1e-2
        b = prob.b
        rows = {
            "forward": prob.forward(stack),
            "phi": phi(stack),
            "functional": functional(prob, stack, f, delta),
            "grad_sq": _gradient(prob, stack, f),
            "grad_F": _gradient(prob, stack, f, delta),
            "project": _project_cap(stack, prob.phi_cap),
        }
        # A stack of stacks, as the line search evaluates, gives the same rows.
        deep = prob.forward(stack.reshape(3, 4, n)).reshape(12, n)
        assert deep.tobytes() == rows["forward"].tobytes()
        for i, v in enumerate(stack):
            plain_forward = b @ _sigma(v, nonlinearity)
            plain_phi = float(v @ v)
            one = {
                "forward": prob.forward(v),
                "phi": phi(v),
                "functional": functional(prob, v, f, delta),
                "grad_sq": _gradient(prob, v, f),
                "grad_F": _gradient(prob, v, f, delta),
                "project": _project_cap(v, prob.phi_cap),
            }
            for key, value in one.items():
                assert np.asarray(value).tobytes() == np.asarray(rows[key][i]).tobytes(), key
            assert one["forward"].tobytes() == plain_forward.tobytes()
            assert one["phi"] == plain_phi
            assert one["functional"] == (
                float(np.linalg.norm(plain_forward - f)) + delta * plain_phi)
            assert one["project"].tobytes() == _project_cap_reference(v, prob.phi_cap).tobytes()

    def test_squared_residual_is_python_float_power(self):
        # The one-start objective squared a Python float, which is C pow;
        # x * x differs from it in the last bit for about 1 value in 1300.
        prob = make_nonlinear_problem("rotated-diagonal", 3, "cubic", phi_cap=1.0, seed=3)
        rng = rng_from(83)
        f = rng.standard_normal(3)
        stack = rng.standard_normal((20000, 3))
        norms = _norm(prob.forward(stack) - f)
        want = np.array([float(x) ** 2 for x in norms])
        assert np.any(norms * norms != want)
        assert np.array_equal(_objective(prob, stack, f), want)


def _project_cap_reference(v, cap):
    """Radial projection of one vector into the phi ball, as it ran per start."""
    r = float(v @ v)
    if r <= cap:
        return v
    return v * np.sqrt(cap / r)


def _descend_reference(fn, grad, v, cap, iters):
    """One-start projected gradient descent with backtracking; ``grad`` is fn's
    gradient.  The row-wise _descend must give every row these bits."""
    fv = fn(v)
    used = 0
    for _ in range(iters):
        used += 1
        g = grad(v)
        gn = float(np.linalg.norm(g))
        if gn < 1e-14:
            break
        t = 1.0 / max(gn, 1.0)
        improved = False
        while t > 1e-14:
            cand = _project_cap_reference(v - t * g, cap)
            fc = fn(cand)
            if fc < fv - 1e-4 * t * gn * gn:
                v, fv = cand, fc
                improved = True
                break
            t *= 0.5
        if not improved:
            break
    return v, fv, used


def _exit_kind(prob, f, delta, v, used, iters):
    """Why a row left the descent, judged from its final point alone."""
    if used == iters:
        kind = "budget"
    elif np.linalg.norm(_gradient(prob, v, f, delta)) < 1e-14:
        kind = "zero-gradient"
    else:
        kind = "failed-line-search"
    return kind + ("+cap" if abs(phi(v) - prob.phi_cap) <= 1e-12 else "")


class TestDescend:
    ITERS = 12

    def _batch(self, nonlinearity, n, delta):
        """Rows that leave at different times: the exact solution u (zero
        residual gradient), the origin and random starts (which end on the
        cap, since u lies outside it), and a start already descended to
        convergence (its next line search fails)."""
        prob = make_nonlinear_problem("rotated-diagonal", n, nonlinearity, phi_cap=1.0, seed=n)
        rng = rng_from(70 + n)
        u = rng.standard_normal(n)
        u *= 1.3 / np.linalg.norm(u)
        f = prob.forward(u)
        if delta is None:
            fn = lambda w: float(np.linalg.norm(prob.forward(w) - f)) ** 2
        else:
            fn = lambda w: functional(prob, w, f, delta)
        grad = lambda w: _gradient(prob, w, f, delta)
        starts = [u, np.zeros(n)] + [rng.standard_normal(n) * 0.5 for _ in range(4)]
        starts.append(_descend_reference(fn, grad, starts[-1], prob.phi_cap, 400)[0])
        return prob, f, fn, grad, starts

    @pytest.mark.parametrize("delta", [None, 1e-2])
    @pytest.mark.parametrize("nonlinearity", ["identity", "cubic"])
    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_rows_equal_one_start_reference(self, nonlinearity, n, delta):
        prob, f, fn, grad, starts = self._batch(nonlinearity, n, delta)
        v, fv, used = _descend(prob, f, delta, np.stack(starts), self.ITERS)
        for i, start in enumerate(starts):
            ref_v, ref_f, ref_used = _descend_reference(fn, grad, start, prob.phi_cap, self.ITERS)
            assert v[i].tobytes() == ref_v.tobytes()
            assert fv[i] == ref_f
            assert used[i] == ref_used

    def test_batch_covers_every_exit(self):
        prob, f, fn, grad, starts = self._batch("cubic", 6, None)
        v, _, used = _descend(prob, f, None, np.stack(starts), self.ITERS)
        kinds = [_exit_kind(prob, f, None, v[i], used[i], self.ITERS) for i in range(len(v))]
        assert kinds[0] == "zero-gradient"
        assert kinds[-1] == "failed-line-search+cap"
        assert "budget" in kinds and "budget+cap" in kinds

    def test_a_row_alone_equals_the_row_in_a_batch(self):
        prob, f, _, _, starts = self._batch("cubic", 6, 1e-2)
        v, fv, used = _descend(prob, f, 1e-2, np.stack(starts), self.ITERS)
        for i, start in enumerate(starts):
            w, fw, uw = _descend(prob, f, 1e-2, start[None], self.ITERS)
            assert (w[0].tobytes(), fw[0], uw[0]) == (v[i].tobytes(), fv[i], used[i])


class TestMinimize:
    def test_matches_2d_grid_oracle(self):
        prob = make_nonlinear_problem("diagonal", 2, "identity", phi_cap=1.0, q=1.0)
        u = np.array([0.3, -0.4])
        delta = 0.5
        rng = rng_from(99)
        e = rng.standard_normal(2)
        e *= 0.45 / np.linalg.norm(e)
        f = prob.forward(u) + e
        report = minimize(prob, f, delta, budget=300, seed=2)
        v1, v2 = np.meshgrid(np.linspace(-1, 1, 400), np.linspace(-1, 1, 400), indexing="ij")
        resid = np.sqrt((v1 - f[0]) ** 2 + (0.5 * v2 - f[1]) ** 2)
        values = resid + delta * (v1**2 + v2**2)
        feasible = (v1**2 + v2**2 <= 1.0) & (resid <= delta)
        grid_min = float(values[feasible].min())
        assert report.F_value == pytest.approx(grid_min, rel=0.01)
        assert np.linalg.norm(prob.forward(report.v_delta) - f) <= delta * BOUND_TOL

    def test_truth_witness_bound(self):
        # With data generated at radius delta from a feasible truth,
        # F(truth) <= (1 + phi(truth)) * delta, and the solver result obeys
        # the 2-approximate-minimizer acceptance threshold.
        prob = make_nonlinear_problem("diagonal", 4, "cubic", phi_cap=4.0, q=1.0)
        u = _truth(4, prob.phi_cap, seed=5)
        rng = rng_from(31)
        for delta in (1e-1, 1e-2, 1e-3):
            e = rng.standard_normal(4)
            e *= delta * (1 - 1e-12) / np.linalg.norm(e)
            f = prob.forward(u) + e
            c1_delta = (1.0 + phi(u)) * delta
            # noise drawn at the full radius: the truth value sits at c1*delta
            assert functional(prob, u, f, delta) <= c1_delta
            assert functional(prob, u, f, delta) == pytest.approx(c1_delta, rel=1e-9)
            report = minimize(prob, f, delta, budget=200, seed=7)
            assert report.F_value <= 2.0 * c1_delta

    def test_dominates_truth_start(self):
        prob = make_nonlinear_problem("diagonal", 4, "cubic", phi_cap=4.0, q=1.0)
        u = _truth(4, prob.phi_cap, seed=6)
        rng = rng_from(32)
        delta = 1e-3
        e = rng.standard_normal(4)
        e *= delta * (1 - 1e-12) / np.linalg.norm(e)
        f = prob.forward(u) + e
        report = minimize(prob, f, delta, budget=150, seed=7, extra_starts=[u])
        assert report.F_value <= functional(prob, u, f, delta)

    def test_zero_noise_truth_start_stays(self):
        prob = make_nonlinear_problem("diagonal", 3, "identity", phi_cap=1.0, q=1.0)
        u = np.array([0.3, -0.2, 0.1])
        f = prob.forward(u)
        report = minimize(prob, f, 1e-6, budget=150, seed=4, extra_starts=[u])
        assert np.linalg.norm(report.v_delta - u) <= 1e-8

    # Outputs of the one-start-at-a-time descent, pinned: (matrix, n,
    # nonlinearity, delta, data seed), minimize keywords, then F_value's repr,
    # iterations and v_delta.  Only "phase-c-repair" runs phase C: two of its
    # starts leave the admissible set in phase B.  No CLI example, no bench
    # workload and no acceptance criterion reaches phase C.  "default-starts"
    # is pinned with B's singular triple taken from its rotation factors; a
    # dense SVD of the same B moves its F_value in the last two digits.
    PINNED = {
        "two-starts": (
            ("rotated-diagonal", 4, "cubic", 1e-3, 3), dict(budget=60, seed=3, restarts=2),
            "0.0010014827153995588", 240,
            [0.9261214167776374, 0.18687504198154364, 0.25189171708223423, -0.2126882392125949]),
        "default-starts": (
            ("rotated-diagonal", 6, "cubic", 1e-3, 1), dict(budget=50, seed=1),
            "0.0010065745854940871", 1650,
            [0.0649239774235416, 0.6235150065014602, 0.7026408281843088,
             0.05717633943147415, -0.1613787858956109, 0.29455097632244204]),
        "extra-start": (
            ("diagonal", 3, "cubic", 1e-6, 2), dict(budget=150, seed=4, restarts=3),
            "9.999981657591535e-07", 86,
            [-0.1320070092932964, -0.4720603912259941, 0.8716256650656773]),
        "identity": (
            ("rotated-diagonal", 2, "identity", 1e-2, 5), dict(budget=80, seed=5, restarts=8),
            "0.009963235677651248", 393,
            [-0.8268972964527502, 0.5590746183508525]),
        "phase-c-repair": (
            ("diagonal", 4, "cubic", 0.3, 0), dict(budget=40, seed=0, restarts=8),
            "0.6105480190890733", 720,
            [0.3310774278888498, -0.11734325448412244, -0.6469103842354027, -0.8891258412205263]),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_outputs(self, name, monkeypatch):
        (kind, n, nonlinearity, delta, seed), kwargs, f_repr, iterations, v_delta = self.PINNED[name]
        prob = make_nonlinear_problem(kind, n, nonlinearity, phi_cap=4.0, seed=seed)
        u = _seeded_truth_in_ball(n, prob.phi_cap, seed)
        f = prob.forward(u) + noise_at_radius(rng_from(seed, 137), n, delta)
        extra = [u] if name == "extra-start" else None
        objectives = []

        def spy(problem, f_delta, delta_or_none, v, iters):
            objectives.append(delta_or_none)
            return _descend(problem, f_delta, delta_or_none, v, iters)

        monkeypatch.setattr(varreg, "_descend", spy)
        report = minimize(prob, f, delta, extra_starts=extra, **kwargs)
        assert (repr(report.F_value), report.iterations) == (f_repr, iterations)
        assert report.v_delta.tolist() == v_delta
        # Phases A and B, and the C repair where a row drifted out in B.
        assert objectives == [None, delta] + [None] * (name == "phase-c-repair")

    def test_infeasible_raises(self):
        prob = make_nonlinear_problem("diagonal", 2, "identity", phi_cap=1.0, q=1.0)
        with pytest.raises(InfeasibleError):
            minimize(prob, np.array([10.0, 0.0]), 0.1, budget=60, seed=0)

    def test_validation(self):
        prob = make_nonlinear_problem("diagonal", 2, "identity", phi_cap=1.0)
        for delta in (0.0, float("nan"), float("inf")):
            with pytest.raises(InvalidParameterError):
                minimize(prob, np.zeros(2), delta, budget=10, seed=0)
            with pytest.raises(InvalidParameterError):
                functional(prob, np.zeros(2), np.zeros(2), delta)
        with pytest.raises(InvalidParameterError):
            minimize(prob, np.zeros(2), 0.1, budget=0, seed=0)
        # restarts counts the origin, the linearized start and every extra
        # start; fewer would drop starts the caller asked for.
        for restarts, extra in ((0, None), (1, None), (2, [np.zeros(2)]),
                                (3, [np.zeros(2), np.ones(2)])):
            with pytest.raises(InvalidParameterError):
                minimize(prob, np.zeros(2), 0.1, budget=10, seed=0, restarts=restarts,
                         extra_starts=extra)
        report = minimize(prob, np.zeros(2), 0.1, budget=10, seed=0, restarts=3,
                          extra_starts=[np.zeros(2)])
        assert report.restarts == 3
        for cap in (0.0, float("nan"), float("inf")):
            with pytest.raises(InvalidParameterError):
                NonlinearProblem(b=np.eye(2), nonlinearity="identity", phi_cap=cap)
        with pytest.raises(InvalidMatrixError):
            NonlinearProblem(b=np.zeros((2, 2)), nonlinearity="identity", phi_cap=1.0)
        with pytest.raises(InvalidMatrixError):
            NonlinearProblem(b=np.eye(2), nonlinearity="tanh", phi_cap=1.0)


class TestConvergenceStudy:
    def test_cubic_gallery_sweep(self):
        prob = make_nonlinear_problem("diagonal", 4, "cubic", phi_cap=4.0, q=1.0)
        u = _truth(4, prob.phi_cap, seed=5)
        rows = convergence_study(prob, u, [1e-1, 1e-2, 1e-3, 1e-4, 1e-5], budget=200, seed=9)
        errors = [r.error_to_truth for r in rows]
        for r in rows:
            assert r.F_value <= 2.0 * r.c1_delta_bound
        for e_prev, e_next in zip(errors, errors[1:]):
            assert e_next <= 1.2 * e_prev
        assert errors[-1] <= 0.01

    def test_zero_noise_errors_at_solver_tolerance(self):
        # Exact data at every delta with the truth offered as a start: the
        # reconstruction error stays at solver tolerance.
        prob = make_nonlinear_problem("diagonal", 3, "identity", phi_cap=1.0, q=1.0)
        u = np.array([0.3, -0.2, 0.1])
        f = prob.forward(u)
        for delta in (1e-2, 1e-4, 1e-6):
            report = minimize(prob, f, delta, budget=150, seed=4, extra_starts=[u])
            assert np.linalg.norm(report.v_delta - u) <= 1e-6

    def test_identity_matches_linear_filter(self):
        # Penalized stationarity (B^T B + 2 delta ||r|| I) v = B^T f is the
        # spectral filter at a = 2 delta ||r||; reconstruction errors agree.
        prob = make_nonlinear_problem("diagonal", 4, "identity", phi_cap=4.0, q=1.0)
        u = _truth(4, prob.phi_cap, seed=5)
        f = prob.forward(u)
        delta = 0.5
        report = minimize(prob, f, delta, budget=400, seed=3)
        resid = float(np.linalg.norm(prob.forward(report.v_delta) - f))
        assert resid > 0
        z = apply(prob.b_svd, f, 2.0 * delta * resid)
        err_var = float(np.linalg.norm(report.v_delta - u))
        err_lin = float(np.linalg.norm(z - u))
        assert err_var == pytest.approx(err_lin, rel=0.10)

    def test_validation(self):
        prob = make_nonlinear_problem("diagonal", 3, "identity", phi_cap=1.0)
        u = np.array([2.0, 0.0, 0.0])  # phi = 4 > cap
        with pytest.raises(InvalidParameterError):
            convergence_study(prob, u, [1e-2], budget=10, seed=0)
        with pytest.raises(InvalidParameterError):
            convergence_study(prob, np.zeros(3), [1e-3, 1e-2], budget=10, seed=0)

    def test_csv_rows(self, tmp_path):
        prob = make_nonlinear_problem("diagonal", 3, "cubic", phi_cap=4.0, seed=2)
        u = _seeded_truth_in_ball(3, prob.phi_cap, 2)
        rows = convergence_study(prob, u, [1e-2], budget=80, seed=2)
        out = tmp_path / "s.csv"
        assert run(["study", "--n", "3", "--deltas", "1e-2", "--budget", "80",
                    "--seed", "2", "--out", str(out)]) == 0
        text = out.read_text().splitlines()
        assert text[0] == "delta,F_value,m_hat_bound_c1delta,error_to_truth,feasible"
        fields = text[1].split(",")
        assert float(fields[0]) == 1e-2
        assert float(fields[1]) == rows[0].F_value
        assert float(fields[3]) == rows[0].error_to_truth
        assert fields[4] == "true"
