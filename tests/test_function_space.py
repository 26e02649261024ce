import dataclasses

import numpy as np
import pytest

from regcert import (
    Grid,
    HolderSpec,
    NoisyData,
    SampledFunction,
    add_noise,
    differentiate,
    holder_norm,
    integrate_volterra,
    sup_distance,
)
from regcert.cli import make_truth, run
from regcert.errors import (
    GridMismatchError,
    InvalidExponentError,
    InvalidGridError,
    InvalidModelError,
    InvalidParameterError,
)
from regcert.function_space import (
    NOISE_MODELS,
    _pair_quotient,
    grid_derivative,
    read_function_csv,
)
from regcert.numdiff import _bump_samples


def test_grid_nodes_exact_endpoints():
    g = Grid(101)
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] == 1.0
    assert np.all(np.diff(g.nodes) > 0)
    assert abs(g.dx * (g.n - 1) - 1.0) <= 1e-15


def test_grid_too_small():
    with pytest.raises(InvalidGridError):
        Grid(2)


def test_sampled_function_validation():
    g = Grid(5)
    with pytest.raises(InvalidGridError):
        SampledFunction(g, np.zeros(4))
    with pytest.raises(InvalidGridError):
        SampledFunction(g, np.array([0.0, 1.0, np.inf, 0.0, 0.0]))
    sf = SampledFunction(g, np.zeros(5))
    with pytest.raises(ValueError):
        sf.values[0] = 1.0  # immutable


class TestIntegrateVolterra:
    def test_constant_exact(self):
        g = Grid(101)
        f = integrate_volterra(SampledFunction(g, np.ones(101)))
        assert f.values[0] == 0.0
        np.testing.assert_allclose(f.values, g.nodes, rtol=0, atol=1e-14)

    def test_affine_exact(self):
        g = Grid(101)
        f = integrate_volterra(SampledFunction(g, 2.0 * g.nodes))
        np.testing.assert_allclose(f.values, g.nodes**2, rtol=0, atol=1e-14)

    def test_cosine_vs_antiderivative(self):
        # Oracle: the analytic antiderivative sin(2 pi x) / (2 pi).
        g = Grid(1025)
        f = integrate_volterra(SampledFunction(g, np.cos(2 * np.pi * g.nodes)))
        exact = np.sin(2 * np.pi * g.nodes) / (2 * np.pi)
        assert np.max(np.abs(f.values - exact)) <= 1e-5

    def test_linearity(self, rng):
        g = Grid(257)
        for _ in range(20):
            u = rng.standard_normal(g.n)
            v = rng.standard_normal(g.n)
            alpha, beta = rng.standard_normal(2)
            lhs = integrate_volterra(SampledFunction(g, alpha * u + beta * v)).values
            rhs = (
                alpha * integrate_volterra(SampledFunction(g, u)).values
                + beta * integrate_volterra(SampledFunction(g, v)).values
            )
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestSupDistance:
    def test_identity(self):
        g = Grid(11)
        f = SampledFunction(g, g.nodes.copy())
        assert sup_distance(f, f) == 0.0

    def test_constant_offset(self):
        g = Grid(11)
        f = SampledFunction(g, np.zeros(11))
        h = SampledFunction(g, np.full(11, -2.5))
        assert sup_distance(f, h) == 2.5

    def test_alternating_perturbation(self):
        g = Grid(64)
        f = SampledFunction(g, g.nodes.copy())
        h = SampledFunction(g, g.nodes + 1e-3 * (-1.0) ** np.arange(64))
        # direct evaluation; equality up to one rounding of x + 1e-3
        assert sup_distance(f, h) == pytest.approx(1e-3, rel=1e-12)

    def test_grid_mismatch(self):
        f = SampledFunction(Grid(11), np.zeros(11))
        h = SampledFunction(Grid(12), np.zeros(12))
        with pytest.raises(GridMismatchError):
            sup_distance(f, h)


def _brute_quotient(x, w, b):
    # Every pair i < j at once, with no lag order and no early stop.  The
    # powers are an array operation, as in the scan: numpy's vectorised pow
    # and its scalar pow may differ in the last bit.
    i, j = np.triu_indices(len(x), 1)
    return float(np.max(np.abs(w[j] - w[i]) / (x[j] - x[i]) ** b))


class TestHolderNorm:
    def test_constant(self):
        g = Grid(51)
        assert holder_norm(SampledFunction(g, np.full(51, 5.0)), 0.5) == 5.0

    def test_affine_a1(self):
        g = Grid(101)
        assert holder_norm(SampledFunction(g, g.nodes.copy()), 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_quadratic_a15(self):
        # sup|u| + sup|u'| like terms force the value 5; dense-grid pair scan
        # is the oracle for the fractional quotient.
        g = Grid(2049)
        val = holder_norm(SampledFunction(g, g.nodes**2), 1.5)
        assert val == pytest.approx(5.0, rel=0.01)

    def test_matches_brute_force_pairs(self, rng):
        # On 1025 nodes the scan walks lags both ways from its seed lag
        # (x**2, sin 7x) and stops early on the bump, while on the ramp the
        # seed lag alone decides.
        for n in (3, 4, 41, 65, 1025):
            g = Grid(n)
            x = g.nodes
            # On n = 2**k + 1 nodes every x_i is an exact multiple of dx, so
            # the lag denominators (k dx)**b equal (x_j - x_i)**b bitwise.
            exact = (n - 1) & (n - 2) == 0
            for a in (0.3, 0.5, 0.7, 1.5):
                shapes = {
                    "random": rng.standard_normal(n),
                    # A ramp in the quotient's argument: the best pair is at
                    # (or next to) the largest lag, where the bound peaks.
                    "ramp": x.copy() if a <= 1.0 else x**2,
                    # A narrow bump: the scan stops at a small lag.
                    "bump": _bump_samples(g, x[n // 2], 4.0 * g.dx),
                }
                # Profiles of the quotient's argument: u itself for a <= 1,
                # and about u' (u is their integral) for a > 1.  On x**2 and
                # sin 7x the bound peaks inside the lag range.
                profiles = {
                    "x2": x**2,
                    "sin7x": np.sin(7.0 * x),
                    "cusp": np.abs(x - 0.3) ** 0.6,
                    "constant": np.full(n, 0.7),
                    "jump": np.where(x < 0.4, 0.0, 1.0),
                    # Its own generator, so the shapes above draw as before.
                    "walk": np.cumsum(np.random.default_rng(n).standard_normal(n)),
                }
                for name, w in profiles.items():
                    sf = SampledFunction(g, w)
                    shapes[name] = w if a <= 1.0 else integrate_volterra(sf).values
                for name, u in shapes.items():
                    sf = SampledFunction(g, u)
                    if a <= 1.0:
                        want = _brute_quotient(x, u, a) + float(np.max(np.abs(u)))
                    else:
                        d = grid_derivative(sf)
                        want = float(np.max(np.abs(u) + np.abs(d))) + _brute_quotient(x, d, a - 1.0)
                    got = holder_norm(sf, a)
                    if exact:
                        assert got == want, (n, a, name)
                    else:
                        assert got == pytest.approx(want, rel=1e-12), (n, a, name)

    def test_exponent_range(self):
        g = Grid(11)
        sf = SampledFunction(g, np.zeros(11))
        for a in (-0.1, 2.1):
            with pytest.raises(InvalidExponentError):
                holder_norm(sf, a)

    def test_monotone_refinement(self, rng):
        # Lower-estimate property: refining the grid can only grow the norm
        # (pair set is nested).  Exact for a <= 1 where no derivative enters.
        for seed in range(5):
            r = np.random.default_rng(seed)
            c = r.standard_normal(3)
            fn = lambda x: c[0] * np.sin(2 * np.pi * x) + c[1] * x**2 + c[2] * np.cos(np.pi * x)
            for a in (0.0, 0.37, 0.5, 1.0):
                coarse = holder_norm(SampledFunction(Grid(257), fn(Grid(257).nodes)), a)
                fine = holder_norm(SampledFunction(Grid(513), fn(Grid(513).nodes)), a)
                assert coarse <= fine + 1e-12

    def test_ramp_needs_only_the_seed_lag(self, monkeypatch):
        # The bound peaks at the last lag, whose quotient equals it up to the
        # margin, so no other lag is scanned.
        from regcert import function_space

        scanned = []
        lag_quotient = function_space._lag_quotient

        def spy(w, lag, den):
            scanned.append(lag)
            return lag_quotient(w, lag, den)

        monkeypatch.setattr(function_space, "_lag_quotient", spy)
        g = Grid(1025)
        for b in (0.01, 0.5, 0.99):
            scanned.clear()
            assert _pair_quotient(g.dx, g.nodes, b) == 1.0
            assert scanned == [g.n - 1]

    def test_every_pair_scanned_on_large_grids(self):
        # Grid(4099) lies above the 4097 nodes an earlier scan subsampled
        # large grids to; that subsample, round(linspace(0, 4098, 4097)),
        # dropped node 1025.  A lone spike there must still be seen.
        g = Grid(4099)
        kept = np.unique(np.round(np.linspace(0, 4098, 4097)).astype(int))
        assert 1025 not in kept
        spike = 0.75
        u = np.zeros(g.n)
        u[1025] = spike
        want = spike / g.dx**0.5
        assert holder_norm(SampledFunction(g, u), 0.5) == want + spike
        assert _pair_quotient(g.dx, u, 0.5) == want


class TestAddNoise:
    def test_zero_delta_bitwise(self):
        g = Grid(33)
        f = SampledFunction(g, np.sin(g.nodes))
        data = add_noise(f, 0.0, "seeded-uniform", seed=3)
        assert np.array_equal(data.f_delta.values, f.values)

    def test_alternating_exact_radius(self):
        g = Grid(57)
        f = SampledFunction(g, g.nodes.copy())
        data = add_noise(f, 1e-3, "alternating", seed=0)
        assert sup_distance(data.f_delta, f) == pytest.approx(1e-3, rel=1e-12)

    def test_determinism(self):
        g = Grid(64)
        f = SampledFunction(g, np.cos(g.nodes))
        for model in NOISE_MODELS:
            a = add_noise(f, 1e-2, model, seed=77)
            b = add_noise(f, 1e-2, model, seed=77)
            assert np.array_equal(a.f_delta.values, b.f_delta.values)

    def test_radius_never_exceeded(self):
        # 5 models x 200 seeds = 1000 seeded trials.
        g = Grid(101)
        f = SampledFunction(g, np.sin(3 * g.nodes))
        delta = 2.5e-3
        for model in NOISE_MODELS:
            for seed in range(200):
                data = add_noise(f, delta, model, seed=seed)
                assert sup_distance(data.f_delta, f) <= delta * (1 + 1e-12)

    def test_equality_attaining_models(self):
        g = Grid(101)
        f = SampledFunction(g, np.zeros(101))
        for model in ("alternating", "spike", "seeded-uniform"):
            data = add_noise(f, 1e-2, model, seed=5)
            assert sup_distance(data.f_delta, f) == pytest.approx(1e-2, rel=1e-15)

    @pytest.mark.parametrize("n, a", [(257, 1.2), (513, 1.5), (1025, 1.5), (4097, 2.0)])
    def test_truth_admissible_for_its_own_data(self, n, a):
        # With no tolerance: the residual |(f + e) - f| as computed stays
        # within delta, down to radii near the rounding of f.
        g = Grid(n)
        spec = HolderSpec(a, 1.0)
        for truth in ("quadratic", "sin2pi", "trig"):
            for seed in range(11):
                u = make_truth(truth, g, spec, seed)
                assert holder_norm(u, a) <= spec.m_a
                f = integrate_volterra(u)
                for delta in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14):
                    for model in NOISE_MODELS:
                        data = add_noise(f, delta, model, seed)
                        assert sup_distance(data.f_delta, f) <= delta

    def test_radius_below_rounding_raises(self):
        f = SampledFunction(Grid(11), np.ones(11))
        for model in NOISE_MODELS:
            with pytest.raises(InvalidParameterError, match="below the rounding"):
                add_noise(f, 1e-16, model)

    def test_unknown_model(self):
        g = Grid(11)
        f = SampledFunction(g, np.zeros(11))
        for delta in (1e-3, 0.0):
            with pytest.raises(InvalidModelError):
                add_noise(f, delta, "gaussian", seed=0)

    def test_noisy_data_is_the_data_alone(self):
        # {f_delta, delta}: the noise model and seed that made it are not data.
        assert [f.name for f in dataclasses.fields(NoisyData)] == ["f_delta", "delta"]


def test_csv_round_trip(tmp_path):
    # The CLI writes x,value rows that read back to the same grid and
    # values, and the x column holds the grid nodes exactly.
    path = tmp_path / "f.csv"
    assert run(["differentiate", "--n", "37", "--a", "2", "--m", "1", "--delta", "1e-2",
                "--model", "smooth", "--truth", "sin2pi", "--seed", "3",
                "--out", str(path)]) == 0
    g = Grid(37)
    spec = HolderSpec(2.0, 1.0)
    data = add_noise(integrate_volterra(make_truth("sin2pi", g, spec, 3)), 1e-2, "smooth", 3)
    want = differentiate(data, spec)
    back = read_function_csv(path)
    assert back.grid == g
    assert np.array_equal(back.values, want.values)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,value"
    assert [float(line.split(",")[0]) for line in lines[1:]] == g.nodes.tolist()


def test_csv_reader_rejects_malformed_and_off_grid_rows(tmp_path):
    path = tmp_path / "f.csv"
    for body in (
        "0.0,1.0\n0.5\n1.0,1.0\n",  # no comma
        "0.0,1.0\n0.5,1.0,2.0\n1.0,1.0\n",  # three fields
        "0.0,1.0\n0.5,one\n1.0,1.0\n",  # not a number
        "0.0,1.0\n0.6,1.0\n1.0,1.0\n",  # off the uniform grid
        "0.0,1.0\nnan,1.0\n1.0,1.0\n",  # NaN node
        "0.0,1.0\n1.0,1.0\n",  # too few nodes for a grid
    ):
        path.write_text("x,value\n" + body)
        with pytest.raises(InvalidGridError):
            read_function_csv(path)
    # Within 1e-12 of the nodes is accepted.
    path.write_text("x,value\n0.0,1.0\n0.5000000000001,2.0\n1.0,3.0\n")
    assert np.array_equal(read_function_csv(path).values, [1.0, 2.0, 3.0])
