import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from regcert import (
    Grid,
    HolderSpec,
    ProblemSpec,
    SampledFunction,
    SourceSpec,
    add_noise,
    certify,
    convergence_study,
    differentiate,
    error_budget,
    holder_norm,
    integrate_volterra,
    linreg,
    make_nonlinear_problem,
    minimize,
    numdiff,
    sup_distance,
    varreg,
    witness_pair,
)
from regcert import cli
from regcert.cli import _seeded_truth_in_ball, make_truth, parse_deltas, resolve_config, run
from regcert.errors import BOUND_TOL, UsageError
from regcert.function_space import read_function_csv
from regcert.seeding import rng_from
from regcert.varreg import noise_at_radius


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _rows(path):
    """Header fields and data rows of a CLI CSV file."""
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _assert_cells(row, values):
    """Each cell holds exactly its value: bools as true/false, numbers
    parse back to the same float."""
    assert len(row) == len(values)
    for cell, value in zip(row, values):
        if isinstance(value, bool):
            assert cell == str(value).lower()
        else:
            assert float(cell) == value


class TestParsing:
    def test_comma_list(self):
        assert parse_deltas("1e-2,1e-3,1e-4") == [1e-2, 1e-3, 1e-4]

    def test_log_sweep(self):
        got = parse_deltas("1e-5:1e-2:log4")
        np.testing.assert_allclose(got, [1e-5, 1e-4, 1e-3, 1e-2], rtol=1e-12)

    def test_log_sweep_ends_are_exact(self):
        assert parse_deltas("1e-5:1e-1:log9")[::8] == [1e-5, 1e-1]
        assert parse_deltas("1e-2:1e-5:log4")[::3] == [1e-2, 1e-5]
        assert parse_deltas("2e-7:0.5:log1") == [2e-7]

    def test_json_list(self):
        assert parse_deltas([0.01, 0.001]) == [0.01, 0.001]

    def test_bad_sweeps(self):
        for bad in ("", "1e-2:1e-3", "0:1:log3", "1e-3:1e-2:lin5"):
            with pytest.raises(UsageError):
                parse_deltas(bad)

    def test_missing_required_key_named(self):
        with pytest.raises(UsageError, match="missing required key: p"):
            resolve_config(["certify-linear", "--problem", "volterra", "--n", "8",
                            "--k", "1", "--deltas", "1e-2", "--trials", "1"])

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 1

    def test_config_file_and_override(self, tmp_path):
        cfg = {"problem": "diagonal", "n": 8, "p": 0.5, "k": 1.0,
               "deltas": [0.01], "trials": 2}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        resolved = resolve_config(["certify-linear", "--config", str(path)])
        assert resolved.params["p"] == 0.5
        resolved2 = resolve_config(["certify-linear", "--config", str(path), "--p", "0.25"])
        assert resolved2.params["p"] == 0.25

    # Config-file numbers of the wrong kind: int() would truncate 8.9 to 8
    # and turn true into 1, float() true into 1.0.
    @pytest.mark.parametrize("key,value,phrase", [
        ("n", 8.9, "expected an integer, got 8.9"),
        ("n", True, "expected an integer, got True"),
        ("trials", True, "expected an integer, got True"),
        ("trials", 1.5, "expected an integer, got 1.5"),
        ("seed", True, "expected an integer, got True"),
        ("seed", 2.5, "expected an integer, got 2.5"),
        ("p", True, "expected a number, got True"),
        ("k", False, "expected a number, got False"),
        ("deltas", [True], "expected a number, got True"),
    ])
    def test_config_file_rejects_coerced_numbers(self, tmp_path, caplog, key, value, phrase):
        cfg = {"problem": "diagonal", "n": 8, "p": 0.5, "k": 1.0,
               "deltas": [0.01], "trials": 2, key: value}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv = ["certify-linear", "--config", str(path)]
        with pytest.raises(UsageError, match=f"bad value for {key}: {phrase}"):
            resolve_config(argv)
        assert run(argv) == 1
        assert any(phrase in rec.message for rec in caplog.records)

    def test_config_file_accepts_integral_float(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"problem": "diagonal", "n": 8.0, "p": 0.5, "k": 1,
                                    "deltas": [0.01], "trials": 2, "seed": 3.0}))
        resolved = resolve_config(["certify-linear", "--config", str(path)])
        assert resolved.params["n"] == 8 and type(resolved.params["n"]) is int
        assert resolved.params["k"] == 1.0 and type(resolved.params["k"]) is float
        assert resolved.seed == 3 and type(resolved.seed) is int


class TestExitCodes:
    def test_certify_linear_pass_exit_zero(self, tmp_path):
        out = tmp_path / "c.csv"
        code = run(["certify-linear", "--problem", "diagonal", "--n", "8", "--p", "0.5",
                    "--k", "1", "--deltas", "1e-2,1e-3", "--trials", "2",
                    "--seed", "1", "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[0].startswith("delta,a,p,k,")

    def test_differentiate_low_exponent_exit_one(self, caplog):
        code = run(["differentiate", "--a", "1", "--m", "1", "--delta", "1e-3"])
        assert code == 1
        assert any("witness" in rec.message for rec in caplog.records)

    def test_missing_key_exit_one(self):
        assert run(["certify-linear", "--n", "8"]) == 1

    def test_unknown_model_exit_one(self, tmp_path):
        # certify-diff does not use --models, but an unknown or empty list
        # is still refused.
        for models in ("gaussian", ","):
            code = run(["certify-diff", "--n", "257", "--a", "2", "--m", "1",
                        "--deltas", "1e-3", "--models", models,
                        "--out", str(tmp_path / "x.csv")])
            assert code == 1

    def test_failed_certificate_exit_two(self, tmp_path):
        # Through the paper's step-h one-sided boundary stencil
        # (--boundary paper) the witness's two-node noise costs 2 delta/h
        # against the budget's delta/h, so this configuration must produce a
        # failing certificate row.  The default step-2h stencil stays within
        # the budget here; see test_readme_certify_diff_example.
        out = tmp_path / "d.csv"
        code = run(["certify-diff", "--n", "4097", "--a", "2", "--m", "1",
                    "--deltas", "1e-4", "--models", "alternating",
                    "--truth", "quadratic", "--samples", "4",
                    "--seed", "0", "--boundary", "paper", "--out", str(out)])
        assert code == 2
        assert out.read_text().splitlines()[1].endswith(",false")

    def test_unknown_boundary_exit_one(self, tmp_path):
        for sub, args in (("differentiate", ["--delta", "1e-3"]),
                          ("certify-diff", ["--deltas", "1e-3"])):
            code = run([sub, "--n", "257", "--a", "2", "--m", "1", *args,
                        "--boundary", "central", "--out", str(tmp_path / "x.csv")])
            assert code == 1

    def test_bad_config_file_exit_one(self, tmp_path, caplog):
        base = ["witness", "--n", "257", "--a", "2", "--m", "1", "--deltas", "1e-3"]
        for name, text, phrase in (("broken.json", '{"n": 257,', "not valid JSON"),
                                   ("array.json", "[257]", "must hold a JSON object"),
                                   ("typo.json", '{"trails": 2}', "unknown key")):
            path = tmp_path / name
            path.write_text(text)
            with pytest.raises(UsageError, match=phrase):
                resolve_config([*base, "--config", str(path)])
            caplog.clear()
            assert run([*base, "--config", str(path)]) == 1
            assert any(phrase in rec.message for rec in caplog.records)

    def test_dashed_config_key_named_as_written(self, tmp_path):
        path = tmp_path / "dashed.json"
        path.write_text('{"bad-key": 1}')
        with pytest.raises(UsageError, match=r"unknown key\(s\) in config file .*: bad-key$"):
            resolve_config(["witness", "--n", "257", "--a", "2", "--m", "1",
                            "--deltas", "1e-3", "--config", str(path)])

    def test_differentiate_non_uniform_input_exit_one(self, tmp_path, caplog):
        # The derivative assumes the uniform grid; nodes 0, 0.1, 0.2, 0.9 are
        # not Grid(4), so the file is refused, not differentiated.
        path = tmp_path / "noisy.csv"
        path.write_text("x,value\n0.0,0.0\n0.1,0.01\n0.2,0.04\n0.9,0.81\n")
        out = tmp_path / "d.csv"
        code = run(["differentiate", "--a", "2", "--m", "1", "--delta", "1e-3",
                    "--input", str(path), "--out", str(out)])
        assert code == 1
        assert not out.exists()
        assert any("not the uniform grid" in rec.message for rec in caplog.records)

    def test_differentiate_malformed_input_exit_one(self, tmp_path, caplog):
        path = tmp_path / "noisy.csv"
        path.write_text("x,value\n0.0,0.0\n0.5 0.25\n1.0,1.0\n")
        code = run(["differentiate", "--a", "2", "--m", "1", "--delta", "1e-3",
                    "--input", str(path)])
        assert code == 1
        assert any("line 3" in rec.message for rec in caplog.records)

    def test_differentiate_non_utf8_input_exit_one(self, tmp_path, caplog):
        path = tmp_path / "noisy.csv"
        path.write_bytes(b"x,value\n\xff\xfe,1")
        code = run(["differentiate", "--a", "2", "--m", "1", "--delta", "1e-3",
                    "--input", str(path)])
        assert code == 1
        errors = [rec.message for rec in caplog.records if rec.levelname == "ERROR"]
        assert len(errors) == 1 and str(path) in errors[0]

    def test_readme_certify_diff_example(self, tmp_path):
        # The README's certify-diff example passes every row under the
        # default stencil; the paper stencil fails all four.  The budget
        # columns do not depend on the stencil.
        base = ["certify-diff", "--n", "4097", "--a", "2", "--m", "1",
                "--deltas", "1e-2:1e-5:log4", "--truth", "quadratic"]
        sound, paper = tmp_path / "sound.csv", tmp_path / "paper.csv"
        assert run(base + ["--out", str(sound)]) == 0
        assert run(base + ["--boundary", "paper", "--out", str(paper)]) == 2
        sound_rows = [r.split(",") for r in sound.read_text().splitlines()[1:]]
        paper_rows = [r.split(",") for r in paper.read_text().splitlines()[1:]]
        assert [r[-1] for r in sound_rows] == ["true"] * 4
        assert [r[-1] for r in paper_rows].count("false") == 4
        assert [r[:7] for r in sound_rows] == [r[:7] for r in paper_rows]

    def test_certify_diff_bytes(self, capsys):
        # The README example and diff-sweep's a = 1.5 argv on stdout, pinned
        # byte for byte, empirical_lower included.
        assert run(["certify-diff", "--n", "4097", "--a", "2", "--m", "1",
                    "--deltas", "1e-2:1e-5:log4", "--truth", "quadratic"]) == 0
        assert capsys.readouterr().out == (
            "delta,a,M,h,noise_term,bias_term,total,empirical_lower,pass\n"
            "0.01,2.0,1.0,0.10009765625,0.09990243902439025,0.10009765625,"
            "0.20000009527439025,0.166634209190405,true\n"
            "0.001,2.0,1.0,0.03173828125,0.031507692307692306,0.03173828125,"
            "0.0632459735576923,0.052666546262768066,true\n"
            "0.0001,2.0,1.0,0.010009765625,0.009990243902439026,0.010009765625,"
            "0.020000009527439026,0.016663420919033167,true\n"
            "1e-05,2.0,1.0,0.003173828125,0.003150769230769231,"
            "0.003173828125,0.006324597355769231,0.005266654626253642,true\n"
        )
        assert run(["certify-diff", "--n", "1025", "--a", "1.5", "--m", "1",
                    "--deltas", "1e-2:1e-5:log4", "--samples", "4", "--truth", "quadratic",
                    "--seed", "1"]) == 0
        assert capsys.readouterr().out == (
            "delta,a,M,h,noise_term,bias_term,total,empirical_lower,pass\n"
            "0.01,1.5,1.0,0.0732421875,0.13653333333333334,0.2706329386826371,"
            "0.40716627201597044,0.18536145784505098,true\n"
            "0.001,1.5,1.0,0.015625,0.064,0.125,0.189,0.07441666656249518,true\n"
            "0.0001,1.5,1.0,0.00390625,0.0256,0.0625,0.0881,0.0282041666406061,true\n"
            "1e-05,1.5,1.0,0.0009765625,0.01024,0.03125,"
            "0.04149,0.010891041660080425,true\n"
        )

    @pytest.mark.parametrize("n, a", [(1025, 1.5), (4097, 2.0), (257, 1.2)])
    def test_certify_diff_tiny_delta_uses_the_truth(self, n, a, tmp_path):
        # At delta = 1e-10 the lower bound is still the class-wide witness,
        # bit for bit, and no less than the error on the truth, which stays
        # admissible for its own data under every noise model.
        out = tmp_path / "d.csv"
        assert run(["certify-diff", "--n", str(n), "--a", str(a), "--m", "1",
                    "--deltas", "1e-10", "--truth", "quadratic", "--seed", "1",
                    "--out", str(out)]) == 0
        spec = HolderSpec(a, 1.0)
        truth = make_truth("quadratic", Grid(n), spec, 1)
        f = integrate_volterra(truth)
        on_truth = max(sup_distance(differentiate(add_noise(f, 1e-10, model, 1), spec), truth)
                       for model in ("alternating", "spike", "smooth", "seeded-uniform"))
        _, rows = _rows(out)
        assert float(rows[0][7]) == numdiff._worst_case(numdiff._slope(Grid(n), spec), spec, 1e-10)
        assert float(rows[0][7]) >= on_truth

    def test_certify_linear_bytes(self, capsys):
        # TestThinAdapter's volterra argv, a rotated-diagonal argv with
        # --threads 2, and a diagonal argv with p and k away from their
        # usual values, on stdout byte for byte.
        assert run(["certify-linear", "--problem", "volterra", "--n", "32", "--p", "0.5",
                    "--k", "1", "--deltas", "1e-2,1e-3", "--trials", "4", "--seed", "9"]) == 0
        assert capsys.readouterr().out == (
            "delta,a,p,k,J1_cont,J2_cont,J1_disc,J2_disc,rate_bound,empirical_lower,pass\n"
            "0.01,0.009999999999999998,0.5,1.0,0.05,0.05000000000000001,0.04976471048163167,"
            "0.049764710481631655,0.1,0.09952942096325336,true\n"
            "0.001,0.0009999999999999998,0.5,1.0,0.0158113883008419,0.0158113883008419,"
            "0.015809865444111972,0.015809865444111972,0.03162277660168379,"
            "0.03161973088822079,true\n"
        )
        assert run(["certify-linear", "--problem", "rotated-diagonal", "--n", "256",
                    "--p", "0.5", "--k", "1", "--deltas", "1e-4:1e-1:log4", "--trials", "5",
                    "--threads", "2", "--seed", "3"]) == 0
        assert capsys.readouterr().out == (
            "delta,a,p,k,J1_cont,J2_cont,J1_disc,J2_disc,rate_bound,empirical_lower,pass\n"
            "0.0001,9.999999999999998e-05,0.5,1.0,0.005000000000000001,0.005,"
            "0.005000000000000001,0.004999999999999999,0.01,0.009999999999999,true\n"
            "0.001,0.0009999999999999998,0.5,1.0,0.0158113883008419,0.0158113883008419,"
            "0.015810276679841896,0.015810276679841893,0.03162277660168379,"
            "0.031620553359680635,true\n"
            "0.01,0.009999999999999998,0.5,1.0,0.05,0.05000000000000001,0.05,"
            "0.04999999999999999,0.1,0.09999999999998999,true\n"
            "0.1,0.09999999999999998,0.5,1.0,0.158113883008419,0.15811388300841897,"
            "0.15789473684210528,0.15789473684210525,0.31622776601683794,"
            "0.315789473684179,true\n"
        )
        assert run(["certify-linear", "--problem", "diagonal", "--n", "40", "--q", "1.5",
                    "--p", "0.25", "--k", "2", "--deltas", "1e-4:1e-1:log4", "--trials", "3",
                    "--seed", "5"]) == 0
        assert capsys.readouterr().out == (
            "delta,a,p,k,J1_cont,J2_cont,J1_disc,J2_disc,rate_bound,empirical_lower,pass\n"
            "0.0001,3.898690317617157e-06,0.25,2.0,0.02532273642408658,0.05064547284817318,"
            "0.0202464135156028,0.02510971777159043,0.07596820927225977,"
            "0.04535613128718867,true\n"
            "0.001,8.399473665965825e-05,0.25,2.0,0.05455618179858606,0.10911236359717218,"
            "0.054552962944511875,0.10911197659785024,0.16366854539575826,"
            "0.1587712023065783,true\n"
            "0.01,0.001809611744396605,0.25,2.0,0.11753773062255986,0.23507546124511983,"
            "0.11745220786432198,0.23503783580503781,0.35261319186767964,"
            "0.3416225850336824,true\n"
            "0.1,0.03898690317617155,0.25,2.0,0.25322736424086584,0.5064547284817318,"
            "0.25314406118671345,0.5047966104459581,0.7596820927225976,"
            "0.7336844402597712,true\n"
        )

    @pytest.mark.parametrize("sub,radius", [("varmin", ["--delta", "1e-3"]),
                                            ("study", ["--deltas", "1e-3"])])
    def test_volterra_matrix_exit_one(self, sub, radius, capsys, caplog):
        # The volterra gallery matrix has a zero first row, so it is never an
        # injective B: refused with the reason and the kinds that work.
        assert run([sub, "--matrix", "volterra", "--n", "4", *radius]) == 1
        assert capsys.readouterr().out == ""
        assert any("zero first row" in rec.message
                   and "diagonal | rotated-diagonal" in rec.message for rec in caplog.records)

    def test_readme_varreg_examples(self, tmp_path):
        # The README's varmin and study examples: every row is feasible, and
        # every study row keeps the 2-approximate bound F <= 2 c1 delta.
        varmin, study = tmp_path / "varmin.csv", tmp_path / "study.csv"
        assert run(["varmin", "--nonlinearity", "cubic", "--n", "4", "--delta", "1e-3",
                    "--out", str(varmin)]) == 0
        assert run(["study", "--nonlinearity", "cubic", "--n", "4",
                    "--deltas", "1e-1:1e-5:log5", "--out", str(study)]) == 0
        header, rows = _rows(varmin)
        assert len(rows) == 1 and rows[0][header.index("feasible")] == "true"
        header, rows = _rows(study)
        assert len(rows) == 5
        for row in rows:
            assert row[header.index("feasible")] == "true"
            f_value = float(row[header.index("F_value")])
            assert f_value <= 2.0 * float(row[header.index("m_hat_bound_c1delta")])

    def test_readme_varreg_examples_bytes(self, capsys):
        # The README's varmin and study examples on stdout, pinned byte for
        # byte: the row-wise descent must give every start its one-start bits.
        assert run(["varmin", "--nonlinearity", "cubic", "--n", "4", "--delta", "1e-3"]) == 0
        assert capsys.readouterr().out == (
            "delta,F_value,m_hat,feasible,iterations,restarts\n"
            "0.001,0.0010042064738435893,0.0010042064738435893,true,3632,32\n"
        )
        assert run(["study", "--nonlinearity", "cubic", "--n", "4",
                    "--deltas", "1e-1:1e-5:log5"]) == 0
        assert capsys.readouterr().out == (
            "delta,F_value,m_hat_bound_c1delta,error_to_truth,feasible\n"
            "0.1,0.07885818650289121,0.2,0.2562682302897976,true\n"
            "0.01,0.010424442674395573,0.02,0.022727928131437224,true\n"
            "0.001,0.001000998254208727,0.002,0.0021275164150334923,true\n"
            "0.0001,9.995688058739658e-05,0.0002,0.00022682693992555139,true\n"
            "1e-05,9.999833818369272e-06,2e-05,"
            "2.0824926144628408e-05,true\n"
        )


# Every subcommand with its noise-radius option last; the value is appended.
_RADIUS_ARGV = {
    "differentiate": ["--n", "257", "--a", "2", "--m", "1", "--delta"],
    "certify-diff": ["--n", "257", "--a", "2", "--m", "1", "--samples", "2", "--deltas"],
    "witness": ["--n", "257", "--a", "2", "--m", "1", "--deltas"],
    "certify-linear": ["--problem", "diagonal", "--n", "8", "--p", "0.5", "--k", "1",
                       "--trials", "1", "--deltas"],
    "varmin": ["--n", "3", "--budget", "10", "--delta"],
    "study": ["--n", "3", "--budget", "10", "--deltas"],
}


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("sub", sorted(_RADIUS_ARGV))
def test_non_finite_noise_radius_exit_one(sub, value, capsys, caplog):
    code = run([sub, *_RADIUS_ARGV[sub], value])
    assert code == 1
    assert capsys.readouterr().out == ""
    assert any(f"got {value}" in rec.message or f"got [{value}]" in rec.message
               for rec in caplog.records)


# Class radii and decay exponents must be finite and counts at least 1:
# each argv with the words its logged message must hold, naming the parameter.
_LINEAR = ["certify-linear", "--problem", "diagonal", "--n", "8", "--p", "0.5",
           "--trials", "1", "--deltas", "1e-3"]
_BAD_PARAMETER_ARGV = {
    "varmin-cap-inf": (["varmin", "--n", "3", "--budget", "10", "--delta", "1e-3",
                        "--cap", "inf"], "phi cap must"),
    "study-cap-inf": (["study", "--n", "3", "--budget", "10", "--deltas", "1e-3",
                       "--cap", "inf"], "phi cap must"),
    "certify-linear-k-inf": (_LINEAR + ["--k", "inf"], "k_p must"),
    "certify-linear-q-inf": (_LINEAR + ["--k", "1", "--q", "inf"], "decay exponent must"),
    "varmin-q-inf": (["varmin", "--matrix", "diagonal", "--n", "3", "--budget", "10",
                      "--delta", "1e-3", "--q", "inf"], "decay exponent must"),
    "certify-linear-threads-0": (_LINEAR + ["--k", "1", "--threads", "0"], "threads must"),
    "certify-linear-threads-neg": (_LINEAR + ["--k", "1", "--threads", "-2"], "threads must"),
    "certify-linear-trials-0": (_LINEAR + ["--k", "1", "--trials", "0"], "trials must"),
    "certify-diff-samples-0": (["certify-diff", "--n", "257", "--a", "2", "--m", "1",
                                "--samples", "0", "--deltas", "1e-3"], "samples must"),
    "varmin-budget-0": (["varmin", "--n", "3", "--budget", "0", "--delta", "1e-3"],
                        "budget must"),
    "study-budget-0": (["study", "--n", "3", "--budget", "0", "--deltas", "1e-3"],
                       "budget must"),
    "certify-diff-m-inf": (["certify-diff", "--n", "257", "--a", "2", "--m", "inf",
                            "--samples", "2", "--deltas", "1e-3"], "norm bound must"),
    "differentiate-m-inf": (["differentiate", "--n", "257", "--a", "2", "--m", "inf",
                             "--delta", "1e-3"], "norm bound must"),
    "sweep-count-0": (_LINEAR + ["--k", "1", "--deltas", "1e-3:1e-1:log0"],
                      "sweep count must be an integer >= 1"),
    "sweep-stop-inf": (_LINEAR + ["--k", "1", "--deltas", "1e-3:inf:log2"],
                       "sweep endpoint must be positive and finite, got inf"),
    "sweep-start-nan": (_LINEAR + ["--k", "1", "--deltas", "nan:1e-1:log2"],
                        "sweep endpoint must be positive and finite, got nan"),
}


@pytest.mark.parametrize("case", sorted(_BAD_PARAMETER_ARGV))
def test_bad_parameter_exit_one(case, capsys, caplog):
    argv, name = _BAD_PARAMETER_ARGV[case]
    assert run(argv) == 1
    assert capsys.readouterr().out == ""
    assert any(name in rec.message for rec in caplog.records)


class TestDeterminism:
    def test_certify_linear_threads_byte_identical(self, tmp_path):
        base = ["certify-linear", "--problem", "volterra", "--n", "32", "--p", "0.5",
                "--k", "1", "--deltas", "1e-2,1e-4", "--trials", "6", "--seed", "42"]
        paths = [tmp_path / name for name in ("t1.csv", "t8.csv", "t1b.csv")]
        assert run(base + ["--threads", "1", "--out", str(paths[0])]) == 0
        assert run(base + ["--threads", "8", "--out", str(paths[1])]) == 0
        assert run(base + ["--threads", "1", "--out", str(paths[2])]) == 0
        assert _read(paths[0]) == _read(paths[1]) == _read(paths[2])

    def test_certify_linear_trials_byte_identical(self, tmp_path):
        # --trials is validated and otherwise unused: the lower bound is the
        # closed-form worst case, not a search over trials.
        base = ["certify-linear", "--problem", "rotated-diagonal", "--n", "48", "--p", "0.25",
                "--k", "2", "--deltas", "1e-3,1e-1", "--seed", "7"]
        paths = [tmp_path / name for name in ("n1.csv", "n64.csv")]
        assert run(base + ["--trials", "1", "--out", str(paths[0])]) == 0
        assert run(base + ["--trials", "64", "--out", str(paths[1])]) == 0
        assert _read(paths[0]) == _read(paths[1])

    def test_certify_linear_seed_and_rotation_independent(self, capsys):
        # certify-linear reads sigma alone: rotated-diagonal's seed picks
        # only its singular vectors, so every seed, and diagonal itself,
        # gives the same CSV.
        common = ["--n", "64", "--q", "1.3", "--p", "0.25", "--k", "2",
                  "--deltas", "1e-4:1e-1:log4"]
        outs = []
        for argv in (["--problem", "rotated-diagonal", "--seed", "0"],
                     ["--problem", "rotated-diagonal", "--seed", "3"],
                     ["--problem", "rotated-diagonal", "--seed", "77"],
                     ["--problem", "diagonal"]):
            assert run(["certify-linear", *argv, *common]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0].count("\n") == 5
        assert outs[1] == outs[0] and outs[2] == outs[0] and outs[3] == outs[0]

    def test_witness_repeatable(self, tmp_path):
        base = ["witness", "--n", "1025", "--a", "2", "--m", "1",
                "--deltas", "1e-5:1e-3:log3", "--seed", "3"]
        a, b = tmp_path / "w1.csv", tmp_path / "w2.csv"
        assert run(base + ["--out", str(a)]) == 0
        assert run(base + ["--out", str(b)]) == 0
        assert _read(a) == _read(b)

    def test_study_repeatable(self, tmp_path):
        base = ["study", "--n", "3", "--deltas", "1e-2,1e-3", "--budget", "80", "--seed", "5"]
        a, b = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert run(base + ["--out", str(a)]) == 0
        assert run(base + ["--out", str(b)]) == 0
        assert _read(a) == _read(b)

    def test_varmin_runs(self, tmp_path):
        out = tmp_path / "v.csv"
        assert run(["varmin", "--n", "3", "--delta", "1e-3", "--budget", "80",
                    "--seed", "5", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "delta,F_value,m_hat,feasible,iterations,restarts"
        assert lines[1].split(",")[3] == "true"


# Layout that only the certificate dataclasses may define: the certify-*
# headers and certificate-only field names.  A new column then needs no edit
# to cli.py.
_CERTIFICATE_LAYOUT = (
    "delta,a,p,k,J1_cont,J2_cont,J1_disc,J2_disc,rate_bound,empirical_lower,pass",
    "delta,a,M,h,noise_term,bias_term,total,empirical_lower,pass",
    "empirical_lower", "J1_", "noise_term", "a_used", "budget.",
)


def test_cli_holds_no_certificate_layout():
    source = Path(cli.__file__).read_text()
    assert [text for text in _CERTIFICATE_LAYOUT if text in source] == []


# Each certificate class with the field its verdict reads as the upper bound.
BRACKETS = [(linreg.Certificate, "rate_bound"), (numdiff.Certificate, "total")]


def _bracket(cls, upper_name, upper, lower):
    """A cls certificate with every field 1.0 but its upper and lower bounds."""
    values = {f.name: 1.0 for f in dataclasses.fields(cls)}
    return cls(**{**values, upper_name: upper, "empirical_lower": lower})


@pytest.mark.parametrize("cls, upper_name", BRACKETS, ids=["linear", "diff"])
def test_verdict_is_read_from_the_bracket(cls, upper_name):
    edge = 0.3 * BOUND_TOL
    assert _bracket(cls, upper_name, 0.3, edge).passed is True
    assert _bracket(cls, upper_name, 0.3, float(np.nextafter(edge, 1.0))).passed is False
    # No verdict can be given that contradicts the numbers.
    with pytest.raises(TypeError):
        cls(**{f.name: 1.0 for f in dataclasses.fields(cls)}, passed=True)


@pytest.mark.parametrize("cls, upper_name", BRACKETS, ids=["linear", "diff"])
def test_failing_bracket_exits_two_with_pass_last(cls, upper_name, tmp_path):
    out = tmp_path / "c.csv"
    certs = [_bracket(cls, upper_name, 0.3, 0.2), _bracket(cls, upper_name, 0.3, 0.4)]
    assert cli._write_certificates(certs, str(out)) == 2
    header, rows = _rows(out)
    assert header == [f.name for f in dataclasses.fields(cls)] + ["pass"]
    assert [row[-1] for row in rows] == ["true", "false"]
    assert cli._write_certificates(certs[:1], str(out)) == 0


class TestThinAdapter:
    def test_certify_linear_rows_equal_module_output(self, tmp_path):
        out = tmp_path / "c.csv"
        code = run(["certify-linear", "--problem", "volterra", "--n", "32", "--p", "0.5",
                    "--k", "1", "--deltas", "1e-2,1e-3", "--trials", "4",
                    "--seed", "9", "--out", str(out)])
        assert code == 0
        certs = certify(ProblemSpec("volterra", 32, q=1.0, seed=9), SourceSpec(0.5, 1.0),
                        [1e-2, 1e-3])
        header, rows = _rows(out)
        assert header == ["delta", "a", "p", "k", "J1_cont", "J2_cont", "J1_disc", "J2_disc",
                          "rate_bound", "empirical_lower", "pass"]
        assert len(rows) == len(certs)
        for row, c in zip(rows, certs):
            _assert_cells(row, [c.delta, c.a, 0.5, 1.0, c.J1_cont, c.J2_cont, c.J1_disc,
                                c.J2_disc, c.rate_bound, c.empirical_lower, c.passed])

    def test_witness_rows_equal_module_output(self, tmp_path):
        out = tmp_path / "w.csv"
        assert run(["witness", "--n", "1025", "--a", "2", "--m", "1",
                    "--deltas", "1e-4", "--out", str(out)]) == 0
        row = out.read_text().splitlines()[1].split(",")
        pair = witness_pair(1e-4, HolderSpec(2.0, 1.0), 0.5, Grid(1025))
        assert float(row[4]) == pair.bump_width
        assert float(row[5]) == pair.bump_amplitude
        assert float(row[6]) == pair.separation

    def test_differentiate_output_equals_module(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run(["differentiate", "--n", "257", "--a", "2", "--m", "1",
                    "--delta", "1e-3", "--model", "smooth", "--truth", "quadratic",
                    "--seed", "4", "--out", str(out)]) == 0
        got = read_function_csv(out)
        grid = Grid(257)
        spec = HolderSpec(2.0, 1.0)
        truth = make_truth("quadratic", grid, spec, 4)
        data = add_noise(integrate_volterra(truth), 1e-3, "smooth", 4)
        want = differentiate(data, spec)
        assert np.array_equal(got.values, want.values)

    def test_differentiate_paper_boundary_equals_module(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run(["differentiate", "--n", "257", "--a", "2", "--m", "1",
                    "--delta", "1e-3", "--model", "alternating", "--truth", "quadratic",
                    "--seed", "4", "--boundary", "paper", "--out", str(out)]) == 0
        got = read_function_csv(out)
        grid = Grid(257)
        spec = HolderSpec(2.0, 1.0)
        truth = make_truth("quadratic", grid, spec, 4)
        data = add_noise(integrate_volterra(truth), 1e-3, "alternating", 4)
        want = differentiate(data, spec, boundary="paper")
        assert np.array_equal(got.values, want.values)
        assert not np.array_equal(got.values, differentiate(data, spec).values)

    def test_differentiate_input_equals_synthetic(self, tmp_path, capsys):
        # A synthetic f_delta written as an x,value file: --input on it gives
        # the synthetic run's stdout.  The file is the data {f_delta, delta};
        # --n, --truth, --model and --seed shape only synthetic data, so with
        # --input they are unused, even when they name nothing.
        grid, spec = Grid(257), HolderSpec(2.0, 1.0)
        truth = make_truth("sin2pi", grid, spec, 4)
        data = add_noise(integrate_volterra(truth), 1e-3, "smooth", 4)
        path = tmp_path / "f.csv"
        cli._write_csv("x,value", zip(grid.nodes.tolist(), data.f_delta.values.tolist()),
                       str(path))
        args = ["differentiate", "--a", "2", "--m", "1", "--delta", "1e-3"]
        assert run([*args, "--n", "257", "--truth", "sin2pi", "--model", "smooth",
                    "--seed", "4"]) == 0
        synthetic = capsys.readouterr().out
        for unused in ([], ["--truth", "bogus"], ["--model", "bogus"]):
            assert run([*args, "--input", str(path), *unused]) == 0
            assert capsys.readouterr().out == synthetic

    def test_certify_diff_budget_columns_equal_module(self, tmp_path):
        out = tmp_path / "cd.csv"
        run(["certify-diff", "--n", "513", "--a", "2", "--m", "1",
             "--deltas", "1e-3", "--models", "spike", "--samples", "4",
             "--seed", "2", "--out", str(out)])
        row = out.read_text().splitlines()[1].split(",")
        budget = error_budget(1e-3, HolderSpec(2.0, 1.0), Grid(513))
        assert float(row[3]) == budget.h
        assert float(row[4]) == budget.noise_term
        assert float(row[5]) == budget.bias_term
        assert float(row[6]) == budget.total

    @pytest.mark.parametrize("boundary", ["sound", "paper"])
    def test_certify_diff_rows_equal_module_output(self, tmp_path, boundary):
        # The witness fails both cells on the paper stencil and passes both
        # on the sound one.
        out = tmp_path / "cd.csv"
        code = run(["certify-diff", "--n", "4097", "--a", "2", "--m", "1",
                    "--deltas", "1e-3,1e-4", "--models", "alternating,spike",
                    "--samples", "3", "--truth", "quadratic", "--seed", "2",
                    "--boundary", boundary, "--out", str(out)])
        spec = HolderSpec(2.0, 1.0)
        certs = numdiff.certify(Grid(4097), spec, [1e-3, 1e-4], boundary=boundary)
        assert code == (0 if all(c.passed for c in certs) else 2)
        header, rows = _rows(out)
        assert header == ["delta", "a", "M", "h", "noise_term", "bias_term", "total",
                          "empirical_lower", "pass"]
        assert len(rows) == len(certs)
        for row, c in zip(rows, certs):
            _assert_cells(row, [c.delta, 2.0, 1.0, c.h, c.noise_term, c.bias_term, c.total,
                                c.empirical_lower, c.passed])
        assert [c.passed for c in certs] == [boundary == "sound"] * 2

    def test_varmin_row_equals_module_output(self, tmp_path):
        out = tmp_path / "v.csv"
        assert run(["varmin", "--n", "3", "--delta", "1e-3", "--budget", "60",
                    "--seed", "5", "--out", str(out)]) == 0
        problem = make_nonlinear_problem("diagonal", 3, "cubic", phi_cap=4.0, q=1.0, seed=5)
        u_true = _seeded_truth_in_ball(3, 4.0, 5)
        f_delta = problem.forward(u_true) + noise_at_radius(rng_from(5, 137), 3, 1e-3)
        report = minimize(problem, f_delta, 1e-3, budget=60, seed=5)
        header, rows = _rows(out)
        assert header == ["delta", "F_value", "m_hat", "feasible", "iterations", "restarts"]
        assert len(rows) == 1
        _assert_cells(rows[0], [1e-3, report.F_value, report.F_value, True,
                                report.iterations, varreg.RESTARTS])

    def test_study_rows_equal_module_output(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["study", "--n", "3", "--deltas", "1e-3,1e-2", "--budget", "60",
                    "--seed", "4", "--out", str(out)]) == 0
        problem = make_nonlinear_problem("diagonal", 3, "cubic", phi_cap=4.0, q=1.0, seed=4)
        u_true = _seeded_truth_in_ball(3, 4.0, 4)
        study = convergence_study(problem, u_true, [1e-2, 1e-3], budget=60, seed=4)
        header, rows = _rows(out)
        assert header == ["delta", "F_value", "m_hat_bound_c1delta", "error_to_truth", "feasible"]
        assert len(rows) == len(study)
        for row, r in zip(rows, study):
            _assert_cells(row, [r.delta, r.F_value, r.c1_delta_bound, r.error_to_truth, True])


def test_trig_truth_is_seeded_and_scaled_into_the_ball():
    grid, spec = Grid(257), HolderSpec(1.5, 1.0)
    truths = [make_truth("trig", grid, spec, seed).values for seed in range(4)]
    assert np.array_equal(make_truth("trig", grid, spec, 2).values, truths[2])
    assert len({t.tobytes() for t in truths}) == 4
    for t in truths:
        norm = holder_norm(SampledFunction(grid, t), spec.a)
        assert norm == pytest.approx(0.999 * spec.m_a, rel=1e-12)
    assert run(["certify-diff", "--n", "257", "--a", "1.5", "--m", "1",
                "--deltas", "1e-2,1e-3", "--truth", "trig", "--seed", "1"]) == 0


def test_certify_diff_output_ignores_seed_truth_and_models(capsys):
    # The lower bound is a class-wide witness: no truth, noise draw or seed
    # reaches the CSV.
    base = ["certify-diff", "--n", "257", "--a", "1.5", "--m", "1", "--deltas", "1e-2,1e-3"]
    outs = set()
    for extra in (["--seed", "0"], ["--seed", "3"], ["--seed", "77"],
                  ["--truth", "quadratic"], ["--truth", "sin2pi"], ["--truth", "trig"],
                  ["--models", "spike"], []):
        assert run(base + extra) == 0
        outs.add(capsys.readouterr().out)
    assert len(outs) == 1


@pytest.mark.parametrize("extra, phrase", [
    (["--truth", "nope", "--samples", "0"], "unknown truth 'nope'"),
    (["--samples", "0", "--models", "gaussian"], "samples must"),
    (["--models", "gaussian", "--boundary", "central"], "unknown noise model 'gaussian'"),
])
def test_certify_diff_unused_flags_checked_in_order(extra, phrase, capsys, caplog):
    code = run(["certify-diff", "--n", "257", "--a", "2", "--m", "1", "--deltas", "1e-3",
                *extra])
    assert code == 1
    assert capsys.readouterr().out == ""
    errors = [rec.message for rec in caplog.records if rec.levelname == "ERROR"]
    assert len(errors) == 1 and phrase in errors[0]


def test_stdout_emission(capsys):
    code = run(["witness", "--n", "1025", "--a", "2", "--m", "1", "--deltas", "1e-4"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("delta,a,M,center,width,amplitude,separation")
