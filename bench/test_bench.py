"""Tests of the benchmark's own arithmetic: self time, CSV verdicts, names."""

from __future__ import annotations

import json
import re
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# ---------------------------------------------------------------------------
# Self time


def test_self_time_nested():
    spans = [
        Span("a", None, 1, 0.0, 10.0),
        Span("b", 0, 1, 1.0, 4.0),
        Span("c", 1, 1, 2.0, 3.0),
        Span("d", 0, 1, 5.0, 6.0),
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 3.0 - 1.0, 2.0, 1.0, 1.0])


def test_self_time_threaded_children_overlap_once():
    # Two workers under one parent: their union [1, 8] is subtracted once, and
    # a child that outlives the parent is clipped to the parent's interval.
    spans = [
        Span("parent", None, 1, 0.0, 10.0),
        Span("w", 0, 2, 1.0, 6.0),
        Span("w", 0, 3, 2.0, 8.0),
        Span("late", 0, 4, 9.5, 12.0),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 0.5)


def test_covered_disjoint_and_contained():
    assert tracing.covered((0.0, 10.0), [(1.0, 2.0), (3.0, 4.0), (3.5, 3.8)]) == pytest.approx(2.0)
    assert tracing.covered((0.0, 1.0), []) == 0.0
    assert tracing.covered((0.0, 1.0), [(2.0, 3.0)]) == 0.0
    assert tracing.covered((0.0, 10.0), [(1.0, 5.0), (2.0, 3.0), (4.0, 6.0)]) == pytest.approx(5.0)


def test_recorder_parents_executor_tasks_under_submitter():
    rec = tracing.Recorder()
    executor = rec.executor()

    def leaf():
        time.sleep(0.02)
        return threading.get_ident()

    leaf = rec.span("leaf", leaf)

    def fan_out():
        with executor(max_workers=2) as pool:
            return list(pool.map(lambda _: leaf(), range(4)))

    fan_out = rec.span("fan_out", fan_out)
    worker_threads = fan_out()
    spans = rec.spans
    root = next(i for i, s in enumerate(spans) if s.name == "fan_out")
    leaves = [s for s in spans if s.name == "leaf"]
    assert len(leaves) == 4
    assert all(s.parent == root for s in leaves)
    assert {s.thread for s in leaves} == set(worker_threads)
    assert spans[root].thread not in set(worker_threads)
    # Four 20 ms leaves on two workers: the parent is mostly covered.
    selfs = tracing.self_times(spans)
    assert 0.0 <= selfs[root] < 0.5 * spans[root].duration


def test_recorder_counts_and_records_failures(tmp_path):
    rec = tracing.Recorder()
    square = rec.count("square", lambda x: x * x)
    assert [square(i) for i in range(5)] == [0, 1, 4, 9, 16]

    def boom():
        raise ValueError("x")

    boom = rec.span("boom", boom)
    with pytest.raises(ValueError):
        boom()
    rec.dump(tmp_path / "spans.json")
    spans, counters = tracing.load(tmp_path / "spans.json")
    assert counters["square"][0] == 5
    assert [s.name for s in spans] == ["boom"]
    metrics = tracing.layer_metrics(tracing.records(spans), counters)
    assert metrics["varreg.minimize.calls"] == 0.0


def test_layer_metrics_arithmetic():
    recs = [
        tracing.LayerRecord("linreg.certify", 4.0, 0.5, {"threads": 2}),
        tracing.LayerRecord("linreg.worst_case_search", 3.0, 3.0, {}),
        tracing.LayerRecord("linreg.worst_case_search", 3.0, 3.0, {}),
        tracing.LayerRecord("numdiff.membership", 1.0, 0.2, {"ok": 1}),
        tracing.LayerRecord("numdiff.membership", 1.0, 0.2, {"ok": 0}),
        tracing.LayerRecord("function_space.holder_norm", 0.1, 0.1, {"nodes": 5, "pairs": 10}),
        tracing.LayerRecord("varreg.minimize", 2.0, 2.0, {"iterations": 7}),
    ]
    m = tracing.layer_metrics(recs, {"varreg.forward": [11, 0.1]})
    assert m["linreg.fanout_efficiency"] == pytest.approx(6.0 / (2 * 4.0))
    assert m["linreg.worst_case_search.p50_ms"] == pytest.approx(3000.0)
    assert m["numdiff.membership.accept_ratio"] == pytest.approx(0.5)
    assert m["function_space.holder_norm.pair_evals"] == 10.0
    assert m["varreg.minimize.iterations"] == 7.0
    assert m["varreg.forward.calls"] == 11.0
    assert m["varreg.functional.calls"] == 0.0


# ---------------------------------------------------------------------------
# CSV verdicts and ratios

LINEAR_CSV = (
    checks.HEADERS["certify-linear"] + "\n"
    "0.01,0.1,0.5,1.0,0.2,0.3,0.15,0.25,0.5,0.3,true\n"
    "0.001,0.01,0.5,1.0,0.02,0.03,0.015,0.025,0.05,0.06,false\n"
)


def test_linear_verdicts_and_ratios():
    rows = checks.parse_rows("certify-linear", LINEAR_CSV)
    assert rows[0]["pass"] is True and rows[1]["empirical_lower"] == 0.06
    assert checks.cert_verdicts("certify-linear", rows) == [True, False]
    assert checks.tightness_ratios("certify-linear", rows) == pytest.approx([0.3 / 0.4, 0.06 / 0.04])


def test_lower_bound_drops_against_reference():
    rows = checks.parse_rows("certify-linear", LINEAR_CSV)
    same = [dict(r) for r in rows]
    assert checks.lower_bound_drops(rows, same) == []
    higher = [dict(r, empirical_lower=r["empirical_lower"] * 1.01) for r in rows]
    assert checks.lower_bound_drops(higher, rows) == []
    assert checks.lower_bound_drops(rows, higher) == [
        f"delta=0.01: empirical_lower 0.3 below the reference {0.3 * 1.01!r}",
        f"delta=0.001: empirical_lower 0.06 below the reference {0.06 * 1.01!r}",
    ]
    within = [dict(r, empirical_lower=r["empirical_lower"] * (1.0 + 1e-10)) for r in rows]
    assert checks.lower_bound_drops(rows, within) == []
    assert checks.lower_bound_drops(rows[:1], rows) == ["deltas differ from the reference CSV"]


def test_committed_reference_parses():
    for workload in WORKLOADS.values():
        if workload.reference:
            argv, path = workload.reference
            text = (BENCH / path).read_text()
            rows, problems = checks.check_invocation(argv[0], 0, text)
            assert problems == [] and len(rows) == 4


def test_linear_ordering_checks():
    _, problems = checks.check_invocation("certify-linear", 2, LINEAR_CSV)
    assert problems == ["delta=0.001: empirical_lower above J1_disc + J2_disc"]
    bad_disc = checks.HEADERS["certify-linear"] + "\n0.01,0.1,0.5,1.0,0.1,0.1,0.15,0.25,0.5,0.3,true\n"
    _, problems = checks.check_invocation("certify-linear", 0, bad_disc)
    assert problems == ["delta=0.01: J1_disc + J2_disc above J1_cont + J2_cont"]


def test_exit_code_must_match_pass_column():
    diff = (checks.HEADERS["certify-diff"] + "\n"
            "0.01,2.0,1.0,0.1,0.1,0.1,0.2,0.21,false\n"
            "0.001,2.0,1.0,0.03,0.03,0.03,0.06,0.05,true\n")
    rows, problems = checks.check_invocation("certify-diff", 2, diff)
    assert problems == []
    assert checks.cert_verdicts("certify-diff", rows) == [False, True]
    assert checks.tightness_ratios("certify-diff", rows) == []
    _, problems = checks.check_invocation("certify-diff", 0, diff)
    assert problems == ["exit code 0, expected 2"]
    witness = checks.HEADERS["witness"] + "\n1e-06,1.5,1.0,0.5,0.01,0.001,0.002\n"
    rows, problems = checks.check_invocation("witness", 0, witness)
    assert problems == [] and checks.cert_verdicts("witness", rows) == []
    # h* = (0.5)**(-2/3) * 1e-6**(2/3) = 2**(2/3) * 1e-4; rate = 1e-6 / h* + h***0.5.
    h = 2.0 ** (2.0 / 3.0) * 1e-4
    assert checks.tightness_ratios("witness", rows) == pytest.approx([0.001 / (1e-6 / h + h ** 0.5)])
    _, problems = checks.check_invocation("witness", 2, witness)
    assert problems == ["exit code 2, expected 0"]


def test_study_and_varmin_verdicts():
    study = (checks.HEADERS["study"] + "\n"
             "0.1,0.15,0.2,0.3,true\n"
             "0.01,0.05,0.02,0.1,true\n"
             "0.001,0.001,0.002,0.001,false\n")
    rows, problems = checks.check_invocation("study", 0, study)
    assert problems == []
    assert checks.cert_verdicts("study", rows) == [True, False, False]
    assert checks.tightness_ratios("study", rows) == pytest.approx([0.2 / 0.15, 0.4, 2.0])
    varmin = checks.HEADERS["varmin"] + "\n0.001,0.001,0.001,false,10,32\n"
    rows, _ = checks.check_invocation("varmin", 0, varmin)
    assert checks.cert_verdicts("varmin", rows) == [False]


@pytest.mark.parametrize("text", [
    "",
    "delta,a\n0.1,2\n",
    checks.HEADERS["witness"] + "\n",
    checks.HEADERS["witness"] + "\n1e-06,1.5,1.0,0.5,0.01,0.001\n",
    checks.HEADERS["witness"] + "\n1e-06,1.5,1.0,0.5,0.01,0.001,abc\n",
    checks.HEADERS["study"] + "\n0.1,0.15,0.2,0.3,yes\n",
])
def test_malformed_csv_is_a_problem(text):
    subcommand = "study" if "feasible" in text else "witness"
    rows, problems = checks.check_invocation(subcommand, 0, text)
    assert rows == [] and len(problems) == 1


# ---------------------------------------------------------------------------
# Names


def test_names_and_benchmark_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    layer_names = set(tracing.layer_metrics([], {}))
    run_level = {"trace_overhead_s", "op_fail_share", "cert_fail_share", "linear_lower_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names | run_level
    assert any(m["name"] == "setup_s" and m["bound"] == max(e["bound"] for e in spec["end_to_end"])
               for m in spec["end_to_end"])


# ---------------------------------------------------------------------------
# Wrappers


def test_install_rebinds_every_binding():
    pytest.importorskip("regcert")
    import traced_cli
    from regcert import cli, function_space, linreg, numdiff, spectral, varreg

    originals = {
        "holder_norm": function_space.holder_norm,
        "make_problem": spectral.make_problem,
        "svd": spectral.svd,
    }
    done = traced_cli.install(tracing.Recorder())
    try:
        for module in (function_space, numdiff, cli):
            assert module.holder_norm is not originals["holder_norm"]
            assert module.holder_norm.__wrapped__ is originals["holder_norm"]
        for module in (spectral, linreg, varreg):
            assert module.make_problem.__wrapped__ is originals["make_problem"]
        for module in (spectral, varreg):
            assert module.svd.__wrapped__ is originals["svd"]
        assert linreg.ThreadPoolExecutor.__name__ == "TracedExecutor"
    finally:
        traced_cli.uninstall(done)
    assert cli.holder_norm is originals["holder_norm"]
    assert varreg.svd is originals["svd"]
    assert linreg.ThreadPoolExecutor.__name__ == "ThreadPoolExecutor"
