"""The benchmark's committed certify-linear reference, run as a unit test.

A weaker worst-case search lowers some empirical_lower below the committed
CSV; this test fails on it before the benchmark runs.  It reads bench/ and
writes nothing there.
"""

import sys
from pathlib import Path

from regcert.cli import run

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from workloads import LINEAR_REFERENCE  # noqa: E402


def test_linear_reference_lower_bounds_hold(tmp_path):
    argv, csv_name = LINEAR_REFERENCE
    out = tmp_path / "reference.csv"
    assert run(argv + ["--out", str(out)]) == 0
    want = checks.parse_rows(argv[0], (BENCH / csv_name).read_text())
    got = checks.parse_rows(argv[0], out.read_text())
    assert checks.lower_bound_drops(got, want) == []
