"""Every benchmark argv, run in-process through the CLI and checked as the
benchmark checks it.

Only the benchmark ran these argvs before (n = 1024, n = 4097, the
var-study draws), so a CLI change that broke one first showed up as a
refused benchmark run.  The fixed-seed LINEAR_REFERENCE argv runs here too;
its lower bounds against the committed CSV are checked in
test_linear_reference.py.  This reads bench/ and writes nothing there.
"""

import sys
from pathlib import Path

import pytest

from regcert.cli import run

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from workloads import LINEAR_REFERENCE, WORKLOADS  # noqa: E402

ARGVS = [LINEAR_REFERENCE[0]]
for _workload in WORKLOADS.values():
    ARGVS += [argv for argv in _workload.build(1, 1) if argv not in ARGVS]


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_argv_passes_the_benchmark_checks(argv, capsys):
    code = run(argv)
    rows, problems = checks.check_invocation(argv[0], code, capsys.readouterr().out)
    assert rows and problems == []
