"""The benchmark's traced CLI runs each subcommand the workloads use as the
plain CLI does: same stdout, same exit code.

``bench/traced_cli.py`` wraps named regcert functions and reads some of
their arguments by name, so a renamed function or parameter breaks the
traced run while the plain one still works.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# One small argv per subcommand, with the flags the workloads pass.
ARGVS = {
    "certify-linear": ["certify-linear", "--problem", "volterra", "--n", "32", "--p", "0.5",
                       "--k", "1", "--deltas", "1e-3,1e-1", "--trials", "2", "--threads", "2",
                       "--seed", "1"],
    "certify-diff": ["certify-diff", "--n", "257", "--a", "1.5", "--m", "1",
                     "--deltas", "1e-2,1e-3", "--samples", "4", "--truth", "quadratic",
                     "--seed", "1"],
    "witness": ["witness", "--n", "257", "--a", "1.5", "--m", "1", "--deltas", "1e-4,1e-3"],
    "study": ["study", "--matrix", "rotated-diagonal", "--n", "4", "--nonlinearity", "cubic",
              "--deltas", "1e-2:1e-3:log2", "--budget", "20", "--seed", "1"],
    "varmin": ["varmin", "--matrix", "rotated-diagonal", "--n", "4", "--nonlinearity", "cubic",
               "--delta", "1e-3", "--budget", "20", "--seed", "1"],
}


def _run(cmd: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)


@pytest.mark.parametrize("name", sorted(ARGVS))
def test_traced_run_matches_plain_run(name, tmp_path):
    plain = _run([sys.executable, "-m", "regcert.cli", *ARGVS[name]])
    spans = tmp_path / "spans.json"
    traced = _run([sys.executable, str(ROOT / "bench" / "traced_cli.py"), str(spans),
                   *ARGVS[name]])
    assert plain.stdout.count("\n") > 1
    assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout), traced.stderr
    assert spans.exists()
