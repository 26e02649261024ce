"""The BLAS thread policy: regcert loads OpenBLAS with one thread unless the
caller chose a count, and its CSV does not depend on that count.

Each case runs in a fresh interpreter, since OpenBLAS sizes its pool once,
when numpy loads it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# The variables OpenBLAS reads for its thread count.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# Threads of the process after the imports, and its environment against the
# one it started with.
PROBE = """
import json, os
before = dict(os.environ)
{imports}
print(json.dumps({{
    "tasks": len(os.listdir("/proc/self/task")),
    "environ_kept": dict(os.environ) == before,
    "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
}}))
"""


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"] or ""
    except Exception:  # numpy without the dict form of show_config
        return ""


openblas_on_linux = pytest.mark.skipif(
    not sys.platform.startswith("linux") or "openblas" not in _blas_name().lower(),
    reason="counts OpenBLAS's threads in /proc/self/task",
)


def _env(**preset: str) -> dict:
    """This environment without any BLAS thread variable, plus ``preset``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update(preset)
    return env


def _probe(imports: str, **preset: str) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", PROBE.format(imports=imports)],
        env=_env(**preset), capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


@openblas_on_linux
class TestThreadPolicy:
    def test_one_thread_by_default_and_environ_restored(self):
        got = _probe("import regcert")
        assert got == {"tasks": 1, "environ_kept": True, "OPENBLAS_NUM_THREADS": None}

    def test_callers_variable_is_the_override(self):
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("a pool of 2 threads needs 2 usable CPUs")
        got = _probe("import regcert", OPENBLAS_NUM_THREADS="2")
        assert got == {"tasks": 2, "environ_kept": True, "OPENBLAS_NUM_THREADS": "2"}

    def test_numpy_loaded_first_keeps_its_pool(self):
        default = _probe("import numpy")["tasks"]
        got = _probe("import numpy\nimport regcert")
        assert got == {"tasks": default, "environ_kept": True, "OPENBLAS_NUM_THREADS": None}


def test_csv_does_not_depend_on_blas_thread_count():
    argv = [
        sys.executable, "-m", "regcert.cli", "certify-linear",
        "--problem", "rotated-diagonal", "--n", "512", "--p", "0.5", "--k", "1",
        "--deltas", "1e-3,1e-1", "--trials", "2", "--threads", "2",
    ]
    runs = [
        subprocess.run(argv, env=_env(OPENBLAS_NUM_THREADS=count), capture_output=True)
        for count in ("1", "2")
    ]
    assert runs[0].stdout.startswith(b"delta,")
    assert runs[0].returncode == runs[1].returncode
    assert runs[0].stdout == runs[1].stdout
