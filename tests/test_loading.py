"""What a process loads: `import regcert` loads numpy and no submodule, its
public names load their submodule on first use, and each CLI subcommand
imports only the modules it calls.

Each case runs in a fresh interpreter, since a module once imported stays in
sys.modules.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import regcert

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def _cli_imports(argv: list[str]) -> set[str]:
    """The regcert modules a ``python -m regcert.cli`` run imports."""
    proc = _run(["-X", "importtime", "-m", "regcert.cli", *argv])
    assert proc.returncode == 0, proc.stderr
    # -X importtime writes one "import time: ... | module" line per import.
    return set(re.findall(r"^import time:.*\|\s*(regcert(?:\.\w+)?)\s*$", proc.stderr, re.M))


@pytest.mark.parametrize("argv", [
    ["witness", "--n", "65", "--a", "1.5", "--m", "1", "--deltas", "1e-3"],
    ["certify-diff", "--n", "65", "--a", "1.5", "--m", "1", "--deltas", "1e-3",
     "--samples", "2"],
])
def test_differentiation_runs_load_no_linear_module(argv):
    loaded = _cli_imports(argv)
    assert "regcert.numdiff" in loaded
    assert not loaded & {"regcert.linreg", "regcert.varreg", "regcert.spectral"}


def test_study_loads_no_differentiation_module():
    # varreg takes the filter and the row norms from spectral, so neither
    # nonlinear subcommand loads the linear certificates either.
    for argv in (["study", "--n", "3", "--deltas", "1e-2", "--budget", "5"],
                 ["varmin", "--n", "3", "--delta", "1e-2", "--budget", "5"]):
        loaded = _cli_imports(argv)
        assert "regcert.varreg" in loaded
        assert not loaded & {"regcert.numdiff", "regcert.linreg"}


def test_certify_linear_loads_linreg_and_spectral():
    loaded = _cli_imports(["certify-linear", "--problem", "diagonal", "--n", "4",
                           "--p", "0.5", "--k", "1", "--trials", "1", "--deltas", "1e-2"])
    assert {"regcert.linreg", "regcert.spectral"} <= loaded
    assert not loaded & {"regcert.numdiff", "regcert.varreg"}


def test_package_import_loads_numpy_and_no_submodule():
    proc = _run(["-c", "import json, sys, regcert; print(json.dumps(sorted(sys.modules)))"])
    loaded = json.loads(proc.stdout)
    assert "numpy" in loaded
    assert [m for m in loaded if m.startswith("regcert")] == ["regcert"]


def test_public_names_resolve_to_their_home_module():
    for name in regcert.__all__:
        obj = getattr(regcert, name)
        home = sys.modules[obj.__module__]
        assert home.__name__.startswith("regcert."), name
        assert vars(home)[name] is obj, name
    assert set(regcert.__all__) <= set(dir(regcert))
    with pytest.raises(AttributeError):
        regcert.nope
