"""The README's code runs as written against the current signatures."""

import re
import shlex
from dataclasses import fields
from pathlib import Path

import numpy as np

from regcert import linreg, numdiff
from regcert.cli import run
from regcert.function_space import Grid

README = Path(__file__).resolve().parents[1] / "README.md"

# The first line of each subcommand's CSV.  A certificate's columns are its
# fields in order, then the verdict, pass.
HEADERS = {
    "certify-linear": ",".join([f.name for f in fields(linreg.Certificate)] + ["pass"]),
    "certify-diff": ",".join([f.name for f in fields(numdiff.Certificate)] + ["pass"]),
    "witness": "delta,a,M,center,width,amplitude,separation",
    "differentiate": "x,value",
    "varmin": "delta,F_value,m_hat,feasible,iterations,restarts",
    "study": "delta,F_value,m_hat_bound_c1delta,error_to_truth,feasible",
}


def _block(heading: str, lang: str) -> str:
    text = README.read_text()
    section = text[text.index(heading):]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_sketch_runs(capsys):
    block = _block("## Library sketch", "python")
    exec(compile(block, "README.md (Library sketch)", "exec"), {})
    # Three prints: the witness floor and one pair per certificate kind.
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_command_line_block_runs(tmp_path, monkeypatch):
    # Each regcert line runs as written from a scratch directory, which
    # receives its --out file; the --input file is written there first, on
    # the uniform grid.
    lines = _block("## Command line", "sh").replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("regcert ")]
    assert [argv[0] for argv in commands] == list(HEADERS)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        if "--input" in argv:
            x = Grid(257).nodes
            noisy = x**3 / 3.0 + 9e-4 * np.sin(37.0 * x)
            rows = [f"{xi!r},{fi!r}" for xi, fi in zip(x.tolist(), noisy.tolist())]
            Path(argv[argv.index("--input") + 1]).write_text("\n".join(["x,value", *rows]) + "\n")
        assert run(argv) == 0, argv
        out = Path(argv[argv.index("--out") + 1])
        assert out.read_text().splitlines()[0] == HEADERS[argv[0]], argv
