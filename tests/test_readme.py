"""The README's code runs as written against the current signatures."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library sketch"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md (Library sketch)", "exec"), {})
    # Three prints: the witness floor and one pair per certificate kind.
    assert len(capsys.readouterr().out.splitlines()) == 3
