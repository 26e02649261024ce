"""Import hygiene: every name a regcert module imports is used in that module."""

import ast
from pathlib import Path

import regcert

# Imported on purpose and never read in their module: the benchmark's tracer
# rebinds linreg's ThreadPoolExecutor and make_problem, and the package
# imports numpy for the BLAS pool size it fixes on load.
_ALLOWED = {("linreg", "ThreadPoolExecutor"), ("linreg", "make_problem"), ("__init__", "_numpy")}


def _unused_imports(tree: ast.Module) -> set[str]:
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - used


def test_every_imported_name_is_used():
    package = Path(regcert.__file__).parent
    unused = {(path.stem, name) for path in sorted(package.glob("*.py"))
              for name in _unused_imports(ast.parse(path.read_text()))}
    assert unused - _ALLOWED == set()
    assert _ALLOWED <= unused
