"""Run one regcert CLI invocation with spans around the calls into each module.

Usage: python bench/traced_cli.py SPANS_JSON SUBCOMMAND [OPTIONS...]

Writes the same CSV to stdout and exits with the same code as
``python -m regcert.cli SUBCOMMAND [OPTIONS...]``; the spans go to SPANS_JSON
when the invocation ends.  Wrapping replaces a function in every regcert
module that binds it, so calls made through ``from .x import f`` names are
traced too.
"""

from __future__ import annotations

import importlib
import inspect
import logging
import sys
from concurrent.futures import ThreadPoolExecutor

from tracing import Recorder


def _holder_attrs(args, kwargs, result):
    from regcert import function_space

    u = args[0] if args else kwargs["u"]
    a = args[1] if len(args) > 1 else kwargs["a"]
    n = u.grid.n
    b = a if a <= 1.0 else a - 1.0
    if 0.0 < b < 1.0:
        # Computed, not measured: the node pairs the fractional-exponent scan
        # ranges over, after subsampling to the scan cap.
        m = min(n, getattr(function_space, "PAIR_SCAN_CAP", n))
        pairs = m * (m - 1) // 2
    elif b == 1.0:
        pairs = n - 1
    else:
        pairs = 0
    return {"nodes": n, "pairs": pairs}


def _membership_attrs(args, kwargs, result):
    return {"ok": int(bool(result.ok))}


def _minimize_attrs(args, kwargs, result):
    return {"iterations": int(result.iterations)}


def _certify_attrs(args, kwargs, result):
    from regcert import linreg

    bound = inspect.signature(linreg.certify).bind(*args, **kwargs)
    bound.apply_defaults()
    return {"threads": max(1, int(bound.arguments["threads"]))}


# (module, function, attribute maker) for every span.  The attribute makers
# read argument sizes and results only.
SPANS = [
    ("cli", "run", None),
    ("spectral", "make_problem", None),
    ("spectral", "svd", None),
    ("linreg", "certify", _certify_attrs),
    ("linreg", "worst_case_search", None),
    ("linreg", "sample_source_set", None),
    ("function_space", "holder_norm", _holder_attrs),
    ("function_space", "integrate_volterra", None),
    ("function_space", "add_noise", None),
    ("numdiff", "membership", _membership_attrs),
    ("numdiff", "member_candidates", None),
    ("numdiff", "empirical_sup_error", None),
    ("numdiff", "differentiate", None),
    ("numdiff", "witness_pair", None),
    ("varreg", "minimize", _minimize_attrs),
]

# Called ~1e5 times per pass: counts and summed time only.
COUNTERS = [
    ("varreg", "functional"),
]


def _regcert_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "regcert" or name.startswith("regcert."))]


def rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Point every regcert module name bound to ``original`` at ``replacement``.

    Returns (module, name, original) for each rebinding so it can be undone.
    """
    done = []
    for module in _regcert_modules():
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
                done.append((module, name, original))
    return done


def install(recorder: Recorder) -> list[tuple[object, str, object]]:
    """Wrap every traced function; returns the bindings ``uninstall`` restores."""
    for owner in ("cli", "spectral", "linreg", "function_space", "numdiff", "varreg"):
        importlib.import_module(f"regcert.{owner}")
    done = []
    for owner, name, attrs in SPANS:
        original = getattr(sys.modules[f"regcert.{owner}"], name)
        done += rebind(original, recorder.span(f"{owner}.{name}", original, attrs))
    for owner, name in COUNTERS:
        original = getattr(sys.modules[f"regcert.{owner}"], name)
        done += rebind(original, recorder.count(f"{owner}.{name}", original))
    varreg = sys.modules["regcert.varreg"]
    forward = varreg.NonlinearProblem.forward
    varreg.NonlinearProblem.forward = recorder.count("varreg.forward", forward)
    done.append((varreg.NonlinearProblem, "forward", forward))
    done += rebind(ThreadPoolExecutor, recorder.executor(ThreadPoolExecutor))
    return done


def uninstall(done: list[tuple[object, str, object]]) -> None:
    for owner, name, original in reversed(done):
        setattr(owner, name, original)


def main() -> None:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    install(recorder)
    from regcert import cli

    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    try:
        code = cli.run(argv)
    finally:
        recorder.dump(spans_path)
    sys.exit(code)


if __name__ == "__main__":
    main()
