"""Worst-case certified regularization toolkit.

Constructs stable solutions to ill-posed problems (noisy differentiation,
ill-conditioned linear systems, penalized nonlinear inversion) and certifies
them against the supremum of the error over every admissible solution
consistent with the data, not just one fixed truth.
"""

import os as _os
import sys as _sys

# Load OpenBLAS with one thread.  regcert's dense work stops at n ~ 1e3, so
# a BLAS pool only adds an idle worker that spins after every threaded call
# (~0.1 s of CPU per short CLI process on 2 cores).  OpenBLAS reads these
# variables once, when it loads, so the one set here is removed again at
# once and no subprocess inherits it.  A caller who set any of them, or loaded numpy first, keeps
# their own pool.  numpy loads here in every case, so the pool is sized when
# regcert is imported.
_one_thread = "numpy" not in _sys.modules and not any(
    name in _os.environ
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
)
if _one_thread:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy as _numpy  # noqa: F401
finally:
    if _one_thread:
        del _os.environ["OPENBLAS_NUM_THREADS"]

# Each public name, and the submodule that defines it.  A name loads its
# submodule on first use, so a process imports only the submodules it calls.
_HOME = {
    **dict.fromkeys(
        ("Grid", "SampledFunction", "HolderSpec", "NoisyData", "integrate_volterra",
         "sup_distance", "holder_norm", "add_noise"),
        "function_space",
    ),
    **dict.fromkeys(
        ("DiffErrorBudget", "WitnessPair", "step_size", "differentiate", "error_budget",
         "membership", "member_candidates", "empirical_sup_error", "witness_pair"),
        "numdiff",
    ),
    **dict.fromkeys(("Spectrum", "SvdTriple", "ProblemSpec", "svd", "spectrum", "factors",
                     "make_problem", "apply"), "spectral"),
    **dict.fromkeys(
        ("SourceSpec", "ConstantsPack", "Certificate", "constants", "choose_a",
         "operator_norm", "source_membership", "sample_source_set", "bias_sup",
         "worst_case_search", "certify"),
        "linreg",
    ),
    **dict.fromkeys(
        ("NonlinearProblem", "MinimizeReport", "make_nonlinear_problem", "functional",
         "minimize", "convergence_study"),
        "varreg",
    ),
}

__all__ = list(_HOME)


def __getattr__(name: str):
    """Load a public name's submodule on first use (PEP 562)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
