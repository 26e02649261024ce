"""Worst-case certified regularization toolkit.

Constructs stable solutions to ill-posed problems (noisy differentiation,
ill-conditioned linear systems, penalized nonlinear inversion) and certifies
them against the supremum of the error over every admissible solution
consistent with the data, not just one fixed truth.
"""

import os as _os
import sys as _sys

# Load OpenBLAS with one thread.  regcert's parallelism is certify's forked
# workers, and its dense work stops at n ~ 1e3, so a BLAS pool only adds an
# idle worker that spins after every threaded call (~0.1 s of CPU per short
# CLI process on 2 cores).  OpenBLAS reads these variables once, when it
# loads, so the one set here is removed again at once and no subprocess
# inherits it.  A caller who set any of them, or loaded numpy first, keeps
# their own pool.
if "numpy" not in _sys.modules and not any(
    name in _os.environ
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .function_space import (
    Grid,
    HolderSpec,
    NoisyData,
    SampledFunction,
    add_noise,
    holder_norm,
    integrate_volterra,
    sup_distance,
)
from .numdiff import (
    DiffErrorBudget,
    WitnessPair,
    differentiate,
    empirical_sup_error,
    error_budget,
    member_candidates,
    membership,
    step_size,
    witness_pair,
)
from .spectral import ProblemSpec, SvdTriple, make_problem, svd
from .linreg import (
    Certificate,
    ConstantsPack,
    SourceSpec,
    apply,
    bias_sup,
    certify,
    choose_a,
    constants,
    operator_norm,
    sample_source_set,
    source_membership,
    worst_case_search,
)
from .varreg import (
    MinimizeReport,
    NonlinearProblem,
    convergence_study,
    functional,
    make_nonlinear_problem,
    minimize,
)

__all__ = [
    "Grid",
    "SampledFunction",
    "HolderSpec",
    "NoisyData",
    "integrate_volterra",
    "sup_distance",
    "holder_norm",
    "add_noise",
    "DiffErrorBudget",
    "WitnessPair",
    "step_size",
    "differentiate",
    "error_budget",
    "membership",
    "member_candidates",
    "empirical_sup_error",
    "witness_pair",
    "SvdTriple",
    "ProblemSpec",
    "svd",
    "make_problem",
    "SourceSpec",
    "ConstantsPack",
    "Certificate",
    "constants",
    "choose_a",
    "apply",
    "operator_norm",
    "source_membership",
    "sample_source_set",
    "bias_sup",
    "worst_case_search",
    "certify",
    "NonlinearProblem",
    "MinimizeReport",
    "make_nonlinear_problem",
    "functional",
    "minimize",
    "convergence_study",
]
