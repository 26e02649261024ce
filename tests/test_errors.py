"""The shared input checks at every public function that takes a vector."""

import re

import numpy as np
import pytest

from regcert import (
    ProblemSpec,
    SourceSpec,
    apply,
    convergence_study,
    functional,
    make_nonlinear_problem,
    make_problem,
    minimize,
    source_membership,
    worst_case_search,
)
from regcert.errors import InvalidParameterError

N = 3
_TRI = make_problem(ProblemSpec("diagonal", N))[1]
_SOURCE = SourceSpec(0.5, 1.0)
_PROBLEM = make_nonlinear_problem("diagonal", N, "cubic", phi_cap=4.0)

# Each function called with x in the place of its length-N vector.
_CALLS = {
    "apply": lambda x: apply(_TRI, x, 1e-2),
    "source_membership": lambda x: source_membership(x, _TRI, _SOURCE),
    "worst_case_search": lambda x: worst_case_search(_TRI, _SOURCE, x, 1e-2, 1e-2),
    "functional": lambda x: functional(_PROBLEM, np.zeros(N), x, 1e-2),
    "minimize": lambda x: minimize(_PROBLEM, x, 1e-2, budget=5),
    "convergence_study": lambda x: convergence_study(_PROBLEM, x, [1e-2], budget=5),
}


@pytest.mark.parametrize("shape", [(N, 1), (N + 1,)])
@pytest.mark.parametrize("name", sorted(_CALLS))
def test_wrong_vector_shape_raises_parameter_error(name, shape):
    message = re.escape(f"has shape {shape}, expected ({N},)")
    with pytest.raises(InvalidParameterError, match=message):
        _CALLS[name](np.full(shape, 0.1))
