"""The shared input checks in errors.py, at the call sites that use them."""

import re
from pathlib import Path

import numpy as np
import pytest

import regcert
from regcert import (
    Grid,
    HolderSpec,
    NoisyData,
    ProblemSpec,
    SampledFunction,
    SourceSpec,
    add_noise,
    apply,
    convergence_study,
    functional,
    holder_norm,
    linreg,
    make_nonlinear_problem,
    make_problem,
    minimize,
    numdiff,
    sample_source_set,
    source_membership,
    witness_pair,
    worst_case_search,
)
from regcert.errors import (
    InvalidExponentError,
    InvalidMatrixError,
    InvalidParameterError,
    InvalidSourceError,
    StepTooLargeError,
)

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


@pytest.mark.parametrize("x", [np.full(N, np.nan), np.array([0.1, np.inf, 0.1])],
                         ids=["all-nan", "one-inf"])
@pytest.mark.parametrize("name", sorted(_CALLS))
def test_non_finite_vector_raises_parameter_error(name, x):
    with pytest.raises(InvalidParameterError, match="must have finite entries"):
        _CALLS[name](x)


# functional's v, alone or as a row of a stack, with x in its place.
_STARTS = {
    "functional v": lambda x: functional(_PROBLEM, x, np.zeros(N), 1e-2),
    "functional stacked v": lambda x: functional(
        _PROBLEM, np.stack([np.zeros(len(x)), x]), np.zeros(N), 1e-2),
}


@pytest.mark.parametrize("x, message", [
    (np.full(N, np.nan), "must have finite entries"),
    (np.array([0.1, np.inf, 0.1]), "must have finite entries"),
    (np.full(N + 1, 0.1), "has shape"),
], ids=["all-nan", "one-inf", "wrong-length"])
@pytest.mark.parametrize("name", sorted(_STARTS))
def test_points_are_checked_like_vectors(name, x, message):
    with pytest.raises(InvalidParameterError, match=message):
        _STARTS[name](x)


_GRID = Grid(33)
_ZERO = SampledFunction(_GRID, np.zeros(_GRID.n))
_SPEC = HolderSpec(1.5, 1.0)


def _linear(**kw):
    return linreg.certify(ProblemSpec("diagonal", N), _SOURCE, [1e-2], **kw)


# Each call with a count that is not an integer >= 1, and the class it raises.
_COUNTS = {
    "certify threads=1.5": (lambda: _linear(threads=1.5), InvalidParameterError),
    "worst_case_search restarts=2.5": (
        lambda: worst_case_search(_TRI, _SOURCE, np.full(N, 0.1), 1e-2, 1e-2, restarts=2.5),
        InvalidParameterError),
    "sample_source_set count=1.5": (
        lambda: sample_source_set(_TRI, _SOURCE, 1.5), InvalidParameterError),
    "minimize budget=2.5": (
        lambda: minimize(_PROBLEM, np.full(N, 0.1), 1e-2, budget=2.5), InvalidParameterError),
    "ProblemSpec n=4.5": (lambda: ProblemSpec("volterra", 4.5), InvalidMatrixError),
}


@pytest.mark.parametrize("name", sorted(_COUNTS))
def test_non_integer_count_raises_site_error(name):
    call, error = _COUNTS[name]
    with pytest.raises(error, match="must be an integer >= 1"):
        call()


# Each interval site: a call with x in the checked place, the class it
# raises, and one value outside the interval.
_INTERVALS = {
    "SourceSpec.p": (lambda x: SourceSpec(x, 1.0), InvalidSourceError, 1.0),
    "witness_pair center": (
        lambda x: witness_pair(1e-3, _SPEC, x, _GRID), InvalidParameterError, 0.0),
    "ProblemSpec.n": (lambda x: ProblemSpec("volterra", x), InvalidMatrixError, 1025),
    "HolderSpec.a": (lambda x: HolderSpec(x, 1.0), InvalidExponentError, 2.5),
    "holder_norm a": (lambda x: holder_norm(_ZERO, x), InvalidExponentError, -0.5),
    "NoisyData.delta": (lambda x: NoisyData(_ZERO, x), InvalidParameterError, -1.0),
    "add_noise radius": (lambda x: add_noise(_ZERO, x, "spike"), InvalidParameterError, np.inf),
}


@pytest.mark.parametrize("name", sorted(_INTERVALS))
def test_interval_sites_refuse_nan_and_outside_values(name):
    call, error, outside = _INTERVALS[name]
    with pytest.raises(error, match="got nan"):
        call(float("nan"))
    with pytest.raises(error, match="must lie in"):
        call(outside)


def _recording(module, name, monkeypatch) -> list:
    """Replace module.name by a wrapper that records each call; the list of calls."""
    calls, inner = [], getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_linear_certify_checks_every_delta_before_factorizing(monkeypatch):
    calls = _recording(linreg, "spectrum", monkeypatch)
    with pytest.raises(InvalidParameterError, match="got nan"):
        linreg.certify(ProblemSpec("volterra", 64), SourceSpec(0.5, 1.0), [1e-3, np.nan])
    assert calls == []


def test_diff_certify_checks_every_delta_before_any_membership(monkeypatch):
    # Neither the witness's gate nor the norm that scales it runs before the
    # last delta, its value and its stencil's fit, is checked.
    calls = _recording(numdiff, "membership", monkeypatch)
    norms = _recording(numdiff, "holder_norm", monkeypatch)
    with pytest.raises(InvalidParameterError, match="got nan"):
        numdiff.certify(Grid(257), _SPEC, [1e-2, np.nan])
    with pytest.raises(StepTooLargeError, match="one-sided step"):
        numdiff.certify(Grid(257), _SPEC, [1e-3, 0.5])
    assert calls == [] and norms == []


# Each shared rule's message, which only its check in errors.py may write.
_RULE_PHRASES = ("must lie in", "must be positive and finite", "must be an integer >= 1",
                 "non-empty", "must have finite entries")


def test_each_rule_is_written_only_in_errors_py():
    package = Path(regcert.__file__).parent
    found = [(path.name, phrase) for path in sorted(package.glob("*.py"))
             if path.name != "errors.py" for phrase in _RULE_PHRASES
             if phrase in path.read_text()]
    assert found == []
