"""The benchmark's workloads: each turns a workload seed into CLI argv lists.

A workload is a fixed list of ``regcert`` subcommand invocations.  The seed
is the only input that varies between runs; every invocation receives it (or
a sub-seed derived from it) through ``--seed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# Study invocations per var-study pass.  One study draws one truth and, for
# the rotated gallery matrix, one B; the cost of a study depends strongly on
# that draw, so a pass averages several draws to keep its wall time steady
# from seed to seed.
VAR_STUDY_DRAWS = 8

# A small linear certificate at a fixed seed, run once per linear-* run; each
# of its empirical_lower values must not fall below the committed CSV
# (regenerate it with ``PYTHONPATH=src python3 -m regcert.cli`` and this argv,
# and say why in CHANGES.md).
LINEAR_REFERENCE = (
    ["certify-linear", "--problem", "volterra", "--n", "128", "--p", "0.5", "--k", "1",
     "--deltas", "1e-4:1e-1:log4", "--trials", "2", "--threads", "1", "--seed", "0"],
    "reference/certify-linear-n128-seed0.csv",
)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, int], list[list[str]]]  # (seed, threads) -> argv lists
    thread_check: bool = False
    # (argv, CSV path under bench/) of a fixed-seed invocation whose lower
    # bounds must not drop.
    reference: tuple[list[str], str] | None = None


def _linear_sweep(seed: int, threads: int) -> list[list[str]]:
    return [
        ["certify-linear", "--problem", "volterra", "--n", "256", "--p", p, "--k", "1",
         "--deltas", "1e-5:1e-1:log9", "--trials", "3", "--threads", "1",
         "--seed", str(seed)]
        for p in ("0.25", "0.5", "0.75")
    ]


def _linear_large(seed: int, threads: int) -> list[list[str]]:
    common = ["--n", "1024", "--p", "0.5", "--k", "1", "--deltas", "1e-4:1e-1:log4",
              "--trials", "2", "--threads", str(threads), "--seed", str(seed)]
    return [
        ["certify-linear", "--problem", "volterra", *common],
        ["certify-linear", "--problem", "rotated-diagonal", "--q", "1", *common],
    ]


def _diff_sweep(seed: int, threads: int) -> list[list[str]]:
    return [
        # Fractional exponent: the O(n^2) pair scan in holder_norm dominates.
        ["certify-diff", "--n", "1025", "--a", "1.5", "--m", "1", "--deltas", "1e-2:1e-5:log4",
         "--samples", "4", "--truth", "quadratic", "--seed", str(seed)],
        # The README example; three of its four cells fail on the boundary
        # stencil, which must stay visible in cert_fail_share.
        ["certify-diff", "--n", "4097", "--a", "2", "--m", "1", "--deltas", "1e-2:1e-5:log4",
         "--truth", "quadratic", "--seed", str(seed)],
        ["witness", "--n", "2049", "--a", "1.5", "--m", "1", "--deltas", "1e-6:1e-3:log7"],
    ]


def _var_study(seed: int, threads: int) -> list[list[str]]:
    # n = 6 with the rotated matrix and --budget 50 make the cost of one draw
    # steadier (12-25% coefficient of variation across draws, against 23-61%
    # for n = 4 at the default budget 200) while finite-difference gradients
    # still take most of the time.  Two deltas per draw (10% CV over 24
    # draws) let a pass average eight draws in the time six three-delta
    # draws took.  With this budget, deltas below 1e-3 leave
    # some draws without a feasible start (exit 1, e.g. seed 68 at 1e-4);
    # deltas in [1e-3, 1e-2] found one for each of 400 draws, and keep
    # m_hat_bound_c1delta / F_value near 2.
    argvs = [
        ["study", "--matrix", "rotated-diagonal", "--n", "6", "--nonlinearity", "cubic",
         "--deltas", "1e-2:1e-3:log2", "--budget", "50",
         "--seed", str(VAR_STUDY_DRAWS * seed + j)]
        for j in range(VAR_STUDY_DRAWS)
    ]
    argvs.append(["varmin", "--matrix", "rotated-diagonal", "--n", "6", "--nonlinearity", "cubic",
                  "--delta", "1e-3", "--budget", "50", "--seed", str(seed)])
    return argvs


WORKLOADS = {
    w.name: w
    for w in (
        Workload("linear-sweep", _linear_sweep, reference=LINEAR_REFERENCE),
        Workload("linear-large", _linear_large, thread_check=True, reference=LINEAR_REFERENCE),
        Workload("diff-sweep", _diff_sweep),
        Workload("var-study", _var_study),
    )
}
