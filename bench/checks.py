"""Output checks and certificate arithmetic on the CSV each invocation writes.

An invocation fails its checks (and counts against ``failed``) when the CSV
does not have its subcommand's header or does not parse, when the exit code
disagrees with the ``pass`` column, or when a linear certificate breaks the
ordering lower <= discrete upper <= continuous upper.  Known-failing
certificates are not check failures: they are counted by ``cert_verdicts``.
``lower_bound_drops`` compares a linear certificate with a committed
reference CSV of the same invocation.
"""

from __future__ import annotations

import csv
import io

HEADERS = {
    "certify-linear": "delta,a,p,k,J1_cont,J2_cont,J1_disc,J2_disc,rate_bound,empirical_lower,pass",
    "certify-diff": "delta,a,M,h,noise_term,bias_term,total,empirical_lower,pass",
    "witness": "delta,a,M,center,width,amplitude,separation",
    "study": "delta,F_value,m_hat_bound_c1delta,error_to_truth,feasible",
    "varmin": "delta,F_value,m_hat,feasible,iterations,restarts",
}

BOOL_COLUMNS = ("pass", "feasible")

LOWER_SLACK = 1e-9
DISC_SLACK = 1e-12
LOWER_DROP = 1e-9


class CsvError(ValueError):
    """The CSV is not what the subcommand is documented to write."""


def parse_rows(subcommand: str, text: str) -> list[dict]:
    """Rows of one invocation's CSV, numbers as floats and verdicts as bools."""
    lines = text.splitlines()
    if not lines or lines[0] != HEADERS[subcommand]:
        raise CsvError(f"{subcommand}: header {lines[0] if lines else ''!r} "
                       f"is not {HEADERS[subcommand]!r}")
    if len(lines) < 2:
        raise CsvError(f"{subcommand}: no data rows")
    rows = []
    for raw in csv.DictReader(io.StringIO(text)):
        if None in raw or None in raw.values():
            raise CsvError(f"{subcommand}: ragged row {raw}")
        row = {}
        for key, value in raw.items():
            if key in BOOL_COLUMNS:
                if value not in ("true", "false"):
                    raise CsvError(f"{subcommand}: {key}={value!r} is not true/false")
                row[key] = value == "true"
            else:
                try:
                    row[key] = float(value)
                except ValueError:
                    raise CsvError(f"{subcommand}: {key}={value!r} is not a number") from None
        rows.append(row)
    return rows


def cert_verdicts(subcommand: str, rows: list[dict]) -> list[bool]:
    """Pass/fail of every certificate row; witness rows carry no verdict.

    study rows fail when infeasible or when F_value exceeds twice the truth's
    bound (criterion 9); varmin rows fail when infeasible.
    """
    if subcommand in ("certify-linear", "certify-diff"):
        return [r["pass"] for r in rows]
    if subcommand == "study":
        return [r["feasible"] and r["F_value"] <= 2.0 * r["m_hat_bound_c1delta"] for r in rows]
    if subcommand == "varmin":
        return [r["feasible"] for r in rows]
    return []


def rate_bound(delta: float, a: float, m: float) -> float:
    """The differentiation rate bound delta/h + M h**(a-1) at h = ((a-1) M)**(-1/a) delta**(1/a)."""
    h = ((a - 1.0) * m) ** (-1.0 / a) * delta ** (1.0 / a)
    return delta / h + m * h ** (a - 1.0)


def tightness_ratios(subcommand: str, rows: list[dict]) -> list[float]:
    """How close each certificate's lower side comes to its upper side; higher is better.

    certify-linear: empirical_lower / (J1_disc + J2_disc), at most 1.  It falls
                    when the worst-case search is cut short.
    study:          m_hat_bound_c1delta / F_value, at least 0.5 when passing.
                    It falls when the minimization stops early.
    witness:        separation / 2 (a lower bound on every method's worst-case
                    error) over the closed-form rate bound, for a > 1.
    certify-diff rows are left out: their empirical_lower is the error of the
    differentiator itself, so a sounder stencil lowers it, and a broken
    certificate raises it above the budget.
    """
    if subcommand == "certify-linear":
        return [r["empirical_lower"] / (r["J1_disc"] + r["J2_disc"]) for r in rows]
    if subcommand == "study":
        return [r["m_hat_bound_c1delta"] / r["F_value"] for r in rows]
    if subcommand == "witness":
        return [0.5 * r["separation"] / rate_bound(r["delta"], r["a"], r["M"])
                for r in rows if r["a"] > 1.0]
    return []


def lower_bound_drops(rows: list[dict], reference: list[dict]) -> list[str]:
    """certify-linear cells whose empirical_lower is below the reference run's.

    The reference is the same invocation's CSV at an earlier commit; a drop
    of more than LOWER_DROP relative means the worst-case search got weaker.
    """
    if [r["delta"] for r in rows] != [r["delta"] for r in reference]:
        return ["deltas differ from the reference CSV"]
    return [f"delta={r['delta']!r}: empirical_lower {r['empirical_lower']!r} below "
            f"the reference {ref['empirical_lower']!r}"
            for r, ref in zip(rows, reference)
            if r["empirical_lower"] < ref["empirical_lower"] * (1.0 - LOWER_DROP)]


def check_invocation(subcommand: str, exit_code: int, text: str) -> tuple[list[dict], list[str]]:
    """Parsed rows and the list of problems found (empty when the output is correct)."""
    try:
        rows = parse_rows(subcommand, text)
    except CsvError as exc:
        return [], [f"exit {exit_code}: {exc}"]
    problems = []
    if "pass" in HEADERS[subcommand].split(","):
        expected = 0 if all(r["pass"] for r in rows) else 2
    else:
        expected = 0
    if exit_code != expected:
        problems.append(f"exit code {exit_code}, expected {expected}")
    if subcommand == "certify-linear":
        for r in rows:
            disc = r["J1_disc"] + r["J2_disc"]
            cont = r["J1_cont"] + r["J2_cont"]
            if not r["empirical_lower"] <= disc + LOWER_SLACK:
                problems.append(f"delta={r['delta']!r}: empirical_lower above J1_disc + J2_disc")
            if not disc <= cont * (1.0 + DISC_SLACK):
                problems.append(f"delta={r['delta']!r}: J1_disc + J2_disc above J1_cont + J2_cont")
    return rows, problems
