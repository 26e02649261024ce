"""Reproducible experiment runner.

Every certification is a subcommand that writes deterministic CSV: identical
configuration and seed give byte-identical files for any worker count.
Exit status 0 means success with all certificates passing, 2 means at least
one certificate failed, 1 means a usage or runtime error.  Logs go to stderr
only.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import linreg, numdiff, spectral, varreg
from .errors import RegcertError, UsageError
from .function_space import (
    Grid,
    HolderSpec,
    NOISE_MODELS,
    NoisyData,
    SampledFunction,
    add_noise,
    function_csv_text,
    holder_norm,
    integrate_volterra,
    read_function_csv,
)
from .seeding import rng_from

log = logging.getLogger("regcert")

SUBCOMMANDS = ("differentiate", "certify-diff", "witness", "certify-linear", "varmin", "study")

TRUTHS = ("quadratic", "sin2pi", "trig")

DIFF_CSV_HEADER = "delta,a,M,h,noise_term,bias_term,total,empirical_lower,pass"


@dataclass
class RunConfig:
    """Resolved parameters for one subcommand invocation."""

    subcommand: str
    params: dict
    seed: int = 0
    out: Optional[str] = None


# ---------------------------------------------------------------------------
# Parameter plumbing


def parse_deltas(value) -> list[float]:
    """Comma list ('1e-2,1e-3'), log sweep shorthand ('1e-5:1e-2:log7'), or a
    JSON array from a config file."""
    if isinstance(value, (list, tuple)):
        out = [float(d) for d in value]
        if not out:
            raise UsageError("empty delta list")
        return out
    text = str(value).strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3 or not parts[2].startswith("log"):
            raise UsageError(f"bad sweep {text!r}; expected start:stop:logN")
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2][3:])
        if start <= 0 or stop <= 0 or count < 1:
            raise UsageError(f"bad sweep {text!r}; endpoints must be positive")
        return [float(d) for d in np.logspace(np.log10(start), np.log10(stop), count)]
    out = [float(tok) for tok in text.split(",") if tok.strip()]
    if not out:
        raise UsageError(f"empty delta list {text!r}")
    return out


def _parse_models(value) -> list[str]:
    if isinstance(value, (list, tuple)):
        models = [str(m) for m in value]
    else:
        models = [tok.strip() for tok in str(value).split(",") if tok.strip()]
    for m in models:
        if m not in NOISE_MODELS:
            raise UsageError(f"unknown noise model {m!r}; choose from {NOISE_MODELS}")
    return models


def _parse_boundary(value) -> str:
    text = str(value)
    if text not in numdiff.BOUNDARY_STENCILS:
        raise UsageError(
            f"unknown boundary stencil {text!r}; choose from {numdiff.BOUNDARY_STENCILS}"
        )
    return text


@dataclass
class Opt:
    name: str
    convert: Callable
    required: bool = False
    default: object = None
    help: str = ""


_COMMON = [
    Opt("seed", int, default=0, help="seed for every random draw"),
    Opt("out", str, help="output CSV path (default stdout)"),
]

_BOUNDARY = Opt("boundary", _parse_boundary, default="sound",
                help="one-sided stencil: sound (step 2h, within budget) | paper (step h)")

OPTIONS: dict[str, list[Opt]] = {
    "differentiate": [
        Opt("n", int, default=1025, help="grid nodes"),
        Opt("a", float, required=True, help="smoothness exponent, must be > 1"),
        Opt("m", float, required=True, help="class norm bound"),
        Opt("delta", float, required=True, help="noise radius"),
        Opt("model", str, default="seeded-uniform", help="noise model for synthetic data"),
        Opt("truth", str, default="quadratic", help=f"synthetic truth, one of {TRUTHS}"),
        Opt("input", str, help="x,value CSV of noisy data (overrides synthesis)"),
        _BOUNDARY,
        *_COMMON,
    ],
    "certify-diff": [
        Opt("n", int, default=1025, help="grid nodes"),
        Opt("a", float, required=True, help="smoothness exponent, must be > 1"),
        Opt("m", float, required=True, help="class norm bound"),
        Opt("deltas", parse_deltas, required=True, help="noise sweep"),
        Opt("models", _parse_models, default="alternating,spike,smooth,seeded-uniform",
            help="comma list of noise models"),
        Opt("truth", str, default="quadratic", help=f"synthetic truth, one of {TRUTHS}"),
        Opt("samples", int, default=16, help="candidates per admissible-set sampling"),
        _BOUNDARY,
        *_COMMON,
    ],
    "witness": [
        Opt("n", int, default=2049, help="grid nodes"),
        Opt("a", float, required=True, help="smoothness exponent in [0, 2]"),
        Opt("m", float, required=True, help="class norm bound"),
        Opt("center", float, default=0.5, help="bump center in (0, 1)"),
        Opt("deltas", parse_deltas, required=True, help="noise sweep"),
        *_COMMON,
    ],
    "certify-linear": [
        Opt("problem", str, required=True, help="volterra | diagonal | rotated-diagonal"),
        Opt("n", int, required=True, help="problem dimension"),
        Opt("q", float, default=1.0, help="decay exponent for diagonal kinds"),
        Opt("p", float, required=True, help="source order in (0, 1)"),
        Opt("k", float, required=True, help="source radius"),
        Opt("deltas", parse_deltas, required=True, help="noise sweep"),
        Opt("trials", int, default=16, help="seeded (y, noise) draws per delta"),
        Opt("threads", int, default=1, help="worker threads for the trial fan-out"),
        *_COMMON,
    ],
    "varmin": [
        Opt("matrix", str, default="diagonal", help="gallery kind for B"),
        Opt("n", int, default=4, help="problem dimension"),
        Opt("q", float, default=1.0, help="decay exponent for diagonal kinds"),
        Opt("nonlinearity", str, default="cubic", help="identity | cubic"),
        Opt("cap", float, default=4.0, help="phi-ball radius c"),
        Opt("delta", float, required=True, help="noise radius"),
        Opt("budget", int, default=200, help="descent iterations per phase and start"),
        *_COMMON,
    ],
    "study": [
        Opt("matrix", str, default="diagonal", help="gallery kind for B"),
        Opt("n", int, default=4, help="problem dimension"),
        Opt("q", float, default=1.0, help="decay exponent for diagonal kinds"),
        Opt("nonlinearity", str, default="cubic", help="identity | cubic"),
        Opt("cap", float, default=4.0, help="phi-ball radius c"),
        Opt("deltas", parse_deltas, required=True, help="decreasing noise sweep"),
        Opt("budget", int, default=200, help="descent iterations per phase and start"),
        *_COMMON,
    ],
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; usage errors are exit 1
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="regcert", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand")
    for name, opts in OPTIONS.items():
        sp = sub.add_parser(name, add_help=True)
        sp.add_argument("--config", default=None, help="JSON file with the same keys")
        for opt in opts:
            sp.add_argument(f"--{opt.name}", default=None, help=opt.help)
    return parser


def resolve_config(argv) -> RunConfig:
    """Merge flags over config-file keys and validate required parameters."""
    ns = _build_parser().parse_args(argv)
    if ns.subcommand is None:
        raise UsageError(f"missing subcommand; choose one of {SUBCOMMANDS}")
    file_cfg = {}
    if ns.config is not None:
        with open(ns.config) as fh:
            try:
                loaded = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise UsageError(f"config file {ns.config} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise UsageError(
                f"config file {ns.config} must hold a JSON object, "
                f"got {type(loaded).__name__}"
            )
        file_cfg = {k.replace("-", "_"): v for k, v in loaded.items()}
    params = {}
    for opt in OPTIONS[ns.subcommand]:
        key = opt.name.replace("-", "_")
        raw = getattr(ns, key)
        if raw is None and key in file_cfg:
            raw = file_cfg[key]
        if raw is None:
            if opt.required:
                raise UsageError(f"missing required key: {opt.name}")
            raw = opt.default
            if raw is None:
                params[key] = None
                continue
        try:
            params[key] = opt.convert(raw)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad value for {opt.name}: {exc}") from exc
    seed = int(params.pop("seed", 0) or 0)
    out = params.pop("out", None)
    return RunConfig(subcommand=ns.subcommand, params=params, seed=seed, out=out)


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Synthetic truths


def make_truth(name: str, grid: Grid, spec: HolderSpec, seed: int = 0) -> SampledFunction:
    """Named truth scaled just inside the class ball."""
    x = grid.nodes
    if name == "quadratic":
        raw = x**2
    elif name == "sin2pi":
        raw = np.sin(2.0 * np.pi * x)
    elif name == "trig":
        rng = rng_from(seed, 797)
        coefs = rng.standard_normal(4)
        raw = sum(c * np.sin((j + 1) * np.pi * x) for j, c in enumerate(coefs))
    else:
        raise UsageError(f"unknown truth {name!r}; choose from {TRUTHS}")
    sf = SampledFunction(grid, raw)
    norm = holder_norm(sf, spec.a)
    return SampledFunction(grid, raw * (0.999 * spec.m_a / norm))


# ---------------------------------------------------------------------------
# Subcommand handlers (thin adapters: CSV values equal module outputs exactly)


def _run_differentiate(cfg: RunConfig) -> int:
    p = cfg.params
    spec = HolderSpec(a=p["a"], m_a=p["m"])
    if p.get("input"):
        f_delta = read_function_csv(p["input"])
        data = NoisyData(f_delta, p["delta"], p["model"], cfg.seed)
    else:
        grid = Grid(p["n"])
        truth = make_truth(p["truth"], grid, spec, cfg.seed)
        data = add_noise(integrate_volterra(truth), p["delta"], p["model"], cfg.seed)
    deriv = numdiff.differentiate(data, spec, p["boundary"])
    budget = numdiff.error_budget(p["delta"], spec, deriv.grid)
    log.info(
        "h=%r noise=%r bias=%r total=%r",
        budget.h, budget.noise_term, budget.bias_term, budget.total,
    )
    _emit(function_csv_text(deriv), cfg.out)
    return 0


def _run_certify_diff(cfg: RunConfig) -> int:
    p = cfg.params
    spec = HolderSpec(a=p["a"], m_a=p["m"])
    grid = Grid(p["n"])
    truth = make_truth(p["truth"], grid, spec, cfg.seed)
    f = integrate_volterra(truth)
    rows = [DIFF_CSV_HEADER]
    all_pass = True
    for di, delta in enumerate(p["deltas"]):
        budget = numdiff.error_budget(delta, spec, grid)
        emp = 0.0
        for mi, model in enumerate(p["models"]):
            data = add_noise(f, delta, model, cfg.seed)
            sub_seed = int(rng_from(cfg.seed, di, mi).integers(0, 2**63))
            # The synthetic truth is an admissible solution for its own data;
            # anchoring the sampled pool there keeps the lower bound sound and
            # nonempty even when the class bound is tight.
            pool = numdiff.member_candidates(truth, data, spec, p["samples"], seed=sub_seed)
            emp = max(
                emp,
                numdiff.empirical_sup_error(data, spec, p["samples"], seed=sub_seed,
                                            candidates=pool or None,
                                            boundary=p["boundary"]),
            )
        ok = emp <= budget.total * (1.0 + 1e-9)
        all_pass = all_pass and ok
        rows.append(
            f"{delta!r},{spec.a!r},{spec.m_a!r},{budget.h!r},{budget.noise_term!r},"
            f"{budget.bias_term!r},{budget.total!r},{emp!r},{str(bool(ok)).lower()}"
        )
    _emit("\n".join(rows) + "\n", cfg.out)
    return 0 if all_pass else 2


def _run_witness(cfg: RunConfig) -> int:
    p = cfg.params
    spec = HolderSpec(a=p["a"], m_a=p["m"])
    grid = Grid(p["n"])
    rows = ["delta,a,M,center,width,amplitude,separation"]
    for delta in p["deltas"]:
        pair = numdiff.witness_pair(delta, spec, p["center"], grid)
        rows.append(
            f"{delta!r},{spec.a!r},{spec.m_a!r},{p['center']!r},"
            f"{pair.bump_width!r},{pair.bump_amplitude!r},{pair.separation!r}"
        )
    _emit("\n".join(rows) + "\n", cfg.out)
    return 0


def _run_certify_linear(cfg: RunConfig) -> int:
    p = cfg.params
    problem = spectral.ProblemSpec(kind=p["problem"], n=p["n"], q=p["q"], seed=cfg.seed)
    source = linreg.SourceSpec(p=p["p"], k_p=p["k"])
    certs = linreg.certify(
        problem, source, p["deltas"], p["trials"], seed=cfg.seed, threads=p["threads"]
    )
    _emit("\n".join(linreg.certificate_csv_rows(certs, source)) + "\n", cfg.out)
    return 0 if all(c.passed for c in certs) else 2


def _make_var_problem(p: dict, seed: int) -> varreg.NonlinearProblem:
    return varreg.make_nonlinear_problem(
        kind=p["matrix"], n=p["n"], nonlinearity=p["nonlinearity"],
        phi_cap=p["cap"], q=p["q"], seed=seed,
    )


def _seeded_truth_in_ball(n: int, cap: float, seed: int) -> np.ndarray:
    rng = rng_from(seed, 131)
    d = rng.standard_normal(n)
    return 0.5 * np.sqrt(cap) * d / max(float(np.linalg.norm(d)), 1e-300)


def _run_varmin(cfg: RunConfig) -> int:
    p = cfg.params
    problem = _make_var_problem(p, cfg.seed)
    u_true = _seeded_truth_in_ball(p["n"], p["cap"], cfg.seed)
    rng = rng_from(cfg.seed, 137)
    e = rng.standard_normal(p["n"])
    e *= p["delta"] * (1.0 - 1e-12) / max(float(np.linalg.norm(e)), 1e-300)
    f_delta = problem.forward(u_true) + e
    report = varreg.minimize(problem, f_delta, p["delta"], budget=p["budget"], seed=cfg.seed)
    rows = [
        "delta,F_value,m_hat,feasible,iterations,restarts",
        f"{p['delta']!r},{report.F_value!r},{report.m_hat!r},"
        f"{str(report.feasible).lower()},{report.iterations},{report.restarts}",
    ]
    _emit("\n".join(rows) + "\n", cfg.out)
    return 0


def _run_study(cfg: RunConfig) -> int:
    p = cfg.params
    problem = _make_var_problem(p, cfg.seed)
    u_true = _seeded_truth_in_ball(p["n"], p["cap"], cfg.seed)
    deltas = sorted(p["deltas"], reverse=True)
    rows = varreg.convergence_study(problem, u_true, deltas, budget=p["budget"], seed=cfg.seed)
    _emit("\n".join(varreg.study_csv_rows(rows)) + "\n", cfg.out)
    return 0


_HANDLERS = {
    "differentiate": _run_differentiate,
    "certify-diff": _run_certify_diff,
    "witness": _run_witness,
    "certify-linear": _run_certify_linear,
    "varmin": _run_varmin,
    "study": _run_study,
}


def run(argv) -> int:
    """Execute one subcommand; returns the process exit code."""
    try:
        cfg = resolve_config(argv)
        return _HANDLERS[cfg.subcommand](cfg)
    except UsageError as exc:
        log.error("usage error: %s", exc)
        return 1
    except RegcertError as exc:
        log.error("%s", exc)
        return 1
    except OSError as exc:
        log.error("%s", exc)
        return 1


def main() -> None:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
