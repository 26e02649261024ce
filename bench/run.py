"""Time the regcert CLI on one workload, check its output, print the metrics.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the CLI is run from
the checkout's ``src`` tree as ``python -m regcert.cli``, one invocation at a
time, each in a fresh process.

--trace 0 runs passes over the workload's invocations for about S seconds
(at least two, so every pass after the first repeats the first at the same
seed and must give byte-identical CSV) and reports the end-to-end metrics
named in BENCHMARK.json.  --trace 1 alternates an untraced pass with a pass
run through ``bench/traced_cli.py`` and reports the per-layer metrics from
the traced pass, with the tracing overhead.  On linear-* a fixed-seed
invocation also runs once, untimed, and fails when any of its
empirical_lower values falls below the committed CSV in bench/reference/.

End-to-end metrics: wall_s and cpu_s are the median over passes of the
summed spawn-to-exit wall time and user+sys CPU time of the pass's children;
setup_s is the median wall time of fresh ``python -c "import regcert.cli"``
processes.  peak_rss_mb is the median over passes of the largest child max
RSS; bound_tightness is the mean over certificate rows of
``checks.tightness_ratios``.  op_fail_share, cert_fail_share and
linear_lower_ratio are printed in both modes and reported with the per-layer
metrics, because they read 0 on some workloads.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Lines before it print every metric by name with its
unit, the failing certificate cells, and the run's provenance.  Scratch
files (CSV, stderr, spans, a full report) go to bench/_work/<workload>/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SETUP_REPEATS = 7
# Every invocation is killed, and the run abandoned, this long after start.
DEADLINE_S = 170.0

PROBE = """
import json, os, platform
import numpy
import regcert.cli
blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
print(json.dumps({
    "regcert_cli": os.path.abspath(regcert.cli.__file__),
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "blas": {"name": blas.get("name"), "version": blas.get("version")},
}))
"""


class DeadlineExceeded(RuntimeError):
    pass


@dataclass
class Invocation:
    cmd: list[str]
    subcommand: str
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    csv: bytes
    rows: list[dict] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


class Runner:
    """Spawns one child at a time and measures it from spawn to exit."""

    def __init__(self, env: dict, work: Path, deadline: float):
        self.env = env
        self.work = work
        self.deadline = deadline

    def spawn(self, cmd: list[str], stem: str) -> tuple[int, float, float, float, bytes]:
        """(exit code, wall s, user+sys CPU s, max RSS MB, stdout) of one child."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0.0:
            raise DeadlineExceeded(f"no time left to run {cmd}")
        out_path = self.work / f"{stem}.out"
        lock = threading.Lock()
        exited = False
        with open(out_path, "wb") as out, open(self.work / f"{stem}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)

            def kill():
                with lock:
                    if not exited:
                        os.kill(proc.pid, signal.SIGKILL)

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                # Wait without reaping, so the timer can never signal a reused pid.
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                wall = time.perf_counter() - start
                with lock:
                    exited = True
            finally:
                timer.cancel()
                timer.join()
                if not exited:
                    os.kill(proc.pid, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
        if time.monotonic() >= self.deadline:
            raise DeadlineExceeded(f"{cmd} ran past the deadline")
        cpu = usage.ru_utime + usage.ru_stime
        return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0, out_path.read_bytes()

    def cli_pass(self, argvs: list[list[str]], tag: str, traced: bool = False) -> list[Invocation]:
        results = []
        for i, argv in enumerate(argvs):
            stem = f"{tag}-{i}"
            if traced:
                cmd = [sys.executable, str(BENCH / "traced_cli.py"),
                       str(self.work / f"{stem}.spans.json"), *argv]
            else:
                cmd = [sys.executable, "-m", "regcert.cli", *argv]
            code, wall, cpu, rss, out = self.spawn(cmd, stem)
            rows, problems = checks.check_invocation(argv[0], code, out.decode("utf-8", "replace"))
            results.append(Invocation(cmd, argv[0], code, wall, cpu, rss, out, rows, problems))
        return results


def require_same_csv(reference: list[Invocation], other: list[Invocation], why: str) -> None:
    """Mark each invocation of ``other`` whose CSV differs from ``reference``."""
    for ref, inv in zip(reference, other):
        if inv.csv != ref.csv:
            inv.problems.append(f"CSV differs from {' '.join(ref.cmd[1:])}: {why}")


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "regcert").rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return got.stdout.strip() or None


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def cert_summary(invocations: list[Invocation]) -> tuple[int, int, list[str], list[float], list[float]]:
    """(rows with a verdict, failing rows, failing cells, all tightness ratios, linear ratios)."""
    total = failing = 0
    cells, ratios, linear = [], [], []
    for inv in invocations:
        verdicts = checks.cert_verdicts(inv.subcommand, inv.rows)
        total += len(verdicts)
        for row, ok in zip(inv.rows, verdicts):
            if not ok:
                failing += 1
                cells.append(f"{' '.join(inv.cmd[3:])} @ delta={row['delta']!r}")
        q = checks.tightness_ratios(inv.subcommand, inv.rows)
        ratios += q
        if inv.subcommand == "certify-linear":
            linear += q
    return total, failing, cells, ratios, linear


def layer_metrics_of_pass(invocations: list[Invocation], work: Path, tag: str) -> dict[str, float]:
    recs, counters = [], {}
    for i in range(len(invocations)):
        spans, file_counters = tracing.load(work / f"{tag}-{i}.spans.json")
        recs += tracing.records(spans)
        for name, (calls, seconds) in file_counters.items():
            total = counters.setdefault(name, [0, 0.0])
            total[0] += calls
            total[1] += seconds
    return tracing.layer_metrics(recs, counters)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "regcert" / "cli.py").is_file():
        print(f"error: no regcert sources at {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    work = BENCH / "_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(child_env(src), work, time.monotonic() + DEADLINE_S)
    workload = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    threads = min(2, nproc)
    argvs = workload.build(args.seed, threads)

    try:
        # The probe also compiles bytecode, so set-up timings below are warm.
        code, _, _, _, out = runner.spawn([sys.executable, "-c", PROBE], "probe")
        if code != 0:
            print("error: cannot import regcert.cli from the checkout", file=sys.stderr)
            return 2
        probe = json.loads(out)
        if not Path(probe["regcert_cli"]).is_relative_to(src):
            print(f"error: regcert.cli resolved to {probe['regcert_cli']}, outside {src}",
                  file=sys.stderr)
            return 2

        setup = [runner.spawn([sys.executable, "-c", "import regcert.cli"], f"setup-{k}")
                 for k in range(SETUP_REPEATS)] if not args.trace else []
        if any(s[0] != 0 for s in setup):
            print("error: importing regcert.cli failed", file=sys.stderr)
            return 2

        plain, traced = [], []  # passes; traced[i] follows plain[i] in trace mode
        start = time.perf_counter()
        while True:
            plain.append(runner.cli_pass(argvs, f"pass{len(plain)}"))
            if args.trace:
                traced.append(runner.cli_pass(argvs, f"traced{len(traced)}", traced=True))
            rounds = len(plain)
            elapsed = time.perf_counter() - start
            if rounds >= (1 if args.trace else 2) and elapsed * (rounds + 1) / rounds > args.seconds:
                break
        reference = plain[0]
        for p in plain[1:]:
            require_same_csv(reference, p, "repeated at the same seed")
        for p in traced:
            require_same_csv(reference, p, "traced run")

        thread_check = []
        if workload.thread_check and threads > 1:
            thread_check = runner.cli_pass(workload.build(args.seed, 1), "threads1")
            require_same_csv(reference, thread_check, "--threads 1 against --threads 2")

        lower_bound_check = []
        if workload.reference:
            ref_argv, ref_csv = workload.reference
            lower_bound_check = runner.cli_pass([ref_argv], "reference")
            inv = lower_bound_check[0]
            if inv.rows:
                ref_rows = checks.parse_rows(ref_argv[0], (BENCH / ref_csv).read_text())
                inv.problems += checks.lower_bound_drops(inv.rows, ref_rows)
    except DeadlineExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    everything = [inv for p in plain + traced + [thread_check, lower_bound_check] for inv in p]
    failed = [inv for inv in everything if inv.problems]
    verdict_rows, failing_rows, failing_cells, ratios, linear_ratios = cert_summary(reference)

    shared = {
        "op_fail_share": len(failed) / len(everything),
        "cert_fail_share": failing_rows / verdict_rows if verdict_rows else 0.0,
        "linear_lower_ratio": median(linear_ratios) if linear_ratios else 0.0,
    }
    if args.trace:
        per_pass = [layer_metrics_of_pass(p, work, f"traced{i}") for i, p in enumerate(traced)]
        metrics = {name: median([m[name] for m in per_pass]) for name in per_pass[0]}
        metrics["trace_overhead_s"] = median(
            [sum(i.wall_s for i in t) - sum(i.wall_s for i in p) for p, t in zip(plain, traced)])
        metrics.update(shared)
    else:
        metrics = {
            "wall_s": median([sum(i.wall_s for i in p) for p in plain]),
            "cpu_s": median([sum(i.cpu_s for i in p) for p in plain]),
            "setup_s": median([s[1] for s in setup]),
            "peak_rss_mb": median([max(i.rss_mb for i in p) for p in plain]),
            "bound_tightness": statistics.fmean(ratios) if ratios else 0.0,
            **shared,
        }
    wanted = [m["name"] for m in spec[section]]
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        print(f"error: BENCHMARK.json names metrics this run cannot compute: {missing}",
              file=sys.stderr)
        return 2

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(plain) + len(traced),
        "nproc": nproc,
        "threads": threads,
        "python": probe["python"],
        "numpy": probe["numpy"],
        "blas": probe["blas"],
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": git_commit(),
        "src_sha256": source_digest(src),
        "argv": [inv.cmd for inv in reference + thread_check + lower_bound_check],
    }
    for name, value in metrics.items():
        print(f"{name} {value!r} {units.get(name, 's')}")
    for cell in failing_cells:
        print(f"failing certificate: {cell}")
    for inv in failed:
        print(f"failed invocation: {' '.join(inv.cmd)}: {'; '.join(inv.problems)}")
    print("provenance " + json.dumps(provenance))
    (work / "report.json").write_text(json.dumps({
        "provenance": provenance,
        "metrics": metrics,
        "failing_certificates": failing_cells,
        "failed_invocations": [{"cmd": i.cmd, "problems": i.problems} for i in failed],
        "invocations": [{"cmd": i.cmd, "exit": i.exit_code, "wall_s": i.wall_s, "cpu_s": i.cpu_s,
                         "rss_mb": i.rss_mb} for i in everything],
    }, indent=1))

    result = {
        "correct": not failed,
        "attempted": len(everything),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
