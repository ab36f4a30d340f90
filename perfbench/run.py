"""End-to-end and per-layer benchmark of the debloateval CLI.

    python3 perfbench/run.py --workload differ-fanout --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the CLI is imported from ./src.
The workloads are in workloads.py and the metric definitions in
BENCHMARK.json and NOTES.md.

--trace 0 is a closed loop: one client starts one CLI process, waits for it
to exit, checks its artifacts, and starts the next while another run of
median length still fits in --seconds (at least two runs). Every
invocation starts cold, with fresh DV_SCRATCH, TMPDIR and --out directories.
On a shared host, other tenants only ever add time, in bursts, so wall_s is
the least wall time over the invocations and cpu_s the lower quartile of
their CPU times (CPU time also jitters both ways, which a quartile evens out
better than the least value). peak_rss_mb is the median over the
invocations and setup_s the median of several `validate` calls. The
quartiles of each timing are printed too.

--trace 1 runs the same command once in-process without wrappers and once
traced (tracer.py), and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it list every metric by
name and unit, and the sha256 of each deterministic artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer
import workloads
from workloads import BenchError, Checks

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_CALLS = 11
MIN_RUNS = 2  # a median of at least two, even when one run fills --seconds
RUN_LIMIT_S = 170.0  # every run must end well inside the 180 s allowed
CLI_ENTRY = "from debloateval.cli import main; main(prog_name='debloateval')"


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")


class Runner:
    """Launches CLI processes one at a time against a run-wide deadline."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        self._count = 0

    def fresh_dirs(self) -> tuple[Path, dict[str, str]]:
        """A new invocation directory and an env whose scratch and temp dirs live in it."""
        self._count += 1
        inv = self.work / f"inv{self._count}"
        for sub in ("out", "scratch", "tmp"):
            (inv / sub).mkdir(parents=True)
        env = dict(self.env, DV_SCRATCH=str(inv / "scratch"), TMPDIR=str(inv / "tmp"))
        return inv, env

    def launch(self, argv: list[str], env: dict[str, str], log: Path) -> dict:
        """Run argv to completion; wall time plus rusage of it and every child it reaped."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline passed")
        with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
            t = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT,
                                    start_new_session=True)
            killed = threading.Event()

            def kill() -> None:
                killed.set()
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

            timer = threading.Timer(remaining, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - t
        proc.returncode = os.waitstatus_to_exitcode(status)
        if killed.is_set():
            raise BenchError(f"killed at the run deadline: {' '.join(argv[3:])}")
        return {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "exit_code": proc.returncode,
            "stdout": log.with_suffix(".out").read_text(errors="replace"),
        }


def check_import(runner: Runner) -> None:
    """The CLI must come from this checkout; this call also fills the bytecode cache."""
    inv, env = runner.fresh_dirs()
    probe = "import debloateval.cli as m; print(m.__file__)"
    res = runner.launch([sys.executable, "-c", probe], env, inv / "import")
    where = res["stdout"].strip()
    if res["exit_code"] != 0 or not where.startswith(str(ROOT / "src")):
        raise BenchError(f"debloateval.cli does not import from {ROOT / 'src'}: {where or 'import failed'}")


def measure_setup(runner: Runner, workload, checks: Checks, calls: int) -> list[float]:
    walls = []
    for _ in range(calls):
        inv, env = runner.fresh_dirs()
        argv = [sys.executable, "-c", CLI_ENTRY, "validate", "--spec", str(workload.spec_path)]
        res = runner.launch(argv, env, inv / "validate")
        checks.check(res["exit_code"] == 0, f"validate exit code {res['exit_code']}")
        checks.check("warning:" not in res["stdout"], f"validate warned: {res['stdout'].strip()}")
        walls.append(res["wall_s"])
        shutil.rmtree(inv)
    return walls


def run_plain(args, runner: Runner, workload, checks: Checks, known: dict) -> dict[str, float]:
    # Set-up is timed first, before any large CLI process has run and exited.
    setup = measure_setup(runner, workload, checks, SETUP_CALLS)
    runs = []
    walls = []
    reference = None
    start = time.perf_counter()
    while len(runs) < MIN_RUNS or time.perf_counter() - start + _median(walls) <= args.seconds:
        # Start another run only if one as slow as the slowest so far still fits.
        if runs and time.monotonic() + 1.5 * max(walls) > runner.deadline:
            break
        inv, env = runner.fresh_dirs()
        out = inv / "out"
        res = runner.launch([sys.executable, "-c", CLI_ENTRY, *workload.cli_args, "--out", str(out)],
                            env, inv / "cli")
        res["verdicts"], digests = workloads.check_artifacts(
            checks, workload, out, res["exit_code"], args.seed, reference, known)
        reference = reference or digests
        runs.append(res)
        walls.append(res["wall_s"])
        shutil.rmtree(inv)

    cpus = [r["cpu_s"] for r in runs]
    metrics = {
        "wall_s": min(walls),
        "cpu_s": _quartiles(cpus)[0],
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in runs]),
        "setup_s": _median(setup),
    }
    print(f"{workload.name} seed {args.seed}: {len(runs)} CLI run(s) in {time.perf_counter() - start:.1f} s")
    for name, values in (("wall_s", walls), ("cpu_s", cpus), ("setup_s", setup)):
        q1, q2, q3 = _quartiles(values)
        print(f"  {name} over {len(values)}: min {min(values):.4f} q1 {q1:.4f} median {q2:.4f} "
              f"q3 {q3:.4f} max {max(values):.4f} s")
    for name, digest in (reference or {}).items():
        print(f"  sha256 {name} {digest}")
    # Printed, not gated: each rate applies to one kind of workload only, and
    # its numerator is fixed per workload, so wall_s carries the same change.
    rates = {
        "verdicts_per_s": (max(r["verdicts"] / r["wall_s"] for r in runs)
                           if workload.cli_args[0] == "differ" else None, "1/s"),
        "code_kb_per_s": (workload.code_bytes / 1024 / metrics["wall_s"]
                          if workload.code_bytes else None, "KB/s"),
    }
    for name, (value, unit) in rates.items():
        print(f"  {name:<48} {'n/a' if value is None else format(value, '.6g'):>14} {unit}")
    return metrics


def run_traced(args, runner: Runner, workload, checks: Checks, known: dict) -> dict[str, float]:
    results = {}
    for mode in ("plain", "traced"):
        inv, env = runner.fresh_dirs()
        out = inv / "out"
        spans, summary = inv / "spans.jsonl", inv / "summary.json"
        argv = [sys.executable, str(BENCH_DIR / "tracer.py"), "--run-id", f"{workload.name}-{args.seed}-{mode}",
                "--spans", str(spans), "--summary", str(summary)]
        argv += ["--plain"] if mode == "plain" else []
        argv += ["--", *workload.cli_args, "--out", str(out)]
        res = runner.launch(argv, env, inv / "trace")
        if res["exit_code"] != 0 or not summary.is_file():
            raise BenchError(f"tracer.py ({mode}) exited {res['exit_code']}")
        res["summary"] = json.loads(summary.read_text())
        # The traced run's artifacts must equal the plain run's.
        res["verdicts"], res["digests"] = workloads.check_artifacts(
            checks, workload, out, res["summary"]["exit_code"], args.seed,
            results.get("plain", {}).get("digests"), known)
        res["na_cells"] = workloads.null_cells(out)
        res["spans"] = tracer.load_spans(spans) if mode == "traced" else []
        results[mode] = res
        shutil.rmtree(inv)

    traced = results["traced"]
    for target in traced["summary"]["missing_targets"]:
        print(f"note: trace target {target} not found; its layer metrics read 0")
    metrics = tracer.layer_metrics(traced["spans"], traced["summary"], results["plain"]["summary"],
                                    workload.jobs, traced["verdicts"], traced["na_cells"])
    if workload.code_bytes:
        checks.check(metrics["elf.code_bytes"] == workload.code_bytes,
                     f"elf.code_bytes {metrics['elf.code_bytes']} != readelf {workload.code_bytes}")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="debloateval benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "debloateval" / "cli.py").is_file():
        print(f"error: no debloateval source under {ROOT / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    known = json.loads((BENCH_DIR / "known_answers.json").read_text())

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    checks = Checks()
    try:
        runner = Runner(work, time.monotonic() + RUN_LIMIT_S)
        check_import(runner)
        workload = workloads.build(args.workload, args.seed, work / "inputs", len(os.sched_getaffinity(0)))
        run = run_traced if args.trace else run_plain
        values = run(args, runner, workload, checks, known)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 2
    for message in checks.failures[:20]:
        print(f"FAILED: {message}")
    failed = len(checks.failures)
    for m in specs:
        print(f"  {m['name']:<48} {values[m['name']]:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':<48} {failed / checks.attempted:>14.6g} frac")
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
