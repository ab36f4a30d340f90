"""Outside-in tracing of one in-process debloateval CLI run.

Run as a script, it imports the CLI, wraps each layer's public functions at
the module attributes their callers look up, and runs one CLI command in
this process:

    python3 perfbench/tracer.py --run-id ID --spans OUT.jsonl --summary OUT.json \
        [--plain] -- differ --spec spec.json --out out ...

Each wrapped call becomes a span (name, start, end, parent, run id, thread),
kept in memory and written as JSONL when the command ends. Calls too hot for
a span each (``x86.decode``, once per code byte) are only counted and timed;
their totals are charged to the enclosing span. ``--plain`` installs no
wrappers, so comparing its wall time with a traced run's gives the tracing
overhead. The analysis helpers at the bottom turn spans into per-layer
metrics; the program under test is not modified.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import json
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path

FLOOR_SAMPLES = 100  # run_once requests replayed with a bare subprocess.run


def _inputs(args, result):
    return {"inputs": len(result)}


def _run(args, result):
    return {"failed": result.termination.kind.value != "exited"}


def _segments(args, result):
    return {"bytes": sum(len(data) for _, data in result)}


def _gadgets(args, result):
    return {"gadgets": len(result)}


def _region(args, result):
    region = args[0]
    # Library regions are labelled "<binary>:<soname>".
    return {"bytes": len(region.data), "lib": ":" in region.source_label}


# (span name, module, attribute the callers look up, attributes from the call)
TARGETS = (
    ("spec_model.parse_spec", "debloateval.cli", "parse_spec", None),
    ("verdict_engine.run_campaign", "debloateval.cli", "run_campaign", None),
    ("verdict_engine.report_to_jsonl", "debloateval.cli", "report_to_jsonl", None),
    ("verdict_engine.summary_to_json", "debloateval.cli", "summary_to_json", None),
    ("cli.render_report", "debloateval.cli", "render_report", None),
    ("fuzz_engine.derive_commands", "debloateval.verdict_engine", "derive_commands", _inputs),
    ("fuzz_engine.derive_commands", "debloateval.cli", "derive_commands", _inputs),
    ("exec_harness.run_once", "debloateval.verdict_engine", "run_once", _run),
    ("exec_harness.run_once", "debloateval.cli", "run_once", _run),
    ("exec_harness.run_once", "debloateval.exec_harness", "run_once", _run),
    ("comparator.compare", "debloateval.verdict_engine", "compare", None),
    ("verdict_engine.classify", "debloateval.verdict_engine", "classify", None),
    ("elf.executable_segments", "debloateval.elf", "executable_segments", _segments),
    ("gadget_analyzer.extract_code_regions", "debloateval.gadget_analyzer", "extract_code_regions", None),
    ("gadget_analyzer.scan_regions", "debloateval.gadget_analyzer", "scan_regions", _gadgets),
    ("gadget_analyzer.scan_gadgets", "debloateval.gadget_analyzer", "scan_gadgets", _region),
    ("gadget_analyzer.build_report", "debloateval.gadget_analyzer", "build_report", None),
    ("gadget_analyzer.compare_sets", "debloateval.gadget_analyzer", "compare_sets", None),
    ("gadget_analyzer.locality", "debloateval.gadget_analyzer", "locality", None),
    ("binary_metrics.size_change", "debloateval.binary_metrics", "size_change", None),
    ("binary_metrics.lib_delta", "debloateval.binary_metrics", "lib_delta", None),
)
HOT_TARGETS = (("x86.decode", "debloateval.gadget_analyzer", "decode"),)


class Recorder:
    """In-memory span store with one parent stack per thread.

    A span opened on a worker thread with an empty stack takes the main
    thread's innermost open span as parent (the campaign that fanned it
    out). Hot-call counters are plain integers, so hot targets must only be
    called from one thread at a time, which holds for the gadget scan.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.hot: dict[str, list[int]] = {}  # name -> [calls, ns]
        self.samples: list = []  # run_once requests kept for the floor
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _hot_totals(self) -> dict[str, tuple[int, int]]:
        return {name: (acc[0], acc[1]) for name, acc in self.hot.items()}

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        rec = {
            "id": next(self._ids),
            "parent": parent["id"] if parent else None,
            "run": self.run_id,
            "name": name,
            "thread": threading.get_ident(),
            "attrs": {},
        }
        hot_before = self._hot_totals()
        stack.append(rec)
        rec["start"] = time.perf_counter_ns()
        try:
            yield rec
        except BaseException as exc:
            rec["attrs"]["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter_ns()
            stack.pop()
            hot = {}
            for hot_name, (calls, ns) in self._hot_totals().items():
                calls0, ns0 = hot_before.get(hot_name, (0, 0))
                if calls > calls0:
                    hot[hot_name] = [calls - calls0, ns - ns0]
            if hot:
                rec["hot"] = hot
            self.spans.append(rec)

    def wrap(self, name: str, fn, measure=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if measure is not None:
                    rec["attrs"].update(measure(args, result))
                if name == "exec_harness.run_once" and len(self.samples) < FLOOR_SAMPLES:
                    self.samples.append(args[0] if args else kwargs["req"])
                return result

        return traced

    def wrap_hot(self, name: str, fn):
        acc = self.hot.setdefault(name, [0, 0])
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def counted(*args):
            t = clock()
            result = fn(*args)
            acc[1] += clock() - t
            acc[0] += 1
            return result

        return counted

    def install(self) -> list[str]:
        """Wrap every target; returns the targets this program lacks."""
        missing = []
        for name, module_name, attr, measure in TARGETS:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                setattr(module, attr, self.wrap(name, getattr(module, attr), measure))
            else:
                missing.append(f"{module_name}.{attr}")
        for name, module_name, attr in HOT_TARGETS:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                setattr(module, attr, self.wrap_hot(name, getattr(module, attr)))
            else:
                missing.append(f"{module_name}.{attr}")
        return missing


def floor_ms(requests) -> list[float]:
    """Replay each request once with a bare subprocess.run; milliseconds each."""
    times = []
    with tempfile.TemporaryDirectory(prefix="floor-") as cwd:
        for req in requests:
            t = time.perf_counter()
            subprocess.run(
                [str(req.exe_path), *req.argv],
                input=req.stdin,
                capture_output=True,
                env=dict(req.env),
                cwd=cwd,
                timeout=req.timeout_seconds,
            )
            times.append(1e3 * (time.perf_counter() - t))
    return times


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--spans", type=Path, required=True)
    parser.add_argument("--summary", type=Path, required=True)
    parser.add_argument("--plain", action="store_true", help="install no wrappers")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args

    rec = Recorder(opts.run_id)
    t0 = time.perf_counter_ns()
    with rec.span("cli.import"):
        cli = importlib.import_module("debloateval.cli")
    missing = [] if opts.plain else rec.install()
    with rec.span("cli.main"):
        try:
            code = cli.main(cli_args, prog_name="debloateval", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
    t_end = time.perf_counter_ns()

    summary = {
        "exit_code": code if isinstance(code, int) else 0,
        "t0": t0,
        "t_end": t_end,
        "module": cli.__file__,
        "missing_targets": missing,
        "floor_ms": [] if opts.plain else floor_ms(rec.samples),
    }
    with opts.spans.open("w") as fh:
        for span in rec.spans if not opts.plain else []:
            fh.write(json.dumps(span, sort_keys=True) + "\n")
    opts.summary.write_text(json.dumps(summary, sort_keys=True) + "\n")
    return 0


# --- analysis ---------------------------------------------------------

def load_spans(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line]


def union_ns(intervals, lo: int | None = None, hi: int | None = None) -> int:
    """Total length covered by the intervals, optionally clipped to [lo, hi]."""
    clipped = []
    for a, b in intervals:
        if lo is not None:
            a, b = max(a, lo), min(b, hi)
        if b > a:
            clipped.append((a, b))
    total = 0
    cur_a = cur_b = None
    for a, b in sorted(clipped):
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_ns(spans: list[dict]) -> dict[int, int]:
    """Per span id: its duration minus what its child spans and its own hot calls cover."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = children.get(s["id"], [])
        covered = union_ns([(k["start"], k["end"]) for k in kids], s["start"], s["end"])
        hot_ns = sum(ns for _, ns in s.get("hot", {}).values())
        hot_ns -= sum(ns for k in kids for _, ns in k.get("hot", {}).values())
        out[s["id"]] = s["end"] - s["start"] - covered - hot_ns
    return out


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) of values; 0.0 when there are none."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[dict], traced: dict, plain: dict, jobs: int | None,
                  verdicts: int, na_cells: int) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed by their benchmark names."""
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    selfs = self_ns(spans)

    def durs(name: str) -> list[float]:
        return [(s["end"] - s["start"]) / 1e9 for s in by_name.get(name, [])]

    def busy(name: str) -> float:
        return sum(durs(name))

    def attr_sum(name: str, key: str) -> int:
        return sum(int(s["attrs"].get(key, 0)) for s in by_name.get(name, []))

    def hot(name: str) -> tuple[int, float]:
        calls = ns = 0
        for s in spans:
            c, n = s.get("hot", {}).get(name, (0, 0))
            if s["parent"] is None:  # top-level spans carry every nested call
                calls, ns = calls + c, ns + n
        return calls, ns / 1e9

    wall_ns = traced["t_end"] - traced["t0"]
    plain_ns = plain["t_end"] - plain["t0"]
    layer_spans = [s for s in spans if s["name"] != "cli.main"]
    covered = union_ns([(s["start"], s["end"]) for s in layer_spans], traced["t0"], traced["t_end"])

    run_once = durs("exec_harness.run_once")
    compare = durs("comparator.compare")
    campaign = busy("verdict_engine.run_campaign")
    workers: dict[int, list] = {}
    main_threads = {s["thread"] for s in by_name.get("cli.main", [])}
    for s in spans:
        if s["thread"] not in main_threads:
            workers.setdefault(s["thread"], []).append((s["start"], s["end"]))
    worker_busy = sum(union_ns(iv) for iv in workers.values()) / 1e9

    code_bytes = attr_sum("elf.executable_segments", "bytes")
    decode_calls, decode_s = hot("x86.decode")
    scans = by_name.get("gadget_analyzer.scan_gadgets", [])

    def scan_kb_per_s(lib: bool) -> float:
        chosen = [s for s in scans if bool(s["attrs"].get("lib")) == lib]
        seconds = sum((s["end"] - s["start"]) / 1e9 for s in chosen)
        kb = sum(s["attrs"].get("bytes", 0) for s in chosen) / 1024
        return kb / seconds if seconds else 0.0

    derive_s = busy("fuzz_engine.derive_commands")
    return {
        "spec_model.parse_spec.ms": 1e3 * busy("spec_model.parse_spec"),
        "fuzz_engine.derive_commands.busy_s": derive_s,
        "fuzz_engine.derive_commands.inputs_per_s":
            attr_sum("fuzz_engine.derive_commands", "inputs") / derive_s if derive_s else 0.0,
        "exec_harness.run_once.calls": len(run_once),
        "exec_harness.run_once.p50_ms": 1e3 * _quantile(run_once, 50),
        "exec_harness.run_once.p95_ms": 1e3 * _quantile(run_once, 95),
        "exec_harness.run_once.busy_s": sum(run_once),
        "exec_harness.run_once.failed": attr_sum("exec_harness.run_once", "failed")
            + sum("error" in s["attrs"] for s in by_name.get("exec_harness.run_once", [])),
        "exec_harness.floor.p50_ms": _quantile(traced["floor_ms"], 50),
        "comparator.compare.calls": len(compare),
        "comparator.compare.p50_us": 1e6 * _quantile(compare, 50),
        "comparator.compare.busy_s": sum(compare),
        "verdict_engine.runs_per_verdict": len(run_once) / verdicts if verdicts else 0.0,
        "verdict_engine.worker_busy_frac":
            worker_busy / (jobs * campaign) if jobs and campaign else 0.0,
        "verdict_engine.run_campaign.s": campaign,
        "verdict_engine.report_to_jsonl.s": busy("verdict_engine.report_to_jsonl"),
        "elf.executable_segments.busy_s": busy("elf.executable_segments"),
        "elf.code_bytes": code_bytes,
        "x86.decode.calls": decode_calls,
        "x86.decode.calls_per_code_byte": decode_calls / code_bytes if code_bytes else 0.0,
        "x86.decode.busy_s": decode_s,
        "gadget_analyzer.scan_gadgets.busy_s": sum((s["end"] - s["start"]) / 1e9 for s in scans),
        "gadget_analyzer.scan_gadgets.self_s": sum(selfs[s["id"]] for s in scans) / 1e9,
        "gadget_analyzer.scan_gadgets.exe_kb_per_s": scan_kb_per_s(lib=False),
        "gadget_analyzer.scan_gadgets.lib_kb_per_s": scan_kb_per_s(lib=True),
        "gadget_analyzer.gadgets": attr_sum("gadget_analyzer.scan_regions", "gadgets"),
        "gadget_analyzer.build_report.busy_s": busy("gadget_analyzer.build_report"),
        "gadget_analyzer.locality.busy_s": busy("gadget_analyzer.locality"),
        "binary_metrics.size_change.busy_s": busy("binary_metrics.size_change"),
        "binary_metrics.lib_delta.busy_s": busy("binary_metrics.lib_delta"),
        "cli.render_report.busy_s": busy("cli.render_report"),
        "cli.self_s": sum(selfs[s["id"]] for s in by_name.get("cli.main", [])) / 1e9,
        "cli.na_cells": na_cells,
        "trace.overhead_frac": wall_ns / plain_ns - 1.0,
        "trace.coverage_frac": covered / wall_ns,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
