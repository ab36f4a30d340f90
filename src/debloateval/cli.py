"""Command-line driver: campaigns, metric matrices, and report rendering.

Subcommands: ``validate``, ``differ``, ``metrics``, ``gadgets compare``,
``tool-wrap``, ``report``. Artifacts land under ``--out``: verdicts.jsonl,
summary.json, metrics.json, and report.md. Exit codes: 0 all pass,
1 anomalies found, 2 usage or I/O error.
"""

from __future__ import annotations

import datetime
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import click

from . import _HOST_ERRNOS, InputError, NotComparableError, __version__
from .fuzz_engine import MutationPlan, derive_commands
from .spec_model import (
    BenchmarkSpec,
    BinaryRef,
    Disposition,
    SpecError,
    parse_spec,
    validate_spec_against_binaries,
    winnow_to_aggressive,
)

if TYPE_CHECKING:
    from . import gadget_analyzer
    from .exec_harness import ExecOutcome, ExecRequest, TrialSummary
    from .verdict_engine import Budget, CampaignReport

EXIT_OK = 0
EXIT_ANOMALIES = 1
EXIT_ERROR = 2


class ArtifactError(InputError):
    """A JSON artifact in the output directory cannot be read back."""


# A command imports the layers it runs only when it runs them: where bytecode
# is not cached, each import compiles its source afresh. These four stay cli
# attributes that the commands look up, so a caller can replace them.

def run_campaign(spec: BenchmarkSpec, plan: MutationPlan, budget: Budget, jobs: int) -> CampaignReport:
    from . import verdict_engine
    return verdict_engine.run_campaign(spec, plan, budget, jobs=jobs)


def report_to_jsonl(report: CampaignReport) -> bytes:
    from . import verdict_engine
    return verdict_engine.report_to_jsonl(report)


def summary_to_json(report: CampaignReport, seed: int) -> dict:
    from . import verdict_engine
    return verdict_engine.summary_to_json(report, seed)


def run_once(req: ExecRequest) -> ExecOutcome:
    from . import exec_harness
    return exec_harness.run_once(req)


def _exits(command):
    """Wrap a click callback that returns an exit code; bad input exits 2."""

    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            code = command(*args, **kwargs)
        except (OSError, InputError) as exc:
            click.echo(f"error: {exc}", err=True)
            code = EXIT_ERROR
        sys.exit(code)

    return run


def _read_spec(spec_path: Path) -> BenchmarkSpec:
    """The spec in spec_path; a SpecError's message ends by naming the file."""
    data = spec_path.read_bytes()
    try:
        return parse_spec(data)
    except SpecError as exc:
        exc.args = (f"{exc} (in {spec_path})",)
        raise


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _fmt_pct(value: float | None) -> str:
    return "N/A" if value is None else f"{value:.1f}%"


def _fmt_num(value: float | None, digits: int = 1) -> str:
    return "N/A" if value is None else f"{value:.{digits}f}"


# --- click group and shared options ------------------------------------

@click.group()
@click.version_option(version=__version__)
def main():
    """Validate and measure debloated program variants."""


class _FiniteFloat(click.FloatRange):
    """A FloatRange that also rejects nan, which passes every bound, and +-inf."""

    def convert(self, value, param, ctx):
        number = super().convert(value, param, ctx)
        if not math.isfinite(number):
            self.fail(f"{number} is not a finite number.", param, ctx)
        return number


_spec_opt = click.option(
    "--spec", "spec_path", type=click.Path(path_type=Path), required=True, help="Spec JSON file."
)
_seed_opt = click.option("--seed", type=int, default=0, show_default=True, help="Global fuzz seed.")
_out_opt = click.option(
    "--out", "out_dir", type=click.Path(path_type=Path), default=Path("dv-out"), show_default=True
)


@main.command()
@_spec_opt
@_exits
def validate(spec_path: Path):
    """Parse a spec and check its binaries on disk."""
    spec = _read_spec(spec_path)
    warnings = validate_spec_against_binaries(spec)
    for w in warnings:
        click.echo(f"warning: {w}")
    click.echo(f"spec {spec.id!r}: {len(spec.variants)} variant(s), {len(spec.features)} feature(s)")
    return EXIT_OK


# --- differ ------------------------------------------------------------

@main.command()
@_spec_opt
@_seed_opt
@_out_opt
@click.option("--jobs", type=click.IntRange(min=1), default=None,
              help="Worker threads (default: the CPUs this process may run on).")
@click.option("--max-seconds", type=_FiniteFloat(min=0), default=None, help="Fuzzing wall-clock budget.")
@click.option("--max-mutants", type=click.IntRange(min=0), default=None, help="Total fuzzed-input budget.")
@click.option("--aggressive", is_flag=True, help="Winnow the spec to its aggressive form first.")
@_exits
def differ(spec_path, seed, out_dir, jobs, max_seconds, max_mutants, aggressive):
    """Run the differential campaign for every variant."""
    from .verdict_engine import Budget
    jobs = jobs or len(os.sched_getaffinity(0))
    budget = Budget(max_seconds=max_seconds, max_mutants=max_mutants)
    spec = _read_spec(spec_path)
    if aggressive:
        spec = winnow_to_aggressive(spec)
    report = run_campaign(spec, MutationPlan(seed=seed), budget, jobs=jobs)

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "verdicts.jsonl").write_bytes(report_to_jsonl(report))
    _write_json(out_dir / "summary.json", summary_to_json(report, seed))
    render_report(out_dir)
    return EXIT_OK if all(report.variant_passed(label) for label in report.per_variant) else EXIT_ANOMALIES


# --- metrics -----------------------------------------------------------

@dataclass
class _VariantMetrics:
    size_pct: float | None = None
    size_aggregate: bool = False
    libs_introduced: list[str] | None = None
    libs_eliminated: list[str] | None = None
    runtime_pct: float | None = None
    memory_pct: float | None = None
    expressivity_delta: int | None = None
    quality_delta: float | None = None
    quality_significant: bool | None = None
    sp_types_delta: int | None = None
    syscall_event: str | None = None
    locality_pct: float | None = None


def _seed_requests(spec: BenchmarkSpec, exe_path: Path) -> list[ExecRequest]:
    """A run of each retained command's seed input, which no fuzz seed changes."""
    from .verdict_engine import exec_request
    return [
        exec_request(spec, exe_path, derive_commands(cmd, MutationPlan(), limit=1)[0], cmd)
        for feature in spec.features
        if feature.disposition is Disposition.RETAIN
        for cmd in feature.commands
    ]


def _perf_totals(spec: BenchmarkSpec, exe_path: Path) -> TrialSummary | None:
    """All trials of the retained seed commands as one summary.

    Its mean CPU is the sum of the per-command means and its mean peak RSS
    the largest per-command mean; its standard deviations are left at 0.
    """
    from .exec_harness import SpawnError, TerminationKind, TrialSummary, run_trials
    total_cpu = 0.0
    max_rss = 0.0
    outcomes = []
    requests = _seed_requests(spec, exe_path)
    if not requests:
        return None
    try:
        for req in requests:
            summary = run_trials(req, spec.trials)
            if not any(o.termination.kind is TerminationKind.EXITED for o in summary.outcomes):
                return None
            total_cpu += summary.mean_cpu_seconds
            max_rss = max(max_rss, summary.mean_peak_rss_bytes)
            outcomes += summary.outcomes
    except SpawnError:
        return None
    return TrialSummary(len(outcomes), total_cpu, max_rss, 0.0, 0.0, outcomes)


def _cell(compute, *args):
    """compute(*args), or None where the metric is undefined: the one place a
    metrics cell is made null, and so where a reason for an N/A would attach.

    Undefined: a binary missing, unreadable, not a regular file, not an ELF or
    of the wrong machine (OSError, InputError), or a zero baseline
    (NotComparableError). A host errno is raised. Trials stay outside, as a
    run's SandboxError or OSError exits 2.
    """
    try:
        return compute(*args)
    except (OSError, InputError, NotComparableError) as exc:
        if isinstance(exc, OSError) and exc.errno in _HOST_ERRNOS:
            raise
    return None


@main.command()
@_spec_opt
@_seed_opt
@_out_opt
@click.option("--aggregate-libs", is_flag=True, help="Include libraries in gadget comparisons.")
@click.option("--no-perf", is_flag=True, help="Skip run-time/memory trials.")
@_exits
def metrics(spec_path, seed, out_dir, aggregate_libs, no_perf):
    """Compute size, library, performance, and security metrics."""
    spec = _read_spec(spec_path)
    # Every side's trials run before any code is read or the gadget layers are
    # loaded: a child's peak memory starts at this process's high-water mark.
    original_perf = None if no_perf else _perf_totals(spec, spec.original.exe_path)
    perfs = {v.label: _perf_totals(spec, v.exe_path) for v in spec.variants} if original_perf else {}
    from . import binary_metrics, gadget_analyzer

    # Every side's code is read before any is scanned, so the gadget sets
    # are composed in one pass that sweeps each distinct region once.
    original_regions = _cell(gadget_analyzer.extract_code_regions, spec.original, aggregate_libs)
    gadget_rows: dict[str, tuple[gadget_analyzer.GadgetSummary, float]] = {}
    if original_regions is not None:
        variant_regions = {
            v.label: regions for v in spec.variants
            if (regions := _cell(gadget_analyzer.extract_code_regions, v, aggregate_libs)) is not None
        }
        original_gadgets, variant_results = gadget_analyzer.compare_regions(
            original_regions, list(variant_regions.values())
        )
        gadget_rows = dict(zip(variant_regions, variant_results))

    rows: dict[str, _VariantMetrics] = {}
    for variant in sorted(spec.variants, key=lambda v: v.label):
        row = _VariantMetrics()
        if size := _cell(binary_metrics.size_change, spec.original, variant):
            row.size_pct, row.size_aggregate = size.pct, size.aggregate_mode
        if libs := _cell(binary_metrics.lib_delta, spec.original, variant):
            row.libs_introduced, row.libs_eliminated = sorted(libs.introduced), sorted(libs.eliminated)
        if (variant_perf := perfs.get(variant.label)) is not None:
            from .exec_harness import perf_delta
            if perf := _cell(perf_delta, original_perf, variant_perf):
                row.runtime_pct, row.memory_pct = perf.runtime_pct, perf.memory_pct
        if variant.label in gadget_rows:
            variant_gadgets, row.locality_pct = gadget_rows[variant.label]
            delta = gadget_analyzer.compare_sets(original_gadgets, variant_gadgets)
            row.expressivity_delta = delta.expressivity_delta
            row.quality_delta = delta.quality_delta
            row.quality_significant = delta.quality_significant
            row.sp_types_delta = delta.sp_types_delta
            row.syscall_event = delta.syscall_event.value
        rows[variant.label] = row

    out_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "spec_id": spec.id,
        "toolkit_version": __version__,
        "seed": seed,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "variants": {label: asdict(row) for label, row in rows.items()},
    }
    _write_json(out_dir / "metrics.json", doc)
    render_report(out_dir)
    return EXIT_OK


# --- gadgets compare ---------------------------------------------------

def _gadget_summary(summary: gadget_analyzer.GadgetSummary) -> dict:
    return {
        "gadgets": summary.count,
        "expressivity": len(summary.expressivity),
        "mean_quality": summary.mean_quality,
        "special_types": sorted(summary.special_types),
        "syscall_gadgets": summary.syscall_count,
    }


@main.group()
def gadgets():
    """Gadget-set analysis commands."""


@gadgets.command("compare")
@click.option("--original", "original_path", type=click.Path(path_type=Path), required=True)
@click.option("--variant", "variant_path", type=click.Path(path_type=Path), required=True)
@_exits
def gadgets_compare(original_path: Path, variant_path: Path):
    """Compare the gadget sets of two binaries' own code, without libraries."""
    from . import gadget_analyzer
    orig_regions = gadget_analyzer.extract_code_regions(BinaryRef("original", original_path))
    var_regions = gadget_analyzer.extract_code_regions(BinaryRef("variant", variant_path))
    orig_gadgets, [(var_gadgets, locality_pct)] = gadget_analyzer.compare_regions(orig_regions, [var_regions])
    delta = gadget_analyzer.compare_sets(orig_gadgets, var_gadgets)
    doc = {
        "original": _gadget_summary(orig_gadgets),
        "variant": _gadget_summary(var_gadgets),
        "delta": {
            "expressivity": delta.expressivity_delta,
            "quality": delta.quality_delta,
            "quality_significant": delta.quality_significant,
            "sp_types": delta.sp_types_delta,
            "syscall_event": delta.syscall_event.value,
            "locality_pct": locality_pct,
        },
    }
    click.echo(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


# --- tool-wrap ---------------------------------------------------------

@dataclass(frozen=True)
class ToolPerfRecord:
    cpu_minutes: float
    peak_mb: float
    succeeded: bool
    termination: str


def _file_identity(path: Path) -> tuple[int, int, int] | None:
    """Inode, size and mtime of the file at path; None if there is none."""
    try:
        st = path.stat()
    except OSError:
        return None
    return st.st_ino, st.st_size, st.st_mtime_ns


@main.command("tool-wrap")
@_spec_opt
@_out_opt
@click.option("--output", "output_path", type=click.Path(path_type=Path), required=True,
              help="Path where the tool is expected to produce the variant.")
@click.option("--max-seconds", type=_FiniteFloat(min=0, min_open=True), default=48 * 3600.0, show_default=True)
@click.argument("tool_cmdline", nargs=-1, required=True)
@_exits
def tool_wrap(spec_path, out_dir, output_path, max_seconds, tool_cmdline):
    """Run a debloating tool under CPU/memory accounting."""
    # Failures are still timed and recorded; a produced output binary is
    # registered as a new variant, appended to a copy of the spec's document.
    import shutil

    from .exec_harness import ExecRequest, SpawnError, TerminationKind
    _read_spec(spec_path)
    doc = json.loads(spec_path.read_bytes())
    doc["variants"].append({"label": f"tool-wrap-{output_path.name}", "exe": str(output_path)})
    updated = json.dumps(doc, indent=2).encode("utf-8")
    # Parsed before the tool runs, so a spec that cannot take the new variant
    # is rejected at once, not after a run of up to max_seconds.
    parse_spec(updated)
    # The tool runs in an empty sandbox directory with an empty environment:
    # it must address its target and output by absolute paths, and its own
    # command is resolved here as a shell would resolve it.
    name = tool_cmdline[0]
    tool = name if "/" in name else shutil.which(name)
    if tool is None:
        raise SpawnError(f"cannot exec {name}: not found on PATH")
    req = ExecRequest(exe_path=Path(tool).absolute(), argv=list(tool_cmdline[1:]),
                      timeout_seconds=max_seconds)
    before = _file_identity(output_path)
    outcome = run_once(req)
    exited_ok = outcome.termination.kind is TerminationKind.EXITED and outcome.termination.code == 0
    # A file the tool left as it found it is stale, not produced.
    produced = output_path.is_file() and _file_identity(output_path) != before
    record = ToolPerfRecord(
        cpu_minutes=outcome.cpu_seconds / 60.0,
        peak_mb=outcome.peak_rss_bytes / (1024.0 * 1024.0),
        succeeded=exited_ok and produced,
        termination=outcome.termination.describe(),
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "tool_perf.json", asdict(record))
    if produced:
        (out_dir / "spec.updated.json").write_bytes(updated)
    click.echo(
        f"succeeded={record.succeeded} cpu_minutes={record.cpu_minutes:.3f} "
        f"peak_mb={record.peak_mb:.1f} termination={record.termination}"
    )
    return EXIT_OK


# --- report rendering --------------------------------------------------

def render_report(out_dir: Path) -> Path:
    """Assemble report.md from whichever JSON artifacts exist in out_dir.

    Raises ArtifactError, naming the file, if one of them is unreadable.
    """
    sections = ["# Variant evaluation report", ""]
    for name, section in (("metrics.json", _metrics_section), ("summary.json", _summary_section)):
        path = out_dir / name
        if path.is_file():
            try:
                sections += section(json.loads(path.read_text()))
            except (ValueError, LookupError, TypeError, AttributeError) as exc:
                raise ArtifactError(f"{path}: not a usable {name}: {exc!r}") from exc

    path = out_dir / "report.md"
    path.write_text("\n".join(sections))
    return path


def _table(title: str, rows: dict, columns: list) -> list[str]:
    """A report section: a line per label, sorted, with a cell per (column title, cell function)."""
    lines = [
        f"## {title}",
        "",
        "| Variant | " + " | ".join(name for name, _ in columns) + " |",
        "|---" * (len(columns) + 1) + "|",
    ]
    for label in sorted(rows):
        lines.append("| " + " | ".join([label] + [str(cell(rows[label])) for _, cell in columns]) + " |")
    return lines + [""]


def _fmt_libs(names: list[str] | None) -> str:
    return "N/A" if names is None else ", ".join(names) or "-"


def _fmt_quality(row: dict) -> str:
    quality = _fmt_num(row["quality_delta"])
    if row["quality_delta"] is not None and not row["quality_significant"]:
        quality += " (not significant)"
    return quality


def _metrics_section(doc: dict) -> list[str]:
    performance = [
        ("Binary Size", lambda row: _fmt_pct(row["size_pct"])),
        ("Run Time", lambda row: _fmt_pct(row["runtime_pct"])),
        ("Peak Memory", lambda row: _fmt_pct(row["memory_pct"])),
        ("Libs Introduced", lambda row: _fmt_libs(row["libs_introduced"])),
        ("Libs Eliminated", lambda row: _fmt_libs(row["libs_eliminated"])),
    ]
    security = [
        ("Expressivity Δ", lambda row: _fmt_num(row["expressivity_delta"], 0)),
        ("Quality Δ", _fmt_quality),
        ("S.P. Types Δ", lambda row: _fmt_num(row["sp_types_delta"], 0)),
        ("Syscall Gadgets", lambda row: row["syscall_event"] or "N/A"),
        ("Locality", lambda row: _fmt_pct(row["locality_pct"])),
    ]
    return [
        f"Spec: `{doc['spec_id']}` — toolkit {doc['toolkit_version']}, seed {doc['seed']}",
        "",
        *_table("Performance metrics", doc["variants"], performance),
        *_table("Security metrics", doc["variants"], security),
    ]


def _summary_section(doc: dict) -> list[str]:
    columns = [
        ("Result", lambda entry: "pass" if entry["passed"] else "FAIL"),
        ("Verdicts", lambda entry: ", ".join(f"{k}={v}" for k, v in entry["verdict_counts"].items()) or "-"),
    ]
    ec = doc["variants_with_error_or_crash"]
    un = doc["variants_with_unremoved_feature"]
    lines = _table("Differential testing", doc["variants"], columns) + [
        f"Variants with errors or crashes: {ec['count']} ({100.0 * ec['fraction']:.1f}%). "
        f"Variants with unremoved features: {un['count']} ({100.0 * un['fraction']:.1f}%). "
        f"Passed: {doc['passed']}.",
        "",
    ]
    mutual = [f"{label}={entry['mutual_timeouts']}" for label, entry in sorted(doc["variants"].items())
              if "mutual_timeouts" in entry]
    if mutual:
        lines += [f"Mutual timeouts (original and variant both timed out; only output made before "
                  f"the deadline was compared): {', '.join(mutual)}.", ""]
    unrepeated = [f"{c['feature']}#{c['command_index']}" for c in doc.get("nondeterministic_original", [])]
    if unrepeated:
        lines += [f"Nondeterministic original (two runs of the seed input differ under the feature's "
                  f"comparators, so its verdicts may blame the variant): {', '.join(unrepeated)}.", ""]
    return lines


@main.command()
@_out_opt
@_exits
def report(out_dir: Path):
    """Re-render report.md from artifacts already in the output directory."""
    if not out_dir.is_dir():
        raise NotADirectoryError(f"{out_dir} is not a directory")
    click.echo(str(render_report(out_dir)))
    return EXIT_OK


if __name__ == "__main__":
    main()
