"""Differential-testing decision rule and campaign driver.

Retained features must behave identically in original and variant;
debloated features must behave differently. Crashes, timeouts, and
violations of those expectations become reportable verdicts. A campaign
runs every derived input (seed plus fuzzed mutants) once against the
original and once against each variant, compares every variant with that
one original outcome (so with a nondeterministic original, all variants
see the same original run), classifies each comparison, and aggregates a
pass/fail summary per variant. The seed input of each command runs the
original a second time, and a command whose two original runs differ
under its pipeline is reported: its verdicts may blame the variant for
the original's own nondeterminism.
"""

from __future__ import annotations

import base64
import enum
import json
import time
from collections import Counter
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from . import InputError, __version__
from .comparator import CompareReport, compare
from .exec_harness import ExecOutcome, ExecRequest, SpawnError, Termination, TerminationKind, run_once
from .fuzz_engine import DerivedInput, MutationPlan, derive_commands
from .spec_model import BenchmarkSpec, Disposition, TestCommand


class CampaignAborted(InputError):
    """The original binary could not run any seed input."""


class Verdict(enum.Enum):
    EXPECTED_MATCH = "expected_match"
    EXPECTED_DIFFERENCE = "expected_difference"
    UNEXPECTED_DIFFERENCE = "unexpected_difference"
    UNEXPECTED_MATCH = "unexpected_match"
    VARIANT_CRASH = "variant_crash"
    ORIGINAL_CRASH = "original_crash"
    VARIANT_TIMEOUT = "variant_timeout"
    CRASH_ON_REMOVED = "crash_on_removed"


# Verdicts that make a variant fail. OriginalCrash indicts the baseline and
# never counts against the variant; CrashOnRemoved is a legal (if noteworthy)
# way to lose a feature.
FAILING_VERDICTS = frozenset(
    {Verdict.UNEXPECTED_DIFFERENCE, Verdict.UNEXPECTED_MATCH, Verdict.VARIANT_CRASH, Verdict.VARIANT_TIMEOUT}
)
# The failing verdicts that summary.json counts as an error or crash: all
# but UnexpectedMatch, which it counts as a feature left in.
ERROR_OR_CRASH_VERDICTS = FAILING_VERDICTS - {Verdict.UNEXPECTED_MATCH}


@dataclass(frozen=True)
class TestVerdict:
    value: Verdict
    evidence: CompareReport
    input_used: DerivedInput
    variant_label: str
    feature_name: str
    disposition: Disposition
    command_index: int
    # The original and the variant both timed out, so only the output they
    # made before the deadline was compared. Not part of verdicts.jsonl.
    mutual_timeout: bool = False


@dataclass(frozen=True)
class CampaignReport:
    spec_id: str
    per_variant: dict[str, list[TestVerdict]]
    # (feature name, command index) of each command whose original ran its
    # seed input twice with different outcomes, in canonical order.
    nondeterministic_original: tuple[tuple[str, int], ...] = ()

    def variant_passed(self, label: str) -> bool:
        return all(v.value not in FAILING_VERDICTS for v in self.per_variant[label])


@dataclass(frozen=True)
class Budget:
    max_seconds: float | None = None
    max_mutants: int | None = None


def classify(
    disposition: Disposition,
    original: ExecOutcome,
    variant: ExecOutcome,
    report: CompareReport,
) -> Verdict:
    """The differential decision table; total over all outcome pairs."""
    orig_kind = original.termination.kind
    var_kind = variant.termination.kind
    if var_kind is TerminationKind.SIGNALED and orig_kind is not TerminationKind.SIGNALED:
        if disposition is Disposition.RETAIN:
            return Verdict.VARIANT_CRASH
        return Verdict.CRASH_ON_REMOVED
    if orig_kind is TerminationKind.SIGNALED:
        return Verdict.ORIGINAL_CRASH
    if var_kind is TerminationKind.TIMED_OUT and orig_kind is not TerminationKind.TIMED_OUT:
        return Verdict.VARIANT_TIMEOUT
    if disposition is Disposition.RETAIN:
        return Verdict.EXPECTED_MATCH if report.all_matched else Verdict.UNEXPECTED_DIFFERENCE
    return Verdict.UNEXPECTED_MATCH if report.all_matched else Verdict.EXPECTED_DIFFERENCE


# A mutant budget key: (variant index, feature index, command index).
TaskKey = tuple[int, int, int]


def _deal_mutants(wants: dict[TaskKey, int], max_mutants: int | None) -> dict[TaskKey, int]:
    """Per-task mutant caps: max_mutants dealt one at a time, round-robin.

    wants maps each task to its fuzz_count, in canonical order. Every round
    gives one mutant to each task that still wants one, so the caps depend
    only on the spec and the budget, never on which worker asks first.
    """
    if max_mutants is None:
        return dict(wants)
    caps = dict.fromkeys(wants, 0)
    left = max_mutants
    hungry = [key for key, want in wants.items() if want > 0]
    while left > 0 and hungry:
        for key in hungry[:left]:
            caps[key] += 1
        left -= min(left, len(hungry))
        hungry = [key for key in hungry if caps[key] < wants[key]]
    return caps


def run_campaign(
    spec: BenchmarkSpec,
    plan: MutationPlan,
    budget: Budget = Budget(),
    jobs: int = 1,
) -> CampaignReport:
    """Execute the full differential campaign for every variant.

    Each derived input of each (feature, command) is one task for a bounded
    thread pool: it runs the original once and compares that one outcome
    with every variant whose mutant cap reaches the input. Verdicts are
    collected on a single thread in canonical order, so reports are
    deterministic for deterministic programs and a fixed plan seed.
    budget.max_mutants is dealt before any task starts, so it keeps that
    determinism; budget.max_seconds is a best-effort deadline.
    """
    wants = {
        (vi, fi, ci): cmd.fuzz_count
        for vi in range(len(spec.variants))
        for fi, feature in enumerate(spec.features)
        for ci, cmd in enumerate(feature.commands)
    }
    caps = _deal_mutants(wants, budget.max_mutants)
    tasks = []
    for fi, feature in enumerate(spec.features):
        for ci, cmd in enumerate(feature.commands):
            reach = [caps[vi, fi, ci] for vi in range(len(spec.variants))]
            for inp in derive_commands(cmd, plan, feature.name, ci, 1 + max(reach)):
                takers = [v for v, cap in zip(spec.variants, reach) if inp.mutant_index <= cap]
                tasks.append((feature, ci, cmd, inp, takers))
    deadline = time.monotonic() + budget.max_seconds if budget.max_seconds is not None else None

    per_variant: dict[str, list[TestVerdict]] = {v.label: [] for v in spec.variants}
    nondeterministic = []
    with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
        results = pool.map(lambda task: _run_task(spec, task, deadline), tasks)
        for (feature, command_index, *_), (verdicts, repeated) in zip(tasks, results):
            for verdict in verdicts:
                per_variant[verdict.variant_label].append(verdict)
            if not repeated:
                nondeterministic.append((feature.name, command_index))

    return CampaignReport(spec.id, per_variant, tuple(nondeterministic))


def exec_request(spec: BenchmarkSpec, exe_path, inp: DerivedInput, cmd: TestCommand) -> ExecRequest:
    """The request that runs one derived input of cmd against exe_path.

    A relative exe_path is taken from the working directory, not the sandbox.
    """
    return ExecRequest(
        exe_path=exe_path.absolute(),
        argv=list(inp.argv),
        stdin=inp.stdin,
        env=dict(spec.env),
        timeout_seconds=spec.timeout_seconds,
        capture_files=list(cmd.expected_output_files),
    )


def _unstarted(message: str) -> ExecOutcome:
    """Exited(127) with message on stderr: the stand-in for a run that could not start."""
    return ExecOutcome(Termination.exited(127), b"", message.encode(), {}, 0.0, 0.0, 0)


def _run_task(spec: BenchmarkSpec, task, deadline: float | None) -> tuple[list[TestVerdict], bool]:
    """One derived input, run once against the original and once per variant.

    Returns the verdicts, and whether the original repeated itself: a seed
    input runs the original again and compares the two runs. The
    campaign's first input doubles as its preflight: if the original
    cannot start on it, the campaign is aborted.
    """
    feature, command_index, cmd, inp, variants = task
    if inp.is_fuzzed and deadline is not None and time.monotonic() >= deadline:
        return [], True

    def verdict(value: Verdict, report: CompareReport, variant, mutual_timeout: bool = False) -> TestVerdict:
        return TestVerdict(
            value, report, inp, variant.label, feature.name, feature.disposition, command_index, mutual_timeout
        )

    try:
        original_out = run_once(exec_request(spec, spec.original.exe_path, inp, cmd))
    except SpawnError as exc:
        if feature is spec.features[0] and command_index == inp.mutant_index == 0:
            raise CampaignAborted(f"original binary cannot run seed input: {exc}") from exc
        # Baseline failed to launch for this input: inconclusive.
        return [verdict(Verdict.ORIGINAL_CRASH, CompareReport((), False), v) for v in variants], True
    pipeline = spec.pipeline_for(feature)
    verdicts = []
    for variant in variants:
        try:
            variant_out = run_once(exec_request(spec, variant.exe_path, inp, cmd))
        except SpawnError as exc:
            variant_out = _unstarted(f"variant failed to launch: {exc}")
        report = compare(original_out, variant_out, pipeline)
        value = classify(feature.disposition, original_out, variant_out, report)
        mutual = original_out.termination.kind is variant_out.termination.kind is TerminationKind.TIMED_OUT
        verdicts.append(verdict(value, report, variant, mutual))
    if inp.mutant_index > 0:
        return verdicts, True
    try:
        again = run_once(exec_request(spec, spec.original.exe_path, inp, cmd))
    except SpawnError as exc:
        again = _unstarted(f"original failed to launch: {exc}")
    return verdicts, compare(original_out, again, pipeline).all_matched


# --- Report serialization ----------------------------------------------

def jsonl_pieces(report: CampaignReport) -> Iterator[bytes]:
    """verdicts.jsonl in pieces: one verdict per line, canonically ordered.

    The keys are sorted and stdin_b64 sorts between mutant_index and variant,
    so each line is three pieces: the fields before it, its base64 spliced in
    as bytes (JSON never escapes that alphabet), and the fields after it.
    """
    for label in sorted(report.per_variant):
        for v in report.per_variant[label]:
            head = {
                "all_matched": v.evidence.all_matched,
                "argv": list(v.input_used.argv),
                "command_index": v.command_index,
                "comparators": [
                    {"comparator": r.config.describe(), "matched": r.matched, "evidence": r.evidence}
                    for r in v.evidence.per_comparator
                ],
                "disposition": v.disposition.value,
                "feature": v.feature_name,
                "is_fuzzed": v.input_used.is_fuzzed,
                "mutant_index": v.input_used.mutant_index,
            }
            tail = {"variant": v.variant_label, "verdict": v.value.value}
            yield json.dumps(head, sort_keys=True)[:-1].encode() + b', "stdin_b64": "'
            yield base64.b64encode(v.input_used.stdin)
            yield b'", ' + json.dumps(tail, sort_keys=True)[1:].encode() + b"\n"


def report_to_jsonl(report: CampaignReport) -> bytes:
    """verdicts.jsonl as one bytes object, byte-stable across runs."""
    return b"".join(jsonl_pieces(report))


def summary_to_json(report: CampaignReport, seed: int) -> dict:
    """summary.json, every count derived from the verdicts.

    nondeterministic_original appears only when some command's original
    did not repeat itself.
    """
    labels = sorted(report.per_variant)

    def share(values: frozenset[Verdict]) -> dict:
        count = sum(any(v.value in values for v in report.per_variant[label]) for label in labels)
        return {"count": count, "fraction": count / len(labels)}

    doc = {
        "spec_id": report.spec_id,
        "seed": seed,
        "toolkit_version": __version__,
        "variants": {label: _variant_summary(report, label) for label in labels},
        "variants_with_error_or_crash": share(ERROR_OR_CRASH_VERDICTS),
        "variants_with_unremoved_feature": share(frozenset({Verdict.UNEXPECTED_MATCH})),
        "passed": sum(map(report.variant_passed, labels)),
    }
    if report.nondeterministic_original:
        doc["nondeterministic_original"] = [
            {"feature": feature, "command_index": index} for feature, index in report.nondeterministic_original
        ]
    return doc


def _variant_summary(report: CampaignReport, label: str) -> dict:
    """A variant's entry; mutual_timeouts appears only when some comparison had one."""
    verdicts = report.per_variant[label]
    entry = {"passed": report.variant_passed(label), "verdict_counts": Counter(v.value.value for v in verdicts)}
    mutual = sum(v.mutual_timeout for v in verdicts)
    if mutual:
        entry["mutual_timeouts"] = mutual
    return entry
