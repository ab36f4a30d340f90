from __future__ import annotations

import itertools
import json
import os
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from debloateval.comparator import (
    ComparatorConfig,
    ComparatorKind,
    ComparatorResult,
    CompareReport,
    compare,
    default_pipeline,
)
from debloateval.exec_harness import ExecOutcome, SpawnError, Termination
from debloateval.fuzz_engine import DerivedInput, MutationPlan
from debloateval import cli, verdict_engine
from debloateval.spec_model import Disposition, parse_spec
from debloateval.verdict_engine import (
    Budget,
    CampaignAborted,
    CampaignReport,
    FAILING_VERDICTS,
    TestVerdict,
    Verdict,
    classify,
    report_to_jsonl,
    run_campaign,
    summary_to_json,
)

from conftest import make_script, toy_spec_doc, write_spec
from oracles import reference_jsonl, reference_summary


def outcome(termination=None, stdout=b"") -> ExecOutcome:
    return ExecOutcome(termination or Termination.exited(0), stdout, b"", {}, 0.0, 0.0, 0)


def report_for(a: ExecOutcome, b: ExecOutcome) -> CompareReport:
    return compare(a, b, default_pipeline())


EXIT = Termination.exited(0)
SIGNAL = Termination.signaled(11)
TIMEOUT = Termination.timed_out()


def verdict(disposition, orig_term, var_term, same_stdout=True):
    orig = outcome(orig_term, b"x")
    var = outcome(var_term, b"x" if same_stdout else b"y")
    return classify(disposition, orig, var, report_for(orig, var))


# --- Decision table ------------------------------------------------------

def test_retain_match():
    assert verdict(Disposition.RETAIN, EXIT, EXIT) is Verdict.EXPECTED_MATCH


def test_retain_difference():
    assert verdict(Disposition.RETAIN, EXIT, EXIT, same_stdout=False) is Verdict.UNEXPECTED_DIFFERENCE


def test_debloat_difference():
    assert verdict(Disposition.DEBLOAT, EXIT, EXIT, same_stdout=False) is Verdict.EXPECTED_DIFFERENCE


def test_debloat_match():
    assert verdict(Disposition.DEBLOAT, EXIT, EXIT) is Verdict.UNEXPECTED_MATCH


def test_variant_crash_on_retained():
    assert verdict(Disposition.RETAIN, EXIT, SIGNAL) is Verdict.VARIANT_CRASH


def test_crash_on_removed_feature():
    assert verdict(Disposition.DEBLOAT, EXIT, SIGNAL) is Verdict.CRASH_ON_REMOVED


def test_original_crash_shields_variant():
    for disposition in Disposition:
        for var_term in (EXIT, SIGNAL, TIMEOUT):
            assert verdict(disposition, SIGNAL, var_term) is Verdict.ORIGINAL_CRASH


def test_variant_timeout():
    for disposition in Disposition:
        assert verdict(disposition, EXIT, TIMEOUT) is Verdict.VARIANT_TIMEOUT


def test_mutual_timeout_falls_through_to_comparison():
    assert verdict(Disposition.RETAIN, TIMEOUT, TIMEOUT) is Verdict.EXPECTED_MATCH


def test_classify_is_total():
    terms = (EXIT, Termination.exited(1), SIGNAL, TIMEOUT)
    for disposition, orig, var in itertools.product(Disposition, terms, terms):
        assert isinstance(verdict(disposition, orig, var), Verdict)


def test_failing_verdict_set():
    assert FAILING_VERDICTS == {
        Verdict.UNEXPECTED_DIFFERENCE,
        Verdict.UNEXPECTED_MATCH,
        Verdict.VARIANT_CRASH,
        Verdict.VARIANT_TIMEOUT,
    }
    assert Verdict.ORIGINAL_CRASH not in FAILING_VERDICTS
    assert Verdict.CRASH_ON_REMOVED not in FAILING_VERDICTS


# --- Campaigns on toy binaries ------------------------------------------

def run_toy(tmp_path, toy_pair, variants, fuzz_count=0, **kwargs):
    doc = toy_spec_doc(toy_pair, variants, fuzz_count=fuzz_count)
    spec = parse_spec(write_spec(tmp_path, doc).read_bytes())
    return run_campaign(spec, MutationPlan(seed=0), **kwargs)


def test_good_variant_passes(tmp_path, toy_pair):
    report = run_toy(tmp_path, toy_pair, ["no_b"])
    assert report.variant_passed("no_b")
    values = [v.value for v in report.per_variant["no_b"]]
    assert values == [Verdict.EXPECTED_MATCH, Verdict.EXPECTED_DIFFERENCE]


def test_identical_variant_fails_with_unexpected_match(tmp_path, toy_pair):
    report = run_toy(tmp_path, toy_pair, ["same"])
    assert not report.variant_passed("same")
    values = [v.value for v in report.per_variant["same"]]
    assert Verdict.UNEXPECTED_MATCH in values
    assert Verdict.VARIANT_CRASH not in values


def test_crashing_variant_fails_with_variant_crash(tmp_path, toy_pair):
    report = run_toy(tmp_path, toy_pair, ["crash_a"])
    assert not report.variant_passed("crash_a")
    values = [v.value for v in report.per_variant["crash_a"]]
    assert Verdict.VARIANT_CRASH in values
    assert Verdict.UNEXPECTED_MATCH not in values


def test_summary_counts_and_fractions(tmp_path, toy_pair):
    report = run_toy(tmp_path, toy_pair, ["no_b", "same", "crash_a"])
    summary = summary_to_json(report, 0)
    assert summary["passed"] == 1
    assert summary["variants_with_error_or_crash"] == {"count": 1, "fraction": pytest.approx(1 / 3)}
    assert summary["variants_with_unremoved_feature"] == {"count": 1, "fraction": pytest.approx(1 / 3)}


_ANY_INPUT = DerivedInput(("-",), b"", False, 0)


@given(st.lists(st.lists(st.sampled_from(Verdict), max_size=6), min_size=1, max_size=4))
def test_summary_counts_equal_their_first_definition(mixes):
    per_variant = {
        f"v{i}": [
            TestVerdict(value, CompareReport((), True), _ANY_INPUT, f"v{i}", "f", Disposition.RETAIN, 0)
            for value in values
        ]
        for i, values in enumerate(mixes)
    }
    summary = summary_to_json(CampaignReport("mix", per_variant), 0)
    reference = reference_summary(per_variant)
    assert {key: summary[key] for key in reference} == reference


def test_fuzzed_inputs_extend_campaign(tmp_path, toy_pair):
    report = run_toy(tmp_path, toy_pair, ["no_b"], fuzz_count=5)
    verdicts = report.per_variant["no_b"]
    assert len(verdicts) == 12  # (1 seed + 5 mutants) x 2 features
    assert sum(v.input_used.is_fuzzed for v in verdicts) == 10
    assert report.variant_passed("no_b")


def test_mutant_budget_caps_fuzzing(tmp_path, toy_pair):
    report = run_toy(tmp_path, toy_pair, ["no_b"], fuzz_count=5, budget=Budget(max_mutants=3))
    verdicts = report.per_variant["no_b"]
    assert sum(v.input_used.is_fuzzed for v in verdicts) == 3
    assert sum(not v.input_used.is_fuzzed for v in verdicts) == 2  # seeds are never charged


def test_mutant_budget_is_shared_fairly_across_variants(tmp_path):
    cat = "/bin/cat"
    if not os.access(cat, os.X_OK):
        pytest.skip("needs /bin/cat")
    command = {"argv": ["-"], "stdin": "{{bytes:0..16}}", "fuzz_count": 3}
    doc = {
        "id": "cat-fair",
        "original": {"label": "original", "exe": cat},
        "variants": [{"label": "v1", "exe": cat}, {"label": "v2", "exe": cat}],
        "features": [
            {"name": "plain", "disposition": "retain", "commands": [command]},
            {"name": "again", "disposition": "retain", "commands": [command]},
        ],
        "timeout_seconds": 10,
    }
    spec = parse_spec(write_spec(tmp_path, doc).read_bytes())
    report = run_campaign(spec, MutationPlan(seed=0), Budget(max_mutants=4), jobs=1)
    for label in ("v1", "v2"):
        assert sum(v.input_used.is_fuzzed for v in report.per_variant[label]) == 2


def test_budgeted_parallel_campaign_matches_serial(tmp_path, toy_pair):
    variants = ["no_b", "same", "crash_a"]
    budget = Budget(max_mutants=7)
    serial = report_to_jsonl(run_toy(tmp_path, toy_pair, variants, fuzz_count=3, budget=budget, jobs=1))
    assert sum(json.loads(line)["is_fuzzed"] for line in serial.splitlines()) == 7
    for _ in range(5):
        parallel = run_toy(tmp_path, toy_pair, variants, fuzz_count=3, budget=budget, jobs=4)
        assert report_to_jsonl(parallel) == serial


@pytest.mark.parametrize("max_mutants", [None, 7])
def test_original_runs_once_per_input_for_every_variant(tmp_path, toy_pair, monkeypatch, max_mutants):
    runs = []  # exe path of every run; list.append is atomic across workers

    real_run_once = verdict_engine.run_once

    def counting_run_once(request):
        runs.append(request.exe_path)
        return real_run_once(request)

    monkeypatch.setattr(verdict_engine, "run_once", counting_run_once)
    variants = ["no_b", "same", "crash_a"]
    budget = Budget(max_mutants=max_mutants)
    blobs = []
    for jobs in (1, 4):
        runs.clear()
        report = run_toy(tmp_path, toy_pair, variants, fuzz_count=3, budget=budget, jobs=jobs)
        blobs.append(report_to_jsonl(report))
        rows = [json.loads(line) for line in blobs[-1].splitlines()]
        inputs = {(r["feature"], r["command_index"], r["mutant_index"]) for r in rows}
        seeds = sum(mutant_index == 0 for _, _, mutant_index in inputs)
        # Once per input, whatever the number of variants, and once more on each seed input.
        assert runs.count(toy_pair["original"]) == len(inputs) + seeds
        assert len(runs) == len(inputs) + seeds + len(rows)
        if max_mutants is None:
            assert len(inputs) == 8  # (1 seed + 3 mutants) x 2 features
            assert len(runs) == (1 + len(variants)) * 8 + 2
    assert blobs[0] == blobs[1]


def test_original_spawn_failure_after_preflight_is_original_crash_per_variant(tmp_path, toy_pair, monkeypatch):
    real_run_once = verdict_engine.run_once
    original_runs = []

    def flaky_original(request):
        if request.exe_path == toy_pair["original"]:
            original_runs.append(request)
            if len(original_runs) > 1:  # only the preflight run succeeds
                raise SpawnError("gone")
        return real_run_once(request)

    monkeypatch.setattr(verdict_engine, "run_once", flaky_original)
    report = run_toy(tmp_path, toy_pair, ["no_b", "same", "crash_a"])
    # The preflight, the preflight input's second run (which cannot
    # start either, so the original did not repeat itself), and feature-b's input.
    assert len(original_runs) == 3
    for label, verdicts in report.per_variant.items():
        assert [v.value for v in verdicts][1:] == [Verdict.ORIGINAL_CRASH], label
    assert report.nondeterministic_original == (("feature-a", 0),)


def test_budget_bounds_the_derived_inputs_and_keeps_their_verdicts(tmp_path, toy_pair, monkeypatch):
    derived = []
    real_derive = verdict_engine.derive_commands

    def counting_derive(*args, **kwargs):
        inputs = real_derive(*args, **kwargs)
        derived.append(len(inputs))
        return inputs

    monkeypatch.setattr(verdict_engine, "derive_commands", counting_derive)
    variants = ["no_b", "same", "crash_a"]
    full = report_to_jsonl(run_toy(tmp_path, toy_pair, variants, fuzz_count=3))
    assert derived == [4, 4]
    derived.clear()
    # 7 mutants over 6 (variant, command) tasks: feature-a's first variant gets 2, the rest 1.
    budgeted = report_to_jsonl(run_toy(tmp_path, toy_pair, variants, fuzz_count=3, budget=Budget(max_mutants=7)))
    assert derived == [3, 2]
    assert set(budgeted.splitlines()) <= set(full.splitlines())
    covering = run_toy(tmp_path, toy_pair, variants, fuzz_count=3, budget=Budget(max_mutants=18))
    assert report_to_jsonl(covering) == full


def test_exhausted_time_budget_still_runs_seeds(tmp_path, toy_pair):
    report = run_toy(tmp_path, toy_pair, ["no_b"], fuzz_count=5, budget=Budget(max_seconds=0.0))
    verdicts = report.per_variant["no_b"]
    assert sum(v.input_used.is_fuzzed for v in verdicts) == 0
    assert len(verdicts) == 2


def test_parallel_campaign_matches_serial(tmp_path, toy_pair):
    serial = run_toy(tmp_path, toy_pair, ["no_b", "same"], fuzz_count=3, jobs=1)
    parallel = run_toy(tmp_path, toy_pair, ["no_b", "same"], fuzz_count=3, jobs=4)
    assert report_to_jsonl(serial) == report_to_jsonl(parallel)


def clock_spec(tmp_path, comparators=None) -> dict:
    """A spec whose original prints the clock's nanoseconds for "now" and a constant otherwise."""
    clock = make_script(tmp_path, "clock", '''\
        case "$1" in
          now) date +%N;;
          *) echo fixed;;
        esac
        ''')
    feature = {"name": "clock", "disposition": "retain",
               "commands": [{"argv": ["now"], "fuzz_count": 2}, {"argv": ["fixed"], "fuzz_count": 2}]}
    if comparators is not None:
        feature["comparators"] = comparators
    return {
        "id": "clock",
        "original": {"label": "original", "exe": str(clock)},
        "variants": [{"label": "a", "exe": str(clock)}, {"label": "b", "exe": str(clock)}],
        "features": [feature],
    }


def test_an_original_that_does_not_repeat_itself_is_reported(tmp_path):
    spec = parse_spec(write_spec(tmp_path, clock_spec(tmp_path)).read_bytes())
    for jobs in (1, 3):
        report = run_campaign(spec, MutationPlan(seed=0), jobs=jobs)
        assert report.nondeterministic_original == (("clock", 0),)
        assert summary_to_json(report, 0)["nondeterministic_original"] == [{"feature": "clock", "command_index": 0}]


def test_the_repeat_check_compares_under_the_features_pipeline(tmp_path):
    digits = [{"kind": "stdout_normalized", "normalizers": [{"pattern": "[0-9]+", "replacement": "N"}]}]
    spec = parse_spec(write_spec(tmp_path, clock_spec(tmp_path, digits)).read_bytes())
    report = run_campaign(spec, MutationPlan(seed=0))
    assert report.nondeterministic_original == ()
    assert "nondeterministic_original" not in summary_to_json(report, 0)


def test_missing_original_aborts_campaign(tmp_path, toy_pair):
    doc = toy_spec_doc(toy_pair, ["no_b"])
    doc["original"]["exe"] = str(tmp_path / "gone")
    spec = parse_spec(write_spec(tmp_path, doc).read_bytes())
    with pytest.raises(CampaignAborted):
        run_campaign(spec, MutationPlan(seed=0))


def test_missing_variant_becomes_differential_failure(tmp_path, toy_pair):
    doc = toy_spec_doc(toy_pair, ["no_b"])
    doc["variants"][0]["exe"] = str(tmp_path / "gone")
    spec = parse_spec(write_spec(tmp_path, doc).read_bytes())
    report = run_campaign(spec, MutationPlan(seed=0))
    assert not report.variant_passed("no_b")
    assert all(v.value is not Verdict.VARIANT_CRASH for v in report.per_variant["no_b"])


def test_a_file_neither_run_made_matches_when_the_variant_cannot_start(tmp_path, toy_pair):
    # A run that never started digests no file, so its out.txt is as absent
    # as the original's, which never writes one.
    noexec = tmp_path / "noexec"
    noexec.write_bytes(b"not a program\n")
    noexec.chmod(0o644)
    doc = toy_spec_doc({**toy_pair, "noexec": noexec}, ["noexec"], fuzz_count=2)
    doc["comparators"] = [{"kind": "exit_status"}, {"kind": "stdout_exact"}, {"kind": "file_digest", "path": "out.txt"}]
    for feature in doc["features"]:
        feature["commands"][0]["files"] = ["out.txt"]
    report = run_campaign(parse_spec(write_spec(tmp_path, doc).read_bytes()), MutationPlan(seed=0))
    lines = [json.loads(line) for line in report_to_jsonl(report).splitlines()]
    assert len(lines) == 6
    for line in lines:
        assert [c["matched"] for c in line["comparators"]] == [False, False, True]
        assert line["comparators"][0]["evidence"] == "Exited(0) vs Exited(127)"
        assert line["comparators"][2] == {"comparator": "file_digest(out.txt)", "evidence": "", "matched": True}
    assert [line["verdict"] for line in lines] == ["unexpected_difference"] * 3 + ["expected_difference"] * 3
    assert summary_to_json(report, 0) == {
        "passed": 0,
        "seed": 0,
        "spec_id": "toy",
        "toolkit_version": "0.1.0",
        "variants": {
            "noexec": {"passed": False, "verdict_counts": {"expected_difference": 3, "unexpected_difference": 3}}
        },
        "variants_with_error_or_crash": {"count": 1, "fraction": 1.0},
        "variants_with_unremoved_feature": {"count": 0, "fraction": 0.0},
    }


# --- Serialization -------------------------------------------------------

def test_jsonl_is_valid_sorted_and_stable(tmp_path, toy_pair):
    first = run_toy(tmp_path, toy_pair, ["same", "no_b"], fuzz_count=2)
    second = run_toy(tmp_path, toy_pair, ["same", "no_b"], fuzz_count=2)
    blob = report_to_jsonl(first)
    assert blob == report_to_jsonl(second)
    rows = [json.loads(line) for line in blob.splitlines()]
    labels = [r["variant"] for r in rows]
    assert labels == sorted(labels)
    for row in rows:
        assert set(row) >= {"variant", "feature", "verdict", "argv", "stdin_b64", "comparators"}


def test_summary_json_shape(tmp_path, toy_pair):
    report = run_toy(tmp_path, toy_pair, ["no_b", "same"])
    summary = summary_to_json(report, 0)
    assert summary["spec_id"] == "toy"
    assert summary["variants"]["no_b"]["passed"] is True
    assert summary["variants"]["same"]["passed"] is False
    assert summary["variants"]["no_b"]["verdict_counts"] == {
        "expected_difference": 1,
        "expected_match": 1,
    }
    assert summary["passed"] == 1


def _bulk_report(verdicts: int, stdin_size: int) -> CampaignReport:
    """A report of verdicts over inputs of stdin_size random bytes each, split over two variants."""
    rng = random.Random(0)
    evidence = CompareReport(
        (
            ComparatorResult(ComparatorConfig(ComparatorKind.EXIT_STATUS), True, "both exited 0"),
            ComparatorResult(ComparatorConfig(ComparatorKind.STDOUT_EXACT), False, "first difference at byte 7"),
        ),
        False,
    )
    per_variant = {"v1": [], "v0": []}
    for i in range(verdicts):
        inp = DerivedInput(("-w", str(i)), rng.randbytes(stdin_size), i > 0, i)
        label = "v1" if i % 2 else "v0"
        per_variant[label].append(
            TestVerdict(Verdict.UNEXPECTED_DIFFERENCE, evidence, inp, label, "encode", Disposition.RETAIN, 0)
        )
    return CampaignReport("bulk", per_variant)


def test_jsonl_equals_its_first_definition(tmp_path, toy_pair):
    budgeted = run_toy(tmp_path, toy_pair, ["no_b", "same", "crash_a"], fuzz_count=3, budget=Budget(max_mutants=7))
    silent = CampaignReport("empty", {"v0": [], "v1": []})
    assert report_to_jsonl(silent) == reference_jsonl(silent) == b""
    for report in (budgeted, _bulk_report(4, 64 * 1024)):
        blob = report_to_jsonl(report)
        assert blob == reference_jsonl(report)
        assert blob.count(b"\n") == sum(map(len, report.per_variant.values()))


def test_writing_jsonl_holds_no_copy_of_it(tmp_path):
    report = _bulk_report(100, 64 * 1024)
    path = tmp_path / "verdicts.jsonl"
    tracemalloc.start()
    try:
        cli.report_to_jsonl(report, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A line's pieces are written before the next line is made.
    assert path.read_bytes() == reference_jsonl(report)
    assert peak < 0.1 * path.stat().st_size
