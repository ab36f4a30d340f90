from __future__ import annotations

import _posixsubprocess
import errno
import json
import math
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from debloateval import cli, elf, gadget_analyzer, verdict_engine
from debloateval.cli import EXIT_ANOMALIES, EXIT_ERROR, EXIT_OK, main
from debloateval.comparator import ComparatorConfig, ComparatorKind, ComparatorResult, CompareReport
from debloateval.elf import executable_segments
from debloateval.fuzz_engine import DerivedInput
from debloateval.spec_model import BinaryRef, Disposition, parse_spec
from debloateval.verdict_engine import CampaignReport, TestVerdict, Verdict

from conftest import LIBC, make_script, toy_spec_doc, write_elf, write_spec
from oracles import reference_jsonl
from test_spec_format import _pipeline, _relative, _template, _text


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, [str(a) for a in args])


# --- validate ------------------------------------------------------------

def test_validate_good_spec(runner, tmp_path, toy_pair):
    spec = write_spec(tmp_path, toy_spec_doc(toy_pair, ["no_b"]))
    result = invoke(runner, "validate", "--spec", spec)
    assert result.exit_code == EXIT_OK
    assert "1 variant(s), 2 feature(s)" in result.output


def test_validate_reports_missing_binaries(runner, tmp_path, toy_pair):
    doc = toy_spec_doc(toy_pair, ["no_b"])
    doc["variants"][0]["exe"] = str(tmp_path / "gone")
    spec = write_spec(tmp_path, doc)
    result = invoke(runner, "validate", "--spec", spec)
    assert result.exit_code == EXIT_OK
    assert "warning" in result.output


def test_validate_malformed_spec_is_exit_2(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    result = invoke(runner, "validate", "--spec", bad)
    assert result.exit_code == EXIT_ERROR


def test_validate_missing_spec_file_is_exit_2(runner, tmp_path):
    result = invoke(runner, "validate", "--spec", tmp_path / "absent.json")
    assert result.exit_code == EXIT_ERROR


def _spec_command(command: str, spec: Path, tmp_path: Path) -> list:
    """The arguments that run command on spec; tool-wrap's tool is /bin/true."""
    args = [command, "--spec", spec]
    if command != "validate":
        args += ["--out", tmp_path / "out"]
    if command == "tool-wrap":
        args += ["--output", tmp_path / "never", "/bin/true"]
    return args


@pytest.mark.parametrize("command", ["validate", "differ", "metrics", "tool-wrap"])
@pytest.mark.parametrize(
    "text, message",
    [
        ("{nope", "malformed JSON: "),
        ("[1]", "top-level value must be an object"),
        ('{"id": 5}', "id: expected string, got integer"),
        (
            json.dumps({
                "id": "t", "original": {"label": "o", "exe": "/bin/true"}, "variants": [{"label": "v", "exe": "/bin/false"}],
                "features": [{"name": "f", "disposition": "retain", "commands": [{"argv": ["x"]}]}],
                "comparators": [{"kind": "file_digest", "path": "out.txt"}],
            }),
            "features[0].commands[0].files: lacks 'out.txt', which a file_digest comparator reads",
        ),
    ],
)
def test_spec_errors_name_the_spec_file(runner, tmp_path, command, text, message):
    spec = tmp_path / "bad.json"
    spec.write_text(text)
    result = invoke(runner, *_spec_command(command, spec, tmp_path))
    assert result.exit_code == EXIT_ERROR
    assert f"error: {message}" in result.output
    assert f"(in {spec})" in result.output


@pytest.mark.parametrize("command", ["validate", "differ", "metrics", "tool-wrap"])
def test_malformed_command_template_is_exit_2_naming_its_path(runner, tmp_path, toy_pair, command):
    doc = toy_spec_doc(toy_pair, ["no_b"])
    doc["features"][1]["commands"][0]["argv"] = ["b", "{{ascii:1..}}"]
    result = invoke(runner, *_spec_command(command, write_spec(tmp_path, doc), tmp_path))
    assert result.exit_code == EXIT_ERROR
    assert "features[1].commands[0].argv[1]" in result.output


@pytest.mark.parametrize("command", ["validate", "differ", "metrics", "tool-wrap"])
def test_a_bytes_hole_in_an_argv_template_is_exit_2_naming_its_path_and_nothing_runs(runner, tmp_path, command):
    # A bytes hole may draw NUL, which no argument can carry; stdin keeps them.
    marker = tmp_path / "ran"
    exe = make_script(tmp_path, "prog", f'echo ran >> "{marker}"\n')
    commands = [{"argv": ["-"], "stdin": "{{bytes:0..4}}"}, {"argv": ["-n", "{{bytes:1..2}}"]}]
    doc = {
        "id": "t", "original": {"label": "o", "exe": str(exe)}, "variants": [{"label": "v", "exe": str(exe)}],
        "features": [{"name": "f", "disposition": "retain", "commands": commands}],
    }
    args = _spec_command(command, write_spec(tmp_path, doc), tmp_path)
    if command == "tool-wrap":
        args[-1] = exe
    result = invoke(runner, *args)
    assert result.exit_code == EXIT_ERROR
    assert "error: features[0].commands[1].argv[1]: a bytes hole can draw NUL" in result.output
    assert not marker.exists()


@pytest.mark.parametrize("command", ["validate", "differ", "metrics", "tool-wrap"])
def test_an_argument_longer_than_exec_takes_is_exit_2_naming_its_path_and_nothing_runs(runner, tmp_path, command):
    # 200,000 bytes pass the hole cap, but exec fails with E2BIG past 131,071.
    marker = tmp_path / "ran"
    exe = make_script(tmp_path, "prog", f'echo ran >> "{marker}"\n')
    doc = {
        "id": "t", "original": {"label": "o", "exe": str(exe)}, "variants": [{"label": "v", "exe": str(exe)}],
        "features": [{"name": "f", "disposition": "retain", "commands": [{"argv": ["{{ascii:200000..200000}}"]}]}],
    }
    args = _spec_command(command, write_spec(tmp_path, doc), tmp_path)
    if command == "tool-wrap":
        args[-1] = exe
    result = invoke(runner, *args)
    assert result.exit_code == EXIT_ERROR
    assert "error: features[0].commands[0].argv[0]: renders to at least 200000 bytes" in result.output
    assert not marker.exists()


@pytest.mark.parametrize("command", ["validate", "differ", "metrics", "tool-wrap"])
def test_a_hole_longer_than_the_cap_is_exit_2_naming_its_path(runner, tmp_path, toy_pair, command):
    # Rejected at parse: no seed value of four billion bytes is ever made.
    doc = toy_spec_doc(toy_pair, ["no_b"])
    doc["features"][0]["commands"][0]["stdin"] = "{{ascii:4000000000..4000000000}}"
    result = invoke(runner, *_spec_command(command, write_spec(tmp_path, doc), tmp_path))
    assert result.exit_code == EXIT_ERROR
    assert "error: features[0].commands[0].stdin: bad template: " in result.output


@pytest.mark.parametrize("command", ["differ", "metrics", "tool-wrap"])
def test_an_out_that_is_a_file_is_exit_2_before_anything_runs(runner, tmp_path, monkeypatch, command):
    marker = tmp_path / "ran"
    exe = make_script(tmp_path, "prog", f'echo ran >> "{marker}"\n')
    doc = {
        "id": "t", "original": {"label": "o", "exe": str(exe)}, "variants": [{"label": "v", "exe": str(exe)}],
        "features": [{"name": "f", "disposition": "retain", "commands": [{"argv": ["-"], "fuzz_count": 3}]}],
    }
    campaigns = []
    monkeypatch.setattr(cli, "run_campaign", lambda *args, **kwargs: campaigns.append(args))
    args = _spec_command(command, write_spec(tmp_path, doc), tmp_path)
    if command == "tool-wrap":
        args[-1] = exe
    (tmp_path / "out").write_text("a file, not a directory")
    result = invoke(runner, *args)
    assert result.exit_code == EXIT_ERROR
    assert "error: " in result.output
    assert campaigns == []
    assert not marker.exists()


@pytest.mark.parametrize("command", ["validate", "differ", "metrics", "tool-wrap"])
def test_lone_surrogate_in_a_spec_string_is_exit_2_naming_its_path(runner, tmp_path, toy_pair, command):
    places = {
        "id": lambda doc: doc.update(id="toy\ud800"),
        "variants[0].label": lambda doc: doc["variants"][0].update(label="v\ud800"),
        "features[1].name": lambda doc: doc["features"][1].update(name="\udcff"),
        "env": lambda doc: doc.update(env={"K\ud800": "v"}),
        "env.K": lambda doc: doc.update(env={"K": "\ud800"}),
    }
    for path, plant in places.items():
        doc = toy_spec_doc(toy_pair, ["no_b"])
        plant(doc)
        result = invoke(runner, *_spec_command(command, write_spec(tmp_path, doc), tmp_path))
        assert result.exit_code == EXIT_ERROR, path
        assert f"error: {path}: not UTF-8" in result.output


@pytest.mark.parametrize("command", ["validate", "differ", "metrics", "tool-wrap"])
def test_nul_in_a_string_that_reaches_the_os_is_exit_2_naming_its_path(runner, tmp_path, toy_pair, command):
    places = {
        "original.exe": lambda doc: doc["original"].update(exe="/bin/c\0at"),
        "variants[0].libs[0]": lambda doc: doc["variants"][0].update(libs=["/lib/libc\0.so.6"]),
        "features[1].commands[0].argv[0]": lambda doc: doc["features"][1]["commands"][0].update(argv=["b\0"]),
        "features[0].commands[0].files[0]": lambda doc: doc["features"][0]["commands"][0].update(files=["o\0"]),
        "env.K": lambda doc: doc.update(env={"K": "v\0"}),
        "env": lambda doc: doc.update(env={"A=B": "v"}),
    }
    for path, plant in places.items():
        doc = toy_spec_doc(toy_pair, ["no_b"])
        plant(doc)
        args = _spec_command(command, write_spec(tmp_path, doc), tmp_path)
        result = invoke(runner, *args, *(["--aggregate-libs"] if command == "metrics" else []))
        assert result.exit_code == EXIT_ERROR, (path, result.output)
        assert f"error: {path}: " in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("differ", "--jobs", "-3"),
        ("differ", "--jobs", "0"),
        ("differ", "--max-mutants", "-5"),
        ("differ", "--max-seconds", "-1"),
        ("tool-wrap", "--max-seconds", "0"),
        *(("differ", "--max-seconds", value) for value in ("nan", "inf", "-inf")),
        *(("tool-wrap", "--max-seconds", value) for value in ("nan", "inf", "-inf")),
    ],
)
def test_out_of_range_numeric_option_is_exit_2_naming_it(runner, tmp_path, toy_pair, command, option, value):
    spec = write_spec(tmp_path, toy_spec_doc(toy_pair, ["no_b"]))
    args = [command, "--spec", spec, "--out", tmp_path / "out", option, value]
    if command == "tool-wrap":
        args += ["--output", tmp_path / "never", "/bin/true"]
    result = invoke(runner, *args)
    assert result.exit_code == EXIT_ERROR
    assert f"Invalid value for '{option}'" in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "literal", ["NaN", "Infinity", "-Infinity", "1e999", pytest.param("1" + "0" * 400, id="400-digit-int")]
)
def test_non_finite_timeout_is_exit_2_naming_its_path(runner, tmp_path, literal):
    # Every run would time out at once, and a variant that does nothing
    # would then pass: both runs time out, so the outputs are never compared.
    spec = _cat_false_spec(tmp_path, literal)
    result = invoke(runner, "differ", "--spec", spec, "--out", tmp_path / "out")
    assert result.exit_code == EXIT_ERROR, result.output
    assert "error: timeout_seconds: " in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


def _cat_false_spec(tmp_path: Path, timeout: str, fuzz_count: str | None = None) -> Path:
    """A spec whose variant, /bin/false, keeps none of /bin/cat's retained feature.

    timeout and fuzz_count are JSON number literals, written as given.
    """
    command = {"argv": ["-"], "stdin": "hello"}
    if fuzz_count is not None:
        command = {"argv": ["-"], "stdin": "he{{ascii:1..4}}", "fuzz_count": "FUZZ"}
    doc = {
        "id": "cat-false",
        "original": {"label": "original", "exe": "/bin/cat"},
        "variants": [{"label": "false", "exe": "/bin/false"}],
        "features": [{"name": "cat", "disposition": "retain", "anchor": True, "commands": [command]}],
        "timeout_seconds": "TIMEOUT",
    }
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc).replace('"TIMEOUT"', timeout).replace('"FUZZ"', str(fuzz_count)))
    return spec


def test_a_timeout_past_what_one_poll_can_wait_is_honoured(runner, tmp_path, toy_pair):
    # poll() waits at most 2**31 - 1 ms, so the wait for a run runs in slices.
    doc = toy_spec_doc(toy_pair, ["no_b"])
    doc["timeout_seconds"] = 3_000_000
    result = invoke(runner, "differ", "--spec", write_spec(tmp_path, doc), "--out", tmp_path / "out")
    assert result.exit_code == EXIT_OK, result.output


def test_mutual_timeouts_are_counted_in_summary_and_report(runner, tmp_path):
    # Both sides time out on every input, so nothing real is compared and
    # the decision table lets a variant that does nothing pass; the count
    # says so, and verdicts.jsonl keeps its bytes.
    out = tmp_path / "out"
    result = invoke(runner, "differ", "--spec", _cat_false_spec(tmp_path, "1e-6", "1"), "--out", out)
    assert result.exit_code == EXIT_OK, result.output
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] == 1
    assert summary["variants"]["false"] == {
        "passed": True, "verdict_counts": {"expected_match": 2}, "mutual_timeouts": 2,
    }
    assert "mutual" not in (out / "verdicts.jsonl").read_text()
    assert "Mutual timeouts (original and variant both timed out; " in (out / "report.md").read_text()
    assert "): false=2." in (out / "report.md").read_text()


def test_no_mutual_timeout_writes_no_count(runner, tmp_path, toy_pair):
    out = tmp_path / "out"
    result = invoke(runner, "differ", "--spec", write_spec(tmp_path, toy_spec_doc(toy_pair, ["no_b"])), "--out", out)
    assert result.exit_code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["variants"]["no_b"]) == {"passed", "verdict_counts"}
    assert "nondeterministic_original" not in summary
    assert "Mutual timeouts" not in (out / "report.md").read_text()
    assert "Nondeterministic original" not in (out / "report.md").read_text()


def test_an_original_that_does_not_repeat_itself_is_named_in_summary_and_report(runner, tmp_path):
    clock = make_script(tmp_path, "clock", "date +%N\n")
    doc = {
        "id": "clock",
        "original": {"label": "original", "exe": str(clock)},
        "variants": [{"label": "copy", "exe": str(clock)}],
        "features": [{"name": "now", "disposition": "retain", "commands": [{"argv": ["x"]}]}],
    }
    out = tmp_path / "out"
    result = invoke(runner, "differ", "--spec", write_spec(tmp_path, doc), "--out", out)
    assert result.exit_code == EXIT_ANOMALIES  # the copy differs from the original's first run
    summary = json.loads((out / "summary.json").read_text())
    assert summary["nondeterministic_original"] == [{"feature": "now", "command_index": 0}]
    report = (out / "report.md").read_text()
    assert "Nondeterministic original (two runs of the seed input differ" in report
    assert "): now#0." in report


@given(
    timeout=st.sampled_from(["NaN", "Infinity", "0", "1e-6", "1e-300", "0.001", "0.5", "5"]),
    fuzz_count=st.sampled_from(["0", "1", "2", "-1"]),
    seed=st.integers(0, 2**32),
    max_mutants=st.sampled_from([None, "0", "1", "7"]),
    jobs=st.sampled_from(["1", "2"]),
)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_a_variant_that_does_nothing_never_passes_unremarked(tmp_path_factory, timeout, fuzz_count, seed,
                                                             max_mutants, jobs):
    # /bin/false keeps none of /bin/cat's retained feature. Whatever the
    # numbers, differ names the bad one, fails the variant, or passes it
    # only where summary.json shows the mutual timeouts that let it pass.
    tmp_path = tmp_path_factory.mktemp("metamorphic")
    out = tmp_path / "out"
    args = ["differ", "--spec", _cat_false_spec(tmp_path, timeout, fuzz_count), "--out", out,
            "--seed", seed, "--jobs", jobs]
    if max_mutants is not None:
        args += ["--max-mutants", max_mutants]
    result = invoke(CliRunner(), *args)
    event(f"exit {result.exit_code}")
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert "Traceback" not in result.output
    if result.exit_code == EXIT_ERROR:
        assert re.search(r"error: (timeout_seconds|features\[0\]\.commands\[0\]\.fuzz_count): ", result.output), result.output
        return
    summary = json.loads((out / "summary.json").read_text())
    entry = summary["variants"]["false"]
    if result.exit_code == EXIT_ANOMALIES:
        assert entry["passed"] is False
    else:
        assert result.exit_code == EXIT_OK, result.output
        assert entry["passed"] is True
        assert entry["mutual_timeouts"] == sum(entry["verdict_counts"].values())


_EXIT_STATUS = {"kind": "exit_status"}


def _with_exit_status(pipeline: list) -> list:
    return pipeline if _EXIT_STATUS in pipeline else [_EXIT_STATUS, *pipeline]


@st.composite
def _cat_false_documents(draw) -> tuple[str, float]:
    """A cat/false spec drawn with the spec format's strategies, as JSON, and its timeout.

    The timeout may be NaN or +-Infinity, which the JSON spells as such.
    Every pipeline compares exit status, so /bin/false can never match
    /bin/cat's reading of its stdin.
    """
    command = st.fixed_dictionaries(
        {"argv": st.just(["-"])},
        optional={"stdin": _template, "files": st.lists(_relative, max_size=2), "fuzz_count": st.integers(0, 2)},
    )
    commands = draw(st.lists(command, min_size=1, max_size=2))
    feature = {"name": draw(_text), "disposition": "retain", "anchor": True, "commands": commands}
    override = draw(st.none() | _pipeline(commands))
    if override is not None:
        feature["comparators"] = _with_exit_status(override[0])
    doc = {
        "id": draw(_text.filter(bool)),
        "original": {"label": "original", "exe": "/bin/cat"},
        "variants": [{"label": "false", "exe": "/bin/false"}],
        "features": [feature],
        "comparators": _with_exit_status(draw(_pipeline([] if override else commands))[0]),
        "timeout_seconds": draw(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1e-6]) | st.floats(1e-3, 5)),
    }
    return json.dumps(doc), doc["timeout_seconds"]


@given(
    document=_cat_false_documents(),
    seed=st.integers(0, 2**32),
    max_mutants=st.sampled_from([None, "0", "1", "7"]),
    jobs=st.sampled_from(["1", "2"]),
)
@settings(max_examples=25, deadline=None)
def test_a_generated_variant_that_does_nothing_never_passes_unremarked(tmp_path_factory, document, seed,
                                                                       max_mutants, jobs):
    text, timeout = document
    # Only the timeout's own token: a generated id or name may spell NaN too.
    assert bool(re.search(r'"timeout_seconds": (NaN|-?Infinity)[,}]', text)) == (not math.isfinite(timeout))
    tmp_path = tmp_path_factory.mktemp("metamorphic")
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    out = tmp_path / "out"
    args = ["differ", "--spec", spec, "--out", out, "--seed", seed, "--jobs", jobs]
    if max_mutants is not None:
        args += ["--max-mutants", max_mutants]
    result = invoke(CliRunner(), *args)
    event(f"exit {result.exit_code}")
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert "Traceback" not in result.output
    if not (math.isfinite(timeout) and timeout > 0):
        assert result.exit_code == EXIT_ERROR and "error: timeout_seconds: " in result.output, result.output
        return
    entry = json.loads((out / "summary.json").read_text())["variants"]["false"]
    if result.exit_code == EXIT_ANOMALIES:
        assert entry["passed"] is False
    else:
        assert result.exit_code == EXIT_OK, result.output
        assert entry["passed"] is True
        assert entry["mutual_timeouts"] == sum(entry["verdict_counts"].values())


def test_differ_jobs_default_is_the_cpus_this_process_may_run_on(runner, tmp_path, toy_pair, monkeypatch):
    seen = []
    real = cli.run_campaign
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(cli, "run_campaign", lambda *args, jobs: seen.append(jobs) or real(*args, jobs=jobs))
    spec = write_spec(tmp_path, toy_spec_doc(toy_pair, ["no_b"]))
    result = invoke(runner, "differ", "--spec", spec, "--out", tmp_path / "out")
    assert result.exit_code == EXIT_OK
    assert seen == [1]


# --- differ --------------------------------------------------------------

def test_differ_passing_variant(runner, tmp_path, toy_pair):
    spec = write_spec(tmp_path, toy_spec_doc(toy_pair, ["no_b"]))
    out = tmp_path / "out"
    result = invoke(runner, "differ", "--spec", spec, "--out", out)
    assert result.exit_code == EXIT_OK
    verdicts = [json.loads(l) for l in (out / "verdicts.jsonl").read_text().splitlines()]
    assert {v["verdict"] for v in verdicts} == {"expected_match", "expected_difference"}
    summary = json.loads((out / "summary.json").read_text())
    assert summary["variants"]["no_b"]["passed"] is True
    assert summary["seed"] == 0
    assert (out / "report.md").is_file()


def test_differ_failing_variant_is_exit_1(runner, tmp_path, toy_pair):
    spec = write_spec(tmp_path, toy_spec_doc(toy_pair, ["same"]))
    out = tmp_path / "out"
    result = invoke(runner, "differ", "--spec", spec, "--out", out)
    assert result.exit_code == EXIT_ANOMALIES
    summary = json.loads((out / "summary.json").read_text())
    assert summary["variants"]["same"]["passed"] is False


def test_differ_missing_original_is_exit_2(runner, tmp_path, toy_pair):
    doc = toy_spec_doc(toy_pair, ["no_b"])
    doc["original"]["exe"] = str(tmp_path / "gone")
    spec = write_spec(tmp_path, doc)
    result = invoke(runner, "differ", "--spec", spec, "--out", tmp_path / "out")
    assert result.exit_code == EXIT_ERROR


def test_differ_aggressive_winnows_spec(runner, tmp_path, toy_pair):
    spec = write_spec(tmp_path, toy_spec_doc(toy_pair, ["no_b"]))
    out = tmp_path / "out"
    result = invoke(runner, "differ", "--spec", spec, "--out", out, "--aggressive")
    assert result.exit_code == EXIT_OK
    verdicts = [json.loads(l) for l in (out / "verdicts.jsonl").read_text().splitlines()]
    dispositions = {v["feature"]: v["disposition"] for v in verdicts}
    assert dispositions == {"feature-a": "retain", "feature-b": "debloat"}


def test_differ_seed_is_recorded_and_output_stable(runner, tmp_path, toy_pair):
    spec = write_spec(tmp_path, toy_spec_doc(toy_pair, ["no_b"], fuzz_count=3))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    invoke(runner, "differ", "--spec", spec, "--out", out1, "--seed", 7)
    invoke(runner, "differ", "--spec", spec, "--out", out2, "--seed", 7)
    assert (out1 / "verdicts.jsonl").read_bytes() == (out2 / "verdicts.jsonl").read_bytes()
    assert json.loads((out1 / "summary.json").read_text())["seed"] == 7


def _one_verdict(label: str, stdin: bytes = b"x", argv=("-",), evidence: str = "first difference at byte 0") -> TestVerdict:
    inp = DerivedInput(tuple(argv), stdin, False, 0)
    result = ComparatorResult(ComparatorConfig(ComparatorKind.STDOUT_EXACT), False, evidence)
    return TestVerdict(Verdict.UNEXPECTED_DIFFERENCE, CompareReport((result,), False), inp, label, "feature-a",
                       Disposition.RETAIN, 0)


@pytest.mark.parametrize("per_variant", [
    {"v": [_one_verdict("v", stdin=b"")]},
    {"v": [_one_verdict("v", stdin=bytes(range(256)))]},
    {"v": [_one_verdict("v", argv=('say "hi"', "back\\slash", "two\nlines", "naïve ☃ \x7f"),
                        evidence='"quoted" \\ line\nbreak — é \x00')]},
    {"zeta": [_one_verdict("zeta", stdin=b"z")], "alpha": [_one_verdict("alpha", stdin=b"a" * 100)]},
    {"v0": [], "v1": []},
], ids=["empty-stdin", "every-byte", "escapes", "labels-against-spec-order", "no-verdicts"])
def test_differ_writes_the_jsonl_of_both_definitions(runner, tmp_path, toy_pair, monkeypatch, per_variant):
    # The line is spliced around its stdin's base64: every character JSON
    # escapes must still come out as one json.dumps of the whole line writes it.
    report = CampaignReport("toy", per_variant)
    monkeypatch.setattr(cli, "run_campaign", lambda *args, **kwargs: report)
    spec = write_spec(tmp_path, toy_spec_doc(toy_pair, ["no_b"]))
    out = tmp_path / "out"
    assert invoke(runner, "differ", "--spec", spec, "--out", out).exit_code in (EXIT_OK, EXIT_ANOMALIES)
    blob = (out / "verdicts.jsonl").read_bytes()
    assert blob == verdict_engine.report_to_jsonl(report) == reference_jsonl(report)
    assert blob.count(b"\n") == sum(map(len, per_variant.values()))


def test_artifacts_are_utf8_under_an_ascii_locale(tmp_path, toy_pair):
    # A non-ASCII label or spec id, and the dash report.md always has, must
    # not depend on the locale's encoding.
    doc = toy_spec_doc(toy_pair, ["no_b"])
    doc["id"] = "toy-ü"
    doc["variants"][0]["label"] = "sans-b-é"
    spec = write_spec(tmp_path, doc)
    src = Path(gadget_analyzer.__file__).parents[1]
    base = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "PYTHONUTF8", "PYTHONIOENCODING"))}
    locales = {
        "utf8": {"LC_ALL": "C.UTF-8"},
        "ascii": {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
    }
    for name, env in locales.items():
        for command in ("metrics", "differ"):
            args = [command, "--spec", spec, "--out", tmp_path / name] + (["--no-perf"] if command == "metrics" else [])
            proc = subprocess.run(
                [sys.executable, "-c", "from debloateval.cli import main; main()", *map(str, args)],
                capture_output=True, env={**base, **env, "PYTHONPATH": str(src)}, timeout=120,
            )
            assert proc.returncode == EXIT_OK, (name, command, proc.stderr)
    for artifact in ("metrics.json", "summary.json", "verdicts.jsonl", "report.md"):
        assert (tmp_path / "ascii" / artifact).read_bytes() == (tmp_path / "utf8" / artifact).read_bytes(), artifact
    assert "sans-b-é" in (tmp_path / "ascii" / "report.md").read_text(encoding="utf-8")


def test_differ_aggressive_without_anchor_is_exit_2(runner, tmp_path, toy_pair):
    doc = toy_spec_doc(toy_pair, ["no_b"])
    del doc["features"][0]["anchor"]
    spec = write_spec(tmp_path, doc)
    result = invoke(runner, "differ", "--spec", spec, "--out", tmp_path / "out", "--aggressive")
    assert result.exit_code == EXIT_ERROR
    assert "no aggressive anchor" in result.output


def test_unusable_scratch_is_exit_2(runner, tmp_path, toy_pair, monkeypatch):
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file, not a directory")
    monkeypatch.setenv("DV_SCRATCH", str(blocker / "x"))
    spec = write_spec(tmp_path, toy_spec_doc(toy_pair, ["no_b"]))
    out = tmp_path / "out"
    for args in (
        ["differ", "--spec", spec, "--out", out],
        ["metrics", "--spec", spec, "--out", out],
        ["tool-wrap", "--spec", spec, "--out", out, "--output", tmp_path / "never", toy_pair["original"]],
    ):
        result = invoke(runner, *args)
        assert result.exit_code == EXIT_ERROR, args[0]
        assert f"cannot prepare sandbox under {blocker / 'x'}" in result.output


def _host_cannot_fork(monkeypatch, exe: Path) -> None:
    """Make every start of exe fail as on a host out of processes (EAGAIN)."""
    real = _posixsubprocess.fork_exec

    def fork_exec(args, *rest):
        if args[0] == str(exe):
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real(args, *rest)

    # Python 3.11 and later call subprocess._fork_exec; 3.10 calls the module's own.
    monkeypatch.setattr(subprocess, "_fork_exec", fork_exec, raising=False)
    monkeypatch.setattr(_posixsubprocess, "fork_exec", fork_exec)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_variant_the_host_cannot_start_is_exit_2_not_a_verdict(runner, tmp_path, toy_pair, monkeypatch, jobs):
    _host_cannot_fork(monkeypatch, toy_pair["no_b"])
    out = tmp_path / "out"
    spec = write_spec(tmp_path, toy_spec_doc(toy_pair, ["no_b"]))
    result = invoke(runner, "differ", "--spec", spec, "--out", out, "--jobs", jobs)
    assert result.exit_code == EXIT_ERROR
    assert f"error: [Errno {errno.EAGAIN}] " in result.output
    assert not (out / "verdicts.jsonl").exists()


def test_metrics_whose_variant_the_host_cannot_start_is_exit_2_not_n_a(runner, tmp_path, toy_pair, monkeypatch):
    _host_cannot_fork(monkeypatch, toy_pair["no_b"])
    out = tmp_path / "out"
    spec = write_spec(tmp_path, toy_spec_doc(toy_pair, ["no_b"], trials=2))
    result = invoke(runner, "metrics", "--spec", spec, "--out", out)
    assert result.exit_code == EXIT_ERROR
    assert f"error: [Errno {errno.EAGAIN}] " in result.output
    assert not (out / "metrics.json").exists()


# --- metrics -------------------------------------------------------------

def elf_spec(tmp_path):
    original = write_elf(tmp_path, "orig.elf", code=b"\x5f\x5e\x5a\xc3\x0f\x05",
                         needed=["libm.so.6", "libc.so.6"])
    variant = write_elf(tmp_path, "var.elf", code=b"\x5f\x5e\x5a\xc3",
                        needed=["libc.so.6"])
    doc = {
        "id": "elves",
        "original": {"label": "orig", "exe": str(original)},
        "variants": [{"label": "slim", "exe": str(variant)}],
        "features": [
            {"name": "run", "disposition": "retain", "commands": [{"argv": ["x"]}]}
        ],
    }
    return write_spec(tmp_path, doc)


def test_metrics_on_crafted_elves(runner, tmp_path):
    spec = elf_spec(tmp_path)
    out = tmp_path / "out"
    result = invoke(runner, "metrics", "--spec", spec, "--out", out, "--no-perf")
    assert result.exit_code == EXIT_OK
    doc = json.loads((out / "metrics.json").read_text())
    row = doc["variants"]["slim"]
    assert row["libs_eliminated"] == ["libm.so.6"]
    assert row["libs_introduced"] == []
    assert row["syscall_event"] == "eliminated"
    assert row["expressivity_delta"] >= 1  # syscall_invoke class removed
    assert row["runtime_pct"] is None  # perf skipped
    assert 0.0 < row["size_pct"] < 100.0
    report = (out / "report.md").read_text()
    assert "## Performance metrics" in report
    assert "## Security metrics" in report
    assert "N/A" in report  # runtime column


def test_metrics_with_perf_on_scripts(runner, tmp_path, toy_pair):
    doc = toy_spec_doc(toy_pair, ["no_b"], trials=2)
    spec = write_spec(tmp_path, doc)
    out = tmp_path / "out"
    result = invoke(runner, "metrics", "--spec", spec, "--out", out)
    assert result.exit_code == EXIT_OK
    row = json.loads((out / "metrics.json").read_text())["variants"]["no_b"]
    assert row["runtime_pct"] is not None
    assert row["memory_pct"] is not None
    # Shell scripts are not ELF binaries: security metrics degrade to N/A.
    assert row["expressivity_delta"] is None
    assert row["locality_pct"] is None


def _host_out_of_descriptors(monkeypatch, owner, name: str, real, path: Path) -> None:
    """Make owner.name fail on path as on a host out of file descriptors (EMFILE)."""

    def call(target, *rest, **kwargs):
        if str(target) == str(path):
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE), str(target))
        return real(target, *rest, **kwargs)

    monkeypatch.setattr(owner, name, call, raising=False)


def _foreign_machine(path: Path) -> None:
    """Mark the ELF at path as AArch64: its libraries can be read, its code not scanned."""
    image = bytearray(path.read_bytes())
    image[18:20] = (183).to_bytes(2, "little")
    path.write_bytes(bytes(image))


_SIZE = ["size_pct"]
_LIBS = ["libs_introduced", "libs_eliminated"]
_GADGETS = ["expressivity_delta", "quality_delta", "sp_types_delta", "syscall_event", "locality_pct"]
# Every cell of a metrics.json row, named here and not taken from the records
# that fill them, so a renamed PerfDelta or SecurityDelta field fails.
_ROW = {*_SIZE, "size_aggregate", *_LIBS, "runtime_pct", "memory_pct", *_GADGETS, "quality_significant"}

# (case, change to the spec's original and variant, the cells left null, or
# None where the command must exit 2 naming the errno and the variant).
_CELL_CASES = [
    ("variant missing", lambda mp, orig, var: var.unlink(), _SIZE + _LIBS + _GADGETS),
    ("variant a directory", lambda mp, orig, var: (var.unlink(), var.mkdir()), _SIZE + _LIBS + _GADGETS),
    ("variant not an ELF", lambda mp, orig, var: var.write_bytes(b"#!/bin/sh\n"), _LIBS + _GADGETS),
    ("original empty", lambda mp, orig, var: orig.write_bytes(b""), _SIZE + _LIBS + _GADGETS),
    ("original of another machine", lambda mp, orig, var: _foreign_machine(orig), _GADGETS),
    ("host limit at the size stat",
     lambda mp, orig, var: _host_out_of_descriptors(mp, Path, "stat", Path.stat, var), None),
    ("host limit at the gadget reader",
     lambda mp, orig, var: _host_out_of_descriptors(mp, elf, "open", open, var), None),
    # The original's code cannot be scanned, so only the library reader opens the variant.
    ("host limit at the library reader",
     lambda mp, orig, var: (_foreign_machine(orig), _host_out_of_descriptors(mp, elf, "open", open, var)), None),
]


@pytest.mark.parametrize("change, null", [case[1:] for case in _CELL_CASES], ids=[case[0] for case in _CELL_CASES])
def test_a_metrics_cell_is_null_only_where_its_metric_is_undefined(runner, tmp_path, monkeypatch, change, null):
    spec = elf_spec(tmp_path)
    out = tmp_path / "out"
    variant = tmp_path / "var.elf"
    change(monkeypatch, tmp_path / "orig.elf", variant)
    result = invoke(runner, "metrics", "--spec", spec, "--out", out, "--no-perf")
    if null is None:
        assert result.exit_code == EXIT_ERROR
        assert f"error: [Errno {errno.EMFILE}] Too many open files: '{variant}'" in result.output
        assert not (out / "metrics.json").exists()
        return
    assert result.exit_code == EXIT_OK, result.output
    row = json.loads((out / "metrics.json").read_text())["variants"]["slim"]
    assert set(row) == _ROW
    assert {cell for cell in _SIZE + _LIBS + _GADGETS if row[cell] is None} == set(null)


def test_two_metrics_runs_of_one_spec_write_the_same_bytes(runner, tmp_path):
    # metrics.json carries no clock: it is a function of the spec, the binaries and the flags.
    spec = elf_spec(tmp_path)
    outs = [tmp_path / "out1", tmp_path / "out2"]
    for out in outs:
        assert invoke(runner, "metrics", "--spec", spec, "--out", out, "--no-perf").exit_code == EXIT_OK
    for name in ("metrics.json", "report.md"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.mark.skipif(not Path("/bin/cat").is_file(), reason="/bin/cat unavailable")
def test_a_relative_exe_names_the_same_file_for_every_command(runner, tmp_path, monkeypatch):
    # Relative to the working directory, never to a run's sandbox: the
    # metrics' trials and differ's runs exec what validate checked.
    (tmp_path / "bin").mkdir()
    for name in ("cat", "cat2"):
        shutil.copy2("/bin/cat", tmp_path / "bin" / name)
    doc = {
        "id": "relative",
        "original": {"label": "original", "exe": "bin/cat"},
        "variants": [{"label": "copy", "exe": "bin/cat2"}],
        "features": [{"name": "echo", "disposition": "retain", "commands": [{"argv": ["-"], "stdin": "hi"}]}],
        "trials": 1,
    }
    spec = write_spec(tmp_path, doc)
    monkeypatch.chdir(tmp_path)
    result = invoke(runner, "validate", "--spec", spec)
    assert (result.exit_code, "warning" in result.output) == (EXIT_OK, False), result.output
    result = invoke(runner, "differ", "--spec", spec, "--out", "d")
    assert result.exit_code == EXIT_OK, result.output
    result = invoke(runner, "metrics", "--spec", spec, "--out", "m")
    assert result.exit_code == EXIT_OK, result.output
    row = json.loads((tmp_path / "m" / "metrics.json").read_text())["variants"]["copy"]
    assert row["runtime_pct"] is not None
    assert row["locality_pct"] == 100.0


GZIP = Path("/usr/bin/gzip")


@pytest.mark.skipif(LIBC is None or not GZIP.is_file(), reason="needs /usr/bin/gzip and libc.so.6")
@pytest.mark.parametrize("flags", [[], ["--aggregate-libs"]])
def test_a_variant_identical_to_its_original_peaks_at_the_same_memory(tmp_path, flags):
    # A child's peak memory starts at the CLI's high-water mark, which reading
    # code raises, so every side's trials must run before any code is read. The
    # CLI runs in its own process, whose high-water mark is its own.
    def side(label):
        return {"label": label, "exe": str(GZIP), "libs": [str(LIBC)]}

    command = {"argv": ["-c"], "stdin": "some text to compress"}
    doc = {
        "id": "gzip", "original": side("orig"), "variants": [side("same")], "trials": 3,
        "features": [{"name": "compress", "disposition": "retain", "commands": [command]}],
    }
    out = tmp_path / "out"
    src = Path(gadget_analyzer.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", "from debloateval.cli import main; main()",
         "metrics", "--spec", str(write_spec(tmp_path, doc)), "--out", str(out), *flags],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    row = json.loads((out / "metrics.json").read_text())["variants"]["same"]
    assert set(row) == _ROW
    assert row["memory_pct"] == pytest.approx(100.0, abs=1.0)


def test_seed_requests_derive_only_the_seed_input(tmp_path, toy_pair, monkeypatch):
    derived = []
    real_derive = cli.derive_commands

    def counting_derive(*args, **kwargs):
        inputs = real_derive(*args, **kwargs)
        derived.append(len(inputs))
        return inputs

    monkeypatch.setattr(cli, "derive_commands", counting_derive)
    spec = parse_spec(write_spec(tmp_path, toy_spec_doc(toy_pair, ["no_b"], fuzz_count=500)).read_bytes())
    requests = cli._seed_requests(spec, toy_pair["original"])
    assert [r.argv for r in requests] == [["a", "alpha"]]
    assert derived == [1]


def test_metrics_bad_spec_is_exit_2(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    result = invoke(runner, "metrics", "--spec", bad, "--out", tmp_path / "out")
    assert result.exit_code == EXIT_ERROR


def test_metrics_on_sed_with_its_libraries_equal_the_set_based_values(runner, tmp_path):
    sed = Path("/usr/bin/sed")
    if not sed.is_file() or shutil.which("ldd") is None:
        pytest.skip("/usr/bin/sed or ldd unavailable")
    ldd = subprocess.run(["ldd", str(sed)], capture_output=True, text=True, check=True).stdout
    libs = [Path(path) for path in re.findall(r"=> (/\S+) \(", ldd)]
    # The variant is sed with 4 KB in the middle of its code stubbed by int3.
    data = bytearray(sed.read_bytes())
    _, code = executable_segments(sed)[0]
    middle = data.index(code) + len(code) // 2
    data[middle : middle + 4096] = b"\xcc" * 4096
    stubbed = tmp_path / "sed"
    stubbed.write_bytes(bytes(data))
    doc = {
        "id": "sed",
        "original": {"label": "orig", "exe": str(sed), "libs": [str(lib) for lib in libs]},
        "variants": [{"label": "stubbed", "exe": str(stubbed), "libs": [str(lib) for lib in libs]}],
        "features": [{"name": "run", "disposition": "retain", "commands": [{"argv": ["--version"]}]}],
    }
    out = tmp_path / "out"
    result = invoke(
        runner, "metrics", "--spec", write_spec(tmp_path, doc), "--out", out, "--no-perf", "--aggregate-libs"
    )
    assert result.exit_code == EXIT_OK
    row = json.loads((out / "metrics.json").read_text())["variants"]["stubbed"]

    sets = [
        gadget_analyzer.scan_regions(
            gadget_analyzer.extract_code_regions(BinaryRef(label, exe, tuple(libs)), aggregate_libs=True)
        )
        for label, exe in (("orig", sed), ("stubbed", stubbed))
    ]
    assert sets[0] != sets[1]
    delta = gadget_analyzer.compare_sets(*map(gadget_analyzer.build_report, sets))
    assert row["expressivity_delta"] == delta.expressivity_delta
    assert row["quality_delta"] == delta.quality_delta
    assert row["quality_significant"] == delta.quality_significant
    assert row["sp_types_delta"] == delta.sp_types_delta
    assert row["syscall_event"] == delta.syscall_event.value
    assert row["locality_pct"] == gadget_analyzer.locality(*sets)


def test_metrics_reads_and_sweeps_each_of_many_libraries_once(runner, tmp_path, monkeypatch):
    # More libraries than any fixed cache of 32 entries holds, listed by the
    # original and by two variants.
    libs = [
        write_elf(tmp_path, f"lib{i}.so", code=bytes([0x58 + i % 8]) * (1 + i // 8) + b"\x0f\x05")
        for i in range(40)
    ]
    exes = [write_elf(tmp_path, name, code=b"\x5f\x5e\xc3") for name in ("orig", "v1", "v2")]
    side = [{"label": exe.name, "exe": str(exe), "libs": [str(lib) for lib in libs]} for exe in exes]
    doc = {
        "id": "many-libs", "original": side[0], "variants": side[1:],
        "features": [{"name": "run", "disposition": "retain", "commands": [{"argv": ["-"]}]}],
    }
    read, swept = Counter(), Counter()
    read_headers, sweep = elf._read_headers, gadget_analyzer._sweep
    monkeypatch.setattr(elf, "_read_headers", lambda fd, size, path: read.update([path]) or read_headers(fd, size, path))
    monkeypatch.setattr(gadget_analyzer, "_sweep", lambda data, *span: swept.update([data]) or sweep(data, *span))
    out = tmp_path / "out"
    result = invoke(
        runner, "metrics", "--spec", write_spec(tmp_path, doc), "--out", out, "--no-perf", "--aggregate-libs"
    )
    assert result.exit_code == EXIT_OK, result.output
    assert [read[lib] for lib in libs] == [1] * 40
    assert len(swept) == 41 and set(swept.values()) == {1}  # the shared exe code and each library's
    rows = json.loads((out / "metrics.json").read_text())["variants"]
    assert [rows[label]["locality_pct"] for label in ("v1", "v2")] == [100.0, 100.0]


# --- gadgets compare -----------------------------------------------------

def test_gadgets_compare_outputs_delta_json(runner, tmp_path):
    original = write_elf(tmp_path, "orig.elf", code=b"\x5f\x5e\x5a\xc3\x0f\x05")
    variant = write_elf(tmp_path, "var.elf", code=b"\xc3")
    result = invoke(
        runner, "gadgets", "compare", "--original", original, "--variant", variant
    )
    assert result.exit_code == EXIT_OK
    doc = json.loads(result.output)
    assert doc["original"]["syscall_gadgets"] == 1
    assert doc["variant"]["gadgets"] == 1
    assert doc["delta"]["syscall_event"] == "eliminated"
    assert doc["delta"]["locality_pct"] == 0.0


@pytest.mark.skipif(LIBC is None, reason="libc.so.6 unavailable")
def test_gadgets_compare_on_libc_prints_exactly_one_document():
    # libc is summarised in chunks, each after the first in a forked child
    # when this host lets the process run on more than one CPU. A child
    # must add nothing to stdout or stderr, nor leave the exit status to chance.
    src = Path(gadget_analyzer.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", "from debloateval.cli import main; main()",
         "gadgets", "compare", "--original", str(LIBC), "--variant", str(LIBC)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    doc = json.loads(proc.stdout)  # a second document would be "Extra data"
    assert doc["original"] == doc["variant"]
    assert doc["delta"]["locality_pct"] == 100.0


def test_gadgets_compare_rejects_non_elf(runner, tmp_path):
    junk = tmp_path / "junk"
    junk.write_bytes(b"not elf")
    result = invoke(runner, "gadgets", "compare", "--original", junk, "--variant", junk)
    assert result.exit_code == EXIT_ERROR


def test_gadgets_compare_has_no_aggregate_libs_flag(runner, tmp_path):
    # A bare path carries no library list; metrics --aggregate-libs on a spec does.
    binary = write_elf(tmp_path, "a.elf", code=b"\xc3")
    result = invoke(
        runner, "gadgets", "compare", "--original", binary, "--variant", binary, "--aggregate-libs"
    )
    assert result.exit_code == EXIT_ERROR
    assert "--aggregate-libs" in result.output


# --- tool-wrap -----------------------------------------------------------

def test_tool_wrap_successful_tool(runner, tmp_path, toy_pair):
    doc = toy_spec_doc(toy_pair, ["no_b"])
    del doc["trials"]  # a key the input leaves out stays out
    spec = write_spec(tmp_path, doc)
    produced = tmp_path / "debloated"
    tool = make_script(
        tmp_path, "debloater", f'cp "{toy_pair["original"]}" "{produced}"\n'
    )
    out = tmp_path / "out"
    result = invoke(
        runner, "tool-wrap", "--spec", spec, "--out", out, "--output", produced, tool
    )
    assert result.exit_code == EXIT_OK
    assert "succeeded=True" in result.output
    perf = json.loads((out / "tool_perf.json").read_text())
    assert {key: type(value) for key, value in perf.items()} == {
        "cpu_minutes": float, "peak_mb": float, "succeeded": bool, "termination": str,
    }
    assert perf["succeeded"] is True
    assert perf["cpu_minutes"] >= 0.0
    # The input's own document, in its key order, with the one new variant appended.
    variant = {"label": f"tool-wrap-{produced.name}", "exe": str(produced)}
    updated = (out / "spec.updated.json").read_bytes()
    assert updated == json.dumps({**doc, "variants": [*doc["variants"], variant]}, indent=2).encode()
    before = parse_spec(spec.read_bytes())
    assert parse_spec(updated) == replace(before, variants=(*before.variants, BinaryRef(variant["label"], produced)))


def test_tool_wrap_builds_the_updated_spec_from_the_bytes_it_validated(runner, tmp_path, toy_pair, monkeypatch):
    doc = toy_spec_doc(toy_pair, ["no_b"])
    spec = write_spec(tmp_path, doc)
    produced = tmp_path / "debloated"
    tool = make_script(tmp_path, "debloater", f'cp "{toy_pair["original"]}" "{produced}"\n')
    parse = cli.parse_spec

    def parse_then_rewrite(data):
        parsed = parse(data)
        spec.write_text("rewritten once validated")
        return parsed

    monkeypatch.setattr(cli, "parse_spec", parse_then_rewrite)
    out = tmp_path / "out"
    result = invoke(runner, "tool-wrap", "--spec", spec, "--out", out, "--output", produced, tool)
    assert result.exit_code == EXIT_OK, result.output
    variant = {"label": f"tool-wrap-{produced.name}", "exe": str(produced)}
    updated = (out / "spec.updated.json").read_bytes()
    assert updated == json.dumps({**doc, "variants": [*doc["variants"], variant]}, indent=2).encode()


def test_tool_wrap_duplicate_variant_label_is_exit_2(runner, tmp_path, toy_pair):
    produced = tmp_path / "debloated"
    marker = tmp_path / "tool-ran"
    doc = toy_spec_doc(toy_pair, ["no_b"])
    doc["variants"][0]["label"] = f"tool-wrap-{produced.name}"
    tool = make_script(
        tmp_path, "debloater", f'touch "{marker}"\ncp "{toy_pair["original"]}" "{produced}"\n'
    )
    out = tmp_path / "out"
    result = invoke(
        runner, "tool-wrap", "--spec", write_spec(tmp_path, doc), "--out", out,
        "--output", produced, tool,
    )
    assert result.exit_code == EXIT_ERROR
    assert "variants[1].label" in result.output
    # The spec is rejected before the tool starts.
    assert not marker.exists()
    assert not (out / "tool_perf.json").exists()


def test_tool_wrap_failing_tool_records_failure(runner, tmp_path, toy_pair):
    spec = write_spec(tmp_path, toy_spec_doc(toy_pair, ["no_b"]))
    tool = make_script(tmp_path, "broken", "exit 3\n")
    out = tmp_path / "out"
    result = invoke(
        runner, "tool-wrap", "--spec", spec, "--out", out, "--output",
        tmp_path / "never", tool
    )
    assert result.exit_code == EXIT_OK
    perf = json.loads((out / "tool_perf.json").read_text())
    assert perf["succeeded"] is False
    assert not (out / "spec.updated.json").exists()


@pytest.mark.parametrize("tool", ["/bin/false", "/bin/true"])
def test_tool_wrap_does_not_count_a_stale_output_as_produced(runner, tmp_path, toy_pair, tool):
    spec = write_spec(tmp_path, toy_spec_doc(toy_pair, ["no_b"]))
    stale = tmp_path / "debloated"
    stale.write_bytes(b"left by an earlier run")
    out = tmp_path / "out"
    result = invoke(runner, "tool-wrap", "--spec", spec, "--out", out, "--output", stale, tool)
    assert result.exit_code == EXIT_OK
    assert json.loads((out / "tool_perf.json").read_text())["succeeded"] is False
    assert not (out / "spec.updated.json").exists()


def test_tool_wrap_runs_a_tool_given_by_a_relative_path(runner, tmp_path, toy_pair, monkeypatch):
    spec = write_spec(tmp_path, toy_spec_doc(toy_pair, ["no_b"]))
    produced = tmp_path / "debloated"
    make_script(tmp_path, "mk.sh", f'cp "{toy_pair["original"]}" "{produced}"\n')
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    result = invoke(runner, "tool-wrap", "--spec", spec, "--out", out, "--output", produced, "./mk.sh")
    assert result.exit_code == EXIT_OK, result.output
    assert json.loads((out / "tool_perf.json").read_text())["succeeded"] is True


def test_tool_wrap_runs_a_tool_found_on_path(runner, tmp_path, toy_pair, monkeypatch):
    spec = write_spec(tmp_path, toy_spec_doc(toy_pair, ["no_b"]))
    produced = tmp_path / "debloated"
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    make_script(bin_dir, "debloat-tool", f'cp "{toy_pair["original"]}" "{produced}"\n')
    monkeypatch.setenv("PATH", f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")
    out = tmp_path / "out"
    result = invoke(runner, "tool-wrap", "--spec", spec, "--out", out, "--output", produced, "debloat-tool")
    assert result.exit_code == EXIT_OK, result.output
    assert json.loads((out / "tool_perf.json").read_text())["succeeded"] is True


def test_tool_wrap_unlaunchable_tool_is_exit_2(runner, tmp_path, toy_pair):
    spec = write_spec(tmp_path, toy_spec_doc(toy_pair, ["no_b"]))
    result = invoke(
        runner, "tool-wrap", "--spec", spec, "--out", tmp_path / "out",
        "--output", tmp_path / "never", tmp_path / "missing-tool"
    )
    assert result.exit_code == EXIT_ERROR


# --- report --------------------------------------------------------------

def test_report_rerenders_existing_artifacts(runner, tmp_path, toy_pair):
    spec = write_spec(tmp_path, toy_spec_doc(toy_pair, ["no_b"]))
    out = tmp_path / "out"
    invoke(runner, "differ", "--spec", spec, "--out", out)
    (out / "report.md").unlink()
    result = invoke(runner, "report", "--out", out)
    assert result.exit_code == EXIT_OK
    assert (out / "report.md").read_text().startswith("# Variant evaluation report")


def test_report_missing_dir_is_exit_2(runner, tmp_path):
    result = invoke(runner, "report", "--out", tmp_path / "nothing-here")
    assert result.exit_code == EXIT_ERROR


def test_report_on_summary_that_is_not_json_is_exit_2(runner, tmp_path):
    (tmp_path / "summary.json").write_text("{truncated")
    result = invoke(runner, "report", "--out", tmp_path)
    assert result.exit_code == EXIT_ERROR
    assert str(tmp_path / "summary.json") in result.output


def test_report_on_metrics_missing_a_key_is_exit_2(runner, tmp_path):
    (tmp_path / "metrics.json").write_text(json.dumps({"spec_id": "x", "seed": 0, "variants": {}}))
    result = invoke(runner, "report", "--out", tmp_path)
    assert result.exit_code == EXIT_ERROR
    assert str(tmp_path / "metrics.json") in result.output


def test_version_flag(runner):
    result = invoke(runner, "--version")
    assert result.exit_code == EXIT_OK


def test_help_lists_every_command_with_its_one_line_help(runner):
    result = invoke(runner, "--help")
    assert result.exit_code == EXIT_OK
    assert result.output.split("Commands:\n", 1)[1].splitlines() == [
        "  differ     Run the differential campaign for every variant.",
        "  gadgets    Gadget-set analysis commands.",
        "  metrics    Compute size, library, performance, and security metrics.",
        "  report     Re-render report.md from artifacts already in the output...",
        "  tool-wrap  Run a debloating tool under CPU/memory accounting.",
        "  validate   Parse a spec and check its binaries on disk.",
    ]
    result = invoke(runner, "tool-wrap", "--help")
    assert result.exit_code == EXIT_OK
    assert result.output.split("\n\n")[1] == "  Run a debloating tool under CPU/memory accounting."


# --- memory floor and start-up ------------------------------------------

_REPORT_LOADED = """\
import json, sys
from debloateval.cli import main
try:
    main(sys.argv[1:])
except SystemExit as exit:
    code = exit.code
with open("/proc/self/maps") as maps:
    libcrypto = "libcrypto" in maps.read()
print(json.dumps({
    "layers": sorted(m.partition(".")[2] for m in sys.modules if m.startswith("debloateval.")),
    "stdlib": [m for m in ("concurrent.futures", "subprocess", "statistics") if m in sys.modules],
}))
print(code, "_hashlib" in sys.modules, libcrypto)
"""


def _fresh(script: str, *args) -> list[str]:
    """The stdout lines of script run with args in a new interpreter on this checkout's source."""
    src = Path(gadget_analyzer.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
    )
    assert proc.returncode == 0, (args, proc.stdout, proc.stderr)
    return proc.stdout.splitlines()


def _elves_with_libc(tmp_path: Path) -> Path:
    lib = write_elf(tmp_path, "libc.so.6", code=b"\x5f\xc3")
    elves = json.loads(elf_spec(tmp_path).read_text())
    for ref in [elves["original"], *elves["variants"]]:
        ref["libs"] = [str(lib)]
    return write_spec(tmp_path, elves, "elves.json")


def test_no_cli_command_loads_openssl(tmp_path, toy_pair):
    # hashlib would map OpenSSL's libcrypto, about 3.4 MiB, for a few short digests.
    toy = write_spec(tmp_path, toy_spec_doc(toy_pair, ["no_b"]), "toy.json")
    commands = [
        ["validate", "--spec", toy],
        ["differ", "--spec", toy, "--out", tmp_path / "differ"],
        ["metrics", "--spec", _elves_with_libc(tmp_path), "--out", tmp_path / "metrics",
         "--no-perf", "--aggregate-libs"],
    ]
    for args in commands:
        assert _fresh(_REPORT_LOADED, *args)[-1] == "0 False False", args[0]


SPEC_LAYERS = ["cli", "comparator", "digest", "fuzz_engine", "spec_model"]
GADGET_LAYERS = ["elf", "gadget_analyzer", "x86"]


def test_each_command_loads_only_its_own_layers(tmp_path, toy_pair):
    # The source is compiled on every call where bytecode is not cached, so
    # each layer a command does not run costs it start-up time.
    toy = write_spec(tmp_path, toy_spec_doc(toy_pair, ["no_b"]), "toy.json")
    elves = _elves_with_libc(tmp_path)
    exes = json.loads(elves.read_text())
    commands = [
        (["validate", "--spec", toy], SPEC_LAYERS, []),
        (["differ", "--spec", toy, "--out", tmp_path / "differ"],
         SPEC_LAYERS + ["exec_harness", "verdict_engine"], ["concurrent.futures", "subprocess"]),
        (["report", "--out", tmp_path / "differ"], SPEC_LAYERS, []),
        (["metrics", "--spec", elves, "--out", tmp_path / "metrics", "--no-perf", "--aggregate-libs"],
         SPEC_LAYERS + GADGET_LAYERS + ["binary_metrics"], []),
        (["gadgets", "compare", "--original", exes["original"]["exe"], "--variant", exes["variants"][0]["exe"]],
         SPEC_LAYERS + GADGET_LAYERS, []),
        (["tool-wrap", "--spec", toy, "--out", tmp_path / "wrap", "--output", tmp_path / "never", "/bin/true"],
         SPEC_LAYERS + ["exec_harness"], ["subprocess"]),
    ]
    for args, layers, stdlib in commands:
        *_, loaded, status = _fresh(_REPORT_LOADED, *args)
        assert status.startswith("0 "), args[:2]
        assert json.loads(loaded) == {"layers": sorted(layers), "stdlib": stdlib}, args[:2]


_COUNT_CALLS = """\
import json, sys
from debloateval import cli
calls = {"verdict_engine loaded at import": "debloateval.verdict_engine" in sys.modules}
def counting(name, real):
    def call(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return real(*args, **kwargs)
    return call
for name in ("run_campaign", "report_to_jsonl", "summary_to_json", "run_once"):
    setattr(cli, name, counting(name, getattr(cli, name)))
for args in json.loads(sys.argv[1]):
    try:
        cli.main(args)
    except SystemExit as exit:
        calls[args[0]] = exit.code
print(json.dumps(calls))
"""


def test_commands_call_the_layers_through_the_cli_names(tmp_path, toy_pair):
    # perfbench/tracer.py times a layer by replacing the cli attribute its
    # command looks up, so a command that imports a layer late must still
    # call it through that attribute.
    toy = str(write_spec(tmp_path, toy_spec_doc(toy_pair, ["no_b"]), "toy.json"))
    commands = [
        ["differ", "--spec", toy, "--out", str(tmp_path / "differ")],
        ["tool-wrap", "--spec", toy, "--out", str(tmp_path / "wrap"), "--output", str(tmp_path / "never"),
         "/bin/true"],
    ]
    assert json.loads(_fresh(_COUNT_CALLS, json.dumps(commands))[-1]) == {
        "verdict_engine loaded at import": False,
        "run_campaign": 1, "report_to_jsonl": 1, "summary_to_json": 1, "differ": 0,
        "run_once": 1, "tool-wrap": 0,
    }
