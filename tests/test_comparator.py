from __future__ import annotations

import random
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from debloateval import comparator
from debloateval.comparator import (
    ABSENT_FILE,
    ComparatorConfig,
    ComparatorKind,
    ComparatorPipeline,
    ComparatorResult,
    EVIDENCE_LIMIT,
    FieldError,
    Normalizer,
    _first_difference_excerpt,
    _hex_escape,
    compare,
    default_pipeline,
)
from debloateval.exec_harness import ExecOutcome, Termination

from oracles import reference_first_difference_excerpt, reference_hex_escape


def outcome(stdout=b"", stderr=b"", termination=None, files=None) -> ExecOutcome:
    return ExecOutcome(
        termination or Termination.exited(0),
        stdout,
        stderr,
        files or {},
        0.0,
        0.0,
        0,
    )


def pipeline(*kinds_or_cfgs) -> ComparatorPipeline:
    cfgs = tuple(
        c if isinstance(c, ComparatorConfig) else ComparatorConfig(c)
        for c in kinds_or_cfgs
    )
    return ComparatorPipeline(cfgs)


def test_default_pipeline_composition():
    kinds = [c.kind for c in default_pipeline().comparators]
    assert kinds == [
        ComparatorKind.EXIT_STATUS,
        ComparatorKind.STDOUT_EXACT,
        ComparatorKind.STDERR_EXACT,
        ComparatorKind.FILE_SET,
    ]


def test_identical_outcomes_match_everywhere():
    a = outcome(b"out", b"err", files={"f": (True, b"\x01" * 32)})
    report = compare(a, a, default_pipeline())
    assert report.all_matched
    assert all(r.matched and r.evidence == "" for r in report.per_comparator)


def test_output_differing_after_the_capture_cap_is_a_mismatch():
    same_prefix = b"x" * 64
    a = replace(outcome(same_prefix, b"err"), stdout_overflow_sha256=b"\x01" * 32)
    b = replace(outcome(same_prefix, b"err"), stdout_overflow_sha256=b"\x02" * 32)
    report = compare(a, b, default_pipeline())
    assert report.all_matched is False
    by_kind = {r.config.kind: r for r in report.per_comparator}
    assert not by_kind[ComparatorKind.STDOUT_EXACT].matched
    assert "differs after the capture cap" in by_kind[ComparatorKind.STDOUT_EXACT].evidence
    assert by_kind[ComparatorKind.STDERR_EXACT].matched
    # One side past the cap, the other not: the captured bytes agree, the streams do not.
    capped = replace(outcome(b"", b"e" * 64), stderr_overflow_sha256=b"\x03" * 32)
    assert not compare(capped, outcome(b"", b"e" * 64), default_pipeline()).all_matched
    assert compare(capped, capped, default_pipeline()).all_matched


def test_exit_status_mismatch_names_both_sides():
    report = compare(
        outcome(termination=Termination.exited(0)),
        outcome(termination=Termination.exited(1)),
        pipeline(ComparatorKind.EXIT_STATUS),
    )
    assert not report.all_matched
    assert "vs" in report.per_comparator[0].evidence


def test_signal_vs_exit_differ():
    report = compare(
        outcome(termination=Termination.exited(0)),
        outcome(termination=Termination.signaled(11)),
        pipeline(ComparatorKind.EXIT_STATUS),
    )
    assert not report.all_matched


def test_no_short_circuit_evaluates_every_comparator():
    report = compare(
        outcome(b"x", b"y", termination=Termination.exited(1)),
        outcome(b"a", b"b", termination=Termination.exited(2)),
        default_pipeline(),
    )
    assert [r.matched for r in report.per_comparator] == [False, False, False, True]


def test_stdout_evidence_locates_first_difference():
    prefix = b"A" * 100
    report = compare(
        outcome(prefix + b"left"),
        outcome(prefix + b"right"),
        pipeline(ComparatorKind.STDOUT_EXACT),
    )
    evidence = report.per_comparator[0].evidence
    assert "first difference at byte 100" in evidence
    assert len(evidence) <= EVIDENCE_LIMIT


def test_evidence_escapes_nonprintable_bytes():
    report = compare(
        outcome(b"\x00\xff"),
        outcome(b"\x00\xfe"),
        pipeline(ComparatorKind.STDOUT_EXACT),
    )
    assert "\\xff" in report.per_comparator[0].evidence


def test_prefix_difference_points_past_shorter_side():
    report = compare(
        outcome(b"abc"),
        outcome(b"abcdef"),
        pipeline(ComparatorKind.STDOUT_EXACT),
    )
    assert "at byte 3" in report.per_comparator[0].evidence


@st.composite
def _stream_pairs(draw):
    """Two streams with a common prefix: equal, one a prefix of the other,
    or differing at byte 0, in the middle or at the end."""
    prefix = draw(st.binary(max_size=200))
    return prefix + draw(st.binary(max_size=40)), prefix + draw(st.binary(max_size=40))


@given(_stream_pairs())
@example((b"", b""))
@example((b"", b"x"))
@example((b"x", b"y"))
@example((b"abc", b"abd"))
def test_first_difference_excerpt_equals_the_byte_loop(pair):
    assert _first_difference_excerpt(*pair) == reference_first_difference_excerpt(*pair)


@pytest.mark.parametrize("at", [0, 65535, 65536, 65537, 8 * 1024 * 1024 - 1])
def test_first_difference_excerpt_across_blocks(at):
    a = bytes(range(256)) * (8 * 1024 * 1024 // 256)
    b = a[:at] + bytes([a[at] ^ 1]) + a[at + 1 :]
    excerpt = _first_difference_excerpt(a, b)
    assert excerpt.startswith(f"first difference at byte {at}: ")
    if at == len(a) - 1:
        assert excerpt == reference_first_difference_excerpt(a, b)


_LONG_PATH = "d/" * 600 + "out.bin"
_STREAM = bytes(range(256)) * 400


@pytest.mark.parametrize(
    "cfg, a, b",
    [
        (ComparatorConfig(ComparatorKind.EXIT_STATUS),
         outcome(termination=Termination.exited(0)), outcome(termination=Termination.signaled(11))),
        (ComparatorConfig(ComparatorKind.STDOUT_EXACT), outcome(_STREAM + b"a"), outcome(_STREAM + b"b")),
        (ComparatorConfig(ComparatorKind.STDOUT_NORMALIZED, normalizers=(Normalizer(r"\d", "N"),)),
         outcome(b"\\" * 70_000), outcome(b"\\" * 35_000 + b"\x00" * 35_000)),
        (ComparatorConfig(ComparatorKind.STDERR_EXACT),
         replace(outcome(stderr=_STREAM), stderr_overflow_sha256=b"\x01" * 32), outcome(stderr=_STREAM)),
        (ComparatorConfig(ComparatorKind.STDERR_NORMALIZED, normalizers=(Normalizer("a", "b"),)),
         outcome(stderr=_STREAM[::-1]), outcome(stderr=_STREAM)),
        (ComparatorConfig(ComparatorKind.FILE_DIGEST, path=_LONG_PATH),
         outcome(files={_LONG_PATH: (True, b"\x01" * 32)}), outcome(files={_LONG_PATH: ABSENT_FILE})),
        (ComparatorConfig(ComparatorKind.FILE_SET),
         outcome(files={f"{_LONG_PATH}.{i}": (True, b"\x01" * 32) for i in range(3)}), outcome()),
    ],
    ids=[kind.value for kind in ComparatorKind],
)
def test_evidence_is_empty_on_a_match_and_cut_to_the_limit_otherwise(cfg, a, b):
    for left, right in ((a, a), (b, b)):
        assert compare(left, right, pipeline(cfg)).per_comparator[0] == ComparatorResult(cfg, True, "")
    result = compare(a, b, pipeline(cfg)).per_comparator[0]
    assert not result.matched
    assert 0 < len(result.evidence) <= EVIDENCE_LIMIT
    if cfg.kind in (ComparatorKind.FILE_DIGEST, ComparatorKind.FILE_SET):
        assert len(result.evidence) == EVIDENCE_LIMIT
        assert _LONG_PATH[:100] in result.evidence


def test_hex_escape_equals_the_byte_loop():
    rng = random.Random(0)
    buffers = [bytes(range(256)), b""] + [rng.randbytes(rng.randrange(200)) for _ in range(2000)]
    for data in buffers:
        assert _hex_escape(data) == reference_hex_escape(data)


def test_normalizer_applies_the_pattern_it_compiled(monkeypatch):
    norm = Normalizer(r"pid (\d+)", r"pid <\1>")

    def refuse(*args, **kwargs):
        raise AssertionError("the pattern was compiled again")

    # Only the comparator's own binding: pytest itself calls re while it reports.
    monkeypatch.setattr(comparator, "re", SimpleNamespace(sub=refuse, compile=refuse))
    assert norm.apply(b"pid 41 ok, pid 7") == b"pid <41> ok, pid <7>"


def test_normalizer_absorbs_expected_difference():
    cfg = ComparatorConfig(
        ComparatorKind.STDOUT_NORMALIZED,
        normalizers=(Normalizer(r"pid \d+", "pid N"),),
    )
    report = compare(outcome(b"pid 41 ok"), outcome(b"pid 7 ok"), pipeline(cfg))
    assert report.all_matched


def test_normalizers_apply_in_order():
    cfg = ComparatorConfig(
        ComparatorKind.STDOUT_NORMALIZED,
        normalizers=(Normalizer(r"\d+", "N"), Normalizer(r"N", "M")),
    )
    report = compare(outcome(b"v1"), outcome(b"v2"), pipeline(cfg))
    assert report.all_matched


def test_normalized_kind_requires_normalizers():
    with pytest.raises(ValueError):
        ComparatorConfig(ComparatorKind.STDOUT_NORMALIZED)
    with pytest.raises(ValueError):
        ComparatorConfig(ComparatorKind.STDOUT_EXACT, normalizers=(Normalizer("a", "b"),))


def test_bad_normalizer_pattern_rejected_eagerly():
    with pytest.raises(FieldError) as exc:
        Normalizer("(", "N")
    assert exc.value.attr == "pattern"
    assert str(exc.value) == "invalid regex: missing ), unterminated subpattern at position 0"


def test_file_digest_requires_path():
    with pytest.raises(ValueError):
        ComparatorConfig(ComparatorKind.FILE_DIGEST)
    cfg = ComparatorConfig(ComparatorKind.FILE_DIGEST, path="out.bin")
    assert cfg.describe() == "file_digest(out.bin)"


def test_file_digest_compares_content():
    cfg = ComparatorConfig(ComparatorKind.FILE_DIGEST, path="out.bin")
    a = outcome(files={"out.bin": (True, b"\xaa" * 32)})
    b = outcome(files={"out.bin": (True, b"\xbb" * 32)})
    report = compare(a, b, pipeline(cfg))
    assert not report.all_matched
    assert "out.bin" in report.per_comparator[0].evidence


def test_file_digest_existence_mismatch():
    cfg = ComparatorConfig(ComparatorKind.FILE_DIGEST, path="out.bin")
    a = outcome(files={"out.bin": (True, b"\xaa" * 32)})
    b = outcome(files={"out.bin": (False, b"")})
    assert not compare(a, b, pipeline(cfg)).all_matched


def test_a_path_an_outcome_lacks_is_an_absent_file():
    # A run that never started records no file digests.
    cfg = ComparatorConfig(ComparatorKind.FILE_DIGEST, path="out.txt")
    report = compare(outcome(files={"out.txt": ABSENT_FILE}), outcome(), pipeline(cfg))
    assert report.per_comparator[0].matched
    assert report.per_comparator[0].evidence == ""
    written = compare(outcome(files={"out.txt": (True, b"\xaa" * 32)}), outcome(), pipeline(cfg))
    assert written.per_comparator[0].evidence == (
        "out.txt: exists=True sha256=aaaaaaaaaaaaaaaa vs exists=False sha256=0000000000000000"
    )


def test_file_set_ignores_content_and_absent_entries():
    a = outcome(files={"x": (True, b"1" * 32), "y": (False, b"")})
    b = outcome(files={"x": (True, b"2" * 32)})
    assert compare(a, b, pipeline(ComparatorKind.FILE_SET)).all_matched


def test_file_set_reports_sets_on_mismatch():
    a = outcome(files={"x": (True, b"1" * 32)})
    b = outcome(files={})
    report = compare(a, b, pipeline(ComparatorKind.FILE_SET))
    assert not report.all_matched
    assert "'x'" in report.per_comparator[0].evidence


def test_empty_pipeline_rejected():
    with pytest.raises(ValueError):
        ComparatorPipeline(())


@given(st.binary(max_size=200), st.binary(max_size=200))
def test_compare_is_symmetric_in_match(a_bytes, b_bytes):
    a = outcome(a_bytes, b_bytes)
    b = outcome(b_bytes, a_bytes)
    forward = compare(a, b, default_pipeline())
    backward = compare(b, a, default_pipeline())
    assert forward.all_matched == backward.all_matched


@given(st.binary(max_size=200))
def test_compare_is_reflexive(data):
    a = outcome(data, data, files={"f": (True, data[:32].ljust(32, b"\x00"))})
    assert compare(a, a, default_pipeline()).all_matched


@given(st.binary(max_size=400), st.binary(max_size=400))
def test_evidence_is_bounded(a_bytes, b_bytes):
    report = compare(
        outcome(a_bytes), outcome(b_bytes), pipeline(ComparatorKind.STDOUT_EXACT)
    )
    for result in report.per_comparator:
        assert len(result.evidence) <= EVIDENCE_LIMIT
