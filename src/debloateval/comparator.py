"""Configurable outcome comparators with regex normalization.

A comparator decides whether two executions "match" on one observable
channel (exit status, stdout, stderr, captured files). Normalized variants
rewrite both sides identically before comparing, which absorbs expected
differences such as timestamps or PIDs in console output.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .exec_harness import ExecOutcome

EVIDENCE_LIMIT = 1024
# A captured file that is not there: what a run digests for it, and what
# an outcome that lacks the path (a run that never started) stands for.
ABSENT_FILE = (False, bytes(32))
_CONTEXT = 32
_BLOCK = 64 * 1024


class ComparatorKind(enum.Enum):
    EXIT_STATUS = "exit_status"
    STDOUT_EXACT = "stdout_exact"
    STDOUT_NORMALIZED = "stdout_normalized"
    STDERR_EXACT = "stderr_exact"
    STDERR_NORMALIZED = "stderr_normalized"
    FILE_DIGEST = "file_digest"
    FILE_SET = "file_set"


class FieldError(ValueError):
    """A broken rule about one field of a spec dataclass: attr names the
    field, and index an item of it when the rule is about that item."""

    def __init__(self, attr: str, message: str, index: int | None = None):
        super().__init__(message)
        self.attr = attr
        self.index = index


_NORMALIZED_KINDS = {ComparatorKind.STDOUT_NORMALIZED, ComparatorKind.STDERR_NORMALIZED}


@dataclass(frozen=True)
class Normalizer:
    pattern: str
    replacement: str
    _regex: re.Pattern = field(init=False, repr=False, compare=False)
    _replacement: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Checked as apply uses them: a bad escape may be valid in a str
        # pattern and not in a bytes one, and sub checks a replacement's
        # group references before it looks for a match.
        try:
            regex = re.compile(self.pattern.encode("utf-8", "surrogateescape"))
        except re.error as exc:
            raise FieldError("pattern", f"invalid regex: {exc}") from exc
        replacement = self.replacement.encode("utf-8", "surrogateescape")
        try:
            regex.sub(replacement, b"")
        except re.error as exc:
            raise FieldError("replacement", f"invalid replacement: {exc}") from exc
        object.__setattr__(self, "_regex", regex)
        object.__setattr__(self, "_replacement", replacement)

    def apply(self, data: bytes) -> bytes:
        return self._regex.sub(self._replacement, data)


@dataclass(frozen=True)
class ComparatorConfig:
    kind: ComparatorKind
    normalizers: tuple[Normalizer, ...] = ()
    path: str | None = None  # FILE_DIGEST only

    def __post_init__(self):
        if (self.kind in _NORMALIZED_KINDS) != bool(self.normalizers):
            raise FieldError("normalizers", "required exactly for *_normalized kinds")
        if (self.kind is ComparatorKind.FILE_DIGEST) != (self.path is not None):
            raise FieldError("path", "required exactly for the file_digest kind")

    def describe(self) -> str:
        if self.kind is ComparatorKind.FILE_DIGEST:
            return f"{self.kind.value}({self.path})"
        return self.kind.value


@dataclass(frozen=True)
class ComparatorPipeline:
    comparators: tuple[ComparatorConfig, ...]

    def __post_init__(self):
        if not self.comparators:
            raise ValueError("pipeline must contain at least one comparator")


@dataclass(frozen=True)
class ComparatorResult:
    config: ComparatorConfig
    matched: bool
    evidence: str


@dataclass(frozen=True)
class CompareReport:
    per_comparator: tuple[ComparatorResult, ...]
    all_matched: bool


def default_pipeline() -> ComparatorPipeline:
    """Strictest no-knowledge default: status, stdout, stderr, file set."""
    return ComparatorPipeline(
        (
            ComparatorConfig(ComparatorKind.EXIT_STATUS),
            ComparatorConfig(ComparatorKind.STDOUT_EXACT),
            ComparatorConfig(ComparatorKind.STDERR_EXACT),
            ComparatorConfig(ComparatorKind.FILE_SET),
        )
    )


# Printable ASCII but the backslash stands for itself; every other byte is \xNN.
_HEX_ESCAPES = [chr(b) if 0x20 <= b <= 0x7E and b != 0x5C else f"\\x{b:02x}" for b in range(256)]


def _hex_escape(data: bytes) -> str:
    return data.decode("latin-1").translate(_HEX_ESCAPES)


def _first_difference_excerpt(a: bytes, b: bytes) -> str:
    """Excerpt around the first differing byte, ±32 bytes of context.

    The byte is found by comparing slices, never single bytes in a Python
    loop: whole blocks first, then halves of the first unequal block.
    """
    idx, limit = 0, min(len(a), len(b))
    end = min(_BLOCK, limit)
    while idx < limit and a[idx:end] == b[idx:end]:
        idx, end = end, min(end + _BLOCK, limit)
    while end - idx > 1:  # a[:idx] == b[:idx] and a[idx:end] != b[idx:end]
        mid = (idx + end) // 2
        if a[idx:mid] == b[idx:mid]:
            idx = mid
        else:
            end = mid
    lo = max(0, idx - _CONTEXT)
    hi = idx + _CONTEXT
    return (
        f"first difference at byte {idx}: "
        f"{_hex_escape(a[lo:hi])!r} vs {_hex_escape(b[lo:hi])!r}"
    )


def _streams(outcome: ExecOutcome, kind: ComparatorKind) -> tuple[bytes, bytes | None]:
    """The captured stream and the sha256 of all of it if it passed the cap."""
    if kind in (ComparatorKind.STDOUT_EXACT, ComparatorKind.STDOUT_NORMALIZED):
        return outcome.stdout, outcome.stdout_overflow_sha256
    return outcome.stderr, outcome.stderr_overflow_sha256


def _digest_text(digest: bytes | None) -> str:
    return "none" if digest is None else digest.hex()[:16]


def _evaluate(cfg: ComparatorConfig, a: ExecOutcome, b: ExecOutcome) -> ComparatorResult:
    """Each kind finds matched and its evidence; the evidence is kept, cut
    to EVIDENCE_LIMIT characters, only when they do not match."""
    if cfg.kind is ComparatorKind.EXIT_STATUS:
        matched = a.termination == b.termination
        evidence = f"{a.termination.describe()} vs {b.termination.describe()}"
    elif cfg.kind is ComparatorKind.FILE_DIGEST:
        left = a.file_digests.get(cfg.path, ABSENT_FILE)
        right = b.file_digests.get(cfg.path, ABSENT_FILE)
        matched = left == right
        evidence = (
            f"{cfg.path}: exists={left[0]} sha256={left[1].hex()[:16]} vs "
            f"exists={right[0]} sha256={right[1].hex()[:16]}"
        )
    elif cfg.kind is ComparatorKind.FILE_SET:
        left = {p for p, (exists, _) in a.file_digests.items() if exists}
        right = {p for p, (exists, _) in b.file_digests.items() if exists}
        matched = left == right
        evidence = f"present {sorted(left)} vs {sorted(right)}"
    else:
        left, left_overflow = _streams(a, cfg.kind)
        right, right_overflow = _streams(b, cfg.kind)
        for norm in cfg.normalizers:
            left = norm.apply(left)
            right = norm.apply(right)
        if left != right:
            matched, evidence = False, _first_difference_excerpt(left, right)
        else:
            matched = left_overflow == right_overflow
            evidence = (
                f"differs after the capture cap: sha256 of the whole stream "
                f"{_digest_text(left_overflow)} vs {_digest_text(right_overflow)}"
            )
    return ComparatorResult(cfg, matched, "" if matched else evidence[:EVIDENCE_LIMIT])


def compare(a: ExecOutcome, b: ExecOutcome, pipeline: ComparatorPipeline) -> CompareReport:
    """Evaluate every comparator (no short-circuit) and conjoin the results."""
    results = tuple(_evaluate(cfg, a, b) for cfg in pipeline.comparators)
    return CompareReport(results, all(r.matched for r in results))
