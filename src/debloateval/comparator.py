"""Configurable outcome comparators with regex normalization.

A comparator decides whether two executions "match" on one observable
channel (exit status, stdout, stderr, captured files). Normalized variants
rewrite both sides identically before comparing, which absorbs expected
differences such as timestamps or PIDs in console output.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .exec_harness import ExecOutcome

EVIDENCE_LIMIT = 1024
_CONTEXT = 32


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

    def __post_init__(self):
        # Checked as apply uses them: a bad escape may be valid in a str
        # pattern and not in a bytes one, and sub checks a replacement's
        # group references before it looks for a match.
        regex = re.compile(self.pattern.encode("utf-8", "surrogateescape"))
        try:
            regex.sub(self.replacement.encode("utf-8", "surrogateescape"), b"")
        except re.error as exc:
            raise FieldError("replacement", f"invalid replacement: {exc}") from exc

    def apply(self, data: bytes) -> bytes:
        return re.sub(
            self.pattern.encode("utf-8", "surrogateescape"),
            self.replacement.encode("utf-8", "surrogateescape"),
            data,
        )


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


def _hex_escape(data: bytes) -> str:
    out = []
    for b in data:
        if 0x20 <= b <= 0x7E and b != 0x5C:
            out.append(chr(b))
        else:
            out.append(f"\\x{b:02x}")
    return "".join(out)


def _first_difference_excerpt(a: bytes, b: bytes) -> str:
    """Excerpt around the first differing byte, ±32 bytes of context."""
    limit = min(len(a), len(b))
    idx = limit
    for i in range(limit):
        if a[i] != b[i]:
            idx = i
            break
    lo = max(0, idx - _CONTEXT)
    hi = idx + _CONTEXT
    text = (
        f"first difference at byte {idx}: "
        f"{_hex_escape(a[lo:hi])!r} vs {_hex_escape(b[lo:hi])!r}"
    )
    return text[:EVIDENCE_LIMIT]


def _streams(outcome: ExecOutcome, kind: ComparatorKind) -> tuple[bytes, bytes | None]:
    """The captured stream and the sha256 of all of it if it passed the cap."""
    if kind in (ComparatorKind.STDOUT_EXACT, ComparatorKind.STDOUT_NORMALIZED):
        return outcome.stdout, outcome.stdout_overflow_sha256
    return outcome.stderr, outcome.stderr_overflow_sha256


def _digest_text(digest: bytes | None) -> str:
    return "none" if digest is None else digest.hex()[:16]


def _evaluate(cfg: ComparatorConfig, a: ExecOutcome, b: ExecOutcome) -> ComparatorResult:
    if cfg.kind is ComparatorKind.EXIT_STATUS:
        matched = a.termination == b.termination
        evidence = "" if matched else f"{a.termination.describe()} vs {b.termination.describe()}"
        return ComparatorResult(cfg, matched, evidence)

    if cfg.kind is ComparatorKind.FILE_DIGEST:
        left = a.file_digests.get(cfg.path, (False, b""))
        right = b.file_digests.get(cfg.path, (False, b""))
        matched = left == right
        if matched:
            evidence = ""
        else:
            evidence = (
                f"{cfg.path}: exists={left[0]} sha256={left[1].hex()[:16]} vs "
                f"exists={right[0]} sha256={right[1].hex()[:16]}"
            )
        return ComparatorResult(cfg, matched, evidence[:EVIDENCE_LIMIT])

    if cfg.kind is ComparatorKind.FILE_SET:
        left = {p for p, (exists, _) in a.file_digests.items() if exists}
        right = {p for p, (exists, _) in b.file_digests.items() if exists}
        matched = left == right
        evidence = "" if matched else f"present {sorted(left)} vs {sorted(right)}"
        return ComparatorResult(cfg, matched, evidence[:EVIDENCE_LIMIT])

    left, left_overflow = _streams(a, cfg.kind)
    right, right_overflow = _streams(b, cfg.kind)
    if cfg.kind in _NORMALIZED_KINDS:
        for norm in cfg.normalizers:
            left = norm.apply(left)
            right = norm.apply(right)
    if left != right:
        return ComparatorResult(cfg, False, _first_difference_excerpt(left, right))
    if left_overflow != right_overflow:
        evidence = (
            f"differs after the capture cap: sha256 of the whole stream "
            f"{_digest_text(left_overflow)} vs {_digest_text(right_overflow)}"
        )
        return ComparatorResult(cfg, False, evidence)
    return ComparatorResult(cfg, True, "")


def compare(a: ExecOutcome, b: ExecOutcome, pipeline: ComparatorPipeline) -> CompareReport:
    """Evaluate every comparator (no short-circuit) and conjoin the results."""
    results = tuple(_evaluate(cfg, a, b) for cfg in pipeline.comparators)
    return CompareReport(results, all(r.matched for r in results))
