"""Feature-keyed benchmark specifications.

A specification names one original binary, the debloated variants to test
against it, and the program features that drive both differential testing
and metric campaigns. Each feature carries sample commands and is marked
either to be retained (outputs must match) or debloated (outputs must
differ). The on-disk format is a single strict JSON document.
"""

from __future__ import annotations

import enum
import json
import os
from dataclasses import dataclass, field, replace
from pathlib import Path, PurePosixPath

from .comparator import ComparatorConfig, ComparatorKind, ComparatorPipeline, Normalizer, default_pipeline
from .fuzz_engine import TemplateSyntaxError, parse_template

DEFAULT_TRIALS = 10
DEFAULT_TIMEOUT_SECONDS = 30.0


class SpecError(Exception):
    """Base for specification loading failures; carries the offending path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class SpecSyntaxError(SpecError):
    """The document is not parseable JSON."""


class SchemaError(SpecError):
    """A field is missing, ill-typed, out of range, or unknown."""


class InvariantError(SpecError):
    """Fields parse individually but violate a cross-field invariant."""


class NoAnchorError(Exception):
    pass


class Disposition(enum.Enum):
    RETAIN = "retain"
    DEBLOAT = "debloat"


@dataclass(frozen=True)
class BinaryRef:
    label: str
    exe_path: Path
    lib_paths: tuple[Path, ...] = ()
    statically_linked: bool = False

    def __post_init__(self):
        if self.statically_linked and self.lib_paths:
            raise ValueError("statically linked binaries cannot list lib_paths")


@dataclass(frozen=True)
class TestCommand:
    argv_template: tuple[str, ...]
    stdin: str | None = None
    expected_output_files: tuple[str, ...] = ()
    fuzz_count: int = 0

    def __post_init__(self):
        if not self.argv_template:
            raise ValueError("argv_template must be non-empty")
        if self.fuzz_count < 0:
            raise ValueError("fuzz_count must be >= 0")
        for rel in self.expected_output_files:
            p = PurePosixPath(rel)
            if p.is_absolute() or ".." in p.parts:
                raise ValueError(f"expected output file {rel!r} must be a relative path")


@dataclass(frozen=True)
class Feature:
    name: str
    disposition: Disposition
    commands: tuple[TestCommand, ...]
    comparator_override: ComparatorPipeline | None = None
    aggressive_anchor: bool = False

    def __post_init__(self):
        if not self.commands:
            raise ValueError("feature needs at least one command")


@dataclass(frozen=True)
class BenchmarkSpec:
    id: str
    original: BinaryRef
    variants: tuple[BinaryRef, ...]
    features: tuple[Feature, ...]
    default_comparators: ComparatorPipeline = field(default_factory=default_pipeline)
    env: dict[str, str] = field(default_factory=dict)
    timeout_seconds: float = DEFAULT_TIMEOUT_SECONDS
    trials: int = DEFAULT_TRIALS

    def __post_init__(self):
        """Check the cross-field invariants; errors name the offending path."""
        if self.timeout_seconds <= 0:
            raise SchemaError("timeout_seconds", "must be > 0")
        if self.trials < 1:
            raise SchemaError("trials", "must be >= 1")
        names_seen: set[str] = set()
        for i, f in enumerate(self.features):
            if f.name in names_seen:
                raise InvariantError(f"features[{i}].name", f"duplicate feature name {f.name!r}")
            names_seen.add(f.name)
            for j, cmd in enumerate(f.commands):
                templates = {f"argv[{k}]": arg for k, arg in enumerate(cmd.argv_template)}
                if cmd.stdin is not None:
                    templates["stdin"] = cmd.stdin
                for where, text in templates.items():
                    try:
                        parse_template(text)
                    except TemplateSyntaxError as exc:
                        path = f"features[{i}].commands[{j}].{where}"
                        raise SchemaError(path, f"bad template: {exc}") from exc
        labels_seen: set[str] = set()
        for i, v in enumerate(self.variants):
            if v.label in labels_seen:
                raise InvariantError(f"variants[{i}].label", f"duplicate variant label {v.label!r}")
            labels_seen.add(v.label)
        anchors = [i for i, f in enumerate(self.features) if f.aggressive_anchor]
        if len(anchors) > 1:
            raise InvariantError(f"features[{anchors[1]}].anchor", "multiple aggressive anchors")
        if anchors and self.features[anchors[0]].disposition is not Disposition.RETAIN:
            raise InvariantError(f"features[{anchors[0]}].anchor", "anchor feature must be retained")
        if not self.id:
            raise InvariantError("id", "spec id must be non-empty")
        if not self.variants:
            raise InvariantError("variants", "spec needs at least one variant")
        if not self.features:
            raise InvariantError("features", "spec needs at least one feature")

    def pipeline_for(self, feature: Feature) -> ComparatorPipeline:
        return feature.comparator_override or self.default_comparators


# --- JSON loading ------------------------------------------------------

def _check_keys(obj: dict, allowed: set[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}" if path else key, "unknown key")


def _get(obj: dict, key: str, path: str, types, default=...):
    if key not in obj:
        if default is ...:
            raise SchemaError(f"{path}.{key}" if path else key, "missing required field")
        return default
    value = obj[key]
    if not isinstance(value, types) or isinstance(value, bool) and bool not in _as_tuple(types):
        raise SchemaError(f"{path}.{key}" if path else key, f"expected {types}, got {type(value).__name__}")
    return value


def _as_tuple(types):
    return types if isinstance(types, tuple) else (types,)


def _parse_binary(obj, path: str) -> BinaryRef:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected object")
    _check_keys(obj, {"label", "exe", "libs", "static"}, path)
    label = _get(obj, "label", path, str)
    exe = _get(obj, "exe", path, str)
    libs = _get(obj, "libs", path, list, default=[])
    static = _get(obj, "static", path, bool, default=False)
    for i, lib in enumerate(libs):
        if not isinstance(lib, str):
            raise SchemaError(f"{path}.libs[{i}]", "expected string")
    try:
        return BinaryRef(label, Path(exe), tuple(Path(l) for l in libs), static)
    except ValueError as exc:
        raise InvariantError(path, str(exc)) from exc


def _parse_normalizer(obj, path: str) -> Normalizer:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected object")
    _check_keys(obj, {"pattern", "replacement"}, path)
    try:
        return Normalizer(_get(obj, "pattern", path, str), _get(obj, "replacement", path, str))
    except Exception as exc:
        raise SchemaError(f"{path}.pattern", f"invalid regex: {exc}") from exc


def _parse_comparator(obj, path: str) -> ComparatorConfig:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected object")
    _check_keys(obj, {"kind", "normalizers", "path"}, path)
    kind_name = _get(obj, "kind", path, str)
    try:
        kind = ComparatorKind(kind_name)
    except ValueError:
        raise SchemaError(f"{path}.kind", f"unknown comparator kind {kind_name!r}") from None
    normalizers = tuple(
        _parse_normalizer(n, f"{path}.normalizers[{i}]")
        for i, n in enumerate(_get(obj, "normalizers", path, list, default=[]))
    )
    file_path = _get(obj, "path", path, str, default=None)
    try:
        return ComparatorConfig(kind, normalizers, file_path)
    except ValueError as exc:
        raise InvariantError(path, str(exc)) from exc


def _parse_pipeline(items, path: str) -> ComparatorPipeline:
    if not isinstance(items, list):
        raise SchemaError(path, "expected array")
    configs = tuple(_parse_comparator(c, f"{path}[{i}]") for i, c in enumerate(items))
    try:
        return ComparatorPipeline(configs)
    except ValueError as exc:
        raise InvariantError(path, str(exc)) from exc


def _parse_command(obj, path: str) -> TestCommand:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected object")
    _check_keys(obj, {"argv", "stdin", "files", "fuzz_count"}, path)
    argv = _get(obj, "argv", path, list)
    for i, a in enumerate(argv):
        if not isinstance(a, str):
            raise SchemaError(f"{path}.argv[{i}]", "expected string")
    stdin = _get(obj, "stdin", path, str, default=None)
    files = _get(obj, "files", path, list, default=[])
    for i, f in enumerate(files):
        if not isinstance(f, str):
            raise SchemaError(f"{path}.files[{i}]", "expected string")
    fuzz_count = _get(obj, "fuzz_count", path, int, default=0)
    try:
        return TestCommand(tuple(argv), stdin, tuple(files), fuzz_count)
    except ValueError as exc:
        raise InvariantError(path, str(exc)) from exc


def _parse_feature(obj, path: str) -> Feature:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected object")
    _check_keys(obj, {"name", "disposition", "anchor", "commands", "comparators"}, path)
    name = _get(obj, "name", path, str)
    disp_name = _get(obj, "disposition", path, str)
    try:
        disposition = Disposition(disp_name)
    except ValueError:
        raise SchemaError(f"{path}.disposition", f"must be 'retain' or 'debloat', got {disp_name!r}") from None
    anchor = _get(obj, "anchor", path, bool, default=False)
    commands = tuple(
        _parse_command(c, f"{path}.commands[{i}]")
        for i, c in enumerate(_get(obj, "commands", path, list))
    )
    override = None
    if "comparators" in obj:
        override = _parse_pipeline(obj["comparators"], f"{path}.comparators")
    try:
        return Feature(name, disposition, commands, override, anchor)
    except ValueError as exc:
        raise InvariantError(path, str(exc)) from exc


def parse_spec(document: bytes) -> BenchmarkSpec:
    """Parse and validate a benchmark specification document (strict JSON)."""
    try:
        text = document.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SpecSyntaxError("", f"document is not UTF-8: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecSyntaxError("", f"malformed JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError("", "top-level value must be an object")
    _check_keys(
        obj,
        {"id", "original", "variants", "features", "comparators", "env", "timeout_seconds", "trials"},
        "",
    )
    spec_id = _get(obj, "id", "", str)
    original = _parse_binary(_get(obj, "original", "", dict), "original")
    variants = tuple(
        _parse_binary(v, f"variants[{i}]") for i, v in enumerate(_get(obj, "variants", "", list))
    )
    features = tuple(
        _parse_feature(f, f"features[{i}]") for i, f in enumerate(_get(obj, "features", "", list))
    )
    if "comparators" in obj:
        pipeline = _parse_pipeline(obj["comparators"], "comparators")
    else:
        pipeline = default_pipeline()
    env = _get(obj, "env", "", dict, default={})
    for key, value in env.items():
        if not isinstance(key, str) or not isinstance(value, str):
            raise SchemaError(f"env.{key}", "env entries must map string to string")
    timeout = _get(obj, "timeout_seconds", "", (int, float), default=DEFAULT_TIMEOUT_SECONDS)
    trials = _get(obj, "trials", "", int, default=DEFAULT_TRIALS)
    return BenchmarkSpec(
        id=spec_id,
        original=original,
        variants=variants,
        features=features,
        default_comparators=pipeline,
        env=dict(env),
        timeout_seconds=float(timeout),
        trials=trials,
    )


# --- JSON serialization ------------------------------------------------

def _binary_to_json(ref: BinaryRef) -> dict:
    return {
        "label": ref.label,
        "exe": str(ref.exe_path),
        "libs": [str(p) for p in ref.lib_paths],
        "static": ref.statically_linked,
    }


def _comparator_to_json(cfg: ComparatorConfig) -> dict:
    out: dict = {"kind": cfg.kind.value}
    if cfg.normalizers:
        out["normalizers"] = [{"pattern": n.pattern, "replacement": n.replacement} for n in cfg.normalizers]
    if cfg.path is not None:
        out["path"] = cfg.path
    return out


def _command_to_json(cmd: TestCommand) -> dict:
    out: dict = {"argv": list(cmd.argv_template)}
    if cmd.stdin is not None:
        out["stdin"] = cmd.stdin
    if cmd.expected_output_files:
        out["files"] = list(cmd.expected_output_files)
    if cmd.fuzz_count:
        out["fuzz_count"] = cmd.fuzz_count
    return out


def _feature_to_json(f: Feature) -> dict:
    out: dict = {
        "name": f.name,
        "disposition": f.disposition.value,
        "commands": [_command_to_json(c) for c in f.commands],
    }
    if f.aggressive_anchor:
        out["anchor"] = True
    if f.comparator_override is not None:
        out["comparators"] = [_comparator_to_json(c) for c in f.comparator_override.comparators]
    return out


def serialize_spec(spec: BenchmarkSpec) -> bytes:
    """Inverse of parse_spec for valid specs (round-trips exactly)."""
    doc = {
        "id": spec.id,
        "original": _binary_to_json(spec.original),
        "variants": [_binary_to_json(v) for v in spec.variants],
        "features": [_feature_to_json(f) for f in spec.features],
        "comparators": [_comparator_to_json(c) for c in spec.default_comparators.comparators],
        "env": spec.env,
        "timeout_seconds": spec.timeout_seconds,
        "trials": spec.trials,
    }
    return json.dumps(doc, indent=2).encode("utf-8")


# --- Operations --------------------------------------------------------

def winnow_to_aggressive(spec: BenchmarkSpec) -> BenchmarkSpec:
    """Reduce a moderate spec to its aggressive form.

    The anchor feature keeps only its first command; every other feature is
    re-marked for debloating so its commands become expected-difference
    probes. Idempotent.
    """
    if not any(f.aggressive_anchor for f in spec.features):
        raise NoAnchorError(f"spec {spec.id!r} has no aggressive anchor feature")
    new_features = []
    for f in spec.features:
        if f.aggressive_anchor:
            new_features.append(replace(f, commands=f.commands[:1]))
        else:
            new_features.append(replace(f, disposition=Disposition.DEBLOAT))
    return replace(spec, features=tuple(new_features))


def validate_spec_against_binaries(spec: BenchmarkSpec) -> list[str]:
    """Best-effort filesystem checks; returns human-readable warnings."""
    warnings: list[str] = []

    def check_ref(ref: BinaryRef, path: str) -> None:
        if not ref.exe_path.is_file():
            warnings.append(f"{path}.exe_path not found: {ref.exe_path}")
        elif not os.access(ref.exe_path, os.X_OK):
            warnings.append(f"{path}.exe_path not executable: {ref.exe_path}")
        for i, lib in enumerate(ref.lib_paths):
            if not lib.is_file():
                warnings.append(f"{path}.lib_paths[{i}] not found: {lib}")

    check_ref(spec.original, "original")
    for i, variant in enumerate(spec.variants):
        check_ref(variant, f"variants[{i}]")
        if variant.exe_path == spec.original.exe_path:
            warnings.append(f"variants[{i}] aliases original: {variant.exe_path}")
    return warnings
