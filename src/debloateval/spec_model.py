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
import math
import os
import re
from dataclasses import dataclass, field, replace
from operator import attrgetter
from pathlib import Path, PurePosixPath
from typing import Callable, NamedTuple

from . import InputError
from .comparator import (
    ComparatorConfig,
    ComparatorKind,
    ComparatorPipeline,
    FieldError,
    Normalizer,
    default_pipeline,
)
from .fuzz_engine import TemplateSyntaxError, parse_template

DEFAULT_TRIALS = 10
DEFAULT_TIMEOUT_SECONDS = 30.0


class SpecError(InputError):
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


class NoAnchorError(InputError):
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
            raise FieldError("lib_paths", "a statically linked binary lists no libraries")


@dataclass(frozen=True)
class TestCommand:
    argv_template: tuple[str, ...]
    stdin: str | None = None
    expected_output_files: tuple[str, ...] = ()
    fuzz_count: int = 0

    def __post_init__(self):
        if not self.argv_template:
            raise FieldError("argv_template", "must be non-empty")
        if self.fuzz_count < 0:
            raise FieldError("fuzz_count", "must be >= 0")
        for k, rel in enumerate(self.expected_output_files):
            p = PurePosixPath(rel)
            if p.is_absolute() or ".." in p.parts:
                raise FieldError("expected_output_files", f"must be a relative path without '..', got {rel!r}", k)


@dataclass(frozen=True)
class Feature:
    name: str
    disposition: Disposition
    commands: tuple[TestCommand, ...]
    comparator_override: ComparatorPipeline | None = None
    aggressive_anchor: bool = False

    def __post_init__(self):
        if not self.commands:
            raise FieldError("commands", "a feature needs at least one command")


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
        if not (math.isfinite(self.timeout_seconds) and self.timeout_seconds > 0):
            raise SchemaError("timeout_seconds", "must be a finite number > 0")
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
                    except (TemplateSyntaxError, UnicodeEncodeError) as exc:  # a lone surrogate
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


# --- JSON format -------------------------------------------------------
#
# Each type's JSON object is stated once, as a table of fields. parse_spec
# and serialize_spec both walk the tables, and a table's row order is the
# key order serialize_spec writes.

_REQUIRED = object()


def _utf8(value: str, path: str) -> str:
    """value, unless it holds a lone surrogate, which JSON can spell but UTF-8 cannot."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise SchemaError(path, f"not UTF-8: {exc.reason} at index {exc.start}") from None
    return value


# The JSON name of each Python type that json.loads makes, and of a number.
_JSON_TYPES = {
    str: "string", int: "integer", (int, float): "number", float: "number", bool: "boolean",
    list: "array", dict: "object", type(None): "null",
}


def _expect(types, value, path: str) -> None:
    """Raise a SchemaError at path unless value has the JSON type types (a bool is no number)."""
    if not isinstance(value, types) or isinstance(value, bool) and types is not bool:
        raise SchemaError(path, f"expected {_JSON_TYPES[types]}, got {_JSON_TYPES[type(value)]}")


def _typed(types, then=None):
    """Loader that checks the JSON type and UTF-8, then applies then(value, path)."""

    def load(value, path: str):
        _expect(types, value, path)
        if isinstance(value, str):
            _utf8(value, path)
        return value if then is None else then(value, path)

    return load


def _array(load_item):
    """Loader of a JSON array into a tuple; item i is loaded at path[i]."""
    return _typed(list, lambda items, path: tuple(load_item(v, f"{path}[{i}]") for i, v in enumerate(items)))


def _enum(cls, message: str):
    def load(name: str, path: str):
        try:
            return cls(name)
        except ValueError:
            raise SchemaError(path, message.format(name)) from None

    return _typed(str, load)


def _float(value: int | float, path: str) -> float:
    try:
        return float(value)
    except OverflowError:  # an integer past the largest float
        raise SchemaError(path, "out of range") from None


_string = _typed(str)
_path = _typed(str, lambda value, _: Path(value))


def _regex(pattern: str, path: str) -> str:
    try:
        re.compile(pattern.encode("utf-8"))  # Normalizer.apply matches bytes
    except re.error as exc:
        raise SchemaError(path, f"invalid regex: {exc}") from exc
    return pattern


def _env(env: dict, path: str) -> dict[str, str]:
    for key, value in env.items():
        if not isinstance(value, str):
            raise SchemaError(f"{path}.{key}", "env entries must map string to string")
        _utf8(key, path)
        _utf8(value, f"{path}.{key}")
    return dict(env)


def _each(dump_item):
    return lambda items: [dump_item(item) for item in items]


_value = attrgetter("value")


def _build(cls, kwargs: dict, path: str, keys: dict[str, str] | None = None):
    """cls(**kwargs); a ValueError from its invariants is an InvariantError at path.

    keys maps cls's fields to their JSON keys: a FieldError names the path
    of its field, or of the field's item.
    """
    try:
        return cls(**kwargs)
    except ValueError as exc:
        where = path
        if keys and isinstance(exc, FieldError):
            where = f"{path}.{keys[exc.attr]}" if path else keys[exc.attr]
            if exc.index is not None:
                where += f"[{exc.index}]"
        raise InvariantError(where, str(exc)) from exc


class _Field(NamedTuple):
    """A JSON key and the dataclass field it fills.

    A missing key takes the dataclass's default, which default restates. A
    dump of None means the field value is JSON already.
    """

    key: str
    attr: str
    load: Callable
    default: object = _REQUIRED
    omit_default: bool = False
    dump: Callable | None = None


class _Object:
    """The JSON object form of one dataclass."""

    def __init__(self, cls: type, *fields: _Field):
        self.cls = cls
        self.fields = {f.key: f for f in fields}
        self.keys = {f.attr: f.key for f in fields}

    def load(self, obj, path: str):
        _expect(dict, obj, path)
        prefix = f"{path}." if path else ""
        if not obj.keys() <= self.fields.keys():
            unknown = next(key for key in obj if key not in self.fields)
            raise SchemaError(prefix + unknown, "unknown key")
        kwargs = {}
        for key, attr, load, default, _, _ in self.fields.values():
            if key in obj:
                kwargs[attr] = load(obj[key], prefix + key)
            elif default is _REQUIRED:
                raise SchemaError(prefix + key, "missing required field")
        return _build(self.cls, kwargs, path, self.keys)

    def dump(self, value) -> dict:
        out = {}
        for f in self.fields.values():
            field_value = getattr(value, f.attr)
            if not (f.omit_default and field_value == f.default):
                out[f.key] = field_value if f.dump is None else f.dump(field_value)
        return out


_NORMALIZER = _Object(
    Normalizer,
    _Field("pattern", "pattern", _typed(str, _regex)),
    _Field("replacement", "replacement", _typed(str)),
)

_COMPARATOR = _Object(
    ComparatorConfig,
    _Field("kind", "kind", _enum(ComparatorKind, "unknown comparator kind {!r}"), dump=_value),
    _Field("normalizers", "normalizers", _array(_NORMALIZER.load), (), True, _each(_NORMALIZER.dump)),
    _Field("path", "path", _typed(str), None, True),
)


def _load_pipeline(items, path: str) -> ComparatorPipeline:
    _expect(list, items, path)
    configs = tuple(_COMPARATOR.load(c, f"{path}[{i}]") for i, c in enumerate(items))
    return _build(ComparatorPipeline, {"comparators": configs}, path)


def _dump_pipeline(pipeline: ComparatorPipeline) -> list:
    return [_COMPARATOR.dump(c) for c in pipeline.comparators]


_COMMAND = _Object(
    TestCommand,
    _Field("argv", "argv_template", _array(_string), dump=list),
    _Field("stdin", "stdin", _typed(str), None, True),
    _Field("files", "expected_output_files", _array(_string), (), True, list),
    _Field("fuzz_count", "fuzz_count", _typed(int), 0, True),
)

_FEATURE = _Object(
    Feature,
    _Field("name", "name", _typed(str)),
    _Field("disposition", "disposition", _enum(Disposition, "must be 'retain' or 'debloat', got {!r}"),
           dump=_value),
    _Field("commands", "commands", _array(_COMMAND.load), dump=_each(_COMMAND.dump)),
    _Field("anchor", "aggressive_anchor", _typed(bool), False, True),
    _Field("comparators", "comparator_override", _load_pipeline, None, True, _dump_pipeline),
)

_BINARY = _Object(
    BinaryRef,
    _Field("label", "label", _typed(str)),
    _Field("exe", "exe_path", _path, dump=str),
    _Field("libs", "lib_paths", _array(_path), (), dump=_each(str)),
    _Field("static", "statically_linked", _typed(bool), False),
)

_SPEC = _Object(
    BenchmarkSpec,
    _Field("id", "id", _typed(str)),
    _Field("original", "original", _typed(dict, _BINARY.load), dump=_BINARY.dump),
    _Field("variants", "variants", _array(_BINARY.load), dump=_each(_BINARY.dump)),
    _Field("features", "features", _array(_FEATURE.load), dump=_each(_FEATURE.dump)),
    _Field("comparators", "default_comparators", _load_pipeline, default_pipeline(), dump=_dump_pipeline),
    _Field("env", "env", _typed(dict, _env), {}),
    _Field("timeout_seconds", "timeout_seconds", _typed((int, float), _float), DEFAULT_TIMEOUT_SECONDS),
    _Field("trials", "trials", _typed(int), DEFAULT_TRIALS),
)


def parse_spec(document: bytes) -> BenchmarkSpec:
    """Parse and validate a benchmark specification document (strict JSON)."""
    try:
        obj = json.loads(document.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise SpecSyntaxError("", f"document is not UTF-8: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise SpecSyntaxError("", f"malformed JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError("", "top-level value must be an object")
    return _SPEC.load(obj, "")


def serialize_spec(spec: BenchmarkSpec) -> bytes:
    """Inverse of parse_spec for valid specs (round-trips exactly)."""
    return json.dumps(_SPEC.dump(spec), indent=2).encode("utf-8")


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
