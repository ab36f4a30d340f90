"""The spec's JSON format: round trips, single faults, its field tables and the README."""

from __future__ import annotations

import copy
import dataclasses
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debloateval import spec_model
from debloateval.comparator import ComparatorConfig, ComparatorKind, ComparatorPipeline, Normalizer
from debloateval.spec_model import (
    BenchmarkSpec,
    BinaryRef,
    Disposition,
    Feature,
    SchemaError,
    SpecError,
    TestCommand,
    parse_spec,
    serialize_spec,
)

README = Path(__file__).resolve().parent.parent / "README.md"

# --- Round trip over generated specs ---------------------------------------

# Spec strings are UTF-8, and a lone surrogate (category Cs) is no UTF-8.
_text = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12)
# Templates are text without holes, or with one.
_plain = st.text(alphabet=st.characters(blacklist_characters="{}", blacklist_categories=("Cs",)), max_size=12)
_template = _plain | st.sampled_from(["{{int:1..9}}", "-{{int:0..3}}x", "{{bytes:0..64}}"])
_relative = st.sampled_from(["out", "out.txt", "dir/log", "a/b/c"])
_path = st.builds(Path, _text.filter(bool))
_pattern = st.sampled_from([r"[0-9]+", r"\d{4}-\d{2}", "a|b", r"\s+$", "(x)?"])
# A backslash in a replacement starts an escape, and a bad one is no valid spec.
_replacement = _text.filter(lambda s: "\\" not in s) | st.sampled_from([r"\\", r"\g<0>", r"<\n>"])


def _comparator(kind: ComparatorKind):
    normalizers = st.just(())
    path = st.none()
    if kind in (ComparatorKind.STDOUT_NORMALIZED, ComparatorKind.STDERR_NORMALIZED):
        normalizers = st.lists(st.builds(Normalizer, _pattern, _replacement), min_size=1, max_size=2).map(tuple)
    if kind is ComparatorKind.FILE_DIGEST:
        path = _relative
    return st.builds(ComparatorConfig, st.just(kind), normalizers, path)


_pipeline = st.builds(
    ComparatorPipeline,
    st.lists(st.sampled_from(ComparatorKind).flatmap(_comparator), min_size=1, max_size=3).map(tuple),
)
_command = st.builds(
    TestCommand,
    st.lists(_template, min_size=1, max_size=3).map(tuple),
    st.none() | _template,
    st.lists(_relative, max_size=2).map(tuple),
    st.integers(0, 1000),
)


@st.composite
def _binary(draw, label: str) -> BinaryRef:
    static = draw(st.booleans())
    libs = () if static else tuple(draw(st.lists(_path, max_size=2)))
    return BinaryRef(label, draw(_path), libs, static)


@st.composite
def _specs(draw) -> BenchmarkSpec:
    names = draw(st.lists(_text, min_size=1, max_size=3, unique=True))
    anchor = draw(st.none() | st.sampled_from(range(len(names))))
    features = []
    for i, name in enumerate(names):
        disposition = Disposition.RETAIN if i == anchor else draw(st.sampled_from(Disposition))
        features.append(
            Feature(
                name,
                disposition,
                tuple(draw(st.lists(_command, min_size=1, max_size=2))),
                draw(st.none() | _pipeline),
                i == anchor,
            )
        )
    labels = draw(st.lists(_text, min_size=1, max_size=3, unique=True))
    return BenchmarkSpec(
        id=draw(_text.filter(bool)),
        original=draw(_binary(draw(_text))),
        variants=tuple(draw(_binary(label)) for label in labels),
        features=tuple(features),
        default_comparators=draw(_pipeline),
        env=draw(st.dictionaries(_text, _text, max_size=3)),
        timeout_seconds=draw(st.floats(min_value=1e-3, max_value=1e6)),
        trials=draw(st.integers(1, 100)),
    )


@given(_specs())
@settings(max_examples=150, deadline=None)
def test_serialize_then_parse_is_the_identity(spec):
    document = serialize_spec(spec)
    assert parse_spec(document) == spec
    assert serialize_spec(parse_spec(document)) == document


# --- Single faults ---------------------------------------------------------

FULL = {
    "id": "demo",
    "original": {"label": "orig", "exe": "/bin/true", "libs": ["/lib/a.so"], "static": False},
    "variants": [{"label": "v1", "exe": "/bin/false", "libs": [], "static": True}],
    "features": [
        {
            "name": "run",
            "disposition": "retain",
            "anchor": True,
            "commands": [
                {"argv": ["-{{int:1..3}}"], "stdin": "{{bytes:0..4}}", "files": ["out.txt"], "fuzz_count": 3}
            ],
            "comparators": [
                {"kind": "exit_status"},
                {"kind": "stdout_normalized", "normalizers": [{"pattern": "[0-9]+", "replacement": "N"}]},
                {"kind": "file_digest", "path": "out.txt"},
            ],
        },
        {"name": "other", "disposition": "debloat", "commands": [{"argv": ["-x"]}]},
    ],
    "comparators": [{"kind": "stdout_exact"}, {"kind": "stderr_exact"}],
    "env": {"LC_ALL": "C"},
    "timeout_seconds": 5.0,
    "trials": 3,
}
OPTIONAL_KEYS = {
    "libs", "static", "stdin", "files", "fuzz_count", "anchor", "comparators", "normalizers", "path", "env",
    "timeout_seconds", "trials",
    "LC_ALL",  # env is a map, so each of its entries is optional
}
JSON_VALUES = [None, True, 0, 1.5, "x", [], {}]


def _objects(node, path=""):
    """(path, object) of every JSON object in the document, outermost first."""
    if isinstance(node, dict):
        yield path, node
        for key, value in node.items():
            yield from _objects(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _objects(value, f"{path}[{i}]")


def _with(object_path: str, change) -> dict:
    """A copy of FULL with change applied to the object at object_path."""
    document = copy.deepcopy(FULL)
    change(dict(_objects(document))[object_path])
    return document


def _faults():
    """(key path, may parse, document) for each single fault of FULL.

    A missing optional key may parse, and so may a number in place of a
    float; every other fault must not.
    """
    for object_path, obj in _objects(FULL):
        prefix = f"{object_path}." if object_path else ""
        for key, value in obj.items():
            yield prefix + key, key in OPTIONAL_KEYS, _with(object_path, lambda o: o.pop(key))
            for bad in JSON_VALUES:
                if type(bad) is not type(value):
                    number = type(bad) in (int, float) and type(value) is float
                    yield prefix + key, number, _with(object_path, lambda o: o.update({key: bad}))
        yield prefix + "zz_unknown", False, _with(object_path, lambda o: o.update(zz_unknown=1))


def _encloses(outer: str, inner: str) -> bool:
    return outer == inner or outer == "" or inner.startswith(outer) and inner[len(outer)] in ".["


def test_every_single_fault_is_a_spec_error_at_its_key():
    faults = list(_faults())
    assert len(faults) > 250
    for key_path, may_parse, document in faults:
        try:
            parse_spec(json.dumps(document).encode())
        except SpecError as exc:
            assert _encloses(exc.path, key_path), (key_path, exc.path, str(exc))
        else:
            assert may_parse, key_path


# Arrays that may be empty; every other array of FULL must hold an item.
MAY_BE_EMPTY = {"libs", "files"}
_TYPE_ERROR = re.compile(r"expected (string|integer|number|boolean|array|object), got (string|integer|number|boolean|array|object|null)")


def _parse_error(document) -> SpecError | None:
    try:
        parse_spec(json.dumps(document).encode())
    except SpecError as exc:
        return exc
    return None


def test_every_numeric_and_array_key_names_its_own_path():
    checked = 0
    for object_path, obj in _objects(FULL):
        prefix = f"{object_path}." if object_path else ""
        for key, value in obj.items():
            path = prefix + key
            set_to = lambda bad: _with(object_path, lambda o: o.update({key: bad}))  # noqa: E731
            if type(value) in (int, float):
                for bad in (-1, "1"):
                    exc = _parse_error(set_to(bad))
                    assert exc is not None and exc.path == path, (path, bad, exc)
                integer = type(value) is int
                exc = _parse_error(set_to(2.5))
                assert (exc is not None) == integer, path
                if integer:
                    assert (exc.path, str(exc)) == (path, f"{path}: expected integer, got number")
            elif type(value) is list:
                exc = _parse_error(set_to({}))
                assert (exc.path, str(exc)) == (path, f"{path}: expected array, got object")
                exc = _parse_error(set_to([]))
                assert (exc is None) == (key in MAY_BE_EMPTY), path
                assert exc is None or exc.path == path, (path, exc)
                exc = _parse_error(set_to([None, *value[1:]]))
                assert exc.path == f"{path}[0]" and _TYPE_ERROR.search(str(exc)), (path, exc)
            else:
                continue
            checked += 1
    assert checked == 15  # 3 numeric keys and 12 arrays
    for bad in ("/abs", "../up", "a/../b"):
        document = copy.deepcopy(FULL)
        document["features"][0]["commands"][0]["files"] = ["ok.txt", bad]
        assert _parse_error(document).path == "features[0].commands[0].files[1]"


def test_type_errors_name_json_types():
    for key_path, _, document in _faults():
        exc = _parse_error(document)
        if exc is not None and "expected" in str(exc):
            assert "<class" not in str(exc) and _TYPE_ERROR.search(str(exc)), (key_path, str(exc))


def _with_surrogate(node, target: str, path: str = ""):
    """A copy of node whose string at path target ends in a lone surrogate."""
    if isinstance(node, dict):
        return {k: _with_surrogate(v, target, f"{path}.{k}" if path else k) for k, v in node.items()}
    if isinstance(node, list):
        return [_with_surrogate(v, target, f"{path}[{i}]") for i, v in enumerate(node)]
    return node + "\ud800" if path == target and isinstance(node, str) else node


def _string_paths(node, path: str = ""):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _string_paths(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _string_paths(value, f"{path}[{i}]")
    elif isinstance(node, str):
        yield path


def test_every_string_that_is_not_utf8_is_a_schema_error_at_its_path():
    paths = list(_string_paths(FULL))
    assert len(paths) > 20
    for path in paths:
        with pytest.raises(SchemaError) as exc:
            parse_spec(json.dumps(_with_surrogate(FULL, path)).encode())
        assert exc.value.path == path


# --- README ----------------------------------------------------------------

def test_readme_quick_start_spec_parses():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    spec = parse_spec(blocks[0].encode())
    assert spec.id == "gzip-demo"
    assert [f.name for f in spec.features] == ["compress", "decompress"]


# --- The field tables ------------------------------------------------------

_TABLES = [
    spec_model._SPEC,
    spec_model._BINARY,
    spec_model._FEATURE,
    spec_model._COMMAND,
    spec_model._COMPARATOR,
    spec_model._NORMALIZER,
]


def test_table_defaults_are_the_dataclass_defaults():
    # A missing key leaves the dataclass default, so a row's default must equal it.
    for table in _TABLES:
        defaults = {
            f.name: f.default_factory() if f.default_factory is not dataclasses.MISSING else f.default
            for f in dataclasses.fields(table.cls)
        }
        for row in table.fields.values():
            if row.default is spec_model._REQUIRED:
                assert defaults[row.attr] is dataclasses.MISSING, (table.cls, row.key)
            else:
                assert row.default == defaults[row.attr], (table.cls, row.key)


def test_readme_spec_format_lists_every_key_in_order():
    section = README.read_text().split("## Spec format", 1)[1].split("\n## ", 1)[0]
    tables = re.findall(r"\| key \|.*?\n((?:\|.*\n)+)", section)
    listed = [re.findall(r"^\| `(\w+)` \|", table, re.M) for table in tables]
    assert listed == [list(table.fields) for table in _TABLES]
