"""The spec's JSON format: generated documents, single faults, its field tables and the README."""

from __future__ import annotations

import copy
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debloateval import spec_model
from debloateval.comparator import (
    ComparatorConfig,
    ComparatorKind,
    ComparatorPipeline,
    Normalizer,
    default_pipeline,
)
from debloateval.spec_model import (
    BenchmarkSpec,
    BinaryRef,
    Disposition,
    Feature,
    SchemaError,
    SpecError,
    TestCommand,
    parse_spec,
)

README = Path(__file__).resolve().parent.parent / "README.md"

# --- Generated documents ---------------------------------------------------
#
# Each strategy draws a JSON document and the value it spells, from the same
# draws. A key that is left out stands for its default.

# Spec strings are UTF-8, and a lone surrogate (category Cs) is no UTF-8.
_text = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12)
# A string that reaches the OS (a path, an argument, an env entry) holds no NUL.
_os_text = _text.filter(lambda s: "\0" not in s)
# Templates are text without holes, or with one.
_plain = st.text(alphabet=st.characters(blacklist_characters="{}", blacklist_categories=("Cs",)), max_size=12)
_template = _plain | st.sampled_from(["{{int:1..9}}", "-{{int:0..3}}x", "{{bytes:0..64}}"])
# A bytes hole may draw NUL, which no argument can carry, so argv holds none.
_argv_template = _plain | st.sampled_from(["{{int:1..9}}", "-{{int:0..3}}x", "{{ascii:0..8}}"])
_relative = st.sampled_from(["out", "out.txt", "dir/log", "a/b/c"])
_pattern = st.sampled_from([r"[0-9]+", r"\d{4}-\d{2}", "a|b", r"\s+$", "(x)?"])
# A backslash in a replacement starts an escape, and a bad one is no valid spec.
_replacement = _text.filter(lambda s: "\\" not in s) | st.sampled_from([r"\\", r"\g<0>", r"<\n>"])


def _optional(draw, doc: dict, key: str, strategy, default):
    """A drawn value written to doc at key, or default with key left out."""
    value = draw(st.none() | strategy)
    if value is None:
        return default
    doc[key] = value
    return value


def _split(pairs) -> tuple[list, tuple]:
    """The documents and the values of (document, value) pairs."""
    return [doc for doc, _ in pairs], tuple(value for _, value in pairs)


@st.composite
def _comparator(draw, digestible: list[str]):
    kind = draw(st.sampled_from([k for k in ComparatorKind if digestible or k is not ComparatorKind.FILE_DIGEST]))
    doc = {"kind": kind.value}
    normalizers, path = (), None
    if kind in (ComparatorKind.STDOUT_NORMALIZED, ComparatorKind.STDERR_NORMALIZED):
        rules = draw(st.lists(st.tuples(_pattern, _replacement), min_size=1, max_size=2))
        doc["normalizers"] = [{"pattern": p, "replacement": r} for p, r in rules]
        normalizers = tuple(Normalizer(p, r) for p, r in rules)
    if kind is ComparatorKind.FILE_DIGEST:
        doc["path"] = path = draw(st.sampled_from(digestible))
    return doc, ComparatorConfig(kind, normalizers, path)


def _pipeline(commands: list[dict]):
    """A pipeline whose digested files every one of the command documents captures."""
    digestible = sorted(set.intersection(*(set(c.get("files", ())) for c in commands))) if commands else []
    comparators = st.lists(_comparator(digestible), min_size=1, max_size=3).map(_split)
    return comparators.map(lambda split: (split[0], ComparatorPipeline(split[1])))


@st.composite
def _command(draw):
    argv = draw(st.lists(_argv_template.filter(lambda s: "\0" not in s), min_size=1, max_size=3))
    doc = {"argv": argv}
    stdin = _optional(draw, doc, "stdin", _template, None)
    files = _optional(draw, doc, "files", st.lists(_relative, max_size=2), [])
    fuzz_count = _optional(draw, doc, "fuzz_count", st.integers(0, 1000), 0)
    return doc, TestCommand(tuple(argv), stdin, tuple(files), fuzz_count)


@st.composite
def _binary(draw, label: str):
    exe = draw(_os_text.filter(bool))
    doc = {"label": label, "exe": exe}
    static = _optional(draw, doc, "static", st.booleans(), False)
    libs = [] if static else _optional(draw, doc, "libs", st.lists(_os_text.filter(bool), max_size=2), [])
    return doc, BinaryRef(label, Path(exe), tuple(map(Path, libs)), static)


@st.composite
def _documents(draw) -> tuple[dict, BenchmarkSpec]:
    names = draw(st.lists(_text, min_size=1, max_size=3, unique=True))
    anchor = draw(st.none() | st.sampled_from(range(len(names))))
    feature_docs, features = [], []
    for i, name in enumerate(names):
        disposition = Disposition.RETAIN if i == anchor else draw(st.sampled_from(Disposition))
        command_docs, commands = _split(draw(st.lists(_command(), min_size=1, max_size=2)))
        doc = {"name": name, "disposition": disposition.value, "commands": command_docs}
        if i == anchor or draw(st.booleans()):
            doc["anchor"] = i == anchor
        override = draw(st.none() | _pipeline(command_docs))
        if override is not None:
            doc["comparators"], override = override
        feature_docs.append(doc)
        features.append(Feature(name, disposition, commands, override, i == anchor))
    labels = draw(st.lists(_text, min_size=1, max_size=3, unique=True))
    variant_docs, variants = _split([draw(_binary(label)) for label in labels])
    original, original_ref = draw(_binary(draw(_text)))
    doc = {"id": draw(_text.filter(bool)), "original": original, "variants": variant_docs, "features": feature_docs}
    by_default = [c for feature in feature_docs if "comparators" not in feature for c in feature["commands"]]
    pipeline = default_pipeline()
    if draw(st.booleans()):
        doc["comparators"], pipeline = draw(_pipeline(by_default))
    env_name = _os_text.filter(lambda s: s and "=" not in s)
    env = _optional(draw, doc, "env", st.dictionaries(env_name, _os_text, max_size=3), {})
    timeout = _optional(draw, doc, "timeout_seconds", st.floats(1e-3, 1e6) | st.integers(1, 10**6), 30.0)
    trials = _optional(draw, doc, "trials", st.integers(1, 100), 10)
    spec = BenchmarkSpec(doc["id"], original_ref, variants, tuple(features), pipeline, env, float(timeout), trials)
    return doc, spec


@given(_documents())
@settings(max_examples=150, deadline=None)
def test_a_generated_document_parses_to_the_spec_it_spells(drawn):
    doc, spec = drawn
    assert parse_spec(json.dumps(doc).encode()) == spec


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


def test_every_key_of_full_lands_on_its_field():
    assert parse_spec(json.dumps(FULL).encode()) == BenchmarkSpec(
        id="demo",
        original=BinaryRef("orig", Path("/bin/true"), (Path("/lib/a.so"),), False),
        variants=(BinaryRef("v1", Path("/bin/false"), (), True),),
        features=(
            Feature(
                "run",
                Disposition.RETAIN,
                (TestCommand(("-{{int:1..3}}",), "{{bytes:0..4}}", ("out.txt",), 3),),
                ComparatorPipeline((
                    ComparatorConfig(ComparatorKind.EXIT_STATUS),
                    ComparatorConfig(ComparatorKind.STDOUT_NORMALIZED, (Normalizer("[0-9]+", "N"),)),
                    ComparatorConfig(ComparatorKind.FILE_DIGEST, path="out.txt"),
                )),
                aggressive_anchor=True,
            ),
            Feature("other", Disposition.DEBLOAT, (TestCommand(("-x",)),)),
        ),
        default_comparators=ComparatorPipeline((
            ComparatorConfig(ComparatorKind.STDOUT_EXACT),
            ComparatorConfig(ComparatorKind.STDERR_EXACT),
        )),
        env={"LC_ALL": "C"},
        timeout_seconds=5.0,
        trials=3,
    )


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
    parse_spec(json.dumps(FULL).encode())  # FULL itself is valid
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
# FULL digests a file that its one command captures, so its files may not be empty.
MAY_BE_EMPTY = {"libs"}
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


def _with_suffix(node, target: str, suffix: str, path: str = ""):
    """A copy of node whose string at path target ends in suffix."""
    if isinstance(node, dict):
        return {k: _with_suffix(v, target, suffix, f"{path}.{k}" if path else k) for k, v in node.items()}
    if isinstance(node, list):
        return [_with_suffix(v, target, suffix, f"{path}[{i}]") for i, v in enumerate(node)]
    return node + suffix if path == target and isinstance(node, str) else node


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
            parse_spec(json.dumps(_with_suffix(FULL, path, "\ud800")).encode())
        assert exc.value.path == path


# The strings of FULL that reach the OS: exec paths, library paths, argv,
# captured files and env entries. stdin, labels and normalizers may hold NUL.
_OS_STRINGS = re.compile(r"(original|variants\[0\])\.(exe|libs\[0\])|.*\.(argv|files)\[\d+\]|env\..*")


def test_every_string_that_reaches_the_os_with_a_nul_is_a_schema_error_at_its_path():
    paths = list(_string_paths(FULL))
    os_paths = [path for path in paths if _OS_STRINGS.fullmatch(path)]
    assert len(os_paths) == 7
    accepted = set()
    for path in paths:
        document = json.dumps(_with_suffix(FULL, path, "\x00")).encode()
        if path in os_paths:
            with pytest.raises(SchemaError) as exc:
                parse_spec(document)
            assert exc.value.path == path
            assert "NUL character" in str(exc.value)
            continue
        try:
            parse_spec(document)
            accepted.add(path)
        except SpecError as exc:  # an enum's name, say, takes no suffix at all
            assert "NUL" not in str(exc), path
    assert accepted >= {
        "original.label", "variants[0].label", "features[0].commands[0].stdin",
        "features[0].comparators[1].normalizers[0].pattern", "features[0].comparators[1].normalizers[0].replacement",
    }


@pytest.mark.parametrize("name", ["", "A=B", "A\x00B"])
def test_an_env_name_that_no_environment_can_hold_is_a_schema_error_at_env(name):
    with pytest.raises(SchemaError) as exc:
        parse_spec(json.dumps({**FULL, "env": {name: "x"}}).encode())
    assert exc.value.path == "env"


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


def test_readme_spec_format_lists_every_key_in_order():
    section = README.read_text().split("## Spec format", 1)[1].split("\n## ", 1)[0]
    tables = re.findall(r"\| key \|.*?\n((?:\|.*\n)+)", section)
    listed = [re.findall(r"^\| `(\w+)` \|", table, re.M) for table in tables]
    assert listed == [list(table.fields) for table in _TABLES]
