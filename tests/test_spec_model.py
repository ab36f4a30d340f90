from __future__ import annotations

import json
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from debloateval.spec_model import (
    BenchmarkSpec,
    BinaryRef,
    Disposition,
    InvariantError,
    NoAnchorError,
    SchemaError,
    SpecSyntaxError,
    TestCommand,
    parse_spec,
    validate_spec_against_binaries,
    winnow_to_aggressive,
)

MINIMAL = {
    "id": "demo",
    "original": {"label": "orig", "exe": "/bin/true"},
    "variants": [{"label": "v1", "exe": "/bin/false"}],
    "features": [
        {"name": "run", "disposition": "retain", "commands": [{"argv": ["--version"]}]}
    ],
}


def doc(overrides=None, **kwargs) -> bytes:
    merged = json.loads(json.dumps(MINIMAL))
    merged.update(overrides or {})
    merged.update(kwargs)
    return json.dumps(merged).encode()


def test_minimal_document_defaults():
    spec = parse_spec(doc())
    assert spec.id == "demo"
    assert spec.trials == 10
    assert spec.timeout_seconds > 0
    assert len(spec.default_comparators.comparators) == 4
    assert spec.features[0].disposition is Disposition.RETAIN


def test_malformed_json_is_syntax_error():
    with pytest.raises(SpecSyntaxError):
        parse_spec(b"{not json")
    with pytest.raises(SpecSyntaxError):  # an integer past the parser's digit limit
        parse_spec(b'{"trials": ' + b"1" * 5000 + b"}")


def test_unknown_top_level_key_rejected():
    with pytest.raises(SchemaError) as exc:
        parse_spec(doc(bogus=1))
    assert "bogus" in str(exc.value)


def test_duplicate_feature_names():
    features = [
        {"name": "compress", "disposition": "retain", "commands": [{"argv": ["-1"]}]},
        {"name": "compress", "disposition": "debloat", "commands": [{"argv": ["-9"]}]},
    ]
    with pytest.raises(InvariantError) as exc:
        parse_spec(doc(features=features))
    assert exc.value.path == "features[1].name"


def test_zero_timeout_is_schema_error():
    with pytest.raises(SchemaError):
        parse_spec(doc(timeout_seconds=0))


def test_missing_variants_rejected():
    with pytest.raises(InvariantError):
        parse_spec(doc(variants=[]))


def test_static_binary_with_libs_rejected():
    with pytest.raises(InvariantError):
        parse_spec(doc(original={"label": "o", "exe": "/bin/true", "static": True, "libs": ["/lib/x.so"]}))


def test_command_with_parent_path_output_rejected():
    features = [
        {
            "name": "f",
            "disposition": "retain",
            "commands": [{"argv": ["x"], "files": ["../escape"]}],
        }
    ]
    with pytest.raises(InvariantError):
        parse_spec(doc(features=features))


@pytest.mark.parametrize("where", ["feature", "spec"])
def test_a_digested_file_that_no_command_captures_is_rejected_at_its_files(where):
    # Never captured, the file would read absent on both sides and always match.
    comparators = [{"kind": "exit_status"}, {"kind": "file_digest", "path": "out.txt"}]
    features = json.loads(json.dumps(MINIMAL["features"]))
    features[0]["commands"].append({"argv": ["-o", "out.txt"], "files": ["out.txt"]})
    document = {"comparators": comparators} if where == "spec" else {}
    if where == "feature":
        features[0]["comparators"] = comparators
    with pytest.raises(InvariantError) as exc:
        parse_spec(doc(document, features=features))
    assert exc.value.path == "features[0].commands[0].files"
    assert "'out.txt'" in str(exc.value)
    features[0]["commands"][0]["files"] = ["log", "out.txt"]
    spec = parse_spec(doc(document, features=features))
    assert spec.pipeline_for(spec.features[0]).comparators[1].path == "out.txt"


def test_anchor_must_be_retained():
    features = [
        {"name": "f", "disposition": "debloat", "anchor": True, "commands": [{"argv": ["x"]}]}
    ]
    with pytest.raises(InvariantError):
        parse_spec(doc(features=features))


def test_constructed_specs_keep_the_parse_invariants():
    spec = winnowable_spec()
    a, b, c = spec.features
    cases = [
        ({"timeout_seconds": 0.0}, SchemaError, "timeout_seconds"),
        ({"timeout_seconds": float("nan")}, SchemaError, "timeout_seconds"),
        ({"timeout_seconds": float("inf")}, SchemaError, "timeout_seconds"),
        ({"trials": 0}, SchemaError, "trials"),
        ({"features": (a, replace(b, name="a"), c)}, InvariantError, "features[1].name"),
        ({"features": (a, replace(b, aggressive_anchor=True), c)}, InvariantError, "features[1].anchor"),
        (
            {"features": (a, replace(b, commands=(TestCommand(("x",), stdin="{{bytes:2..1}}"),)), c)},
            SchemaError,
            "features[1].commands[0].stdin",
        ),
        ({"variants": spec.variants * 2}, InvariantError, "variants[1].label"),
    ]
    for change, error, path in cases:
        with pytest.raises(error) as exc:
            replace(spec, **change)
        assert exc.value.path == path
    second_anchor = json.loads(winnowable_document())
    second_anchor["features"][1]["anchor"] = True
    with pytest.raises(InvariantError) as exc:
        parse_spec(json.dumps(second_anchor).encode())
    assert exc.value.path == "features[1].anchor"


def test_duplicate_variant_label_is_rejected_at_parse():
    variants = [{"label": "v", "exe": "/bin/false"}, {"label": "v", "exe": "/bin/cat"}]
    with pytest.raises(InvariantError) as exc:
        parse_spec(doc(variants=variants))
    assert exc.value.path == "variants[1].label"


def test_comparator_override_parses():
    features = [
        {
            "name": "f",
            "disposition": "retain",
            "commands": [{"argv": ["x"]}],
            "comparators": [
                {
                    "kind": "stdout_normalized",
                    "normalizers": [{"pattern": r"\d{4}-\d{2}-\d{2}", "replacement": "<TS>"}],
                }
            ],
        }
    ]
    spec = parse_spec(doc(features=features))
    override = spec.features[0].comparator_override
    assert override is not None
    assert override.comparators[0].normalizers[0].replacement == "<TS>"


def test_unknown_comparator_kind():
    with pytest.raises(SchemaError):
        parse_spec(doc(comparators=[{"kind": "fancy_diff"}]))


@pytest.mark.parametrize(
    "normalizer,key,error,message",
    [
        ({"pattern": "[0-9]+"}, "replacement", SchemaError, "missing required field"),
        ({"pattern": 5, "replacement": "N"}, "pattern", SchemaError, "expected string, got integer"),
        # Normalizer checks its own pattern, so a bad one breaks its invariant.
        ({"pattern": "(", "replacement": "N"}, "pattern", InvariantError,
         "invalid regex: missing ), unterminated subpattern"),
        # Valid as a str pattern; Normalizer.apply matches bytes, where \u is a bad escape.
        ({"pattern": "\\u0068", "replacement": "N"}, "pattern", InvariantError,
         "invalid regex: bad escape \\u at position 0"),
    ],
    ids=["missing-replacement", "non-string-pattern", "bad-regex", "bad-bytes-escape"],
)
def test_normalizer_faults_name_their_own_key(normalizer, key, error, message):
    comparators = [{"kind": "stdout_normalized", "normalizers": [normalizer]}]
    with pytest.raises(error) as exc:
        parse_spec(doc(comparators=comparators))
    path = f"comparators[0].normalizers[0].{key}"
    assert exc.value.path == path
    assert str(exc.value).startswith(f"{path}: {message}")


def test_normalizer_replacement_with_a_bad_group_reference_names_its_key():
    comparators = [{"kind": "stdout_normalized", "normalizers": [{"pattern": "x", "replacement": "\\9"}]}]
    with pytest.raises(InvariantError) as exc:
        parse_spec(doc(comparators=comparators))
    path = "comparators[0].normalizers[0].replacement"
    assert exc.value.path == path
    assert str(exc.value).startswith(f"{path}: invalid replacement: invalid group reference 9")


def test_template_that_is_not_utf8_is_schema_error():
    # JSON can spell a lone surrogate, which no argv or stdin can carry.
    features = [{"name": "f", "disposition": "retain", "commands": [{"argv": ["ok", "\ud800"]}]}]
    with pytest.raises(SchemaError) as exc:
        parse_spec(doc(features=features))
    assert exc.value.path == "features[0].commands[0].argv[1]"


def test_an_argument_that_exec_cannot_carry_is_rejected_at_its_path():
    # An argument holds at most 131,071 bytes; an ascii hole's minimum, a
    # dict hole's shortest word and a digit per int hole count toward it.
    # stdin has no such limit.
    def spec(command: dict) -> bytes:
        return doc(features=[{"name": "f", "disposition": "retain", "commands": [command]}])

    fits = "b{{dict:xyz|12}}{{int:500..900}}{{ascii:%d..200000}}" % (131071 - 4)
    parse_spec(spec({"argv": ["ok", fits]}))
    parse_spec(spec({"argv": ["ok"], "stdin": "{{ascii:200000..200000}}"}))
    with pytest.raises(SchemaError) as exc:
        parse_spec(spec({"argv": ["ok", "a" + fits]}))
    assert exc.value.path == "features[0].commands[0].argv[1]"
    assert str(exc.value).endswith("renders to at least 131072 bytes; an argument holds at most 131071")


def winnowable_document() -> bytes:
    features = [
        {
            "name": "a",
            "disposition": "retain",
            "anchor": True,
            "commands": [{"argv": ["a1"]}, {"argv": ["a2"]}],
        },
        {"name": "b", "disposition": "retain", "commands": [{"argv": ["b"]}]},
        {"name": "c", "disposition": "debloat", "commands": [{"argv": ["c"]}]},
    ]
    return doc(features=features)


def winnowable_spec() -> BenchmarkSpec:
    return parse_spec(winnowable_document())


def test_winnow_keeps_anchor_first_command_only():
    aggressive = winnow_to_aggressive(winnowable_spec())
    by_name = {f.name: f for f in aggressive.features}
    assert by_name["a"].disposition is Disposition.RETAIN
    assert len(by_name["a"].commands) == 1
    assert by_name["a"].commands[0].argv_template == ("a1",)
    assert by_name["b"].disposition is Disposition.DEBLOAT
    assert by_name["c"].disposition is Disposition.DEBLOAT


def test_winnow_is_idempotent_and_never_grows():
    spec = winnowable_spec()
    once = winnow_to_aggressive(spec)
    assert winnow_to_aggressive(once) == once

    def total_commands(s):
        return sum(len(f.commands) for f in s.features)

    assert total_commands(once) <= total_commands(spec)


def test_winnow_without_anchor():
    with pytest.raises(NoAnchorError):
        winnow_to_aggressive(parse_spec(doc()))


def test_winnow_single_anchored_feature_is_fixed_point():
    features = [
        {"name": "a", "disposition": "retain", "anchor": True, "commands": [{"argv": ["a"]}]}
    ]
    spec = parse_spec(doc(features=features))
    assert winnow_to_aggressive(spec) == spec


def test_validate_reports_missing_and_aliased(tmp_path):
    missing = tmp_path / "missing"
    spec = parse_spec(
        doc(
            original={"label": "o", "exe": "/bin/true", "libs": [str(tmp_path / "libgone.so")]},
            variants=[
                {"label": "gone", "exe": str(missing)},
                {"label": "alias", "exe": "/bin/true"},
            ],
        )
    )
    # Each warning names the spec's JSON key, as a SpecError does.
    assert validate_spec_against_binaries(spec) == [
        f"original.libs[0] not found: {tmp_path / 'libgone.so'}",
        f"variants[0].exe not found: {missing}",
        "variants[1] aliases original: /bin/true",
    ]


def test_validate_reports_an_alias_through_a_symlinked_directory(tmp_path):
    (tmp_path / "usr" / "bin").mkdir(parents=True)
    shutil.copy("/bin/true", tmp_path / "usr" / "bin" / "true")
    (tmp_path / "bin").symlink_to("usr/bin")
    spec = parse_spec(
        doc(
            original={"label": "o", "exe": str(tmp_path / "bin" / "true")},
            variants=[{"label": "v", "exe": str(tmp_path / "usr" / "bin" / "true")}],
        )
    )
    assert validate_spec_against_binaries(spec) == [
        f"variants[0] aliases original: {tmp_path / 'usr' / 'bin' / 'true'}"
    ]


def test_validate_clean_spec_is_quiet():
    spec = parse_spec(doc())
    assert validate_spec_against_binaries(spec) == []


def test_test_command_requires_argv():
    with pytest.raises(ValueError):
        TestCommand(())


def test_binary_ref_static_invariant():
    with pytest.raises(ValueError):
        BinaryRef("x", exe_path=Path("/bin/true"), lib_paths=(Path("/lib/a.so"),),
                  statically_linked=True)
