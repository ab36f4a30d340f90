from __future__ import annotations

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debloateval import digest
from debloateval.fuzz_engine import (
    ASCII_HI,
    ASCII_LO,
    BoundsError,
    Hole,
    HoleKind,
    Literal,
    MutationPlan,
    SplitMix64,
    TemplateSyntaxError,
    check_bounds,
    default_seed_values,
    derive_commands,
    generate,
    matches_skeleton,
    parse_template,
    render,
    stream_seed,
)
from debloateval.spec_model import TestCommand


# --- Parsing -----------------------------------------------------------

def test_parse_plain_literal():
    template = parse_template("gzip -9")
    assert template.tokens == (Literal(b"gzip -9"),)
    assert template.holes == ()


def test_parse_each_hole_kind():
    template = parse_template("{{ascii:1..8}}{{bytes:0..4}}{{int:-5..5}}{{dict:on|off}}")
    kinds = [h.kind for h in template.holes]
    assert kinds == [HoleKind.ASCII, HoleKind.BYTES, HoleKind.INT, HoleKind.DICT]
    assert template.holes[2].min_len == -5
    assert template.holes[3].words == ("on", "off")


def test_parse_mixed_literals_and_holes():
    template = parse_template("-o {{ascii:1..3}}.txt")
    assert template.tokens == (Literal(b"-o "), Hole(HoleKind.ASCII, 1, 3), Literal(b".txt"))


def test_brace_escapes_are_literal():
    template = parse_template("a{{{{b}}}}c")
    assert template.tokens == (Literal(b"a{{b}}c"),)


def test_unterminated_hole_reports_offset():
    with pytest.raises(TemplateSyntaxError) as exc:
        parse_template("abc{{ascii:1..2")
    assert exc.value.offset == 3


@pytest.mark.parametrize(
    "text",
    [
        "{{frob:1..2}}",
        "{{ascii}}",
        "{{ascii:12}}",
        "{{ascii:x..y}}",
        "{{ascii:5..2}}",
        "{{ascii:-1..2}}",
        "{{dict:}}",
        "{{dict:a||b}}",
    ],
)
def test_malformed_holes_rejected(text):
    with pytest.raises(TemplateSyntaxError):
        parse_template(text)


def test_int_hole_allows_negative_bounds():
    hole = parse_template("{{int:-10..-2}}").holes[0]
    assert (hole.min_len, hole.max_len) == (-10, -2)


# --- Seed values, bounds, rendering ------------------------------------

def test_default_seed_values_are_in_bounds():
    template = parse_template("{{ascii:2..5}} {{bytes:1..3}} {{int:7..9}} {{dict:x|y}}")
    values = default_seed_values(template)
    assert values == [b"aa", b"\x00", b"7", b"x"]
    check_bounds(template, values)


def test_render_reassembles_in_order():
    template = parse_template("pre{{ascii:1..4}}mid{{dict:a|b}}post")
    assert render(template, [b"XY", b"b"]) == b"preXYmidbpost"


@pytest.mark.parametrize(
    "text,bad",
    [
        ("{{ascii:2..4}}", [b"a"]),  # too short
        ("{{ascii:2..4}}", [b"aaaaa"]),  # too long
        ("{{ascii:1..4}}", [b"\x01"]),  # non-printable
        ("{{int:0..9}}", [b"12"]),  # out of range
        ("{{int:0..9}}", [b"zz"]),  # not a number
        ("{{dict:a|b}}", [b"c"]),  # not a word
        ("{{int:0..20}}", [b"+5"]),  # int() takes a plus sign; the skeleton does not
        ("{{int:0..20}}", [b" 5"]),  # nor white space
        ("{{int:0..20}}", [b"1_0"]),  # nor an underscore
        ("{{int:0..20}}", [b"-0"]),  # a sign where the minimum is not negative
        ("{{int:0..20}}", [b"005"]),  # more digits than the bounds have
    ],
)
def test_check_bounds_rejects(text, bad):
    with pytest.raises(BoundsError):
        check_bounds(parse_template(text), bad)


def test_check_bounds_arity_mismatch():
    with pytest.raises(BoundsError):
        check_bounds(parse_template("{{int:0..9}}"), [])


# --- PRNG and streams ---------------------------------------------------

def test_splitmix64_known_sequence():
    # Reference values for seed 0 from the published splitmix64 algorithm.
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_stream_seed_is_stable_and_distinct():
    a = stream_seed(0, "compress", 0)
    assert a == stream_seed(0, "compress", 0)
    assert a != stream_seed(0, "compress", 1)
    assert a != stream_seed(0, "extract", 0)
    assert a != stream_seed(1, "compress", 0)


def test_stream_seed_keeps_its_recorded_values():
    # Values recorded from hashlib.sha256; the built-in SHA-256 must give the same streams.
    assert stream_seed(0, "compress", 0) == 0xF429412C3E68F159
    assert stream_seed(1, "compress", 0) == 0x7E225BA677754AE2
    assert stream_seed(2**64 - 1, "ünï", 7) == 0x57C96F009EFB4A1D
    assert stream_seed(-1, "", 0) == 0xBD8E6E2B7C629746
    assert stream_seed(12345, "passthru", 3) == 0x6735EFBEB4BB6932


@given(st.binary(max_size=300), st.integers(0, 300))
@settings(max_examples=200)
def test_builtin_sha256_equals_hashlib(data, cut):
    assert digest.sha256(data).digest() == hashlib.sha256(data).digest()
    running = digest.sha256(bytearray(data[:cut]))
    running.update(data[cut:])
    assert running.hexdigest() == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "blocked", [(), ("_sha2",), ("_sha2", "_sha256")], ids=["as-is", "no-_sha2", "neither"]
)
def test_each_sha256_import_gives_the_same_digest(blocked):
    # Python 3.12+ has _sha2, 3.10 and 3.11 _sha256; hashlib is the last resort.
    script = (
        "import sys\n"
        f"for name in {blocked!r}: sys.modules[name] = None\n"
        "from debloateval import digest\n"
        "print(digest.sha256(b'abc').hexdigest(), '_hashlib' in sys.modules)\n"
    )
    src = Path(digest.__file__).parents[1]
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    hexdigest, loaded_openssl = proc.stdout.split()
    assert hexdigest == hashlib.sha256(b"abc").hexdigest()
    builtin = [name for name in ("_sha2", "_sha256") if name not in blocked and importlib.util.find_spec(name)]
    assert loaded_openssl == str(not builtin)


# --- generate ------------------------------------------------------------

def test_generate_is_pure():
    template = parse_template("x{{ascii:1..8}}y")
    plan = MutationPlan(seed=42, count=20)
    values = default_seed_values(template)
    assert generate(template, values, plan) == generate(template, values, plan)


def test_generate_count_and_distinct_seeds():
    template = parse_template("{{bytes:4..16}}")
    a = generate(template, default_seed_values(template), MutationPlan(seed=1, count=10))
    b = generate(template, default_seed_values(template), MutationPlan(seed=2, count=10))
    assert len(a) == len(b) == 10
    assert a != b


def test_generate_zero_count():
    template = parse_template("{{bytes:0..4}}")
    assert generate(template, default_seed_values(template), MutationPlan()) == []


def test_mutants_preserve_literal_skeleton():
    template = parse_template(
        "--level={{int:1..9}} --name={{ascii:1..12}} --id={{int:100000000000000000000..100000000000000000009}}"
    )
    mutants = generate(template, default_seed_values(template), MutationPlan(seed=7, count=100))
    for mutant in mutants:
        assert matches_skeleton(template, mutant)
        assert mutant.startswith(b"--level=")
        assert b" --name=" in mutant
        assert b" --id=1000000000000000000" in mutant


def test_an_int_hole_matches_as_many_digits_as_its_bounds_have():
    wide = parse_template("{{int:100000000000000000000..100000000000000000009}}")
    assert matches_skeleton(wide, render(wide, default_seed_values(wide)))
    assert not matches_skeleton(wide, b"1" * 22)
    narrow = parse_template("{{int:-100..100}}")
    assert matches_skeleton(narrow, b"-100")
    assert matches_skeleton(narrow, b"7")
    assert not matches_skeleton(narrow, b"1000")
    assert not matches_skeleton(narrow, b"-1000")
    assert not matches_skeleton(parse_template("{{int:0..9}}"), b"-5")
    assert not matches_skeleton(parse_template("{{int:0..9}}"), b"-0")


@pytest.mark.parametrize("bounds", ["0..9", "0..20", "-100..100"])
@pytest.mark.parametrize("text", [b"5", b"+5", b" 5", b"1_0", b"-0", b"-5", b"05", b"005"])
def test_an_int_text_that_check_bounds_accepts_matches_the_skeleton(bounds, text):
    template = parse_template("{{int:%s}}" % bounds)
    try:
        check_bounds(template, [text])
    except BoundsError:
        return
    assert matches_skeleton(template, text)


def test_dict_substitute_only_yields_dictionary_words():
    template = parse_template("{{dict:red|green|blue}}")
    mutants = generate(template, [b"red"], MutationPlan(seed=3, count=50))
    assert set(mutants) <= {b"red", b"green", b"blue"}
    assert len(set(mutants)) > 1


def test_arith_step_clamps_to_bounds():
    template = parse_template("{{int:0..5}}")
    mutants = generate(template, [b"5"], MutationPlan(seed=9, count=200))
    assert all(0 <= int(m) <= 5 for m in mutants)


def test_ascii_mutants_stay_printable():
    template = parse_template("{{ascii:1..6}}")
    mutants = generate(template, [b"abc"], MutationPlan(seed=11, count=200))
    for mutant in mutants:
        assert all(ASCII_LO <= byte <= ASCII_HI for byte in mutant)
        assert 1 <= len(mutant) <= 6


def test_template_with_no_mutable_holes_yields_seed_copies():
    template = parse_template("fixed{{dict:only}}")
    mutants = generate(template, [b"only"], MutationPlan(seed=1, count=5))
    assert mutants == [b"fixedonly"] * 5


def test_plan_validation():
    with pytest.raises(ValueError):
        MutationPlan(count=-1)


# --- derive_commands -----------------------------------------------------

def test_derive_seed_input_first():
    cmd = TestCommand(("a", "{{dict:x|y}}"), fuzz_count=3)
    inputs = derive_commands(cmd, MutationPlan(seed=0), "feat", 0)
    assert len(inputs) == 4
    assert inputs[0].argv == ("a", "x")
    assert not inputs[0].is_fuzzed
    assert inputs[0].mutant_index == 0
    assert all(i.is_fuzzed for i in inputs[1:])
    assert [i.mutant_index for i in inputs] == [0, 1, 2, 3]


def test_derive_is_deterministic():
    cmd = TestCommand(("{{ascii:1..8}}",), stdin="{{bytes:0..8}}", fuzz_count=25)
    first = derive_commands(cmd, MutationPlan(seed=99), "f", 2)
    second = derive_commands(cmd, MutationPlan(seed=99), "f", 2)
    assert first == second


def test_derive_streams_are_independent_across_commands():
    cmd = TestCommand(("{{ascii:4..8}}",), fuzz_count=10)
    a = derive_commands(cmd, MutationPlan(seed=0), "f", 0)
    b = derive_commands(cmd, MutationPlan(seed=0), "f", 1)
    assert a[1:] != b[1:]


def test_derive_stdin_holes_are_fuzzed():
    cmd = TestCommand(("run",), stdin="{{bytes:4..4}}", fuzz_count=20)
    inputs = derive_commands(cmd, MutationPlan(seed=1), "f", 0)
    assert inputs[0].stdin == b"\x00" * 4
    assert any(i.stdin != b"\x00" * 4 for i in inputs[1:])
    assert all(i.argv == ("run",) for i in inputs)


def test_derive_without_fuzz_count_is_just_seed():
    cmd = TestCommand(("plain",))
    inputs = derive_commands(cmd, MutationPlan(seed=0), "f", 0)
    assert len(inputs) == 1
    assert inputs[0] == inputs[0]
    assert inputs[0].argv == ("plain",)
    assert inputs[0].stdin == b""


def test_derive_limit_builds_a_prefix_of_the_full_list():
    cmd = TestCommand(("-w", "{{int:0..200}}"), stdin="{{bytes:8..16}}", fuzz_count=6)
    full = derive_commands(cmd, MutationPlan(seed=3), "f", 1)
    for limit in range(len(full) + 2):
        assert derive_commands(cmd, MutationPlan(seed=3), "f", 1, limit) == full[:limit]


def test_derive_mutants_match_per_argument_skeletons():
    cmd = TestCommand(("-n", "{{int:0..100}}", "{{ascii:1..5}}.log"), fuzz_count=50)
    templates = [parse_template(a) for a in cmd.argv_template]
    for derived in derive_commands(cmd, MutationPlan(seed=4), "f", 0):
        for template, arg in zip(templates, derived.argv):
            assert matches_skeleton(template, arg.encode("utf-8", "surrogateescape"))


# --- The recorded mutant streams ------------------------------------------

# sha256 of every mutant that criterion 5's templates and the benchmark's
# command shapes yield. A change to the mutation stage that moves a mutant
# moves this digest and says why.
_STREAM_DIGEST = "e32990e773cd003cda1c196be793bdaf0a4ca23f9e7bb66438430da4b18cfc4e"

_CRITERION_5_TEMPLATES = (
    "--mode={{dict:fast|slow|safe}}",
    "-n {{int:0..65535}}",
    "{{ascii:1..16}}.dat",
    "{{bytes:0..32}}",
    "a={{int:-100..100}},b={{ascii:0..8}},c={{dict:x|y}}",
)

_BENCH_COMMANDS = (  # (feature name, command) of differ-fanout, then differ-bulk
    ("passthru", TestCommand(("-",), stdin="{{bytes:0..32}}", fuzz_count=49)),
    ("number_lines", TestCommand(("-n",), stdin="{{bytes:0..32}}", fuzz_count=49)),
    ("encode", TestCommand(("-",), stdin="{{bytes:65536..65600}}", fuzz_count=99)),
    ("decode", TestCommand(("-d",), stdin="{{ascii:65536..65600}}", fuzz_count=99)),
    ("wrap", TestCommand(("-w", "{{int:0..200}}"), stdin="{{bytes:65536..65600}}", fuzz_count=49)),
)


def test_mutant_streams_match_the_recorded_digest():
    hashed = hashlib.sha256()

    def put(data: bytes) -> None:
        hashed.update(len(data).to_bytes(4, "little") + data)

    for ti, text in enumerate(_CRITERION_5_TEMPLATES):
        template = parse_template(text)
        plan = MutationPlan(seed=1000 + ti, count=2000)
        for mutant in generate(template, default_seed_values(template), plan):
            put(mutant)
    for seed in range(3):
        for name, cmd in _BENCH_COMMANDS:
            for derived in derive_commands(cmd, MutationPlan(seed=seed), name, 0):
                for arg in derived.argv:
                    put(arg.encode("utf-8", "surrogateescape"))
                put(derived.stdin)
    assert hashed.hexdigest() == _STREAM_DIGEST


# --- Properties ----------------------------------------------------------

@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(1, 50))
@settings(max_examples=50)
def test_prng_below_stays_in_range(seed, n):
    rng = SplitMix64(seed)
    assert all(rng.below(n) < n for _ in range(20))


@given(st.integers(min_value=0, max_value=2**32), st.integers(0, 30))
@settings(max_examples=30)
def test_generated_mutants_always_in_bounds(seed, count):
    template = parse_template("a{{ascii:0..7}}b{{int:3..9}}c")
    mutants = generate(template, default_seed_values(template), MutationPlan(seed=seed, count=count))
    assert len(mutants) == count
    for mutant in mutants:
        assert matches_skeleton(template, mutant)


@given(st.text(alphabet=st.characters(codec="utf-8"), max_size=40))
@settings(max_examples=60)
def test_literal_text_round_trips_unless_it_contains_hole_syntax(text):
    if "{{" in text or "}}" in text:
        return
    template = parse_template(text)
    assert render(template, []) == text.encode("utf-8")
