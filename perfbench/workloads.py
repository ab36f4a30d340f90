"""Seeded inputs and known answers for the three benchmark workloads.

Every workload is built from ``--seed`` alone: the seed picks the fuzz seed
passed to the CLI, the bytes appended to each differ variant and the code
spans stubbed out of the metrics variant. The expected answers are derived
from the generated spec, never from debloateval itself.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("differ-fanout", "differ-bulk", "metrics-gadgets")

# Cells of metrics.json that `metrics --no-perf` leaves null by design.
PERF_CELLS = ("runtime_pct", "memory_pct")

_LIBC_CANDIDATES = (
    "/lib/x86_64-linux-gnu/libc.so.6",
    "/usr/lib/x86_64-linux-gnu/libc.so.6",
    "/lib64/libc.so.6",
    "/usr/lib64/libc.so.6",
)

# coreutils prints argv[0] in its diagnostics, and the harness passes the
# full executable path as argv[0], so byte-identical copies at different
# paths differ on stderr. This strips the path, as the README advises.
_BASE64_STDERR = [
    {"kind": "exit_status"},
    {"kind": "stdout_exact"},
    {"kind": "stderr_normalized", "normalizers": [{"pattern": "[^\\n]*/base64: ", "replacement": "base64: "}]},
    {"kind": "file_set"},
]


class BenchError(Exception):
    """The benchmark cannot run here: a binary or tool is missing, or a run overran."""


@dataclass
class Workload:
    name: str
    spec_path: Path
    cli_args: list[str]  # after the program name, without --out
    spec: dict
    jobs: int | None = None
    code_bytes: int = 0  # executable-segment bytes the run scans, per readelf
    sources: dict[str, str] = field(default_factory=dict)  # system binary -> sha256

    @property
    def expected_verdicts(self) -> int:
        per_variant = sum(
            1 + cmd.get("fuzz_count", 0) for f in self.spec["features"] for cmd in f["commands"]
        )
        return per_variant * len(self.spec["variants"])

    @property
    def expected_exit(self) -> int:
        # Every variant behaves exactly like the original, so a debloat
        # feature always yields unexpected_match and the run reports anomalies.
        if self.cli_args[0] == "metrics":
            return 0
        return 1 if any(f["disposition"] == "debloat" for f in self.spec["features"]) else 0


# --- system binaries and readelf --------------------------------------

def _system_binary(name: str, candidates: tuple[str, ...]) -> Path:
    found = shutil.which(name)
    paths = ([found] if found else []) + list(candidates)
    for p in paths:
        if Path(p).is_file():
            return Path(p)
    raise BenchError(f"{name} not found")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def readelf_load_segments(path: Path) -> list[tuple[int, int, int, str]]:
    """(offset, vaddr, filesz, flags) of every PT_LOAD row of `readelf -lW`."""
    try:
        out = subprocess.run(
            ["readelf", "-lW", str(path)], capture_output=True, text=True, check=True, timeout=30
        ).stdout
    except (OSError, subprocess.SubprocessError) as exc:
        raise BenchError(f"readelf -lW {path} failed: {exc}") from exc
    rows = []
    for line in out.splitlines():
        tok = line.split()
        if tok and tok[0] == "LOAD":
            rows.append((int(tok[1], 16), int(tok[2], 16), int(tok[4], 16), "".join(tok[6:-1])))
    if not rows:
        raise BenchError(f"readelf found no LOAD segments in {path}")
    return rows


def readelf_code_bytes(path: Path) -> int:
    return sum(size for _, _, size, flags in readelf_load_segments(path) if "E" in flags)


def _checked_copy(src: Path, dst: Path) -> list:
    dst.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(src, dst)
    dst.chmod(0o755)
    return readelf_load_segments(src)


def _cross_check(src_segments: list, dst: Path) -> None:
    if readelf_load_segments(dst) != src_segments:
        raise BenchError(f"{dst}: program headers differ from its source after generation")


def _distinct_copy(src: Path, dst: Path, rng: random.Random) -> None:
    """A copy that behaves like src: seeded bytes appended after the ELF."""
    segments = _checked_copy(src, dst)
    with dst.open("ab") as fh:
        fh.write(rng.randbytes(rng.randint(16, 64)))
    _cross_check(segments, dst)


def _stubbed_copy(src: Path, dst: Path, rng: random.Random, spans: int = 8) -> None:
    """A same-size copy with seeded spans of its code overwritten by int3 (0xCC)."""
    segments = _checked_copy(src, dst)
    data = bytearray(dst.read_bytes())
    code = [(off, size) for off, _, size, flags in segments if "E" in flags and size > 4096]
    if not code:
        raise BenchError(f"{src}: no executable segment large enough to stub")
    off, size = code[0]
    for _ in range(spans):
        length = rng.randint(512, 2048)
        start = off + rng.randrange(size - length)
        data[start : start + length] = b"\xcc" * length
    dst.write_bytes(bytes(data))
    _cross_check(segments, dst)


# --- workload builders ------------------------------------------------

def _write_spec(work: Path, spec: dict) -> Path:
    path = work / "spec.json"
    path.write_text(json.dumps(spec, indent=2) + "\n")
    return path


def _differ_fanout(work: Path, rng: random.Random, seed: int, nproc: int) -> Workload:
    cat = _system_binary("cat", ("/bin/cat", "/usr/bin/cat"))
    orig = work / "orig" / "cat"
    _checked_copy(cat, orig)
    variants = []
    for i in range(1, 5):
        exe = work / f"v{i}" / "cat"
        _distinct_copy(cat, exe, rng)
        variants.append({"label": f"v{i}", "exe": str(exe)})
    spec = {
        "id": "bench-differ-fanout",
        "original": {"label": "orig", "exe": str(orig)},
        "variants": variants,
        "features": [
            {"name": "passthru", "disposition": "retain",
             "commands": [{"argv": ["-"], "stdin": "{{bytes:0..32}}", "fuzz_count": 49}]},
            {"name": "number_lines", "disposition": "debloat",
             "commands": [{"argv": ["-n"], "stdin": "{{bytes:0..32}}", "fuzz_count": 49}]},
        ],
        "timeout_seconds": 10,
    }
    path = _write_spec(work, spec)
    args = ["differ", "--spec", str(path), "--seed", str(seed), "--jobs", str(nproc)]
    return Workload("differ-fanout", path, args, spec, jobs=nproc, sources={"cat": _sha256(cat)})


def _differ_bulk(work: Path, rng: random.Random, seed: int, nproc: int) -> Workload:
    b64 = _system_binary("base64", ("/usr/bin/base64", "/bin/base64"))
    orig = work / "orig" / "base64"
    _checked_copy(b64, orig)
    var = work / "v1" / "base64"
    _distinct_copy(b64, var, rng)
    # Hole minimum lengths force ~64 KB of stdin per run; the decode hole's
    # seed value ("aaaa...") is valid base64 and its mutants hit the error path.
    spec = {
        "id": "bench-differ-bulk",
        "original": {"label": "orig", "exe": str(orig)},
        "variants": [{"label": "v1", "exe": str(var)}],
        "comparators": _BASE64_STDERR,
        "features": [
            {"name": "encode", "disposition": "retain",
             "commands": [{"argv": ["-"], "stdin": "{{bytes:65536..65600}}", "fuzz_count": 99}]},
            {"name": "decode", "disposition": "retain",
             "commands": [{"argv": ["-d"], "stdin": "{{ascii:65536..65600}}", "fuzz_count": 99}]},
            {"name": "wrap", "disposition": "debloat",
             "commands": [{"argv": ["-w", "{{int:0..200}}"], "stdin": "{{bytes:65536..65600}}",
                           "fuzz_count": 49}]},
        ],
        "timeout_seconds": 10,
    }
    path = _write_spec(work, spec)
    args = ["differ", "--spec", str(path), "--seed", str(seed), "--jobs", "1"]
    return Workload("differ-bulk", path, args, spec, jobs=1, sources={"base64": _sha256(b64)})


def _metrics_gadgets(work: Path, rng: random.Random, seed: int, nproc: int) -> Workload:
    gzip = _system_binary("gzip", ("/usr/bin/gzip", "/bin/gzip"))
    libc_src = _system_binary("libc.so.6", _LIBC_CANDIDATES)
    orig = work / "orig" / "gzip"
    _checked_copy(gzip, orig)
    var = work / "v1" / "gzip"
    _stubbed_copy(gzip, var, rng)
    libc = work / "lib" / "libc.so.6"
    _checked_copy(libc_src, libc)
    spec = {
        "id": "bench-metrics-gadgets",
        "original": {"label": "orig", "exe": str(orig), "libs": [str(libc)]},
        "variants": [{"label": "v1", "exe": str(var), "libs": [str(libc)]}],
        "features": [
            {"name": "compress", "disposition": "retain",
             "commands": [{"argv": ["-c"], "stdin": "{{bytes:0..64}}"}]},
        ],
        "timeout_seconds": 10,
    }
    path = _write_spec(work, spec)
    args = ["metrics", "--spec", str(path), "--seed", str(seed), "--no-perf", "--aggregate-libs"]
    # libc is scanned once for the original and once for the variant.
    code = readelf_code_bytes(orig) + readelf_code_bytes(var) + 2 * readelf_code_bytes(libc)
    sources = {"gzip": _sha256(gzip), "libc.so.6": _sha256(libc_src)}
    return Workload("metrics-gadgets", path, args, spec, code_bytes=code, sources=sources)


_BUILDERS = {
    "differ-fanout": _differ_fanout,
    "differ-bulk": _differ_bulk,
    "metrics-gadgets": _metrics_gadgets,
}


def build(name: str, seed: int, work: Path, nproc: int) -> Workload:
    """Generate the workload's binaries and spec under `work`."""
    rng = random.Random(f"perfbench:{name}:{seed}")
    return _BUILDERS[name](work, rng, seed, nproc)


# --- known-answer checks ----------------------------------------------

class Checks:
    """Tally of known-answer checks; `failures` keeps a message for each miss."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok


def _artifact_digests(out_dir: Path, workload: Workload) -> dict[str, str]:
    """sha256 of each deterministic artifact; metrics.json without generated_at."""
    if workload.cli_args[0] == "metrics":
        doc = json.loads((out_dir / "metrics.json").read_text())
        doc.pop("generated_at", None)
        blobs = {"metrics.json": json.dumps(doc, indent=2, sort_keys=True).encode()}
    else:
        blobs = {n: (out_dir / n).read_bytes() for n in ("verdicts.jsonl", "summary.json")}
    return {n: hashlib.sha256(b).hexdigest() for n, b in sorted(blobs.items())}


def check_artifacts(checks: Checks, workload: Workload, out_dir: Path, exit_code: int, seed: int,
                    reference: dict[str, str] | None, known: dict) -> tuple[int, dict[str, str]]:
    """Check one CLI run's exit code and artifacts; returns its verdict count and digests.

    `reference` holds the digests of an earlier run of the same inputs.
    """
    checks.check(exit_code == workload.expected_exit,
                 f"exit code {exit_code}, expected {workload.expected_exit}")
    if workload.cli_args[0] == "metrics":
        ok = _check_metrics(checks, workload, out_dir)
        verdicts = 0
    else:
        verdicts = _check_verdicts(checks, workload, out_dir)
        ok = verdicts > 0 and (out_dir / "summary.json").is_file()
    if not ok:
        return verdicts, {}
    digests = _artifact_digests(out_dir, workload)
    _check_digests(checks, workload, seed, digests, reference, known)
    return verdicts, digests


def _check_verdicts(checks: Checks, workload: Workload, out_dir: Path) -> int:
    path = out_dir / "verdicts.jsonl"
    if not checks.check(path.is_file(), "verdicts.jsonl missing"):
        return 0
    expected = {
        f["name"]: "expected_match" if f["disposition"] == "retain" else "unexpected_match"
        for f in workload.spec["features"]
    }
    lines = path.read_bytes().splitlines()
    checks.check(len(lines) == workload.expected_verdicts,
                 f"{len(lines)} verdicts, expected {workload.expected_verdicts}")
    for line in lines:
        v = json.loads(line)
        want = expected.get(v["feature"])
        checks.check(v["verdict"] == want,
                     f"{v['variant']}/{v['feature']}#{v['mutant_index']}: {v['verdict']}, expected {want}")
    return len(lines)


def _check_metrics(checks: Checks, workload: Workload, out_dir: Path) -> bool:
    path = out_dir / "metrics.json"
    if not checks.check(path.is_file(), "metrics.json missing"):
        return False
    rows = json.loads(path.read_text())["variants"]
    checks.check(sorted(rows) == sorted(v["label"] for v in workload.spec["variants"]),
                 f"metrics.json variants {sorted(rows)}")
    for label, row in rows.items():
        for cell, value in row.items():
            if cell in PERF_CELLS:
                checks.check(value is None, f"{label}.{cell} = {value!r}; --no-perf should leave it null")
            else:
                checks.check(value is not None, f"{label}.{cell} is null")
        # Stubbing keeps file size, and both sides list the same libc.
        checks.check(row.get("size_pct") == 100.0, f"{label}.size_pct = {row.get('size_pct')!r}")
        checks.check(row.get("libs_introduced") == [] and row.get("libs_eliminated") == [],
                     f"{label}: library deltas {row.get('libs_introduced')} / {row.get('libs_eliminated')}")
    return True


def null_cells(out_dir: Path) -> int:
    path = out_dir / "metrics.json"
    if not path.is_file():
        return 0
    rows = json.loads(path.read_text())["variants"]
    return sum(value is None for row in rows.values() for value in row.values())


def _check_digests(checks: Checks, workload: Workload, seed: int, digests: dict[str, str],
                   reference: dict[str, str] | None, known: dict) -> None:
    """Digests must repeat across runs and, for a recorded seed, match the record."""
    if reference is not None:
        for name, digest in digests.items():
            checks.check(digest == reference.get(name), f"{name} digest differs between runs")
    entry = known.get(workload.name)
    if entry is None or entry["sources"] != workload.sources or str(seed) not in entry["digests"]:
        return  # no recorded answer for these inputs
    for name, digest in entry["digests"][str(seed)].items():
        checks.check(digests.get(name) == digest,
                     f"{name} digest {digests.get(name)} differs from the recorded {digest}")
