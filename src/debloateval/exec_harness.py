"""Controlled execution of candidate binaries with behavior and resource capture.

Every run happens inside a fresh, empty private working directory (the
sandbox), so concurrent or repeated runs never observe each other's file
artifacts. Resource accounting (CPU time, peak RSS) comes from
the child's rusage at reap time via ``os.wait4``.
"""

from __future__ import annotations

import enum
import hashlib
import os
import shutil
import signal
import statistics
import subprocess
import tempfile
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

SCRATCH_ENV_VAR = "DV_SCRATCH"

# stdout/stderr are capped; runaway writers get truncated but we keep a
# digest of the full stream so comparisons stay meaningful.
CAPTURE_CAP_BYTES = 64 * 1024 * 1024
_READ_CHUNK = 65536

# Reap poll interval; bounds timeout overshoot without burning CPU.
_POLL_SECONDS = 0.005


class SpawnError(Exception):
    """The child process could not be started at all."""


class SandboxError(Exception):
    """The private sandbox directory could not be made."""


class NotComparableError(Exception):
    """A percentage delta is undefined because the baseline mean is zero."""


class TerminationKind(enum.Enum):
    EXITED = "exited"
    SIGNALED = "signaled"
    TIMED_OUT = "timed_out"
    SPAWN_FAILED = "spawn_failed"


@dataclass(frozen=True)
class Termination:
    kind: TerminationKind
    code: int | None = None
    signal: int | None = None

    @staticmethod
    def exited(code: int) -> "Termination":
        return Termination(TerminationKind.EXITED, code=code)

    @staticmethod
    def signaled(signum: int) -> "Termination":
        return Termination(TerminationKind.SIGNALED, signal=signum)

    @staticmethod
    def timed_out() -> "Termination":
        return Termination(TerminationKind.TIMED_OUT)

    @staticmethod
    def spawn_failed() -> "Termination":
        return Termination(TerminationKind.SPAWN_FAILED)

    def describe(self) -> str:
        if self.kind is TerminationKind.EXITED:
            return f"Exited({self.code})"
        if self.kind is TerminationKind.SIGNALED:
            return f"Signaled({self.signal})"
        if self.kind is TerminationKind.TIMED_OUT:
            return "TimedOut"
        return "SpawnFailed"


@dataclass(frozen=True)
class ExecRequest:
    exe_path: Path
    argv: list[str]
    stdin: bytes = b""
    env: dict[str, str] = field(default_factory=dict)
    timeout_seconds: float = 30.0
    capture_files: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be > 0")


@dataclass(frozen=True)
class ExecOutcome:
    termination: Termination
    stdout: bytes
    stderr: bytes
    file_digests: dict[str, tuple[bool, bytes]]
    cpu_seconds: float
    wall_seconds: float
    peak_rss_bytes: int
    stdout_overflow_sha256: bytes | None = None
    stderr_overflow_sha256: bytes | None = None
    spawn_error: str | None = None


@dataclass(frozen=True)
class TrialSummary:
    n: int
    mean_cpu_seconds: float
    mean_peak_rss_bytes: float
    stdev_cpu_seconds: float
    stdev_peak_rss_bytes: float
    outcomes: list[ExecOutcome]


@dataclass(frozen=True)
class PerfDelta:
    runtime_pct: float
    memory_pct: float


def scratch_root() -> Path:
    return Path(os.environ.get(SCRATCH_ENV_VAR) or tempfile.gettempdir())


def _drain(stream, sink: list, state: dict) -> None:
    """Read a pipe to EOF, keeping at most CAPTURE_CAP_BYTES.

    Beyond the cap, bytes are discarded but folded into a running digest.
    """
    kept = 0
    digest = hashlib.sha256()
    truncated = False
    while True:
        chunk = stream.read(_READ_CHUNK)
        if not chunk:
            break
        digest.update(chunk)
        if kept < CAPTURE_CAP_BYTES:
            take = chunk[: CAPTURE_CAP_BYTES - kept]
            sink.append(take)
            kept += len(take)
            if len(take) < len(chunk):
                truncated = True
        else:
            truncated = True
    state["truncated"] = truncated
    state["sha256"] = digest.digest()
    stream.close()


def _feed_stdin(stream, data: bytes) -> None:
    try:
        if data:
            stream.write(data)
        stream.close()
    except (BrokenPipeError, OSError):
        pass


def _digest_files(sandbox: Path, rel_paths: list[str]) -> dict[str, tuple[bool, bytes]]:
    digests: dict[str, tuple[bool, bytes]] = {}
    for rel in rel_paths:
        target = sandbox / rel
        if target.is_file():
            digests[rel] = (True, hashlib.sha256(target.read_bytes()).digest())
        else:
            digests[rel] = (False, b"\x00" * 32)
    return digests


def run_once(req: ExecRequest) -> ExecOutcome:
    """Execute the request once in a fresh sandbox and account for it.

    Raises SpawnError if the program cannot be started and SandboxError if
    the sandbox directory cannot be created. A timed-out child is killed
    together with its whole process group.
    """
    root = scratch_root()
    sandbox = root / f"dv-sandbox-{uuid.uuid4().hex}"
    try:
        sandbox.mkdir(parents=True)
    except OSError as exc:
        raise SandboxError(f"cannot prepare sandbox under {root}: {exc}") from exc

    try:
        return _run_in_sandbox(req, sandbox)
    finally:
        shutil.rmtree(sandbox, ignore_errors=True)


def _run_in_sandbox(req: ExecRequest, sandbox: Path) -> ExecOutcome:
    argv = [str(req.exe_path)] + list(req.argv)
    start = time.monotonic()
    try:
        proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=str(sandbox),
            env=dict(req.env),
            start_new_session=True,
        )
    except (OSError, ValueError) as exc:
        raise SpawnError(f"cannot exec {req.exe_path}: {exc}") from exc

    out_chunks: list[bytes] = []
    err_chunks: list[bytes] = []
    out_state: dict = {}
    err_state: dict = {}
    threads = [
        threading.Thread(target=_feed_stdin, args=(proc.stdin, req.stdin)),
        threading.Thread(target=_drain, args=(proc.stdout, out_chunks, out_state)),
        threading.Thread(target=_drain, args=(proc.stderr, err_chunks, err_state)),
    ]
    for t in threads:
        t.start()

    deadline = start + req.timeout_seconds
    timed_out = False
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid != 0:
            break
        if time.monotonic() >= deadline:
            timed_out = True
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            pid, status, rusage = os.wait4(proc.pid, 0)
            break
        time.sleep(_POLL_SECONDS)
    # Reaped via wait4; stop Popen from waiting again on destruction.
    proc.returncode = 0

    wall = time.monotonic() - start
    for t in threads:
        t.join()

    if timed_out:
        termination = Termination.timed_out()
        wall = max(wall, req.timeout_seconds)
    elif os.WIFSIGNALED(status):
        termination = Termination.signaled(os.WTERMSIG(status))
    else:
        termination = Termination.exited(os.WEXITSTATUS(status))

    return ExecOutcome(
        termination=termination,
        stdout=b"".join(out_chunks),
        stderr=b"".join(err_chunks),
        file_digests=_digest_files(sandbox, req.capture_files),
        cpu_seconds=rusage.ru_utime + rusage.ru_stime,
        wall_seconds=wall,
        peak_rss_bytes=rusage.ru_maxrss * 1024,
        stdout_overflow_sha256=out_state["sha256"] if out_state.get("truncated") else None,
        stderr_overflow_sha256=err_state["sha256"] if err_state.get("truncated") else None,
    )


def run_trials(req: ExecRequest, n: int) -> TrialSummary:
    """Run the request n times sequentially and summarize resource usage.

    Means and standard deviations (population) cover only cleanly exited
    trials; crashes and timeouts pollute timing and are listed but excluded
    from the aggregates. A spawn failure on the first trial propagates;
    later spawn failures become synthetic outcomes so n is preserved.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    outcomes: list[ExecOutcome] = []
    for i in range(n):
        try:
            outcomes.append(run_once(req))
        except SpawnError:
            if i == 0:
                raise
            outcomes.append(
                ExecOutcome(
                    termination=Termination.spawn_failed(),
                    stdout=b"",
                    stderr=b"",
                    file_digests={},
                    cpu_seconds=0.0,
                    wall_seconds=0.0,
                    peak_rss_bytes=0,
                    spawn_error="spawn failed on retry",
                )
            )
    clean = [o for o in outcomes if o.termination.kind is TerminationKind.EXITED]
    cpus = [o.cpu_seconds for o in clean]
    rsses = [float(o.peak_rss_bytes) for o in clean]
    return TrialSummary(
        n=len(outcomes),
        mean_cpu_seconds=statistics.fmean(cpus) if cpus else 0.0,
        mean_peak_rss_bytes=statistics.fmean(rsses) if rsses else 0.0,
        stdev_cpu_seconds=statistics.pstdev(cpus) if len(cpus) > 1 else 0.0,
        stdev_peak_rss_bytes=statistics.pstdev(rsses) if len(rsses) > 1 else 0.0,
        outcomes=outcomes,
    )


def perf_delta(original: TrialSummary, variant: TrialSummary) -> PerfDelta:
    """Percentage deltas relative to the original; under 100 means reduction."""
    if original.mean_cpu_seconds <= 0 or original.mean_peak_rss_bytes <= 0:
        raise NotComparableError("original trial means are zero")
    return PerfDelta(
        runtime_pct=100.0 * variant.mean_cpu_seconds / original.mean_cpu_seconds,
        memory_pct=100.0 * variant.mean_peak_rss_bytes / original.mean_peak_rss_bytes,
    )
