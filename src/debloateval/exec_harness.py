"""Controlled execution of candidate binaries with behavior and resource capture.

Every run happens inside a fresh, empty private working directory (the
sandbox), so concurrent or repeated runs never observe each other's file
artifacts. Resource accounting (CPU time, peak RSS) comes from
the child's rusage at reap time via ``os.wait4``.

One selector loop per run writes stdin, reads stdout and stderr, and waits
on a pidfd for the child's exit. ``timeout_seconds`` is a hard bound on a
run's wall time: at the deadline the child's process group is killed and
the pipes are closed, even when a descendant outside the group still holds
one. A child that exits while descendants hold its pipes open gets
EXIT_GRACE_SECONDS for them to close; then its group is killed and the
pipes are closed too. ``wall_seconds`` is taken when the child is reaped.
"""

from __future__ import annotations

import enum
import math
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import tempfile
import time
import uuid
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path

from . import InputError
from .digest import Hash, sha256

SCRATCH_ENV_VAR = "DV_SCRATCH"

# stdout/stderr are capped; runaway writers get truncated but we keep a
# digest of the full stream so comparisons stay meaningful.
CAPTURE_CAP_BYTES = 64 * 1024 * 1024
_READ_CHUNK = 65536

# How long descendants may hold the pipes of a child that has exited.
EXIT_GRACE_SECONDS = 0.05


class SpawnError(InputError):
    """The child process could not be started at all."""


class SandboxError(InputError):
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
        if not (math.isfinite(self.timeout_seconds) and self.timeout_seconds > 0):
            raise ValueError("timeout_seconds must be a finite number > 0")


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


def unstarted(termination: Termination, message: str) -> ExecOutcome:
    """The outcome that stands in for a run whose program could not be
    started: message on stderr, no other output, no resources used."""
    return ExecOutcome(termination, b"", message.encode(), {}, 0.0, 0.0, 0)


def scratch_root() -> Path:
    return Path(os.environ.get(SCRATCH_ENV_VAR) or tempfile.gettempdir())


@dataclass
class _Capture:
    """One output stream: its first CAPTURE_CAP_BYTES and, once it grows past
    them, a running sha256 of the whole stream."""

    data: bytearray = field(default_factory=bytearray)
    overflow: Hash | None = None

    def feed(self, chunk: bytes) -> None:
        room = CAPTURE_CAP_BYTES - len(self.data)
        if self.overflow is None and len(chunk) > room:
            self.overflow = sha256(self.data)
        if self.overflow is not None:
            self.overflow.update(chunk)
        self.data += chunk[:room]


def _digest_files(sandbox: Path, rel_paths: list[str]) -> dict[str, tuple[bool, bytes]]:
    digests: dict[str, tuple[bool, bytes]] = {}
    for rel in rel_paths:
        target = sandbox / rel
        if target.is_file():
            digests[rel] = (True, sha256(target.read_bytes()).digest())
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
    start = time.monotonic()
    try:
        proc = subprocess.Popen(
            [str(req.exe_path), *req.argv],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=str(sandbox),
            env=dict(req.env),
            start_new_session=True,
        )
    except (OSError, ValueError) as exc:
        raise SpawnError(f"cannot exec {req.exe_path}: {exc}") from exc

    captures = {proc.stdout.fileno(): _Capture(), proc.stderr.fileno(): _Capture()}
    pending = memoryview(req.stdin)
    close_at = start + req.timeout_seconds
    status = None
    pidfd = os.pidfd_open(proc.pid)
    try:
        with selectors.DefaultSelector() as sel:

            def drop(pipe) -> None:
                sel.unregister(pipe)
                pipe.close()

            sel.register(pidfd, selectors.EVENT_READ)
            for pipe in (proc.stdout, proc.stderr):
                os.set_blocking(pipe.fileno(), False)
                sel.register(pipe, selectors.EVENT_READ)
            if pending:
                os.set_blocking(proc.stdin.fileno(), False)
                sel.register(proc.stdin, selectors.EVENT_WRITE)
            else:
                proc.stdin.close()
            # Once the child is reaped only its open output pipes stay registered.
            while sel.get_map() and (wait := close_at - time.monotonic()) > 0:
                for key, _ in sel.select(wait):
                    if key.fileobj is proc.stdin and proc.stdin.closed:
                        continue  # dropped when the child was reaped, earlier in this batch
                    if key.fd == pidfd:
                        _, status, rusage = os.wait4(proc.pid, 0)
                        wall = time.monotonic() - start
                        close_at = min(close_at, start + wall + EXIT_GRACE_SECONDS)
                        sel.unregister(pidfd)
                        if not proc.stdin.closed:
                            drop(proc.stdin)
                    elif key.fileobj is proc.stdin:
                        try:
                            sent = os.write(key.fd, pending[:_READ_CHUNK])
                        except BrokenPipeError:  # the child closed its stdin
                            sent = len(pending)
                        pending = pending[sent:]
                        if not pending:
                            drop(proc.stdin)
                    elif chunk := os.read(key.fd, _READ_CHUNK):
                        captures[key.fd].feed(chunk)
                    else:
                        drop(key.fileobj)
    finally:
        # The deadline or the exit grace ran out (or the loop failed).
        timed_out = status is None
        if timed_out or not (proc.stdout.closed and proc.stderr.closed):
            with suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
        if timed_out:
            _, status, rusage = os.wait4(proc.pid, 0)
            wall = max(time.monotonic() - start, req.timeout_seconds)
        # Reaped via wait4; stop Popen from waiting again on destruction.
        proc.returncode = 0
        os.close(pidfd)
        for pipe in (proc.stdin, proc.stdout, proc.stderr):
            pipe.close()

    if timed_out:
        termination = Termination.timed_out()
    elif os.WIFSIGNALED(status):
        termination = Termination.signaled(os.WTERMSIG(status))
    else:
        termination = Termination.exited(os.WEXITSTATUS(status))

    out, err = captures.values()
    return ExecOutcome(
        termination=termination,
        stdout=bytes(out.data),
        stderr=bytes(err.data),
        file_digests=_digest_files(sandbox, req.capture_files),
        cpu_seconds=rusage.ru_utime + rusage.ru_stime,
        wall_seconds=wall,
        peak_rss_bytes=rusage.ru_maxrss * 1024,
        stdout_overflow_sha256=out.overflow and out.overflow.digest(),
        stderr_overflow_sha256=err.overflow and err.overflow.digest(),
    )


def run_trials(req: ExecRequest, n: int) -> TrialSummary:
    """Run the request n times sequentially and summarize resource usage.

    Means and standard deviations (population) cover only cleanly exited
    trials; crashes and timeouts pollute timing and are listed but excluded
    from the aggregates. A spawn failure on the first trial propagates;
    later spawn failures become unstarted outcomes so n is preserved.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    outcomes: list[ExecOutcome] = []
    for i in range(n):
        try:
            outcomes.append(run_once(req))
        except SpawnError as exc:
            if i == 0:
                raise
            outcomes.append(unstarted(Termination.spawn_failed(), str(exc)))
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
