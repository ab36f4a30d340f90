"""Controlled execution of candidate binaries with behavior and resource capture.

Every run starts in an empty private working directory (the sandbox) that
no concurrent run uses, so concurrent or repeated runs never observe each
other's file artifacts. Sandboxes come from a small pool of idle
directories, kept per scratch root; with N runs at once it holds at most N.

- A pooled directory is handed out only if it still has the mode it was
  made with (so it is no symlink and was not made read-only) and
  ``os.scandir`` finds it empty at that moment. Otherwise it is removed
  (a symlink left in its place is unlinked, never followed) and a new
  ``dv-sandbox-<uuid4>`` is made. The check also catches files written
  between runs.
- At the end of every run the child's whole process group is killed while
  the child is still an unreaped zombie, so the group id cannot have been
  reused.
- The directory goes back to the pool only if the run neither timed out
  nor needed the exit-grace kill; after either, a descendant may still be
  alive, so the directory is removed.
- Idle directories are removed at process exit (``atexit``).

One case stays open: a descendant that leaves the run's group with
``setsid`` and closes its pipes is not killed. It can litter a pooled
directory during a later run; what it leaves between runs is caught at
hand-out.

Resource accounting (CPU time, peak RSS) comes from the child's rusage at
reap time via ``os.wait4``.

A run's input is written, before the spawn, into an anonymous file
(``memfd_create``) that becomes the child's stdin: fd 0 is a regular,
seekable file at offset 0 that holds exactly the input, and the program
may also write to it. One poll object per run over two raw pipe
descriptors and a pidfd reads stdout and stderr and waits for the child's
exit. No file objects or selector maps are built per run, so little Python
runs per run while concurrent workers share the interpreter lock.
Any finite ``timeout_seconds`` is a hard bound on a run's wall time;
poll() waits at most 2**31 - 1 ms, so the wait runs in day-long slices.
At the deadline the child's process group is killed and the pipes are
closed, even when a descendant outside the group still holds one. A
child that exits while descendants hold its pipes open gets
EXIT_GRACE_SECONDS for them to close; then the pipes are closed.
``wall_seconds`` is taken when the pidfd reports the child's exit,
before the reap.

A captured file is digested only if it is a regular file inside the
sandbox: its path is opened one component at a time without following a
symlink, and a symlink, directory, FIFO or anything else counts as absent.

A run is blamed on its program (SpawnError) only if its exec fails with
an errno outside ``debloateval._HOST_ERRNOS``. Any other failure is raised
as it is, a host limit met while a run starts or a captured file is opened
included.
"""

from __future__ import annotations

import atexit
import enum
import math
import os
import select
import shutil
import signal
import stat
import subprocess
import tempfile
import threading
import time
import uuid
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path

from . import _HOST_ERRNOS, InputError, NotComparableError
from .comparator import ABSENT_FILE
from .digest import Hash, sha256

SCRATCH_ENV_VAR = "DV_SCRATCH"

# stdout/stderr are capped; runaway writers get truncated but we keep a
# digest of the full stream so comparisons stay meaningful.
CAPTURE_CAP_BYTES = 64 * 1024 * 1024
_READ_CHUNK = 65536

# How long descendants may hold the pipes of a child that has exited.
EXIT_GRACE_SECONDS = 0.05


class SpawnError(InputError):
    """The program's exec failed, and not by a host limit: the program is at fault."""


class SandboxError(InputError):
    """The private sandbox directory could not be made."""


class TerminationKind(enum.Enum):
    EXITED = "exited"
    SIGNALED = "signaled"
    TIMED_OUT = "timed_out"


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

    def describe(self) -> str:
        if self.kind is TerminationKind.EXITED:
            return f"Exited({self.code})"
        if self.kind is TerminationKind.SIGNALED:
            return f"Signaled({self.signal})"
        return "TimedOut"


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


def _scratch_dir() -> str:
    return os.environ.get(SCRATCH_ENV_VAR) or tempfile.gettempdir()


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


_OPEN_DIR = os.O_RDONLY | os.O_DIRECTORY | os.O_NOFOLLOW | os.O_CLOEXEC
# O_NONBLOCK: opening a FIFO for reading must not wait for a writer.
_OPEN_LEAF = os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK | os.O_CLOEXEC


def _digest_file(sandbox: str, rel: str) -> tuple[bool, bytes]:
    """(True, sha256 of its bytes) for a regular file at rel inside sandbox,
    otherwise ABSENT_FILE; a host errno is raised. Each component is opened from
    the one before without following a symlink, so no path leaves the sandbox."""
    *dirs, name = [part for part in rel.split("/") if part] or ["."]
    fd = None
    try:
        fd = os.open(sandbox, _OPEN_DIR)
        for part, flags in [(d, _OPEN_DIR) for d in dirs] + [(name, _OPEN_LEAF)]:
            parent = fd
            fd = os.open(part, flags, dir_fd=parent)
            os.close(parent)
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            return ABSENT_FILE
        digest = sha256()
        while chunk := os.read(fd, _READ_CHUNK):
            digest.update(chunk)
        return True, digest.digest()
    except OSError as exc:
        if exc.errno in _HOST_ERRNOS:
            raise
        return ABSENT_FILE
    finally:
        if fd is not None:
            os.close(fd)


# Idle sandboxes by scratch root, each with the st_mode it was made with.
_idle: dict[str, list[tuple[str, int]]] = {}
_idle_lock = threading.Lock()


def _take_sandbox(root: str) -> tuple[str, int]:
    """An idle sandbox under root that is still empty, or else a new one."""
    with _idle_lock:
        pooled = _idle.get(root)
        entry = pooled.pop() if pooled else None
    if entry is not None:
        sandbox, mode = entry
        try:
            with os.scandir(sandbox) as entries:
                if os.lstat(sandbox).st_mode == mode and next(entries, None) is None:
                    return entry
        except OSError:
            pass
        _remove_sandbox(sandbox)
    sandbox = os.path.join(root, f"dv-sandbox-{uuid.uuid4().hex}")
    try:
        os.makedirs(sandbox)
        return sandbox, os.lstat(sandbox).st_mode
    except OSError as exc:
        raise SandboxError(f"cannot prepare sandbox under {root}: {exc}") from exc


def _remove_sandbox(sandbox: str) -> None:
    """Remove a sandbox; a symlink or file its program left in its place is unlinked, never followed."""
    try:
        os.unlink(sandbox)
    except OSError:
        shutil.rmtree(sandbox, ignore_errors=True)


@atexit.register
def _remove_idle_sandboxes() -> None:
    with _idle_lock:
        for pooled in _idle.values():
            for sandbox, _ in pooled:
                _remove_sandbox(sandbox)
        _idle.clear()


def run_once(req: ExecRequest) -> ExecOutcome:
    """Execute the request once in an empty private sandbox and account for it.

    Raises SpawnError if the program's exec fails but not by a host limit,
    SandboxError if the sandbox cannot be made, and anything else as it
    is. The child's whole process group is killed when the run ends.
    """
    root = _scratch_dir()
    sandbox, mode = _take_sandbox(root)
    settled = False
    try:
        outcome, settled = _run_in_sandbox(req, sandbox)
        return outcome
    finally:
        if settled:
            with _idle_lock:
                _idle.setdefault(root, []).append((sandbox, mode))
        else:
            _remove_sandbox(sandbox)


def _run_in_sandbox(req: ExecRequest, sandbox: str) -> tuple[ExecOutcome, bool]:
    """The run's outcome, and whether it settled: the child exited and its
    pipes closed before the deadline and the exit grace ran out."""
    start = time.monotonic()
    # The input is the child's stdin as a file at offset 0. Neither it nor the
    # os.pipe() descriptors are inherited: the child gets only what Popen
    # moves onto its 0, 1 and 2.
    fds: list[int] = []  # stdin, out_r, out_w, err_r, err_w, as they are made
    proc = None
    try:
        fds.append(os.memfd_create("stdin", os.MFD_CLOEXEC))
        fds += os.pipe()
        fds += os.pipe()
        stdin, out_r, out_w, err_r, err_w = fds
        written = 0
        while written < len(req.stdin):
            written += os.pwrite(stdin, req.stdin[written:], written)
        proc = subprocess.Popen(
            [str(req.exe_path), *req.argv],
            stdin=stdin,
            stdout=out_w,
            stderr=err_w,
            cwd=sandbox,
            env=dict(req.env),
            start_new_session=True,
        )
    except (OSError, ValueError) as exc:
        # Popen names the executable only for its exec's own errors.
        if isinstance(exc, ValueError) or (exc.filename == str(req.exe_path) and exc.errno not in _HOST_ERRNOS):
            raise SpawnError(f"cannot exec {req.exe_path}: {exc}") from exc
        raise
    finally:
        for fd in fds if proc is None else fds[::2]:  # all but a started child's read ends
            os.close(fd)

    captures = {out_r: _Capture(), err_r: _Capture()}
    close_at = start + req.timeout_seconds
    wall = None
    poller = select.poll()
    # The parent's open descriptors; once set up, each is registered with poller.
    watched = {out_r, err_r}

    def drop(fd: int) -> None:
        poller.unregister(fd)
        watched.remove(fd)
        os.close(fd)

    try:
        pidfd = os.pidfd_open(proc.pid)
        watched.add(pidfd)
        for fd in (pidfd, out_r, err_r):
            poller.register(fd, select.POLLIN)
        # Once the child has exited only its open output pipes stay watched.
        while watched and (wait := close_at - time.monotonic()) > 0:
            for fd, _ in poller.poll(min(wait, 86400) * 1e3):  # a day at most
                if fd == pidfd:
                    wall = time.monotonic() - start
                    close_at = min(close_at, start + wall + EXIT_GRACE_SECONDS)
                    drop(pidfd)
                # Only this process reads the pipe, so a read after POLLIN or
                # POLLHUP returns at once.
                elif chunk := os.read(fd, _READ_CHUNK):
                    captures[fd].feed(chunk)
                else:
                    drop(fd)
    finally:
        # Whatever is left of the group is killed while the child is still an
        # unreaped zombie: its pid, and so the group id, cannot have been reused.
        timed_out = wall is None
        settled = not timed_out and out_r not in watched and err_r not in watched
        with suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        _, status, rusage = os.wait4(proc.pid, 0)
        if timed_out:
            wall = max(time.monotonic() - start, req.timeout_seconds)
        # Reaped via wait4; stop Popen from waiting again on destruction.
        proc.returncode = 0
        for fd in watched:
            os.close(fd)

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
        file_digests={rel: _digest_file(sandbox, rel) for rel in req.capture_files},
        cpu_seconds=rusage.ru_utime + rusage.ru_stime,
        wall_seconds=wall,
        peak_rss_bytes=rusage.ru_maxrss * 1024,
        stdout_overflow_sha256=out.overflow and out.overflow.digest(),
        stderr_overflow_sha256=err.overflow and err.overflow.digest(),
    ), settled


def run_trials(req: ExecRequest, n: int) -> TrialSummary:
    """Run the request n times sequentially and summarize resource usage.

    Means and standard deviations (population) cover only cleanly exited
    trials; crashes and timeouts pollute timing and are listed but excluded
    from the aggregates. Whatever a trial raises propagates, a SpawnError
    too: a later trial fails to start only if the binary has changed.
    """
    import statistics  # only trials use it; differ and tool-wrap start faster without it

    if n < 1:
        raise ValueError("n must be >= 1")
    outcomes = [run_once(req) for _ in range(n)]
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
