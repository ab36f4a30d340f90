from __future__ import annotations

import errno
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from debloateval import exec_harness
from debloateval.exec_harness import (
    ExecOutcome,
    ExecRequest,
    NotComparableError,
    SpawnError,
    Termination,
    TerminationKind,
    TrialSummary,
    perf_delta,
    run_once,
    run_trials,
)

from conftest import make_script


def req(exe: Path, argv=(), **kwargs) -> ExecRequest:
    kwargs.setdefault("timeout_seconds", 10.0)
    return ExecRequest(exe_path=exe, argv=list(argv), **kwargs)


@pytest.mark.parametrize("timeout", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
def test_timeout_must_be_finite_and_positive(timeout):
    with pytest.raises(ValueError, match="timeout_seconds"):
        req(Path("/bin/true"), timeout_seconds=timeout)


def test_captures_stdout_and_exit_code(tmp_path):
    exe = make_script(tmp_path, "hi", 'echo hi\n')
    outcome = run_once(req(exe))
    assert outcome.termination == Termination.exited(0)
    assert outcome.stdout == b"hi\n"
    assert outcome.stderr == b""


def test_nonzero_exit_code(tmp_path):
    exe = make_script(tmp_path, "fail", "exit 3\n")
    assert run_once(req(exe)).termination == Termination.exited(3)


def test_signaled_termination(tmp_path):
    exe = make_script(tmp_path, "crash", "kill -SEGV $$\n")
    outcome = run_once(req(exe))
    assert outcome.termination.kind is TerminationKind.SIGNALED
    assert outcome.termination.signal == 11


def test_timeout_kills_process_group(tmp_path):
    exe = make_script(tmp_path, "sleeper", "sleep 10\n")
    outcome = run_once(req(exe, timeout_seconds=1.0))
    assert outcome.termination.kind is TerminationKind.TIMED_OUT
    assert outcome.wall_seconds >= 1.0


def timed_run(request: ExecRequest) -> tuple[ExecOutcome, float]:
    start = time.monotonic()
    outcome = run_once(request)
    return outcome, time.monotonic() - start


def test_background_child_holding_stdout_does_not_outlive_the_exit(tmp_path):
    exe = make_script(tmp_path, "bg", "sleep 4 &\n")
    outcome, elapsed = timed_run(req(exe, timeout_seconds=1.0))
    assert outcome.termination == Termination.exited(0)
    assert elapsed < 2.0
    assert outcome.wall_seconds <= elapsed


def test_detached_child_holding_stdout_does_not_outlive_the_timeout(tmp_path):
    exe = make_script(tmp_path, "detached", "setsid sleep 4 &\nsleep 10\n")
    outcome, elapsed = timed_run(req(exe, timeout_seconds=1.0))
    assert outcome.termination.kind is TerminationKind.TIMED_OUT
    assert 1.0 <= elapsed < 2.0


def test_output_past_the_cap_keeps_a_digest_of_the_whole_stream(tmp_path, monkeypatch):
    # A smaller cap exercises the same truncation path with a small stream.
    monkeypatch.setattr(exec_harness, "CAPTURE_CAP_BYTES", 100_000)
    data = os.urandom(300_000)
    (tmp_path / "blob").write_bytes(data)
    exe = make_script(tmp_path, "writer", f"cat {tmp_path / 'blob'}\n")
    outcome = run_once(req(exe))
    assert outcome.stdout == data[:100_000]
    assert outcome.stdout_overflow_sha256 == hashlib.sha256(data).digest()
    assert outcome.stderr_overflow_sha256 is None


def test_stdin_passthrough(tmp_path):
    exe = make_script(tmp_path, "cat", "cat\n")
    outcome = run_once(req(exe, stdin=b"payload\n"))
    assert outcome.stdout == b"payload\n"


def test_stdin_larger_than_a_pipe_buffer_round_trips(tmp_path):
    exe = make_script(tmp_path, "cat", "cat\n")
    payload = bytes(range(256)) * 4096
    assert run_once(req(exe, stdin=payload)).stdout == payload


# Reports what fd 0 is and where it stands, then echoes all it reads from it
# and checks that it may write there too.
_STDIN_PROBE = """\
import os, stat, sys
mode = os.fstat(0).st_mode
out = sys.stdout.buffer
out.write(b"regular " if stat.S_ISREG(mode) else b"fifo " if stat.S_ISFIFO(mode) else b"other ")
out.write(b"%d\\n" % os.lseek(0, 0, os.SEEK_CUR))
while chunk := os.read(0, 65536):
    out.write(chunk)
out.write(b"\\nwrote %d" % os.write(0, b"!"))
"""


def test_stdin_is_a_regular_file_at_offset_0_that_holds_exactly_the_input():
    payload = bytes(range(256)) * 300
    outcome = run_once(req(Path(sys.executable), ["-c", _STDIN_PROBE], stdin=payload))
    assert outcome.stderr == b""
    assert outcome.stdout == b"regular 0\n" + payload + b"\nwrote 1"
    assert outcome.termination == Termination.exited(0)


def test_child_that_exits_before_reading_stdin_on_a_busy_host(tmp_path):
    # Two runs at once, so one run closes its descriptors while the other
    # thread makes its own; each run must still give its child its own input
    # and read back only its child's output. The second kind exits without
    # reading its input, and the third closes stdout and stderr at once, so
    # both of its pipes are dropped in one poll batch.
    programs = [
        (Path("/bin/cat"), ["-"]),
        (Path("/bin/false"), ["-"]),
        (Path("/bin/sh"), ["-c", "exec >&- 2>&-; cat; exit 7"]),
    ]

    def run(i: int) -> tuple[bytes, Termination]:
        exe, argv = programs[i % 3]
        outcome = run_once(req(exe, argv, stdin=b"hello"))
        return outcome.stdout, outcome.termination

    with ThreadPoolExecutor(max_workers=2) as pool:
        outcomes = list(pool.map(run, range(150)))
    assert outcomes == [
        (b"hello", Termination.exited(0)), (b"", Termination.exited(1)), (b"", Termination.exited(7)),
    ] * 50


def _open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


_RUN_KINDS = {
    "exit": lambda tmp: run_once(req(Path("/bin/true"))),
    "stdin_unread": lambda tmp: run_once(req(Path("/bin/true"), stdin=bytes(1 << 20))),
    "timeout": lambda tmp: run_once(req(make_script(tmp, "sleeper", "sleep 10\n"), timeout_seconds=0.2)),
    "exit_grace_kill": lambda tmp: run_once(req(make_script(tmp, "bg", "sleep 4 &\n"))),
    "captured_files": lambda tmp: run_once(req(
        make_script(tmp, "files", "mkdir d; echo x > d/f; ln -s d l; mkfifo p\n"),
        capture_files=["d/f", "l/f", "d", "p", "none/f"],
    )),
}


# Host faults met while a run starts, each raised as the OSError it is,
# never as a SpawnError that blames the program.
_HOST_FAULTS = {
    # The second pipe meets the descriptor limit.
    "pipe_fails": (2, errno.EMFILE),
    # Popen's own error pipe, the third os.pipe() call, meets it.
    "popen_pipe_fails": (3, errno.EMFILE),
    # The sandbox is gone when the child changes into it; Popen names the cwd.
    "sandbox_gone": (None, errno.ENOENT),
}


@pytest.mark.parametrize("kind", [*_RUN_KINDS, "missing_exe", "not_executable", *_HOST_FAULTS])
def test_no_descriptor_outlives_a_run(tmp_path, monkeypatch, kind):
    # Raw descriptors raise no ResourceWarning when leaked, so count them.
    run_once(req(Path("/bin/true")))
    before = _open_descriptors()
    if kind in _RUN_KINDS:
        _RUN_KINDS[kind](tmp_path)
    elif kind in _HOST_FAULTS:
        failing_pipe, expected = _HOST_FAULTS[kind]
        real_pipe, calls = os.pipe, []

        def pipe():
            calls.append(pipe)
            if len(calls) == failing_pipe:
                raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
            return real_pipe()

        monkeypatch.setattr(os, "pipe", pipe)
        if kind == "sandbox_gone":
            monkeypatch.setattr(exec_harness, "_take_sandbox", lambda root: (str(tmp_path / "gone"), 0))
        with pytest.raises(OSError) as raised:
            run_once(req(Path("/bin/true"), stdin=b"x"))
        monkeypatch.undo()
        assert not isinstance(raised.value, SpawnError)
        assert raised.value.errno == expected
        assert len(calls) == (failing_pipe or 3)
    else:
        exe = tmp_path / "plain"
        if kind == "not_executable":
            exe.write_text("#!/bin/sh\n")
        with pytest.raises(SpawnError):
            run_once(req(exe, stdin=b"x"))
    assert _open_descriptors() == before


@pytest.mark.parametrize("timeout", [3e6, 1e300])
def test_a_timeout_past_what_one_poll_can_wait_is_honoured(timeout):
    # poll() waits at most 2**31 - 1 ms, about 24.9 days.
    assert run_once(req(Path("/bin/true"), timeout_seconds=timeout)).termination == Termination.exited(0)


def test_spawn_error_for_missing_binary(tmp_path):
    with pytest.raises(SpawnError):
        run_once(req(tmp_path / "nope"))


def test_each_run_starts_in_a_fresh_empty_sandbox(tmp_path):
    exe = make_script(tmp_path, "litter", "ls -A; echo x > left-behind.txt\n")
    first = run_once(req(exe))
    second = run_once(req(exe))
    assert first.stdout == second.stdout == b""


def test_concurrent_runs_reuse_only_empty_sandboxes_and_never_share_one(tmp_path, monkeypatch):
    # Even runs litter their sandbox, odd runs leave it empty for the next.
    exe = make_script(tmp_path, "probe", 'ls -A; pwd; [ "$1" = litter ] && echo x > left-behind.txt; exit 0\n')
    # A run's span lies inside its hold on the sandbox, from hand-out to
    # hand-back. run_once hands a settled sandbox back before it returns, so
    # a span taken around run_once can overlap the next holder's.
    inside = threading.local()
    run_in_sandbox = exec_harness._run_in_sandbox

    def timed(*args):
        inside.start = time.monotonic()
        try:
            return run_in_sandbox(*args)
        finally:
            inside.end = time.monotonic()

    monkeypatch.setattr(exec_harness, "_run_in_sandbox", timed)

    def run(i: int) -> tuple[float, float, list[str]]:
        outcome = run_once(req(exe, ["litter" if i % 2 == 0 else "clean"]))
        return inside.start, inside.end, outcome.stdout.decode().splitlines()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the interpreter lock over often, to expose a lost pool update
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = list(pool.map(run, range(100)))
    finally:
        sys.setswitchinterval(interval)
    assert all(len(lines) == 1 for *_, lines in runs)  # `ls -A` printed nothing
    pwds = [lines[0] for *_, lines in runs]
    for i, (start_a, end_a, _) in enumerate(runs):
        for j, (start_b, end_b, _) in enumerate(runs[:i]):
            if start_a < end_b and start_b < end_a:
                assert pwds[i] != pwds[j]
    assert len(set(pwds)) < len(pwds)  # the clean runs' sandboxes were reused


def test_a_timed_out_run_never_passes_its_sandbox_on(tmp_path):
    # The setsid descendant outlives the timeout and writes after it.
    exe = make_script(
        tmp_path, "detached",
        "pwd; setsid sh -c 'sleep 0.6; touch late' </dev/null >/dev/null 2>&1 &\nsleep 10\n",
    )
    later = make_script(tmp_path, "later", "pwd; sleep 0.8; ls -A\n")
    run_once(req(Path("/bin/true")))  # leaves one sandbox idle for the timed-out run
    timed_out = run_once(req(exe, timeout_seconds=0.3))
    assert timed_out.termination.kind is TerminationKind.TIMED_OUT
    pwd, *listing = run_once(req(later)).stdout.decode().splitlines()
    assert pwd != timed_out.stdout.decode().strip()
    assert listing == []


def test_an_in_group_background_child_is_killed_when_the_run_ends(tmp_path):
    mark = tmp_path / "mark"
    exe = make_script(tmp_path, "bg", f'(sleep 0.3; touch "{mark}") >/dev/null 2>&1 &\n')
    assert run_once(req(exe)).termination == Termination.exited(0)
    time.sleep(0.6)
    assert not mark.exists()


@pytest.mark.parametrize("tamper", ["chmod 500 .", 'd=$PWD; cd /; rmdir "$d" && ln -s "$ELSEWHERE" "$d"'])
def test_a_sandbox_made_read_only_or_swapped_for_a_symlink_is_not_reused(tmp_path, scratch_env, tamper):
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    probe = make_script(tmp_path, "probe", "pwd -P; stat -c %a .\n")
    vandal = make_script(tmp_path, "vandal", tamper + "\n")
    before = run_once(req(probe)).stdout.decode().split()
    assert run_once(req(vandal, env={"ELSEWHERE": str(elsewhere)})).termination == Termination.exited(0)
    after = run_once(req(probe)).stdout.decode().split()
    assert Path(after[0]).parent == scratch_env.resolve()
    assert after[1] == before[1]


def test_a_sandbox_swapped_for_a_symlink_is_unlinked_and_its_target_left_alone(tmp_path, scratch_env):
    target = tmp_path / "target"
    target.mkdir()
    (target / "keep.txt").write_text("kept")
    vandal = make_script(tmp_path, "vandal", 'd=$PWD; cd /; rmdir "$d" && ln -s "$TARGET" "$d"\n')
    assert run_once(req(vandal, env={"TARGET": str(target)})).termination == Termination.exited(0)
    assert any(p.is_symlink() for p in scratch_env.iterdir())
    run_once(req(Path("/bin/true")))  # takes the swapped sandbox from the pool and removes it
    assert [p for p in scratch_env.iterdir() if p.is_symlink()] == []
    assert [p.name for p in target.iterdir()] == ["keep.txt"]
    assert (target / "keep.txt").read_text() == "kept"


_CLI = "from debloateval.cli import main; main(prog_name='debloateval')"


def test_a_differ_campaign_uses_one_sandbox_per_job_and_leaves_scratch_empty(tmp_path):
    log = tmp_path / "pwd.log"
    programs = {
        name: str(make_script(tmp_path, name, f'pwd >> "{log}"\necho "$1"\n')) for name in ("original", "variant")
    }
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "id": "pool",
        "original": {"label": "original", "exe": programs["original"]},
        "variants": [{"label": "variant", "exe": programs["variant"]}],
        "features": [{"name": "echo", "disposition": "retain",
                      "commands": [{"argv": ["{{dict:a|b|c}}"], "fuzz_count": 20}]}],
    }))
    scratch = tmp_path / "fresh-scratch"
    scratch.mkdir()
    proc = subprocess.run(
        [sys.executable, "-c", _CLI, "differ", "--spec", str(spec), "--out", str(tmp_path / "out"), "--jobs", "2"],
        capture_output=True, timeout=120,
        env={**os.environ, "DV_SCRATCH": str(scratch), "PYTHONPATH": str(Path(exec_harness.__file__).parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    pwds = log.read_text().splitlines()
    assert len(pwds) > 40
    assert len(set(pwds)) <= 2
    assert list(scratch.iterdir()) == []


def test_capture_files_report_existence_and_digest(tmp_path):
    exe = make_script(tmp_path, "writer", "printf abc > made.txt\n")
    outcome = run_once(req(exe, capture_files=["made.txt", "never.txt"]))
    assert outcome.file_digests["made.txt"][0] is True
    assert outcome.file_digests["never.txt"][0] is False
    import hashlib

    assert outcome.file_digests["made.txt"][1] == hashlib.sha256(b"abc").digest()


def test_capture_files_never_leave_the_sandbox(tmp_path):
    secret = tmp_path / "secret"
    secret.write_text("outside\n")
    exe = make_script(tmp_path, "links", f'''
        ln -s "{secret}" linked.txt
        ln -s "{tmp_path}" linked_dir
        mkfifo fifo
        mkdir sub
        printf abc > sub/out.txt
        head -c 300000 /dev/zero > sub/big.bin
    ''')
    paths = ["linked.txt", "linked_dir/secret", "fifo", "sub", "sub/out.txt", "sub//out.txt", "sub/none", "sub/big.bin"]
    done = {}
    # A daemon thread, so that a run stuck opening the FIFO fails the test instead of hanging it.
    worker = threading.Thread(target=lambda: done.update(outcome=run_once(req(exe, capture_files=paths))), daemon=True)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    outcome = done["outcome"]
    absent = (False, b"\x00" * 32)
    present = (True, hashlib.sha256(b"abc").digest())
    assert outcome.file_digests == {
        "linked.txt": absent,
        "linked_dir/secret": absent,
        "fifo": absent,
        "sub": absent,
        "sub/out.txt": present,
        "sub//out.txt": present,
        "sub/none": absent,
        "sub/big.bin": (True, hashlib.sha256(bytes(300_000)).digest()),  # more than one 64 KiB read
    }


def test_a_captured_file_that_meets_the_descriptor_limit_is_raised_not_absent(tmp_path, monkeypatch):
    # The program wrote the file: reading it as absent would blame the program
    # for the host's descriptor limit.
    exe = make_script(tmp_path, "writer", "mkdir d; printf abc > d/made.txt\n")
    real_open = os.open

    def leaf_open(path, flags, *args, **kwargs):
        if flags == exec_harness._OPEN_LEAF:
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
        return real_open(path, flags, *args, **kwargs)

    run_once(req(Path("/bin/true")))
    before = _open_descriptors()
    monkeypatch.setattr(os, "open", leaf_open)
    with pytest.raises(OSError) as raised:
        run_once(req(exe, capture_files=["d/made.txt"]))
    monkeypatch.undo()
    assert raised.value.errno == errno.EMFILE
    assert _open_descriptors() == before


def test_file_digests_deterministic(tmp_path):
    exe = make_script(tmp_path, "writer", "printf abc > made.txt\n")
    a = run_once(req(exe, capture_files=["made.txt"]))
    b = run_once(req(exe, capture_files=["made.txt"]))
    assert a.file_digests == b.file_digests


def test_resource_accounting_is_sane(tmp_path):
    exe = make_script(
        tmp_path, "work", f'{sys.executable} -c "sum(i*i for i in range(200000))"\n'
    )
    outcome = run_once(req(exe))
    assert outcome.cpu_seconds > 0
    assert outcome.peak_rss_bytes > 0
    ncpu = os.cpu_count() or 1
    assert outcome.cpu_seconds <= ncpu * outcome.wall_seconds + 0.1


def test_run_trials_mean_and_listing(tmp_path):
    exe = make_script(tmp_path, "true", "exit 0\n")
    summary = run_trials(req(exe), 3)
    assert summary.n == 3
    assert len(summary.outcomes) == 3


def test_run_trials_single_has_zero_stdev(tmp_path):
    exe = make_script(tmp_path, "true", "exit 0\n")
    summary = run_trials(req(exe), 1)
    assert summary.stdev_cpu_seconds == 0.0
    assert summary.stdev_peak_rss_bytes == 0.0


def test_run_trials_excludes_crashes_from_means(tmp_path):
    exe = make_script(tmp_path, "crash", "kill -SEGV $$\n")
    summary = run_trials(req(exe), 2)
    assert summary.n == 2
    assert summary.mean_cpu_seconds == 0.0
    assert all(o.termination.kind is TerminationKind.SIGNALED for o in summary.outcomes)


def test_run_trials_spawn_error_on_first_trial(tmp_path):
    with pytest.raises(SpawnError):
        run_trials(req(tmp_path / "nope"), 3)


def test_run_trials_propagates_a_later_spawn_failure(monkeypatch):
    # A later trial fails to start only if the binary changed; no summary
    # may then describe it.
    calls = []

    def second_call_fails(request):
        calls.append(request)
        if len(calls) == 2:
            raise SpawnError("cannot exec: gone")
        return ExecOutcome(Termination.exited(0), b"", b"", {}, 1.0, 1.0, 1000)

    monkeypatch.setattr(exec_harness, "run_once", second_call_fails)
    with pytest.raises(SpawnError, match="cannot exec: gone"):
        run_trials(req(Path("/bin/true")), 3)
    assert len(calls) == 2


def _summary(cpu: float, rss: float) -> TrialSummary:
    outcome = ExecOutcome(Termination.exited(0), b"", b"", {}, cpu, cpu, int(rss))
    return TrialSummary(1, cpu, rss, 0.0, 0.0, [outcome])


def test_perf_delta_formula():
    delta = perf_delta(_summary(10.0, 1000.0), _summary(9.58, 1000.0))
    assert delta.runtime_pct == pytest.approx(95.8)
    assert delta.memory_pct == pytest.approx(100.0)


def test_perf_delta_identity():
    delta = perf_delta(_summary(2.0, 500.0), _summary(2.0, 500.0))
    assert delta.runtime_pct == pytest.approx(100.0)
    assert delta.memory_pct == pytest.approx(100.0)


def test_perf_delta_regression_case():
    delta = perf_delta(_summary(1.0, 1.0), _summary(1.358, 1.0))
    assert delta.runtime_pct == pytest.approx(135.8)


def test_perf_delta_zero_baseline_not_comparable():
    with pytest.raises(NotComparableError):
        perf_delta(_summary(0.0, 100.0), _summary(1.0, 100.0))
