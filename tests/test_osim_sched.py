"""Cooperative scheduler: fairness, blocking I/O, and the timing-channel
regression — a denied blocking reader must be observationally identical
to an empty-pipe blocking reader (parks, wakeups, retries, syscall and
hook counts)."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core import Label, LabelPair
from repro.osim import (
    EINVAL,
    Kernel,
    LaminarSecurityModule,
    SIGKILL,
    Scheduler,
    SyscallError,
    fork,
    read_blocking,
    recv_blocking,
    submit,
    syscall,
    yield_,
)
from repro.osim.kernel import Sqe


def make_pipe_pair(kernel, labels=None):
    """A pipe shared between a fresh reader task and writer task, with no
    stray fd references (so the writer's close is the last close)."""
    setup = kernel.spawn_task("plumber")
    rfd, wfd = kernel.sys_pipe(setup, labels=labels)
    reader = kernel.spawn_task("reader", labels=labels or LabelPair.EMPTY)
    writer = kernel.spawn_task("writer", labels=labels or LabelPair.EMPTY)
    r = kernel.share_fd(setup, rfd, reader)
    w = kernel.share_fd(setup, wfd, writer)
    kernel.sys_close(setup, rfd)
    kernel.sys_close(setup, wfd)
    return reader, r, writer, w


class TestRoundRobinFairness:
    def test_tasks_interleave_one_op_per_step(self, kernel):
        order = []

        def body(task):
            for _ in range(3):
                order.append(task.tid)
                yield yield_()

        sched = Scheduler(kernel)
        a = sched.spawn(body, name="a")
        b = sched.spawn(body, name="b")
        c = sched.spawn(body, name="c")
        assert sched.run() == []
        assert order == [a.tid, b.tid, c.tid] * 3

    def test_busy_task_cannot_starve_others(self, kernel):
        """A task yielding 100 ops does not monopolize the processor: a
        2-op task admitted alongside it finishes within its first few
        scheduling rounds, not after the busy task drains."""
        finish_step = {}
        sched = Scheduler(kernel)

        def busy(task):
            for _ in range(100):
                yield yield_()
            finish_step["busy"] = sched.steps

        def light(task):
            yield yield_()
            yield yield_()
            finish_step["light"] = sched.steps

        sched.spawn(busy)
        sched.spawn(light)
        assert sched.run() == []
        assert finish_step["light"] <= 6
        assert finish_step["busy"] > finish_step["light"]

    def test_generator_return_exits_task(self, kernel):
        def body(task):
            yield yield_()
            return 7

        sched = Scheduler(kernel)
        task = sched.spawn(body)
        sched.run()
        assert not task.alive
        assert task.exit_code == 7


class TestBlockingIO:
    def test_reader_wakes_on_write(self, kernel):
        reader, r, writer, w = make_pipe_pair(kernel)
        got = []

        def read_body(task):
            got.append((yield read_blocking(r)))

        def write_body(task):
            # A few empty rounds first so the reader is genuinely parked.
            yield yield_()
            yield yield_()
            yield syscall("write", w, b"ping")

        sched = Scheduler(kernel, trace=True)
        sched.spawn(read_body, task=reader)
        sched.spawn(write_body, task=writer)
        assert sched.run() == []
        assert got == [b"ping"]
        assert ("park", reader.tid) in sched.trace
        assert ("wake", reader.tid) in sched.trace

    def test_reader_wakes_on_close_with_empty_read(self, kernel):
        reader, r, writer, w = make_pipe_pair(kernel)
        got = []

        def read_body(task):
            got.append((yield read_blocking(r)))

        def write_body(task):
            yield yield_()
            yield syscall("close", w)

        sched = Scheduler(kernel)
        sched.spawn(read_body, task=reader)
        sched.spawn(write_body, task=writer)
        assert sched.run() == []
        assert got == [b""]

    def test_data_then_close_drains_before_eof(self, kernel):
        reader, r, writer, w = make_pipe_pair(kernel)
        got = []

        def read_body(task):
            while True:
                data = yield read_blocking(r)
                if not data:
                    return
                got.append(data)

        def write_body(task):
            yield syscall("write", w, b"a")
            yield syscall("write", w, b"b")
            yield syscall("close", w)

        sched = Scheduler(kernel)
        sched.spawn(read_body, task=reader)
        sched.spawn(write_body, task=writer)
        assert sched.run() == []
        assert got == [b"a", b"b"]

    def test_task_exit_does_not_wake_reader(self, kernel):
        """Termination-channel suppression survives the scheduler: a
        writer that exits WITHOUT closing leaves the reader parked
        forever (reported stuck), exactly like a writer that never
        existed."""
        reader, r, writer, w = make_pipe_pair(kernel)

        def read_body(task):
            yield read_blocking(r)

        def write_body(task):
            yield yield_()
            # falls off the end: task exits, fd refs drop, no hangup

        sched = Scheduler(kernel)
        sched.spawn(read_body, task=reader)
        sched.spawn(write_body, task=writer)
        assert sched.run() == [reader]
        assert not writer.alive
        assert reader.alive

    def test_file_read_never_blocks(self, kernel):
        actor = kernel.spawn_task("filer")
        fd = kernel.sys_creat(actor, "/tmp/f")
        kernel.sys_write(actor, fd, b"xy")
        kernel.sys_close(actor, fd)
        got = []

        def body(task):
            fd = yield syscall("open", "/tmp/f", "r")
            got.append((yield read_blocking(fd)))
            got.append((yield read_blocking(fd)))  # at EOF: b"", no park

        sched = Scheduler(kernel, trace=True)
        sched.spawn(body, task=actor)
        assert sched.run() == []
        assert got == [b"xy", b""]
        assert ("park", actor.tid) not in sched.trace

    def test_socket_recv_blocking(self, kernel):
        a = kernel.sys_socket(kernel.init_task)
        b = kernel.sys_socket(kernel.init_task)
        a.connect(b)
        got = []

        def recv_body(task):
            got.append((yield recv_blocking(b)))
            got.append((yield recv_blocking(b)))  # wakes on close -> b""

        def send_body(task):
            yield yield_()
            yield syscall("send", a, b"hello")
            yield yield_()
            a.close()

        sched = Scheduler(kernel)
        sched.spawn(recv_body)
        sched.spawn(send_body)
        assert sched.run() == []
        assert got == [b"hello", b""]

    def test_syscall_error_raised_inside_body(self, kernel):
        caught = []

        def body(task):
            try:
                yield syscall("open", "/no/such/file")
            except SyscallError as exc:
                caught.append(exc.errno)

        sched = Scheduler(kernel)
        sched.spawn(body)
        assert sched.run() == []
        assert caught == [2]  # ENOENT


class TestForkExitKill:
    def test_fork_schedules_child_body(self, kernel):
        seen = []

        def child_body(task):
            seen.append(task.name)
            yield yield_()

        def parent_body(task):
            child = yield fork(child_body)
            seen.append(child.parent is task)

        sched = Scheduler(kernel)
        parent = sched.spawn(parent_body, name="p")
        assert sched.run() == []
        # The child is admitted ahead of the parent's re-enqueue, so it
        # runs its first step first.
        assert seen == ["p-child", True]
        assert all(not c.alive for c in parent.children)

    def test_kill_terminates_at_next_step(self, kernel):
        progress = []

        def victim_body(task):
            while True:
                progress.append(1)
                yield yield_()

        def killer_body(task, victim_tid):
            yield yield_()
            yield syscall("kill", victim_tid, SIGKILL)

        sched = Scheduler(kernel, trace=True)
        victim = sched.spawn(victim_body)
        sched.spawn(lambda t: killer_body(t, victim.tid))
        assert sched.run() == []
        assert not victim.alive
        assert victim.exit_code == 128 + SIGKILL
        assert ("killed", victim.tid) in sched.trace
        assert len(progress) <= 3

    def test_kill_wakes_and_terminates_parked_reader(self, kernel):
        reader, r, writer, w = make_pipe_pair(kernel)

        def read_body(task):
            yield read_blocking(r)

        def killer_body(task):
            yield yield_()
            yield syscall("kill", reader.tid, SIGKILL)

        sched = Scheduler(kernel)
        sched.spawn(read_body, task=reader)
        sched.spawn(killer_body, task=writer)
        assert sched.run() == []
        assert not reader.alive

    def test_submit_runs_whole_batch_in_one_step(self, kernel):
        results = []

        def body(task):
            fd = yield syscall("open", "/tmp/batched", "w+")
            cqes = yield submit(
                [Sqe("write", fd, b"abc"), Sqe("lseek", fd, 0), Sqe("read", fd)]
            )
            results.extend(c.result for c in cqes)

        sched = Scheduler(kernel)
        sched.spawn(body)
        assert sched.run() == []
        assert results == [3, 0, b"abc"]
        # creat + submit + the final advance-to-return: batch did not
        # consume one step per entry.
        assert sched.steps <= 4


class TestDenialIndistinguishableFromEmpty:
    """The tentpole security regression: under the scheduler, a reader
    whose labels forbid a pipe behaves *identically* to a reader of an
    empty pipe driven by the same writer — same scheduler trace, same
    syscall counts, same hook counts, same returned data."""

    @staticmethod
    def _scenario(denied: bool):
        """One kernel run where the two variants differ in exactly one
        bit: the blocked reader's label.

        A secrecy-labeled pipe is fed by a labeled writer (3 messages,
        then an explicit close) and drained by a labeled *drainer* that
        polls non-blocking reads.  Round-robin order guarantees the
        drainer always runs before a freshly woken blocked reader, so
        the queue is empty whenever the blocked reader attempts a read:

        * ``denied=True`` — the reader is unlabeled: every read attempt
          is silently denied.
        * ``denied=False`` — the reader holds the tag: every read
          attempt is *allowed* but finds an empty queue.

        Writer, drainer, pipe, message pattern, and scheduling are
        byte-identical.  If any observable differs between the variants,
        the scheduler has turned the label verdict into a signal."""
        kernel = Kernel(LaminarSecurityModule())
        owner = kernel.spawn_task("owner")
        tag, _ = kernel.sys_alloc_tag(owner, "secret")
        secret = LabelPair(Label.of(tag))

        setup = kernel.spawn_task("plumber")
        rfd, wfd = kernel.sys_pipe(setup, labels=secret)
        reader = kernel.spawn_task(
            "reader", labels=LabelPair.EMPTY if denied else secret
        )
        drainer = kernel.spawn_task("drainer", labels=secret)
        writer = kernel.spawn_task("writer", labels=secret)
        r = kernel.share_fd(setup, rfd, reader)
        d = kernel.share_fd(setup, rfd, drainer)
        w = kernel.share_fd(setup, wfd, writer)
        kernel.sys_close(setup, rfd)
        kernel.sys_close(setup, wfd)

        events: list[int] = []
        drained: list[bytes] = []

        def read_body(task):
            while True:
                data = yield read_blocking(r)
                events.append(len(data))
                if not data:
                    return

        def drain_body(task):
            for _ in range(12):
                data = yield syscall("read", d)
                if data:
                    drained.append(data)

        def write_body(task):
            for i in range(3):
                yield syscall("write", w, b"msg%d" % i)
                yield yield_()
            yield syscall("close", w)

        sched = Scheduler(kernel, trace=True)
        sched.spawn(read_body, task=reader)
        sched.spawn(drain_body, task=drainer)
        sched.spawn(write_body, task=writer)
        stuck = sched.run()

        # Normalize tids out of the trace: (event, role) with stable roles.
        roles = {reader.tid: "R", drainer.tid: "D", writer.tid: "W"}
        trace = [(ev, roles[tid]) for ev, tid in sched.trace]
        return {
            "stuck": [t.name for t in stuck],
            "events": events,
            "drained": list(drained),
            "trace": trace,
            "steps": sched.steps,
            "syscalls": dict(kernel.syscall_counts),
            "hooks": dict(kernel.security.hook_calls),
        }

    def test_denied_reader_identical_to_empty_reader(self):
        denied = self._scenario(denied=True)
        empty = self._scenario(denied=False)
        assert denied == empty

    def test_denied_reader_sees_only_empty_reads(self):
        result = self._scenario(denied=True)
        assert result["events"] == [0]
        assert result["stuck"] == []

    def test_wakeups_follow_writer_activity_not_verdicts(self):
        """The reader parks and wakes in lockstep with write attempts in
        both scenarios: the park/wake pattern encodes writer activity,
        never whether delivery succeeded."""
        result = self._scenario(denied=True)
        parks = [e for e in result["trace"] if e == ("park", "R")]
        wakes = [e for e in result["trace"] if e == ("wake", "R")]
        assert len(parks) >= 2
        assert len(wakes) == len(parks)


class TestSchedulerHygiene:
    def test_run_respects_max_steps(self, kernel):
        def forever(task):
            while True:
                yield yield_()

        sched = Scheduler(kernel)
        sched.spawn(forever)
        with pytest.raises(RuntimeError, match="exceeded"):
            sched.run(max_steps=10)

    def test_non_generator_body_rejected(self, kernel):
        sched = Scheduler(kernel)
        with pytest.raises(TypeError, match="generator"):
            sched.spawn(lambda task: 42)


class TestMalformedOps:
    """A task that yields a malformed op gets ``EINVAL`` thrown into its
    own generator; the scheduler and every other task carry on."""

    BAD_OPS = [
        syscall("read"),  # too few arguments
        syscall("lseek", 3, 0, 0),  # too many
        syscall("open"),
        ("teleport", None, None),  # unknown kind
        ("syscall", "read"),  # not an (kind, a, b) triple
        42,
    ]

    @pytest.mark.parametrize(
        "op",
        BAD_OPS,
        ids=["read-0", "lseek-3", "open-0", "unknown-kind", "pair", "int"],
    )
    def test_bad_op_fails_only_its_task(self, kernel, op):
        caught, got = [], []

        def bad(task):
            try:
                yield op
            except SyscallError as exc:
                caught.append(exc.errno)

        def good(task):
            fd = yield syscall("open", "/tmp/good", "w+")
            yield syscall("write", fd, b"ok")
            yield syscall("lseek", fd, 0)
            got.append((yield syscall("read", fd)))

        sched = Scheduler(kernel)
        bad_task = sched.spawn(bad)
        good_task = sched.spawn(good)
        assert sched.run() == []
        assert caught == [EINVAL]
        assert got == [b"ok"]
        assert not bad_task.alive and bad_task.exit_code == 0
        assert not good_task.alive and good_task.exit_code == 0
        # The bad op reached no syscall body.
        assert kernel.syscall_counts["read"] == 1
        assert kernel.syscall_counts["open"] == 1
        assert kernel.syscall_counts["lseek"] == 1


def _trace(spec: str) -> list[tuple[str, str]]:
    """``"run:R0 park:R0"`` -> ``[("run", "R0"), ("park", "R0")]``."""
    return [tuple(item.split(":")) for item in spec.split()]


class TestWakeRule:
    """One wake pass over several parked readers.  Three readers park on
    three distinct pipes (R0, R1, R2, in that order); a driver D acts in
    its second step, then writes once to every pipe in one batch."""

    @staticmethod
    def _scenario(action):
        kernel = Kernel(LaminarSecurityModule())
        setup = kernel.spawn_task("plumber")
        driver = kernel.spawn_task("driver")
        readers, rfds, wfds = [], [], []
        for i in range(3):
            rfd, wfd = kernel.sys_pipe(setup)
            reader = kernel.spawn_task(f"reader{i}")
            rfds.append(kernel.share_fd(setup, rfd, reader))
            wfds.append(kernel.share_fd(setup, wfd, driver))
            kernel.sys_close(setup, rfd)
            kernel.sys_close(setup, wfd)
            readers.append(reader)
        got = {}

        def read_body(i):
            def body(task):
                got[i] = yield read_blocking(rfds[i])

            return body

        def drive(task):
            yield yield_()
            yield from action(readers, wfds)
            yield submit([Sqe("write", fd, b"m%d" % i) for i, fd in enumerate(wfds)])

        sched = Scheduler(kernel, trace=True)
        for i, reader in enumerate(readers):
            sched.spawn(read_body(i), task=reader)
        sched.spawn(drive, task=driver)
        syscalls = Counter(kernel.syscall_counts)
        hooks = Counter(kernel.security.hook_calls)
        stuck = sched.run()
        roles = {reader.tid: f"R{i}" for i, reader in enumerate(readers)}
        roles[driver.tid] = "D"
        return {
            "stuck": stuck,
            "trace": [(event, roles[tid]) for event, tid in sched.trace],
            "steps": sched.steps,
            "syscalls": dict(Counter(kernel.syscall_counts) - syscalls),
            "hooks": dict(Counter(kernel.security.hook_calls) - hooks),
            "got": got,
            "exit_codes": [reader.exit_code for reader in readers],
        }

    @staticmethod
    def _idle(readers, wfds):
        yield yield_()

    BASELINE_TRACE = _trace(
        "run:R0 park:R0 run:R1 park:R1 run:R2 park:R2 run:D run:D run:D "
        "wake:R0 wake:R1 wake:R2 run:D exit:D run:R0 run:R1 run:R2 "
        "run:R0 exit:R0 run:R1 exit:R1 run:R2 exit:R2"
    )

    def test_baseline(self):
        result = self._scenario(self._idle)
        assert result == {
            "stuck": [],
            "trace": self.BASELINE_TRACE,
            "steps": 13,
            "syscalls": {"read": 6, "submit": 1, "write": 3, "exit": 4},
            "hooks": {"pipe_read": 6, "pipe_write": 3},
            "got": {0: b"m0", 1: b"m1", 2: b"m2"},
            "exit_codes": [0, 0, 0],
        }

    def test_non_fatal_signal_to_parked_reader_changes_nothing(self):
        """Signal 1 stays pending on a parked reader for the rest of the
        run; it neither wakes nor kills it, so the schedule is the one
        without the signal.  Only the kill call itself is counted."""

        def hup_middle(readers, wfds):
            yield syscall("kill", readers[1].tid, 1)

        idle = self._scenario(self._idle)
        hup = self._scenario(hup_middle)
        assert hup["trace"] == idle["trace"] == self.BASELINE_TRACE
        assert hup["steps"] == idle["steps"]
        assert hup["got"] == idle["got"]
        assert hup["exit_codes"] == [0, 0, 0]
        assert hup["syscalls"] == {**idle["syscalls"], "kill": 1}
        assert hup["hooks"] == {**idle["hooks"], "task_kill": 1}

    def test_fatal_signal_wakes_and_kills_only_its_target(self):
        def kill_middle(readers, wfds):
            yield syscall("kill", readers[1].tid, SIGKILL)

        result = self._scenario(kill_middle)
        assert result == {
            "stuck": [],
            "trace": _trace(
                "run:R0 park:R0 run:R1 park:R1 run:R2 park:R2 run:D run:D "
                "wake:R1 run:D wake:R0 wake:R2 killed:R1 run:D exit:D "
                "run:R0 run:R2 run:R0 exit:R0 run:R2 exit:R2"
            ),
            "steps": 12,
            # R1 never re-reads; its death is one more exit.
            "syscalls": {"read": 5, "kill": 1, "submit": 1, "write": 3, "exit": 4},
            "hooks": {"pipe_read": 5, "task_kill": 1, "pipe_write": 3},
            "got": {0: b"m0", 2: b"m2"},
            "exit_codes": [0, 128 + SIGKILL, 0],
        }

    def test_two_writes_in_one_step_wake_in_park_order(self):
        """The third pipe is written before the first, in one batch; the
        next wake pass still wakes R0 before R2 (park order), and R1,
        whose pipe nobody touched, stays parked until the final batch."""

        def write_third_then_first(readers, wfds):
            yield submit([Sqe("write", wfds[2], b"x2"), Sqe("write", wfds[0], b"x0")])

        result = self._scenario(write_third_then_first)
        assert result == {
            "stuck": [],
            "trace": _trace(
                "run:R0 park:R0 run:R1 park:R1 run:R2 park:R2 run:D run:D "
                "wake:R0 wake:R2 run:D wake:R1 run:R0 run:R2 run:D exit:D "
                "run:R1 run:R0 exit:R0 run:R2 exit:R2 run:R1 exit:R1"
            ),
            "steps": 13,
            "syscalls": {"read": 6, "submit": 2, "write": 5, "exit": 4},
            "hooks": {"pipe_read": 6, "pipe_write": 5},
            "got": {0: b"x0", 1: b"m1", 2: b"x2"},
            "exit_codes": [0, 0, 0],
        }
