"""Cooperative scheduler: fairness, blocking I/O, and the timing-channel
regression — a denied blocking reader must be observationally identical
to an empty-pipe blocking reader (parks, wakeups, retries, syscall and
hook counts)."""

from __future__ import annotations

import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Label, LabelPair
from repro.osim import (
    EINVAL,
    EIO,
    FaultKind,
    FaultPlan,
    FaultRule,
    Kernel,
    LaminarSecurityModule,
    SIGKILL,
    SIGTERM,
    Scheduler,
    SyscallError,
    Task,
    fork,
    read_blocking,
    recv_blocking,
    submit,
    syscall,
    yield_,
)
from repro.osim.kernel import Sqe, call_syscall
from repro.osim.sched import DEFAULT_MAX_STEPS


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


def _takes_no_child():
    yield yield_()


class TestForkExitKill:
    def test_fork_schedules_child_body(self, kernel):
        seen = []

        def child_body(task):
            seen.append(task.name)
            yield yield_()

        forked = []

        def parent_body(task):
            child = yield fork(child_body)
            forked.append(child)
            seen.append(child.parent is task)

        sched = Scheduler(kernel)
        sched.spawn(parent_body, name="p")
        assert sched.run() == []
        # The child is admitted ahead of the parent's re-enqueue, so it
        # runs its first step first.
        assert seen == ["p-child", True]
        [child] = forked
        assert not child.alive and child.exit_code == 0
        assert child.tid not in kernel.tasks  # reaped at exit

    def test_fork_of_a_non_generator_body_fails_only_the_parent(self, kernel):
        """The child is reaped through ``sys_exit``, the parent gets
        ``EINVAL`` and carries on, and so does every other task."""
        self._fork_fails_only_the_parent(kernel, lambda child: 42)

    @pytest.mark.parametrize("body", [42, _takes_no_child], ids=["int", "no-arg"])
    def test_fork_of_a_body_that_cannot_take_the_child(self, kernel, body):
        """A body the child cannot be passed to fails like one that makes
        no generator, instead of ending the run."""
        self._fork_fails_only_the_parent(kernel, body)

    def test_type_error_inside_a_fork_body_ends_the_run(self, kernel):
        def body(child):
            raise TypeError("from inside the body")

        def parent_body(task):
            yield fork(body)

        sched = Scheduler(kernel)
        sched.spawn(parent_body, name="p")
        with pytest.raises(TypeError, match="from inside the body"):
            sched.run()

    @staticmethod
    def _fork_fails_only_the_parent(kernel, body):
        caught, got = [], []

        def parent_body(task):
            try:
                yield fork(body)
            except SyscallError as exc:
                caught.append(exc.errno)
            yield yield_()

        def other(task):
            for n in range(3):
                got.append(n)
                yield yield_()

        before = dict(kernel.tasks)
        sched = Scheduler(kernel)
        parent = sched.spawn(parent_body, name="p")
        sched.spawn(other)
        assert sched.run() == []
        assert caught == [EINVAL]
        assert got == [0, 1, 2]
        assert not parent.alive and parent.exit_code == 0
        assert kernel.tasks == before  # the child is not left live
        assert kernel.syscall_counts["fork"] == 1
        assert kernel.syscall_counts["exit"] == 3  # child, parent, other

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
        syscall("teleport"),  # no such syscall
        ("syscall", 5, ()),  # a name that is not a str
        ("syscall", ["read"], ()),  # an unhashable name
        ("syscall", "read", 5),  # arguments that are not iterable
    ]

    @pytest.mark.parametrize(
        "op",
        BAD_OPS,
        ids=[
            "read-0", "lseek-3", "open-0", "unknown-kind", "pair", "int",
            "no-such-call", "int-name", "list-name", "int-args",
        ],
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


class TestKernelCallFailures:
    """How a kernel call's failure reaches the task that made it."""

    def test_type_error_inside_a_body_propagates_after_one_run(self, kernel):
        """A ``TypeError`` raised inside a syscall body is not a bad
        argument list: it leaves :meth:`Scheduler.run` (closing every
        other thread), and the body ran exactly once."""
        closed = []

        def body(task):
            fd = yield syscall("open", "/tmp/f", "w")
            yield syscall("write", fd, 5)  # len(5) fails inside sys_write

        def other(task):
            try:
                while True:
                    yield yield_()
            finally:
                closed.append(task.name)

        sched = Scheduler(kernel)
        sched.spawn(body)
        sched.spawn(other, name="other")
        with pytest.raises(TypeError, match="len"):
            sched.run()
        assert closed == ["other"]
        assert kernel.syscall_counts["write"] == 1
        assert kernel.security.hook_calls["file_permission"] == 1

    def test_syscall_that_ends_its_task_records_one_exit(self, kernel):
        after = []

        def body(task):
            yield syscall("exit", 3)
            after.append(True)

        sched = Scheduler(kernel, trace=True)
        task = sched.spawn(body)
        assert sched.run() == []
        assert after == []
        assert task.exit_code == 3 and task.tid not in kernel.tasks
        assert sched.trace == [("run", task.tid), ("exit", task.tid)]
        assert kernel.syscall_counts["exit"] == 1

    def test_submit_error_is_thrown_into_its_task(self, kernel):
        kernel.install_faults(
            FaultPlan([FaultRule("syscall:submit", FaultKind.EIO, nth=1)])
        )
        seen = []

        def body(task):
            try:
                yield submit([Sqe("stat", "/tmp")])
            except SyscallError as exc:
                seen.append(exc.errno)
            cqes = yield submit([Sqe("stat", "/tmp")])
            seen.append([c.errno for c in cqes])

        sched = Scheduler(kernel)
        task = sched.spawn(body)
        assert sched.run() == []
        assert seen == [EIO, [0]]
        assert task.exit_code == 0


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


# -- the wait lists against the scan they replaced ---------------------------


class ScanningScheduler(Scheduler):
    """Reference wake rule: before every step, test every parked thread
    in park order and wake it if its channel's ``version`` moved since it
    parked or its task has a fatal signal pending.  This is the scan the
    channel wait lists replaced; it never touches a wait list and always
    records a trace."""

    def run(self, max_steps=DEFAULT_MAX_STEPS):
        self.stuck = []
        self._sleepers = []
        while self._runq or self._sleepers:
            self._wake_ready()
            if not self._runq:
                self.stuck = [thread.task for thread, _ in self._sleepers]
                for thread, _ in self._sleepers:
                    thread.gen.close()
                self._sleepers = []
                break
            if self.steps >= max_steps:
                raise RuntimeError(f"scheduler exceeded {max_steps} steps")
            self.steps += 1
            self._step(self._runq.popleft())
        return self.stuck

    def _wake_ready(self):
        still = []
        for thread, seen in self._sleepers:
            fatal = any(signum in (SIGKILL, SIGTERM) for signum, _ in thread.task.pending_signals)
            if fatal or thread.wait_obj.version != seen:
                self.trace.append(("wake", thread.task.tid))
                thread.wait_obj = None
                self._runq.append(thread)
            else:
                still.append((thread, seen))
        self._sleepers = still

    def _park(self, thread, op, wait_obj):
        thread.pending_op = op
        thread.wait_obj = wait_obj
        self._sleepers.append((thread, wait_obj.version))
        self.trace.append(("park", thread.task.tid))


def _forked(task):
    yield yield_()
    return 5


#: Ops no well-formed body yields, as functions of a writer's write fds.
#: Each fails only its own task, except the last two: their ``TypeError``
#: comes from inside a kernel body and ends the run.
_ODD_OPS = (
    lambda wfds: syscall("teleport"),
    lambda wfds: ("syscall", 5, ()),
    lambda wfds: ("syscall", ["write"], ()),
    lambda wfds: ("syscall", "close", 5),  # arguments not iterable
    lambda wfds: syscall("lseek", wfds[0]),  # too few arguments
    lambda wfds: syscall("write", wfds[0], b"x", 1),  # too many
    lambda wfds: syscall("close", 99),  # EBADF from the body
    lambda wfds: read_blocking(99),
    lambda wfds: submit([Sqe("teleport"), Sqe("write", wfds[0], b"s"), Sqe("read", 99)]),
    lambda wfds: ("teleport", None, None),
    lambda wfds: ("syscall", "read"),
    lambda wfds: 42,
    lambda wfds: fork(lambda task: 42),  # a body that makes no generator
    lambda wfds: fork(42),  # a body that cannot be called
    lambda wfds: fork(_takes_no_child),  # nor called with the child
    lambda wfds: fork(_forked),
    lambda wfds: syscall("read", wfds[0]),  # EBADF: a pipe's write end
    lambda wfds: read_blocking(wfds[1]),
    lambda wfds: submit([Sqe("read", wfds[0]), Sqe("readv", wfds[1], [2])]),
    lambda wfds: syscall("exit", 7),  # ends its own task
    lambda wfds: syscall("write", wfds[0], 5),
    lambda wfds: submit(5),
)


def _action(pipes: int, odd: bool = False):
    pipe = st.integers(0, pipes - 1)
    actions = [
        st.tuples(st.just("write"), pipe),
        st.tuples(st.just("close"), pipe),
        st.tuples(st.just("send")),
        st.tuples(st.just("hangup")),
        st.tuples(st.just("yield")),
        st.tuples(st.just("submit"), pipe, pipe),
        st.tuples(st.just("kill"), st.integers(0, 7), st.sampled_from([SIGKILL, 1])),
    ]
    if odd:
        actions.append(st.tuples(st.just("odd"), st.integers(0, len(_ODD_OPS) - 1)))
    return st.one_of(*actions)


@st.composite
def small_worlds(draw, odd: bool = False):
    """2–3 pipes (pipe 0 secrecy-labeled), one socket pair, 2–5 readers
    (channel index ``pipes`` is the socket) and 1–3 writers, each reader
    and writer drawn with or without the secret tag.  With ``odd``,
    writers also yield ops from :data:`_ODD_OPS`."""
    pipes = draw(st.integers(2, 3), label="pipes")
    readers = draw(
        st.lists(
            st.tuples(st.integers(0, pipes), st.booleans(), st.integers(1, 3)),
            min_size=2,
            max_size=5,
        ),
        label="readers",
    )
    writers = draw(
        st.lists(
            st.tuples(st.booleans(), st.lists(_action(pipes, odd), min_size=1, max_size=6)),
            min_size=1,
            max_size=3,
        ),
        label="writers",
    )
    secret_socket = draw(st.booleans(), label="secret_socket")
    return pipes, readers, writers, secret_socket


def _plain(value):
    """A result as comparable data: a task by name, completions as tuples."""
    if isinstance(value, Task):
        return value.name
    if isinstance(value, list):
        return [(c.op, c.result, c.errno) for c in value]
    return value


def _run_world(world, scheduler_class):
    """Build ``world`` on a fresh kernel, run it under ``scheduler_class``
    and return every observable the wake rule or the dispatch could
    change."""
    pipes, reader_specs, writer_specs, secret_socket = world
    kernel = Kernel(LaminarSecurityModule())
    owner = kernel.spawn_task("owner")
    tag, _ = kernel.sys_alloc_tag(owner, "secret")
    secret = LabelPair(Label.of(tag))
    setup = kernel.spawn_task("plumber")
    ends = [kernel.sys_pipe(setup, labels=secret if i == 0 else None) for i in range(pipes)]
    channels = [setup.lookup_fd(rfd).inode.pipe for rfd, _ in ends]
    sock_a = kernel.sys_socket(setup, labels=secret if secret_socket else None)
    sock_b = kernel.sys_socket(setup)
    sock_a.connect(sock_b)
    channels += [sock_a, sock_b]

    readers = [
        kernel.spawn_task(f"r{i}", labels=secret if labeled else LabelPair.EMPTY)
        for i, (_, labeled, _) in enumerate(reader_specs)
    ]
    writers = [
        kernel.spawn_task(f"w{i}", labels=secret if labeled else LabelPair.EMPTY)
        for i, (labeled, _) in enumerate(writer_specs)
    ]
    victims = readers + writers
    got = {task.name: [] for task in readers}
    results = {task.name: [] for task in writers}

    def reader_body(op, reads, out):
        def body(task):
            for _ in range(reads):
                try:
                    data = yield op
                except SyscallError as exc:
                    out.append(exc.errno)
                    return
                out.append(data)
                if not data:
                    return

        return body

    def writer_body(program, wfds, out):
        def body(task):
            for n, (kind, *args) in enumerate(program):
                payload = b"%s.%d" % (task.name.encode(), n)
                if kind == "write":
                    op = syscall("write", wfds[args[0]], payload)
                elif kind == "close":
                    op = syscall("close", wfds[args[0]])
                elif kind == "send":
                    op = syscall("send", sock_a, payload)
                elif kind == "hangup":
                    sock_a.close()
                    op = yield_()
                elif kind == "yield":
                    op = yield_()
                elif kind == "submit":
                    i, j = args
                    op = submit([Sqe("write", wfds[i], payload), Sqe("write", wfds[j], payload)])
                elif kind == "odd":
                    op = _ODD_OPS[args[0]](wfds)
                else:
                    victim, signum = args
                    op = syscall("kill", victims[victim % len(victims)].tid, signum)
                try:
                    out.append(_plain((yield op)))
                except SyscallError as exc:
                    out.append(exc.errno)

        return body

    sched = scheduler_class(kernel, trace=True)
    for task, (channel, _, reads) in zip(readers, reader_specs):
        if channel == pipes:
            op = recv_blocking(sock_b)
        else:
            op = read_blocking(kernel.share_fd(setup, ends[channel][0], task))
        sched.spawn(reader_body(op, reads, got[task.name]), task=task)
    for task, (_, program) in zip(writers, writer_specs):
        wfds = [kernel.share_fd(setup, wfd, task) for _, wfd in ends]
        sched.spawn(writer_body(program, wfds, results[task.name]), task=task)
    for rfd, wfd in ends:
        kernel.sys_close(setup, rfd)
        kernel.sys_close(setup, wfd)
    raised = None
    try:
        stuck = sched.run()
    except TypeError as exc:  # from inside a kernel body: ends the run
        stuck, raised = [], repr(exc)
    # A forked child is not named: tids are allocated alike in both runs.
    names = {task.tid: task.name for task in victims}
    return {
        "trace": [(event, names.get(tid, tid)) for event, tid in sched.trace],
        "steps": sched.steps,
        "stuck": [task.name for task in stuck],
        "raised": raised,
        "got": got,
        "results": results,
        "exit_codes": [task.exit_code for task in victims],
        "syscalls": dict(kernel.syscall_counts),
        "hooks": dict(kernel.security.hook_calls),
        "denials": dict(kernel.security.denials),
        # Pipe and socket inodes number from a process-wide counter.
        "audit": [
            re.sub(r"ino=\d+, (pipe|socket)", r"ino=?, \1", str(entry))
            for entry in kernel.audit
        ],
        "live": sorted(kernel.tasks),
        "waiting": [len(channel.waiters) for channel in channels],
    }


class TestWakeOrderDifferential:
    """The wait lists wake exactly the threads the per-step scan woke, in
    the same order, at the same step, in worlds with shared pipes,
    label-dropped writes, two-write batches, hangups and signals."""

    @given(world=small_worlds())
    @settings(max_examples=150, deadline=None)
    def test_wait_lists_match_the_scan(self, world):
        lists = _run_world(world, Scheduler)
        scan = _run_world(world, ScanningScheduler)
        assert lists == scan
        assert lists["waiting"] == [0] * len(lists["waiting"])

    def test_shared_pipe_wakes_both_readers_in_park_order(self):
        world = (
            2,
            [(1, False, 1), (1, False, 1), (0, False, 1)],
            [(False, [("yield",), ("write", 1), ("write", 1), ("close", 0)])],
            False,
        )
        result = _run_world(world, Scheduler)
        assert result == _run_world(world, ScanningScheduler)
        wakes = [who for event, who in result["trace"] if event == "wake"]
        assert wakes == ["r0", "r1", "r2"]
        assert result["got"] == {"r0": [b"w0.1"], "r1": [b"w0.2"], "r2": [b""]}


# -- the flat step against the dispatch chain it replaced --------------------


class ChainScheduler(Scheduler):
    """Reference dispatch: each step goes ``_dispatch`` → ``_do_syscall``
    (a ``getattr`` of ``sys_<name>`` per call) → ``_complete`` →
    :func:`~repro.osim.kernel.call_syscall`, one frame per stage, as
    before :meth:`Scheduler._step` carried out its ops itself.  Parking,
    waking and ``sys_fork`` with its child's admission are inherited."""

    def _step(self, thread):
        task = thread.task
        for signum, _sender in task.pending_signals:
            if signum in (SIGKILL, SIGTERM):
                thread.gen.close()
                if task.alive:
                    self.kernel.sys_exit(task, 128 + signum)
                if self.trace is not None:
                    self.trace.append(("killed", task.tid))
                return
        if not task.alive:
            thread.gen.close()
            return
        if self.trace is not None:
            self.trace.append(("run", task.tid))
        if thread.pending_op is not None:
            op, thread.pending_op = thread.pending_op, None
            self._dispatch(thread, op)
            return
        try:
            if thread.throw_exc is not None:
                exc, thread.throw_exc = thread.throw_exc, None
                op = thread.gen.throw(exc)
            else:
                value, thread.send_value = thread.send_value, None
                op = thread.gen.send(value)
        except StopIteration as stop:
            if task.alive:
                code = stop.value if isinstance(stop.value, int) else 0
                self.kernel.sys_exit(task, code)
            if self.trace is not None:
                self.trace.append(("exit", task.tid))
            return
        self._dispatch(thread, op)

    def _dispatch(self, thread, op):
        try:
            kind, a, b = op
        except (TypeError, ValueError):
            kind = None
        if kind == "read_blocking":
            self._do_read_blocking(thread, op, a, b)
        elif kind == "recv_blocking":
            self._do_recv_blocking(thread, op, a)
        elif kind == "syscall":
            self._do_syscall(thread, a, b)
        elif kind == "submit":
            self._complete(thread, self.kernel.sys_submit, thread.task, a)
        elif kind == "fork":
            self._do_fork(thread, a, b)
        elif kind == "yield":
            self._runq.append(thread)
        else:
            thread.throw_exc = SyscallError(EINVAL, f"bad scheduler op {op!r}")
            self._runq.append(thread)

    def _complete(self, thread, fn, *args):
        try:
            result = fn(*args)
        except SyscallError as exc:
            thread.throw_exc = exc
        else:
            thread.send_value = result
        if thread.task.alive:
            self._runq.append(thread)
        else:
            thread.gen.close()
            if self.trace is not None:
                self.trace.append(("exit", thread.task.tid))

    def _do_syscall(self, thread, name, args):
        fn = getattr(self.kernel, f"sys_{name}", None)
        if fn is None:
            thread.throw_exc = SyscallError(EINVAL, f"no such syscall {name!r}")
            self._runq.append(thread)
            return
        self._complete(thread, call_syscall, fn, thread.task, args)

    def _do_read_blocking(self, thread, op, fd, count):
        task = thread.task
        try:
            data = self.kernel.sys_read(task, fd, count)
        except SyscallError as exc:
            thread.throw_exc = exc
            self._runq.append(thread)
            return
        pipe = getattr(task.fd_table[fd].inode, "pipe", None)
        if data or pipe is None or pipe.closed:
            thread.send_value = data
            self._runq.append(thread)
        else:
            self._park(thread, op, pipe)

    def _do_fork(self, thread, body, caps_subset):
        super()._do_fork(thread, body, caps_subset)
        self._runq.append(thread)

    def _do_recv_blocking(self, thread, op, socket):
        try:
            data = self.kernel.sys_recv(thread.task, socket)
        except SyscallError as exc:
            thread.throw_exc = exc
            self._runq.append(thread)
            return
        if data or socket.hungup:
            thread.send_value = data
            self._runq.append(thread)
        else:
            self._park(thread, op, socket)


class TestDispatchDifferential:
    """The flat step does what the dispatch chain did: the same trace,
    steps, results, errnos, syscall and hook counts, denials and audit,
    in the wake-order worlds plus ops no well-formed body yields."""

    @given(world=small_worlds(odd=True))
    @settings(max_examples=150, deadline=None)
    def test_flat_step_matches_the_chain(self, world):
        assert _run_world(world, Scheduler) == _run_world(world, ChainScheduler)

    @pytest.mark.parametrize("index", range(len(_ODD_OPS)))
    def test_each_odd_op_matches_the_chain(self, index):
        program = [("write", 0), ("odd", index), ("write", 1), ("close", 0), ("close", 1)]
        world = (2, [(0, True, 2), (1, False, 2), (2, False, 1)], [(True, program)], False)
        flat = _run_world(world, Scheduler)
        assert flat == _run_world(world, ChainScheduler)
        # Only the two ops that raise inside a kernel body end the run.
        assert (flat["raised"] is not None) == (index >= len(_ODD_OPS) - 2)


# -- no parked thread outlives its park --------------------------------------


def _pipe_of(task, fd):
    return task.fd_table[fd].inode.pipe


class TestWaitListHygiene:
    """Every wait list is empty once :meth:`Scheduler.run` returns or
    raises, whatever became of the threads parked on it."""

    def test_served_readers_leave_no_entry(self, kernel):
        reader, r, writer, w = make_pipe_pair(kernel)
        pipe = _pipe_of(reader, r)
        seen = []

        def read_body(task):
            for _ in range(2):
                yield read_blocking(r)

        def write_body(task):
            yield yield_()
            seen.append(len(pipe.waiters))
            yield syscall("write", w, b"a")
            yield syscall("write", w, b"b")

        sched = Scheduler(kernel)
        sched.spawn(read_body, task=reader)
        sched.spawn(write_body, task=writer)
        assert sched.run() == []
        assert seen == [1]
        assert pipe.waiters == {}

    def test_stuck_readers_leave_no_entry(self, kernel):
        reader, r, writer, w = make_pipe_pair(kernel)
        pipe = _pipe_of(reader, r)
        a = kernel.sys_socket(kernel.init_task)
        b = kernel.sys_socket(kernel.init_task)
        a.connect(b)

        def read_body(task):
            yield read_blocking(r)

        def recv_body(task):
            yield recv_blocking(b)

        sched = Scheduler(kernel)
        sched.spawn(read_body, task=reader)
        recver = sched.spawn(recv_body)
        assert sched.run() == [reader, recver]
        assert pipe.waiters == {} and a.waiters == {} and b.waiters == {}

    def test_killed_reader_leaves_its_list_when_it_wakes(self, kernel):
        reader, r, writer, w = make_pipe_pair(kernel)
        pipe = _pipe_of(reader, r)
        other = kernel.spawn_task("other")
        r2 = kernel.share_fd(reader, r, other)
        seen = []

        def read_body(task):
            yield read_blocking(r)

        def read_other(task):
            yield read_blocking(r2)

        def kill_body(task):
            yield yield_()
            seen.append(len(pipe.waiters))
            yield syscall("kill", reader.tid, SIGKILL)
            # The wake pass before this step took the victim off the list.
            seen.append(sorted(t.task.name for t in pipe.waiters))
            yield syscall("write", w, b"x")

        sched = Scheduler(kernel)
        sched.spawn(read_body, task=reader)
        sched.spawn(read_other, task=other)
        sched.spawn(kill_body, task=writer)
        assert sched.run() == []
        assert seen == [2, ["other"]]
        assert reader.exit_code == 128 + SIGKILL
        assert pipe.waiters == {}

    def test_raise_leaves_no_entry_and_the_scheduler_runs_again(self, kernel):
        reader, r, writer, w = make_pipe_pair(kernel)
        pipe = _pipe_of(reader, r)
        other = kernel.spawn_task("other")
        r2 = kernel.share_fd(reader, r, other)

        def read_body(fd):
            def body(task):
                yield read_blocking(fd)

            return body

        def crash_body(task):
            yield yield_()
            # A bump hands the first reader back; the same step then
            # fails, so the handed-over reader never reaches a wake pass.
            kernel.sys_write(task, w, b"x")
            raise ValueError("boom")

        sched = Scheduler(kernel)
        sched.spawn(read_body(r), task=reader)
        sched.spawn(read_body(r2), task=other)
        sched.spawn(crash_body, task=writer)
        with pytest.raises(ValueError, match="boom"):
            sched.run()
        assert pipe.waiters == {}
        # Nothing of the failed run is left to wake.
        late = kernel.spawn_task("late")
        r3 = kernel.share_fd(reader, r, late)
        sched.spawn(read_body(r3), task=late)
        assert sched.run() == []
        assert late.exit_code == 0

    def test_max_steps_leaves_no_entry(self, kernel):
        reader, r, writer, w = make_pipe_pair(kernel)
        pipe = _pipe_of(reader, r)

        def read_body(task):
            yield read_blocking(r)

        def forever(task):
            while True:
                yield yield_()

        sched = Scheduler(kernel)
        sched.spawn(read_body, task=reader)
        sched.spawn(forever, task=writer)
        with pytest.raises(RuntimeError, match="exceeded"):
            sched.run(max_steps=10)
        assert pipe.waiters == {}

    def test_second_scheduler_never_sees_the_first_ones_threads(self, kernel):
        """psched's ``run_group`` shape: one fresh scheduler per group on
        one kernel.  A reader the first run left stuck on a pipe is not
        woken, traced or requeued when the second run writes it."""
        reader, r, writer, w = make_pipe_pair(kernel)
        pipe = _pipe_of(reader, r)
        late = kernel.spawn_task("late")
        r2 = kernel.share_fd(reader, r, late)
        got = []

        def first_body(task):
            got.append((yield read_blocking(r)))

        def late_body(task):
            got.append((yield read_blocking(r2)))

        def write_body(task):
            yield yield_()
            yield syscall("write", w, b"for-late")

        first = Scheduler(kernel, trace=True)
        first.spawn(first_body, task=reader)
        assert first.run() == [reader]
        first_trace = list(first.trace)

        second = Scheduler(kernel, trace=True)
        second.spawn(late_body, task=late)
        second.spawn(write_body, task=writer)
        assert second.run() == []
        assert got == [b"for-late"]
        assert {tid for _, tid in second.trace} == {late.tid, writer.tid}
        assert first.trace == first_trace
        assert pipe.waiters == {}
