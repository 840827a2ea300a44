"""A cooperative scheduler for simulated tasks.

The kernel's syscall layer is synchronous: callers invoke ``sys_*`` and
get an answer.  That is fine for single-task microbenchmarks (lmbench)
but cannot express a *server*: many tasks interleaving, readers blocking
until a writer produces data.  This module adds that layer without
touching the kernel's security semantics.

Task bodies are **generator functions** ``body(task)`` that ``yield``
operation descriptors (built by :func:`syscall`, :func:`read_blocking`,
:func:`recv_blocking`, :func:`submit`, :func:`fork`, :func:`yield_`) and
receive each operation's result via ``gen.send``; a failing syscall is
thrown into the generator as :class:`~repro.osim.task.SyscallError`.
The scheduler is strictly round-robin: one operation per scheduling
step, re-enqueue at the tail.

Blocking without a timing channel
---------------------------------
The delicate part is blocking reads.  Laminar's pipes report a denied
read as an empty read — blocking must not un-do that by making a denied
reader *sleep differently* from an empty-pipe reader.  Two rules keep
the cases observationally identical:

* A reader parks whenever its (hook-mediated) read attempt returned no
  data and the channel is not hung up — **whatever the reason** the
  attempt came back empty.  The scheduler never asks the security module
  anything; it cannot tell a denial from an empty queue.
* A parked reader is woken by the channel's ``version`` counter, which
  writers bump on **every** write attempt and on close, delivered or
  dropped (see :mod:`repro.osim.pipes`).  Wakeups are therefore a
  function of writer *activity* alone.  On wake the reader re-attempts
  the full syscall — same hooks, same counters — and re-parks if it is
  still empty-handed.

A denied reader thus parks, wakes, retries, and re-parks in exactly the
same pattern, with exactly the same syscall and hook counts, as a reader
of a genuinely empty pipe fed by the same writer (regression-tested in
``tests/test_osim_sched.py``).

Termination follows the kernel's discipline: a generator finishing (or
being killed) exits the task, which drops fd references but never hangs
up pipes — only an explicit last close of the write end does that — so
the scheduler adds no termination channel either.
"""

from __future__ import annotations

import types
from collections import deque
from typing import TYPE_CHECKING, Callable, Generator, Optional, Sequence

from ..core import CapabilitySet, LabelPair
from .kernel import call_syscall
from .task import EINVAL, SyscallError, Task

if TYPE_CHECKING:
    from .kernel import Cqe, Kernel, Sqe

#: Signals whose delivery terminates the target at its next scheduling
#: point (the simulator has no handlers; everything else is ignored).
SIGKILL = 9
SIGTERM = 15
_FATAL_SIGNALS = (SIGKILL, SIGTERM)

#: Default ceiling on scheduling steps for one :meth:`Scheduler.run`;
#: a backstop against runaway generators in tests and benchmarks.
DEFAULT_MAX_STEPS = 1_000_000


# -- operation descriptors (what task bodies yield) --------------------------


def syscall(name: str, *args: object) -> tuple:
    """One ordinary (non-blocking) system call: ``yield syscall("open",
    "/etc/passwd")`` resumes with the call's return value, or raises the
    call's :class:`SyscallError` inside the generator."""
    return ("syscall", name, args)


def read_blocking(fd: int, count: int = -1) -> tuple:
    """``sys_read`` that parks until data arrives or the channel hangs
    up.  On a regular file this is an ordinary read (files never block).
    On a pipe the task sleeps while the attempt yields ``b""`` and the
    pipe is open, waking on writer activity; a hangup resumes it with
    ``b""``."""
    return ("read_blocking", fd, count)


def recv_blocking(socket: object) -> tuple:
    """``sys_recv`` that parks until a message arrives or an endpoint
    closes; resumes with ``b""`` on hangup."""
    return ("recv_blocking", socket, None)


def submit(sqes: "Sequence[Sqe]") -> tuple:
    """One batched submission (:meth:`Kernel.sys_submit`): the whole
    batch executes in this task's single scheduling step, and the body
    resumes with the list of :class:`Cqe` completions."""
    return ("submit", sqes, None)


def fork(body: Callable[[Task], Generator], caps_subset=None) -> tuple:
    """``sys_fork`` plus scheduling: the child task runs ``body(child)``
    under this scheduler; the parent resumes with the child ``Task``."""
    return ("fork", body, caps_subset)


def yield_() -> tuple:
    """Voluntarily give up the processor for one round."""
    return ("yield", None, None)


class _Thread:
    """Scheduler-side state for one running generator."""

    __slots__ = (
        "task",
        "gen",
        "send_value",
        "throw_exc",
        "pending_op",
        "wait_obj",
        "seen_version",
    )

    def __init__(self, task: Task, gen: Generator) -> None:
        self.task = task
        self.gen = gen
        self.send_value: object = None
        self.throw_exc: Optional[BaseException] = None
        #: A blocking op to re-attempt before advancing the generator
        #: (set when a parked thread wakes).
        self.pending_op: Optional[tuple] = None
        self.wait_obj: object = None
        self.seen_version: int = 0


class Scheduler:
    """Round-robin cooperative scheduler over one :class:`Kernel`."""

    def __init__(self, kernel: "Kernel", trace: bool = False) -> None:
        self.kernel = kernel
        self._runq: deque[_Thread] = deque()
        self._parked: list[_Thread] = []
        self.steps = 0
        #: Tasks still parked when :meth:`run` gave up (no writer can
        #: ever wake them).  Deliberately *not* an error: a reader of a
        #: never-closed, never-written pipe simply sleeps forever.
        self.stuck: list[Task] = []
        #: Optional event trace ``(event, tid)`` — "run", "park", "wake",
        #: "exit", "killed".  Events record scheduling activity only,
        #: never data or verdicts; the timing-channel regression test
        #: asserts denied and empty readers produce identical traces.
        self.trace: Optional[list[tuple]] = [] if trace else None

    # -- task admission ------------------------------------------------------

    def spawn(
        self,
        body: Callable[[Task], Generator],
        task: Optional[Task] = None,
        *,
        name: str = "",
        labels: LabelPair = LabelPair.EMPTY,
        caps: CapabilitySet = CapabilitySet.EMPTY,
    ) -> Task:
        """Admit ``body(task)`` as a schedulable thread.  Creates a fresh
        kernel task unless one is supplied."""
        if task is None:
            task = self.kernel.spawn_task(
                name or body.__name__, labels=labels, caps=caps
            )
        gen = body(task)
        if not isinstance(gen, types.GeneratorType):
            raise TypeError(f"task body {body!r} must be a generator function")
        self._runq.append(_Thread(task, gen))
        return task

    # -- the run loop --------------------------------------------------------

    def run(self, max_steps: int = DEFAULT_MAX_STEPS) -> list[Task]:
        """Drive all admitted threads to completion.

        Returns the list of tasks left permanently parked (usually
        empty).  Raises ``RuntimeError`` if ``max_steps`` scheduling
        steps were not enough — a livelock backstop for tests.
        """
        self.stuck = []
        try:
            while self._runq or self._parked:
                self._wake_ready()
                if not self._runq:
                    # Nobody runnable and nobody woke: every parked thread
                    # is waiting on a channel no runnable writer can touch.
                    self.stuck = [t.task for t in self._parked]
                    for thread in self._parked:
                        thread.gen.close()
                    self._parked.clear()
                    break
                if self.steps >= max_steps:
                    raise RuntimeError(
                        f"scheduler exceeded {max_steps} steps "
                        f"({len(self._runq)} runnable, {len(self._parked)} parked)"
                    )
                self.steps += 1
                self._step(self._runq.popleft())
        except BaseException as exc:
            # A KernelCrash (simulated power loss, repro.osim.faults) — or
            # any other non-syscall failure — takes the whole machine down:
            # every generator is closed (running their finally blocks, as
            # a real process teardown would not, but leaving them open
            # would leak ResourceWarnings across the sweep's thousands of
            # crashes) and the exception propagates to the harness, which
            # calls Kernel.crash()/remount().  SyscallError never reaches
            # here: _complete routes it into the issuing generator.
            for thread in list(self._runq) + self._parked:
                thread.gen.close()
            self._runq.clear()
            self._parked.clear()
            raise exc
        return self.stuck

    def _wake_ready(self) -> None:
        """Move parked threads whose wait channel saw activity (or whose
        task got a fatal signal) back to the run queue, preserving park
        order."""
        still_parked: list[_Thread] = []
        for thread in self._parked:
            # This scan runs before every step, over every parked thread,
            # and almost none of them has a signal pending.
            signals = thread.task.pending_signals
            signaled = bool(signals) and any(
                signum in _FATAL_SIGNALS for signum, _ in signals
            )
            if signaled or thread.wait_obj.version != thread.seen_version:
                if self.trace is not None:
                    self.trace.append(("wake", thread.task.tid))
                thread.pending_op, thread.wait_obj = (
                    (None, None) if signaled else (thread.pending_op, None)
                )
                self._runq.append(thread)
            else:
                still_parked.append(thread)
        self._parked = still_parked

    def _step(self, thread: _Thread) -> None:
        task = thread.task
        for signum, _sender in task.pending_signals:
            if signum in _FATAL_SIGNALS:
                thread.gen.close()
                if task.alive:
                    self.kernel.sys_exit(task, 128 + signum)
                if self.trace is not None:
                    self.trace.append(("killed", task.tid))
                return
        if not task.alive:
            # Exited behind our back (e.g. a direct sys_exit from test
            # code); nothing further to run.
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

    # -- op dispatch ---------------------------------------------------------

    def _dispatch(self, thread: _Thread, op: tuple) -> None:
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

    def _complete(self, thread: _Thread, fn, *args) -> object:
        """Run a kernel call, routing the result or error back into the
        generator, and re-enqueue (unless the call ended the task)."""
        try:
            result = fn(*args)
        except SyscallError as exc:
            thread.throw_exc = exc
            result = None
        else:
            thread.send_value = result
        if thread.task.alive:
            self._runq.append(thread)
        else:
            thread.gen.close()
            if self.trace is not None:
                self.trace.append(("exit", thread.task.tid))
        return result

    def _do_syscall(self, thread: _Thread, name: str, args: tuple) -> None:
        fn = getattr(self.kernel, f"sys_{name}", None)
        if fn is None:
            thread.throw_exc = SyscallError(EINVAL, f"no such syscall {name!r}")
            self._runq.append(thread)
            return
        self._complete(thread, call_syscall, fn, thread.task, args)

    def _do_fork(self, thread: _Thread, body, caps_subset) -> None:
        try:
            child = self.kernel.sys_fork(thread.task, caps_subset)
        except SyscallError as exc:
            thread.throw_exc = exc
        else:
            thread.send_value = child
            self._runq.append(_Thread(child, body(child)))
        self._runq.append(thread)

    def _do_read_blocking(
        self, thread: _Thread, op: tuple, fd: int, count: int
    ) -> None:
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

    def _do_recv_blocking(self, thread: _Thread, op: tuple, socket) -> None:
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

    def _park(self, thread: _Thread, op: tuple, wait_obj) -> None:
        """Put the thread to sleep until ``wait_obj.version`` moves.  The
        attempt it just made ran the full syscall (hooks and all); on
        wake it will run the full syscall again — parking adds no
        security-relevant observable."""
        thread.pending_op = op
        thread.wait_obj = wait_obj
        thread.seen_version = wait_obj.version
        self._parked.append(thread)
        if self.trace is not None:
            self.trace.append(("park", thread.task.tid))
