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
step, re-enqueue at the tail, calling the kernel from the step's own frame.
A malformed op fails only its task, with ``EINVAL``; a ``TypeError`` from
inside a syscall body ends :meth:`Scheduler.run`.

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
* A parked reader sits on its channel's wait list, and writers empty
  that list on **every** write attempt and on close, delivered or
  dropped, before any label verdict (:meth:`~repro.osim.pipes.Channel.bump`).
  Wakeups are therefore a function of writer *activity* alone.  On wake
  the reader re-attempts the full syscall — same hooks, same counters —
  and re-parks if it is still empty-handed.

A denied reader thus parks, wakes, retries, and re-parks in exactly the
same pattern, with exactly the same syscall and hook counts, as a reader
of a genuinely empty pipe fed by the same writer (regression-tested in
``tests/test_osim_sched.py``).

A wake pass runs only after a bump handed a thread back or a ``kill``
ran (``sys_kill`` is the only writer of pending signals); it requeues the
woken threads in park order.  No thread stays on a wait list after
:meth:`Scheduler.run` returns or raises.

Termination follows the kernel's discipline: a generator finishing (or
being killed) exits the task, which drops fd references but never hangs
up pipes — only an explicit last close of the write end does that — so
the scheduler adds no termination channel either.
"""

from __future__ import annotations

import types
from collections import deque
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Generator, Optional, Sequence

from ..core import CapabilitySet, LabelPair
from .kernel import arity_error
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
        "park_seq",
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
        self.park_seq = 0


_park_order = attrgetter("park_seq")


class Scheduler:
    """Round-robin cooperative scheduler over one :class:`Kernel`."""

    def __init__(self, kernel: "Kernel", trace: bool = False) -> None:
        self.kernel = kernel
        self._syscalls = kernel.syscalls
        self._runq: deque[_Thread] = deque()
        #: Parked threads in park order (an insertion-ordered set).
        self._parked: dict[_Thread, None] = {}
        #: Threads a channel bump handed back since the last wake pass.
        self._woken: list[_Thread] = []
        self._park_seq = 0
        #: ``syscall_counts["kill"]`` at the last signal rescan.
        self._kills = 0
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
        runq, parked, woken = self._runq, self._parked, self._woken
        counts = self.kernel.syscall_counts
        self._kills = counts.get("kill", 0)
        try:
            while runq or parked:
                if woken or counts.get("kill", 0) != self._kills:
                    self._wake_ready()
                if not runq:
                    # Nobody runnable and nobody woke: every parked thread
                    # is waiting on a channel no runnable writer can touch.
                    self.stuck = [t.task for t in parked]
                    self._drop_parked()
                    break
                if self.steps >= max_steps:
                    raise RuntimeError(
                        f"scheduler exceeded {max_steps} steps "
                        f"({len(runq)} runnable, {len(parked)} parked)"
                    )
                self.steps += 1
                self._step(runq.popleft())
        except BaseException as exc:
            # A KernelCrash (simulated power loss, repro.osim.faults) — or
            # any other non-syscall failure — takes the whole machine down:
            # every generator is closed (running their finally blocks, as
            # a real process teardown would not, but leaving them open
            # would leak ResourceWarnings across the sweep's thousands of
            # crashes) and the exception propagates to the harness, which
            # calls Kernel.crash()/remount().  A kernel call's SyscallError
            # never reaches here: _step throws it into the issuing body.
            for thread in runq:
                thread.gen.close()
            runq.clear()
            self._drop_parked()
            raise exc
        return self.stuck

    def _drop_parked(self) -> None:
        """Close every parked thread and take it off its wait list."""
        for thread in self._parked:
            thread.wait_obj.waiters.pop(thread, None)
            thread.gen.close()
        self._parked.clear()
        self._woken.clear()

    def _wake_ready(self) -> None:
        """Move the threads their channels handed back (and, after a
        ``kill``, every parked thread whose task got a fatal signal) to
        the run queue in park order."""
        woken = self._woken
        kills = self.kernel.syscall_counts.get("kill", 0)
        if kills != self._kills:
            self._kills = kills
            for thread in self._parked:
                if any(signum in _FATAL_SIGNALS for signum, _ in thread.task.pending_signals):
                    # A thread a bump handed back is in ``woken`` already.
                    if thread.wait_obj.waiters.pop(thread, None) is not None:
                        woken.append(thread)
        woken.sort(key=_park_order)
        parked, runq, trace = self._parked, self._runq, self.trace
        for thread in woken:
            del parked[thread]
            thread.wait_obj = None
            if trace is not None:
                trace.append(("wake", thread.task.tid))
            runq.append(thread)
        woken.clear()

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
        trace = self.trace
        if trace is not None:
            trace.append(("run", task.tid))
        op = thread.pending_op
        if op is not None:
            thread.pending_op = None
        else:
            thrown = thread.throw_exc
            try:
                if thrown is None:
                    value, thread.send_value = thread.send_value, None
                    op = thread.gen.send(value)
                else:
                    thread.throw_exc = None
                    op = thread.gen.throw(thrown)
            except StopIteration as stop:
                if task.alive:
                    self.kernel.sys_exit(task, stop.value if isinstance(stop.value, int) else 0)
                self._end(thread)
                return
        try:
            kind, a, b = op
        except (TypeError, ValueError):
            kind = None
        if kind == "syscall":
            try:
                fn = self._syscalls[a]
            except (SyscallError, TypeError):  # unknown, or unhashable
                thread.throw_exc = SyscallError(EINVAL, f"no such syscall {a!r}")
            else:
                try:
                    thread.send_value = fn(task, *b)
                except SyscallError as exc:
                    thread.throw_exc = exc
                except TypeError:
                    thread.throw_exc = arity_error(fn, task, b)
                if not task.alive:  # the call ended its task
                    self._end(thread)
                    return
        elif kind == "read_blocking":
            try:
                data = self._syscalls["read"](task, a, b)
            except SyscallError as exc:
                thread.throw_exc = exc
            else:
                pipe = getattr(task.fd_table[a].inode, "pipe", None)
                if not data and pipe is not None and not pipe.closed:
                    self._park(thread, op, pipe)
                    return
                thread.send_value = data
        elif kind == "submit":
            try:
                thread.send_value = self._syscalls["submit"](task, a)
            except SyscallError as exc:
                thread.throw_exc = exc
            if not task.alive:
                self._end(thread)
                return
        elif kind == "recv_blocking":
            try:
                data = self._syscalls["recv"](task, a)
            except SyscallError as exc:
                thread.throw_exc = exc
            else:
                if not data and not a.hungup:
                    self._park(thread, op, a)
                    return
                thread.send_value = data
        elif kind == "fork":
            self._do_fork(thread, a, b)
        elif kind != "yield":
            thread.throw_exc = SyscallError(EINVAL, f"bad scheduler op {op!r}")
        self._runq.append(thread)

    def _end(self, thread: _Thread) -> None:
        """Close a thread whose task has exited, and trace the exit."""
        thread.gen.close()
        if self.trace is not None:
            self.trace.append(("exit", thread.task.tid))

    def _do_fork(self, thread: _Thread, body, caps_subset) -> None:
        """``sys_fork``, then admit ``body(child)``.  A body that cannot be
        called with the child, or makes no generator, has the child reaped
        and the parent thrown ``EINVAL``; a ``TypeError`` from inside a
        plain function's body ends :meth:`run`, like one from a syscall
        body."""
        try:
            child = self.kernel.sys_fork(thread.task, caps_subset)
        except SyscallError as exc:
            thread.throw_exc = exc
            return
        try:
            gen = body(child)
        except TypeError:
            error = arity_error(body, child, ())
        else:
            if isinstance(gen, types.GeneratorType):
                thread.send_value = child
                self._runq.append(_Thread(child, gen))
                return
            error = SyscallError(EINVAL, f"fork body {body!r} makes no generator")
        self.kernel.sys_exit(child)
        thread.throw_exc = error

    def _park(self, thread: _Thread, op: tuple, wait_obj) -> None:
        """Put the thread to sleep on ``wait_obj``'s wait list until the
        channel's next bump.  The attempt it just made ran the full
        syscall (hooks and all); on wake it will run the full syscall
        again — parking adds no security-relevant observable."""
        thread.pending_op = op
        thread.wait_obj = wait_obj
        self._park_seq += 1
        thread.park_seq = self._park_seq
        self._parked[thread] = None
        wait_obj.waiters[thread] = self._woken
        if self.trace is not None:
            self.trace.append(("park", thread.task.tid))
