"""Principals that end: exited tasks are reaped, VM threads have an exit,
and the calendar keeps at most one scheduler thread per user.

Laminar's principals are kernel threads (Sections 3, 4.4).  An exited
task leaves the kernel's table at once, so a call naming its tid cannot
tell it from a tid that never existed, and no peer is told it ended
(Section 5.2).  These tests pin that, ``LaminarVM.exit_thread``'s
refusals, the calendar's bounded thread count, and IR threads ending at
``join``.
"""

from __future__ import annotations

import gc
import random

import pytest

from repro.apps import LaminarCalendar, UnmodifiedCalendar
from repro.core import (
    CapabilitySet,
    Label,
    LabelPair,
    LaminarUsageError,
    ProcessExit,
)
from repro.jit import Interpreter, compile_source
from repro.osim import Kernel, SyscallError
from repro.osim.lsm import NullSecurityModule
from repro.runtime import LaminarAPI, LaminarVM
from repro.runtime.threads import SimThread


def live_simthreads() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is SimThread)


def calendar_pair(users: int, seed: int = 5):
    """A Laminar and an unmodified calendar over the same users, with
    modeled syscall costs counted instead of spun."""
    kernel, plain_kernel = Kernel(), Kernel(NullSecurityModule())
    kernel.defer_work = plain_kernel.defer_work = True
    lam = LaminarCalendar(seed=seed, kernel=kernel)
    plain = UnmodifiedCalendar(seed=seed, kernel=plain_kernel)
    names = [f"u{i:02d}" for i in range(users)]
    for name in names:
        lam.add_user(name)
        plain.add_user(name)
    return lam, plain, names


@pytest.fixture()
def world():
    kernel = Kernel()
    vm = LaminarVM(kernel)
    return kernel, vm


# -- the calendar -------------------------------------------------------------


class TestCalendarThreads:
    def test_threads_and_tasks_grow_with_users_not_meetings(self):
        users = 50
        lam, plain, names = calendar_pair(users)
        rng = random.Random(11)
        meetings = [tuple(rng.sample(names, 2)) for _ in range(2000)]
        before = live_simthreads()
        task_counts = []
        for i, (alice, bob) in enumerate(meetings):
            assert lam.schedule_meeting(alice, bob) == \
                plain.schedule_meeting(alice, bob)
            if i + 1 in (500, 2000):
                task_counts.append(len(lam.kernel.tasks))
        live = live_simthreads()
        # Meetings add at most one scheduler thread per user; the rest are
        # the main thread and each user's own thread from add_user.
        assert live - before <= users
        assert live <= 2 * users + 1
        assert len(lam._scheduler_threads) == users
        # init, the VM's main and TCB tasks, one task per user and one
        # per cached scheduler thread, after 500 meetings as after 2,000.
        assert task_counts == [3 + 2 * users] * 2
        assert lam.kernel.syscall_counts["exit"] > 0

    def test_one_pair_spawns_one_thread(self):
        """Fig. 9's calendar arm: one pair, 40 meetings, one thread."""
        lam, _, _ = calendar_pair(2)
        counts = lam.kernel.syscall_counts
        spawned, exited = counts["spawn_thread"], counts["exit"]
        for _ in range(40):
            assert lam.schedule_meeting("u00", "u01") is not None
        assert counts["spawn_thread"] - spawned == 1
        assert counts["exit"] - exited == 0

    def test_evicted_pair_meets_again(self):
        """A pair whose thread was evicted gets a new one, with the same
        capabilities and the same answer."""
        lam, plain, names = calendar_pair(3)
        pairs = [("u00", "u01"), ("u01", "u02"), ("u02", "u00"), ("u00", "u02")]
        for alice, bob in pairs + pairs:
            assert lam.schedule_meeting(alice, bob) == \
                plain.schedule_meeting(alice, bob)
        assert len(lam._scheduler_threads) == 3
        for (alice, bob), thread in lam._scheduler_threads.items():
            assert thread.task.capabilities == lam.scheduler_caps(alice, bob)
        assert lam.read_meetings("u00") == plain.read_meetings("u00")


# -- dead is missing ----------------------------------------------------------


def _errors(call, tid_exited: int, tid_missing: int) -> list[tuple[int, str]]:
    """The errno and text each tid gets, with the tid itself masked."""
    texts = []
    for tid in (tid_exited, tid_missing):
        with pytest.raises(SyscallError) as err:
            call(tid)
        texts.append((err.value.errno, str(err.value).replace(str(tid), "N")))
    return texts


class TestDeadIsMissing:
    @pytest.mark.parametrize("syscall", ["kill", "drop_label_tcb", "set_security_tcb"])
    def test_exited_and_never_allocated_tids_answer_alike(self, world, syscall):
        kernel, vm = world
        thread = vm.create_thread("worker")
        exited = thread.tid
        vm.exit_thread(thread)
        missing = exited + 1000
        calls = {
            "kill": lambda tid: kernel.sys_kill(vm.main_task, tid, 15),
            "drop_label_tcb": lambda tid: kernel.sys_drop_label_tcb(vm.tcb_task, tid),
            "set_security_tcb": lambda tid: kernel.sys_set_security_tcb(
                vm.tcb_task, tid, LabelPair.EMPTY, CapabilitySet.EMPTY
            ),
        }
        first, second = _errors(calls[syscall], exited, missing)
        assert first == second
        assert first[1] == "[ESRCH] no task N"

    def test_exit_tells_no_peer(self, world):
        kernel, vm = world
        thread = vm.create_thread("worker")
        audit_len = len(kernel.audit)
        vm.exit_thread(thread)
        assert thread.tid not in kernel.tasks
        assert len(kernel.audit) == audit_len
        assert all(t.pending_signals == [] for t in kernel.tasks.values())

    def test_tids_are_never_reused(self, world):
        kernel, vm = world
        seen = set(kernel.tasks)
        for _ in range(20):
            thread = vm.create_thread()
            assert thread.tid not in seen
            seen.add(thread.tid)
            vm.exit_thread(thread)
        task = kernel.spawn_task("late")
        assert task.tid not in seen


# -- what exit_thread refuses -------------------------------------------------


class TestExitThreadRefusals:
    def _refused(self, kernel, vm, thread, match):
        exits, audit_len = kernel.syscall_counts["exit"], len(kernel.audit)
        with pytest.raises(LaminarUsageError, match=match):
            vm.exit_thread(thread)
        assert kernel.syscall_counts["exit"] == exits
        assert len(kernel.audit) == audit_len

    def test_main_thread(self, world):
        kernel, vm = world
        self._refused(kernel, vm, vm.main_thread, "main and TCB")
        assert vm.main_task.tid in kernel.tasks

    def test_tcb_thread(self, world):
        kernel, vm = world
        self._refused(kernel, vm, SimThread(vm.tcb_task), "main and TCB")
        assert vm.tcb_task.tid in kernel.tasks

    def test_running_thread(self, world):
        kernel, vm = world
        thread = vm.create_thread("busy")
        with vm.running(thread):
            self._refused(kernel, vm, thread, "while it runs")
        assert thread.tid in kernel.tasks

    def test_thread_inside_a_region(self, world):
        kernel, vm = world
        tag = LaminarAPI(vm).create_and_add_capability("t")
        thread = vm.create_thread("inside")
        # Park the thread mid-region, as a switch away from it would.
        with vm.running(thread):
            region = vm.region(secrecy=Label.of(tag), caps=CapabilitySet.plus(tag))
            region.__enter__()
        self._refused(kernel, vm, thread, "outside security regions")
        with vm.running(thread):
            region.__exit__(None, None, None)
        assert thread.tid in kernel.tasks

    def test_caller_inside_a_region(self, world):
        kernel, vm = world
        tag = LaminarAPI(vm).create_and_add_capability("t")
        thread = vm.create_thread("idle")
        seen = {}
        with vm.region(secrecy=Label.of(tag), caps=CapabilitySet.plus(tag),
                       catch=lambda e: seen.update(err=e)):
            vm.exit_thread(thread)
        assert isinstance(seen["err"], LaminarUsageError)
        assert thread.tid in kernel.tasks

    def test_exited_and_foreign_threads(self, world):
        kernel, vm = world
        thread = vm.create_thread("once")
        vm.exit_thread(thread)
        self._refused(kernel, vm, thread, "not a live thread")
        other = LaminarVM(kernel, name="other").create_thread("theirs")
        self._refused(kernel, vm, other, "not a live thread")
        assert other.tid in kernel.tasks

    def test_exit_ends_in_sys_exit(self, world):
        kernel, vm = world
        thread = vm.create_thread("done")
        exits = kernel.syscall_counts["exit"]
        vm.exit_thread(thread)
        assert kernel.syscall_counts["exit"] == exits + 1
        assert not thread.task.alive and thread.tid not in kernel.tasks


# -- exit_process after an in-region syscall ----------------------------------


def test_exit_process_after_in_region_syscall(world):
    """The region's kernel restore skips the reaped main task, so the
    permitted exit surfaces as ``ProcessExit`` and not as ``ESRCH``."""
    kernel, vm = world
    tag = LaminarAPI(vm).create_and_add_capability("a")
    syncs = vm.stats.kernel_syncs
    with pytest.raises(ProcessExit) as err:
        with vm.region(secrecy=Label.of(tag), caps=CapabilitySet.dual(tag)):
            vm.syscall("stat", "/tmp")
            vm.exit_process(4)
    assert err.value.code == 4
    assert vm.stats.kernel_syncs == syncs + 1
    assert not vm.main_task.alive
    assert vm.main_task.tid not in kernel.tasks


# -- IR threads end at join ---------------------------------------------------

SPAWN_LOOP_SRC = """
class Cell { val }

method work(c) {
entry:
  getfield v, c, val
  const one, 1
  binop v, add, v, one
  putfield c, val, v
  ret
}

method main(n) {
entry:
  new c, Cell
  const i, 0
  putfield c, val, i
loop:
  binop k, lt, i, n
  br k, body, done
body:
  spawn h, work, c
  join h
  join h
  const one, 1
  binop i, add, i, one
  jmp loop
done:
  getfield r, c, val
  ret r
}
"""

BOOM_SRC = """
method boom() {
entry:
  const one, 1
  const zero, 0
  binop q, div, one, zero
  ret
}

method main() {
entry:
  spawn h, boom
  join h
  ret
}
"""

#: ``stash`` spawns a thread and keeps its handle in a static; ``finish``
#: joins it, in a later run.
STASH_SRC = """
method idle() {
entry:
  const p, 1
  print p
  ret
}

method stash() {
entry:
  spawn h, idle
  putstatic pending, h
  ret
}

method finish() {
entry:
  getstatic h, pending
  join h
  ret
}
"""

UNJOINED_SRC = """
method idle() {
entry:
  ret
}

method main() {
entry:
  spawn h, idle
  ret
}
"""


def _interp(source: str):
    kernel = Kernel()
    kernel.defer_work = True
    vm = LaminarVM(kernel)
    program, _ = compile_source(source)
    return kernel, Interpreter(program, vm)


class TestIRThreadsEndAtJoin:
    def test_spawn_join_loop_keeps_tasks_flat(self):
        kernel, interp = _interp(SPAWN_LOOP_SRC)
        tasks = len(kernel.tasks)
        assert interp.run("main", 1000) == 1000
        assert len(kernel.tasks) == tasks
        # Each spawned thread ends once; the second join is a no-op.
        assert kernel.syscall_counts["exit"] == 1000
        assert kernel.syscall_counts["spawn_thread"] == 1000

    def test_raising_body_still_ends_its_thread(self):
        kernel, interp = _interp(BOOM_SRC)
        tasks = len(kernel.tasks)
        with pytest.raises(ZeroDivisionError):
            interp.run("main")
        assert len(kernel.tasks) == tasks
        assert kernel.syscall_counts["exit"] == 1

    def test_join_under_an_ambient_region_keeps_the_thread(self):
        """Threads end outside regions: a join run inside one completes
        the body and leaves the thread alive, like one never joined."""
        kernel, interp = _interp(STASH_SRC)
        vm = interp.vm
        interp.run("stash")
        tasks = len(kernel.tasks)
        tag = LaminarAPI(vm).create_and_add_capability("ambient")
        suppressed = []
        with vm.region(secrecy=Label.of(tag), caps=CapabilitySet.dual(tag),
                       catch=suppressed.append):
            interp.run("finish")
        assert suppressed == [] and interp.output == [1]
        assert len(kernel.tasks) == tasks
        assert kernel.syscall_counts["exit"] == 0

    def test_unjoined_thread_lives_on(self):
        kernel, interp = _interp(UNJOINED_SRC)
        tasks = len(kernel.tasks)
        interp.run("main")
        assert len(kernel.tasks) == tasks + 1
        assert kernel.syscall_counts["exit"] == 0
