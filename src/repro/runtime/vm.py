"""The Laminar VM: one trusted runtime per process.

Ties together the labeled heap, the barrier engine, VM threads, security
regions, the trusted TCB thread, and the VM↔OS interface of Section 4.4:

* **Division of trust**: only the VM and the OS are trusted.  Application
  code reaches labeled data exclusively through barrier-mediated accessors
  and reaches the kernel exclusively through :meth:`LaminarVM.syscall`,
  which keeps the kernel thread's labels in sync with the current security
  region.
* **Lazy label sync**: "as an optimization, the VM omits setting the labels
  in the kernel thread if the security region does not perform a system
  call."  Region entry only marks the frame; the first syscall inside the
  region pays one ``set_security_tcb`` round trip.
* **TCB thread**: a single VM-internal thread carries the special ``tcb``
  integrity tag; only it may drop/restore labels without capabilities, and
  the kernel confines it to the VM's own address space (process group).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Optional

from ..core import (
    AuditKind,
    CapabilitySet,
    Label,
    LabelPair,
    LaminarUsageError,
    ProcessExit,
    RegionViolation,
    check_pair_change,
)
from ..osim.kernel import Kernel, TCB_TAG
from .barriers import BarrierEngine, BarrierMode
from .heap import Heap
from .objects import LabeledArray, LabeledObject
from .regions import CatchHandler, SecurityRegion
from .threads import RegionFrame, SimThread


@dataclass
class VMStats:
    """Counters behind the Fig. 9 overhead decomposition."""

    region_entries: int = 0
    region_exits: int = 0
    region_exceptions: int = 0
    kernel_syncs: int = 0
    kernel_restores: int = 0
    copy_and_labels: int = 0
    #: Wall-clock seconds spent inside (outermost) security regions; with a
    #: run's total time this yields Table 3's "% time in SRs" column.
    region_seconds: float = 0.0

    def reset(self) -> None:
        self.region_entries = 0
        self.region_exits = 0
        self.region_exceptions = 0
        self.kernel_syncs = 0
        self.kernel_restores = 0
        self.copy_and_labels = 0
        self.region_seconds = 0.0


class LaminarVM:
    """One process's trusted runtime."""

    def __init__(
        self,
        kernel: Kernel,
        mode: BarrierMode = BarrierMode.STATIC,
        name: str = "vm",
    ) -> None:
        self.kernel = kernel
        self.heap = Heap()
        self.barriers = BarrierEngine(self.heap, mode)
        self.stats = VMStats()
        self.name = name
        #: The process leader: the main thread of the application.
        #: shared with the kernel: one machine-wide audit trail.
        self.audit = kernel.audit
        self.main_task = kernel.spawn_task(f"{name}-main")
        self.main_thread = SimThread(self.main_task)
        #: The trusted label-drop thread (Section 4.4).  Spawned at VM boot,
        #: before any untrusted code runs, with the special integrity tag.
        self.tcb_task = kernel.spawn_task(
            f"{name}-tcb",
            labels=LabelPair(Label.EMPTY, Label.of(TCB_TAG)),
            pgid=self.main_task.pgid,
        )
        self._thread_stack: list[SimThread] = [self.main_thread]

    # ------------------------------------------------------------- threads

    @property
    def current_thread(self) -> SimThread:
        return self._thread_stack[-1]

    def enter_thread(self, thread: SimThread) -> None:
        self._thread_stack.append(thread)

    def leave_thread(self, thread: SimThread) -> None:
        top = self._thread_stack.pop()
        assert top is thread, "unbalanced thread context"

    @contextmanager
    def running(self, thread: SimThread) -> Iterator[SimThread]:
        """Execute the block as ``thread`` (the cooperative-scheduling
        analog of a context switch)."""
        self.enter_thread(thread)
        try:
            yield thread
        finally:
            self.leave_thread(thread)

    def create_thread(
        self, name: str = "", caps_subset: Optional[CapabilitySet] = None
    ) -> SimThread:
        """Spawn a new VM thread (kernel thread in this address space).
        Like fork, the child starts with a subset of the creator's
        capabilities (Section 4.4's principal hierarchy)."""
        creator = self.current_thread
        if creator.in_region:
            raise LaminarUsageError(
                "threads must be created outside security regions"
            )
        task = self.kernel.sys_spawn_thread(creator.task, caps_subset)
        if name:
            task.name = name
        return SimThread(task)

    def exit_thread(self, thread: SimThread) -> None:
        """End a thread made by :meth:`create_thread`: its kernel task
        exits and is reaped, and no peer is told (Section 5.2).  It
        writes no audit entry.  Like creation it happens outside security
        regions, so whether a thread ends never depends on tainted data.
        Refused: the main and TCB threads (they end with the process,
        :meth:`exit_process`), a thread of another VM or one already
        ended, a running thread (on the context stack) and a thread
        parked inside a region."""
        task = thread.task
        if task is self.main_task or task is self.tcb_task:
            raise LaminarUsageError(
                f"exit_thread cannot end {thread.name}: the main and TCB "
                f"threads end with the process"
            )
        if task.pgid != self.main_task.pgid or not task.alive:
            raise LaminarUsageError(
                f"{thread.name} is not a live thread of this VM"
            )
        if thread in self._thread_stack:
            raise LaminarUsageError(
                f"exit_thread cannot end {thread.name} while it runs"
            )
        if thread.in_region or self.current_thread.in_region:
            raise LaminarUsageError(
                "threads must be ended outside security regions"
            )
        self.kernel.sys_exit(task)

    # ------------------------------------------------------------- regions

    def region(
        self,
        thread: Optional[SimThread] = None,
        secrecy: Label = Label.EMPTY,
        integrity: Label = Label.EMPTY,
        caps: CapabilitySet = CapabilitySet.EMPTY,
        catch: Optional[CatchHandler] = None,
        name: str = "",
    ) -> SecurityRegion:
        """Open a security region (``secure{...}catch{...}``) for ``thread``
        (default: the current thread)."""
        return SecurityRegion(
            self,
            thread if thread is not None else self.current_thread,
            secrecy=secrecy,
            integrity=integrity,
            caps=caps,
            catch=catch,
            name=name,
        )

    # -------------------------------------------------------------- allocation

    def alloc(
        self,
        fields: Optional[dict[str, Any]] = None,
        labels: Optional[LabelPair] = None,
        name: str = "",
    ) -> LabeledObject:
        """Allocate an object.  Inside a region the default labels are the
        region's; outside, objects are unlabeled.  Explicit labels must
        conform to the DIFC rules (checked by the allocation barrier)."""
        header = self.barriers.alloc_barrier(self.current_thread, labels, what=name)
        return LabeledObject(self, header, fields or {}, name=name)

    def alloc_array(
        self,
        items: Iterable[Any] = (),
        labels: Optional[LabelPair] = None,
        name: str = "",
    ) -> LabeledArray:
        header = self.barriers.alloc_barrier(self.current_thread, labels, what=name)
        return LabeledArray(self, header, items, name=name)

    # ----------------------------------------------------------- copyAndLabel

    def copy_and_label(
        self,
        obj: LabeledObject | LabeledArray,
        secrecy: Label = Label.EMPTY,
        integrity: Label = Label.EMPTY,
        name: str = "",
    ) -> LabeledObject | LabeledArray:
        """Clone ``obj`` with new labels (Fig. 2's ``copyAndLabel``).

        Labels are immutable, so relabeling is cloning.  The change from the
        object's labels to the new ones must conform to the label-change
        rule under the current thread's capabilities — this is Laminar's
        declassification/endorsement primitive, and the only way data moves
        *down* the lattice.  All labeled data access happens in regions, so
        a labeled source or destination requires being inside one.
        """
        thread = self.current_thread
        self.stats.copy_and_labels += 1
        new_pair = LabelPair(secrecy, integrity)
        if (not obj.labels.is_empty or not new_pair.is_empty) and not thread.in_region:
            raise RegionViolation(
                "copyAndLabel on labeled data outside a security region"
            )
        check_pair_change(
            obj.labels, new_pair, thread.capabilities, context="copyAndLabel"
        )
        lowered = obj.labels.secrecy.difference(new_pair.secrecy)
        raised = new_pair.integrity.difference(obj.labels.integrity)
        if not lowered.is_empty:
            self.audit.record(
                AuditKind.DECLASSIFY, "vm", thread.name,
                f"{obj.labels!r} -> {new_pair!r} (dropped S{lowered!r})",
            )
        if not raised.is_empty:
            self.audit.record(
                AuditKind.ENDORSE, "vm", thread.name,
                f"{obj.labels!r} -> {new_pair!r} (added I{raised!r})",
            )
        header = self.heap.allocate_header(new_pair)
        self.barriers.stats.alloc_barriers += 1
        if isinstance(obj, LabeledArray):
            return LabeledArray(self, header, obj.raw_items(), name=name)
        return LabeledObject(self, header, obj.raw_fields(), name=name)

    # ------------------------------------------------------ VM <-> OS interface

    def syscall(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Issue a system call as the current thread, synchronizing the
        kernel task's labels/capabilities with the current security region
        first (the lazy sync of Section 4.4).  An unknown name fails with ``EINVAL``."""
        thread = self.current_thread
        self._ensure_kernel_sync(thread)
        return self.kernel.syscalls[name](thread.task, *args, **kwargs)

    def _ensure_kernel_sync(self, thread: SimThread) -> None:
        if not thread.frames:
            return
        frame = thread.frames[-1]
        if frame.kernel_synced:
            return
        frame.saved_kernel_labels = thread.task.labels
        frame.saved_kernel_caps = thread.task.capabilities
        self.kernel.sys_set_security_tcb(
            self.tcb_task, thread.tid, frame.labels, frame.caps
        )
        frame.kernel_synced = True
        self.stats.kernel_syncs += 1

    def exit_region_kernel_restore(self, thread: SimThread, frame: RegionFrame) -> None:
        """Called by :class:`SecurityRegion` exit: if the region ever synced
        its labels into the kernel, the TCB thread drops them and restores
        the saved kernel state — even when the thread lacks the minus
        capabilities for the region's labels (Section 4.4).  A task that
        exited inside the region (``exit_process``) is reaped: there is
        nothing left to restore."""
        if not frame.kernel_synced or not thread.task.alive:
            return
        assert frame.saved_kernel_labels is not None
        assert frame.saved_kernel_caps is not None
        self.kernel.sys_drop_label_tcb(self.tcb_task, thread.tid)
        self.kernel.sys_set_security_tcb(
            self.tcb_task,
            thread.tid,
            frame.saved_kernel_labels,
            frame.saved_kernel_caps,
        )
        self.stats.kernel_restores += 1

    # ----------------------------------------------------- process termination

    def exit_process(self, code: int = 0) -> None:
        """Terminate the whole process (the ``System.exit()`` of the
        paper's catch-block discussion).

        Section 4.3.3 notes that exiting inside a region opens a
        termination channel, and sketches the restrictive fix: "a more
        restrictive model would prevent this termination channel by
        ensuring that only a security region with full declassification
        capabilities kills the process."  This VM implements that model:
        outside regions anyone may exit; inside a region the current
        capability set must hold the minus capability for every tag of the
        current labels (the thread could have declassified everything it
        knows, so termination reveals nothing it couldn't already say).
        """
        thread = self.current_thread
        if thread.in_region:
            labels = thread.labels
            caps = thread.capabilities
            blocked = [
                tag
                for tag in (*labels.secrecy, *labels.integrity)
                if not caps.can_remove(tag)
            ]
            if blocked:
                raise RegionViolation(
                    f"exit_process inside a region labeled {labels!r} "
                    f"without full declassification capabilities (missing "
                    f"{', '.join(str(t) + '-' for t in blocked)}) would be "
                    f"a termination channel"
                )
        self.audit.record(
            AuditKind.EXIT, "vm", thread.name, f"exit_process({code})"
        )
        self.kernel.sys_exit(thread.task, code)
        raise ProcessExit(code)

    # --------------------------------------------------------------- misc

    def reset_stats(self) -> None:
        self.stats.reset()
        self.barriers.stats.reset()
        self.heap.stats.reset()
