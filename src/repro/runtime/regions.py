"""Security regions: lexically scoped DIFC enforcement (Section 4.3).

A security region is a lexically scoped code block parameterized by a
secrecy label, an integrity label, and a capability set.  Only code inside
a region may touch labeled data; the entering thread takes on the region's
labels and capabilities for the dynamic extent of the block, and the VM
restores the previous state on exit.

Entry rules (Section 4.3.2), for a thread ``P`` entering region ``R``::

    S_R ⊆ (Cp+ ∪ S_P)   and   I_R ⊆ (Cp+ ∪ I_P)       (1)
    C_R ⊆ C_P                                          (2)

plus the explicit label-change rule of Section 3.2, since entering a region
*is* a label change of the principal (this is what makes the Fig. 4 nested
declassification need the ``a-`` capability).

Implicit-flow containment (Section 4.3.3): every region has a mandatory
``catch`` block that runs with the region's labels; the VM suppresses all
exceptions not explicitly caught — including exceptions raised inside the
catch block — and continues execution *after* the region, so code outside
cannot distinguish executions by how the region terminated.  Regions may
only exit by falling through; ``return``/``break``/``continue`` exits are
rejected by the static checker (:mod:`repro.runtime.static_check`) because
Python context managers cannot observe them dynamically.

Python surface::

    with vm.region(thread, secrecy=S, integrity=I, caps=C, catch=handler):
        ...   # labeled accesses legal here, checked against S/I/C
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Optional

from ..core import (
    AuditKind,
    CapabilitySet,
    Label,
    LabelPair,
    RegionViolation,
    VMPanic,
    check_pair_change,
    region_entry_allowed,
)
from .threads import RegionFrame, SimThread

if TYPE_CHECKING:
    from .vm import LaminarVM

#: Signature of a catch handler: receives the exception, returns nothing.
CatchHandler = Callable[[BaseException], None]


class SecurityRegion:
    """One ``secure {...} catch {...}`` block, as a context manager."""

    def __init__(
        self,
        vm: "LaminarVM",
        thread: SimThread,
        secrecy: Label = Label.EMPTY,
        integrity: Label = Label.EMPTY,
        caps: CapabilitySet = CapabilitySet.EMPTY,
        catch: Optional[CatchHandler] = None,
        name: str = "",
    ) -> None:
        self.vm = vm
        self.thread = thread
        self.labels = LabelPair(secrecy, integrity)
        self.caps = caps
        self.catch = catch
        self.name = name or "region"
        self._frame: Optional[RegionFrame] = None
        self._entered_at = 0.0
        #: The exception the catch block saw (exposed for tests/audit only).
        self.suppressed: Optional[BaseException] = None

    # -- context manager protocol -------------------------------------------------

    def __enter__(self) -> "SecurityRegion":
        thread = self.thread
        # A region is entered by the thread executing it; entering on
        # behalf of a *different* thread would let one principal change
        # another's labels.  Region state lives in the thread's own frame
        # stack — never in scheduler state — which is what lets threads
        # with heterogeneous labels interleave freely.
        if thread is not self.vm.current_thread:
            from ..core import LaminarUsageError

            raise LaminarUsageError(
                f"{self.vm.current_thread.name} cannot enter a region on "
                f"behalf of {thread.name}"
            )
        self.vm.stats.region_entries += 1
        if not region_entry_allowed(
            self.labels.secrecy,
            self.labels.integrity,
            self.caps,
            thread.labels,
            thread.capabilities,
        ):
            raise RegionViolation(
                f"{thread.name} may not initialize {self.name} with "
                f"{self.labels!r} {self.caps!r} (entry rules, Section 4.3.2)"
            )
        # Entering the region changes the principal's labels; the explicit
        # label-change rule applies (needs minus caps to *lower* a label).
        check_pair_change(
            thread.labels, self.labels, thread.capabilities, context=self.name
        )
        self._frame = RegionFrame(labels=self.labels, caps=self.caps, region=self)
        if not thread.frames:
            self._entered_at = time.perf_counter()
        thread.frames.append(self._frame)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        thread = self.thread
        try:
            if exc is not None:
                self.suppressed = exc
                self.vm.stats.region_exceptions += 1
                if not isinstance(exc, (KeyboardInterrupt, SystemExit, VMPanic)):
                    self.vm.audit.record(
                        AuditKind.REGION_SUPPRESS, "region", thread.name,
                        f"{self.name} suppressed "
                        f"{type(exc).__name__}: {exc}",
                    )
                if self.catch is not None:
                    # The catch block executes with the labels of the
                    # region and the capability set at the time of the
                    # exception — the frame is still on the stack.
                    try:
                        self.catch(exc)
                    except BaseException:
                        # Exceptions within a catch block are suppressed
                        # too; execution continues after the region.
                        pass
        finally:
            popped = thread.frames.pop()
            assert popped is self._frame, "unbalanced security region nesting"
            self.vm.exit_region_kernel_restore(thread, popped)
            self.vm.stats.region_exits += 1
            if not thread.frames:
                self.vm.stats.region_seconds += time.perf_counter() - self._entered_at
        # Suppress *everything*: code outside the region cannot learn how
        # the region terminated.  (KeyboardInterrupt/SystemExit pass — the
        # surrounding harness, not region code, uses those.)
        if exc is not None and isinstance(
            exc, (KeyboardInterrupt, SystemExit, VMPanic)
        ):
            return False
        return True
