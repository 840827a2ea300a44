"""Read, write, and allocation barriers (Section 5.1).

The compiler inserts instrumentation — *barriers* — at every object read
and write.  The semantics, from the paper:

* **Inside a security region**: load the accessed object's secrecy and
  integrity labels and check them against the region's labels and
  capabilities.  A read is a flow object → thread; a write is a flow
  thread → object.
* **Outside security regions**: check only that the accessed object is
  unlabeled (the labeled-space membership test), since unlabeled threads
  may never touch labeled data.
* **Allocation inside a region**: label the new object with the region's
  labels (or explicit ones that conform to the DIFC rules) before the
  constructor runs.

Two compilation strategies exist because a method may be called both from
inside and outside regions:

* **static barriers** — the variant is chosen at compile time (the paper's
  prototype decides when the method is first compiled; a production system
  would clone methods).  ~6% average overhead on DaCapo.
* **dynamic barriers** — every barrier first tests at run time whether the
  thread is in a region, then dispatches.  ~17% average overhead.

This module is the *runtime* half used by the Python-level API and the
applications; the mini-JIT in :mod:`repro.jit` inserts and optimizes the
corresponding IR instructions for the compiler benchmarks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..core import (
    LabelPair,
    RegionViolation,
    check_flow,
)
from ..core.fastpath import counters
from ..core.rules import _VERDICTS, FLOW_OK
from .heap import Heap, ObjectHeader
from .threads import SimThread


def cached_check_flow(
    source: LabelPair,
    dest: LabelPair,
    stats: "BarrierStats",
    context: str = "",
) -> None:
    """``check_flow`` for a barrier, answered from the flow-verdict memo.

    An allowed verdict already in the memo (:mod:`repro.core.rules`) is
    answered by one inline probe on the (source, dest) pairs: a verdict
    hit, no call.  Anything else goes through ``check_flow``, which
    records the verdict or raises the precise violation; a denial is
    never answered here, since only ``FLOW_OK`` returns early.  The key
    is the label pairs themselves, so a verdict proven under one set of
    labels can never answer a check under another, and no epoch is
    needed.
    """
    if _VERDICTS.get((source, dest)) == FLOW_OK:
        counters.verdict_hits += 1
        stats.flow_cache_hits += 1
        return
    stats.flow_cache_misses += 1
    check_flow(source, dest, context=context)


class BarrierMode(enum.Enum):
    """How barriers are compiled/dispatched."""

    #: No instrumentation at all: the unmodified-JVM baseline.
    NONE = "none"
    #: Context decided at compile time (≈ method cloning's cost).
    STATIC = "static"
    #: Every barrier tests the thread's region state at run time.
    DYNAMIC = "dynamic"


@dataclass
class BarrierStats:
    """Counters behind Figures 8 and 9."""

    read_barriers: int = 0
    write_barriers: int = 0
    alloc_barriers: int = 0
    #: Dynamic-mode context tests (the extra work dynamic barriers do).
    dynamic_dispatches: int = 0
    #: Full label checks actually performed (in-region accesses).
    label_checks: int = 0
    #: Fast unlabeled-space membership tests (out-of-region accesses).
    space_checks: int = 0
    #: Label checks answered inline from the process-wide flow-verdict
    #: memo / checks that went to ``check_flow``.  ``label_checks`` keeps
    #: counting *requested* checks regardless, so Figures 8/9 stay
    #: comparable across cache configurations.  How warm a process-wide
    #: memo is depends on what ran before, not on what enforcement did,
    #: so :meth:`enforcement` excludes these two.
    flow_cache_hits: int = 0
    flow_cache_misses: int = 0
    #: Tier-2 execution accounting (the tiered engine of repro.jit.tier2):
    #: entries into exec-compiled method bodies and entry-guard misses that
    #: fell back to the interpreter.  These describe *which engine ran*,
    #: not what enforcement did, so :meth:`enforcement` excludes them.
    tier2_entries: int = 0
    tier2_deopts: int = 0

    def reset(self) -> None:
        self.read_barriers = 0
        self.write_barriers = 0
        self.alloc_barriers = 0
        self.dynamic_dispatches = 0
        self.label_checks = 0
        self.space_checks = 0
        self.flow_cache_hits = 0
        self.flow_cache_misses = 0
        self.tier2_entries = 0
        self.tier2_deopts = 0

    @property
    def total(self) -> int:
        return self.read_barriers + self.write_barriers + self.alloc_barriers

    def enforcement(self) -> dict[str, int]:
        """The cross-tier comparable counters.

        Every field describing what *enforcement* observed — barrier
        executions, context dispatches, label/space checks — which must
        be identical whichever execution tier ran the code.  Excludes
        the ``tier2_*`` engine accounting, which is legitimately nonzero
        only when tier-2 code ran, and the verdict-memo traffic.
        """
        return {
            "read_barriers": self.read_barriers,
            "write_barriers": self.write_barriers,
            "alloc_barriers": self.alloc_barriers,
            "dynamic_dispatches": self.dynamic_dispatches,
            "label_checks": self.label_checks,
            "space_checks": self.space_checks,
        }


class BarrierEngine:
    """Executes barrier semantics for the runtime API.

    One engine per VM; the mode models the compilation strategy.  In
    ``NONE`` mode the barrier bodies are skipped entirely (this is only
    sound for programs with no labeled data — it exists to measure the
    baseline, exactly like running the workload on the unmodified JVM).
    """

    def __init__(self, heap: Heap, mode: BarrierMode = BarrierMode.STATIC) -> None:
        self.heap = heap
        self.mode = mode
        self.stats = BarrierStats()

    # -- the three barriers ----------------------------------------------------

    def read_barrier(self, thread: SimThread, header: ObjectHeader, what: str = "") -> None:
        """Check a read of ``header``'s object by ``thread``."""
        if self.mode is BarrierMode.NONE:
            return
        self.stats.read_barriers += 1
        in_region = self._context(thread)
        if in_region:
            self.stats.label_checks += 1
            cached_check_flow(
                header.labels, thread.labels, self.stats, context=f"read {what}"
            )
        else:
            self.stats.space_checks += 1
            if self.heap.is_labeled(header):
                raise RegionViolation(
                    f"read of labeled object {what or header.oid} outside any "
                    f"security region"
                )

    def write_barrier(self, thread: SimThread, header: ObjectHeader, what: str = "") -> None:
        """Check a write to ``header``'s object by ``thread``."""
        if self.mode is BarrierMode.NONE:
            return
        self.stats.write_barriers += 1
        in_region = self._context(thread)
        if in_region:
            self.stats.label_checks += 1
            cached_check_flow(
                thread.labels, header.labels, self.stats, context=f"write {what}"
            )
        else:
            self.stats.space_checks += 1
            if self.heap.is_labeled(header):
                raise RegionViolation(
                    f"write to labeled object {what or header.oid} outside any "
                    f"security region"
                )

    def alloc_barrier(
        self, thread: SimThread, labels: LabelPair | None, what: str = ""
    ) -> ObjectHeader:
        """Label a new object before its constructor runs.

        Inside a region, the default labels are the region's at the
        allocation point; explicit labels must conform to the flow rules
        (the object is being written by the allocating thread).  Outside
        all regions only unlabeled allocation is possible.
        """
        if self.mode is BarrierMode.NONE:
            return self.heap.allocate_header(labels or LabelPair.EMPTY)
        self.stats.alloc_barriers += 1
        in_region = self._context(thread)
        if labels is None:
            labels = thread.labels if in_region else LabelPair.EMPTY
        elif not labels.is_empty:
            if not in_region:
                raise RegionViolation(
                    f"labeled allocation of {what or 'object'} outside any "
                    f"security region"
                )
            self.stats.label_checks += 1
            # Writing initial state into the new object is a flow from the
            # thread to the object.
            cached_check_flow(
                thread.labels, labels, self.stats, context=f"alloc {what}"
            )
        return self.heap.allocate_header(labels)

    # -- context dispatch ---------------------------------------------------------

    def _context(self, thread: SimThread) -> bool:
        """Return whether the thread is inside a region; in dynamic mode
        this is a paid run-time test, in static mode the compiler knew."""
        if self.mode is BarrierMode.DYNAMIC:
            self.stats.dynamic_dispatches += 1
        return thread.in_region
