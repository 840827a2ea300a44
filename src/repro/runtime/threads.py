"""VM threads: principals with a security-region frame stack.

Principals in Laminar are kernel threads (Section 3); a :class:`SimThread`
is the VM's view of one kernel :class:`~repro.osim.task.Task`.  The VM
gives a thread the labels and capabilities of each security region it
enters and restores the previous ones on exit (Section 4.2) — the frame
stack here is that save/restore mechanism, and it naturally supports
arbitrary nesting (Section 4.3.2).

Two capability stores exist on purpose:

* the **kernel task's** capability set — "thread capabilities are stored in
  the kernel" — which only changes through mediated acquisition and
  permanent drops; and
* the per-frame **cached** capabilities — "the JVM then caches a copy of
  the current capabilities of each thread to make the checks efficient
  inside the security region".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..core import CapabilitySet, CapType, Label, LabelPair, Tag
from ..osim.task import Task

if TYPE_CHECKING:
    from .regions import SecurityRegion


@dataclass
class RegionFrame:
    """One entered security region: its labels, its (possibly narrowed)
    capability cache, and whether the kernel task has been synchronized to
    it yet (the lazy ``set_task_label`` optimization of Section 4.4)."""

    labels: LabelPair
    caps: CapabilitySet
    region: Optional["SecurityRegion"] = None
    kernel_synced: bool = False
    #: Kernel-side (labels, caps) snapshot taken when this frame synced, so
    #: exit can restore precisely.  Capability gains/permanent drops during
    #: the region update the snapshot too, so restore neither loses gains
    #: nor resurrects dropped capabilities.
    saved_kernel_labels: Optional[LabelPair] = None
    saved_kernel_caps: Optional[CapabilitySet] = None


class SimThread:
    """A VM thread bound to a kernel task."""

    def __init__(self, task: Task) -> None:
        self.task = task
        self.frames: list[RegionFrame] = []

    # -- identity -----------------------------------------------------------

    @property
    def name(self) -> str:
        return self.task.name

    @property
    def tid(self) -> int:
        return self.task.tid

    # -- security state -------------------------------------------------------

    @property
    def in_region(self) -> bool:
        return bool(self.frames)

    @property
    def depth(self) -> int:
        return len(self.frames)

    @property
    def labels(self) -> LabelPair:
        """Current VM-side labels: the innermost region's, or empty.
        "Outside a security region threads always have empty labels"."""
        if self.frames:
            return self.frames[-1].labels
        return LabelPair.EMPTY

    @property
    def capabilities(self) -> CapabilitySet:
        """Effective capabilities: the innermost region's cache, or the
        kernel-resident set when outside all regions."""
        if self.frames:
            return self.frames[-1].caps
        return self.task.capabilities

    # -- capability propagation ------------------------------------------------

    def gain_capabilities(self, caps: CapabilitySet) -> None:
        """A capability gained inside a region is retained on exit by
        default (Section 4.4), so it lands in the kernel set *and* every
        frame of the stack."""
        self.task.security.grant(caps)
        for frame in self.frames:
            frame.caps = frame.caps.union(caps)
            if frame.saved_kernel_caps is not None:
                frame.saved_kernel_caps = frame.saved_kernel_caps.union(caps)

    def drop_capability_scoped(self, tag: Tag, kind: CapType) -> None:
        """``removeCapability(..., global=False)``: suspend the capability
        for the scope of the current security region only."""
        if not self.frames:
            raise RuntimeError("scoped capability drop outside a security region")
        self.frames[-1].caps = self.frames[-1].caps.without(tag, kind)

    def drop_capability_global(self, tag: Tag, kind: CapType) -> None:
        """``removeCapability(..., global=True)``: drop permanently — from
        the kernel set and from every saved frame, so region exit cannot
        resurrect it."""
        self.task.security.drop_capability(tag, kind)
        for frame in self.frames:
            frame.caps = frame.caps.without(tag, kind)
            if frame.saved_kernel_caps is not None:
                frame.saved_kernel_caps = frame.saved_kernel_caps.without(tag, kind)

    def __repr__(self) -> str:
        return (
            f"SimThread({self.name!r}, depth={self.depth}, "
            f"labels={self.labels!r})"
        )
