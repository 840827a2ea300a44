"""Principals: the active entities of the DIFC model.

Principals in Laminar are kernel threads (Section 3).  Each principal ``p``
carries a secrecy label ``S_p``, an integrity label ``I_p``, and a
capability set ``C_p``.  This module defines the shared state machine used
by both the simulated kernel's tasks (:mod:`repro.osim.task`) and the VM's
threads (:mod:`repro.runtime.threads`): labels change only through the
explicit label-change rule; capabilities shrink monotonically except through
mediated acquisition (``alloc_tag``, fork inheritance, ``write_capability``).
"""

from __future__ import annotations

from .capabilities import Capability, CapabilitySet, CapType
from .errors import CapabilityViolation
from .labels import Label, LabelPair, LabelType
from .rules import check_label_change
from .tags import Tag


class Principal:
    """Mutable security state of one principal.

    The mutability lives here, in one audited place; labels and capability
    sets themselves stay immutable, so observers can safely cache references
    and key memos on the label pair itself: a label change needs no
    version counter to retire what was proved under the old pair.
    """

    __slots__ = ("name", "_labels", "_caps")

    def __init__(
        self,
        name: str = "",
        labels: LabelPair = LabelPair.EMPTY,
        caps: CapabilitySet = CapabilitySet.EMPTY,
    ) -> None:
        self.name = name
        self._labels = labels
        self._caps = caps

    # -- read side --------------------------------------------------------

    @property
    def labels(self) -> LabelPair:
        return self._labels

    @property
    def secrecy(self) -> Label:
        return self._labels.secrecy

    @property
    def integrity(self) -> Label:
        return self._labels.integrity

    @property
    def capabilities(self) -> CapabilitySet:
        return self._caps

    # -- label changes (rule-checked) --------------------------------------

    def set_label(self, label_type: LabelType, new: Label) -> None:
        """Explicit label change, checked against the principal's own
        capabilities (the ``set_task_label`` path)."""
        old = self._labels.get(label_type)
        check_label_change(old, new, self._caps, context=f"{self.name} {label_type.value}")
        self._labels = self._labels.replacing(label_type, new)

    def set_labels_unchecked(self, pair: LabelPair) -> None:
        """Set both labels without capability checks.

        Only two callers are legitimate: the VM when entering/exiting a
        security region (the entry rules were already checked), and the
        kernel's ``drop_label_tcb`` path invoked by the trusted TCB thread.
        """
        self._labels = pair

    # -- capability management ---------------------------------------------

    def grant(self, caps: CapabilitySet) -> None:
        """Add capabilities.  Callers must be mediated acquisition points:
        ``alloc_tag``, fork inheritance, or ``write_capability``."""
        self._caps = self._caps.union(caps)

    def drop_capability(self, tag: Tag, kind: CapType) -> None:
        """Permanently drop a capability (``drop_capabilities`` syscall /
        ``removeCapability(global=True)``)."""
        self._caps = self._caps.without(tag, kind)

    def replace_capabilities(self, caps: CapabilitySet) -> None:
        """Replace the capability set wholesale (used by region save/restore
        and by fork, both of which only ever *narrow* the set)."""
        self._caps = caps

    def require_capability(self, tag: Tag, kind: CapType) -> None:
        """Raise unless the principal holds the given capability."""
        if kind is CapType.PLUS and not self._caps.can_add(tag):
            raise CapabilityViolation(f"{self.name or 'principal'} lacks {tag}+")
        if kind is CapType.MINUS and not self._caps.can_remove(tag):
            raise CapabilityViolation(f"{self.name or 'principal'} lacks {tag}-")
        if kind is CapType.BOTH:
            if not (self._caps.can_add(tag) and self._caps.can_remove(tag)):
                raise CapabilityViolation(
                    f"{self.name or 'principal'} lacks {tag}+ and/or {tag}-"
                )

    def holds(self, cap: Capability) -> bool:
        return cap in self._caps

    def __repr__(self) -> str:
        return f"Principal({self.name!r}, {self._labels!r}, {self._caps!r})"
