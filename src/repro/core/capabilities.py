"""Capabilities: the privilege to add or remove tags.

For each tag ``t`` the model defines two capabilities (Section 3.1):

* ``t+`` — the *plus* capability: classify data with secrecy tag ``t`` (add
  ``t`` to one's secrecy label) or endorse data with integrity tag ``t``.
* ``t-`` — the *minus* capability: declassify (remove ``t`` from a secrecy
  label) or drop an endorsement.

A principal's capability set ``Cp`` is defined on tags, not on labels: the
same tag could in principle appear in both a secrecy and an integrity label,
though in practice a tag is rarely used for both purposes.  ``Cp+`` is the
set of tags the principal may add, ``Cp-`` the set it may remove.

DIFC capabilities are *not* the pointers-with-access-rights of
capability-based operating systems like EROS; they are transferable,
kernel-mediated privileges over tags (Section 2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator

from .labels import Label
from .tags import Tag


class CapType(enum.Enum):
    """Which capability an operation refers to (Fig. 2's CapType)."""

    PLUS = "+"
    MINUS = "-"
    BOTH = "+-"


@dataclass(frozen=True)
class Capability:
    """A single capability: a (tag, plus-or-minus) pair such as ``a+``."""

    tag: Tag
    kind: CapType

    def sort_key(self) -> tuple[Tag, str]:
        return (self.tag, self.kind.value)

    def __post_init__(self) -> None:
        if self.kind is CapType.BOTH:
            raise ValueError(
                "a concrete Capability is either PLUS or MINUS; "
                "use CapabilitySet.dual() for both"
            )

    def __repr__(self) -> str:
        return f"{self.tag}{self.kind.value}"


class CapabilitySet:
    """An immutable set of capabilities.

    Immutability matches the style of the label objects: threads and
    security regions hold references to capability sets, and every
    drop/grant produces a new set, so save/restore at region boundaries is a
    pointer swap (Section 4.4's "the VM restores the labels and capabilities
    it had just before it entered the region").

    The set is stored as the two tag sets the model defines, ``Cp+`` and
    ``Cp-``, so the rule checks are set tests on tags: ``can_add_all(L)``
    is ``L ⊆ Cp+`` and ``is_subset_of`` is two subset tests.  Iteration,
    ``repr`` and ``__reduce__`` still go through :class:`Capability`
    objects in ``Capability.sort_key`` order.
    """

    __slots__ = ("_plus", "_minus", "_hash", "_plus_label")

    EMPTY: "CapabilitySet"

    def __init__(self, caps: Iterable[Capability] = ()) -> None:
        plus: list[Tag] = []
        minus: list[Tag] = []
        for cap in caps:
            if not isinstance(cap, Capability):
                raise TypeError(
                    f"capability sets contain Capabilities, not {type(cap).__name__}"
                )
            (plus if cap.kind is CapType.PLUS else minus).append(cap.tag)
        self._plus = frozenset(plus)
        self._minus = frozenset(minus)
        self._hash = hash((self._plus, self._minus))
        self._plus_label = None

    @classmethod
    def _from_sets(cls, plus: frozenset, minus: frozenset) -> "CapabilitySet":
        """Trusted constructor from the two tag sets."""
        self = object.__new__(cls)
        self._plus = plus
        self._minus = minus
        self._hash = hash((plus, minus))
        self._plus_label = None
        return self

    # -- factories --------------------------------------------------------

    @classmethod
    def dual(cls, *tags: Tag) -> "CapabilitySet":
        """Both ``t+`` and ``t-`` for every tag — what ``alloc_tag`` grants
        the allocating principal (the owner of the tag)."""
        both = frozenset(tags)
        return cls._from_sets(both, both)

    @classmethod
    def plus(cls, *tags: Tag) -> "CapabilitySet":
        return cls._from_sets(frozenset(tags), frozenset())

    @classmethod
    def minus(cls, *tags: Tag) -> "CapabilitySet":
        return cls._from_sets(frozenset(), frozenset(tags))

    # -- queries ----------------------------------------------------------

    def can_add(self, tag: Tag) -> bool:
        """True iff the set holds ``tag+`` (classify/endorse)."""
        return tag in self._plus

    def can_remove(self, tag: Tag) -> bool:
        """True iff the set holds ``tag-`` (declassify/un-endorse)."""
        return tag in self._minus

    def can_add_all(self, label: Label) -> bool:
        return label._frozen <= self._plus

    def can_remove_all(self, label: Label) -> bool:
        return label._frozen <= self._minus

    def plus_tags(self) -> Label:
        """``Cp+`` as a label: the set of tags this principal may add.
        Built once per set, on first use (the set is immutable)."""
        label = self._plus_label
        if label is None:
            label = Label._from_normalized(tuple(sorted(self._plus)))
            self._plus_label = label
        return label

    def minus_tags(self) -> Label:
        """``Cp-`` as a label: the set of tags this principal may remove."""
        return Label._from_normalized(tuple(sorted(self._minus)))

    def is_subset_of(self, other: "CapabilitySet") -> bool:
        return self._plus <= other._plus and self._minus <= other._minus

    # -- algebra ----------------------------------------------------------

    def union(self, other: "CapabilitySet") -> "CapabilitySet":
        if other.is_subset_of(self):
            return self
        if self.is_subset_of(other):
            return other
        return CapabilitySet._from_sets(
            self._plus | other._plus, self._minus | other._minus
        )

    def intersection(self, other: "CapabilitySet") -> "CapabilitySet":
        return CapabilitySet._from_sets(
            self._plus & other._plus, self._minus & other._minus
        )

    def with_capability(self, cap: Capability) -> "CapabilitySet":
        if cap in self:
            return self
        if cap.kind is CapType.PLUS:
            return CapabilitySet._from_sets(self._plus | {cap.tag}, self._minus)
        return CapabilitySet._from_sets(self._plus, self._minus | {cap.tag})

    def without(self, tag: Tag, kind: CapType) -> "CapabilitySet":
        """Drop ``tag``'s plus, minus, or both capabilities."""
        plus, minus = self._plus, self._minus
        if kind is not CapType.MINUS:
            plus = plus - {tag}
        if kind is not CapType.PLUS:
            minus = minus - {tag}
        return CapabilitySet._from_sets(plus, minus)

    def without_all(self, other: "CapabilitySet") -> "CapabilitySet":
        return CapabilitySet._from_sets(
            self._plus - other._plus, self._minus - other._minus
        )

    # -- dunder -------------------------------------------------------------

    def _sorted(self) -> list[Capability]:
        caps = [Capability(t, CapType.PLUS) for t in self._plus]
        caps += [Capability(t, CapType.MINUS) for t in self._minus]
        caps.sort(key=Capability.sort_key)
        return caps

    def __iter__(self) -> Iterator[Capability]:
        return iter(self._sorted())

    def __len__(self) -> int:
        return len(self._plus) + len(self._minus)

    def __contains__(self, cap: Capability) -> bool:
        if not isinstance(cap, Capability):
            return False
        if cap.kind is CapType.PLUS:
            return cap.tag in self._plus
        return cap.tag in self._minus

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CapabilitySet):
            return NotImplemented
        return self._plus == other._plus and self._minus == other._minus

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ",".join(repr(c) for c in self._sorted())
        return f"C({inner})"

    def __reduce__(self):
        # Constructor-based pickling, like Label/LabelPair: slotted classes
        # have no __dict__ for the default protocol, and going through
        # __init__ re-derives ``_hash`` on the receiving side.  Sorting
        # makes the wire bytes canonical, so capability-store replication
        # frames are deterministic across shards.
        return (CapabilitySet, (tuple(self._sorted()),))


CapabilitySet.EMPTY = CapabilitySet()
