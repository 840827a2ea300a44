"""Immutable labels: sets of tags forming a lattice under subset ordering.

A *label* is a set of tags (Section 3.1).  Every data object and principal
carries two labels: a secrecy label ``S`` and an integrity label ``I``.  The
partial order imposed by the subset relation forms a lattice (Denning 1976);
at the bottom sit unlabeled resources, which carry the empty label for both
secrecy and integrity.  The implicit empty label is what makes Laminar
incrementally deployable: neither every object in the heap nor every file in
the filesystem needs an explicit label.

The paper's implementation encapsulates labels in immutable, opaque objects
of type ``Labels`` that support ``isSubsetOf()`` and ``union()``; internally
a sorted array of 64-bit integers holds the tags, and because the objects
are immutable they can be freely shared between objects, security regions,
and threads (Section 5.1).  This module mirrors that design and pushes the
immutability one step further: construction is *hash-consed* (one canonical
``Label`` instance per tag-set, see :mod:`repro.core.fastpath`), so the
common case of ``==`` and ``is_subset_of`` is a pointer comparison, and
``union``/``difference`` results are memoized — sound precisely because a
label can never change after construction.  :class:`LabelPair` is
hash-consed on top of that, so region entries and barriers that build the
same (secrecy, integrity) pair share one object.  A :class:`Label` keeps
both the sorted tuple (ordering, iteration, repr) and a ``frozenset``
built once at construction (subset tests without per-call
materialization), is hashable, and exposes only set-algebraic operations
so applications can use labels without observing raw tag values
(avoiding a covert channel).
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator

from . import fastpath
from .fastpath import counters
from .tags import Tag

#: Hash-cons table: normalized tag tuple -> canonical Label.  Bounded so a
#: pathological tag-churn workload cannot grow it without limit; labels past
#: the bound are simply not interned (correctness never depends on interning).
_INTERN: dict[tuple, "Label"] = {}
_INTERN_BOUND = 1 << 16

#: Memo tables for the two hottest binary operations.  Keys are (self, other)
#: Label pairs — value-hashed, so they are sound even when interning is off —
#: and bounded with wholesale flush on overflow, AVC-style.
_UNION_MEMO: dict[tuple, "Label"] = {}
_DIFF_MEMO: dict[tuple, "Label"] = {}
_MEMO_BOUND = 1 << 12

#: Hash-cons table for :class:`LabelPair`: (id(secrecy), id(integrity)) ->
#: canonical pair, under the same bound and flag as ``_INTERN``.
_PAIR_INTERN: dict[tuple, "LabelPair"] = {}


def _clear_label_caches() -> None:
    _INTERN.clear()
    _UNION_MEMO.clear()
    _DIFF_MEMO.clear()
    _PAIR_INTERN.clear()
    # Keep the canonical empty label and pair canonical across flushes.
    if getattr(Label, "EMPTY", None) is not None:
        _INTERN[()] = Label.EMPTY
    if getattr(LabelPair, "EMPTY", None) is not None:
        empty = Label.EMPTY
        _PAIR_INTERN[(id(empty), id(empty))] = LabelPair.EMPTY


fastpath.register_cache(_clear_label_caches)


class LabelType(enum.Enum):
    """Which of the two labels an operation refers to (Fig. 2's LabelType)."""

    SECRECY = "secrecy"
    INTEGRITY = "integrity"


class Label:
    """An immutable, hash-consed set of tags.

    Supports the operations the paper's ``Labels`` type exposes —
    ``is_subset_of`` and ``union`` — plus difference and intersection, which
    the label-change rule and the security-region entry rules need.  All
    mutating-style operations return a (possibly shared) new ``Label``.
    """

    __slots__ = ("_tags", "_frozen", "_hash")

    #: Interned empty label, shared by all unlabeled resources.
    EMPTY: "Label"

    def __new__(cls, tags: Iterable[Tag] = ()) -> "Label":
        tags = tuple(sorted(set(tags)))
        for tag in tags:
            if not isinstance(tag, Tag):
                raise TypeError(f"labels contain Tags, not {type(tag).__name__}")
        return cls._from_normalized(tags)

    def __init__(self, tags: Iterable[Tag] = ()) -> None:
        # All construction work happens in __new__ so the hash-cons table
        # can return an existing instance without re-initializing it.
        pass

    @classmethod
    def _from_normalized(cls, tags: tuple[Tag, ...]) -> "Label":
        """Trusted fast constructor: ``tags`` must already be a sorted,
        duplicate-free tuple of :class:`Tag`.  Skips validation — internal
        set-algebra call sites produce normalized tuples by construction,
        so re-validating them on every ``union`` was pure overhead.
        """
        if fastpath.flags.label_interning:
            cached = _INTERN.get(tags)
            if cached is not None:
                counters.intern_hits += 1
                return cached
            counters.intern_misses += 1
        self = object.__new__(cls)
        self._tags = tags
        self._frozen = frozenset(tags)
        self._hash = hash(tags)
        if fastpath.flags.label_interning and len(_INTERN) < _INTERN_BOUND:
            _INTERN[tags] = self
        return self

    # -- factory helpers ------------------------------------------------

    @classmethod
    def of(cls, *tags: Tag) -> "Label":
        """Build a label from individual tags: ``Label.of(a, b)``."""
        return cls(tags)

    @classmethod
    def from_wire(cls, entries: Iterable[tuple[int, str]]) -> "Label":
        """Trusted decode path for the binary wire codec: rebuild a label
        from ``(tag value, tag name)`` pairs *in encoded order*.

        The encoder emits ``label.tags()``, which is sorted by tag value
        (names are excluded from Tag ordering), so the received sequence
        is already normalized and construction can go straight through
        :meth:`_from_normalized` — one intern-table probe, no sorting, no
        per-tag validation.  Only wire decoders may call this; arbitrary
        input must use the ordinary constructor.
        """
        return cls._from_normalized(
            tuple(Tag(value, name) for value, name in entries)
        )

    @classmethod
    def empty(cls) -> "Label":
        return cls.EMPTY

    # -- set algebra ----------------------------------------------------

    def is_subset_of(self, other: "Label") -> bool:
        """True iff every tag in ``self`` is also in ``other``.

        Fast paths in order: identity (canonical instances make this the
        common case), emptiness, and a length test; only then the real
        frozenset comparison — built once at construction, never per call.
        """
        if self is other:
            return True
        mine = self._tags
        if not mine:
            return True
        if len(mine) > len(other._tags):
            return False
        counters.subset_tests += 1
        return self._frozen <= other._frozen

    def union(self, other: "Label") -> "Label":
        """Least upper bound in the lattice (memoized)."""
        if self is other or not other._tags:
            return self
        if not self._tags:
            return other
        memoize = fastpath.flags.label_interning
        if memoize:
            key = (self, other)
            cached = _UNION_MEMO.get(key)
            if cached is not None:
                counters.memo_hits += 1
                return cached
            counters.memo_misses += 1
        if self.is_subset_of(other):
            result = other
        elif other.is_subset_of(self):
            result = self
        else:
            counters.materializations += 1
            result = Label._from_normalized(
                tuple(sorted(self._frozen | other._frozen))
            )
        if memoize:
            if len(_UNION_MEMO) >= _MEMO_BOUND:
                _UNION_MEMO.clear()
            _UNION_MEMO[key] = result
        return result

    def intersection(self, other: "Label") -> "Label":
        """Greatest lower bound in the lattice."""
        if self is other:
            return self
        if not self._tags or not other._tags:
            return Label.EMPTY
        counters.materializations += 1
        theirs = other._frozen
        return Label._from_normalized(
            tuple(tag for tag in self._tags if tag in theirs)
        )

    def difference(self, other: "Label") -> "Label":
        """Tags in ``self`` but not ``other`` (used by the label-change rule,
        memoized)."""
        if self is other or not self._tags:
            return Label.EMPTY
        if not other._tags:
            return self
        memoize = fastpath.flags.label_interning
        if memoize:
            key = (self, other)
            cached = _DIFF_MEMO.get(key)
            if cached is not None:
                counters.memo_hits += 1
                return cached
            counters.memo_misses += 1
        counters.materializations += 1
        theirs = other._frozen
        result = Label._from_normalized(
            tuple(tag for tag in self._tags if tag not in theirs)
        )
        if memoize:
            if len(_DIFF_MEMO) >= _MEMO_BOUND:
                _DIFF_MEMO.clear()
            _DIFF_MEMO[key] = result
        return result

    def with_tag(self, tag: Tag) -> "Label":
        """Return a label extended with ``tag``."""
        if tag in self._frozen:
            return self
        counters.materializations += 1
        return Label._from_normalized(tuple(sorted(self._tags + (tag,))))

    def without_tag(self, tag: Tag) -> "Label":
        """Return a label with ``tag`` removed (no-op if absent)."""
        if tag not in self._frozen:
            return self
        counters.materializations += 1
        return Label._from_normalized(
            tuple(t for t in self._tags if t != tag)
        )

    # -- inspection -----------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self._tags

    def tags(self) -> tuple[Tag, ...]:
        """The tags, as a sorted tuple.

        Only trusted code (the VM, the OS security module, tests) should
        inspect raw tags; the application-facing API in
        :mod:`repro.runtime.api` never exposes them.
        """
        return self._tags

    def __iter__(self) -> Iterator[Tag]:
        return iter(self._tags)

    def __len__(self) -> int:
        return len(self._tags)

    def __contains__(self, tag: Tag) -> bool:
        return tag in self._frozen

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Label):
            return NotImplemented
        return self._tags == other._tags

    def __le__(self, other: "Label") -> bool:
        return self.is_subset_of(other)

    def __lt__(self, other: "Label") -> bool:
        return self.is_subset_of(other) and self != other

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # copy/deepcopy/pickle must reconstruct through the constructor so
        # they land on the canonical interned instance.  The default slots
        # protocol would call ``__new__(cls)`` — which interning resolves
        # to ``Label.EMPTY`` — and then overwrite *its* state in place,
        # corrupting every empty label in the process.
        return (Label, (self._tags,))

    def __repr__(self) -> str:
        inner = ",".join(str(t) for t in self._tags)
        return f"{{{inner}}}"


Label.EMPTY = Label()


class LabelPair:
    """A (secrecy, integrity) pair, written ``{S(s), I(i)}`` in the paper.

    Every principal and data object carries one of these.  The pair is
    immutable, like its component labels, and hash-consed the same way:
    while ``label_interning`` is on, construction returns the one
    canonical pair for its two component labels, so the pairs that key
    the flow-verdict caches and the tier-2 code cache meet as the same
    object and every dict probe ends at an identity compare.  Value
    ``__eq__``/``__hash__`` stay as the fallback (interning off, or past
    the table bound).  The hash and ``is_empty`` are computed once, at
    construction: pairs key hot dicts, and every ``new`` tests emptiness.
    """

    __slots__ = ("secrecy", "integrity", "is_empty", "_hash")

    EMPTY: "LabelPair"

    def __new__(
        cls,
        secrecy: Label = Label.EMPTY,
        integrity: Label = Label.EMPTY,
    ) -> "LabelPair":
        # Keyed on component identity: the table holds each canonical
        # pair, which holds its labels, so a live label's id can only
        # ever name that label.
        interning = fastpath.flags.label_interning
        if interning:
            key = (id(secrecy), id(integrity))
            cached = _PAIR_INTERN.get(key)
            if cached is not None:
                return cached
        if not isinstance(secrecy, Label) or not isinstance(integrity, Label):
            raise TypeError("LabelPair components must be Labels")
        self = object.__new__(cls)
        setter = object.__setattr__
        setter(self, "secrecy", secrecy)
        setter(self, "integrity", integrity)
        setter(self, "is_empty", not secrecy._tags and not integrity._tags)
        setter(self, "_hash", hash((secrecy, integrity)))
        if interning and len(_PAIR_INTERN) < _INTERN_BOUND:
            _PAIR_INTERN[key] = self
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LabelPair is immutable")

    def get(self, label_type: LabelType) -> Label:
        if label_type is LabelType.SECRECY:
            return self.secrecy
        return self.integrity

    def replacing(self, label_type: LabelType, label: Label) -> "LabelPair":
        if label_type is LabelType.SECRECY:
            return LabelPair(label, self.integrity)
        return LabelPair(self.secrecy, label)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, LabelPair):
            return NotImplemented
        return self.secrecy == other.secrecy and self.integrity == other.integrity

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Same constructor-based protocol as Label, for the same reason:
        # the default slots protocol calls ``__new__(cls)``, which
        # interning resolves to the shared ``LabelPair.EMPTY``, and would
        # then overwrite that object's state.
        return (LabelPair, (self.secrecy, self.integrity))

    def __repr__(self) -> str:
        return f"{{S{self.secrecy!r},I{self.integrity!r}}}"


LabelPair.EMPTY = LabelPair()
