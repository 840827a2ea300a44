"""Tags: the atoms of the Laminar DIFC model.

Tags are short, arbitrary tokens drawn from a large universe of possible
values (Section 3.1 of the paper).  A tag has no inherent meaning; meaning
comes from where the tag appears (a secrecy label, an integrity label, or a
capability set).  The paper represents tags as 64-bit integers allocated by
the trusted OS security module, which guarantees uniqueness; tag exhaustion
is a non-issue because the space has 2**64 values (Section 4.4).

In this reproduction the :class:`TagAllocator` plays the role of the trusted
allocator.  The simulated kernel owns one allocator instance and hands out
tags through the ``alloc_tag`` system call; the in-process runtime uses the
same allocator so the VM and OS share one namespace, exactly as the paper
requires ("Alice's program uses the same label namespace present in the file
system").
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Size of the tag universe.  Tags are 64-bit integers in the paper.
TAG_BITS = 64
TAG_UNIVERSE = 1 << TAG_BITS


@dataclass(frozen=True, order=True)
class Tag:
    """A single opaque tag.

    Tags compare and hash by value so they can live in frozensets and sorted
    arrays (the paper's ``Labels`` objects store a sorted array of 64-bit
    integers).  The optional ``name`` exists purely for debugging and is
    excluded from equality so that renaming a tag cannot create a covert
    channel or change label semantics.
    """

    value: int
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.value < TAG_UNIVERSE:
            raise ValueError(
                f"tag value {self.value!r} outside the {TAG_BITS}-bit universe"
            )

    def __repr__(self) -> str:
        if self.name:
            return f"Tag({self.value}, {self.name!r})"
        return f"Tag({self.value})"

    def __str__(self) -> str:
        return self.name or f"t{self.value}"


class TagExhaustedError(RuntimeError):
    """Raised if the allocator runs out of tag values (cannot happen with
    64-bit tags in practice; present for completeness and for tests that
    shrink the universe)."""


class TagAllocator:
    """Allocates unique tags, mimicking the trusted OS security module.

    The paper states that "the OS security module that allocates tags is
    trusted and ensures that all tags are unique".  Allocation is sequential
    rather than random: uniqueness, not unpredictability, is the security
    property (labels are opaque to applications, so tag values never leak).

    Parameters
    ----------
    first:
        First value to hand out.  Values below ``first`` can be used by
        tests as well-known tags without colliding with the allocator.
    limit:
        Exclusive upper bound of the universe; defaults to 2**64.
    """

    def __init__(self, first: int = 1, limit: int = TAG_UNIVERSE) -> None:
        if not 0 <= first < limit <= TAG_UNIVERSE:
            raise ValueError("invalid tag allocator range")
        self._limit = limit
        self._next = first
        self._allocated: dict[int, Tag] = {}
        #: Monotonic replication epoch: bumped by every local allocation
        #: and advanced by :meth:`apply_snapshot`.  Cluster shards use it
        #: for epoch-stamped invalidation of the replicated tag namespace:
        #: a snapshot older than what a shard already applied is stale and
        #: must be ignored (see repro.osim.rpc.TagSync).  Nothing else
        #: needs to hear of an epoch change: no value is ever reused, so a
        #: label built from allocated tags keeps its meaning for good.
        self.epoch = 0

    def alloc(self, name: str = "") -> Tag:
        """Return a fresh, never-before-seen tag."""
        value = self._next
        if value >= self._limit:
            raise TagExhaustedError(
                f"tag universe of {self._limit} values exhausted"
            )
        self._next = value + 1
        tag = Tag(value, name)
        self._allocated[value] = tag
        self.epoch += 1
        return tag

    # -- cluster replication (repro.osim.cluster) ---------------------------

    def snapshot(self) -> tuple[int, int, tuple[tuple[int, str], ...]]:
        """The replicable allocator state: ``(epoch, next_value, entries)``.

        Entries are (value, name) pairs in allocation order, so applying a
        snapshot on a peer reproduces the exact same :class:`Tag` values —
        the "shared interned-tag namespace" a sharded deployment needs
        ("Alice's program uses the same label namespace present in the
        file system", across every shard).
        """
        entries = tuple(
            (value, tag.name) for value, tag in sorted(self._allocated.items())
        )
        return (self.epoch, self._next, entries)

    def apply_snapshot(
        self, epoch: int, next_value: int, entries: tuple[tuple[int, str], ...]
    ) -> bool:
        """Install a peer's snapshot.  Returns ``False`` (and changes
        nothing) when the snapshot's epoch is not newer than what this
        allocator has already seen — the epoch-stamped invalidation rule
        that makes replication idempotent and reordering-safe."""
        if epoch <= self.epoch:
            return False
        for value, name in entries:
            if value not in self._allocated:
                self._allocated[value] = Tag(value, name)
        if next_value > self._next:
            self._next = next_value
        self.epoch = epoch
        return True

    def lookup(self, value: int) -> Tag | None:
        """Return the allocated tag with ``value``, or ``None``.

        Used by the simulated filesystem when re-hydrating labels from
        persisted extended attributes.
        """
        return self._allocated.get(value)

    @property
    def allocated_count(self) -> int:
        return len(self._allocated)

    def __contains__(self, tag: Tag) -> bool:
        return self._allocated.get(tag.value) is not None
