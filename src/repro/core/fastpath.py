"""Fast-path switches and counters for the label-check hot path.

The paper's performance story (Section 5.1) rests on labels being
immutable objects that are "freely shared between objects, security
regions, and threads", which makes barrier checks cheap comparisons.
This module is the control plane for the reproduction's equivalent:
four independently switchable cache layers, each exploiting that
immutability, plus the counters the ablation benchmark reads.

Layers (each a boolean on :data:`flags`):

``label_interning``
    Hash-consed :class:`~repro.core.labels.Label` construction — one
    canonical instance per tag-set — enabling identity-based ``==`` /
    ``is_subset_of`` fast paths and memoized ``union``/``difference``.
``flow_verdict_cache``
    A bounded access-vector cache for the Section 3.2 flow rules in
    :mod:`repro.core.rules`, keyed on the four component labels.  It
    never needs invalidation: labels are immutable, so a (source, dest)
    pair's verdict can never change.
``thread_barrier_cache``
    A per-thread verdict cache in :mod:`repro.runtime.barriers`, keyed
    on the label pairs and guarded by the thread's *label epoch*
    (bumped on region entry/exit and kernel label changes).
``dispatch_table``
    The IR interpreter's precomputed per-method handler tables
    (:mod:`repro.jit.interpreter`) replacing per-instruction opcode
    dispatch.
``path_walk_cache``
    The kernel's permission memo (:mod:`repro.osim.hookchain`): an
    allowed LSM-checked walk of a directory prefix, and an allowed
    ``file_permission`` check on a held file, are recorded under the
    task's label epoch and replayed as one dict hit (hook counters are
    replayed too, so the observable record is identical).  Entries are
    revalidated against the recorded inodes' label identities and
    emptied by the kernel on unlink, directory creation, module install,
    crash, remount and replication, so no stale allow is replayed.
    :func:`configure` and :func:`clear_caches` leave the memo alone:
    its entries hold the inode and label objects themselves, which an
    intern-table flush cannot change.

All layers are pure performance: verdicts, audit entries, and violation
counts are identical with every combination of switches (asserted by
``tests/test_property_fastpath.py`` and the ablation benchmark).

Counters deliberately distinguish *requested* checks (which the
:class:`~repro.runtime.barriers.BarrierStats` counters keep tracking
unconditionally) from *executed* set algebra — the work the caches
elide.  ``counters.set_ops`` is the ablation's primary metric.

The tier-2 template JIT (:mod:`repro.jit.tier2`) is not a flag here — it
is enabled per-program via ``Compiler(tier="jit")`` — but its code cache
registers a :func:`register_cache` hook: every :func:`configure` /
:func:`clear_caches` bumps the tier-2 code epoch, discarding compiled
bodies whose baked-in assumptions (interned label identities, cache-layer
switches) may no longer hold.  Its ``tier2_*`` counters live here so the
benchmark snapshots carry them.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Callable, Iterator


@dataclass
class FastPathFlags:
    """The independently switchable cache layers (all on by default)."""

    label_interning: bool = True
    flow_verdict_cache: bool = True
    thread_barrier_cache: bool = True
    dispatch_table: bool = True
    path_walk_cache: bool = True

    def as_dict(self) -> dict[str, bool]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class FastPathCounters:
    """Hit/miss and work counters for every cache layer.

    ``rule_evaluations`` counts entries into the Section 3.2 subset
    rules (``secrecy_allows``/``integrity_allows``); ``subset_tests``
    counts actual frozenset comparisons (identity/emptiness fast paths
    excluded); ``materializations`` counts label tuples actually built
    by ``union``/``difference``/``intersection``.
    """

    rule_evaluations: int = 0
    subset_tests: int = 0
    materializations: int = 0
    intern_hits: int = 0
    intern_misses: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    verdict_hits: int = 0
    verdict_misses: int = 0
    walk_hits: int = 0
    walk_misses: int = 0
    #: Tier-2 engine traffic (:mod:`repro.jit.tier2`): template
    #: compilations, entries into compiled bodies (call + OSR), entry-guard
    #: misses (deopts), per-context clone compilations, and whole-cache
    #: invalidations from shape/epoch changes.  Surfaced here so every
    #: ``BENCH_*.json`` snapshot carries the per-tier hit/deopt story.
    tier2_compiles: int = 0
    tier2_entries: int = 0
    tier2_osr_entries: int = 0
    tier2_deopts: int = 0
    tier2_clones: int = 0
    tier2_invalidations: int = 0
    #: Permission-memo traffic (:mod:`repro.osim.hookchain`): held-file
    #: checks replayed (walks count ``walk_hits``/``walk_misses``), and
    #: stale entries of either kind dropped before the full hooks re-ran.
    hookchain_hits: int = 0
    hookchain_deopts: int = 0
    #: Wire data plane (:mod:`repro.osim.lamwire`), process-wide:
    #: frames encoded and their total payload bytes, and label-dictionary
    #: traffic (a hit ships a 16-bit id instead of the full label pair
    #: and skips re-interning on the far side; a miss re-sends the
    #: definition — including epoch-forced re-sends after tag-allocator
    #: changes).
    bytes_on_wire: int = 0
    frames: int = 0
    label_dict_hits: int = 0
    label_dict_misses: int = 0

    @property
    def set_ops(self) -> int:
        """Executed set-algebra operations: the work caching avoids."""
        return self.rule_evaluations + self.subset_tests + self.materializations

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)

    def snapshot(self) -> dict[str, int]:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["set_ops"] = self.set_ops
        return out


#: Process-wide switch state.  Mutate through :func:`configure` (or the
#: :func:`configured` context manager) so caches are flushed coherently.
flags = FastPathFlags()

#: Process-wide counters.  Reset with ``counters.reset()``.
counters = FastPathCounters()

#: Cache-clear callbacks registered by the modules that own caches
#: (labels.py, rules.py).  Registration avoids circular imports.
_cache_clearers: list[Callable[[], None]] = []


def register_cache(clear: Callable[[], None]) -> None:
    """Register a zero-argument callback that empties one cache."""
    _cache_clearers.append(clear)


def clear_caches() -> None:
    """Empty every registered cache (intern table, memos, verdict AVC)."""
    for clear in _cache_clearers:
        clear()


def configure(**switches: bool) -> None:
    """Set cache-layer switches by name and flush all caches.

    Flushing on every reconfiguration keeps ablation arms independent:
    an arm with a layer off cannot ride on entries a previous arm
    populated.
    """
    for name, value in switches.items():
        if not hasattr(flags, name):
            raise ValueError(f"unknown fast-path switch {name!r}")
        setattr(flags, name, bool(value))
    clear_caches()


@contextmanager
def configured(**switches: bool) -> Iterator[FastPathFlags]:
    """Temporarily reconfigure the cache layers (ablation arms, tests)."""
    saved = flags.as_dict()
    configure(**switches)
    try:
        yield flags
    finally:
        configure(**saved)


def all_off() -> dict[str, bool]:
    """Switch settings disabling every layer (the ablation baseline)."""
    return {name: False for name in flags.as_dict()}


def all_on() -> dict[str, bool]:
    return {name: True for name in flags.as_dict()}
