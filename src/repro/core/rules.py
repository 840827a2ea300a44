"""The information-flow rules of Section 3.2.

Information flow is defined from a source ``x`` to a destination ``y``, at
least one of which is a principal.  Both carry a secrecy label ``S`` and an
integrity label ``I``:

* **Secrecy** (Bell–LaPadula simple security + *-property):
  flow from ``x`` to ``y`` preserves secrecy iff ``S_x ⊆ S_y``
  ("no read up, no write down").
* **Integrity** (Biba): flow preserves integrity iff ``I_y ⊆ I_x``
  ("no read down, no write up") — the source must be at least as
  high-integrity as the destination requires.
* **Label change**: a principal ``p`` may change its label from ``L1`` to
  ``L2`` iff ``(L2 − L1) ⊆ Cp+`` and ``(L1 − L2) ⊆ Cp−``.  Laminar requires
  label changes to be explicit; implicit changes would form a covert storage
  channel (Zeldovich et al.).

These functions are the single source of truth: the VM barriers, the OS
security module, the Flume baseline, and the applications all call into
here, which is how the paper achieves "a single set of abstractions for OS
resources and heap-allocated objects".
"""

from __future__ import annotations

from . import fastpath
from .capabilities import CapabilitySet
from .errors import (
    IntegrityViolation,
    LabelChangeViolation,
    SecrecyViolation,
)
from .fastpath import counters
from .labels import Label, LabelPair


def secrecy_allows(source: Label, dest: Label) -> bool:
    """``S_x ⊆ S_y``: the destination must be at least as secret."""
    counters.rule_evaluations += 1
    return source.is_subset_of(dest)


def integrity_allows(source: Label, dest: Label) -> bool:
    """``I_y ⊆ I_x``: the source must be at least as high-integrity."""
    counters.rule_evaluations += 1
    return dest.is_subset_of(source)


# -- the flow-verdict cache (an AVC for check_flow/can_flow) -----------------
#
# Labels are immutable, so the verdict for a (source, dest) pair of label
# pairs can never change — the cache needs *no* invalidation protocol, only
# a size bound (flushed wholesale on overflow, like a hardware AVC).  It is
# keyed on the two LabelPairs: hash-consed, so a probe ends at an identity
# compare, and value-hashed, so value-equal pairs share an entry when
# interning is off.  This is the one verdict memo: the LSM reaches it
# through can_flow, and the VM barriers probe it inline
# (repro.runtime.barriers.cached_check_flow).  The verdict distinguishes
# which rule failed so check_flow can still raise the precise violation;
# diagnostic detail (the offending tag difference) is recomputed on the
# rare failure path.

FLOW_OK = 0
FLOW_SECRECY_FAIL = 1
FLOW_INTEGRITY_FAIL = 2

#: (source, dest) -> verdict.  Emptied in place, never rebound, so a
#: module that imports it keeps probing the live table.
_VERDICTS: dict[tuple, int] = {}
_VERDICT_BOUND = 1 << 12


def _clear_verdicts() -> None:
    _VERDICTS.clear()


fastpath.register_cache(_clear_verdicts)


def flow_verdict(source: LabelPair, dest: LabelPair) -> int:
    """Evaluate (or recall) the Section 3.2 verdict for ``source -> dest``."""
    cache = fastpath.flags.flow_verdict_cache
    if cache:
        key = (source, dest)
        verdict = _VERDICTS.get(key)
        if verdict is not None:
            counters.verdict_hits += 1
            return verdict
        counters.verdict_misses += 1
    if not secrecy_allows(source.secrecy, dest.secrecy):
        verdict = FLOW_SECRECY_FAIL
    elif not integrity_allows(source.integrity, dest.integrity):
        verdict = FLOW_INTEGRITY_FAIL
    else:
        verdict = FLOW_OK
    if cache:
        if len(_VERDICTS) >= _VERDICT_BOUND:
            _VERDICTS.clear()
        _VERDICTS[key] = verdict
    return verdict


def can_flow(source: LabelPair, dest: LabelPair) -> bool:
    """True iff information may flow from ``source`` to ``dest`` under both
    the secrecy and the integrity rule."""
    return flow_verdict(source, dest) == FLOW_OK


def check_flow(source: LabelPair, dest: LabelPair, context: str = "") -> None:
    """Raise the precise violation if the flow ``source -> dest`` is illegal.

    ``context`` is a human-readable description (e.g. ``"write to /etc/cal"``)
    included in the exception message for auditability.
    """
    verdict = flow_verdict(source, dest)
    if verdict == FLOW_OK:
        return
    suffix = f" ({context})" if context else ""
    if verdict == FLOW_SECRECY_FAIL:
        leaked = source.secrecy.difference(dest.secrecy)
        raise SecrecyViolation(
            f"secrecy rule S_x ⊆ S_y failed: tags {leaked!r} of source "
            f"{source!r} missing from destination {dest!r}{suffix}"
        )
    missing = dest.integrity.difference(source.integrity)
    raise IntegrityViolation(
        f"integrity rule I_y ⊆ I_x failed: destination {dest!r} requires "
        f"tags {missing!r} the source {source!r} does not carry{suffix}"
    )


def can_change_label(old: Label, new: Label, caps: CapabilitySet) -> bool:
    """The explicit label-change rule:
    ``(new − old) ⊆ Cp+`` and ``(old − new) ⊆ Cp−``."""
    added = new.difference(old)
    removed = old.difference(new)
    return caps.can_add_all(added) and caps.can_remove_all(removed)


def check_label_change(
    old: Label, new: Label, caps: CapabilitySet, context: str = ""
) -> None:
    """Raise :class:`LabelChangeViolation` if ``old -> new`` is not permitted
    by ``caps``."""
    added = new.difference(old)
    removed = old.difference(new)
    if caps.can_add_all(added) and caps.can_remove_all(removed):
        return
    suffix = f" ({context})" if context else ""
    if not caps.can_add_all(added):
        lacking = Label(t for t in added if not caps.can_add(t))
        raise LabelChangeViolation(
            f"label change {old!r} -> {new!r} adds tags {lacking!r} without "
            f"the plus capability{suffix}"
        )
    if not caps.can_remove_all(removed):
        lacking = Label(t for t in removed if not caps.can_remove(t))
        raise LabelChangeViolation(
            f"label change {old!r} -> {new!r} drops tags {lacking!r} without "
            f"the minus capability{suffix}"
        )


def check_pair_change(
    old: LabelPair, new: LabelPair, caps: CapabilitySet, context: str = ""
) -> None:
    """Apply the label-change rule independently to secrecy and integrity.
    The per-label contexts are formatted only for a refused change."""
    if not can_change_label(old.secrecy, new.secrecy, caps):
        check_label_change(
            old.secrecy, new.secrecy, caps, context=f"secrecy {context}".strip()
        )
    if not can_change_label(old.integrity, new.integrity, caps):
        check_label_change(
            old.integrity, new.integrity, caps,
            context=f"integrity {context}".strip(),
        )


def region_entry_allowed(
    region_secrecy: Label,
    region_integrity: Label,
    region_caps: CapabilitySet,
    thread_pair: LabelPair,
    thread_caps: CapabilitySet,
) -> bool:
    """Security-region initialization rules (Section 4.3.2):

    1. ``S_R ⊆ (Cp+ ∪ S_P)`` and ``I_R ⊆ (Cp+ ∪ I_P)`` — the entering
       principal must hold either the add capability or the label itself for
       every tag the region will carry.
    2. ``C_R ⊆ C_P`` — the region retains only a subset of the principal's
       capabilities.
    """
    plus = thread_caps.plus_tags()
    if not region_secrecy.is_subset_of(plus.union(thread_pair.secrecy)):
        return False
    if not region_integrity.is_subset_of(plus.union(thread_pair.integrity)):
        return False
    return region_caps.is_subset_of(thread_caps)


def labeled_create_allowed(
    principal: LabelPair,
    principal_caps: CapabilitySet,
    file_pair: LabelPair,
    parent_writable: bool,
) -> bool:
    """The labeled file/directory creation rule of Section 5.2.

    A principal with non-empty labels ``{S_p, I_p}`` may create a file with
    labels ``{S_f, I_f}`` iff

    1. ``S_p ⊆ S_f`` and ``I_f ⊆ I_p`` (the creation itself is a flow from
       principal to file);
    2. the principal has the capabilities to acquire its current labels
       (so the labels are legitimate, not inherited by accident); and
    3. the principal can write the parent directory with its current label
       (a new directory entry is a write to the parent, and the file *name*
       is protected by the parent's label).
    """
    if not principal.secrecy.is_subset_of(file_pair.secrecy):
        return False
    if not file_pair.integrity.is_subset_of(principal.integrity):
        return False
    # "has capabilities to acquire labels {Sp, Ip}": every tag the principal
    # currently carries must be one it could have added itself.
    plus = principal_caps.plus_tags()
    if not principal.secrecy.is_subset_of(plus):
        return False
    if not principal.integrity.is_subset_of(plus):
        return False
    return parent_writable
