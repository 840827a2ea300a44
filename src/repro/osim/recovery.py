"""Crash-consistent persistence: the label/capability journal and fsck.

The paper persists inode labels in extended attributes and per-user
capabilities in files under ``/etc/laminar`` (Sections 4.4, 5.2) but
never says what happens when the machine dies halfway through updating
them.  This module supplies the missing failure story:

* a **write-ahead journal** (:class:`Journal`) through which every
  persistent label or capability mutation flows — full pre- and
  post-images, begin/commit records — so that recovery can make each
  mutation atomic: after a crash the on-disk state is rolled back to the
  pre-image (uncommitted) or replayed to the post-image (committed),
  never a torn mixture;
* a **recovery pass** (:func:`recover`, invoked by
  :meth:`Kernel.remount`) that resolves in-flight transactions,
  re-hydrates in-memory labels from xattrs, and **quarantines** anything
  that still fails to parse — undecodable inode labels move the inode
  under ``/lost+found`` carrying the boot-time *quarantine* tag (a tag
  no principal holds capabilities for, so the data is readable by
  no one rather than by everyone), and unparseable capability files are
  renamed ``<user>.corrupt`` with administrator integrity;
* an **auditor** (:func:`check_recovery_invariants`) asserting the
  safety contract the crash-point sweep enforces at every injected
  fault: no recovered inode's label is weaker than a state the
  pre-crash kernel exposed, no labeled data is reachable through an
  unlabeled path, capability files parse or are quarantined, and the
  journal holds no in-flight transactions.

The safety direction is deliberately asymmetric, echoing the
exception-aware IFC argument that failures are themselves information
channels: recovery may *lose* a mutation (roll back to the older, often
more restrictive state) or *restrict* access (quarantine), but must
never expose labeled bytes under a weaker label than the kernel ever
enforced for them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..core import Label, LabelPair, can_flow
from ..core.audit import AuditKind
from .filesystem import (
    XATTR_INTEGRITY,
    XATTR_SECRECY,
    Inode,
    InodeType,
    decode_label,
)
from .persistence import decode_capabilities

if TYPE_CHECKING:
    from .kernel import Kernel

#: Name of the recovery directory quarantined inodes land in.
LOST_FOUND = "lost+found"

#: Deliberate label-weakening bug, used ONLY by the negative test in
#: ``tests/test_crash_consistency.py``: when True, rolling back an
#: uncommitted relabel restores *empty* xattrs instead of the journaled
#: pre-image, resurrecting labeled data unlabeled.  The crash-point
#: sweep must catch this — if it does not, the sweep is not actually
#: checking anything.
_WEAKENING_BUG = False


class Journal:
    """Write-ahead journal for persistent security-metadata mutations.

    Lives on the :class:`~repro.osim.filesystem.Filesystem` (the
    simulated disk), so records survive :meth:`Kernel.crash`.  Records
    are dictionaries with full pre/post images; the append itself is
    assumed atomic (the standard WAL assumption — fault sites fire
    *before* appends, never inside them).

    States: ``begin`` (in-flight), ``commit`` (durable), ``abort``
    (the caller detected a failure and restored the pre-image inline).
    """

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._seq = itertools.count(1)
        #: Total records ever checkpointed away (for tests/diagnostics).
        self.checkpointed = 0

    def begin(self, op: str, **payload: object) -> dict:
        rec = {"seq": next(self._seq), "op": op, "state": "begin", **payload}
        self.records.append(rec)
        return rec

    @staticmethod
    def commit(rec: dict) -> None:
        rec["state"] = "commit"

    @staticmethod
    def abort(rec: dict) -> None:
        rec["state"] = "abort"

    def in_flight(self) -> list[dict]:
        return [r for r in self.records if r["state"] == "begin"]

    def checkpoint(self) -> None:
        """Drop resolved records (recovery calls this once the disk state
        matches every record's outcome)."""
        self.checkpointed += len(self.records)
        self.records.clear()

    def __len__(self) -> int:
        return len(self.records)


class RecoveryInvariantError(AssertionError):
    """The auditor found a state that weakens the pre-crash guarantees."""

    def __init__(self, violations: list[str]) -> None:
        self.violations = violations
        super().__init__(
            "recovery invariants violated:\n  " + "\n  ".join(violations)
        )


@dataclass
class RecoveryReport:
    """What one :func:`recover` pass did."""

    rolled_back: int = 0
    replayed: int = 0
    quarantined_inodes: list[int] = field(default_factory=list)
    quarantined_caps: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return (
            not self.rolled_back
            and not self.quarantined_inodes
            and not self.quarantined_caps
        )

    def __str__(self) -> str:
        return (
            f"recovery: {self.rolled_back} rolled back, "
            f"{self.replayed} replayed, "
            f"{len(self.quarantined_inodes)} inode(s) quarantined, "
            f"{len(self.quarantined_caps)} capability file(s) quarantined"
        )


# -- tree helpers ------------------------------------------------------------


def _index_tree(root: Inode) -> dict[int, tuple[Inode, Optional[Inode], str]]:
    """ino -> (inode, parent, name) for every reachable inode."""
    index: dict[int, tuple[Inode, Optional[Inode], str]] = {
        root.ino: (root, None, "/")
    }
    stack = [root]
    while stack:
        node = stack.pop()
        for name, child in node.children.items():
            index[child.ino] = (child, node, name)
            if child.children:
                stack.append(child)
    return index


def _caps_dir(kernel: "Kernel") -> Optional[Inode]:
    try:
        return (
            kernel.fs.root.children["etc"].children["laminar"].children["caps"]
        )
    except KeyError:
        return None


def _lost_found(kernel: "Kernel") -> Inode:
    """The quarantine directory, created on demand with the admin label."""
    root = kernel.fs.root
    inode = root.children.get(LOST_FOUND)
    if inode is None:
        admin = LabelPair(Label.EMPTY, Label.of(kernel.admin_integrity))
        inode = Inode(InodeType.DIRECTORY, admin, mode=0o700)
        kernel.fs.link_child(root, LOST_FOUND, inode)
    return inode


def _quarantine_label(kernel: "Kernel", inode: Inode) -> LabelPair:
    """The most restrictive label recovery can assign: any tags that are
    still decodable from the (possibly torn) xattr, plus the boot-time
    quarantine tag nobody holds capabilities for.  Adding tags can only
    restrict; the quarantine tag alone already makes the data readable
    by no principal."""
    salvage = []
    blob = inode.xattrs.get(XATTR_SECRECY, b"")
    for offset in range(0, len(blob) - len(blob) % 8, 8):
        value = int.from_bytes(blob[offset : offset + 8], "big")
        salvage.append(kernel.tags.lookup(value) or None)
    tags = [t for t in salvage if t is not None]
    tags.append(kernel.quarantine_tag)
    return LabelPair(Label(tags), Label.EMPTY)


def _quarantine_inode(
    kernel: "Kernel", inode: Inode, parent: Optional[Inode], name: str
) -> None:
    """Move an inode whose labels cannot be trusted under ``/lost+found``
    with the quarantine label.  The move is raw (recovery is the TCB):
    no LSM hooks fire, no journal records are cut."""
    if parent is not None and parent.children.get(name) is inode:
        del parent.children[name]
    lf = _lost_found(kernel)
    lf.children[f"ino{inode.ino}"] = inode
    inode.labels = _quarantine_label(kernel, inode)
    inode.xattrs[XATTR_SECRECY] = b"".join(
        tag.value.to_bytes(8, "big") for tag in inode.labels.secrecy
    )
    inode.xattrs[XATTR_INTEGRITY] = b""
    kernel.audit.record(
        AuditKind.QUARANTINE,
        "recovery",
        "fsck",
        f"inode {inode.ino} ({name}) quarantined under /{LOST_FOUND}",
    )


def quarantine_capability_file(kernel: "Kernel", user: str) -> None:
    """Rename an unparseable capability file to ``<user>.corrupt`` with
    administrator integrity; the user logs in with empty persistent
    capabilities until an administrator repairs the file.  Shared by
    recovery and by :func:`~repro.osim.persistence.login` (which can hit
    corruption the journal never saw, e.g. media decay)."""
    directory = _caps_dir(kernel)
    if directory is None:
        return
    inode = directory.children.get(user)
    if inode is None:
        return
    del directory.children[user]
    corrupt_name = f"{user}.corrupt"
    directory.children.pop(corrupt_name, None)
    directory.children[corrupt_name] = inode
    # A rename, like an unlink, changes what a memoized walk would reach.
    kernel.hookchain.invalidate()
    inode.labels = LabelPair(
        inode.labels.secrecy, Label.of(kernel.admin_integrity)
    )
    inode.xattrs[XATTR_SECRECY] = b"".join(
        tag.value.to_bytes(8, "big") for tag in inode.labels.secrecy
    )
    inode.xattrs[XATTR_INTEGRITY] = kernel.admin_integrity.value.to_bytes(
        8, "big"
    )
    kernel.audit.record(
        AuditKind.QUARANTINE,
        "recovery",
        "fsck",
        f"capability file for {user!r} quarantined as {corrupt_name}",
    )


# -- the recovery pass -------------------------------------------------------


def _resolve_transactions(kernel: "Kernel", report: RecoveryReport) -> None:
    """Redo committed records, undo in-flight ones.  Aborted records were
    already rolled back inline by their caller."""
    fs = kernel.fs
    index = _index_tree(fs.root)
    for rec in fs.journal.records:
        op, state = rec["op"], rec["state"]
        if state == "abort":
            continue
        if op == "relabel":
            entry = index.get(rec["ino"])
            if entry is None:
                continue
            inode = entry[0]
            if state == "commit":
                inode.xattrs.update(rec["new"])
                report.replayed += 1
            else:
                if _WEAKENING_BUG:
                    inode.xattrs[XATTR_SECRECY] = b""
                    inode.xattrs[XATTR_INTEGRITY] = b""
                else:
                    inode.xattrs.update(rec["old"])
                report.rolled_back += 1
        elif op == "capwrite":
            entry = index.get(rec["ino"])
            if entry is None:
                continue
            inode, parent, name = entry
            if state == "commit":
                inode.data[:] = rec["new"]
                report.replayed += 1
            else:
                if rec["old"] is None:
                    if parent is not None and parent.children.get(name) is inode:
                        del parent.children[name]
                else:
                    inode.data[:] = rec["old"]
                report.rolled_back += 1
        elif op == "create":
            if state == "commit":
                continue  # link precedes commit; nothing to redo
            parent_entry = index.get(rec["parent_ino"])
            if parent_entry is None:
                continue
            parent = parent_entry[0]
            child = parent.children.get(rec["name"])
            if child is not None and child.ino == rec["ino"]:
                del parent.children[rec["name"]]
            report.rolled_back += 1


def recover(kernel: "Kernel") -> RecoveryReport:
    """Bring the filesystem to a crash-consistent state.

    Called by :meth:`Kernel.remount` after :meth:`Kernel.crash` (and
    harmlessly on a clean remount, where the journal is empty).  Order
    matters: transactions are resolved on *disk* state first, then
    in-memory labels are re-hydrated from the now-consistent xattrs, and
    only undecodable stragglers are quarantined.
    """
    report = RecoveryReport()
    fs = kernel.fs
    _resolve_transactions(kernel, report)
    fs.journal.checkpoint()
    for ino, (inode, parent, name) in list(_index_tree(fs.root).items()):
        if inode.itype not in (InodeType.REGULAR, InodeType.DIRECTORY):
            continue
        try:
            inode.labels = LabelPair.EMPTY
            inode.restore_labels(kernel.tags)
        except ValueError:
            if parent is None:
                # A corrupt *root* label cannot be moved; pin it to the
                # quarantine label in place.
                inode.labels = _quarantine_label(kernel, inode)
                inode.xattrs[XATTR_SECRECY] = b"".join(
                    tag.value.to_bytes(8, "big")
                    for tag in inode.labels.secrecy
                )
                inode.xattrs[XATTR_INTEGRITY] = b""
            else:
                _quarantine_inode(kernel, inode, parent, name)
            report.quarantined_inodes.append(ino)
    caps_dir = _caps_dir(kernel)
    if caps_dir is not None:
        for user in list(caps_dir.children):
            if user.endswith(".corrupt"):
                continue
            inode = caps_dir.children[user]
            try:
                decode_capabilities(bytes(inode.data), kernel)
            except ValueError:
                quarantine_capability_file(kernel, user)
                report.quarantined_caps.append(user)
    kernel.audit.record(
        AuditKind.RECOVERY, "recovery", "fsck", str(report)
    )
    return report


# -- the auditor -------------------------------------------------------------


def check_recovery_invariants(
    kernel: "Kernel", strict: bool = True
) -> list[str]:
    """Audit the recovered machine against the crash-safety contract.

    Returns the list of violations (empty when sound); raises
    :class:`RecoveryInvariantError` instead when ``strict``.

    Invariants:

    1. **Journal quiescent** — no in-flight transactions survive
       recovery.
    2. **Persistence coherent** — every regular file and directory's
       in-memory label equals the label decoded from its xattrs (labels
       must survive the *next* remount too).
    3. **No label weakening** — for every inode the pre-crash kernel
       exposed labels for (the filesystem's omniscient-observer history,
       like ``Pipe.dropped``), the recovered label is either (a) one of
       the exposed states, (b) at least as restrictive as the last
       exposed state (``can_flow(last, recovered)``), or (c) carries the
       quarantine tag, which no principal can ever add to its own label.
    4. **Quarantine is airtight** — everything under ``/lost+found``
       carries the quarantine tag, and no task or persistent capability
       file holds a capability for that tag.
    5. **Capability files parse or are quarantined** — every file in the
       capability store either decodes or is a ``*.corrupt`` quarantine
       artifact with administrator integrity.
    """
    violations: list[str] = []
    fs = kernel.fs
    qtag = kernel.quarantine_tag

    for rec in fs.journal.in_flight():
        violations.append(f"in-flight journal record survived recovery: {rec}")

    index = _index_tree(fs.root)
    for ino, (inode, _parent, name) in index.items():
        if inode.itype not in (InodeType.REGULAR, InodeType.DIRECTORY):
            continue
        try:
            decoded = LabelPair(
                decode_label(inode.xattrs.get(XATTR_SECRECY, b""), kernel.tags),
                decode_label(
                    inode.xattrs.get(XATTR_INTEGRITY, b""), kernel.tags
                ),
            )
        except ValueError:
            violations.append(f"inode {ino} ({name}): undecodable label xattrs")
            continue
        if decoded != inode.labels:
            violations.append(
                f"inode {ino} ({name}): in-memory labels {inode.labels!r} "
                f"diverge from persisted {decoded!r}"
            )
        history = fs.exposed.get(ino)
        if history:
            recovered = inode.labels
            ok = (
                recovered in history
                or can_flow(history[-1], recovered)
                or qtag in recovered.secrecy
            )
            if not ok:
                violations.append(
                    f"inode {ino} ({name}): recovered label {recovered!r} is "
                    f"weaker than exposed history (last {history[-1]!r})"
                )

    lf = fs.root.children.get(LOST_FOUND)
    if lf is not None:
        for name, child in lf.children.items():
            if qtag not in child.labels.secrecy:
                violations.append(
                    f"/{LOST_FOUND}/{name}: quarantined inode lacks the "
                    f"quarantine tag"
                )
    for task in kernel.tasks.values():
        if task.capabilities.can_add(qtag) or task.capabilities.can_remove(qtag):
            violations.append(
                f"task {task.name} holds a quarantine-tag capability"
            )

    caps_dir = _caps_dir(kernel)
    if caps_dir is not None:
        for user, inode in caps_dir.children.items():
            try:
                caps = decode_capabilities(bytes(inode.data), kernel)
            except ValueError:
                if not user.endswith(".corrupt"):
                    violations.append(
                        f"capability file {user!r} neither parses nor is "
                        f"quarantined"
                    )
                continue
            if user.endswith(".corrupt"):
                continue
            if caps.can_add(qtag) or caps.can_remove(qtag):
                violations.append(
                    f"capability file {user!r} grants the quarantine tag"
                )

    if violations and strict:
        raise RecoveryInvariantError(violations)
    return violations
