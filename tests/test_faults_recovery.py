"""Unit tests for the fault-injection plane and journal recovery.

The crash-point *sweep* lives in ``test_crash_consistency.py``; this
file pins down the primitives it is built from: deterministic
:class:`FaultPlan` addressing, per-kind injection semantics at each
site, journal rollback/replay, quarantine of undecodable metadata, and
the auditor's individual invariants.
"""

import pytest

from repro.core import CapabilitySet, Label, LabelPair, can_flow
from repro.core.audit import AuditKind
from repro.osim import (
    BLOCK_SIZE,
    EIO,
    ENOSPC,
    FaultKind,
    FaultPlan,
    FaultRule,
    Journal,
    Kernel,
    KernelCrash,
    RecoveryInvariantError,
    SyscallError,
    XATTR_INTEGRITY,
    XATTR_SECRECY,
    check_recovery_invariants,
    grant_persistent,
    load_user_capabilities,
    login,
    store_user_capabilities,
)
from repro.osim.recovery import LOST_FOUND


@pytest.fixture
def k():
    return Kernel()


def _labeled_file(kernel, path="/tmp/secret", data=b"x" * 100):
    """A task that owns a secrecy-labeled file; returns (task, tag, inode)."""
    task = kernel.spawn_task("owner")
    tag, _ = kernel.sys_alloc_tag(task, "t")
    fd = kernel.sys_create_file_labeled(task, path, LabelPair(Label.of(tag)))
    kernel.sys_write(task, fd, data)
    kernel.sys_close(task, fd)
    name = path.rsplit("/", 1)[1]
    return task, tag, kernel.fs.root.children["tmp"].children[name]


class TestFaultPlan:
    def test_nth_fires_exactly_once(self):
        plan = FaultPlan([FaultRule("s", FaultKind.EIO, nth=3)])
        fired = [plan.fire("s") for _ in range(6)]
        assert fired == [None, None, FaultKind.EIO, None, None, None]
        assert plan.fired == [("s", 3, FaultKind.EIO)]

    def test_every_fires_periodically(self):
        plan = FaultPlan([FaultRule("s", FaultKind.EIO, every=2)])
        fired = [plan.fire("s") for _ in range(6)]
        assert fired == [None, FaultKind.EIO] * 3

    def test_site_prefix_match(self):
        plan = FaultPlan([FaultRule("syscall:*", FaultKind.EIO, nth=1)])
        assert plan.fire("fs.block_write") is None
        assert plan.fire("syscall:read") is FaultKind.EIO

    def test_counters_are_per_site(self):
        plan = FaultPlan([FaultRule("b", FaultKind.EIO, nth=1)])
        assert plan.fire("a") is None
        assert plan.fire("b") is FaultKind.EIO  # b's own first crossing
        assert plan.counts == {"a": 1, "b": 1}

    def test_rule_requires_exactly_one_trigger(self):
        with pytest.raises(ValueError):
            FaultRule("s", FaultKind.EIO)
        with pytest.raises(ValueError):
            FaultRule("s", FaultKind.EIO, nth=1, every=2)

    def test_recording_plan_fires_nothing_and_traces_everything(self):
        plan = FaultPlan(record=True)
        assert [plan.fire("a"), plan.fire("a"), plan.fire("b")] == [None] * 3
        assert plan.trace == [("a", 1), ("a", 2), ("b", 1)]
        assert plan.sites_seen == {"a", "b"}

    def test_randomized_is_a_pure_function_of_seed(self):
        points = [("a", 1), ("b", 2), ("c", 3)]

        def shape(plans):
            return [(p.rules[0].site, p.rules[0].nth, p.rules[0].kind)
                    for p in plans]

        assert shape(FaultPlan.randomized(7, points, 10)) == shape(
            FaultPlan.randomized(7, points, 10)
        )
        assert shape(FaultPlan.randomized(7, points, 10)) != shape(
            FaultPlan.randomized(8, points, 10)
        )

    def test_firing_is_audited_when_installed(self, k):
        k.install_faults(FaultPlan([FaultRule("syscall:stat", FaultKind.EIO,
                                              nth=1)]))
        task = k.spawn_task("p")
        with pytest.raises(SyscallError):
            k.sys_stat(task, "/tmp")
        events = k.audit.entries(AuditKind.FAULT)
        assert len(events) == 1
        assert "syscall:stat" in events[0].detail


class TestInjectionSemantics:
    def test_syscall_eio_fails_before_mutation(self, k):
        task, _tag, inode = _labeled_file(k, data=b"stable")
        k.install_faults(
            FaultPlan([FaultRule("syscall:write", FaultKind.EIO, nth=1)])
        )
        fd = k.sys_open(task, "/tmp/secret", "w")
        with pytest.raises(SyscallError) as exc:
            k.sys_write(task, fd, b"overwrite")
        assert exc.value.errno == EIO
        assert bytes(inode.data) == b"stable"

    def test_syscall_enospc_maps_to_errno(self, k):
        task = k.spawn_task("p")
        k.install_faults(
            FaultPlan([FaultRule("syscall:mkdir", FaultKind.ENOSPC, nth=1)])
        )
        with pytest.raises(SyscallError) as exc:
            k.sys_mkdir(task, "/tmp/d")
        assert exc.value.errno == ENOSPC

    def test_short_write_returns_short_count(self, k):
        task, _tag, inode = _labeled_file(k, data=b"")
        k.install_faults(
            FaultPlan([FaultRule("fs.block_write", FaultKind.SHORT_WRITE,
                                 nth=3)])
        )
        fd = k.sys_open(task, "/tmp/secret", "w")
        n = k.sys_write(task, fd, b"A" * (BLOCK_SIZE * 4))
        assert n == 2 * BLOCK_SIZE  # two blocks landed, third was short
        assert bytes(inode.data) == b"A" * (2 * BLOCK_SIZE)

    def test_crash_mid_data_write_keeps_prefix(self, k):
        task, _tag, inode = _labeled_file(k, data=b"")
        k.install_faults(
            FaultPlan([FaultRule("fs.block_write", FaultKind.CRASH, nth=2)])
        )
        fd = k.sys_open(task, "/tmp/secret", "w")
        with pytest.raises(KernelCrash):
            k.sys_write(task, fd, b"B" * (BLOCK_SIZE * 3))
        assert bytes(inode.data) == b"B" * BLOCK_SIZE

    def test_torn_data_write_is_non_prefix(self, k):
        task, _tag, inode = _labeled_file(k, data=b"o" * (BLOCK_SIZE * 3))
        k.install_faults(
            FaultPlan([FaultRule("fs.block_write", FaultKind.TORN_WRITE,
                                 nth=2)])
        )
        fd = k.sys_open(task, "/tmp/secret", "w")
        with pytest.raises(KernelCrash):
            k.sys_write(task, fd, b"N" * (BLOCK_SIZE * 3))
        # Block 2 kept its old bytes; blocks 1 and 3 carry the new ones.
        assert bytes(inode.data) == (
            b"N" * BLOCK_SIZE + b"o" * BLOCK_SIZE + b"N" * BLOCK_SIZE
        )

    def test_submit_boundary_eio_fails_one_entry_not_the_batch(self, k):
        from repro.core import LabelType
        from repro.osim import Sqe

        task, tag, _inode = _labeled_file(k, data=b"d" * 64)
        k.sys_set_task_label(task, LabelType.SECRECY, Label.of(tag))
        fd = k.sys_open(task, "/tmp/secret", "r")
        k.install_faults(
            FaultPlan([FaultRule("submit.boundary", FaultKind.EIO, nth=2)])
        )
        cqes = k.sys_submit(
            task, [Sqe("read", fd, 16), Sqe("read", fd, 16), Sqe("read", fd, 16)]
        )
        assert [c.errno for c in cqes] == [0, EIO, 0]
        assert cqes[0].result == b"d" * 16

    @pytest.mark.parametrize("kind", [FaultKind.EIO, FaultKind.CRASH])
    def test_lseek_fault_inside_a_batch(self, k, kind):
        """A batched lseek runs inline but still crosses ``syscall:lseek``
        first.  EIO fails that entry before it moves the offset and the
        batch goes on; a crash ends the batch, and the modeled work of
        the entries before it is charged all the same."""
        from repro.osim import Sqe

        task = k.spawn_task("t")
        fd = k.sys_open(task, "/tmp/f", "w+")
        k.sys_write(task, fd, b"abcdef")
        k.defer_work = True
        k.install_faults(FaultPlan([FaultRule("syscall:lseek", kind, nth=2)]))
        sqes = [Sqe("lseek", fd, 1), Sqe("read", fd, 2), Sqe("lseek", fd, 0), Sqe("read", fd, 2)]
        if kind is FaultKind.CRASH:
            with pytest.raises(KernelCrash):
                k.sys_submit(task, sqes)
            work = k.SYSCALL_WORK
            assert k.deferred_work == (
                work["submit"] + work["lseek"] + work["read"] - k.SYSCALL_ENTRY_WORK
            )
            return
        cqes = k.sys_submit(task, sqes)
        assert [c.errno for c in cqes] == [0, 0, EIO, 0]
        assert [cqes[1].result, cqes[3].result] == [b"bc", b"de"]
        assert k.syscall_counts["lseek"] == 1

    def test_crash_discards_volatile_state_not_disk(self, k):
        task, tag, inode = _labeled_file(k)
        k.install_faults(FaultPlan())
        k.crash()
        assert k.tasks == {}
        assert k.faults is None
        assert bytes(inode.data) == b"x" * 100
        report = k.remount()
        assert report.clean
        # Labels were re-hydrated from xattrs, not remembered.
        assert tag in inode.labels.secrecy


class TestJournal:
    def test_lifecycle(self):
        j = Journal()
        rec = j.begin("relabel", ino=1)
        assert j.in_flight() == [rec]
        Journal.commit(rec)
        assert j.in_flight() == []
        j.checkpoint()
        assert len(j) == 0 and j.checkpointed == 1

    def test_abort_is_not_in_flight(self):
        j = Journal()
        rec = j.begin("capwrite", ino=2)
        Journal.abort(rec)
        assert j.in_flight() == []

    def test_relabel_crash_before_commit_rolls_back(self, k):
        task, tag, inode = _labeled_file(k)
        new_tag, _ = k.sys_alloc_tag(task, "t2")
        k.install_faults(
            FaultPlan([FaultRule("xattr.write", FaultKind.CRASH, nth=1)])
        )
        with pytest.raises(KernelCrash):
            k.fs.set_labels(inode, LabelPair(Label.of(new_tag)))
        k.crash()
        report = k.remount()
        assert report.rolled_back == 1
        assert inode.labels == LabelPair(Label.of(tag))
        check_recovery_invariants(k)

    def test_relabel_torn_xattrs_resolved_by_journal(self, k):
        task, tag, inode = _labeled_file(k)
        new_tag, _ = k.sys_alloc_tag(task, "t2")
        k.install_faults(
            FaultPlan([FaultRule("xattr.write", FaultKind.TORN_WRITE, nth=1)])
        )
        with pytest.raises(KernelCrash):
            k.fs.set_labels(inode, LabelPair(Label.of(new_tag)))
        k.crash()
        k.remount()
        # Never a torn mixture: exactly the old label.
        assert inode.labels == LabelPair(Label.of(tag))
        check_recovery_invariants(k)

    def test_relabel_detected_failure_restores_inline(self, k):
        task, tag, inode = _labeled_file(k)
        new_tag, _ = k.sys_alloc_tag(task, "t2")
        k.install_faults(
            FaultPlan([FaultRule("xattr.write", FaultKind.SHORT_WRITE, nth=1)])
        )
        with pytest.raises(SyscallError):
            k.fs.set_labels(inode, LabelPair(Label.of(new_tag)))
        assert inode.labels == LabelPair(Label.of(tag))
        assert k.fs.journal.in_flight() == []
        k.install_faults(None)
        check_recovery_invariants(k)

    def test_capwrite_crash_rolls_back_to_old_caps(self, k):
        task = k.spawn_task("admin")
        t1, c1 = k.sys_alloc_tag(task, "a")
        t2, c2 = k.sys_alloc_tag(task, "b")
        store_user_capabilities(k, "eve", c1)
        k.install_faults(
            FaultPlan([FaultRule("caps.block_write", FaultKind.TORN_WRITE,
                                 nth=1)])
        )
        with pytest.raises(KernelCrash):
            store_user_capabilities(k, "eve", c1.union(c2))
        k.crash()
        k.remount()
        assert load_user_capabilities(k, "eve") == c1
        check_recovery_invariants(k)

    def test_capwrite_crash_on_fresh_file_unlinks_it(self, k):
        task = k.spawn_task("admin")
        _t, caps = k.sys_alloc_tag(task, "a")
        k.install_faults(
            FaultPlan([FaultRule("caps.block_write", FaultKind.CRASH, nth=1)])
        )
        with pytest.raises(KernelCrash):
            store_user_capabilities(k, "mallory", caps)
        k.crash()
        k.remount()
        shell = login(k, "mallory")
        assert shell.capabilities == CapabilitySet.EMPTY
        check_recovery_invariants(k)

    def test_create_crash_between_begin_and_commit_unlinks(self, k):
        task = k.spawn_task("p")
        tag, _ = k.sys_alloc_tag(task, "t")
        k.install_faults(
            FaultPlan([FaultRule("create.link", FaultKind.CRASH, nth=1)])
        )
        with pytest.raises(KernelCrash):
            k.sys_create_file_labeled(
                task, "/tmp/ghost", LabelPair(Label.of(tag))
            )
        k.crash()
        report = k.remount()
        assert report.rolled_back == 1
        assert "ghost" not in k.fs.root.children["tmp"].children
        check_recovery_invariants(k)


class TestQuarantine:
    def test_undecodable_xattr_moves_inode_to_lost_found(self, k):
        _task, _tag, inode = _labeled_file(k)
        inode.xattrs[XATTR_SECRECY] = b"\x01\x02\x03"  # not a multiple of 8
        k.crash()
        report = k.remount()
        assert report.quarantined_inodes == [inode.ino]
        lf = k.fs.root.children[LOST_FOUND]
        assert lf.children[f"ino{inode.ino}"] is inode
        assert k.quarantine_tag in inode.labels.secrecy
        check_recovery_invariants(k)

    def test_quarantined_data_is_readable_by_no_one(self, k):
        from repro.osim import LaminarSecurityModule

        k = Kernel(LaminarSecurityModule())
        _task, _tag, inode = _labeled_file(k)
        inode.xattrs[XATTR_SECRECY] = b"\xff" * 7
        k.crash()
        k.remount()
        snoop = login(k, "snoop")
        with pytest.raises(SyscallError):
            k.sys_open(snoop, f"/{LOST_FOUND}/ino{inode.ino}", "r")

    def test_corrupt_capability_file_quarantined_at_recovery(self, k):
        task = k.spawn_task("admin")
        _t, caps = k.sys_alloc_tag(task, "a")
        store_user_capabilities(k, "frank", caps)
        inode = k.fs.root.children["etc"].children["laminar"].children[
            "caps"
        ].children["frank"]
        inode.data[:] = inode.data[:-2]  # truncate: no longer 9-aligned
        k.crash()
        report = k.remount()
        assert report.quarantined_caps == ["frank"]
        check_recovery_invariants(k)

    def test_login_quarantines_corrupt_capability_file(self, k):
        """The decode_capabilities fix: login never propagates ValueError."""
        task = k.spawn_task("admin")
        _t, caps = k.sys_alloc_tag(task, "a")
        store_user_capabilities(k, "grace", caps)
        caps_dir = k.fs.root.children["etc"].children["laminar"].children["caps"]
        caps_dir.children["grace"].data[:] = b"garbage!"
        shell = login(k, "grace")
        assert shell.capabilities == CapabilitySet.EMPTY
        assert "grace" not in caps_dir.children
        corrupt = caps_dir.children["grace.corrupt"]
        assert k.admin_integrity in corrupt.labels.integrity
        assert k.audit.entries(AuditKind.QUARANTINE)

    def test_relogin_after_quarantine_is_clean(self, k):
        caps_dir = k.fs.root.children["etc"].children["laminar"].children["caps"]
        store_user_capabilities(k, "heidi", CapabilitySet.EMPTY)
        caps_dir.children["heidi"].data[:] = b"x"
        login(k, "heidi")
        shell = login(k, "heidi")  # no file now: plain unknown-user path
        assert shell.capabilities == CapabilitySet.EMPTY


class TestAuditor:
    def test_clean_kernel_passes(self, k):
        _labeled_file(k)
        assert check_recovery_invariants(k) == []

    def test_in_flight_record_is_a_violation(self, k):
        k.fs.journal.begin("relabel", ino=999)
        with pytest.raises(RecoveryInvariantError, match="in-flight"):
            check_recovery_invariants(k)

    def test_memory_disk_divergence_is_a_violation(self, k):
        _task, tag, inode = _labeled_file(k)
        inode.xattrs[XATTR_SECRECY] = b""  # disk says unlabeled
        violations = check_recovery_invariants(k, strict=False)
        assert any("diverge" in v for v in violations)

    def test_label_weakening_is_a_violation(self, k):
        _task, tag, inode = _labeled_file(k)
        inode.labels = LabelPair.EMPTY
        inode.xattrs[XATTR_SECRECY] = b""
        violations = check_recovery_invariants(k, strict=False)
        assert any("weaker than exposed history" in v for v in violations)

    def test_restriction_is_not_weakening(self, k):
        task, tag, inode = _labeled_file(k)
        extra, _ = k.sys_alloc_tag(task, "extra")
        stricter = LabelPair(Label.of(tag, extra))
        assert can_flow(inode.labels, stricter)
        k.fs.set_labels(inode, stricter)
        inode.labels = stricter
        assert check_recovery_invariants(k) == []

    def test_quarantine_capability_grant_is_a_violation(self, k):
        k.spawn_task("evil", caps=CapabilitySet.dual(k.quarantine_tag))
        violations = check_recovery_invariants(k, strict=False)
        assert any("quarantine-tag capability" in v for v in violations)

    def test_exposed_history_survives_crash(self, k):
        _task, tag, inode = _labeled_file(k)
        history = list(k.fs.exposed[inode.ino])
        k.crash()
        k.remount()
        assert k.fs.exposed[inode.ino] == history
