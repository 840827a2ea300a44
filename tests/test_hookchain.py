"""The OS permission memo (:mod:`repro.osim.hookchain`).

The contract under test: an allowed directory walk and an allowed
held-file check are recorded on their first run under the task's label
pair and replayed after it, for every task at that pair, with identical
hook counts; denials are never recorded; a relabel of a recorded inode
drops the entry and the full hooks decide again; every event that can
change a verdict or a walk empties the memo, and the events that cannot
keep it; and hook counters, audit entries, denials and syscall results
are identical with the memo switched off.
"""

from __future__ import annotations

import pytest

from repro.core import Label, LabelPair, LabelType, fastpath
from repro.osim import (
    EACCES,
    ENOENT,
    Kernel,
    LaminarSecurityModule,
    LeakySecurityModule,
    Sqe,
    SyscallError,
)


@pytest.fixture(autouse=True)
def _clean_fastpath():
    fastpath.configure()  # all layers on
    fastpath.counters.reset()
    yield
    fastpath.configure()


def make_kernel():
    """A kernel with ``/tmp/hc/data`` written by a setup task, plus an app
    task at the setup task's (empty) label pair, so the setup's walks of
    ``/tmp`` and ``/tmp/hc`` and its write proof on ``data`` already
    serve it; hook and fastpath counters start at zero."""
    kernel = Kernel(LaminarSecurityModule())
    setup = kernel.spawn_task("setup")
    kernel.sys_mkdir(setup, "/tmp/hc")
    fd = kernel.sys_open(setup, "/tmp/hc/data", "w")
    kernel.sys_write(setup, fd, b"payload-bytes")
    kernel.sys_close(setup, fd)
    task = kernel.spawn_task("app")
    kernel.security.reset_counters()
    fastpath.counters.reset()
    return kernel, task


def counts():
    snap = fastpath.counters.snapshot()
    return {
        key: snap[key]
        for key in ("walk_hits", "walk_misses", "hookchain_hits", "hookchain_deopts")
    }


def memo_state(kernel):
    memo = kernel.hookchain
    return dict(memo.walks), dict(memo.files)


def secret_tag(kernel):
    owner = kernel.spawn_task("owner")
    tag, _ = kernel.sys_alloc_tag(owner, "s")
    return owner, tag


class TestCompileAndHit:
    def test_stat_chain_compiles_then_replays(self):
        """A stat's walk is recorded on its first allowed run and replayed
        on every later one, with the same hook counts; the leaf
        ``inode_getattr`` runs every time.  (``/dev`` is a head the setup
        task never walked.)"""
        kernel, task = make_kernel()
        walked = set(kernel.hookchain.walks)
        first = kernel.sys_stat(task, "/dev/null")
        assert counts() == {
            "walk_hits": 0, "walk_misses": 1, "hookchain_hits": 0, "hookchain_deopts": 0,
        }
        hooks = dict(kernel.security.hook_calls)
        assert kernel.sys_stat(task, "/dev/null") == first
        assert counts()["walk_hits"] == 1
        per_stat = {
            name: kernel.security.hook_calls[name] - hooks.get(name, 0)
            for name in ("inode_permission", "inode_getattr")
        }
        assert per_stat == {"inode_permission": 2, "inode_getattr": 1}
        assert set(kernel.hookchain.walks) == walked | {(task.labels, None, "/dev")}

    def test_open_chain_keyed_on_flags(self):
        """Every open mode shares the walk entry (here the one the setup
        task's write-mode open recorded); each open's own mode check
        still runs after the replayed walk."""
        kernel, task = make_kernel()
        kernel.sys_close(task, kernel.sys_open(task, "/tmp/hc/data", "r"))
        before = kernel.security.hook_calls["inode_permission"]
        kernel.sys_close(task, kernel.sys_open(task, "/tmp/hc/data", "w"))
        assert counts()["walk_hits"] == 2 and counts()["walk_misses"] == 0
        # The replayed walk (/, /tmp, /tmp/hc) plus the write-mode check.
        assert kernel.security.hook_calls["inode_permission"] == before + 4

    def test_fd_read_chain_compiles_then_replays(self):
        kernel, task = make_kernel()
        fd = kernel.sys_open(task, "/tmp/hc/data", "r")
        reads = []
        for _ in range(4):
            kernel.sys_lseek(task, fd, 0)
            reads.append(kernel.sys_read(task, fd, 7))
        assert reads == [b"payload"] * 4
        assert counts()["hookchain_hits"] == 3
        assert kernel.security.hook_calls["file_permission"] == 4
        inode = task.lookup_fd(fd).inode
        assert kernel.hookchain.files[(task.labels, inode, False)] is inode.labels

    @pytest.mark.parametrize("first", ["sys_write", "sys_submit"])
    def test_write_proof_is_shared_with_submit(self, first):
        """``sys_write`` and ``sys_submit`` record and replay the same
        held-file entries: a proof made by either is replayed by the
        other.  (The file is new, so no proof on it exists yet.)"""
        kernel, task = make_kernel()
        fd = kernel.sys_open(task, "/tmp/hc/fresh", "w")
        ways = {
            "sys_write": lambda: kernel.sys_write(task, fd, b"x"),
            "sys_submit": lambda: kernel.sys_submit(task, [Sqe("write", fd, b"x")]),
        }
        ways[first]()
        assert counts()["hookchain_hits"] == 0
        ways["sys_submit" if first == "sys_write" else "sys_write"]()
        assert counts()["hookchain_hits"] == 1
        assert kernel.security.hook_calls["file_permission"] == 2

    def test_denied_chains_never_bake(self):
        """Denials re-run the full hooks every time: the audit log gains
        one entry per attempt and no entry is ever recorded."""
        kernel, task = make_kernel()
        owner, tag = secret_tag(kernel)
        secret = LabelPair(Label.of(tag))
        kernel.sys_mkdir_labeled(owner, "/tmp/vault", secret)
        fd = kernel.sys_create_file_labeled(owner, "/tmp/hc/secret", secret)
        shared = kernel.share_fd(owner, fd, task)
        recorded = memo_state(kernel)
        for _ in range(4):
            with pytest.raises(SyscallError) as exc:
                kernel.sys_stat(task, "/tmp/vault/f")
            assert exc.value.errno == EACCES
            with pytest.raises(SyscallError) as exc:
                kernel.sys_read(task, shared, 1)
            assert exc.value.errno == EACCES
            cqe = kernel.sys_submit(task, [Sqe("read", shared, 1)])[0]
            assert cqe.errno == EACCES
        assert memo_state(kernel) == recorded
        assert [e.principal for e in kernel.audit.denials()] == [
            "inode_permission", "file_permission", "file_permission",
        ] * 4


def run_mixed_stream(kernel, task):
    """A deterministic op stream mixing replayed walks and held-file
    checks with denials, relabels and invalidations; returns every
    application-visible outcome."""
    outcomes = []

    def attempt(call, *args):
        try:
            outcomes.append(call(task, *args))
        except SyscallError as exc:
            outcomes.append(exc.errno)

    fd = kernel.sys_open(task, "/tmp/hc/data", "r+")
    for i in range(12):
        attempt(kernel.sys_stat, "/tmp/hc/data")
        attempt(kernel.sys_stat, "/tmp/hc/locked")
        attempt(kernel.sys_lseek, fd, 0)
        attempt(kernel.sys_read, fd, 5)
        attempt(kernel.sys_submit, [Sqe("read", fd, 3), Sqe("write", fd, b"z")])
        attempt(kernel.sys_open, f"/tmp/hc/f{i % 3}", "w")
        if i == 4:
            attempt(kernel.sys_unlink, "/tmp/hc/f0")
        if i == 6:
            tag = kernel.sys_alloc_tag(task, "late")[0]
            kernel.fs.resolve("/tmp/hc/data").labels = LabelPair(Label.of(tag))
        if i == 8:
            attempt(kernel.sys_mkdir, "/tmp/hc/sub")
            attempt(kernel.sys_stat, "/tmp/hc/sub/")
    return outcomes


def build_mixed_world():
    kernel, task = make_kernel()
    owner, tag = secret_tag(kernel)
    kernel.sys_create_file_labeled(owner, "/tmp/hc/locked", LabelPair(Label.of(tag)))
    return kernel, task


class TestObservableParity:
    def test_hooks_audit_results_identical_with_chains_off(self):
        kernel_on, task_on = build_mixed_world()
        out_on = run_mixed_stream(kernel_on, task_on)
        on = counts()
        assert on["walk_hits"] > 0 and on["hookchain_hits"] > 0
        assert on["hookchain_deopts"] > 0
        hooks_on = dict(kernel_on.security.hook_calls)
        audit_on = [str(e) for e in kernel_on.audit]

        with fastpath.configured(path_walk_cache=False):
            kernel_off, task_off = build_mixed_world()
            out_off = run_mixed_stream(kernel_off, task_off)
            assert counts() == dict.fromkeys(on, 0)
            assert memo_state(kernel_off) == ({}, {})
            hooks_off = dict(kernel_off.security.hook_calls)
            audit_off = [str(e) for e in kernel_off.audit]

        assert out_on == out_off
        assert hooks_on == hooks_off
        assert audit_on == audit_off


class TestDeopt:
    def test_task_relabel_retires_the_key(self):
        """Raising the task's label moves it to another pair: the entries
        at its old pair do not answer for it, and the first stat after
        the relabel walks in full instead of replaying."""
        kernel, task = make_kernel()
        tag, _ = kernel.sys_alloc_tag(task, "mine")
        kernel.sys_stat(task, "/tmp/hc/data")
        kernel.sys_stat(task, "/tmp/hc/data")
        assert counts()["walk_hits"] == 2
        old = task.labels
        kernel.sys_set_task_label(
            task, LabelType.SECRECY, task.labels.secrecy.with_tag(tag)
        )
        kernel.sys_stat(task, "/tmp/hc/data")  # allowed: reading less-secret
        assert counts()["walk_hits"] == 2 and counts()["walk_misses"] == 1
        assert (task.labels, None, "/tmp/hc") in kernel.hookchain.walks
        assert (old, None, "/tmp/hc") in kernel.hookchain.walks

    def test_inode_relabel_mid_stream_denies_correctly(self):
        """A direct relabel of a walked directory: the entry's identity
        re-check fails, the entry is dropped, and the full walk denies
        with a fresh audit entry — never a stale allow."""
        kernel, task = make_kernel()
        kernel.sys_stat(task, "/tmp/hc/data")
        kernel.sys_stat(task, "/tmp/hc/data")
        _, tag = secret_tag(kernel)
        kernel.fs.resolve("/tmp/hc").labels = LabelPair(Label.of(tag))
        for attempt in range(2):
            before = len(kernel.audit.denials())
            with pytest.raises(SyscallError) as exc:
                kernel.sys_stat(task, "/tmp/hc/data")
            assert exc.value.errno == EACCES
            assert [e.principal for e in kernel.audit.denials()[before:]] == [
                "inode_permission"
            ]
        assert counts()["hookchain_deopts"] == 1
        assert (task.labels, None, "/tmp/hc") not in kernel.hookchain.walks

    def test_leaf_relabel_denies_through_a_replayed_walk(self):
        """The walk entry covers the directories only: relabeling the
        leaf leaves it valid, and the leaf hook denies on the replay."""
        kernel, task = make_kernel()
        kernel.sys_stat(task, "/tmp/hc/data")
        assert counts()["walk_hits"] == 1
        _, tag = secret_tag(kernel)
        kernel.fs.resolve("/tmp/hc/data").labels = LabelPair(Label.of(tag))
        with pytest.raises(SyscallError) as exc:
            kernel.sys_stat(task, "/tmp/hc/data")
        assert exc.value.errno == EACCES
        assert counts()["walk_hits"] == 2 and counts()["hookchain_deopts"] == 0
        assert kernel.audit.denials()[-1].principal == "inode_getattr"

    def test_fd_chain_inode_relabel_denies_correctly(self):
        kernel, task = make_kernel()
        fd = kernel.sys_open(task, "/tmp/hc/data", "r")
        for _ in range(2):
            kernel.sys_lseek(task, fd, 0)
            kernel.sys_read(task, fd, 4)
        inode = task.lookup_fd(fd).inode
        assert (task.labels, inode, False) in kernel.hookchain.files
        _, tag = secret_tag(kernel)
        inode.labels = LabelPair(Label.of(tag))
        before = len(kernel.audit.denials())
        with pytest.raises(SyscallError) as exc:
            kernel.sys_read(task, fd, 4)
        assert exc.value.errno == EACCES
        assert counts()["hookchain_deopts"] == 1
        assert [e.principal for e in kernel.audit.denials()[before:]] == [
            "file_permission"
        ]
        # Only the probed read proof is dropped; the walk is left.
        assert (task.labels, inode, False) not in kernel.hookchain.files
        assert (task.labels, None, "/tmp/hc") in kernel.hookchain.walks

    def test_namespace_mutation_invalidates_path_chains(self):
        """An unlink empties the memo; later walks re-record and results
        stay correct."""
        kernel, task = make_kernel()
        kernel.sys_close(task, kernel.sys_open(task, "/tmp/hc/other", "w"))
        first = kernel.sys_stat(task, "/tmp/hc/data")
        kernel.sys_unlink(task, "/tmp/hc/other")
        assert memo_state(kernel) == ({}, {})
        assert kernel.sys_stat(task, "/tmp/hc/data") == first
        with pytest.raises(SyscallError) as exc:
            kernel.sys_stat(task, "/tmp/hc/other")
        assert exc.value.errno == ENOENT

    def test_policy_swap_drops_every_chain(self):
        """Installing a module whose permission hooks are not the known
        pure ones empties the memo and keeps it empty: every check runs
        the module's own hook body."""
        kernel, task = make_kernel()
        fd = kernel.sys_open(task, "/tmp/hc/data", "r")
        kernel.sys_read(task, fd, 1)
        assert kernel.hookchain.walks and kernel.hookchain.files
        kernel.set_security_module(LeakySecurityModule("file-read"))
        fastpath.counters.reset()
        for _ in range(3):
            kernel.sys_stat(task, "/tmp/hc/data")
            kernel.sys_read(task, fd, 1)
            kernel.sys_submit(task, [Sqe("read", fd, 1)])
        assert memo_state(kernel) == ({}, {})
        assert counts()["walk_hits"] == 0 and counts()["hookchain_hits"] == 0

    def test_fastpath_reconfigure_keeps_entries(self):
        """``configure()``/``clear_caches()`` leave the memo alone: its
        entries hold the inode and label objects themselves, so an
        intern-table flush cannot make one stale, and a replay after it
        still re-checks identity."""
        kernel, task = make_kernel()
        fd = kernel.sys_open(task, "/tmp/hc/data", "r")
        kernel.sys_read(task, fd, 1)
        recorded = memo_state(kernel)
        fastpath.configure()
        fastpath.clear_caches()
        assert memo_state(kernel) == recorded
        fastpath.counters.reset()
        kernel.sys_stat(task, "/tmp/hc/data")
        kernel.sys_read(task, fd, 1)
        assert counts() == {
            "walk_hits": 1, "walk_misses": 0, "hookchain_hits": 1, "hookchain_deopts": 0,
        }

    def test_flag_off_disables_compilation_entirely(self):
        """With ``path_walk_cache`` off nothing is recorded, and entries
        recorded while it was on are not replayed."""
        kernel, task = make_kernel()
        fd = kernel.sys_open(task, "/tmp/hc/data", "r")
        kernel.sys_read(task, fd, 1)
        recorded = memo_state(kernel)
        with fastpath.configured(path_walk_cache=False):
            fastpath.counters.reset()
            other = kernel.spawn_task("other")
            for who in (task, other):
                ofd = kernel.sys_open(who, "/tmp/hc/data", "r")
                kernel.sys_stat(who, "/tmp/hc/data")
                kernel.sys_stat(who, "/dev/null")
                kernel.sys_read(who, ofd, 1)
                kernel.sys_submit(who, [Sqe("read", ofd, 1)])
            assert counts() == dict.fromkeys(counts(), 0)
            assert memo_state(kernel) == recorded


#: Events that can change a verdict or a walk: each empties the memo.
INVALIDATING_EVENTS = {
    "unlink": lambda k, t: k.sys_unlink(t, "/tmp/hc/other"),
    "module_swap": lambda k, t: k.set_security_module(LaminarSecurityModule()),
    "crash": lambda k, t: k.crash(),
    "remount": lambda k, t: k.remount(),
}

#: Events that cannot make an entry stale, so the memo keeps every entry:
#: a new name changes no recorded walk (a walk that missed it raised
#: ENOENT and was never recorded), and a replication event changes no
#: label pair in any key.
KEEPING_EVENTS = {
    "mkdir": lambda k, t: k.sys_mkdir(t, "/tmp/hc/sub"),
    "mkdir_labeled": lambda k, t: k.sys_mkdir_labeled(t, "/tmp/hc/sub", LabelPair.EMPTY),
    "replication": lambda k, t: k.apply_replication(1),
}


def warm_memo(kernel, task):
    """Record walks and held-file proofs; returns a read-only fd."""
    kernel.sys_close(task, kernel.sys_open(task, "/tmp/hc/other", "w"))
    fd = kernel.sys_open(task, "/tmp/hc/data", "r")
    kernel.sys_read(task, fd, 1)
    kernel.sys_submit(task, [Sqe("read", fd, 1)])
    return fd


class TestInvalidate:
    @pytest.mark.parametrize("event", sorted(INVALIDATING_EVENTS))
    def test_event_empties_the_memo(self, event):
        kernel, task = make_kernel()
        warm_memo(kernel, task)
        assert kernel.hookchain.walks and kernel.hookchain.files
        INVALIDATING_EVENTS[event](kernel, task)
        assert memo_state(kernel) == ({}, {})

    @pytest.mark.parametrize("event", sorted(KEEPING_EVENTS))
    def test_event_keeps_the_memo(self, event):
        """The memo keeps every entry across the event and replays them
        after it, and every later outcome, hook count and audit entry is
        the one a memo-off run gives."""

        def run():
            kernel, task = make_kernel()
            fd = warm_memo(kernel, task)
            recorded = memo_state(kernel)
            KEEPING_EVENTS[event](kernel, task)
            kept = memo_state(kernel) == recorded
            fastpath.counters.reset()
            outcomes = []
            for call, args in (
                (kernel.sys_stat, ("/tmp/hc/data",)),
                (kernel.sys_stat, ("/tmp/hc/sub",)),
                (kernel.sys_stat, ("/tmp/hc/sub/x",)),
                (kernel.sys_open, ("/tmp/hc/sub/f", "w")),
                (kernel.sys_stat, ("/tmp/hc/sub/f",)),
                (kernel.sys_lseek, (fd, 0)),
                (kernel.sys_read, (fd, 4)),
                (kernel.sys_submit, ([Sqe("read", fd, 2), Sqe("stat", "/tmp/hc/other")],)),
            ):
                try:
                    outcomes.append(call(task, *args))
                except SyscallError as exc:
                    outcomes.append(exc.errno)
            hits = counts()["walk_hits"] + counts()["hookchain_hits"]
            audit = [str(e) for e in kernel.audit]
            return kept, hits, outcomes, dict(kernel.security.hook_calls), audit

        kept, hits, *on = run()
        assert kept and hits > 0
        with fastpath.configured(path_walk_cache=False):
            _, hits_off, *off = run()
        assert hits_off == 0
        assert on == off


class TestSharedProofs:
    """The traffic label-pair keys serve: a proof recorded under a pair
    answers for every task at that pair, whenever it got there, and for
    no task anywhere else."""

    def test_task_spawned_at_a_walked_pair_hits_first_time(self):
        """A task spawned at a pair another task already walked and read
        under replays on its first stat and its first read, with the
        outcomes and hook counts of a memo-off run."""

        def run():
            kernel, task = make_kernel()
            kernel.sys_read(task, kernel.sys_open(task, "/tmp/hc/data", "r"), 1)
            late = kernel.spawn_task("late")
            kernel.security.reset_counters()
            fastpath.counters.reset()
            stat = kernel.sys_stat(late, "/tmp/hc/data")
            first_stat = counts()
            data = kernel.sys_read(late, kernel.sys_open(late, "/tmp/hc/data", "r"), 7)
            return (stat, data, dict(kernel.security.hook_calls)), first_stat, counts()

        on, first_stat, after = run()
        assert first_stat == {
            "walk_hits": 1, "walk_misses": 0, "hookchain_hits": 0, "hookchain_deopts": 0,
        }
        assert after == {
            "walk_hits": 2, "walk_misses": 0, "hookchain_hits": 1, "hookchain_deopts": 0,
        }
        with fastpath.configured(path_walk_cache=False):
            off, _, _ = run()
        assert on == off

    def test_task_returning_to_a_pair_replays_its_entries(self):
        """A task that leaves its pair walks and reads cold at the new one,
        and replays its old entries once it is back."""
        kernel, task = make_kernel()
        tag, _ = kernel.sys_alloc_tag(task, "t")
        fd = kernel.sys_open(task, "/tmp/hc/data", "r")
        kernel.sys_read(task, fd, 1)
        home = task.labels
        kernel.sys_set_task_label(task, LabelType.SECRECY, Label.of(tag))
        fastpath.counters.reset()
        kernel.sys_stat(task, "/tmp/hc/data")
        kernel.sys_read(task, fd, 1)
        assert counts() == {
            "walk_hits": 0, "walk_misses": 1, "hookchain_hits": 0, "hookchain_deopts": 0,
        }
        kernel.sys_set_task_label(task, LabelType.SECRECY, Label.EMPTY)
        assert task.labels == home
        fastpath.counters.reset()
        hooks = dict(kernel.security.hook_calls)
        kernel.sys_stat(task, "/tmp/hc/data")
        kernel.sys_read(task, fd, 1)
        assert counts() == {
            "walk_hits": 1, "walk_misses": 0, "hookchain_hits": 1, "hookchain_deopts": 0,
        }
        ran = {
            name: kernel.security.hook_calls[name] - hooks[name]
            for name in ("inode_permission", "inode_getattr", "file_permission")
        }
        assert ran == {"inode_permission": 3, "inode_getattr": 1, "file_permission": 1}

    def test_principal_rebuilt_by_replication_walks_again_and_is_denied(self):
        """Replication rebuilds a principal at another pair: the memo keeps
        its entries, none of them answers for the rebuilt principal, whose
        stat, write and batched write are denied with fresh audit
        entries, and a task still at the old pair keeps replaying them."""
        from repro.core import CapabilitySet
        from repro.core.principal import Principal

        kernel, task = make_kernel()
        fd = kernel.sys_open(task, "/tmp/hc/data", "w")
        kernel.sys_write(task, fd, b"x")
        other = kernel.spawn_task("other")
        recorded = memo_state(kernel)
        secret, trusted = kernel.tags.alloc("s"), kernel.tags.alloc("t")
        task.security = Principal(
            task.name,
            LabelPair(Label.of(secret), Label.of(trusted)),
            CapabilitySet.EMPTY,
        )
        assert kernel.apply_replication(1)
        assert memo_state(kernel) == recorded

        fastpath.counters.reset()
        denials = len(kernel.audit.denials())
        for call in (
            lambda: kernel.sys_stat(task, "/tmp/hc/data"),
            lambda: kernel.sys_write(task, fd, b"x"),
        ):
            with pytest.raises(SyscallError) as exc:
                call()
            assert exc.value.errno == EACCES
        assert kernel.sys_submit(task, [Sqe("write", fd, b"x")])[0].errno == EACCES
        assert [e.principal for e in kernel.audit.denials()[denials:]] == [
            "inode_permission", "file_permission", "file_permission",
        ]
        assert counts() == {
            "walk_hits": 0, "walk_misses": 1, "hookchain_hits": 0, "hookchain_deopts": 0,
        }
        kernel.sys_stat(other, "/tmp/hc/data")
        assert counts()["walk_hits"] == 1
