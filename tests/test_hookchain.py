"""The OS permission memo (:mod:`repro.osim.hookchain`).

The contract under test: an allowed directory walk and an allowed
held-file check are recorded on their first run and replayed after it
with identical hook counts; denials are never recorded; a relabel of a
recorded inode drops the entry and the full hooks decide again; every
event that can change a verdict or a walk empties the memo; and hook
counters, audit entries, denials and syscall results are identical with
the memo switched off.
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
    """A kernel with ``/tmp/hc/data`` written by a setup task, plus a
    fresh task whose memo keys are all cold; hook and fastpath counters
    start at zero."""
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


def owned_by(kernel, task):
    """The memo entries recorded for ``task`` (both kinds)."""
    memo = kernel.hookchain
    return [key for key in (*memo.walks, *memo.files) if key[0] == task.tid]


def secret_tag(kernel):
    owner = kernel.spawn_task("owner")
    tag, _ = kernel.sys_alloc_tag(owner, "s")
    return owner, tag


class TestCompileAndHit:
    def test_stat_chain_compiles_then_replays(self):
        """A stat's walk is recorded on its first allowed run and replayed
        on every later one, with the same hook counts; the leaf
        ``inode_getattr`` runs every time."""
        kernel, task = make_kernel()
        first = kernel.sys_stat(task, "/tmp/hc/data")
        assert counts() == {
            "walk_hits": 0, "walk_misses": 1, "hookchain_hits": 0, "hookchain_deopts": 0,
        }
        hooks = dict(kernel.security.hook_calls)
        assert kernel.sys_stat(task, "/tmp/hc/data") == first
        assert counts()["walk_hits"] == 1
        per_stat = {
            name: kernel.security.hook_calls[name] - hooks.get(name, 0)
            for name in ("inode_permission", "inode_getattr")
        }
        assert per_stat == {"inode_permission": 3, "inode_getattr": 1}
        assert len(owned_by(kernel, task)) == 1

    def test_open_chain_keyed_on_flags(self):
        """Every open mode shares the walk entry; each open's own mode
        check still runs after the replayed walk."""
        kernel, task = make_kernel()
        kernel.sys_close(task, kernel.sys_open(task, "/tmp/hc/data", "r"))
        before = kernel.security.hook_calls["inode_permission"]
        kernel.sys_close(task, kernel.sys_open(task, "/tmp/hc/data", "w"))
        assert counts()["walk_hits"] == 1
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
        assert len(owned_by(kernel, task)) == 2  # the walk and the file

    @pytest.mark.parametrize("first", ["sys_write", "sys_submit"])
    def test_write_proof_is_shared_with_submit(self, first):
        """``sys_write`` and ``sys_submit`` record and replay the same
        held-file entries: a proof made by either is replayed by the
        other."""
        kernel, task = make_kernel()
        fd = kernel.sys_open(task, "/tmp/hc/data", "w")
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
        for _ in range(4):
            with pytest.raises(SyscallError) as exc:
                kernel.sys_stat(task, "/tmp/vault/f")
            assert exc.value.errno == EACCES
            with pytest.raises(SyscallError) as exc:
                kernel.sys_read(task, shared, 1)
            assert exc.value.errno == EACCES
            cqe = kernel.sys_submit(task, [Sqe("read", shared, 1)])[0]
            assert cqe.errno == EACCES
        assert owned_by(kernel, task) == []
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
            assert owned_by(kernel_off, task_off) == []
            hooks_off = dict(kernel_off.security.hook_calls)
            audit_off = [str(e) for e in kernel_off.audit]

        assert out_on == out_off
        assert hooks_on == hooks_off
        assert audit_on == audit_off


class TestDeopt:
    def test_task_relabel_retires_the_key(self):
        """Raising the task's label moves its label epoch: the old entry
        is unreachable and the first stat after the relabel walks in
        full instead of replaying."""
        kernel, task = make_kernel()
        tag, _ = kernel.sys_alloc_tag(task, "mine")
        kernel.sys_stat(task, "/tmp/hc/data")
        kernel.sys_stat(task, "/tmp/hc/data")
        assert counts()["walk_hits"] == 1
        kernel.sys_set_task_label(
            task, LabelType.SECRECY, task.labels.secrecy.with_tag(tag)
        )
        kernel.sys_stat(task, "/tmp/hc/data")  # allowed: reading less-secret
        assert counts()["walk_hits"] == 1

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
        assert owned_by(kernel, task) == []

    def test_leaf_relabel_denies_through_a_replayed_walk(self):
        """The walk entry covers the directories only: relabeling the
        leaf leaves it valid, and the leaf hook denies on the replay."""
        kernel, task = make_kernel()
        kernel.sys_stat(task, "/tmp/hc/data")
        _, tag = secret_tag(kernel)
        kernel.fs.resolve("/tmp/hc/data").labels = LabelPair(Label.of(tag))
        with pytest.raises(SyscallError) as exc:
            kernel.sys_stat(task, "/tmp/hc/data")
        assert exc.value.errno == EACCES
        assert counts()["walk_hits"] == 1
        assert kernel.audit.denials()[-1].principal == "inode_getattr"

    def test_fd_chain_inode_relabel_denies_correctly(self):
        kernel, task = make_kernel()
        fd = kernel.sys_open(task, "/tmp/hc/data", "r")
        for _ in range(2):
            kernel.sys_lseek(task, fd, 0)
            kernel.sys_read(task, fd, 4)
        _, tag = secret_tag(kernel)
        kernel.fs.resolve("/tmp/hc/data").labels = LabelPair(Label.of(tag))
        before = len(kernel.audit.denials())
        with pytest.raises(SyscallError) as exc:
            kernel.sys_read(task, fd, 4)
        assert exc.value.errno == EACCES
        assert counts()["hookchain_deopts"] == 1
        assert [e.principal for e in kernel.audit.denials()[before:]] == [
            "file_permission"
        ]
        assert len(owned_by(kernel, task)) == 1  # only the walk is left

    def test_namespace_mutation_invalidates_path_chains(self):
        """An unlink empties the memo; later walks re-record and results
        stay correct."""
        kernel, task = make_kernel()
        kernel.sys_close(task, kernel.sys_open(task, "/tmp/hc/other", "w"))
        first = kernel.sys_stat(task, "/tmp/hc/data")
        kernel.sys_unlink(task, "/tmp/hc/other")
        assert owned_by(kernel, task) == []
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
        for _ in range(3):
            kernel.sys_stat(task, "/tmp/hc/data")
            kernel.sys_read(task, fd, 1)
            kernel.sys_submit(task, [Sqe("read", fd, 1)])
        assert kernel.hookchain.walks == {} and kernel.hookchain.files == {}
        assert counts()["walk_hits"] == 0 and counts()["hookchain_hits"] == 0

    def test_fastpath_reconfigure_keeps_entries(self):
        """``configure()``/``clear_caches()`` leave the memo alone: its
        entries hold the inode and label objects themselves, so an
        intern-table flush cannot make one stale, and a replay after it
        still re-checks identity."""
        kernel, task = make_kernel()
        fd = kernel.sys_open(task, "/tmp/hc/data", "r")
        kernel.sys_read(task, fd, 1)
        walks, files = dict(kernel.hookchain.walks), dict(kernel.hookchain.files)
        fastpath.configure()
        fastpath.clear_caches()
        assert kernel.hookchain.walks == walks and kernel.hookchain.files == files
        kernel.sys_stat(task, "/tmp/hc/data")
        kernel.sys_read(task, fd, 1)
        assert counts()["walk_hits"] == 1 and counts()["hookchain_hits"] == 1

    def test_flag_off_disables_compilation_entirely(self):
        """With ``path_walk_cache`` off nothing is recorded, and entries
        recorded while it was on are not replayed."""
        kernel, task = make_kernel()
        fd = kernel.sys_open(task, "/tmp/hc/data", "r")
        kernel.sys_read(task, fd, 1)
        recorded = owned_by(kernel, task)
        with fastpath.configured(path_walk_cache=False):
            fastpath.counters.reset()
            other = kernel.spawn_task("other")
            for who in (task, other):
                ofd = kernel.sys_open(who, "/tmp/hc/data", "r")
                kernel.sys_stat(who, "/tmp/hc/data")
                kernel.sys_read(who, ofd, 1)
                kernel.sys_submit(who, [Sqe("read", ofd, 1)])
            assert counts() == dict.fromkeys(counts(), 0)
            assert owned_by(kernel, other) == []
            assert owned_by(kernel, task) == recorded


INVALIDATING_EVENTS = {
    "unlink": lambda k, t: k.sys_unlink(t, "/tmp/hc/other"),
    "mkdir": lambda k, t: k.sys_mkdir(t, "/tmp/hc/sub"),
    "mkdir_labeled": lambda k, t: k.sys_mkdir_labeled(t, "/tmp/hc/sub", LabelPair.EMPTY),
    "module_swap": lambda k, t: k.set_security_module(LaminarSecurityModule()),
    "crash": lambda k, t: k.crash(),
    "remount": lambda k, t: k.remount(),
    "replication": lambda k, t: k.apply_replication(1),
}


class TestInvalidate:
    @pytest.mark.parametrize("event", sorted(INVALIDATING_EVENTS))
    def test_event_empties_the_memo(self, event):
        kernel, task = make_kernel()
        kernel.sys_close(task, kernel.sys_open(task, "/tmp/hc/other", "w"))
        fd = kernel.sys_open(task, "/tmp/hc/data", "r")
        kernel.sys_read(task, fd, 1)
        kernel.sys_submit(task, [Sqe("read", fd, 1)])
        assert kernel.hookchain.walks and kernel.hookchain.files
        INVALIDATING_EVENTS[event](kernel, task)
        assert kernel.hookchain.walks == {} and kernel.hookchain.files == {}
