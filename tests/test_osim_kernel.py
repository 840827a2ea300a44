"""Unit and integration tests for the kernel syscall layer + Laminar LSM."""

import pytest

from repro.core import (
    Capability,
    CapabilitySet,
    CapType,
    Label,
    LabelPair,
    LabelType,
    fastpath,
)
from repro.osim import (
    EACCES,
    Kernel,
    LaminarSecurityModule,
    Mask,
    NullSecurityModule,
    SyscallError,
    TCB_TAG,
)


@pytest.fixture
def k() -> Kernel:
    return Kernel(LaminarSecurityModule())


def tainted_task(k: Kernel, name="t"):
    """A task tainted with a fresh secrecy tag it can also drop."""
    task = k.spawn_task(name)
    tag, _ = k.sys_alloc_tag(task, name + "-tag")
    k.sys_set_task_label(task, LabelType.SECRECY, Label.of(tag))
    return task, tag


class TestTagSyscalls:
    def test_alloc_tag_grants_dual_caps(self, k):
        task = k.spawn_task("p")
        tag, granted = k.sys_alloc_tag(task, "x")
        assert task.capabilities.can_add(tag)
        assert task.capabilities.can_remove(tag)
        assert granted == CapabilitySet.dual(tag)

    def test_set_task_label_checked(self, k):
        task = k.spawn_task("p")
        tag, _ = k.sys_alloc_tag(task)
        k.sys_set_task_label(task, LabelType.SECRECY, Label.of(tag))
        assert task.labels.secrecy == Label.of(tag)

    def test_set_task_label_without_cap_denied(self, k):
        task = k.spawn_task("p")
        other = k.spawn_task("q")
        tag, _ = k.sys_alloc_tag(other)
        with pytest.raises(Exception):
            k.sys_set_task_label(task, LabelType.SECRECY, Label.of(tag))

    def test_drop_capabilities_is_permanent(self, k):
        task = k.spawn_task("p")
        tag, _ = k.sys_alloc_tag(task)
        k.sys_drop_capabilities(task, [Capability(tag, CapType.MINUS)])
        assert not task.capabilities.can_remove(tag)
        assert task.capabilities.can_add(tag)


class TestTCB:
    def test_drop_label_tcb_requires_tcb_tag(self, k):
        task, _ = tainted_task(k)
        imposter = k.spawn_task("imposter")
        imposter.pgid = task.pgid
        with pytest.raises(SyscallError) as err:
            k.sys_drop_label_tcb(imposter, task.tid)
        assert "tcb" in str(err.value)

    def test_drop_label_tcb_same_address_space_only(self, k):
        task, _ = tainted_task(k)
        tcb = k.spawn_task("tcb", labels=LabelPair(Label.EMPTY, Label.of(TCB_TAG)))
        assert tcb.pgid != task.pgid
        with pytest.raises(SyscallError):
            k.sys_drop_label_tcb(tcb, task.tid)

    def test_drop_label_tcb_clears_labels_without_caps(self, k):
        task, tag = tainted_task(k)
        k.sys_drop_capabilities(task, [Capability(tag, CapType.MINUS)])
        tcb = k.spawn_task(
            "tcb",
            labels=LabelPair(Label.EMPTY, Label.of(TCB_TAG)),
            pgid=task.pgid,
        )
        k.sys_drop_label_tcb(tcb, task.tid)
        assert task.labels.is_empty

    def test_set_security_tcb_guarded(self, k):
        task = k.spawn_task("p")
        with pytest.raises(SyscallError):
            k.sys_set_security_tcb(
                task, task.tid, LabelPair.EMPTY, CapabilitySet.EMPTY
            )


class TestFileSyscalls:
    def test_open_read_write_roundtrip(self, k):
        task = k.spawn_task("p")
        fd = k.sys_creat(task, "/tmp/f")
        k.sys_write(task, fd, b"data")
        k.sys_close(task, fd)
        fd = k.sys_open(task, "/tmp/f", "r")
        assert k.sys_read(task, fd) == b"data"

    def test_unlabeled_cannot_read_secret_file(self, k):
        alice = k.spawn_task("alice")
        tag, _ = k.sys_alloc_tag(alice, "a")
        fd = k.sys_create_file_labeled(
            alice, "/tmp/secret", LabelPair(Label.of(tag))
        )
        assert k.fs.resolve("/tmp/secret").labels.secrecy == Label.of(tag)
        mallory = k.spawn_task("mallory")
        with pytest.raises(SyscallError) as err:
            k.sys_open(mallory, "/tmp/secret", "r")
        assert "EACCES" in str(err.value)

    def test_tainted_plain_creat_in_unlabeled_dir_denied(self, k):
        # A tainted task's plain creat would attach its labels to a file
        # whose *name* lives in an unlabeled directory — denied.
        alice, tag = tainted_task(k, "alice")
        with pytest.raises(SyscallError):
            k.sys_creat(alice, "/tmp/secret2")

    def test_write_up_allowed_read_back_denied_until_tainted(self, k):
        writer = k.spawn_task("w")
        tag, caps = k.sys_alloc_tag(writer)
        fd = k.sys_create_file_labeled(writer, "/tmp/up", LabelPair(Label.of(tag)))
        k.sys_write(writer, fd, b"x")  # write up: {} ⊆ {tag}
        with pytest.raises(SyscallError):
            k.sys_open(writer, "/tmp/up", "r")
        k.sys_set_task_label(writer, LabelType.SECRECY, Label.of(tag))
        fd = k.sys_open(writer, "/tmp/up", "r")
        assert k.sys_read(writer, fd) == b"x"

    def test_tainted_cannot_create_labeled_file_in_unlabeled_dir(self, k):
        alice, tag = tainted_task(k, "alice")
        with pytest.raises(SyscallError):
            k.sys_create_file_labeled(
                alice, "/tmp/leakyname", LabelPair(Label.of(tag))
            )

    def test_precreate_then_taint_workflow(self, k):
        task = k.spawn_task("p")
        tag, _ = k.sys_alloc_tag(task)
        fd = k.sys_create_file_labeled(task, "/tmp/pre", LabelPair(Label.of(tag)))
        k.sys_set_task_label(task, LabelType.SECRECY, Label.of(tag))
        k.sys_write(task, fd, b"secret")
        k.sys_set_task_label(task, LabelType.SECRECY, Label.EMPTY)

    def test_stat_checks_inode_label(self, k):
        alice = k.spawn_task("alice")
        tag, _ = k.sys_alloc_tag(alice)
        k.sys_create_file_labeled(alice, "/tmp/s", LabelPair(Label.of(tag)))
        mallory = k.spawn_task("m")
        with pytest.raises(SyscallError):
            k.sys_stat(mallory, "/tmp/s")

    def test_stat_returns_metadata(self, k):
        task = k.spawn_task("p")
        fd = k.sys_creat(task, "/tmp/meta")
        k.sys_write(task, fd, b"12345")
        st = k.sys_stat(task, "/tmp/meta")
        assert st["size"] == 5 and st["type"] == "regular"

    def test_unlink_checks_parent_both_ways(self, k):
        alice, tag = tainted_task(k, "alice")
        plain = k.spawn_task("plain")
        fd = k.sys_creat(plain, "/tmp/junk")
        with pytest.raises(SyscallError):
            k.sys_unlink(alice, "/tmp/junk")  # alice tainted: no write down
        k.sys_unlink(plain, "/tmp/junk")

    def test_mkdir_labeled(self, k):
        task = k.spawn_task("p")
        tag, _ = k.sys_alloc_tag(task)
        k.sys_mkdir_labeled(task, "/tmp/vault", LabelPair(Label.of(tag)))
        assert k.fs.resolve("/tmp/vault").labels.secrecy == Label.of(tag)

    def test_chdir_and_relative_resolution(self, k):
        task = k.spawn_task("p")
        k.sys_mkdir(task, "/tmp/wk")
        k.sys_chdir(task, "/tmp/wk")
        fd = k.sys_creat(task, "rel")
        k.sys_close(task, fd)
        assert k.fs.resolve("/tmp/wk/rel") is not None

    def test_device_io(self, k):
        task = k.spawn_task("p")
        fd = k.sys_open(task, "/dev/zero", "r")
        assert k.sys_read(task, fd, 4) == b"\0\0\0\0"
        fd = k.sys_open(task, "/dev/null", "w")
        assert k.sys_write(task, fd, b"gone") == 4


class TestProcessSyscalls:
    def test_fork_inherits_labels_and_caps(self, k):
        parent, tag = tainted_task(k)
        child = k.sys_fork(parent)
        assert child.labels == parent.labels
        assert child.capabilities == parent.capabilities
        assert child.pgid != parent.pgid

    def test_fork_capability_subset(self, k):
        parent = k.spawn_task("p")
        tag, _ = k.sys_alloc_tag(parent)
        child = k.sys_fork(parent, CapabilitySet.plus(tag))
        assert child.capabilities == CapabilitySet.plus(tag)

    def test_fork_cannot_exceed_parent(self, k):
        parent = k.spawn_task("p")
        other = k.spawn_task("q")
        tag, _ = k.sys_alloc_tag(other)
        with pytest.raises(SyscallError):
            k.sys_fork(parent, CapabilitySet.plus(tag))

    def test_spawn_thread_shares_address_space(self, k):
        parent = k.spawn_task("p")
        thread = k.sys_spawn_thread(parent)
        assert thread.pgid == parent.pgid

    def test_exec_denied_on_lower_integrity_image(self, k):
        publisher = k.spawn_task("pub")
        tag, _ = k.sys_alloc_tag(publisher)
        # unendorsed image
        fd = k.sys_creat(publisher, "/tmp/plugin")
        k.sys_close(publisher, fd)
        runner = k.spawn_task("runner")
        k.sys_alloc_tag(runner)
        runner.security.grant(CapabilitySet.plus(tag))
        k.sys_set_task_label(runner, LabelType.INTEGRITY, Label.of(tag))
        runner.cwd = k.fs.resolve("/tmp")
        with pytest.raises(SyscallError):
            k.sys_exec(runner, "plugin")

    def test_exit_suppresses_notification(self, k):
        task = k.spawn_task("p")
        k.sys_exit(task, 3)
        assert not task.alive and task.exit_code == 3
        with pytest.raises(SyscallError):
            k.sys_read(task, 3)

    def test_kill_mediated_by_labels(self, k):
        alice, _ = tainted_task(k, "alice")
        victim = k.spawn_task("victim")
        with pytest.raises(SyscallError):
            k.sys_kill(alice, victim.tid, 9)  # write down via signal
        k.sys_kill(victim, alice.tid, 9)  # write up is fine
        assert alice.pending_signals == [(9, victim.tid)]

    def test_kill_missing_task_and_denied_look_identical(self, k):
        sender = k.spawn_task("s")
        with pytest.raises(SyscallError) as missing:
            k.sys_kill(sender, 424242, 9)
        assert "ESRCH" in str(missing.value)


class TestSocketsAndNetwork:
    def test_tainted_task_cannot_transmit(self, k):
        alice, _ = tainted_task(k, "alice")
        with pytest.raises(SyscallError):
            k.sys_transmit(alice, b"secret")
        assert k.net.transmitted == []

    def test_untainted_transmit_ok(self, k):
        task = k.spawn_task("p")
        k.sys_transmit(task, b"hello")
        assert k.net.transmitted == [b"hello"]

    def test_labeled_socket_pair(self, k):
        alice, tag = tainted_task(k, "alice")
        s1 = k.sys_socket(alice)
        s2 = k.sys_socket(alice)
        s1.connect(s2)
        k.sys_send(alice, s1, b"ping")
        assert k.sys_recv(alice, s2) == b"ping"

    def test_mismatched_socket_labels_drop_silently(self, k):
        alice, tag = tainted_task(k, "alice")
        labeled = k.sys_socket(alice)
        plain_task = k.spawn_task("plain")
        plain = k.sys_socket(plain_task)
        labeled.connect(plain)
        assert k.sys_send(alice, labeled, b"leak") == 4
        assert k.sys_recv(plain_task, plain) == b""


class TestMemorySyscalls:
    def test_mmap_and_fault_recheck(self, k):
        task = k.spawn_task("p")
        fd = k.sys_creat(task, "/tmp/m")
        mapping = k.sys_mmap(task, fd, Mask.READ)
        k.fault_protection(task, mapping)

    def test_fault_after_taint_denied(self, k):
        task = k.spawn_task("p")
        fd = k.sys_creat(task, "/tmp/m")
        mapping = k.sys_mmap(task, fd, Mask.WRITE)
        tag, _ = k.sys_alloc_tag(task)
        k.sys_set_task_label(task, LabelType.SECRECY, Label.of(tag))
        with pytest.raises(SyscallError):
            k.fault_protection(task, mapping)


class TestAccessDirection:
    """Open modes and mmap masks reach the LSM as the right direction of
    flow: every writing mode is a write (denied down), every reading mode
    a read (denied up).  Two cases: a task tainted with ``t`` against an
    unlabeled file, and an unlabeled task against a ``{t}`` file."""

    MODES = ("r", "w", "a", "r+", "w+")
    DENIED = {
        "write-down": {"w", "a", "r+", "w+"},
        "read-up": {"r", "r+", "w+"},
    }

    @staticmethod
    def _world(case):
        kernel = Kernel(LaminarSecurityModule())
        owner = kernel.spawn_task("owner")
        tag, _ = kernel.sys_alloc_tag(owner, "t")
        secret = LabelPair(Label.of(tag))
        kernel.sys_mkdir(owner, "/tmp/dir")
        if case == "write-down":
            fd = kernel.sys_creat(owner, "/tmp/dir/f")
            actor = kernel.spawn_task("actor", labels=secret)
        else:
            fd = kernel.sys_create_file_labeled(owner, "/tmp/dir/f", secret)
            actor = kernel.spawn_task("actor")
        kernel.sys_close(owner, fd)
        return kernel, actor

    @staticmethod
    def _chain_hits():
        return fastpath.counters.snapshot()["hookchain_hits"]

    def _assert_one_denial(self, kernel, before, hook, verb):
        entries = kernel.audit.denials()[before:]
        assert len(entries) == 1
        assert entries[0].principal == hook
        assert f"may not {verb}" in entries[0].detail

    @pytest.mark.parametrize("case", ["write-down", "read-up"])
    @pytest.mark.parametrize("mode", MODES)
    def test_open_mode_direction(self, case, mode):
        kernel, actor = self._world(case)
        # First bake the open chain of a mode this case allows: the chain
        # is keyed on the mode bits and must never answer for another mode.
        warm = "r" if case == "write-down" else "w"
        for _ in range(9):
            kernel.sys_close(actor, kernel.sys_open(actor, "/tmp/dir/f", warm))
        hits = self._chain_hits()
        assert hits >= 1
        before = len(kernel.audit.denials())
        if mode in self.DENIED[case]:
            with pytest.raises(SyscallError) as e:
                kernel.sys_open(actor, "/tmp/dir/f", mode)
            assert e.value.errno == EACCES
            verb = "write" if case == "write-down" else "read"
            self._assert_one_denial(kernel, before, "inode_permission", verb)
        else:
            # Nine times: the chain for this mode bakes and replays.
            for _ in range(9):
                kernel.sys_close(actor, kernel.sys_open(actor, "/tmp/dir/f", mode))
            assert len(kernel.audit.denials()) == before
            assert self._chain_hits() > hits

    @pytest.mark.parametrize("case", ["write-down", "read-up"])
    @pytest.mark.parametrize("mask", ["READ", "WRITE"])
    def test_mmap_mask_direction(self, case, mask):
        kernel, actor = self._world(case)
        fd = kernel.sys_open(actor, "/tmp/dir/f", "r" if case == "write-down" else "w")
        bits = getattr(Mask, mask)
        before = len(kernel.audit.denials())
        if (case == "write-down") == (mask == "WRITE"):
            with pytest.raises(SyscallError) as e:
                kernel.sys_mmap(actor, fd, bits)
            assert e.value.errno == EACCES
            self._assert_one_denial(kernel, before, "mmap_file", mask.lower())
        else:
            mapping = kernel.sys_mmap(actor, fd, bits)
            kernel.fault_protection(actor, mapping)
            assert mapping.mask == bits
            assert len(kernel.audit.denials()) == before


class TestVanillaModuleAllowsEverything:
    def test_no_denials(self):
        k = Kernel(NullSecurityModule())
        alice = k.spawn_task("alice")
        tag, _ = k.sys_alloc_tag(alice)
        k.sys_set_task_label(alice, LabelType.SECRECY, Label.of(tag))
        k.sys_transmit(alice, b"leak")  # vanilla Linux doesn't care
        assert k.net.transmitted == [b"leak"]
        assert k.security.denials == {}

    def test_hooks_still_counted(self):
        k = Kernel(NullSecurityModule())
        task = k.spawn_task("p")
        k.sys_creat(task, "/tmp/x")
        assert k.security.hook_calls["inode_create"] == 1


class TestFdAllocation:
    def test_lowest_free_fd_reused_after_close(self, k):
        """POSIX open() semantics: the lowest-numbered free descriptor is
        allocated, so closed numbers are recycled instead of growing the
        table forever."""
        task = k.spawn_task("p")
        a = k.sys_creat(task, "/tmp/fa")
        b = k.sys_creat(task, "/tmp/fb")
        c = k.sys_creat(task, "/tmp/fc")
        assert [a, b, c] == [3, 4, 5]
        k.sys_close(task, a)
        k.sys_close(task, c)
        assert k.sys_creat(task, "/tmp/fd") == a  # lowest free first
        assert k.sys_creat(task, "/tmp/fe") == c
        assert k.sys_creat(task, "/tmp/ff") == 6  # then fresh numbers

    def test_fd_numbers_stay_bounded_under_churn(self, k):
        task = k.spawn_task("p")
        for i in range(50):
            fd = k.sys_creat(task, f"/tmp/churn{i}")
            assert fd == 3
            k.sys_close(task, fd)

    def test_share_fd_tracks_references(self, k):
        """The same open file description installed in two tables carries
        two references; each close drops one."""
        donor = k.spawn_task("donor")
        peer = k.spawn_task("peer")
        fd = k.sys_creat(donor, "/tmp/shared")
        file = donor.lookup_fd(fd)
        assert file.refs == 1
        peer_fd = k.share_fd(donor, fd, peer)
        assert file.refs == 2
        k.sys_close(donor, fd)
        assert file.refs == 1
        k.sys_close(peer, peer_fd)
        assert file.refs == 0


class TestPathWalkCache:
    """The path-walk verdict cache must be invisible: identical hook
    counts, and immediate invalidation on anything that could change a
    walk's outcome."""

    def test_repeated_stat_hits_cache_with_identical_hook_counts(self, k):
        from repro.core import fastpath

        task = k.spawn_task("p")
        k.sys_mkdir(task, "/tmp/wc")
        k.sys_creat(task, "/tmp/wc/f")
        k.sys_stat(task, "/tmp/wc/f")
        hooks_per_stat = None
        before = k.security.hook_calls["inode_permission"]
        k.sys_stat(task, "/tmp/wc/f")
        hooks_per_stat = k.security.hook_calls["inode_permission"] - before
        hits_before = fastpath.counters.walk_hits
        for _ in range(5):
            before = k.security.hook_calls["inode_permission"]
            k.sys_stat(task, "/tmp/wc/f")
            assert (
                k.security.hook_calls["inode_permission"] - before
                == hooks_per_stat
            )
        assert fastpath.counters.walk_hits >= hits_before + 5

    def test_label_change_invalidates(self, k):
        """Raising secrecy must not let a task keep using walk verdicts
        from its old label: the epoch in the key forces a re-walk."""
        task = k.spawn_task("p")
        k.sys_mkdir(task, "/tmp/wc2")
        k.sys_creat(task, "/tmp/wc2/f")
        k.sys_stat(task, "/tmp/wc2/f")  # warm
        tag, _ = k.sys_alloc_tag(task)
        k.sys_set_task_label(task, LabelType.INTEGRITY, Label.of(tag))
        # Now the walk through unlabeled /tmp is a read-down for an
        # integrity-labeled task: must be re-checked and denied, cached
        # verdict notwithstanding.
        with pytest.raises(SyscallError):
            k.sys_stat(task, "/tmp/wc2/f")

    def test_unlink_invalidates(self, k):
        task = k.spawn_task("p")
        k.sys_mkdir(task, "/tmp/wc3")
        k.sys_creat(task, "/tmp/wc3/f")
        k.sys_stat(task, "/tmp/wc3/f")  # warm the prefix
        k.sys_unlink(task, "/tmp/wc3/f")
        with pytest.raises(SyscallError) as e:
            k.sys_stat(task, "/tmp/wc3/f")
        assert e.value.errno == 2  # ENOENT, not a stale cached walk

    def test_directory_relabel_invalidates(self, k):
        """Relabeling a traversed directory is caught by per-hit label
        identity revalidation even though no generation bumped."""
        owner = k.spawn_task("owner")
        tag, _ = k.sys_alloc_tag(owner)
        k.sys_mkdir(owner, "/tmp/wc4")
        k.sys_creat(owner, "/tmp/wc4/f")
        walker = k.spawn_task("walker")
        k.sys_stat(walker, "/tmp/wc4/f")  # warm
        # Directly relabel the directory (what revoke_by_relabel does).
        d = k.fs.resolve("/tmp/wc4")
        d.labels = LabelPair(Label.of(tag))
        with pytest.raises(SyscallError):
            k.sys_stat(walker, "/tmp/wc4/f")

    def test_security_module_swap_flushes(self, k):
        task = k.spawn_task("p")
        k.sys_mkdir(task, "/tmp/wc5")
        k.sys_creat(task, "/tmp/wc5/f")
        k.sys_stat(task, "/tmp/wc5/f")
        assert k._walk_cache
        k.set_security_module(NullSecurityModule())
        assert not k._walk_cache
        k.sys_stat(task, "/tmp/wc5/f")  # works under the new module

    def test_cache_disabled_by_flag(self, k):
        from repro.core import fastpath

        task = k.spawn_task("p")
        k.sys_mkdir(task, "/tmp/wc6")
        k.sys_creat(task, "/tmp/wc6/f")
        with fastpath.configured(path_walk_cache=False):
            before = fastpath.counters.walk_hits
            k.sys_stat(task, "/tmp/wc6/f")
            k.sys_stat(task, "/tmp/wc6/f")
            assert fastpath.counters.walk_hits == before
