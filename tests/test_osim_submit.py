"""Batched submission (``sys_submit``), vectored I/O, and their contract:
byte-identical security observables to sequential issue.

The equivalence property is the heart of it: for ANY sequence of
batchable operations, running them through ``sys_submit`` (under any
partition into batches) must produce the same completions, the same
audit log, the same denial counters, the same LSM hook counts, and the
same per-opcode syscall counts (modulo the ``submit`` entries
themselves) as issuing them one by one.  Batching may only change how
much *overhead* is paid, never what any check decides or records.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Label, LabelPair
from repro.osim import (
    Cqe,
    EACCES,
    EBADF,
    EINVAL,
    Kernel,
    LaminarSecurityModule,
    Sqe,
    SyscallError,
)
from repro.osim.filesystem import Inode
from repro.osim.kernel import call_syscall


def fresh_kernel() -> Kernel:
    """A kernel with a deterministic inode numbering, so stat results and
    audit details are comparable across twin kernels."""
    Inode._ino_counter = itertools.count(1)
    return Kernel(LaminarSecurityModule())


def build_scenario(kernel: Kernel):
    """One task, a plain file, a secrecy-labeled file (reads denied), and
    a pipe — the object mix every generated program runs against."""
    owner = kernel.spawn_task("owner")
    tag, _ = kernel.sys_alloc_tag(owner, "s")
    secret = LabelPair(Label.of(tag))
    kernel.sys_mkdir(owner, "/tmp/eq")
    fd = kernel.sys_creat(owner, "/tmp/eq/plain")
    kernel.sys_write(owner, fd, b"0123456789abcdef")
    kernel.sys_close(owner, fd)
    fd = kernel.sys_create_file_labeled(owner, "/tmp/eq/secret", secret)
    kernel.sys_write(owner, fd, b"classified")
    kernel.sys_close(owner, fd)

    actor = kernel.spawn_task("actor")  # unlabeled: reads of secret deny
    plain = kernel.sys_open(actor, "/tmp/eq/plain", "r+")
    hush = kernel.sys_open(actor, "/tmp/eq/secret", "w")  # write-up is legal
    pr, pw = kernel.sys_pipe(actor)
    return actor, {"plain": plain, "hush": hush, "pr": pr, "pw": pw}


def run_sequential(kernel: Kernel, task, ops) -> list[Cqe]:
    """The reference semantics: each op as its own syscall, completions
    recorded exactly as sys_submit records them."""
    cqes = []
    for op, args in ops:
        fn = getattr(kernel, f"sys_{op}", None)
        try:
            if fn is None:
                raise SyscallError(EINVAL, f"op {op!r} is not batchable")
            result = call_syscall(fn, task, args)
        except SyscallError as exc:
            cqes.append(Cqe(op, None, exc.errno))
        else:
            cqes.append(Cqe(op, result, 0))
    return cqes


def observables(kernel: Kernel) -> dict:
    counts = dict(kernel.syscall_counts)
    counts.pop("submit", None)
    return {
        "audit": [str(e) for e in kernel.audit],
        "denials": dict(kernel.security.denials),
        "hooks": dict(kernel.security.hook_calls),
        "syscalls": counts,
    }


# -- the hypothesis program generator ----------------------------------------

FD_NAMES = ("plain", "hush", "pr", "pw")


def _ops_strategy():
    fd = st.sampled_from(FD_NAMES)
    data = st.sampled_from([b"", b"x", b"hello", b"0" * 32])
    count = st.sampled_from([-1, 0, 1, 7, 64])
    return st.lists(
        st.one_of(
            st.tuples(st.just("read"), st.tuples(fd, count)),
            st.tuples(st.just("write"), st.tuples(fd, data)),
            st.tuples(st.just("lseek"), st.tuples(fd, st.sampled_from([0, 3, 99]))),
            st.tuples(
                st.just("readv"),
                st.tuples(fd, st.lists(count, min_size=1, max_size=3)),
            ),
            st.tuples(
                st.just("writev"),
                st.tuples(fd, st.lists(data, min_size=1, max_size=3)),
            ),
            st.tuples(
                st.just("stat"),
                st.tuples(
                    st.sampled_from(
                        ["/tmp/eq/plain", "/tmp/eq/secret", "/tmp/eq/nope"]
                    )
                ),
            ),
            st.tuples(
                st.just("open"),
                st.tuples(
                    st.sampled_from(["/tmp/eq/plain", "/tmp/eq/new"]),
                    st.sampled_from(["r", "w", "r+"]),
                ),
            ),
            st.tuples(st.just("close"), st.tuples(fd)),
            st.tuples(st.just("unlink"), st.tuples(st.just("/tmp/eq/new"))),
            st.tuples(st.just("frobnicate"), st.tuples()),  # not batchable
            # Wrong arity: EINVAL, sequential or batched.
            st.tuples(st.just("read"), st.tuples()),
            st.tuples(st.just("write"), st.tuples(fd)),
            st.tuples(st.just("close"), st.tuples()),
            st.tuples(st.just("lseek"), st.tuples(fd)),
            st.tuples(st.just("open"), st.tuples()),
        ),
        min_size=1,
        max_size=24,
    )


def _resolve(ops, fds):
    """Replace symbolic fd names with the scenario's real numbers."""
    out = []
    for op, args in ops:
        out.append((op, tuple(fds.get(a, a) if isinstance(a, str) else a for a in args)))
    return out


@settings(max_examples=60, deadline=None)
@given(ops=_ops_strategy(), splits=st.lists(st.integers(1, 6), max_size=8))
def test_batched_equals_sequential(ops, splits):
    """THE equivalence property: same completions, same audit, same
    denials, same hook counts, same syscall counts — under any batch
    partition of any generated program."""
    seq_kernel = fresh_kernel()
    task_a, fds_a = build_scenario(seq_kernel)
    resolved_a = _resolve(ops, fds_a)
    seq_cqes = run_sequential(seq_kernel, task_a, resolved_a)

    bat_kernel = fresh_kernel()
    task_b, fds_b = build_scenario(bat_kernel)
    resolved_b = _resolve(ops, fds_b)
    assert resolved_a == resolved_b  # twin setups really are twins

    bat_cqes: list[Cqe] = []
    remaining = list(resolved_b)
    split_iter = itertools.chain(splits, itertools.repeat(6))
    while remaining:
        size = next(split_iter)
        chunk, remaining = remaining[:size], remaining[size:]
        sqes = [Sqe(op, *args) for op, args in chunk]
        bat_cqes.extend(bat_kernel.sys_submit(task_b, sqes))

    assert bat_cqes == seq_cqes
    assert observables(bat_kernel) == observables(seq_kernel)
    # Data-plane state converged too, not just the security record.
    plain_a = seq_kernel.fs.resolve("/tmp/eq/plain")
    plain_b = bat_kernel.fs.resolve("/tmp/eq/plain")
    assert bytes(plain_a.data) == bytes(plain_b.data)


# -- directed units ----------------------------------------------------------


class TestSubmitBasics:
    def test_error_entry_does_not_abort_batch(self, kernel):
        task = kernel.spawn_task("t")
        fd = kernel.sys_open(task, "/tmp/x", "w+")
        cqes = kernel.sys_submit(
            task,
            [
                Sqe("write", fd, b"ok"),
                Sqe("read", 999),  # EBADF
                Sqe("lseek", fd, 0),
                Sqe("read", fd),
            ],
        )
        assert [c.errno for c in cqes] == [0, EBADF, 0, 0]
        assert cqes[1].result is None
        assert cqes[3].result == b"ok"
        assert cqes[0].ok and not cqes[1].ok

    def test_non_batchable_op_gets_einval(self, kernel):
        task = kernel.spawn_task("t")
        cqes = kernel.sys_submit(
            task, [Sqe("set_task_label"), Sqe("fork"), Sqe("exit")]
        )
        assert [c.errno for c in cqes] == [EINVAL, EINVAL, EINVAL]

    def test_denials_are_never_memoized(self, kernel):
        """Every denied read in a batch hits the full hook path: the
        denial counter and audit log record each one."""
        owner = kernel.spawn_task("owner")
        tag, _ = kernel.sys_alloc_tag(owner, "s")
        fd0 = kernel.sys_create_file_labeled(
            owner, "/tmp/sec", LabelPair(Label.of(tag))
        )
        kernel.sys_close(owner, fd0)
        actor = kernel.spawn_task("actor")
        fd = kernel.sys_open(actor, "/tmp/sec", "w")
        before = len(kernel.audit.denials())
        cqes = kernel.sys_submit(actor, [Sqe("read", fd)] * 4)
        assert [c.errno for c in cqes] == [EACCES] * 4
        assert len(kernel.audit.denials()) == before + 4

    def test_fd_memo_dropped_on_close(self, kernel):
        """A close inside the batch invalidates the fd cache: a later
        entry reusing the number sees the *new* description, and a read
        of the stale number fails."""
        task = kernel.spawn_task("t")
        fd = kernel.sys_open(task, "/tmp/a", "w+")
        kernel.sys_write(task, fd, b"first")
        cqes = kernel.sys_submit(
            task,
            [
                Sqe("lseek", fd, 0),
                Sqe("read", fd),
                Sqe("close", fd),
                Sqe("read", fd),  # stale: EBADF
                Sqe("open", "/tmp/a", "r"),  # reuses the lowest free fd
                Sqe("read", fd),  # the NEW description, offset 0
            ],
        )
        assert cqes[1].result == b"first"
        assert cqes[3].errno == EBADF
        assert cqes[4].result == fd  # lowest-free-fd reuse
        assert cqes[5].result == b"first"

    def test_batch_charges_less_simulated_work(self, kernel):
        """The point of the exercise: the per-entry work charged inside a
        batch is SYSCALL_WORK minus the entry crossing."""
        assert kernel._batch_work["read"] == (
            kernel.SYSCALL_WORK["read"] - kernel.SYSCALL_ENTRY_WORK
        )
        assert kernel._batch_work["close"] == 0  # mostly crossing cost


class TestMalformedEntries:
    """An entry of the wrong arity (one decoded off the wire, say)
    completes with EINVAL, leaves no other trace, and the batch goes on:
    the io_uring contract holds for bad input too."""

    MALFORMED = [
        ("read", ()),
        ("read", ("fd", 1, 2)),
        ("write", ("fd",)),
        ("close", ()),
        ("lseek", ("fd",)),
        ("open", ()),
    ]

    @staticmethod
    def _run(bad=None):
        """One fresh kernel running ``[bad] + valid`` (or just ``valid``),
        where ``"fd"`` in the bad entry's arguments stands for an open fd."""
        kernel = fresh_kernel()
        task = kernel.spawn_task("t")
        fd = kernel.sys_open(task, "/tmp/m", "w+")
        sqes = [Sqe("write", fd, b"ok"), Sqe("lseek", fd, 0), Sqe("read", fd)]
        if bad is not None:
            op, args = bad
            sqes.insert(0, Sqe(op, *(fd if a == "fd" else a for a in args)))
        return kernel.sys_submit(task, sqes), observables(kernel)

    @pytest.mark.parametrize(
        "op,args", MALFORMED, ids=[f"{op}{len(a)}" for op, a in MALFORMED]
    )
    def test_bad_entry_fails_alone(self, op, args):
        clean_cqes, clean = self._run()
        cqes, seen = self._run((op, args))
        assert cqes[0] == Cqe(op, None, EINVAL)
        assert cqes[1:] == clean_cqes
        assert clean_cqes[2].result == b"ok"
        assert seen == clean

    @pytest.mark.parametrize(
        "op,args", MALFORMED, ids=[f"{op}{len(a)}" for op, a in MALFORMED]
    )
    def test_sequential_call_agrees(self, kernel, op, args):
        task = kernel.spawn_task("t")
        fd = kernel.sys_open(task, "/tmp/m", "w+")
        args = tuple(fd if a == "fd" else a for a in args)
        before = dict(kernel.syscall_counts)
        with pytest.raises(SyscallError) as e:
            call_syscall(getattr(kernel, f"sys_{op}"), task, args)
        assert e.value.errno == EINVAL
        assert dict(kernel.syscall_counts) == before

    def test_type_error_inside_a_body_is_not_masked(self, kernel):
        def sys_broken(task, fd):
            raise TypeError("bug in the body")

        task = kernel.spawn_task("t")
        with pytest.raises(TypeError, match="bug in the body"):
            call_syscall(sys_broken, task, (3,))


class TestVectoredIO:
    def test_readv_scatter(self, kernel):
        task = kernel.spawn_task("t")
        fd = kernel.sys_open(task, "/tmp/v", "w+")
        kernel.sys_write(task, fd, b"abcdefgh")
        kernel.sys_lseek(task, fd, 0)
        assert kernel.sys_readv(task, fd, [3, 2, 99]) == [b"abc", b"de", b"fgh"]

    def test_writev_gather(self, kernel):
        task = kernel.spawn_task("t")
        fd = kernel.sys_open(task, "/tmp/v", "w+")
        assert kernel.sys_writev(task, fd, [b"ab", b"", b"cde"]) == 5
        kernel.sys_lseek(task, fd, 0)
        assert kernel.sys_read(task, fd) == b"abcde"

    def test_vectored_file_io_checks_permission_once(self, kernel):
        task = kernel.spawn_task("t")
        fd = kernel.sys_open(task, "/tmp/v", "w+")
        before = kernel.security.hook_calls["file_permission"]
        kernel.sys_writev(task, fd, [b"a", b"b", b"c", b"d"])
        assert kernel.security.hook_calls["file_permission"] == before + 1

    def test_pipe_writev_is_per_message(self, kernel):
        """On pipes each segment is one message with its own mediation —
        vectorization must not fuse silently-droppable messages."""
        task = kernel.spawn_task("t")
        pr, pw = kernel.sys_pipe(task)
        hooks_before = kernel.security.hook_calls["pipe_write"]
        assert kernel.sys_writev(task, pw, [b"x", b"y"]) == 2
        assert kernel.security.hook_calls["pipe_write"] == hooks_before + 2
        assert kernel.sys_readv(task, pr, [1, 1, 1]) == [b"x", b"y", b""]

    def test_lseek_rejects_pipes_and_negative(self, kernel):
        task = kernel.spawn_task("t")
        pr, _pw = kernel.sys_pipe(task)
        with pytest.raises(SyscallError) as e:
            kernel.sys_lseek(task, pr, 0)
        assert e.value.errno == EINVAL
        fd = kernel.sys_open(task, "/tmp/s", "w")
        with pytest.raises(SyscallError):
            kernel.sys_lseek(task, fd, -1)


class TestSubmitMemoEpochs:
    """The persistent allowed-verdict memo keys on (shard, fd-epoch): a
    verdict proved on one shard, or before a replication event landed,
    must be unreachable afterwards."""

    def _booted(self, shard_id: int = 0):
        Inode._ino_counter = itertools.count(1)
        kernel = Kernel(LaminarSecurityModule(), shard_id=shard_id)
        task = kernel.spawn_task("gw")
        fd = kernel.sys_open(task, "/tmp/m", "w+")
        return kernel, task, fd

    def test_memo_keys_carry_shard_and_fd_epoch(self):
        kernel, task, fd = self._booted(shard_id=7)
        kernel.sys_submit(task, [Sqe("write", fd, b"x")])
        assert kernel._submit_memo
        for key in kernel._submit_memo:
            shard, fd_epoch, tid, label_epoch, _inode, _is_write = key
            assert shard == 7
            assert fd_epoch == kernel.fd_epoch == 0
            assert tid == task.tid
            assert label_epoch == task.security.label_epoch
        # The same verdict proved on a different shard lives under a
        # different key: migrated memo state can never collide.
        other, task2, fd2 = self._booted(shard_id=8)
        other.sys_submit(task2, [Sqe("write", fd2, b"x")])
        assert not (set(kernel._submit_memo) & set(other._submit_memo))

    def test_memo_not_replayed_across_replication_lag(self):
        """The ISSUE's directed scenario: a memo recorded before a
        capability-store replication event must not replay after it.

        The sharp case: replication *rebuilds* the principal's security
        field from the wire image, so the rebuilt ``label_epoch`` restarts
        at exactly the value the memo was recorded under, and the inode's
        label object is untouched — neither the epoch in the key nor the
        identity revalidation can catch the change.  Only the fd-epoch
        component (bumped by ``apply_replication``) keeps the stale allow
        verdict unreachable."""
        from repro.core import CapabilitySet
        from repro.core.principal import Principal

        kernel, task, fd = self._booted()
        kernel.sys_submit(task, [Sqe("write", fd, b"x")])
        hooks = kernel.security.hook_calls["file_permission"]
        kernel.sys_submit(task, [Sqe("write", fd, b"x")])
        # Replay accounting: the memo hit still counts the hook.
        assert kernel.security.hook_calls["file_permission"] == hooks + 1
        assert kernel._submit_memo

        # Replication lands: the authoritative capability store says gw is
        # now tainted with a secrecy tag it cannot shed.  The sync path
        # materializes a fresh Principal from the frame — label_epoch
        # restarts at 0, colliding with the epoch the memo recorded.
        tag = kernel.tags.alloc("s")
        assert task.security.label_epoch == 0
        task.security = Principal(
            task.name, LabelPair(Label.of(tag)), CapabilitySet.EMPTY
        )
        assert task.security.label_epoch == 0  # the collision
        assert kernel.apply_replication(1)
        assert kernel.fd_epoch == 1

        denials = len(kernel.audit.denials())
        cqes = kernel.sys_submit(task, [Sqe("write", fd, b"x")])
        # Without the (shard, fd-epoch) keying this replays the stale
        # allow; with it, the full hook runs and denies the write-down.
        assert cqes[0].errno == EACCES
        assert len(kernel.audit.denials()) == denials + 1

    def test_stale_replication_is_rejected(self):
        kernel, task, fd = self._booted()
        assert kernel.apply_replication(3)
        epoch_after = kernel.fd_epoch
        assert not kernel.apply_replication(3)  # re-delivered frame
        assert not kernel.apply_replication(1)  # reordered older frame
        assert kernel.fd_epoch == epoch_after
        assert kernel.apply_replication(4)
        assert kernel.fd_epoch == epoch_after + 1
