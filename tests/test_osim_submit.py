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
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Label, LabelPair, fastpath
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
    """One task, a plain file, a secrecy-labeled file (reads denied), a
    pipe, a device and a directory — the object mix every generated
    program runs against."""
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
    null = kernel.sys_open(actor, "/dev/null", "r+")
    folder = kernel.sys_open(actor, "/tmp/eq", "r")  # reads fail EISDIR
    return actor, {
        "plain": plain, "hush": hush, "pr": pr, "pw": pw, "null": null, "dir": folder,
    }


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

FD_NAMES = ("plain", "hush", "pr", "pw", "null", "dir")


def _ops_strategy():
    fd = st.sampled_from(FD_NAMES)
    data = st.sampled_from([b"", b"x", b"hello", b"0" * 32])
    count = st.sampled_from([-1, 0, 1, 7, 64])
    one_op = st.one_of(
        st.tuples(st.just("read"), st.tuples(fd, count)),
        st.tuples(st.just("write"), st.tuples(fd, data)),
        st.tuples(st.just("lseek"), st.tuples(fd, st.sampled_from([0, 3, 99, -1]))),
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
    )
    # Each drawn op repeats up to 6 times, so long same-fd runs (the
    # shape whose permission proof a batch replays) are common.
    runs = st.lists(st.tuples(one_op, st.integers(1, 6)), min_size=1, max_size=12)
    return runs.map(lambda drawn: [op for op, times in drawn for _ in range(times)])


def _resolve(ops, fds):
    """Replace symbolic fd names with the scenario's real numbers."""
    out = []
    for op, args in ops:
        out.append((op, tuple(fds.get(a, a) if isinstance(a, str) else a for a in args)))
    return out


@settings(max_examples=120, deadline=None)
@given(
    ops=_ops_strategy(),
    splits=st.lists(st.integers(1, 24), max_size=8),
    memo=st.booleans(),
)
def test_batched_equals_sequential(ops, splits, memo):
    """THE equivalence property: same completions, same audit, same
    denials, same hook counts, same syscall counts — under any batch
    partition of any generated program, with the permission memo on or
    off.  The modeled work differs by exactly the crossings batching
    saves: one ``SYSCALL_ENTRY_WORK`` per read or write entry, less one
    ``submit`` charge per batch."""
    with fastpath.configured(path_walk_cache=memo):
        seq_kernel = fresh_kernel()
        seq_kernel.defer_work = True
        task_a, fds_a = build_scenario(seq_kernel)
        resolved_a = _resolve(ops, fds_a)
        before = Counter(seq_kernel.syscall_counts)
        seq_cqes = run_sequential(seq_kernel, task_a, resolved_a)
        after = seq_kernel.syscall_counts
        rw_entries = after["read"] - before["read"] + after["write"] - before["write"]

        bat_kernel = fresh_kernel()
        bat_kernel.defer_work = True
        task_b, fds_b = build_scenario(bat_kernel)
        resolved_b = _resolve(ops, fds_b)
        assert resolved_a == resolved_b  # twin setups really are twins

        bat_cqes: list[Cqe] = []
        batches = 0
        hits = fastpath.counters.hookchain_hits
        remaining = list(resolved_b)
        split_iter = itertools.chain(splits, itertools.repeat(24))
        while remaining:
            size = next(split_iter)
            chunk, remaining = remaining[:size], remaining[size:]
            sqes = [Sqe(op, *args) for op, args in chunk]
            bat_cqes.extend(bat_kernel.sys_submit(task_b, sqes))
            batches += 1

    if not memo:  # nothing is replayed: every check ran
        assert fastpath.counters.hookchain_hits == hits
    assert bat_cqes == seq_cqes
    assert observables(bat_kernel) == observables(seq_kernel)
    assert bat_kernel.deferred_work == (
        seq_kernel.deferred_work
        - Kernel.SYSCALL_ENTRY_WORK * rw_entries
        + Kernel.SYSCALL_WORK["submit"] * batches
    )
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

    def test_a_tuple_batch_runs_as_a_list(self):
        """A shard hands a request's ``sqes`` tuple to ``sys_submit`` as it
        is: completions, counters, audit and modeled work equal those of
        the same cluster-shaped entries given as a list, and the
        completions and security record equal sequential calls'."""
        ops = [
            ("lseek", ("plain", 0)), ("read", ("plain", 4)),
            ("lseek", ("plain", 2)), ("read", ("plain", 4)),
            ("write", ("plain", b"zz")), ("lseek", ("pr", 0)),
            ("lseek", ("plain", -1)), ("lseek", (99, 0)),
            ("stat", ("/tmp/eq/secret",)), ("lseek", ("plain", 0)),
            ("read", ("plain", 8)),
        ]
        runs = []
        for container in (tuple, list, None):
            kernel = fresh_kernel()
            kernel.defer_work = True
            task, fds = build_scenario(kernel)
            resolved = _resolve(ops, fds)
            hits = fastpath.counters.hookchain_hits
            if container is None:
                cqes = run_sequential(kernel, task, resolved)
            else:
                cqes = kernel.sys_submit(task, container(Sqe(op, *args) for op, args in resolved))
            runs.append((
                cqes, observables(kernel), kernel.deferred_work,
                fastpath.counters.hookchain_hits - hits,
            ))
        assert runs[0] == runs[1]
        assert runs[0][:2] == runs[2][:2]
        cqes, seen, _, hits = runs[0]
        assert [c.errno for c in cqes] == [0, 0, 0, 0, 0, EINVAL, EINVAL, EBADF, EACCES, 0, 0]
        assert cqes[-1].result == b"012345zz"
        # Two replayed reads, and the stat's walk replayed from the memo.
        assert seen["syscalls"]["lseek"] == 6 and hits == 3


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


class TestSubmitMemoKeys:
    """``sys_submit`` probes the kernel's held-file memo, whose keys carry
    the task's label pair: a verdict proved before a replication event
    rebuilt the principal at another pair must be unreachable afterwards,
    whichever path replays it."""

    def _booted(self):
        Inode._ino_counter = itertools.count(1)
        kernel = Kernel(LaminarSecurityModule())
        task = kernel.spawn_task("gw")
        fd = kernel.sys_open(task, "/tmp/m", "w+")
        return kernel, task, fd

    def test_memo_keys_carry_the_label_pair(self):
        kernel, task, fd = self._booted()
        kernel.sys_submit(task, [Sqe("write", fd, b"x")])
        inode = task.lookup_fd(fd).inode
        assert kernel.hookchain.files == {(task.labels, inode, True): inode.labels}
        # Each kernel owns its memo: the same verdict proved on another
        # kernel never lands in this one.
        other, task2, fd2 = self._booted()
        other.sys_submit(task2, [Sqe("write", fd2, b"x")])
        assert len(kernel.hookchain.files) == 1

    @pytest.mark.parametrize("via", ["submit", "write", "stat"])
    def test_memo_not_replayed_across_replication_lag(self, via):
        """A verdict recorded before a capability-store replication event
        must not replay after it.

        Replication *rebuilds* the principal's security field from the
        wire image, and the inode's label object is untouched, so the
        identity re-check cannot catch the change.  The rebuilt pair in
        the key does: the memo keeps every entry across the event, and
        none of them answers for the rebuilt principal, for the held-file
        entries ``sys_submit`` and ``sys_write`` share and for the walk
        entries ``stat`` uses."""
        from repro.core import CapabilitySet
        from repro.core.principal import Principal

        kernel, task, fd = self._booted()

        def errno_of(call, *args):
            try:
                call(task, *args)
            except SyscallError as exc:
                return exc.errno
            return 0

        run, hook = {
            "submit": (
                lambda: kernel.sys_submit(task, [Sqe("write", fd, b"x")])[0].errno,
                "file_permission",
            ),
            "write": (
                lambda: errno_of(kernel.sys_write, fd, b"x"),
                "file_permission",
            ),
            "stat": (lambda: errno_of(kernel.sys_stat, "/tmp/m"), "inode_permission"),
        }[via]
        for _ in range(12):
            assert run() == 0
        hooks = kernel.security.hook_calls[hook]
        assert run() == 0
        # Replay accounting: a memo hit still counts the hook.
        assert kernel.security.hook_calls[hook] > hooks

        # Replication lands: the authoritative capability store says gw is
        # now tainted with a secrecy tag it cannot shed and carries an
        # integrity tag the admin-labeled root does not.  The sync path
        # materializes a fresh Principal from the frame.
        secret, trusted = kernel.tags.alloc("s"), kernel.tags.alloc("t")
        task.security = Principal(
            task.name,
            LabelPair(Label.of(secret), Label.of(trusted)),
            CapabilitySet.EMPTY,
        )
        recorded = dict(kernel.hookchain.walks), dict(kernel.hookchain.files)
        assert kernel.apply_replication(1)
        assert (kernel.hookchain.walks, kernel.hookchain.files) == recorded

        denials = len(kernel.audit.denials())
        assert run() == EACCES
        entries = kernel.audit.denials()[denials:]
        assert [e.principal for e in entries] == [hook]

    def test_stale_replication_is_rejected(self):
        kernel, task, fd = self._booted()
        assert kernel.apply_replication(3)
        kernel.sys_submit(task, [Sqe("write", fd, b"x")])
        recorded = dict(kernel.hookchain.files)
        assert recorded
        assert not kernel.apply_replication(3)  # re-delivered frame
        assert not kernel.apply_replication(1)  # reordered older frame
        assert kernel.replication_epoch == 3
        assert kernel.apply_replication(4)
        assert kernel.replication_epoch == 4
        # Neither a rejected nor an applied frame touches the memo.
        assert kernel.hookchain.files == recorded
