"""Pipes: label mediation, silent drops, non-blocking reads, capability
transfer (Section 5.2 "Pipes" and Section 4.4 "write_capability")."""

import pytest

from repro.core import Capability, CapabilitySet, CapType, Label, LabelPair, LabelType
from repro.osim import EBADF, Kernel, LaminarSecurityModule, Pipe, Sqe, SyscallError


@pytest.fixture
def k():
    return Kernel(LaminarSecurityModule())


class TestPipeDataPath:
    def test_same_label_roundtrip(self, k):
        task = k.spawn_task("p")
        rfd, wfd = k.sys_pipe(task)
        assert k.sys_write(task, wfd, b"msg") == 3
        assert k.sys_read(task, rfd) == b"msg"

    def test_reads_are_nonblocking_empty_returns_empty(self, k):
        task = k.spawn_task("p")
        rfd, _ = k.sys_pipe(task)
        assert k.sys_read(task, rfd) == b""

    def test_no_eof_after_writer_exit(self, k):
        writer = k.spawn_task("w")
        reader = k.spawn_task("r")
        rfd_w, wfd = k.sys_pipe(writer)
        rfd = k.share_fd(writer, rfd_w, reader)
        k.sys_write(writer, wfd, b"last")
        k.sys_exit(writer, 0)
        assert k.sys_read(reader, rfd) == b"last"
        # after drain: still just empty — no EOF signal, ever
        assert k.sys_read(reader, rfd) == b""

    def test_illegal_write_drops_silently(self, k):
        plain = k.spawn_task("plain")
        rfd, wfd = k.sys_pipe(plain)  # unlabeled pipe
        alice = k.spawn_task("alice")
        tag, _ = k.sys_alloc_tag(alice)
        wfd_alice = k.share_fd(plain, wfd, alice)
        k.sys_set_task_label(alice, LabelType.SECRECY, Label.of(tag))
        # the tainted write *appears* to succeed
        assert k.sys_write(alice, wfd_alice, b"secret") == 6
        # ...but nothing arrives
        assert k.sys_read(plain, rfd) == b""
        pipe = k.tasks[plain.tid].fd_table[rfd].inode.pipe
        assert pipe.dropped == 1

    def test_illegal_read_indistinguishable_from_empty(self, k):
        alice = k.spawn_task("alice")
        tag, _ = k.sys_alloc_tag(alice)
        k.sys_set_task_label(alice, LabelType.SECRECY, Label.of(tag))
        rfd, wfd = k.sys_pipe(alice)  # pipe labeled {S(a)}
        k.sys_write(alice, wfd, b"secret")
        k.sys_set_task_label(alice, LabelType.SECRECY, Label.EMPTY)
        assert k.sys_read(alice, rfd) == b""  # denied, looks empty

    def test_full_buffer_drops_silently(self, k):
        task = k.spawn_task("p")
        pipe = Pipe(LabelPair.EMPTY, capacity=2)
        from repro.osim.filesystem import File, OpenMode

        wfd = task.install_fd(File(pipe.inode, OpenMode.WRITE))
        for i in range(5):
            assert k.sys_write(task, wfd, b"x") == 1
        assert len(pipe) == 2 and pipe.dropped == 3


def _submitted(k, task, sqe):
    """One batch entry, its errno raised like a direct call's."""
    [cqe] = k.sys_submit(task, [sqe])
    if cqe.errno:
        raise SyscallError(cqe.errno, f"{sqe.op} failed")
    return cqe.result


#: Every way to read a pipe's write end or write its read end.
_WRONG_END = {
    "read": lambda k, t, r, w, cap: k.sys_read(t, w),
    "readv": lambda k, t, r, w, cap: k.sys_readv(t, w, [4, 4]),
    "read_capability": lambda k, t, r, w, cap: k.sys_read_capability(t, w),
    "submit read": lambda k, t, r, w, cap: _submitted(k, t, Sqe("read", w)),
    "write": lambda k, t, r, w, cap: k.sys_write(t, r, b"x"),
    "writev": lambda k, t, r, w, cap: k.sys_writev(t, r, [b"x", b"y"]),
    "write_capability": lambda k, t, r, w, cap: k.sys_write_capability(t, cap, r),
    "submit write": lambda k, t, r, w, cap: _submitted(k, t, Sqe("write", r, b"x")),
}


class TestPipeEndModes:
    """A pipe end is used only the way it was opened: a read of the
    write end or a write to the read end is ``EBADF`` before any pipe
    hook runs, as for a file opened the other way."""

    @pytest.mark.parametrize("entry", sorted(_WRONG_END))
    def test_wrong_end_is_ebadf_and_changes_nothing(self, k, entry):
        task = k.spawn_task("p")
        tag, _ = k.sys_alloc_tag(task)
        cap = Capability(tag, CapType.PLUS)
        rfd, wfd = k.sys_pipe(task)
        k.sys_write(task, wfd, b"hello")
        k.sys_write_capability(task, cap, wfd)
        pipe = task.fd_table[rfd].inode.pipe

        def state():
            return (
                list(pipe.messages),
                list(pipe.cap_messages),
                pipe.dropped,
                pipe.version,
                dict(k.security.hook_calls),
            )

        before = state()
        with pytest.raises(SyscallError) as refused:
            _WRONG_END[entry](k, task, rfd, wfd, cap)
        assert refused.value.errno == EBADF
        assert state() == before
        # The right ends still carry what was queued.
        assert k.sys_read(task, rfd) == b"hello"
        assert k.sys_read_capability(task, rfd) == cap


class TestCapabilityTransfer:
    def test_transfer_grants_receiver(self, k):
        sender = k.spawn_task("s")
        receiver = k.spawn_task("r")
        tag, _ = k.sys_alloc_tag(sender, "gift")
        rfd_s, wfd = k.sys_pipe(sender)
        rfd = k.share_fd(sender, rfd_s, receiver)
        cap = Capability(tag, CapType.PLUS)
        k.sys_write_capability(sender, cap, wfd)
        received = k.sys_read_capability(receiver, rfd)
        assert received == cap
        assert receiver.capabilities.can_add(tag)

    def test_cannot_send_unheld_capability(self, k):
        sender = k.spawn_task("s")
        other = k.spawn_task("o")
        tag, _ = k.sys_alloc_tag(other)
        _, wfd = k.sys_pipe(sender)
        with pytest.raises(SyscallError):
            k.sys_write_capability(sender, Capability(tag, CapType.PLUS), wfd)

    def test_transfer_mediated_by_labels(self, k):
        sender = k.spawn_task("s")
        tag, _ = k.sys_alloc_tag(sender)
        secret, _ = k.sys_alloc_tag(sender, "taint")
        rfd_s, wfd = k.sys_pipe(sender)  # unlabeled pipe
        k.sys_set_task_label(sender, LabelType.SECRECY, Label.of(secret))
        # tainted sender -> unlabeled pipe: silently dropped
        k.sys_write_capability(sender, Capability(tag, CapType.PLUS), wfd)
        receiver = k.spawn_task("r")
        rfd = k.share_fd(sender, rfd_s, receiver)
        assert k.sys_read_capability(receiver, rfd) is None

    def test_requires_pipe_fd(self, k):
        task = k.spawn_task("p")
        tag, _ = k.sys_alloc_tag(task)
        fd = k.sys_creat(task, "/tmp/notapipe")
        with pytest.raises(SyscallError):
            k.sys_write_capability(task, Capability(tag, CapType.PLUS), fd)

    def test_read_capability_empty_pipe_none(self, k):
        task = k.spawn_task("p")
        rfd, _ = k.sys_pipe(task)
        assert k.sys_read_capability(task, rfd) is None
