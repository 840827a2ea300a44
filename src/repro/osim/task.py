"""Kernel tasks: the OS-side representation of principals.

In Laminar the principals are kernel threads; labels and capabilities are
stored in the opaque ``security`` field of ``task_struct`` (Section 5.2).
:class:`Task` mirrors that: it owns a :class:`~repro.core.Principal` (the
security field), a file-descriptor table, a working directory, and its
parent.  A task holds no list of its children, so a parent does not keep
an exited child alive once ``sys_exit`` has reaped it from the kernel's
table.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Optional

from ..core import CapabilitySet, LabelPair, Principal

if TYPE_CHECKING:
    from .filesystem import File, Inode


class Task:
    """One kernel thread.

    Tasks are created through :meth:`repro.osim.kernel.Kernel.spawn_task`
    (the boot/init path) or :meth:`repro.osim.kernel.Kernel.sys_fork`; the
    constructor itself performs no security checks.
    """

    def __init__(
        self,
        tid: int,
        name: str = "",
        user: str = "root",
        parent: Optional["Task"] = None,
        labels: LabelPair = LabelPair.EMPTY,
        caps: CapabilitySet = CapabilitySet.EMPTY,
    ) -> None:
        self.tid = tid
        self.name = name or f"task{tid}"
        self.user = user
        self.parent = parent
        #: Process group: tasks sharing a pgid share an address space.  The
        #: kernel assigns it in spawn_task/sys_fork/sys_spawn_thread.
        self.pgid: int = 0
        #: The LSM ``security`` field: labels + capabilities.
        self.security = Principal(self.name, labels, caps)
        self.alive = True
        self.exit_code: int | None = None
        #: fd -> open file description
        self.fd_table: dict[int, "File"] = {}
        self._next_fd = 3  # 0,1,2 notionally reserved for stdio
        #: Min-heap of closed descriptor numbers below ``_next_fd``.
        #: POSIX requires open() to return the lowest available fd;
        #: popping the heap gives that in O(log n) instead of scanning.
        self._free_fds: list[int] = []
        self.cwd: Optional["Inode"] = None
        #: Signals delivered and not yet consumed, as (signum, sender_tid).
        self.pending_signals: list[tuple[int, int]] = []

    # -- convenience accessors over the security field ---------------------

    @property
    def labels(self) -> LabelPair:
        return self.security.labels

    @property
    def capabilities(self) -> CapabilitySet:
        return self.security.capabilities

    # -- fd table -----------------------------------------------------------

    def install_fd(self, file: "File") -> int:
        if self._free_fds:
            fd = heapq.heappop(self._free_fds)
        else:
            fd = self._next_fd
            self._next_fd += 1
        self.fd_table[fd] = file
        file.refs += 1
        return fd

    def lookup_fd(self, fd: int) -> "File":
        try:
            return self.fd_table[fd]
        except KeyError:
            raise SyscallError(EBADF, f"bad file descriptor {fd}") from None

    def remove_fd(self, fd: int) -> "File":
        try:
            file = self.fd_table.pop(fd)
        except KeyError:
            raise SyscallError(EBADF, f"bad file descriptor {fd}") from None
        heapq.heappush(self._free_fds, fd)
        file.refs -= 1
        return file

    def __repr__(self) -> str:
        return f"Task(tid={self.tid}, name={self.name!r}, labels={self.labels!r})"


# -- errno-style error surface ----------------------------------------------

EPERM = 1
ENOENT = 2
EIO = 5
EBADF = 9
EACCES = 13
EEXIST = 17
ENOSPC = 28
ENOTDIR = 20
EISDIR = 21
EINVAL = 22
EPIPE = 32
ENOTEMPTY = 39
ESRCH = 3
EAGAIN = 11

_ERRNO_NAMES = {
    EPERM: "EPERM",
    ENOENT: "ENOENT",
    EIO: "EIO",
    EBADF: "EBADF",
    EACCES: "EACCES",
    EEXIST: "EEXIST",
    ENOSPC: "ENOSPC",
    ENOTDIR: "ENOTDIR",
    EISDIR: "EISDIR",
    EINVAL: "EINVAL",
    EPIPE: "EPIPE",
    ENOTEMPTY: "ENOTEMPTY",
    ESRCH: "ESRCH",
    EAGAIN: "EAGAIN",
}


class SyscallError(Exception):
    """A system call failed with an errno, like a negative return in C.

    DIFC denials surface as ``EACCES``/``EPERM`` — except on pipes, where the
    paper mandates *silent drops* because an error code would itself leak.
    """

    def __init__(self, errno: int, message: str = "") -> None:
        self.errno = errno
        name = _ERRNO_NAMES.get(errno, str(errno))
        super().__init__(f"[{name}] {message}" if message else f"[{name}]")
