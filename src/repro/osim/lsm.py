"""Linux-Security-Module-style hooks, and Laminar's implementation of them.

Laminar's OS half lives almost entirely in a security module whose hook
architecture already exists in Linux (Section 4.1): the kernel's syscall
layer calls a fixed set of hook points, and the module decides.  This file
defines that contract:

* :class:`SecurityModule` — the hook interface with allow-everything
  defaults.  Installing it unmodified gives the *vanilla Linux* baseline
  used for normalization in Table 2.
* :class:`LaminarSecurityModule` — the paper's module (~1,000 lines of C in
  the original): a straightforward application of the Section 3.2 rules to
  each hook, plus the labeled-creation rule of Section 5.2.

Hooks signal denial by raising :class:`~repro.osim.task.SyscallError` with
``EACCES``; the *pipe* hooks instead return a boolean so the kernel can
silently drop undeliverable messages (an error code on a pipe would itself
leak information).

Every hook invocation is counted, and :class:`LaminarSecurityModule`
additionally models per-check work; the Table 2 benchmark measures the real
Python-time delta between the two modules over identical syscall mixes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core import LabelPair, can_flow, labeled_create_allowed

if TYPE_CHECKING:
    from .filesystem import File, Inode
    from .task import Task


class Tally(dict):
    """Counts by name: a ``dict`` whose missing key reads 0 and is not
    stored.  Unlike a ``Counter``, no Python-level method wraps a store."""

    def __missing__(self, key: str) -> int:
        return 0


class Mask:
    """Access mask bits, after Linux's MAY_READ/MAY_WRITE/MAY_EXEC.  A
    mask is a plain ``int``: ``Mask.READ | Mask.EXEC``."""

    READ = 1
    WRITE = 2
    EXEC = 4


#: Mask bits under which data flows from the object to the task, and
#: from the task to the object.
_READ_LIKE = Mask.READ | Mask.EXEC
_WRITE_LIKE = Mask.WRITE


class SecurityModule:
    """Hook interface; the default implementation allows everything.

    Subclasses override only the hooks they care about, exactly like a
    Linux LSM that leaves most hooks as capability-DAC defaults.
    """

    name = "null"

    def __init__(self) -> None:
        #: hook name -> invocation count (for tests and the bench harness).
        self.hook_calls = Tally()
        #: number of denials, by hook name.
        self.denials = Tally()
        #: optional audit sink, installed by the kernel at boot.
        self.audit = None

    # -- inode / file hooks ---------------------------------------------------

    def inode_permission(self, task: "Task", inode: "Inode", mask: int) -> None:
        self.hook_calls["inode_permission"] += 1

    def file_permission(self, task: "Task", file: "File", mask: int) -> None:
        self.hook_calls["file_permission"] += 1

    def inode_create(
        self, task: "Task", parent: "Inode", labels: LabelPair
    ) -> None:
        self.hook_calls["inode_create"] += 1

    def inode_unlink(self, task: "Task", parent: "Inode", victim: "Inode") -> None:
        self.hook_calls["inode_unlink"] += 1

    def inode_getattr(self, task: "Task", inode: "Inode") -> None:
        self.hook_calls["inode_getattr"] += 1

    # -- pipe hooks (boolean: silent drop semantics) ----------------------------

    def pipe_write_allowed(self, task: "Task", pipe: "Inode") -> bool:
        self.hook_calls["pipe_write"] += 1
        return True

    def pipe_read_allowed(self, task: "Task", pipe: "Inode") -> bool:
        self.hook_calls["pipe_read"] += 1
        return True

    # -- IPC / task hooks --------------------------------------------------------

    def task_kill(self, sender: "Task", target: "Task", signum: int) -> None:
        self.hook_calls["task_kill"] += 1

    def task_alloc(self, parent: "Task", child: "Task") -> None:
        self.hook_calls["task_alloc"] += 1

    def capability_transfer(self, sender: "Task", receiver: "Task") -> None:
        self.hook_calls["capability_transfer"] += 1

    def socket_sendmsg(self, task: "Task", socket: "Inode") -> None:
        self.hook_calls["socket_sendmsg"] += 1

    def socket_recvmsg(self, task: "Task", socket: "Inode") -> None:
        self.hook_calls["socket_recvmsg"] += 1

    # -- memory hooks (for the lmbench mmap/prot-fault rows) -----------------------

    def mmap_file(self, task: "Task", file: "File", mask: int) -> None:
        self.hook_calls["mmap_file"] += 1

    def reset_counters(self) -> None:
        self.hook_calls.clear()
        self.denials.clear()


class NullSecurityModule(SecurityModule):
    """Explicit alias for the vanilla baseline — allows everything."""

    name = "vanilla-linux"


def _deny(module: SecurityModule, hook: str, why: str) -> None:
    from .task import EACCES, SyscallError

    module.denials[hook] += 1
    if module.audit is not None:
        from ..core.audit import AuditKind

        module.audit.record(AuditKind.DENIAL, "lsm", hook, why)
    raise SyscallError(EACCES, why)


class LaminarSecurityModule(SecurityModule):
    """The Laminar LSM: Section 3.2 rules applied at every hook.

    The hook bodies are deliberately small — "a straightforward check of the
    rules listed in Section 3.2" — so the per-syscall cost is one or two
    subset tests, which is what makes the Table 2 overheads small everywhere
    except null I/O (where the base syscall does almost no work).

    Every ``can_flow`` call here goes through the process-wide flow-verdict
    cache in :mod:`repro.core.rules`: the inode/file/pipe hooks on a hot
    syscall path (null I/O, pipe latency/bandwidth) typically re-check the
    same (task labels, object labels) pair thousands of times, and labels
    are immutable values, so repeated checks collapse to one dict lookup.
    """

    name = "laminar"

    # -- inode / file ------------------------------------------------------------

    def inode_permission(self, task: "Task", inode: "Inode", mask: int) -> None:
        self.hook_calls["inode_permission"] += 1
        self._check_object_access(task, inode, mask, "inode_permission")

    def file_permission(self, task: "Task", file: "File", mask: int) -> None:
        self.hook_calls["file_permission"] += 1
        self._check_object_access(task, file.inode, mask, "file_permission")

    def _check_object_access(
        self, task: "Task", inode: "Inode", mask: int, hook: str
    ) -> None:
        labels = task.labels
        if mask & _READ_LIKE:
            # Read: flow from inode to task.
            if not can_flow(inode.labels, labels):
                _deny(
                    self,
                    hook,
                    f"{task.name}{labels!r} may not read {inode!r}",
                )
        if mask & _WRITE_LIKE:
            # Write: flow from task to inode.
            if not can_flow(labels, inode.labels):
                _deny(
                    self,
                    hook,
                    f"{task.name}{labels!r} may not write {inode!r}",
                )

    def inode_create(
        self, task: "Task", parent: "Inode", labels: LabelPair
    ) -> None:
        self.hook_calls["inode_create"] += 1
        # A directory entry is a write to the parent; the new file's *name*
        # is protected by the parent's label.
        parent_writable = can_flow(task.labels, parent.labels)
        if not labeled_create_allowed(
            task.labels, task.capabilities, labels, parent_writable
        ):
            _deny(
                self,
                "inode_create",
                f"{task.name}{task.labels!r} may not create {labels!r} "
                f"under {parent!r}",
            )

    def inode_unlink(self, task: "Task", parent: "Inode", victim: "Inode") -> None:
        self.hook_calls["inode_unlink"] += 1
        # Removing a name mutates the parent directory; observing that the
        # name existed reads the parent.  Both directions must be legal.
        if not can_flow(task.labels, parent.labels):
            _deny(self, "inode_unlink", f"{task.name} may not write {parent!r}")
        if not can_flow(parent.labels, task.labels):
            _deny(self, "inode_unlink", f"{task.name} may not read {parent!r}")

    def inode_getattr(self, task: "Task", inode: "Inode") -> None:
        self.hook_calls["inode_getattr"] += 1
        # Metadata (size, mode) is protected by the inode's own label.
        if not can_flow(inode.labels, task.labels):
            _deny(self, "inode_getattr", f"{task.name} may not stat {inode!r}")

    # -- pipes: boolean results, silent drops --------------------------------------

    def pipe_write_allowed(self, task: "Task", pipe: "Inode") -> bool:
        self.hook_calls["pipe_write"] += 1
        ok = can_flow(task.labels, pipe.labels)
        if not ok:
            self.denials["pipe_write"] += 1
        return ok

    def pipe_read_allowed(self, task: "Task", pipe: "Inode") -> bool:
        self.hook_calls["pipe_read"] += 1
        ok = can_flow(pipe.labels, task.labels)
        if not ok:
            self.denials["pipe_read"] += 1
        return ok

    # -- IPC / tasks ------------------------------------------------------------------

    def task_kill(self, sender: "Task", target: "Task", signum: int) -> None:
        self.hook_calls["task_kill"] += 1
        # A signal is a message from sender to target.
        if not can_flow(sender.labels, target.labels):
            _deny(
                self,
                "task_kill",
                f"{sender.name} may not signal {target.name}",
            )

    def task_alloc(self, parent: "Task", child: "Task") -> None:
        self.hook_calls["task_alloc"] += 1
        # fork: the child starts with the parent's labels and a subset of
        # its capabilities; the kernel enforces the subset in sys_fork, the
        # hook re-validates it (defense in depth).
        if not child.capabilities.is_subset_of(parent.capabilities):
            _deny(self, "task_alloc", "child capabilities exceed parent's")
        if child.labels != parent.labels:
            _deny(self, "task_alloc", "child labels differ from parent's")

    def capability_transfer(self, sender: "Task", receiver: "Task") -> None:
        self.hook_calls["capability_transfer"] += 1
        # write_capability: the transfer is a message; labels of sender and
        # receiver must allow communication.
        if not can_flow(sender.labels, receiver.labels):
            _deny(
                self,
                "capability_transfer",
                f"{sender.name} may not send capabilities to {receiver.name}",
            )

    def socket_sendmsg(self, task: "Task", socket: "Inode") -> None:
        self.hook_calls["socket_sendmsg"] += 1
        if not can_flow(task.labels, socket.labels):
            _deny(
                self,
                "socket_sendmsg",
                f"{task.name}{task.labels!r} may not send on {socket!r}",
            )

    def socket_recvmsg(self, task: "Task", socket: "Inode") -> None:
        self.hook_calls["socket_recvmsg"] += 1
        if not can_flow(socket.labels, task.labels):
            _deny(
                self,
                "socket_recvmsg",
                f"{task.name}{task.labels!r} may not receive on {socket!r}",
            )

    def mmap_file(self, task: "Task", file: "File", mask: int) -> None:
        self.hook_calls["mmap_file"] += 1
        self._check_object_access(task, file.inode, mask, "mmap_file")


class LeakySecurityModule(LaminarSecurityModule):
    """Deliberately leaky LSM — the lamfuzz negative control.

    Each toggle in :data:`LEAKS` suppresses exactly one enforcement
    point while leaving the hook counters and audit record behaving
    normally, so the leak manifests only in *data* observables — the
    fuzzer must catch it through the extended extractor, not through a
    trivially different denial count.  If the fuzz oracle cannot catch
    either leak within its bounded budget, the CI gate fails: the oracle
    has gone blind.

    Overriding ``inode_permission``/``file_permission`` also drops this
    module out of :data:`_PURE_HOOK_IMPLS`, so the kernel's permission
    memo never replays them — the leak is observed through the real hook
    bodies on every call.
    """

    name = "laminar-leaky"

    #: Supported planted leaks:
    #: ``pipe-read``  — secret pipes deliver to unlabeled readers;
    #: ``file-read``  — read-denials on secret files are swallowed.
    LEAKS = ("pipe-read", "file-read")

    def __init__(self, leak: str) -> None:
        if leak not in self.LEAKS:
            raise ValueError(f"unknown leak {leak!r}; expected one of {self.LEAKS}")
        super().__init__()
        self.leak = leak

    def pipe_read_allowed(self, task: "Task", pipe: "Inode") -> bool:
        ok = super().pipe_read_allowed(task, pipe)
        if self.leak == "pipe-read":
            return True
        return ok

    def _leaky_object_access(self, call, mask: int) -> None:
        from .task import SyscallError

        try:
            call()
        except SyscallError:
            # Swallow only pure-read denials: a write-up failure leaking
            # through would corrupt label invariants, not just leak data.
            if (
                self.leak == "file-read"
                and (mask & _READ_LIKE)
                and not (mask & _WRITE_LIKE)
            ):
                return
            raise

    def inode_permission(self, task: "Task", inode: "Inode", mask: int) -> None:
        self._leaky_object_access(
            lambda: super(LeakySecurityModule, self).inode_permission(
                task, inode, mask
            ),
            mask,
        )

    def file_permission(self, task: "Task", file: "File", mask: int) -> None:
        self._leaky_object_access(
            lambda: super(LeakySecurityModule, self).file_permission(
                task, file, mask
            ),
            mask,
        )


#: Hook implementations whose verdict is a pure function of the interned
#: (task labels, object labels) pair — the soundness condition for the
#: kernel's permission memo (:mod:`repro.osim.hookchain`) to replay an
#: allow verdict without re-running the hook body.  A subclass that
#: overrides one of these hooks (extra state, side effects, ambient
#: conditions) drops out of the set and its verdicts are never replayed.
_PURE_HOOK_IMPLS: dict[str, tuple] = {
    "inode_permission": (
        SecurityModule.inode_permission,
        LaminarSecurityModule.inode_permission,
    ),
    "file_permission": (
        SecurityModule.file_permission,
        LaminarSecurityModule.file_permission,
    ),
}


def chain_bakeable_hooks(module: SecurityModule) -> frozenset[str]:
    """Names of ``module``'s hooks whose allow verdicts the permission
    memo may replay."""
    cls = type(module)
    return frozenset(
        name
        for name, impls in _PURE_HOOK_IMPLS.items()
        if getattr(cls, name, None) in impls
    )
