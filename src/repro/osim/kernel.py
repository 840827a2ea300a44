"""The simulated kernel: tasks, system calls, and LSM mediation.

This module stands in for Linux 2.6.22 plus the ~500 lines of kernel
modifications the paper adds for its new system calls (Fig. 3).  The design
keeps Linux's layering: syscalls do the VFS/task work and call fixed LSM
hook points; the installed :class:`~repro.osim.lsm.SecurityModule` decides.
Swapping in the :class:`~repro.osim.lsm.NullSecurityModule` yields the
vanilla-Linux baseline used to normalize Table 2.

System-call surface
-------------------
Laminar's calls (Fig. 3): ``alloc_tag``, ``set_task_label``,
``drop_label_tcb``, ``drop_capabilities``, ``write_capability`` (+ its
receive side), ``create_file_labeled``, ``mkdir_labeled``.

POSIX subset used by lmbench and the applications: ``open``, ``read``,
``write``, ``close``, ``stat``, ``creat``, ``unlink``, ``mkdir``, ``fork``,
``spawn_thread``, ``exec``, ``exit``, ``kill``, ``pipe``, ``socket`` /
``connect`` / ``send`` / ``recv``, ``mmap`` + simulated protection faults.
"""

from __future__ import annotations

import inspect
import itertools
from collections import Counter
from typing import Iterable, Optional, Sequence

from ..core import (
    AuditLog,
    CapabilitySet,
    Capability,
    Label,
    LabelPair,
    LabelType,
    Tag,
    TagAllocator,
    check_label_change,
)
from ..core import fastpath
from ..core.fastpath import counters as _fp_counters
from .faults import FaultKind, FaultPlan, KernelCrash
from .filesystem import (
    File,
    Filesystem,
    Inode,
    InodeType,
    OpenMode,
)
from .hookchain import HookChainEngine
from .lsm import LaminarSecurityModule, Mask, SecurityModule
from .pipes import Pipe
from .sockets import Network, Socket
from .task import (
    EBADF,
    EINVAL,
    EIO,
    ENOENT,
    ENOSPC,
    EPERM,
    ESRCH,
    SyscallError,
    Task,
)

#: Well-known tag value for the special ``tcb`` integrity tag (Section 4.4).
TCB_TAG = Tag(0, "tcb")


def call_syscall(fn, task: Task, args: tuple) -> object:
    """``fn(task, *args)``, where a call of the wrong arity fails with
    ``EINVAL`` like any other bad syscall argument instead of letting a
    ``TypeError`` escape to whoever drives the caller.  A well-formed call
    pays only the ``try``: the signature is consulted after a failure, to
    tell a wrong arity (raised before the body runs) from a ``TypeError``
    raised inside the body, which propagates."""
    try:
        return fn(task, *args)
    except TypeError:
        try:
            inspect.signature(fn).bind(task, *args)
        except TypeError:
            raise SyscallError(
                EINVAL, f"{fn.__name__} takes different arguments"
            ) from None
        raise


class Mapping:
    """A simulated memory mapping, for the lmbench mmap / prot-fault rows."""

    def __init__(self, file: File, mask: int) -> None:
        self.file = file
        self.mask = mask
        self.valid = True


class Sqe:
    """One submission-queue entry for :meth:`Kernel.sys_submit`
    (io_uring-style): an opcode naming a ``sys_`` call plus its
    positional arguments, e.g. ``Sqe("read", fd, 64)``."""

    __slots__ = ("op", "args")

    def __init__(self, op: str, *args: object) -> None:
        self.op = op
        self.args = args

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Sqe)
            and self.op == other.op
            and self.args == other.args
        )

    __hash__ = object.__hash__

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        return f"Sqe({self.op!r}{', ' if inner else ''}{inner})"

    def __reduce__(self):
        # Constructor-based: slots have no __dict__ for default pickling,
        # and re-entering __init__ lets label arguments re-intern on the
        # receiving side.  (The cluster wire does not pickle: lamwire
        # encodes entries field by field.)
        return (Sqe, (self.op, *self.args))


class Cqe:
    """One completion-queue entry: the opcode it answers, the result (or
    ``None``), and the errno (0 on success).  A failing entry does not
    abort the rest of the batch — exactly io_uring's contract."""

    __slots__ = ("op", "result", "errno")

    def __init__(self, op: str, result: object, errno: int = 0) -> None:
        self.op = op
        self.result = result
        self.errno = errno

    @property
    def ok(self) -> bool:
        return self.errno == 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Cqe)
            and self.op == other.op
            and self.result == other.result
            and self.errno == other.errno
        )

    def __repr__(self) -> str:
        return f"Cqe({self.op!r}, {self.result!r}, errno={self.errno})"

    def __reduce__(self):
        return (Cqe, (self.op, self.result, self.errno))


class Kernel:
    """One booted machine image.

    Base costs: a real kernel's syscalls do vastly different amounts of
    non-security work (lmbench: null I/O 0.13 µs, stat 0.92 µs, fork 96 µs,
    exec 300 µs, mmap 6877 µs on the paper's testbed).  The simulator's
    Python bodies are nearly uniform, which would make the security module's
    fixed per-check cost look enormous on heavy calls and mild on light ones
    — the opposite of Table 2.  ``SYSCALL_WORK`` therefore charges each
    syscall a base amount of simulated kernel work (plain loop iterations)
    roughly proportional to the real cost ratios, scaled down to keep the
    suite fast.  Both security modules pay it identically; only the hook
    cost differs between vanilla and Laminar kernels.
    """

    #: Simulated base work per syscall, in loop iterations (~25 ns each).
    SYSCALL_WORK = {
        "read": 160,
        "write": 160,
        "open": 1200,
        "stat": 4000,
        "creat": 8000,
        "create_file_labeled": 8000,
        "mkdir": 8000,
        "mkdir_labeled": 8000,
        "unlink": 3500,
        "close": 80,
        "fork": 60000,
        "spawn_thread": 8000,
        "exec": 120000,
        "exit": 2000,
        "kill": 800,
        "pipe": 2000,
        "mmap": 100000,
        "prot_fault": 800,
        "chdir": 1200,
        "socket": 2000,
        "send": 400,
        "recv": 400,
        "transmit": 400,
        "readv": 160,
        "writev": 160,
        "submit": 100,
        "lseek": 120,
    }

    #: The user→kernel crossing share of each syscall's ``SYSCALL_WORK``
    #: (trap, register save/restore, entry/exit bookkeeping).  Batched
    #: submission (:meth:`sys_submit`) pays it **once per batch** instead
    #: of once per call — the io_uring argument: for 1-byte I/O the
    #: crossing dominates, which is also why Table 2's null-I/O row is the
    #: paper's outlier.  Single calls are unaffected: ``SYSCALL_WORK``
    #: already includes this share.
    SYSCALL_ENTRY_WORK = 100

    #: Extra simulated work per additional iovec segment in readv/writev.
    VECTOR_SEGMENT_WORK = 40

    def __init__(self, security: Optional[SecurityModule] = None) -> None:
        self.security = security if security is not None else LaminarSecurityModule()
        #: Replication clock: the newest cluster replication event this
        #: kernel has applied (stale events are rejected).  0 means
        #: "never replicated".
        self.replication_epoch = 0
        #: Simulated-work accounting mode.  ``False`` (default): syscalls
        #: burn their ``SYSCALL_WORK`` busy loops inline, exactly as
        #: before.  ``True``: the iterations are *accumulated* into
        #: ``deferred_work`` instead, and the execution driver pays them
        #: as wall-clock waits (the cluster worker sleeps them off after
        #: each request).  On a host with fewer cores than shards this is
        #: what lets multiprocessing workers overlap service time the way
        #: distinct machines would; observables are unaffected — only
        #: *when* the simulated work is paid changes.
        self.defer_work = False
        self.deferred_work = 0
        self.tags = TagAllocator(first=1)
        self.fs = Filesystem()
        #: Fault-injection plan (``repro.osim.faults``); ``None`` keeps
        #: every syscall on the unfaulted fast path — one attribute load
        #: and a ``None`` test is the entire disabled-mode cost.
        self.faults: Optional[FaultPlan] = None
        self.net = Network()
        # The network device inode joins the per-filesystem ino namespace:
        # anonymous inodes normally draw from a process-global counter, but
        # this one appears in audit details (denied transmits), which must
        # be byte-identical across shard boots and single-kernel replays.
        self.fs.adopt_inode(self.net.inode)
        #: Live tasks by tid; ``sys_exit`` removes a task, and tids are
        #: never reused.
        self.tasks: dict[int, Task] = {}
        self._tid_counter = itertools.count(1)
        self._pgid_counter = itertools.count(1)
        self.syscall_counts: Counter[str] = Counter()
        #: Machine-wide audit log (TCB-internal; see repro.core.audit).
        self.audit = AuditLog()
        self.security.audit = self.audit
        #: The permission memo: allowed directory walks and held-file
        #: checks, replayed until :meth:`HookChainEngine.invalidate`
        #: (:mod:`repro.osim.hookchain`).
        self.hookchain = HookChainEngine(self)
        #: Per-opcode batch work: SYSCALL_WORK minus the amortized entry
        #: share (floor 0 — close, for one, is mostly crossing cost).
        self._batch_work = {
            name: max(0, work - self.SYSCALL_ENTRY_WORK)
            for name, work in self.SYSCALL_WORK.items()
        }
        #: op -> bound sys_* method, for batch entries sys_submit does not
        #: run inline.  These run their full bodies (including their own
        #: ``_count``), so equivalence with sequential issue is by
        #: construction; only read/write shave the entry share.
        self._submit_generic = {
            op: getattr(self, f"sys_{op}") for op in self.SUBMIT_GENERIC_OPS
        }
        self._install_base_tree()

    def set_security_module(self, security: SecurityModule) -> None:
        """Swap the installed security module (benchmark arms do this to
        compare vanilla vs Laminar on one booted image).  Empties the
        permission memo: its verdicts belong to the old module."""
        self.security = security
        security.audit = self.audit
        self.hookchain.invalidate()

    # ------------------------------------------------------------------ boot

    def _install_base_tree(self) -> None:
        """Install-time layout (Section 5.2): system directories carry the
        administrator integrity label; /dev gets the null/zero devices; the
        persistent capability store lives under /etc/laminar."""
        self.admin_integrity = self.tags.alloc("sysadmin")
        #: Recovery's fiat most-restrictive tag: assigned to inodes whose
        #: persisted labels cannot be decoded after a crash.  Nobody is
        #: ever granted its capabilities, so quarantined data is readable
        #: by no principal (see repro.osim.recovery).
        self.quarantine_tag = self.tags.alloc("quarantine")
        admin = LabelPair(Label.EMPTY, Label.of(self.admin_integrity))
        self.fs.link_child(
            self.fs.root,
            "lost+found",
            Inode(InodeType.DIRECTORY, admin, mode=0o700),
        )
        for path in ("etc", "home", "dev", "tmp"):
            inode = Inode(InodeType.DIRECTORY, admin if path != "tmp" else LabelPair.EMPTY, mode=0o755)
            self.fs.link_child(self.fs.root, path, inode)
        self.fs.root.labels = admin
        self.fs.root._persist_labels()
        etc = self.fs.root.children["etc"]
        laminar_dir = Inode(InodeType.DIRECTORY, admin, mode=0o755)
        self.fs.link_child(etc, "laminar", laminar_dir)
        caps_dir = Inode(InodeType.DIRECTORY, admin, mode=0o700)
        self.fs.link_child(laminar_dir, "caps", caps_dir)
        dev = self.fs.root.children["dev"]
        for name in ("null", "zero", "console"):
            self.fs.link_child(dev, name, Inode(InodeType.DEVICE, LabelPair.EMPTY))
        #: init: the first task, fully trusted bootstrap principal.
        self.init_task = self.spawn_task("init", user="root")

    def spawn_task(
        self,
        name: str,
        user: str = "root",
        labels: LabelPair = LabelPair.EMPTY,
        caps: CapabilitySet = CapabilitySet.EMPTY,
        pgid: int | None = None,
    ) -> Task:
        """Create a task outside fork (boot, login, and test setup)."""
        tid = next(self._tid_counter)
        task = Task(tid, name=name, user=user, labels=labels, caps=caps)
        task.pgid = pgid if pgid is not None else next(self._pgid_counter)
        task.cwd = self.fs.root
        self.tasks[tid] = task
        return task

    # --------------------------------------------------------- small helpers

    def _count(self, name: str) -> None:
        if self.faults is not None:
            self._fault_gate(f"syscall:{name}")
        self.syscall_counts[name] += 1
        work = self.SYSCALL_WORK.get(name, 0)
        if self.defer_work:
            self.deferred_work += work
            return
        for _ in range(work):
            pass

    def _fault_gate(self, site: str) -> None:
        """Cross a fault site that models failure *before* any mutation:
        crash kinds raise :class:`KernelCrash`, detected kinds raise the
        corresponding :class:`SyscallError`, and a clean crossing is free.
        Callers guarantee ``self.faults is not None``."""
        faults = self.faults
        kind = faults.fire(site)
        if kind is None:
            return
        if kind is FaultKind.CRASH or kind is FaultKind.TORN_WRITE:
            faults.crash(site)
        if kind is FaultKind.ENOSPC:
            raise SyscallError(ENOSPC, f"simulated disk full at {site}")
        raise SyscallError(EIO, f"simulated I/O error at {site}")

    # ------------------------------------------------- faults and recovery

    def install_faults(self, plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
        """Arm (or with ``None`` disarm) a fault plan on this machine.  The
        kernel and the filesystem share the plan, so one global occurrence
        numbering covers every site — the numbering a recording run
        enumerates and a replaying run addresses."""
        self.faults = plan
        self.fs.faults = plan
        if plan is not None:
            plan.audit = self.audit
        return plan

    def crash(self) -> None:
        """Simulated power loss: every task dies, all volatile kernel state
        (fd tables, the permission memo, the armed fault plan) is
        discarded.  The filesystem object — inode data, xattrs, the
        journal — survives: it is the disk."""
        for task in self.tasks.values():
            task.alive = False
            task.fd_table.clear()
            task.pending_signals.clear()
        self.tasks.clear()
        self.install_faults(None)
        self.hookchain.invalidate()

    def remount(self):
        """Mount after a crash (or cleanly): run journal recovery, then
        bring the machine back up with a fresh init task.  Returns the
        :class:`~repro.osim.recovery.RecoveryReport`."""
        from .recovery import recover  # deferred: recovery imports us

        report = recover(self)
        self.hookchain.invalidate()
        if not self.tasks:
            self.init_task = self.spawn_task("init", user="root")
        return report

    def apply_replication(self, epoch: int) -> bool:
        """Note that a cluster replication event (capability stores,
        principal labels, tag namespace) has landed on this shard.

        Epoch-stamped: an event not newer than what this kernel already
        applied returns ``False`` and changes nothing, so re-delivered or
        reordered replication frames are harmless.  A fresh event leaves
        the permission memo alone: a principal rebuilt at another label
        pair only reaches entries proved under that pair, which is in
        every key, and capabilities never enter a replayable hook's
        verdict."""
        if epoch <= self.replication_epoch:
            return False
        self.replication_epoch = epoch
        return True

    def _require_alive(self, task: Task) -> None:
        if not task.alive:
            raise SyscallError(ESRCH, f"{task.name} has exited")

    def _walk_checked(self, task: Task, path: str) -> tuple[Inode, Optional[str]]:
        """Resolve ``path`` to ``(directory, final name)`` as
        :meth:`Filesystem.resolve_parent` does, running the search
        permission hook on every traversed directory.

        Relative walks do *not* re-check the starting directory — holding
        it (as cwd / an open directory, openat-style) is the authorization,
        checked when it was obtained.  This is what makes the paper's
        relative-path discipline work for high-integrity tasks: a task at
        ``{I(t)}`` cannot re-read an unlabeled or admin-labeled directory
        (no read down), but it can keep resolving under a directory it
        opened before raising its integrity (Section 5.2's alternative to
        trusting the administrator's label on ``/``).

        An allowed walk is recorded in the permission memo
        (:mod:`repro.osim.hookchain`) and replayed from it — hook counts
        included — for every task at the same label pair, until a
        traversed directory is relabeled or the memo is invalidated.
        Only a path whose last piece names an entry is memoized:
        :meth:`Filesystem.split` drops a final ``""`` or ``"."``, so for
        ``/tmp/d/`` the text before the last ``/`` does not name the
        directories walked."""
        cwd = task.cwd
        relative = cwd is not None and not path.startswith("/")
        head, _, name = path.rpartition("/")
        memo = self.hookchain
        key = None
        if name and name != ".":
            key = (task.security.labels, cwd if relative else None, head)
            directory = memo.lookup_path(key)
            if directory is not None:
                return directory, name
        check = self.security.inode_permission
        components = self.fs.walk_components(path, cwd)
        directory = next(components)
        observed = []
        if not relative:
            check(task, directory, Mask.EXEC)
            observed.append((directory, directory.labels))
        for directory in components:
            check(task, directory, Mask.EXEC)
            observed.append((directory, directory.labels))
        if key is None:
            parts = self.fs.split(path)
            return directory, (parts[-1] if parts else None)
        memo.profile_path(key, tuple(observed), directory)
        return directory, name

    def sys_chdir(self, task: Task, path: str) -> None:
        """Change the working directory (the handle relative resolution
        hangs off).  Acquiring it requires search permission now."""
        self._count("chdir")
        self._require_alive(task)
        inode = self.fs.lookup(*self._walk_checked(task, path), path)
        if not inode.is_dir:
            raise SyscallError(EINVAL, f"{path} is not a directory")
        self.security.inode_permission(task, inode, Mask.EXEC)
        task.cwd = inode

    # =============================================================== Fig. 3 =

    def sys_alloc_tag(self, task: Task, name: str = "") -> tuple[Tag, CapabilitySet]:
        """Allocate a fresh tag; the caller becomes its owner and receives
        both capabilities (written into ``caps`` in the C signature)."""
        self._count("alloc_tag")
        self._require_alive(task)
        tag = self.tags.alloc(name)
        granted = CapabilitySet.dual(tag)
        task.security.grant(granted)
        return tag, granted

    def sys_set_task_label(
        self, task: Task, label_type: LabelType, new_label: Label
    ) -> None:
        """Set the secrecy or integrity label of the calling principal.

        The kernel checks the explicit label-change rule against the task's
        *kernel-resident* capabilities — this is the call the VM issues at
        security-region entry/exit so the OS can mediate syscalls made
        inside the region (Section 4.4)."""
        self._count("set_task_label")
        self._require_alive(task)
        old = task.labels.get(label_type)
        check_label_change(old, new_label, task.capabilities, context=task.name)
        task.security.set_labels_unchecked(task.labels.replacing(label_type, new_label))

    def sys_drop_label_tcb(self, caller: Task, target_tid: int) -> None:
        """Drop the target thread's current labels without capability checks.

        Callable only by a thread carrying the special ``tcb`` integrity tag,
        and only on threads in the same address space (process group) — "the
        VM cannot drop the labels on other applications" (Section 4.4)."""
        self._count("drop_label_tcb")
        self._require_alive(caller)
        if TCB_TAG not in caller.labels.integrity:
            raise SyscallError(EPERM, f"{caller.name} lacks the tcb integrity tag")
        target = self.tasks.get(target_tid)
        if target is None:
            raise SyscallError(ESRCH, f"no task {target_tid}")
        if getattr(target, "pgid", None) != getattr(caller, "pgid", None):
            raise SyscallError(EPERM, "drop_label_tcb crosses address spaces")
        target.security.set_labels_unchecked(LabelPair.EMPTY)

    def sys_set_security_tcb(
        self,
        caller: Task,
        target_tid: int,
        labels: LabelPair,
        caps: CapabilitySet,
    ) -> None:
        """Set a thread's kernel-resident labels *and* capabilities without
        capability checks — the kernel half of the trusted VM thread's
        security-region save/restore ("the VM restores the labels and
        capabilities it had just before it entered the region",
        Section 4.4).  Like ``drop_label_tcb`` it demands the special
        ``tcb`` integrity tag and is confined to the caller's own address
        space, so a VM can never rewrite another application's labels."""
        self._count("set_security_tcb")
        self._require_alive(caller)
        if TCB_TAG not in caller.labels.integrity:
            raise SyscallError(EPERM, f"{caller.name} lacks the tcb integrity tag")
        target = self.tasks.get(target_tid)
        if target is None:
            raise SyscallError(ESRCH, f"no task {target_tid}")
        if target.pgid != caller.pgid:
            raise SyscallError(EPERM, "set_security_tcb crosses address spaces")
        target.security.set_labels_unchecked(labels)
        target.security.replace_capabilities(caps)

    def sys_drop_capabilities(
        self, task: Task, caps: Iterable[Capability]
    ) -> None:
        """Permanently drop capabilities from the calling principal.  (The
        ``tmp`` flag of the C API — suspension for the scope of a security
        region or a fork — is implemented by the VM's save/restore stack and
        by ``sys_fork``'s subset argument, so the kernel side is only the
        permanent drop.)"""
        self._count("drop_capabilities")
        self._require_alive(task)
        for cap in caps:
            task.security.drop_capability(cap.tag, cap.kind)

    def sys_write_capability(self, task: Task, cap: Capability, fd: int) -> None:
        """Send a capability to another thread via a pipe.

        The sending side checks the flow from the sender into the pipe; the
        receiving side (:meth:`sys_read_capability`) completes the
        kernel-mediated transfer.  A capability the sender does not hold
        cannot be sent."""
        self._count("write_capability")
        self._require_alive(task)
        if not task.security.holds(cap):
            raise SyscallError(EPERM, f"{task.name} does not hold {cap!r}")
        file = task.lookup_fd(fd)
        pipe: Pipe | None = getattr(file.inode, "pipe", None)
        if pipe is None:
            raise SyscallError(EINVAL, "write_capability requires a pipe fd")
        if not self.security.pipe_write_allowed(task, pipe.inode):
            # Same silent-drop semantics as pipe data.
            pipe.dropped += 1
            return
        pipe.cap_messages = getattr(pipe, "cap_messages", [])
        pipe.cap_messages.append((task, cap))

    def sys_read_capability(self, task: Task, fd: int) -> Optional[Capability]:
        """Receive a capability sent with ``write_capability``.  Returns
        ``None`` when nothing is deliverable (indistinguishable from an
        empty pipe, by design)."""
        self._count("read_capability")
        self._require_alive(task)
        file = task.lookup_fd(fd)
        pipe: Pipe | None = getattr(file.inode, "pipe", None)
        if pipe is None:
            raise SyscallError(EINVAL, "read_capability requires a pipe fd")
        if not self.security.pipe_read_allowed(task, pipe.inode):
            return None
        queue = getattr(pipe, "cap_messages", [])
        if not queue:
            return None
        sender, cap = queue[0]
        try:
            self.security.capability_transfer(sender, task)
        except SyscallError:
            return None
        queue.pop(0)
        task.security.grant(CapabilitySet([cap]))
        return cap

    def sys_create_file_labeled(
        self, task: Task, path: str, labels: LabelPair, mode: int = 0o644
    ) -> int:
        """Create a labeled file (Fig. 3) and return an open fd."""
        self._count("create_file_labeled")
        return self._create_labeled(task, path, labels, mode, InodeType.REGULAR)

    def sys_mkdir_labeled(
        self, task: Task, path: str, labels: LabelPair, mode: int = 0o755
    ) -> int:
        """Create a labeled directory (Fig. 3).  Returns 0."""
        self._count("mkdir_labeled")
        self._create_labeled(task, path, labels, mode, InodeType.DIRECTORY)
        return 0

    def _create_labeled(
        self,
        task: Task,
        path: str,
        labels: LabelPair,
        mode: int,
        itype: InodeType,
    ) -> int:
        self._require_alive(task)
        parent, name = self._walk_checked(task, path)
        if name is None:
            raise SyscallError(EINVAL, path)
        self.security.inode_create(task, parent, labels)
        inode = Inode(itype, labels, mode)
        self._journaled_link(parent, name, inode)
        if itype is InodeType.DIRECTORY:
            return 0
        file = File(inode, OpenMode.READ | OpenMode.WRITE)
        return task.install_fd(file)

    def _journaled_link(self, parent: Inode, name: str, inode: Inode) -> None:
        """Link a freshly created inode under a journal ``create`` record,
        so a crash between the link and the commit rolls the creation back
        (the paper's labeled-create must be atomic: a half-created labeled
        file with no durable record of its label would otherwise be
        recovered by guesswork)."""
        faults = self.faults
        if faults is None:
            self.fs.link_child(parent, name, inode)
            return
        # Adopt the inode into this filesystem's numbering *before* the
        # journal record references it — link_child would adopt anyway,
        # but by then the begin record would hold the provisional number.
        self.fs.adopt_inode(inode)
        self._fault_gate("journal.append")
        rec = self.fs.journal.begin(
            "create", parent_ino=parent.ino, name=name, ino=inode.ino
        )
        try:
            self.fs.link_child(parent, name, inode)
        except SyscallError:
            self.fs.journal.abort(rec)
            raise
        kind = faults.fire("create.link")
        if kind is not None:
            if kind is FaultKind.CRASH or kind is FaultKind.TORN_WRITE:
                # Uncommitted: recovery unlinks the orphan.
                faults.crash("create.link")
            parent.children.pop(name, None)  # detected: roll back inline
            self.fs.journal.abort(rec)
            if kind is FaultKind.ENOSPC:
                raise SyscallError(ENOSPC, "simulated disk full at create.link")
            raise SyscallError(EIO, "simulated I/O error at create.link")
        self.fs.journal.commit(rec)

    # ============================================================ POSIX-ish =

    def sys_open(self, task: Task, path: str, mode: str = "r") -> int:
        self._count("open")
        self._require_alive(task)
        flags = OpenMode.parse(mode)
        parent, name = self._walk_checked(task, path)
        inode = parent if name is None else parent.children.get(name)
        if inode is None:
            if not flags & OpenMode.CREATE:
                raise SyscallError(ENOENT, path)
            # Plain creat: the new file takes the creating thread's
            # labels (Section 4.5, "other system resources use the
            # label of their creating thread").
            labels = task.labels
            self.security.inode_create(task, parent, labels)
            inode = Inode(InodeType.REGULAR, labels)
            self._journaled_link(parent, name, inode)  # type: ignore[arg-type]
        mask = (Mask.READ if flags & OpenMode.READ else 0) | (
            Mask.WRITE if flags & OpenMode.WRITE else 0
        )
        self.security.inode_permission(task, inode, mask)
        file = File(inode, flags)
        return task.install_fd(file)

    def sys_creat(self, task: Task, path: str) -> int:
        self._count("creat")
        return self.sys_open(task, path, "w")

    def sys_read(self, task: Task, fd: int, count: int = -1) -> bytes:
        self._count("read")
        self._require_alive(task)
        return self._transfer(task, task.lookup_fd(fd), False, count)

    def sys_write(self, task: Task, fd: int, data: bytes) -> int:
        self._count("write")
        self._require_alive(task)
        return self._transfer(task, task.lookup_fd(fd), True, data)

    def _transfer(self, task: Task, file: File, write: bool, arg):
        """The body of ``sys_read`` (``arg`` is the count) and
        ``sys_write`` (``arg`` is the data), which ``sys_submit`` also runs
        for the first read or write of a descriptor in a batch.  A pipe
        delivers under its own hooks; a file access is checked by
        ``file_permission``, replayed from the held-file memo where it
        can be."""
        pipe: Pipe | None = getattr(file.inode, "pipe", None)
        if pipe is not None:
            if write:
                return pipe.write(task, arg, self.security)
            return pipe.read(task, self.security)
        if not self.hookchain.replay_fd(task, file, write):
            self.security.file_permission(task, file, Mask.WRITE if write else Mask.READ)
            self.hookchain.profile_fd(task, file, write)
        if not (file.writable() if write else file.readable()):
            raise SyscallError(EBADF, f"fd not open for {'writing' if write else 'reading'}")
        if file.inode.itype is InodeType.DEVICE:
            return len(arg) if write else b"\0" * max(arg, 0)
        return self.fs.write(file, arg) if write else self.fs.read(file, arg)

    # -- vectored I/O (one syscall, one permission check, many segments) -----

    def sys_readv(self, task: Task, fd: int, counts: Sequence[int]) -> list[bytes]:
        """Scatter read: one syscall's worth of entry/permission cost for
        ``len(counts)`` segments.  On a pipe, each segment receives one
        message (or ``b""``), with per-message mediation like sys_read."""
        self._count("readv")
        self._extra_work(self.VECTOR_SEGMENT_WORK * max(0, len(counts) - 1))
        self._require_alive(task)
        file = task.lookup_fd(fd)
        pipe: Pipe | None = getattr(file.inode, "pipe", None)
        if pipe is not None:
            security = self.security
            return [pipe.read(task, security) for _ in counts]
        self.security.file_permission(task, file, Mask.READ)
        if not file.readable():
            raise SyscallError(EBADF, "fd not open for reading")
        if file.inode.itype is InodeType.DEVICE:
            return [b"\0" * max(count, 0) for count in counts]
        read = self.fs.read
        return [read(file, count) for count in counts]

    def sys_writev(self, task: Task, fd: int, buffers: Sequence[bytes]) -> int:
        """Gather write: one syscall for many segments.  Files get one
        permission check then contiguous writes; pipes deliver one message
        per segment, each silently droppable on its own."""
        self._count("writev")
        self._extra_work(self.VECTOR_SEGMENT_WORK * max(0, len(buffers) - 1))
        self._require_alive(task)
        file = task.lookup_fd(fd)
        pipe: Pipe | None = getattr(file.inode, "pipe", None)
        if pipe is not None:
            security = self.security
            return sum(pipe.write(task, data, security) for data in buffers)
        self.security.file_permission(task, file, Mask.WRITE)
        if not file.writable():
            raise SyscallError(EBADF, "fd not open for writing")
        if file.inode.itype is InodeType.DEVICE:
            return sum(len(data) for data in buffers)
        write = self.fs.write
        return sum(write(file, data) for data in buffers)

    def _extra_work(self, iterations: int) -> None:
        if self.defer_work:
            self.deferred_work += iterations
            return
        for _ in range(iterations):
            pass

    def drain_deferred_work(self) -> int:
        """Return and zero the accumulated deferred iterations (the
        execution driver converts them to wall-clock waits)."""
        work = self.deferred_work
        self.deferred_work = 0
        return work

    # -- batched submission (io_uring-style) ---------------------------------

    #: Data-plane opcodes sys_submit executes through the ordinary sys_*
    #: bodies.  Control-plane calls (label/capability changes, fork, exec,
    #: exit, kill) are deliberately NOT batchable: excluding them
    #: guarantees no entry of a batch can change the submitting task's
    #: aliveness or labels, which is what lets the batch hoist
    #: ``_require_alive`` and replay per-descriptor permission proofs.
    SUBMIT_GENERIC_OPS = (
        "open",
        "creat",
        "close",
        "stat",
        "unlink",
        "mkdir",
        "chdir",
        "pipe",
        "socket",
        "send",
        "recv",
        "transmit",
        "readv",
        "writev",
    )
    #: Every opcode a batch entry may name.
    SUBMIT_OPS = frozenset(("read", "write", "lseek", *SUBMIT_GENERIC_OPS))

    def sys_submit(self, task: Task, sqes: Sequence[Sqe]) -> list[Cqe]:
        """Submit a batch of syscall descriptors; get a completion list.

        Semantics are io_uring's: entries execute in order, each entry
        completes with a result or an errno (``EINVAL`` for an entry of
        the wrong arity), and a failure does not abort the batch.  The
        security record — audit entries, denial counters,
        LSM hook counts, per-opcode syscall counts — is byte-identical to
        issuing the same calls sequentially (property-tested); only the
        *overhead* differs:

        * the user→kernel crossing (``SYSCALL_ENTRY_WORK``) is paid once
          per batch, not once per read or write entry;
        * ``_require_alive`` is hoisted (sound: no batchable op changes
          aliveness);
        * read, write and lseek entries run inline against a per-batch
          descriptor record: the fd's file, its pipe, and the permissions
          the batch has proved on it.  The first read and the first write
          of a descriptor run the body of ``sys_read``/``sys_write``
          (:meth:`_transfer`); later ones replay its allowed
          ``file_permission`` verdict, still counting the hook per entry.
          This is the held-file memo's rule (:mod:`repro.osim.hookchain`)
          at batch scope — no batchable op changes a label — and like the
          memo it keeps no denial, nothing on a pipe, and nothing while
          switched off.  Any other entry runs its whole ``sys_*`` body,
          which may close an fd, reuse its number or empty the memo
          (unlink), so the records are dropped before it.  lseek
          keeps its full ``SYSCALL_WORK`` charge and its
          ``syscall:lseek`` fault site;
        * read and write counts, replayed ``file_permission`` hooks, memo
          hits and modeled work are added once per batch, in a ``finally``:
          a raising entry or a crash leaves the totals of the entries run.
        """
        self._count("submit")
        self._require_alive(task)
        faults = self.faults
        counts = self.syscall_counts
        batch_work = self._batch_work
        fs_read = self.fs.read
        fs_write = self.fs.write
        hook_calls = self.security.hook_calls
        memo_on = self.hookchain.files_ok and fastpath.flags.path_walk_cache
        #: fd -> [file, pipe, Mask bits proved this batch]
        records: dict = {}

        def resolve(fd) -> list:
            file = task.lookup_fd(fd)
            record = records[fd] = [file, getattr(file.inode, "pipe", None), 0]
            return record

        work = hits = reads = writes = 0
        cqes: list[Cqe] = []
        try:
            for sqe in sqes:
                op = sqe.op
                if faults is not None:
                    kind = faults.fire("submit.boundary")
                    if kind is not None:
                        if kind is FaultKind.CRASH or kind is FaultKind.TORN_WRITE:
                            # Completions so far are lost with the rest of RAM.
                            faults.crash("submit.boundary")
                        # Detected error: fail this entry, keep the batch
                        # going (io_uring's contract — an errno
                        # completion, no abort).
                        errno = ENOSPC if kind is FaultKind.ENOSPC else EIO
                        cqes.append(Cqe(op, None, errno))
                        continue
                try:
                    if op == "read" or op == "write":
                        write = op == "write"
                        args = sqe.args
                        if len(args) == 2:
                            fd, arg = args
                        elif len(args) == 1 and not write:
                            fd, arg = args[0], -1
                        else:
                            raise SyscallError(
                                EINVAL,
                                "write takes (fd, data)" if write else "read takes (fd[, count])",
                            )
                        if write:
                            writes += 1
                        else:
                            reads += 1
                        work += batch_work[op]
                        record = records.get(fd) or resolve(fd)
                        file, pipe, proved = record
                        mask = Mask.WRITE if write else Mask.READ
                        if not proved & mask:
                            result = self._transfer(task, file, write, arg)
                            if memo_on and pipe is None:
                                record[2] = proved | mask
                        else:
                            # The proof replayed, then _transfer's data
                            # step inline: a call per entry costs the loop.
                            hits += 1
                            if file.inode.itype is InodeType.DEVICE:
                                result = len(arg) if write else b"\0" * max(arg, 0)
                            elif write:
                                result = fs_write(file, arg)
                            else:
                                result = fs_read(file, arg)
                    elif op == "lseek":
                        args = sqe.args
                        if len(args) != 2:
                            raise SyscallError(EINVAL, "lseek takes (fd, offset)")
                        fd, offset = args
                        self._count("lseek")
                        file = (records.get(fd) or resolve(fd))[0]
                        result = self._seek(file, offset)
                    elif type(op) is str and op in self._submit_generic:
                        records.clear()
                        result = call_syscall(self._submit_generic[op], task, sqe.args)
                    else:
                        raise SyscallError(
                            EINVAL, f"op {op!r} is not batchable via sys_submit"
                        )
                except SyscallError as exc:
                    cqes.append(Cqe(op, None, exc.errno))
                else:
                    cqes.append(Cqe(op, result, 0))
        finally:
            self._extra_work(work)
            if reads:
                counts["read"] += reads
            if writes:
                counts["write"] += writes
            if hits:
                # One file_permission hook per replayed proof.
                hook_calls["file_permission"] += hits
                _fp_counters.hookchain_hits += hits
        return cqes

    def sys_lseek(self, task: Task, fd: int, offset: int) -> int:
        """Reposition an open file description (absolute offsets only).

        No LSM content hook fires: the offset is metadata of a
        description the task already holds; data access is checked at
        read/write time, exactly as in Linux."""
        self._count("lseek")
        self._require_alive(task)
        return self._seek(task.lookup_fd(fd), offset)

    @staticmethod
    def _seek(file: File, offset: int) -> int:
        if getattr(file.inode, "pipe", None) is not None:
            raise SyscallError(EINVAL, "cannot seek a pipe")
        if offset < 0:
            raise SyscallError(EINVAL, f"negative offset {offset}")
        file.offset = offset
        return offset

    def sys_close(self, task: Task, fd: int) -> None:
        self._count("close")
        file = task.remove_fd(fd)
        if file.refs == 0 and file.writable():
            # Last explicit close of a pipe's write end hangs the pipe up
            # (mediated like a write: see Pipe.close).  Task *exit* never
            # does this — termination notification stays suppressed.
            pipe: Pipe | None = getattr(file.inode, "pipe", None)
            if pipe is not None and not pipe.closed:
                pipe.close(task, self.security)

    def sys_stat(self, task: Task, path: str) -> dict[str, object]:
        self._count("stat")
        self._require_alive(task)
        inode = self.fs.lookup(*self._walk_checked(task, path), path)
        self.security.inode_getattr(task, inode)
        return {
            "ino": inode.ino,
            "type": inode.itype.value,
            "size": inode.size,
            "mode": inode.mode,
            "nlink": inode.nlink,
        }

    def sys_unlink(self, task: Task, path: str) -> None:
        self._count("unlink")
        self._require_alive(task)
        parent, name = self._walk_checked(task, path)
        if name is None:
            raise SyscallError(EINVAL, path)
        victim = parent.children.get(name)
        if victim is None:
            raise SyscallError(ENOENT, path)
        self.security.inode_unlink(task, parent, victim)
        self.fs.unlink_child(parent, name)
        self.hookchain.invalidate()

    def sys_mkdir(self, task: Task, path: str, mode: int = 0o755) -> None:
        self._count("mkdir")
        self._create_labeled(task, path, task.labels, mode, InodeType.DIRECTORY)

    # -- processes and threads -------------------------------------------------

    def sys_fork(
        self, parent: Task, caps_subset: Optional[CapabilitySet] = None
    ) -> Task:
        """Fork: the child inherits the parent's labels and a *subset* of its
        capabilities (all of them by default) — "when a new principal is
        created, its capabilities are a subset of its immediate parent"."""
        self._count("fork")
        self._require_alive(parent)
        caps = parent.capabilities if caps_subset is None else caps_subset
        if not caps.is_subset_of(parent.capabilities):
            raise SyscallError(EPERM, "fork capability subset exceeds parent's")
        child = self.spawn_task(
            f"{parent.name}-child",
            user=parent.user,
            labels=parent.labels,
            caps=caps,
        )
        child.parent = parent
        child.cwd = parent.cwd
        self.security.task_alloc(parent, child)
        return child

    def sys_spawn_thread(
        self, parent: Task, caps_subset: Optional[CapabilitySet] = None
    ) -> Task:
        """Create a thread in the same address space (same pgid); labels and
        capability subsetting work exactly like fork."""
        self._count("spawn_thread")
        child = self.sys_fork(parent, caps_subset)
        child.pgid = parent.pgid
        return child

    def sys_exec(self, task: Task, path: str) -> None:
        """Execute a program image: requires read+exec on the file, which in
        particular enforces "the server cannot execute or read a plugin that
        has an integrity label lower than its own" (Section 3.3)."""
        self._count("exec")
        self._require_alive(task)
        inode = self.fs.lookup(*self._walk_checked(task, path), path)
        self.security.inode_permission(task, inode, Mask.READ | Mask.EXEC)
        # The image replaces the address space; fds and security state persist.
        task.name = f"{task.name}!{path.rsplit('/', 1)[-1]}"

    def sys_exit(self, task: Task, code: int = 0) -> None:
        """End ``task`` and reap it: it leaves :attr:`tasks` at once, so
        every call that names its tid answers exactly as for a tid never
        allocated (``ESRCH``, ``no task N``).  Tids are never reused, so
        no later task can be reached under an exited one's tid, nor hit a
        permission-memo entry recorded under it."""
        self._count("exit")
        task.alive = False
        task.exit_code = code
        for fd in list(task.fd_table):
            task.fd_table.pop(fd).refs -= 1
        self.tasks.pop(task.tid, None)
        # Deliberately *no* notification of peers: suppressing termination
        # notification is how OS DIFC systems close the termination channel.

    def sys_kill(self, sender: Task, target_tid: int, signum: int) -> None:
        self._count("kill")
        self._require_alive(sender)
        target = self.tasks.get(target_tid)
        if target is None:
            # An exited task is reaped, so it and a task that never existed
            # answer with the same errno and text: the sender learns nothing
            # about whether a peer ended (Section 5.2).
            raise SyscallError(ESRCH, f"no task {target_tid}")
        self.security.task_kill(sender, target, signum)
        target.pending_signals.append((signum, sender.tid))

    # -- pipes ---------------------------------------------------------------------

    def sys_pipe(
        self, task: Task, labels: Optional[LabelPair] = None
    ) -> tuple[int, int]:
        """Create a pipe labeled with the creating thread's labels (or an
        explicit pair).  Returns (read_fd, write_fd)."""
        self._count("pipe")
        self._require_alive(task)
        pipe = Pipe(labels if labels is not None else task.labels)
        read_end = File(pipe.inode, OpenMode.READ)
        write_end = File(pipe.inode, OpenMode.WRITE)
        return task.install_fd(read_end), task.install_fd(write_end)

    def share_fd(self, donor: Task, fd: int, recipient: Task) -> int:
        """Duplicate an open fd into another task's table (what fork's fd
        inheritance or SCM_RIGHTS passing would do).  The *use* of the fd is
        still checked per-operation, so sharing grants nothing by itself —
        the paper's argument for not needing Flume's endpoints."""
        file = donor.lookup_fd(fd)
        return recipient.install_fd(file)

    # -- sockets ---------------------------------------------------------------------

    def sys_socket(self, task: Task, labels: Optional[LabelPair] = None) -> Socket:
        self._count("socket")
        self._require_alive(task)
        return Socket(labels if labels is not None else task.labels)

    def sys_send(self, task: Task, socket: Socket, data: bytes) -> int:
        self._count("send")
        return socket.send(task, data, self.security)

    def sys_recv(self, task: Task, socket: Socket) -> bytes:
        self._count("recv")
        return socket.recv(task, self.security)

    def sys_transmit(self, task: Task, data: bytes) -> int:
        """Send to the outside network (the unlabeled world)."""
        self._count("transmit")
        return self.net.transmit(task, data, self.security)

    # -- memory (lmbench rows) ----------------------------------------------------------

    def sys_mmap(self, task: Task, fd: int, mask: int = Mask.READ) -> Mapping:
        self._count("mmap")
        self._require_alive(task)
        file = task.lookup_fd(fd)
        self.security.mmap_file(task, file, mask)
        return Mapping(file, mask)

    def fault_protection(self, task: Task, mapping: Mapping) -> None:
        """A protection fault re-validates the mapping against the (possibly
        changed) task labels, the way HiStar-style page protections would."""
        self._count("prot_fault")
        if not mapping.valid:
            raise SyscallError(EINVAL, "dead mapping")
        self.security.mmap_file(task, mapping.file, mapping.mask)
