"""An in-memory Unix-like filesystem with labeled inodes.

Models the pieces of the Linux VFS that Laminar's security module hooks
(Section 5.2):

* **Inodes** carry the secrecy/integrity labels in their security field; for
  regular filesystems the labels are *persisted* in extended attributes
  (``security.laminar.secrecy`` / ``security.laminar.integrity``), as the
  paper does for ext2/ext3/xfs/reiserfs.
* The label of an inode protects its contents and metadata **except** the
  name and the label themselves, which are protected by the label of the
  parent directory — creating a file is a write to the parent.
* Directory trees follow the paper's convention that secrecy increases from
  root to leaves, and system directories get the administrator integrity
  label at install time; users who distrust the administrator use relative
  paths (resolution starting from an inode they already hold).

The filesystem performs *no* DIFC checks itself: checks live in the LSM
hooks invoked by the kernel's syscall layer, mirroring Linux's separation
between the VFS and the security module.
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterator, Optional

from ..core import Label, LabelPair, Tag, TagAllocator
from .faults import FaultKind
from .task import (
    EEXIST,
    EINVAL,
    EIO,
    EISDIR,
    ENOENT,
    ENOSPC,
    ENOTDIR,
    ENOTEMPTY,
    SyscallError,
)

XATTR_SECRECY = "security.laminar.secrecy"
XATTR_INTEGRITY = "security.laminar.integrity"

#: Simulated disk block size for fault-granular data writes.  Only the
#: fault-injection path chunks writes; the normal path is one splice.
BLOCK_SIZE = 64


class InodeType(enum.Enum):
    REGULAR = "regular"
    DIRECTORY = "directory"
    PIPE = "pipe"
    SOCKET = "socket"
    DEVICE = "device"


class Inode:
    """One filesystem object.

    ``labels`` is the LSM security field.  For regular files and directories
    the same information is mirrored into ``xattrs`` so that labels survive
    a simulated unmount/remount (see :meth:`Filesystem.remount`).
    """

    _ino_counter = itertools.count(1)

    def __init__(
        self,
        itype: InodeType,
        labels: LabelPair = LabelPair.EMPTY,
        mode: int = 0o644,
    ) -> None:
        self.ino = next(self._ino_counter)
        self.itype = itype
        self.labels = labels
        self.mode = mode
        self.nlink = 1
        self.data = bytearray()
        #: name -> child inode; only meaningful for directories.
        self.children: dict[str, "Inode"] = {}
        self.xattrs: dict[str, bytes] = {}
        if itype in (InodeType.REGULAR, InodeType.DIRECTORY):
            self._persist_labels()

    # -- label persistence (extended attributes) ----------------------------

    def _persist_labels(self) -> None:
        self.xattrs[XATTR_SECRECY] = encode_label(self.labels.secrecy)
        self.xattrs[XATTR_INTEGRITY] = encode_label(self.labels.integrity)

    def restore_labels(self, allocator: TagAllocator) -> None:
        """Re-hydrate ``labels`` from xattrs after a simulated remount."""
        secrecy = decode_label(self.xattrs.get(XATTR_SECRECY, b""), allocator)
        integrity = decode_label(self.xattrs.get(XATTR_INTEGRITY, b""), allocator)
        self.labels = LabelPair(secrecy, integrity)

    # -- size/metadata -------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.data)

    @property
    def is_dir(self) -> bool:
        return self.itype is InodeType.DIRECTORY

    def __repr__(self) -> str:
        return f"Inode(ino={self.ino}, {self.itype.value}, labels={self.labels!r})"


def encode_label(label: Label) -> bytes:
    """Serialize a label into the xattr wire format: 8 bytes per tag,
    big-endian, sorted — the on-disk layout of a sorted 64-bit array."""
    return b"".join(tag.value.to_bytes(8, "big") for tag in label)


def decode_label(blob: bytes, allocator: TagAllocator) -> Label:
    """Inverse of :func:`encode_label`.  Unknown tag values are re-created
    as anonymous tags (a remounted filesystem may carry tags allocated in a
    previous boot)."""
    if len(blob) % 8:
        raise ValueError("corrupt label xattr")
    tags = []
    for offset in range(0, len(blob), 8):
        value = int.from_bytes(blob[offset : offset + 8], "big")
        tags.append(allocator.lookup(value) or Tag(value))
    return Label(tags)


class OpenMode:
    """Open-file mode bits.  A mode is a plain ``int``:
    ``OpenMode.READ | OpenMode.WRITE``."""

    READ = 1
    WRITE = 2
    APPEND = 4
    CREATE = 8

    _TABLE = {
        "r": READ,
        "w": WRITE | CREATE,
        "a": WRITE | APPEND | CREATE,
        "r+": READ | WRITE,
        "w+": READ | WRITE | CREATE,
    }

    @classmethod
    def parse(cls, mode: str) -> int:
        try:
            return cls._TABLE[mode]
        except (KeyError, TypeError):
            raise SyscallError(EINVAL, f"bad open mode {mode!r}") from None


class File:
    """An open file description (the ``struct file`` analog): inode +
    offset + mode.  File-descriptor-level hooks (``file_permission``) take
    these, inode-level hooks take :class:`Inode`."""

    def __init__(self, inode: Inode, mode: int) -> None:
        self.inode = inode
        self.mode = mode
        self.offset = 0
        #: Number of fd-table slots referencing this description (dup /
        #: fork inheritance / SCM_RIGHTS-style sharing all install the
        #: same ``File``).  Maintained by ``Task.install_fd``/``remove_fd``;
        #: the kernel uses it to detect the last explicit close of a pipe
        #: end.
        self.refs = 0

    def readable(self) -> bool:
        return bool(self.mode & OpenMode.READ)

    def writable(self) -> bool:
        return bool(self.mode & OpenMode.WRITE)


class Filesystem:
    """A mounted tree of inodes with path resolution.

    Path resolution supports absolute paths (from ``self.root``) and
    relative paths (from a caller-supplied starting inode), which the paper
    leans on for users who do not trust the administrator's integrity label
    on system directories.
    """

    def __init__(self, root_labels: LabelPair = LabelPair.EMPTY) -> None:
        #: Per-filesystem inode numbering.  Regular files and directories
        #: are renumbered from this counter when they enter the tree
        #: (:meth:`adopt_inode`), so two kernels that perform the same
        #: setup sequence produce byte-identical ino values — regardless
        #: of how many other kernels live in the process or what anonymous
        #: pipe/socket inodes were created in between.  That determinism
        #: is what lets a sharded cluster's merged audit log (denial
        #: details embed ``Inode`` reprs) compare byte-for-byte against a
        #: single-kernel replay (repro.osim.cluster).
        self._ino_counter = itertools.count(1)
        self.root = Inode(InodeType.DIRECTORY, root_labels, mode=0o755)
        self.adopt_inode(self.root)
        #: Fault-injection plan shared with the kernel; ``None`` (the
        #: default) keeps every write on the unchunked fast path.
        self.faults = None
        #: Write-ahead journal for label/capability mutations.  Lives here
        #: — on the simulated disk — so records survive a kernel crash.
        from .recovery import Journal  # deferred: recovery imports us

        self.journal = Journal()
        #: Omniscient-observer label history: ino -> every LabelPair the
        #: running kernel ever exposed for that inode (linked or relabeled
        #: to).  Ground truth for ``check_recovery_invariants``'s
        #: no-weakening check, analogous to ``Pipe.dropped``; recovery
        #: itself never reads it.
        self.exposed: dict[int, list[LabelPair]] = {}

    # -- path handling --------------------------------------------------------

    @staticmethod
    def split(path: str) -> list[str]:
        parts = [p for p in path.split("/") if p and p != "."]
        return parts

    def resolve(self, path: str, cwd: Optional[Inode] = None) -> Inode:
        """Walk ``path`` and return the final inode.

        Raises ``ENOENT``/``ENOTDIR``.  No permission checks happen here —
        the kernel walks with LSM checks at each component via
        :meth:`walk_components`.
        """
        return self.lookup(*self.resolve_parent(path, cwd), path)

    @staticmethod
    def lookup(parent: Inode, name: Optional[str], path: str) -> Inode:
        """The last step of :meth:`resolve`: the inode ``name`` names in
        ``parent`` (``parent`` itself when ``name`` is ``None``)."""
        if name is None:
            return parent
        child = parent.children.get(name)
        if child is None:
            # Only directories have children: a miss under a file is ENOTDIR.
            raise SyscallError(ENOENT if parent.is_dir else ENOTDIR, path)
        return child

    def resolve_parent(
        self, path: str, cwd: Optional[Inode] = None
    ) -> tuple[Inode, Optional[str]]:
        """Resolve to ``(parent_inode, final_component)``.

        ``final_component`` is ``None`` when the path denotes the start
        inode itself (e.g. ``"/"``).
        """
        if path.startswith("/") or cwd is None:
            current = self.root
        else:
            current = cwd
        parts = self.split(path)
        if not parts:
            return current, None
        for part in parts[:-1]:
            current = self._step(current, part, path)
        return current, parts[-1]

    def walk_components(
        self, path: str, cwd: Optional[Inode] = None
    ) -> Iterator[Inode]:
        """Yield every directory inode traversed while resolving ``path``
        (excluding the final component).  The kernel runs the LSM
        ``inode_permission`` (execute/search) hook on each."""
        if path.startswith("/") or cwd is None:
            current = self.root
        else:
            current = cwd
        yield current
        parts = self.split(path)
        for part in parts[:-1]:
            current = self._step(current, part, path)
            yield current

    @staticmethod
    def _step(current: Inode, part: str, full_path: str) -> Inode:
        if not current.is_dir:
            raise SyscallError(ENOTDIR, full_path)
        child = current.children.get(part)
        if child is None:
            raise SyscallError(ENOENT, full_path)
        return child

    # -- structural mutation (no DIFC checks; kernel hooks do those) -----------

    def adopt_inode(self, inode: Inode) -> Inode:
        """Assign ``inode`` a number from this filesystem's own counter.

        Idempotent: an inode already adopted by this filesystem keeps its
        number.  Anonymous inodes (pipes, sockets, devices) are never
        adopted — they keep the process-global provisional numbering from
        the :class:`Inode` constructor."""
        if getattr(inode, "_ino_home", None) is not self:
            inode.ino = next(self._ino_counter)
            inode._ino_home = self
        return inode

    def link_child(self, parent: Inode, name: str, child: Inode) -> None:
        if not parent.is_dir:
            raise SyscallError(ENOTDIR, name)
        if name in parent.children:
            raise SyscallError(EEXIST, name)
        if not name or "/" in name:
            raise SyscallError(EINVAL, name)
        if child.itype in (InodeType.REGULAR, InodeType.DIRECTORY):
            self.adopt_inode(child)
        parent.children[name] = child
        if child.itype in (InodeType.REGULAR, InodeType.DIRECTORY):
            self.exposed.setdefault(child.ino, []).append(child.labels)

    def unlink_child(self, parent: Inode, name: str) -> Inode:
        if not parent.is_dir:
            raise SyscallError(ENOTDIR, name)
        child = parent.children.get(name)
        if child is None:
            raise SyscallError(ENOENT, name)
        if child.is_dir and child.children:
            raise SyscallError(ENOTEMPTY, name)
        del parent.children[name]
        child.nlink -= 1
        return child

    # -- data access (again: checks live in the kernel) ------------------------

    @staticmethod
    def read(file: File, count: int = -1) -> bytes:
        inode = file.inode
        if inode.itype is InodeType.DIRECTORY:
            raise SyscallError(EISDIR, "read of a directory")
        data = inode.data
        offset = file.offset
        end = len(data)
        if 0 <= count < end - offset:
            end = offset + count
        file.offset = end  # past EOF: an empty read that moves to EOF
        # ``bytes + bytearray`` is ``bytes``, and at server read sizes it
        # costs less than ``bytes(slice)`` or a memoryview copy.
        return b"" + data[offset:end]

    @staticmethod
    def read_view(file: File, count: int = -1) -> memoryview:
        """Zero-copy read: a read-only :class:`memoryview` over the file's
        buffer.  Nothing in the program calls it (``perfbench/tracer.py``
        wraps it by name); the view aliases the inode, so a caller must
        consume it before any write to the same file."""
        inode = file.inode
        if inode.is_dir:
            raise SyscallError(EISDIR, "read of a directory")
        end = inode.size if count < 0 else min(inode.size, file.offset + count)
        view = memoryview(inode.data).toreadonly()[file.offset : end]
        file.offset = end
        return view

    def write(self, file: File, data: bytes) -> int:
        inode = file.inode
        if inode.is_dir:
            raise SyscallError(EISDIR, "write of a directory")
        if file.mode & OpenMode.APPEND:
            file.offset = inode.size
        if self.faults is not None and data:
            return self._write_faulted(file, data)
        end = file.offset + len(data)
        if end > inode.size:
            inode.data.extend(b"\0" * (end - inode.size))
        inode.data[file.offset : end] = data
        file.offset = end
        return len(data)

    def _write_faulted(self, file: File, data: bytes) -> int:
        """Block-granular data write, crossing the ``fs.block_write`` fault
        site once per :data:`BLOCK_SIZE` chunk.  Kind semantics:

        * ``EIO``/``ENOSPC`` — fail the call; blocks already applied stay
          (POSIX makes no atomicity promise for multi-block ``write``).
        * ``SHORT_WRITE`` — stop and return the short count, like a real
          short write the caller is supposed to check.
        * ``CRASH`` — the applied prefix survives, the machine dies.
        * ``TORN_WRITE`` — this block is *skipped* (its old content
          survives), later blocks land, then the machine dies: the
          non-prefix torn state journaling of metadata must tolerate.
        """
        inode, faults = file.inode, self.faults
        torn = False
        written = 0
        for start in range(0, len(data), BLOCK_SIZE):
            chunk = data[start : start + BLOCK_SIZE]
            kind = faults.fire("fs.block_write")
            if kind is FaultKind.EIO:
                raise SyscallError(EIO, "simulated I/O error")
            if kind is FaultKind.ENOSPC:
                raise SyscallError(ENOSPC, "simulated disk full")
            if kind is FaultKind.SHORT_WRITE:
                file.offset += written
                return written
            if kind is FaultKind.CRASH:
                faults.crash("fs.block_write")
            if kind is FaultKind.TORN_WRITE:
                torn = True
                continue
            begin = file.offset + start
            end = begin + len(chunk)
            if end > inode.size:
                inode.data.extend(b"\0" * (end - inode.size))
            inode.data[begin:end] = chunk
            written += len(chunk)
        if torn:
            faults.crash("fs.block_write")
        file.offset += len(data)
        return len(data)

    # -- journaled security-metadata writes --------------------------------

    def blob_write(
        self,
        write_cb,
        blob: bytes,
        site: str,
        old: bytes = b"",
        block: int = BLOCK_SIZE,
    ) -> None:
        """Write a whole metadata blob (an xattr value, a capability file)
        through ``write_cb``, chunked at ``block`` bytes so each chunk
        crosses the ``site`` fault point.  Without a plan installed this is
        a single callback invocation.

        Detected failures (``EIO``/``ENOSPC``/short write) raise
        :class:`SyscallError` after flushing the partial image — the caller
        holds the journal record and rolls back inline.  Crash kinds flush
        a partial (``CRASH``: prefix; ``TORN_WRITE``: non-prefix mix of old
        and new blocks) and raise :class:`KernelCrash` — recovery resolves
        the journal record instead.
        """
        faults = self.faults
        if faults is None:
            write_cb(blob)
            return
        nblocks = max(1, -(-len(blob) // block))
        applied: list[int] = []
        partial: Optional[tuple[int, int]] = None
        torn = False
        failure: Optional[SyscallError] = None
        for i in range(nblocks):
            kind = faults.fire(site)
            if kind is None:
                applied.append(i)
                continue
            if kind is FaultKind.EIO:
                failure = SyscallError(EIO, f"simulated I/O error at {site}")
                break
            if kind is FaultKind.ENOSPC:
                failure = SyscallError(ENOSPC, f"simulated disk full at {site}")
                break
            if kind is FaultKind.SHORT_WRITE:
                partial = (i, max(1, block // 2))
                failure = SyscallError(EIO, f"short write at {site}")
                break
            if kind is FaultKind.CRASH:
                partial = (i, max(1, block // 2))
                break
            # TORN_WRITE: skip this block, keep writing later ones.
            torn = True
        write_cb(self._compose(old, blob, applied, block, partial, nblocks))
        if failure is not None:
            raise failure
        if torn or partial is not None:
            faults.crash(site)

    @staticmethod
    def _compose(
        old: bytes,
        blob: bytes,
        applied: list[int],
        block: int,
        partial: Optional[tuple[int, int]],
        nblocks: int,
    ) -> bytes:
        """The on-disk image after applying ``applied`` whole blocks of
        ``blob`` (plus at most one partial block) over ``old``."""
        if len(applied) == nblocks and partial is None:
            return blob
        image = bytearray(old)
        spans = [(i * block, min((i + 1) * block, len(blob))) for i in applied]
        if partial is not None:
            i, nbytes = partial
            spans.append((i * block, min(i * block + nbytes, len(blob))))
        for start, end in spans:
            if len(image) < end:
                image.extend(b"\0" * (end - len(image)))
            image[start:end] = blob[start:end]
        return bytes(image)

    def set_labels(self, inode: Inode, labels: LabelPair) -> None:
        """Journaled relabel: the only way persistent labels change after
        creation.  Sequence: journal-begin (full pre/post xattr images) →
        write both xattrs through the ``xattr.write`` fault site → update
        the in-memory security field → journal-commit.  A detected write
        failure restores the pre-image inline and aborts the record; a
        crash leaves the begin record for :func:`~repro.osim.recovery.recover`.
        """
        old = {
            XATTR_SECRECY: inode.xattrs.get(XATTR_SECRECY, b""),
            XATTR_INTEGRITY: inode.xattrs.get(XATTR_INTEGRITY, b""),
        }
        new = {
            XATTR_SECRECY: encode_label(labels.secrecy),
            XATTR_INTEGRITY: encode_label(labels.integrity),
        }
        faults = self.faults
        if faults is not None:
            kind = faults.fire("journal.append")
            if kind in (FaultKind.CRASH, FaultKind.TORN_WRITE):
                faults.crash("journal.append")  # before begin: clean no-op
            if kind is FaultKind.ENOSPC:
                raise SyscallError(ENOSPC, "journal full")
            if kind is not None:
                raise SyscallError(EIO, "journal I/O error")
        rec = self.journal.begin("relabel", ino=inode.ino, old=old, new=new)
        try:
            for key in (XATTR_SECRECY, XATTR_INTEGRITY):

                def _store(value: bytes, _key: str = key) -> None:
                    inode.xattrs[_key] = value

                self.blob_write(
                    _store, new[key], "xattr.write", old=old[key], block=8
                )
        except SyscallError:
            inode.xattrs.update(old)  # raw: inline rollback is not re-faulted
            self.journal.abort(rec)
            raise
        inode.labels = labels
        self.journal.commit(rec)
        self.exposed.setdefault(inode.ino, []).append(labels)

    # -- persistence round-trip -------------------------------------------------

    def remount(self, allocator: TagAllocator) -> None:
        """Simulate unmount + mount: drop all in-memory security fields and
        re-read them from extended attributes.  Exercises the persistence
        path the paper gets from ext3 xattrs."""
        stack = [self.root]
        while stack:
            inode = stack.pop()
            if inode.itype in (InodeType.REGULAR, InodeType.DIRECTORY):
                inode.labels = LabelPair.EMPTY
                inode.restore_labels(allocator)
            stack.extend(inode.children.values())
