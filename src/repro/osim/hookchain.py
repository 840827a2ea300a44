"""The OS permission memo: allowed walks and held-file checks, replayed.

Laminar's LSM (Section 5.2) decides every inode and file access from two
immutable labels — the task's and the object's — so an *allowed* verdict
stays allowed until one of those labels or the namespace changes.  A
server re-touching the same paths and descriptors runs the same hook
sequences over and over; this engine records each allowed sequence once
and replays it as a dict hit.  It holds two kinds of plain entry:

* **walk entries** — keyed ``(labels, start, head)``, where ``labels``
  is the task's label pair, ``start`` is the cwd inode of a relative
  walk (``None`` for an absolute one) and ``head`` is the path text
  before its last ``/``.  The entry holds the ``(inode, labels)`` of
  every directory the walk checked with ``inode_permission`` plus the
  directory it reached, so a hit also skips re-resolving the path.  A
  path whose last piece is ``""`` or ``"."`` is never memoized:
  :meth:`Filesystem.split` drops that piece, so ``head`` would not name
  the directories walked.
* **held-file entries** — keyed ``(labels, inode, write)``; the entry is
  the inode's labels when ``file_permission`` allowed the access.
  ``sys_read``/``sys_write`` use :meth:`replay_fd` / :meth:`profile_fd`,
  and so does ``sys_submit`` for the first read and the first write of
  each descriptor in a batch; later entries of the batch replay that
  proof from the batch's own descriptor record.

No task identity is in a key: a replayable hook's verdict is a function
of the two label pairs alone, so a proof made by one task is replayed
for every task at the same pair, including one spawned later or one
that returns to a pair it held before.

Soundness rests on four rules:

* a hit re-checks every recorded label by identity and replays the hook
  counts exactly, so the observable hook record never depends on the
  memo; a stale entry is dropped and counted in ``hookchain_deopts``;
* only allowed runs are recorded — denials and ENOENT re-run the full
  hooks every time, so audit entries and denial counters never depend
  on the memo either;
* the task's label pair is in every key, so a task label change (a
  ``set_task_label``, a region's kernel sync, a principal rebuilt by
  cluster replication) reaches only entries proved under the new pair;
* :meth:`invalidate` empties the engine on every other event that can
  change a verdict or a walk: unlink, security module install, crash,
  remount, and the rename of a corrupt capability file.  Creating a
  name needs no invalidation: it cannot change a recorded walk, and a
  walk that missed it (ENOENT) was never recorded.

Entries are recorded only for hooks :func:`chain_bakeable_hooks` names as
pure functions of the two labels, and only while
``fastpath.flags.path_walk_cache`` is on.  The engine replays directory
search checks and held-file checks only; leaf hooks (``inode_getattr``,
open's mode check, ``inode_create``, ``inode_unlink``) always run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..core import LabelPair, fastpath
from ..core.fastpath import counters as _fp
from .lsm import chain_bakeable_hooks

if TYPE_CHECKING:
    from .filesystem import File, Inode
    from .kernel import Kernel
    from .task import Task

#: Entry cap per kind: the dict is emptied when it fills (hot entries are
#: re-recorded on their next allowed run).
MAX_ENTRIES = 4096


class HookChainEngine:
    """One kernel's permission memo (see the module docstring)."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        #: walk key -> (((inode, labels), ...), directory reached)
        self.walks: dict[tuple, tuple] = {}
        #: held-file key -> the inode's labels when access was allowed
        self.files: dict[tuple, LabelPair] = {}
        self.invalidate()

    def invalidate(self) -> None:
        """Empty the engine and re-derive which hooks it may replay from
        the installed security module."""
        self.walks.clear()
        self.files.clear()
        hooks = chain_bakeable_hooks(self.kernel.security)
        self.walks_ok = "inode_permission" in hooks
        self.files_ok = "file_permission" in hooks

    # -- walk entries ---------------------------------------------------------

    def lookup_path(self, key: tuple) -> Optional["Inode"]:
        """Replay an allowed walk: add its ``inode_permission`` count and
        return the directory it reached, or ``None`` (cold, stale, or
        switched off) when the caller must walk."""
        if not (self.walks_ok and fastpath.flags.path_walk_cache):
            return None
        entry = self.walks.get(key)
        if entry is not None:
            observed, directory = entry
            for inode, labels in observed:
                if inode.labels is not labels:
                    del self.walks[key]
                    _fp.hookchain_deopts += 1
                    break
            else:
                _fp.walk_hits += 1
                if observed:
                    self.kernel.security.hook_calls["inode_permission"] += len(observed)
                return directory
        _fp.walk_misses += 1
        return None

    def profile_path(self, key: tuple, observed: tuple, directory: "Inode") -> None:
        """Record one allowed walk under ``key``."""
        if not (self.walks_ok and fastpath.flags.path_walk_cache):
            return
        walks = self.walks
        if len(walks) >= MAX_ENTRIES:
            walks.clear()
        walks[key] = (observed, directory)

    # -- held-file entries ------------------------------------------------------

    def replay_fd(self, task: "Task", file: "File", write: bool) -> bool:
        """Replay an allowed ``file_permission``; ``False`` means the
        caller must run the hook."""
        if not (self.files_ok and fastpath.flags.path_walk_cache):
            return False
        inode = file.inode
        key = (task.security.labels, inode, write)
        labels = self.files.get(key)
        if labels is None:
            return False
        if labels is not inode.labels:
            del self.files[key]
            _fp.hookchain_deopts += 1
            return False
        self.kernel.security.hook_calls["file_permission"] += 1
        _fp.hookchain_hits += 1
        return True

    def profile_fd(self, task: "Task", file: "File", write: bool) -> None:
        """Record one allowed ``file_permission``."""
        if not (self.files_ok and fastpath.flags.path_walk_cache):
            return
        files = self.files
        if len(files) >= MAX_ENTRIES:
            files.clear()
        inode = file.inode
        files[(task.security.labels, inode, write)] = inode.labels
