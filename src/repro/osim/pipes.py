"""Label-mediated, unreliable pipes (Section 5.2, "Pipes").

Laminar labels the inode associated with a pipe's message buffer.  A task
may read or write the pipe only if its labels are compatible — but the
failure semantics differ from every other object in the system:

* **Silent drops.**  An error code due to an incorrect label, or to a full
  buffer, can leak information, so undeliverable messages are silently
  dropped and the write appears to succeed.  Unreliable pipes are standard
  in OS DIFC implementations (Asbestos, Flume).
* **Non-blocking reads, no EOF.**  Standard pipes deliver EOF when the
  writer exits; if the exiting writer's labels forbid communication with
  the reader, even that one bit violates DIFC.  Reads therefore never block
  and never report end-of-file — pipelines with homogeneous labels can
  approximate traditional behavior with a timeout.

The cooperative scheduler (:mod:`repro.osim.sched`) adds *blocking* read
variants on top of this substrate without weakening either property:

* ``version`` is a monotonic event counter bumped by **every** write
  attempt (delivered, label-dropped, or capacity-dropped) and by close.
  A parked reader re-attempts its read only when the version moved, so
  the scheduler's wakeup pattern is a function of writer *activity*
  alone — never of label verdicts.  A reader whose labels forbid the
  pipe therefore parks, wakes, and re-parks in exactly the same pattern
  as a reader of an empty pipe.
* ``closed`` is an *explicit* hangup (the last ``sys_close`` of the
  write end).  Task exit deliberately does not close pipes — suppressing
  termination notification is how OS DIFC systems close the termination
  channel — and a hangup by a writer whose labels forbid the pipe is
  silently dropped, like any other undeliverable message.

Crash semantics (:mod:`repro.osim.faults`): pipes are **volatile**.  The
message queue, the version counter, and the pipe's anonymous inode live
in kernel RAM, never on the simulated disk, so a :class:`KernelCrash`
discards in-flight messages wholesale — message loss, not label
weakening, which is why pipes need no journal records and why
``check_recovery_invariants`` has nothing to say about them.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from ..core import LabelPair
from .filesystem import Inode, InodeType

if TYPE_CHECKING:
    from .lsm import SecurityModule
    from .task import Task

#: Default capacity in messages, standing in for the 64 KiB Linux pipe buffer.
DEFAULT_PIPE_CAPACITY = 64


def freeze(data) -> bytes:
    """Materialize a payload for enqueueing — without copying when the
    caller already handed over an immutable ``bytes``.  Mutable buffers
    (``bytearray``, ``memoryview``) are snapshotted once; everything else
    rides through by reference, hop after hop."""
    return data if type(data) is bytes else bytes(data)


class Pipe:
    """One pipe: a labeled inode plus a bounded message queue."""

    def __init__(
        self,
        labels: LabelPair = LabelPair.EMPTY,
        capacity: int = DEFAULT_PIPE_CAPACITY,
    ) -> None:
        self.inode = Inode(InodeType.PIPE, labels)
        self.inode.pipe = self  # type: ignore[attr-defined]
        self.capacity = capacity
        self.messages: deque[bytes] = deque()
        #: Dropped-message count.  *Not* observable through any syscall —
        #: exposing it would recreate the leak; it exists for tests and the
        #: bench harness, which play the role of an omniscient observer.
        #: O(1) state: a counter, never a log of the dropped payloads.
        self.dropped = 0
        #: Write-activity counter for the scheduler's wake scan.  Bumped
        #: on *every* write attempt and on close, independent of the label
        #: verdict, so parking/wakeup behavior cannot encode a check.
        self.version = 0
        #: Explicit hangup flag; see module docstring.
        self.closed = False

    def write(self, task: "Task", data, lsm: "SecurityModule") -> int:
        """Write a message.  Always appears to succeed (returns len(data));
        the message is silently dropped when the label check fails, the
        buffer is full, or the pipe has been hung up."""
        self.version += 1
        if not lsm.pipe_write_allowed(task, self.inode):
            self.dropped += 1
            return len(data)
        if self.closed or len(self.messages) >= self.capacity:
            self.dropped += 1
            return len(data)
        self.messages.append(freeze(data))
        return len(data)

    def read(self, task: "Task", lsm: "SecurityModule") -> bytes:
        """Non-blocking read of one message.  Returns ``b""`` when the pipe
        is empty *or* when the task's labels forbid reading — the two cases
        are indistinguishable by design."""
        if not lsm.pipe_read_allowed(task, self.inode):
            return b""
        if not self.messages:
            return b""
        return self.messages.popleft()

    def close(self, task: "Task", lsm: "SecurityModule") -> None:
        """Hang up the write side.  A hangup is a one-bit message to the
        readers, so it is mediated exactly like a write: a closer whose
        labels forbid the pipe drops the hangup silently.  The version
        bumps either way, keeping wakeup patterns verdict-independent."""
        self.version += 1
        if not lsm.pipe_write_allowed(task, self.inode):
            self.dropped += 1
            return
        self.closed = True

    def __len__(self) -> int:
        return len(self.messages)
