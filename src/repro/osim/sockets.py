"""Sockets and the unlabeled network device.

The paper's motivating guarantee: a thread tainted with a secrecy tag can
no longer write to an unlabeled output "such as standard output or the
network".  The simulated network therefore consists of:

* :class:`Socket` — a labeled endpoint (a socket inode).  Like files,
  sockets take the label of their creating thread unless created inside a
  labeled security region.
* :class:`Network` — the unlabeled outside world.  Sending to a remote host
  is a flow from the task to an empty-labeled destination, so any secrecy
  taint blocks it (unless declassified first).
* :class:`TrafficLog` — the capped log of what reached the network.  In
  a cluster each shard keeps one, and :meth:`TrafficLog.merge` joins
  them with one stable sort on their stamps.

Loopback connections between two labeled sockets model trusted channels
between labeled threads of different processes.

Like pipes, sockets carry a ``version`` event counter (bumped by every
send attempt toward the endpoint and by close) so the cooperative
scheduler's blocking ``recv`` can park and wake without its wakeup
pattern ever depending on a label verdict.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import TYPE_CHECKING, Optional

from ..core import LabelPair
from .filesystem import Inode, InodeType
from .pipes import freeze
from .task import ENOENT, EPIPE, SyscallError

if TYPE_CHECKING:
    from .lsm import SecurityModule
    from .task import Task

#: Default retention bound for :class:`TrafficLog` (messages kept for the
#: omniscient observer; totals keep counting past it).
DEFAULT_TRAFFIC_LOG_CAP = 4096

_stamp_key = itemgetter(0)


class TrafficLog(list):
    """A capped, resettable append-only log of observed payloads.

    Tests and benchmarks play the omniscient observer ("did any secret
    byte escape?"), which historically meant unbounded ``list`` growth —
    a multi-hour throughput run would hold every transmitted payload
    alive.  ``TrafficLog`` keeps the list API (equality against plain
    lists, iteration, indexing) but retains at most ``cap`` recent
    payloads, trimming in amortized O(1) chunks, while ``total_messages``
    and ``total_bytes`` keep exact machine-wide totals.

    In a sharded cluster every worker has its own log; entries carry a
    ``(stamp, worker_id, local_seq)`` triple — ``stamp`` is the router's
    global request sequence number, set by the executor before each
    request runs — and :meth:`merge` reassembles the per-worker logs into
    one canonical order (stamp, then worker, then local order).  Because
    the stamp is assigned at routing time, the merged order is a pure
    function of the request trace, never of worker scheduling, which is
    what lets cluster-mode traffic compare byte-for-byte against a
    single-kernel replay.
    """

    def __init__(
        self, cap: int = DEFAULT_TRAFFIC_LOG_CAP, worker_id: int = 0
    ) -> None:
        super().__init__()
        self.cap = cap
        self.total_messages = 0
        self.total_bytes = 0
        #: Which cluster worker this log belongs to (0 standalone).
        self.worker_id = worker_id
        #: Current global stamp; the cluster executor sets it to the
        #: request's router-assigned sequence number before dispatch.
        self.stamp = 0
        #: Per-entry (stamp, worker_id, local_seq), parallel to the
        #: retained payloads and trimmed with them.
        self.stamps: list[tuple[int, int, int]] = []

    def append(self, payload) -> None:  # type: ignore[override]
        self.append_stamped(
            (self.stamp, self.worker_id, self.total_messages + 1), payload
        )

    def append_stamped(self, stamp: tuple[int, int, int], payload) -> None:
        """Append a payload under an externally produced stamp triple —
        how the cluster driver rebuilds a worker's log from the stamped
        deltas shipped in shard responses."""
        self.total_messages += 1
        self.total_bytes += len(payload)
        self.stamps.append(tuple(stamp))
        list.append(self, payload)
        # Trim in blocks so append stays amortized O(1): deleting from the
        # front of a list is O(n), so do it once per `cap` appends.
        if list.__len__(self) > 2 * self.cap:
            excess = list.__len__(self) - self.cap
            del self[:excess]
            del self.stamps[:excess]

    def reset(self) -> None:
        """Drop retained payloads and zero the totals (benchmark arms)."""
        del self[:]
        self.stamps.clear()
        self.total_messages = 0
        self.total_bytes = 0

    def stamped(self) -> list[tuple[tuple[int, int, int], object]]:
        """Retained entries with their stamps (merge-ready form)."""
        return list(zip(self.stamps, list(self)))

    def stamped_tail(
        self, delta: int
    ) -> list[tuple[tuple[int, int, int], object]]:
        """The last ``delta`` retained entries with stamps — O(delta),
        unlike ``stamped()[-delta:]``, which materialized the whole log
        on every per-request delta ship."""
        if delta <= 0:
            return []
        return list(zip(self.stamps[-delta:], self[-delta:]))

    @classmethod
    def merge(cls, logs: "list[TrafficLog]", cap: int = DEFAULT_TRAFFIC_LOG_CAP) -> "TrafficLog":
        """Deterministically merge per-worker logs.

        Canonical order: by (global stamp, worker_id, local sequence).
        The result is independent of the order ``logs`` are given in and
        of how requests interleaved across workers in wall-clock time —
        two runs of the same routed trace merge identically.  One stable
        sort of the inputs' stamped entries: equal stamps keep input
        order."""
        entries = [entry for log in logs for entry in log.stamped()]
        entries.sort(key=_stamp_key)
        merged = cls(cap=cap)
        for _, payload in entries:
            merged.append(payload)
        # The merged view reports the union totals, not its own appends
        # (retention trimming on the inputs must not change the totals).
        merged.total_messages = sum(log.total_messages for log in logs)
        merged.total_bytes = sum(log.total_bytes for log in logs)
        return merged


class Socket:
    """A connected or listening socket endpoint."""

    def __init__(self, labels: LabelPair = LabelPair.EMPTY) -> None:
        self.inode = Inode(InodeType.SOCKET, labels)
        self.inode.socket = self  # type: ignore[attr-defined]
        self.peer: Optional["Socket"] = None
        self.rx: deque[bytes] = deque()
        #: Receive-side event counter: bumped by every send attempt toward
        #: this endpoint (delivered or silently dropped) and by close.
        self.version = 0
        self.closed = False

    def connect(self, other: "Socket") -> None:
        self.peer = other
        other.peer = self

    def send(self, task: "Task", data, lsm: "SecurityModule") -> int:
        """Send on a connected socket.  Unlike pipes, sockets report label
        denials as errors (the LSM raises) because both endpoints are
        labeled objects the sender already knows about."""
        lsm.socket_sendmsg(task, self.inode)
        if self.peer is None:
            raise SyscallError(EPIPE, "socket not connected")
        # Delivery into the peer is a flow from this socket to the peer
        # socket's label; mismatched endpoint labels drop silently, like
        # pipes, to avoid signaling.  The peer's version bumps either way
        # so blocked receivers wake on activity, never on verdicts.
        from ..core import can_flow

        self.peer.version += 1
        if not self.peer.closed and can_flow(self.inode.labels, self.peer.inode.labels):
            self.peer.rx.append(freeze(data))
        return len(data)

    def recv(self, task: "Task", lsm: "SecurityModule") -> bytes:
        lsm.socket_recvmsg(task, self.inode)
        if not self.rx:
            return b""
        return self.rx.popleft()

    def close(self) -> None:
        """Hang up this endpoint.  Both sides' blocked receivers wake: the
        closer stops receiving, the peer sees the connection end."""
        self.closed = True
        self.version += 1
        if self.peer is not None:
            self.peer.version += 1

    @property
    def hungup(self) -> bool:
        """True when no further delivery into ``rx`` is possible."""
        return self.closed or (self.peer is not None and self.peer.closed)


class Network:
    """The world outside the machine: an unlabeled sink/source.

    ``transmit`` is what the paper's examples mean by "broadcast on the
    network": writing to the empty label.  The traffic log lets tests and
    benchmarks assert that secret bytes never escaped; it is capped (with
    exact running totals) so long benchmark runs stay O(1) memory.
    """

    def __init__(self) -> None:
        self.inode = Inode(InodeType.DEVICE, LabelPair.EMPTY)
        self.transmitted: TrafficLog = TrafficLog()
        self._hosts: dict[str, deque[bytes]] = {}

    def transmit(self, task: "Task", data, lsm: "SecurityModule") -> int:
        """Send to an external host — a flow to the empty label."""
        lsm.socket_sendmsg(task, self.inode)
        self.transmitted.append(freeze(data))
        return len(data)

    def deliver_external(self, host: str, data) -> None:
        """Queue inbound traffic from an (unlabeled, low-integrity) host."""
        self._hosts.setdefault(host, deque()).append(freeze(data))

    def receive(self, task: "Task", host: str, lsm: "SecurityModule") -> bytes:
        """Receive from an external host — a flow from the empty label, so a
        task holding any integrity label must first drop it (no read down)."""
        lsm.socket_recvmsg(task, self.inode)
        queue = self._hosts.get(host)
        if not queue:
            raise SyscallError(ENOENT, f"no data from {host}")
        return queue.popleft()
