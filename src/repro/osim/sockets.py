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
* :class:`TrafficLog` — the capped log of what reached the network.  A
  multi-kernel run ships each unit's payloads in the order they were
  transmitted and concatenates them in unit order
  (:func:`repro.osim.rpc.merge_traffic`).

Loopback connections between two labeled sockets model trusted channels
between labeled threads of different processes.

Like pipes, socket endpoints are :class:`~repro.osim.pipes.Channel`
objects: every send attempt toward an endpoint, and a close of either
end, bumps it before any delivery verdict, waking every receiver parked
on it.  The cooperative scheduler's blocking ``recv`` can thus park and
wake without its wakeup pattern ever depending on a label verdict.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from ..core import LabelPair
from .filesystem import Inode, InodeType
from .pipes import Channel, freeze
from .task import ENOENT, EPIPE, SyscallError

if TYPE_CHECKING:
    from .lsm import SecurityModule
    from .task import Task

#: Default retention bound for :class:`TrafficLog` (messages kept for the
#: omniscient observer; totals keep counting past it).
DEFAULT_TRAFFIC_LOG_CAP = 4096


class TrafficLog(list):
    """A capped, resettable append-only log of observed payloads.

    Tests and benchmarks play the omniscient observer ("did any secret
    byte escape?"), which historically meant unbounded ``list`` growth —
    a multi-hour throughput run would hold every transmitted payload
    alive.  ``TrafficLog`` keeps the list API (equality against plain
    lists, iteration, indexing) but retains at most ``cap`` recent
    payloads, trimming in amortized O(1) chunks, while ``total_messages``
    and ``total_bytes`` keep exact machine-wide totals.  A ``tap`` list
    (:func:`repro.osim.rpc.capture` sets one) also gets every payload.
    """

    def __init__(self, cap: int = DEFAULT_TRAFFIC_LOG_CAP) -> None:
        super().__init__()
        self.cap = cap
        self.total_messages = 0
        self.total_bytes = 0
        self.tap: Optional[list] = None

    def append(self, payload) -> None:  # type: ignore[override]
        self.total_messages += 1
        self.total_bytes += len(payload)
        list.append(self, payload)
        if self.tap is not None:
            self.tap.append(payload)
        # Trim in blocks so append stays amortized O(1): deleting from the
        # front of a list is O(n), so do it once per `cap` appends.
        if list.__len__(self) > 2 * self.cap:
            del self[: list.__len__(self) - self.cap]

    def extend(self, payloads) -> None:  # type: ignore[override]
        """Append each payload in order: retention and totals as if they
        had been transmitted one by one."""
        for payload in payloads:
            self.append(payload)

    def reset(self) -> None:
        """Drop retained payloads and zero the totals (benchmark arms)."""
        del self[:]
        self.total_messages = 0
        self.total_bytes = 0


class Socket(Channel):
    """A connected or listening socket endpoint."""

    def __init__(self, labels: LabelPair = LabelPair.EMPTY) -> None:
        super().__init__()
        self.inode = Inode(InodeType.SOCKET, labels)
        self.inode.socket = self  # type: ignore[attr-defined]
        self.peer: Optional["Socket"] = None
        self.rx: deque[bytes] = deque()
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
        # pipes, to avoid signaling.  The peer bumps either way so blocked
        # receivers wake on activity, never on verdicts.
        from ..core import can_flow

        self.peer.bump()
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
        self.bump()
        if self.peer is not None:
            self.peer.bump()

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
