"""Inter-shard RPC: the messages of the sharded multi-kernel cluster.

A cluster deployment (:mod:`repro.osim.cluster`) is N :class:`Kernel`
shards hosted on a worker pool (:mod:`repro.osim.pool`), fronted by a
label-aware router.  This module is everything that crosses a worker
connection, and the delta capture and merge that make what comes back
deterministic:

* **One wire** — every message here is encoded by the binary lamwire
  codec (:mod:`repro.osim.lamwire`), whose per-connection dictionaries
  carry labels, label pairs, and capability sets without re-shipping or
  re-interning them.  The in-process pool routes its frames through the
  same codec, so serialization is exercised deterministically in tests.
* **The RPC framing is the batch path** — a :class:`ShardRequest` carries
  a tuple of :class:`~repro.osim.kernel.Sqe` and a shard answers with the
  :class:`~repro.osim.kernel.Cqe` list from one ``sys_submit`` call.
  There is no second syscall surface to audit: everything a remote
  client can ask a shard to do is exactly what a local batch could.
* **Replication messages** — :class:`TagSync` (the shared interned-tag
  namespace) and :class:`CapSync` (capability stores / principal
  security fields), both epoch-stamped: a shard rejects any sync frame
  not newer than what it already applied, so re-delivery and reordering
  are harmless.  No verdict is replayed across replication lag: the
  kernel's permission memo keys every entry on the task's label pair,
  so a principal rebuilt at new labels reaches none proved at its old
  ones.
* **Deterministic observables** — :func:`capture` runs one unit of work
  (a request here, a task group in :mod:`repro.osim.psched`) and returns
  the audit and traffic *deltas* it produced: audit entries without
  sequence numbers, and the transmitted payloads in order.  Every merger
  already knows each unit's global position (the router's sequence
  number for a request, the group index for a group), so the one merge
  is concatenation in that order: :func:`merge_audit` re-stamps the
  audit 1..n, :func:`merge_traffic` joins the payloads, and
  :func:`sum_counts` adds the counters.  The merged record is a pure
  function of the trace (byte-identical to a single-kernel replay),
  never of worker timing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING, Callable

from ..core.audit import AuditEntry, AuditKind
from .kernel import Cqe, Kernel, call_syscall
from .task import EINVAL, SyscallError

if TYPE_CHECKING:
    from .task import Task


def capture(kernel: Kernel, fn: Callable, *args) -> tuple:
    """Run ``fn(*args)`` on ``kernel`` and return ``(result, audit,
    traffic, deferred)``: the call's audit delta as (kind value,
    subsystem, principal, detail) tuples — sequence numbers are assigned
    at merge time — every payload it transmitted, in order (through the
    traffic log's ``tap``, whatever the capped log retains), and the
    simulated work it accrued (``Kernel.defer_work`` mode).  The caller
    knows the unit's global position, which is all the merge needs.
    Captures do not nest."""
    log = kernel.net.transmitted
    audit_entries = kernel.audit._entries
    audit_before = len(audit_entries)
    log.tap = tap = []
    try:
        result = fn(*args)
    finally:
        log.tap = None
    audit = () if len(audit_entries) == audit_before else tuple(
        (e.kind.value, e.subsystem, e.principal, e.detail)
        for e in audit_entries[audit_before:]
    )
    return result, audit, tuple(tap), kernel.drain_deferred_work()


def merge_audit(deltas) -> list[str]:
    """Concatenate audit deltas (each as :func:`capture` returns it) in
    the given global order, re-stamp 1..n, and render — the canonical
    merged audit of the cluster, the parallel scheduler, and the
    fuzzer."""
    return [
        str(AuditEntry(seq, AuditKind(kind), subsystem, principal, detail))
        for seq, (kind, subsystem, principal, detail) in enumerate(
            chain.from_iterable(deltas), 1
        )
    ]


def merge_traffic(deltas) -> tuple:
    """Concatenate traffic deltas (each as :func:`capture` returns it) in
    the given global order — the canonical merged traffic, every payload
    kept."""
    return tuple(chain.from_iterable(deltas))


def sum_counts(tallies) -> dict:
    """Sum ``name -> count`` dicts across units or workers; names keep
    the order they were first seen in."""
    total: dict = {}
    for tally in tallies:
        for name, count in tally.items():
            total[name] = total.get(name, 0) + count
    return total


# --------------------------------------------------------------- messages


@dataclass(slots=True)
class ShardRequest:
    """One routed request: run ``sqes`` as a ``sys_submit`` batch under
    the named principal.  ``seq`` is the router's global sequence number
    — the logical clock every observable merge keys on.  Slotted, not
    frozen, like :class:`ShardResponse`: both are built per request."""

    seq: int
    principal: str
    sqes: tuple


@dataclass(slots=True)
class ShardResponse:
    """Completion of one :class:`ShardRequest`.

    ``audit`` holds the request's audit delta as (kind value, subsystem,
    principal, detail) tuples — sequence numbers are assigned at merge
    time.  ``traffic`` holds the payloads the request transmitted, in
    order.  ``deferred`` is the simulated-work balance the request
    accrued (``Kernel.defer_work`` mode)."""

    seq: int
    shard_id: int
    cqes: tuple
    audit: tuple = ()
    traffic: tuple = ()
    deferred: int = 0


@dataclass(frozen=True)
class TagSync:
    """Replicate the interned-tag namespace: a
    :meth:`~repro.core.tags.TagAllocator.snapshot` with its epoch."""

    epoch: int
    next_value: int
    entries: tuple


@dataclass(frozen=True)
class CapSync:
    """Replicate principal security fields (labels + capability stores).
    ``principals`` is a tuple of (name, LabelPair, CapabilitySet)."""

    epoch: int
    principals: tuple


@dataclass(frozen=True)
class SyncAck:
    """A shard's answer to a sync frame: whether it applied (``False``
    means the frame was stale under epoch-stamped invalidation)."""

    shard_id: int
    applied: bool
    epoch: int


@dataclass(frozen=True)
class Shutdown:
    """Ask a worker to report and exit."""


@dataclass(frozen=True)
class WorkerFailed:
    """A worker's last message: its host raised ``error`` (the
    exception's repr) while booting or serving."""

    worker_id: int
    error: str


@dataclass(frozen=True)
class ShardReport:
    """Final per-shard observables, returned on shutdown."""

    shard_id: int
    syscall_counts: dict
    hook_calls: dict
    denials: dict
    audit_len: int
    replication_epoch: int


@dataclass(frozen=True)
class WorkerReport:
    """Final per-worker state: the fastpath counters the worker's host
    accrued since boot, plus a :class:`ShardReport` for every shard it
    hosted (empty for a parallel-scheduler host)."""

    worker_id: int
    fastpath_counters: dict = field(default_factory=dict)
    shards: tuple = ()
    #: The derived per-worker RNG seed
    #: (:func:`repro.osim.pool.worker_seed`).
    seed: int = 0


# ------------------------------------------------------------ shard server


class ShardServer:
    """One shard: a booted kernel plus the request/replication handlers.

    The server is executor-agnostic: the cluster's shard host calls
    :meth:`handle` for every message of a wave, whether the pool runs it
    in this process or in a forked worker.

    Parameters
    ----------
    shard_id, tier:
        The shard's identity and trust tier (see
        :data:`repro.osim.cluster.TIER_CAPACITY`).
    kernel:
        The booted kernel.  Any simulated work accrued during boot is
        drained (boot cost is not service time).
    tasks:
        principal name -> :class:`Task`, the shard's principal registry.
    work_ns:
        Wall-clock nanoseconds to sleep per deferred simulated-work unit
        after each request (0 disables sleeping — the deterministic test
        mode).  Sleeping in the worker is what lets N workers overlap
        service time the way N machines would.
    mediation:
        ``"laminar"`` (default) runs each request as one ``sys_submit``
        batch under the in-kernel LSM.  ``"flume"`` models the
        distributed Flume baseline: every operation is mediated
        individually by a user-level monitor, paying the monitor hop
        (``FlumeMonitor.MONITOR_HOP_WORK``) and full per-call entry cost
        — no batching amortization.
    """

    def __init__(
        self,
        shard_id: int,
        kernel: Kernel,
        tasks: "dict[str, Task]",
        tier: str = "edge",
        work_ns: float = 0.0,
        mediation: str = "laminar",
    ) -> None:
        if mediation not in ("laminar", "flume"):
            raise ValueError(f"unknown mediation {mediation!r}")
        self.shard_id = shard_id
        self.tier = tier
        self.kernel = kernel
        self.tasks = tasks
        self.work_ns = work_ns
        self.mediation = mediation
        kernel.drain_deferred_work()

    # -- request execution --------------------------------------------------

    def handle(self, message: object) -> object:
        """Dispatch one decoded message to its handler."""
        if isinstance(message, ShardRequest):
            return self.execute(message)
        if isinstance(message, TagSync):
            applied = self.kernel.tags.apply_snapshot(
                message.epoch, message.next_value, message.entries
            )
            return SyncAck(self.shard_id, applied, self.kernel.tags.epoch)
        if isinstance(message, CapSync):
            applied = self.kernel.apply_replication(message.epoch)
            if applied:
                for name, labels, caps in message.principals:
                    task = self.tasks.get(name)
                    if task is not None:
                        task.security.set_labels_unchecked(labels)
                        task.security.replace_capabilities(caps)
            return SyncAck(self.shard_id, applied, self.kernel.replication_epoch)
        raise ValueError(f"unroutable message {type(message).__name__}")

    def execute(self, request: ShardRequest) -> ShardResponse:
        cqes, audit, traffic, deferred = capture(self.kernel, self._run, request)
        if self.work_ns and deferred:
            time.sleep(deferred * self.work_ns * 1e-9)
        return ShardResponse(request.seq, self.shard_id, tuple(cqes), audit, traffic, deferred)

    def _run(self, request: ShardRequest) -> list[Cqe]:
        task = self.tasks.get(request.principal)
        if task is None:
            return [Cqe("submit", None, EINVAL)]
        try:
            if self.mediation == "flume":
                return self._execute_flume(task, request.sqes)
            return self.kernel.sys_submit(task, request.sqes)
        except SyscallError as exc:
            return [Cqe("submit", None, exc.errno)]

    def _execute_flume(self, task: "Task", sqes: tuple) -> list[Cqe]:
        """The distributed-Flume arm: per-op user-level monitor mediation.
        Every entry pays the monitor round trip and its full standalone
        syscall cost; there is nothing for a batch to amortize."""
        from ..baselines.flume import FlumeMonitor  # deferred: no cycle

        kernel = self.kernel
        hop = FlumeMonitor.MONITOR_HOP_WORK
        cqes: list[Cqe] = []
        for sqe in sqes:
            kernel._extra_work(hop)
            try:
                if type(sqe.op) is not str or sqe.op not in kernel.SUBMIT_OPS:
                    raise SyscallError(EINVAL, f"op {sqe.op!r} is not batchable")
                result = call_syscall(kernel.syscalls[sqe.op], task, sqe.args)
            except SyscallError as exc:
                cqes.append(Cqe(sqe.op, None, exc.errno))
            else:
                cqes.append(Cqe(sqe.op, result, 0))
        return cqes

    def report(self) -> ShardReport:
        kernel = self.kernel
        return ShardReport(
            shard_id=self.shard_id,
            syscall_counts=dict(kernel.syscall_counts),
            hook_calls=dict(kernel.security.hook_calls),
            denials=dict(kernel.security.denials),
            audit_len=len(kernel.audit),
            replication_epoch=kernel.replication_epoch,
        )
