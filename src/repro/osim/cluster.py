"""Sharded multi-kernel cluster: label-aware routing, replication, merging.

One simulated :class:`~repro.osim.kernel.Kernel` is one machine.  This
module scales the reproduction out the way the paper's data-lineage
discussion scales Laminar out: N kernels ("shards"), each a full machine
image with its own LSM, filesystem, and audit log, fronted by a
**label-aware router**.

* :class:`LabelAwareRouter` hashes (principal, secrecy tags) to a shard
  — but only among shards whose *trust tier* can hold the request's
  labels.  Tiers mirror the deployment story of the MapReduce-style
  lineage systems (edge collectors may hold any user's raw taint, a
  shuffle tier only narrow aggregates, a central tier only fully
  declassified data): :data:`TIER_CAPACITY` caps the number of secrecy
  tags a shard may be asked to hold.  Routing is a pure function of the
  request's (principal, labels) — the router never looks at verdicts, so
  a denied request takes exactly the route and produces exactly the
  (empty) observable a successful one would: denied ≡ empty holds at the
  router, not just inside each kernel.
* The shards run on the worker pool (:mod:`repro.osim.pool`): the
  ``"same-process"`` executor hosts every shard in this process
  (deterministic, for tests), ``"multiprocess"`` forks workers that each
  host one or more shards and sleep off their simulated work, so service
  time overlaps the way it would across machines.  Requests go out in
  waves of a fixed size, and every wave and reply crosses the binary
  lamwire codec, so label encoding and the per-connection dictionaries
  are exercised; :meth:`Cluster.wire_stats` reports this cluster's own
  frames and bytes.
* The shared namespaces replicate by epoch-stamped frames —
  :meth:`Cluster.sync_tags` (interned-tag namespace) and
  :meth:`Cluster.sync_caps` (capability stores).  A principal rebuilt
  by a ``CapSync`` keeps no verdict proved under its old labels: the
  receiving kernel's permission memo keys every entry on the task's
  label pair.  Both planes are **delta-encoded** against a per-peer
  high-water mark: a shard that already acknowledged tag values below
  ``v`` is never sent them again, and a principal whose (labels,
  capabilities) state is unchanged since the last applied ``CapSync``
  is omitted from the next one.  Deltas change bytes only, never
  outcomes: ``apply_snapshot`` ignores already-present entries and an
  empty ``CapSync`` still advances the shard's replication epoch, so
  the merged observables stay byte-identical to the full-broadcast
  protocol.
* Observables merge deterministically: every request carries a
  router-assigned global sequence number, and the responses are kept in
  that order; :meth:`Cluster.merged_audit` and
  :meth:`Cluster.merged_traffic` concatenate the per-request deltas in
  it (:func:`~repro.osim.rpc.merge_audit`,
  :func:`~repro.osim.rpc.merge_traffic`), which makes cluster-mode audit
  and traffic byte-identical to :func:`replay_single` running the same
  routed trace on one kernel, whatever the wave size.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional, Sequence

from ..core import LabelPair
from .kernel import Kernel
from .lsm import LaminarSecurityModule
from .pool import Pool
from .rpc import (
    CapSync,
    ShardRequest,
    ShardServer,
    TagSync,
    WorkerReport,
    merge_audit,
    merge_traffic,
    sum_counts,
)
from .sockets import TrafficLog

#: Trust tiers and the most secrecy tags each may be asked to hold.
#: ``None`` means unbounded (an edge shard is trusted with any user's raw
#: taint); a central shard only ever sees fully declassified requests.
TIER_CAPACITY: dict[str, Optional[int]] = {
    "edge": None,
    "shuffle": 1,
    "central": 0,
}

#: A request this many secrecy tags wide, or wider, fits unbounded tiers only.
_WIDE = 1 + max(cap for cap in TIER_CAPACITY.values() if cap is not None)


class RoutingError(Exception):
    """No shard's trust tier can hold the request's labels."""


@dataclass(frozen=True)
class ShardSpec:
    """A shard's identity and trust tier."""

    shard_id: int
    tier: str = "edge"

    def __post_init__(self) -> None:
        if self.tier not in TIER_CAPACITY:
            raise ValueError(f"unknown tier {self.tier!r}")


@dataclass(frozen=True)
class ClusterRequest:
    """One client request before routing: who, under what labels, doing
    which batch.  ``labels`` is what the router sees — the submitting
    principal's label pair at routing time."""

    principal: str
    labels: LabelPair
    sqes: tuple


def make_specs(shards: int, topology: str = "edge") -> list[ShardSpec]:
    """Build shard specs from a topology string: a comma-separated tier
    list, cycled over the shard count (``"edge"`` → all edge,
    ``"edge,edge,shuffle,central"`` → mixed tiers)."""
    tiers = [t.strip() for t in topology.split(",") if t.strip()]
    if not tiers:
        raise ValueError("empty topology")
    return [ShardSpec(i, tiers[i % len(tiers)]) for i in range(shards)]


def tier_can_hold(tier: str, labels: LabelPair) -> bool:
    """True iff a shard of this tier may be handed a request carrying
    ``labels``.  The capacity bound is on secrecy tags: secrecy is what a
    compromised low-trust shard could leak."""
    cap = TIER_CAPACITY[tier]
    return cap is None or len(labels.secrecy) <= cap


class LabelAwareRouter:
    """Hash (principal, secrecy tags) onto the label-eligible shards.

    The hash is :func:`zlib.crc32` over the principal name chained
    through the sorted secrecy tag values — stable across processes and
    Python hash randomization, so a trace routes identically everywhere
    (the determinism the observable merge depends on).  Every decision is
    appended to ``trace`` for the tier-invariant property tests.
    """

    def __init__(self, specs: Sequence[ShardSpec]) -> None:
        self.specs = list(specs)
        if not self.specs:
            raise ValueError("router needs at least one shard")
        #: Routing decisions: (principal, labels, shard_id) in order.
        self.trace: list[tuple[str, LabelPair, int]] = []
        #: The eligible shards of each secrecy width up to ``_WIDE``,
        #: listed once: tier capacities are fixed.
        self._by_width = [
            [s for s in self.specs if (cap := TIER_CAPACITY[s.tier]) is None or w <= cap]
            for w in range(_WIDE + 1)
        ]

    def eligible(self, labels: LabelPair) -> list[ShardSpec]:
        return list(self._by_width[min(len(labels.secrecy), _WIDE)])

    @staticmethod
    def route_key(principal: str, labels: LabelPair) -> int:
        key = zlib.crc32(principal.encode())
        for tag in labels.secrecy:
            key = zlib.crc32(str(tag.value).encode(), key)
        return key

    def route(self, principal: str, labels: LabelPair) -> ShardSpec:
        shards = self._by_width[min(len(labels.secrecy), _WIDE)]
        if not shards:
            raise RoutingError(
                f"no shard tier can hold {labels!r} "
                f"(secrecy width {len(labels.secrecy)})"
            )
        spec = shards[self.route_key(principal, labels) % len(shards)]
        self.trace.append((principal, labels, spec.shard_id))
        return spec


# ----------------------------------------------------------------- booting


def boot_shard(
    world,
    spec: ShardSpec,
    *,
    defer_work: bool = False,
    work_ns: float = 0.0,
    mediation: str = "laminar",
) -> ShardServer:
    """Boot one shard: a fresh kernel, the replicated world image built
    onto it by ``world.build(kernel)`` (every shard builds the *same*
    world — identical setup sequences produce identical inode numbers,
    which is what lets denial details compare byte-for-byte against a
    single-kernel replay), wrapped in a :class:`ShardServer`."""
    kernel = Kernel(LaminarSecurityModule())
    # World building always defers its simulated work (boot cost is not
    # service time, and busy-looping through a large world would serialize
    # worker start-up); the server constructor drains the balance.
    kernel.defer_work = True
    tasks = world.build(kernel)
    server = ShardServer(
        spec.shard_id,
        kernel,
        tasks,
        tier=spec.tier,
        work_ns=work_ns,
        mediation=mediation,
    )
    kernel.defer_work = defer_work
    return server


def replay_single(world, trace: Sequence[ClusterRequest], *, mediation: str = "laminar"):
    """Run an already-routed trace, in global sequence order, on ONE
    kernel holding the full world — the parity baseline.  Returns
    ``(server, responses)``; the server's kernel audit/traffic are what
    cluster-mode merges must reproduce byte-for-byte."""
    server = boot_shard(world, ShardSpec(0, "edge"), mediation=mediation)
    responses = [
        server.execute(ShardRequest(seq, req.principal, tuple(req.sqes)))
        for seq, req in enumerate(trace, 1)
    ]
    return server, responses


def render_audit(entries) -> list[str]:
    """Render audit entries (an :class:`AuditLog` or iterable) to their
    canonical one-line forms — the byte-comparison currency."""
    return [str(entry) for entry in entries]


# ------------------------------------------------------------------ cluster


class Cluster:
    """The deployment object: router + replication + observable merging,
    over a worker pool of shard hosts.

    ``world`` is any object with a ``build(kernel) -> dict[name, Task]``
    method; every shard (and the single-kernel parity replay) builds the
    same world image.  ``executor`` is ``"same-process"`` (deterministic,
    default) or ``"multiprocess"``.
    """

    def __init__(
        self,
        world,
        *,
        shards: int = 2,
        topology: str = "edge",
        executor: str = "same-process",
        workers: Optional[int] = None,
        defer_work: Optional[bool] = None,
        work_ns: float = 0.0,
        mediation: str = "laminar",
        seed: int = 0,
    ) -> None:
        self.world = world
        self.seed = seed
        self.specs = make_specs(shards, topology)
        self.router = LabelAwareRouter(self.specs)
        #: Every response so far, in global sequence order: requests are
        #: numbered before dispatch and replies come back in wave order.
        self.responses: list = []
        self._next_seq = 1
        self._sync_epoch = 0
        #: Per-peer tag high-water mark: the allocator ``next_value`` as
        #: of the last TagSync the shard *applied*.  Entries below it are
        #: already replicated there and are not re-shipped.
        self._tag_hwm: dict[int, int] = {}
        #: Per-peer last-applied principal state: shard_id -> name ->
        #: (LabelPair, CapabilitySet).  Unchanged principals are omitted
        #: from the next CapSync to that shard.
        self._cap_sent: dict[int, dict] = {}
        if executor == "same-process":
            hosts = 1
            defer = False if defer_work is None else defer_work
        elif executor == "multiprocess":
            hosts = max(1, min(workers or len(self.specs), len(self.specs)))
            defer = True if defer_work is None else defer_work
        else:
            raise ValueError(f"unknown executor {executor!r}")
        #: shard_id -> pool worker, round-robin over the specs.
        self.worker_of = {
            spec.shard_id: i % hosts for i, spec in enumerate(self.specs)
        }

        def boot(worker_id: int) -> SimpleNamespace:
            """A worker's shard host: a request is a wave of ``(shard_id,
            message)`` pairs, the reply the shards' answers in order —
            waves amortize the IPC round trip the way ``sys_submit``
            amortizes the user→kernel crossing."""
            servers = {
                spec.shard_id: boot_shard(
                    world,
                    spec,
                    defer_work=defer,
                    work_ns=work_ns,
                    mediation=mediation,
                )
                for spec in self.specs
                if self.worker_of[spec.shard_id] == worker_id
            }
            return SimpleNamespace(
                servers=servers,
                serve=lambda wave: [servers[sid].handle(m) for sid, m in wave],
                report=lambda: tuple(servers[i].report() for i in sorted(servers)),
            )

        self.pool = Pool(boot, hosts, fork=executor == "multiprocess", seed=seed)
        #: The shard servers, when they live in this process.
        self.servers: Optional[dict[int, ShardServer]] = (
            self.pool.host.servers if self.pool.host is not None else None
        )

    def submit_wave(self, wave: list) -> list:
        """Send a wave of ``(shard_id, message)`` pairs to the shard hosts
        and return the replies in wave order.  A wave for several workers
        is split per worker, every sub-wave sent before any reply is
        awaited — in ``defer_work`` mode each worker *sleeps off* its
        shards' simulated work, and sleeps overlap across processes
        regardless of host core count, exactly as service time overlaps
        across real machines."""
        if self.pool.size == 1:
            return self.pool.scatter({0: wave})[0]
        worker_of = self.worker_of
        by_worker: dict[int, list] = {}
        for pair in wave:
            by_worker.setdefault(worker_of[pair[0]], []).append(pair)
        replies = {
            wid: iter(reply) for wid, reply in self.pool.scatter(by_worker).items()
        }
        return [next(replies[worker_of[shard_id]]) for shard_id, _ in wave]

    # -- request plane ------------------------------------------------------

    def run_trace(
        self, trace: Sequence[ClusterRequest], wave_size: Optional[int] = None
    ) -> list:
        """Route and execute a trace.  Requests are numbered by the
        router's global sequence *before* dispatch — the logical clock the
        merge orders by — then dispatched in waves of ``wave_size`` (by
        default one wave for the whole trace).  The wave size decides
        *when* frames flush, never what is in them or in what order, so
        merged audit and traffic are byte-identical for every wave size,
        including for denied requests (denied ≡ empty is per-request,
        not per-wave)."""
        size = wave_size or len(trace) or 1
        route = self.router.route
        responses: list = []
        for start in range(0, len(trace), size):
            wave = []
            for req in trace[start : start + size]:
                spec = route(req.principal, req.labels)
                request = ShardRequest(self._next_seq, req.principal, tuple(req.sqes))
                wave.append((spec.shard_id, request))
                self._next_seq += 1
            responses.extend(self.submit_wave(wave))
        self.responses.extend(responses)
        return responses

    # -- replication plane --------------------------------------------------

    def sync_tags(self, allocator) -> list:
        """Ship the coordinator's interned-tag namespace to every shard
        (epoch-stamped; stale frames are rejected), **delta-encoded**: a
        shard only receives entries at or above its high-water mark (the
        ``next_value`` it last acknowledged).  Safe because tag values
        are never reused and ``apply_snapshot`` ignores entries already
        present — a delta applies to exactly the same state as the full
        snapshot would.  The wire dictionaries need no invalidation: a
        label pair they already carry names the same tags after any
        number of syncs, because no tag value is ever reused."""
        epoch, next_value, entries = allocator.snapshot()
        wave = []
        for spec in self.specs:
            hwm = self._tag_hwm.get(spec.shard_id, 0)
            delta = tuple(e for e in entries if e[0] >= hwm)
            wave.append((spec.shard_id, TagSync(epoch, next_value, delta)))
        acks = self.submit_wave(wave)
        for ack in acks:
            if ack.applied:
                self._tag_hwm[ack.shard_id] = next_value
        return acks

    def sync_caps(self, principals) -> list:
        """Ship principal security state — (name, LabelPair,
        CapabilitySet) triples — to every shard, **delta-encoded**: a
        principal whose state matches what the shard last applied is
        omitted.  The frame itself is always sent (even empty), so every
        shard advances its replication epoch and acknowledges every sync:
        which shards apply a sync, and at what epoch, must not depend on
        how much state happened to change."""
        self._sync_epoch += 1
        principals = tuple(principals)
        wave = []
        deltas: dict[int, tuple] = {}
        for spec in self.specs:
            sent = self._cap_sent.setdefault(spec.shard_id, {})
            delta = tuple(
                (name, labels, caps)
                for name, labels, caps in principals
                if sent.get(name) != (labels, caps)
            )
            deltas[spec.shard_id] = delta
            wave.append((spec.shard_id, CapSync(self._sync_epoch, delta)))
        acks = self.submit_wave(wave)
        for ack in acks:
            if ack.applied:
                sent = self._cap_sent[ack.shard_id]
                for name, labels, caps in deltas[ack.shard_id]:
                    sent[name] = (labels, caps)
        return acks

    # -- observable merge ---------------------------------------------------

    def merged_audit(self) -> list[str]:
        """Deterministically merge per-shard audit deltas: concatenate in
        global-sequence order, re-stamp 1..n, render.  A pure function of
        the routed trace — byte-identical across executors and to the
        single-kernel replay of the same trace."""
        return merge_audit(r.audit for r in self.responses)

    def worker_logs(self) -> list[TrafficLog]:
        """Each shard's traffic log, rebuilt from the traffic deltas of
        its responses in global-sequence order."""
        logs: dict[int, TrafficLog] = {}
        for resp in self.responses:
            logs.setdefault(resp.shard_id, TrafficLog()).extend(resp.traffic)
        return [logs[sid] for sid in sorted(logs)]

    def merged_traffic(self) -> TrafficLog:
        """Every response's traffic delta in global-sequence order, kept
        in a capped :class:`TrafficLog` like the single-kernel log it is
        compared to: the same payloads retained, the same totals."""
        log = TrafficLog()
        log.extend(merge_traffic(r.traffic for r in self.responses))
        return log

    def wire_stats(self) -> dict:
        """Data-plane accounting for this cluster's connections alone:
        the frames and payload bytes that crossed them in both
        directions, and the parent-side codecs' dictionary statistics
        (:meth:`repro.osim.pool.Pool.wire_stats`)."""
        stats = self.pool.wire_stats()
        stats["requests"] = len(self.responses)
        if self.responses:
            stats["bytes_per_request"] = round(
                stats["bytes_on_wire"] / len(self.responses), 2
            )
        return stats

    # -- lifecycle / accounting ---------------------------------------------

    def shutdown(self) -> list[WorkerReport]:
        return self.pool.shutdown()

    def aggregate(self) -> dict:
        """Cross-worker totals: fastpath counters, per-opcode syscall
        counts, LSM hook counts, denials, audit volume, deferred work."""
        reports = self.shutdown()
        shards = [shard for report in reports for shard in report.shards]
        return {
            "fastpath": sum_counts(r.fastpath_counters for r in reports),
            "syscalls": sum_counts(s.syscall_counts for s in shards),
            "hooks": sum_counts(s.hook_calls for s in shards),
            "denials": sum_counts(s.denials for s in shards),
            "audit_entries": sum(s.audit_len for s in shards),
            "deferred_work": sum(r.deferred for r in self.responses),
        }
