"""Parallel scheduler backend: task groups across a worker pool.

The PR 3 scheduler (:mod:`repro.osim.sched`) is cooperative and
single-threaded; this module is the wall-clock-scale backend beneath it.
The unit of parallelism is the **task group**: a set of tasks that share
fds, pipes, and files only with each other (one user's server+client
pair in the file-server workload).  Groups are partitioned across the
worker pool (:mod:`repro.osim.pool`) by ``group_index % workers`` — a
pure function of the trace, never of verdicts or timing — and each group
runs to completion under an ordinary cooperative :class:`Scheduler`
inside its worker, so the generator task API (and the park/wake
discipline that keeps denied ≡ empty) is exactly the PR 3 code path.

Determinism is inherited from the PR 7 cluster machinery rather than
reinvented:

* **Replicated worlds.**  Generators cannot cross a process boundary,
  so every worker builds the *same* full world (identical setup
  sequence → identical tids, inode numbers, and tag values) and runs
  only its assigned groups' bodies.  Denial detail strings — which
  embed task names, labels, and inode numbers — therefore compare
  byte-for-byte across workers and against the single-process replay.
* **Deterministic merge.**  Each group's audit and traffic deltas are
  captured around its run by :func:`repro.osim.rpc.capture` and stamped
  with the group's global index (the ``(stamp, worker, local)`` triples
  of :class:`~repro.osim.sockets.TrafficLog`); the parent merges them in
  global group order with :func:`repro.osim.rpc.merge_audit`, the merge
  :meth:`repro.osim.cluster.Cluster.merged_audit` uses.  Because groups are
  fd-disjoint, a group's observables are independent of which other
  groups ran before it on the same kernel image — so the merged record
  is byte-identical to :func:`replay_cooperative` running every group
  sequentially on one kernel.
* **Per-worker seeding.**  Forked workers inherit the parent's RNG
  state; each worker reseeds under the deterministic rule of
  :func:`repro.osim.pool.worker_seed`, so repeated runs are
  bit-reproducible.
* **Overlapped service time.**  In ``defer_work`` mode each worker
  sleeps off its groups' simulated syscall work (``work_ns`` per
  deferred iteration) after each group — sleeps overlap across worker
  processes regardless of host core count, exactly as service time
  overlaps across real cores.

Group bodies must not ``fork`` new kernel tasks at run time: a task id
allocated mid-run would depend on which groups ran earlier on that
worker's kernel image, breaking cross-executor byte parity.  (Bodies
built at world-build time may use any task created there.)
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from types import SimpleNamespace
from typing import Callable, Optional

from .kernel import Kernel
from .lsm import LaminarSecurityModule
from .pool import Pool
from .rpc import WorkerReport, capture, merge_audit
from .sched import DEFAULT_MAX_STEPS, Scheduler


@dataclass
class GroupHandle:
    """One schedulable task group, produced worker-side by the world's
    ``build(kernel)``.

    ``spawn(sched)`` admits the group's (already created) tasks and
    generator bodies to a cooperative scheduler; ``stats()`` returns a
    small dict of group-local outcome numbers (ops served, pipe drops,
    bytes) read after the group ran; its values must fit the wire
    schema."""

    name: str
    spawn: Callable[[Scheduler], None]
    stats: Optional[Callable[[], dict]] = None


@dataclass(frozen=True)
class GroupResult:
    """Observables of one completed task group."""

    group: int
    worker: int
    name: str
    steps: int
    #: (kind value, subsystem, principal, detail) audit delta tuples.
    audit: tuple = ()
    #: ((stamp, worker, local), payload) traffic delta pairs.
    traffic: tuple = ()
    #: Sorted (hook name, count) denial-counter delta.
    denials: tuple = ()
    #: Sorted (hook name, count) hook-call delta.
    hooks: tuple = ()
    #: Tids left permanently parked (normally empty).
    stuck: tuple = ()
    #: Deferred simulated-work iterations the group accrued.
    deferred: int = 0
    #: Scheduling-event trace ``(event, tid)`` when tracing was on.
    sched_trace: tuple = ()
    stats: dict = field(default_factory=dict)


def _counter_delta(after: Counter, before: dict) -> tuple:
    return tuple(
        sorted(
            (name, count - before.get(name, 0))
            for name, count in after.items()
            if count - before.get(name, 0)
        )
    )


def run_group(
    kernel: Kernel,
    index: int,
    handle: GroupHandle,
    *,
    worker: int = 0,
    trace: bool = False,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> GroupResult:
    """Run one group to completion under a cooperative scheduler and
    capture its observable deltas.  Shared by every pool host and the
    sequential replay, so all sides' capture logic is one code path."""
    sched = Scheduler(kernel, trace=trace)
    handle.spawn(sched)
    denials_before = dict(kernel.security.denials)
    hooks_before = dict(kernel.security.hook_calls)
    # The group's global index is the merge stamp.
    stuck, audit, traffic, deferred = capture(
        kernel, index + 1, sched.run, max_steps
    )
    return GroupResult(
        group=index,
        worker=worker,
        name=handle.name,
        steps=sched.steps,
        audit=audit,
        traffic=traffic,
        denials=_counter_delta(kernel.security.denials, denials_before),
        hooks=_counter_delta(kernel.security.hook_calls, hooks_before),
        stuck=tuple(t.tid for t in stuck),
        deferred=deferred,
        sched_trace=tuple(sched.trace) if sched.trace is not None else (),
        stats=dict(handle.stats()) if handle.stats is not None else {},
    )


def boot_world(world, *, worker_id: int = 0, defer_work: bool = False):
    """Boot one kernel image and build the (replicated) world onto it.
    Build-time simulated work is always deferred and drained — boot cost
    is not service time."""
    make_security = getattr(world, "security_module", None)
    security = make_security() if make_security is not None else LaminarSecurityModule()
    kernel = Kernel(security)
    kernel.net.transmitted.worker_id = worker_id
    kernel.defer_work = True
    handles = list(world.build(kernel))
    kernel.drain_deferred_work()
    kernel.defer_work = defer_work
    return kernel, handles


class ParallelScheduler:
    """Run a group world across a worker pool with deterministic merge.

    ``world`` must expose ``group_count`` (int) and
    ``build(kernel) -> list[GroupHandle]`` building the identical world
    on every kernel image (and optionally ``security_module()``).

    ``executor``:

    * ``"fork"`` — one forked pool worker per partition; workers build
      their world during construction (excluded from the timed window),
      run concurrently once :meth:`run` sends them ``max_steps``, and
      sleep off deferred simulated work so service time overlaps across
      processes.
    * ``"inline"`` — every group runs in this process on one kernel in
      global group order: the deterministic CI fallback *and* the
      single-threaded cooperative baseline (:func:`replay_cooperative`).
      The run request and its results still round-trip through the wire
      codec, so the encoding of every observable is exercised
      identically.
    """

    def __init__(
        self,
        world,
        *,
        workers: int = 1,
        executor: str = "fork",
        defer_work: bool = False,
        work_ns: float = 0.0,
        seed: int = 0,
        trace: bool = False,
    ) -> None:
        if executor not in ("fork", "inline"):
            raise ValueError(f"unknown executor {executor!r}")
        groups = int(world.group_count)
        self.workers = max(1, min(workers, groups)) if groups else 1
        self.results: list[GroupResult] = []
        self.elapsed = 0.0
        hosts = self.workers if executor == "fork" else 1

        def boot(worker_id: int) -> SimpleNamespace:
            """A worker's group host: a request is ``max_steps``, the reply
            the results of groups ``worker_id, worker_id + hosts, ...`` in
            global order.  Each result names the worker the static
            partition ``group % workers`` assigns, inline too."""
            kernel, handles = boot_world(
                world, worker_id=worker_id, defer_work=defer_work
            )

            def serve(max_steps: int) -> list[GroupResult]:
                results = []
                for index in range(worker_id, groups, hosts):
                    result = run_group(
                        kernel,
                        index,
                        handles[index],
                        worker=index % self.workers,
                        trace=trace,
                        max_steps=max_steps,
                    )
                    if work_ns and result.deferred:
                        time.sleep(result.deferred * work_ns * 1e-9)
                    results.append(result)
                return results

            return SimpleNamespace(serve=serve, report=tuple)

        self.pool = Pool(boot, hosts, fork=executor == "fork", seed=seed)

    # -- execution -----------------------------------------------------------

    def run(self, max_steps: int = DEFAULT_MAX_STEPS) -> list[GroupResult]:
        """Run every group; returns results ordered by global group index.
        ``elapsed`` covers dispatch to last result received — world
        construction (and fork/boot) is excluded on both executors."""
        start = time.perf_counter()
        replies = self.pool.scatter(
            {wid: max_steps for wid in range(self.pool.size)}
        )
        self.elapsed = time.perf_counter() - start
        self.results = sorted(
            chain.from_iterable(replies.values()), key=attrgetter("group")
        )
        return self.results

    def shutdown(self) -> list[WorkerReport]:
        return self.pool.shutdown()

    # -- deterministic observable merge --------------------------------------

    def merged_audit(self) -> list[str]:
        """Concatenate per-group audit deltas in global group order and
        re-stamp 1..n — byte-identical across executors and worker counts
        (and to the sequential replay) because groups are fd-disjoint."""
        return merge_audit(r.audit for r in self.results)

    def merged_traffic(self) -> list:
        """Transmitted payloads in canonical ``(stamp, worker, local)``
        order; the stamp is the group index, so the order is a pure
        function of the trace."""
        entries: list[tuple] = []
        for result in self.results:
            entries.extend(result.traffic)
        entries.sort(key=lambda item: item[0][0])
        return [payload for _, payload in entries]

    def observables(self) -> dict:
        """The equivalence currency for the parallel ≡ cooperative tests:
        everything here must be identical across executors, worker
        counts, and repeated runs."""
        denials: Counter = Counter()
        hooks: Counter = Counter()
        for result in self.results:
            denials.update(dict(result.denials))
            hooks.update(dict(result.hooks))
        return {
            "audit": tuple(self.merged_audit()),
            "traffic": tuple(self.merged_traffic()),
            "denials": tuple(sorted(denials.items())),
            "hooks": tuple(sorted(hooks.items())),
            "pipe_drops": sum(
                r.stats.get("pipe_drops", 0) for r in self.results
            ),
            "ops": sum(r.stats.get("ops", 0) for r in self.results),
            "steps": sum(r.steps for r in self.results),
            "stuck": tuple(
                (r.group, r.stuck) for r in self.results if r.stuck
            ),
        }

    def aggregate(self) -> dict:
        """Cross-worker totals (fastpath counters above all) for the
        benchmark snapshot."""
        totals: Counter = Counter()
        for report in self.shutdown():
            totals.update(report.fastpath_counters)
        return {
            "fastpath": dict(totals),
            "deferred_work": sum(r.deferred for r in self.results),
            "seeds": {r.worker_id: r.seed for r in self.shutdown()},
        }


def replay_cooperative(
    world, *, trace: bool = False, max_steps: int = DEFAULT_MAX_STEPS
) -> ParallelScheduler:
    """The single-threaded cooperative baseline: every group, in global
    group order, on ONE kernel under the PR 3 scheduler.  Returns the
    (already run) inline ParallelScheduler whose merged observables are
    what every parallel run must reproduce byte-for-byte."""
    sched = ParallelScheduler(
        world, workers=1, executor="inline", defer_work=False, trace=trace
    )
    sched.run(max_steps)
    return sched
