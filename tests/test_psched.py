"""Parallel scheduler backend (:mod:`repro.osim.psched`).

The equivalence currency: a world partitioned across N fork workers must
produce *byte-identical* observables — merged audit text, transmitted
traffic, denial counters, hook counters, pipe drops — to the same world
run group-by-group on one kernel under the cooperative scheduler.  And
within the parallel backend, the denied ≡ empty discipline must survive:
a worker whose group contains a denied reader is indistinguishable from
one whose group contains an allowed reader of an empty pipe.
"""

from __future__ import annotations

import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.workloads import OSServerWorld
from repro.core import Label, LabelPair
from repro.analysis.fuzz import _merge_results
from repro.osim import DEFAULT_TRAFFIC_LOG_CAP, Kernel, LaminarSecurityModule, Sqe
from repro.osim.psched import (
    GroupHandle,
    ParallelScheduler,
    replay_cooperative,
    run_group,
)
from repro.osim.pool import seed_worker_rng, worker_seed
from repro.osim.sched import read_blocking, submit, syscall, yield_


# =========================================================================
# Parallel ≡ cooperative: the hypothesis sweep and directed fork cases
# =========================================================================


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    users=st.integers(min_value=1, max_value=4),
    requests=st.integers(min_value=1, max_value=6),
    chunks=st.integers(min_value=1, max_value=4),
    batched=st.booleans(),
    heartbeat=st.booleans(),
    workers=st.integers(min_value=1, max_value=3),
)
def test_fork_matches_cooperative_baseline(
    users, requests, chunks, batched, heartbeat, workers
):
    world = OSServerWorld(
        users=users,
        requests=requests,
        chunks=chunks,
        chunk_size=16,
        batched=batched,
        heartbeat=heartbeat,
    )
    base = replay_cooperative(world)
    ps = ParallelScheduler(world, workers=workers, executor="fork")
    ps.run()
    assert ps.observables() == base.observables()
    ps.shutdown()
    base.shutdown()


def test_fork_observables_identical_across_worker_counts():
    """The directed non-vacuous case: denials, silent pipe drops, and
    heartbeat traffic all present, bytes identical at 1, 2, and 4
    workers."""
    world = OSServerWorld(users=4, requests=10, chunks=4, chunk_size=32)
    base = replay_cooperative(world)
    obs0 = base.observables()
    base.shutdown()
    # Non-vacuous: the workload exercises every observable channel.
    assert len(obs0["audit"]) == 4 * 10  # one denied transmit per request
    assert len(obs0["traffic"]) == 4 * 10  # one courier heartbeat each
    assert obs0["pipe_drops"] == 4 * 10  # one silent drop per request
    assert dict(obs0["denials"])["socket_sendmsg"] == 4 * 10
    assert obs0["stuck"] == ()
    for workers in (1, 2, 4):
        ps = ParallelScheduler(world, workers=workers, executor="fork")
        ps.run()
        assert ps.observables() == obs0, f"workers={workers}"
        ps.shutdown()


def test_inline_executor_round_trips_the_codec():
    world = OSServerWorld(users=2, requests=6, chunks=3, chunk_size=16)
    base = replay_cooperative(world)
    ps = ParallelScheduler(world, workers=2, executor="inline")
    ps.run()
    assert ps.observables() == base.observables()
    # Partition labels are a pure function of the trace even inline.
    assert [r.worker for r in ps.results] == [0, 1]


def test_audit_text_restamped_in_global_group_order():
    world = OSServerWorld(users=3, requests=10, chunks=2, chunk_size=16)
    ps = ParallelScheduler(world, workers=3, executor="fork")
    ps.run()
    audit = ps.observables()["audit"]
    assert [int(line[1:7]) for line in audit] == list(range(1, len(audit) + 1))
    # Group order, not worker arrival order: user0's denials come first.
    assert "pcli0" in audit[0] and "pcli2" in audit[-1]
    ps.shutdown()


class BeaconWorld:
    """Groups of one task each transmitting 3,000 distinct payloads in
    one batch: 9,000 in all, more than a TrafficLog ever retains."""

    group_count = 3
    beats = 3_000

    def build(self, kernel):
        handles = []
        for g in range(self.group_count):
            task = kernel.spawn_task(f"beacon{g}")
            sqes = [Sqe("transmit", b"g%d.%d" % (g, i)) for i in range(self.beats)]

            def body(task, sqes=sqes):
                yield submit(sqes)

            def spawn(sched, body=body, task=task):
                sched.spawn(body, task=task)

            handles.append(GroupHandle(f"beacon{g}", spawn))
        return handles

    def expected(self) -> tuple:
        return tuple(
            b"g%d.%d" % (g, i)
            for g in range(self.group_count)
            for i in range(self.beats)
        )


def test_merged_traffic_keeps_every_payload_past_the_cap():
    """The group merge concatenates the groups' payloads uncapped, in
    group order, under either executor, and so does lamfuzz's merge."""
    world = BeaconWorld()
    expected = world.expected()
    assert len(expected) > 2 * DEFAULT_TRAFFIC_LOG_CAP
    merged = {}
    for executor in ("inline", "fork"):
        ps = ParallelScheduler(world, workers=2, executor=executor)
        ps.run()
        ps.shutdown()
        merged[executor] = ps.observables()
        assert merged[executor]["traffic"] == expected
        assert _merge_results(ps.results)["traffic"] == expected
    assert merged["inline"] == merged["fork"]


def test_a_group_past_the_cap_keeps_every_payload():
    """Each group alone transmits more than the kernel's TrafficLog
    retains: every payload still reaches the merged traffic, in order,
    under either executor."""
    world = BeaconWorld()
    world.group_count, world.beats = 2, 9_000
    expected = world.expected()
    merged = {}
    for executor in ("inline", "fork"):
        ps = ParallelScheduler(world, workers=2, executor=executor)
        ps.run()
        ps.shutdown()
        merged[executor] = ps.observables()
        assert merged[executor]["traffic"] == expected
    assert merged["inline"] == merged["fork"]


def test_worker_failure_is_reported_not_hung():
    class Broken:
        group_count = 1

        def build(self, kernel):
            def spawn(sched):
                def body(task):
                    raise RuntimeError("kaboom")
                    yield  # pragma: no cover

                sched.spawn(body, task=kernel.spawn_task("b"))

            return [GroupHandle("broken", spawn)]

    ps = ParallelScheduler(Broken(), workers=1, executor="fork")
    with pytest.raises(RuntimeError, match="kaboom"):
        ps.run()
    assert ps.shutdown() == []  # the dead worker is skipped, not awaited


class SpinWorld:
    """One group whose only task yields forever: it ends only when the
    scheduler's step budget runs out."""

    group_count = 1

    def build(self, kernel):
        def spawn(sched):
            def body(task):
                while True:
                    yield yield_()

            sched.spawn(body, task=kernel.spawn_task("spin"))

        return [GroupHandle("spin", spawn)]


@pytest.mark.parametrize("executor", ["inline", "fork"])
def test_run_honours_max_steps_on_every_executor(executor):
    """The step budget travels with the run request: a forked group must
    stop at the caller's ``max_steps``, not at the scheduler default."""
    ps = ParallelScheduler(SpinWorld(), workers=1, executor=executor)
    try:
        with pytest.raises(RuntimeError, match="exceeded 50 steps"):
            ps.run(max_steps=50)
    finally:
        ps.shutdown()


# =========================================================================
# Satellite 1: deterministic per-worker seeding
# =========================================================================


def test_worker_seed_rule_is_the_documented_crc32():
    assert worker_seed(1234, 3) == zlib.crc32(b"1234:3")
    assert worker_seed(0, 0) == zlib.crc32(b"0:0")
    # Derivation must separate workers and bases.
    assert len({worker_seed(b, w) for b in (0, 1) for w in range(4)}) == 8


def test_seed_worker_rng_is_reproducible():
    import random

    state = random.getstate()
    try:
        assert seed_worker_rng(99, 1) == worker_seed(99, 1)
        a = [random.random() for _ in range(3)]
        seed_worker_rng(99, 1)
        b = [random.random() for _ in range(3)]
        assert a == b
    finally:
        random.setstate(state)


def test_fork_runs_bit_reproducible_same_seed():
    world = OSServerWorld(users=2, requests=6, chunks=2, chunk_size=16)
    runs = []
    for _ in range(2):
        ps = ParallelScheduler(world, workers=2, executor="fork", seed=77)
        ps.run()
        reports = ps.shutdown()
        runs.append(
            (
                ps.observables(),
                {r.worker_id: r.seed for r in reports},
                {r.worker_id: r.fastpath_counters for r in reports},
            )
        )
    assert runs[0] == runs[1]
    assert runs[0][1] == {0: worker_seed(77, 0), 1: worker_seed(77, 1)}


# =========================================================================
# Denied ≡ empty across workers
# =========================================================================


class DeniedEmptyWorld:
    """Two identical groups of the scheduler suite's denied-vs-empty
    scenario: a labeled writer feeds a labeled pipe drained by a labeled
    poller, while a blocked reader — unlabeled (denied) or labeled but
    always finding an empty queue — polls ``read_blocking``.  The two
    variants differ in exactly one label bit per group."""

    group_count = 2

    def __init__(self, denied: bool) -> None:
        self.denied = denied

    def build(self, kernel):
        handles = []
        owner = kernel.spawn_task("owner")
        for g in range(self.group_count):
            tag, _ = kernel.sys_alloc_tag(owner, f"secret{g}")
            secret = LabelPair(Label.of(tag))
            setup = kernel.spawn_task(f"plumber{g}")
            rfd, wfd = kernel.sys_pipe(setup, labels=secret)
            reader = kernel.spawn_task(
                f"reader{g}", labels=LabelPair.EMPTY if self.denied else secret
            )
            drainer = kernel.spawn_task(f"drainer{g}", labels=secret)
            writer = kernel.spawn_task(f"writer{g}", labels=secret)
            r = kernel.share_fd(setup, rfd, reader)
            d = kernel.share_fd(setup, rfd, drainer)
            w = kernel.share_fd(setup, wfd, writer)
            kernel.sys_close(setup, rfd)
            kernel.sys_close(setup, wfd)
            events: list[int] = []

            def read_body(task, r=r, events=events):
                while True:
                    data = yield read_blocking(r)
                    events.append(len(data))
                    if not data:
                        return

            def drain_body(task, d=d):
                for _ in range(12):
                    yield syscall("read", d)

            def write_body(task, w=w):
                for i in range(3):
                    yield syscall("write", w, b"msg%d" % i)
                    yield yield_()
                yield syscall("close", w)

            def spawn(sched, _rb=read_body, _r=reader, _db=drain_body,
                      _d=drainer, _wb=write_body, _w=writer):
                sched.spawn(_rb, task=_r)
                sched.spawn(_db, task=_d)
                sched.spawn(_wb, task=_w)

            def stats(_events=events):
                return {"reader_events": list(_events)}

            handles.append(GroupHandle(f"g{g}", spawn, stats))
        return handles


def _denied_empty_observed(denied: bool):
    """Everything an application (or a timing observer watching the
    scheduler) can see, per group, under 2 fork workers."""
    ps = ParallelScheduler(
        DeniedEmptyWorld(denied), workers=2, executor="fork", trace=True
    )
    ps.run()
    observed = [
        {
            "group": r.group,
            "worker": r.worker,
            "steps": r.steps,
            "trace": r.sched_trace,
            "hooks": r.hooks,
            "stuck": r.stuck,
            "reader_events": r.stats["reader_events"],
        }
        for r in ps.results
    ]
    ps.shutdown()
    return observed


def test_denied_reader_identical_to_empty_reader_across_workers():
    """The PR 3 tentpole regression, now across process boundaries: the
    scheduling trace, step counts, hook-call record, and reader-visible
    data of a *denied* group are byte-identical to an *empty* group —
    running on separate fork workers changes nothing.  (Tids align
    because both variants build identical worlds.)"""
    denied = _denied_empty_observed(denied=True)
    empty = _denied_empty_observed(denied=False)
    assert denied == empty
    assert [g["worker"] for g in denied] == [0, 1]
    for g in denied:
        assert g["reader_events"] == [0]
        assert g["stuck"] == ()
        parks = [e for e in g["trace"] if e[0] == "park"]
        assert len(parks) >= 2


# =========================================================================
# run_group capture discipline
# =========================================================================


def test_run_group_deltas_are_interleaving_independent():
    """A group's captured observables must not depend on which groups ran
    before it on the same kernel image — the property that makes the
    static partition sound."""
    world = OSServerWorld(users=3, requests=6, chunks=2, chunk_size=16)

    def capture(order):
        kernel = Kernel(LaminarSecurityModule())
        kernel.defer_work = True
        handles = world.build(kernel)
        kernel.drain_deferred_work()
        kernel.defer_work = False
        out = {}
        for index in order:
            r = run_group(kernel, index, handles[index])
            out[index] = (r.audit, r.denials, r.hooks, r.steps, r.stats)
        return out

    assert capture([0, 1, 2]) == capture([2, 0, 1])
