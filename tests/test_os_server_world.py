"""The labeled file-server world (:class:`repro.bench.workloads.OSServerWorld`)
at the OS-throughput benchmarks' shape.

The benchmarks time these runs; this suite pins what they count, so a
change to the world's syscall sequence shows up in tier-1 rather than as
drift in a committed snapshot.  ``defer_work`` keeps the modeled
per-syscall work out of the run (observables do not depend on it).
"""

from __future__ import annotations

import pytest

from repro.bench.workloads import OSServerWorld
from repro.osim import Kernel, LaminarSecurityModule, NullSecurityModule
from repro.osim.sched import Scheduler

USERS, REQUESTS, CHUNKS, CHUNK_SIZE = 4, 6, 96, 96


def _run(security=LaminarSecurityModule, **knobs):
    kernel = Kernel(security())
    kernel.defer_work = True
    world = OSServerWorld(
        users=USERS,
        requests=REQUESTS,
        chunks=CHUNKS,
        chunk_size=CHUNK_SIZE,
        heartbeat=False,
        **knobs,
    )
    sched = Scheduler(kernel)  # every user in one scheduler, interleaved
    handles = world.build(kernel)
    for handle in handles:
        handle.spawn(sched)
    assert sched.run() == []
    stats = [handle.stats() for handle in handles]
    assert sum(s["ops"] for s in stats) == USERS * REQUESTS * CHUNKS
    assert sum(s["bytes_served"] for s in stats) == (
        USERS * REQUESTS * CHUNKS * CHUNK_SIZE
    )
    return kernel, sched, stats


@pytest.mark.parametrize(
    "security, batched, steps, hook_calls",
    [
        (NullSecurityModule, False, 2472, 2499),
        (LaminarSecurityModule, False, 2472, 2499),
        (LaminarSecurityModule, True, 156, 2487),
    ],
    ids=["vanilla", "laminar", "laminar_batched"],
)
def test_throughput_arms_count_exactly(security, batched, steps, hook_calls):
    """Every flow is legal: no audit, no denial, no probe; batching folds
    each request's rewind and chunk reads into one scheduling step."""
    kernel, sched, stats = _run(security, batched=batched, probes=False)
    assert sched.steps == steps
    assert sum(kernel.security.hook_calls.values()) == hook_calls
    assert list(kernel.audit) == []
    assert dict(kernel.security.denials) == {}
    assert sum(s["pipe_drops"] + s["denied_transmits"] for s in stats) == 0


@pytest.mark.parametrize(
    "eio_every, steps, retries", [(0, 2472, 0), (50, 2520, 48), (10, 2736, 264)]
)
def test_every_injected_eio_is_retried_once(eio_every, steps, retries):
    kernel, sched, stats = _run(probes=False, eio_every=eio_every)
    fired = len(kernel.faults.fired) if kernel.faults is not None else 0
    assert sched.steps == steps
    assert sum(s["retries"] for s in stats) == fired == retries
    assert dict(kernel.security.denials) == {}


def test_probes_deny_one_transmit_and_drop_one_write_per_request():
    kernel, _sched, stats = _run(probes=True)
    for s in stats:
        assert s["denied_transmits"] == s["pipe_drops"] == REQUESTS
    assert dict(kernel.security.denials)["socket_sendmsg"] == USERS * REQUESTS
    assert len(kernel.audit) == USERS * REQUESTS


def test_batched_fault_plan_is_refused():
    with pytest.raises(ValueError, match="eio_every"):
        OSServerWorld(batched=True, eio_every=10)
