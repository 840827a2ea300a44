"""OS-layer throughput: the multi-user labeled file server.

Table 2 measures per-syscall *latency*; this benchmark measures the OS
layer at server scale — many tasks under the cooperative scheduler
(:mod:`repro.osim.sched`), each user behind labeled pipes and a
secrecy-labeled data file (:class:`repro.bench.workloads.OSServerWorld`,
every user in one scheduler, probes and heartbeat off).  Three
configurations run the identical workload:

* ``vanilla`` — :class:`NullSecurityModule`, sequential syscalls;
* ``laminar`` — :class:`LaminarSecurityModule`, sequential syscalls;
* ``laminar_batched`` — Laminar plus io_uring-style batched submission
  (:meth:`Kernel.sys_submit`): the server's per-request chunk-read loop
  becomes one submission, paying the user→kernel crossing once and
  memoizing the per-inode permission verdict across the batch.

Three claims are demonstrated:

* **throughput** — batched Laminar achieves at least 2x the ops/sec of
  unbatched Laminar on the same workload;
* **equivalence** — audit logs and denial counters are byte-identical
  across all three configurations (every flow in the workload is legal,
  so all three must show *empty* audit and *zero* denials — batching and
  scheduling change performance, never a verdict);
* **scaling** — ops/sec is reported across a task-count sweep.

A fourth arm measures the **multi-core** backend: the same world with
its probes and heartbeat on, partitioned user-per-group across a
:class:`repro.osim.psched.ParallelScheduler` fork pool with modeled
per-syscall service time (``defer_work`` + ``work_ns``: workers sleep it
off, so it overlaps across worker processes whatever the host's core
count — the scaling ratios measure that model).  The claims:

* near-linear wall-clock scaling — at least 3x at 4 workers and 5x at
  8 workers over the single-threaded cooperative baseline;
* merged audit text and transmitted traffic *byte-identical* to the
  single-threaded replay at every worker count (the workload includes
  denied transmits, silent pipe drops, and courier traffic, so the
  parity checks are not vacuous);
* nonzero permission-memo replays (:mod:`repro.osim.hookchain`).

Environment knobs for CI tiers: ``OS_MULTICORE_SMOKE=1`` runs a
same-process (inline) 2-point sweep with parity checks only and does
not rewrite the JSON; ``OS_MULTICORE_WORKERS=N`` runs a fork sweep at
(1, N) with a soft scaling floor and no JSON rewrite.

Machine-readable results land in ``BENCH_os_throughput.json`` at the
repository root, including a :mod:`repro.core.fastpath` counter snapshot
(which carries the ``walk_*`` and ``hookchain_*`` counters).
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.bench.harness import fastpath_snapshot
from repro.bench.workloads import OSServerWorld
from repro.core import fastpath
from repro.osim import Kernel, LaminarSecurityModule, NullSecurityModule
from repro.osim.psched import ParallelScheduler
from repro.osim.sched import Scheduler

from conftest import publish

pytestmark = pytest.mark.bench

REPO_ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_os_throughput.json"

#: Workload shape: per user one server + one client task; each request
#: is served as `CHUNKS` chunk reads + one response write.
REQUESTS = 6
CHUNKS = 96
CHUNK_SIZE = 96
USER_SWEEP = (1, 2, 4, 8)
MAIN_USERS = 4
TRIALS = 3

#: Multi-core arm shape: one group per user across the fork pool, with
#: 2µs of simulated service time per deferred kernel work unit.  Sized
#: so virtual service time dominates real Python compute, which is what
#: lets worker sleeps overlap like real cores even on a 1-core host.
MC_USERS = 8
MC_REQUESTS = 12
MC_CHUNKS = 8
MC_CHUNK_SIZE = 64
MC_WORK_NS = 2000.0
MC_SWEEP = (1, 4, 8)
MC_SEED = 1729
MC_TRIALS = 2

CONFIGS = {
    "vanilla": (NullSecurityModule, False),
    "laminar": (LaminarSecurityModule, False),
    "laminar_batched": (LaminarSecurityModule, True),
}


def _run_once(security_cls, batched: bool, users: int) -> dict:
    """One full workload execution on a fresh kernel; returns timings and
    every security-relevant observable."""
    kernel = Kernel(security_cls())
    world = OSServerWorld(
        users=users,
        requests=REQUESTS,
        chunks=CHUNKS,
        chunk_size=CHUNK_SIZE,
        batched=batched,
        heartbeat=False,
        probes=False,
    )
    sched = Scheduler(kernel)
    handles = world.build(kernel)
    for handle in handles:
        handle.spawn(sched)
    start = time.perf_counter()
    stuck = sched.run()
    seconds = time.perf_counter() - start
    assert stuck == [], f"deadlocked tasks: {stuck}"
    stats = [handle.stats() for handle in handles]
    ops = sum(s["ops"] for s in stats)
    assert sum(s["bytes_served"] for s in stats) == ops * CHUNK_SIZE
    return {
        "users": users,
        "tasks": 2 * users,
        "ops": ops,
        "seconds": seconds,
        "ops_per_sec": ops / seconds,
        "steps": sched.steps,
        "audit": [str(entry) for entry in kernel.audit],
        "denials": dict(kernel.security.denials),
        "pipe_drops": sum(s["pipe_drops"] for s in stats),
        "net_messages": kernel.net.transmitted.total_messages,
    }


def _measure(name: str, users: int) -> dict:
    """Best-of-TRIALS ops/sec for one configuration (first run also
    captures the security observables)."""
    security_cls, batched = CONFIGS[name]
    runs = [_run_once(security_cls, batched, users) for _ in range(TRIALS)]
    best = max(runs, key=lambda r: r["ops_per_sec"])
    best = dict(best)
    # Observables must not vary run to run either.
    for run in runs[1:]:
        assert run["audit"] == runs[0]["audit"]
        assert run["denials"] == runs[0]["denials"]
    best["audit"] = runs[0]["audit"]
    best["denials"] = runs[0]["denials"]
    return best


def _multicore_mode() -> str:
    if os.environ.get("OS_MULTICORE_SMOKE") == "1":
        return "smoke"
    if os.environ.get("OS_MULTICORE_WORKERS"):
        return f"workers={int(os.environ['OS_MULTICORE_WORKERS'])}"
    return "full"


def _measure_multicore() -> dict:
    """The multi-core arm: serial cooperative baseline vs the fork pool,
    with byte-parity asserted at every sweep point."""
    mode = _multicore_mode()
    if mode == "smoke":
        executor, sweep_counts = "inline", (1, 2)
    elif mode.startswith("workers="):
        executor, sweep_counts = "fork", (1, int(mode.split("=")[1]))
    else:
        executor, sweep_counts = "fork", MC_SWEEP
    world = OSServerWorld(
        users=MC_USERS,
        requests=MC_REQUESTS,
        chunks=MC_CHUNKS,
        chunk_size=MC_CHUNK_SIZE,
    )

    def serial_run():
        ps = ParallelScheduler(
            world,
            workers=1,
            executor="inline",
            defer_work=True,
            work_ns=MC_WORK_NS,
            seed=MC_SEED,
        )
        ps.run()
        ps.shutdown()
        return ps

    baseline = min((serial_run() for _ in range(MC_TRIALS)),
                   key=lambda ps: ps.elapsed)
    base_obs = baseline.observables()

    elapsed: dict[int, float] = {}
    hookchain: Counter = Counter()
    audit_parity = traffic_parity = True
    for workers in sweep_counts:
        best = None
        for _ in range(MC_TRIALS):
            ps = ParallelScheduler(
                world,
                workers=workers,
                executor=executor,
                defer_work=True,
                work_ns=MC_WORK_NS,
                seed=MC_SEED,
            )
            ps.run()
            obs = ps.observables()
            audit_parity &= obs["audit"] == base_obs["audit"]
            traffic_parity &= obs["traffic"] == base_obs["traffic"]
            assert obs == base_obs, f"observable divergence at {workers} workers"
            agg = ps.aggregate()
            if best is None or ps.elapsed < best:
                best = ps.elapsed
                for key in ("hookchain_hits", "hookchain_deopts"):
                    hookchain[key] = agg["fastpath"].get(key, 0)
        elapsed[workers] = best

    scaling = {w: baseline.elapsed / t for w, t in elapsed.items()}
    return {
        "mode": mode,
        "executor": executor,
        "workers_sweep": list(sweep_counts),
        "users": MC_USERS,
        "requests_per_client": MC_REQUESTS,
        "work_ns": MC_WORK_NS,
        "seed": MC_SEED,
        "ops": base_obs["ops"],
        "steps": base_obs["steps"],
        "audit_entries": len(base_obs["audit"]),
        "traffic_messages": len(base_obs["traffic"]),
        "denials": sum(dict(base_obs["denials"]).values()),
        "pipe_drops": base_obs["pipe_drops"],
        "serial_seconds": baseline.elapsed,
        "elapsed_seconds": {str(w): t for w, t in elapsed.items()},
        "scaling": {str(w): r for w, r in scaling.items()},
        "scaling_ratio_4x": scaling.get(4),
        "scaling_ratio_8x": scaling.get(8),
        "audit_parity": audit_parity,
        "traffic_parity": traffic_parity,
        "hookchain": dict(hookchain),
        "hookchain_active": hookchain["hookchain_hits"] > 0,
    }


@pytest.fixture(scope="module")
def sweep():
    fastpath.clear_caches()
    fastpath.counters.reset()
    results: dict[str, dict] = {}
    scaling: dict[str, dict[int, float]] = {name: {} for name in CONFIGS}
    # The sequential and batched arms replay from the same permission
    # memo, so their ratio measures batching alone.
    for name in CONFIGS:
        for users in USER_SWEEP:
            measured = _measure(name, users)
            scaling[name][users] = measured["ops_per_sec"]
            if users == MAIN_USERS:
                results[name] = measured

    multicore = _measure_multicore()

    payload = {
        "benchmark": "os_throughput",
        "workload": {
            "requests_per_client": REQUESTS,
            "chunks_per_request": CHUNKS,
            "chunk_size": CHUNK_SIZE,
            "user_sweep": list(USER_SWEEP),
            "main_users": MAIN_USERS,
        },
        "multicore": multicore,
        "configs": results,
        "scaling_ops_per_sec": {
            name: {str(u): ops for u, ops in curve.items()}
            for name, curve in scaling.items()
        },
        "batched_speedup": (
            results["laminar_batched"]["ops_per_sec"]
            / results["laminar"]["ops_per_sec"]
        ),
        "laminar_overhead_pct": 100.0
        * (
            results["vanilla"]["ops_per_sec"] / results["laminar"]["ops_per_sec"]
            - 1.0
        ),
        "observables_identical": all(
            r["audit"] == results["vanilla"]["audit"]
            and r["denials"] == results["vanilla"]["denials"]
            for r in results.values()
        ),
        "fastpath_counters": fastpath_snapshot(),
    }
    # Reduced CI tiers (smoke / fixed-worker) measure a different sweep:
    # they must never overwrite the committed full-mode numbers.
    if multicore["mode"] == "full":
        JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [
        "OS throughput: multi-user labeled file server "
        f"({MAIN_USERS} users, {2 * MAIN_USERS} tasks)",
        "",
        f"{'config':<18} {'ops/sec':>12} {'steps':>8} {'audit':>6} {'denials':>8}",
    ]
    for name, r in results.items():
        lines.append(
            f"{name:<18} {r['ops_per_sec']:>12,.0f} {r['steps']:>8} "
            f"{len(r['audit']):>6} {sum(r['denials'].values()):>8}"
        )
    lines += [
        "",
        "scaling (ops/sec by user count):",
    ]
    for name, curve in scaling.items():
        pts = "  ".join(f"{u}u:{ops:,.0f}" for u, ops in sorted(curve.items()))
        lines.append(f"  {name:<16} {pts}")
    lines += [
        "",
        f"batched speedup (laminar):   {payload['batched_speedup']:.2f}x",
        f"laminar overhead (seq):      {payload['laminar_overhead_pct']:.1f}%",
        f"observables identical:       {payload['observables_identical']}",
        "",
        f"multi-core ({multicore['mode']}, {multicore['executor']} executor, "
        f"{multicore['users']} groups, work_ns={multicore['work_ns']:.0f}):",
    ]
    for w in multicore["workers_sweep"]:
        ratio = multicore["scaling"][str(w)]
        secs = multicore["elapsed_seconds"][str(w)]
        lines.append(f"  {w} worker(s): {secs:.3f}s  ({ratio:.2f}x)")
    lines += [
        f"  audit parity:     {multicore['audit_parity']} "
        f"({multicore['audit_entries']} entries)",
        f"  traffic parity:   {multicore['traffic_parity']} "
        f"({multicore['traffic_messages']} messages)",
        f"  permission memo:  {multicore['hookchain'].get('hookchain_hits', 0)} "
        f"held-file replays, {multicore['hookchain'].get('hookchain_deopts', 0)} "
        f"stale entries dropped",
    ]
    publish("os_throughput", "\n".join(lines))
    return payload


def test_batched_at_least_2x(sweep):
    """The acceptance bar: batching doubles Laminar server throughput."""
    assert sweep["batched_speedup"] >= 2.0, sweep["batched_speedup"]


def test_observables_identical_across_configs(sweep):
    """Batching and the security module never change what is audited or
    denied on this all-legal workload — and the workload really is
    all-legal: nothing to audit, nothing to deny."""
    assert sweep["observables_identical"] is True
    for name, r in sweep["configs"].items():
        assert r["audit"] == [], (name, r["audit"])
        assert r["denials"] == {}, (name, r["denials"])


def test_every_config_scales_with_users(sweep):
    """More users means more total work, not a collapse: every config
    serves every sweep point to completion (throughput recorded; the
    cooperative scheduler is fair, so no user starves)."""
    for name, curve in sweep["scaling_ops_per_sec"].items():
        assert set(curve) == {str(u) for u in USER_SWEEP}
        assert all(ops > 0 for ops in curve.values()), name


def test_json_report_written(sweep):
    # Only the full tier rewrites the file, so it checks what it just
    # wrote; the smoke and fixed-worker tiers check the payload their own
    # sweep built rather than the committed full-mode snapshot.
    if sweep["multicore"]["mode"] == "full":
        payload = json.loads(JSON_PATH.read_text())
    else:
        payload = sweep
    assert payload["benchmark"] == "os_throughput"
    assert payload["batched_speedup"] >= 2.0
    assert "fastpath_counters" in payload
    assert "walk_hits" in payload["fastpath_counters"]
    assert "hookchain_hits" in payload["fastpath_counters"]
    assert "multicore" in payload


def test_multicore_audit_and_traffic_parity(sweep):
    """Byte parity at every sweep point: merged audit text and merged
    transmitted traffic from the fork pool equal the single-threaded
    cooperative replay — with denials, drops, and traffic present, so
    the comparison has teeth."""
    mc = sweep["multicore"]
    assert mc["audit_parity"] is True
    assert mc["traffic_parity"] is True
    assert mc["audit_entries"] == MC_USERS * MC_REQUESTS
    assert mc["traffic_messages"] == MC_USERS * MC_REQUESTS
    assert mc["pipe_drops"] == MC_USERS * MC_REQUESTS
    assert mc["denials"] > 0
    assert mc["ops"] == MC_USERS * MC_REQUESTS * MC_CHUNKS


def test_multicore_hook_chains_engaged(sweep):
    mc = sweep["multicore"]
    assert mc["hookchain_active"] is True
    assert mc["hookchain"]["hookchain_hits"] > 0


def test_multicore_scaling(sweep):
    """The acceptance floors: >=3x at 4 workers and >=5x at 8 over the
    single-threaded cooperative baseline (full mode); a reduced
    fixed-worker CI tier asserts a soft floor instead; the same-process
    smoke tier asserts parity only (covered above)."""
    mc = sweep["multicore"]
    if mc["mode"] == "full":
        assert mc["scaling_ratio_4x"] >= 3.0, mc["scaling"]
        assert mc["scaling_ratio_8x"] >= 5.0, mc["scaling"]
    elif mc["mode"].startswith("workers="):
        workers = int(mc["mode"].split("=")[1])
        if workers >= 2:
            assert mc["scaling"][str(workers)] >= 1.5, mc["scaling"]
    else:
        assert mc["mode"] == "smoke"
        for ratio in mc["scaling"].values():
            assert ratio > 0.0
