"""Ablation: tiered execution — switch interpreter vs dispatch tables vs tier-2.

The tier-2 template JIT (:mod:`repro.jit.tier2`) promotes hot methods to
exec-generated Python closures with the observed label shape baked in:
static barrier variants become straight-line code, dynamic barriers are
specialized to the entry context behind a guard, and adjacent
instruction pairs fuse into superinstructions.  This ablation runs the
Fig. 8 loop microbenchmarks plus two security-region application slices
(``gradesheet``: one region sharing a helper with plain code — the
deopt-and-clone shape; ``battleship``: two regions with distinct tags
sharing a helper — multiple live label-shape variants) under four
execution arms:

* ``interp``        — the switch interpreter (``dispatch_table`` off);
* ``table``         — precomputed per-method handler tables;
* ``tier2_nofuse``  — the template JIT with superinstruction fusion off;
* ``tier2``         — the full tiered engine.

and demonstrates three things:

* **equivalence** — results, printed output, executed-instruction
  counts, enforcement counters (:meth:`BarrierStats.enforcement`), and
  the audit log are byte-identical in every arm (tier-2 may change *how
  fast* a barrier runs, never what it decides);
* **throughput** — tier-2 is at least 2x the interpreter on the Fig. 8
  loop microbenchmarks (geometric mean), and beats the handler tables;
* **the guard/deopt protocol fires** — the region slices compile
  multiple per-context variants, record deopts, and never leak a
  :class:`StaleCompilationError`.

Machine-readable results land in ``BENCH_jit_tier.json`` at the
repository root, including the per-tier ``tier2_*`` fastpath counters.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import pytest

from repro.bench.harness import median_seconds
from repro.bench.workloads import (
    arith,
    battleship,
    gradesheet,
    listsum,
    matmul,
    sortbench,
)
from repro.core import CapabilitySet, fastpath
from repro.jit import Compiler, Interpreter, JITConfig, TierPolicy
from repro.osim import Kernel, LaminarSecurityModule
from repro.osim.filesystem import Inode
from repro.runtime import LaminarVM
from repro.runtime.heap import ObjectHeader

from conftest import publish

pytestmark = pytest.mark.bench

REPO_ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_jit_tier.json"

TRIALS = 3

#: Aggressive promotion: bench passes are short, so methods must reach
#: tier 2 during the warm-up run.
POLICY = TierPolicy(invocation_threshold=2, backedge_threshold=8)
POLICY_NOFUSE = TierPolicy(
    invocation_threshold=2, backedge_threshold=8, fusion=False
)

#: arm -> (dispatch_table flag, tier policy).  ``interp`` is the plain
#: switch interpreter; ``table`` adds the precomputed handler tables;
#: the tier-2 arms run on top of the tables (the real tier pipeline).
ARMS: dict[str, tuple[bool, TierPolicy | None]] = {
    "interp": (False, None),
    "table": (True, None),
    "tier2_nofuse": (True, POLICY_NOFUSE),
    "tier2": (True, POLICY),
}

#: Fig. 8 loop microbenchmarks (reduced sizes; the full-size sweep lives
#: in test_fig8_jvm_overhead.py).  These carry the >= 2x acceptance bar.
FIG8_LOOPS: dict[str, tuple[str, JITConfig, dict]] = {
    "listsum": (listsum(n=200, reps=12), JITConfig.STATIC, {}),
    "sortbench": (sortbench(n=160), JITConfig.STATIC, {}),
    "matmul": (matmul(n=14), JITConfig.STATIC, {}),
    "arith": (arith(n=20000), JITConfig.STATIC, {}),
}

#: Region application slices: dynamic barriers, shared helpers, multiple
#: label shapes.  ``inline=False`` keeps the cross-context call sites —
#: inlining would compile the deopt shape away.
APPS: dict[str, tuple[str, JITConfig, dict]] = {
    "gradesheet": (
        gradesheet(n=120, reps=10), JITConfig.DYNAMIC, {"inline": False}
    ),
    "battleship": (
        battleship(n=90, rounds=8), JITConfig.DYNAMIC, {"inline": False}
    ),
}

WORKLOADS = {**FIG8_LOOPS, **APPS}


def _reset_id_counters() -> None:
    # Inode and object-header ids are process-global and leak into audit
    # text; restarting them per pass keeps the record byte-comparable.
    Inode._ino_counter = itertools.count(1)
    ObjectHeader._oid_counter = itertools.count(1)


def _run(program, policy):
    """One full pass on a fresh VM; returns (observables, interpreter)."""
    _reset_id_counters()
    kernel = Kernel(LaminarSecurityModule())
    vm = LaminarVM(kernel)
    if program.tags:
        vm.current_thread.gain_capabilities(
            CapabilitySet.dual(*program.tags.values())
        )
    interp = Interpreter(program, vm, tier2=policy)
    result = interp.run("main")
    observables = {
        "result": result,
        "output": tuple(interp.output),
        "executed": interp.executed,
        "enforcement": vm.barriers.stats.enforcement(),
        "audit": tuple(str(entry) for entry in kernel.audit.entries()),
    }
    return observables, interp


def _measure(source: str, config: JITConfig, compile_kw: dict, arm: str):
    dispatch_table, policy = ARMS[arm]
    with fastpath.configured(dispatch_table=dispatch_table):
        fastpath.counters.reset()
        program, _ = Compiler(config, **compile_kw).compile(source)
        # First pass records observables and (for the tier-2 arms)
        # profiles + compiles; compiled code caches on the program, so
        # the timed passes below run against a warm code cache — the
        # paper's "first iteration includes compilation" methodology.
        observables, interp = _run(program, policy)
        engine = interp._tier2
        tier2 = None
        if engine is not None:
            tier2 = {
                "compiles": engine.compiles,
                "entries": engine.entries,
                "deopts": engine.deopts,
                "osr_entries": engine.osr_entries,
                "variants": {
                    name: sorted(str(key) for key in keys)
                    for name, keys in sorted(program.tier2.variants.items())
                },
                "fused_pairs": sum(
                    len(compiled.fused_pairs)
                    for compiled in program.tier2.cache.values()
                ),
            }
        seconds = median_seconds(
            lambda: _run(program, policy), trials=TRIALS, warmup=1
        )
        counters = fastpath.counters.snapshot()
    return {
        "seconds": seconds,
        "observables": observables,
        "tier2": tier2,
        "counters": counters,
    }


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


@pytest.fixture(scope="module")
def sweep():
    results: dict[str, dict[str, dict]] = {}
    for name, (source, config, compile_kw) in WORKLOADS.items():
        results[name] = {
            arm: _measure(source, config, compile_kw, arm) for arm in ARMS
        }
    fastpath.clear_caches()
    fastpath.counters.reset()

    per_workload = {}
    for name, arms in results.items():
        interp_s = arms["interp"]["seconds"]
        table_s = arms["table"]["seconds"]
        tier2_s = arms["tier2"]["seconds"]
        nofuse_s = arms["tier2_nofuse"]["seconds"]
        per_workload[name] = {
            "kind": "fig8_loop" if name in FIG8_LOOPS else "apps",
            "config": WORKLOADS[name][1].value,
            "arms": {
                arm: {"seconds": r["seconds"], "tier2": r["tier2"]}
                for arm, r in arms.items()
            },
            "speedup_tier2_vs_interp": interp_s / tier2_s,
            "speedup_tier2_vs_table": table_s / tier2_s,
            "fusion_speedup": nofuse_s / tier2_s,
        }

    fig8 = [per_workload[n] for n in FIG8_LOOPS]
    # Aggregate fastpath counters over the tier-2 arm of every workload
    # (each _measure resets before running, so the snapshots sum).
    tier2_counters: dict[str, int] = {}
    for arms in results.values():
        for key, value in arms["tier2"]["counters"].items():
            tier2_counters[key] = tier2_counters.get(key, 0) + value

    observables_identical = all(
        arms[arm]["observables"] == arms["interp"]["observables"]
        for arms in results.values()
        for arm in ARMS
    )

    payload = {
        "benchmark": "jit_tier_ablation",
        "trials": TRIALS,
        "policy": {
            "invocation_threshold": POLICY.invocation_threshold,
            "backedge_threshold": POLICY.backedge_threshold,
            "deopt_recompile_threshold": POLICY.deopt_recompile_threshold,
        },
        "arms": sorted(ARMS),
        "workloads": per_workload,
        "geomean_fig8_tier2_vs_interp": _geomean(
            [w["speedup_tier2_vs_interp"] for w in fig8]
        ),
        "geomean_fig8_tier2_vs_table": _geomean(
            [w["speedup_tier2_vs_table"] for w in fig8]
        ),
        "geomean_fig8_fusion_speedup": _geomean(
            [w["fusion_speedup"] for w in fig8]
        ),
        "observables_identical": observables_identical,
        "fastpath_counters": tier2_counters,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [
        "Tiered-execution ablation (Fig. 8 loops + region app slices)",
        "",
        f"{'workload':<12} {'interp':>9} {'table':>9} {'nofuse':>9} "
        f"{'tier2':>9} {'vs interp':>10} {'vs table':>9}",
    ]
    for name, w in per_workload.items():
        arms = w["arms"]
        lines.append(
            f"{name:<12} {arms['interp']['seconds']:>9.4f} "
            f"{arms['table']['seconds']:>9.4f} "
            f"{arms['tier2_nofuse']['seconds']:>9.4f} "
            f"{arms['tier2']['seconds']:>9.4f} "
            f"{w['speedup_tier2_vs_interp']:>9.2f}x "
            f"{w['speedup_tier2_vs_table']:>8.2f}x"
        )
    lines += [
        "",
        f"geomean tier-2 vs interpreter (Fig. 8 loops): "
        f"{payload['geomean_fig8_tier2_vs_interp']:.2f}x",
        f"geomean tier-2 vs handler tables (Fig. 8 loops): "
        f"{payload['geomean_fig8_tier2_vs_table']:.2f}x",
        f"geomean fusion contribution (Fig. 8 loops): "
        f"{payload['geomean_fig8_fusion_speedup']:.2f}x",
        f"observables identical: {payload['observables_identical']}",
    ]
    publish("ablation_tier2", "\n".join(lines))
    return results, payload


def test_observables_identical_across_tiers(sweep):
    """The security record must not depend on the execution tier: every
    arm — including the label-specialized compiled code — must produce
    the same results, audit bytes, and barrier totals."""
    results, payload = sweep
    for name, arms in results.items():
        reference = arms["interp"]["observables"]
        for arm, r in arms.items():
            assert r["observables"] == reference, (
                f"{name}: arm {arm} changed an observable outcome"
            )
    assert payload["observables_identical"] is True


def test_tier2_doubles_interpreter_throughput(sweep):
    """The acceptance bar: >= 2x the interpreter on the Fig. 8 loop
    microbenchmarks (geometric mean)."""
    _, payload = sweep
    assert payload["geomean_fig8_tier2_vs_interp"] >= 2.0


def test_tier2_beats_dispatch_tables(sweep):
    """Tier 2 must earn its keep over tier 1, not just over the switch."""
    _, payload = sweep
    assert payload["geomean_fig8_tier2_vs_table"] > 1.0


def test_region_slices_exercise_deopt_and_clone(sweep):
    """The app slices hit the guard/deopt path: the shared helper ends up
    with one variant per label shape, and deopts were recorded."""
    results, _ = sweep
    grade = results["gradesheet"]["tier2"]["tier2"]
    assert grade["deopts"] > 0
    assert len(grade["variants"]["bump"]) == 2
    battle = results["battleship"]["tier2"]["tier2"]
    assert len(battle["variants"]["fire"]) == 3


def test_fusion_actually_fuses(sweep):
    """The fusion arm bakes superinstructions; the nofuse arm must not."""
    results, _ = sweep
    assert results["listsum"]["tier2"]["tier2"]["fused_pairs"] > 0
    assert results["listsum"]["tier2_nofuse"]["tier2"]["fused_pairs"] == 0


def test_tier2_counters_flow_into_snapshot(sweep):
    """Per-tier counters ride along in the fastpath snapshot, so every
    BENCH_*.json records how much execution ran at tier 2."""
    _, payload = sweep
    counters = payload["fastpath_counters"]
    assert counters["tier2_compiles"] > 0
    assert counters["tier2_entries"] > 0
    assert counters["tier2_deopts"] > 0


def test_json_report_written(sweep):
    payload = json.loads(JSON_PATH.read_text())
    assert payload["benchmark"] == "jit_tier_ablation"
    assert set(payload["workloads"]) == set(WORKLOADS)
    assert payload["observables_identical"] is True
    assert payload["geomean_fig8_tier2_vs_interp"] >= 2.0
