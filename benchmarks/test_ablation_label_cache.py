"""Ablation: interned labels, flow-verdict caching, and hot-path fast paths.

The fast-path layers (:mod:`repro.core.fastpath`) exploit label
immutability: hash-consed ``Label`` construction, a bounded flow-verdict
memo keyed on label pairs (which the VM barriers probe inline),
precomputed interpreter dispatch tables, and the kernel's permission
memo (allowed walks and held-file checks).  This ablation
runs one deterministic workload mix — the Fig. 8 interpreter workloads, a
labeled security-region IR loop, and an lmbench-style OS mix with denied
opens and silently-dropped pipe traffic — under every cache configuration
and demonstrates three things:

* **equivalence** — results, printed output, executed-instruction counts,
  barrier statistics, LSM hook/denial counters, and the audit log are
  byte-identical in every configuration (caching may change *when* set
  algebra runs, never what any check decides);
* **work reduction** — with all caches on, the number of executed
  set-algebra operations (rule evaluations + subset tests + label
  materializations) strictly drops versus all-off;
* **time reduction** — median wall-clock for the mix strictly drops.

Every switch is also measured solo, quantifying the contribution of
every layer.  Machine-readable results land in
``BENCH_label_cache.json`` at the repository root.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest

from repro.bench.harness import median_seconds
from repro.bench.lmbench import bench_null_io, bench_pipe_latency, bench_stat, setup_tree
from repro.bench.workloads import arith, listsum, objgraph
from repro.core import CapabilitySet, Label, LabelPair, fastpath
from repro.jit import Interpreter, JITConfig, RegionSpec, compile_source
from repro.jit.interpreter import IRObject
from repro.osim import Kernel, LaminarSecurityModule, SyscallError
from repro.osim.filesystem import Inode
from repro.runtime import LaminarAPI, LaminarVM
from repro.runtime.heap import ObjectHeader

from conftest import publish

pytestmark = pytest.mark.bench

REPO_ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_label_cache.json"

#: Every cache layer :class:`~repro.core.fastpath.FastPathFlags` defines,
#: so a layer added there is switched off in "all_off" automatically.
SWITCHES = tuple(fastpath.all_on())

#: Every measured configuration: the two endpoints plus each layer solo.
CONFIGS: dict[str, dict[str, bool]] = {
    "all_on": fastpath.all_on(),
    "all_off": fastpath.all_off(),
}
for _solo in SWITCHES:
    CONFIGS[f"only_{_solo}"] = {name: name == _solo for name in SWITCHES}

TRIALS = 3
OS_ITERS = 300

#: Fig. 8 interpreter slice: three workloads spanning allocation-heavy,
#: pointer-chasing, and arithmetic-bound behavior (reduced sizes — the
#: full sweep lives in test_fig8_jvm_overhead.py).
JVM_SOURCES = {
    "listsum": listsum(n=120, reps=8),
    "objgraph": objgraph(n=100, steps=3000),
    "arith": arith(n=8000),
}

#: Labeled-region IR loop: every iteration crosses a read and a write
#: barrier against the same (thread labels, object labels) pair — the
#: traffic the barriers' inline verdict-memo probe answers.
REGION_ITERS = 500
REGION_SRC = f"""
class Box {{ v }}

region method work(b) {{
entry:
  new s, Box
  const zero, 0
  putfield s, v, zero
  const i, 0
  jmp loop
loop:
  const n, {REGION_ITERS}
  binop cond, lt, i, n
  br cond, body, done
body:
  getfield x, s, v
  const one, 1
  binop x, add, x, one
  putfield s, v, x
  const one2, 1
  binop i, add, i, one2
  jmp loop
done:
  getfield x, s, v
  putfield b, v, x
}}

method main(b) {{
entry:
  call _, work, b
  ret
}}
"""


def _reset_id_counters() -> None:
    # Inode and object-header ids are process-global and leak into audit
    # and violation text; restarting them per pass keeps the observable
    # record byte-comparable across configurations.
    Inode._ino_counter = itertools.count(1)
    ObjectHeader._oid_counter = itertools.count(1)


def _jvm_pass() -> dict:
    out = {}
    for name, src in JVM_SOURCES.items():
        program, _ = compile_source(src, JITConfig.STATIC)
        vm = LaminarVM(Kernel())
        interp = Interpreter(program, vm)
        result = interp.run("main")
        out[name] = (result, tuple(interp.output), interp.executed)
    return out


def _region_pass() -> tuple:
    kernel = Kernel(LaminarSecurityModule())
    vm = LaminarVM(kernel)
    api = LaminarAPI(vm)
    tag = api.create_and_add_capability("secret")
    program, _ = compile_source(REGION_SRC, JITConfig.DYNAMIC, inline=False)
    program.method("work").region_spec = RegionSpec(
        secrecy=Label.of(tag), caps=CapabilitySet.dual(tag)
    )
    interp = Interpreter(program, vm)
    with vm.region(secrecy=Label.of(tag), caps=CapabilitySet.dual(tag)):
        header = vm.barriers.alloc_barrier(
            vm.current_thread, LabelPair(Label.of(tag)), what="box"
        )
    box = IRObject(header, "Box", {"v": 0})
    interp.run("main", box)
    # Runtime-API barrier traffic: repeated checks against the same
    # labeled object from inside a region.  The JIT's redundancy
    # elimination removes such checks statically in the IR loop above;
    # applications driving the runtime API directly have no compiler in
    # front of them, so every check reaches the verdict memo.
    with vm.region(secrecy=Label.of(tag), caps=CapabilitySet.dual(tag)):
        thread = vm.current_thread
        for _ in range(REGION_ITERS):
            vm.barriers.read_barrier(thread, header, what="box")
            vm.barriers.write_barrier(thread, header, what="box")
    stats = vm.barriers.stats
    audit = tuple(str(entry) for entry in kernel.audit.entries())
    return (
        box.fields["v"],
        tuple(interp.output),
        interp.executed,
        stats.label_checks,
        stats.read_barriers,
        stats.write_barriers,
        stats.alloc_barriers,
        audit,
    )


def _os_pass() -> tuple:
    kernel = Kernel(LaminarSecurityModule())
    actor = setup_tree(kernel)
    owner = kernel.spawn_task("owner")
    tag, _caps = kernel.sys_alloc_tag(owner, "secret")
    secret = LabelPair(Label.of(tag))
    fd = kernel.sys_create_file_labeled(owner, "/tmp/lm/secret", secret)
    kernel.sys_close(owner, fd)
    rfd, wfd = kernel.sys_pipe(owner, secret)
    a_rfd = kernel.share_fd(owner, rfd, actor)
    a_wfd = kernel.share_fd(owner, wfd, actor)

    bench_stat(kernel, actor, OS_ITERS)
    bench_null_io(kernel, actor, OS_ITERS)
    bench_pipe_latency(kernel, actor, OS_ITERS)

    denied = 0
    silent_drops = 0
    for _ in range(OS_ITERS):
        try:
            kernel.sys_open(actor, "/tmp/lm/secret", "r")
        except SyscallError:
            denied += 1
        # Writing *into* the secret pipe is a legal upward flow; reading
        # it back from an unlabeled task is denied — indistinguishable
        # from an empty pipe, by design.
        kernel.sys_write(actor, a_wfd, b"x")
        if kernel.sys_read(actor, a_rfd) == b"":
            silent_drops += 1

    audit = tuple(str(entry) for entry in kernel.audit.entries())
    return (
        denied,
        silent_drops,
        dict(kernel.security.denials),
        dict(kernel.security.hook_calls),
        audit,
    )


def _run_mix() -> dict:
    _reset_id_counters()
    return {"jvm": _jvm_pass(), "region": _region_pass(), "os": _os_pass()}


def _measure(config: dict[str, bool]) -> dict:
    with fastpath.configured(**config):
        fastpath.clear_caches()
        fastpath.counters.reset()
        observables = _run_mix()
        counters = fastpath.counters.snapshot()
        seconds = median_seconds(_run_mix, trials=TRIALS, warmup=1)
        fastpath.clear_caches()
    return {
        "config": dict(config),
        "observables": observables,
        "counters": counters,
        "set_ops": counters["set_ops"],
        "seconds": seconds,
    }


@pytest.fixture(scope="module")
def sweep():
    results = {name: _measure(config) for name, config in CONFIGS.items()}
    fastpath.clear_caches()
    fastpath.counters.reset()

    on, off = results["all_on"], results["all_off"]
    payload = {
        "benchmark": "label_cache_ablation",
        "workloads": {
            "jvm": sorted(JVM_SOURCES),
            "region": {"iterations": REGION_ITERS, "config": "DYNAMIC"},
            "os": {"iterations": OS_ITERS,
                   "rows": ["stat", "null_io", "pipe_latency",
                            "denied_open", "pipe_silent_drop"]},
        },
        "trials": TRIALS,
        "configs": {
            name: {
                "flags": r["config"],
                "seconds": r["seconds"],
                "set_ops": r["set_ops"],
                "counters": r["counters"],
            }
            for name, r in results.items()
        },
        # Per-layer counter state of the final (all_on) measurement pass;
        # every BENCH_*.json carries one of these so published numbers
        # record how much checking the caches absorbed.
        "fastpath_counters": dict(on["counters"]),
        "speedup_all_on": off["seconds"] / on["seconds"],
        "set_ops_reduction_pct": 100.0 * (1 - on["set_ops"] / off["set_ops"]),
        "observables_identical": all(
            r["observables"] == off["observables"] for r in results.values()
        ),
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [
        "Label-cache ablation (Fig. 8 slice + labeled region + OS mix)",
        "",
        f"{'config':<26} {'set ops':>10} {'seconds':>10} {'vs all_off':>10}",
    ]
    for name, r in results.items():
        rel = r["seconds"] / off["seconds"]
        lines.append(
            f"{name:<26} {r['set_ops']:>10} {r['seconds']:>10.4f} {rel:>9.2f}x"
        )
    lines += [
        "",
        f"speedup (all_on vs all_off): {payload['speedup_all_on']:.2f}x",
        f"set-algebra ops avoided:     {payload['set_ops_reduction_pct']:.1f}%",
        f"observables identical:       {payload['observables_identical']}",
    ]
    publish("ablation_label_cache", "\n".join(lines))
    return results


def test_observables_identical_across_all_configs(sweep):
    """The security record — results, outputs, audit text, denial and hook
    counters, barrier statistics — must not depend on any cache."""
    reference = sweep["all_off"]["observables"]
    for name, result in sweep.items():
        assert result["observables"] == reference, (
            f"configuration {name} changed an observable outcome"
        )


def test_caches_strictly_reduce_set_algebra(sweep):
    assert sweep["all_on"]["set_ops"] < sweep["all_off"]["set_ops"]


def test_caches_strictly_reduce_wall_clock(sweep):
    assert sweep["all_on"]["seconds"] < sweep["all_off"]["seconds"]


def test_verdict_memo_saves_work(sweep):
    """The verdict memo alone already avoids set algebra; no layer may
    ever *add* set-algebra work."""
    base = sweep["all_off"]["set_ops"]
    assert sweep["only_flow_verdict_cache"]["set_ops"] < base
    assert sweep["only_label_interning"]["set_ops"] <= base


def test_dispatch_table_changes_time_not_verdicts(sweep):
    """The dispatch table is pure interpretation machinery: identical
    set-algebra work, identical observables — only dispatch gets cheaper."""
    assert (sweep["only_dispatch_table"]["set_ops"]
            == sweep["all_off"]["set_ops"])


def test_json_report_written(sweep):
    payload = json.loads(JSON_PATH.read_text())
    assert payload["benchmark"] == "label_cache_ablation"
    assert set(payload["configs"]) == set(CONFIGS)
    assert payload["observables_identical"] is True
