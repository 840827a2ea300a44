"""Directed tests for the tier-2 template JIT engine.

Covers the tiered-execution contract: profile-guided promotion (entry and
OSR, with profiles shared by every interpreter over a program),
observational equivalence with the interpreter (results, executed
counts, enforcement and heap counters, audit bytes), also when compiled
code raises part-way through a block, the guard/deopt protocol
(opposite-context calls fall back to the interpreter and materialize
clones — never :class:`StaleCompilationError`), linked call sites and
the check that every compiled variant runs only under its own context
key, code-cache invalidation on IR mutation (and none on a fastpath
flush or reconfiguration), and the CLI surface (``lamc run --tier2``,
``lamc disasm --tiers``).
"""

from __future__ import annotations

import dataclasses
import io
import itertools

import pytest

from repro.baselines import vanilla_kernel
from repro.bench.workloads import battleship, gradesheet, listsum, txnmix
from repro.core import CapabilitySet, Label, fastpath
from repro.jit import (
    Compiler,
    Interpreter,
    JITConfig,
    RegionSpec,
    StaleCompilationError,
    TierPolicy,
    compile_source,
)
from repro.osim import Kernel, LaminarSecurityModule
from repro.osim.filesystem import Inode
from repro.runtime import LaminarVM
from repro.runtime.heap import ObjectHeader
from repro.tools.lamc import main as lamc_main

from .test_fastpath_caches import run_labeled_statics

#: Aggressive promotion so small tests reach tier 2 quickly.
HOT = TierPolicy(
    invocation_threshold=2, backedge_threshold=6, deopt_recompile_threshold=2
)

LOOP_SRC = """
class Box { val }

method sum(n) {
entry:
  const acc, 0
  const i, 0
  new b, Box
loop:
  binop c, lt, i, n
  br c, body, done
body:
  putfield b, val, i
  getfield t, b, val
  binop acc, add, acc, t
  const one, 1
  binop i, add, i, one
  jmp loop
done:
  ret acc
}

method main() {
entry:
  const n, 50
  const r, 0
  const j, 0
outer:
  const lim, 6
  binop c, lt, j, lim
  br c, obody, odone
obody:
  call r, sum, n
  const one, 1
  binop j, add, j, one
  jmp outer
odone:
  ret r
}
"""

#: A helper called from inside a region *and* from plain code: the shape
#: that makes the static prototype raise StaleCompilationError and makes
#: tier-2 deopt and clone instead.
DUAL_CONTEXT_SRC = """
class Cell { v }

method touch(o, x) {
entry:
  putfield o, v, x
  getfield y, o, v
  ret y
}

region method work() secrecy(alpha) {
entry:
  const i, 0
  new c, Cell
loop:
  const lim, 20
  binop cond, lt, i, lim
  br cond, body, done
body:
  call y, touch, c, i
  const one, 1
  binop i, add, i, one
  jmp loop
done:
  ret
}

method main() {
entry:
  const j, 0
  const z, 0
outer:
  const lim, 8
  binop cond, lt, j, lim
  br cond, obody, odone
obody:
  call _, work
  new d, Cell
  const k, 5
  call z, touch, d, k
  const one, 1
  binop j, add, j, one
  jmp outer
odone:
  ret z
}
"""

#: A region body that violates IFC (writes region-labeled data into an
#: unlabeled parameter object): the violation is suppressed at region
#: exit and lands in the audit log — the byte-compared observable.
VIOLATING_SRC = """
class Box { v }

region method leak(b) secrecy(alpha) {
entry:
  const i, 0
loop:
  const lim, 4
  binop c, lt, i, lim
  br c, body, done
body:
  const x, 1
  putfield b, v, x
  const one, 1
  binop i, add, i, one
  jmp loop
done:
  ret
}

method main() {
entry:
  new b, Box
  const j, 0
outer:
  const lim, 5
  binop c, lt, j, lim
  br c, obody, odone
obody:
  call _, leak, b
  const one, 1
  binop j, add, j, one
  jmp outer
odone:
  getfield r, b, v
  ret r
}
"""


#: A region method with no labels whose spec a test mutates between runs
#: (:func:`_mutate_work_spec`); ``work`` loops long enough to OSR.
SPEC_MUTATION_SRC = """
class Box { v }
region method work() {
entry:
  const i, 0
loop:
  const lim, 10
  binop c, lt, i, lim
  br c, body, done
body:
  const one, 1
  binop i, add, i, one
  jmp loop
done:
  ret
}
method main() {
entry:
  const j, 0
outer:
  const lim, 4
  binop c, lt, j, lim
  br c, obody, odone
obody:
  call _, work
  const one, 1
  binop j, add, j, one
  jmp outer
odone:
  ret j
}
"""


def _mutate_work_spec(program, vm) -> None:
    """Give ``work`` a secrecy tag the VM's thread owns."""
    from repro.runtime import LaminarAPI

    tag = LaminarAPI(vm).create_and_add_capability("t")
    program.method("work").region_spec = RegionSpec(
        secrecy=Label.of(tag), caps=CapabilitySet.dual(tag)
    )


def _reset_id_counters() -> None:
    # Ids leak into audit text; restart per run for byte comparison.
    Inode._ino_counter = itertools.count(1)
    ObjectHeader._oid_counter = itertools.count(1)


#: ``mid`` is marked certified; ``main`` calls it outside any region and,
#: through ``work``, inside a region on an object allocated there.
#: ``leaf`` is not certified, so each call from ``mid`` must be
#: dispatched for the context ``mid`` actually runs in.
CERT_CALLER_SRC = """
class Box { val }

method leaf(o) {
entry:
  getfield v, o, val
  ret v
}

method mid(o) {
entry:
  call v, leaf, o
  print v
  ret v
}

region method work() secrecy(alpha) {
entry:
  new c, Box
  const x, 7
  putfield c, val, x
  call v, mid, c
  ret
}

method main() {
entry:
  new b, Box
  const x, 5
  putfield b, val, x
  const r, 0
  const j, 0
  jmp outer
outer:
  const lim, 6
  binop cond, lt, j, lim
  br cond, obody, inner
obody:
  call r, mid, b
  const one, 1
  binop j, add, j, one
  jmp outer
inner:
  const k, 0
  jmp iloop
iloop:
  const lim2, 6
  binop cond2, lt, k, lim2
  br cond2, ibody, done
ibody:
  call _, work
  const one2, 1
  binop k, add, k, one2
  jmp iloop
done:
  ret r
}
"""


def _loop_chain_src(nblocks: int) -> str:
    """``f(i, acc)`` with exactly ``nblocks`` blocks.  With two or more,
    blocks ``h0..`` each loop on themselves (every one a loop header;
    ``h0`` is the entry) and fall through to the next; ``done`` returns.
    ``main`` calls ``f`` once and prints the result."""
    if nblocks == 1:
        body = "entry:\n  binop acc, add, acc, i\n  ret acc\n"
    else:
        loops = nblocks - 1
        body = ""
        for j in range(loops):
            nxt = f"h{j + 1}" if j + 1 < loops else "done"
            body += (
                f"h{j}:\n"
                f"  binop acc, add, acc, i\n"
                f"  const one, 1\n"
                f"  binop i, add, i, one\n"
                f"  const lim, {3 * (j + 1)}\n"
                f"  binop c, lt, i, lim\n"
                f"  br c, h{j}, {nxt}\n"
            )
        body += "done:\n  ret acc\n"
    return (
        f"method f(i, acc) {{\n{body}}}\n\n"
        "method main() {\nentry:\n  const i, 0\n  const acc, 0\n"
        "  call r, f, i, acc\n  print r\n  ret r\n}\n"
    )


def _observe(source, config=JITConfig.STATIC, policy=None, certified=(),
             spy=None, **compile_kw):
    """Compile ``source`` and run it with :func:`_run_observed`.
    ``certified`` marks methods certified."""
    program, _ = Compiler(config, **compile_kw).compile(source)
    if certified:
        program.certified_methods = frozenset(certified)
    return _run_observed(program, policy, spy)


def _run_observed(program, policy=None, spy=None):
    """Run ``program`` on a fresh VM; return every cross-tier observable
    plus the interpreter (for engine inspection).  ``spy(engine)`` runs
    before the program does.

    Every label check is answered by the verdict memo (a hit) or goes to
    ``check_flow`` (a miss); a barrier whose object's header cannot be
    read faults before it counts a check."""
    _reset_id_counters()
    kernel = Kernel(LaminarSecurityModule())
    vm = LaminarVM(kernel)
    if program.tags:
        vm.current_thread.gain_capabilities(
            CapabilitySet.dual(*program.tags.values())
        )
    interp = Interpreter(program, vm, tier2=policy)
    if spy is not None:
        spy(interp._tier2)
    try:
        result = interp.run("main")
        exc = None
    except Exception as error:  # noqa: BLE001 - differential capture
        result = None
        exc = type(error).__name__
    audit = tuple(str(entry) for entry in kernel.audit.entries())
    stats = vm.barriers.stats
    assert stats.flow_cache_hits + stats.flow_cache_misses == stats.label_checks
    return {
        "result": result,
        "exc": exc,
        "output": tuple(interp.output),
        "executed": interp.executed,
        "enforcement": stats.enforcement(),
        "heap": dataclasses.asdict(vm.heap.stats),
        "audit": audit,
        "interp": interp,
        "program": program,
        "stats": stats,
    }


def _equivalent(cold, hot):
    for key in ("result", "exc", "output", "executed", "enforcement", "heap",
                "audit"):
        assert cold[key] == hot[key], f"tier-2 diverged on {key}"


class TestPromotion:
    def test_hot_method_compiles_and_agrees(self):
        cold = _observe(LOOP_SRC)
        hot = _observe(LOOP_SRC, policy=HOT)
        _equivalent(cold, hot)
        engine = hot["interp"]._tier2
        assert engine.compiles >= 1
        assert engine.entries >= 1
        assert hot["stats"].tier2_entries == engine.entries
        assert engine.deopts == 0

    def test_cold_program_stays_interpreted(self):
        lukewarm = TierPolicy(invocation_threshold=10_000,
                              backedge_threshold=1_000_000)
        run = _observe(LOOP_SRC, policy=lukewarm)
        engine = run["interp"]._tier2
        assert engine.compiles == 0
        assert run["stats"].tier2_entries == 0

    def test_osr_promotes_long_running_invocation(self):
        # Entry threshold unreachable (each method called a handful of
        # times), back-edge threshold low: only OSR can reach tier 2.
        policy = TierPolicy(invocation_threshold=10_000, backedge_threshold=20)
        cold = _observe(LOOP_SRC)
        hot = _observe(LOOP_SRC, policy=policy)
        _equivalent(cold, hot)
        engine = hot["interp"]._tier2
        assert engine.osr_entries >= 1
        assert engine.compiles >= 1

    def test_dynamic_config_agrees(self):
        cold = _observe(LOOP_SRC, config=JITConfig.DYNAMIC)
        hot = _observe(LOOP_SRC, config=JITConfig.DYNAMIC, policy=HOT)
        _equivalent(cold, hot)
        assert hot["interp"]._tier2.compiles >= 1

    def test_fusion_off_agrees(self):
        nofuse = TierPolicy(invocation_threshold=2, backedge_threshold=6,
                            fusion=False)
        cold = _observe(LOOP_SRC)
        hot = _observe(LOOP_SRC, policy=nofuse)
        _equivalent(cold, hot)
        assert hot["interp"]._tier2.compiles >= 1

    def test_fusion_forms_superinstructions(self):
        from repro.jit.tier2 import find_fused_pairs

        program, _ = compile_source(LOOP_SRC, JITConfig.BASELINE)
        fused = {}
        for method in program.methods.values():
            fused.update(find_fused_pairs(method))
        assert "binop+cjump" in fused.values()


class TestDeoptAndClone:
    def test_opposite_context_deopts_then_clones(self):
        cold = _observe(DUAL_CONTEXT_SRC, config=JITConfig.DYNAMIC,
                        inline=False)
        hot = _observe(DUAL_CONTEXT_SRC, config=JITConfig.DYNAMIC,
                       inline=False, policy=HOT)
        _equivalent(cold, hot)
        engine = hot["interp"]._tier2
        assert engine.deopts >= HOT.deopt_recompile_threshold
        assert hot["stats"].tier2_deopts == engine.deopts
        # The helper was compiled for both contexts: the out variant and
        # an in-region clone materialized after repeated deopts.
        touch_keys = {k for (name, k) in hot["program"].tier2.cache
                      if name == "touch"}
        assert ("out",) in touch_keys
        assert any(k[0] == "in" for k in touch_keys), (
            "expected an in-region clone after repeated deopts"
        )

    def test_no_stale_compilation_error_escapes(self):
        # verify_static on the same shape *does* raise (the prototype's
        # failure mode) while the tier-2 engine never does.
        program, _ = Compiler(JITConfig.STATIC, inline=False).compile(
            DUAL_CONTEXT_SRC
        )
        vm = LaminarVM(Kernel(LaminarSecurityModule()))
        vm.current_thread.gain_capabilities(
            CapabilitySet.dual(*program.tags.values())
        )
        with pytest.raises(StaleCompilationError):
            Interpreter(program, vm, verify_static=True).run("main")
        hot = _observe(DUAL_CONTEXT_SRC, config=JITConfig.STATIC,
                       inline=False, policy=HOT)
        assert hot["exc"] != "StaleCompilationError"

    def test_below_threshold_deopts_keep_interpreting(self):
        patient = TierPolicy(invocation_threshold=2, backedge_threshold=6,
                             deopt_recompile_threshold=10_000)
        hot = _observe(DUAL_CONTEXT_SRC, config=JITConfig.DYNAMIC,
                       inline=False, policy=patient)
        engine = hot["interp"]._tier2
        assert engine.deopts >= 1
        # touch runs hot inside work's region first, so its first (and,
        # below the recompile threshold, only) variant is the in-region
        # one; the out-context calls keep deopting to the interpreter
        # instead of materializing a second variant.
        touch_keys = {k for (name, k) in hot["program"].tier2.cache
                      if name == "touch"}
        assert len(touch_keys) == 1, touch_keys


class TestCompiledCallSites:
    def test_certified_caller_dispatches_for_its_runtime_context(self):
        # A certified method compiles per context key like any other:
        # inside the region, mid and leaf run their in-region variants,
        # so leaf's barrier checks the region's labels.
        kw = dict(config=JITConfig.DYNAMIC, inline=False,
                  certified=("mid",))
        cold = _observe(CERT_CALLER_SRC, **kw)
        hot = _observe(CERT_CALLER_SRC, policy=HOT, **kw)
        for key in ("result", "exc", "output", "audit", "enforcement"):
            assert cold[key] == hot[key], f"tier-2 diverged on {key}"
        assert cold["output"] == (5,) * 6 + (7,) * 6
        assert cold["stats"].label_checks > 0
        mid_keys = {key[0] for name, key in hot["program"].tier2.cache
                    if name == "mid"}
        assert mid_keys == {"out", "in"}
        assert hot["stats"].tier2_entries > 0

    def test_certified_build_compiles_per_context(self):
        # A certified build runs barrier-free methods under the same
        # context keys as an uncertified one.
        kw = dict(optimize_barriers="certified", inline=False)
        cold = _observe(LOOP_SRC, **kw)
        hot = _observe(LOOP_SRC, policy=HOT, **kw)
        _equivalent(cold, hot)
        assert hot["program"].certified_methods == {"main", "sum"}
        assert ("sum", ("out",)) in hot["program"].tier2.cache

    def test_compiled_callers_pass_their_context_to_callees(self):
        # DUAL_CONTEXT_SRC calls touch from compiled code both inside the
        # region and outside it: each side reaches its own variant.
        cold = _observe(DUAL_CONTEXT_SRC, config=JITConfig.DYNAMIC,
                        inline=False)
        hot = _observe(DUAL_CONTEXT_SRC, config=JITConfig.DYNAMIC,
                       inline=False, policy=HOT)
        _equivalent(cold, hot)
        engine = hot["interp"]._tier2
        assert hot["program"].tier2.profiles["touch"].invocations == 8 * 20 + 8
        assert hot["stats"].tier2_entries == engine.entries

    def test_arity_error_is_the_same_on_every_path(self):
        program, _ = compile_source(LOOP_SRC, JITConfig.STATIC, inline=False)
        vm = LaminarVM(Kernel(LaminarSecurityModule()))
        message = "sum expects 1 args, got 0"
        with pytest.raises(TypeError, match=message):
            Interpreter(program, vm).run("sum")
        interp = Interpreter(program, vm, tier2=HOT)
        with pytest.raises(TypeError, match=message):
            interp.run("sum")
        assert "sum" not in program.tier2.profiles


class TestBlockDispatch:
    """The balanced dispatch tree reaches every block index, from the
    method entry and from OSR at every loop header."""

    @pytest.mark.parametrize("nblocks", [1, 2, 3, 17])
    def test_entry_path_agrees(self, nblocks):
        src = _loop_chain_src(nblocks)
        eager = TierPolicy(invocation_threshold=1, backedge_threshold=10_000)
        cold = _observe(src, inline=False)
        hot = _observe(src, policy=eager, inline=False)
        _equivalent(cold, hot)
        assert len(hot["program"].method("f").blocks) == nblocks
        assert ("f", ("out",)) in hot["program"].tier2.cache

    @pytest.mark.parametrize("nblocks", [1, 2, 3, 17])
    def test_osr_enters_at_every_loop_header(self, nblocks):
        from repro.jit.tier2 import backedge_targets

        src = _loop_chain_src(nblocks)
        cold = _observe(src, inline=False)
        headers = backedge_targets(cold["program"].method("f"))
        assert len(headers) == nblocks - 1
        entered: set = set()
        threshold = 1
        while entered != headers:
            assert threshold <= 4 * nblocks, f"never entered {headers - entered}"
            seen = []

            def spy(engine, seen=seen):
                enter = engine._enter

                def record(compiled, regs, entry, args=()):
                    seen.append((compiled, entry))
                    return enter(compiled, regs, entry, args)

                engine._enter = record

            hot = _observe(src, spy=spy, inline=False, policy=TierPolicy(
                invocation_threshold=10_000, backedge_threshold=threshold))
            _equivalent(cold, hot)
            for compiled, entry in seen:
                labels = {i: l for l, i in compiled.entry_index.items()}
                entered.add(labels[entry])
            threshold += 1

    def test_invalid_entry_index_is_rejected(self):
        hot = _observe(_loop_chain_src(5), inline=False, policy=TierPolicy(
            invocation_threshold=1, backedge_threshold=10_000))
        compiled = hot["program"].tier2.cache[("f", ("out",))]
        interp = hot["interp"]
        for bad in (-1, 5, 6):
            # Both entry conventions: arguments in place, and OSR's
            # register dict.
            with pytest.raises(AssertionError,
                               match="unknown tier-2 block index"):
                compiled.fn(interp.ctx, None, bad, 0, 0)
            with pytest.raises(AssertionError,
                               match="unknown tier-2 block index"):
                compiled.fn(interp.ctx, {"i": 0, "acc": 0}, bad)


class TestGuardsAndInvalidation:
    def test_ir_mutation_invalidates_and_recompiles(self):
        from repro.jit.ir import Instr, Opcode

        program, _ = compile_source(LOOP_SRC, JITConfig.BASELINE,
                                    inline=False)
        vm = LaminarVM(Kernel(LaminarSecurityModule()))
        interp = Interpreter(program, vm, tier2=HOT)
        first = interp.run("main")
        assert ("sum", ("out",)) in program.tier2.cache
        method = program.method("sum")
        entry = method.blocks[method.entry]
        entry.instrs[:] = [
            Instr(Opcode.CONST, ("acc", 123)),
            Instr(Opcode.RET, ("acc",)),
        ]
        second = interp.run("main")
        assert first != second
        assert second == 123

    def test_region_spec_mutation_compiles_new_variant(self):
        program, _ = compile_source(SPEC_MUTATION_SRC, JITConfig.BASELINE)
        vm = LaminarVM(Kernel(LaminarSecurityModule()))
        interp = Interpreter(program, vm, tier2=HOT)
        interp.run("main")
        keys_before = {
            k for (name, k) in program.tier2.cache if name == "work"
        }
        assert len(keys_before) == 1
        # Mutating the spec is legal between runs; the label pair observed
        # inside the region IS the cache key, so the old variant can never
        # run for the new labels.
        _mutate_work_spec(program, vm)
        interp.run("main")
        keys_after = {
            k for (name, k) in program.tier2.cache if name == "work"
        }
        assert len(keys_after) == 2
        assert keys_before < keys_after

    def test_verify_static_disables_engine(self):
        program, _ = compile_source(LOOP_SRC, JITConfig.STATIC)
        vm = LaminarVM(Kernel(LaminarSecurityModule()))
        interp = Interpreter(program, vm, verify_static=True, tier2=HOT)
        assert interp._tier2 is None
        interp.run("main")
        assert not program.tier2.cache


#: Programs compiled hot and rerun after fastpath flushes: a loop, a
#: helper called in and out of a region (labeled allocations in the
#: region), and a region body whose violations land in the audit log.
FLUSHED_PROGRAMS = {
    "loop": (LOOP_SRC, JITConfig.STATIC),
    "dual_context": (DUAL_CONTEXT_SRC, JITConfig.DYNAMIC),
    "violating_region": (VIOLATING_SRC, JITConfig.STATIC),
}

#: Switches for the rerun: all on (the flush alone), then each one off.
FLUSHES = {
    "all_on": {},
    "no_label_interning": {"label_interning": False},
    "no_flow_verdict_cache": {"flow_verdict_cache": False},
    "no_dispatch_table": {"dispatch_table": False},
}


class TestCompiledCodeSurvivesFastpathFlushes:
    """Compiled bodies read no fastpath switch and use their baked label
    pairs by value, so neither ``clear_caches()`` nor a reconfiguration
    touches the code cache: a hot program rerun after one matches an
    untiered run under the same switches and compiles and discards
    nothing."""

    @pytest.mark.parametrize("flush", sorted(FLUSHES))
    @pytest.mark.parametrize("name", sorted(FLUSHED_PROGRAMS))
    def test_hot_program_reruns_unchanged(self, name, flush):
        source, config = FLUSHED_PROGRAMS[name]
        program, _ = Compiler(config).compile(source)
        for _ in range(10):
            compiles = fastpath.counters.tier2_compiles
            _run_observed(program, HOT)
            if fastpath.counters.tier2_compiles == compiles:
                break
        cache = dict(program.tier2.cache)
        assert cache
        compiles = fastpath.counters.tier2_compiles
        invalidations = fastpath.counters.tier2_invalidations
        with fastpath.configured(**FLUSHES[flush]):
            fastpath.clear_caches()
            hot = _run_observed(program, HOT)
            assert fastpath.counters.tier2_compiles == compiles
            assert fastpath.counters.tier2_invalidations == invalidations
            assert program.tier2.cache == cache
            assert hot["interp"]._tier2.entries > 0
            cold = _observe(source, config)
        _equivalent(cold, hot)


#: perfbench ``vm``'s four programs at its sizes (``perfbench/wl_vm.py``).
VM_PROGRAMS = {
    "txnmix": (txnmix(n=400), JITConfig.STATIC, {}),
    "listsum": (listsum(n=60, reps=26), JITConfig.STATIC, {}),
    "gradesheet": (gradesheet(n=40, reps=4), JITConfig.DYNAMIC,
                   {"inline": False}),
    "battleship": (battleship(n=24, rounds=3), JITConfig.DYNAMIC,
                   {"inline": False}),
}


def _vm_program(name):
    source, config, kw = VM_PROGRAMS[name]
    program, _ = Compiler(config, tier="jit", **kw).compile(source)
    return program


def _vm_request(program):
    """One perfbench ``vm`` request: a fresh machine and interpreter
    running ``main``; returns the request's engine."""
    vm = LaminarVM(Kernel(LaminarSecurityModule()))
    if program.tags:
        vm.current_thread.gain_capabilities(
            CapabilitySet.dual(*program.tags.values())
        )
    interp = Interpreter(program, vm)
    interp.run("main")
    return interp._tier2


def _warm_keys(name, method):
    """The context keys ``method`` holds once requests stop compiling."""
    program = _vm_program(name)
    quiet = 0
    for _ in range(40):
        engine = _vm_request(program)
        quiet = quiet + 1 if engine.compiles == 0 else 0
        if quiet == 2:
            break
    return [key for name_, key in program.tier2.cache if name_ == method]


class TestBenchmarkShapes:
    """The tier-2 paths perfbench ``vm`` runs on: OSR is the only way the
    loop programs' ``main`` compiles, the region programs' ``main``
    compiles once enough requests called it, their helpers hold
    per-context clones, and listsum fuses both pair kinds."""

    @pytest.mark.parametrize("name", ["listsum", "txnmix"])
    def test_main_enters_tier2_through_osr_in_the_first_run(self, name):
        program = _vm_program(name)
        engine = _vm_request(program)
        assert program.tier2.profiles["main"].invocations == 1
        assert engine.osr_entries >= 1
        assert ("main", ("out",)) in program.tier2.cache

    def test_gradesheet_bump_holds_out_and_one_in_variant(self):
        keys = _warm_keys("gradesheet", "bump")
        assert ("out",) in keys
        assert len(keys) == 2 and sum(key[0] == "in" for key in keys) == 1

    def test_battleship_fire_holds_three_variants(self):
        keys = _warm_keys("battleship", "fire")
        assert len(keys) == 3
        assert sorted(key[0] for key in keys) == ["in", "in", "out"]

    def test_listsum_fuses_both_pair_kinds(self):
        program = _vm_program("listsum")
        _vm_request(program)
        kinds = {
            kind for compiled in program.tier2.cache.values()
            for kind in compiled.fused_pairs.values()
        }
        assert kinds == {"binop+cjump", "getfield+binop"}

    @pytest.mark.parametrize("name", ["gradesheet", "battleship"])
    def test_region_programs_main_compiles_across_requests(self, name):
        # Profiles live on the program, so every request's interpreter
        # counts into one profile: main, called once per request with
        # loops too short to OSR, compiles once enough requests ran.
        program = _vm_program(name)
        _vm_request(program)
        _vm_request(program)
        assert program.tier2.profiles["main"].invocations == 2
        assert ("main", ("out",)) not in program.tier2.cache
        for _ in range(TierPolicy().invocation_threshold - 2):
            _vm_request(program)
        assert ("main", ("out",)) in program.tier2.cache


@pytest.fixture
def guarded_variants(monkeypatch):
    """Wrap every variant tier 2 compiles so that each entry checks the
    running thread against the variant's context key and the way it was
    entered, and count the calls that go through :meth:`Tier2Engine.call`.

    Only an OSR entry may carry a register dict; every other entry (the
    engine's and linked sites') passes exactly the method's arguments in
    place.  An OSR entry is the first entry after an OSR probe starts.

    Yields ``(entered, wrong, engine_calls)``: the ``(method, key kind)``
    of every entry, the entries whose thread or calling convention did
    not match, and per-method engine calls.  A callee's profile
    invocations minus its engine calls are the calls linked sites made.
    """
    from collections import Counter

    from repro.jit import tier2

    entered, wrong, engine_calls = [], [], Counter()
    compile_method = tier2.compile_method
    call = tier2.Tier2Engine.call
    osr_probe = tier2.Tier2Engine.osr_probe
    in_probe = [False]

    def guarded(method, program, key, fusion):
        compiled = compile_method(method, program, key, fusion)
        fn = compiled.fn

        def entry(ctx, regs, block, *args):
            from_osr, in_probe[0] = in_probe[0], False
            thread = ctx.interp.vm.current_thread
            if key == ("out",):
                ok = not thread.in_region
            else:
                ok = thread.in_region and thread.labels == key[1]
            if not ok:
                wrong.append((method.name, key, thread.labels))
            if from_osr:
                if not isinstance(regs, dict) or args:
                    wrong.append((method.name, key, "osr entry without regs"))
            elif regs is not None or len(args) != len(method.params):
                wrong.append((method.name, key, "call entry with regs"))
            entered.append((method.name, key[0]))
            return fn(ctx, regs, block, *args)

        compiled.fn = entry
        return compiled

    def counted(engine, method, args):
        engine_calls[method.name] += 1
        return call(engine, method, args)

    def watched_osr(engine, method):
        probe = osr_probe(engine, method)
        if probe is None:
            return None

        def watched(label, regs):
            in_probe[0] = True
            try:
                return probe(label, regs)
            finally:
                in_probe[0] = False

        return watched

    monkeypatch.setattr(tier2, "compile_method", guarded)
    monkeypatch.setattr(tier2.Tier2Engine, "call", counted)
    monkeypatch.setattr(tier2.Tier2Engine, "osr_probe", watched_osr)
    return entered, wrong, engine_calls


def _linked_calls(program, engine_calls, name):
    return program.tier2.profiles[name].invocations - engine_calls[name]


class TestCompiledCodeRunsUnderItsKey:
    """Compiled code is checked, not trusted: every entry into a variant,
    whether from the engine, from OSR or from a linked call site, finds
    the thread in the context the variant was compiled for (out of any
    region, or in a region with exactly the key's labels)."""

    def test_dual_context_helper(self, guarded_variants):
        entered, wrong, engine_calls = guarded_variants
        hot = _observe(DUAL_CONTEXT_SRC, config=JITConfig.DYNAMIC,
                       inline=False, policy=HOT)
        assert hot["exc"] is None
        assert not wrong, wrong
        assert {("main", "out"), ("work", "region"), ("touch", "out"),
                ("touch", "in")} <= set(entered)
        assert _linked_calls(hot["program"], engine_calls, "touch") > 0

    def test_certified_caller(self, guarded_variants):
        entered, wrong, engine_calls = guarded_variants
        hot = _observe(CERT_CALLER_SRC, config=JITConfig.DYNAMIC,
                       inline=False, certified=("mid",), policy=HOT)
        assert hot["exc"] is None
        assert not wrong, wrong
        assert {("mid", "out"), ("mid", "in"), ("leaf", "out"),
                ("leaf", "in")} <= set(entered)
        assert _linked_calls(hot["program"], engine_calls, "leaf") > 0
        assert _linked_calls(hot["program"], engine_calls, "mid") > 0

    def test_region_spec_mutation(self, guarded_variants):
        entered, wrong, _ = guarded_variants
        program, _ = compile_source(SPEC_MUTATION_SRC, JITConfig.BASELINE)
        vm = LaminarVM(Kernel(LaminarSecurityModule()))
        Interpreter(program, vm, tier2=HOT).run("main")
        _mutate_work_spec(program, vm)
        Interpreter(program, vm, tier2=HOT).run("main")
        assert not wrong, wrong
        work_keys = {key for name, key in program.tier2.cache if name == "work"}
        assert len(work_keys) == 2
        assert entered.count(("work", "region")) > 0

    def test_entry_from_an_ambient_region(self, guarded_variants):
        # One program run inside an ambient region, then outside it, then
        # inside again: main and sum hold variants for both contexts, and
        # each run's linked sites must reach its own.
        entered, wrong, engine_calls = guarded_variants
        from repro.runtime import LaminarAPI

        program, _ = Compiler(JITConfig.DYNAMIC, inline=False).compile(
            LOOP_SRC
        )
        results = []
        for ambient in (True, True, False, False, True):
            vm = LaminarVM(Kernel(LaminarSecurityModule()))
            interp = Interpreter(program, vm, tier2=HOT)
            if ambient:
                tag = LaminarAPI(vm).create_and_add_capability("ambient")
                with vm.region(secrecy=Label.of(tag),
                               caps=CapabilitySet.dual(tag)):
                    results.append(interp.run("main"))
            else:
                results.append(interp.run("main"))
        assert results == [1225] * 5
        assert not wrong, wrong
        assert {("main", "in"), ("main", "out"), ("sum", "in"),
                ("sum", "out")} <= set(entered)
        assert _linked_calls(program, engine_calls, "sum") > 0

    @pytest.mark.parametrize("name", ["gradesheet", "battleship"])
    def test_benchmark_region_programs(self, guarded_variants, name):
        entered, wrong, engine_calls = guarded_variants
        program = _vm_program(name)
        for _ in range(TierPolicy().invocation_threshold + 2):
            _vm_request(program)
        assert not wrong, wrong
        helper = "bump" if name == "gradesheet" else "fire"
        assert {("main", "out"), (helper, "out"), (helper, "in")} <= set(entered)
        assert _linked_calls(program, engine_calls, helper) > 0


class TestLabeledStatics:
    def test_static_barrier_methods_stay_on_the_tables(self):
        # Tier 2 declines methods with labeled-statics barriers: they run
        # on the handler tables, and the program observes the same
        # allowed accesses, refusals and suppressed violations as cold.
        from repro.jit.disasm import disassemble_tiers

        for cfg in (JITConfig.STATIC, JITConfig.DYNAMIC):
            cold, _ = run_labeled_statics(cfg)
            hot, interp = run_labeled_statics(cfg, policy=HOT)
            assert hot[:3] == cold[:3], cfg
            assert hot[3].enforcement() == cold[3].enforcement(), cfg
            assert hot[4] == cold[4], cfg
            program = interp.program
            assert {name for name, _ in program.tier2.cache} == {"step"}
            assert program.tier2.uncompilable == {"main", "bump", "peek"}
            plan = disassemble_tiers(program)
            assert plan.count("stays on the handler tables") == 3


class TestAuditParity:
    def test_violating_region_audit_is_byte_identical(self):
        cold = _observe(VIOLATING_SRC, config=JITConfig.DYNAMIC, inline=False)
        hot = _observe(VIOLATING_SRC, config=JITConfig.DYNAMIC, inline=False,
                       policy=TierPolicy(invocation_threshold=1,
                                         backedge_threshold=4))
        assert any("REGION_SUPPRESS" in line or "suppress" in line.lower()
                   for line in cold["audit"]), cold["audit"]
        _equivalent(cold, hot)
        assert hot["interp"]._tier2.compiles >= 1


#: Five ways for compiled code to raise part-way through a block, each
#: with allocations, barriers and plain instructions before and after the
#: raising one, so a block that counted ahead must take back exactly what
#: it never reached.  name -> (source, the exception escaping ``main``).
RAISE_MID_BLOCK = {
    # The region body's write to its unlabeled parameter is a secrecy
    # violation: cached_check_flow raises it, the region's catch runs.
    "region_catch": ("""
class Gen { fa, fb }

method onfail() {
entry:
  const m, -77
  print m
  ret
}

region method work(b) secrecy(s) catch(onfail) {
entry:
  new f, Gen
  const k, 7
  putfield f, fa, k
  getfield t, f, fa
  print t
  putfield b, fb, t
  new g, Gen
  print k
  ret
}

method main() {
entry:
  new b, Gen
  const i, 0
  jmp loop
loop:
  const lim, 4
  binop c, lt, i, lim
  br c, body, done
body:
  call _, work, b
  const one, 1
  binop i, add, i, one
  jmp loop
done:
  getfield r, b, fb
  ret r
}
""", None),
    # An integrity region hands out a labeled object; the second peek
    # reads it out of region and the space check raises.
    "space_check": ("""
class Gen { fa, fb }

region method stash(b) integrity(s) {
entry:
  new f, Gen
  const k, 7
  putfield f, fa, k
  putfield b, fb, f
  ret
}

method peek(b, i) {
entry:
  new a, Gen
  putfield a, fa, i
  getfield o, b, fb
  getfield v, o, fa
  new c, Gen
  putfield c, fb, v
  print v
  ret v
}

method main() {
entry:
  new b, Gen
  new u, Gen
  const i, 1
  putfield u, fa, i
  putfield b, fb, u
  call r, peek, b, i
  call _, stash, b
  call r, peek, b, i
  print r
  ret r
}
""", "RegionViolation"),
    "div_zero": ("""
class Gen { fa, fb }

method divide(d, i) {
entry:
  new a, Gen
  putfield a, fa, i
  getfield x, a, fa
  binop q, div, x, d
  new c, Gen
  putfield c, fb, q
  print q
  ret q
}

method main() {
entry:
  new b, Gen
  const z, 0
  const i, 5
  call r, divide, z, i
  print r
  ret r
}
""", "ZeroDivisionError"),
    # The barrier before the getfield faults first where there is one.
    "null_getfield": ("""
class Gen { fa, fb }

method probe(o, i) {
entry:
  new a, Gen
  putfield a, fa, i
  getfield v, o, fa
  new c, Gen
  putfield c, fb, v
  print v
  ret v
}

method main() {
entry:
  new b, Gen
  const i, 5
  putfield b, fa, i
  call r, probe, b, i
  const n, null
  call r, probe, n, i
  print r
  ret r
}
""", "AttributeError"),
    # divide compiles on its first call; the third call, by then through
    # main's linked site, divides by zero.
    "linked_callee": ("""
class Gen { fa, fb }

method divide(d, i) {
entry:
  new a, Gen
  putfield a, fa, i
  getfield x, a, fa
  binop q, div, x, d
  new c, Gen
  putfield c, fb, q
  print q
  ret q
}

method main() {
entry:
  const i, 0
  const r, 0
  jmp loop
loop:
  const two, 2
  binop d, sub, two, i
  new w, Gen
  call r, divide, d, i
  putfield w, fa, r
  print r
  const one, 1
  binop i, add, i, one
  jmp loop
}
""", "ZeroDivisionError"),
}

#: A header load that faults inside a region: ``work``'s own read of a
#: null register (a static in-region barrier under the static config),
#: and ``probe``'s, compiled for the region's context (a dynamic one
#: under the dynamic config).  Both regions suppress the fault.
NULL_IN_REGION_SRC = """
class Gen { fa, fb }

method probe(o, i) {
entry:
  new a, Gen
  putfield a, fa, i
  getfield v, o, fa
  new c, Gen
  print v
  ret v
}

region method work(b) secrecy(s) {
entry:
  new f, Gen
  const k, 7
  putfield f, fa, k
  const n, null
  getfield t, n, fa
  print k
  ret
}

region method work2(b) secrecy(s) {
entry:
  new f, Gen
  const k, 7
  putfield f, fa, k
  call v, probe, f, k
  const n, null
  call w, probe, n, k
  print k
  ret
}

method main() {
entry:
  new b, Gen
  const i, 5
  putfield b, fa, i
  call r, probe, b, i
  call _, work, b
  call _, work, b
  call _, work2, b
  call _, work2, b
  print r
  ret r
}
"""


#: A read barrier on null inside a region and a write barrier on null
#: outside one: each header load faults before the barrier's check.
NULL_BARRIERS_SRC = """
class Gen { fa }

region method work(b) secrecy(s) {
entry:
  const n, null
  getfield t, n, fa
  ret
}

method main() {
entry:
  const n, null
  call _, work, n
  const k, 1
  putfield n, fa, k
  ret k
}
"""

def _eager(fusion):
    return TierPolicy(invocation_threshold=1, backedge_threshold=2,
                      deopt_recompile_threshold=1, fusion=fusion)


class TestRaiseMidBlock:
    """A compiled block adds its static counts on entry; a raise takes
    back what the block never reached.  Every count the interpreter
    keeps (instructions, enforcement, heap, verdict-memo answers) and the
    audit log must come out the same when the raise lands mid-block."""

    @pytest.mark.parametrize("fusion", [True, False])
    @pytest.mark.parametrize("config", [JITConfig.STATIC, JITConfig.DYNAMIC])
    @pytest.mark.parametrize("name", sorted(RAISE_MID_BLOCK))
    def test_counts_match_the_interpreter(self, name, config, fusion):
        source, escapes = RAISE_MID_BLOCK[name]
        cold = _observe(source, config=config, inline=False)
        hot = _observe(source, config=config, inline=False,
                       policy=_eager(fusion))
        _equivalent(cold, hot)
        assert cold["exc"] == escapes
        if escapes is None:
            assert any("suppressed SecrecyViolation" in line
                       for line in cold["audit"])
        # The raise happened in compiled code, not before it.
        engine = hot["interp"]._tier2
        assert engine.compiles >= 2 and engine.entries >= 2

    @pytest.mark.parametrize("fusion", [True, False])
    def test_getfield_itself_raises_without_barriers(self, fusion):
        source, escapes = RAISE_MID_BLOCK["null_getfield"]
        cold = _observe(source, config=JITConfig.BASELINE, inline=False)
        hot = _observe(source, config=JITConfig.BASELINE, inline=False,
                       policy=_eager(fusion))
        _equivalent(cold, hot)
        assert cold["exc"] == escapes
        assert cold["enforcement"]["read_barriers"] == 0

    @pytest.mark.parametrize("fusion", [True, False])
    @pytest.mark.parametrize("config", [JITConfig.STATIC, JITConfig.DYNAMIC])
    def test_header_load_faults_in_a_region(self, config, fusion):
        # Each null header load faults before its barrier counts a
        # dispatch or a check, whatever the barrier's flavor.
        cold = _observe(NULL_IN_REGION_SRC, config=config, inline=False)
        hot = _observe(NULL_IN_REGION_SRC, config=config, inline=False,
                       policy=_eager(fusion))
        _equivalent(cold, hot)
        faults = [line for line in cold["audit"]
                  if "suppressed AttributeError" in line]
        assert len(faults) >= 2, cold["audit"]

    @pytest.mark.parametrize("dispatch_table", [False, True])
    @pytest.mark.parametrize("config", [JITConfig.STATIC, JITConfig.DYNAMIC])
    def test_null_barrier_counts_only_the_barrier(self, config, dispatch_table):
        # The switch loop, the handler tables and compiled code count a
        # barrier whose header load faults the same way, whatever its
        # flavor: the barrier itself, no dispatch, no check.
        with fastpath.configured(dispatch_table=dispatch_table):
            runs = [
                _observe(NULL_BARRIERS_SRC, config=config, inline=False,
                         policy=policy)
                for policy in (None, _eager(True))
            ]
        for run in runs:
            assert run["exc"] == "AttributeError"
            assert run["enforcement"] == {
                "read_barriers": 1, "write_barriers": 1, "alloc_barriers": 0,
                "dynamic_dispatches": 0, "label_checks": 0, "space_checks": 0,
            }
        assert runs[1]["interp"]._tier2.compiles >= 2


class TestCompilerWiring:
    def test_tier_jit_attaches_policy(self):
        program, report = Compiler(JITConfig.STATIC, tier="jit").compile(
            LOOP_SRC
        )
        assert isinstance(program.tier_policy, TierPolicy)
        assert report.tier == "jit"
        assert "attach-tier2" in report.passes
        vm = LaminarVM(Kernel(LaminarSecurityModule()))
        interp = Interpreter(program, vm)
        assert interp._tier2 is not None
        assert interp._tier2.policy is program.tier_policy

    def test_explicit_policy_implies_jit(self):
        policy = TierPolicy(invocation_threshold=3)
        program, report = Compiler(JITConfig.STATIC, tier2=policy).compile(
            LOOP_SRC
        )
        assert program.tier_policy is policy
        assert report.tier == "jit"

    def test_default_tier_is_interp(self):
        program, report = Compiler(JITConfig.STATIC).compile(LOOP_SRC)
        assert program.tier_policy is None
        assert report.tier == "interp"
        vm = LaminarVM(Kernel(LaminarSecurityModule()))
        assert Interpreter(program, vm)._tier2 is None

    def test_bad_tier_rejected(self):
        with pytest.raises(ValueError):
            Compiler(tier="turbo")


class TestCLI:
    def _run_cli(self, *argv):
        out = io.StringIO()
        code = lamc_main(list(argv), out=out)
        return code, out.getvalue()

    def test_run_tier2_reports_engine(self, tmp_path):
        path = tmp_path / "loop.ir"
        path.write_text(LOOP_SRC)
        code, text = self._run_cli(
            "run", str(path), "--tier2", "--tier2-threshold", "2"
        )
        assert code == 0
        assert "tier-2:" in text
        assert "compiles" in text and "deopts" in text

    def test_run_without_tier2_has_no_report(self, tmp_path):
        path = tmp_path / "loop.ir"
        path.write_text(LOOP_SRC)
        code, text = self._run_cli("run", str(path))
        assert code == 0
        assert "tier-2:" not in text

    def test_tier2_run_matches_interpreter_result(self, tmp_path):
        path = tmp_path / "loop.ir"
        path.write_text(LOOP_SRC)
        _, plain = self._run_cli("run", str(path))
        _, tiered = self._run_cli("run", str(path), "--tier2",
                                  "--tier2-threshold", "2")
        line = next(l for l in plain.splitlines() if l.startswith("result:"))
        assert line in tiered

    def test_disasm_tiers(self, tmp_path):
        path = tmp_path / "dual.ir"
        path.write_text(DUAL_CONTEXT_SRC)
        code, text = self._run_cli(
            "disasm", str(path), "--tiers", "--config", "dynamic"
        )
        assert code == 0
        assert "tier pipeline:" in text
        assert "baked barriers:" in text
        assert "guards: entry (context key)" in text
        assert "osr @" in text  # loop headers are OSR guard points
        assert "fused:" in text

    def test_disasm_tiers_counts_linked_and_redispatched_calls(self, tmp_path):
        # main calls touch (links to its variant) and the region method
        # work (region entry always goes through the engine).
        path = tmp_path / "dual.ir"
        path.write_text(DUAL_CONTEXT_SRC)
        code, text = self._run_cli(
            "disasm", str(path), "--tiers", "--config", "dynamic",
            "--no-inline",
        )
        assert code == 0
        main = text[text.index("method main:"):]
        assert "call sites: 1 linked, 1 re-dispatched" in main
        work = text[text.index("region method work:"):text.index("method main:")]
        assert "call sites: 1 linked, 0 re-dispatched" in work

    def test_plain_disasm_unchanged(self, tmp_path):
        path = tmp_path / "loop.ir"
        path.write_text(LOOP_SRC)
        code, text = self._run_cli("disasm", str(path))
        assert code == 0
        assert "class Box { val }" in text
        assert "tier pipeline:" not in text
