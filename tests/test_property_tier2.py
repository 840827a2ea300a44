"""Property-based equivalence sweep: tier-2 ≡ interpreter.

Hypothesis generates the same random programs as
:mod:`tests.test_property_jit` (straight-line/branchy arithmetic and heap
traffic, and security-region programs with a shared helper and catch
handlers, under one region or two with distinct tags), runs each one
through the interpreter and through the tiered engine with aggressive
promotion thresholds (so even tiny methods reach tier 2 / OSR), and
asserts the full observable record is identical.  Each program is
compiled once and run twice, each run on a fresh kernel, VM and
interpreter: every call site executes once per run, so most compiled
call sites find their callee's variant linked only in the second run.
Both runs are compared, each against the same run untiered:

* return value (or escaped exception type),
* printed output,
* enforcement counters (:meth:`BarrierStats.enforcement` — barrier
  executions, dynamic dispatches, label/space checks),
* heap counters (:class:`~repro.runtime.heap.HeapStats` — allocations,
  labeled allocations, label words written),
* the audit log, byte for byte,
* ``executed`` instruction counts (on non-faulting runs; a fault inside
  a fused superinstruction pair legitimately attributes both of the
  pair's instructions at once).

Every run, on either tier, must also have its verdict memo answer each
label check exactly once (``flow_cache_hits + flow_cache_misses ==
label_checks``): compiled code answers hits inline and counts them on
exit.  Both fusion settings are swept, and region programs run under both the
static and dynamic barrier configurations.  Plain programs are swept
with inlining on and off: inlining folds the generated helper call into
``main``, so only the ``inline=False`` arms compile a call site.
"""

from __future__ import annotations

import dataclasses
import itertools

from hypothesis import find, given, settings

from repro.core import CapabilitySet
from repro.jit import Compiler, Interpreter, JITConfig, TierPolicy
from repro.jit.ir import Opcode
from repro.osim import Kernel, LaminarSecurityModule
from repro.osim.filesystem import Inode
from repro.runtime import LaminarVM
from repro.runtime.heap import ObjectHeader

from .test_property_jit import random_program, region_program

#: Everything is hot: methods compile on their first call, loops OSR
#: almost immediately, and a single opposite-context call already clones.
AGGRESSIVE = TierPolicy(
    invocation_threshold=1, backedge_threshold=2, deopt_recompile_threshold=1
)
AGGRESSIVE_NOFUSE = TierPolicy(
    invocation_threshold=1, backedge_threshold=2, deopt_recompile_threshold=1,
    fusion=False,
)


def _reset_id_counters() -> None:
    Inode._ino_counter = itertools.count(1)
    ObjectHeader._oid_counter = itertools.count(1)


def _observe(source, config, policy, **compile_kw):
    """The observable records of two runs of one compiled program."""
    program, _ = Compiler(config, **compile_kw).compile(source)
    return [_run(program, policy) for _ in range(2)]


def _run(program, policy):
    _reset_id_counters()
    kernel = Kernel(LaminarSecurityModule())
    vm = LaminarVM(kernel)
    if program.tags:
        vm.current_thread.gain_capabilities(
            CapabilitySet.dual(*program.tags.values())
        )
    interp = Interpreter(program, vm, tier2=policy)
    try:
        result = interp.run("main")
        exc = None
    except Exception as error:  # noqa: BLE001 - differential capture
        result = None
        exc = type(error).__name__
    stats = vm.barriers.stats
    assert stats.flow_cache_hits + stats.flow_cache_misses == stats.label_checks
    return {
        "result": result,
        "exc": exc,
        "output": tuple(interp.output),
        "executed": interp.executed,
        "enforcement": stats.enforcement(),
        "heap": dataclasses.asdict(vm.heap.stats),
        "audit": tuple(str(entry) for entry in kernel.audit.entries()),
    }


def _assert_equivalent(colds, hots, source):
    for run, (cold, hot) in enumerate(zip(colds, hots), 1):
        where = f"run {run} of:\n{source}"
        assert hot["exc"] == cold["exc"], (
            f"tier-2 changed the escaped exception on {where}"
        )
        assert hot["result"] == cold["result"], (
            f"tier-2 changed the result on {where}"
        )
        assert hot["output"] == cold["output"], (
            f"tier-2 changed printed output on {where}"
        )
        assert hot["enforcement"] == cold["enforcement"], (
            f"tier-2 changed enforcement counters on {where}"
        )
        assert hot["heap"] == cold["heap"], (
            f"tier-2 changed heap counters on {where}"
        )
        assert hot["audit"] == cold["audit"], (
            f"tier-2 changed the audit log on {where}"
        )
        if cold["exc"] is None:
            assert hot["executed"] == cold["executed"], (
                f"tier-2 changed the executed-instruction count on {where}"
            )


class TestPlainProgramEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(random_program())
    def test_static_config(self, source):
        cold = _observe(source, JITConfig.STATIC, None)
        hot = _observe(source, JITConfig.STATIC, AGGRESSIVE)
        _assert_equivalent(cold, hot, source)

    @settings(max_examples=30, deadline=None)
    @given(random_program())
    def test_dynamic_config_without_fusion(self, source):
        cold = _observe(source, JITConfig.DYNAMIC, None)
        hot = _observe(source, JITConfig.DYNAMIC, AGGRESSIVE_NOFUSE)
        _assert_equivalent(cold, hot, source)

    @settings(max_examples=30, deadline=None)
    @given(random_program())
    def test_baseline_config_uninstrumented(self, source):
        cold = _observe(source, JITConfig.BASELINE, None)
        hot = _observe(source, JITConfig.BASELINE, AGGRESSIVE)
        _assert_equivalent(cold, hot, source)

    @settings(max_examples=40, deadline=None)
    @given(random_program())
    def test_static_config_without_inlining(self, source):
        cold = _observe(source, JITConfig.STATIC, None, inline=False)
        hot = _observe(source, JITConfig.STATIC, AGGRESSIVE, inline=False)
        _assert_equivalent(cold, hot, source)

    @settings(max_examples=30, deadline=None)
    @given(random_program())
    def test_dynamic_config_without_fusion_or_inlining(self, source):
        cold = _observe(source, JITConfig.DYNAMIC, None, inline=False)
        hot = _observe(source, JITConfig.DYNAMIC, AGGRESSIVE_NOFUSE,
                       inline=False)
        _assert_equivalent(cold, hot, source)

    @settings(max_examples=30, deadline=None)
    @given(random_program())
    def test_baseline_config_without_inlining(self, source):
        cold = _observe(source, JITConfig.BASELINE, None, inline=False)
        hot = _observe(source, JITConfig.BASELINE, AGGRESSIVE, inline=False)
        _assert_equivalent(cold, hot, source)


class TestPlainCallSitesReached:
    """The ``inline=False`` arms are not vacuous: a generated program keeps
    its call, and the call's second run goes through a linked site."""

    def test_generated_call_is_kept_and_linked(self, monkeypatch):
        from collections import Counter

        from repro.jit import tier2

        source = find(random_program(), lambda src: "call r0, helper" in src)
        program, _ = Compiler(JITConfig.STATIC, inline=False).compile(source)
        assert any(
            instr.op is Opcode.CALL
            for instr in program.method("main").all_instrs()
        )
        engine_calls = Counter()
        call = tier2.Tier2Engine.call

        def counted(engine, method, args):
            engine_calls[method.name] += 1
            return call(engine, method, args)

        monkeypatch.setattr(tier2.Tier2Engine, "call", counted)
        runs = []
        for _ in range(2):
            before = engine_calls["helper"]
            _run(program, AGGRESSIVE)
            runs.append(engine_calls["helper"] - before)
        assert program.tier2.profiles["helper"].invocations == 2
        # The first run compiles the helper through the engine; the
        # second finds it linked and never calls the engine for it.
        assert runs == [1, 0]


class TestRegionProgramEquivalence:
    """Region programs are where the specialization could go wrong: the
    compiled body bakes the observed label pair, the shared helper is
    called from both contexts (deopt + clone territory), and IFC
    violations must surface identically — including the suppressed
    exception text landing in the audit log."""

    @settings(max_examples=40, deadline=None)
    @given(region_program())
    def test_dynamic_config(self, source):
        cold = _observe(source, JITConfig.DYNAMIC, None, inline=False)
        hot = _observe(source, JITConfig.DYNAMIC, AGGRESSIVE, inline=False)
        _assert_equivalent(cold, hot, source)

    @settings(max_examples=30, deadline=None)
    @given(region_program())
    def test_static_config(self, source):
        cold = _observe(source, JITConfig.STATIC, None, inline=False)
        hot = _observe(source, JITConfig.STATIC, AGGRESSIVE, inline=False)
        _assert_equivalent(cold, hot, source)

    @settings(max_examples=20, deadline=None)
    @given(region_program())
    def test_dynamic_config_without_fusion(self, source):
        cold = _observe(source, JITConfig.DYNAMIC, None, inline=False)
        hot = _observe(source, JITConfig.DYNAMIC, AGGRESSIVE_NOFUSE,
                       inline=False)
        _assert_equivalent(cold, hot, source)

    @settings(max_examples=20, deadline=None)
    @given(region_program())
    def test_never_raises_stale_compilation(self, source):
        for hot in _observe(source, JITConfig.STATIC, AGGRESSIVE, inline=False):
            assert hot["exc"] != "StaleCompilationError", (
                f"tier-2 leaked a stale static barrier on:\n{source}"
            )

    @settings(max_examples=30, deadline=None)
    @given(region_program(regions=2))
    def test_two_regions_share_the_helper(self, source):
        # The helper's out-of-region variant and one in-region variant per
        # region tag, as battleship's fire in perfbench vm.
        cold = _observe(source, JITConfig.DYNAMIC, None, inline=False)
        hot = _observe(source, JITConfig.DYNAMIC, AGGRESSIVE, inline=False)
        _assert_equivalent(cold, hot, source)


class TestAmbientRegionContext:
    """The same compiled program, entered from inside an ambient region:
    the context key (thread labels at entry) must route to a different
    variant and the record must still match the interpreter."""

    @staticmethod
    def _observe(source, policy, **compile_kw):
        from repro.runtime import LaminarAPI

        from repro.core import Label

        def run(program):
            _reset_id_counters()
            kernel = Kernel(LaminarSecurityModule())
            vm = LaminarVM(kernel)
            api = LaminarAPI(vm)
            tag = api.create_and_add_capability("ambient")
            interp = Interpreter(program, vm, tier2=policy)
            with vm.region(secrecy=Label.of(tag),
                           caps=CapabilitySet.dual(tag)):
                try:
                    result = interp.run("main")
                    exc = None
                except Exception as error:  # noqa: BLE001
                    result = None
                    exc = type(error).__name__
            return (
                result, exc, tuple(interp.output),
                vm.barriers.stats.enforcement(),
                tuple(str(entry) for entry in kernel.audit.entries()),
            )

        program, _ = Compiler(JITConfig.DYNAMIC, **compile_kw).compile(source)
        return [run(program) for _ in range(2)]

    @settings(max_examples=25, deadline=None)
    @given(random_program())
    def test_in_region_entry_matches_interpreter(self, source):
        assert self._observe(source, None) == \
            self._observe(source, AGGRESSIVE), (
                f"tier-2 diverged under an ambient region on:\n{source}"
            )

    @settings(max_examples=25, deadline=None)
    @given(random_program())
    def test_in_region_entry_without_inlining(self, source):
        assert self._observe(source, None, inline=False) == \
            self._observe(source, AGGRESSIVE, inline=False), (
                f"tier-2 diverged under an ambient region on:\n{source}"
            )
