"""The fast-path layers: interning, the verdict memo, dispatch tables.

Each cache must be individually switchable through
:mod:`repro.core.fastpath`, must never change a security verdict, and must
be invalidated (or be invalidation-free by construction) exactly as its
soundness argument requires.  These are the fast tier-1 smoke tests; the
randomized equivalence sweep lives in ``test_property_fastpath.py`` and
the quantitative ablation in ``benchmarks/test_ablation_label_cache.py``.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.core import (
    FLOW_INTEGRITY_FAIL,
    FLOW_OK,
    FLOW_SECRECY_FAIL,
    AuditKind,
    CapabilitySet,
    Label,
    LabelPair,
    RegionViolation,
    SecrecyViolation,
    check_flow,
    fastpath,
    flow_verdict,
)
from repro.jit import Compiler, Interpreter, JITConfig, compile_source
from repro.osim import Kernel, LaminarSecurityModule
from repro.runtime import LaminarAPI, LaminarVM
from repro.runtime.barriers import BarrierStats, cached_check_flow


class TestInterning:
    def test_equal_tag_sets_share_one_instance(self, tags):
        a, b, _ = tags
        assert Label.of(a, b) is Label.of(b, a)
        assert Label.of(a) is Label.of(a)

    def test_empty_label_is_canonical(self):
        assert Label() is Label.EMPTY
        assert Label.of() is Label.EMPTY
        assert Label.empty() is Label.EMPTY

    def test_set_algebra_lands_on_interned_instances(self, tags):
        a, b, c = tags
        assert Label.of(a).union(Label.of(b)) is Label.of(a, b)
        assert Label.of(a, b, c).difference(Label.of(c)) is Label.of(a, b)
        assert Label.of(a, b).intersection(Label.of(b, c)) is Label.of(b)
        assert Label.of(a).with_tag(b) is Label.of(a, b)
        assert Label.of(a, b).without_tag(b) is Label.of(a)

    def test_interning_off_still_value_equal(self, tags):
        a, b, _ = tags
        with fastpath.configured(label_interning=False):
            x, y = Label.of(a, b), Label.of(b, a)
            assert x is not y
            assert x == y
            assert x.union(Label.of(a)) == Label.of(a, b)

    def test_validating_constructor_rejects_non_tags(self):
        with pytest.raises(TypeError):
            Label(["not-a-tag"])

    def test_fast_constructor_skips_validation_but_interns(self, tags):
        a, b, _ = tags
        built = Label._from_normalized(tuple(sorted((a, b))))
        assert built is Label.of(a, b)

    def test_deepcopy_returns_canonical_instance(self, tags):
        """copy/pickle must not clobber interned state (the default slots
        protocol would reconstruct via ``__new__`` — which interning
        resolves to an existing canonical instance — and then overwrite
        that instance's state in place)."""
        a, _, _ = tags
        label = Label.of(a)
        assert copy.deepcopy(label) is not None
        assert Label.EMPTY.is_empty, "deepcopy corrupted the empty label"
        assert copy.deepcopy(label) == label
        assert pickle.loads(pickle.dumps(label)) == label
        pair = LabelPair(label)
        assert copy.deepcopy(pair) == pair
        assert LabelPair.EMPTY.is_empty


class TestFlowVerdictCache:
    def test_repeat_checks_hit(self, tags):
        a, _, _ = tags
        src = LabelPair(Label.of(a))
        dst = LabelPair(Label.of(a))
        assert flow_verdict(src, dst) == FLOW_OK
        before = fastpath.counters.verdict_hits
        assert flow_verdict(src, dst) == FLOW_OK
        assert fastpath.counters.verdict_hits == before + 1

    def test_failures_cached_with_correct_verdict(self, tags):
        a, b, _ = tags
        secret = LabelPair(Label.of(a))
        low_integrity = LabelPair(Label.EMPTY, Label.of(b))
        assert flow_verdict(secret, LabelPair.EMPTY) == FLOW_SECRECY_FAIL
        assert flow_verdict(secret, LabelPair.EMPTY) == FLOW_SECRECY_FAIL
        assert flow_verdict(LabelPair.EMPTY, low_integrity) == FLOW_INTEGRITY_FAIL

    def test_cache_off_reevaluates_rules(self, tags):
        a, _, _ = tags
        src = LabelPair(Label.of(a))
        dst = LabelPair(Label.of(a))
        with fastpath.configured(flow_verdict_cache=False):
            check_flow(src, dst)
            before = fastpath.counters.rule_evaluations
            check_flow(src, dst)
            assert fastpath.counters.rule_evaluations > before

    def test_configure_rejects_unknown_switch(self):
        with pytest.raises(ValueError):
            fastpath.configure(warp_drive=True)

    def test_configured_restores_flags(self):
        assert fastpath.flags.flow_verdict_cache
        with fastpath.configured(flow_verdict_cache=False):
            assert not fastpath.flags.flow_verdict_cache
        assert fastpath.flags.flow_verdict_cache

    def test_value_equal_pairs_share_one_entry_without_interning(self, tags):
        """Keyed on the pairs' values, not their identities: with
        interning off, distinct but equal pairs meet at one entry, and
        unequal pairs never do."""
        a, b, _ = tags
        with fastpath.configured(label_interning=False):
            src = LabelPair(Label.of(a))
            src_twin = LabelPair(Label.of(a))
            dst = LabelPair(Label.of(a, b))
            dst_twin = LabelPair(Label.of(b, a))
            assert src is not src_twin and dst is not dst_twin
            assert flow_verdict(src, dst) == FLOW_OK
            hits = fastpath.counters.verdict_hits
            assert flow_verdict(src_twin, dst_twin) == FLOW_OK
            assert fastpath.counters.verdict_hits == hits + 1
            misses = fastpath.counters.verdict_misses
            assert flow_verdict(dst, src) == FLOW_SECRECY_FAIL
            assert flow_verdict(src, LabelPair(Label.of(b))) == FLOW_SECRECY_FAIL
            assert fastpath.counters.verdict_misses == misses + 2


class TestBarrierVerdictMemo:
    """VM barriers answer from the one flow-verdict memo, keyed on the
    (source, dest) label pairs: no per-thread cache, no label epoch."""

    def _labeled_header(self, vm, label):
        return vm.barriers.alloc_barrier(
            vm.current_thread, LabelPair(label)
        )

    def test_repeat_barrier_checks_hit(self, vm):
        api = LaminarAPI(vm)
        tag = api.create_and_add_capability("t")
        stats = vm.barriers.stats
        with vm.region(secrecy=Label.of(tag), caps=CapabilitySet.dual(tag)):
            thread = vm.current_thread
            header = self._labeled_header(vm, Label.of(tag))
            vm.barriers.read_barrier(thread, header)
            hits = stats.flow_cache_hits
            verdict_hits = fastpath.counters.verdict_hits
            vm.barriers.read_barrier(thread, header)
            vm.barriers.read_barrier(thread, header)
            assert stats.flow_cache_hits == hits + 2
            assert fastpath.counters.verdict_hits == verdict_hits + 2

    def test_reentry_under_another_tag_still_denies(self, vm):
        """A read proven inside a region under tag ``a`` is not served
        after exit and re-entry under tag ``b``: the key holds both label
        pairs, so the same read misses, denies, and the region audits the
        suppressed violation."""
        api = LaminarAPI(vm)
        a = api.create_and_add_capability("a")
        b = api.create_and_add_capability("b")
        stats = vm.barriers.stats
        caps = CapabilitySet.dual(a, b)
        with vm.region(secrecy=Label.of(a), caps=caps):
            thread = vm.current_thread
            header = self._labeled_header(vm, Label.of(a))
            vm.barriers.read_barrier(thread, header)
            vm.barriers.read_barrier(thread, header)
        assert stats.flow_cache_hits >= 1
        hits = stats.flow_cache_hits
        suppressed = len(vm.audit.entries(AuditKind.REGION_SUPPRESS))
        reached = []
        with vm.region(secrecy=Label.of(b), caps=caps, name="other"):
            vm.barriers.read_barrier(thread, header)
            reached.append(True)
        assert reached == []
        assert stats.flow_cache_hits == hits
        entries = vm.audit.entries(AuditKind.REGION_SUPPRESS)
        assert len(entries) == suppressed + 1
        assert "SecrecyViolation" in str(entries[-1])

    def test_denied_verdict_is_never_answered_as_allowed(self, tags):
        """The memo stores denials too (a nonzero verdict); the inline
        probe must answer only ``FLOW_OK`` and send the rest to
        ``check_flow`` to raise."""
        a, _, _ = tags
        secret = LabelPair(Label.of(a))
        stats = BarrierStats()
        for _ in range(3):
            with pytest.raises(SecrecyViolation):
                cached_check_flow(secret, LabelPair.EMPTY, stats)
        assert flow_verdict(secret, LabelPair.EMPTY) == FLOW_SECRECY_FAIL
        assert stats.flow_cache_hits == 0
        assert stats.flow_cache_misses == 3

    def test_memo_off_always_rechecks(self, vm):
        api = LaminarAPI(vm)
        tag = api.create_and_add_capability("t")
        stats = vm.barriers.stats
        with fastpath.configured(flow_verdict_cache=False):
            with vm.region(secrecy=Label.of(tag), caps=CapabilitySet.dual(tag)):
                thread = vm.current_thread
                header = self._labeled_header(vm, Label.of(tag))
                before = fastpath.counters.rule_evaluations
                vm.barriers.read_barrier(thread, header)
                vm.barriers.read_barrier(thread, header)
                assert fastpath.counters.rule_evaluations >= before + 2
            assert stats.flow_cache_hits == 0
            assert stats.flow_cache_misses == stats.label_checks >= 3


WORKLOAD = """
class Node { value, next }

method main() {
entry:
  const n, 40
  call head, build, n
  call total, sum, head
  print total
  ret total
}

method build(n) {
entry:
  const i, 0
  const head, null
  jmp loop
loop:
  binop cond, lt, i, n
  br cond, body, done
body:
  new node, Node
  putfield node, value, i
  putfield node, next, head
  mov head, node
  const one, 1
  binop i, add, i, one
  jmp loop
done:
  ret head
}

method sum(head) {
entry:
  const total, 0
  mov cur, head
  jmp loop
loop:
  const nullv, null
  binop cond, ne, cur, nullv
  br cond, body, done
body:
  getfield v, cur, value
  binop total, add, total, v
  getfield cur, cur, next
  jmp loop
done:
  ret total
}
"""


#: Labeled statics (the Section 5.1 extension) through every static
#: barrier outcome: ``bump`` reads and writes the {alpha}-labeled static
#: ``s`` inside an alpha region (allowed), ``peek`` reads it inside a
#: beta region (refused; the region suppresses the violation and audits
#: it), and ``main`` ends with an out-of-region read, refused with
#: RegionViolation.  ``step`` touches no static.
LABELED_STATICS = """
region method bump() secrecy(alpha) {
entry:
  getstatic x, s
  const one, 1
  binop x, add, x, one
  putstatic s, x
  print x
  ret
}

region method peek() secrecy(beta) {
entry:
  getstatic x, s
  print x
  ret
}

method step(i) {
entry:
  const one, 1
  binop j, add, i, one
  ret j
}

method main() {
entry:
  const i, 0
  jmp loop
loop:
  const lim, 12
  binop more, lt, i, lim
  br more, body, done
body:
  call _, bump
  call _, peek
  call i, step, i
  jmp loop
done:
  getstatic x, s
  ret x
}
"""


def run_labeled_statics(cfg, policy=None):
    """Run ``LABELED_STATICS`` on a fresh VM.  Returns ``((result or
    exception name, output, executed, barrier stats, audit), interp)``."""
    program, _ = Compiler(cfg, labeled_statics=True, inline=False).compile(
        LABELED_STATICS
    )
    kernel = Kernel(LaminarSecurityModule())
    vm = LaminarVM(kernel)
    vm.current_thread.gain_capabilities(
        CapabilitySet.dual(*program.tags.values())
    )
    interp = Interpreter(program, vm, tier2=policy)
    interp.declare_static("s", LabelPair(Label.of(program.tags["alpha"])))
    try:
        result = interp.run("main")
    except RegionViolation as error:
        result = type(error).__name__
    audit = tuple(str(entry) for entry in kernel.audit.entries())
    return (
        (result, list(interp.output), interp.executed, vm.barriers.stats,
         audit),
        interp,
    )


class TestDispatchTable:
    def _run(self, cfg=JITConfig.STATIC):
        program, _ = compile_source(WORKLOAD, cfg)
        vm = LaminarVM(Kernel())
        interp = Interpreter(program, vm)
        result = interp.run("main")
        return result, list(interp.output), interp.executed, vm.barriers.stats

    def _run_statics(self, cfg):
        return run_labeled_statics(cfg)[0]

    def test_table_and_switch_agree(self):
        for cfg in JITConfig:
            for run in (self._run, self._run_statics):
                with fastpath.configured(dispatch_table=True):
                    on = run(cfg)
                with fastpath.configured(dispatch_table=False):
                    off = run(cfg)
                assert on[0] == off[0], cfg
                assert on[1] == off[1], cfg
                assert on[2] == off[2], f"{cfg}: executed-instruction counts differ"
                assert vars(on[3]) == vars(off[3]), cfg
                assert on[4:] == off[4:], f"{cfg}: audit logs differ"

    def test_labeled_statics_program_reaches_every_outcome(self):
        for cfg in (JITConfig.STATIC, JITConfig.DYNAMIC):
            with fastpath.configured(dispatch_table=False):
                result, output, _, stats, audit = self._run_statics(cfg)
            assert result == "RegionViolation"  # the out-of-region read
            assert output == list(range(1, 13))  # bump only: peek refused
            assert len(audit) == 12
            assert all("peek suppressed" in line for line in audit)
            assert stats.label_checks > 0 and stats.space_checks == 1

    def test_tables_are_built_and_reused(self):
        program, _ = compile_source(WORKLOAD, JITConfig.STATIC, inline=False)
        vm = LaminarVM(Kernel())
        interp = Interpreter(program, vm)
        interp.run("main")
        assert set(program.exec_tables) == {"main", "build", "sum"}
        assert program.table_builds == 3
        tables = dict(program.exec_tables)
        interp.run("main")
        assert all(program.exec_tables[k] is tables[k] for k in tables)
        assert program.table_builds == 3

    def test_tables_are_shared_across_interpreters(self):
        """Tables cache on the *program*, not the interpreter: a second
        interpreter (fresh VM) over the same program must not rebuild."""
        program, _ = compile_source(WORKLOAD, JITConfig.STATIC, inline=False)
        first = Interpreter(program, LaminarVM(Kernel()))
        r1 = first.run("main")
        builds = program.table_builds
        assert builds == 3
        second = Interpreter(program, LaminarVM(Kernel()))
        r2 = second.run("main")
        assert r1 == r2
        assert program.table_builds == builds, (
            "second interpreter rebuilt handler tables"
        )
        assert first.executed == second.executed

    def test_ir_mutation_rebuilds_tables(self):
        """Passes mutate methods in place between runs; the shape stamp
        taken at ``run()`` must drop stale tables."""
        from repro.jit.ir import Instr, Opcode

        program, _ = compile_source(WORKLOAD, JITConfig.BASELINE, inline=False)
        vm = LaminarVM(Kernel())
        interp = Interpreter(program, vm)
        first = interp.run("main")
        stale = program.exec_tables["sum"]
        # Rewrite sum's body: return the constant 9 immediately.
        method = program.method("sum")
        entry = method.blocks[method.entry]
        entry.instrs[:] = [
            Instr(Opcode.CONST, ("total", 9)),
            Instr(Opcode.RET, ("total",)),
        ]
        second = interp.run("main")
        assert first != second
        assert second == 9
        assert program.exec_tables["sum"] is not stale

    def test_verify_static_bypasses_tables(self):
        program, _ = compile_source(WORKLOAD, JITConfig.STATIC)
        vm = LaminarVM(Kernel())
        interp = Interpreter(program, vm, verify_static=True)
        interp.run("main")
        assert not program.exec_tables
