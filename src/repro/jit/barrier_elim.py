"""Redundant barrier elimination (Section 5.1).

"Because object labels are immutable and security regions cannot change
their labels, repeated barriers and checks on the same object are
redundant.  We implement an intraprocedural, flow-sensitive data-flow
analysis that identifies redundant barriers and removes them.  A read (or
write) barrier is redundant if the object has been read (written), or if
the object was allocated, along every incoming path."

Implementation: a forward *must* analysis over facts ``(register, kind)``
meaning "the object currently in ``register`` has already passed a
``kind`` barrier (or was freshly allocated) on every path to here".

Kill rules keep the analysis sound without alias tracking:

* redefining a register kills its facts (the register may now hold a
  different object);
* ``mov dst, src`` *copies* facts from ``src`` to ``dst`` (same object);
* allocation generates both read and write facts for the destination —
  fresh objects carry the region's own labels, so every check passes;
* calls kill nothing: object labels are immutable and a method's region
  context cannot change under it (regions are lexically scoped), so a
  callee cannot invalidate a caller's checks.

A read fact does **not** imply a write fact or vice versa: the secrecy and
integrity comparisons point in opposite directions.
"""

from __future__ import annotations

from .barrier_insertion import BARRIER_OPS
from .cfg import CFG
from .dataflow import ForwardMustAnalysis
from .ir import ALLOC_OPS, Instr, Method, Opcode, Program

#: Fact kinds.
READ = "read"
WRITE = "write"


#: Prefix marking static-barrier facts; cannot collide with registers
#: (identifiers never contain NUL).
_STATIC_KEY = "\0static\0"


def _transfer(instr: Instr, facts: frozenset) -> frozenset:
    op = instr.op
    if op is Opcode.READBAR:
        return facts | {(instr.operands[0], READ)}
    if op is Opcode.WRITEBAR:
        return facts | {(instr.operands[0], WRITE)}
    if op is Opcode.SREADBAR:
        # static labels are fixed at declaration, so the fact is permanent
        # within the method (no register redefinition can kill it)
        return facts | {(_STATIC_KEY + instr.operands[0], READ)}
    if op is Opcode.SWRITEBAR:
        return facts | {(_STATIC_KEY + instr.operands[0], WRITE)}
    if op in ALLOC_OPS or op is Opcode.ALLOCBAR:
        dst = instr.operands[0]
        pruned = frozenset(f for f in facts if f[0] != dst)
        return pruned | {(dst, READ), (dst, WRITE)}
    if op is Opcode.MOV:
        dst, src = instr.operands
        pruned = frozenset(f for f in facts if f[0] != dst)
        copied = {(dst, kind) for (reg, kind) in facts if reg == src}
        return pruned | frozenset(copied)
    defined = instr.defined_register()
    if defined is not None:
        return frozenset(f for f in facts if f[0] != defined)
    return facts


def eliminate_redundant_barriers_method(
    method: Method, entry_facts: frozenset = frozenset()
) -> int:
    """Remove provably redundant barriers from one method, in place.
    Returns the number of barriers removed.

    ``entry_facts`` seeds the analysis at method entry with facts proven
    to hold at *every* call site — the whole-program analysis in
    :mod:`repro.analysis.safety` computes them; plain intraprocedural
    elimination passes none."""
    cfg = CFG(method)
    analysis: ForwardMustAnalysis = ForwardMustAnalysis(
        cfg, _transfer, boundary=entry_facts
    )
    analysis.solve()
    removed = 0
    for label, block in method.blocks.items():
        facts_before = analysis.facts_before_each_instr(label)
        kept: list[Instr] = []
        for instr, facts in zip(block.instrs, facts_before):
            if instr.op is Opcode.READBAR and (instr.operands[0], READ) in facts:
                removed += 1
                continue
            if instr.op is Opcode.WRITEBAR and (instr.operands[0], WRITE) in facts:
                removed += 1
                continue
            if instr.op is Opcode.SREADBAR and (
                _STATIC_KEY + instr.operands[0], READ
            ) in facts:
                removed += 1
                continue
            if instr.op is Opcode.SWRITEBAR and (
                _STATIC_KEY + instr.operands[0], WRITE
            ) in facts:
                removed += 1
                continue
            kept.append(instr)
        block.instrs = kept
    return removed


def eliminate_redundant_barriers(program: Program) -> int:
    """Run the elimination over every method; returns total removed."""
    return sum(
        eliminate_redundant_barriers_method(m) for m in program.methods.values()
    )


def eliminate_interprocedural_barriers(program: Program) -> int:
    """Whole-program elimination: remove barriers whose check provably
    already ran in *every caller* (facts crossing call edges, subject to
    the flavor-compatibility rules in :mod:`repro.analysis.safety`).

    Run after :func:`eliminate_redundant_barriers` — intraprocedural
    removal never destroys facts (a removed barrier was redundant, so its
    fact was already present), and this pass then removes what only
    cross-call knowledge can prove.  Returns the number removed."""
    # Imported lazily: repro.analysis builds on this module.
    from ..analysis.safety import compute_interprocedural_facts

    facts = compute_interprocedural_facts(program)
    removed = 0
    for name, method in program.methods.items():
        redundant = set(facts.redundant_barriers(name))
        if not redundant:
            continue
        for label, block in method.blocks.items():
            kept = [
                instr
                for index, instr in enumerate(block.instrs)
                if (label, index) not in redundant
            ]
            removed += len(block.instrs) - len(kept)
            block.instrs = kept
    return removed


def eliminate_certified_barriers(
    program: Program, labeled_statics: bool = False
) -> int:
    """Certificate-driven elimination: delete *every* barrier in methods
    the security-type certifier fully discharges.

    Strictly subsumes the interprocedural pass: that pass removes a
    barrier when its specific check provably already ran, while a
    certificate proves every check in the method passes (or is a no-op)
    in every reachable context — so whole methods go barrier-free,
    including the allocation barriers no redundancy argument can touch.
    Label races void certificates (see :mod:`repro.analysis.races`):
    a method two threads can drive under different label contexts keeps
    its barriers even when each context individually discharges.

    Records the certified set on ``program.certified_methods`` (which
    ``lamc compile`` reports).  Returns the number of barrier
    instructions removed."""
    # Imported lazily: repro.analysis builds on this module.
    from ..analysis.callgraph import CallGraph
    from ..analysis.races import detect_races
    from ..analysis.typecheck import typecheck_program

    cg = CallGraph(program)
    races = detect_races(program, cg)
    result = typecheck_program(
        program, labeled_statics=labeled_statics, callgraph=cg, races=races
    )
    certified = result.certified()
    removed = 0
    for name in certified:
        method = program.methods[name]
        for block in method.blocks.values():
            kept = [
                instr for instr in block.instrs
                if instr.op not in BARRIER_OPS
            ]
            removed += len(block.instrs) - len(kept)
            block.instrs = kept
    program.certified_methods = certified
    return removed


def count_barriers(program: Program) -> int:
    """Static barrier count (for the ablation benchmark's reporting)."""
    total = 0
    for method in program.methods.values():
        for instr in method.all_instrs():
            if instr.op in (
                Opcode.READBAR, Opcode.WRITEBAR, Opcode.ALLOCBAR,
                Opcode.SREADBAR, Opcode.SWRITEBAR,
            ):
                total += 1
    return total
