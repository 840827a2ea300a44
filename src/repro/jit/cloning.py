"""Method cloning: two compiled variants per method.

"A production implementation would use cloning to compile two versions of
methods executed from both contexts; the same approach is used in prior
work on software transactional memory.  Static barriers add the same
overhead that cloning would achieve" (Section 5.1).

:func:`clone_for_contexts` duplicates every non-region method into an
``<name>`` (out-of-region) and ``<name>$in`` (in-region) variant *before*
barrier insertion, and rewrites call sites so each variant calls the
matching variants of its callees.  Region methods get a single in-region
body; calls *into* a region method are the context switch, so both variants
call the same region method.

The interpreter's :class:`~repro.jit.interpreter.StaleCompilationError`
never fires on a cloned program: every call path reaches the variant whose
static assumption matches reality, which is exactly the paper's claim that
cloning retains static-barrier cost while supporting both contexts.
"""

from __future__ import annotations

from .ir import Instr, Method, Opcode, Program

IN_SUFFIX = "$in"


def _clone_method(method: Method, new_name: str, in_region: bool) -> Method:
    clone = Method(new_name, method.params, is_region=method.is_region)
    clone.region_spec = method.region_spec
    for label, block in method.blocks.items():
        new_block = clone.add_block(label)
        for instr in block.instrs:
            if instr.op is Opcode.CALL:
                dst, callee, *args = instr.operands
                new_block.instrs.append(
                    Instr(Opcode.CALL, (dst, (callee, in_region), *args), instr.flavor)
                )
            else:
                new_block.instrs.append(
                    Instr(instr.op, instr.operands, instr.flavor)
                )
    clone.entry = method.entry
    return clone


def clone_for_contexts(program: Program) -> Program:
    """Return a new program where every non-region method exists in an
    out-of-region and an in-region variant.

    Call operands are first rewritten to ``(name, in_region_flag)`` pairs
    and then resolved to concrete variant names, so the result is a plain
    program the barrier inserter and interpreter understand.
    """
    cloned = Program()
    cloned.classes = dict(program.classes)
    for method in program.methods.values():
        if method.is_region:
            # One body; region bodies always run in-region.
            region_clone = _clone_method(method, method.name, True)
            cloned.add_method(region_clone)
        else:
            cloned.add_method(_clone_method(method, method.name, False))
            cloned.add_method(
                _clone_method(method, method.name + IN_SUFFIX, True)
            )
    # Resolve (name, flag) call targets to concrete method names.
    for method in cloned.methods.values():
        for block in method.blocks.values():
            for i, instr in enumerate(block.instrs):
                if instr.op is not Opcode.CALL:
                    continue
                dst, target, *args = instr.operands
                name, in_region = target
                callee = program.methods.get(name)
                if callee is None or callee.is_region:
                    resolved = name  # intrinsic or region: single variant
                elif in_region:
                    resolved = name + IN_SUFFIX
                else:
                    resolved = name
                block.instrs[i] = Instr(
                    Opcode.CALL, (dst, resolved, *args), instr.flavor
                )
    return cloned


def clone_count(program: Program) -> int:
    """How many in-region clones a program carries (compile-cost metric)."""
    return sum(1 for name in program.methods if name.endswith(IN_SUFFIX))
