"""Method inlining.

"Although the optimization is intraprocedural, the compiler already
inlines small and hot methods, increasing the scope of redundancy
elimination" (Section 5.1).  This pass inlines non-recursive calls to
small methods so that the barrier-elimination pass can see across the old
call boundary — the interaction the ablation benchmark measures.

Region methods are never inlined: a region is a dynamic scope change the
caller must not absorb (its barriers compile under a different context).

The rewrite for ``call dst, callee, a, b`` splices the callee in with
uniquely renamed registers and labels:

* parameter registers receive ``mov`` copies of the arguments,
* every ``ret v`` becomes ``mov dst, v`` (if ``dst``) + ``jmp`` to a
  fresh continuation block holding the instructions after the call.
"""

from __future__ import annotations

import itertools

from .ir import Instr, Method, Opcode, Program

#: Methods at or below this instruction count are inlined.
DEFAULT_INLINE_THRESHOLD = 24


def _rename_reg(name: str, mapping: dict[str, str], serial: int) -> str:
    if name not in mapping:
        mapping[name] = f"{name}$i{serial}"
    return mapping[name]


def _rewrite_instr(
    instr: Instr,
    reg_map: dict[str, str],
    label_map: dict[str, str],
    serial: int,
) -> Instr:
    """Clone an instruction with registers and labels renamed."""
    op = instr.op
    ops = instr.operands

    def r(name: str) -> str:
        return _rename_reg(name, reg_map, serial)

    if op is Opcode.CONST:
        return Instr(op, (r(ops[0]), ops[1]), instr.flavor)
    if op is Opcode.MOV:
        return Instr(op, (r(ops[0]), r(ops[1])), instr.flavor)
    if op is Opcode.BINOP:
        return Instr(op, (r(ops[0]), ops[1], r(ops[2]), r(ops[3])), instr.flavor)
    if op is Opcode.UNOP:
        return Instr(op, (r(ops[0]), ops[1], r(ops[2])), instr.flavor)
    if op is Opcode.NEW:
        return Instr(op, (r(ops[0]), ops[1]), instr.flavor)
    if op is Opcode.NEWARRAY:
        return Instr(op, (r(ops[0]), r(ops[1])), instr.flavor)
    if op is Opcode.GETFIELD:
        return Instr(op, (r(ops[0]), r(ops[1]), ops[2]), instr.flavor)
    if op is Opcode.PUTFIELD:
        return Instr(op, (r(ops[0]), ops[1], r(ops[2])), instr.flavor)
    if op is Opcode.ALOAD:
        return Instr(op, (r(ops[0]), r(ops[1]), r(ops[2])), instr.flavor)
    if op is Opcode.ASTORE:
        return Instr(op, (r(ops[0]), r(ops[1]), r(ops[2])), instr.flavor)
    if op is Opcode.ARRAYLEN:
        return Instr(op, (r(ops[0]), r(ops[1])), instr.flavor)
    if op is Opcode.GETSTATIC:
        return Instr(op, (r(ops[0]), ops[1]), instr.flavor)
    if op is Opcode.PUTSTATIC:
        return Instr(op, (ops[0], r(ops[1])), instr.flavor)
    if op is Opcode.CALL:
        dst = None if ops[0] is None else r(ops[0])
        return Instr(op, (dst, ops[1], *(r(a) for a in ops[2:])), instr.flavor)
    if op is Opcode.RET:
        value = None if ops[0] is None else r(ops[0])
        return Instr(op, (value,), instr.flavor)
    if op is Opcode.JMP:
        return Instr(op, (label_map[ops[0]],), instr.flavor)
    if op is Opcode.BR:
        return Instr(op, (r(ops[0]), label_map[ops[1]], label_map[ops[2]]), instr.flavor)
    if op is Opcode.PRINT:
        return Instr(op, (r(ops[0]),), instr.flavor)
    if op in (Opcode.READBAR, Opcode.WRITEBAR, Opcode.ALLOCBAR):
        return Instr(op, (r(ops[0]),), instr.flavor)
    raise AssertionError(f"unhandled opcode {op}")


def _inlinable(program: Program, name: str, threshold: int) -> bool:
    callee = program.methods.get(name)
    if callee is None:  # intrinsic
        return False
    if callee.is_region:
        return False
    if callee.instruction_count() > threshold:
        return False
    # No self-recursion (direct); indirect recursion is bounded by the
    # single-pass structure of inline_program.
    for instr in callee.all_instrs():
        if instr.op is Opcode.CALL and instr.operands[1] == name:
            return False
    return True


def inline_method_calls(
    program: Program, method: Method, threshold: int, counter: itertools.count
) -> int:
    """Inline eligible call sites in ``method``.  Returns call sites
    inlined.  Single pass: newly exposed calls (from the inlined body) are
    not revisited, which bounds growth."""
    inlined = 0
    work_labels = list(method.blocks)
    for label in work_labels:
        block = method.blocks[label]
        index = 0
        while index < len(block.instrs):
            instr = block.instrs[index]
            if instr.op is not Opcode.CALL or not _inlinable(
                program, instr.operands[1], threshold
            ):
                index += 1
                continue
            callee = program.methods[instr.operands[1]]
            serial = next(counter)
            reg_map: dict[str, str] = {}
            label_map = {
                lbl: f"{lbl}$i{serial}" for lbl in callee.blocks
            }
            cont_label = f"cont$i{serial}"
            dst = instr.operands[0]
            args = instr.operands[2:]
            # 1. argument copies
            prologue = [
                Instr(Opcode.MOV, (_rename_reg(p, reg_map, serial), a))
                for p, a in zip(callee.params, args)
            ]
            # 2. continuation block receives the remainder of this block
            cont = method.add_block(cont_label)
            cont.instrs = block.instrs[index + 1 :]
            # 3. current block: prologue + jump into the callee's entry
            block.instrs = block.instrs[:index] + prologue + [
                Instr(Opcode.JMP, (label_map[callee.entry],))
            ]
            # 4. splice renamed callee blocks, rewriting rets
            for lbl, cblock in callee.blocks.items():
                spliced = method.add_block(label_map[lbl])
                for cinstr in cblock.instrs:
                    if cinstr.op is Opcode.RET:
                        value = cinstr.operands[0]
                        if dst is not None and value is not None:
                            spliced.instrs.append(
                                Instr(
                                    Opcode.MOV,
                                    (dst, _rename_reg(value, reg_map, serial)),
                                )
                            )
                        spliced.instrs.append(Instr(Opcode.JMP, (cont_label,)))
                    else:
                        spliced.instrs.append(
                            _rewrite_instr(cinstr, reg_map, label_map, serial)
                        )
            inlined += 1
            # Continue scanning in the continuation block.
            block = cont
            label = cont_label
            index = 0
    return inlined


def inline_program(
    program: Program, threshold: int = DEFAULT_INLINE_THRESHOLD
) -> int:
    """Inline small callees across the whole program (one pass per
    method).  Returns total call sites inlined."""
    counter = itertools.count(1)
    total = 0
    for method in list(program.methods.values()):
        total += inline_method_calls(program, method, threshold, counter)
    return total
