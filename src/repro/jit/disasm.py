"""Disassembler: turn IR programs back into assembler text.

Useful for debugging passes (the compiler tour example prints with it) and
for golden tests: for programs containing no compiler-internal barrier
instructions, ``parse_program(disassemble(p))`` reproduces ``p`` exactly
(the round-trip property test in ``tests/test_jit_disasm.py``).

Barrier pseudo-instructions render with a ``;`` comment flavor suffix and
are *not* re-parseable by design — hand-written programs must not contain
them.
"""

from __future__ import annotations

from .ir import Instr, Method, Opcode, Program


def _format_value(value: object) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    return repr(value)


def format_instr(instr: Instr) -> str:
    """One instruction as assembler text."""
    op, ops = instr.op, instr.operands
    if op is Opcode.CONST:
        return f"const {ops[0]}, {_format_value(ops[1])}"
    if op is Opcode.CALL:
        dst = "_" if ops[0] is None else ops[0]
        rest = ", ".join([ops[1], *ops[2:]])
        return f"call {dst}, {rest}"
    if op is Opcode.RET:
        return "ret" if ops[0] is None else f"ret {ops[0]}"
    if op in (Opcode.READBAR, Opcode.WRITEBAR, Opcode.ALLOCBAR,
              Opcode.SREADBAR, Opcode.SWRITEBAR):
        flavor = f"  ; {instr.flavor.value}" if instr.flavor else ""
        return f"{op.value} {ops[0]}{flavor}"
    rendered = ", ".join(str(o) for o in ops)
    return f"{op.value} {rendered}"


def _region_attrs(method: Method) -> str:
    """Render declared region attributes (``secrecy(..) integrity(..)
    catch(..)``) so parser-declared specs survive the round trip."""
    spec = method.region_spec
    if spec is None or not method.is_region:
        return ""
    parts = []
    if not spec.secrecy.is_empty:
        parts.append(f"secrecy({', '.join(str(t) for t in spec.secrecy)})")
    if not spec.integrity.is_empty:
        parts.append(f"integrity({', '.join(str(t) for t in spec.integrity)})")
    if spec.catch is not None:
        parts.append(f"catch({spec.catch})")
    return " " + " ".join(parts) if parts else ""


def disassemble_method(method: Method) -> str:
    if method.is_region:
        keyword = "region method"
    elif method.is_declassifier:
        keyword = "declassifier method"
    else:
        keyword = "method"
    attrs = _region_attrs(method)
    lines = [f"{keyword} {method.name}({', '.join(method.params)}){attrs} {{"]
    for label, block in method.blocks.items():
        lines.append(f"{label}:")
        for instr in block.instrs:
            lines.append(f"  {format_instr(instr)}")
    lines.append("}")
    return "\n".join(lines)


def disassemble(program: Program) -> str:
    """The whole program as assembler text (classes first)."""
    parts = []
    for name, fields in program.classes.items():
        parts.append(f"class {name} {{ {', '.join(fields)} }}")
    for method in program.methods.values():
        parts.append(disassemble_method(method))
    return "\n\n".join(parts) + "\n"


def disassemble_tiers(program: Program, policy=None) -> str:
    """Per-method tier report (``lamc disasm --tiers``).

    For every method: the execution tier it starts in and the thresholds
    that promote it, the barrier flavors tier-2 would bake into the
    template, the superinstruction pairs fusion would form, the guarded
    entry points (call-entry guard plus OSR loop headers), and how many
    call sites link straight to their callee's compiled variant and how
    many re-dispatch through the engine (calls to region methods).  A
    method with a labeled-statics barrier is reported as staying on the
    handler tables.
    """
    from .tier2 import TierPolicy, plan_method

    if policy is None:
        policy = program.tier_policy or TierPolicy()
    lines = []
    tiered = program.tier_policy is not None
    lines.append(
        f"tier pipeline: interp -> table -> jit "
        f"(invocations >= {policy.invocation_threshold} or "
        f"back-edges >= {policy.backedge_threshold}; "
        f"fusion {'on' if policy.fusion else 'off'}; "
        f"{'attached' if tiered else 'not attached — plan only'})"
    )
    for method in program.methods.values():
        plan = plan_method(method, program, policy)
        lines.append("")
        kind = "region method" if plan.is_region else "method"
        lines.append(f"{kind} {method.name}:")
        if not plan.compilable:
            lines.append("  stays on the handler tables: labeled-statics "
                         "barriers are not compiled")
            continue
        if plan.barrier_flavors:
            flavors = ", ".join(
                f"{name} x{count}"
                for name, count in sorted(plan.barrier_flavors.items())
            )
        else:
            flavors = "none"
        lines.append(f"  baked barriers: {flavors}")
        if plan.fused:
            for label, index, fused_kind in plan.fused:
                lines.append(f"  fused: {label}+{index} {fused_kind}")
        else:
            lines.append("  fused: none")
        guards = ["entry (context key)"]
        guards += [f"osr @{label}" for label in plan.loop_headers]
        lines.append(f"  guards: {', '.join(guards)}")
        lines.append(
            f"  call sites: {plan.linked_calls} linked, "
            f"{plan.redispatched_calls} re-dispatched"
        )
    return "\n".join(lines) + "\n"
