"""Tier-2 template JIT: hot methods become exec-compiled Python.

The paper's enforcement story (Section 5.1) lives in the *compiler*: the
JIT picks a static or dynamic barrier variant per method and recovers —
by cloning or by dynamic barriers — when the compiled assumption goes
stale.  This module reproduces that adaptive layer as a tiered execution
engine over the mini-JIT IR:

Tier 0/1 (:mod:`repro.jit.interpreter`)
    The switch loop and the per-method handler tables.  With a
    :class:`Tier2Engine` attached they also *profile*: method invocations
    are counted at :meth:`Tier2Engine.call`, back-edges at the jump
    points of both dispatch loops.  Profiles live on the program
    (:class:`~repro.jit.ir.Tier2State`), so every interpreter over it
    counts into the same ones: a method called once per run compiles
    after enough runs.

Tier 2 (this module)
    A hot method's IR is translated to one Python function (``exec``'d
    once, cached on the :class:`~repro.jit.ir.Program`) with registers as
    Python locals, block dispatch as a ``while`` loop over a balanced
    comparison tree on the block index (ceil(log2 n) compares per jump),
    and — the Laminar-specific part — the *static* barrier variant for
    the label shape observed at compile time baked straight into the
    code: an in-region barrier probes the flow-verdict memo inline on
    the object's labels and a baked-in
    :class:`~repro.core.labels.LabelPair` constant, and only a miss or a
    recorded denial calls :func:`~repro.runtime.barriers.cached_check_flow`;
    an out-region barrier tests ``header.oid`` against the labeled space
    inline; ``DYNAMIC`` flavors specialize to the guarded context while
    still counting their dispatch (so
    :class:`~repro.runtime.barriers.BarrierStats` stay byte-identical
    across tiers).  ``new`` and ``newarray`` build their unlabeled header
    and field dict inline.  Superinstruction fusion optionally collapses
    the hot pairs ``getfield``+``binop`` and ``binop``+``cjump`` into
    single statements.  A method with a labeled-statics barrier
    (``sreadbar``/``swritebar``) is never compiled: it stays on the
    handler tables, which run those barriers.

Bookkeeping once per block
    The generated function is ``_t2(ctx, regs, _entry, *params)``: the
    engine and linked call sites pass the arguments in place, and only
    OSR passes the interpreter's register dict.  Every count the
    interpreter keeps — ``executed``, the barrier counters, heap
    allocations, verdict-memo hits, tier-2 entries from linked sites —
    lives in a local; a block adds its static counts once, on entry, and
    the function's ``finally`` flushes them all.  A raise stays exact: the
    ``except`` finds the raising line by ``tb_lineno`` in a per-line table
    built at code generation and takes back what the block never reached
    (and, for a header load that faults, the barrier's dispatch and check,
    which the interpreter counts only once the header is loaded).

Guards and deoptimization
    Compiled code is entered through the code cache, whose key *is* the
    guard: ``("out",)``, ``("in", labels)``, or ``("region", labels)`` —
    looked up against the calling thread's actual region context at every
    engine call (and at OSR points).  A miss when a different variant
    exists is a *deopt*: the call runs in the interpreter (never raising
    :class:`~repro.jit.interpreter.StaleCompilationError` — that failure
    mode belongs to the static prototype, not the tiered engine), and
    after :attr:`TierPolicy.deopt_recompile_threshold` such misses the
    engine compiles the method again for the new context, as the variant
    ``name$in`` — the paper's "a production implementation would use
    cloning".  No IR copy is made: the method's own IR serves every
    variant.  Region-method bodies are compiled per observed in-region
    label pair, so nested entries and mutated
    :class:`~repro.jit.ir.RegionSpec`\\ s each get (and guard) their own
    variant.

Linked call sites
    Inside a variant the context is fixed, so a ``call`` to a non-region
    method knows its callee's key at compile time: ``("out",)`` callers
    call ``("out",)``, ``("in", L)`` and ``("region", L)`` callers call
    ``("in", L)``.  The site reads a per-(callee, key) link cell on the
    program's tier-2 state, which :meth:`Tier2Engine._compile` fills when
    that variant is compiled; from then on the site enters it directly,
    doing :meth:`Tier2Engine.call`'s bookkeeping inline.  Until then — and
    always for region callees, whose entry is an enforcement point — the
    site calls the engine, the one slow path.

Cache invalidation
    The tier-2 state is validated per :meth:`Interpreter.run` against the
    program's shape stamp, with the handler tables (IR passes mutate
    methods in place): a moved stamp discards compiled bodies, their
    links and the profiles wholesale.  Nothing else does.  A
    :func:`repro.core.fastpath.configure` or
    :func:`~repro.core.fastpath.clear_caches` leaves the code cache
    alone: compiled bodies read no switch, and their baked label pairs
    are used by value — as cache and verdict-memo keys and as the labels
    of fresh objects — never by identity.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..core import LabelPair, RegionViolation, fastpath
from ..core.rules import _VERDICTS, FLOW_OK
from ..runtime.barriers import cached_check_flow
from ..runtime.heap import ObjectHeader
from .cloning import IN_SUFFIX
from .interpreter import _BINOPS, _OUT_OF_REGION_MSG, IRArray, IRObject, Interpreter
from .ir import BarrierFlavor, Method, Opcode, Program

__all__ = [
    "TierPolicy",
    "Tier2Engine",
    "CompiledMethod",
    "TierPlan",
    "plan_method",
    "find_fused_pairs",
]

#: Cap on compiled context variants per method: beyond this the method is
#: megamorphic over label shapes and further contexts just interpret.
MAX_VARIANTS = 4

#: The single out-of-region context key (no labels to specialize on:
#: "outside a security region threads always have empty labels").
_OUT_KEY = ("out",)

#: Labeled-statics barriers: tier 2 declines any method carrying one.
_STATIC_BARRIERS = frozenset({Opcode.SREADBAR, Opcode.SWRITEBAR})

# -- policy / profile ---------------------------------------------------------


@dataclass(frozen=True)
class TierPolicy:
    """Thresholds and switches for the tiered engine.

    Attach via ``Compiler(tier="jit")`` (which stores a policy on the
    program) or pass directly to :class:`~repro.jit.interpreter.Interpreter`.
    """

    #: Method invocations before the entry path compiles it.
    invocation_threshold: int = 12
    #: Back-edges taken (per method) before OSR compiles mid-invocation.
    backedge_threshold: int = 60
    #: Entry-guard misses before the opposite-context clone is compiled.
    deopt_recompile_threshold: int = 2
    #: Superinstruction fusion: collapse ``getfield``+``binop`` and
    #: ``binop``+``cjump`` pairs into single statements, and inline binop
    #: operators (``div`` keeps its helper: its int/float behavior needs
    #: the function).  Off = one statement per IR instruction through the
    #: bound-function table.
    fusion: bool = True


class MethodProfile:
    """Cheap per-method counters maintained by the profiling tier."""

    __slots__ = ("invocations", "backedges", "deopts")

    def __init__(self) -> None:
        self.invocations = 0
        self.backedges = 0
        self.deopts = 0


def _profile(profiles: dict, name: str) -> MethodProfile:
    profile = profiles.get(name)
    if profile is None:
        profile = profiles[name] = MethodProfile()
    return profile


class CompiledMethod:
    """One exec-compiled context variant of a method; ``entry`` is the
    block index of the method's entry block."""

    __slots__ = ("fn", "entry_index", "entry", "fused_pairs")

    def __init__(
        self, fn: Callable, entry_index: dict[str, int], entry: int,
        fused_pairs: dict,
    ) -> None:
        self.fn = fn
        self.entry_index = entry_index
        self.entry = entry
        self.fused_pairs = fused_pairs


# -- structural analysis ------------------------------------------------------


def backedge_targets(method: Method) -> frozenset:
    """Loop-header labels: targets of edges that go backwards (or to the
    same block) in block order.  These are the OSR entry points."""
    order = {label: i for i, label in enumerate(method.blocks)}
    targets = set()
    for label, block in method.blocks.items():
        for succ in block.successors():
            if order.get(succ, len(order)) <= order[label]:
                targets.add(succ)
    return frozenset(targets)


def find_fused_pairs(method: Method, reads: Optional[dict] = None) -> dict:
    """Locate fusable superinstruction pairs: ``(block label, index of the
    first instruction) -> kind``.

    A pair fuses only when strictly adjacent and when the producing
    register is read exactly once in the whole method (by the consumer),
    so skipping its materialization is unobservable.  ``reads`` (register
    -> reads in the method) is counted here unless the caller has it.
    """
    if reads is None:
        reads = {}
        for instr in method.all_instrs():
            for r in instr.used_registers():
                reads[r] = reads.get(r, 0) + 1
    pairs: dict = {}
    for label, block in method.blocks.items():
        instrs = block.instrs
        i = 0
        while i < len(instrs) - 1:
            a, b = instrs[i], instrs[i + 1]
            kind = None
            if a.op is Opcode.GETFIELD and b.op is Opcode.BINOP:
                t = a.operands[0]
                if reads.get(t, 0) == 1 and (
                    (b.operands[2] == t) != (b.operands[3] == t)
                ):
                    kind = "getfield+binop"
            elif a.op is Opcode.BINOP and b.op is Opcode.BR:
                t = a.operands[0]
                if b.operands[0] == t and reads.get(t, 0) == 1:
                    kind = "binop+cjump"
            if kind is not None:
                pairs[(label, i)] = kind
                i += 2
            else:
                i += 1
    return pairs


def has_static_barrier(method: Method) -> bool:
    """Whether ``method`` guards a labeled static (tier 2 declines it)."""
    return any(instr.op in _STATIC_BARRIERS for instr in method.all_instrs())


def linked_callee(program: Program, instr) -> Optional[Method]:
    """The callee a compiled ``call`` site links to, or ``None`` when the
    site always re-dispatches through the engine: a region callee (region
    entry is an enforcement point), and a call that fails at run time (no
    such method, wrong arity), so it fails the same way on every path."""
    callee = program.methods.get(instr.operands[1])
    if (
        callee is None
        or callee.is_region
        or len(callee.params) != len(instr.operands) - 2
    ):
        return None
    return callee


@dataclass
class TierPlan:
    """What tier-2 would do with one method (``lamc disasm --tiers``)."""

    method: str
    is_region: bool
    #: False when a labeled-statics barrier keeps the method on the
    #: handler tables.
    compilable: bool
    barrier_flavors: dict[str, int]
    fused: list[tuple[str, int, str]]
    #: Call sites that jump straight to their callee's variant once it is
    #: compiled, and call sites that always go through the engine.
    linked_calls: int
    redispatched_calls: int
    loop_headers: tuple[str, ...]


def plan_method(method: Method, program: Program, policy: TierPolicy) -> TierPlan:
    flavors: dict[str, int] = {}
    linked = redispatched = 0
    for instr in method.all_instrs():
        if instr.flavor is not None:
            flavors[instr.flavor.value] = flavors.get(instr.flavor.value, 0) + 1
        if instr.op is Opcode.CALL:
            if linked_callee(program, instr) is None:
                redispatched += 1
            else:
                linked += 1
    fused = find_fused_pairs(method) if policy.fusion else {}
    return TierPlan(
        method=method.name,
        is_region=method.is_region,
        compilable=not has_static_barrier(method),
        barrier_flavors=flavors,
        fused=[(label, i, kind) for (label, i), kind in sorted(fused.items())],
        linked_calls=linked,
        redispatched_calls=redispatched,
        loop_headers=tuple(sorted(backedge_targets(method))),
    )


# -- template code generation -------------------------------------------------

_PYOPS = {
    "add": "+", "sub": "-", "mul": "*", "mod": "%",
    "lt": "<", "le": "<=", "gt": ">", "ge": ">=",
    "eq": "==", "ne": "!=",
    "band": "&", "bor": "|", "bxor": "^", "shl": "<<", "shr": ">>",
    # "div" deliberately absent: its int//int-else-/ behavior needs the
    # bound function even under fusion.
}

#: The counters a compiled body keeps in locals, each with the object and
#: field its ``finally`` flushes it into.  A block adds its static counts
#: to them once, on entry.
_COUNTERS = (
    ("_ex", "ctx.interp", "executed"),
    ("_rb", "_stats", "read_barriers"),
    ("_wb", "_stats", "write_barriers"),
    ("_ab", "_stats", "alloc_barriers"),
    ("_dd", "_stats", "dynamic_dispatches"),
    ("_lc", "_stats", "label_checks"),
    ("_sc", "_stats", "space_checks"),
    ("_na", "_hs", "allocations"),
)
#: A raise takes back counts by column, one per ``_COUNTERS`` entry.
_COLUMNS = tuple(name for name, _, _ in _COUNTERS)
_COLUMN = {name: i for i, name in enumerate(_COLUMNS)}

_TERMINATORS = (Opcode.RET, Opcode.JMP, Opcode.BR)


def _literal(value: Any) -> Optional[str]:
    if isinstance(value, float) and (value != value or value in (
        float("inf"), float("-inf")
    )):
        return None  # inf/nan repr is not a literal; bind as a constant
    if value is None or isinstance(value, (bool, int, float, str)):
        return repr(value)
    return None


class _Codegen:
    """Translate one method body to Python source for one context key.

    The key is the guarded context the code is specialized to: out of
    region, or in a region with the key's label pair.  Barrier flavors
    stay faithful to the IR (a STATIC_OUT barrier in in-region code still
    runs the out-variant, exactly as the interpreter executes it), while
    DYNAMIC flavors specialize to the context but keep counting their
    dispatch.  The key also fixes the context every non-region callee
    runs in, so call sites link to that one variant of their callee.
    """

    def __init__(
        self, method: Method, program: Program, key: tuple, fusion: bool
    ) -> None:
        self.method = method
        self.program = program
        self.in_region = key[0] != "out"
        self.fusion = fusion
        self.region_body = method.is_region
        #: Callees of this variant run in its context: ("out",) stays
        #: ("out",); ("in", L) and ("region", L) both call ("in", L).
        self.callee_key = ("in", key[1]) if self.in_region else _OUT_KEY
        self.globals: dict[str, Any] = {
            "_TL": key[1] if self.in_region else LabelPair.EMPTY,
            "_EMPTY": LabelPair.EMPTY,
            "_RV": RegionViolation,
            "_cflow": cached_check_flow,
            "_vg": _VERDICTS.get,
            "_OH": ObjectHeader,
            "_IRObject": IRObject,
            "_IRArray": IRArray,
            "_fpc": fastpath.counters,
        }
        self.prologue: set[str] = set()
        #: The current block's lines, each ``(text, fault)``: ``fault`` is
        #: what a raise on the line takes back beyond the units after it
        #: (see ``_object_barrier``).
        self.lines: list[tuple] = []
        #: The current block's static counts so far, per ``_COUNTERS``.
        self.reached = [0] * len(_COUNTERS)
        #: Which ``_COUNTERS`` any block of the method adds to.
        self.used = [False] * len(_COUNTERS)
        self.probes = False
        self.linked = False
        self._const_n = 0
        # Registers -> collision-free local names, deterministic order;
        # the same walk counts reads for superinstruction fusion.
        names: list[str] = list(method.params)
        seen = set(names)
        reads: dict[str, int] = {}
        for instr in method.all_instrs():
            uses = instr.used_registers()
            for r in uses:
                reads[r] = reads.get(r, 0) + 1
            for r in (instr.defined_register(), *uses):
                if r is not None and r not in seen:
                    seen.add(r)
                    names.append(r)
        self.fused = find_fused_pairs(method, reads) if fusion else {}
        self.locals: dict[str, str] = {}
        used = set()
        for name in names:
            base = "v_" + "".join(
                c if (c.isalnum() or c == "_") else "_" for c in name
            )
            cand, i = base, 0
            while cand in used:
                i += 1
                cand = f"{base}_{i}"
            used.add(cand)
            self.locals[name] = cand
        # Block indices follow block order: the dispatch tree reaches any
        # index in at most ceil(log2 n) compares, so order does not matter.
        self.entry_index = {label: i for i, label in enumerate(method.blocks)}

    # -- small helpers ----------------------------------------------------

    def R(self, reg: str) -> str:
        return self.locals[reg]

    def bind(self, name: str, value: Any) -> str:
        self.globals[name] = value
        return name

    def const(self, value: Any) -> str:
        lit = _literal(value)
        if lit is not None:
            return lit
        self._const_n += 1
        return self.bind(f"_K{self._const_n}", value)

    def binop_expr(self, opname: str, a: str, b: str) -> str:
        if self.fusion and opname in _PYOPS:
            return f"({a} {_PYOPS[opname]} {b})"
        fn = self.bind(f"_op_{opname}", _BINOPS[opname])
        return f"{fn}({a}, {b})"

    def link(self, callee: str) -> tuple[str, str]:
        """Bind the program's link cell for ``callee`` in this variant's
        callee context, and the callee's profile, as globals."""
        state = self.program.tier2
        key = (callee, self.callee_key)
        cell = state.links.setdefault(key, [state.cache.get(key)])
        self._const_n += 1
        return (
            self.bind(f"_L{self._const_n}", cell),
            self.bind(f"_P{self._const_n}", _profile(state.profiles, callee)),
        )

    def emit(self, line: str, fault: Optional[dict] = None) -> None:
        self.lines.append((line, fault))

    def count(self, counter: str, n: int = 1) -> None:
        """Add ``n`` to the block's static count of ``counter``."""
        self.reached[_COLUMN[counter]] += n

    # -- barrier sequences ------------------------------------------------

    def _object_barrier(self, instr, reg: str, is_read: bool) -> None:
        self.count("_rb" if is_read else "_wb")
        flavor = instr.flavor
        if flavor is BarrierFlavor.DYNAMIC:
            self.count("_dd")
            variant_in = self.in_region
        else:
            variant_in = flavor is BarrierFlavor.STATIC_IN
        check = "_lc" if variant_in else "_sc"
        self.count(check)
        # The header load can fault (a null register).  The interpreter
        # has then counted the barrier but not its dispatch or check,
        # which come after the load; the line that loads it takes those
        # back.
        fault = {check: 1}
        if flavor is BarrierFlavor.DYNAMIC:
            fault["_dd"] = 1
        labels = f"{self.R(reg)}.header.labels"
        if variant_in:
            # The verdict memo answers an allowed flow inline; a miss or a
            # recorded denial goes to cached_check_flow, which counts the
            # miss and raises the precise violation.  ``_fm`` counts the
            # checks the probe did not answer, so the hits flushed on
            # exit are ``_lc - _fm``.
            self.probes = True
            self.prologue.add("_stats")
            src, dest = (labels, "_TL") if is_read else ("_TL", labels)
            what = "IR read" if is_read else "IR write"
            self.emit(f"if _vg(({src}, {dest})) != {FLOW_OK!r}:", fault)
            self.emit("    _fm += 1")
            self.emit(f"    _cflow({src}, {dest}, _stats, context={what!r})")
        else:
            self.prologue.add("_ls")
            self.emit(f"if {self.R(reg)}.header.oid in _ls:", fault)
            self.emit(f"    raise _RV({_OUT_OF_REGION_MSG!r})")

    def _alloc_barrier(self, instr, reg: str) -> None:
        self.count("_ab")
        flavor = instr.flavor
        if flavor is BarrierFlavor.DYNAMIC:
            self.count("_dd")
            variant_in = self.in_region
        else:
            variant_in = flavor is BarrierFlavor.STATIC_IN
        if variant_in:
            self.emit(f"_heap.label_fresh({self.R(reg)}.header, _TL)")
            self.prologue.add("_heap")

    # -- per-instruction emission -----------------------------------------

    def emit_instr(self, instr) -> None:
        """One non-terminator instruction as statement(s)."""
        op = instr.op
        ops = instr.operands
        R = self.R
        if op is Opcode.CONST:
            self.emit(f"{R(ops[0])} = {self.const(ops[1])}")
        elif op is Opcode.MOV:
            self.emit(f"{R(ops[0])} = {R(ops[1])}")
        elif op is Opcode.NEW:
            # Heap.allocate_header for an unlabeled object, inline: a
            # header, and the allocation counted with the block's counts.
            self.count("_na")
            fields = ", ".join(
                f"{name!r}: 0" for name in self.program.classes[ops[1]]
            )
            self.emit(
                f"{R(ops[0])} = _IRObject(_OH(_EMPTY), {ops[1]!r}, {{{fields}}})"
            )
        elif op is Opcode.GETSTATIC:
            self.prologue.add("_statics")
            self.emit(f"{R(ops[0])} = _statics.get({ops[1]!r}, 0)")
        elif op is Opcode.PUTSTATIC:
            self.prologue.add("_statics")
            self.emit(f"_statics[{ops[0]!r}] = {R(ops[1])}")
        elif op is Opcode.PRINT:
            self.prologue.add("_out")
            self.emit(f"_out.append({R(ops[0])})")
        elif op is Opcode.BINOP:
            self.emit(
                f"{R(ops[0])} = {self.binop_expr(ops[1], R(ops[2]), R(ops[3]))}"
            )
        elif op is Opcode.UNOP:
            expr = f"-{R(ops[2])}" if ops[1] == "neg" else f"not {R(ops[2])}"
            self.emit(f"{R(ops[0])} = {expr}")
        elif op is Opcode.NEWARRAY:
            # The header comes first, as in Heap.allocate_header: a bad
            # length raises after the allocation counted.
            self.count("_na")
            self.emit(f"{R(ops[0])} = _IRArray(_OH(_EMPTY), [0] * {R(ops[1])})")
        elif op is Opcode.GETFIELD:
            self.emit(f"{R(ops[0])} = {R(ops[1])}.fields[{ops[2]!r}]")
        elif op is Opcode.PUTFIELD:
            self.emit(f"{R(ops[0])}.fields[{ops[1]!r}] = {R(ops[2])}")
        elif op is Opcode.ALOAD:
            self.emit(f"{R(ops[0])} = {R(ops[1])}.items[{R(ops[2])}]")
        elif op is Opcode.ASTORE:
            self.emit(f"{R(ops[0])}.items[{R(ops[1])}] = {R(ops[2])}")
        elif op is Opcode.ARRAYLEN:
            self.emit(f"{R(ops[0])} = len({R(ops[1])}.items)")
        elif op is Opcode.CALL:
            self.prologue.update(("_call", "_method"))
            args = [R(a) for a in ops[2:]]
            dest = f"{R(ops[0])} = " if ops[0] is not None else ""
            call = f"{dest}_call(_method({ops[1]!r}), [{', '.join(args)}])"
            if linked_callee(self.program, instr) is None:
                self.emit(call)
                return
            # Linked site: once the callee's variant for this context is
            # compiled, enter it directly with its arguments in place and
            # Tier2Engine.call's bookkeeping inline (the entry counters
            # flush on exit); until then, go through the engine.
            cell, profile = self.link(ops[1])
            self.linked = True
            self.prologue.update(("_stats", "_eng"))
            for line in (
                f"_c = {cell}[0]",
                "if _c is None:",
                f"    {call}",
                "else:",
                f"    {profile}.invocations += 1",
                "    _te += 1",
                f"    {dest}_c.fn(ctx, None, _c.entry{''.join(', ' + a for a in args)})",
            ):
                self.emit(line)
        elif op is Opcode.READBAR:
            self._object_barrier(instr, ops[0], is_read=True)
        elif op is Opcode.WRITEBAR:
            self._object_barrier(instr, ops[0], is_read=False)
        elif op is Opcode.ALLOCBAR:
            self._alloc_barrier(instr, ops[0])
        else:  # pragma: no cover - exhaustive
            raise AssertionError(f"unhandled opcode {op}")

    def emit_terminator(self, instr) -> None:
        op, ops = instr.op, instr.operands
        if op is Opcode.RET:
            # `break` leaves the dispatch loop and the `try` by its one
            # normal exit: a `return` inside the `try` would get its own
            # copy of the `finally` flush.  Region bodies return nothing
            # (the engine holds the region context manager).
            if not self.region_body:
                value = self.R(ops[0]) if ops[0] is not None else "None"
                self.emit(f"_rv = {value}")
            self.emit("break")
        elif op is Opcode.JMP:
            self.emit(f"_label = {self.entry_index[ops[0]]}")
            self.emit("continue")
        elif op is Opcode.BR:
            t, f = self.entry_index[ops[1]], self.entry_index[ops[2]]
            self.emit(f"_label = {t} if {self.R(ops[0])} else {f}")
            self.emit("continue")
        else:  # pragma: no cover
            raise AssertionError(f"bad terminator {op}")

    def emit_fused(self, kind: str, a, b) -> None:
        """One fused superinstruction pair: a single statement accounting
        for both instructions (``executed`` parity holds on non-faulting
        paths; a fault inside the pair attributes both at once)."""
        R = self.R
        if kind == "binop+cjump":
            # The pair ends the block: branch directly on the comparison.
            expr = self.binop_expr(a.operands[1], R(a.operands[2]), R(a.operands[3]))
            t = self.entry_index[b.operands[1]]
            f = self.entry_index[b.operands[2]]
            self.emit(f"_label = {t} if {expr} else {f}")
            self.emit("continue")
        elif kind == "getfield+binop":
            load = f"{R(a.operands[1])}.fields[{a.operands[2]!r}]"
            t = a.operands[0]
            if b.operands[2] == t:
                expr = self.binop_expr(b.operands[1], load, R(b.operands[3]))
            else:
                expr = self.binop_expr(b.operands[1], R(b.operands[2]), load)
            self.emit(f"{R(b.operands[0])} = {expr}")
        else:  # pragma: no cover
            raise AssertionError(kind)

    # -- whole-function assembly ------------------------------------------

    def block(self, label: str, instrs: list) -> list[tuple]:
        """One block's lines: its static counts added once on entry, then
        one unit (an instruction or a fused pair) after another.  Each
        line carries, by ``_COLUMNS``, what a raise there takes back (the
        counts of every unit after the line's own, and its ``fault``), or
        ``None`` when that is nothing."""
        self.lines = []
        self.reached = [0] * len(_COUNTERS)
        #: (first line, counts once the unit ran), one per unit.
        units: list[tuple[int, tuple]] = []
        i = 0
        while i < len(instrs):
            start = len(self.lines)
            kind = self.fused.get((label, i))
            if kind is not None:
                self.count("_ex", 2)
                self.emit_fused(kind, instrs[i], instrs[i + 1])
                i += 2
            else:
                instr = instrs[i]
                self.count("_ex")
                if instr.op in _TERMINATORS:
                    self.emit_terminator(instr)
                else:
                    self.emit_instr(instr)
                i += 1
            units.append((start, tuple(self.reached)))
        last = instrs[-1] if instrs else None
        if last is None or (
            last.op not in _TERMINATORS
            and self.fused.get((label, len(instrs) - 2)) != "binop+cjump"
        ):
            # Should be unreachable after normalize(); mirror the
            # interpreter's fell-off-the-end assertion.
            units.append((len(self.lines), tuple(self.reached)))
            self.emit(f"raise AssertionError('block {label} fell off the end')")
        total = self.reached
        body = []
        for col, n in enumerate(total):
            if n:
                self.used[col] = True
                body.append((f"{_COLUMNS[col]} += {n}", None))
        ends = [start for start, _ in units[1:]] + [len(self.lines)]
        for (start, reached), end in zip(units, ends):
            row = tuple(map(operator.sub, total, reached))
            shared = row if any(row) else None
            for text, fault in self.lines[start:end]:
                if fault:
                    own = list(row)
                    for name, n in fault.items():
                        own[_COLUMN[name]] += n
                    body.append((text, tuple(own)))
                else:
                    body.append((text, shared))
        return body

    def generate(self) -> tuple[str, dict[str, Any]]:
        bodies = [
            self.block(label, block.instrs)
            for label, block in self.method.blocks.items()
        ]
        used = [i for i, flag in enumerate(self.used) if flag]
        names = [_COLUMNS[i] for i in used]
        self.prologue.update(
            _COUNTERS[i][1] for i in used if _COUNTERS[i][1] != "ctx.interp"
        )
        prologue_map = {
            "_stats": "ctx.stats",
            "_heap": "ctx.heap",
            "_hs": "ctx.heap.stats",
            "_ls": "ctx.heap._labeled_space",
            "_statics": "ctx.statics",
            "_out": "ctx.output",
            "_call": "ctx.interp._call",
            "_method": "ctx.program.method",
            "_eng": "ctx.interp._tier2",
        }
        params = [self.R(p) for p in self.method.params]
        others = [v for v in self.locals.values() if v not in params]
        src = ["def _t2(ctx, regs, _entry" + "".join(
            f", {p}=None" for p in params) + "):"]
        for name in sorted(self.prologue):
            src.append(f"    {name} = {prologue_map[name]}")
        # OSR passes the interpreter's register dict, and only at a loop
        # header; every other entry passes the parameters in place.
        pad = "    "
        if self.locals and backedge_targets(self.method):
            src.append("    if regs is not None:")
            src.append("        _rg = regs.get")
            for reg, local in self.locals.items():
                src.append(f"        {local} = _rg({reg!r})")
            if others:
                src.append("    else:")
            pad = "        "
        if others:
            src.append(f"{pad}{' = '.join(others)} = None")
        locals_ = names + ["_fm"] * self.probes + ["_te"] * self.linked
        src.append(f"    {' = '.join(locals_ or ['_ex'])} = 0")
        src.append("    try:")
        src.append("        _label = _entry")
        src.append(f"        if not 0 <= _label < {len(bodies)}:")
        src.append("            raise AssertionError('unknown tier-2 block index')")
        src.append("        while True:")
        unreached: dict[int, tuple] = {}
        _dispatch_tree(src, bodies, 0, len(bodies), 12, unreached)
        if unreached:
            # A raise leaves the block part-way: take back the counts of
            # what it never reached, found by the line that raised.
            src.append("    except BaseException as _e:")
            src.append("        _back(ctx, _UN, _e)")
            src.append("        raise")
            self.bind("_UN", unreached)
            self.bind("_back", _take_back)
        src.append("    finally:")
        for i in used:
            name, owner, field = _COUNTERS[i]
            src.append(f"        {owner}.{field} += {name}")
        if self.probes:
            src.append("        _stats.flow_cache_hits += _lc - _fm")
            src.append("        _fpc.verdict_hits += _lc - _fm")
        if self.linked:
            for target in ("_stats.tier2_entries", "_fpc.tier2_entries",
                           "_eng.entries"):
                src.append(f"        {target} += _te")
        src.append("    return None" if self.region_body else "    return _rv")
        return "\n".join(src) + "\n", self.globals


def _take_back(ctx: Any, unreached: dict, error: BaseException) -> None:
    """A compiled body is raising ``error``: subtract the take-back row of
    the line that raised (found by its number in the body's frame) from
    the counters the body's ``finally`` is about to flush its locals
    into, so the flush adds only what the block reached."""
    row = unreached.get(error.__traceback__.tb_lineno)
    if row is None:
        return
    owners = {"ctx.interp": ctx.interp, "_stats": ctx.stats,
              "_hs": ctx.heap.stats}
    for (_, owner, field), n in zip(_COUNTERS, row):
        if n:
            target = owners[owner]
            setattr(target, field, getattr(target, field) - n)
    # The flush adds ``_lc - _fm`` memo hits; no check it takes back was
    # answered either way.
    hits = row[_COLUMN["_lc"]]
    ctx.stats.flow_cache_hits -= hits
    fastpath.counters.verdict_hits -= hits


def _dispatch_tree(
    out: list[str], bodies: list[list], lo: int, hi: int, indent: int,
    unreached: dict[int, tuple],
) -> None:
    """Emit block bodies ``lo..hi-1`` under a balanced comparison tree on
    ``_label``: reaching any of ``n`` blocks costs ceil(log2 n) compares.
    Records, by source line, what a raise there takes back."""
    pad = " " * indent
    if hi - lo == 1:
        for text, row in bodies[lo]:
            out.append(pad + text)
            if row is not None:
                unreached[len(out)] = row
        return
    mid = (lo + hi) // 2
    out.append(f"{pad}if _label < {mid}:")
    _dispatch_tree(out, bodies, lo, mid, indent + 4, unreached)
    out.append(f"{pad}else:")
    _dispatch_tree(out, bodies, mid, hi, indent + 4, unreached)


def compile_method(
    method: Method, program: Program, key: tuple, fusion: bool
) -> CompiledMethod:
    """Translate ``method`` to its variant for context ``key`` (see module
    doc).  An ``("in", labels)`` variant is the per-context clone of
    Section 5.1 and is named ``name$in``."""
    gen = _Codegen(method, program, key, fusion)
    source, glob = gen.generate()
    name = method.name + IN_SUFFIX if key[0] == "in" else method.name
    # The generated code's free names are baked constants bound in its
    # own globals, so it runs with no per-call environment lookups.
    exec(compile(source, f"<tier2:{name}>", "exec"), glob)
    return CompiledMethod(
        glob["_t2"], gen.entry_index, gen.entry_index[method.entry], gen.fused
    )


# -- the engine ---------------------------------------------------------------


class Tier2Engine:
    """The guard/deopt protocol for one interpreter, over its program's
    tier-2 state.

    Compiled code and the profiles that decide what to compile live on
    the program (:class:`~repro.jit.ir.Tier2State`), so every interpreter
    over it warms the same methods.  The engine itself keeps only
    per-interpreter event counters (``lamc run``'s tier-2 line).
    """

    def __init__(self, interp: Interpreter, policy: TierPolicy) -> None:
        self.interp = interp
        self.policy = policy
        self.program = interp.program
        self.state = self.program.tier2
        self.compiles = 0
        self.entries = 0
        self.deopts = 0
        self.osr_entries = 0

    # -- profiling + dispatch ---------------------------------------------

    def call(self, method: Method, args: list) -> Any:
        """Every call but a linked compiled site's: interpreted call sites,
        ``run`` and ``join``, compiled sites whose callee variant does not
        exist yet, and calls to region methods."""
        state = self.state
        profile = _profile(state.profiles, method.name)
        profile.invocations += 1
        if method.is_region:
            return self._call_region(method, args, profile)
        thread = self.interp.vm.current_thread
        key = ("in", thread.labels) if thread.in_region else _OUT_KEY
        compiled = state.cache.get((method.name, key))
        if compiled is None:
            compiled = self._maybe_compile(method, key, profile)
        if compiled is None:
            return self.interp._call_cold(method, args)
        return self._enter(compiled, None, compiled.entry, args)

    def _call_region(
        self, method: Method, args: list, profile: MethodProfile
    ) -> None:
        """Region prologue/epilogue live in the engine: enter the region,
        then dispatch the *body* on the label pair actually observed
        inside (nesting-proof, and spec mutations change the key)."""
        interp = self.interp
        with interp._region_for(method):
            key = ("region", interp.vm.current_thread.labels)
            compiled = self.state.cache.get((method.name, key))
            if compiled is None:
                compiled = self._maybe_compile(method, key, profile)
            if compiled is None:
                interp._execute(method, args)
            else:
                self._enter(compiled, None, compiled.entry, args)
        return None

    def _enter(
        self, compiled: CompiledMethod, regs: Optional[dict], entry: int,
        args: Any = (),
    ) -> Any:
        """Run ``compiled`` from block index ``entry``: with the
        arguments in place, or with OSR's register dict."""
        stats = self.interp.vm.barriers.stats
        stats.tier2_entries += 1
        fastpath.counters.tier2_entries += 1
        self.entries += 1
        return compiled.fn(self.interp.ctx, regs, entry, *args)

    def _maybe_compile(
        self, method: Method, key: tuple, profile: MethodProfile
    ) -> Optional[CompiledMethod]:
        if method.name in self.state.uncompilable:
            return None
        existing = self.state.variants.get(method.name)
        if existing:
            # Entry-guard miss: compiled code exists, but for a different
            # region context / label shape.  Deoptimize to the interpreter
            # (never raise StaleCompilationError); recompile this context
            # as its own clone once the misses repeat.
            profile.deopts += 1
            self.deopts += 1
            self.interp.vm.barriers.stats.tier2_deopts += 1
            fastpath.counters.tier2_deopts += 1
            if len(existing) >= MAX_VARIANTS:
                return None
            if profile.deopts < self.policy.deopt_recompile_threshold:
                return None
            return self._compile(method, key)
        policy = self.policy
        if (
            profile.invocations >= policy.invocation_threshold
            or profile.backedges >= policy.backedge_threshold
        ):
            return self._compile(method, key)
        return None

    def _compile(self, method: Method, key: tuple) -> Optional[CompiledMethod]:
        state = self.state
        if has_static_barrier(method):
            # Labeled-statics barriers are not compiled: the method keeps
            # running on the handler tables, which implement them.
            state.uncompilable.add(method.name)
            return None
        try:
            compiled = compile_method(method, self.program, key, self.policy.fusion)
        except Exception:
            # Codegen must never take execution down: mark and interpret.
            state.uncompilable.add(method.name)
            return None
        state.cache[(method.name, key)] = compiled
        state.variants.setdefault(method.name, set()).add(key)
        link = state.links.get((method.name, key))
        if link is not None:
            # Compiled call sites waiting for this variant now enter it.
            link[0] = compiled
        self.compiles += 1
        fastpath.counters.tier2_compiles += 1
        if key[0] == "in":
            # The per-context clone of Section 5.1, compiled for the
            # in-region label shape that kept deopting.
            fastpath.counters.tier2_clones += 1
        return compiled

    # -- OSR --------------------------------------------------------------

    def osr_probe(self, method: Method) -> Optional[Callable]:
        """A per-invocation back-edge hook for the interpreter loops.

        Returns ``None`` for loop-free methods (zero overhead); otherwise
        a closure the dispatch loop calls at every taken jump.  The
        closure counts back-edges and, past the threshold, compiles for
        the *current* context and transfers execution into the compiled
        body at the loop header (on-stack replacement) — returning the
        method result wrapped in a 1-tuple.
        """
        state = self.state
        targets = state.backedges.get(method.name)
        if targets is None:
            targets = state.backedges[method.name] = backedge_targets(method)
        if not targets:
            return None
        profile = _profile(state.profiles, method.name)
        policy = self.policy
        thread = self.interp.vm.current_thread

        def probe(label: str, regs: dict) -> Optional[tuple]:
            if label not in targets:
                return None
            profile.backedges += 1
            if profile.backedges < policy.backedge_threshold:
                return None
            if method.name in state.uncompilable:
                return None
            if method.is_region:
                key: tuple = ("region", thread.labels)
            elif thread.in_region:
                key = ("in", thread.labels)
            else:
                key = _OUT_KEY
            compiled = state.cache.get((method.name, key))
            if compiled is None:
                existing = state.variants.get(method.name)
                if existing and len(existing) >= MAX_VARIANTS:
                    return None
                compiled = self._compile(method, key)
                if compiled is None:
                    return None
            self.osr_entries += 1
            fastpath.counters.tier2_osr_entries += 1
            result = self._enter(compiled, regs, compiled.entry_index[label])
            return (result,)

        return probe
