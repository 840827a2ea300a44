"""The IR interpreter: executes compiled programs against a Laminar VM.

The interpreter plays the role of the Jikes RVM execution engine for the
mini-JIT: it runs the (possibly instrumented) IR, executing barrier
pseudo-instructions with exactly the semantics of
:mod:`repro.runtime.barriers` and accounting them into the VM's
:class:`~repro.runtime.barriers.BarrierStats`, so the Fig. 8 harness reads
one set of counters regardless of which layer did the work.

Barrier flavors at execution time:

* ``STATIC_IN`` / ``STATIC_OUT`` run the single compiled-in variant.  If
  the *actual* thread context disagrees with the compiled assumption the
  interpreter raises :class:`StaleCompilationError` — this is the paper's
  observation that the static-barrier prototype "fails if a method is
  called from both within and without a security region" (method cloning
  or dynamic barriers are the fixes).
* ``DYNAMIC`` pays a context test (counted as a dynamic dispatch), then
  runs the right variant.

Region methods execute inside a security region built from the method's
:class:`~repro.jit.ir.RegionSpec` (:meth:`Interpreter._region_for`); the
static region checker has already guaranteed they return nothing.

Execution tiers.  :meth:`Interpreter._execute` dispatches either through
the plain switch loop (tier 0) or per-method handler tables (tier 1,
``fastpath.flags.dispatch_table``).  Handler tables are built once per
*program* — not per interpreter — and cached on it keyed by the program's
shape stamp; everything owned by one interpreter/VM (heap, stats, statics,
the executing thread) reaches the shared closures through an
:class:`ExecContext`.  When the program carries a
:class:`~repro.jit.tier2.TierPolicy` (``Compiler(tier="jit")`` /
``lamc --tier2``), a :class:`~repro.jit.tier2.Tier2Engine` profiles method
invocations here and back-edges in both dispatch loops, and promotes hot
methods to exec-compiled Python specialized to the observed label shape
(tier 2); see :mod:`repro.jit.tier2` for the guard/deopt protocol.
"""

from __future__ import annotations

from typing import Any, Optional

from ..core import LabelPair, RegionViolation, VMPanic, fastpath
from ..runtime.barriers import cached_check_flow
from ..runtime.vm import LaminarVM
from .ir import BarrierFlavor, Instr, Method, Opcode, Program, RegionSpec


class StaleCompilationError(VMPanic):
    """A statically compiled barrier executed in the opposite context."""


class IRObject:
    """Heap object payload: header + named fields."""

    __slots__ = ("header", "classname", "fields")

    def __init__(self, header: Any, classname: str, fields: dict[str, Any]) -> None:
        self.header = header
        self.classname = classname
        self.fields = fields

    def __repr__(self) -> str:
        return f"IRObject({self.classname}#{self.header.oid})"


class IRArray:
    """Heap array payload: header + items."""

    __slots__ = ("header", "items")

    def __init__(self, header: Any, items: list[Any]) -> None:
        self.header = header
        self.items = items

    def __repr__(self) -> str:
        return f"IRArray(#{self.header.oid}, len={len(self.items)})"


class IRThreadHandle:
    """A spawned-but-not-joined IR thread.

    The mini-JIT executes threads *join-synchronously*: ``spawn`` creates
    the VM thread (outside any region, like :meth:`LaminarVM.create_thread`
    requires) and captures the call; ``join`` runs the body to completion
    as that thread, then ends the thread.  Execution is therefore
    deterministic — one fixed interleaving out of the many a preemptive
    scheduler could choose — which is exactly why the *static* race
    detector (:mod:`repro.analysis.races`) exists: it reasons about every
    interleaving, not just the one the interpreter picks.
    """

    __slots__ = ("callee", "args", "thread", "done")

    def __init__(self, callee: str, args: list[Any], thread: Any) -> None:
        self.callee = callee
        self.args = args
        self.thread = thread
        self.done = False

    def __repr__(self) -> str:
        state = "joined" if self.done else "pending"
        return f"IRThreadHandle({self.callee}, {state})"


_BINOPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a // b if isinstance(a, int) and isinstance(b, int) else a / b,
    "mod": lambda a, b: a % b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "band": lambda a, b: a & b,
    "bor": lambda a, b: a | b,
    "bxor": lambda a, b: a ^ b,
    "shl": lambda a, b: a << b,
    "shr": lambda a, b: a >> b,
}

_UNOPS = {
    "neg": lambda a: -a,
    "not": lambda a: not a,
}

#: Sentinel marking a handler's "return from method" result; handlers
#: return ``None`` (fall through), a block label (jump), or ``(_RET, v)``.
_RET = object()

#: The out-of-region static-barrier violation text.  Byte-compared across
#: execution tiers (it lands in REGION_SUPPRESS audit records), so there
#: is exactly one copy.
_OUT_OF_REGION_MSG = "IR access to labeled object outside any security region"


class ExecContext:
    """Per-interpreter state threaded through the shared handler tables.

    Handler closures (and tier-2 compiled bodies) are cached on the
    :class:`~repro.jit.ir.Program` and shared by every interpreter over
    it, so anything owned by one interpreter/VM — heap, stats, statics,
    the executing thread — travels through this object instead of being
    closed over at table-build time.  ``thread`` is maintained by
    :meth:`Interpreter._execute_table` exactly like the old thread cell.
    """

    __slots__ = (
        "interp", "program", "heap", "stats", "statics", "output",
        "labeled", "thread",
    )

    def __init__(self, interp: "Interpreter") -> None:
        self.interp = interp
        self.program = interp.program
        self.heap = interp.vm.heap
        self.stats = interp.vm.barriers.stats
        self.statics = interp.statics
        self.output = interp.output
        self.labeled = interp.vm.heap.is_labeled
        self.thread = None


def build_handler_table(method: Method, program: Program) -> dict[str, list]:
    """Bind one handler closure per instruction, at method load.

    Operand decoding, opcode dispatch, field-list lookups, and BINOP
    function resolution all happen here, once per program (tables are
    cached on the :class:`~repro.jit.ir.Program`, keyed by its shape
    stamp).  Barrier handlers keep reading ``instr.flavor`` at run time
    (lint/elimination passes flip flavors in place), and CALL resolves
    its callee per execution (a method table must not pin another
    method's identity); everything else is baked.  Handlers receive
    ``(regs, ctx)`` where ``ctx`` is the executing interpreter's
    :class:`ExecContext`.
    """
    table: dict[str, list] = {}
    for block_label, block in method.blocks.items():
        handlers: list = []
        for instr in block.instrs:
            op = instr.op
            ops = instr.operands
            if op is Opcode.CONST:
                def h(regs, ctx, d=ops[0], v=ops[1]):
                    regs[d] = v
            elif op is Opcode.MOV:
                def h(regs, ctx, d=ops[0], s=ops[1]):
                    regs[d] = regs[s]
            elif op is Opcode.BINOP:
                def h(regs, ctx, d=ops[0], fn=_BINOPS[ops[1]], a=ops[2], b=ops[3]):
                    regs[d] = fn(regs[a], regs[b])
            elif op is Opcode.UNOP:
                def h(regs, ctx, d=ops[0], fn=_UNOPS[ops[1]], a=ops[2]):
                    regs[d] = fn(regs[a])
            elif op is Opcode.NEW:
                fields = tuple(program.classes[ops[1]])
                def h(regs, ctx, d=ops[0], cname=ops[1], fields=fields):
                    header = ctx.heap.allocate_header(LabelPair.EMPTY)
                    regs[d] = IRObject(header, cname, dict.fromkeys(fields, 0))
            elif op is Opcode.NEWARRAY:
                def h(regs, ctx, d=ops[0], n=ops[1]):
                    header = ctx.heap.allocate_header(LabelPair.EMPTY)
                    regs[d] = IRArray(header, [0] * regs[n])
            elif op is Opcode.GETFIELD:
                def h(regs, ctx, d=ops[0], o=ops[1], f=ops[2]):
                    regs[d] = regs[o].fields[f]
            elif op is Opcode.PUTFIELD:
                def h(regs, ctx, o=ops[0], f=ops[1], v=ops[2]):
                    regs[o].fields[f] = regs[v]
            elif op is Opcode.ALOAD:
                def h(regs, ctx, d=ops[0], arr=ops[1], i=ops[2]):
                    regs[d] = regs[arr].items[regs[i]]
            elif op is Opcode.ASTORE:
                def h(regs, ctx, arr=ops[0], i=ops[1], v=ops[2]):
                    regs[arr].items[regs[i]] = regs[v]
            elif op is Opcode.ARRAYLEN:
                def h(regs, ctx, d=ops[0], arr=ops[1]):
                    regs[d] = len(regs[arr].items)
            elif op is Opcode.GETSTATIC:
                def h(regs, ctx, d=ops[0], name=ops[1]):
                    regs[d] = ctx.statics.get(name, 0)
            elif op is Opcode.PUTSTATIC:
                def h(regs, ctx, name=ops[0], v=ops[1]):
                    ctx.statics[name] = regs[v]
            elif op is Opcode.READBAR:
                def h(regs, ctx, r=ops[0], instr=instr):
                    stats = ctx.stats
                    stats.read_barriers += 1
                    header = regs[r].header
                    flavor = instr.flavor
                    if flavor is BarrierFlavor.STATIC_OUT:
                        stats.space_checks += 1
                        if ctx.labeled(header):
                            raise RegionViolation(_OUT_OF_REGION_MSG)
                    elif flavor is BarrierFlavor.STATIC_IN:
                        stats.label_checks += 1
                        cached_check_flow(
                            header.labels, ctx.thread.labels,
                            stats, context="IR read",
                        )
                    else:
                        ctx.interp._barrier(instr, header, is_read=True)
            elif op is Opcode.WRITEBAR:
                def h(regs, ctx, r=ops[0], instr=instr):
                    stats = ctx.stats
                    stats.write_barriers += 1
                    header = regs[r].header
                    flavor = instr.flavor
                    if flavor is BarrierFlavor.STATIC_OUT:
                        stats.space_checks += 1
                        if ctx.labeled(header):
                            raise RegionViolation(_OUT_OF_REGION_MSG)
                    elif flavor is BarrierFlavor.STATIC_IN:
                        stats.label_checks += 1
                        cached_check_flow(
                            ctx.thread.labels, header.labels,
                            stats, context="IR write",
                        )
                    else:
                        ctx.interp._barrier(instr, header, is_read=False)
            elif op is Opcode.ALLOCBAR:
                def h(regs, ctx, r=ops[0], instr=instr):
                    ctx.stats.alloc_barriers += 1
                    flavor = instr.flavor
                    if flavor is BarrierFlavor.STATIC_IN:
                        ctx.heap.label_fresh(regs[r].header, ctx.thread.labels)
                    elif flavor is not BarrierFlavor.STATIC_OUT:
                        ctx.interp._alloc_barrier(instr, regs[r].header)
            elif op is Opcode.SREADBAR:
                def h(regs, ctx, name=ops[0], instr=instr):
                    ctx.stats.read_barriers += 1
                    ctx.interp._static_barrier(instr, name, is_read=True)
            elif op is Opcode.SWRITEBAR:
                def h(regs, ctx, name=ops[0], instr=instr):
                    ctx.stats.write_barriers += 1
                    ctx.interp._static_barrier(instr, name, is_read=False)
            elif op is Opcode.CALL:
                def h(regs, ctx, d=ops[0], callee=ops[1], argnames=ops[2:]):
                    result = ctx.interp._call(
                        ctx.program.method(callee), [regs[a] for a in argnames]
                    )
                    if d is not None:
                        regs[d] = result
            elif op is Opcode.PRINT:
                def h(regs, ctx, s=ops[0]):
                    ctx.output.append(regs[s])
            elif op is Opcode.SPAWN:
                def h(regs, ctx, d=ops[0], callee=ops[1], argnames=ops[2:]):
                    regs[d] = ctx.interp._spawn(
                        callee, [regs[a] for a in argnames]
                    )
            elif op is Opcode.JOIN:
                def h(regs, ctx, handle=ops[0]):
                    ctx.interp._join(regs[handle])
            elif op in (Opcode.LOCK, Opcode.UNLOCK):
                def h(regs, ctx, r=ops[0]):
                    regs[r]  # deterministic runtime: locks are markers only
            elif op is Opcode.RET:
                def h(regs, ctx, v=ops[0]):
                    return (_RET, regs[v] if v is not None else None)
            elif op is Opcode.JMP:
                def h(regs, ctx, target=ops[0]):
                    return target
            elif op is Opcode.BR:
                def h(regs, ctx, c=ops[0], t=ops[1], f=ops[2]):
                    return t if regs[c] else f
            else:  # pragma: no cover - exhaustive
                raise AssertionError(f"unhandled opcode {op}")
            handlers.append(h)
        table[block_label] = handlers
    return table


class Interpreter:
    """Executes one program on one VM."""

    def __init__(
        self,
        program: Program,
        vm: LaminarVM,
        verify_static: bool = False,
        tier2: Any = None,
    ) -> None:
        self.program = program
        self.vm = vm
        self.statics: dict[str, Any] = {}
        #: Labeled-statics extension: per-static labels (default empty).
        #: Immutable once declared, like object labels.
        self.static_labels: dict[str, LabelPair] = {}
        #: Output produced by ``print`` instructions (never actually printed).
        self.output: list[Any] = []
        #: Total IR instructions executed (the harness's work measure).
        self.executed = 0
        #: Debug mode: verify that static barriers execute in the context
        #: they were compiled for (raises StaleCompilationError otherwise).
        #: Off by default because a *production* static barrier does not
        #: test the context — that absence is its whole advantage.
        self.verify_static = verify_static
        #: Per-interpreter state handed to the program-cached handler
        #: tables and tier-2 compiled bodies.
        self.ctx = ExecContext(self)
        #: Tier-2 engine, when the program was compiled ``tier="jit"`` (or
        #: a TierPolicy was passed explicitly).  Never active in
        #: verify_static mode: verification is about observing *stale*
        #: static barriers, and tier-2 exists to deopt instead of going
        #: stale — mixing them would hide exactly what verify_static hunts.
        policy = tier2 if tier2 is not None else program.tier_policy
        if policy is not None and not verify_static:
            from .tier2 import Tier2Engine

            self._tier2 = Tier2Engine(self, policy)
        else:
            self._tier2 = None

    def declare_static(self, name: str, labels: LabelPair, value: Any = 0) -> None:
        """Declare a labeled static (the labeled-statics extension).
        Labels are assigned at declaration and immutable thereafter."""
        if name in self.static_labels:
            raise ValueError(f"static {name!r} already declared")
        self.static_labels[name] = labels
        self.statics[name] = value

    # -- entry point ------------------------------------------------------------

    def run(self, method_name: str = "main", *args: Any) -> Any:
        engine = self._tier2
        if (
            fastpath.flags.dispatch_table or engine is not None
        ) and not self.verify_static:
            # IR passes mutate methods in place but never *during* a run,
            # so validating once per entry suffices: if the program's shape
            # changed since the caches were built, rebuild them lazily.
            program = self.program
            stamp = program.shape_stamp()
            if stamp != program.caches_stamp:
                program.caches_stamp = stamp
                program.exec_tables.clear()
                if program.tier2.cache:
                    fastpath.counters.tier2_invalidations += 1
                program.tier2.reset()
        method = self.program.method(method_name)
        return self._call(method, list(args))

    # -- calls -------------------------------------------------------------------

    def _call(self, method: Method, args: list[Any]) -> Any:
        if len(args) != len(method.params):
            raise TypeError(
                f"{method.name} expects {len(method.params)} args, got {len(args)}"
            )
        if self._tier2 is not None:
            return self._tier2.call(method, args)
        return self._call_cold(method, args)

    def _call_cold(self, method: Method, args: list[Any]) -> Any:
        """The untiered call path (also the tier-2 engine's deopt target)."""
        if method.is_region:
            with self._region_for(method):
                self._execute(method, args)
            return None
        return self._execute(method, args)

    def _region_for(self, method: Method) -> Any:
        """The security region a region method's body runs in, built from
        its :class:`~repro.jit.ir.RegionSpec`: the one place either call
        tier opens a region for a method."""
        spec = method.region_spec or RegionSpec()
        catch = None
        if spec.catch is not None:
            handler = self.program.method(spec.catch)

            def catch(exc: BaseException) -> None:
                # The handler runs while the region frame is still on
                # the stack (SecurityRegion.__exit__ semantics), so it
                # sees the region's labels and capabilities.
                self._execute(handler, [])

        return self.vm.region(
            secrecy=spec.secrecy,
            integrity=spec.integrity,
            caps=spec.caps,
            catch=catch,
            name=method.name,
        )

    # -- the dispatch loop ----------------------------------------------------------

    def _execute(self, method: Method, args: list[Any]) -> Any:
        if fastpath.flags.dispatch_table and not self.verify_static:
            return self._execute_table(method, args)
        return self._execute_switch(method, args)

    def _execute_switch(self, method: Method, args: list[Any]) -> Any:
        regs: dict[str, Any] = dict(zip(method.params, args))
        label = method.entry
        assert label is not None
        heap = self.vm.heap
        barrier_stats = self.vm.barriers.stats
        # Static barriers execute as straight-line code in the dispatch
        # loop (the compiled-in variant); only dynamic barriers go through
        # the dispatching helper.  This mirrors the machine-code shapes the
        # two strategies produce.
        # In verify_static mode the fast paths are disabled so every static
        # barrier funnels through _barrier's context assertion.
        static_in = None if self.verify_static else BarrierFlavor.STATIC_IN
        static_out = None if self.verify_static else BarrierFlavor.STATIC_OUT
        labeled = heap.is_labeled
        thread = self.vm.current_thread
        osr = self._tier2.osr_probe(method) if self._tier2 is not None else None
        while True:
            block = method.blocks[label]
            jumped = False
            for instr in block.instrs:
                self.executed += 1
                op = instr.op
                ops = instr.operands
                if op is Opcode.CONST:
                    regs[ops[0]] = ops[1]
                elif op is Opcode.MOV:
                    regs[ops[0]] = regs[ops[1]]
                elif op is Opcode.BINOP:
                    regs[ops[0]] = _BINOPS[ops[1]](regs[ops[2]], regs[ops[3]])
                elif op is Opcode.UNOP:
                    regs[ops[0]] = _UNOPS[ops[1]](regs[ops[2]])
                elif op is Opcode.NEW:
                    fields = dict.fromkeys(self.program.classes[ops[1]], 0)
                    header = heap.allocate_header(LabelPair.EMPTY)
                    regs[ops[0]] = IRObject(header, ops[1], fields)
                elif op is Opcode.NEWARRAY:
                    header = heap.allocate_header(LabelPair.EMPTY)
                    regs[ops[0]] = IRArray(header, [0] * regs[ops[1]])
                elif op is Opcode.GETFIELD:
                    regs[ops[0]] = regs[ops[1]].fields[ops[2]]
                elif op is Opcode.PUTFIELD:
                    regs[ops[0]].fields[ops[1]] = regs[ops[2]]
                elif op is Opcode.ALOAD:
                    regs[ops[0]] = regs[ops[1]].items[regs[ops[2]]]
                elif op is Opcode.ASTORE:
                    regs[ops[0]].items[regs[ops[1]]] = regs[ops[2]]
                elif op is Opcode.ARRAYLEN:
                    regs[ops[0]] = len(regs[ops[1]].items)
                elif op is Opcode.GETSTATIC:
                    regs[ops[0]] = self.statics.get(ops[1], 0)
                elif op is Opcode.PUTSTATIC:
                    self.statics[ops[0]] = regs[ops[1]]
                elif op is Opcode.READBAR:
                    barrier_stats.read_barriers += 1
                    # A null register faults here, before any flavor's
                    # check is counted.
                    header = regs[ops[0]].header
                    flavor = instr.flavor
                    if flavor is static_out:
                        # compiled-in out-of-region variant: one membership
                        # test against the labeled object space.
                        barrier_stats.space_checks += 1
                        if labeled(header):
                            raise RegionViolation(_OUT_OF_REGION_MSG)
                    elif flavor is static_in:
                        # compiled-in in-region variant: label comparison,
                        # answered from the flow-verdict memo.
                        barrier_stats.label_checks += 1
                        cached_check_flow(
                            header.labels, thread.labels,
                            barrier_stats, context="IR read",
                        )
                    else:
                        self._barrier(instr, header, is_read=True)
                elif op is Opcode.WRITEBAR:
                    barrier_stats.write_barriers += 1
                    header = regs[ops[0]].header
                    flavor = instr.flavor
                    if flavor is static_out:
                        barrier_stats.space_checks += 1
                        if labeled(header):
                            raise RegionViolation(_OUT_OF_REGION_MSG)
                    elif flavor is static_in:
                        barrier_stats.label_checks += 1
                        cached_check_flow(
                            thread.labels, header.labels,
                            barrier_stats, context="IR write",
                        )
                    else:
                        self._barrier(instr, header, is_read=False)
                elif op is Opcode.ALLOCBAR:
                    barrier_stats.alloc_barriers += 1
                    flavor = instr.flavor
                    if flavor is static_in:
                        heap.label_fresh(regs[ops[0]].header, thread.labels)
                    elif flavor is not static_out:
                        self._alloc_barrier(instr, regs[ops[0]].header)
                elif op is Opcode.SREADBAR:
                    barrier_stats.read_barriers += 1
                    self._static_barrier(instr, ops[0], is_read=True)
                elif op is Opcode.SWRITEBAR:
                    barrier_stats.write_barriers += 1
                    self._static_barrier(instr, ops[0], is_read=False)
                elif op is Opcode.CALL:
                    dst, callee = ops[0], ops[1]
                    call_args = [regs[a] for a in ops[2:]]
                    result = self._call(self.program.method(callee), call_args)
                    if dst is not None:
                        regs[dst] = result
                elif op is Opcode.PRINT:
                    self.output.append(regs[ops[0]])
                elif op is Opcode.SPAWN:
                    regs[ops[0]] = self._spawn(
                        ops[1], [regs[a] for a in ops[2:]]
                    )
                elif op is Opcode.JOIN:
                    self._join(regs[ops[0]])
                elif op in (Opcode.LOCK, Opcode.UNLOCK):
                    regs[ops[0]]  # markers for the static race detector
                elif op is Opcode.RET:
                    value = ops[0]
                    return regs[value] if value is not None else None
                elif op is Opcode.JMP:
                    label = ops[0]
                    jumped = True
                    break
                elif op is Opcode.BR:
                    label = ops[1] if regs[ops[0]] else ops[2]
                    jumped = True
                    break
                else:  # pragma: no cover - exhaustive
                    raise AssertionError(f"unhandled opcode {op}")
            if not jumped:
                # normalize() guarantees a terminator, so this is unreachable
                # unless a pass broke the method.
                raise AssertionError(f"block {label} fell off the end")
            if osr is not None:
                # On-stack replacement: a hot back-edge promotes the rest
                # of this invocation to the tier-2 compiled body.
                done = osr(label, regs)
                if done is not None:
                    return done[0]

    # -- table-mode execution ----------------------------------------------------------

    def _execute_table(self, method: Method, args: list[Any]) -> Any:
        """Run one method through its precomputed handler table.

        Same semantics and counter behavior as :meth:`_execute_switch`,
        minus the per-instruction decode: each handler is a closure with
        its operands (register names, bound functions, baked field lists)
        already resolved.  Handlers return ``None`` to fall through to the
        next instruction, a block label to jump, or ``(_RET, value)``.
        """
        program = self.program
        table = program.exec_tables.get(method.name)
        if table is None:
            table = build_handler_table(method, program)
            program.exec_tables[method.name] = table
            program.table_builds += 1
        regs: dict[str, Any] = dict(zip(method.params, args))
        label = method.entry
        assert label is not None
        ctx = self.ctx
        prev = ctx.thread
        ctx.thread = self.vm.current_thread
        osr = self._tier2.osr_probe(method) if self._tier2 is not None else None
        executed = 0
        try:
            while True:
                result = None
                for handler in table[label]:
                    executed += 1
                    result = handler(regs, ctx)
                    if result is not None:
                        break
                if result is None:
                    raise AssertionError(f"block {label} fell off the end")
                if result.__class__ is tuple:
                    return result[1]
                label = result
                if osr is not None:
                    done = osr(label, regs)
                    if done is not None:
                        return done[0]
        finally:
            self.executed += executed
            ctx.thread = prev

    # -- threads -----------------------------------------------------------------------

    def _spawn(self, callee: str, args: list[Any]) -> IRThreadHandle:
        """Create the VM thread now (so the outside-regions rule is
        enforced at the spawn point) and defer the body to ``join``."""
        method = self.program.method(callee)  # validated by the verifier
        thread = self.vm.create_thread(name=f"ir:{callee}")
        return IRThreadHandle(method.name, args, thread)

    def _join(self, handle: Any) -> None:
        """Run the spawned body to completion as its thread, then end the
        thread (also when the body raises).  A join inside a region leaves
        the thread alive, since threads end outside regions."""
        if not isinstance(handle, IRThreadHandle):
            raise TypeError(f"join of a non-thread value: {handle!r}")
        if handle.done:
            return  # joining twice is a no-op, as with pthread semantics
        handle.done = True
        try:
            with self.vm.running(handle.thread):
                self._call(self.program.method(handle.callee), list(handle.args))
        finally:
            if not self.vm.current_thread.in_region:
                self.vm.exit_thread(handle.thread)

    # -- barrier semantics -------------------------------------------------------------

    def _context_for(self, flavor: Optional[BarrierFlavor]) -> bool:
        """Resolve 'is the thread in a region?' per the compiled flavor.

        A dynamic barrier pays a real context test every execution — the
        cost the Fig. 8 dynamic bars carry.  A static barrier trusts its
        compile-time decision and does no test at all; ``verify_static``
        adds the (non-production) assertion that catches miscompilation.
        """
        if flavor is BarrierFlavor.DYNAMIC:
            self.vm.barriers.stats.dynamic_dispatches += 1
            return self.vm.current_thread.in_region
        expected = flavor is BarrierFlavor.STATIC_IN
        if self.verify_static and expected != self.vm.current_thread.in_region:
            raise StaleCompilationError(
                f"barrier compiled {flavor.value} executed "
                f"{'inside' if not expected else 'outside'} a region — the "
                f"method needs cloning or dynamic barriers"
            )
        return expected

    def _barrier(self, instr: Instr, header: Any, is_read: bool) -> None:
        stats = self.vm.barriers.stats
        in_region = self._context_for(instr.flavor)
        if in_region:
            stats.label_checks += 1
            labels = self.vm.current_thread.labels
            if is_read:
                cached_check_flow(header.labels, labels, stats, context="IR read")
            else:
                cached_check_flow(labels, header.labels, stats, context="IR write")
        else:
            stats.space_checks += 1
            if self.vm.heap.is_labeled(header):
                raise RegionViolation(_OUT_OF_REGION_MSG)

    def _alloc_barrier(self, instr: Instr, header: Any) -> None:
        in_region = self._context_for(instr.flavor)
        if in_region:
            self.vm.heap.label_fresh(header, self.vm.current_thread.labels)

    def _static_barrier(self, instr: Instr, name: str, is_read: bool) -> None:
        """The labeled-statics extension: statics behave like objects whose
        labels were fixed at declaration."""
        stats = self.vm.barriers.stats
        labels = self.static_labels.get(name, LabelPair.EMPTY)
        in_region = self._context_for(instr.flavor)
        if in_region:
            stats.label_checks += 1
            current = self.vm.current_thread.labels
            if is_read:
                cached_check_flow(labels, current, stats, context=f"static {name}")
            else:
                cached_check_flow(current, labels, stats, context=f"static {name}")
        else:
            stats.space_checks += 1
            if not labels.is_empty:
                raise RegionViolation(
                    f"access to labeled static {name!r} outside any "
                    f"security region"
                )
