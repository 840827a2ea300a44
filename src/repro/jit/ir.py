"""The mini-JIT's intermediate representation.

The paper's compiler work happens inside Jikes RVM's JIT: it inserts read
and write barriers at every object access, chooses static or dynamic
barrier variants, clones methods for in-region/out-of-region contexts, and
runs an intraprocedural flow-sensitive pass that removes redundant barriers
(Section 5.1).  To reproduce those compiler results we need an actual
compiler, so this package defines a small register-based IR:

* unbounded virtual registers (named strings);
* methods of basic blocks ending in explicit terminators;
* heap operations (``new``/``newarray``/``getfield``/``putfield``/
  ``aload``/``astore``/``arraylen``) that the barrier-insertion pass
  instruments;
* barrier pseudo-instructions (``readbar``/``writebar``/``allocbar``) in
  three flavors mirroring the paper's compilation strategies.

The IR is deliberately Java-flavored (objects with named fields, arrays
with bounds) because the workloads stand in for DaCapo programs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

from ..core import CapabilitySet, Label


class Opcode(enum.Enum):
    # data movement / arithmetic
    CONST = "const"        # const dst, literal
    MOV = "mov"            # mov dst, src
    BINOP = "binop"        # binop dst, op, a, b
    UNOP = "unop"          # unop dst, op, a
    # heap
    NEW = "new"            # new dst, classname
    NEWARRAY = "newarray"  # newarray dst, size
    GETFIELD = "getfield"  # getfield dst, obj, field
    PUTFIELD = "putfield"  # putfield obj, field, src
    ALOAD = "aload"        # aload dst, arr, idx
    ASTORE = "astore"      # astore arr, idx, src
    ARRAYLEN = "arraylen"  # arraylen dst, arr
    # statics (a single global table, as in the JVM)
    GETSTATIC = "getstatic"  # getstatic dst, name
    PUTSTATIC = "putstatic"  # putstatic name, src
    # control
    CALL = "call"          # call dst, method, args...   (dst may be None)
    RET = "ret"            # ret [src]
    JMP = "jmp"            # jmp label
    BR = "br"              # br cond, then_label, else_label
    PRINT = "print"        # print src (debug aid)
    # threads (Section 2.2: threads share the labeled heap; regions are
    # per-thread).  ``spawn`` names a plain method run on a fresh thread
    # and yields a handle; ``join`` waits for it.  ``lock``/``unlock``
    # bracket accesses to a shared object for the race detector — the
    # runtime itself is deterministic, so they are no-ops at execution.
    SPAWN = "spawn"        # spawn dst, method, args...
    JOIN = "join"          # join handle
    LOCK = "lock"          # lock obj
    UNLOCK = "unlock"      # unlock obj
    # barriers (inserted by the compiler, never written by hand)
    READBAR = "readbar"    # readbar obj
    WRITEBAR = "writebar"  # writebar obj
    ALLOCBAR = "allocbar"  # allocbar dst  (labels the fresh object)
    # static barriers (the labeled-statics extension; operand is the
    # static's *name*, not a register)
    SREADBAR = "sreadbar"    # sreadbar name
    SWRITEBAR = "swritebar"  # swritebar name

TERMINATORS = {Opcode.RET, Opcode.JMP, Opcode.BR}

#: Heap reads that need a read barrier before them.
READ_OPS = {Opcode.GETFIELD, Opcode.ALOAD, Opcode.ARRAYLEN}
#: Heap writes that need a write barrier before them.
WRITE_OPS = {Opcode.PUTFIELD, Opcode.ASTORE}
#: Allocations that need an allocation barrier after them.
ALLOC_OPS = {Opcode.NEW, Opcode.NEWARRAY}

BINARY_OPS = {
    "add", "sub", "mul", "div", "mod",
    "lt", "le", "gt", "ge", "eq", "ne",
    "band", "bor", "bxor", "shl", "shr",
}
UNARY_OPS = {"neg", "not"}


class BarrierFlavor(enum.Enum):
    """How a barrier pseudo-instruction was compiled (Section 5.1).

    * ``STATIC_IN`` / ``STATIC_OUT`` — the context (inside/outside a
      security region) was decided at compile time; the barrier body is
      the corresponding single-variant check.
    * ``DYNAMIC`` — the barrier tests the thread's region state at run
      time and then dispatches to the right variant.
    """

    STATIC_IN = "static-in"
    STATIC_OUT = "static-out"
    DYNAMIC = "dynamic"


@dataclass
class Instr:
    """One IR instruction.  ``operands`` layout depends on the opcode (see
    :class:`Opcode` comments); ``flavor`` is set on barrier instructions by
    the barrier-insertion pass."""

    op: Opcode
    operands: tuple[Any, ...]
    flavor: Optional[BarrierFlavor] = None

    # -- structural queries used by the passes --------------------------------

    def defined_register(self) -> Optional[str]:
        """The register this instruction writes, if any."""
        op = self.op
        if op in (
            Opcode.CONST, Opcode.MOV, Opcode.BINOP, Opcode.UNOP, Opcode.NEW,
            Opcode.NEWARRAY, Opcode.GETFIELD, Opcode.ALOAD, Opcode.ARRAYLEN,
            Opcode.GETSTATIC, Opcode.SPAWN,
        ):
            return self.operands[0]
        if op is Opcode.CALL:
            return self.operands[0]  # may be None
        return None

    def used_registers(self) -> tuple[str, ...]:
        """Registers this instruction reads."""
        op, ops = self.op, self.operands
        if op is Opcode.MOV:
            return (ops[1],)
        if op is Opcode.BINOP:
            return (ops[2], ops[3])
        if op is Opcode.UNOP:
            return (ops[2],)
        if op is Opcode.NEWARRAY:
            return (ops[1],)
        if op is Opcode.GETFIELD:
            return (ops[1],)
        if op is Opcode.PUTFIELD:
            return (ops[0], ops[2])
        if op is Opcode.ALOAD:
            return (ops[1], ops[2])
        if op is Opcode.ASTORE:
            return (ops[0], ops[1], ops[2])
        if op is Opcode.ARRAYLEN:
            return (ops[1],)
        if op is Opcode.PUTSTATIC:
            return (ops[1],)
        if op is Opcode.CALL:
            return tuple(ops[2:])
        if op is Opcode.RET:
            return tuple(r for r in ops if r is not None)
        if op is Opcode.BR:
            return (ops[0],)
        if op is Opcode.PRINT:
            return (ops[0],)
        if op in (Opcode.READBAR, Opcode.WRITEBAR):
            return (ops[0],)
        if op is Opcode.ALLOCBAR:
            return (ops[0],)
        if op is Opcode.SPAWN:
            return tuple(ops[2:])
        if op in (Opcode.JOIN, Opcode.LOCK, Opcode.UNLOCK):
            return (ops[0],)
        return ()

    def __repr__(self) -> str:
        parts = ", ".join(str(o) for o in self.operands)
        suffix = f" [{self.flavor.value}]" if self.flavor else ""
        return f"{self.op.value} {parts}{suffix}"


@dataclass
class BasicBlock:
    """A label plus straight-line instructions; the last one is a
    terminator after :meth:`Method.normalize` runs."""

    label: str
    instrs: list[Instr] = field(default_factory=list)

    @property
    def terminator(self) -> Optional[Instr]:
        if self.instrs and self.instrs[-1].op in TERMINATORS:
            return self.instrs[-1]
        return None

    def successors(self) -> tuple[str, ...]:
        term = self.terminator
        if term is None or term.op is Opcode.RET:
            return ()
        if term.op is Opcode.JMP:
            return (term.operands[0],)
        return (term.operands[1], term.operands[2])

    def __repr__(self) -> str:
        return f"BasicBlock({self.label}, {len(self.instrs)} instrs)"


@dataclass
class RegionSpec:
    """Security-region parameters attached to a region method by the
    embedder (the harness or the application driver) or declared in the
    assembler text (``region method f(p) secrecy(a) integrity(b)``): the
    labels and capability set the region runs with, plus an optional
    catch-handler method executed if the region body throws."""

    secrecy: Label = Label.EMPTY
    integrity: Label = Label.EMPTY
    caps: CapabilitySet = CapabilitySet.EMPTY
    #: Name of a zero-parameter non-region method run as the region's
    #: ``catch`` block (the paper's ``secure {...} catch {...}`` form).
    catch: Optional[str] = None


class Method:
    """One IR method: parameters and an ordered dict of basic blocks."""

    def __init__(
        self,
        name: str,
        params: tuple[str, ...] = (),
        is_region: bool = False,
        is_declassifier: bool = False,
    ) -> None:
        self.name = name
        self.params = params
        self.is_region = is_region
        #: Declared trusted declassification module (``declassifier
        #: method``): the analog of :class:`repro.runtime.declassifiers.
        #: Declassifier` — its return value is audited policy output, so
        #: the taint analyses treat it as laundered, not as secret.
        self.is_declassifier = is_declassifier
        self.region_spec: Optional[RegionSpec] = None
        self.blocks: dict[str, BasicBlock] = {}
        self.entry: Optional[str] = None

    def add_block(self, label: str) -> BasicBlock:
        if label in self.blocks:
            raise ValueError(f"duplicate block label {label!r} in {self.name}")
        block = BasicBlock(label)
        self.blocks[label] = block
        if self.entry is None:
            self.entry = label
        return block

    def normalize(self) -> None:
        """Ensure every block ends in a terminator: blocks that fall off
        the end get a jump to the lexically next block, or a ``ret``."""
        labels = list(self.blocks)
        for i, label in enumerate(labels):
            block = self.blocks[label]
            if block.terminator is None:
                if i + 1 < len(labels):
                    block.instrs.append(Instr(Opcode.JMP, (labels[i + 1],)))
                else:
                    block.instrs.append(Instr(Opcode.RET, (None,)))

    def instruction_count(self) -> int:
        return sum(len(b.instrs) for b in self.blocks.values())

    def all_instrs(self) -> list[Instr]:
        out: list[Instr] = []
        for block in self.blocks.values():
            out.extend(block.instrs)
        return out

    def __repr__(self) -> str:
        if self.is_region:
            kind = "region method"
        elif self.is_declassifier:
            kind = "declassifier method"
        else:
            kind = "method"
        return f"Method({self.name!r}, {kind}, {len(self.blocks)} blocks)"


class Tier2State:
    """A program's tier-2 state (:mod:`repro.jit.tier2`): the code cache
    and the profiles that fill it.

    It lives on the program, so every interpreter over the program counts
    into the same profiles and runs the same compiled variants.  It is
    valid for the program's :attr:`Program.caches_stamp`; :meth:`reset`
    empties every table in place when the program's shape moves.
    """

    __slots__ = (
        "cache", "profiles", "variants", "backedges", "uncompilable", "links",
    )

    def __init__(self) -> None:
        #: (method name, context key) -> CompiledMethod.
        self.cache: dict = {}
        #: method name -> MethodProfile (invocations, back-edges, deopts).
        self.profiles: dict = {}
        #: method name -> the context keys compiled for it.
        self.variants: dict[str, set] = {}
        #: method name -> its loop-header labels (the OSR entry points).
        self.backedges: dict[str, frozenset] = {}
        #: methods tier 2 declined; they stay on the handler tables.
        self.uncompilable: set[str] = set()
        #: (method name, context key) -> one-element list that compiled
        #: call sites read: the variant once it is compiled, else None.
        self.links: dict = {}

    def reset(self) -> None:
        self.cache.clear()
        self.profiles.clear()
        self.variants.clear()
        self.backedges.clear()
        self.uncompilable.clear()
        self.links.clear()


class Program:
    """A compilation unit: methods plus class field declarations."""

    def __init__(self) -> None:
        self.methods: dict[str, Method] = {}
        #: class name -> field names (used by ``new`` to zero-init fields).
        self.classes: dict[str, tuple[str, ...]] = {}
        #: tag name -> Tag for tags declared in region attributes; the
        #: embedder grants the entry thread capabilities for these before
        #: running (``lamc run`` does).
        self.tags: dict[str, Any] = {}
        #: Tier policy attached by ``Compiler(tier="jit")``; ``None`` means
        #: pure interpretation.  It lives on the program because the tier
        #: choice is a property of the compiled unit, not of one VM.
        self.tier_policy: Any = None
        #: Shared execution caches: per-method handler tables (tier 1, see
        #: :func:`repro.jit.interpreter.build_handler_table`) and tier-2
        #: compiled code with its profiles (:class:`Tier2State`).  Both are
        #: kept here so every :class:`~repro.jit.interpreter.Interpreter`
        #: over the same program shares one copy of the "compiled"
        #: artifacts, and both are valid for ``caches_stamp``, the
        #: :meth:`shape_stamp` they were filled at.
        self.exec_tables: dict[str, dict[str, list]] = {}
        self.caches_stamp: int = -1
        #: How many per-method handler tables were ever built for this
        #: program (the build-once regression test reads this).
        self.table_builds: int = 0
        self.tier2 = Tier2State()
        #: Methods whose :class:`~repro.analysis.typecheck.
        #: SecurityCertificate` fully discharged, set by the compiler's
        #: ``optimize_barriers="certified"`` mode (which deleted their
        #: barriers) and reported by ``lamc compile``; empty outside
        #: certified builds.  Tier 2 compiles them per context key like
        #: any other method.
        self.certified_methods: frozenset = frozenset()

    def shape_stamp(self) -> int:
        """Cheap structural fingerprint guarding the execution caches.

        IR passes mutate methods in place but never *during* a run, so
        validating once per entry suffices: a changed stamp means blocks
        or instructions were added/removed and cached handler tables and
        tier-2 code must be rebuilt.
        """
        return sum(
            len(m.blocks) + m.instruction_count()
            for m in self.methods.values()
        )

    def add_method(self, method: Method) -> None:
        if method.name in self.methods:
            raise ValueError(f"duplicate method {method.name!r}")
        self.methods[method.name] = method

    def declare_class(self, name: str, fields: tuple[str, ...]) -> None:
        self.classes[name] = fields

    def method(self, name: str) -> Method:
        try:
            return self.methods[name]
        except KeyError:
            raise KeyError(f"no method {name!r} in program") from None

    def __repr__(self) -> str:
        return f"Program({len(self.methods)} methods, {len(self.classes)} classes)"
