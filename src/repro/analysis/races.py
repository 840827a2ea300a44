"""Lockset + happens-before race detector for multithreaded region programs.

The IR's thread model is deliberately small — ``spawn h, m, args...``
creates a thread poised to run ``m``, ``join h`` runs it to completion,
and ``lock r`` / ``unlock r`` are static synchronization markers — but
it is enough to exhibit the failure mode Laminar's runtime must guard
against: two threads touching the same object under *different* label
contexts, so whether an access faults (or what a secrecy region
observes) depends on scheduling.

The detector combines three method-local dataflow analyses with one
interprocedural sharing pass:

* **happens-before windows** — a may-analysis tracking pending (spawned,
  not yet joined) thread handles.  Program points where a handle is
  pending are exactly the points that race with that thread's body:
  ``spawn`` is the only *release* edge and ``join`` the only *acquire*
  edge in this model, so everything between them is concurrent.
* **object provenance** — a may-analysis naming the abstract objects
  (allocation sites and spawner parameters) each register may hold, so
  accesses can be keyed to shared state rather than register names.
* **locksets** — a must-analysis of the abstract objects whose locks are
  definitely held; two conflicting accesses holding a common lock are
  ordered and not reported.
* **sharing** — the abstract objects passed to ``spawn`` (plus all
  statics) are *shared*; a worklist pushes them through call edges into
  the spawned method and everything it reaches, so a thread body that
  forwards its argument into a region method still gets its accesses
  classified.

Findings (see :mod:`.diagnostics` for the code table):

* **LAM007** (error, the *label race*): conflicting unordered accesses
  whose sides run under different label contexts — e.g. an out-of-region
  thread writes a field while a secrecy region reads it.  Enforcement
  becomes schedule-dependent; certification is impossible.
* **LAM008** (warning): conflicting unordered accesses under the *same*
  nonempty label context — classic data race inside a region's trust
  domain.  Enforcement is schedule-independent but the data is torn.
* Races where both sides are label-free are data races but not IFC
  findings; they are reported on :attr:`RaceReport.plain_races` and do
  not gate certification severity (still returned for tooling).

Every method appearing on either side of a LAM007/LAM008 finding is
recorded in :attr:`RaceReport.implicated`; the certifier refuses to
certify implicated methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..jit.cfg import CFG
from ..jit.dataflow import ForwardMayAnalysis, ForwardMustAnalysis
from ..jit.ir import (
    Method,
    Opcode,
    Program,
    READ_OPS,
    WRITE_OPS,
)
from .callgraph import CallGraph
from .diagnostics import Diagnostic, make
from .labelflow import FlowStep

#: Abstract object ids.
#:   ("new", method, block, index)  — allocation site
#:   ("param", method, name)        — a spawning method's own parameter
#:   ("static", name)               — a static cell (always shared)


def _alloc_site(method: str, block: str, index: int):
    return ("new", method, block, index)


def _param_obj(method: str, name: str):
    return ("param", method, name)


def _static_obj(name: str):
    return ("static", name)


# ---------------------------------------------------------------------------
# per-method machinery
# ---------------------------------------------------------------------------


def _positions(method: Method) -> dict[int, tuple[str, int]]:
    """``id(instr) -> (block, index)`` — the dataflow framework hands
    transfer functions only the instruction, so site-sensitive analyses
    recover the position through instruction identity."""
    out: dict[int, tuple[str, int]] = {}
    for label, block in method.blocks.items():
        for index, instr in enumerate(block.instrs):
            out[id(instr)] = (label, index)
    return out


class _ObjIds:
    """May-analysis: per point, ``(register, objid)`` pairs for the
    abstract objects a register may reference."""

    def __init__(self, method: Method) -> None:
        self.method = method
        name = method.name
        positions = _positions(method)
        boundary = frozenset(
            (p, _param_obj(name, p)) for p in method.params
        )

        def transfer(instr, facts):
            op = instr.op
            if op in (Opcode.NEW, Opcode.NEWARRAY):
                dst = instr.operands[0]
                label, index = positions[id(instr)]
                facts = frozenset(f for f in facts if f[0] != dst)
                return facts | {(dst, _alloc_site(name, label, index))}
            if op is Opcode.MOV:
                dst, src = instr.operands[0], instr.operands[1]
                src_objs = frozenset(
                    obj for (reg, obj) in facts if reg == src
                )
                facts = frozenset(f for f in facts if f[0] != dst)
                return facts | frozenset((dst, obj) for obj in src_objs)
            defined = instr.defined_register()
            if defined is not None:
                # getfield / call / spawn results: unknown object — drop.
                return frozenset(f for f in facts if f[0] != defined)
            return facts

        self._analysis = ForwardMayAnalysis(
            CFG(method), transfer, boundary=boundary
        )
        self._analysis.solve()

    def before(self, label: str) -> list[frozenset]:
        return self._analysis.facts_before_each_instr(label)

    def objs(self, label: str, index: int, reg: str) -> frozenset:
        return frozenset(
            obj
            for (fact_reg, obj) in self.before(label)[index]
            if fact_reg == reg
        )


class _Pending:
    """May-analysis of pending thread handles: ``(register, site)`` where
    ``site = (block, index)`` of the spawn.  A site pending *at its own
    spawn instruction* means a previous loop iteration's thread may still
    run — the thread is concurrent with itself."""

    def __init__(self, method: Method) -> None:
        positions = _positions(method)

        def transfer(instr, facts):
            op = instr.op
            if op is Opcode.SPAWN:
                dst = instr.operands[0]
                label, index = positions[id(instr)]
                facts = frozenset(f for f in facts if f[0] != dst)
                return facts | {(dst, (label, index))}
            if op is Opcode.JOIN:
                handle = instr.operands[0]
                return frozenset(f for f in facts if f[0] != handle)
            if op is Opcode.MOV:
                dst, src = instr.operands[0], instr.operands[1]
                facts = frozenset(f for f in facts if f[0] != dst)
                return facts | frozenset(
                    (dst, site) for (reg, site) in facts if reg == src
                )
            defined = instr.defined_register()
            if defined is not None:
                return frozenset(f for f in facts if f[0] != defined)
            return facts

        self._analysis = ForwardMayAnalysis(
            CFG(method), transfer, boundary=frozenset()
        )
        self._analysis.solve()

    def before(self, label: str) -> list[frozenset]:
        return self._analysis.facts_before_each_instr(label)

    def sites(self, label: str, index: int) -> frozenset:
        """Spawn sites with a pending thread at this point."""
        return frozenset(site for (_reg, site) in self.before(label)[index])


class _Locksets:
    """Must-analysis of definitely-held lock objects."""

    def __init__(self, method: Method, objids: _ObjIds) -> None:
        positions = _positions(method)

        def transfer(instr, facts):
            op = instr.op
            if op is Opcode.LOCK:
                label, index = positions[id(instr)]
                held = objids.objs(label, index, instr.operands[0])
                return facts | held
            if op is Opcode.UNLOCK:
                label, index = positions[id(instr)]
                released = objids.objs(label, index, instr.operands[0])
                return facts - released
            return facts

        self._analysis = ForwardMustAnalysis(
            CFG(method), transfer, boundary=frozenset()
        )
        self._analysis.solve()

    def before(self, label: str) -> list[frozenset]:
        return self._analysis.facts_before_each_instr(label)

    def held(self, label: str, index: int) -> frozenset:
        return self.before(label)[index]


@dataclass(frozen=True)
class _Access:
    """One classified shared-state access."""

    method: str
    block: str
    index: int
    register: str  # or static name
    objids: frozenset
    is_write: bool
    lockset: frozenset
    #: Spawn sites pending at this access (spawner side); empty on the
    #: thread side, which is concurrent with its whole pending window.
    pending: frozenset
    #: Which thread body this access belongs to (spawn site), or None for
    #: the spawner itself.
    thread: tuple | None

    def location(self) -> str:
        return f"{self.method}/{self.block}[{self.index}]"


# ---------------------------------------------------------------------------
# label contexts
# ---------------------------------------------------------------------------


def _label_context(
    program: Program, governors_of: dict, method: str
) -> frozenset:
    """The label context an access in ``method`` may execute under: the
    set of governing region methods whose specs carry nonempty labels
    (the method itself when it is such a region).  Empty = label-free."""
    ctx = set()
    candidates = set(governors_of.get(method, frozenset()))
    m = program.methods.get(method)
    if m is not None and m.is_region:
        candidates.add(method)
    for gov in candidates:
        spec = program.methods[gov].region_spec
        if spec is None:
            continue
        if not (spec.secrecy.is_empty and spec.integrity.is_empty):
            ctx.add(gov)
    return frozenset(ctx)


# ---------------------------------------------------------------------------
# the detector
# ---------------------------------------------------------------------------


@dataclass
class RaceReport:
    """Race findings plus the per-method implication map the certifier
    consumes."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: method -> human-readable notes for findings implicating it.
    implicated: dict[str, list[str]] = field(default_factory=dict)
    #: Conflicting unordered accesses where both sides are label-free
    #: (plain data races, not IFC findings).
    plain_races: list[tuple] = field(default_factory=list)

    def _implicate(self, method: str, note: str) -> None:
        self.implicated.setdefault(method, [])
        if note not in self.implicated[method]:
            self.implicated[method].append(note)


def _spawn_sites(method: Method):
    """All spawn instructions in a method:
    ``(block, index, handle, callee, args)``."""
    for label, block in method.blocks.items():
        for index, instr in enumerate(block.instrs):
            if instr.op is Opcode.SPAWN:
                yield (
                    label, index,
                    instr.operands[0], instr.operands[1],
                    tuple(instr.operands[2:]),
                )


def _reachable_from(cg: CallGraph, roots) -> frozenset:
    seen = set()
    work = list(roots)
    while work:
        name = work.pop()
        if name in seen:
            continue
        seen.add(name)
        work.extend(cg.callees.get(name, ()))
    return frozenset(seen)


def _shared_objids(
    program: Program,
    cg: CallGraph,
    spawner: str,
    objids: _ObjIds,
) -> tuple[frozenset, dict[tuple, frozenset], dict[str, frozenset]]:
    """Returns ``(shared, per_site_args, callee_shared)``:

    * ``shared`` — abstract objects escaping to any spawned thread from
      ``spawner`` (spawn arguments + all statics touched anywhere);
    * ``per_site_args`` — spawn site -> the objids passed at that site;
    * ``callee_shared`` — method -> the shared objids visible inside it
      (as its own ``("param", m, p)`` objects), propagated through call
      chains by a worklist so nested forwarding still classifies.
    """
    shared: set = set()
    per_site: dict[tuple, frozenset] = {}
    # method -> set of its own objids that alias shared state.  The
    # spawner participates with its spawner-side objids, so its own call
    # sites propagate sharing into callees too (a region method *called*
    # while a thread is pending touches the same shared object).
    alias: dict[str, set] = {spawner: set()}

    for label, index, _h, callee, args in _spawn_sites(
        program.methods[spawner]
    ):
        passed: set = set()
        callee_m = program.methods.get(callee)
        params = callee_m.params if callee_m is not None else ()
        for pos, arg in enumerate(args):
            objs = objids.objs(label, index, arg)
            passed |= objs
            shared |= objs
            alias[spawner] |= objs
            if pos < len(params):
                alias.setdefault(callee, set()).add(
                    _param_obj(callee, params[pos])
                )
                shared.add(_param_obj(callee, params[pos]))
        per_site[(label, index)] = frozenset(passed)

    # Propagate shared params down call edges: if method m's param p is
    # shared and m passes p (or an alias of it) to n's param q, then q is
    # shared too.  Iterate to a fixpoint over call sites.
    changed = True
    guard = 0
    while changed and guard <= len(program.methods) * 4 + 4:
        changed = False
        guard += 1
        for name in list(alias):
            method = program.methods.get(name)
            if method is None:
                continue
            m_objids = _ObjIds(method)
            for site in cg.sites_in.get(name, ()):
                callee_m = program.methods.get(site.callee)
                if callee_m is None:
                    continue
                instr_objs = [
                    m_objids.objs(site.block, site.index, arg)
                    for arg in site.args
                ]
                for pos, objs in enumerate(instr_objs):
                    if pos >= len(callee_m.params):
                        break
                    if objs & alias[name]:
                        target = _param_obj(
                            site.callee, callee_m.params[pos]
                        )
                        if target not in alias.setdefault(
                            site.callee, set()
                        ):
                            alias[site.callee].add(target)
                            shared.add(target)
                            changed = True

    callee_shared = {
        name: frozenset(objs) for name, objs in alias.items()
    }
    return frozenset(shared), per_site, callee_shared


def _collect_accesses(
    program: Program,
    name: str,
    objids: _ObjIds,
    shared: frozenset,
    thread: tuple | None,
    pending: _Pending | None,
    locksets: _Locksets,
) -> list[_Access]:
    """Shared-state heap and static accesses in one method."""
    method = program.methods[name]
    out: list[_Access] = []
    for label, block in method.blocks.items():
        for index, instr in enumerate(block.instrs):
            op = instr.op
            if op in READ_OPS or op in WRITE_OPS:
                reg = instr.operands[0] if op in WRITE_OPS else (
                    instr.operands[1]
                )
                objs = objids.objs(label, index, reg) & shared
                if not objs:
                    continue
                out.append(_Access(
                    method=name, block=label, index=index, register=reg,
                    objids=objs, is_write=op in WRITE_OPS,
                    lockset=locksets.held(label, index),
                    pending=(
                        pending.sites(label, index)
                        if pending is not None else frozenset()
                    ),
                    thread=thread,
                ))
            elif op in (Opcode.GETSTATIC, Opcode.PUTSTATIC):
                static_name = (
                    instr.operands[1] if op is Opcode.GETSTATIC
                    else instr.operands[0]
                )
                obj = _static_obj(static_name)
                out.append(_Access(
                    method=name, block=label, index=index,
                    register=static_name, objids=frozenset({obj}),
                    is_write=op is Opcode.PUTSTATIC,
                    lockset=locksets.held(label, index),
                    pending=(
                        pending.sites(label, index)
                        if pending is not None else frozenset()
                    ),
                    thread=thread,
                ))
    return out


def _concurrent(a: _Access, b: _Access, co_pending: frozenset) -> bool:
    """May the two accesses run concurrently (no happens-before edge)?

    ``co_pending`` holds every unordered pair of spawn sites that are
    pending at one program point together — the spawn/join structure's
    whole happens-before relation, flattened."""
    if a.thread is None and b.thread is None:
        return False  # both on the spawner: program order wins
    if a.thread is not None and b.thread is not None:
        if a.thread != b.thread:
            return frozenset((a.thread, b.thread)) in co_pending
        # Same spawn site racing with itself requires the site to be
        # pending at its own spawn point (spawn-in-loop); the caller
        # established that before pairing.
        return True
    spawner_side = a if a.thread is None else b
    thread_side = b if a.thread is None else a
    return thread_side.thread in spawner_side.pending


def _obj_str(obj) -> str:
    kind = obj[0]
    if kind == "new":
        return f"object from {obj[1]}/{obj[2]}[{obj[3]}]"
    if kind == "param":
        return f"object bound to {obj[1]}({obj[2]})"
    return f"static '{obj[1]}'"


def detect_races(
    program: Program, callgraph: CallGraph | None = None
) -> RaceReport:
    """Run the detector over every spawning method of ``program``."""
    cg = callgraph or CallGraph(program)
    governors = cg.governing_regions()
    report = RaceReport()
    seen_findings: set = set()

    spawners = [
        name
        for name, method in program.methods.items()
        if any(i.op is Opcode.SPAWN for i in method.all_instrs())
    ]
    for spawner in spawners:
        method = program.methods[spawner]
        objids = _ObjIds(method)
        pending = _Pending(method)
        locks = _Locksets(method, objids)
        shared, per_site, callee_shared = _shared_objids(
            program, cg, spawner, objids
        )

        # Spawner-side accesses inside at least one pending window.
        spawner_accesses = [
            acc
            for acc in _collect_accesses(
                program, spawner, objids, shared, None, pending, locks
            )
            if acc.pending
        ]

        # Thread-side accesses: for each spawn site, the callee and
        # everything it can reach.  The callee sees shared state through
        # its own param-objids (callee_shared); transitive callees
        # likewise.  Locks on the thread side use the callee's own
        # lockset analysis.
        thread_accesses: list[_Access] = []
        site_list = list(_spawn_sites(method))
        self_concurrent = {
            (label, index)
            for label, index, *_ in site_list
            if (label, index) in pending.sites(label, index)
        }
        # Pairs of spawn sites whose windows overlap at some point.
        co_pending: set = set()
        for label, block in method.blocks.items():
            for index in range(len(block.instrs)):
                sites_here = sorted(pending.sites(label, index))
                for x, s1 in enumerate(sites_here):
                    for s2 in sites_here[x + 1:]:
                        co_pending.add(frozenset((s1, s2)))
        co_pending = frozenset(co_pending)
        for label, index, _h, callee, _args in site_list:
            if callee not in program.methods:
                continue
            site = (label, index)
            for reached in sorted(_reachable_from(cg, [callee])):
                r_method = program.methods.get(reached)
                if r_method is None:
                    continue
                r_objids = _ObjIds(r_method)
                # Statics are always shared; _collect_accesses picks
                # them up regardless of r_shared.
                r_shared = callee_shared.get(reached, frozenset())
                r_locks = _Locksets(r_method, r_objids)
                thread_accesses.extend(
                    _collect_accesses(
                        program, reached, r_objids, r_shared, site,
                        None, r_locks,
                    )
                )

        # Call-side accesses: methods the spawner *calls* while a window
        # is pending run on the spawner's timeline, but may touch shared
        # state under different labels (a region method called between
        # spawn and join).  They inherit the pending set at the call
        # site.
        call_accesses: list[_Access] = []
        for call_site in cg.sites_in.get(spawner, ()):
            pend_here = pending.sites(call_site.block, call_site.index)
            if not pend_here:
                continue
            for reached in sorted(_reachable_from(cg, [call_site.callee])):
                r_method = program.methods.get(reached)
                if r_method is None:
                    continue
                r_objids = _ObjIds(r_method)
                r_shared = callee_shared.get(reached, frozenset())
                r_locks = _Locksets(r_method, r_objids)
                for acc in _collect_accesses(
                    program, reached, r_objids, r_shared, None,
                    None, r_locks,
                ):
                    call_accesses.append(replace(acc, pending=pend_here))

        # The thread side names shared objects by callee params; map
        # both sides to spawner-side identity for conflict detection.
        # A param-objid introduced at a spawn/call edge aliases every
        # spawner objid passed there; rather than tracking the edge
        # precisely, treat all shared objids as one equivalence class
        # per spawn argument overlap: conflate via the `shared` set
        # membership (sound: may-alias), but keep statics exact.
        def canonical(objs: frozenset) -> frozenset:
            out = set()
            for obj in objs:
                if obj[0] == "static":
                    out.add(obj)
                else:
                    out.add("\0heap\0")
            return frozenset(out)

        all_accesses = spawner_accesses + call_accesses + thread_accesses
        for i, a in enumerate(all_accesses):
            for b in all_accesses[i:]:
                if a is b and a.thread is None:
                    continue
                if a is b and a.thread not in self_concurrent:
                    continue
                if (
                    a.thread is not None
                    and a.thread == b.thread
                    and a.thread not in self_concurrent
                    and a is not b
                ):
                    continue  # same single thread: program order
                if not _concurrent(a, b, co_pending) and a is not b:
                    continue
                overlap = canonical(a.objids) & canonical(b.objids)
                if not overlap or not (a.is_write or b.is_write):
                    continue
                if canonical(a.lockset) & canonical(b.lockset):
                    continue  # common lock orders them
                ctx_a = _label_context(program, governors, a.method)
                ctx_b = _label_context(program, governors, b.method)
                writer, other = (a, b) if a.is_write else (b, a)
                sample_obj = sorted(
                    writer.objids | other.objids, key=str
                )[0]
                key = tuple(sorted((
                    (a.method, a.block, a.index),
                    (b.method, b.block, b.index),
                )))
                if key in seen_findings:
                    continue
                trace = (
                    FlowStep(
                        writer.method, writer.block, writer.index,
                        f"write to {_obj_str(sample_obj)} "
                        f"({'thread body' if writer.thread else 'spawner'})",
                    ),
                    FlowStep(
                        other.method, other.block, other.index,
                        f"{'write' if other.is_write else 'read'} of the "
                        f"same object "
                        f"({'thread body' if other.thread else 'spawner'})",
                    ),
                )
                if ctx_a != ctx_b:
                    seen_findings.add(key)
                    labeled = ctx_a | ctx_b
                    diag = make(
                        "LAM007", writer.method,
                        f"label race on {_obj_str(sample_obj)}: "
                        f"{writer.location()} and {other.location()} may "
                        f"run concurrently under different label contexts "
                        f"({_ctx_str(ctx_a)} vs {_ctx_str(ctx_b)}); "
                        f"enforcement depends on thread schedule",
                        block=writer.block, index=writer.index,
                        trace=trace,
                    )
                    report.diagnostics.append(diag)
                    note = (
                        f"LAM007 label race between {writer.location()} "
                        f"and {other.location()}"
                    )
                    for m in {a.method, b.method, spawner} | labeled:
                        report._implicate(m, note)
                elif ctx_a:  # same nonempty context
                    seen_findings.add(key)
                    diag = make(
                        "LAM008", writer.method,
                        f"unsynchronized shared write to "
                        f"{_obj_str(sample_obj)}: {writer.location()} and "
                        f"{other.location()} may run concurrently under "
                        f"region labels ({_ctx_str(ctx_a)}) with no "
                        f"common lock",
                        block=writer.block, index=writer.index,
                        trace=trace,
                    )
                    report.diagnostics.append(diag)
                    note = (
                        f"LAM008 unsynchronized write between "
                        f"{writer.location()} and {other.location()}"
                    )
                    for m in {a.method, b.method, spawner}:
                        report._implicate(m, note)
                else:
                    seen_findings.add(key)
                    report.plain_races.append((
                        writer.location(), other.location(),
                        _obj_str(sample_obj),
                    ))
                    # Plain data races still make the involved methods'
                    # behavior schedule-dependent; implicate them so the
                    # certifier stays conservative, but emit no LAM code.
                    note = (
                        f"data race between {writer.location()} and "
                        f"{other.location()}"
                    )
                    for m in {a.method, b.method, spawner}:
                        report._implicate(m, note)
    return report


def _ctx_str(ctx: frozenset) -> str:
    if not ctx:
        return "label-free"
    return "+".join(sorted(ctx))
