"""Call-graph construction over mini-JIT IR programs.

Everything interprocedural in this package starts here: ``CALL`` edges are
resolved (callees are plain method names, so resolution is exact), strongly
connected components are found with an iterative Tarjan so recursion is
explicit, and two derived facts that the label-flow and lint passes lean on
are computed:

* **region contexts** — for each method, whether its body may execute
  inside a security region, outside one, or both.  Region-method bodies
  always run inside; methods with no callers are entry-point candidates
  and run outside; everything else inherits the union of its callers'
  body contexts (a non-region call does not change the thread's region
  state — regions are entered only by calling a ``region method``).
* **governing regions** — for each method, the set of region methods
  whose dynamic scope may enclose its body (the innermost region at
  execution time).  This is what turns "a static write in ``helper``"
  into "statics smuggling out of region ``audit``".
"""

from __future__ import annotations

from dataclasses import dataclass

from ..jit.ir import Instr, Method, Opcode, Program

#: Context constants (kept as plain strings so fact sets stay printable).
IN_REGION = "in"
OUT_OF_REGION = "out"


@dataclass(frozen=True)
class CallSite:
    """One ``call`` instruction, addressable for diagnostics."""

    caller: str
    block: str
    index: int
    callee: str
    args: tuple[str, ...]

    def location(self) -> str:
        return f"{self.caller}/{self.block}[{self.index}]"


class CallGraph:
    """Successor/predecessor view of a whole program's methods."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.callees: dict[str, set[str]] = {m: set() for m in program.methods}
        self.callers: dict[str, set[str]] = {m: set() for m in program.methods}
        #: callee name -> every call site that targets it.
        self.sites_of: dict[str, list[CallSite]] = {
            m: [] for m in program.methods
        }
        #: caller name -> its call sites in program order.
        self.sites_in: dict[str, list[CallSite]] = {
            m: [] for m in program.methods
        }
        for method in program.methods.values():
            for label, block in method.blocks.items():
                for index, instr in enumerate(block.instrs):
                    if instr.op is not Opcode.CALL:
                        continue
                    callee = instr.operands[1]
                    site = CallSite(
                        caller=method.name,
                        block=label,
                        index=index,
                        callee=callee,
                        args=tuple(instr.operands[2:]),
                    )
                    self.sites_in[method.name].append(site)
                    if callee in self.callees:  # unresolved callees are the
                        self.callees[method.name].add(callee)  # verifier's job
                        self.callers[callee].add(method.name)
                        self.sites_of[callee].append(site)

    # -- basic queries --------------------------------------------------------

    def roots(self) -> list[str]:
        """Methods with no callers — the closed-world entry candidates."""
        return [m for m, cs in self.callers.items() if not cs]

    def reachable_from(self, names: set[str] | list[str]) -> set[str]:
        seen = set(names) & set(self.callees)
        work = list(seen)
        while work:
            for callee in self.callees[work.pop()]:
                if callee not in seen:
                    seen.add(callee)
                    work.append(callee)
        return seen

    # -- SCCs (iterative Tarjan) ----------------------------------------------

    def sccs(self) -> list[frozenset[str]]:
        """Strongly connected components in *reverse topological order*
        (callees before callers), so bottom-up summary passes can walk the
        list front to back."""
        index_of: dict[str, int] = {}
        lowlink: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        result: list[frozenset[str]] = []
        counter = [0]

        def strongconnect(root: str) -> None:
            # Iterative Tarjan: (node, iterator position) frames.
            work = [(root, 0)]
            while work:
                node, pos = work.pop()
                if pos == 0:
                    index_of[node] = lowlink[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack.add(node)
                recurse = False
                succs = sorted(self.callees[node])
                for i in range(pos, len(succs)):
                    succ = succs[i]
                    if succ not in index_of:
                        work.append((node, i + 1))
                        work.append((succ, 0))
                        recurse = True
                        break
                    if succ in on_stack:
                        lowlink[node] = min(lowlink[node], index_of[succ])
                if recurse:
                    continue
                if lowlink[node] == index_of[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    result.append(frozenset(component))
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])

        for name in self.program.methods:
            if name not in index_of:
                strongconnect(name)
        return result

    def recursive_methods(self) -> set[str]:
        """Methods involved in recursion (SCC of size > 1, or a self-loop)."""
        out: set[str] = set()
        for scc in self.sccs():
            if len(scc) > 1:
                out |= scc
        for name, callees in self.callees.items():
            if name in callees:
                out.add(name)
        return out

    # -- region context analysis ----------------------------------------------

    def region_contexts(self) -> dict[str, frozenset[str]]:
        """Map each method to the contexts its *body* may execute in
        (subset of ``{"in", "out"}``).

        Region-method bodies are always ``in``.  Methods with no callers
        are assumed to be program entry points, invoked outside any region.
        Other methods inherit every caller's body context through
        non-region call edges.  The result is a may-analysis: ``{"out"}``
        means *provably never inside a region* (closed world).
        """
        contexts: dict[str, set[str]] = {m: set() for m in self.program.methods}
        work: list[str] = []
        for name, method in self.program.methods.items():
            if method.is_region:
                contexts[name].add(IN_REGION)
                work.append(name)
            if not self.callers[name]:
                if not method.is_region:
                    contexts[name].add(OUT_OF_REGION)
                work.append(name)
        while work:
            name = work.pop()
            for callee in self.callees[name]:
                callee_method = self.program.methods[callee]
                if callee_method.is_region:
                    continue  # region entry resets the callee's context
                if not contexts[name] <= contexts[callee]:
                    contexts[callee] |= contexts[name]
                    work.append(callee)
        return {m: frozenset(c) for m, c in contexts.items()}

    def governing_regions(self) -> dict[str, frozenset[str]]:
        """Map each method to the region methods whose dynamic scope may be
        the *innermost* enclosing region when its body runs.

        A region method governs its own body.  A non-region callee inherits
        its callers' governors (calling does not change the innermost
        region); calling another region method switches governance to it.
        """
        gov: dict[str, set[str]] = {m: set() for m in self.program.methods}
        work: list[str] = []
        for name, method in self.program.methods.items():
            if method.is_region:
                gov[name].add(name)
                work.append(name)
        while work:
            name = work.pop()
            for callee in self.callees[name]:
                if self.program.methods[callee].is_region:
                    continue
                if not gov[name] <= gov[callee]:
                    gov[callee] |= gov[name]
                    work.append(callee)
        return {m: frozenset(g) for m, g in gov.items()}

    # -- diagnostics helpers ---------------------------------------------------

    def call_chain(
        self, source: str, target: str, through_regions: bool = False
    ) -> list[CallSite]:
        """A shortest chain of call sites from ``source``'s body to
        ``target`` (BFS); empty if none exists or source == target.  With
        ``through_regions`` false (the default), edges into region methods
        are not traversed — entering a region changes the governing
        context, so such chains would misattribute responsibility."""
        if source == target:
            return []
        parent: dict[str, CallSite] = {}
        seen = {source}
        frontier = [source]
        while frontier and target not in parent:
            next_frontier: list[str] = []
            for name in frontier:
                for site in self.sites_in[name]:
                    if site.callee not in self.callees or site.callee in seen:
                        continue
                    callee_region = self.program.methods[site.callee].is_region
                    if callee_region and not through_regions and site.callee != target:
                        continue
                    seen.add(site.callee)
                    parent[site.callee] = site
                    next_frontier.append(site.callee)
            frontier = next_frontier
        if target not in parent:
            return []
        chain: list[CallSite] = []
        node = target
        while node != source:
            site = parent[node]
            chain.append(site)
            node = site.caller
        chain.reverse()
        return chain


def build_callgraph(program: Program) -> CallGraph:
    """Convenience constructor (mirrors the other passes' free functions)."""
    return CallGraph(program)
