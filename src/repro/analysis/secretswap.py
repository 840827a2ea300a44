"""Secret-swap noninterference oracle for certified programs.

A :class:`~.typecheck.SecurityCertificate` claims that deleting a
method's barriers cannot change observable behavior.  The type system
argues this statically; this module checks it *dynamically*, using the
classic two-run formulation of noninterference: run the same program
twice with different high (secret) inputs and compare everything a
public observer can see.  If a certified program's public observables
differ between the runs, the certificate is wrong — the test suite
treats that as a hard failure, not a statistic.

The oracle is deliberately strict about what counts as observable:

* the entry method's return value (``lamc run`` prints it),
* everything ``print`` emitted, in order,
* the final static cells,
* the escaped exception type (a security fault *is* an observable), and
* the kernel audit log (declassification trails are public record).

It deliberately excludes enforcement *counters* (barrier hit/pass
statistics): certified elimination removes the counting itself, so
counters differ between build modes by design — they are observables of
the implementation, not of the program.

Programs under test mark their secret with a placeholder (default
``@SECRET@``) in the assembler source; :func:`swap_check` substitutes
the two candidate values, builds each variant with the same compiler
configuration, runs both under a fresh kernel/VM (with id counters
reset so heap/audit identifiers are byte-comparable), and diffs the
observables.  Execution modes (:data:`MODES`) cover the whole stack:
``interp`` runs the reference switch loop, ``tables`` the per-method
handler tables, and ``tier2`` the template JIT.
"""

from __future__ import annotations

import itertools
from contextlib import nullcontext
from dataclasses import dataclass

from ..core import CapabilitySet, fastpath
from ..jit.compiler import Compiler
from ..jit.interpreter import Interpreter
from ..jit.tier2 import TierPolicy
from ..osim import Kernel, LaminarSecurityModule
from ..osim.filesystem import Inode
from ..runtime.heap import ObjectHeader
from ..runtime.vm import LaminarVM

#: Placeholder substituted with the secret value in assembler sources.
SECRET_PLACEHOLDER = "@SECRET@"

#: Execution modes the oracle sweeps.  ``interp``: the switch loop
#: (dispatch tables off, no tier-2 engine).  ``tables``: the handler
#: tables under a profiling tier-2 engine with the default
#: :class:`TierPolicy`, so only methods that reach its thresholds
#: compile.  ``tier2``: the engine with every method hot.
MODES = ("interp", "tables", "tier2")

#: Everything is hot, so tier-2 actually runs on small test programs.
_HOT = TierPolicy(
    invocation_threshold=1, backedge_threshold=2,
    deopt_recompile_threshold=1,
)


def _reset_id_counters() -> None:
    """Restart the global id counters so two runs allocate identical
    inode/object ids and the audit logs are byte-comparable."""
    Inode._ino_counter = itertools.count(1)
    ObjectHeader._oid_counter = itertools.count(1)


@dataclass(frozen=True)
class Observables:
    """Everything a public observer can see from one run."""

    result: object
    exc: str | None
    output: tuple
    statics: tuple
    audit: tuple

    def diff(self, other: "Observables") -> list[str]:
        out = []
        for field_name in ("result", "exc", "output", "statics", "audit"):
            mine, theirs = getattr(self, field_name), getattr(
                other, field_name
            )
            if mine != theirs:
                out.append(
                    f"{field_name} differs: {mine!r} vs {theirs!r}"
                )
        return out


def collect_observables(
    source: str,
    entry: str = "main",
    args: tuple = (),
    *,
    mode: str = "interp",
    **compile_kw,
) -> Observables:
    """Compile and run ``source`` in one execution mode, returning its
    public observables.  ``compile_kw`` is forwarded to
    :class:`~repro.jit.compiler.Compiler` (e.g.
    ``optimize_barriers="certified"``)."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    _reset_id_counters()
    tier = "interp" if mode == "interp" else "jit"
    program, _report = Compiler(tier=tier, **compile_kw).compile(source)
    kernel = Kernel(LaminarSecurityModule())
    vm = LaminarVM(kernel)
    if program.tags:
        vm.current_thread.gain_capabilities(
            CapabilitySet.dual(*program.tags.values())
        )
    policy = _HOT if mode == "tier2" else None
    interp = Interpreter(program, vm, tier2=policy)
    switch_loop = (
        fastpath.configured(dispatch_table=False)
        if mode == "interp" else nullcontext()
    )
    try:
        with switch_loop:
            result = interp.run(entry, *args)
        exc = None
    except Exception as error:  # noqa: BLE001 - the type is the observable
        result = None
        exc = type(error).__name__
    return Observables(
        result=result,
        exc=exc,
        output=tuple(interp.output),
        statics=tuple(sorted(interp.statics.items(), key=str)),
        audit=tuple(str(entry_) for entry_ in kernel.audit.entries()),
    )


def swap_check(
    template: str,
    secret_a: object,
    secret_b: object,
    *,
    entry: str = "main",
    args: tuple = (),
    modes: tuple = MODES,
    placeholder: str = SECRET_PLACEHOLDER,
    **compile_kw,
) -> dict[str, list[str]]:
    """Two-run noninterference check.

    Substitutes ``secret_a`` / ``secret_b`` for ``placeholder`` in
    ``template``, runs both variants in every requested mode, and
    returns ``{mode: [divergence, ...]}`` containing only modes that
    diverged (empty dict = indistinguishable everywhere).
    """
    if placeholder not in template:
        raise ValueError(
            f"template does not contain the placeholder {placeholder!r}"
        )
    divergences: dict[str, list[str]] = {}
    for mode in modes:
        obs = []
        for secret in (secret_a, secret_b):
            src = template.replace(placeholder, str(secret))
            obs.append(
                collect_observables(
                    src, entry, args, mode=mode, **compile_kw
                )
            )
        delta = obs[0].diff(obs[1])
        if delta:
            divergences[mode] = delta
    return divergences


def assert_swap_indistinguishable(
    template: str,
    secret_a: object,
    secret_b: object,
    **kw,
) -> None:
    """Raise ``AssertionError`` with a full divergence report if the two
    secret variants are distinguishable in any mode.  Divergence on a
    certified program means the certifier is unsound — tests treat this
    as a hard failure."""
    divergences = swap_check(template, secret_a, secret_b, **kw)
    if divergences:
        lines = [
            "secret-swap distinguishable "
            f"({secret_a!r} vs {secret_b!r}):"
        ]
        for mode, deltas in sorted(divergences.items()):
            for delta in deltas:
                lines.append(f"  [{mode}] {delta}")
        raise AssertionError("\n".join(lines))
