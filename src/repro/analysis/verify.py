"""``lamc verify``: the deep static pipeline layered over ``lamc lint``.

Where :mod:`.lint` answers "is anything visibly wrong", verify answers
the stronger question "which methods are provably *right*":

1. every lint rule (LAM000–LAM006) runs first — a program the front end
   rejects gets no deeper analysis;
2. the race detector (:mod:`.races`) adds LAM007/LAM008 for label races
   and unsynchronized region writes;
3. the security-type certifier (:mod:`.typecheck`) runs with the race
   verdicts in hand and issues per-method
   :class:`~.typecheck.SecurityCertificate`\\ s; fully-certified methods
   surface as LAM009 info diagnostics ("certified secure"), and the
   certificates themselves ride on the report for tooling (``lamc
   verify --json`` embeds them, the compiler's ``certified`` mode
   consumes the same analysis).

Exit-code contract (mirrors ``lamc lint``): errors → 1, clean or
warnings-only → 0, front-end rejection → the LAM000 error path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..jit.ir import Program
from .callgraph import CallGraph
from .diagnostics import make, sort_key, to_sarif
from .lint import run_lint
from .races import RaceReport, detect_races
from .typecheck import TypecheckResult, typecheck_program


@dataclass
class VerifyReport:
    """Lint + race diagnostics plus the certifier's verdicts."""

    diagnostics: list = field(default_factory=list)
    certificates: dict = field(default_factory=dict)
    races: RaceReport | None = None
    #: True when the front end rejected the program (LAM000): the deep
    #: passes did not run and ``certificates`` is empty.
    structural: bool = False

    @property
    def errors(self) -> list:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def codes(self) -> set:
        return {d.code for d in self.diagnostics}

    def certified(self) -> frozenset:
        return frozenset(
            name
            for name, cert in self.certificates.items()
            if cert.certified
        )

    def to_dict(self) -> dict:
        return {
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "certificates": {
                name: cert.to_dict()
                for name, cert in sorted(self.certificates.items())
            },
            "certified": sorted(self.certified()),
        }

    def to_sarif(self, artifact: str | None = None) -> dict:
        return to_sarif(self.diagnostics, "lamverify", artifact)

    def format_human(self) -> str:
        lines = [d.format_human() for d in self.diagnostics]
        total = len(self.certificates)
        if self.structural:
            lines.append("-- front-end rejection: deep analysis skipped")
        elif total:
            certified = len(self.certified())
            discharged = sum(
                c.discharged for c in self.certificates.values()
            )
            obligations = sum(
                len(c.obligations) for c in self.certificates.values()
            )
            lines.append(
                f"ok: {certified}/{total} methods certified, "
                f"{discharged}/{obligations} obligations discharged"
            )
        if self.errors:
            lines.append(f"-- {len(self.errors)} error(s)")
        return "\n".join(lines)


def run_verify(
    program: Program, labeled_statics: bool = False
) -> VerifyReport:
    """Run the full verification pipeline over a parsed program."""
    lint_report = run_lint(program, labeled_statics=labeled_statics)
    report = VerifyReport(diagnostics=list(lint_report.diagnostics))
    if "LAM000" in lint_report.codes:
        report.structural = True
        return report

    cg = CallGraph(program)
    races = detect_races(program, cg)
    report.races = races
    report.diagnostics.extend(races.diagnostics)

    result: TypecheckResult = typecheck_program(
        program,
        labeled_statics=labeled_statics,
        callgraph=cg,
        races=races,
    )
    report.certificates = dict(result.certificates)
    for name in sorted(result.certified()):
        cert = result.certificates[name]
        report.diagnostics.append(make(
            "LAM009", name,
            f"certified secure: all {len(cert.obligations)} check "
            f"obligation(s) discharged "
            f"({_rules_summary(cert)}); barriers are eliminable",
        ))
    report.diagnostics.sort(key=sort_key)
    return report


def _rules_summary(cert) -> str:
    rules: dict[str, int] = {}
    for ob in cert.obligations:
        if ob.rule:
            rules[ob.rule] = rules.get(ob.rule, 0) + 1
    if not rules:
        return "no checks required"
    return ", ".join(
        f"{count}x {rule}" for rule, count in sorted(rules.items())
    )
