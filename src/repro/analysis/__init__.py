"""lamlint + lamverify: whole-program static analysis for the mini-JIT.

Layered on the generalized dataflow framework in :mod:`repro.jit.dataflow`:

* :mod:`repro.analysis.callgraph` — call graph, SCCs, region contexts and
  governing regions;
* :mod:`repro.analysis.safety` — interprocedural redundant-barrier facts
  (consumed by ``Compiler(optimize_barriers="interprocedural")``) and the
  may-throw analysis;
* :mod:`repro.analysis.labelflow` — definitely-unlabeled and may-taint
  label-flow passes with provenance;
* :mod:`repro.analysis.diagnostics` / :mod:`repro.analysis.lint` — the
  LAM rule set behind ``lamc lint``;
* :mod:`repro.analysis.typecheck` — the security-type certifier issuing
  machine-checkable per-method :class:`~.typecheck.SecurityCertificate`\\ s
  (consumed by ``Compiler(optimize_barriers="certified")``, which deletes
  certified methods' barriers);
* :mod:`repro.analysis.races` — the lockset + happens-before label-race
  detector (LAM007/LAM008);
* :mod:`repro.analysis.verify` — the ``lamc verify`` driver combining
  lint, races and certification (LAM009);
* :mod:`repro.analysis.secretswap` — the two-run noninterference oracle
  backing the certifier's soundness tests;
* :mod:`repro.analysis.fuzz` — lamfuzz, the production-scale fuzzer
  scaling the secret-swap oracle to whole-OS workloads across the
  execution matrix (``lamc fuzz``).
"""

from .callgraph import CallGraph, CallSite, build_callgraph
from .fuzz import (
    FuzzReport,
    TracePlan,
    TraceVerdict,
    check_trace,
    fuzz_sweep,
    generate_plan,
    leak_catch_budget,
    shrink_trace,
)
from .diagnostics import Diagnostic, RULE_SUMMARIES, SEVERITY_OF, to_sarif
from .labelflow import FlowStep, TaintAnalysis, UnlabeledAnalysis
from .lint import LintReport, RULES, run_lint
from .races import RaceReport, detect_races
from .safety import (
    InterproceduralFacts,
    compute_interprocedural_facts,
    may_raise_suppressible,
)
from .secretswap import (
    Observables,
    assert_swap_indistinguishable,
    collect_observables,
    swap_check,
)
from .typecheck import (
    Obligation,
    SecurityCertificate,
    TypecheckResult,
    check_certificate,
    typecheck_program,
)
from .verify import VerifyReport, run_verify

__all__ = [
    "CallGraph",
    "CallSite",
    "Diagnostic",
    "FlowStep",
    "FuzzReport",
    "InterproceduralFacts",
    "LintReport",
    "Obligation",
    "Observables",
    "RaceReport",
    "RULES",
    "RULE_SUMMARIES",
    "SEVERITY_OF",
    "SecurityCertificate",
    "TaintAnalysis",
    "TracePlan",
    "TraceVerdict",
    "TypecheckResult",
    "UnlabeledAnalysis",
    "VerifyReport",
    "assert_swap_indistinguishable",
    "build_callgraph",
    "check_certificate",
    "check_trace",
    "collect_observables",
    "compute_interprocedural_facts",
    "detect_races",
    "fuzz_sweep",
    "generate_plan",
    "leak_catch_budget",
    "may_raise_suppressible",
    "run_lint",
    "shrink_trace",
    "run_verify",
    "swap_check",
    "to_sarif",
    "typecheck_program",
]
