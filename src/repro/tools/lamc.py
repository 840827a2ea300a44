"""``lamc`` — the Laminar mini-JIT command-line driver.

A small compiler driver for IR files, the tool a downstream user reaches
for when debugging a workload or a pass::

    python -m repro.tools.lamc compile prog.ir --config dynamic --dump
    python -m repro.tools.lamc run prog.ir --config static --entry main
    python -m repro.tools.lamc run prog.ir --tier2 --tier2-threshold 4
    python -m repro.tools.lamc verify prog.ir --format sarif
    python -m repro.tools.lamc disasm prog.ir
    python -m repro.tools.lamc disasm prog.ir --tiers --tier2
    python -m repro.tools.lamc lint prog.ir --json
    python -m repro.tools.lamc fsck --seed 1234 --points 40
    python -m repro.tools.lamc fuzz --seed 7 --traces 50
    python -m repro.tools.lamc fuzz --seed 7 --ops 3 --leak pipe-read
    python -m repro.tools.lamc cluster --shards 4 --workers 2 \
        --topology edge,shuffle,central

``compile`` prints the pass pipeline and barrier accounting (optionally
the instrumented program); ``run`` executes on a fresh VM over a vanilla
kernel and reports the result plus barrier statistics; ``verify`` runs
the deep pipeline — lint, the label-race detector (LAM007/LAM008) and
the security-type certifier (LAM009 + per-method certificates), exit 1
on any error; ``disasm`` parses and pretty-prints; ``lint``
runs the whole-program lamlint analyses and reports IFC findings (exit 1
when any error-severity finding exists, 2 on syntax errors); both
``lint`` and ``verify`` speak ``--format sarif`` for CI upload; ``fsck``
runs the OS-layer crash-consistency sweep (deterministic by default,
seed-randomized with ``--seed`` — the command CI prints for replaying a
nightly chaos failure) and exits 1 on any recovery-invariant violation;
``cluster`` boots N kernel shards behind the label-aware router, runs a
generated trace, and exits 1 unless the merged cluster audit is
byte-identical to a single-kernel replay of the same routed trace;
``fuzz`` runs lamfuzz — seed-deterministic whole-OS workloads under the
two-run secret-swap noninterference oracle across the execution matrix
(cooperative / replicated-parallel / fault-composed arms), shrinking any
violation to a minimal op sequence and printing the one-line
``lamc fuzz --seed N --ops K`` replay command (exit 1 on violation).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from ..analysis import run_lint, run_verify, to_sarif
from ..baselines import vanilla_kernel
from ..core import CapabilitySet
from ..jit import (
    Compiler,
    Interpreter,
    JITConfig,
    VerificationError,
    parse_program,
    verify_program,
)
from ..jit.disasm import disassemble
from ..jit.parser import IRSyntaxError
from ..runtime import LaminarVM


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _tier_policy(args: argparse.Namespace):
    if not getattr(args, "tier2", False):
        return None
    from ..jit.tier2 import TierPolicy

    threshold = getattr(args, "tier2_threshold", None)
    if threshold is None:
        return TierPolicy()
    # One knob scales both promotion points; back-edges run hotter than
    # invocations by the same 5x ratio as the defaults.
    return TierPolicy(
        invocation_threshold=threshold, backedge_threshold=5 * threshold
    )


def _build_compiler(args: argparse.Namespace) -> Compiler:
    if args.no_elim:
        optimize = False
    elif getattr(args, "certified", False):
        optimize = "certified"
    elif getattr(args, "interproc", False):
        optimize = "interprocedural"
    else:
        optimize = True
    return Compiler(
        JITConfig(args.config),
        optimize_barriers=optimize,
        inline=not args.no_inline,
        clone=args.clone,
        labeled_statics=args.labeled_statics,
        tier2=_tier_policy(args),
    )


def cmd_compile(args: argparse.Namespace, out) -> int:
    program, report = _build_compiler(args).compile(_read_source(args.file))
    print(f"config:   {report.config.value}", file=out)
    print(f"passes:   {' -> '.join(report.passes)}", file=out)
    print(
        f"methods:  {report.methods}   input instrs: {report.input_instrs}",
        file=out,
    )
    interproc = (
        f" (+{report.barriers_removed_interproc} interprocedural)"
        if report.barriers_removed_interproc
        else ""
    )
    certified = (
        f" (+{report.barriers_removed_certified} certified)"
        if report.barriers_removed_certified
        else ""
    )
    print(
        f"barriers: {report.barriers_inserted} inserted, "
        f"{report.barriers_removed} removed{interproc}{certified}, "
        f"{report.barriers_final} final",
        file=out,
    )
    if program.certified_methods:
        print(
            f"certified: {', '.join(sorted(program.certified_methods))}",
            file=out,
        )
    print(
        f"inlined:  {report.inlined_calls} call sites   "
        f"lowered: {report.machine_ops} ops   "
        f"({report.seconds * 1000:.2f} ms)",
        file=out,
    )
    if args.dump:
        print(file=out)
        print(disassemble(program), file=out)
    return 0


def cmd_run(args: argparse.Namespace, out) -> int:
    program, report = _build_compiler(args).compile(_read_source(args.file))
    vm = LaminarVM(vanilla_kernel())
    if program.tags:
        # Region attributes declared in the source mint program-local tags;
        # the driver thread owns them all so declared regions are enterable.
        vm.current_thread.gain_capabilities(
            CapabilitySet.dual(*program.tags.values())
        )
    interp = Interpreter(program, vm)
    result = interp.run(args.entry)
    print(f"result:   {result!r}", file=out)
    stats = vm.barriers.stats
    print(
        f"executed: {interp.executed} instrs   barriers: {stats.total} "
        f"({stats.read_barriers}r/{stats.write_barriers}w/"
        f"{stats.alloc_barriers}a, {stats.dynamic_dispatches} dispatches)",
        file=out,
    )
    engine = interp._tier2
    if engine is not None:
        print(
            f"tier-2:   {engine.compiles} compiles, {engine.entries} entries, "
            f"{engine.deopts} deopts, {engine.osr_entries} OSR entries",
            file=out,
        )
    if interp.output:
        print("output:", file=out)
        for item in interp.output:
            print(f"  {item!r}", file=out)
    return 0


def cmd_verify(args: argparse.Namespace, out) -> int:
    program = parse_program(_read_source(args.file))
    report = run_verify(program, labeled_statics=args.labeled_statics)
    fmt = getattr(args, "format", "human")
    if fmt == "json":
        json.dump(report.to_dict(), out, indent=2)
        print(file=out)
    elif fmt == "sarif":
        json.dump(report.to_sarif(artifact=args.file), out, indent=2)
        print(file=out)
    else:
        print(report.format_human(), file=out)
    return 1 if report.errors else 0


def cmd_disasm(args: argparse.Namespace, out) -> int:
    if getattr(args, "tiers", False):
        # Tier report wants the *compiled* program: barrier flavors and
        # fusable pairs only exist after the pipeline runs.
        from ..jit.disasm import disassemble_tiers

        program, _report = _build_compiler(args).compile(
            _read_source(args.file)
        )
        print(
            disassemble_tiers(program, _tier_policy(args)), file=out
        )
        return 0
    print(disassemble(parse_program(_read_source(args.file))), file=out)
    return 0


def cmd_fsck(args: argparse.Namespace, out) -> int:
    from ..osim.chaos import run_crash_sweep, run_random_sweep

    if args.seed is not None:
        result = run_random_sweep(args.seed, count=args.points)
        header = f"randomized sweep (seed {args.seed})"
    else:
        result = run_crash_sweep(target=args.points)
        header = "deterministic crash-point sweep"
    if args.json:
        json.dump(
            {
                "mode": "random" if args.seed is not None else "deterministic",
                "seed": args.seed,
                "points": [
                    {
                        "site": r.site,
                        "nth": r.nth,
                        "kind": r.kind.value,
                        "outcome": r.outcome,
                        "violations": r.violations,
                    }
                    for r in result.results
                ],
                "ok": result.ok,
            },
            out,
            indent=2,
        )
        print(file=out)
    else:
        print(f"{header}: {result.summary()}", file=out)
        for site, nth, violation in result.violations:
            print(f"  {site}#{nth}: {violation}", file=out)
        if not result.ok and args.seed is not None:
            print(f"replay locally: lamc fsck --seed {args.seed}", file=out)
    return 0 if result.ok else 1


def cmd_fuzz(args: argparse.Namespace, out) -> int:
    import hashlib
    from pathlib import Path

    from ..analysis.fuzz import (
        ALL_ARMS,
        check_trace,
        fuzz_sweep,
        generate_plan,
        shrink_trace,
    )
    from ..osim.lsm import LeakySecurityModule

    arms = tuple(args.arms.split(","))
    for arm in arms:
        if arm not in ALL_ARMS:
            print(f"error: unknown arm {arm!r} (known: {ALL_ARMS})", file=out)
            return 2
    if args.leak is not None and args.leak not in LeakySecurityModule.LEAKS:
        print(
            f"error: unknown leak {args.leak!r} "
            f"(known: {LeakySecurityModule.LEAKS})",
            file=out,
        )
        return 2

    if args.dump_trace:
        for i in range(args.traces):
            plan = generate_plan(args.seed + i)
            if args.ops is not None:
                plan = plan.truncated(args.ops)
            print(plan.serialize(), file=out, end="")
        return 0

    report = fuzz_sweep(
        args.seed,
        args.traces,
        ops=args.ops,
        leak=args.leak,
        arms=arms,
        workers=args.workers,
    )

    payload = {
        "base_seed": args.seed,
        "traces": report.traces,
        "ops_total": report.ops_total,
        "arms": list(arms),
        "leak": args.leak,
        "coverage": report.coverage,
        "ok": report.ok,
        "violations": [],
    }
    replay = None
    for verdict in report.failures:
        plan = verdict.plan
        k, minimal = len(plan.ops), plan
        if not args.no_shrink:
            k, minimal = shrink_trace(
                plan, leak=args.leak, arms=("coop",), workers=args.workers
            )
        replay = f"lamc fuzz --seed {verdict.seed} --ops {k}"
        if args.leak:
            replay += f" --leak {args.leak}"
        payload["violations"].append(
            {
                "seed": verdict.seed,
                "ops": k,
                "replay": replay,
                "minimal_trace": minimal.serialize(),
                "plan_sha256": hashlib.sha256(
                    plan.serialize().encode()
                ).hexdigest(),
                "findings": [
                    {"arm": v.arm, "kind": v.kind, "detail": v.detail}
                    for v in verdict.violations
                ],
            }
        )
        if args.artifacts:
            artifact_dir = Path(args.artifacts)
            artifact_dir.mkdir(parents=True, exist_ok=True)
            lines = [f"# replay locally: {replay}", ""]
            lines.extend(
                f"# {v.arm}/{v.kind}: {v.detail}" for v in verdict.violations
            )
            lines.append("")
            lines.append(minimal.serialize())
            (artifact_dir / f"fuzz_seed{verdict.seed}.trace").write_text(
                "\n".join(lines)
            )
        break  # stop_on_violation: at most one failing verdict

    if args.json:
        json.dump(payload, out, indent=2, default=str)
        print(file=out)
    else:
        print(f"lamfuzz: {report.summary()} [arms: {','.join(arms)}]", file=out)
        for entry in payload["violations"]:
            for finding in entry["findings"][:8]:
                print(
                    f"  {finding['arm']}/{finding['kind']}: "
                    f"{finding['detail'][:200]}",
                    file=out,
                )
            print(f"  minimal failing trace ({entry['ops']} ops):", file=out)
            for line in entry["minimal_trace"].rstrip().splitlines():
                print(f"    {line}", file=out)
            print(f"replay locally: {entry['replay']}", file=out)
    return 0 if report.ok else 1


def cmd_cluster(args: argparse.Namespace, out) -> int:
    import time
    from collections import Counter

    from ..bench.loadgen import UserWorld, build_trace
    from ..osim.cluster import (
        Cluster,
        LabelAwareRouter,
        RoutingError,
        render_audit,
        replay_single,
    )

    world = UserWorld()
    trace = build_trace(
        world,
        args.requests,
        users=args.users,
        tainted_fraction=args.tainted,
        seed=args.seed,
    )
    cluster = Cluster(
        world,
        shards=args.shards,
        topology=args.topology,
        executor=args.executor,
        workers=args.workers,
        defer_work=True,
        work_ns=args.work_ns,
        seed=args.seed,
    )
    # Pre-filter with a throwaway router (routing is a pure function of
    # (principal, labels)): requests no tier can hold fail closed at the
    # router and never reach a shard.
    probe = LabelAwareRouter(cluster.specs)
    routable, refused = [], 0
    for req in trace:
        try:
            probe.route(req.principal, req.labels)
        except RoutingError:
            refused += 1
        else:
            routable.append(req)
    start = time.perf_counter()
    responses = cluster.run_trace(routable)
    seconds = time.perf_counter() - start
    wire_stats = cluster.wire_stats()
    merged = cluster.merged_audit()
    single, _ = replay_single(world, routable)
    parity = merged == render_audit(single.kernel.audit)
    agg = cluster.aggregate()
    per_shard = Counter(resp.shard_id for resp in responses)
    if args.json:
        json.dump(
            {
                "shards": [
                    {
                        "shard_id": spec.shard_id,
                        "tier": spec.tier,
                        "requests": per_shard.get(spec.shard_id, 0),
                    }
                    for spec in cluster.specs
                ],
                "executor": args.executor,
                "seed": args.seed,
                "requests": len(routable),
                "refused_at_router": refused,
                "seconds": seconds,
                "requests_per_sec": len(routable) / seconds,
                "denials": sum(agg["denials"].values()),
                "audit_entries": len(merged),
                "audit_parity": parity,
                "wire": wire_stats,
            },
            out,
            indent=2,
        )
        print(file=out)
    else:
        print(
            f"cluster:  {args.shards} shards ({args.topology}), "
            f"{args.executor} executor",
            file=out,
        )
        for spec in cluster.specs:
            print(
                f"  shard {spec.shard_id} [{spec.tier:>7}]: "
                f"{per_shard.get(spec.shard_id, 0)} requests",
                file=out,
            )
        print(
            f"routed:   {len(routable)} requests "
            f"({refused} refused at router)   "
            f"{len(routable) / seconds:.0f} req/s",
            file=out,
        )
        print(
            f"audit:    {len(merged)} entries, "
            f"{sum(agg['denials'].values())} denials, "
            f"parity {'ok' if parity else 'MISMATCH'}",
            file=out,
        )
        print(
            f"wire:     {wire_stats['wire']}, "
            f"{wire_stats['frames']} frames, "
            f"{wire_stats.get('bytes_per_request', 0)} B/req, "
            f"label dict {wire_stats['label_dict_hits']} hits / "
            f"{wire_stats['label_dict_misses']} misses",
            file=out,
        )
    cluster.shutdown()
    return 0 if parity else 1


def cmd_lint(args: argparse.Namespace, out) -> int:
    program = parse_program(_read_source(args.file))
    report = run_lint(program, labeled_statics=args.labeled_statics)
    fmt = getattr(args, "format", None) or (
        "json" if args.json else "human"
    )
    if fmt == "json":
        json.dump(report.to_dicts(), out, indent=2)
        print(file=out)
    elif fmt == "sarif":
        json.dump(
            to_sarif(report.diagnostics, "lamlint", artifact=args.file),
            out, indent=2,
        )
        print(file=out)
    else:
        print(report.format_human(), file=out)
    return 1 if report.errors else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lamc", description="Laminar mini-JIT driver"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", help="IR source file ('-' for stdin)")
        p.add_argument(
            "--config",
            choices=[c.value for c in JITConfig],
            default="static",
            help="compilation configuration (default: static)",
        )
        p.add_argument("--no-elim", action="store_true",
                       help="disable redundant-barrier elimination")
        p.add_argument("--no-inline", action="store_true",
                       help="disable inlining")
        p.add_argument("--clone", action="store_true",
                       help="clone methods for both region contexts")
        p.add_argument("--labeled-statics", action="store_true",
                       help="enable the labeled-statics extension")
        p.add_argument("--interproc", action="store_true",
                       help="also eliminate barriers using whole-program "
                            "(interprocedural) proven-safe facts")
        p.add_argument("--certified", action="store_true",
                       help="additionally delete every barrier in methods "
                            "the security-type certifier fully discharges "
                            "(implies --interproc)")
        p.add_argument("--tier2", action="store_true",
                       help="attach the tier-2 template JIT (profile-guided "
                            "promotion of hot methods to compiled code)")
        p.add_argument("--tier2-threshold", type=int, default=None,
                       metavar="N",
                       help="tier-2 promotion threshold: compile after N "
                            "invocations (back-edge OSR at 5*N)")

    p_compile = sub.add_parser("compile", help="compile and report")
    common(p_compile)
    p_compile.add_argument("--dump", action="store_true",
                           help="print the compiled program")
    p_compile.set_defaults(fn=cmd_compile)

    p_run = sub.add_parser("run", help="compile and execute")
    common(p_run)
    p_run.add_argument("--entry", default="main", help="entry method")
    p_run.set_defaults(fn=cmd_run)

    p_verify = sub.add_parser(
        "verify",
        help="run the security-type certifier and race detector "
             "(lint + LAM007-LAM009 + per-method certificates)",
    )
    p_verify.add_argument("file", help="IR source file ('-' for stdin)")
    p_verify.add_argument("--format", choices=("human", "json", "sarif"),
                          default="human",
                          help="output format (default: human)")
    p_verify.add_argument("--labeled-statics", action="store_true",
                          help="verify under the labeled-statics extension")
    p_verify.set_defaults(fn=cmd_verify)

    p_disasm = sub.add_parser("disasm", help="parse and pretty-print")
    common(p_disasm)
    p_disasm.add_argument("--tiers", action="store_true",
                          help="compile and print the per-method tier plan "
                               "(tier, baked barrier flavors, fused "
                               "superinstructions, guard points)")
    p_disasm.set_defaults(fn=cmd_disasm)

    p_lint = sub.add_parser(
        "lint", help="run the lamlint whole-program IFC analyses"
    )
    p_lint.add_argument("file", help="IR source file ('-' for stdin)")
    p_lint.add_argument("--json", action="store_true",
                        help="emit findings as JSON (same as --format json)")
    p_lint.add_argument("--format", choices=("human", "json", "sarif"),
                        default=None,
                        help="output format (default: human)")
    p_lint.add_argument("--labeled-statics", action="store_true",
                        help="lint under the labeled-statics extension")
    p_lint.set_defaults(fn=cmd_lint)

    p_fsck = sub.add_parser(
        "fsck", help="run the OS crash-consistency sweep and audit recovery"
    )
    p_fsck.add_argument("--seed", type=int, default=None,
                        help="randomized sweep from this seed (default: "
                             "deterministic sweep of recorded crash points)")
    p_fsck.add_argument("--points", type=int, default=60,
                        help="fault points to schedule (default: 60)")
    p_fsck.add_argument("--json", action="store_true",
                        help="emit the sweep result as JSON")
    p_fsck.set_defaults(fn=cmd_fsck)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="seed-deterministic whole-OS noninterference fuzzing under "
             "the secret-swap oracle across the execution matrix",
    )
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="base seed; trace i uses seed+i (default: 0)")
    p_fuzz.add_argument("--traces", type=int, default=1,
                        help="number of consecutive seeds to check "
                             "(default: 1)")
    p_fuzz.add_argument("--ops", type=int, default=None, metavar="K",
                        help="truncate each trace to its first K ops (the "
                             "shrinker's replay form)")
    p_fuzz.add_argument("--arms", default="coop,par2,fault",
                        help="comma-separated execution arms (default: "
                             "coop,par2,fault; add 'fork' for the real "
                             "fork-worker pool)")
    p_fuzz.add_argument("--workers", type=int, default=2,
                        help="replicas/workers for the parallel arms "
                             "(default: 2)")
    p_fuzz.add_argument("--leak", default=None,
                        help="plant a deliberate kernel leak (negative "
                             "control; pipe-read or file-read) — the run "
                             "must exit 1")
    p_fuzz.add_argument("--no-shrink", action="store_true",
                        help="skip shrinking failing traces")
    p_fuzz.add_argument("--dump-trace", action="store_true",
                        help="print the generated trace plan(s) and exit")
    p_fuzz.add_argument("--artifacts", default=None, metavar="DIR",
                        help="write shrunk failing traces to DIR (one "
                             ".trace file per failing seed)")
    p_fuzz.add_argument("--json", action="store_true",
                        help="emit the sweep report as JSON")
    p_fuzz.set_defaults(fn=cmd_fuzz)

    p_cluster = sub.add_parser(
        "cluster",
        help="boot N kernel shards behind the label-aware router, run a "
             "generated trace, and check single-kernel audit parity",
    )
    p_cluster.add_argument("--shards", type=int, default=2,
                           help="number of kernel shards (default: 2)")
    p_cluster.add_argument("--workers", type=int, default=None, metavar="M",
                           help="worker processes for the multiprocess "
                                "executor (default: one per shard)")
    p_cluster.add_argument("--topology", default="edge",
                           help="comma-separated trust tiers, cycled over "
                                "the shards (default: edge; e.g. "
                                "edge,shuffle,central)")
    p_cluster.add_argument("--executor",
                           choices=("same-process", "multiprocess"),
                           default="same-process",
                           help="shard executor (default: same-process)")
    p_cluster.add_argument("--requests", type=int, default=64,
                           help="generated trace length (default: 64)")
    p_cluster.add_argument("--users", type=int, default=100_000,
                           help="simulated user id space (default: 100000)")
    p_cluster.add_argument("--tainted", type=float, default=0.0,
                           metavar="FRACTION",
                           help="fraction of requests carrying a secrecy "
                                "tag (default: 0.0)")
    p_cluster.add_argument("--seed", type=int, default=0,
                           help="base seed for trace generation and the "
                                "per-worker RNG derivation rule (workers "
                                "reseed with crc32(f'{seed}:{worker_id}'), "
                                "so repeated runs are bit-reproducible)")
    p_cluster.add_argument("--work-ns", type=float, default=0.0,
                           help="nanoseconds slept per deferred work unit "
                                "(default: 0)")
    p_cluster.add_argument("--json", action="store_true",
                           help="emit the run summary as JSON")
    p_cluster.set_defaults(fn=cmd_cluster)

    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args, out)
    except IRSyntaxError as exc:
        print(f"syntax error: {exc}", file=out)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=out)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
