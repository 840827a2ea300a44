"""``bench_check`` — guard committed benchmark snapshots against drift.

Every benchmark writes a machine-readable ``BENCH_*.json`` at the
repository root, and those snapshots are committed.  CI regenerates them
on every push and compares fresh numbers against the committed ones with
this tool::

    python -m repro.tools.bench_check <committed-dir> [<fresh-dir>]

Two kinds of fields are checked, declared per file in :data:`SPECS`:

* **ratio fields** — relative performance metrics (speedups, geomeans of
  normalized throughput).  These are machine-noise-resistant because
  both sides of the ratio ran on the same machine; a fresh value below
  ``committed * (1 - tolerance)`` is a throughput regression and fails
  the check (one-sided: getting *faster* never fails).
* **exact fields** — invariants of the security record: equivalence
  booleans, barrier/step/retry counts, deterministic fault totals.  Any
  difference is drift in *what the system does*, not how fast it does
  it, and fails the check regardless of direction.

Raw ``seconds`` / ``ops_per_sec`` numbers are deliberately *not* gated:
absolute wall-clock on shared CI runners is too noisy to compare across
machines.  The committed snapshot documents one machine's run; the
gates above catch real regressions without flaking on scheduler jitter.

Exit status: 0 when every present snapshot passes, 1 on any failure.
A file listed in :data:`SPECS` but absent from the committed directory
is skipped (the benchmark has not been committed yet); a committed file
whose fresh counterpart is missing fails (the benchmark stopped
producing its snapshot).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Sequence

#: One-sided tolerance band for ratio fields: fresh may not fall more
#: than this fraction below the committed value.
DEFAULT_TOLERANCE = 0.15


@dataclass(frozen=True)
class BenchSpec:
    """What to compare in one ``BENCH_*.json`` snapshot."""

    file: str
    ratio_fields: tuple[str, ...] = ()
    exact_fields: tuple[str, ...] = ()
    tolerance: float = DEFAULT_TOLERANCE


SPECS: tuple[BenchSpec, ...] = (
    BenchSpec(
        file="BENCH_label_cache.json",
        ratio_fields=("speedup_all_on",),
        exact_fields=(
            "observables_identical",
            "configs.all_on.set_ops",
            "configs.all_off.set_ops",
        ),
    ),
    BenchSpec(
        file="BENCH_os_throughput.json",
        ratio_fields=("batched_speedup",),
        exact_fields=(
            "observables_identical",
            "configs.vanilla.ops",
            "configs.laminar.ops",
            "configs.laminar.steps",
            "configs.laminar_batched.steps",
            "configs.laminar.pipe_drops",
        ),
    ),
    BenchSpec(
        file="BENCH_os_throughput.json",
        # The multi-core arm: wall-clock scaling across fork workers is a
        # same-machine ratio but carries process-scheduling noise — use
        # the widened band (same reasoning as BENCH_cluster_throughput);
        # the acceptance floors (>=3x at 4, >=5x at 8) are asserted by
        # the benchmark itself.  Everything else is the security record
        # and deterministic workload totals: exact.
        ratio_fields=("multicore.scaling_ratio_4x",),
        exact_fields=(
            "multicore.audit_parity",
            "multicore.traffic_parity",
            "multicore.ops",
            "multicore.audit_entries",
            "multicore.pipe_drops",
            "multicore.denials",
            "multicore.hookchain_active",
        ),
        tolerance=0.30,
    ),
    BenchSpec(
        file="BENCH_degraded_throughput.json",
        exact_fields=(
            "points.0.ops",
            "points.0.retries",
            "points.50.retries",
            "points.50.faults_fired",
            "points.10.retries",
            "points.10.faults_fired",
        ),
    ),
    BenchSpec(
        file="BENCH_static_elim.json",
        exact_fields=(
            "observables_identical",
            "strictly_better",
            "totals.static_interproc",
            "totals.static_certified",
            "totals.removed_certified",
        ),
    ),
    BenchSpec(
        file="BENCH_cluster_throughput.json",
        # Wall-clock scaling is a same-machine ratio (4 workers vs 1), but
        # process scheduling is noisier than in-process speedups — widen
        # the one-sided band; the acceptance floor (>=3x) is asserted by
        # the benchmark itself.
        ratio_fields=("scaling_ratio_4x",),
        exact_fields=(
            "parity.audit_parity",
            "parity.traffic_parity",
            "parity.audit_entries",
            "parity.denials",
            # Deferred work is deterministic iteration *counts*, not
            # timings: the Flume-vs-Laminar virtual costs may never drift.
            "flume.laminar_deferred",
            "flume.flume_deferred",
        ),
        tolerance=0.30,
    ),
    BenchSpec(
        file="BENCH_fuzz_coverage.json",
        # Everything here is seed-deterministic — trace counts, op
        # totals, kind coverage, the zero-violation invariant, and the
        # planted-leak catch budgets — so only exact fields are gated;
        # traces/sec is informational (shared runners are too noisy).
        exact_fields=(
            "traces",
            "ops_total",
            "violations",
            "kinds_covered",
            "kinds_total",
            "leak_budgets.pipe-read",
            "leak_budgets.file-read",
        ),
    ),
    BenchSpec(
        file="BENCH_wire_throughput.json",
        # Codec speedup and bytes-per-request ratio are same-machine,
        # same-run interleaved comparisons (the codec and a pickle
        # reference alternate rep by rep), so they resist scheduler
        # noise; still widen the band because per-call ns on shared
        # runners wobbles.  The acceptance floors (>=2x combined
        # encode+decode, >=3x fewer bytes) are asserted by the benchmark
        # itself.  Parity of the merged security record across worker
        # counts is the invariant: exact, at 1/4/8 workers.
        ratio_fields=("speedup_encode_decode", "bytes_ratio"),
        exact_fields=(
            "parity.workers_1.binary.audit_parity",
            "parity.workers_1.binary.traffic_parity",
            "parity.workers_4.binary.audit_parity",
            "parity.workers_4.binary.traffic_parity",
            "parity.workers_8.binary.audit_parity",
            "parity.workers_8.binary.traffic_parity",
            "dictionary.epoch_resend_ok",
        ),
        tolerance=0.30,
    ),
    BenchSpec(
        file="BENCH_jit_tier.json",
        ratio_fields=(
            "geomean_fig8_tier2_vs_interp",
            "geomean_fig8_tier2_vs_table",
        ),
        exact_fields=("observables_identical",),
    ),
)


@dataclass
class CheckResult:
    """Outcome of comparing one snapshot pair."""

    file: str
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def lookup(payload: Any, path: str) -> Any:
    """Resolve a dotted ``a.b.c`` path into nested dicts."""
    node = payload
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            raise KeyError(path)
        node = node[part]
    return node


def check_payloads(
    committed: dict, fresh: dict, spec: BenchSpec
) -> CheckResult:
    """Compare one committed/fresh snapshot pair against its spec."""
    result = CheckResult(spec.file)
    for path in spec.ratio_fields:
        try:
            base = lookup(committed, path)
        except KeyError:
            # Committed snapshot predates the field: nothing to gate yet.
            result.notes.append(f"{path}: not in committed snapshot, skipped")
            continue
        try:
            value = lookup(fresh, path)
        except KeyError:
            result.failures.append(f"{path}: missing from fresh snapshot")
            continue
        floor = base * (1.0 - spec.tolerance)
        if value < floor:
            result.failures.append(
                f"{path}: {value:.3f} regressed below "
                f"{floor:.3f} (committed {base:.3f}, "
                f"tolerance {spec.tolerance:.0%})"
            )
        else:
            result.notes.append(
                f"{path}: {value:.3f} vs committed {base:.3f} ok"
            )
    for path in spec.exact_fields:
        try:
            base = lookup(committed, path)
        except KeyError:
            result.notes.append(f"{path}: not in committed snapshot, skipped")
            continue
        try:
            value = lookup(fresh, path)
        except KeyError:
            result.failures.append(f"{path}: missing from fresh snapshot")
            continue
        if value != base:
            result.failures.append(
                f"{path}: {value!r} drifted from committed {base!r}"
            )
        else:
            result.notes.append(f"{path}: {value!r} ok")
    return result


def check_dirs(
    committed_dir: Path, fresh_dir: Path, specs: Sequence[BenchSpec] = SPECS
) -> list[CheckResult]:
    """Check every spec whose committed snapshot exists."""
    results = []
    for spec in specs:
        committed_path = committed_dir / spec.file
        if not committed_path.exists():
            result = CheckResult(spec.file)
            result.notes.append("no committed snapshot, skipped")
            results.append(result)
            continue
        fresh_path = fresh_dir / spec.file
        if not fresh_path.exists():
            result = CheckResult(spec.file)
            result.failures.append(
                f"committed snapshot exists but {fresh_path} was not "
                f"regenerated"
            )
            results.append(result)
            continue
        committed = json.loads(committed_path.read_text())
        fresh = json.loads(fresh_path.read_text())
        results.append(check_payloads(committed, fresh, spec))
    return results


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = argparse.ArgumentParser(
        prog="bench_check",
        description="compare fresh BENCH_*.json snapshots against "
        "committed ones",
    )
    parser.add_argument("committed", help="directory with committed snapshots")
    parser.add_argument(
        "fresh",
        nargs="?",
        default=".",
        help="directory with freshly generated snapshots (default: .)",
    )
    args = parser.parse_args(argv)
    results = check_dirs(Path(args.committed), Path(args.fresh))
    failed = False
    for result in results:
        status = "FAIL" if result.failures else "ok"
        print(f"{result.file}: {status}", file=out)
        for line in result.notes:
            print(f"  {line}", file=out)
        for line in result.failures:
            print(f"  FAIL {line}", file=out)
        failed = failed or bool(result.failures)
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
