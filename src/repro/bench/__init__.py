"""Benchmark substrate: workload generators, lmbench rows, and the
measurement/normalization harness.  The actual table/figure benchmarks
live in the top-level ``benchmarks/`` directory; this package is the
library they share."""

from .harness import (
    DEFAULT_TRIALS,
    Row,
    fastpath_snapshot,
    geometric_mean,
    median_seconds,
    overhead_pct,
    render_breakdown,
    render_table,
)
from .loadgen import (
    DEFAULT_USERS,
    QueueStats,
    UserWorld,
    ZipfianSampler,
    build_trace,
    open_loop_arrivals,
    saturation_curve,
    simulate_queueing,
)
from .lmbench import (
    LMBENCH_EXTENDED_ROWS,
    LMBENCH_ROWS,
    PAPER_TABLE2_OVERHEAD_PCT,
    setup_tree,
)
from .workloads import ALL_WORKLOADS, DACAPO_LIKE, PSEUDOJBB, OSServerWorld

__all__ = [
    "ALL_WORKLOADS",
    "DACAPO_LIKE",
    "DEFAULT_TRIALS",
    "DEFAULT_USERS",
    "OSServerWorld",
    "QueueStats",
    "UserWorld",
    "ZipfianSampler",
    "build_trace",
    "open_loop_arrivals",
    "saturation_curve",
    "simulate_queueing",
    "LMBENCH_EXTENDED_ROWS",
    "LMBENCH_ROWS",
    "PAPER_TABLE2_OVERHEAD_PCT",
    "PSEUDOJBB",
    "Row",
    "fastpath_snapshot",
    "geometric_mean",
    "median_seconds",
    "overhead_pct",
    "render_breakdown",
    "render_table",
    "setup_tree",
]
