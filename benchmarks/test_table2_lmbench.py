"""Table 2: lmbench OS micro-benchmarks, unmodified Linux vs Laminar OS.

Paper numbers (overhead of the Laminar LSM over vanilla): stat 2%, fork
0.6%, exec 0.6%, 0k create 4%, 0k delete 6%, mmap 2%, prot fault 7%,
null I/O 31%.  "The only performance outlier is the null I/O benchmark
... the system call being measured does little work to amortize the cost
of the label check."

Reproduction: each row drives the same syscall path on two kernels — one
with the NullSecurityModule, one with the LaminarSecurityModule — and the
medians are normalized.  Both arms run with the kernel's permission memo
off (``path_walk_cache=False``): the paper's LSM checks every call, and a
replayed verdict would time the memo instead of the label check.
Asserted shape:

* Laminar is never (meaningfully) faster than vanilla;
* null I/O has the largest relative overhead of all rows;
* heavyweight rows (fork/exec) sit well below null I/O.
"""

from __future__ import annotations

import gc
import statistics
import time

import pytest

from conftest import publish
from repro.bench import (
    LMBENCH_EXTENDED_ROWS,
    LMBENCH_ROWS,
    PAPER_TABLE2_OVERHEAD_PCT,
    Row,
    render_table,
    setup_tree,
)
from repro.core import fastpath
from repro.osim import Kernel, LaminarSecurityModule, NullSecurityModule

pytestmark = pytest.mark.bench

TRIALS = 5


def _run_suite() -> list[Row]:
    """Vanilla and Laminar run back-to-back inside every trial: CPU
    frequency drift over seconds otherwise swamps the per-check cost."""
    rows = []
    for name, (fn, iterations) in LMBENCH_ROWS.items():
        vanilla_samples, laminar_samples = [], []
        for trial in range(TRIALS + 1):
            k_vanilla = Kernel(NullSecurityModule())
            a_vanilla = setup_tree(k_vanilla)
            k_laminar = Kernel(LaminarSecurityModule())
            a_laminar = setup_tree(k_laminar)
            gc.collect()
            start = time.perf_counter()
            fn(k_vanilla, a_vanilla, iterations)
            vanilla_elapsed = time.perf_counter() - start
            start = time.perf_counter()
            fn(k_laminar, a_laminar, iterations)
            laminar_elapsed = time.perf_counter() - start
            if trial > 0:  # first pass is warm-up
                vanilla_samples.append(vanilla_elapsed)
                laminar_samples.append(laminar_elapsed)
        rows.append(
            Row(
                name,
                statistics.median(vanilla_samples),
                statistics.median(laminar_samples),
                paper_pct=PAPER_TABLE2_OVERHEAD_PCT[name],
            )
        )
    return rows


@pytest.fixture(scope="module")
def rows():
    with fastpath.configured(path_walk_cache=False):
        return _run_suite()


def test_table2_report(rows):
    text = render_table(
        "Table 2 — lmbench micro-benchmarks (Linux vs Laminar OS)",
        rows,
    )
    publish("table2_lmbench", text)


def test_table2_null_io_is_the_outlier(rows):
    by_name = {r.name: r.pct for r in rows}
    null_io = by_name["null I/O"]
    assert null_io == max(by_name.values()), (
        f"null I/O should be the worst row (got {by_name})"
    )
    # ...and clearly worse than the heavyweight calls.
    assert null_io > by_name["fork"]
    assert null_io > by_name["exec"]


def test_table2_laminar_never_faster(rows):
    for row in rows:
        assert row.pct > -10.0, (
            f"{row.name}: Laminar measured {row.pct:.1f}% vs vanilla — "
            f"beyond noise tolerance in the wrong direction"
        )


def test_table2_extended_rows():
    """Beyond the paper's Table 2: pipe latency and signal delivery run on
    both kernels (smoke + report; no paper column exists)."""
    rows = []
    for name, (fn, iterations) in LMBENCH_EXTENDED_ROWS.items():
        import statistics

        vanilla_samples, laminar_samples = [], []
        for trial in range(TRIALS + 1):
            kv = Kernel(NullSecurityModule())
            av = setup_tree(kv)
            kl = Kernel(LaminarSecurityModule())
            al = setup_tree(kl)
            gc.collect()
            start = time.perf_counter()
            fn(kv, av, iterations)
            tv = time.perf_counter() - start
            start = time.perf_counter()
            fn(kl, al, iterations)
            tl = time.perf_counter() - start
            if trial > 0:
                vanilla_samples.append(tv)
                laminar_samples.append(tl)
        rows.append(Row(name, statistics.median(vanilla_samples),
                        statistics.median(laminar_samples)))
    text = render_table(
        "Table 2 (extended) — rows beyond the paper's selection", rows
    )
    publish("table2_lmbench_extended", text)
    for row in rows:
        assert row.pct > -15.0, f"{row.name}: {row.pct:.1f}%"


def test_table2_benchmark_null_io(benchmark):
    """pytest-benchmark hook: the outlier row under the Laminar LSM."""
    kernel = Kernel(LaminarSecurityModule())
    actor = setup_tree(kernel)
    fn, iterations = LMBENCH_ROWS["null I/O"]
    with fastpath.configured(path_walk_cache=False):
        benchmark(fn, kernel, actor, iterations)
