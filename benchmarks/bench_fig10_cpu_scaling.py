"""Figure 10: hos→scs speedup with 1/2/4/8/16 storage-server CPUs.

Paper: CPUs are hot-plugged on the storage server; relative performance
generally improves with more CPUs, and queries whose offloaded portions
are light (2, 3, 4, 5, 7, 10) already beat hos with a single CPU.

Each offloaded portion runs single-threaded (one engine instance), so
extra CPUs help by running *different* portions concurrently — the sweep
re-prices the recorded scs run at each CPU count through the runner's own
pricing function, which equals re-running it (execution never reads the
CPU count).
"""

from __future__ import annotations

from conftest import run_once

from repro.bench import format_table
from repro.sim.pricing import price_split

CPU_COUNTS = (1, 2, 4, 8, 16)


def test_fig10_cpu_scaling(benchmark, deployment, tpch_suite):
    def experiment():
        rows = []
        for q in tpch_suite:
            hos_ms = q.ms("hos")
            speedups = [
                hos_ms
                / price_split(
                    deployment.cost_model,
                    q.runs["scs"].record,
                    cpus=cpus,
                    memory=deployment.storage_memory_bytes,
                ).breakdown.total_ms
                for cpus in CPU_COUNTS
            ]
            rows.append([f"Q{q.number}", *speedups])
        return rows

    rows = run_once(benchmark, experiment)
    print()
    print(
        format_table(
            ["query"] + [f"{c} cpu" for c in CPU_COUNTS],
            rows,
            title="Figure 10 — hos/scs speedup vs storage CPUs (higher is better)",
        )
    )

    # Monotone (never hurts) and some queries win at 1 CPU already.
    for row in rows:
        speedups = row[1:]
        assert all(b >= a - 1e-9 for a, b in zip(speedups, speedups[1:])), (
            f"{row[0]}: more CPUs must not slow the split down"
        )
    at_one = sum(1 for row in rows if row[1] > 1.0)
    print(f"\nqueries already faster than hos with 1 storage CPU: {at_one}/{len(rows)}")
    assert at_one >= 4, "several light offloads must win with a single CPU"
    improved = sum(1 for row in rows if row[len(CPU_COUNTS)] > row[1])
    assert improved >= len(rows) // 3, "many queries should benefit from more CPUs"
