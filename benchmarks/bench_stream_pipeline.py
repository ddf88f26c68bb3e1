"""Streaming ship pipeline: overlap speedup, bounded memory.

A shipping-heavy scan (every ``lineitem`` column, weakly selective
predicate) on a memory-constrained storage server, with the decrypted-page
cache warm so the secure-paging cost does not mask the ship path.  The
serial baseline materializes the whole result before shipping — its
working set spills at the storage memory limit — while the streamed run
ships bounded RecordBatches and overlaps (scan | channel crypto | host
ingest), so it must be ≥1.5× faster in simulated time.  The serial escape
hatch (``pipeline=False``) is asserted simulated-nanosecond-identical
across runs.
"""

from __future__ import annotations

import dataclasses

from conftest import BENCH_SF, run_once

from repro.bench import build_deployment, format_table
from repro.core import RunConfig
from repro.stream import DEFAULT_BATCH_BYTES

#: Storage-side memory limit (bytes): far below the materialized result,
#: comfortably above one 64 KiB batch.
MEMORY_LIMIT = 128 * 1024
SPEEDUP_FLOOR = 1.5


def _ship_sql(deployment) -> str:
    columns = [
        name
        for name, _ in deployment.storage_engine.db.store.catalog.table(
            "lineitem"
        ).columns
    ]
    return f"SELECT {', '.join(columns)} FROM lineitem WHERE l_quantity > 2"


def _payload(results) -> dict:
    """The numbers ``BENCH_bench_stream_pipeline.json`` tracks."""
    serial, pipe, _ = results
    return {
        "speedup": serial.total_ms / pipe.total_ms,
        "serial_ms": serial.total_ms,
        "pipelined_ms": pipe.total_ms,
        "peak_serial_bytes": serial.storage_meter.peak_memory_bytes,
        "peak_pipelined_bytes": pipe.storage_meter.peak_memory_bytes,
        "wire_bytes_serial": serial.bytes_shipped,
        "batches": pipe.batches_shipped,
    }


def test_stream_pipeline_speedup(benchmark):
    deployment = build_deployment(BENCH_SF, scale_epc=False)
    deployment.enable_page_cache(16384)
    sql = _ship_sql(deployment)
    deployment.run_query(sql, "scs")  # warm the decrypted-page cache

    def experiment():
        serial = deployment.run_query(sql, "scs", storage_memory_bytes=MEMORY_LIMIT)
        pipe = deployment.run_query(
            sql, "scs", storage_memory_bytes=MEMORY_LIMIT, run_config=RunConfig()
        )
        serial_again = deployment.run_query(
            sql, "scs", storage_memory_bytes=MEMORY_LIMIT,
            run_config=RunConfig(pipeline=False),
        )
        return serial, pipe, serial_again

    serial, pipe, serial_again = run_once(benchmark, experiment, payload=_payload)

    # Correctness: both forms ship the same table.
    assert sorted(serial.rows) == sorted(pipe.rows)

    # The pipeline=False escape hatch is the calibrated baseline: same
    # rows, same meters, same simulated nanoseconds, run after run — the
    # streamed runs in between leave no residue.
    assert serial_again.rows == serial.rows
    assert serial_again.breakdown.total_ns == serial.breakdown.total_ns
    assert serial_again.breakdown.by_category == serial.breakdown.by_category
    for field in dataclasses.fields(serial.storage_meter):
        assert getattr(serial_again.storage_meter, field.name) == getattr(
            serial.storage_meter, field.name
        ), field.name

    speedup = serial.total_ms / pipe.total_ms
    peak_serial = serial.storage_meter.peak_memory_bytes
    peak_pipe = pipe.storage_meter.peak_memory_bytes

    print()
    print(
        format_table(
            ["path", "sim ms", "peak KiB", "wire bytes", "batches"],
            [
                ["serial", round(serial.total_ms, 3), peak_serial >> 10,
                 serial.bytes_shipped, serial.batches_shipped],
                ["pipelined", round(pipe.total_ms, 3), peak_pipe >> 10,
                 pipe.bytes_shipped, pipe.batches_shipped],
            ],
            title=(
                f"Streaming ship pipeline — lineitem ship, "
                f"{MEMORY_LIMIT >> 10} KiB storage memory ({speedup:.2f}x)"
            ),
        )
    )

    # The headline claim: overlapped, bounded shipping wins ≥1.5x.
    assert speedup >= SPEEDUP_FLOOR, f"pipeline speedup {speedup:.2f}x < {SPEEDUP_FLOOR}x"

    # Bounded working set: one batch (plus encode slack), not the result.
    assert peak_pipe < peak_serial / 4
    assert peak_pipe <= 2 * DEFAULT_BATCH_BYTES
