"""Deterministic three-stage pipeline time accounting.

The streamed ship path overlaps, per batch, the three phases that the
serial path pays in sequence:

1. **scan** — the storage engine producing the batch (near-data filter),
2. **ship** — the channel's authenticated encryption,
3. **ingest** — host-side decrypt/decode and enclave table append.

The model is the classic synchronous pipeline recurrence: stage *k* of
batch *b* starts when both batch *b-1* has left stage *k* and batch *b*
has left stage *k-1*.  With a single producer, a serial channel and a
single ingesting enclave thread this is exact, deterministic, and
collapses to the serial sum when there is only one batch stage-dominant
enough to starve the others.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass


@dataclass(frozen=True)
class BatchTiming:
    """Simulated stage durations for one shipped batch."""

    scan_ns: float
    ship_ns: float
    ingest_ns: float

    @property
    def serial_ns(self) -> float:
        return self.scan_ns + self.ship_ns + self.ingest_ns

    @property
    def bottleneck_ns(self) -> float:
        return max(self.scan_ns, self.ship_ns, self.ingest_ns)


def pipelined_ns(timings: Sequence[BatchTiming]) -> float:
    """Makespan of the batches through the three-stage pipeline."""
    scan_done = 0.0
    ship_done = 0.0
    ingest_done = 0.0
    for t in timings:
        scan_done += t.scan_ns
        ship_done = max(ship_done, scan_done) + t.ship_ns
        ingest_done = max(ingest_done, ship_done) + t.ingest_ns
    return ingest_done


def serial_stage_ns(timings: Sequence[BatchTiming]) -> float:
    """What the same work costs with no overlap (the serial path's sum)."""
    return sum(t.serial_ns for t in timings)


def overlap_saved_ns(timings: Sequence[BatchTiming]) -> float:
    """Simulated time the pipeline removes relative to the serial sum."""
    return serial_stage_ns(timings) - pipelined_ns(timings)


def apportion_ns(total_ns: float, weights: Sequence[int]) -> list[float]:
    """Split a phase total across batches proportionally to *weights*.

    Used to turn per-portion meter costs (which the cost model prices as
    a whole, keeping parity with the serial path) into per-batch stage
    durations.  Zero or empty weights split evenly so the totals are
    always conserved.
    """
    if not weights:
        return []
    weight_sum = sum(weights)
    if weight_sum <= 0:
        share = total_ns / len(weights)
        return [share] * len(weights)
    return [total_ns * w / weight_sum for w in weights]
