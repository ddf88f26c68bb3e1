"""Streaming ship pipeline: bounded record batches on the wire.

The paper's central performance claim (§6, Figures 7/9/11) is that a CSA
wins by shrinking data movement and overlapping near-data filtering with
host-side processing.  This package provides the mechanisms that turn
our materialize-then-ship path into that streamed flow:

* :class:`BatchAssembler` — drains an operator iterator into ~64 KiB
  size-bounded :class:`EncodedBatch` es (RecordBatch wire format from
  :mod:`repro.sql.records`) with adaptive row-count targeting, so the
  storage-side working set is one batch instead of the whole result.
* :func:`pack_frame` / :func:`unpack_frame` — the one-byte tag that marks
  a frame as a batch before it enters the channel.

What the overlap of the three stages (storage scan → channel crypto →
host ingest) costs is priced with everything else, in
:mod:`repro.sim.pricing`.

Layering: like ``repro.perf``, this package is policy rather than
security — it handles encoded rows only.  It may
import ``errors``, ``sim`` and the record wire format (ARCH005 pins the
``repro.sql`` surface to ``repro.sql.records``), so the transport layer
is structurally incapable of reaching into the query engine or crypto.
"""

from ..sim import Meter
from .batching import (
    DEFAULT_BATCH_BYTES,
    BatchAssembler,
    EncodedBatch,
    pack_frame,
    unpack_frame,
)

#: Counters this layer bumps on the owning phase's Meter.  Registered so
#: the telemetry registry absorbs them as first-class ``meter.<name>``
#: metrics instead of warn-once ``meter.extra.*`` entries.
STREAM_COUNTERS = ("batches_shipped",)

for _name in STREAM_COUNTERS:
    Meter.register_counter(_name)
del _name

__all__ = [
    "BatchAssembler",
    "DEFAULT_BATCH_BYTES",
    "EncodedBatch",
    "STREAM_COUNTERS",
    "pack_frame",
    "unpack_frame",
]
