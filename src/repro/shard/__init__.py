"""Sharded multi-storage-node scale-out with adaptive offload.

``repro.shard`` grows the single storage server of :class:`repro.core.
Deployment` into N trust-isolated shards (each with its own TrustZone
device, RPMB anchor, HKDF key domain, Merkle root and monitor-attested
identity), partitions the TPC-H tables across them, routes and prunes
scans shard-by-shard from zone-map synopses, and merges results host-
side — plus a cost-based offload optimizer (``ShardedDeployment.
run_auto``) that picks the host/storage split per query from catalog
statistics priced through the calibrated cost model.

Layering (ARCH010): this package reaches the SQL front end only through
``repro.core`` (parsing, partitioning, aggregate decomposition) and the
wire-format modules ``repro.sql.values`` / ``repro.sql.records``; it
never touches key material.
"""

from ..sim import Meter
from .deployment import ShardedDeployment
from .optimizer import (
    PLAIN_CLASS,
    SECURE_CLASS,
    CandidatePlan,
    OffloadOptimizer,
    PlanChoice,
    ScanStats,
)
from .partition import (
    SCHEMES,
    ShardingSpec,
    TablePartitioning,
    default_tpch_sharding,
    hash_value,
    range_bounds,
)
from .router import route_scan, table_synopsis

#: Counters the sharded runners and the optimizer bump on run meters.
#: Registered here so the telemetry registry's ``absorb_meter`` accepts
#: them instead of warn-dropping unknown names.
SHARD_COUNTERS = (
    "shards_pruned",
    "shard_scan_fanout",
    "partial_aggs_merged",
    "optimizer_plans_considered",
)
for _name in SHARD_COUNTERS:
    Meter.register_counter(_name)
del _name

__all__ = [
    "CandidatePlan",
    "OffloadOptimizer",
    "PLAIN_CLASS",
    "PlanChoice",
    "SCHEMES",
    "SECURE_CLASS",
    "SHARD_COUNTERS",
    "ScanStats",
    "ShardedDeployment",
    "ShardingSpec",
    "TablePartitioning",
    "default_tpch_sharding",
    "hash_value",
    "range_bounds",
    "route_scan",
    "table_synopsis",
]
