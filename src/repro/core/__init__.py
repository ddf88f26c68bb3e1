"""IronSafe core: client, engines, partitioner, channel, deployments."""

from .aggsplit import AggSplit, decompose_aggregate, statement_shape
from .channel import SecureChannel, channel_pair
from .client import Client, QueryResponse, register_client
from .configs import (
    CONFIG_NAMES,
    CONFIGS,
    HONS,
    HOS,
    SCS,
    SERIAL_RUN_CONFIG,
    SOS,
    RunConfig,
    SystemConfig,
    VCS,
)
from .deployment import (
    ConcurrentRunResult,
    ConcurrentSession,
    Deployment,
    RunResult,
    StorageNode,
)
from .host_engine import HostEngine
from .manual_partitions import MANUAL_PARTITIONS
from .partitioner import (
    ManualPartition,
    ManualShip,
    PartitionPlan,
    QueryPartitioner,
    TableScanSpec,
    pruning_for_scan,
)
from .storage_engine import StorageEngine

__all__ = [
    "AggSplit",
    "CONFIGS",
    "Client",
    "ConcurrentRunResult",
    "ConcurrentSession",
    "QueryResponse",
    "register_client",
    "CONFIG_NAMES",
    "Deployment",
    "HONS",
    "HOS",
    "HostEngine",
    "MANUAL_PARTITIONS",
    "ManualPartition",
    "ManualShip",
    "PartitionPlan",
    "QueryPartitioner",
    "RunConfig",
    "RunResult",
    "SCS",
    "SERIAL_RUN_CONFIG",
    "SOS",
    "SecureChannel",
    "StorageEngine",
    "StorageNode",
    "SystemConfig",
    "TableScanSpec",
    "VCS",
    "channel_pair",
    "decompose_aggregate",
    "pruning_for_scan",
    "statement_shape",
]
