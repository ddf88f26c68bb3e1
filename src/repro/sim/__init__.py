"""Deterministic simulation substrate: clock, meters, cost model, network,
and the pricing that turns a run's counts into its time (:mod:`.pricing`).

The reproduction cannot run on the paper's hardware (SGX host + TrustZone
storage server), so every performance-relevant effect is modelled here and
charged in simulated nanoseconds.  See DESIGN.md §2 and §6 for the
substitution rationale and calibration anchors.
"""

from .clock import (
    CAT_ATTESTATION,
    CAT_CHANNEL_CRYPTO,
    CAT_CPU,
    CAT_DECRYPTION,
    CAT_ENCLAVE_TRANSITIONS,
    CAT_EPC_PAGING,
    CAT_FRESHNESS,
    CAT_IO,
    CAT_NETWORK,
    CAT_OTHER,
    CAT_POLICY,
    NS_PER_MS,
    NS_PER_US,
    SimClock,
    TimeBreakdown,
)
from .costmodel import (
    DEFAULT_COST_MODEL,
    GIB_BYTES,
    INTERCONNECT_PROFILES,
    MIB,
    PAGE_SIZE,
    CostModel,
    with_interconnect,
)
from .meter import Meter
from .network import NetworkLink

__all__ = [
    "CAT_ATTESTATION",
    "CAT_CHANNEL_CRYPTO",
    "CAT_CPU",
    "CAT_DECRYPTION",
    "CAT_ENCLAVE_TRANSITIONS",
    "CAT_EPC_PAGING",
    "CAT_FRESHNESS",
    "CAT_IO",
    "CAT_NETWORK",
    "CAT_OTHER",
    "CAT_POLICY",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "GIB_BYTES",
    "INTERCONNECT_PROFILES",
    "with_interconnect",
    "MIB",
    "Meter",
    "NS_PER_MS",
    "NS_PER_US",
    "NetworkLink",
    "PAGE_SIZE",
    "SimClock",
    "TimeBreakdown",
]
