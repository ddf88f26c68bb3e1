"""The calibrated cost model: converts meter counts into simulated time.

Every constant is documented with its calibration anchor — either a number
the paper reports directly (§6.1 hardware description, Table 4 attestation
latencies, Figure 8/9c overhead shares) or a well-known figure from the SGX
/ TrustZone literature.  Absolute times will not match the authors'
testbed; the *shape* of every figure (who wins, by what factor, where the
crossovers fall) is what these constants are tuned to preserve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .clock import (
    CAT_CHANNEL_CRYPTO,
    CAT_CPU,
    CAT_DECRYPTION,
    CAT_ENCLAVE_TRANSITIONS,
    CAT_EPC_PAGING,
    CAT_FRESHNESS,
    CAT_IO,
    CAT_NETWORK,
    NS_PER_MS,
    TimeBreakdown,
)
from .meter import Meter

MIB = 1024 * 1024
GIB_BYTES = 1024**3
PAGE_SIZE = 4096


@dataclass(frozen=True)
class CostModel:
    """Timing constants for the simulated CSA testbed.

    Defaults model the paper's hardware: an i9-10900K host with SGX, a
    16-core Cortex-A72 storage server with TrustZone, a 40 GbE link with
    ~850 MB/s single-stream goodput, and a Samsung 970 EVO Plus NVMe drive.
    """

    # --- CPU -----------------------------------------------------------
    # Abstract executor op on the x86 host.  25 ns/op puts a 1M-row scan
    # with a predicate in the tens of milliseconds, consistent with
    # SQLite-class engines.
    x86_ns_per_op: float = 60.0
    # Cortex-A72 @2.2 GHz vs i9 @3.7 GHz plus the microarchitecture gap:
    # each ARM core delivers ~0.33x of an x86 core (paper §6.3 notes the
    # storage CPU is "weaker").
    arm_core_speed: float = 0.33
    # Crypto and hashing on the LX2160A run close to x86 speed: the SoC
    # ships CAAM crypto accelerators and NEON, and page decrypt/MAC work
    # is memory-bandwidth- rather than ALU-bound.
    arm_crypto_speed: float = 0.85
    # In-enclave execution slowdown from SGX memory encryption (SCONE
    # reports 1.1-1.3x for cache-friendly workloads).
    sgx_cpu_overhead: float = 1.2
    # ARM v9 Realms (CCA) granule-protection overhead on realm execution —
    # lighter than SGX because realm memory is not encrypted by default.
    realm_cpu_overhead: float = 1.1
    # Fraction of scan/filter work that parallelizes across storage cores
    # (Amdahl's law; Figure 10 shows diminishing returns beyond 8 CPUs).
    storage_parallel_fraction: float = 0.9
    # Vectorized (batch-at-a-time) execution: per-batch dispatch overhead
    # and per-value kernel cost.  A tight columnar kernel retires a value
    # in a few ns (no per-tuple interpretation, branch-predictable loops —
    # the MonetDB/X100 argument), an order of magnitude under the 60 ns
    # interpreted row op; the per-batch charge covers operator dispatch,
    # vector allocation and selection bookkeeping, amortized over ~1k rows.
    vector_batch_ns: float = 900.0
    vector_value_ns: float = 6.0

    # --- SGX -----------------------------------------------------------
    # One world switch (ECALL or OCALL edge) costs ~8 us.
    enclave_transition_ns: float = 8_000.0
    # EPC size usable by one enclave (paper §6.3: 96 MiB in their setup).
    epc_limit_bytes: int = 96 * MIB
    # Cost to page one 4 KiB EPC page in (encrypt evicted + decrypt new).
    epc_fault_ns: float = 25_000.0

    # --- Storage I/O -----------------------------------------------------
    # Samsung 970 EVO Plus: 3329 MB/s sequential read (paper §6.1, fio).
    nvme_read_bw: float = 3329e6
    nvme_write_bw: float = 2500e6
    # Per-page software overhead in the local I/O path.
    nvme_page_overhead_ns: float = 2_000.0

    # --- Network ---------------------------------------------------------
    # Single-stream goodput measured by the authors for both NFS and their
    # secure channel: 850 MB/s (paper §6.1).
    net_bandwidth: float = 850e6
    # One-way message latency on the 40 GbE switch path.
    net_latency_ns: float = 50_000.0
    # Per-page overhead of the host-only configurations' NFS-attached page
    # path (RPC + kernel + SQLite's page-at-a-time access pattern).  The
    # link's 850 MB/s is a streaming maximum; a page-server workload
    # achieves far less, which is precisely the data-movement cost CSA
    # avoids (paper §6.2: "query speedup is almost directly correlated
    # with the IO reduction").
    remote_page_overhead_ns: float = 22_000.0
    # TLS session setup (handshake RTTs + asymmetric crypto).
    tls_handshake_ns: float = 0.5 * NS_PER_MS
    # Authenticated encryption of channel payloads, per byte per endpoint.
    channel_crypto_ns_per_byte: float = 0.35

    # --- Secure storage (per 4 KiB page, at x86 speed; divide by the
    # platform speed factor for ARM).  Calibrated so freshness dominates
    # decryption ~4-6x, matching Figure 8 / Figure 9c (70-80% freshness,
    # ~15% decryption).
    page_decrypt_ns: float = 11_000.0
    page_encrypt_ns: float = 11_000.0
    page_mac_ns: float = 9_500.0
    merkle_node_hash_ns: float = 2_800.0
    rpmb_access_ns: float = 120_000.0
    # Serving a page from the in-enclave decrypted-page cache: a hash-map
    # probe plus an in-EPC copy — no device I/O, crypto or tree walk.
    page_cache_hit_ns: float = 450.0
    # Zone-map skip-scans: probing one page's synopsis against the pruning
    # predicate (a handful of typed comparisons) plus a per-byte charge for
    # the synopsis data consulted.  Charged per page *probed* — skipped and
    # kept alike — so pruning is never modelled as free.
    zone_map_check_ns: float = 200.0
    zone_map_byte_ns: float = 0.5
    # Sharded scale-out (repro.shard): issuing one shard-scan RPC from the
    # host coordinator over an already-established channel (enqueue +
    # submit, no handshake), and folding one shipped partial-aggregate row
    # into the host-side final aggregation state.  Shard-level routing
    # probes (the merged table synopsis per shard) reuse
    # ``zone_map_check_ns`` — same data structure, same probe.
    shard_dispatch_ns: float = 2_000.0
    shard_merge_row_ns: float = 120.0

    # --- Attestation (Table 4 anchors, charged directly) -----------------
    host_cas_response_ns: float = 140.0 * NS_PER_MS
    storage_tee_quote_ns: float = 453.0 * NS_PER_MS
    storage_ree_measure_ns: float = 54.0 * NS_PER_MS
    attestation_interconnect_ns: float = 42.0 * NS_PER_MS

    # --- Policy / monitor -------------------------------------------------
    policy_predicate_eval_ns: float = 10_000.0
    query_rewrite_ns: float = 100_000.0
    proof_sign_ns: float = 150_000.0
    session_setup_ns: float = 200_000.0

    # --- Memory pressure on the storage server ----------------------------
    # When the storage-side working set exceeds available memory the engine
    # spills; grace-hash-style re-partitioning writes and re-reads each
    # overflow byte several times, so effective traffic is a multiple of
    # the excess.
    spill_penalty: float = 4.0

    def scaled(self, **overrides) -> "CostModel":
        """Return a copy with some constants replaced (for ablations)."""
        return replace(self, **overrides)

    # ------------------------------------------------------------------
    # CPU time
    # ------------------------------------------------------------------

    def cpu_time_ns(
        self,
        meter: Meter,
        *,
        platform: str,
        cores: int = 1,
        in_enclave: bool = False,
        in_realm: bool = False,
    ) -> float:
        """Time to execute the metered CPU work on *platform* ('x86'/'arm').

        Multi-core speedup follows Amdahl's law with the configured
        parallel fraction; SGX memory-encryption overhead applies when the
        work runs inside an enclave.
        """
        if platform not in ("x86", "arm"):
            raise ValueError(f"unknown platform {platform!r}")
        ns = meter.cpu_ops * self.x86_ns_per_op
        # Vectorized operators meter batches and values instead of the
        # row-path counters, so the two execution models are priced
        # independently; the same platform/enclave scaling applies.
        ns += (
            meter.extra.get("vector_batches", 0) * self.vector_batch_ns
            + meter.extra.get("vector_values", 0) * self.vector_value_ns
        )
        if platform == "arm":
            ns /= self.arm_core_speed
        if cores > 1:
            p = self.storage_parallel_fraction
            ns *= (1.0 - p) + p / cores
        if in_enclave:
            ns *= self.sgx_cpu_overhead
        if in_realm:
            ns *= self.realm_cpu_overhead
        return ns

    # ------------------------------------------------------------------
    # I/O and network
    # ------------------------------------------------------------------

    def nvme_read_ns(self, nbytes: int, pages: int) -> float:
        return nbytes / self.nvme_read_bw * 1e9 + pages * self.nvme_page_overhead_ns

    def nvme_write_ns(self, nbytes: int, pages: int) -> float:
        return nbytes / self.nvme_write_bw * 1e9 + pages * self.nvme_page_overhead_ns

    def net_transfer_ns(self, nbytes: int, messages: int = 1) -> float:
        return nbytes / self.net_bandwidth * 1e9 + messages * self.net_latency_ns

    # ------------------------------------------------------------------
    # Secure storage
    # ------------------------------------------------------------------

    def _platform_factor(self, platform: str) -> float:
        return 1.0 if platform == "x86" else 1.0 / self.arm_crypto_speed

    def decryption_ns(self, meter: Meter, *, platform: str) -> float:
        factor = self._platform_factor(platform)
        return (
            meter.pages_decrypted * self.page_decrypt_ns
            + meter.pages_encrypted * self.page_encrypt_ns
        ) * factor

    def freshness_ns(self, meter: Meter, *, platform: str) -> float:
        factor = self._platform_factor(platform)
        return (
            meter.page_macs_verified * self.page_mac_ns
            + meter.merkle_nodes_hashed * self.merkle_node_hash_ns
        ) * factor + (meter.rpmb_reads + meter.rpmb_writes) * self.rpmb_access_ns

    # ------------------------------------------------------------------
    # SGX paging
    # ------------------------------------------------------------------

    def epc_fault_fraction(self, working_set_bytes: int) -> float:
        """Probability a random enclave page access faults.

        0 while the working set fits in the EPC; beyond that, the resident
        fraction shrinks and each access faults with the complement
        probability (a standard uniform-access paging estimate).
        """
        if working_set_bytes <= self.epc_limit_bytes:
            return 0.0
        return 1.0 - self.epc_limit_bytes / working_set_bytes

    # ------------------------------------------------------------------
    # Composite: turn a phase meter into a TimeBreakdown
    # ------------------------------------------------------------------

    def phase_breakdown(
        self,
        meter: Meter,
        *,
        platform: str,
        cores: int = 1,
        in_enclave: bool = False,
        in_realm: bool = False,
        remote_io: bool = False,
        memory_limit_bytes: int | None = None,
    ) -> TimeBreakdown:
        """Cost one execution phase (one node's share of a query).

        *remote_io* models the host-only configurations, where every page
        the engine touches crosses the network (NFS-style) instead of the
        local NVMe path.  *memory_limit_bytes* models the constrained
        storage server of Figure 11: working sets beyond the limit spill.
        """
        out = TimeBreakdown()
        out.add(
            CAT_CPU,
            self.cpu_time_ns(
                meter, platform=platform, cores=cores,
                in_enclave=in_enclave, in_realm=in_realm,
            ),
        )

        io_bytes = meter.pages_read * PAGE_SIZE
        if remote_io:
            out.add(
                CAT_NETWORK,
                io_bytes / self.net_bandwidth * 1e9
                + meter.pages_read * self.remote_page_overhead_ns,
            )
        else:
            out.add(CAT_IO, self.nvme_read_ns(io_bytes, meter.pages_read))
        if meter.pages_written:
            out.add(CAT_IO, self.nvme_write_ns(meter.pages_written * PAGE_SIZE, meter.pages_written))

        out.add(CAT_DECRYPTION, self.decryption_ns(meter, platform=platform))
        out.add(CAT_FRESHNESS, self.freshness_ns(meter, platform=platform))

        # Page-cache hits bypass I/O, decryption and freshness but are not
        # free: each pays a probe-and-copy inside the enclave.
        cache_hits = meter.extra.get("page_cache_hits", 0)
        if cache_hits:
            out.add(CAT_CPU, cache_hits * self.page_cache_hit_ns)

        # Zone-map pruning: every page probed (kept or skipped) pays the
        # synopsis check; a skipped page pays nothing else — no I/O, MAC,
        # Merkle walk or decryption ever happened for it.
        zm_pages = meter.extra.get("pages_scanned", 0) + meter.extra.get(
            "pages_skipped", 0
        )
        if zm_pages:
            out.add(
                CAT_CPU,
                zm_pages * self.zone_map_check_ns
                + meter.extra.get("zone_map_bytes", 0) * self.zone_map_byte_ns,
            )

        # Sharded scale-out: every shard-scan dispatched pays an RPC issue
        # on the coordinator; every shard probed by the router (dispatched
        # or pruned) pays a synopsis check; every shipped partial row pays
        # its fold into the final aggregation state.  All zero unless the
        # sharded runner bumped the counters (single-node runs never do).
        fanout = meter.extra.get("shard_scan_fanout", 0)
        pruned = meter.extra.get("shards_pruned", 0)
        merged = meter.extra.get("partial_aggs_merged", 0)
        if fanout or pruned or merged:
            out.add(
                CAT_CPU,
                (fanout + pruned) * self.zone_map_check_ns
                + merged * self.shard_merge_row_ns,
            )
            out.add(CAT_NETWORK, fanout * self.shard_dispatch_ns)

        if meter.channel_bytes_encrypted:
            out.add(CAT_CHANNEL_CRYPTO, meter.channel_bytes_encrypted * self.channel_crypto_ns_per_byte)

        if in_enclave:
            out.add(CAT_ENCLAVE_TRANSITIONS, meter.enclave_transitions * self.enclave_transition_ns)
            # EPC pressure, two regimes:
            # (a) the *resident* state (Merkle tree + tables + operator
            #     memory) exceeds the EPC -> uniform-access thrashing over
            #     all enclave page accesses;
            # (b) it fits, but data pages *streamed* through the enclave
            #     (the host-only configurations pull the whole database
            #     through it) displace each other once the leftover EPC
            #     fills: one fault per streamed page beyond the budget.
            budget_bytes = self.epc_limit_bytes - meter.peak_memory_bytes
            if budget_bytes <= 0:
                # Streamed pages always miss, and the resident state itself
                # thrashes in proportion to how far it overshoots the EPC.
                resident_faults = self.epc_fault_fraction(meter.peak_memory_bytes) * (
                    meter.peak_memory_bytes / PAGE_SIZE
                )
                faults = meter.pages_read + resident_faults
            else:
                faults = max(0.0, meter.pages_read - budget_bytes / PAGE_SIZE)
            out.add(CAT_EPC_PAGING, faults * self.epc_fault_ns)

        if memory_limit_bytes is not None and meter.peak_memory_bytes > memory_limit_bytes:
            excess = meter.peak_memory_bytes - memory_limit_bytes
            spill_bytes = excess * self.spill_penalty
            pages = int(spill_bytes // PAGE_SIZE) + 1
            out.add(CAT_IO, self.nvme_write_ns(int(spill_bytes), pages) + self.nvme_read_ns(int(spill_bytes), pages))

        return out


# Host<->storage interconnect presets (paper §5: "the layer can be
# configured as: NVMe/PCIe, NVMe over fabrics (NVMe-oF), or a TCP" —
# their evaluation uses TLS over TCP/IP).
INTERCONNECT_PROFILES: dict[str, dict] = {
    # 40 GbE, single-stream TLS/TCP goodput measured by the authors.
    "tls-tcp": {"net_bandwidth": 850e6, "net_latency_ns": 50_000.0},
    # NVMe-oF on the same fabric: kernel bypass, lower latency, better
    # goodput.
    "nvme-of": {"net_bandwidth": 2_500e6, "net_latency_ns": 15_000.0},
    # Computational SSD attached over PCIe 4.0 x4.
    "nvme-pcie": {"net_bandwidth": 7_000e6, "net_latency_ns": 5_000.0},
}


def with_interconnect(model: CostModel, profile: str) -> CostModel:
    """A copy of *model* with the named interconnect preset applied."""
    overrides = INTERCONNECT_PROFILES.get(profile)
    if overrides is None:
        raise ValueError(
            f"unknown interconnect {profile!r} (know {sorted(INTERCONNECT_PROFILES)})"
        )
    return model.scaled(**overrides)


DEFAULT_COST_MODEL = CostModel()
