"""Testbed deployment: wires every subsystem into the paper's CSA setup.

One :class:`Deployment` models the full evaluation rig of §6.1 — an
SGX-enabled x86 host, a TrustZone-enabled ARM storage server holding the
TPC-H database on an untrusted NVMe medium (encrypted + integrity/
freshness-protected), a 40 GbE link, the trusted monitor, and a client —
and can execute any query under each of Table 2's five configurations,
returning simulated-time breakdowns and resource meters.
"""

from __future__ import annotations

import datetime
import math
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field

from ..crypto import Rng, sha256
from ..errors import IntegrityError, IronSafeError, MonitorError
from ..monitor import AttestationService, AttestedNode, ComplianceProof, TrustedMonitor
from ..oblivious import (
    ShipSchedule,
    batch_schedule,
    dummy_frame,
    fixed_ship_schedule,
    pad_frame,
    pads_channel,
    record_schedule,
    unpad_frame,
)
from ..perf import SessionTask, arbitrate, makespan_ns
from ..sim import CostModel, Meter, NetworkLink, PAGE_SIZE, SimClock, TimeBreakdown
from ..sim.pricing import (
    Portion,
    PortionTime,
    PullRecord,
    SplitRecord,
    StorageRecord,
    price_host_pull,
    price_split,
    price_storage_only,
)
from ..sql import Database, PagedStore
from ..sql import ast_nodes as A
from ..sql.parser import parse
from ..storage import BlockDevice, InMemoryAnchor, Pager, SecurePager
from ..stream import DEFAULT_BATCH_BYTES, pack_frame, unpack_frame
from ..telemetry import (
    NODE_CLIENT,
    NODE_HOST,
    NODE_MONITOR,
    NODE_NETWORK,
    NODE_STORAGE,
    NOOP_TRACER,
    FlightRecorder,
    ObservableRecorder,
    RecordingTracer,
    SPAN_ATTESTATION,
    SPAN_CHANNEL_SHIP,
    SPAN_CHANNEL_TRANSFER,
    SPAN_HOST_EXECUTE,
    SPAN_HOST_JOIN_AGG,
    SPAN_NDP_FILTER,
    SPAN_PARTITION,
    SPAN_QUERY,
    SPAN_SCHEDULER,
    SPAN_SESSION_SETUP,
    SPAN_SHARD_ROUTE,
    SPAN_SHIP_BATCH,
    SPAN_STORAGE_PHASE,
    Tracer,
)
from ..tee.sgx import IntelAttestationService, SgxPlatform
from ..tee.trustzone import DeviceVendor
from ..tpch import load_tpch
from .channel import channel_pair
from .configs import CONFIGS, SERIAL_RUN_CONFIG, RunConfig
from .host_engine import RECORD_ROWS, HostEngine
from .partitioner import QueryPartitioner
from .storage_engine import StorageEngine

HOST_ENGINE_IMAGE = b"ironsafe-host-engine v1.0 (query engine + partitioner)"
MONITOR_IMAGE = b"ironsafe-trusted-monitor v1.0 (attestation + policy)"
SECURE_WORLD_IMAGE = b"optee 3.4 + atf + ironsafe TAs"
NORMAL_WORLD_IMAGE = b"linux 5.4.3 + ironsafe storage engine v1.0"

GIB = 1024**3

# Representative on-disk image sizes for the TCB inventory (§3.3): a
# hardened Linux + drivers dominates; the engines and trusted OS are small.
REPRESENTATIVE_TCB_SIZES = {
    "monitor": 3 * 1024 * 1024,
    "host-engine": 5 * 1024 * 1024,
    "secure-world": 2 * 1024 * 1024,
    "storage-engine": 5 * 1024 * 1024,
    "normal-world-os": 60 * 1024 * 1024,
}


@dataclass
class RunResult:
    """Outcome of one query execution under one configuration."""

    config: str
    columns: list[str]
    rows: list[tuple]
    breakdown: TimeBreakdown
    storage_breakdown: TimeBreakdown = field(default_factory=TimeBreakdown)
    host_breakdown: TimeBreakdown = field(default_factory=TimeBreakdown)
    storage_meter: Meter = field(default_factory=Meter)
    host_meter: Meter = field(default_factory=Meter)
    bytes_shipped: int = 0
    plan_notes: list[str] = field(default_factory=list)
    #: What the run did, in counts: the input of its cut's pricing function
    #: in :mod:`repro.sim.pricing` (a CPU / memory sweep re-prices it).
    record: SplitRecord | PullRecord | StorageRecord | None = None

    @property
    def total_ms(self) -> float:
        return self.breakdown.total_ms

    @property
    def portion_meters(self) -> list[Meter]:
        """One meter per offloaded portion, per-shard partial or pull."""
        return [portion.meter for portion in self.record.portions] if self.record else []

    @property
    def pages_transferred(self) -> int:
        """Pages crossing the host↔storage link (Figure 7's metric)."""
        if self.bytes_shipped:
            return max(1, math.ceil(self.bytes_shipped / PAGE_SIZE))
        return self.host_meter.pages_read

    @property
    def batches_shipped(self) -> int:
        """RecordBatches shipped over the channel (streaming runs only)."""
        return self.storage_meter.get("batches_shipped")


@dataclass
class StorageNode:
    """One storage server: the only one, or one shard of several.

    Every node is provisioned alike: its own TrustZone device (so its own
    secure-boot state, RPMB anchor and master-key domain), its own NVMe
    block devices, and its own secure/plain engine pair.  Integrity
    violations on its pager are attributed to its ``node_id`` in the
    monitor's audit chain.
    """

    node_id: str
    #: The node's name on the network link (what the channel adversary
    #: sees as the record's sender).
    endpoint: str
    engine: StorageEngine
    engine_plain: StorageEngine
    secure_device: BlockDevice
    plain_device: BlockDevice


@dataclass
class _SplitRun:
    """What the stages of one vcs/scs run share (see ``Deployment._run_split``)."""

    run_config: RunConfig
    #: The ships are hand-written SQL, not planned table scans.
    manual: bool
    #: What the run did, filled in as it goes.
    record: SplitRecord
    #: Per storage node: the engine this run drives and (scs only) the
    #: (host end, node end) channel, metered on ``record``.
    engines: list[StorageEngine]
    channels: list[tuple | None]


@dataclass
class ConcurrentSession:
    """One client session inside a :meth:`Deployment.run_concurrent` batch."""

    index: int
    sql: str
    config: str
    result: RunResult
    #: Monitor-issued session id (``local-*`` for configurations that run
    #: without the monitor's admission path).
    session_id: str = ""
    #: SHA-256 digest prefix of the per-session HKDF key — exposes key
    #: *distinctness* across sessions without exposing key material.
    key_digest: str = ""
    proof: ComplianceProof | None = None
    worker: int = 0
    start_ms: float = 0.0
    end_ms: float = 0.0

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms

    @property
    def rows(self) -> list[tuple]:
        return self.result.rows


@dataclass
class ConcurrentRunResult:
    """Outcome of one concurrent multi-session run."""

    sessions: list[ConcurrentSession]
    workers: int
    makespan_ms: float
    serial_ms: float

    @property
    def speedup(self) -> float:
        """Serial-sum time over the scheduled makespan (≥ 1.0)."""
        return self.serial_ms / self.makespan_ms if self.makespan_ms else 1.0

    @property
    def throughput_qps(self) -> float:
        """Sessions completed per simulated second."""
        if not self.makespan_ms:
            return 0.0
        return len(self.sessions) / (self.makespan_ms / 1e3)

    def session(self, index: int) -> ConcurrentSession:
        return self.sessions[index]


class Deployment:
    """A complete simulated CSA testbed with one host and one storage server."""

    def __init__(
        self,
        scale_factor: float = 0.005,
        seed: int = 2022,
        cost_model: CostModel | None = None,
        storage_cpus: int = 16,
        storage_memory_bytes: int = 32 * GIB,
        cipher: str = "hash-ctr",
        host_location: str = "eu-central",
        storage_location: str = "eu-west",
        storage_fw_version: str = "5.4.3",
        workload: str = "tpch",
        database_name: str = "tpch",
        armv9_realms: bool = False,
        tracer: Tracer | None = None,
        page_cache_pages: int = 0,
        run_config: RunConfig | None = None,
    ):
        self.scale_factor = scale_factor
        self.page_cache_pages = page_cache_pages
        # Ship-path execution knobs.  A deployment built without an
        # explicit run config keeps the calibrated serial ship path, so
        # every figure reproduction stays byte-identical; pass
        # ``RunConfig()`` (or per-run via :meth:`run_query`) to opt into
        # the streaming pipeline.
        self.run_config = run_config if run_config is not None else SERIAL_RUN_CONFIG
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.storage_cpus = storage_cpus
        self.storage_memory_bytes = storage_memory_bytes
        self.clock = SimClock()
        self.rng = Rng(f"deployment:{seed}")

        # --- trust infrastructure -------------------------------------
        self.ias = IntelAttestationService(self.rng)
        self.vendor = DeviceVendor("acme-devices", self.rng)

        # --- host -------------------------------------------------------
        self.host_platform = SgxPlatform(
            "host-1", self.clock, self.cost_model, self.rng
        )
        self.ias.register_platform(
            "host-1", self.host_platform.attestation_key.public_key
        )
        self.host_enclave = self.host_platform.create_enclave(
            "host-engine", HOST_ENGINE_IMAGE
        )
        self.host_engine = HostEngine(self.host_enclave)
        self.host_location = host_location

        # --- storage server ----------------------------------------------
        self.tz_device = self.vendor.provision_device(
            "storage-1", location=storage_location
        )
        secure_world = self.vendor.sign_firmware("optee", SECURE_WORLD_IMAGE, "3.4")
        normal_world = self.vendor.sign_firmware(
            "linux-ironsafe", NORMAL_WORLD_IMAGE, storage_fw_version
        )
        self.tz_device.secure_boot(secure_world, normal_world)

        self.armv9_realms = armv9_realms
        self.secure_device = BlockDevice("nvme-secure")
        self.plain_device = BlockDevice("nvme-plain")
        self.storage_engine = StorageEngine(
            self.tz_device, self.secure_device, self.rng.fork("storage-secure"),
            secure=True, cipher=cipher, realm_mode=armv9_realms,
            cache_pages=page_cache_pages,
        )
        self.storage_engine_plain = StorageEngine(
            self.tz_device, self.plain_device, self.rng.fork("storage-plain"),
            secure=False,
        )

        # --- monitor -------------------------------------------------------
        expected_host = {self.host_enclave.measurement.hex()}
        if armv9_realms:
            expected_storage = {self.storage_engine.realm.measurement.hex()}
        else:
            expected_storage = {self.tz_device.boot_state.normal_world_measurement.hex()}
        self.attestation = AttestationService(
            self.clock,
            self.cost_model,
            self.ias,
            {self.vendor.name: self.vendor.root_public_key},
            expected_host,
            expected_storage,
        )
        self.monitor = TrustedMonitor(
            self.clock,
            self.cost_model,
            self.attestation,
            self.rng,
            latest_fw={"host": "1.0", "storage": storage_fw_version},
        )

        # --- network ----------------------------------------------------
        self.link = NetworkLink(self.clock, self.cost_model)
        self.link.register("host")
        self.link.register("storage")
        self.link.register("client")
        self.link.register("monitor")

        # --- data -------------------------------------------------------
        self.database_name = database_name
        if workload == "tpch":
            self.row_counts = load_tpch(
                self.storage_engine.db, scale_factor=scale_factor, seed=seed
            )
            load_tpch(self.storage_engine_plain.db, scale_factor=scale_factor, seed=seed)
        else:
            self.row_counts = {}

        self._cipher = cipher
        self.storage_location = storage_location
        self.storage_fw_version = storage_fw_version
        self.partitioner = QueryPartitioner(self.storage_engine.db.store.catalog)
        self._attested = False
        # Adversary-view recorder (installed by enable_observability).
        self._obsv: ObservableRecorder | None = None
        # Storage-side integrity failures are reported to the monitor so
        # tampering attempts land in the hash-chained operations log.
        self.storage_engine.pager.on_violation = self._node_violation("storage-1")
        #: Every storage server, primary first.  All query paths iterate
        #: this list; the single-node testbed is the one-element case.
        self.nodes: list[StorageNode] = [
            StorageNode(
                node_id="storage-1",
                endpoint="storage",
                engine=self.storage_engine,
                engine_plain=self.storage_engine_plain,
                secure_device=self.secure_device,
                plain_device=self.plain_device,
            )
        ]
        self._bind_tracer()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def _bind_tracer(self) -> None:
        """Propagate the deployment's tracer to every instrumented layer."""
        self.monitor.tracer = self.tracer
        self.host_engine.tracer = self.tracer
        for node in self.nodes:
            node.engine.tracer = self.tracer
            node.engine_plain.tracer = self.tracer
        # Re-attach the observable-event recorder when the tracer changes
        # out from under it.  Only ever on an *enabled* tracer: NOOP_TRACER
        # is a shared singleton, and hanging a recorder off it would leak
        # observability into every other deployment.
        if self._obsv is not None and self.tracer.enabled:
            self.tracer.obsv = self._obsv

    def enable_tracing(self, tracer: Tracer | None = None) -> Tracer:
        """Install (and return) a recording tracer across all layers.

        Tracing never charges the simulated clock, so enabling it leaves
        every benchmark number unchanged; it only *records* where the
        simulated nanoseconds went.
        """
        self.tracer = tracer if tracer is not None else RecordingTracer(clock=self.clock)
        self._bind_tracer()
        return self.tracer

    def enable_observability(
        self, *, flight_dir: str | None = None, ring_capacity: int = 256
    ) -> ObservableRecorder:
        """Install the adversary-view taps (``repro.telemetry.obsv``).

        Every trust-boundary crossing — device page/metadata traffic on
        both devices, secure-channel records, RPMB anchor accesses — is
        recorded into one :class:`~repro.telemetry.ObservableTrace` per
        query, ready for leakage metering.  A flight recorder rings the
        most recent events and dumps a correlated incident report (to
        *flight_dir* if given) whenever an integrity/freshness violation
        fires.  Like tracing, observation never charges the simulated
        clock: rows, meters and sim-ns stay byte-identical.
        """
        if not self.tracer.enabled:
            self.enable_tracing()
        recorder = ObservableRecorder(
            flight=FlightRecorder(capacity=ring_capacity, directory=flight_dir)
        )
        self._obsv = recorder
        self.tracer.obsv = recorder
        for node in self.nodes:
            node.secure_device.obsv = recorder
            node.plain_device.obsv = recorder
        return recorder

    # ------------------------------------------------------------------
    # Performance layer
    # ------------------------------------------------------------------

    def enable_page_cache(self, capacity_pages: int) -> None:
        """Install the in-enclave decrypted-page cache on the storage side.

        Applies to every secure storage engine (and, through
        ``page_cache_pages``, to host-side secure pagers opened for the
        host-only configuration).  With the cache off — the default — every
        read pays the full MAC + Merkle + freshness chain, byte-identical
        to the paper baseline.
        """
        self.page_cache_pages = capacity_pages
        for node in self.nodes:
            node.engine.enable_page_cache(capacity_pages)

    def disable_page_cache(self) -> None:
        """Flush and drop the cache, restoring verify-every-read behavior."""
        self.page_cache_pages = 0
        for node in self.nodes:
            node.engine.disable_page_cache()

    def _node_violation(self, node_id: str):
        """Secure-pager hook bound to one node's identity: audit integrity
        failures before they raise.

        One per pager, so a tampered page is attributed to the owning node
        in the audit chain and the flight recorder's incident report.
        """

        def hook(pgno: int, reason: str) -> None:
            self.monitor.record_integrity_violation(node_id, pgno, reason)
            self._flight_dump(node_id, pgno, reason)

        return hook

    @contextmanager
    def _attributed(self, node_id: str):
        """Re-raise integrity failures tagged with the node they came from."""
        try:
            yield
        except IntegrityError as exc:
            if node_id in str(exc):
                raise
            raise type(exc)(f"shard {node_id}: {exc}") from exc

    def _flight_dump(self, node: str, pgno: int, reason: str) -> None:
        """Dump one flight-recorder incident for a just-audited violation.

        Runs *after* ``record_integrity_violation``, so the operations
        log's head entry — included as the incident's ``audit_head`` — is
        the violation entry itself: the forensic artifact is pinned to
        the tamper-evident chain.
        """
        obsv = self._obsv
        if obsv is None:
            return
        audit_head = None
        try:
            ops = self.monitor.audit_log("operations")
        except MonitorError:
            ops = None
        if ops is not None and ops.entries:
            last = ops.entries[-1]
            audit_head = {
                "log": "operations",
                "sequence": last.sequence,
                "digest": last.digest().hex(),
            }
        spans: list[dict] = []
        active = getattr(self.tracer, "_active", None)
        if active is not None:
            spans = [span.to_dict() for span in active.spans[-16:]]
        obsv.dump_incident(
            page=pgno, reason=reason, node=node,
            audit_head=audit_head, spans=spans,
        )

    # ------------------------------------------------------------------
    # Additional storage nodes (sharded deployments)
    # ------------------------------------------------------------------

    def add_storage_node(self, node_id: str) -> StorageNode:
        """Provision one more storage server, trust-isolated from the rest.

        The node gets its own vendor-provisioned TrustZone device (its
        own secure boot, its own RPMB, its own secure-storage master key
        — so an entirely separate HKDF key domain and Merkle root), its
        own NVMe devices, its own engines, its own network endpoint, and
        a violation hook that attributes tampering to *node_id*.  It runs
        the same signed firmware as the primary, so the monitor's
        expected-measurement set already covers it; attestation is still
        per-node (:meth:`attest_storage_node`).
        """
        device = self.vendor.provision_device(node_id, location=self.storage_location)
        secure_world = self.vendor.sign_firmware("optee", SECURE_WORLD_IMAGE, "3.4")
        normal_world = self.vendor.sign_firmware(
            "linux-ironsafe", NORMAL_WORLD_IMAGE, self.storage_fw_version
        )
        device.secure_boot(secure_world, normal_world)
        secure_device = BlockDevice(f"nvme-secure-{node_id}")
        plain_device = BlockDevice(f"nvme-plain-{node_id}")
        engine = StorageEngine(
            device, secure_device, self.rng.fork(f"storage-secure-{node_id}"),
            secure=True, cipher=self._cipher, realm_mode=self.armv9_realms,
            cache_pages=self.page_cache_pages,
        )
        engine_plain = StorageEngine(
            device, plain_device, self.rng.fork(f"storage-plain-{node_id}"),
            secure=False,
        )
        self.link.register(node_id)
        engine.pager.on_violation = self._node_violation(node_id)
        engine.tracer = self.tracer
        engine_plain.tracer = self.tracer
        if self._obsv is not None:
            secure_device.obsv = self._obsv
            plain_device.obsv = self._obsv
        return StorageNode(
            node_id=node_id,
            endpoint=node_id,
            engine=engine,
            engine_plain=engine_plain,
            secure_device=secure_device,
            plain_device=plain_device,
        )

    # ------------------------------------------------------------------
    # Attestation (Table 4 path)
    # ------------------------------------------------------------------

    def attest_all(self) -> dict[str, AttestedNode]:
        """Run both attestation protocols and register every node."""
        with self.tracer.maybe_root(
            SPAN_ATTESTATION, node=NODE_MONITOR, enclave=True
        ) as span:
            challenge = self.rng.bytes(16)
            host_quote = self.host_enclave.generate_quote(challenge)
            host_node = self.attestation.attest_host(
                host_quote, location=self.host_location, fw_version="1.0"
            )
            self.monitor.register_host(host_node)

            storage_node = self.attest_storage_node(self.storage_engine)
            attested = {"host": host_node, "storage": storage_node}
            for node in self.nodes[1:]:
                attested[node.node_id] = self.attest_storage_node(node.engine)
            self._attested = True
            span.set_attrs(
                host=host_node.config.node_id, storage=storage_node.config.node_id
            )
            return attested

    def attest_storage_node(self, engine: StorageEngine) -> AttestedNode:
        """Attest one storage engine and register it with the monitor.

        Every storage node proves its own identity: a fresh challenge, its
        own quote over its own boot state, its own monitor registration —
        a sharded deployment calls this once per shard.
        """
        challenge = self.rng.bytes(16)
        quote, chain = engine.attest(challenge)
        node = self.attestation.attest_storage(quote, chain, challenge)
        self.monitor.register_storage(node)
        return node

    # ------------------------------------------------------------------
    # Query execution under each configuration
    # ------------------------------------------------------------------

    def run_query(
        self,
        sql: str,
        config: str,
        *,
        storage_cpus: int | None = None,
        storage_memory_bytes: int | None = None,
        manual_partition=None,
        authorization=None,
        run_config: RunConfig | None = None,
    ) -> RunResult:
        statement, cpus, memory, run_config = self._query_inputs(
            sql, config, storage_cpus, storage_memory_bytes, run_config
        )
        # One observable trace per query window.  The attributes carry the
        # configuration only — never the SQL text: the predicate constant
        # is exactly the secret the leakage meter measures, so the
        # adversary's record must not contain it.
        obsv = self._obsv
        if obsv is not None:
            obsv.begin_query(config=config)
        try:
            result = self._run_query_traced(
                sql, statement, config, cpus=cpus, memory=memory,
                manual_partition=manual_partition, authorization=authorization,
                run_config=run_config,
            )
        except BaseException:
            if obsv is not None:
                obsv.end_query(status="error")
            raise
        if obsv is not None:
            obsv.end_query(
                sim_ns=result.breakdown.total_ns,
                rows=len(result.rows),
                bytes_shipped=result.bytes_shipped,
            )
        self._absorb_run_metrics(result, config)
        return result

    def _query_inputs(
        self, sql: str, config: str, storage_cpus, storage_memory_bytes, run_config
    ) -> tuple[A.Select, int, int, RunConfig]:
        """Check *config*, parse *sql*, and fill what the caller left unset
        from the deployment's own settings: (statement, cpus, memory, run config)."""
        if config not in CONFIGS:
            raise IronSafeError(f"unknown configuration {config!r} (know {sorted(CONFIGS)})")
        return (
            self.parse_select(sql),
            storage_cpus if storage_cpus is not None else self.storage_cpus,
            storage_memory_bytes
            if storage_memory_bytes is not None
            else self.storage_memory_bytes,
            run_config if run_config is not None else self.run_config,
        )

    @staticmethod
    def parse_select(sql: str) -> A.Select:
        """Parse *sql*, insisting on a SELECT (the evaluation workload).

        Public so layers that may not reach into ``repro.sql`` directly
        (the sharded deployment's runners) parse through the core surface.
        """
        statement = parse(sql)
        if not isinstance(statement, A.Select):
            raise IronSafeError("the evaluation harness runs SELECT statements")
        return statement

    def _run_query_traced(
        self,
        sql: str,
        statement: A.Select,
        config: str,
        *,
        cpus: int,
        memory: int,
        manual_partition,
        authorization,
        run_config: RunConfig,
    ) -> RunResult:
        # Root span when called standalone; when the client library already
        # opened the query root, the phases below attach to it instead.
        with self.tracer.maybe_root(
            SPAN_QUERY, node=NODE_CLIENT, config=config, sql=sql
        ) as root:
            secure = CONFIGS[config].secure
            if CONFIGS[config].split_execution:
                result = self._run_split(
                    statement, secure=secure, cpus=cpus, memory=memory,
                    manual=manual_partition,
                    authorization=authorization if secure else None,
                    run_config=run_config,
                )
            elif config == "sos":
                result = self._run_storage_only(
                    statement, cpus=cpus, memory=memory, run_config=run_config
                )
            else:
                result = self._run_host_only(
                    statement, secure=secure, run_config=run_config
                )
            root.set_sim_ns(result.breakdown.total_ns)
            root.set_attrs(rows=len(result.rows), bytes_shipped=result.bytes_shipped)
        return result

    def _absorb_run_metrics(self, result: RunResult, config: str) -> None:
        """Fold one run's meters into the tracer's metrics registry."""
        metrics = getattr(self.tracer, "metrics", None)
        if metrics is None:
            return
        metrics.counter("queries_total", config=config).inc()
        metrics.absorb_meter(result.storage_meter, node=NODE_STORAGE, phase=config)
        metrics.absorb_meter(result.host_meter, node=NODE_HOST, phase=config)
        metrics.histogram("query_sim_ms", config=config).observe(
            result.breakdown.total_ms
        )
        if self._obsv is not None:
            # Observation counters live on the recorder's own meter (they
            # never touch run meters or the cost model); the registry still
            # absorbs them so `repro-trace summary` sees them first-class.
            metrics.absorb_meter(
                self._obsv.take_meter_delta(), node="obsv", phase=config
            )

    # -- concurrent multi-session execution ---------------------------------

    def run_concurrent(
        self,
        queries,
        *,
        workers: int = 2,
        config: str = "scs",
        client_key: str | None = None,
    ) -> ConcurrentRunResult:
        """Serve several client sessions and overlap them across *workers*.

        *queries* is a list of SQL strings (all run under *config*) or
        ``(sql, config)`` pairs.  Sessions are fully isolated exactly as
        serial runs are: each ``scs`` session goes through the monitor's
        admission path, gets its own HKDF-derived session key, its own
        audit-chain entries, and is closed (``finish_session``) before the
        next session's keys exist.  Execution itself is serialized — the
        simulator is single-threaded — and the deterministic sim-clock
        arbiter (:func:`repro.perf.arbitrate`) then places the finished
        sessions on the earliest-available worker, so the reported
        makespan/throughput are reproducible run to run.
        """
        specs: list[tuple[str, str]] = []
        for query in queries:
            if isinstance(query, str):
                specs.append((query, config))
            else:
                sql, cfg = query
                specs.append((sql, cfg))
        if not specs:
            raise IronSafeError("run_concurrent needs at least one query")
        if workers <= 0:
            raise IronSafeError(f"run_concurrent needs at least one worker, got {workers}")

        with self.tracer.maybe_root(
            SPAN_SCHEDULER, node=NODE_HOST, sessions=len(specs), workers=workers
        ) as root:
            sessions: list[ConcurrentSession] = []
            obsv = self._obsv
            for index, (sql, cfg) in enumerate(specs):
                session_id = f"local-{index:04d}"
                key_digest = ""
                proof = None
                if obsv is not None:
                    # Label the observable stream before admission so the
                    # monitor's audit entries attach to this session's
                    # trace, not the previous one's.
                    obsv.session = session_id
                if cfg == "scs":
                    if not self._attested:
                        self.attest_all()
                    clock_before = self.clock.breakdown.copy()
                    auth = self._admit(self.parse_select(sql), sql, client_key)
                    monitor_breakdown = self.clock.breakdown.minus(clock_before)
                    session_id = auth.session.session_id
                    key_digest = sha256(auth.session.key).hex()[:16]
                    proof = auth.proof
                    if obsv is not None:
                        obsv.session = session_id
                    try:
                        result = self.run_query(
                            auth.statement.to_sql(), cfg, authorization=auth
                        )
                    finally:
                        # Closing the session revokes its key and appends
                        # the session-close entry to the operations audit
                        # chain — the next session starts from a clean key
                        # space, whether or not this one succeeded.
                        self.monitor.finish_session(session_id)
                        if obsv is not None:
                            # The close entry lands after the query window:
                            # fold it into the session's completed trace.
                            obsv.adopt_pending(obsv.last_trace())
                    result.breakdown.merge(monitor_breakdown)
                else:
                    result = self.run_query(sql, cfg)
                if obsv is not None:
                    obsv.session = ""
                sessions.append(
                    ConcurrentSession(
                        index=index,
                        sql=sql,
                        config=cfg,
                        result=result,
                        session_id=session_id,
                        key_digest=key_digest,
                        proof=proof,
                    )
                )

            tasks = [
                SessionTask(s.index, s.result.breakdown.total_ns) for s in sessions
            ]
            slots = arbitrate(tasks, workers)
            for session, slot in zip(sessions, slots):
                session.worker = slot.worker
                session.start_ms = slot.start_ns / 1e6
                session.end_ms = slot.end_ns / 1e6
            makespan_ms = makespan_ns(slots) / 1e6
            serial_ms = sum(s.result.breakdown.total_ms for s in sessions)
            outcome = ConcurrentRunResult(
                sessions=sessions,
                workers=workers,
                makespan_ms=makespan_ms,
                serial_ms=serial_ms,
            )
            root.set_sim_ns(makespan_ms * 1e6)
            root.set_attrs(
                sessions=len(sessions),
                workers=workers,
                makespan_ms=makespan_ms,
                speedup=outcome.speedup,
            )
        metrics = getattr(self.tracer, "metrics", None)
        if metrics is not None:
            metrics.counter("scheduler.sessions", workers=str(workers)).inc(
                len(sessions)
            )
            metrics.histogram("scheduler.makespan_ms", workers=str(workers)).observe(
                makespan_ms
            )
        return outcome

    # -- host-only (hons / hos) ---------------------------------------------

    def _host_only_db(
        self, secure: bool, node: StorageNode, rng_label: str = "host-pager"
    ):
        """Open *node*'s device from the host side (NFS-style).

        Opened fresh per run so the host sees the storage engine's latest
        catalog and integrity tree; the setup cost (tree rebuild + anchor
        check) happens against a throwaway meter, and the run's own meter
        is installed on every layer before returning (db, pager, meter).
        The host-side secure pager shares the node's device, master key and
        anchor.
        """
        if secure:
            master_key = node.engine.trusted_os.invoke(
                "secure-storage", "get_master_key"
            )
            pager = SecurePager(
                node.engine.block_device,
                master_key,
                _SharedAnchor(node.engine),
                self.rng.fork(rng_label),
                meter=Meter(),
                cipher=self._cipher,
                cache_pages=self.page_cache_pages,
            )
            pager.on_violation = self._node_violation("host-1")
        else:
            pager = Pager(node.plain_device, meter=Meter())
        db = Database(PagedStore(pager, Meter()))
        db.tracer = self.tracer
        meter = Meter()
        db.store.meter = meter
        pager.meter = meter
        if secure:
            pager.tree.meter = meter
            pager.tracer = self.tracer
            pager.trace_node = NODE_HOST
        return db, pager, meter

    @staticmethod
    def _charge_enclave_paging(meter: Meter, pager) -> None:
        """Every page fetch exits/re-enters the enclave, and the Merkle tree
        is resident in enclave memory for the whole run (hos only)."""
        meter.enclave_transitions += 2 * meter.pages_read
        meter.peak_memory_bytes += pager.tree_size_bytes()

    def _run_host_only(
        self, statement: A.Select, secure: bool, run_config: RunConfig
    ) -> RunResult:
        db, pager, meter = self._host_only_db(secure, self.nodes[0])
        with self.tracer.span(
            SPAN_HOST_EXECUTE, node=NODE_HOST, enclave=secure
        ) as exec_span:
            result = db.execute_statement(statement, options=run_config)

        if secure:
            self._charge_enclave_paging(meter, pager)
        record = PullRecord(secure=secure, host_meter=meter)
        priced = price_host_pull(self.cost_model, record)
        exec_span.set_sim_ns(priced.breakdown.total_ns)
        exec_span.set_attrs(rows=len(result.rows), pages_read=meter.pages_read)
        return RunResult(
            config="hos" if secure else "hons",
            columns=result.columns,
            rows=result.rows,
            breakdown=priced.breakdown,
            host_breakdown=priced.host,
            host_meter=meter,
            record=record,
        )

    # -- split execution (vcs / scs) -----------------------------------------

    @staticmethod
    def _infer_column_types(columns: list[str], rows: list[tuple]) -> list[tuple[str, str]]:
        types = []
        for i, name in enumerate(columns):
            type_name = "TEXT"
            for row in rows:
                value = row[i]
                if value is None:
                    continue
                if isinstance(value, bool) or isinstance(value, int):
                    type_name = "INTEGER"
                elif isinstance(value, float):
                    type_name = "REAL"
                elif isinstance(value, datetime.date):
                    type_name = "DATE"
                break
            types.append((name, type_name))
        return types

    @staticmethod
    def _scan_column_types(engine: StorageEngine, scan) -> list[tuple[str, str]]:
        """Declared types of a planned scan's output columns."""
        schema = engine.db.store.catalog.table(scan.table)
        return [(name, schema.column_type(name)) for name in scan.columns]

    @staticmethod
    def _ship_schedule(
        engine, table_name: str, *, record_rows: int | None = None
    ) -> ShipSchedule:
        """Fixed ship schedule for *table_name* from catalog stats only.

        The bound depends on the table's page count and row count — never
        on the predicate — so the resulting channel trace shape is
        identical for any two queries over the same table that differ
        only in their constants (the oblivious ``full`` tier contract).
        Each node bounds against its *own* catalog, so its channel trace
        is predicate-independent on its own — traces of different nodes
        never need cross-correlation.
        """
        schema = engine.db.store.catalog.table(table_name)
        payload_bytes = len(schema.pages) * engine.pager.payload_size
        if record_rows is not None:
            return record_schedule(schema.row_count, payload_bytes, record_rows)
        return batch_schedule(schema.row_count, payload_bytes, DEFAULT_BATCH_BYTES)

    def _admit(self, statement: A.Select, query_text: str, client_key: str | None = None):
        """The monitor's admission path for one scs request.

        Attests on first use, then has the monitor check the request and
        open a session; whoever calls this owes the matching
        ``finish_session``.
        """
        if not self._attested:
            self.attest_all()
        return self.monitor.authorize(
            self.database_name,
            client_key=(
                client_key if client_key is not None else self._client_fingerprint()
            ),
            statement=statement,
            host_id="host-1",
            now=0,
            query_text=query_text,
        )

    def _usable_manual(self, manual):
        """The hand-written partition this deployment can run as given (or
        ``None``: plan automatically), plus the plan notes saying why not."""
        return manual, []

    def _route_ship(self, ship, manual, run_config: RunConfig, stores):
        """Indices of the nodes one ship must visit, and how many it could
        skip: the one storage server holds everything."""
        return [0], 0

    def _priced_event(self, name: str, ns: float, **attrs) -> None:
        """A marker span for time a run is charged outside its phases."""
        span = self.tracer.event(name, **attrs)
        if span is not None:
            span.set_sim_ns(ns)

    def _shard_attrs(self, node: StorageNode) -> dict:
        """Span attribute naming the shard — only where there is a choice."""
        return {"shard": node.node_id} if len(self.nodes) > 1 else {}

    def _run_split(
        self, statement: A.Select, secure: bool, cpus: int, memory: int,
        manual, authorization, run_config: RunConfig,
    ) -> RunResult:
        """The vcs/scs runner: offloaded scans near the data, the rest on the host.

        Stages, over however many storage nodes there are: partition the
        query (or take the hand-written split) → admit it at the monitor
        (scs) → open the host session and one channel per node → for each
        ship, route it, and on each target node scan and ship (one of two
        wire forms, by ``run_config.pipeline``) → run the host statement →
        price the recorded counts (:func:`~repro.sim.pricing.price_split`)
        and stamp the spans.  docs/performance.md says what each stage
        charges.
        """
        pipelined = run_config.pipeline
        sharded = len(self.nodes) > 1
        shards = {"shards": len(self.nodes)} if sharded else {}

        manual, notes = self._usable_manual(manual)
        plan = None
        if manual is None:
            with self.tracer.span(SPAN_PARTITION, node=NODE_HOST) as part_span:
                plan = self.partitioner.partition(statement)
                part_span.set_attrs(scans=len(plan.scans))
        ships = manual.ships if manual is not None else plan.scans

        with ExitStack() as cleanup:
            clock_before = self.clock.breakdown.copy()
            auth = authorization
            if secure:
                if auth is None:
                    # A session the runner opens is the runner's to close,
                    # on failure too; one a client carried out the control
                    # path for and passed in stays the client's.
                    auth = self._admit(statement, statement.to_sql())
                    cleanup.callback(
                        self.monitor.finish_session, auth.session.session_id
                    )
                if manual is None:
                    statement = auth.statement
            monitor_breakdown = self.clock.breakdown.minus(clock_before)

            host_meter = self.host_engine.fresh_meter()
            ship_meters = [Meter() for _ in self.nodes]
            self.host_engine.begin_session(run_config)
            # However the run ends, no shipped plaintext, open ingest or
            # enclave session may outlive it into the next query.
            cleanup.callback(self.host_engine.end_session)
            record = SplitRecord(
                secure=secure, in_realm=secure and self.armv9_realms,
                pipelined=pipelined, portions=[], ship_meters=ship_meters,
                host_meter=host_meter, monitor=monitor_breakdown,
            )
            run = _SplitRun(
                run_config=run_config, manual=manual is not None, record=record,
                engines=[
                    node.engine if secure else node.engine_plain
                    for node in self.nodes
                ],
                channels=[
                    channel_pair(
                        self.link, "host", node.endpoint, auth.session.key,
                        host_meter, ship_meter, tracer=self.tracer,
                    )
                    if secure else None
                    for node, ship_meter in zip(self.nodes, ship_meters)
                ],
            )

            # Storage phase: every offloaded portion runs with its own
            # meter so portions can be scheduled across the storage CPUs.
            ship_portion = self._ship_batches if pipelined else self._ship_records
            stores = [engine.db.store for engine in run.engines]
            stamps = []
            with self.tracer.span(
                SPAN_STORAGE_PHASE, node=NODE_STORAGE, enclave=record.in_realm,
                portions=len(ships), **shards,
            ) as phase_span:
                for ship in ships:
                    targets, pruned = self._route_ship(ship, manual, run_config, stores)
                    if sharded:
                        host_meter.bump("shard_scan_fanout", len(targets))
                        host_meter.bump("shards_pruned", pruned)
                        self.tracer.event(
                            SPAN_SHARD_ROUTE, node=NODE_HOST, table=ship.table,
                            fanout=len(targets), pruned=pruned,
                        )
                    if not targets:
                        # Every shard proved the scan matches nothing; the
                        # host table must still exist for the join/agg phase.
                        self.host_engine.receive_table(
                            ship.table,
                            self._scan_column_types(run.engines[0], ship), [],
                        )
                    for target in targets:
                        stamps.append(ship_portion(run, ship, target))

            # Host phase: the full query over the shipped tables.
            host_statement = (
                self.parse_select(manual.host_sql) if manual is not None else statement
            )
            with self.tracer.span(
                SPAN_HOST_JOIN_AGG, node=NODE_HOST, enclave=secure
            ) as host_span:
                result = self.host_engine.run(host_statement)

        priced = price_split(self.cost_model, record, cpus=cpus, memory=memory)
        for stamp, slot in zip(stamps, priced.portions):
            stamp(slot)
        total_bytes = sum(p.nbytes for p in record.portions)
        # The phase's wall time is the schedule, not the sum of the
        # portion spans (extra CPUs and nodes overlap portions).
        phase_span.set_sim_ns(priced.storage.total_ns)
        phase_span.set_attrs(
            bytes_shipped=total_bytes, cpus=cpus, pipelined=pipelined,
            batches=sum(p.batches for p in record.portions),
        )
        host_span.set_sim_ns(priced.join.total_ns)
        host_span.set_attrs(rows=len(result.rows))
        if priced.transfer_ns > 0:
            self._priced_event(
                SPAN_CHANNEL_TRANSFER, priced.transfer_ns, node=NODE_NETWORK,
                bytes=total_bytes,
            )
        if secure:
            self._priced_event(SPAN_SESSION_SETUP, priced.handshake_ns, node=NODE_HOST)

        return RunResult(
            config="scs" if secure else "vcs",
            columns=result.columns,
            rows=result.rows,
            breakdown=priced.breakdown,
            storage_breakdown=priced.storage,
            host_breakdown=priced.host,
            storage_meter=record.storage_meter(),
            host_meter=host_meter,
            bytes_shipped=total_bytes,
            plan_notes=notes + (plan.notes if plan is not None else [manual.note]),
            record=record,
        )

    # The two wire forms of "scan one portion on one node and ship it".
    # Both take (run, ship, node index), record the portion's counts and
    # return a function that stamps its spans once the run is priced; they
    # share the three helpers below.

    @staticmethod
    def _push(channel, frame: bytes) -> bytes:
        """Move one frame from a node to the host: really through the
        node's authenticated channel under scs; vcs has none."""
        if channel is None:
            return frame
        chan_host, chan_node = channel
        chan_node.send(frame, charge_time=False)
        return chan_host.receive()

    @staticmethod
    def _pad(frame: bytes, tier: str, schedule: ShipSchedule | None, ship_meter: Meter) -> bytes:
        """Pad *frame* to its tier's fixed ciphertext size (no-op when off)."""
        if not pads_channel(tier):
            return frame
        padded = pad_frame(frame, target=schedule.frame_bytes if schedule else None)
        ship_meter.bump("oblivious_pad_bytes", len(padded) - len(frame))
        return padded

    @staticmethod
    def _dummy(schedule: ShipSchedule, ship_meter: Meter) -> bytes:
        """One all-padding frame of the full tier's top-up, metered."""
        filler = dummy_frame(schedule.frame_bytes)
        ship_meter.bump("oblivious_dummy_batches")
        ship_meter.bump("oblivious_pad_bytes", len(filler))
        return filler

    def _ship_records(self, run: _SplitRun, ship, target: int):
        """Record-framed form: materialize the portion, then ship it.

        The scan runs to completion, its rows are serialized once, and
        (scs) pushed through the channel ``RECORD_ROWS`` at a time —
        the framing that mirrors the host's ingest batching.  Nothing
        overlaps, so the portion's slot is just its scan.
        """
        node, engine = self.nodes[target], run.engines[target]
        record, channel = run.record, run.channels[target]
        ship_meter, host_meter = record.ship_meters[target], record.host_meter
        config = run.run_config
        tier = config.oblivious
        shard = self._shard_attrs(node)
        portion_meter = engine.fresh_meter()
        ship_before, host_before = ship_meter.copy(), host_meter.copy()
        ship_span = None
        with self.tracer.span(
            SPAN_NDP_FILTER, node=NODE_STORAGE, enclave=record.in_realm,
            table=ship.table, **shard,
        ) as portion_span:
            with self._attributed(node.node_id):
                if run.manual:
                    columns, rows, nbytes, encoded = engine.execute_sql(
                        ship.sql, config
                    )
                    column_types = self._infer_column_types(columns, rows)
                else:
                    columns, rows, nbytes, encoded = engine.execute_scan(ship, config)
                    column_types = self._scan_column_types(engine, ship)
            if channel is not None:
                with self.tracer.span(
                    SPAN_CHANNEL_SHIP, node=NODE_STORAGE, table=ship.table, **shard,
                ) as ship_span:
                    # The receiver ingests rows out of band, so padded
                    # records need no unwrap on the host side.
                    schedule = None
                    if fixed_ship_schedule(tier):
                        schedule = self._ship_schedule(
                            engine, ship.table, record_rows=RECORD_ROWS
                        )
                    records = 0
                    for start in range(0, max(1, len(rows)), RECORD_ROWS):
                        payload = b"".join(encoded[start : start + RECORD_ROWS])
                        self._push(channel, self._pad(payload, tier, schedule, ship_meter))
                        records += 1
                    if schedule is not None:
                        # Top the record count up to the table's
                        # predicate-independent bound with dummies, so
                        # the channel trace length is fixed too.
                        for _ in range(max(0, schedule.units - records)):
                            self._push(channel, self._dummy(schedule, ship_meter))
                ship_span.set_attrs(bytes=nbytes, rows=len(rows))
            self.host_engine.receive_table(ship.table, column_types, rows)
        portion_span.set_attrs(rows=len(rows), bytes=nbytes)

        def stamp(slot: PortionTime) -> None:
            portion_span.set_sim_ns(slot.scan.total_ns)
            portion_span.set_attrs(
                **{f"{category}_ns": ns for category, ns in sorted(slot.scan.by_category.items())}
            )
            if ship_span is not None:
                ship_span.set_sim_ns(slot.ship_ns)

        record.portions.append(
            Portion(
                node=target, meter=portion_meter, ship=ship_meter.delta(ship_before),
                ingest=host_meter.delta(host_before), nbytes=nbytes,
            )
        )
        return stamp

    def _ship_batches(self, run: _SplitRun, ship, target: int):
        """Streaming form: the portion as a stream of bounded RecordBatches.

        The scan produces a batch, the channel encrypts it, and the host
        ingests it — and the three stages *overlap* across consecutive
        batches, so the portion's slot is the pipeline makespan, not the
        serial sum.  The portion records each batch's rows and wire bytes,
        the weights that split its stage costs across the pipeline.
        """
        node, engine = self.nodes[target], run.engines[target]
        record, channel = run.record, run.channels[target]
        ship_meter, host_meter = record.ship_meters[target], record.host_meter
        config = run.run_config
        tier = config.oblivious
        shard = self._shard_attrs(node)
        portion_meter = engine.fresh_meter()
        ship_before, host_before = ship_meter.copy(), host_meter.copy()
        table_name = ship.table
        with self.tracer.span(
            SPAN_NDP_FILTER, node=NODE_STORAGE, enclave=record.in_realm,
            table=table_name, **shard,
        ) as portion_span:
            schedule = None
            fixed_rows = None
            if fixed_ship_schedule(tier):
                schedule = self._ship_schedule(engine, table_name)
                fixed_rows = schedule.rows_per_unit
            with self._attributed(node.node_id):
                if run.manual:
                    columns, batches = engine.stream_sql(
                        ship.sql, config, fixed_rows=fixed_rows
                    )
                    column_types = None  # inferred from the first batch
                else:
                    columns, batches = engine.stream_scan(
                        ship, config, fixed_rows=fixed_rows
                    )
                    column_types = self._scan_column_types(engine, ship)
                    self.host_engine.begin_table(table_name, column_types)

                if schedule is not None:
                    # Full tier: drain the scan before shipping.  Batch
                    # boundaries fall at data-dependent points in the
                    # page stream, so letting sends interleave with
                    # reads would leak match positions through the
                    # merged trace order even with every frame padded —
                    # obliviousness trades the pipeline overlap away.
                    batches = list(batches)
                row_weights: list[int] = []
                byte_weights: list[int] = []
                for batch in batches:
                    if column_types is None:
                        column_types = self._infer_column_types(
                            columns, list(batch.rows)
                        )
                        self.host_engine.begin_table(table_name, column_types)
                    frame = self._pad(
                        pack_frame(batch.payload), tier, schedule, ship_meter
                    )
                    ship_meter.bump("batches_shipped")
                    received = self._push(channel, frame)
                    if pads_channel(tier):
                        received = unpad_frame(received)
                    self.host_engine.ingest_batch(table_name, unpack_frame(received))
                    row_weights.append(batch.row_count)
                    byte_weights.append(len(frame))
                    if self.tracer.enabled:
                        self.tracer.event(
                            SPAN_SHIP_BATCH,
                            node=NODE_STORAGE,
                            table=table_name,
                            seq=len(row_weights) - 1,
                            rows=batch.row_count,
                            bytes=len(frame),
                            **shard,
                        )
                if column_types is None:
                    # Empty manual portion: the host table must still exist.
                    column_types = self._infer_column_types(columns, [])
                    self.host_engine.begin_table(table_name, column_types)
                if schedule is not None:
                    # Top the batch count up to the table's predicate-
                    # independent bound with dummy frames so the channel
                    # trace (count and sizes) is fixed; the host drops
                    # them on unpad without an enclave entry.
                    for _ in range(max(0, schedule.units - len(row_weights))):
                        filler = self._dummy(schedule, ship_meter)
                        ship_meter.bump("batches_shipped")
                        dropped = self._push(channel, filler)
                        assert unpad_frame(dropped) is None
                        row_weights.append(0)
                        byte_weights.append(len(filler))
                self.host_engine.finish_table(table_name)
        portion_span.set_attrs(
            rows=sum(row_weights),
            bytes=sum(byte_weights),
            batches=len(row_weights),
        )

        def stamp(slot: PortionTime) -> None:
            portion_span.set_sim_ns(slot.duration_ns)
            portion_span.set_attrs(serial_ns=slot.serial_ns)

        record.portions.append(
            Portion(
                node=target, meter=portion_meter, ship=ship_meter.delta(ship_before),
                ingest=host_meter.delta(host_before), row_weights=row_weights,
                byte_weights=byte_weights, nbytes=sum(byte_weights),
            )
        )
        return stamp

    # -- storage only (sos) ----------------------------------------------

    def _run_storage_only(
        self, statement: A.Select, cpus: int, memory: int, run_config: RunConfig
    ) -> RunResult:
        meter = self.storage_engine.fresh_meter()
        with self.tracer.span(
            SPAN_STORAGE_PHASE,
            node=NODE_STORAGE,
            enclave=self.armv9_realms,
            portions=1,
        ) as phase_span:
            result = self.storage_engine.execute_full(statement, run_config)
        # One single-threaded engine instance processes the whole query.
        record = StorageRecord(in_realm=self.armv9_realms, whole=meter)
        priced = price_storage_only(self.cost_model, record, memory=memory)
        phase_span.set_sim_ns(priced.breakdown.total_ns)
        phase_span.set_attrs(rows=len(result.rows), pages_read=meter.pages_read)
        return RunResult(
            config="sos",
            columns=result.columns,
            rows=result.rows,
            breakdown=priced.breakdown,
            storage_breakdown=priced.storage,
            storage_meter=meter,
            record=record,
        )

    # ------------------------------------------------------------------
    # TCB accounting
    # ------------------------------------------------------------------

    def tcb_report(self) -> list[dict]:
        """What a verifier must trust, component by component (§3.3).

        With classic TrustZone the *entire* storage normal world (OS +
        engine) is in the TCB; with ARM v9 realms only the engine's realm
        image is.  Sizes are the simulated image sizes — the point is the
        inventory, not the byte counts.
        """
        report = [
            {"component": "trusted monitor (SGX enclave)",
             "bytes": REPRESENTATIVE_TCB_SIZES["monitor"], "trusted": True},
            {"component": "host engine (SGX enclave)",
             "bytes": REPRESENTATIVE_TCB_SIZES["host-engine"], "trusted": True},
            {"component": "storage secure world (ATF + OP-TEE + TAs)",
             "bytes": REPRESENTATIVE_TCB_SIZES["secure-world"], "trusted": True},
        ]
        if self.armv9_realms:
            report.append(
                {"component": "storage engine (CCA realm)",
                 "bytes": REPRESENTATIVE_TCB_SIZES["storage-engine"], "trusted": True}
            )
            report.append(
                {"component": "storage normal-world OS",
                 "bytes": REPRESENTATIVE_TCB_SIZES["normal-world-os"], "trusted": False}
            )
        else:
            report.append(
                {"component": "storage normal world (OS + engine)",
                 "bytes": REPRESENTATIVE_TCB_SIZES["normal-world-os"]
                 + REPRESENTATIVE_TCB_SIZES["storage-engine"], "trusted": True}
            )
        return report

    def tcb_bytes(self) -> int:
        return sum(c["bytes"] for c in self.tcb_report() if c["trusted"])

    # ------------------------------------------------------------------
    # Client provisioning helpers
    # ------------------------------------------------------------------

    def _client_fingerprint(self) -> str:
        fingerprint = getattr(self, "_client_fp", None)
        if fingerprint is None:
            fingerprint = self.rng.fork("client-identity").bytes(32).hex()
            self._client_fp = fingerprint
            try:
                self.monitor.database(self.database_name)
            except MonitorError:  # not provisioned yet; anything else propagates
                self.monitor.provision_database(
                    self.database_name,
                    policy_text=f"read :- sessionKeyIs('{fingerprint}')\n"
                    f"write :- sessionKeyIs('{fingerprint}')",
                )
        return fingerprint


class _SharedAnchor(InMemoryAnchor):
    """Host-side view of the storage server's RPMB anchor.

    In the host-only secure configuration the host maintains the Merkle
    tree itself; the freshness anchor still lives on the storage device's
    RPMB, reached through the secure-storage TA.
    """

    def __init__(self, storage_engine: StorageEngine):
        super().__init__()
        self._engine = storage_engine

    def anchor_root(self, root: bytes) -> None:
        self._engine.trusted_os.invoke("secure-storage", "anchor_root", root)

    def verify_root(self, root: bytes) -> None:
        # The storage engine re-anchors on its own commits; the host-side
        # pager shares the same tree contents, so roots agree.
        self._engine.trusted_os.invoke("secure-storage", "verify_root", root)
