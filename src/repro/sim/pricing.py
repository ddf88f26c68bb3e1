"""Counts become time here, and only here.

A runner executes a query and records what each node did, in counts: a
*record*, one kind per cut of the query between host and storage.  One
pure function per cut (no tracer, clock or deployment) turns a record into
every breakdown a :class:`~repro.core.RunResult` carries — split (vcs/scs),
host pull (hons/hos), storage-only (sos, and the Table 3 requests).  The
runners stamp their spans from its result, the offload optimizer prices
the records it predicts for each candidate, and the resource sweeps (Figs
10/11) re-price a recorded run at other CPU and memory points, which is
exactly a re-run: execution never reads either.  docs/cost-model.md
("Phases → a run") states the composition rules.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial, reduce

from .clock import CAT_NETWORK, CAT_POLICY, TimeBreakdown
from .costmodel import CostModel
from .meter import Meter


def message_ns(cost: CostModel, nbytes: int) -> float:
    """One link message that overlaps nothing pays its whole transfer."""
    return cost.net_transfer_ns(nbytes)


def lpt_makespan_ns(durations_ns: list[float], workers: int) -> float:
    """Longest-processing-time schedule of serial portions onto CPUs.

    Each offloaded statement runs single-threaded (one SQLite-like
    instance per split portion); extra storage CPUs only help by
    running different portions concurrently.
    """
    if not durations_ns:
        return 0.0
    loads = [0.0] * max(1, workers)
    for duration in sorted(durations_ns, reverse=True):
        index = min(range(len(loads)), key=loads.__getitem__)
        loads[index] += duration
    return max(loads)


@dataclass(frozen=True)
class BatchTiming:
    """Simulated stage durations of one streamed batch: the storage scan
    producing it, the channel crypto shipping it, the host ingesting it."""

    scan_ns: float
    ship_ns: float
    ingest_ns: float

    @property
    def serial_ns(self) -> float:
        return self.scan_ns + self.ship_ns + self.ingest_ns


def pipelined_ns(timings: Sequence[BatchTiming]) -> float:
    """Makespan of the batches through the three-stage pipeline.

    Stage *k* of batch *b* starts once batch *b-1* has left stage *k* and
    batch *b* has left stage *k-1*: exact for one producer, one serial
    channel and one ingesting enclave thread; one batch is the serial sum.
    """
    scan_done = ship_done = ingest_done = 0.0
    for t in timings:
        scan_done += t.scan_ns
        ship_done = max(ship_done, scan_done) + t.ship_ns
        ingest_done = max(ingest_done, ship_done) + t.ingest_ns
    return ingest_done


def apportion_ns(total_ns: float, weights: Sequence[int]) -> list[float]:
    """Split a phase total across batches proportionally to *weights*
    (evenly when they are all zero), conserving the total."""
    if not weights:
        return []
    weight_sum = sum(weights)
    if weight_sum <= 0:
        return [total_ns / len(weights)] * len(weights)
    return [total_ns * w / weight_sum for w in weights]


@dataclass
class Portion:
    """One portion of a run on one node: its own meter (a scan, partial or
    pull), and its slices of the node's channel meter and the host meter."""

    node: int
    meter: Meter
    ship: Meter = field(default_factory=Meter)
    ingest: Meter = field(default_factory=Meter)
    #: Rows and wire bytes of each RecordBatch shipped (streaming form).
    row_weights: list[int] = field(default_factory=list)
    byte_weights: list[int] = field(default_factory=list)
    #: Bytes put on the wire.
    nbytes: int = 0

    @property
    def batches(self) -> int:
        return len(self.byte_weights)


@dataclass
class SplitRecord:
    """A vcs/scs run: offloaded portions, per-node channels, the host run."""

    secure: bool
    in_realm: bool
    #: Streaming ship form (``RunConfig.pipeline``), else record-framed.
    pipelined: bool
    portions: list[Portion]
    #: Per storage node: what its end of the channel counted.
    ship_meters: list[Meter]
    host_meter: Meter
    #: The monitor's admission path, as the clock charged it.
    monitor: TimeBreakdown = field(default_factory=TimeBreakdown)

    def node_meter(self, node: int) -> Meter:
        """Everything one node counted: its portions and its channel end."""
        mine = (p.meter for p in self.portions if p.node == node)
        return reduce(Meter.merge, mine, Meter()).merge(self.ship_meters[node])

    def storage_meter(self) -> Meter:
        """Everything the storage side counted, over all nodes."""
        return reduce(Meter.merge, map(self.node_meter, range(len(self.ship_meters))), Meter())


@dataclass
class PullRecord:
    """A hons/hos run: the host pulls the pages and runs the query.  Each
    portion is one shard's pull; with one node there are none, and the
    host meter holds the pulls too (the host opened the node's device)."""

    secure: bool
    host_meter: Meter
    portions: list[Portion] = field(default_factory=list)


@dataclass
class StorageRecord:
    """An sos run, or a Table 3 request: one node runs the query ``whole``,
    or N shards run partials (``portions``) that the host folds (``final``)."""

    in_realm: bool = False
    whole: Meter | None = None
    portions: list[Portion] = field(default_factory=list)
    final: Meter | None = None
    monitor: TimeBreakdown = field(default_factory=TimeBreakdown)

    def storage_meter(self) -> Meter:
        """Everything the storage side counted, over all nodes."""
        if self.whole is not None:
            return self.whole
        return reduce(Meter.merge, (p.meter for p in self.portions), Meter())


@dataclass
class PortionTime:
    """One portion priced: its own meter alone, its slot in its node's CPU
    schedule and the same work with no overlap, the channel crypto of its
    frames, and the host ingest it overlapped into the storage phase."""

    scan: TimeBreakdown
    duration_ns: float
    serial_ns: float
    ship_ns: float = 0.0
    ingest: TimeBreakdown = field(default_factory=TimeBreakdown)


@dataclass
class Priced:
    """Every breakdown of one run, and what its spans are stamped with: the
    host's own run beyond ingest overlapped into storage (``join``), link
    time charged on top of the storage phase, and TLS session setup."""

    breakdown: TimeBreakdown
    storage: TimeBreakdown = field(default_factory=TimeBreakdown)
    host: TimeBreakdown = field(default_factory=TimeBreakdown)
    join: TimeBreakdown = field(default_factory=TimeBreakdown)
    portions: list[PortionTime] = field(default_factory=list)
    transfer_ns: float = 0.0
    handshake_ns: float = 0.0


def _storage_pricer(cost: CostModel, memory: int | None, in_realm: bool):
    """Storage-side work is one single-threaded ARM engine instance."""
    return partial(
        cost.phase_breakdown, platform="arm", cores=1,
        memory_limit_bytes=memory, in_realm=in_realm,
    )


def _portion_time(cost: CostModel, portion: Portion, storage, record: SplitRecord) -> PortionTime:
    scan = storage(portion.meter)
    ship_ns = portion.ship.channel_bytes_encrypted * cost.channel_crypto_ns_per_byte
    if not record.pipelined:
        return PortionTime(scan, scan.total_ns, scan.total_ns, ship_ns)
    # Each stage's work is priced whole, then split across the portion's
    # batches by row and byte weights (totals are conserved).
    ship = storage(portion.ship)
    ingest = cost.phase_breakdown(portion.ingest, platform="x86", in_enclave=record.secure)
    timings = [
        BatchTiming(scan_ns=s, ship_ns=c, ingest_ns=h)
        for s, c, h in zip(
            apportion_ns(scan.total_ns, portion.row_weights),
            apportion_ns(ship.total_ns, portion.byte_weights),
            apportion_ns(ingest.total_ns, portion.row_weights),
        )
    ]
    serial_ns = scan.total_ns + ship.total_ns + ingest.total_ns
    makespan = pipelined_ns(timings) if timings else serial_ns
    return PortionTime(scan, makespan, serial_ns, ship_ns, ingest)


def _scaled_to(work: TimeBreakdown, wall_ns: float) -> TimeBreakdown:
    """*work*'s categories, scaled so they sum to the schedule's wall time."""
    if work.total_ns > 0:
        return work.scaled(wall_ns / work.total_ns)
    return work


def price_split(cost: CostModel, record: SplitRecord, *, cpus: int, memory: int) -> Priced:
    """Price a vcs/scs run on storage nodes of *cpus* CPUs and *memory* bytes."""
    storage = _storage_pricer(cost, memory, record.in_realm)
    times = [_portion_time(cost, p, storage, record) for p in record.portions]
    ingest = reduce(TimeBreakdown.merge, (slot.ingest for slot in times), TimeBreakdown())

    node_walls: list[float] = []
    for node in range(len(record.ship_meters)):
        mine = [slot for p, slot in zip(record.portions, times) if p.node == node]
        node_ingest = reduce(TimeBreakdown.merge, (slot.ingest for slot in mine), TimeBreakdown())
        work = storage(record.node_meter(node)).merge(node_ingest)
        node_walls.append(
            lpt_makespan_ns([slot.duration_ns for slot in mine], cpus)
            + max(0.0, work.total_ns - sum(slot.serial_ns for slot in mine))
        )
    storage_breakdown = _scaled_to(
        storage(record.storage_meter()).merge(ingest), max(node_walls, default=0.0)
    )

    host = cost.phase_breakdown(record.host_meter, platform="x86", in_enclave=record.secure)
    join = host.minus(ingest) if record.pipelined else host
    nbytes = sum(p.nbytes for p in record.portions)
    batches = sum(p.batches for p in record.portions)
    transfer_ns = cost.net_transfer_ns(
        nbytes, messages=max(1, batches if record.pipelined else nbytes // 65536)
    )
    total = TimeBreakdown().merge(record.monitor).merge(storage_breakdown)
    overflow = max(0.0, transfer_ns - storage_breakdown.total_ns)
    if overflow > 0:
        total.add(CAT_NETWORK, overflow)
    total.merge(join)
    handshake = cost.tls_handshake_ns if record.secure else 0.0
    if record.secure:
        total.add(CAT_POLICY, handshake)
    return Priced(
        breakdown=total, storage=storage_breakdown, host=host, join=join,
        portions=times, transfer_ns=overflow, handshake_ns=handshake,
    )


def price_host_pull(cost: CostModel, record: PullRecord) -> Priced:
    """Price a hons/hos run: every page the host touches crosses the link.

    With N shards the pulls serialize (one host fetching shard after
    shard) and the host's own run is priced apart.
    """
    secure = record.secure
    if not record.portions:
        breakdown = cost.phase_breakdown(
            record.host_meter, platform="x86", in_enclave=secure, remote_io=True
        )
        return Priced(breakdown=breakdown, host=breakdown.copy(), join=breakdown)
    total = TimeBreakdown()
    for portion in record.portions:
        total.merge(
            cost.phase_breakdown(portion.meter, platform="x86", in_enclave=secure, remote_io=True)
        )
    join = cost.phase_breakdown(record.host_meter, platform="x86", in_enclave=secure)
    total.merge(join)
    return Priced(breakdown=total, host=total.copy(), join=join)


def price_storage_only(cost: CostModel, record: StorageRecord, *, memory: int | None) -> Priced:
    """Price an sos run (or a Table 3 request) on nodes of *memory* bytes."""
    storage = _storage_pricer(cost, memory, record.in_realm)
    if record.whole is not None:
        work = storage(record.whole)
        total = TimeBreakdown().merge(record.monitor).merge(work)
        return Priced(breakdown=total, storage=work.copy())
    times = []
    for portion in record.portions:
        scan = storage(portion.meter)
        times.append(PortionTime(scan, scan.total_ns, scan.total_ns))
    storage_breakdown = _scaled_to(
        storage(record.storage_meter()), max((t.duration_ns for t in times), default=0.0)
    )
    host = cost.phase_breakdown(record.final, platform="x86", in_enclave=True)
    total = TimeBreakdown().merge(record.monitor).merge(storage_breakdown)
    transfer_ns = 0.0
    if record.portions:
        nbytes = sum(p.nbytes for p in record.portions)
        transfer_ns = cost.net_transfer_ns(nbytes, messages=len(record.portions))
        total.add(CAT_NETWORK, transfer_ns)
    total.merge(host)
    return Priced(
        breakdown=total, storage=storage_breakdown, host=host, join=host,
        portions=times, transfer_ns=transfer_ns,
    )
