"""Cost-based adaptive offload optimizer (``ShardedDeployment.run_auto``).

Given a parsed query and the deployment's *statistics* — catalog page/row
counts, per-page zone-map synopses, shard layout — the optimizer predicts
the counts each candidate execution strategy would record (per-scan
storage meters, ship bytes, host join/aggregate meters) and prices the
predicted record through the same function the runner prices a real run
with (:mod:`repro.sim.pricing`).  The cheapest candidate wins.  Nothing
is executed during planning: every estimate is derived from metadata the
host already holds, so the decision itself costs (simulated) nothing and
reads no pages.

Candidates are confined to the requested *security class*: a query
submitted under a secure configuration (``hos`` / ``scs`` / ``sos``)
only considers secure strategies, and a plaintext one (``hons`` /
``vcs``) only plaintext strategies — the optimizer picks *where* work
runs, never *whether* data is protected.  ``sos`` additionally requires
the query to be shard-decomposable (partial→final aggregation) when the
deployment has more than one shard.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import math

from ..core import decompose_aggregate, pruning_for_scan, statement_shape
from ..core.host_engine import RECORD_ROWS
from ..sim.pricing import (
    Portion,
    PullRecord,
    SplitRecord,
    StorageRecord,
    price_host_pull,
    price_split,
    price_storage_only,
)
from ..sim import CAT_POLICY, Meter, PAGE_SIZE, TimeBreakdown
from ..stream import DEFAULT_BATCH_BYTES

#: Security class each configuration belongs to; ``run_auto`` never crosses.
SECURE_CLASS = ("hos", "scs", "sos")
PLAIN_CLASS = ("hons", "vcs")


@dataclass(frozen=True)
class ShardShare:
    """One shard's part of a scan: what it holds and what survives pruning."""

    node: int
    pages: int
    matched_pages: int
    matched_rows: int


@dataclass(frozen=True)
class ScanStats:
    """Zone-map/catalog statistics for one offloaded scan, cluster-wide."""

    table: str
    pages: int
    rows: int
    #: Estimated wire bytes after filter + projection.
    ship_bytes: int
    filtered: bool
    #: Columns the scan projects (and ships).
    columns: int
    #: The shards the scan visits, in node order, and how many it can skip
    #: (shard-level routing).
    shares: tuple[ShardShare, ...]
    pruned_shards: int = 0

    @property
    def fanout(self) -> int:
        return len(self.shares)

    @property
    def matched_rows(self) -> int:
        """Rows on pages surviving the zone-map probe of the scan's sargable
        predicate: all of them when the scan has no predicate or a shard
        lacks covering synopses (fail open)."""
        return sum(share.matched_rows for share in self.shares)


@dataclass
class CandidatePlan:
    """One strategy the optimizer considered, with its predicted breakdown."""

    config: str
    breakdown: TimeBreakdown

    @property
    def predicted_ns(self) -> float:
        return self.breakdown.total_ns

    @property
    def predicted_ms(self) -> float:
        return self.predicted_ns / 1e6


@dataclass
class PlanChoice:
    """The optimizer's decision for one query."""

    chosen: str
    candidates: list[CandidatePlan]
    scans: list[ScanStats]
    notes: list[str] = field(default_factory=list)

    @property
    def considered(self) -> int:
        return len(self.candidates)

    def candidate(self, config: str) -> CandidatePlan | None:
        return next((c for c in self.candidates if c.config == config), None)

    @property
    def predicted_ns(self) -> float:
        chosen = self.candidate(self.chosen)
        return chosen.predicted_ns if chosen is not None else 0.0


class OffloadOptimizer:
    """Predicts each candidate cut's counts from statistics only.

    The predicted records go through the runners' own pricing functions,
    so a candidate's cost composes exactly as a real run's does; only the
    counts are estimates.  The per-operator row-count coefficients below
    are deliberately coarse (a planner has no execution feedback); they
    only need to rank strategies, not predict absolute times.
    """

    #: Monitor admission-path estimate (policy eval + rewrite + proof +
    #: session issue) charged to the ``scs`` candidate only.
    admission_ns = 1_100_000.0
    #: Fraction of a filtered scan's zone-map-matched rows expected to
    #: survive the exact predicate (rows actually shipped): the mean over
    #: the 26 filtered scans of the 17 TPC-H queries the optimizer is
    #: measured on (SF 0.002, seed 2022; their median is 0.18).
    filter_survival = 0.25
    #: Estimated groups produced by a grouped aggregate (per shard).
    group_out_rows = 64
    #: Estimated wire bytes of one shipped partial-aggregate row.
    partial_row_bytes = 64

    def __init__(self, deployment):
        self._dep = deployment

    # -- statistics -----------------------------------------------------

    def scan_stats(self, scans, *, secure: bool, run_config) -> list[ScanStats]:
        """Fold per-shard zone maps into cluster-wide per-scan statistics."""
        dep = self._dep
        engines = [node.engine if secure else node.engine_plain for node in dep.nodes]
        stores = [engine.db.store for engine in engines]
        catalog = stores[0].catalog
        payload = engines[0].pager.payload_size
        prune_ok = run_config.zone_maps and run_config.oblivious == "off"
        out: list[ScanStats] = []
        for scan in scans:
            predicate = pruning_for_scan(catalog, scan) if prune_ok else None
            schema = catalog.table(scan.table)
            n_cols = max(1, len(schema.column_names))
            col_frac = min(1.0, len(scan.columns) / n_cols)
            replicated = dep.sharding.is_replicated(scan.table)
            pages = rows = pruned_shards = 0
            shares: list[ShardShare] = []
            for node, store in enumerate(stores):
                shard_schema = store.catalog.table(scan.table)
                shard_pages = len(shard_schema.pages)
                shard_rows = shard_schema.row_count
                maps = store.zone_maps.get(scan.table)
                covered = maps is not None and maps.covers(shard_schema.pages)
                m_pages, m_rows = shard_pages, shard_rows
                if predicate is not None and covered:
                    kept = [maps.pages[n] for n in shard_schema.pages]
                    kept = [page for page in kept if predicate.page_may_match(page)]
                    m_pages, m_rows = len(kept), sum(page.row_count for page in kept)
                if m_pages:
                    shares.append(ShardShare(node, shard_pages, m_pages, m_rows))
                else:
                    pruned_shards += 1
                pages += shard_pages
                rows += shard_rows
                if replicated:
                    # Scans read a replicated table from one shard only.
                    break
            if not shares:
                # Every shard proved the scan empty: price one empty visit.
                shares.append(ShardShare(0, 0, 0, 0))
            avg_row = (pages * payload / rows) if rows else 0.0
            survival = self.filter_survival if scan.where is not None else 1.0
            ship_rows = sum(share.matched_rows for share in shares) * survival
            out.append(
                ScanStats(
                    table=scan.table,
                    pages=pages,
                    rows=rows,
                    ship_bytes=int(ship_rows * avg_row * col_frac),
                    filtered=scan.where is not None,
                    columns=len(scan.columns),
                    shares=tuple(shares),
                    pruned_shards=pruned_shards,
                )
            )
        return out

    # -- predicted counts ------------------------------------------------

    def _survival(self, stat: ScanStats) -> float:
        return self.filter_survival if stat.filtered else 1.0

    def _scan_meter(self, stat: ScanStats, share: ShardShare, *, crypto: bool) -> Meter:
        """Storage-side work of one shard's part of a filtering scan that
        outputs its projected rows."""
        m = Meter()
        m.rows_scanned = share.matched_rows
        if stat.filtered:
            m.predicate_evals = share.matched_rows
        m.rows_output = int(share.matched_rows * self._survival(stat))
        m.expr_ops = m.rows_output * stat.columns
        m.pages_read = share.matched_pages
        m.bump("pages_scanned", share.matched_pages)
        m.bump("pages_skipped", share.pages - share.matched_pages)
        if crypto:
            m.pages_decrypted = share.matched_pages
            m.page_macs_verified = share.matched_pages
            depth = max(1, math.ceil(math.log2(max(2, stat.pages))))
            m.merkle_nodes_hashed = share.matched_pages * depth
        return m

    def _share_bytes(self, stat: ScanStats, share: ShardShare) -> int:
        matched = stat.matched_rows
        return int(stat.ship_bytes * share.matched_rows / matched) if matched else 0

    def _shipped_rows(self, stats) -> float:
        return sum(s.matched_rows * self._survival(s) for s in stats)

    def _host_ops_meter(self, shipped_rows: float, shape: dict) -> Meter:
        """Join/aggregate work over *shipped_rows* already-local rows."""
        m = Meter()
        m.rows_scanned = int(shipped_rows)
        m.predicate_evals = int(shipped_rows)
        if shape["joins"]:
            m.hash_inserts = int(shipped_rows)
        m.join_probes = int(shipped_rows * shape["joins"])
        if shape["aggs"]:
            m.agg_updates = int(shipped_rows * shape["aggs"])
            m.rows_output = self.group_out_rows if shape["grouped"] else 1
        else:
            m.rows_output = int(shipped_rows * self.filter_survival)
        if shape["ordered"]:
            m.sort_ops = m.rows_output
        return m

    # -- predicted records, one per cut -----------------------------------

    def _split_record(self, stats, shape, *, secure: bool, run_config) -> SplitRecord:
        """vcs/scs: every visited shard scans its part and ships it."""
        dep = self._dep
        pipelined = run_config.pipeline
        ship_meters = [Meter() for _ in dep.nodes]
        host = self._host_ops_meter(self._shipped_rows(stats), shape)
        portions: list[Portion] = []
        for stat in stats:
            for share in stat.shares:
                nbytes = self._share_bytes(stat, share)
                rows = int(share.matched_rows * self._survival(stat))
                batches = max(1, math.ceil(nbytes / DEFAULT_BATCH_BYTES))
                channel = Meter()
                if secure:
                    channel.channel_bytes_encrypted = nbytes
                    ship_meters[share.node].merge(channel)
                # One enclave entry per shipped batch, or per record of
                # RECORD_ROWS rows.
                ingest = channel.copy()
                ingest.enclave_transitions = 2 * (
                    batches if pipelined else max(1, math.ceil(rows / RECORD_ROWS))
                )
                host.merge(ingest)
                portions.append(
                    Portion(
                        node=share.node,
                        meter=self._scan_meter(stat, share, crypto=secure),
                        ship=channel,
                        ingest=ingest,
                        row_weights=[rows // batches] * batches if pipelined else [],
                        byte_weights=[nbytes // batches] * batches if pipelined else [],
                        nbytes=nbytes,
                    )
                )
        if dep.shards > 1:
            host.bump("shard_scan_fanout", sum(s.fanout for s in stats))
            host.bump("shards_pruned", sum(s.pruned_shards for s in stats))
        monitor = TimeBreakdown()
        if secure:
            monitor.add(CAT_POLICY, self.admission_ns)
        return SplitRecord(
            secure=secure, in_realm=secure and dep.armv9_realms,
            pipelined=pipelined, portions=portions, ship_meters=ship_meters,
            host_meter=host, monitor=monitor,
        )

    def _pull_record(self, stats, shape, *, secure: bool) -> PullRecord:
        """hons/hos: the host pulls every visited shard's pages itself."""
        pulls: dict[int, Meter] = {}
        for stat in stats:
            for share in stat.shares:
                pull = pulls.setdefault(share.node, Meter())
                pull.merge(self._scan_meter(stat, share, crypto=secure))
        if secure:
            for pull in pulls.values():
                pull.enclave_transitions += 2 * pull.pages_read
                pull.peak_memory_bytes = pull.pages_read * (PAGE_SIZE + 64)
        host = self._host_ops_meter(self._shipped_rows(stats), shape)
        if self._dep.shards <= 1:
            # One node: the host runs the whole statement over its device.
            for pull in pulls.values():
                host.merge(pull)
            return PullRecord(secure=secure, host_meter=host)
        portions = [Portion(node=node, meter=pull) for node, pull in sorted(pulls.items())]
        return PullRecord(secure=secure, host_meter=host, portions=portions)

    def _storage_record(self, stats, shape) -> StorageRecord:
        """sos: the whole query near the data, or per-shard partials."""
        in_realm = self._dep.armv9_realms
        if self._dep.shards <= 1:
            # The scans feed the joins and aggregates directly: unlike a
            # host that ingested them, nothing re-reads the filtered rows,
            # and only the query's own result is output.
            ops = self._host_ops_meter(self._shipped_rows(stats), shape)
            whole = Meter()
            for stat in stats:
                for share in stat.shares:
                    whole.merge(self._scan_meter(stat, share, crypto=True))
            ops.rows_scanned = ops.predicate_evals = 0
            whole.rows_output = 0
            return StorageRecord(in_realm=in_realm, whole=whole.merge(ops))
        out_rows = self.group_out_rows if shape["grouped"] else 1
        portions: list[Portion] = []
        for stat in stats:
            for share in stat.shares:
                meter = self._scan_meter(stat, share, crypto=True)
                rows = share.matched_rows * self._survival(stat)
                if shape["aggs"]:
                    meter.agg_updates = int(rows * shape["aggs"])
                    meter.rows_output = out_rows
                portions.append(
                    Portion(
                        node=share.node, meter=meter,
                        nbytes=meter.rows_output * self.partial_row_bytes,
                    )
                )
        partial_rows = sum(p.meter.rows_output for p in portions)
        final = Meter()
        final.rows_scanned = partial_rows
        final.agg_updates = partial_rows * max(1, shape["aggs"])
        final.rows_output = out_rows
        final.bump("partial_aggs_merged", partial_rows)
        final.bump("shard_scan_fanout", sum(s.fanout for s in stats))
        final.bump("shards_pruned", sum(s.pruned_shards for s in stats))
        return StorageRecord(in_realm=in_realm, portions=portions, final=final)

    # -- the decision ---------------------------------------------------

    def choose(
        self,
        statement,
        config: str,
        run_config,
        *,
        cpus: int,
        memory: int,
    ) -> PlanChoice:
        dep = self._dep
        cost = dep.cost_model
        secure = config in SECURE_CLASS
        plan = dep.partitioner.partition(statement)
        stats = self.scan_stats(plan.scans, secure=secure, run_config=run_config)
        shape = statement_shape(statement)
        notes: list[str] = []
        priced = {
            "hos" if secure else "hons": price_host_pull(
                cost, self._pull_record(stats, shape, secure=secure)
            ),
            "scs" if secure else "vcs": price_split(
                cost,
                self._split_record(stats, shape, secure=secure, run_config=run_config),
                cpus=cpus, memory=memory,
            ),
        }
        if secure:
            if dep.shards <= 1 or decompose_aggregate(statement) is not None:
                priced["sos"] = price_storage_only(
                    cost, self._storage_record(stats, shape), memory=memory
                )
            else:
                notes.append(
                    "sos skipped: query is not shard-decomposable "
                    "(partial→final aggregation unavailable)"
                )
        candidates = [CandidatePlan(name, p.breakdown) for name, p in priced.items()]
        chosen = min(candidates, key=lambda c: c.predicted_ns)
        return PlanChoice(
            chosen=chosen.config,
            candidates=candidates,
            scans=stats,
            notes=notes,
        )
