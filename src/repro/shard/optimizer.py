"""Cost-based adaptive offload optimizer (``ShardedDeployment.run_auto``).

Given a parsed query and the deployment's *statistics* — catalog page/row
counts, per-page zone-map synopses, shard layout — the optimizer builds a
synthetic :class:`~repro.sim.Meter` for every candidate execution
strategy and prices it through the deployment's calibrated
:class:`~repro.sim.CostModel`.  The cheapest candidate wins.  Nothing is
executed during planning: every estimate is derived from metadata the
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

from ..core import (
    decompose_aggregate,
    lpt_makespan_ns,
    pruning_for_scan,
    statement_shape,
)
from ..sim import Meter, PAGE_SIZE

#: Security class each configuration belongs to; ``run_auto`` never crosses.
SECURE_CLASS = ("hos", "scs", "sos")
PLAIN_CLASS = ("hons", "vcs")


@dataclass(frozen=True)
class ScanStats:
    """Zone-map/catalog statistics for one offloaded scan, cluster-wide."""

    table: str
    pages: int
    rows: int
    #: Pages (and the rows they hold) surviving the zone-map probe of the
    #: scan's sargable predicate — equals pages/rows when the scan has no
    #: predicate or a shard lacks covering synopses (fail open).
    matched_pages: int
    matched_rows: int
    #: Estimated wire bytes after filter + projection.
    ship_bytes: int
    filtered: bool
    #: Shards the scan must visit / can skip (shard-level routing).
    fanout: int = 1
    pruned_shards: int = 0


@dataclass
class CandidatePlan:
    """One strategy the optimizer considered, with its predicted cost."""

    config: str
    predicted_ns: float
    detail: dict = field(default_factory=dict)

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
        for cand in self.candidates:
            if cand.config == config:
                return cand
        return None

    @property
    def predicted_ns(self) -> float:
        chosen = self.candidate(self.chosen)
        return chosen.predicted_ns if chosen is not None else 0.0


class OffloadOptimizer:
    """Prices candidate host/storage splits from statistics only.

    The estimator mirrors the deployment runners' cost composition — the
    same :meth:`~repro.sim.CostModel.phase_breakdown` calls with the same
    platform/enclave/remote flags — fed by synthetic meters instead of
    measured ones.  The per-operator row-count coefficients below are
    deliberately coarse (a planner has no execution feedback); they only
    need to rank strategies, not predict absolute times.
    """

    #: Monitor admission-path estimate (policy eval + rewrite + proof +
    #: session issue) charged to the ``scs`` candidate only.
    admission_ns = 1_100_000.0
    #: Fraction of a filtered scan's zone-map-matched rows expected to
    #: survive the exact predicate (rows actually shipped).
    filter_survival = 0.55
    #: Estimated groups produced by a grouped aggregate (per shard).
    group_out_rows = 64

    def __init__(self, deployment):
        self._dep = deployment

    # -- statistics -----------------------------------------------------

    def _stores(self, secure: bool):
        nodes = self._dep.nodes
        return [
            (node.engine if secure else node.engine_plain).db.store
            for node in nodes
        ]

    def scan_stats(self, scans, *, secure: bool, run_config) -> list[ScanStats]:
        """Fold per-shard zone maps into cluster-wide per-scan statistics."""
        dep = self._dep
        stores = self._stores(secure)
        catalog = stores[0].catalog
        payload = (dep.nodes[0].engine if secure else
                   dep.nodes[0].engine_plain).pager.payload_size
        prune_ok = run_config.zone_maps and run_config.oblivious == "off"
        out: list[ScanStats] = []
        for scan in scans:
            predicate = pruning_for_scan(catalog, scan) if prune_ok else None
            schema = catalog.table(scan.table)
            n_cols = max(1, len(schema.column_names))
            col_frac = min(1.0, len(scan.columns) / n_cols)
            replicated = dep.sharding.is_replicated(scan.table)
            pages = rows = matched_pages = matched_rows = 0
            fanout = 0
            pruned_shards = 0
            for store in stores:
                shard_schema = store.catalog.table(scan.table)
                shard_pages = len(shard_schema.pages)
                shard_rows = shard_schema.row_count
                maps = store.zone_maps.get(scan.table)
                covered = maps is not None and maps.covers(shard_schema.pages)
                m_pages, m_rows = shard_pages, shard_rows
                if predicate is not None and covered:
                    m_pages = m_rows = 0
                    for page_no in shard_schema.pages:
                        synopsis = maps.pages[page_no]
                        if predicate.page_may_match(synopsis):
                            m_pages += 1
                            m_rows += synopsis.row_count
                if m_pages:
                    fanout += 1
                else:
                    pruned_shards += 1
                pages += shard_pages
                rows += shard_rows
                matched_pages += m_pages
                matched_rows += m_rows
                if replicated:
                    # Scans read a replicated table from one shard only.
                    break
            avg_row = (pages * payload / rows) if rows else 0.0
            survival = self.filter_survival if scan.where is not None else 1.0
            ship_rows = matched_rows * survival
            out.append(
                ScanStats(
                    table=scan.table,
                    pages=pages,
                    rows=rows,
                    matched_pages=matched_pages,
                    matched_rows=matched_rows,
                    ship_bytes=int(ship_rows * avg_row * col_frac),
                    filtered=scan.where is not None,
                    fanout=max(1, fanout),
                    pruned_shards=pruned_shards,
                )
            )
        return out

    # -- synthetic meters ----------------------------------------------

    def _merkle_depth(self, pages: int) -> int:
        return max(1, math.ceil(math.log2(max(2, pages))))

    def _scan_meter(self, stat: ScanStats, *, crypto: bool) -> Meter:
        """Storage-side work of one filtering scan (one shard's share is
        ``1/fanout`` of this)."""
        m = Meter()
        m.rows_scanned = stat.matched_rows
        if stat.filtered:
            m.predicate_evals = stat.matched_rows
        m.rows_output = int(stat.matched_rows * (
            self.filter_survival if stat.filtered else 1.0
        ))
        m.pages_read = stat.matched_pages
        m.bump("pages_scanned", stat.matched_pages)
        m.bump("pages_skipped", stat.pages - stat.matched_pages)
        if crypto:
            m.pages_decrypted = stat.matched_pages
            m.page_macs_verified = stat.matched_pages
            m.merkle_nodes_hashed = (
                stat.matched_pages * self._merkle_depth(stat.pages)
            )
        return m

    def _host_ops_meter(self, shipped_rows: float, shape: dict) -> Meter:
        """Join/aggregate work over *shipped_rows* already-local rows."""
        m = Meter()
        m.rows_scanned = int(shipped_rows)
        m.predicate_evals = int(shipped_rows)
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

    # -- candidate pricing ---------------------------------------------

    def _price_split(
        self, stats, shape, *, secure: bool, cpus: int, memory: int
    ) -> CandidatePlan:
        dep = self._dep
        cm = dep.cost_model
        shards = dep.shards
        in_realm = secure and dep.armv9_realms
        scan_ns = []
        total_ship_bytes = 0
        for stat in stats:
            meter = self._scan_meter(stat, crypto=secure)
            breakdown = cm.phase_breakdown(
                meter, platform="arm", cores=1,
                memory_limit_bytes=memory, in_realm=in_realm,
            )
            # The scan fans out over the shards that may hold matches and
            # they run concurrently: one shard's share of the duration.
            scan_ns.append(breakdown.total_ns / max(1, min(stat.fanout, shards)))
            total_ship_bytes += stat.ship_bytes
        storage_ns = lpt_makespan_ns(scan_ns, cpus)
        if secure:
            crypt = Meter()
            crypt.channel_bytes_encrypted = total_ship_bytes
            storage_ns += cm.phase_breakdown(
                crypt, platform="arm", cores=1
            ).total_ns / max(1, shards)

        shipped_rows = sum(
            s.matched_rows * (self.filter_survival if s.filtered else 1.0)
            for s in stats
        )
        host = self._host_ops_meter(shipped_rows, shape)
        if secure:
            host.channel_bytes_encrypted = total_ship_bytes
        if shards > 1:
            host.bump("shard_scan_fanout", sum(s.fanout for s in stats))
            host.bump("shards_pruned", sum(s.pruned_shards for s in stats))
        host_ns = cm.phase_breakdown(
            host, platform="x86", in_enclave=secure
        ).total_ns

        transfer = cm.net_transfer_ns(
            total_ship_bytes, messages=max(1, total_ship_bytes // 65536)
        )
        total = storage_ns + max(0.0, transfer - storage_ns) + host_ns
        if secure:
            total += cm.tls_handshake_ns + self.admission_ns
        return CandidatePlan(
            config="scs" if secure else "vcs",
            predicted_ns=total,
            detail={
                "storage_ns": storage_ns,
                "host_ns": host_ns,
                "ship_bytes": total_ship_bytes,
            },
        )

    def _price_host_only(
        self, stats, shape, *, secure: bool
    ) -> CandidatePlan:
        dep = self._dep
        cm = dep.cost_model
        m = Meter()
        total_pages = 0
        total_rows = 0.0
        for stat in stats:
            m.merge(self._scan_meter(stat, crypto=secure))
            total_pages += stat.matched_pages
            total_rows += stat.matched_rows * (
                self.filter_survival if stat.filtered else 1.0
            )
        m.merge(self._host_ops_meter(total_rows, shape))
        if secure:
            m.enclave_transitions += 2 * total_pages
            m.peak_memory_bytes = total_pages * (PAGE_SIZE + 64)
        # The host pulls every page over the network, shard by shard —
        # remote reads do not scale with the shard count.
        breakdown = cm.phase_breakdown(
            m, platform="x86", in_enclave=secure, remote_io=True
        )
        return CandidatePlan(
            config="hos" if secure else "hons",
            predicted_ns=breakdown.total_ns,
            detail={"pages": total_pages},
        )

    def _price_storage_only(
        self, stats, shape, *, split, cpus: int, memory: int
    ) -> CandidatePlan:
        dep = self._dep
        cm = dep.cost_model
        shards = dep.shards
        in_realm = dep.armv9_realms
        per_shard_ns = []
        partial_rows = 0
        for stat in stats:
            meter = self._scan_meter(stat, crypto=True)
            rows = stat.matched_rows * (
                self.filter_survival if stat.filtered else 1.0
            )
            if shape["aggs"]:
                meter.agg_updates = int(rows * max(1, shape["aggs"]))
                meter.hash_inserts = int(rows) if shape["grouped"] else 0
                out_rows = self.group_out_rows if shape["grouped"] else 1
            else:
                out_rows = int(rows)
            meter.rows_output = out_rows
            partial_rows += out_rows * max(1, min(stat.fanout, shards))
            breakdown = cm.phase_breakdown(
                meter, platform="arm", cores=1,
                memory_limit_bytes=memory, in_realm=in_realm,
            )
            per_shard_ns.append(
                breakdown.total_ns / max(1, min(stat.fanout, shards))
            )
        total = lpt_makespan_ns(per_shard_ns, cpus)
        if shards > 1 and split is not None:
            # Partial shipping + host-side final merge.
            partial_bytes = partial_rows * 64
            total += cm.net_transfer_ns(partial_bytes, messages=shards)
            merge = Meter()
            merge.rows_scanned = partial_rows
            merge.agg_updates = partial_rows * max(1, shape["aggs"])
            merge.hash_inserts = partial_rows
            merge.rows_output = (
                self.group_out_rows if shape["grouped"] else 1
            )
            merge.bump("partial_aggs_merged", partial_rows)
            merge.bump("shard_scan_fanout", shards)
            total += cm.phase_breakdown(
                merge, platform="x86", in_enclave=True
            ).total_ns
        return CandidatePlan(
            config="sos",
            predicted_ns=total,
            detail={"partial_rows": partial_rows},
        )

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
        secure = config in SECURE_CLASS
        plan = dep.partitioner.partition(statement)
        stats = self.scan_stats(plan.scans, secure=secure, run_config=run_config)
        shape = statement_shape(statement)
        notes: list[str] = []
        candidates: list[CandidatePlan] = []
        if secure:
            candidates.append(self._price_host_only(stats, shape, secure=True))
            candidates.append(
                self._price_split(stats, shape, secure=True, cpus=cpus, memory=memory)
            )
            split = decompose_aggregate(statement)
            if dep.shards <= 1 or split is not None:
                candidates.append(
                    self._price_storage_only(
                        stats, shape, split=split, cpus=cpus, memory=memory
                    )
                )
            else:
                notes.append(
                    "sos skipped: query is not shard-decomposable "
                    "(partial→final aggregation unavailable)"
                )
        else:
            candidates.append(self._price_host_only(stats, shape, secure=False))
            candidates.append(
                self._price_split(stats, shape, secure=False, cpus=cpus, memory=memory)
            )
        chosen = min(candidates, key=lambda c: c.predicted_ns)
        return PlanChoice(
            chosen=chosen.config,
            candidates=candidates,
            scans=stats,
            notes=notes,
        )
