"""Sharded multi-storage-node deployment with adaptive offload.

A :class:`ShardedDeployment` scales the paper's single storage server out
to N shards.  Every shard is a *full* storage node — its own
vendor-provisioned TrustZone device (own secure boot, own RPMB anchor,
own secure-storage master key, so an entirely separate HKDF key domain
and Merkle root), its own NVMe devices, its own engines, its own
monitor-attested identity.  Tables are hash/range-partitioned across
shards (:mod:`repro.shard.partition`); queries fan filtering scans out to
the shards that can hold matches (:mod:`repro.shard.router` prunes whole
shards from zone-map synopses before any page I/O), ship each shard's
results through its own authenticated channel, and merge on the host —
cross-shard joins and grouped aggregation run host-side exactly as in the
single-node split, and decomposable aggregates run storage-only as
per-shard partials folded by a host-side final (:mod:`repro.core.aggsplit`).

Split execution (vcs/scs) is the base :class:`Deployment`'s one runner,
which iterates the node list; this class only says where a ship goes
(:meth:`_route_ship`) and when a hand-written split cannot be used as
given.  ``shards=1`` holds every row on one node, so nothing needs
decomposing and rows, meters, simulated time and observable traces equal
the single-node testbed's (pinned by ``tests/test_shard.py``).

:meth:`ShardedDeployment.run_auto` engages the cost-based offload
optimizer (:mod:`repro.shard.optimizer`): the host/storage split is chosen
per query from catalog + zone-map statistics priced through the
calibrated cost model, and the decision (with predicted-vs-actual cost)
lands in an ``offload_plan`` telemetry span.
"""

from __future__ import annotations

from ..core import (
    Deployment,
    RunConfig,
    RunResult,
    TableScanSpec,
    decompose_aggregate,
    pruning_for_scan,
)
from ..errors import PartitionError
from ..sim import Meter
from ..sim.pricing import (
    Portion,
    PullRecord,
    StorageRecord,
    price_host_pull,
    price_storage_only,
)
from ..sql.records import encode_row
from ..telemetry import (
    NODE_HOST,
    NODE_NETWORK,
    NODE_STORAGE,
    SPAN_CHANNEL_TRANSFER,
    SPAN_HOST_EXECUTE,
    SPAN_HOST_JOIN_AGG,
    SPAN_NDP_FILTER,
    SPAN_OFFLOAD_PLAN,
    SPAN_SHARD_MERGE,
    SPAN_SHARD_ROUTE,
    SPAN_STORAGE_PHASE,
)
from ..tpch import TPCHGenerator, create_all
from .optimizer import OffloadOptimizer
from .partition import ShardingSpec, default_tpch_sharding
from .router import route_scan


class ShardedDeployment(Deployment):
    """A CSA testbed whose storage side is N trust-isolated shards."""

    def __init__(
        self,
        shards: int = 1,
        sharding: ShardingSpec | None = None,
        *,
        scale_factor: float = 0.005,
        seed: int = 2022,
        workload: str = "tpch",
        **kwargs,
    ):
        self.shards = int(shards)
        if self.shards < 1:
            raise PartitionError(f"need at least one shard, got {shards}")
        if sharding is not None and sharding.shards != self.shards:
            raise PartitionError(
                f"sharding spec covers {sharding.shards} shards, deployment has {self.shards}"
            )
        # One shard is the base deployment verbatim (same rng draw order,
        # same loader); more are loaded below, once every node exists.
        super().__init__(
            scale_factor=scale_factor, seed=seed,
            workload="none" if self.shards > 1 else workload, **kwargs,
        )
        self.sharding = (
            sharding if sharding is not None
            else default_tpch_sharding(self.shards, scale_factor)
        )
        if self.shards > 1:
            # The primary's channel endpoint is named like the extra nodes'.
            self.nodes[0].endpoint = "storage-1"
            self.link.register("storage-1")
            for index in range(1, self.shards):
                self.nodes.append(self.add_storage_node(f"storage-{index + 1}"))
            if workload == "tpch":
                self.row_counts = self._load_sharded_tpch(scale_factor, seed)
        self.optimizer = OffloadOptimizer(self)

    # ------------------------------------------------------------------
    # Data loading
    # ------------------------------------------------------------------

    def _load_sharded_tpch(self, scale_factor: float, seed: int) -> dict[str, int]:
        """Generate TPC-H once, partition it, load every shard's slice."""
        generator = TPCHGenerator(scale_factor, seed)
        tables = generator.generate_all()
        for node in self.nodes:
            create_all(node.engine.db)
            create_all(node.engine_plain.db)
        counts: dict[str, int] = {}
        batch = 2000
        for table, rows in tables.items():
            counts[table] = len(rows)
            for node, shard_rows in zip(self.nodes, self.sharding.shard_rows(table, rows)):
                for db in (node.engine.db, node.engine_plain.db):
                    for start in range(0, len(shard_rows), batch):
                        db.store.insert_rows(table, shard_rows[start : start + batch])
        for node in self.nodes:
            node.engine.db.commit()
            node.engine_plain.db.commit()
        return counts

    # ------------------------------------------------------------------
    # Adaptive offload
    # ------------------------------------------------------------------

    def run_auto(
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
        """:meth:`run_query`, under whichever configuration of *config*'s
        security class the offload optimizer predicts to be cheapest.

        The run itself is exactly ``run_query(sql, chosen, ...)`` — same
        rows, meters and simulated nanoseconds; what this adds is the
        ``offload_plan`` span, the plan notes and the
        ``optimizer_plans_considered`` counter.
        """
        statement, cpus, memory, run_config = self._query_inputs(
            sql, config, storage_cpus, storage_memory_bytes, run_config
        )
        choice = self.optimizer.choose(
            statement, config, run_config, cpus=cpus, memory=memory
        )
        with self.tracer.span(
            SPAN_OFFLOAD_PLAN,
            node=NODE_HOST,
            requested=config,
            chosen=choice.chosen,
            considered=choice.considered,
        ) as plan_span:
            # Planning reads statistics the host already holds: it never
            # touches a page, so it charges no simulated time.
            plan_span.set_sim_ns(0.0)
            plan_span.set_attrs(
                **{
                    f"predicted_{cand.config}_ms": round(cand.predicted_ms, 6)
                    for cand in choice.candidates
                }
            )
        result = self.run_query(
            sql, choice.chosen,
            storage_cpus=storage_cpus,
            storage_memory_bytes=storage_memory_bytes,
            manual_partition=(
                manual_partition if choice.chosen in ("scs", "vcs") else None
            ),
            authorization=authorization if choice.chosen == "scs" else None,
            run_config=run_config,
        )
        # Stamp predicted-vs-actual into the decision span (the span is
        # already closed; attribute updates are free) and the run result.
        plan_span.set_attrs(
            predicted_ms=round(choice.predicted_ns / 1e6, 6),
            actual_ms=round(result.total_ms, 6),
        )
        result.plan_notes.insert(
            0,
            f"optimizer chose {choice.chosen} for requested {config} "
            f"(predicted {choice.predicted_ns / 1e6:.3f} ms, "
            f"actual {result.total_ms:.3f} ms, "
            f"{choice.considered} candidates considered)",
        )
        result.plan_notes.extend(choice.notes)
        # Counter lands after pricing, so an auto run's simulated time is
        # exactly the chosen manual run's; the registry still absorbs it.
        result.host_meter.bump("optimizer_plans_considered", choice.considered)
        metrics = getattr(self.tracer, "metrics", None)
        if metrics is not None:
            extra = Meter()
            extra.bump("optimizer_plans_considered", choice.considered)
            metrics.absorb_meter(extra, node=NODE_HOST, phase=choice.chosen)
        return result

    # ------------------------------------------------------------------
    # What is shard-specific about split execution (vcs / scs)
    # ------------------------------------------------------------------

    def _usable_manual(self, manual):
        """A hand-written split is only exact per shard when the layout
        co-partitions what it joins or groups; otherwise plan automatically."""
        if manual is None or self.sharding.co_partitioned(manual.requires):
            return manual, []
        return None, [
            "manual split needs co-partitioning on "
            f"{list(manual.requires)} which this layout lacks; "
            "falling back to the automatic partitioner"
        ]

    # -- shard routing ---------------------------------------------------

    def _route_ship(self, ship, manual, run_config, stores):
        """Shards one ship must visit, and how many zone maps pruned.

        Routing consults zone maps only when the run allows data-dependent
        page skipping (``zone_maps`` on, ``oblivious`` off): the oblivious
        tiers keep every shard's trace predicate-independent, so scans
        then fan out to all shards unconditionally.  Replicated tables are
        read from shard 0 only — that choice depends on the schema, never
        on the data.
        """
        catalog = stores[0].catalog
        if manual is not None:
            tables = self.partitioner.tables_referenced(self.parse_select(ship.sql))
            if tables and all(self.sharding.is_replicated(t) for t in tables):
                return [0], 0
            return list(range(self.shards)), 0
        prune_ok = run_config.zone_maps and run_config.oblivious == "off"
        if self.sharding.is_replicated(ship.table):
            if not prune_ok:
                return [0], 0
            return route_scan(stores[:1], ship.table, pruning_for_scan(catalog, ship))
        if not prune_ok:
            return list(range(self.shards)), 0
        return route_scan(stores, ship.table, pruning_for_scan(catalog, ship))

    # -- storage-only (sos): per-shard partials, host-side final ----------

    def _run_storage_only(self, statement, cpus, memory, run_config) -> RunResult:
        if len(self.nodes) == 1:
            # One node holds every row: the whole query runs there.
            return super()._run_storage_only(statement, cpus, memory, run_config)
        split = decompose_aggregate(statement)
        if split is None:
            raise PartitionError(
                "storage-only on a sharded deployment needs a shard-decomposable "
                "query (single-table partial→final aggregation); run this query "
                "under scs, or on a single-shard deployment"
            )

        stores = [node.engine.db.store for node in self.nodes]
        catalog = stores[0].catalog
        schema = catalog.table(split.base_table)
        # A replicated base table lives whole on every shard: the partial
        # must run on exactly one copy or aggregates would multiply.
        if self.sharding.is_replicated(split.base_table):
            stores = stores[:1]
        prune_ok = run_config.zone_maps and run_config.oblivious == "off"
        if prune_ok:
            scan = TableScanSpec(
                table=split.base_table,
                columns=list(schema.column_names),
                where=split.partial.where,
            )
            targets, pruned = route_scan(
                stores, split.base_table, pruning_for_scan(catalog, scan)
            )
        else:
            targets, pruned = list(range(len(stores))), 0

        host_meter = self.host_engine.fresh_meter()
        host_meter.bump("shard_scan_fanout", len(targets))
        host_meter.bump("shards_pruned", pruned)

        portions: list[Portion] = []
        portion_spans = []
        partial_rows: list[tuple] = []
        partial_columns: list[str] | None = None
        with self.tracer.span(
            SPAN_STORAGE_PHASE, node=NODE_STORAGE, enclave=self.armv9_realms,
            portions=len(targets), shards=self.shards,
        ) as phase_span:
            self.tracer.event(
                SPAN_SHARD_ROUTE, node=NODE_STORAGE, table=split.base_table,
                fanout=len(targets), pruned=pruned,
            )
            for target in targets:
                node = self.nodes[target]
                meter = node.engine.fresh_meter()
                with self.tracer.span(
                    SPAN_NDP_FILTER, node=NODE_STORAGE,
                    enclave=self.armv9_realms,
                    table=split.base_table, shard=node.node_id,
                ) as portion_span:
                    with self._attributed(node.node_id):
                        result = node.engine.execute_full(split.partial, run_config)
                portions.append(
                    Portion(
                        node=target, meter=meter,
                        nbytes=sum(len(encode_row(r)) for r in result.rows),
                    )
                )
                portion_spans.append(portion_span)
                partial_columns = result.columns
                partial_rows.extend(result.rows)
                portion_span.set_attrs(rows=len(result.rows))

        # Host-side final: fold the shipped partials inside the enclave.
        host_meter.bump("partial_aggs_merged", len(partial_rows))
        self.host_engine.begin_session(run_config)
        try:
            with self.tracer.span(
                SPAN_SHARD_MERGE, node=NODE_HOST, enclave=True,
                partials=len(partial_rows), shards=len(targets),
            ) as merge_span:
                columns = (
                    partial_columns if partial_columns is not None
                    else split.partial_columns
                )
                column_types = self._infer_column_types(columns, partial_rows)
                self.host_engine.receive_table(
                    split.partial_table, column_types, partial_rows
                )
                result = self.host_engine.run(split.final)
        finally:
            self.host_engine.end_session()

        record = StorageRecord(
            in_realm=self.armv9_realms, portions=portions, final=host_meter
        )
        priced = price_storage_only(self.cost_model, record, memory=memory)
        for portion_span, slot in zip(portion_spans, priced.portions):
            portion_span.set_sim_ns(slot.duration_ns)
        phase_span.set_sim_ns(priced.storage.total_ns)
        phase_span.set_attrs(
            partial_rows=len(partial_rows), cpus=cpus, shards=self.shards
        )
        merge_span.set_sim_ns(priced.host.total_ns)
        merge_span.set_attrs(rows=len(result.rows))
        partial_bytes = sum(p.nbytes for p in portions)
        if targets:
            # Partials only exist once the scans finish: their transfer
            # cannot overlap the storage phase.
            self._priced_event(
                SPAN_CHANNEL_TRANSFER, priced.transfer_ns, node=NODE_NETWORK,
                bytes=partial_bytes,
            )
        return RunResult(
            config="sos",
            columns=result.columns,
            rows=result.rows,
            breakdown=priced.breakdown,
            storage_breakdown=priced.storage,
            host_breakdown=priced.host,
            storage_meter=record.storage_meter(),
            host_meter=host_meter,
            bytes_shipped=partial_bytes,
            plan_notes=[
                f"partial→final aggregation over {split.base_table}: "
                f"{len(targets)}/{self.shards} shards scanned, "
                f"{len(partial_rows)} partial rows merged host-side"
            ],
            record=record,
        )

    # -- host-only (hons / hos): the host pulls pages from every shard ----

    def _run_host_only(self, statement, secure, run_config) -> RunResult:
        if len(self.nodes) == 1:
            # One node holds every row: the host opens its device directly.
            return super()._run_host_only(statement, secure, run_config)
        plan = self.partitioner.partition(statement)
        host_meter = self.host_engine.fresh_meter()
        portions: list[Portion] = []
        self.host_engine.begin_session(run_config)
        try:
            with self.tracer.span(
                SPAN_HOST_EXECUTE, node=NODE_HOST, enclave=secure, shards=self.shards
            ) as exec_span:
                for index, node in enumerate(self.nodes):
                    db, pager, meter = self._host_only_db(
                        secure, node, rng_label=f"host-pager-{node.node_id}"
                    )
                    if secure:
                        pager.on_violation = self._node_violation(node.node_id)
                    for scan in plan.scans:
                        if index > 0 and self.sharding.is_replicated(scan.table):
                            continue
                        with self._attributed(node.node_id):
                            fetched = db.execute_statement(
                                scan.to_select(), options=run_config
                            )
                        self.host_engine.receive_table(
                            scan.table,
                            self._scan_column_types(node.engine, scan),
                            fetched.rows,
                        )
                    if secure:
                        self._charge_enclave_paging(meter, pager)
                    # The host is one machine pulling remote pages shard after
                    # shard: the fetches serialize (this is exactly why the
                    # optimizer steers large scans away from host-only).
                    portions.append(Portion(node=index, meter=meter))
                with self.tracer.span(
                    SPAN_HOST_JOIN_AGG, node=NODE_HOST, enclave=secure
                ) as host_span:
                    result = self.host_engine.run(statement)
        finally:
            self.host_engine.end_session()
        record = PullRecord(secure=secure, host_meter=host_meter, portions=portions)
        priced = price_host_pull(self.cost_model, record)
        host_span.set_sim_ns(priced.join.total_ns)
        host_span.set_attrs(rows=len(result.rows))
        exec_span.set_sim_ns(priced.breakdown.total_ns)
        exec_span.set_attrs(
            rows=len(result.rows),
            pages_read=sum(p.meter.pages_read for p in portions),
        )
        merged = host_meter.copy()
        for portion in portions:
            merged.merge(portion.meter)
        return RunResult(
            config="hos" if secure else "hons",
            columns=result.columns,
            rows=result.rows,
            breakdown=priced.breakdown,
            host_breakdown=priced.host,
            host_meter=merged,
            record=record,
            plan_notes=[
                f"host-side pull of {len(plan.scans)} filtered table scans "
                f"from {self.shards} shards (serialized on the host)"
            ],
        )
