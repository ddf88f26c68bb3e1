"""Physical operators (iterator model) with resource metering.

Every operator reports its output :class:`Scope` and yields positional row
tuples.  Work counters go to the shared :class:`ExecContext` meter; the
materializing operators (hash join builds, sorts, aggregation tables) also
track allocated bytes so the cost model can reason about working sets
(EPC paging on the host, memory limits on the storage server).
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from ..errors import ExecutionError
from ..oblivious import oblivious_group_runs, oblivious_join
from ..sim import Meter
from .expressions import RowFn, Scope
from .values import estimate_row_bytes, is_true


class ExecContext:
    """Per-query execution state shared by all operators."""

    def __init__(
        self,
        meter: Meter | None = None,
        *,
        oblivious: bool = False,
        vectorized: bool = False,
        prune_scans: bool = False,
        pad_scans: bool = False,
        tracer=None,
    ):
        self.meter = meter if meter is not None else Meter()
        self._alloc_bytes = 0
        self.lookup_maps: list[dict] = []
        #: Full oblivious tier: joins and group-bys run the bitonic
        #: shuffle-based variants (``repro.oblivious.shuffle``) instead
        #: of their hash forms, so comparison schedules depend only on
        #: input cardinalities, never on the data.
        self.oblivious = oblivious
        #: Batch-at-a-time execution: the planner prefers the morsel
        #: operators of ``repro.sql.vexec`` wherever the expression set
        #: allows, falling back per operator otherwise.  Off keeps the
        #: seed row path bit for bit.
        self.vectorized = vectorized
        #: Zone-map skip-scans: the planner lowers sargable pushed-down
        #: filters into a pruning predicate on scans of stores that keep
        #: synopses.  Off reads every page (the seed scan path).
        self.prune_scans = prune_scans
        #: Padded (oblivious) scans: a pruned scan still *fetches* every
        #: page through the full read → MAC → Merkle → decrypt pipeline,
        #: so the device-visible schedule is predicate-independent.
        self.pad_scans = pad_scans
        #: Optional query tracer (duck-typed; see ``repro.telemetry``)
        #: the vectorized operators emit per-batch events to.
        self.tracer = tracer

    def allocate(self, nbytes: int) -> None:
        self._alloc_bytes += nbytes
        self.meter.note_memory(self._alloc_bytes)

    def release(self, nbytes: int) -> None:
        self._alloc_bytes = max(0, self._alloc_bytes - nbytes)

    @property
    def allocated_bytes(self) -> int:
        return self._alloc_bytes


class Operator:
    """Base physical operator."""

    def __init__(self, ctx: ExecContext, scope: Scope):
        self.ctx = ctx
        self.scope = scope

    def rows(self) -> Iterator[tuple]:  # pragma: no cover - abstract
        raise NotImplementedError


class SeqScan(Operator):
    """Full scan of a stored table under a binding name."""

    def __init__(self, ctx: ExecContext, store, table_name: str, binding: str):
        schema = store.catalog.table(table_name)
        scope = Scope([(binding, name) for name in schema.column_names])
        super().__init__(ctx, scope)
        self.store = store
        self.table_name = table_name
        # Optional zone-map pruning predicate the planner attaches when the
        # query runs with skip-scans on; None keeps the seed scan path.
        self.pruning = None

    def rows(self) -> Iterator[tuple]:
        meter = self.ctx.meter
        if self.pruning is not None:
            source = self.store.scan(
                self.table_name, pruning=self.pruning, pad=self.ctx.pad_scans
            )
        else:
            source = self.store.scan(self.table_name)
        for row in source:
            meter.rows_scanned += 1
            yield row


class RowsSource(Operator):
    """Pre-materialized rows (derived tables, decorrelated inner sides)."""

    def __init__(self, ctx: ExecContext, rows: list[tuple], scope: Scope):
        super().__init__(ctx, scope)
        self._rows = rows

    def rows(self) -> Iterator[tuple]:
        return iter(self._rows)


class Filter(Operator):
    def __init__(self, ctx: ExecContext, child: Operator, predicate: RowFn):
        super().__init__(ctx, child.scope)
        self.child = child
        self.predicate = predicate

    def rows(self) -> Iterator[tuple]:
        meter = self.ctx.meter
        predicate = self.predicate
        for row in self.child.rows():
            meter.predicate_evals += 1
            if is_true(predicate(row)):
                yield row


class Project(Operator):
    def __init__(self, ctx: ExecContext, child: Operator, fns: list[RowFn], scope: Scope):
        super().__init__(ctx, scope)
        self.child = child
        self.fns = fns

    def rows(self) -> Iterator[tuple]:
        meter = self.ctx.meter
        fns = self.fns
        nfns = len(fns)
        for row in self.child.rows():
            meter.expr_ops += nfns
            yield tuple(fn(row) for fn in fns)


def _pad(width: int) -> tuple:
    return (None,) * width


class HashJoin(Operator):
    """Equi hash join; build on the right input, probe with the left.

    ``residual`` (if given) is evaluated over the concatenated row and must
    be TRUE for a match.  ``kind`` is 'inner' or 'left' (left outer).
    """

    def __init__(
        self,
        ctx: ExecContext,
        left: Operator,
        right: Operator,
        left_keys: list[RowFn],
        right_keys: list[RowFn],
        kind: str = "inner",
        residual: RowFn | None = None,
    ):
        if kind not in ("inner", "left"):
            raise ExecutionError(f"unsupported join kind {kind!r}")
        super().__init__(ctx, left.scope.merged_with(right.scope))
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.kind = kind
        self.residual = residual

    def _build(self) -> tuple[dict, int]:
        table: dict = {}
        meter = self.ctx.meter
        nbytes = 0
        for row in self.right.rows():
            key = tuple(fn(row) for fn in self.right_keys)
            if any(k is None for k in key):
                continue  # NULL keys never match in an equi join
            table.setdefault(key, []).append(row)
            meter.hash_inserts += 1
            # In-memory hash tables cost ~3x the serialized row size
            # (tuple + dict-entry + key overheads).
            nbytes += 3 * estimate_row_bytes(row) + 64
        self.ctx.allocate(nbytes)
        return table, nbytes

    def rows(self) -> Iterator[tuple]:
        if self.ctx.oblivious:
            yield from self._oblivious_rows()
            return
        table, nbytes = self._build()
        meter = self.ctx.meter
        right_width = len(self.right.scope)
        pad = _pad(right_width)
        try:
            for row in self.left.rows():
                meter.join_probes += 1
                key = tuple(fn(row) for fn in self.left_keys)
                matched = False
                if not any(k is None for k in key):
                    for right_row in table.get(key, ()):
                        combined = row + right_row
                        if self.residual is not None and not is_true(self.residual(combined)):
                            continue
                        matched = True
                        yield combined
                if not matched and self.kind == "left":
                    yield row + pad
        finally:
            self.ctx.release(nbytes)

    def _oblivious_rows(self) -> Iterator[tuple]:
        """Full-tier variant: bitonic sort-merge join (repro.oblivious).

        Same semantics as the hash path — NULL keys never match, left
        joins pad, the residual filters combined rows — but both inputs
        run through the oblivious sort network, so the comparison
        schedule is a function of the input cardinalities alone.  Output
        arrives in left-key order instead of left arrival order.
        """
        left_rows = list(self.left.rows())
        right_rows = list(self.right.rows())
        nbytes = sum(estimate_row_bytes(r) for r in left_rows) + sum(
            estimate_row_bytes(r) for r in right_rows
        )
        self.ctx.allocate(nbytes)
        residual = self.residual

        def accept(combined: tuple) -> bool:
            return residual is None or is_true(residual(combined))

        try:
            yield from oblivious_join(
                left_rows,
                right_rows,
                lambda row: tuple(fn(row) for fn in self.left_keys),
                lambda row: tuple(fn(row) for fn in self.right_keys),
                kind=self.kind,
                accept=accept,
                pad_width=len(self.right.scope),
                meter=self.ctx.meter,
            )
        finally:
            self.ctx.release(nbytes)


class HashSemiJoin(Operator):
    """EXISTS / NOT EXISTS / IN-subquery decorrelated to a (anti) semi join.

    Output schema is the left schema.  ``anti=True`` yields rows with *no*
    match (NOT EXISTS).  ``null_aware`` implements NOT IN semantics: if the
    right side contained a NULL key, no left row qualifies.
    """

    def __init__(
        self,
        ctx: ExecContext,
        left: Operator,
        right: Operator,
        left_keys: list[RowFn],
        right_keys: list[RowFn],
        anti: bool = False,
        residual: RowFn | None = None,
        null_aware: bool = False,
    ):
        super().__init__(ctx, left.scope)
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.anti = anti
        self.residual = residual
        self.null_aware = null_aware

    def rows(self) -> Iterator[tuple]:
        meter = self.ctx.meter
        table: dict = {}
        nbytes = 0
        right_has_null = False
        keep_rows = self.residual is not None
        for row in self.right.rows():
            key = tuple(fn(row) for fn in self.right_keys)
            if any(k is None for k in key):
                right_has_null = True
                continue
            if keep_rows:
                table.setdefault(key, []).append(row)
                nbytes += estimate_row_bytes(row) + 16
            else:
                if key not in table:
                    table[key] = True
                    nbytes += 32
            meter.hash_inserts += 1
        self.ctx.allocate(nbytes)
        try:
            for row in self.left.rows():
                meter.join_probes += 1
                key = tuple(fn(row) for fn in self.left_keys)
                if any(k is None for k in key):
                    # NULL keys: IN → unknown (drop); NOT IN → unknown (drop)
                    continue
                if keep_rows:
                    matched = any(
                        is_true(self.residual(row + right_row))
                        for right_row in table.get(key, ())
                    )
                else:
                    matched = key in table
                if self.anti:
                    if not matched and not (self.null_aware and right_has_null):
                        yield row
                else:
                    if matched:
                        yield row
        finally:
            self.ctx.release(nbytes)


class NestedLoopJoin(Operator):
    """Fallback join for non-equi conditions (materializes the right side)."""

    def __init__(
        self,
        ctx: ExecContext,
        left: Operator,
        right: Operator,
        condition: RowFn | None,
        kind: str = "inner",
    ):
        if kind not in ("inner", "left"):
            raise ExecutionError(f"unsupported join kind {kind!r}")
        super().__init__(ctx, left.scope.merged_with(right.scope))
        self.left = left
        self.right = right
        self.condition = condition
        self.kind = kind

    def rows(self) -> Iterator[tuple]:
        right_rows = list(self.right.rows())
        nbytes = sum(estimate_row_bytes(r) for r in right_rows)
        self.ctx.allocate(nbytes)
        meter = self.ctx.meter
        pad = _pad(len(self.right.scope))
        try:
            for row in self.left.rows():
                matched = False
                for right_row in right_rows:
                    meter.join_probes += 1
                    combined = row + right_row
                    if self.condition is None or is_true(self.condition(combined)):
                        matched = True
                        yield combined
                if not matched and self.kind == "left":
                    yield row + pad
        finally:
            self.ctx.release(nbytes)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


class _Accumulator:
    __slots__ = ("kind", "count", "total", "best", "distinct")

    def __init__(self, kind: str, distinct: bool):
        self.kind = kind
        self.count = 0
        self.total = None
        self.best = None
        self.distinct: set | None = set() if distinct else None

    def update(self, value) -> None:
        if self.kind == "count_star":
            self.count += 1
            return
        if value is None:
            return
        if self.distinct is not None:
            if value in self.distinct:
                return
            self.distinct.add(value)
        self.count += 1
        if self.kind in ("sum", "avg"):
            self.total = value if self.total is None else self.total + value
        elif self.kind == "min":
            if self.best is None or value < self.best:
                self.best = value
        elif self.kind == "max":
            if self.best is None or value > self.best:
                self.best = value

    def result(self):
        if self.kind in ("count_star", "count"):
            return self.count
        if self.kind == "sum":
            return self.total
        if self.kind == "avg":
            return None if self.count == 0 else self.total / self.count
        return self.best


class AggSpec:
    """One aggregate to compute: kind + argument expression."""

    __slots__ = ("kind", "arg_fn", "distinct")

    def __init__(self, kind: str, arg_fn: RowFn | None, distinct: bool):
        if kind not in ("count_star", "count", "sum", "avg", "min", "max"):
            raise ExecutionError(f"unknown aggregate {kind!r}")
        self.kind = kind
        self.arg_fn = arg_fn
        self.distinct = distinct


class Aggregate(Operator):
    """Hash aggregation.  Output = group-key values ++ aggregate results."""

    def __init__(
        self,
        ctx: ExecContext,
        child: Operator,
        group_fns: list[RowFn],
        specs: list[AggSpec],
        scope: Scope,
    ):
        super().__init__(ctx, scope)
        self.child = child
        self.group_fns = group_fns
        self.specs = specs

    def rows(self) -> Iterator[tuple]:
        if self.ctx.oblivious and self.group_fns:
            # Full tier: sort-based grouping over the bitonic network
            # (a global aggregate has no data-dependent group structure
            # to hide, so it keeps the single-accumulator pass).
            yield from self._oblivious_rows()
            return
        meter = self.ctx.meter
        groups: dict[tuple, list[_Accumulator]] = {}
        nbytes = 0
        nspecs = max(1, len(self.specs))
        for row in self.child.rows():
            key = tuple(fn(row) for fn in self.group_fns)
            accs = groups.get(key)
            if accs is None:
                accs = [_Accumulator(s.kind, s.distinct) for s in self.specs]
                groups[key] = accs
                nbytes += 64 + 16 * len(accs)
            meter.agg_updates += nspecs
            for spec, acc in zip(self.specs, accs):
                acc.update(spec.arg_fn(row) if spec.arg_fn is not None else None)
        self.ctx.allocate(nbytes)
        try:
            if not groups and not self.group_fns:
                # Global aggregate over zero rows still yields one row.
                accs = [_Accumulator(s.kind, s.distinct) for s in self.specs]
                yield tuple(acc.result() for acc in accs)
                return
            for key, accs in groups.items():
                yield key + tuple(acc.result() for acc in accs)
        finally:
            self.ctx.release(nbytes)

    def _oblivious_rows(self) -> Iterator[tuple]:
        """Full-tier variant: sort-based group-by (repro.oblivious).

        Rows are ordered by group key through the oblivious sort network
        and aggregated run by run; the accumulator semantics (DISTINCT,
        NULL handling, empty input) are shared with the hash path.
        Groups emerge in ascending key order (NULLs last) instead of
        first-seen order.
        """
        meter = self.ctx.meter
        rows = list(self.child.rows())
        nbytes = sum(estimate_row_bytes(r) for r in rows)
        self.ctx.allocate(nbytes)
        nspecs = max(1, len(self.specs))
        try:
            for key, run in oblivious_group_runs(
                rows, lambda row: tuple(fn(row) for fn in self.group_fns), meter
            ):
                accs = [_Accumulator(s.kind, s.distinct) for s in self.specs]
                for row in run:
                    meter.agg_updates += nspecs
                    for spec, acc in zip(self.specs, accs):
                        acc.update(
                            spec.arg_fn(row) if spec.arg_fn is not None else None
                        )
                yield key + tuple(acc.result() for acc in accs)
        finally:
            self.ctx.release(nbytes)


class Sort(Operator):
    """Materializing sort with NULLS LAST and per-key direction."""

    def __init__(
        self,
        ctx: ExecContext,
        child: Operator,
        key_fns: list[RowFn],
        descending: list[bool],
    ):
        super().__init__(ctx, child.scope)
        self.child = child
        self.key_fns = key_fns
        self.descending = descending

    def rows(self) -> Iterator[tuple]:
        rows = list(self.child.rows())
        nbytes = sum(estimate_row_bytes(r) for r in rows)
        self.ctx.allocate(nbytes)
        meter = self.ctx.meter
        if rows:
            meter.sort_ops += int(len(rows) * max(1.0, math.log2(len(rows))))
        # Stable multi-pass sort: least-significant key first.
        for fn, desc in reversed(list(zip(self.key_fns, self.descending))):
            if desc:
                rows.sort(key=lambda r, f=fn: _DescKey(f(r)))
            else:
                rows.sort(key=lambda r, f=fn: _AscKey(f(r)))
        try:
            yield from rows
        finally:
            self.ctx.release(nbytes)


class _AscKey:
    """Ascending sort key with NULLS LAST."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other: "_AscKey") -> bool:
        if self.value is None:
            return False
        if other.value is None:
            return True
        return self.value < other.value


class _DescKey:
    """Descending sort key with NULLS LAST."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other: "_DescKey") -> bool:
        if self.value is None:
            return False
        if other.value is None:
            return True
        return self.value > other.value


class Limit(Operator):
    def __init__(self, ctx: ExecContext, child: Operator, limit: int):
        super().__init__(ctx, child.scope)
        self.child = child
        self.limit = limit

    def rows(self) -> Iterator[tuple]:
        if self.limit <= 0:
            return
        emitted = 0
        for row in self.child.rows():
            yield row
            emitted += 1
            if emitted >= self.limit:
                return


class Distinct(Operator):
    def __init__(self, ctx: ExecContext, child: Operator):
        super().__init__(ctx, child.scope)
        self.child = child

    def rows(self) -> Iterator[tuple]:
        seen: set = set()
        nbytes = 0
        try:
            for row in self.child.rows():
                if row in seen:
                    continue
                seen.add(row)
                nbytes += estimate_row_bytes(row)
                self.ctx.allocate(estimate_row_bytes(row))
                yield row
        finally:
            self.ctx.release(nbytes)
