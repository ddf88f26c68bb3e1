"""The `Database` facade: parse → plan → execute over a table store.

One ``Database`` instance plays three roles across the system: the on-disk
database on the storage server (PagedStore over a plain or secure pager),
the in-memory instance inside the host enclave (MemoryStore), and small
administrative databases inside the trusted monitor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import ExecutionError
from ..oblivious import oblivious_operators, pads_pages, validate_tier
from ..sim import Meter
from . import ast_nodes as A
from .catalog import TableSchema
from .expressions import ExprCompiler, Scope
from .operators import ExecContext
from .parser import parse
from .planner import Planner, bind_params
from .stores import MemoryStore, PagedStore, TableStore
from .values import is_true


@dataclass
class Result:
    """Outcome of one statement."""

    columns: list[str]
    rows: list[tuple]
    rowcount: int = 0  # rows affected by DML

    def scalar(self):
        """First column of the first row (for aggregate lookups)."""
        if not self.rows:
            raise ExecutionError("result has no rows")
        return self.rows[0][0]


@dataclass(frozen=True, kw_only=True)
class ExecOptions:
    """How one statement executes.  Passed per call and never stored on a
    database, so nothing set for one query can reach the next.  A query's
    ``repro.core.RunConfig`` is one of these plus the ship form, and is
    what the runner hands the engines.

    The defaults are the seed behaviour: every page read, hash join and
    group-by, one tuple at a time.  docs/performance.md tabulates what
    each field may change (rows: never).
    """

    #: Consult authenticated zone maps to skip pages a sargable filter
    #: provably cannot match.  Synopses are *maintained* either way; this
    #: only gates scan-time consultation, and is a no-op on stores without
    #: synopses (the host's memory store).  Data-dependent skipping makes
    #: the page-access pattern a function of the predicate, which an
    #: adversary observing the device can exploit (docs/performance.md).
    zone_maps: bool = False
    #: Oblivious tier (``repro.oblivious``): ``off`` (the seed behaviour);
    #: ``padded`` — pruned scans still fetch every page, so the device
    #: schedule is predicate-independent, and channel frames are padded to
    #: fixed ciphertext sizes; ``full`` — additionally fixes the shipped
    #: frame *count* from catalog statistics and swaps hash join /
    #: group-by for the bitonic-shuffle variants, making the whole
    #: observable trace identical across predicate constants.
    oblivious: str = "off"
    #: Plan the morsel operators of :mod:`repro.sql.vexec` wherever the
    #: query's expressions have a batch form, falling back per operator:
    #: typed column batches with selection-vector filters and per-batch
    #: amortized CPU charges (``CostModel.vector_batch_ns`` /
    #: ``vector_value_ns``).  Morsel scans keep the pruned or padded page
    #: schedule, and the ``full`` tier's bitonic operators and fixed ship
    #: schedule sit above them unchanged.
    vectorized: bool = False

    def __post_init__(self) -> None:
        validate_tier(self.oblivious)


def _bind_select(select: A.Select, params: tuple) -> A.Select:
    """Recursively substitute `?` placeholders throughout a SELECT."""
    if not params:
        return select

    def bind(e: A.Expr | None):
        return bind_params(e, params) if e is not None else None

    def bind_from(item):
        if isinstance(item, A.SubqueryRef):
            return A.SubqueryRef(_bind_select(item.select, params), item.alias)
        return item

    return replace(
        select,
        items=tuple(A.SelectItem(bind(i.expr), i.alias) for i in select.items),
        from_items=tuple(bind_from(f) for f in select.from_items),
        joins=tuple(
            A.Join(j.kind, bind_from(j.right), bind(j.on)) for j in select.joins
        ),
        where=bind(select.where),
        group_by=tuple(bind(g) for g in select.group_by),
        having=bind(select.having),
        order_by=tuple(
            A.OrderItem(bind(o.expr), o.descending) for o in select.order_by
        ),
    )


class Database:
    """SQL interface over one table store."""

    def __init__(self, store: TableStore | None = None):
        self.store = store if store is not None else MemoryStore()
        #: Optional query tracer handed to each statement's ExecContext;
        #: engines install theirs here when tracing is enabled.
        self.tracer = None

    @property
    def meter(self) -> Meter:
        return self.store.meter

    # ------------------------------------------------------------------

    def execute(
        self, sql: str, params: tuple = (), options: ExecOptions = ExecOptions()
    ) -> Result:
        """Parse and run one statement."""
        statement = parse(sql)
        return self.execute_statement(statement, params, options)

    def execute_statement(
        self,
        statement: A.Statement,
        params: tuple = (),
        options: ExecOptions = ExecOptions(),
    ) -> Result:
        """Run one statement; *options* apply to the SELECTs it runs."""
        if isinstance(statement, A.Select):
            return self._run_select(statement, params, options)
        if isinstance(statement, A.CreateTable):
            return self._run_create(statement)
        if isinstance(statement, A.DropTable):
            self.store.drop_table(statement.name)
            return Result(columns=[], rows=[])
        if isinstance(statement, A.Insert):
            return self._run_insert(statement, params, options)
        if isinstance(statement, A.Update):
            return self._run_update(statement, params)
        if isinstance(statement, A.Delete):
            return self._run_delete(statement, params)
        raise ExecutionError(f"unsupported statement {type(statement).__name__}")

    # ------------------------------------------------------------------

    def _plan(self, select: A.Select, params: tuple, options: ExecOptions):
        """Bind and plan *select*: (root operator, output column names)."""
        select = _bind_select(select, params)
        ctx = ExecContext(
            self.store.meter,
            oblivious=oblivious_operators(options.oblivious),
            vectorized=options.vectorized,
            prune_scans=options.zone_maps,
            pad_scans=pads_pages(options.oblivious),
            tracer=self.tracer,
        )
        planner = Planner(self.store, ctx)
        return planner.plan_select(select), planner.output_names(select)

    def _run_select(
        self, select: A.Select, params: tuple, options: ExecOptions
    ) -> Result:
        op, columns = self._plan(select, params, options)
        rows = list(op.rows())
        self.store.meter.rows_output += len(rows)
        return Result(columns=columns, rows=rows)

    def stream_select(
        self,
        select: A.Select,
        params: tuple = (),
        options: ExecOptions = ExecOptions(),
    ):
        """Plan a SELECT and return ``(columns, row_iterator)``.

        Unlike :meth:`_run_select` the result is never materialized here:
        rows come straight off the operator iterator, so a caller that
        consumes them batch-at-a-time (the streaming ship pipeline) keeps
        the peak working set at one batch.  Metering is identical to the
        materialized path — ``rows_output`` just accrues per row instead
        of once at the end.
        """
        op, columns = self._plan(select, params, options)
        meter = self.store.meter

        def rows():
            for row in op.rows():
                meter.rows_output += 1
                yield row

        return columns, rows()

    def _run_create(self, statement: A.CreateTable) -> Result:
        schema = TableSchema(
            name=statement.name,
            columns=[(c.name, c.type_name) for c in statement.columns],
            primary_key=statement.primary_key,
        )
        self.store.create_table(schema)
        return Result(columns=[], rows=[])

    def _run_insert(
        self, statement: A.Insert, params: tuple, options: ExecOptions
    ) -> Result:
        schema = self.store.catalog.table(statement.table)
        if statement.select is not None:
            sub = self._run_select(statement.select, params, options)
            rows = sub.rows
        else:
            compiler = ExprCompiler(Scope([]))
            rows = []
            for row_exprs in statement.rows:
                bound = [bind_params(e, params) for e in row_exprs]
                rows.append(tuple(compiler.compile(e)(()) for e in bound))
        if statement.columns:
            # Reorder the supplied values into full table order.
            indices = {name: i for i, name in enumerate(statement.columns)}
            full_rows = []
            for row in rows:
                if len(row) != len(statement.columns):
                    raise ExecutionError("INSERT value count mismatch")
                full_rows.append(
                    tuple(
                        row[indices[name]] if name in indices else None
                        for name in schema.column_names
                    )
                )
            rows = full_rows
        count = self.store.insert_rows(statement.table, rows)
        return Result(columns=[], rows=[], rowcount=count)

    def _collect_where_rows(self, table: str, where: A.Expr | None, params: tuple):
        """Split a table's rows into (matching, non-matching)."""
        schema = self.store.catalog.table(table)
        scope = Scope([(table, name) for name in schema.column_names])
        predicate = None
        if where is not None:
            bound = bind_params(where, params)
            predicate = ExprCompiler(scope).compile(bound)
        matching: list[tuple] = []
        rest: list[tuple] = []
        for row in self.store.scan(table):
            self.store.meter.rows_scanned += 1
            if predicate is None or is_true(predicate(row)):
                matching.append(row)
            else:
                rest.append(row)
        return schema, scope, matching, rest

    def _run_update(self, statement: A.Update, params: tuple) -> Result:
        schema, scope, matching, rest = self._collect_where_rows(
            statement.table, statement.where, params
        )
        compiler = ExprCompiler(scope)
        assignments = []
        for column, expr in statement.assignments:
            index = schema.column_index(column)
            assignments.append((index, compiler.compile(bind_params(expr, params))))
        updated = []
        for row in matching:
            new_row = list(row)
            for index, fn in assignments:
                new_row[index] = fn(row)
            updated.append(tuple(new_row))
        self.store.replace_rows(statement.table, rest + updated)
        return Result(columns=[], rows=[], rowcount=len(updated))

    def _run_delete(self, statement: A.Delete, params: tuple) -> Result:
        _, _, matching, rest = self._collect_where_rows(
            statement.table, statement.where, params
        )
        self.store.replace_rows(statement.table, rest)
        return Result(columns=[], rows=[], rowcount=len(matching))

    # ------------------------------------------------------------------

    def commit(self) -> None:
        self.store.commit()

    def table_names(self) -> list[str]:
        return self.store.catalog.table_names()


def memory_database(meter: Meter | None = None) -> Database:
    """Convenience constructor for an in-memory database."""
    return Database(MemoryStore(meter))


def paged_database(pager, meter: Meter | None = None) -> Database:
    """Convenience constructor for a paged database over *pager*."""
    return Database(PagedStore(pager, meter))
