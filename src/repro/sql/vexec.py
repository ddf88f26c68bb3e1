"""Vectorized physical operators and the batch expression compiler.

Morsel-granular mirror of :mod:`repro.sql.operators` /
:mod:`repro.sql.expressions`: operators exchange :class:`~.vector.Morsel`
batches instead of single tuples, and expressions compile to *vector
functions* evaluated over a whole selection at once.  Per-tuple Python
dispatch — the dominant cost of the row engine — is paid once per batch.

Semantics are the row path's by construction:

* every kernel wraps the scalar functions of :mod:`repro.sql.values`;
* ``AND``/``OR``/``CASE`` short-circuit *lazily over sub-selections*, so
  the right operand (or a later branch) is only ever evaluated on the
  rows where the row compiler would have evaluated it — a type error the
  row path never raises cannot surface here either;
* filters narrow a morsel's selection vector instead of copying rows.

Every vectorized operator also implements ``rows()`` by flattening its
morsels, so row-only operators (sorts, semi joins, the oblivious join /
group-by variants) compose above a vectorized subtree unchanged.  The
planner falls back to the row operator whenever an expression has no
vectorized form (:class:`~repro.errors.PlanError` from the compiler).

Work is metered batch-at-a-time: ``vector_batches`` / ``vector_values``
instead of the per-row counters, which is what lets the cost model price
the amortization (see ``CostModel.vector_batch_ns`` /
``vector_value_ns``).  Each operator batch also emits a ``vector_eval``
tracer event (``telemetry.spans.SPAN_VECTOR_EVAL``) when tracing is on.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Callable

from ..errors import ExecutionError, PlanError
from . import ast_nodes as A
from . import values as V
from .expressions import RowFn, Scope
from .operators import ExecContext, Operator, SeqScan, _Accumulator
from .values import estimate_row_bytes, is_true
from .vector import (
    BINARY_KERNELS,
    DEFAULT_MORSEL_ROWS,
    ColumnVector,
    Morsel,
    density_pct,
    morsels_from_rows,
    select_true,
)

#: A compiled vector expression: ``fn(morsel, sel) -> values`` where the
#: returned list is aligned with *sel* (the active row positions).
VecFn = Callable[[Morsel, list], list]


def supports_morsels(op: Operator) -> bool:
    """Whether *op* can produce column batches directly."""
    return callable(getattr(op, "morsels", None))


def _vector_event(ctx: ExecContext, operator: str, rows_in: int, rows_out: int) -> None:
    """Per-batch telemetry event (``SPAN_VECTOR_EVAL``).

    The event name is a string literal — like the stores' ``zone_prune``
    — so ``repro.sql`` stays free of a telemetry import (ARCH001); the
    constant lives in :mod:`repro.telemetry.spans`.
    """
    tracer = getattr(ctx, "tracer", None)
    if tracer is not None and getattr(tracer, "enabled", False):
        tracer.event(
            "vector_eval", operator=operator, rows_in=rows_in, rows_out=rows_out
        )


# ---------------------------------------------------------------------------
# Batch expression compiler
# ---------------------------------------------------------------------------


class VecExprCompiler:
    """Compiles expressions to batch evaluators against a scope.

    Dispatch mirrors :class:`~.expressions.ExprCompiler` node for node;
    any node without a vectorized form raises :class:`PlanError`, which
    the planner treats as "use the row operator here".
    """

    def __init__(self, scope: Scope, lookup_maps: list[dict] | None = None):
        self.scope = scope
        self.lookup_maps = lookup_maps if lookup_maps is not None else []

    def compile(self, expr: A.Expr) -> VecFn:
        method = getattr(self, "_compile_" + type(expr).__name__.lower(), None)
        if method is None:
            raise PlanError(
                f"no vectorized form for expression node {type(expr).__name__}"
            )
        return method(expr)

    # -- leaves ---------------------------------------------------------

    def _compile_literal(self, expr: A.Literal) -> VecFn:
        value = expr.value
        return lambda morsel, sel: [value] * len(sel)

    def _compile_interval(self, expr: A.Interval) -> VecFn:
        raise PlanError(
            "INTERVAL is only valid as the right operand of date +/- arithmetic"
        )

    def _compile_column(self, expr: A.Column) -> VecFn:
        index = self.scope.resolve(expr.table, expr.name)
        return lambda morsel, sel: morsel.columns[index].gather(sel)

    def _compile_param(self, expr: A.Param) -> VecFn:
        raise PlanError("unbound parameter reached the expression compiler")

    # -- operators ------------------------------------------------------

    def _compile_unary(self, expr: A.Unary) -> VecFn:
        operand = self.compile(expr.operand)
        if expr.op == "NOT":
            return lambda morsel, sel: [V.sql_not(v) for v in operand(morsel, sel)]
        if expr.op == "-":
            return lambda morsel, sel: [V.sql_neg(v) for v in operand(morsel, sel)]
        raise PlanError(f"unknown unary operator {expr.op!r}")

    def _compile_binary(self, expr: A.Binary) -> VecFn:
        if expr.op in ("+", "-") and isinstance(expr.right, A.Interval):
            left = self.compile(expr.left)
            amount, unit = expr.right.amount, expr.right.unit
            sign = 1 if expr.op == "+" else -1
            return lambda morsel, sel: [
                V.interval_shift(v, amount, unit, sign) for v in left(morsel, sel)
            ]
        kernel = BINARY_KERNELS.get(expr.op)
        if kernel is None:
            raise PlanError(f"unknown binary operator {expr.op!r}")
        left = self.compile(expr.left)
        right = self.compile(expr.right)
        # AND/OR short-circuit on the dominating value, evaluating the
        # right operand only over the still-undecided sub-selection —
        # exactly the rows where the row compiler evaluates it.
        if expr.op == "AND":

            def and_fn(morsel, sel):
                a = left(morsel, sel)
                out = a[:]
                open_pos = [p for p, v in enumerate(a) if v is not False]
                if open_pos:
                    b = right(morsel, [sel[p] for p in open_pos])
                    for p, bv in zip(open_pos, b):
                        out[p] = V.sql_and(a[p], bv)
                return out

            return and_fn
        if expr.op == "OR":

            def or_fn(morsel, sel):
                a = left(morsel, sel)
                out = a[:]
                open_pos = [p for p, v in enumerate(a) if v is not True]
                if open_pos:
                    b = right(morsel, [sel[p] for p in open_pos])
                    for p, bv in zip(open_pos, b):
                        out[p] = V.sql_or(a[p], bv)
                return out

            return or_fn
        return lambda morsel, sel: kernel(left(morsel, sel), right(morsel, sel))

    def _compile_between(self, expr: A.Between) -> VecFn:
        operand = self.compile(expr.operand)
        low = self.compile(expr.low)
        high = self.compile(expr.high)
        negated = expr.negated

        def between_fn(morsel, sel):
            values = operand(morsel, sel)
            lows = low(morsel, sel)
            highs = high(morsel, sel)
            out = [
                V.sql_and(V.sql_ge(v, lo), V.sql_le(v, hi))
                for v, lo, hi in zip(values, lows, highs)
            ]
            if negated:
                return [V.sql_not(v) for v in out]
            return out

        return between_fn

    def _compile_like(self, expr: A.Like) -> VecFn:
        operand = self.compile(expr.operand)
        pattern = self.compile(expr.pattern)
        negated = expr.negated

        def like_fn(morsel, sel):
            out = [
                V.sql_like(v, p)
                for v, p in zip(operand(morsel, sel), pattern(morsel, sel))
            ]
            if negated:
                return [V.sql_not(v) for v in out]
            return out

        return like_fn

    def _compile_isnull(self, expr: A.IsNull) -> VecFn:
        operand = self.compile(expr.operand)
        if expr.negated:
            return lambda morsel, sel: [v is not None for v in operand(morsel, sel)]
        return lambda morsel, sel: [v is None for v in operand(morsel, sel)]

    def _compile_inlist(self, expr: A.InList) -> VecFn:
        operand = self.compile(expr.operand)
        items = [self.compile(item) for item in expr.items]
        negated = expr.negated

        def in_fn(morsel, sel):
            values = operand(morsel, sel)
            candidate_cols = [item(morsel, sel) for item in items]
            out = []
            for pos, value in enumerate(values):
                if value is None:
                    out.append(None)
                    continue
                saw_null = False
                hit = False
                for col in candidate_cols:
                    candidate = col[pos]
                    if candidate is None:
                        saw_null = True
                    elif candidate == value:
                        hit = True
                        break
                if hit:
                    out.append(not negated)
                elif saw_null:
                    out.append(None)
                else:
                    out.append(negated)
            return out

        return in_fn

    def _compile_inset(self, expr: A.InSet) -> VecFn:
        operand = self.compile(expr.operand)
        values = expr.values
        has_null = expr.has_null
        negated = expr.negated

        def inset_fn(morsel, sel):
            out = []
            for value in operand(morsel, sel):
                if value is None:
                    out.append(None)
                elif value in values:
                    out.append(not negated)
                elif has_null:
                    out.append(None)
                else:
                    out.append(negated)
            return out

        return inset_fn

    def _compile_maplookup(self, expr: A.MapLookup) -> VecFn:
        keys = [self.compile(k) for k in expr.keys]
        mapping = self.lookup_maps[expr.mapping_id]
        if len(keys) == 1:
            key0 = keys[0]
            return lambda morsel, sel: [mapping.get(k) for k in key0(morsel, sel)]

        def lookup_fn(morsel, sel):
            key_cols = [k(morsel, sel) for k in keys]
            return [mapping.get(key) for key in zip(*key_cols)]

        return lookup_fn

    def _compile_case(self, expr: A.Case) -> VecFn:
        whens = [(self.compile(c), self.compile(r)) for c, r in expr.whens]
        default = self.compile(expr.default) if expr.default is not None else None

        def case_fn(morsel, sel):
            out = [None] * len(sel)
            # Undecided positions flow branch to branch; each branch's
            # condition and result are evaluated only over them (the row
            # compiler's lazy first-match order).
            open_pos = list(range(len(sel)))
            for condition, result in whens:
                if not open_pos:
                    break
                flags = condition(morsel, [sel[p] for p in open_pos])
                matched = [p for p, flag in zip(open_pos, flags) if V.is_true(flag)]
                if matched:
                    results = result(morsel, [sel[p] for p in matched])
                    for p, value in zip(matched, results):
                        out[p] = value
                open_pos = [
                    p for p, flag in zip(open_pos, flags) if not V.is_true(flag)
                ]
            if default is not None and open_pos:
                defaults = default(morsel, [sel[p] for p in open_pos])
                for p, value in zip(open_pos, defaults):
                    out[p] = value
            return out

        return case_fn

    def _compile_extract(self, expr: A.Extract) -> VecFn:
        operand = self.compile(expr.operand)
        unit = expr.unit
        return lambda morsel, sel: [
            V.sql_extract(unit, v) for v in operand(morsel, sel)
        ]

    def _compile_substring(self, expr: A.Substring) -> VecFn:
        operand = self.compile(expr.operand)
        start = self.compile(expr.start)
        if expr.length is None:
            return lambda morsel, sel: [
                V.sql_substring(v, s)
                for v, s in zip(operand(morsel, sel), start(morsel, sel))
            ]
        length = self.compile(expr.length)

        def substring_fn(morsel, sel):
            return [
                V.sql_substring(v, s, n)
                for v, s, n in zip(
                    operand(morsel, sel), start(morsel, sel), length(morsel, sel)
                )
            ]

        return substring_fn

    def _compile_funccall(self, expr: A.FuncCall) -> VecFn:
        fn = V.SCALAR_FUNCTIONS.get(expr.name)
        if fn is None:
            raise PlanError(f"unknown function {expr.name!r}")
        args = [self.compile(a) for a in expr.args]
        if not args:
            return lambda morsel, sel: [fn() for _ in sel]

        def call_fn(morsel, sel):
            arg_cols = [a(morsel, sel) for a in args]
            return [fn(*vals) for vals in zip(*arg_cols)]

        return call_fn

    def _compile_aggcall(self, expr: A.AggCall) -> VecFn:
        raise PlanError(
            f"aggregate {expr.name}() used outside of an aggregation context"
        )

    def _compile_scalarsubquery(self, expr: A.ScalarSubquery) -> VecFn:
        raise PlanError("scalar subquery reached the compiler unplanned")

    def _compile_insubquery(self, expr: A.InSubquery) -> VecFn:
        raise PlanError("IN-subquery reached the compiler unplanned")

    def _compile_exists(self, expr: A.Exists) -> VecFn:
        raise PlanError("EXISTS reached the compiler unplanned")


# ---------------------------------------------------------------------------
# Vectorized operators
# ---------------------------------------------------------------------------


class VectorOperator(Operator):
    """Base for operators that exchange morsels.

    ``rows()`` flattens the morsel stream (honouring selections), so any
    row-at-a-time consumer — a Sort above, the streaming ship path, a
    subquery materialization — composes without caring which engine
    produced its input.
    """

    def morsels(self) -> Iterator[Morsel]:  # pragma: no cover - abstract
        raise NotImplementedError

    def rows(self) -> Iterator[tuple]:
        for morsel in self.morsels():
            yield from morsel.to_rows()


class RowsToMorsels(VectorOperator):
    """Adapter: chunk a row operator's output into morsels."""

    def __init__(
        self, ctx: ExecContext, child: Operator, batch_rows: int = DEFAULT_MORSEL_ROWS
    ):
        super().__init__(ctx, child.scope)
        self.child = child
        self.batch_rows = batch_rows

    def morsels(self) -> Iterator[Morsel]:
        yield from morsels_from_rows(
            self.child.rows(), len(self.scope), self.batch_rows
        )

    def rows(self) -> Iterator[tuple]:
        return self.child.rows()


class VSeqScan(SeqScan):
    """Batch-producing table scan.

    Subclasses :class:`SeqScan` so the planner's pruning attachment (and
    any ``isinstance`` dispatch) applies unchanged.  Stores that expose
    ``scan_morsels`` deliver batches natively — the paged store with the
    *identical* page-read schedule as its row scan (zone-map pruning,
    oblivious ``pad_scans`` dummies included), the host's memory store
    straight from stashed wire batches.  Anything else is chunked.
    """

    def morsels(self) -> Iterator[Morsel]:
        meter = self.ctx.meter
        scan_morsels = getattr(self.store, "scan_morsels", None)
        if scan_morsels is not None:
            source = scan_morsels(
                self.table_name, pruning=self.pruning, pad=self.ctx.pad_scans
            )
        else:
            source = morsels_from_rows(
                self.store.scan(self.table_name), len(self.scope)
            )
        for morsel in source:
            meter.bump("vector_batches", 1)
            meter.bump("vector_values", morsel.row_count)
            _vector_event(self.ctx, "seq_scan", morsel.row_count, morsel.row_count)
            yield morsel

    def rows(self) -> Iterator[tuple]:
        for morsel in self.morsels():
            yield from morsel.to_rows()


class VFilter(VectorOperator):
    """Filter that *marks* survivors in a selection vector (no copying)."""

    def __init__(self, ctx: ExecContext, child: Operator, predicate: VecFn):
        super().__init__(ctx, child.scope)
        self.child = child
        self.predicate = predicate

    def morsels(self) -> Iterator[Morsel]:
        meter = self.ctx.meter
        predicate = self.predicate
        for morsel in self.child.morsels():
            sel = morsel.active_indices()
            if not sel:
                continue
            flags = predicate(morsel, sel)
            kept = select_true(flags, sel)
            meter.bump("vector_batches", 1)
            meter.bump("vector_values", len(sel))
            meter.bump("selection_density_pct", density_pct(len(kept), len(sel)))
            _vector_event(self.ctx, "filter", len(sel), len(kept))
            if kept:
                yield morsel.with_selection(kept)


class VProject(VectorOperator):
    """Projection computed column-at-a-time over the active selection."""

    def __init__(
        self, ctx: ExecContext, child: Operator, fns: list[VecFn], scope: Scope
    ):
        super().__init__(ctx, scope)
        self.child = child
        self.fns = fns

    def morsels(self) -> Iterator[Morsel]:
        meter = self.ctx.meter
        fns = self.fns
        nfns = len(fns)
        for morsel in self.child.morsels():
            sel = morsel.active_indices()
            if not sel:
                continue
            columns = [ColumnVector(fn(morsel, sel)) for fn in fns]
            meter.bump("vector_batches", 1)
            meter.bump("vector_values", len(sel) * nfns)
            _vector_event(self.ctx, "project", len(sel), len(sel))
            yield Morsel(columns, len(sel))


class VHashJoin(VectorOperator):
    """Equi hash join with batch-at-a-time key evaluation.

    Key columns are computed per morsel on both the build and probe
    sides; the table/probe semantics (NULL keys never match, left-outer
    padding, residual over the combined row) are the row operator's.
    """

    def __init__(
        self,
        ctx: ExecContext,
        left: Operator,
        right: Operator,
        left_keys: list[VecFn],
        right_keys: list[VecFn],
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
        nkeys = max(1, len(self.right_keys))
        for morsel in self.right.morsels():
            sel = morsel.active_indices()
            if not sel:
                continue
            key_cols = [fn(morsel, sel) for fn in self.right_keys]
            rows = morsel.to_rows()
            meter.bump("vector_batches", 1)
            meter.bump("vector_values", len(sel) * nkeys)
            _vector_event(self.ctx, "hash_join_build", len(sel), len(sel))
            for pos, row in enumerate(rows):
                key = tuple(col[pos] for col in key_cols)
                if any(k is None for k in key):
                    continue  # NULL keys never match in an equi join
                table.setdefault(key, []).append(row)
                nbytes += 3 * estimate_row_bytes(row) + 64
        self.ctx.allocate(nbytes)
        return table, nbytes

    def morsels(self) -> Iterator[Morsel]:
        table, nbytes = self._build()
        meter = self.ctx.meter
        width = len(self.scope)
        pad = (None,) * len(self.right.scope)
        residual = self.residual
        nkeys = max(1, len(self.left_keys))
        try:
            for morsel in self.left.morsels():
                sel = morsel.active_indices()
                if not sel:
                    continue
                key_cols = [fn(morsel, sel) for fn in self.left_keys]
                rows = morsel.to_rows()
                meter.bump("vector_batches", 1)
                meter.bump("vector_values", len(sel) * nkeys)
                out: list[tuple] = []
                for pos, row in enumerate(rows):
                    key = tuple(col[pos] for col in key_cols)
                    matched = False
                    if not any(k is None for k in key):
                        for right_row in table.get(key, ()):
                            combined = row + right_row
                            if residual is not None and not is_true(
                                residual(combined)
                            ):
                                continue
                            matched = True
                            out.append(combined)
                    if not matched and self.kind == "left":
                        out.append(row + pad)
                _vector_event(self.ctx, "hash_join_probe", len(sel), len(out))
                if out:
                    yield Morsel.from_rows(out, width)
        finally:
            self.ctx.release(nbytes)


class VecAggSpec:
    """One aggregate to compute over vectors: kind + argument vector fn."""

    __slots__ = ("kind", "arg_fn", "distinct")

    def __init__(self, kind: str, arg_fn: VecFn | None, distinct: bool):
        if kind not in ("count_star", "count", "sum", "avg", "min", "max"):
            raise ExecutionError(f"unknown aggregate {kind!r}")
        self.kind = kind
        self.arg_fn = arg_fn
        self.distinct = distinct


class VAggregate(VectorOperator):
    """Hash aggregation with grouped accumulation over column batches.

    Group keys and aggregate arguments are evaluated once per morsel;
    the accumulators are the row operator's (:class:`_Accumulator`), so
    DISTINCT / NULL / empty-input semantics cannot diverge.  Groups
    emerge in first-seen order, like the row hash path.
    """

    def __init__(
        self,
        ctx: ExecContext,
        child: Operator,
        group_fns: list[VecFn],
        specs: list[VecAggSpec],
        scope: Scope,
    ):
        super().__init__(ctx, scope)
        self.child = child
        self.group_fns = group_fns
        self.specs = specs

    def morsels(self) -> Iterator[Morsel]:
        meter = self.ctx.meter
        groups: dict[tuple, list[_Accumulator]] = {}
        nbytes = 0
        nspecs = max(1, len(self.specs))
        ngroup = len(self.group_fns)
        for morsel in self.child.morsels():
            sel = morsel.active_indices()
            if not sel:
                continue
            group_cols = [fn(morsel, sel) for fn in self.group_fns]
            arg_cols = [
                spec.arg_fn(morsel, sel) if spec.arg_fn is not None else None
                for spec in self.specs
            ]
            meter.bump("vector_batches", 1)
            meter.bump("vector_values", len(sel) * (ngroup + nspecs))
            _vector_event(self.ctx, "aggregate", len(sel), 0)
            for pos in range(len(sel)):
                key = tuple(col[pos] for col in group_cols)
                accs = groups.get(key)
                if accs is None:
                    accs = [_Accumulator(s.kind, s.distinct) for s in self.specs]
                    groups[key] = accs
                    nbytes += 64 + 16 * len(accs)
                for acc, col in zip(accs, arg_cols):
                    acc.update(col[pos] if col is not None else None)
        self.ctx.allocate(nbytes)
        width = len(self.scope)
        try:
            if not groups and not self.group_fns:
                # Global aggregate over zero rows still yields one row.
                accs = [_Accumulator(s.kind, s.distinct) for s in self.specs]
                yield Morsel.from_rows([tuple(acc.result() for acc in accs)], width)
                return
            out = [
                key + tuple(acc.result() for acc in accs)
                for key, accs in groups.items()
            ]
            if out:
                yield Morsel.from_rows(out, width)
        finally:
            self.ctx.release(nbytes)
