"""Query planner: SELECT AST → physical operator tree.

Planning pipeline:

1. plan FROM items (scans / materialized derived tables) and explicit JOINs;
2. split WHERE into conjuncts, pushing single-table predicates below the
   joins, turning two-table equalities into hash-join edges, and
   **decorrelating subqueries**:
   - uncorrelated scalar / IN / EXISTS subqueries evaluate once and fold
     into constants, :class:`~.ast_nodes.InSet` filters, or trivial TRUE/FALSE;
   - correlated EXISTS / NOT EXISTS / IN become hash (anti) semi joins on
     the equality correlation keys with any remaining cross-scope
     predicate as a join residual;
   - correlated scalar *aggregate* subqueries (the TPC-H Q2/Q17 shape) are
     rewritten to a GROUP BY over the correlation keys, materialized into
     a lookup map, and replaced by :class:`~.ast_nodes.MapLookup`;
3. greedy hash-join ordering over the equality edge graph (cartesian
   nested-loop fallback);
4. aggregation (group keys + aggregate accumulators, with HAVING and the
   projection rewritten over the aggregate output), DISTINCT, ORDER BY
   (resolved against the output schema first, the input schema otherwise)
   and LIMIT.

The planner is shared by every engine role: the storage engine plans
offloaded filter scans, the host engine plans the full query over shipped
tables, and the monitor's policy rewrites produce ASTs that plan like any
other query.
"""

from __future__ import annotations

import datetime
from dataclasses import replace

from ..errors import PlanError
from ..stats import CMP_OPS, PruningPredicate
from . import ast_nodes as A
from .expressions import ExprCompiler, Scope
from .operators import (
    Aggregate,
    AggSpec,
    Distinct,
    ExecContext,
    Filter,
    HashJoin,
    HashSemiJoin,
    Limit,
    NestedLoopJoin,
    Operator,
    Project,
    RowsSource,
    SeqScan,
    Sort,
)
from .vexec import (
    VAggregate,
    VecAggSpec,
    VecExprCompiler,
    VFilter,
    VHashJoin,
    VProject,
    VSeqScan,
    supports_morsels,
)

# ---------------------------------------------------------------------------
# AST utilities
# ---------------------------------------------------------------------------


def conjuncts_of(expr: A.Expr | None) -> list[A.Expr]:
    """Flatten a predicate into its top-level AND conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, A.Binary) and expr.op == "AND":
        return conjuncts_of(expr.left) + conjuncts_of(expr.right)
    return [expr]


def and_together(conjuncts: list[A.Expr]) -> A.Expr | None:
    if not conjuncts:
        return None
    result = conjuncts[0]
    for conjunct in conjuncts[1:]:
        result = A.Binary("AND", result, conjunct)
    return result


def or_together(disjuncts: list[A.Expr]) -> A.Expr | None:
    if not disjuncts:
        return None
    result = disjuncts[0]
    for disjunct in disjuncts[1:]:
        result = A.Binary("OR", result, disjunct)
    return result


def walk_expr(expr: A.Expr):
    """Yield *expr* and every sub-expression (not descending into subqueries)."""
    yield expr
    children: list[A.Expr] = []
    if isinstance(expr, A.Unary):
        children = [expr.operand]
    elif isinstance(expr, A.Binary):
        children = [expr.left, expr.right]
    elif isinstance(expr, A.Between):
        children = [expr.operand, expr.low, expr.high]
    elif isinstance(expr, A.Like):
        children = [expr.operand, expr.pattern]
    elif isinstance(expr, A.IsNull):
        children = [expr.operand]
    elif isinstance(expr, A.InList):
        children = [expr.operand, *expr.items]
    elif isinstance(expr, A.InSet):
        children = [expr.operand]
    elif isinstance(expr, A.MapLookup):
        children = list(expr.keys)
    elif isinstance(expr, A.InSubquery):
        children = [expr.operand]
    elif isinstance(expr, A.Case):
        for cond, result in expr.whens:
            children.extend([cond, result])
        if expr.default is not None:
            children.append(expr.default)
    elif isinstance(expr, A.Extract):
        children = [expr.operand]
    elif isinstance(expr, A.Substring):
        children = [expr.operand, expr.start]
        if expr.length is not None:
            children.append(expr.length)
    elif isinstance(expr, (A.FuncCall,)):
        children = list(expr.args)
    elif isinstance(expr, A.AggCall) and expr.arg is not None:
        children = [expr.arg]
    for child in children:
        yield from walk_expr(child)


def contains_subquery(expr: A.Expr) -> bool:
    return any(
        isinstance(node, (A.Exists, A.InSubquery, A.ScalarSubquery))
        for node in walk_expr(expr)
    )


def contains_aggregate(expr: A.Expr) -> bool:
    return any(isinstance(node, A.AggCall) for node in walk_expr(expr))


def column_refs(expr: A.Expr) -> list[A.Column]:
    return [node for node in walk_expr(expr) if isinstance(node, A.Column)]


def _compilable(expr: A.Expr, scope: Scope) -> bool:
    """True when every column in *expr* resolves in *scope* (no subqueries)."""
    if contains_subquery(expr):
        return False
    for col in column_refs(expr):
        if scope.try_resolve(col.table, col.name) is None:
            return False
    return True


# -- sargable-predicate extraction (zone-map skip-scans) --------------------

#: Comparison operators whose mirror image is also sargable.
_FLIPPED_CMP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}


def _sargable_literal(value, type_name: str) -> bool:
    """Can *value* be compared against a column of *type_name* without a
    type error?  Extraction refuses anything else, so a pruned scan can
    never suppress the ExecutionError the row-level filter would raise.
    """
    if value is None:
        return False
    if type_name in ("INTEGER", "REAL"):
        return isinstance(value, (int, float))
    if type_name == "TEXT":
        return isinstance(value, str)
    if type_name == "DATE":
        return isinstance(value, datetime.date)
    return False


def _column_index(expr: A.Expr, scope: Scope) -> int | None:
    """Scope index of a bare column reference (None for anything else).

    A :class:`SeqScan` scope lists the base table's columns in schema
    order, so this index doubles as the zone-map column index.
    """
    if isinstance(expr, A.Column):
        return scope.try_resolve(expr.table, expr.name)
    return None


def extract_pruning(
    conjuncts: list[A.Expr], scope: Scope, column_types: list[str]
) -> PruningPredicate | None:
    """Lower the sargable conjuncts of a pushed-down filter.

    Handles ``col <op> literal`` (either orientation), ``BETWEEN``,
    ``IN`` lists/sets and ``IS [NOT] NULL``.  Non-sargable conjuncts are
    simply ignored — they stay in the row-level filter, and the pruning
    predicate remains a sound over-approximation of the full filter.
    """
    lowered: list[tuple] = []
    for conjunct in conjuncts:
        if isinstance(conjunct, A.Binary) and conjunct.op in CMP_OPS:
            index = _column_index(conjunct.left, scope)
            op = conjunct.op
            literal = conjunct.right
            if index is None:
                index = _column_index(conjunct.right, scope)
                op = _FLIPPED_CMP[op]
                literal = conjunct.left
            if (
                index is not None
                and isinstance(literal, A.Literal)
                and _sargable_literal(literal.value, column_types[index])
            ):
                lowered.append(("cmp", index, (op, literal.value)))
        elif isinstance(conjunct, A.Between) and not conjunct.negated:
            index = _column_index(conjunct.operand, scope)
            if (
                index is not None
                and isinstance(conjunct.low, A.Literal)
                and isinstance(conjunct.high, A.Literal)
                and _sargable_literal(conjunct.low.value, column_types[index])
                and _sargable_literal(conjunct.high.value, column_types[index])
            ):
                lowered.append(
                    ("between", index, (conjunct.low.value, conjunct.high.value))
                )
        elif isinstance(conjunct, (A.InList, A.InSet)) and not conjunct.negated:
            index = _column_index(conjunct.operand, scope)
            if index is None:
                continue
            if isinstance(conjunct, A.InList):
                if not all(isinstance(item, A.Literal) for item in conjunct.items):
                    continue
                values = [item.value for item in conjunct.items]
            else:
                values = list(conjunct.values)
            # NULL list items never match; any incompatible item could
            # raise at row level, so refuse the whole conjunct.
            usable = [v for v in values if v is not None]
            if usable and all(
                _sargable_literal(v, column_types[index]) for v in usable
            ):
                lowered.append(("in", index, tuple(usable)))
        elif isinstance(conjunct, A.IsNull):
            index = _column_index(conjunct.operand, scope)
            if index is not None:
                lowered.append(("isnull", index, (conjunct.negated,)))
    if not lowered:
        return None
    return PruningPredicate(lowered)


def rewrite_expr(expr: A.Expr, mapping) -> A.Expr:
    """Structurally rewrite an expression bottom-up.

    ``mapping(expr)`` returns a replacement node or None to recurse.
    """
    replacement = mapping(expr)
    if replacement is not None:
        return replacement
    if isinstance(expr, A.Unary):
        return A.Unary(expr.op, rewrite_expr(expr.operand, mapping))
    if isinstance(expr, A.Binary):
        return A.Binary(
            expr.op, rewrite_expr(expr.left, mapping), rewrite_expr(expr.right, mapping)
        )
    if isinstance(expr, A.Between):
        return A.Between(
            rewrite_expr(expr.operand, mapping),
            rewrite_expr(expr.low, mapping),
            rewrite_expr(expr.high, mapping),
            expr.negated,
        )
    if isinstance(expr, A.Like):
        return A.Like(
            rewrite_expr(expr.operand, mapping),
            rewrite_expr(expr.pattern, mapping),
            expr.negated,
        )
    if isinstance(expr, A.IsNull):
        return A.IsNull(rewrite_expr(expr.operand, mapping), expr.negated)
    if isinstance(expr, A.InList):
        return A.InList(
            rewrite_expr(expr.operand, mapping),
            tuple(rewrite_expr(i, mapping) for i in expr.items),
            expr.negated,
        )
    if isinstance(expr, A.InSet):
        return A.InSet(
            rewrite_expr(expr.operand, mapping), expr.values, expr.has_null, expr.negated
        )
    if isinstance(expr, A.MapLookup):
        return A.MapLookup(
            tuple(rewrite_expr(k, mapping) for k in expr.keys), expr.mapping_id
        )
    if isinstance(expr, A.Case):
        return A.Case(
            tuple(
                (rewrite_expr(c, mapping), rewrite_expr(r, mapping))
                for c, r in expr.whens
            ),
            rewrite_expr(expr.default, mapping) if expr.default is not None else None,
        )
    if isinstance(expr, A.Extract):
        return A.Extract(expr.unit, rewrite_expr(expr.operand, mapping))
    if isinstance(expr, A.Substring):
        return A.Substring(
            rewrite_expr(expr.operand, mapping),
            rewrite_expr(expr.start, mapping),
            rewrite_expr(expr.length, mapping) if expr.length is not None else None,
        )
    if isinstance(expr, A.FuncCall):
        return A.FuncCall(
            expr.name, tuple(rewrite_expr(a, mapping) for a in expr.args), expr.distinct
        )
    if isinstance(expr, A.AggCall):
        return A.AggCall(
            expr.name,
            rewrite_expr(expr.arg, mapping) if expr.arg is not None else None,
            expr.distinct,
        )
    return expr


def bind_params(expr: A.Expr, params: tuple) -> A.Expr:
    """Replace `?` placeholders with literal values."""

    def mapping(node: A.Expr):
        if isinstance(node, A.Param):
            if node.index >= len(params):
                raise PlanError(f"missing value for parameter {node.index}")
            return A.Literal(params[node.index])
        return None

    return rewrite_expr(expr, mapping)


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------


class _FromItem:
    """One planned FROM entry, wrapped so filters can be pushed below joins."""

    __slots__ = ("binding", "op")

    def __init__(self, binding: str, op: Operator):
        self.binding = binding
        self.op = op


class Planner:
    def __init__(self, store, ctx: ExecContext):
        self.store = store
        self.ctx = ctx

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def plan_select(self, select: A.Select, outer_scope: Scope | None = None) -> Operator:
        tree = self._plan_from_where(select, outer_scope)
        return self._plan_projection(select, tree)

    def output_names(self, select: A.Select) -> list[str]:
        """Column names of the SELECT's result."""
        names: list[str] = []
        star_expansion_needed = any(
            isinstance(item.expr, A.Star) for item in select.items
        )
        if star_expansion_needed:
            # Names depend on the planned scope; recompute via planning.
            tree = self._plan_from_where(select, None)
            for item in select.items:
                if isinstance(item.expr, A.Star):
                    for binding, name in tree.scope.columns:
                        if item.expr.table is None or binding == item.expr.table:
                            names.append(name)
                else:
                    names.append(self._item_name(item, len(names)))
            return names
        for index, item in enumerate(select.items):
            names.append(self._item_name(item, index))
        return names

    @staticmethod
    def _item_name(item: A.SelectItem, index: int) -> str:
        if item.alias:
            return item.alias
        if isinstance(item.expr, A.Column):
            return item.expr.name
        return f"col{index}"

    # ------------------------------------------------------------------
    # Vectorization helpers
    # ------------------------------------------------------------------
    #
    # Each helper builds the morsel operator from repro.sql.vexec when
    # the context asks for vectorized execution, the child can produce
    # morsels, and every expression involved has a batch form — and
    # falls back to the seed row operator otherwise (PlanError from the
    # vector compiler is the per-operator opt-out, mirroring how the row
    # compiler signals unsupported nodes).  With ctx.vectorized off they
    # construct exactly what the seed planner constructed.

    def _filter(self, child: Operator, expr: A.Expr) -> Operator:
        if self.ctx.vectorized and supports_morsels(child):
            try:
                vec_fn = VecExprCompiler(child.scope, self.ctx.lookup_maps).compile(expr)
            except PlanError:
                pass
            else:
                return VFilter(self.ctx, child, vec_fn)
        predicate = ExprCompiler(child.scope, self.ctx.lookup_maps).compile(expr)
        return Filter(self.ctx, child, predicate)

    def _project(
        self, child: Operator, items: list[A.SelectItem], output_scope: Scope
    ) -> Operator:
        if self.ctx.vectorized and supports_morsels(child):
            try:
                vec_fns = [
                    VecExprCompiler(child.scope, self.ctx.lookup_maps).compile(i.expr)
                    for i in items
                ]
            except PlanError:
                pass
            else:
                return VProject(self.ctx, child, vec_fns, output_scope)
        compiler = ExprCompiler(child.scope, self.ctx.lookup_maps)
        fns = [compiler.compile(item.expr) for item in items]
        return Project(self.ctx, child, fns, output_scope)

    def _hash_join(
        self,
        left: Operator,
        right: Operator,
        keys_left: list[A.Expr],
        keys_right: list[A.Expr],
        kind: str = "inner",
        residual_fn=None,
    ) -> Operator:
        # The full oblivious tier keeps the row HashJoin: its bitonic
        # sort-network variant is what makes the comparison schedule
        # predicate-independent, and it consumes a vectorized subtree
        # through rows() without losing that property.
        if (
            self.ctx.vectorized
            and not self.ctx.oblivious
            and supports_morsels(left)
            and supports_morsels(right)
        ):
            try:
                left_vfns = [
                    VecExprCompiler(left.scope, self.ctx.lookup_maps).compile(k)
                    for k in keys_left
                ]
                right_vfns = [
                    VecExprCompiler(right.scope, self.ctx.lookup_maps).compile(k)
                    for k in keys_right
                ]
            except PlanError:
                pass
            else:
                return VHashJoin(
                    self.ctx, left, right, left_vfns, right_vfns,
                    kind=kind, residual=residual_fn,
                )
        left_fns = [ExprCompiler(left.scope).compile(k) for k in keys_left]
        right_fns = [ExprCompiler(right.scope).compile(k) for k in keys_right]
        return HashJoin(
            self.ctx, left, right, left_fns, right_fns, kind=kind, residual=residual_fn
        )

    def _aggregate(
        self,
        child: Operator,
        group_exprs: list[A.Expr],
        agg_calls: list[A.AggCall],
        agg_scope: Scope,
    ) -> Operator:
        # Grouped aggregation under the full oblivious tier stays on the
        # row operator (sort-based oblivious grouping); a vectorized
        # child still feeds it through rows().
        if (
            self.ctx.vectorized
            and supports_morsels(child)
            and not (self.ctx.oblivious and group_exprs)
        ):
            try:
                vec_compiler = VecExprCompiler(child.scope, self.ctx.lookup_maps)
                vec_group = [vec_compiler.compile(g) for g in group_exprs]
                vec_specs = []
                for call in agg_calls:
                    if call.arg is None:
                        vec_specs.append(VecAggSpec("count_star", None, False))
                    else:
                        vec_specs.append(
                            VecAggSpec(
                                call.name, vec_compiler.compile(call.arg), call.distinct
                            )
                        )
            except PlanError:
                pass
            else:
                return VAggregate(self.ctx, child, vec_group, vec_specs, agg_scope)
        input_compiler = ExprCompiler(child.scope, self.ctx.lookup_maps)
        group_fns = [input_compiler.compile(g) for g in group_exprs]
        specs: list[AggSpec] = []
        for call in agg_calls:
            if call.arg is None:
                specs.append(AggSpec("count_star", None, False))
            else:
                specs.append(
                    AggSpec(call.name, input_compiler.compile(call.arg), call.distinct)
                )
        return Aggregate(self.ctx, child, group_fns, specs, agg_scope)

    # ------------------------------------------------------------------
    # FROM + WHERE
    # ------------------------------------------------------------------

    def _plan_from_item(self, item, outer_scope: Scope | None) -> _FromItem:
        if isinstance(item, A.TableRef):
            scan_cls = VSeqScan if self.ctx.vectorized else SeqScan
            return _FromItem(item.binding, scan_cls(self.ctx, self.store, item.name, item.binding))
        if isinstance(item, A.SubqueryRef):
            sub_op = self.plan_select(item.select, outer_scope)
            names = self.output_names(item.select)
            rows = list(sub_op.rows())
            scope = Scope([(item.alias, name) for name in names])
            return _FromItem(item.alias, RowsSource(self.ctx, rows, scope))
        raise PlanError(f"unsupported FROM item {type(item).__name__}")

    def _plan_from_where(self, select: A.Select, outer_scope: Scope | None) -> Operator:
        if not select.from_items:
            # SELECT without FROM: single empty row.
            scope = Scope([])
            return RowsSource(self.ctx, [()], scope)

        joined_ops = [self._plan_from_item(fi, outer_scope) for fi in select.from_items]

        # Explicit INNER joins fold into the FROM-item list: their ON
        # conjuncts classify exactly like WHERE conjuncts.  LEFT OUTER
        # joins keep their semantics and apply after the inner-join tree.
        where_conjuncts = conjuncts_of(select.where)
        left_joins: list[A.Join] = []
        for join in select.joins:
            if join.kind == "LEFT":
                left_joins.append(join)
            else:
                joined_ops.append(self._plan_from_item(join.right, outer_scope))
                where_conjuncts.extend(conjuncts_of(join.on))

        # Split WHERE into conjunct classes.
        push_filters: dict[int, list[A.Expr]] = {}
        join_edges: list[tuple[int, int, A.Expr, A.Expr]] = []
        residuals: list[A.Expr] = []
        subquery_conjuncts: list[A.Expr] = []

        for conjunct in where_conjuncts:
            if contains_subquery(conjunct):
                subquery_conjuncts.append(conjunct)
                continue
            target = None
            for i in range(len(joined_ops)):
                if _compilable(conjunct, joined_ops[i].op.scope):
                    target = i
                    break
            if target is not None:
                push_filters.setdefault(target, []).append(conjunct)
                continue
            edge = self._as_join_edge(conjunct, joined_ops)
            if edge is not None:
                join_edges.append(edge)
            else:
                residuals.append(conjunct)

        # Push single-item filters below the joins.  When the query runs
        # with skip-scans on (and the store keeps synopses), additionally
        # lower the sargable conjuncts into a zone-map pruning predicate
        # on the scan itself.
        prune = self.ctx.prune_scans and hasattr(self.store, "zone_maps")
        for i, conjs in push_filters.items():
            op = joined_ops[i].op
            if prune and isinstance(op, SeqScan):
                schema = self.store.catalog.table(op.table_name)
                op.pruning = extract_pruning(
                    conjs, op.scope, [t for _, t in schema.columns]
                )
            joined_ops[i] = _FromItem(
                joined_ops[i].binding, self._filter(op, and_together(conjs))
            )

        # Greedy join ordering over the equality edge graph.
        tree = self._order_joins(joined_ops, join_edges)

        # LEFT OUTER joins.
        for join in left_joins:
            right = self._plan_from_item(join.right, outer_scope)
            tree = self._apply_explicit_join(tree, right, join)

        # Residual multi-table predicates (after outer joins so they may
        # reference outer-join columns).
        if residuals:
            tree = self._filter(tree, and_together(residuals))

        # Subquery conjuncts: decorrelate into semi joins / lookups / sets.
        for conjunct in subquery_conjuncts:
            tree = self._apply_subquery_conjunct(conjunct, tree)

        return tree

    # -- join edges -----------------------------------------------------

    def _as_join_edge(self, conjunct: A.Expr, items: list[_FromItem]):
        if not (isinstance(conjunct, A.Binary) and conjunct.op == "="):
            return None
        for i in range(len(items)):
            for j in range(len(items)):
                if i == j:
                    continue
                if _compilable(conjunct.left, items[i].op.scope) and _compilable(
                    conjunct.right, items[j].op.scope
                ):
                    return (i, j, conjunct.left, conjunct.right)
        return None

    def _order_joins(
        self, items: list[_FromItem], edges: list[tuple[int, int, A.Expr, A.Expr]]
    ) -> Operator:
        remaining = set(range(len(items)))
        joined = {0}
        remaining.discard(0)
        tree = items[0].op
        edge_pool = list(edges)

        while remaining:
            # Find a candidate connected to the joined set by >=1 edge.
            best = None
            for candidate in sorted(remaining):
                keys_left: list[A.Expr] = []
                keys_right: list[A.Expr] = []
                used: list[int] = []
                for idx, (i, j, le, re_) in enumerate(edge_pool):
                    if i in joined and j == candidate:
                        keys_left.append(le)
                        keys_right.append(re_)
                        used.append(idx)
                    elif j in joined and i == candidate:
                        keys_left.append(re_)
                        keys_right.append(le)
                        used.append(idx)
                if keys_left:
                    best = (candidate, keys_left, keys_right, used)
                    break
            if best is None:
                # Cartesian product fallback.
                candidate = sorted(remaining)[0]
                tree = NestedLoopJoin(self.ctx, tree, items[candidate].op, None)
                joined.add(candidate)
                remaining.discard(candidate)
                continue
            candidate, keys_left, keys_right, used = best
            right_op = items[candidate].op
            tree = self._hash_join(tree, right_op, keys_left, keys_right)
            for idx in sorted(used, reverse=True):
                edge_pool.pop(idx)
            joined.add(candidate)
            remaining.discard(candidate)

        # Any leftover edges (between already-joined items) become filters.
        leftover = [A.Binary("=", le, re_) for (_, _, le, re_) in edge_pool]
        if leftover:
            tree = self._filter(tree, and_together(leftover))
        return tree

    def _apply_explicit_join(self, tree: Operator, right: _FromItem, join: A.Join) -> Operator:
        kind = "left" if join.kind == "LEFT" else "inner"
        on_conjuncts = conjuncts_of(join.on)
        keys_left: list[A.Expr] = []
        keys_right: list[A.Expr] = []
        residual: list[A.Expr] = []
        for conjunct in on_conjuncts:
            if isinstance(conjunct, A.Binary) and conjunct.op == "=":
                if _compilable(conjunct.left, tree.scope) and _compilable(
                    conjunct.right, right.op.scope
                ):
                    keys_left.append(conjunct.left)
                    keys_right.append(conjunct.right)
                    continue
                if _compilable(conjunct.right, tree.scope) and _compilable(
                    conjunct.left, right.op.scope
                ):
                    keys_left.append(conjunct.right)
                    keys_right.append(conjunct.left)
                    continue
            residual.append(conjunct)
        combined_scope = tree.scope.merged_with(right.op.scope)
        residual_fn = (
            ExprCompiler(combined_scope).compile(and_together(residual))
            if residual
            else None
        )
        if keys_left:
            return self._hash_join(
                tree, right.op, keys_left, keys_right, kind=kind, residual_fn=residual_fn
            )
        condition = residual_fn
        return NestedLoopJoin(self.ctx, tree, right.op, condition, kind=kind)

    # ------------------------------------------------------------------
    # Subquery handling
    # ------------------------------------------------------------------

    def _apply_subquery_conjunct(self, conjunct: A.Expr, tree: Operator) -> Operator:
        # NOT EXISTS (...) arrives as Unary(NOT, Exists).
        if isinstance(conjunct, A.Unary) and conjunct.op == "NOT" and isinstance(
            conjunct.operand, A.Exists
        ):
            return self._plan_exists(conjunct.operand.subquery, tree, anti=True)
        if isinstance(conjunct, A.Exists):
            return self._plan_exists(
                conjunct.subquery, tree, anti=conjunct.negated
            )
        if isinstance(conjunct, A.InSubquery):
            return self._plan_in_subquery(conjunct, tree)
        # Scalar subqueries inside a larger predicate.
        rewritten = self._fold_scalar_subqueries(conjunct, tree)
        return self._filter(tree, rewritten)

    def _split_correlation(
        self, sub: A.Select, inner_scope: Scope, outer_scope: Scope
    ) -> tuple[list[A.Expr], list[tuple[A.Expr, A.Expr]], list[A.Expr]]:
        """Partition the subquery WHERE into (local, equi-correlated, residual).

        equi-correlated entries are (outer_expr, inner_expr) pairs from
        ``inner_col = outer_col`` conjuncts; residual entries reference
        both scopes non-equally and evaluate over outer ++ inner rows.
        """
        local: list[A.Expr] = []
        corr: list[tuple[A.Expr, A.Expr]] = []
        residual: list[A.Expr] = []
        for conjunct in conjuncts_of(sub.where):
            if not contains_subquery(conjunct) and _compilable(conjunct, inner_scope):
                local.append(conjunct)
                continue
            if isinstance(conjunct, A.Binary) and conjunct.op == "=":
                left, right = conjunct.left, conjunct.right
                if _compilable(left, inner_scope) and _compilable(right, outer_scope):
                    corr.append((right, left))
                    continue
                if _compilable(right, inner_scope) and _compilable(left, outer_scope):
                    corr.append((left, right))
                    continue
            residual.append(conjunct)
        return local, corr, residual

    def _plan_exists(self, sub: A.Select, tree: Operator, anti: bool) -> Operator:
        inner_tree = self._plan_inner_raw(sub, tree.scope)
        inner_op, local, corr, residual = inner_tree
        if not corr:
            # Uncorrelated EXISTS: evaluate once.
            if residual:
                raise PlanError("unsupported correlation in EXISTS subquery")
            has_rows = next(iter(inner_op.rows()), None) is not None
            keep = (not has_rows) if anti else has_rows
            if keep:
                return tree
            return RowsSource(self.ctx, [], tree.scope)
        outer_keys = [ExprCompiler(tree.scope).compile(o) for o, _ in corr]
        inner_keys = [ExprCompiler(inner_op.scope).compile(i) for _, i in corr]
        residual_fn = None
        if residual:
            combined = tree.scope.merged_with(inner_op.scope)
            residual_fn = ExprCompiler(combined, self.ctx.lookup_maps).compile(
                and_together(residual)
            )
        return HashSemiJoin(
            self.ctx,
            tree,
            inner_op,
            outer_keys,
            inner_keys,
            anti=anti,
            residual=residual_fn,
        )

    def _plan_inner_raw(self, sub: A.Select, outer_scope: Scope):
        """Plan a subquery's FROM+local WHERE, separating correlation.

        Returns (operator, local_conjuncts, corr_pairs, residual_conjuncts)
        where the operator already has the local filters and internal joins
        applied.
        """
        # Plan the FROM items to learn the inner scope.
        items = [self._plan_from_item(fi, outer_scope) for fi in sub.from_items]
        if not items:
            raise PlanError("subquery without FROM is not supported here")
        merged = items[0].op.scope
        for item in items[1:]:
            merged = merged.merged_with(item.op.scope)
        for join in sub.joins:
            raise PlanError("explicit JOIN inside correlated subqueries is unsupported")
        local, corr, residual = self._split_correlation(sub, merged, outer_scope)
        # Re-plan with only the local WHERE.
        stripped = replace(sub, where=and_together(local), joins=())
        inner_op = self._plan_from_where(stripped, outer_scope)
        return inner_op, local, corr, residual

    def _plan_in_subquery(self, conjunct: A.InSubquery, tree: Operator) -> Operator:
        sub = conjunct.subquery
        if len(sub.items) != 1 or isinstance(sub.items[0].expr, A.Star):
            raise PlanError("IN subquery must select exactly one expression")
        if self._is_correlated(sub, tree.scope):
            inner_op, local, corr, residual = self._plan_inner_raw(sub, tree.scope)
            if contains_aggregate(sub.items[0].expr) or sub.group_by:
                raise PlanError("correlated IN with aggregation is unsupported")
            item_fn_expr = sub.items[0].expr
            outer_keys = [ExprCompiler(tree.scope).compile(conjunct.operand)]
            inner_keys = [ExprCompiler(inner_op.scope).compile(item_fn_expr)]
            for outer_e, inner_e in corr:
                outer_keys.append(ExprCompiler(tree.scope).compile(outer_e))
                inner_keys.append(ExprCompiler(inner_op.scope).compile(inner_e))
            residual_fn = None
            if residual:
                combined = tree.scope.merged_with(inner_op.scope)
                residual_fn = ExprCompiler(combined, self.ctx.lookup_maps).compile(
                    and_together(residual)
                )
            return HashSemiJoin(
                self.ctx,
                tree,
                inner_op,
                outer_keys,
                inner_keys,
                anti=conjunct.negated,
                residual=residual_fn,
                null_aware=conjunct.negated,
            )
        # Uncorrelated: evaluate the subquery once into a set.
        sub_op = self.plan_select(sub)
        values = set()
        has_null = False
        for row in sub_op.rows():
            if row[0] is None:
                has_null = True
            else:
                values.add(row[0])
        in_set = A.InSet(conjunct.operand, frozenset(values), has_null, conjunct.negated)
        return self._filter(tree, in_set)

    def _is_correlated(self, sub: A.Select, outer_scope: Scope) -> bool:
        """Heuristic: any WHERE column that does not resolve locally."""
        local_bindings = {fi.binding for fi in sub.from_items}
        local_columns: set[str] = set()
        for fi in sub.from_items:
            if isinstance(fi, A.TableRef) and self.store.catalog.has_table(fi.name):
                local_columns.update(self.store.catalog.table(fi.name).column_names)
        for conjunct in conjuncts_of(sub.where):
            for col in column_refs(conjunct):
                if col.table is not None:
                    if col.table not in local_bindings:
                        return True
                elif col.name not in local_columns:
                    return True
        return False

    def _fold_scalar_subqueries(self, expr: A.Expr, tree: Operator) -> A.Expr:
        """Replace ScalarSubquery nodes with literals or map lookups."""

        def mapping(node: A.Expr):
            if not isinstance(node, A.ScalarSubquery):
                return None
            sub = node.subquery
            if not self._is_correlated(sub, tree.scope):
                sub_op = self.plan_select(sub)
                rows = list(sub_op.rows())
                if len(rows) > 1:
                    raise PlanError("scalar subquery returned more than one row")
                value = rows[0][0] if rows else None
                return A.Literal(value)
            return self._decorrelate_scalar_agg(sub, tree)

        return rewrite_expr(expr, mapping)

    def _decorrelate_scalar_agg(self, sub: A.Select, tree: Operator) -> A.Expr:
        """Correlated scalar aggregate → GROUP BY correlation keys + lookup.

        Requires a single aggregate select item and pure equality
        correlation (the TPC-H Q2/Q17 shape).
        """
        if len(sub.items) != 1 or not contains_aggregate(sub.items[0].expr):
            raise PlanError(
                "only correlated scalar *aggregate* subqueries can be decorrelated"
            )
        inner_op, local, corr, residual = self._plan_inner_raw(sub, tree.scope)
        if residual:
            raise PlanError(
                "correlated scalar aggregate with non-equality correlation is unsupported"
            )
        if not corr:
            raise PlanError("scalar subquery classified correlated but no keys found")

        # Build: SELECT corr_inner..., <agg> FROM ... GROUP BY corr_inner.
        inner_items = tuple(
            A.SelectItem(inner_e, alias=f"__k{i}") for i, (_, inner_e) in enumerate(corr)
        ) + (sub.items[0],)
        grouped = replace(
            sub,
            items=inner_items,
            where=and_together(local),
            group_by=tuple(inner_e for _, inner_e in corr),
            joins=(),
        )
        grouped_op = self.plan_select(grouped)
        mapping_dict: dict = {}
        nkeys = len(corr)
        for row in grouped_op.rows():
            key = row[0] if nkeys == 1 else tuple(row[:nkeys])
            mapping_dict[key] = row[nkeys]
        mapping_id = len(self.ctx.lookup_maps)
        self.ctx.lookup_maps.append(mapping_dict)
        return A.MapLookup(tuple(outer_e for outer_e, _ in corr), mapping_id)

    # ------------------------------------------------------------------
    # Projection / aggregation / ordering
    # ------------------------------------------------------------------

    def _expand_stars(self, select: A.Select, scope: Scope) -> list[A.SelectItem]:
        items: list[A.SelectItem] = []
        for item in select.items:
            if isinstance(item.expr, A.Star):
                for binding, name in scope.columns:
                    if item.expr.table is None or binding == item.expr.table:
                        items.append(A.SelectItem(A.Column(name, binding)))
            else:
                items.append(item)
        return items

    def _plan_projection(self, select: A.Select, tree: Operator) -> Operator:
        items = self._expand_stars(select, tree.scope)
        # Fold scalar subqueries appearing in the projection/having.
        items = [
            A.SelectItem(self._fold_scalar_subqueries(i.expr, tree), i.alias)
            for i in items
        ]
        having = (
            self._fold_scalar_subqueries(select.having, tree)
            if select.having is not None
            else None
        )

        has_aggregation = bool(select.group_by) or any(
            contains_aggregate(i.expr) for i in items
        ) or (having is not None and contains_aggregate(having))

        output_names: list[str] = []
        for index, item in enumerate(items):
            output_names.append(self._item_name(item, index))
        output_scope = Scope([(None, name) for name in output_names])

        order_exprs = [o.expr for o in select.order_by]
        if has_aggregation:
            tree, items, having, agg_mapping = self._plan_aggregate(
                select, tree, items, having
            )
            if having is not None:
                tree = self._filter(tree, having)
            # ORDER BY under aggregation may mix output aliases with group
            # expressions (e.g. "ORDER BY n DESC, d1.name"): rewrite group
            # expressions / aggregates to their aggregate-output columns,
            # then map projected expressions to their output names.
            def output_mapping(node: A.Expr):
                for item, name in zip(items, output_names):
                    if node == item.expr:
                        return A.Column(name)
                return None

            order_exprs = [
                rewrite_expr(rewrite_expr(e, agg_mapping), output_mapping)
                for e in order_exprs
            ]
        elif having is not None:
            raise PlanError("HAVING without aggregation")

        # ORDER BY: try the output scope first, falling back to the input
        # scope (sorting before projection).
        order_stage = None  # 'post' or 'pre'
        if select.order_by:
            if all(_compilable(e, output_scope) for e in order_exprs):
                order_stage = "post"
            elif not has_aggregation and all(
                _compilable(e, tree.scope) for e in order_exprs
            ):
                order_stage = "pre"
            else:
                raise PlanError("ORDER BY expression not resolvable")

        if order_stage == "pre":
            key_fns = [
                ExprCompiler(tree.scope, self.ctx.lookup_maps).compile(e)
                for e in order_exprs
            ]
            tree = Sort(self.ctx, tree, key_fns, [o.descending for o in select.order_by])

        tree = self._project(tree, items, output_scope)

        if select.distinct:
            tree = Distinct(self.ctx, tree)

        if order_stage == "post":
            out_compiler = ExprCompiler(output_scope, self.ctx.lookup_maps)
            key_fns = [out_compiler.compile(e) for e in order_exprs]
            tree = Sort(self.ctx, tree, key_fns, [o.descending for o in select.order_by])

        if select.limit is not None:
            tree = Limit(self.ctx, tree, select.limit)
        return tree

    def _plan_aggregate(
        self,
        select: A.Select,
        tree: Operator,
        items: list[A.SelectItem],
        having: A.Expr | None,
    ):
        group_exprs = list(select.group_by)
        # Collect every aggregate call (deduplicated structurally).
        agg_calls: list[A.AggCall] = []

        def collect(expr: A.Expr) -> None:
            for node in walk_expr(expr):
                if isinstance(node, A.AggCall) and node not in agg_calls:
                    agg_calls.append(node)

        for item in items:
            collect(item.expr)
        if having is not None:
            collect(having)
        for order in select.order_by:
            collect(order.expr)

        agg_scope = Scope(
            [(None, f"__g{i}") for i in range(len(group_exprs))]
            + [(None, f"__a{i}") for i in range(len(agg_calls))]
        )
        agg_op = self._aggregate(tree, group_exprs, agg_calls, agg_scope)

        # Rewrite projection/having over the aggregate output.
        def agg_mapping(node: A.Expr):
            for i, g in enumerate(group_exprs):
                if node == g:
                    return A.Column(f"__g{i}")
            if isinstance(node, A.AggCall):
                return A.Column(f"__a{agg_calls.index(node)}")
            return None

        new_items = [
            A.SelectItem(rewrite_expr(item.expr, agg_mapping), item.alias)
            for item in items
        ]
        new_having = rewrite_expr(having, agg_mapping) if having is not None else None

        # Validate: no stray input columns survived the rewrite.
        for item in new_items:
            for col in column_refs(item.expr):
                if agg_scope.try_resolve(col.table, col.name) is None:
                    raise PlanError(
                        f"column {col.to_sql()} must appear in GROUP BY or an aggregate"
                    )
        return agg_op, new_items, new_having, agg_mapping
