"""Unit tests for the vectorized data plane and operators (ISSUE 9).

Covers the ``repro.sql.vector`` containers (morsels, validity bitmaps,
selection vectors, RecordBatch round trips), the lazy batch expression
semantics of ``repro.sql.vexec`` (AND/OR/CASE over sub-selections), the
engine-level row/vector parity and metering split, the host store's
shipped-batch stash (``batches_reused``), and the per-batch
``vector_eval`` telemetry markers.
"""

from __future__ import annotations

import pytest

from repro.errors import ExecutionError
from repro.sql import ast_nodes as A
from repro.sql import ExecOptions, memory_database
from repro.sql.expressions import Scope
from repro.sql.operators import ExecContext, RowsSource
from repro.sql.records import decode_batch
from repro.sql.values import sql_gt
from repro.sql.vector import (
    DEFAULT_MORSEL_ROWS,
    ColumnVector,
    Morsel,
    density_pct,
    morsels_from_rows,
    select_true,
)
from repro.sql.vexec import RowsToMorsels, VecExprCompiler
from repro.telemetry import SPAN_VECTOR_EVAL, RecordingTracer

VECTORIZED = ExecOptions(vectorized=True)

ROWS = [
    (1, 0, None, "alpha"),
    (2, 1, 2.5, "beta"),
    (3, 1, -4.0, None),
    (4, 2, 0.5, "gamma"),
]


def _database():
    db = memory_database()
    db.execute("CREATE TABLE t (id INTEGER, grp INTEGER, val REAL, tag TEXT)")
    for row in ROWS:
        db.execute(
            "INSERT INTO t VALUES (?, ?, ?, ?)",
            row,
        )
    return db


# ---------------------------------------------------------------------------
# Containers
# ---------------------------------------------------------------------------


class TestColumnVector:
    def test_validity_bitmap_is_lsb_first(self):
        column = ColumnVector([1, None, 3, None, None, 6, 7, 8, 9])
        assert column.null_count() == 3
        # Bits 0,2,5,6,7 set in byte 0; bit 8 (value 9) in byte 1.
        assert column.validity() == bytes([0b11100101, 0b00000001])

    def test_gather(self):
        column = ColumnVector(["a", "b", "c", "d"])
        assert column.gather([3, 1]) == ["d", "b"]


class TestMorsel:
    def test_row_round_trip_preserves_nulls(self):
        morsel = Morsel.from_rows(ROWS)
        assert morsel.width == 4
        assert morsel.row_count == 4
        assert morsel.to_rows() == ROWS

    def test_payload_round_trip_is_lossless(self):
        morsel = Morsel.from_rows(ROWS)
        payload = morsel.to_payload()
        assert decode_batch(payload) == ROWS
        again = Morsel.from_payload(payload)
        assert again.to_rows() == ROWS

    def test_zero_rows_need_explicit_width(self):
        with pytest.raises(ExecutionError):
            Morsel.from_rows([])
        empty = Morsel.from_rows([], width=3)
        assert empty.width == 3 and empty.row_count == 0

    def test_selection_narrows_without_copying(self):
        morsel = Morsel.from_rows(ROWS)
        narrowed = morsel.with_selection([1, 3])
        assert narrowed.columns is morsel.columns  # shared buffers
        assert narrowed.active_count == 2
        assert narrowed.to_rows() == [ROWS[1], ROWS[3]]
        assert morsel.selection is None  # original untouched

    def test_chunking_respects_batch_rows(self):
        rows = [(i,) for i in range(10)]
        morsels = list(morsels_from_rows(iter(rows), width=1, batch_rows=4))
        assert [m.row_count for m in morsels] == [4, 4, 2]
        assert [r for m in morsels for r in m.to_rows()] == rows
        assert DEFAULT_MORSEL_ROWS >= 1


class TestKernels:
    def test_select_true_uses_where_semantics(self):
        # Truthy non-NULL values qualify; NULL and FALSE do not — same
        # rule as the row path's is_true.
        flags = [True, False, None, 1, 0, "x"]
        assert select_true(flags, list(range(6))) == [0, 3, 5]

    def test_density_pct(self):
        assert density_pct(25, 100) == 25.0
        assert density_pct(1, 3) == 33.33
        assert density_pct(0, 0) == 0.0


# ---------------------------------------------------------------------------
# Lazy batch expression semantics
# ---------------------------------------------------------------------------


def _compile(expr):
    scope = Scope([("t", "a"), ("t", "b")])
    return VecExprCompiler(scope).compile(expr)


def _col(name):
    return A.Column(name=name, table="t")


class TestLazyEvaluation:
    """The batch compiler must evaluate exactly the rows the row compiler
    would — a type error the row path short-circuits past cannot surface."""

    # Row 0 hides an incomparable TEXT value behind a guard; an eager
    # kernel would raise ExecutionError evaluating it.
    MORSEL = Morsel.from_rows([(0, "boom"), (1, 5)])

    def test_premise_eager_evaluation_would_raise(self):
        with pytest.raises(ExecutionError):
            sql_gt("boom", 1)

    def test_and_short_circuits_over_subselection(self):
        fn = _compile(
            A.Binary(
                "AND",
                A.Binary("<>", _col("a"), A.Literal(0)),
                A.Binary(">", _col("b"), A.Literal(1)),
            )
        )
        assert fn(self.MORSEL, [0, 1]) == [False, True]

    def test_or_short_circuits_over_subselection(self):
        fn = _compile(
            A.Binary(
                "OR",
                A.Binary("=", _col("a"), A.Literal(0)),
                A.Binary(">", _col("b"), A.Literal(1)),
            )
        )
        assert fn(self.MORSEL, [0, 1]) == [True, True]

    def test_case_branches_evaluate_only_undecided_rows(self):
        fn = _compile(
            A.Case(
                whens=(
                    (A.Binary("=", _col("a"), A.Literal(0)), A.Literal(0)),
                ),
                default=A.Binary("+", _col("b"), A.Literal(1)),
            )
        )
        assert fn(self.MORSEL, [0, 1]) == [0, 6]


# ---------------------------------------------------------------------------
# Engine parity and metering
# ---------------------------------------------------------------------------

PARITY_QUERIES = [
    "SELECT id, val FROM t WHERE grp = 1",
    "SELECT grp, count(*), sum(val) FROM t GROUP BY grp ORDER BY grp",
    "SELECT a.id, b.id FROM t a, t b WHERE a.grp = b.grp AND a.id < b.id",
    "SELECT id FROM t WHERE tag LIKE '%a' OR val IS NULL",
    "SELECT count(*) FROM t WHERE grp <> 0 AND 10 / grp > 4",
]


class TestEngineParity:
    @pytest.mark.parametrize("sql", PARITY_QUERIES)
    def test_vectorized_matches_row_path(self, sql):
        row_db, vec_db = _database(), _database()
        assert sorted(vec_db.execute(sql, options=VECTORIZED).rows) == sorted(
            row_db.execute(sql).rows
        )

    def test_metering_is_split_by_execution_model(self):
        db = _database()
        before_scanned = db.meter.rows_scanned
        before_batches = db.meter.get("vector_batches")
        db.execute("SELECT id FROM t WHERE grp = 1", options=VECTORIZED)
        # Vectorized operators meter batches/values, never the row-path
        # counters — that split is what the cost model prices.
        assert db.meter.rows_scanned == before_scanned
        assert db.meter.get("vector_batches") > before_batches
        assert db.meter.get("vector_values") > 0

    def test_escape_hatch_restores_row_metering(self):
        # Options travel with the call: a vectorized statement leaves
        # nothing behind for the next, default one.
        db = _database()
        db.execute("SELECT id FROM t WHERE grp = 1", options=VECTORIZED)
        batches = db.meter.get("vector_batches")
        db.execute("SELECT id FROM t WHERE grp = 1")
        assert db.meter.rows_scanned == len(ROWS)
        assert db.meter.get("vector_batches") == batches

    def test_selection_density_accrues_on_filters(self):
        db = _database()
        db.execute("SELECT id FROM t WHERE grp = 1", options=VECTORIZED)  # 2 of 4 rows pass
        assert db.meter.get("selection_density_pct") == 50.0


# ---------------------------------------------------------------------------
# Shipped-batch stash (HostEngine.ingest_batch's fast path)
# ---------------------------------------------------------------------------


class TestBatchStash:
    def test_stash_is_served_at_original_boundaries(self):
        db = _database()
        store = db.store
        first = Morsel.from_rows(ROWS[:3])
        second = Morsel.from_rows(ROWS[3:])
        store.stash_morsel("t", first)
        store.stash_morsel("t", second)
        served = list(store.scan_morsels("t"))
        assert [m.row_count for m in served] == [3, 1]
        assert served[0] is first and served[1] is second
        assert db.meter.get("batches_reused") == 2

    def test_stale_stash_is_ignored(self):
        db = _database()
        store = db.store
        store.stash_morsel("t", Morsel.from_rows(ROWS[:2]))  # 2 != 4 rows
        served = list(store.scan_morsels("t"))
        assert [m.row_count for m in served] == [len(ROWS)]
        assert db.meter.get("batches_reused") == 0

    def test_replace_rows_invalidates_stash(self):
        db = _database()
        store = db.store
        store.stash_morsel("t", Morsel.from_rows(ROWS))
        db.execute("UPDATE t SET grp = 9 WHERE id = 1")
        served = list(store.scan_morsels("t"))
        assert db.meter.get("batches_reused") == 0
        assert sorted(r for m in served for r in m.to_rows())[0][1] == 9


# ---------------------------------------------------------------------------
# Telemetry markers and the row/morsel adapter
# ---------------------------------------------------------------------------


class TestVectorTelemetry:
    def test_vector_eval_events_per_operator_batch(self):
        db = _database()
        tracer = RecordingTracer()
        db.tracer = tracer
        with tracer.span("query"):
            db.execute("SELECT id, val FROM t WHERE grp = 1", options=VECTORIZED)
        events = [
            span
            for trace in tracer.traces
            for span in trace.spans
            if span.name == SPAN_VECTOR_EVAL
        ]
        operators = {event.attributes["operator"] for event in events}
        assert {"seq_scan", "filter", "project"} <= operators
        fltr = next(e for e in events if e.attributes["operator"] == "filter")
        assert fltr.attributes["rows_in"] == 4
        assert fltr.attributes["rows_out"] == 2

    def test_row_path_emits_no_vector_events(self):
        db = _database()
        tracer = RecordingTracer()
        db.tracer = tracer
        with tracer.span("query"):
            db.execute("SELECT id FROM t WHERE grp = 1")
        assert not [
            span
            for trace in tracer.traces
            for span in trace.spans
            if span.name == SPAN_VECTOR_EVAL
        ]


class TestRowsToMorsels:
    def test_adapter_chunks_row_operators(self):
        ctx = ExecContext()
        scope = Scope([("t", "id")])
        rows = [(i,) for i in range(7)]
        adapter = RowsToMorsels(ctx, RowsSource(ctx, rows, scope), batch_rows=3)
        morsels = list(adapter.morsels())
        assert [m.row_count for m in morsels] == [3, 3, 1]
        assert list(adapter.rows()) == rows
