"""Differential testing: our engine vs SQLite on identical data.

SQLite (stdlib) acts as the oracle.  Dates are stored as ISO strings on
the SQLite side and converted for comparison.  Floating-point results are
compared with a tolerance; row order is ignored unless the query has a
total ORDER BY.
"""

from __future__ import annotations

import datetime
import math
import sqlite3

import pytest

from repro.crypto import Rng
from repro.sql import ExecOptions, memory_database

ROWS_T = 180
ROWS_U = 60


@pytest.fixture(scope="module")
def engines():
    rng = Rng("differential")
    ours = memory_database()
    oracle = sqlite3.connect(":memory:")

    ours.execute("CREATE TABLE t (id INTEGER, grp INTEGER, val REAL, tag TEXT, d DATE)")
    oracle.execute("CREATE TABLE t (id INTEGER, grp INTEGER, val REAL, tag TEXT, d TEXT)")
    ours.execute("CREATE TABLE u (uid INTEGER, grp INTEGER, label TEXT)")
    oracle.execute("CREATE TABLE u (uid INTEGER, grp INTEGER, label TEXT)")

    tags = ["alpha", "beta", "gamma", "delta", None]
    base = datetime.date(2020, 1, 1)
    t_rows = []
    for i in range(ROWS_T):
        grp = rng.randint(0, 9) if rng.random() > 0.05 else None
        val = round(rng.random() * 100, 2) if rng.random() > 0.1 else None
        tag = tags[rng.randint(0, 4)]
        day = base + datetime.timedelta(days=rng.randint(0, 700))
        t_rows.append((i, grp, val, tag, day))
    u_rows = []
    for i in range(ROWS_U):
        u_rows.append((i, rng.randint(0, 12), f"label-{rng.randint(0, 5)}"))

    ours.store.insert_rows("t", t_rows)
    ours.store.insert_rows("u", u_rows)
    oracle.executemany(
        "INSERT INTO t VALUES (?,?,?,?,?)",
        [(a, b, c, d, e.isoformat()) for a, b, c, d, e in t_rows],
    )
    oracle.executemany("INSERT INTO u VALUES (?,?,?)", u_rows)
    return ours, oracle


def _normalize(value):
    if isinstance(value, datetime.date):
        return value.isoformat()
    if isinstance(value, float):
        return round(value, 6)
    return value


def _compare(ours_rows, oracle_rows, ordered):
    a = [tuple(_normalize(v) for v in row) for row in ours_rows]
    b = [tuple(_normalize(v) for v in row) for row in oracle_rows]
    if not ordered:
        a, b = sorted(a, key=repr), sorted(b, key=repr)
    assert len(a) == len(b), f"row count {len(a)} vs oracle {len(b)}"
    for row_a, row_b in zip(a, b):
        assert len(row_a) == len(row_b)
        for x, y in zip(row_a, row_b):
            if isinstance(x, float) and isinstance(y, (int, float)):
                assert math.isclose(x, float(y), rel_tol=1e-9, abs_tol=1e-9), (x, y)
            else:
                assert x == y, (row_a, row_b)


QUERIES = [
    # (sql for ours, sql for sqlite (None = same), has total order)
    ("SELECT id, val FROM t WHERE val > 50", None, False),
    ("SELECT id FROM t WHERE val IS NULL", None, False),
    ("SELECT id FROM t WHERE grp = 3 AND val <= 40.5", None, False),
    ("SELECT id FROM t WHERE tag LIKE 'a%' OR tag LIKE '%ta'", None, False),
    ("SELECT id FROM t WHERE tag NOT LIKE '%a%' AND tag IS NOT NULL", None, False),
    ("SELECT id FROM t WHERE val BETWEEN 20 AND 30", None, False),
    ("SELECT id FROM t WHERE grp IN (1, 3, 5)", None, False),
    ("SELECT id FROM t WHERE grp NOT IN (1, 3, 5)", None, False),
    ("SELECT count(*), count(val), count(grp) FROM t", None, False),
    ("SELECT sum(val), min(val), max(val) FROM t", None, False),
    ("SELECT avg(val) FROM t WHERE grp = 2", None, False),
    ("SELECT grp, count(*) FROM t GROUP BY grp", None, False),
    ("SELECT grp, sum(val) FROM t WHERE val IS NOT NULL GROUP BY grp", None, False),
    ("SELECT grp, count(*) FROM t GROUP BY grp HAVING count(*) > 15", None, False),
    ("SELECT tag, count(DISTINCT grp) FROM t GROUP BY tag", None, False),
    ("SELECT DISTINCT grp FROM t", None, False),
    ("SELECT DISTINCT tag, grp FROM t WHERE id < 50", None, False),
    (
        "SELECT id, val FROM t WHERE val IS NOT NULL ORDER BY val DESC, id LIMIT 10",
        None,
        True,
    ),
    ("SELECT id FROM t ORDER BY id LIMIT 5", None, True),
    (
        "SELECT t.id, u.uid FROM t, u WHERE t.grp = u.grp AND t.val > 80",
        None,
        False,
    ),
    (
        "SELECT u.label, count(t.id) FROM u LEFT OUTER JOIN t ON u.grp = t.grp GROUP BY u.label",
        None,
        False,
    ),
    (
        "SELECT a.id, b.id FROM t a, t b WHERE a.grp = b.grp AND a.id < b.id AND a.val > 95",
        None,
        False,
    ),
    (
        "SELECT id FROM t WHERE grp IN (SELECT grp FROM u WHERE label = 'label-1')",
        None,
        False,
    ),
    (
        "SELECT uid FROM u WHERE grp NOT IN (SELECT grp FROM t WHERE grp IS NOT NULL)",
        None,
        False,
    ),
    (
        "SELECT uid FROM u WHERE EXISTS (SELECT 1 FROM t WHERE t.grp = u.grp AND t.val > 90)",
        None,
        False,
    ),
    (
        "SELECT uid FROM u WHERE NOT EXISTS (SELECT 1 FROM t WHERE t.grp = u.grp)",
        None,
        False,
    ),
    (
        "SELECT id FROM t WHERE val = (SELECT max(val) FROM t)",
        None,
        False,
    ),
    (
        "SELECT id FROM t outer_t WHERE val > "
        "(SELECT avg(val) FROM t WHERE grp = outer_t.grp) AND grp IS NOT NULL",
        None,
        False,
    ),
    (
        "SELECT g, n FROM (SELECT grp AS g, count(*) AS n FROM t GROUP BY grp) sub WHERE n > 10",
        None,
        False,
    ),
    (
        "SELECT CASE WHEN val > 50 THEN 'high' WHEN val > 20 THEN 'mid' ELSE 'low' END, count(*) "
        "FROM t WHERE val IS NOT NULL GROUP BY CASE WHEN val > 50 THEN 'high' WHEN val > 20 THEN 'mid' ELSE 'low' END",
        None,
        False,
    ),
    (
        "SELECT id FROM t WHERE d >= DATE '2020-06-01' AND d < DATE '2021-01-01'",
        "SELECT id FROM t WHERE d >= '2020-06-01' AND d < '2021-01-01'",
        False,
    ),
    (
        "SELECT sum(val * 2 - 1), sum(val) * 2 FROM t WHERE val IS NOT NULL",
        None,
        False,
    ),
    ("SELECT id, -val FROM t WHERE val > 99", None, False),
    ("SELECT tag || '-suffix' FROM t WHERE id < 10", None, False),
    ("SELECT abs(val - 50) FROM t WHERE id < 20 AND val IS NOT NULL", None, False),
    ("SELECT grp % 3, count(*) FROM t WHERE grp IS NOT NULL GROUP BY grp % 3", None, False),
]


@pytest.mark.parametrize("ours_sql,oracle_sql,ordered", QUERIES, ids=[q[0][:60] for q in QUERIES])
def test_against_sqlite(engines, ours_sql, oracle_sql, ordered):
    ours, oracle = engines
    ours_rows = ours.execute(ours_sql).rows
    oracle_rows = oracle.execute(oracle_sql or ours_sql).fetchall()
    _compare(ours_rows, oracle_rows, ordered)


def test_randomized_filter_queries(engines):
    """Sweep generated single-table filters against the oracle."""
    ours, oracle = engines
    rng = Rng("sweep")
    comparators = ["<", "<=", "=", ">", ">=", "<>"]
    for _ in range(60):
        column = rng.choice(["id", "grp", "val"])
        op = rng.choice(comparators)
        threshold = rng.randint(0, 100)
        sql = f"SELECT id FROM t WHERE {column} {op} {threshold}"
        _compare(ours.execute(sql).rows, oracle.execute(sql).fetchall(), False)


def test_randomized_group_queries(engines):
    ours, oracle = engines
    rng = Rng("sweep2")
    aggs = ["count(*)", "sum(val)", "min(val)", "max(val)", "count(val)"]
    for _ in range(30):
        agg = rng.choice(aggs)
        lo = rng.randint(0, 80)
        sql = f"SELECT grp, {agg} FROM t WHERE id >= {lo} GROUP BY grp"
        _compare(ours.execute(sql).rows, oracle.execute(sql).fetchall(), False)


# ---------------------------------------------------------------------------
# Vectorized execution (ISSUE 9): the morsel path is a pure optimization
# ---------------------------------------------------------------------------


def _row_and_vectorized(db, sql):
    """Run *sql* under both execution models."""
    row = db.execute(sql).rows
    vec = db.execute(sql, options=ExecOptions(vectorized=True)).rows
    return row, vec


def test_randomized_vectorized_parity(engines):
    """Property: batch execution matches the row path on random
    TPC-H-shaped queries (arithmetic scans, grouped aggregates, and
    join-aggregates in the mold of Q6 / Q1 / Q3)."""
    ours, oracle = engines
    rng = Rng("vector-sweep")
    comparators = ["<", "<=", "=", ">", ">=", "<>"]
    aggs = ["count(*)", "sum(val)", "min(val)", "max(val)", "avg(val)", "count(tag)"]
    for _ in range(40):
        conjuncts = [(rng.choice(["id", "grp", "val"]), rng.choice(comparators),
                      rng.randint(0, 100))]
        if rng.randint(0, 1):
            conjuncts.append((rng.choice(["id", "grp", "val"]), ">=", rng.randint(0, 60)))

        def pred(prefix=""):
            return " AND ".join(f"{prefix}{c} {op} {v}" for c, op, v in conjuncts)

        shape = rng.randint(0, 2)
        if shape == 0:  # Q6-shaped arithmetic filter scan
            sql = f"SELECT id, val * 2 + grp FROM t WHERE {pred()}"
        elif shape == 1:  # Q1-shaped grouped aggregate
            sql = f"SELECT grp, {rng.choice(aggs)} FROM t WHERE {pred()} GROUP BY grp"
        else:  # Q3-shaped join + aggregate
            sql = (
                "SELECT u.label, count(*) FROM t, u "
                f"WHERE t.grp = u.grp AND {pred('t.')} GROUP BY u.label"
            )
        row_rows, vec_rows = _row_and_vectorized(ours, sql)
        assert sorted(vec_rows, key=repr) == sorted(row_rows, key=repr), sql
        if shape != 1:  # avg() NULL handling differs from SQLite's text affinity
            _compare(vec_rows, oracle.execute(sql).fetchall(), False)


def test_vectorized_rows_agree_across_configs(tiny_deployment):
    """With the knob on, all five configurations still return the row
    path's answer — vectorization changes the schedule, never the rows —
    and the vectorized counters actually accrue where execution runs."""
    from repro.core import RunConfig
    from repro.tpch import ALL_QUERIES

    for number in (3, 6):
        sql = ALL_QUERIES[number].sql
        reference = sorted(tiny_deployment.run_query(sql, "hons").rows)
        for config in ("hons", "hos", "vcs", "scs", "sos"):
            vec = tiny_deployment.run_query(
                sql, config, run_config=RunConfig(vectorized=True)
            )
            assert sorted(vec.rows) == reference, (number, config)
            batches = vec.host_meter.get("vector_batches") + vec.storage_meter.get(
                "vector_batches"
            )
            assert batches > 0, (number, config)
