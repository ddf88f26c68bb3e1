"""Zone-map skip-scans: synopses, pruning, authenticated persistence."""

from __future__ import annotations

import datetime
import random

import pytest

from repro.core import Deployment, RunConfig, register_client
from repro.crypto import Rng
from repro.errors import ExecutionError, FreshnessError, IntegrityError
from repro.sql.catalog import TableSchema
from repro.sql.engine import Database, ExecOptions
from repro.sql.stores import ZONEMAP_META_KEY, PagedStore
from repro.stats import (
    STATS_COUNTERS,
    PageSynopsis,
    PruningPredicate,
    TableZoneMaps,
    deserialize_zone_maps,
    serialize_zone_maps,
)
from repro.storage import BlockDevice, InMemoryAnchor, Pager, SecurePager

PRUNED = ExecOptions(zone_maps=True)


class TestPageSynopsis:
    def test_from_rows_bounds_and_nulls(self):
        rows = [(3, "b"), (None, "a"), (7, None), (5, "c")]
        syn = PageSynopsis.from_rows(rows, ["INTEGER", "TEXT"])
        assert syn.row_count == 4
        assert syn.entries[0] == (3, 7, 1)
        assert syn.entries[1] == ("a", "c", 1)

    def test_all_null_column(self):
        syn = PageSynopsis.from_rows([(None,), (None,)], ["INTEGER"])
        assert syn.entries[0] == (None, None, 2)

    def test_unorderable_mix_is_unprunable(self):
        # Decoded pages can hold a type mix the planner never promised
        # anything about — the synopsis must refuse, not guess.
        syn = PageSynopsis.from_rows([(1,), ("text",)], ["INTEGER"])
        assert syn.entries[0] is None

    def test_jsonable_roundtrip_with_dates(self):
        rows = [
            (1, datetime.date(1995, 6, 17)),
            (None, datetime.date(1992, 1, 2)),
        ]
        syn = PageSynopsis.from_rows(rows, ["INTEGER", "DATE"])
        back = PageSynopsis.from_jsonable(syn.to_jsonable(), ["INTEGER", "DATE"])
        assert back.row_count == syn.row_count
        assert back.entries == syn.entries
        assert isinstance(back.entries[1][0], datetime.date)

    def test_size_bytes_is_positive_and_stable(self):
        syn = PageSynopsis.from_rows([(1, "x")], ["INTEGER", "TEXT"])
        assert syn.size_bytes() > 0
        assert syn.size_bytes() == syn.size_bytes()


class TestTableZoneMaps:
    def test_rejects_unknown_types(self):
        with pytest.raises(ValueError):
            TableZoneMaps(["BLOB"])

    def test_covers_requires_exact_page_set(self):
        maps = TableZoneMaps(["INTEGER"])
        maps.set_page(1, PageSynopsis.from_rows([(1,)], ["INTEGER"]))
        maps.set_page(2, PageSynopsis.from_rows([(2,)], ["INTEGER"]))
        assert maps.covers([1, 2])
        assert not maps.covers([1])  # extra synopsis: stale
        assert not maps.covers([1, 2, 3])  # missing synopsis: stale
        maps.drop_page(2)
        assert maps.covers([1])

    def test_serialize_roundtrip(self):
        maps = TableZoneMaps(["INTEGER", "DATE"])
        maps.set_page(
            4,
            PageSynopsis.from_rows(
                [(1, datetime.date(2000, 1, 1)), (None, None)], ["INTEGER", "DATE"]
            ),
        )
        blob = serialize_zone_maps({"t": maps})
        back = deserialize_zone_maps(blob)
        assert back["t"].column_types == ["INTEGER", "DATE"]
        assert back["t"].pages[4].entries == maps.pages[4].entries
        # Canonical encoding: serializing the round-trip is a fixed point.
        assert serialize_zone_maps(back) == blob


def _syn(values, nulls=0, types=("INTEGER",)):
    rows = [(v,) for v in values] + [(None,)] * nulls
    return PageSynopsis.from_rows(rows, list(types))


class TestPruningPredicate:
    def test_cmp_lt(self):
        syn = _syn([10, 20, 30])
        assert not PruningPredicate([("cmp", 0, ("<", 10))]).page_may_match(syn)
        assert PruningPredicate([("cmp", 0, ("<", 11))]).page_may_match(syn)

    def test_cmp_le_gt_ge(self):
        syn = _syn([10, 20, 30])
        assert not PruningPredicate([("cmp", 0, ("<=", 9))]).page_may_match(syn)
        assert PruningPredicate([("cmp", 0, ("<=", 10))]).page_may_match(syn)
        assert not PruningPredicate([("cmp", 0, (">", 30))]).page_may_match(syn)
        assert PruningPredicate([("cmp", 0, (">", 29))]).page_may_match(syn)
        assert not PruningPredicate([("cmp", 0, (">=", 31))]).page_may_match(syn)
        assert PruningPredicate([("cmp", 0, (">=", 30))]).page_may_match(syn)

    def test_cmp_eq_uses_both_bounds(self):
        syn = _syn([10, 20, 30])
        assert not PruningPredicate([("cmp", 0, ("=", 9))]).page_may_match(syn)
        assert not PruningPredicate([("cmp", 0, ("=", 31))]).page_may_match(syn)
        assert PruningPredicate([("cmp", 0, ("=", 20))]).page_may_match(syn)

    def test_cmp_ne_skips_only_constant_pages(self):
        constant = _syn([7, 7, 7])
        varied = _syn([7, 8])
        assert not PruningPredicate([("cmp", 0, ("<>", 7))]).page_may_match(constant)
        assert PruningPredicate([("cmp", 0, ("<>", 7))]).page_may_match(varied)
        assert PruningPredicate([("cmp", 0, ("<>", 9))]).page_may_match(constant)

    def test_comparisons_skip_all_null_pages(self):
        all_null = _syn([], nulls=3)
        assert not PruningPredicate([("cmp", 0, ("<", 10**9))]).page_may_match(
            all_null
        )
        assert not PruningPredicate([("between", 0, (0, 10**9))]).page_may_match(
            all_null
        )
        assert not PruningPredicate([("in", 0, (1, 2, 3))]).page_may_match(all_null)

    def test_isnull_polarities(self):
        mixed = _syn([1], nulls=1)
        no_nulls = _syn([1, 2])
        all_null = _syn([], nulls=2)
        is_null = PruningPredicate([("isnull", 0, (False,))])
        not_null = PruningPredicate([("isnull", 0, (True,))])
        assert is_null.page_may_match(mixed) and not_null.page_may_match(mixed)
        assert not is_null.page_may_match(no_nulls)
        assert not not_null.page_may_match(all_null)

    def test_between_and_in(self):
        syn = _syn([10, 20, 30])
        assert not PruningPredicate([("between", 0, (31, 40))]).page_may_match(syn)
        assert not PruningPredicate([("between", 0, (1, 9))]).page_may_match(syn)
        assert PruningPredicate([("between", 0, (25, 40))]).page_may_match(syn)
        assert not PruningPredicate([("in", 0, (1, 2, 31))]).page_may_match(syn)
        assert PruningPredicate([("in", 0, (1, 25))]).page_may_match(syn)

    def test_unprunable_entry_keeps_page(self):
        unprunable = PageSynopsis(2, [None])
        assert PruningPredicate([("cmp", 0, ("<", -1))]).page_may_match(unprunable)

    def test_out_of_range_column_keeps_page(self):
        syn = _syn([1])
        assert PruningPredicate([("cmp", 5, ("<", -1))]).page_may_match(syn)

    def test_incomparable_literal_keeps_page(self):
        # sql_lt(int, str) raises — the conjunct must go inconclusive.
        syn = _syn([1, 2])
        assert PruningPredicate([("cmp", 0, ("<", "text"))]).page_may_match(syn)

    def test_conjunction_skips_when_any_conjunct_proves_empty(self):
        syn = _syn([10, 20])
        pred = PruningPredicate(
            [("cmp", 0, (">", 0)), ("cmp", 0, ("<", 5))]
        )
        assert not pred.page_may_match(syn)


def _paged_store(secure: bool = True):
    device = BlockDevice()
    if secure:
        rng = Rng("stats-store")
        pager = SecurePager(device, rng.bytes(32), InMemoryAnchor(), rng.fork("iv"))
    else:
        pager = Pager(device)
    return device, pager, PagedStore(pager)


def _fill(store, rows_per_page_hint: int = 300, pages: int = 4):
    schema = TableSchema(name="t", columns=[("a", "INTEGER"), ("b", "TEXT")])
    store.create_table(schema)
    n = rows_per_page_hint * pages
    store.insert_rows("t", [(i, f"r{i:06d}") for i in range(n)])
    return n


class TestPagedStoreZoneMaps:
    def test_insert_builds_full_coverage(self):
        _, _, store = _paged_store()
        _fill(store)
        schema = store.catalog.table("t")
        assert len(schema.pages) > 1
        assert store.zone_maps["t"].covers(schema.pages)

    def test_pruned_scan_matches_full_scan_and_bumps_counters(self):
        _, _, store = _paged_store()
        n = _fill(store)
        pred = PruningPredicate([("cmp", 0, ("<", 10))])
        full = [r for r in store.scan("t") if r[0] < 10]
        pruned = [r for r in store.scan("t", pruning=pred) if r[0] < 10]
        assert pruned == full
        total = len(store.catalog.table("t").pages)
        assert store.meter.extra["pages_skipped"] > 0
        assert (
            store.meter.extra["pages_scanned"] + store.meter.extra["pages_skipped"]
            == total
        )
        assert store.meter.extra["zone_map_bytes"] > 0
        assert n == sum(1 for _ in store.scan("t"))

    def test_unpruned_scan_leaves_counters_untouched(self):
        _, _, store = _paged_store()
        _fill(store)
        list(store.scan("t"))
        for name in STATS_COUNTERS:
            assert store.meter.extra.get(name, 0) == 0

    def test_stale_map_fails_closed_to_full_scan(self):
        _, _, store = _paged_store()
        _fill(store)
        schema = store.catalog.table("t")
        # Forget one page's synopsis: covers() must reject the whole map.
        store.zone_maps["t"].drop_page(schema.pages[0])
        pred = PruningPredicate([("cmp", 0, ("<", -1))])
        assert list(store.scan("t", pruning=pred)) == list(store.scan("t"))
        for name in STATS_COUNTERS:
            assert store.meter.extra.get(name, 0) == 0

    def test_replace_rows_rebuilds_synopses(self):
        _, _, store = _paged_store()
        _fill(store)
        store.replace_rows("t", [(10_000 + i, "new") for i in range(10)])
        schema = store.catalog.table("t")
        maps = store.zone_maps["t"]
        assert maps.covers(schema.pages)
        # Pre-rewrite bounds are gone: a filter on the old range prunes all.
        pred = PruningPredicate([("cmp", 0, ("<", 10_000))])
        assert list(store.scan("t", pruning=pred)) == []

    def test_drop_table_discards_synopses(self):
        _, _, store = _paged_store()
        _fill(store)
        store.drop_table("t")
        assert "t" not in store.zone_maps

    def test_synopses_persist_across_reopen(self):
        device, pager, store = _paged_store(secure=False)
        _fill(store)
        store.commit()
        reopened = PagedStore(Pager(device))
        schema = reopened.catalog.table("t")
        assert reopened.zone_maps["t"].covers(schema.pages)
        pred = PruningPredicate([("cmp", 0, ("<", 10))])
        assert len(list(reopened.scan("t", pruning=pred))) >= 10

    def test_undecodable_blob_fails_closed(self):
        device, pager, store = _paged_store(secure=False)
        _fill(store)
        pager.write_meta(ZONEMAP_META_KEY, b"not json")
        reopened = PagedStore(Pager(device))
        assert reopened.zone_maps == {}
        pred = PruningPredicate([("cmp", 0, ("<", -1))])
        assert list(reopened.scan("t", pruning=pred)) == list(reopened.scan("t"))


class TestPlannerPruning:
    def _db(self):
        _, pager, store = _paged_store()
        db = Database(store)
        db.execute("CREATE TABLE t (a INTEGER, b TEXT)")
        db.execute(
            "INSERT INTO t VALUES "
            + ", ".join(f"({i}, 'r{i:06d}')" for i in range(1200))
        )
        return db, store

    def test_selective_filter_skips_pages(self):
        db, store = self._db()
        rows = db.execute("SELECT count(*) FROM t WHERE a < 10", options=PRUNED).rows
        assert rows == [(10,)]
        assert store.meter.extra["pages_skipped"] > 0

    def test_rows_identical_with_and_without_pruning(self):
        db, store = self._db()
        sql = "SELECT a, b FROM t WHERE a BETWEEN 100 AND 140 ORDER BY a"
        pruned = db.execute(sql, options=PRUNED).rows
        assert store.meter.extra["pages_skipped"] > 0
        skipped = store.meter.extra["pages_skipped"]
        # Options travel with the call: the next, default one reads it all.
        assert db.execute(sql).rows == pruned
        assert store.meter.extra["pages_skipped"] == skipped

    def test_non_sargable_filter_scans_everything(self):
        db, store = self._db()
        db.execute("SELECT count(*) FROM t WHERE a + 0 < 10", options=PRUNED)
        assert store.meter.extra.get("pages_skipped", 0) == 0

    def test_in_and_isnull_prune(self):
        db, store = self._db()
        assert db.execute(
            "SELECT count(*) FROM t WHERE a IN (3, 5)", options=PRUNED
        ).rows == [(2,)]
        assert store.meter.extra["pages_skipped"] > 0
        skipped = store.meter.extra["pages_skipped"]
        assert db.execute(
            "SELECT count(*) FROM t WHERE a IS NULL", options=PRUNED
        ).rows == [(0,)]
        assert store.meter.extra["pages_skipped"] > skipped  # no NULLs anywhere

    def test_type_mismatch_still_raises_row_level_error(self):
        # A mis-typed literal is not sargable: extraction leaves it to the
        # row filter, which must raise exactly as it does unpruned.
        db, store = self._db()
        with pytest.raises(ExecutionError):
            db.execute("SELECT count(*) FROM t WHERE a < 'text'", options=PRUNED)
        with pytest.raises(ExecutionError):
            db.execute("SELECT count(*) FROM t WHERE a < 'text'")

    def test_memory_store_ignores_the_knob(self):
        db = Database()
        db.execute("CREATE TABLE m (x INTEGER)")
        db.execute("INSERT INTO m VALUES (1), (2)")
        # No synopses to consult: must be a harmless no-op.
        sql = "SELECT count(*) FROM m WHERE x < 2"
        assert db.execute(sql, options=PRUNED).rows == [(1,)]


class TestPruningProperty:
    """Pruned and unpruned scans agree on random data + predicates."""

    def test_random_predicates_agree(self):
        rnd = random.Random(0xC0FFEE)
        _, pager, store = _paged_store()
        db = Database(store)
        db.execute(
            "CREATE TABLE p (i INTEGER, r REAL, s TEXT, d DATE)"
        )
        base = datetime.date(2020, 1, 1)

        def cell(kind):
            if rnd.random() < 0.15:
                return "NULL"
            if kind == "i":
                return str(rnd.randint(-50, 50))
            if kind == "r":
                return f"{rnd.uniform(-5, 5):.3f}"
            if kind == "s":
                return "'" + rnd.choice("abcdef") * rnd.randint(1, 30) + "'"
            day = base + datetime.timedelta(days=rnd.randint(0, 365))
            return f"DATE '{day.isoformat()}'"

        values = ", ".join(
            f"({cell('i')}, {cell('r')}, {cell('s')}, {cell('d')})"
            for _ in range(900)
        )
        db.execute("INSERT INTO p VALUES " + values)
        assert len(store.catalog.table("p").pages) > 1

        def predicate():
            col, kind = rnd.choice(
                [("i", "i"), ("r", "r"), ("s", "s"), ("d", "d")]
            )
            shape = rnd.choice(["cmp", "between", "in", "isnull"])
            if shape == "cmp":
                op = rnd.choice(["<", "<=", ">", ">=", "=", "<>"])
                return f"{col} {op} {cell(kind).replace('NULL', '0')}"
            if shape == "between":
                lo, hi = sorted(
                    [cell(kind).replace("NULL", "0") for _ in range(2)]
                )
                return f"{col} BETWEEN {lo} AND {hi}"
            if shape == "in":
                items = ", ".join(
                    cell(kind).replace("NULL", "0") for _ in range(3)
                )
                return f"{col} IN ({items})"
            return f"{col} IS {'NOT ' if rnd.random() < 0.5 else ''}NULL"

        for _ in range(40):
            where = " AND ".join(predicate() for _ in range(rnd.randint(1, 2)))
            sql = f"SELECT i, r, s, d FROM p WHERE {where}"
            try:
                pruned = db.execute(sql, options=PRUNED).rows
                pruned_err = None
            except ExecutionError as exc:
                pruned, pruned_err = None, str(exc)
            try:
                full = db.execute(sql).rows
                full_err = None
            except ExecutionError as exc:
                full, full_err = None, str(exc)
            assert (pruned_err is None) == (full_err is None), where
            if pruned_err is None:
                assert sorted(pruned, key=repr) == sorted(full, key=repr), where


def _secure_pager():
    rng = Rng("meta")
    device = BlockDevice()
    anchor = InMemoryAnchor()
    key = rng.bytes(32)
    pager = SecurePager(device, key, anchor, rng.fork("iv"))
    return device, anchor, key, pager, rng


class TestAuthenticatedMeta:
    def test_roundtrip_and_missing(self):
        _, _, _, pager, _ = _secure_pager()
        assert pager.read_meta("zone_maps") is None
        pager.write_meta("zone_maps", b'{"t": 1}')
        assert pager.read_meta("zone_maps") == b'{"t": 1}'

    def test_blob_is_not_plaintext_on_device(self):
        device, _, _, pager, _ = _secure_pager()
        pager.write_meta("zone_maps", b"secret synopsis")
        raw = device.read_meta("ameta:zone_maps")
        assert raw is not None and b"secret synopsis" not in raw

    def test_tampered_blob_raises_and_reports(self):
        device, _, _, pager, _ = _secure_pager()
        violations = []
        pager.on_violation = lambda pgno, reason: violations.append((pgno, reason))
        pager.write_meta("zone_maps", b"payload")
        raw = bytearray(device.read_meta("ameta:zone_maps"))
        raw[20] ^= 0xFF
        device.write_meta("ameta:zone_maps", bytes(raw))
        with pytest.raises(IntegrityError):
            pager.read_meta("zone_maps")
        assert violations and violations[0][0] == -1

    def test_forged_blob_raises(self):
        device, _, _, pager, _ = _secure_pager()
        device.write_meta("ameta:zone_maps", b"\x00" * 64)
        with pytest.raises(IntegrityError, match="forged"):
            pager.read_meta("zone_maps")

    def test_suppressed_blob_raises(self):
        device, _, _, pager, _ = _secure_pager()
        pager.write_meta("zone_maps", b"payload")
        del device._meta["ameta:zone_maps"]
        with pytest.raises(IntegrityError, match="suppressed"):
            pager.read_meta("zone_maps")

    def test_rolled_back_blob_raises_stale(self):
        device, _, _, pager, _ = _secure_pager()
        pager.write_meta("zone_maps", b"version 1")
        old = device.read_meta("ameta:zone_maps")
        pager.write_meta("zone_maps", b"version 2")
        device.write_meta("ameta:zone_maps", old)  # validly-MAC'd old blob
        with pytest.raises(IntegrityError, match="stale"):
            pager.read_meta("zone_maps")

    def test_full_rollback_fails_freshness_at_open(self):
        device, anchor, key, pager, rng = _secure_pager()
        pager.write_meta("zone_maps", b"version 1")
        pager.commit()
        snapshot = device.snapshot()
        pager.write_meta("zone_maps", b"version 2")
        pager.commit()
        device.restore(snapshot)  # blob + digest table + pages, all rolled back
        with pytest.raises(FreshnessError):
            SecurePager(device, key, anchor, rng.fork("reopen"))

    def test_reopen_verifies_against_anchored_meta_root(self):
        device, anchor, key, pager, rng = _secure_pager()
        pager.write_meta("zone_maps", b"synopses")
        pager.commit()
        reopened = SecurePager(device, key, anchor, rng.fork("reopen"))
        assert reopened.read_meta("zone_maps") == b"synopses"

    def test_meta_ops_leave_meters_untouched(self):
        _, _, _, pager, _ = _secure_pager()
        before = (pager.meter.pages_read, pager.meter.pages_decrypted,
                  pager.meter.page_macs_verified)
        pager.write_meta("zone_maps", b"x")
        pager.read_meta("zone_maps")
        after = (pager.meter.pages_read, pager.meter.pages_decrypted,
                 pager.meter.page_macs_verified)
        assert after == before


def _items_deployment(rows: int = 1200):
    deployment = Deployment(workload="none", database_name="appdb", seed=47)
    deployment.attest_all()
    client = register_client(deployment, "tenant")
    deployment.monitor.provision_database(
        "appdb",
        policy_text=f"read :- sessionKeyIs('{client.fingerprint}')\n",
    )
    db = deployment.storage_engine.db
    db.execute("CREATE TABLE items (id INTEGER, label TEXT)")
    db.store.insert_rows(
        "items", [(i, f"item-{i:06d}") for i in range(rows)]
    )
    db.commit()
    return deployment, client


class TestDeploymentZoneMaps:
    def test_sos_pruning_matches_baseline_rows(self):
        deployment, _ = _items_deployment()
        sql = "SELECT count(*) FROM items WHERE id < 12"
        baseline = deployment.run_query(sql, "sos")
        pruned = deployment.run_query(
            sql, "sos", run_config=RunConfig(zone_maps=True)
        )
        assert pruned.rows == baseline.rows == [(12,)]
        assert pruned.storage_meter.extra["pages_skipped"] > 0
        assert pruned.storage_meter.pages_read < baseline.storage_meter.pages_read
        assert pruned.breakdown.total_ns < baseline.breakdown.total_ns

    def test_escape_hatch_is_byte_identical(self):
        deployment, _ = _items_deployment()
        sql = "SELECT count(*) FROM items WHERE id < 12"
        baseline = deployment.run_query(sql, "sos")
        # A pruned run in between must not leak into later queries.
        deployment.run_query(sql, "sos", run_config=RunConfig(zone_maps=True))
        explicit = deployment.run_query(
            sql, "sos", run_config=RunConfig(zone_maps=False)
        )
        default = deployment.run_query(sql, "sos")
        for result in (explicit, default):
            assert result.rows == baseline.rows
            assert result.storage_meter == baseline.storage_meter
            assert result.breakdown.total_ns == baseline.breakdown.total_ns
            assert dict(result.breakdown.by_category) == dict(
                baseline.breakdown.by_category
            )

    def test_hos_pruning_matches_baseline_rows(self):
        deployment, _ = _items_deployment()
        sql = "SELECT count(*) FROM items WHERE id BETWEEN 100 AND 120"
        baseline = deployment.run_query(sql, "hos")
        pruned = deployment.run_query(
            sql, "hos", run_config=RunConfig(zone_maps=True)
        )
        assert pruned.rows == baseline.rows == [(21,)]
        assert pruned.host_meter.extra["pages_skipped"] > 0

    def test_zone_map_tamper_lands_in_audit_chain(self):
        """Forging the persisted synopses must refuse the query and leave
        a hash-chained record: the host-side open re-reads the zone-map
        blob through the authenticated metadata path."""
        deployment, _ = _items_deployment()
        raw = bytearray(deployment.secure_device._meta["ameta:zone_maps"])
        raw[30] ^= 0x01
        deployment.secure_device._meta["ameta:zone_maps"] = bytes(raw)
        with pytest.raises(IntegrityError):
            deployment.run_query("SELECT count(*) FROM items", "hos")
        operations = deployment.monitor.audit_log("operations")
        operations.verify_chain()
        violations = [
            e for e in operations.entries if e.action == "integrity_violation"
        ]
        assert violations, "zone-map tampering was not audited"
        assert violations[-1].client_key == "host-1"
        assert "page -1" in violations[-1].detail
        assert "zone_maps" in violations[-1].detail
