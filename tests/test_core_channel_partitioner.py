"""Core plumbing: secure channel and the automatic query partitioner."""

from __future__ import annotations

import pytest

from repro.core import QueryPartitioner, SecureChannel, channel_pair
from repro.core.manual_partitions import MANUAL_PARTITIONS
from repro.crypto import Rng
from repro.errors import ChannelError
from repro.sim import CostModel, NetworkLink, SimClock
from repro.sql import memory_database
from repro.sql.parser import parse
from repro.tpch import ALL_QUERIES, create_all


@pytest.fixture()
def channel_rig():
    clock = SimClock()
    link = NetworkLink(clock, CostModel())
    link.register("host")
    link.register("storage")
    key = Rng("chan").bytes(32)
    host, storage = channel_pair(link, "host", "storage", key)
    return link, host, storage


class TestSecureChannel:
    def test_roundtrip(self, channel_rig):
        _, host, storage = channel_rig
        storage.send(b"filtered records")
        assert host.receive() == b"filtered records"

    def test_bidirectional(self, channel_rig):
        _, host, storage = channel_rig
        host.send(b"query")
        storage.send(b"rows")
        assert storage.receive() == b"query"
        assert host.receive() == b"rows"

    def test_payload_encrypted_on_wire(self, channel_rig):
        link, host, storage = channel_rig
        secret = b"VERY-SECRET-TUPLE-CONTENTS"
        storage.send(secret)
        # Peek at the raw frame before delivery.
        _, raw = link._endpoints["host"].inbox[0]
        assert secret not in raw
        assert host.receive() == secret

    def test_tamper_detected(self, channel_rig):
        link, host, storage = channel_rig
        storage.send(b"records")
        sender, raw = link._endpoints["host"].inbox.popleft()
        tampered = bytearray(raw)
        tampered[-1] ^= 0x01
        link._endpoints["host"].inbox.append((sender, bytes(tampered)))
        with pytest.raises(ChannelError, match="MAC"):
            host.receive()

    def test_replay_detected(self, channel_rig):
        link, host, storage = channel_rig
        storage.send(b"one")
        sender, raw = link._endpoints["host"].inbox[0]
        host.receive()
        link._endpoints["host"].inbox.append((sender, raw))  # replay
        with pytest.raises(ChannelError, match="replay|order"):
            host.receive()

    def test_wrong_session_key_fails(self):
        clock = SimClock()
        link = NetworkLink(clock, CostModel())
        link.register("host")
        link.register("storage")
        a, _ = channel_pair(link, "host", "storage", Rng("k1").bytes(32))
        from repro.core.channel import SecureChannel

        eavesdropper = SecureChannel(link, "storage", "host", Rng("k2").bytes(32))
        a.send(b"for the real peer")
        with pytest.raises(ChannelError):
            eavesdropper.receive()

    def test_short_record_rejected(self, channel_rig):
        link, host, _ = channel_rig
        link.send("storage", "host", b"tiny")
        with pytest.raises(ChannelError, match="short"):
            host.receive()

    def test_meter_counts_bytes(self, channel_rig):
        _, host, storage = channel_rig
        storage.send(bytes(1000))
        host.receive()
        assert storage.meter.channel_bytes_encrypted == 1000
        assert host.meter.channel_bytes_encrypted == 1000


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def _wire_ciphertext(link: NetworkLink, recipient: str) -> bytes:
    """Ciphertext of the oldest undelivered record: seq(8) ‖ mac(32) ‖ ct."""
    _, record = link._endpoints[recipient].inbox[0]
    return record[40:]


class TestChannelKeySeparation:
    """Both ends of a pair start at sequence 0 and every storage node of a
    sharded run shares one session key, so the keys must be bound to the
    (sender → receiver) direction or records share a keystream."""

    P1 = b"host asks: SELECT * FROM lineitem WHERE l_quantity < 24"
    P2 = b"storage answers with the filtered records of this shard"

    def test_two_directions_do_not_share_a_keystream(self, channel_rig):
        link, host, storage = channel_rig
        host.send(self.P1)
        storage.send(self.P2)
        c1 = _wire_ciphertext(link, "storage")
        c2 = _wire_ciphertext(link, "host")
        # A two-time pad would cancel the keystream: c1 ^ c2 == p1 ^ p2.
        assert _xor(c1, c2) != _xor(self.P1, self.P2)
        assert storage.receive() == self.P1
        assert host.receive() == self.P2

    def test_two_nodes_under_one_session_key_do_not_share_a_keystream(self):
        link = NetworkLink(SimClock(), CostModel())
        for name in ("host", "storage-1", "storage-2"):
            link.register(name)
        key = Rng("one-session").bytes(32)
        host1, node1 = channel_pair(link, "host", "storage-1", key)
        host2, node2 = channel_pair(link, "host", "storage-2", key)
        node1.send(self.P1)
        c1 = _wire_ciphertext(link, "host")
        assert host1.receive() == self.P1
        node2.send(self.P2)
        c2 = _wire_ciphertext(link, "host")
        assert host2.receive() == self.P2
        assert _xor(c1, c2) != _xor(self.P1, self.P2)

    def test_record_for_another_node_is_rejected(self):
        link = NetworkLink(SimClock(), CostModel())
        for name in ("host", "storage-1", "storage-2"):
            link.register(name)
        key = Rng("one-session").bytes(32)
        _, node1 = channel_pair(link, "host", "storage-1", key)
        host2, _ = channel_pair(link, "host", "storage-2", key)
        node1.send(self.P1)
        _, record = link._endpoints["host"].inbox.popleft()
        # Re-addressed as if storage-2 had sent it at the same sequence.
        link._endpoints["host"].inbox.append(("storage-2", record))
        with pytest.raises(ChannelError, match="MAC"):
            host2.receive()

    def test_reflected_record_is_rejected(self, channel_rig):
        link, host, storage = channel_rig
        host.send(self.P1)
        _, record = link._endpoints["storage"].inbox.popleft()
        # The adversary bounces host's own record back as if from storage.
        link._endpoints["host"].inbox.append(("storage", record))
        with pytest.raises(ChannelError, match="MAC"):
            host.receive()

    def test_sharded_run_first_frames_do_not_share_a_keystream(self, monkeypatch):
        from repro.shard import ShardedDeployment

        deployment = ShardedDeployment(shards=2, scale_factor=0.001, seed=11)
        deployment.attest_all()
        keystreams: dict[str, bytes] = {}
        real_send = SecureChannel.send

        def recording_send(channel, payload, charge_time=True):
            first = channel._send_seq == 0 and channel.peer == "host"
            real_send(channel, payload, charge_time)
            if first and payload:
                _, record = channel.link._endpoints["host"].inbox[-1]
                keystreams[channel.local] = _xor(payload, record[40:])

        monkeypatch.setattr(SecureChannel, "send", recording_send)
        result = deployment.run_query(
            "SELECT l_orderkey, l_quantity FROM lineitem WHERE l_quantity < 24", "scs"
        )
        assert result.rows
        assert len(keystreams) == 2
        first, second = keystreams.values()
        shared = min(len(first), len(second))
        assert shared >= 32
        assert first[:shared] != second[:shared]


@pytest.fixture(scope="module")
def tpch_catalog():
    db = memory_database()
    create_all(db)
    return db.store.catalog


class TestPartitioner:
    def test_simple_filter_pushed(self, tpch_catalog):
        plan = QueryPartitioner(tpch_catalog).partition(
            parse("SELECT l_orderkey FROM lineitem WHERE l_quantity < 24")
        )
        assert len(plan.scans) == 1
        scan = plan.scans[0]
        assert scan.table == "lineitem"
        assert scan.where is not None
        assert "l_quantity" in scan.to_sql()

    def test_column_pruning(self, tpch_catalog):
        plan = QueryPartitioner(tpch_catalog).partition(
            parse("SELECT l_orderkey, l_quantity FROM lineitem WHERE l_discount > 0.05")
        )
        assert set(plan.scans[0].columns) == {"l_orderkey", "l_quantity", "l_discount"}

    def test_join_predicates_not_pushed(self, tpch_catalog):
        plan = QueryPartitioner(tpch_catalog).partition(
            parse(
                "SELECT o_orderkey FROM orders, lineitem "
                "WHERE o_orderkey = l_orderkey AND o_totalprice > 1000"
            )
        )
        by_table = {s.table: s for s in plan.scans}
        assert by_table["orders"].where is not None  # single-table filter
        assert by_table["lineitem"].where is None  # join edge stays on host

    def test_multiple_occurrences_or_filters(self, tpch_catalog):
        sql = (
            "SELECT a.l_orderkey FROM lineitem a, lineitem b "
            "WHERE a.l_orderkey = b.l_orderkey "
            "AND a.l_quantity > 40 AND b.l_quantity < 5"
        )
        plan = QueryPartitioner(tpch_catalog).partition(parse(sql))
        scan = plan.scans[0]
        assert scan.where is not None
        assert "OR" in scan.to_sql()  # union of the two occurrences' filters

    def test_unfiltered_occurrence_ships_all(self, tpch_catalog):
        sql = (
            "SELECT a.l_orderkey FROM lineitem a, lineitem b "
            "WHERE a.l_orderkey = b.l_orderkey AND a.l_quantity > 40"
        )
        plan = QueryPartitioner(tpch_catalog).partition(parse(sql))
        assert plan.scans[0].where is None  # b needs every row

    def test_subquery_tables_included(self, tpch_catalog):
        sql = (
            "SELECT o_orderpriority FROM orders WHERE EXISTS "
            "(SELECT 1 FROM lineitem WHERE l_orderkey = o_orderkey "
            "AND l_commitdate < l_receiptdate)"
        )
        plan = QueryPartitioner(tpch_catalog).partition(parse(sql))
        tables = {s.table for s in plan.scans}
        assert tables == {"orders", "lineitem"}
        lineitem = next(s for s in plan.scans if s.table == "lineitem")
        assert lineitem.where is not None  # local filter travels

    def test_left_join_right_filter_pushed(self, tpch_catalog):
        plan = QueryPartitioner(tpch_catalog).partition(
            parse(ALL_QUERIES[13].sql)
        )
        orders = next(s for s in plan.scans if s.table == "orders")
        assert orders.where is not None
        assert "LIKE" in orders.to_sql()

    @pytest.mark.parametrize("number", sorted(ALL_QUERIES))
    def test_every_tpch_query_partitions(self, tpch_catalog, number):
        plan = QueryPartitioner(tpch_catalog).partition(parse(ALL_QUERIES[number].sql))
        assert plan.scans, f"Q{number} produced no storage scans"
        for scan in plan.scans:
            assert scan.columns, f"Q{number}: empty projection for {scan.table}"
            # Each scan must itself be valid SQL.
            parse(scan.to_sql())

    def test_partition_correctness_all_queries(self, tpch_catalog):
        """Running scans + original query over shipped tables must equal
        running the query directly (on a small dataset)."""
        from repro.sql import memory_database
        from repro.sql.catalog import TableSchema
        from repro.tpch import load_tpch

        db = memory_database()
        load_tpch(db, scale_factor=0.001, seed=3)
        partitioner = QueryPartitioner(db.store.catalog)
        for number, query in sorted(ALL_QUERIES.items()):
            direct = db.execute(query.sql)
            plan = partitioner.partition(parse(query.sql))
            host = memory_database()
            for scan in plan.scans:
                result = db.execute_statement(scan.to_select())
                schema = db.store.catalog.table(scan.table)
                host.store.create_table(
                    TableSchema(
                        name=scan.table,
                        columns=[(c, schema.column_type(c)) for c in scan.columns],
                    )
                )
                host.store.insert_rows(scan.table, result.rows)
            split = host.execute(query.sql)
            assert split.rows == direct.rows, f"Q{number} split results differ"


class TestManualPartitions:
    def test_manual_specs_parse(self):
        for number, manual in MANUAL_PARTITIONS.items():
            parse(manual.host_sql)
            for ship in manual.ships:
                parse(ship.sql)

    def test_manual_equivalence(self):
        from repro.sql import memory_database
        from repro.sql.catalog import TableSchema
        from repro.tpch import load_tpch

        db = memory_database()
        load_tpch(db, scale_factor=0.002, seed=9)
        for number, manual in MANUAL_PARTITIONS.items():
            direct = db.execute(ALL_QUERIES[number].sql)
            host = memory_database()
            for ship in manual.ships:
                result = db.execute(ship.sql)
                import datetime

                def type_of(i):
                    for row in result.rows:
                        if row[i] is not None:
                            if isinstance(row[i], int):
                                return "INTEGER"
                            if isinstance(row[i], float):
                                return "REAL"
                            if isinstance(row[i], datetime.date):
                                return "DATE"
                            return "TEXT"
                    return "TEXT"

                host.store.create_table(
                    TableSchema(
                        name=ship.table,
                        columns=[(c, type_of(i)) for i, c in enumerate(result.columns)],
                    )
                )
                host.store.insert_rows(ship.table, result.rows)
            split = host.execute(manual.host_sql)
            assert split.rows == direct.rows, f"Q{number} manual split differs"
