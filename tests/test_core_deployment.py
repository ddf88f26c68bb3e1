"""Integration: engines + deployment across all five configurations."""

from __future__ import annotations

import pytest

from repro.errors import EnclaveError, IronSafeError, SecureBootError
from repro.tpch import ALL_QUERIES

SMOKE_QUERIES = [3, 6, 13]


class TestHostEngine:
    def test_session_lifecycle(self, tiny_deployment):
        engine = tiny_deployment.host_engine
        engine.begin_session()
        engine.receive_table("tmp", [("a", "INTEGER")], [(1,), (2,)])
        result = engine.run(__import__("repro.sql.parser", fromlist=["parse"]).parse("SELECT sum(a) FROM tmp"))
        assert result.rows == [(3,)]
        engine.end_session()

    def test_enclave_state_hidden_from_outside(self, tiny_deployment):
        engine = tiny_deployment.host_engine
        engine.begin_session()
        with pytest.raises(EnclaveError):
            tiny_deployment.host_enclave.get("session_db")
        engine.end_session()

    def test_wipe_on_session_end(self, tiny_deployment):
        engine = tiny_deployment.host_engine
        engine.begin_session()
        engine.receive_table("tmp", [("a", "INTEGER")], [(1,)])
        engine.end_session()
        assert tiny_deployment.host_enclave.memory_in_use == 0

    def test_receive_without_session_rejected(self, tiny_deployment):
        engine = tiny_deployment.host_engine
        engine.end_session() if engine._db else None
        with pytest.raises(EnclaveError):
            engine.receive_table("tmp", [("a", "INTEGER")], [(1,)])


class TestStorageEngine:
    def test_requires_secure_boot(self, tiny_deployment):
        from repro.core import StorageEngine
        from repro.crypto import Rng
        from repro.storage import BlockDevice

        cold = tiny_deployment.vendor.provision_device("cold-dev", location="eu")
        with pytest.raises(SecureBootError):
            StorageEngine(cold, BlockDevice(), Rng(1), secure=True)

    def test_scan_projects_and_filters(self, tiny_deployment):
        from repro.core.partitioner import TableScanSpec
        from repro.sql.parser import parse_expression

        spec = TableScanSpec(
            table="nation",
            columns=["n_name", "n_regionkey"],
            where=parse_expression("n_regionkey = 3"),
        )
        columns, rows, nbytes, encoded = tiny_deployment.storage_engine.execute_scan(spec)
        assert columns == ["n_name", "n_regionkey"]
        assert rows and all(r[1] == 3 for r in rows)
        assert nbytes > 0
        # Rows are serialized exactly once; the ship loop reuses these.
        assert len(encoded) == len(rows)
        assert sum(map(len, encoded)) == nbytes

    def test_fresh_meter_rebinds(self, tiny_deployment):
        engine = tiny_deployment.storage_engine
        meter = engine.fresh_meter()
        list(engine.db.store.scan("region"))
        assert meter.pages_read > 0


class TestDeploymentConfigs:
    @pytest.mark.parametrize("number", SMOKE_QUERIES)
    def test_all_configs_agree(self, tiny_deployment, number):
        sql = ALL_QUERIES[number].sql
        reference = None
        for config in ("hons", "hos", "vcs", "scs", "sos"):
            result = tiny_deployment.run_query(sql, config)
            if reference is None:
                reference = sorted(result.rows)
            assert sorted(result.rows) == reference, f"{config} differs"

    def test_unknown_config_rejected(self, tiny_deployment):
        with pytest.raises(IronSafeError):
            tiny_deployment.run_query("SELECT 1", "warp-drive")

    def test_non_select_rejected(self, tiny_deployment):
        with pytest.raises(IronSafeError):
            tiny_deployment.run_query("DELETE FROM region", "scs")

    def test_breakdown_totals_positive(self, tiny_deployment):
        result = tiny_deployment.run_query(ALL_QUERIES[6].sql, "scs")
        assert result.total_ms > 0
        assert result.breakdown.total_ns == pytest.approx(
            sum(result.breakdown.by_category.values())
        )

    def test_secure_run_has_crypto_costs(self, tiny_deployment):
        result = tiny_deployment.run_query(ALL_QUERIES[6].sql, "scs")
        assert result.breakdown.ms("freshness") > 0
        assert result.breakdown.ms("decryption") > 0
        nonsecure = tiny_deployment.run_query(ALL_QUERIES[6].sql, "vcs")
        assert nonsecure.breakdown.ms("freshness") == 0
        assert nonsecure.breakdown.ms("decryption") == 0

    def test_split_ships_fewer_bytes_than_hostonly_reads(self, tiny_deployment):
        hons = tiny_deployment.run_query(ALL_QUERIES[6].sql, "hons")
        vcs = tiny_deployment.run_query(ALL_QUERIES[6].sql, "vcs")
        assert vcs.bytes_shipped < hons.host_meter.pages_read * 4096

    def test_deterministic_timings(self, tiny_deployment):
        a = tiny_deployment.run_query(ALL_QUERIES[6].sql, "scs")
        b = tiny_deployment.run_query(ALL_QUERIES[6].sql, "scs")
        assert a.total_ms == pytest.approx(b.total_ms)

    def test_storage_cpu_knob(self, tiny_deployment):
        slow = tiny_deployment.run_query(ALL_QUERIES[3].sql, "vcs", storage_cpus=1)
        fast = tiny_deployment.run_query(ALL_QUERIES[3].sql, "vcs", storage_cpus=16)
        assert fast.total_ms <= slow.total_ms

    def test_storage_memory_knob(self, tiny_deployment):
        from repro.core.manual_partitions import MANUAL_PARTITIONS

        roomy = tiny_deployment.run_query(
            ALL_QUERIES[13].sql, "scs", manual_partition=MANUAL_PARTITIONS[13]
        )
        tight = tiny_deployment.run_query(
            ALL_QUERIES[13].sql,
            "scs",
            manual_partition=MANUAL_PARTITIONS[13],
            storage_memory_bytes=4096,
        )
        assert tight.total_ms > roomy.total_ms

    def test_monitor_session_opened_for_scs(self, tiny_deployment):
        # One monitor session per scs query — opened by the runner, so
        # closed by the runner: its key must not stay live afterwards.
        monitor = tiny_deployment.monitor

        def closed():
            operations = monitor.audit_log("operations")
            return [e.detail for e in operations.entries if e.action == "finish_session"]

        before = closed()
        active = len(monitor.key_manager.active_sessions())
        tiny_deployment.run_query(ALL_QUERIES[6].sql, "scs")
        (session_id,) = closed()[len(before):]
        assert not monitor.key_manager.session(session_id).active
        assert len(monitor.key_manager.active_sessions()) == active

    def test_attestation_breakdown(self, tiny_deployment):
        # attest_all ran in the fixture; Table 4 anchors must be present.
        attestation_ms = tiny_deployment.clock.breakdown.ms("attestation")
        assert attestation_ms >= 689.0  # 140 + 453 + 54 + 42

    def test_pages_transferred_metric(self, tiny_deployment):
        vcs = tiny_deployment.run_query(ALL_QUERIES[6].sql, "vcs")
        assert vcs.pages_transferred >= 1
        hons = tiny_deployment.run_query(ALL_QUERIES[6].sql, "hons")
        assert hons.pages_transferred == hons.host_meter.pages_read
