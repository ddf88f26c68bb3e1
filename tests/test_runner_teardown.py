"""What a vcs/scs run leaves behind — after a failure as after a success.

Two bugs the five-copies runner had, each failing on the commit before it
was folded into one: a query that failed mid-ship left the host session, an
open ingest and an unclosed span behind and broke the *next* query; and a
monitor session the runner opened itself was never closed.
"""

from __future__ import annotations

import pytest

from repro.core import Deployment, RunConfig, register_client
from repro.errors import IntegrityError
from repro.shard import ShardedDeployment

SF = 0.001
SEED = 11

TWO_TABLES = (
    "SELECT o_orderpriority, COUNT(*) FROM orders, lineitem "
    "WHERE l_orderkey = o_orderkey AND o_totalprice > 100000 "
    "GROUP BY o_orderpriority ORDER BY o_orderpriority"
)

SHIP_FORMS = [
    pytest.param(RunConfig(pipeline=False), id="serial"),
    pytest.param(RunConfig(), id="streaming"),
]


def _deployment(nodes: int) -> Deployment:
    if nodes == 1:
        deployment = Deployment(scale_factor=SF, seed=SEED)
    else:
        deployment = ShardedDeployment(shards=nodes, scale_factor=SF, seed=SEED)
    deployment.attest_all()
    return deployment


def _tenant_deployment():
    """A deployment whose policy admits one registered client."""
    deployment = Deployment(scale_factor=SF, seed=SEED, database_name="tenantdb")
    deployment.attest_all()
    client = register_client(deployment, "tenant")
    deployment.monitor.provision_database(
        "tenantdb", policy_text=f"read :- sessionKeyIs('{client.fingerprint}')"
    )
    return deployment, client


def _active_sessions(deployment) -> int:
    return len(deployment.monitor.key_manager.active_sessions())


def _closes(deployment) -> list[str]:
    """Session ids of the ``finish_session`` audit entries, in order."""
    operations = deployment.monitor.audit_log("operations")
    return [e.detail for e in operations.entries if e.action == "finish_session"]


class TestFailedQueryLeavesNothingBehind:
    @pytest.mark.parametrize("nodes", [1, 2])
    @pytest.mark.parametrize("run_config", SHIP_FORMS)
    def test_tamper_then_restore(self, nodes, run_config):
        deployment = _deployment(nodes)
        tracer = deployment.enable_tracing()
        reference = deployment.run_query(TWO_TABLES, "scs", run_config=run_config)

        # lineitem ships second and the victim is not its first page, so the
        # failure lands mid-ship: orders is already on the host and (when
        # streaming) lineitem's ingest is open.
        node = deployment.nodes[-1]
        victim = node.engine.db.store.pages_of("lineitem")[1]
        node.secure_device.corrupt(victim, offset=100)
        with pytest.raises(IntegrityError) as err:
            deployment.run_query(TWO_TABLES, "scs", run_config=run_config)
        assert node.node_id in str(err.value)

        host = deployment.host_engine
        assert host._db is None, "shipped plaintext outlived the failed query"
        assert host._ingests == {}
        assert _active_sessions(deployment) == 0
        failed = tracer.last_trace()
        assert tracer.current is None
        assert [s.name for s in failed.spans if s.end_wall_ns is None] == []
        phase = next(s for s in failed.spans if s.name == "storage_phase")
        assert phase.status == "error:IntegrityError"

        node.secure_device.corrupt(victim, offset=100)  # xor again: restored
        again = deployment.run_query(TWO_TABLES, "scs", run_config=run_config)
        assert again.rows == reference.rows
        assert again.storage_meter == reference.storage_meter
        assert again.breakdown.total_ns == reference.breakdown.total_ns


class TestMonitorSessionOwnership:
    def test_runner_closes_the_sessions_it_opens(self):
        deployment = _deployment(1)
        for _ in range(3):
            deployment.run_query(TWO_TABLES, "scs")
        assert _active_sessions(deployment) == 0
        assert len(_closes(deployment)) == 3
        assert len(set(_closes(deployment))) == 3

    def test_a_session_passed_in_stays_the_callers(self):
        deployment = _deployment(1)
        auth = deployment._admit(deployment.parse_select(TWO_TABLES), TWO_TABLES)
        deployment.run_query(auth.statement.to_sql(), "scs", authorization=auth)
        assert [s.session_id for s in deployment.monitor.key_manager.active_sessions()] == [
            auth.session.session_id
        ]
        assert _closes(deployment) == []
        deployment.monitor.finish_session(auth.session.session_id)

    def test_client_and_concurrent_close_each_session_once(self):
        deployment, client = _tenant_deployment()
        client.submit(deployment, TWO_TABLES)
        outcome = deployment.run_concurrent(
            [TWO_TABLES, TWO_TABLES], workers=2, client_key=client.fingerprint
        )
        closes = _closes(deployment)
        assert len(closes) == 3 and len(set(closes)) == 3
        assert set(closes) >= {s.session_id for s in outcome.sessions}
        assert _active_sessions(deployment) == 0

    @pytest.mark.parametrize("path", ["client", "concurrent"])
    def test_failure_revokes_too(self, path):
        deployment, client = _tenant_deployment()
        victim = deployment.storage_engine.db.store.pages_of("lineitem")[1]
        deployment.secure_device.corrupt(victim, offset=100)
        with pytest.raises(IntegrityError):
            if path == "client":
                client.submit(deployment, TWO_TABLES)
            else:
                deployment.run_concurrent(
                    [TWO_TABLES], workers=1, client_key=client.fingerprint
                )
        assert _active_sessions(deployment) == 0
        assert len(_closes(deployment)) == 1
