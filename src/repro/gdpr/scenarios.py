"""The five GDPR anti-pattern use-cases (paper §4.3 and Table 3).

Each scenario pairs a *non-secure* baseline (a plain engine executing the
raw query, no monitor, no secure storage) with the *IronSafe* path (the
monitor admits the request under the database's access policy, applies the
obliged rewrites, and the query executes over the secure storage engine).
Timings are simulated milliseconds, so the Table 3 comparison is
deterministic.

Scenarios:

1. **Timely deletion** — ``le(T, expiry_ts)``: expired records become
   invisible to reads even before physical deletion.
2. **Indiscriminate use** — ``reuseMap(reuse_map)``: rows are only visible
   to services whose consent bit is set.
3. **Transparent sharing** — ``logUpdate(sharing)``: every read by the
   consumer is recorded in a tamper-evident log the owner can audit.
4. **Risk-agnostic processing** — an execution policy pins processing to
   attested nodes in approved locations with a firmware floor.
5. **Undetected data breaches** — every access leaves an audit-log entry;
   a breach investigation replays the hash chain and enumerates accesses.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.deployment import Deployment
from ..errors import ComplianceError, MonitorError
from ..monitor import verify_proof
from ..sim import Meter
from ..sim.pricing import StorageRecord, price_storage_only
from ..sql import Database, PagedStore
from ..sql.parser import parse
from ..storage import BlockDevice, Pager

PERSONS_DDL = """
    CREATE TABLE persons (
        person_id INTEGER,
        name TEXT,
        email TEXT,
        country TEXT,
        salary REAL,
        expiry_ts INTEGER,
        reuse_map INTEGER
    )
"""

# The owner (producer) is 'alice'; the consumer service is 'bob'.
ACCESS_POLICY = """
read :- sessionKeyIs(alice)
read :- sessionKeyIs(bob) & le(T, expiry_ts) & reuseMap(reuse_map) & logUpdate(sharing)
write :- sessionKeyIs(alice)
"""

EXEC_POLICY = "storageLocIs(eu-west) & fwVersionStorage('5.4.3') & hostLocIs(eu-central)"


@dataclass
class ScenarioResult:
    name: str
    baseline_ms: float
    ironsafe_ms: float
    detail: str = ""

    @property
    def overhead(self) -> float:
        return self.ironsafe_ms / self.baseline_ms if self.baseline_ms else float("inf")


class GDPRWorkbench:
    """Builds the personal-data deployment and runs the five scenarios."""

    def __init__(self, seed: int = 7, rows: int = 4000):
        self.deployment = Deployment(
            seed=seed, workload="none", database_name="persons-db"
        )
        self.deployment.attest_all()
        self.rows = rows

        rng = self.deployment.rng.fork("gdpr")
        self.alice = rng.bytes(32).hex()
        self.bob = rng.bytes(32).hex()

        self.policy = self.deployment.monitor.provision_database(
            "persons-db",
            policy_text=ACCESS_POLICY,
            key_directory={"alice": self.alice, "bob": self.bob},
            reuse_positions={self.bob: 3},
            protected_tables={"persons"},
            default_ttl=3600,
        )

        # Secure store (IronSafe path) and the plain baseline database —
        # the baseline is the same engine over an unprotected on-disk store
        # on the host, i.e. a conventional non-secure deployment.
        self.secure_db = self.deployment.storage_engine.db
        self.secure_db.execute(PERSONS_DDL)
        self.baseline_db = Database(PagedStore(Pager(BlockDevice("baseline"))))
        self.baseline_db.execute(PERSONS_DDL)
        self._seed_rows(rng)

    # ------------------------------------------------------------------

    def _seed_rows(self, rng) -> None:
        countries = ["DE", "FR", "PT", "UK", "US"]
        rows = []
        for i in range(self.rows):
            expiry = 1000 if i % 10 == 0 else 10_000  # 10% already expired at t=5000
            reuse = 0b1111 if i % 3 else 0b0111  # every 3rd row opts out of bit 3
            rows.append(
                (
                    i,
                    f"person-{i}",
                    f"p{i}@example.com",
                    countries[i % len(countries)],
                    30_000.0 + i,
                    expiry,
                    reuse,
                )
            )
        self.secure_db.store.insert_rows("persons", rows)
        self.secure_db.commit()
        self.baseline_db.store.insert_rows("persons", rows)

    # ------------------------------------------------------------------
    # Execution helpers
    # ------------------------------------------------------------------

    def run_baseline(self, sql: str):
        """Plain engine, no monitor, no secure storage: Table 3 baseline."""
        meter = Meter()
        self.baseline_db.store.meter = meter
        self.baseline_db.store.pager.meter = meter
        result = self.baseline_db.execute(sql)
        breakdown = self.deployment.cost_model.phase_breakdown(meter, platform="x86")
        return result, breakdown

    def run_ironsafe(self, sql: str, client_key: str, now: int = 5000,
                     exec_policy: str | None = None):
        """Monitor-admitted, policy-rewritten, securely executed request."""
        deployment = self.deployment
        clock_before = deployment.clock.breakdown.copy()
        auth = deployment.monitor.authorize(
            "persons-db",
            client_key=client_key,
            statement=parse(sql),
            host_id="host-1",
            exec_policy_text=exec_policy,
            now=now,
            query_text=sql,
        )
        monitor_breakdown = deployment.clock.breakdown.minus(clock_before)

        meter = deployment.storage_engine.fresh_meter()
        result = deployment.storage_engine.db.execute_statement(auth.statement)
        deployment.storage_engine.commit()
        # The request runs whole on the storage node, with no memory limit.
        total = price_storage_only(
            deployment.cost_model,
            StorageRecord(whole=meter, monitor=monitor_breakdown),
            memory=None,
        ).breakdown
        verify_proof(auth.proof, deployment.monitor.public_key)
        deployment.monitor.finish_session(auth.session.session_id)
        return result, total, auth

    # ------------------------------------------------------------------
    # The five anti-patterns
    # ------------------------------------------------------------------

    def scenario_timely_deletion(self) -> ScenarioResult:
        sql = "SELECT person_id, name FROM persons WHERE country = 'DE'"
        base_result, base_bd = self.run_baseline(sql)
        iron_result, iron_bd, _ = self.run_ironsafe(sql, self.bob)
        hidden = len(base_result.rows) - len(iron_result.rows)
        return ScenarioResult(
            "timely deletion",
            base_bd.total_ms,
            iron_bd.total_ms,
            detail=f"{hidden} expired rows filtered out",
        )

    def scenario_indiscriminate_use(self) -> ScenarioResult:
        sql = "SELECT count(*) FROM persons"
        base_result, base_bd = self.run_baseline(sql)
        iron_result, iron_bd, _ = self.run_ironsafe(sql, self.bob)
        return ScenarioResult(
            "indiscriminate use",
            base_bd.total_ms,
            iron_bd.total_ms,
            detail=(
                f"baseline sees {base_result.scalar()} rows, "
                f"consented view {iron_result.scalar()}"
            ),
        )

    def scenario_transparent_sharing(self) -> ScenarioResult:
        sql = "SELECT name, email FROM persons WHERE person_id < 10"
        base_result, base_bd = self.run_baseline(sql)
        before = len(self._sharing_log_entries())
        _, iron_bd, _ = self.run_ironsafe(sql, self.bob)
        after = len(self._sharing_log_entries())
        return ScenarioResult(
            "transparent sharing",
            base_bd.total_ms,
            iron_bd.total_ms,
            detail=f"audit log grew {before} → {after}",
        )

    def _sharing_log_entries(self):
        try:
            return self.deployment.monitor.audit_log("sharing").entries
        except MonitorError:
            # Only "log not created yet" is benign; integrity failures
            # on the log itself must keep propagating.
            return []

    def scenario_risk_agnostic(self) -> ScenarioResult:
        sql = "SELECT country, count(*) FROM persons GROUP BY country"
        base_result, base_bd = self.run_baseline(sql)
        _, iron_bd, auth = self.run_ironsafe(sql, self.bob, exec_policy=EXEC_POLICY)
        # A policy demanding an unavailable region must refuse execution.
        # With no compliant storage node the query may still run host-only
        # (paper §4.2); refusal happens when the *host* is non-compliant.
        refused = False
        try:
            self.run_ironsafe(sql, self.bob, exec_policy="hostLocIs(us-east)")
        except ComplianceError:
            refused = True
        return ScenarioResult(
            "risk-agnostic processing",
            base_bd.total_ms,
            iron_bd.total_ms,
            detail=f"non-compliant region refused: {refused}",
        )

    def scenario_data_breaches(self) -> ScenarioResult:
        sql = "SELECT email FROM persons WHERE person_id = 42"
        base_result, base_bd = self.run_baseline(sql)
        _, iron_bd, _ = self.run_ironsafe(sql, self.bob)
        # Breach investigation: verify the chain and enumerate bob's reads.
        log = self.deployment.monitor.audit_log("sharing")
        log.verify_chain()
        accesses = len(log.entries_for(self.bob))
        return ScenarioResult(
            "undetected data breaches",
            base_bd.total_ms,
            iron_bd.total_ms,
            detail=f"{accesses} consumer accesses on tamper-evident record",
        )

    def run_all(self) -> list[ScenarioResult]:
        return [
            self.scenario_timely_deletion(),
            self.scenario_indiscriminate_use(),
            self.scenario_transparent_sharing(),
            self.scenario_risk_agnostic(),
            self.scenario_data_breaches(),
        ]
