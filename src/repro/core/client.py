"""The IronSafe client (paper §3.1, step 1-5 workflow).

The client is the data producer's / consumer's library: it holds an
identity keypair, connects to the host engine over TLS (simulated),
submits queries together with execution policies, and verifies the
monitor-signed proof of compliance that comes back with the results.

The client trusts only the monitor's public key (pinned at provisioning);
host and storage nodes are trusted *transitively* through the proof.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto import PrivateKey, PublicKey, Rng, generate_keypair
from ..errors import IronSafeError
from ..monitor import ComplianceProof, verify_proof
from ..sim import TimeBreakdown
from ..telemetry import NODE_CLIENT, SPAN_PROOF_VERIFY, SPAN_QUERY
from .deployment import ConcurrentRunResult, Deployment, RunResult


@dataclass
class QueryResponse:
    """What the client hands back to application code."""

    columns: list[str]
    rows: list[tuple]
    proof: ComplianceProof
    breakdown: TimeBreakdown

    @property
    def total_ms(self) -> float:
        return self.breakdown.total_ms


class Client:
    """One authenticated party (producer or consumer)."""

    def __init__(self, name: str, monitor_key: PublicKey, rng: Rng):
        self.name = name
        self._keypair: PrivateKey = generate_keypair(rng.fork(f"client:{name}"))
        self._monitor_key = monitor_key

    @property
    def fingerprint(self) -> str:
        """The identity the policy language's sessionKeyIs() matches on."""
        return self._keypair.public_key.fingerprint().hex()

    @property
    def public_key(self) -> PublicKey:
        return self._keypair.public_key

    def sign_request(self, query_text: str) -> bytes:
        """Authenticate a request (the host checks this before forwarding)."""
        return self._keypair.sign(query_text.encode())

    def submit(
        self,
        deployment: Deployment,
        sql: str,
        *,
        exec_policy: str | None = None,
        now: int = 0,
    ) -> QueryResponse:
        """Full data-path round trip: authorize, execute split, verify proof.

        Raises if the monitor refuses the request or the returned proof
        does not verify against the pinned monitor key.
        """
        from ..sql.parser import parse

        statement = parse(sql)
        tracer = deployment.tracer
        with tracer.maybe_root(
            SPAN_QUERY, node=NODE_CLIENT, client=self.name, sql=sql
        ) as root:
            clock_before = deployment.clock.breakdown.copy()
            auth = deployment.monitor.authorize(
                deployment.database_name,
                client_key=self.fingerprint,
                statement=statement,
                host_id="host-1",
                exec_policy_text=exec_policy,
                now=now,
                query_text=sql,
            )
            monitor_breakdown = deployment.clock.breakdown.minus(clock_before)

            with tracer.span(
                SPAN_PROOF_VERIFY, node=NODE_CLIENT
            ) as verify_span:
                verify_proof(auth.proof, self._monitor_key)
                verify_span.set_attrs(
                    query_digest=auth.proof.query_digest.hex()
                )

            try:
                if auth.storage_node is not None:
                    result: RunResult = deployment.run_query(
                        auth.statement.to_sql(), "scs", authorization=auth
                    )
                else:
                    # Host-only fallback (no compliant storage node).
                    result = deployment.run_query(auth.statement.to_sql(), "hos")
            finally:
                # The client opened the session, so the client closes it —
                # a failed query must not leave a live session key behind.
                # finish_session appends the session-close audit entry; the
                # monitor's tracer hook annotates the open root with its hash.
                deployment.monitor.finish_session(auth.session.session_id)
            breakdown = result.breakdown.copy().merge(monitor_breakdown)
            rows, columns = result.rows, result.columns
            root.set_sim_ns(breakdown.total_ns)
            root.set_attrs(
                rows=len(rows),
                config=result.config,
                query_digest=auth.proof.query_digest.hex(),
            )
        return QueryResponse(
            columns=columns, rows=rows, proof=auth.proof, breakdown=breakdown
        )

    def submit_concurrent(
        self,
        deployment: Deployment,
        sqls: list[str],
        *,
        workers: int = 2,
    ) -> ConcurrentRunResult:
        """Submit a batch of queries as one multi-tenant workload.

        Each query becomes its own monitor-admitted session under this
        client's identity (own session key, own audit entries); the
        deployment's deterministic scheduler overlaps them across storage
        workers.  Every per-session compliance proof is verified against
        the pinned monitor key before the result is returned — one
        unverifiable session fails the whole batch.
        """
        result = deployment.run_concurrent(
            sqls, workers=workers, client_key=self.fingerprint
        )
        for session in result.sessions:
            if session.proof is None:
                raise IronSafeError(
                    f"session {session.session_id!r} returned no compliance proof"
                )
            verify_proof(session.proof, self._monitor_key)
        return result


def register_client(deployment: Deployment, name: str) -> Client:
    """Create a client bound to *deployment*'s monitor."""
    if deployment.monitor is None:  # pragma: no cover - defensive
        raise IronSafeError("deployment has no monitor")
    return Client(name, deployment.monitor.public_key, deployment.rng)
