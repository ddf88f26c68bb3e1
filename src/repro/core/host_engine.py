"""The host engine: in-enclave query processing on the x86 server.

Runs inside an SGX enclave (paper §4.1).  In the split configurations it
receives filtered records from the storage engine over the secure channel,
materializes them as in-memory tables inside the enclave, and executes the
full query (joins, group-bys, aggregations) over them.  In the host-only
configurations it instead processes the on-disk database directly across
the network, paying an enclave exit/enter per page fetch — the cost that
motivates the CSA offload.
"""

from __future__ import annotations

from ..errors import EnclaveError
from ..sim import Meter
from ..telemetry import NODE_HOST, NOOP_TRACER, SPAN_HOST_INGEST
from ..sql import Database, ExecOptions, MemoryStore
from ..sql import ast_nodes as A
from ..sql.catalog import TableSchema
from ..sql.records import decode_batch
from ..sql.vector import Morsel
from ..tee.sgx import Enclave

# Enclave exits happen per received channel record, not per row.
RECORD_ROWS = 256


class HostEngine:
    """One host server's query engine, shielded by an enclave."""

    def __init__(self, enclave: Enclave):
        self.enclave = enclave
        self.meter = Meter()
        self.tracer = NOOP_TRACER
        self._db: Database | None = None
        #: Streaming-ingest state per table: columns + running totals.
        self._ingests: dict[str, dict] = {}
        #: How the open session's statements execute; fixed by
        #: :meth:`begin_session` and gone with the session.
        self._options = ExecOptions()
        enclave.register_ecall("reset_session", self._reset_session)
        enclave.register_ecall("load_table", self._load_table)
        enclave.register_ecall("run_statement", self._run_statement)
        enclave.register_ecall("wipe", self._wipe)

    # ------------------------------------------------------------------
    # ECALL bodies (run "inside" the enclave)
    # ------------------------------------------------------------------

    def _reset_session(self, options: ExecOptions) -> None:
        self._db = Database(MemoryStore(self.meter))
        self._db.tracer = self.tracer
        self._options = options
        self.enclave.put("session_db", self._db)

    def _load_table(
        self, name: str, columns: list[tuple[str, str]], rows: list[tuple]
    ) -> int:
        db = self.enclave.get("session_db")
        if not db.store.catalog.has_table(name):
            db.store.create_table(TableSchema(name=name, columns=list(columns)))
        return db.store.insert_rows(name, rows)

    def _run_statement(self, statement: A.Statement):
        db = self.enclave.get("session_db")
        return db.execute_statement(statement, options=self._options)

    def _wipe(self) -> None:
        self._db = None
        self._ingests = {}
        self._options = ExecOptions()
        self.enclave.wipe()

    # ------------------------------------------------------------------
    # Untrusted-side API
    # ------------------------------------------------------------------

    def fresh_meter(self) -> Meter:
        meter = Meter()
        self.meter = meter
        self.enclave.meter = meter
        if self._db is not None:
            self._db.store.meter = meter
        return meter

    def begin_session(self, options: ExecOptions = ExecOptions()) -> None:
        """Open a fresh session whose statements all run under *options*."""
        self.enclave.ecall("reset_session", options)

    def receive_table(
        self, name: str, columns: list[tuple[str, str]], rows: list[tuple]
    ) -> None:
        """Ingest a shipped table, one enclave entry per channel record."""
        if self._db is None:
            raise EnclaveError("no active session: call begin_session first")
        with self.tracer.span(
            SPAN_HOST_INGEST, node=NODE_HOST, enclave=True, table=name, rows=len(rows)
        ):
            for start in range(0, max(1, len(rows)), RECORD_ROWS):
                self.enclave.ecall(
                    "load_table", name, columns, rows[start : start + RECORD_ROWS]
                )

    # -- pipelined ingest (streaming ship path) -----------------------------

    def begin_table(self, name: str, columns: list[tuple[str, str]]) -> None:
        """Open a table for incremental batch ingest (creates it empty)."""
        if self._db is None:
            raise EnclaveError("no active session: call begin_session first")
        if name in self._ingests:
            raise EnclaveError(f"table {name!r} is already being ingested")
        self.enclave.ecall("load_table", name, list(columns), [])
        self._ingests[name] = {
            "columns": list(columns),
            "rows": 0,
            "batches": 0,
            "bytes": 0,
        }

    def ingest_batch(self, name: str, payload: bytes) -> int:
        """Decode one RecordBatch payload and append it inside the enclave.

        One enclave entry per batch — the streamed twin of the serial
        path's one entry per ``RECORD_ROWS`` channel record.  Returns the
        number of rows appended.
        """
        state = self._ingests.get(name)
        if state is None:
            raise EnclaveError(f"no open ingest for table {name!r}: call begin_table")
        rows = decode_batch(payload)
        if rows:
            self.enclave.ecall("load_table", name, state["columns"], rows)
        if self._options.vectorized and self._db is not None:
            # Batch boundaries are preserved: the shipped batch becomes a
            # morsel for the vectorized executor instead of being chunked
            # a second time out of the row store (``batches_reused``).
            stash = getattr(self._db.store, "stash_morsel", None)
            if stash is not None:
                stash(name, Morsel.from_rows(rows, width=len(state["columns"])))
        state["rows"] += len(rows)
        state["batches"] += 1
        state["bytes"] += len(payload)
        return len(rows)

    def finish_table(self, name: str) -> dict:
        """Close an incremental ingest; emits the ``host_ingest`` marker."""
        state = self._ingests.pop(name, None)
        if state is None:
            raise EnclaveError(f"no open ingest for table {name!r}: call begin_table")
        span = self.tracer.event(
            SPAN_HOST_INGEST,
            node=NODE_HOST,
            enclave=True,
            table=name,
            rows=state["rows"],
            batches=state["batches"],
            bytes=state["bytes"],
        )
        if span is not None and self._db is not None:
            resident = getattr(self._db.store, "table_bytes", None)
            if resident is not None:
                span.set_attrs(resident_bytes=resident(name))
        return state

    def run(self, statement: A.Statement):
        return self.enclave.ecall("run_statement", statement)

    def end_session(self) -> None:
        """Session cleanup: delete all temporary state inside the enclave."""
        self.enclave.ecall("wipe")
        self._db = None
