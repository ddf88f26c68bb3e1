"""The storage engine: near-data query processing on the TrustZone server.

The engine lives in the storage server's *normal world* after secure boot
(paper §4.1): the trusted OS measured its image, the attestation TA can
prove that measurement to the monitor, and the secure-storage TA hands it
the database master key and anchors Merkle roots in RPMB.  It executes
offloaded filtering scans (or, in the `sos` configuration, entire queries)
over the paged on-disk database and ships serialized result rows to the
host.
"""

from __future__ import annotations

from collections.abc import Iterator

from ..crypto import Rng
from ..errors import SecureBootError
from ..sim import Meter
from ..stream import DEFAULT_BATCH_BYTES, BatchAssembler, EncodedBatch
from ..telemetry import NOOP_TRACER, Tracer
from ..sql import Database, ExecOptions, PagedStore
from ..sql import ast_nodes as A
from ..sql.parser import parse
from ..sql.records import encode_row
from ..storage import BlockDevice, Pager, SecurePager, TAAnchor
from ..tee.trustzone import (
    AttestationTA,
    RealmManager,
    SecureStorageTA,
    TrustedOS,
    TrustZoneDevice,
)
from .partitioner import TableScanSpec

STORAGE_ENGINE_IMAGE = b"ironsafe-storage-engine v1.0 (query engine + secure storage)" 


class StorageEngine:
    """One storage server: TrustZone device + on-disk database."""

    def __init__(
        self,
        device: TrustZoneDevice,
        block_device: BlockDevice,
        rng: Rng,
        *,
        secure: bool,
        cipher: str = "hash-ctr",
        realm_mode: bool = False,
        cache_pages: int = 0,
    ):
        if not device.booted:
            raise SecureBootError("storage engine starts after secure boot only")
        self.device = device
        self.block_device = block_device
        self.secure = secure
        self.meter = Meter()
        self._tracer = NOOP_TRACER
        self.trusted_os = TrustedOS(device)
        self.trusted_os.load_ta(AttestationTA(device))
        self.trusted_os.load_ta(SecureStorageTA(device))
        self._rng = rng
        # ARM v9 mode (the paper's future work): the engine runs inside a
        # realm, so the normal-world OS drops out of the TCB.  Attestation
        # then quotes the realm image instead of the whole normal world.
        self.realm_mode = realm_mode
        self.realm = None
        if realm_mode:
            self._rmm = RealmManager(device)
            self.realm = self._rmm.create_realm("storage-engine", STORAGE_ENGINE_IMAGE)

        if secure:
            master_key = self.trusted_os.invoke("secure-storage", "get_master_key")
            anchor = TAAnchor(self.trusted_os, self.meter)
            self.pager = SecurePager(
                block_device, master_key, anchor, rng.fork("pager-iv"),
                meter=self.meter, cipher=cipher, cache_pages=cache_pages,
            )
        else:
            self.pager = Pager(block_device, meter=self.meter)
        self.db = Database(PagedStore(self.pager, self.meter))

    # ------------------------------------------------------------------
    # Page cache (secure pager only; the plain pager has nothing to skip)
    # ------------------------------------------------------------------

    def enable_page_cache(self, capacity_pages: int) -> None:
        """Turn on the in-enclave decrypted-page cache on the secure pager."""
        if isinstance(self.pager, SecurePager):
            self.pager.enable_cache(capacity_pages)

    def disable_page_cache(self) -> None:
        """Flush and drop the cache, restoring verify-every-read reads."""
        if isinstance(self.pager, SecurePager):
            self.pager.disable_cache()

    # ------------------------------------------------------------------

    @property
    def tracer(self) -> Tracer:
        return self._tracer

    @tracer.setter
    def tracer(self, tracer: Tracer) -> None:
        """Install a tracer on the engine, its pager and its database."""
        self._tracer = tracer
        self.pager.tracer = tracer
        self.db.tracer = tracer

    def fresh_meter(self) -> Meter:
        """Install a fresh meter for the next run (rebinds all layers)."""
        meter = Meter()
        self.meter = meter
        self.pager.meter = meter
        self.db.store.meter = meter
        if self.secure:
            self.pager.tree.meter = meter
            if isinstance(self.pager.anchor, TAAnchor):
                self.pager.anchor._meter = meter
        return meter

    # ------------------------------------------------------------------
    # Attestation endpoint (monitor-facing)
    # ------------------------------------------------------------------

    def attest(self, challenge: bytes):
        """Answer an attestation challenge.

        TrustZone mode: the attestation TA signs the normal-world
        measurement.  Realm mode: a CCA token quotes only the engine's
        realm image (the OS is untrusted), attached to the same
        secure-boot certificate chain for the device identity.
        """
        if self.realm is not None:
            assert self.device.boot_state is not None
            token = self.realm.attestation_token(challenge)
            return token, list(self.device.boot_state.certificate_chain)
        return self.trusted_os.invoke("attestation", "attest", challenge)

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------

    def execute_scan(
        self, spec: TableScanSpec, options: ExecOptions = ExecOptions()
    ) -> tuple[list[str], list[tuple], int, list[bytes]]:
        """Run one offloaded filtering scan, materializing the result.

        Returns (column names, rows, serialized byte count, encoded rows).
        The byte count is what crosses the network to the host; the
        encoded rows are returned so the ship loop reuses them instead of
        serializing every row a second time.
        """
        return self._materialize(spec.to_select(), options)

    def execute_sql(
        self, sql: str, options: ExecOptions = ExecOptions()
    ) -> tuple[list[str], list[tuple], int, list[bytes]]:
        """:meth:`execute_scan` for a manually partitioned portion's SQL."""
        return self._materialize(parse(sql), options)

    def _materialize(
        self, statement: A.Statement, options: ExecOptions
    ) -> tuple[list[str], list[tuple], int, list[bytes]]:
        result = self.db.execute_statement(statement, options=options)
        encoded = [encode_row(row) for row in result.rows]
        nbytes = sum(map(len, encoded))
        # The shipped rows are buffered for serialization; that buffer is
        # the scan's working set (drives the Figure 11 memory sweep).
        self.meter.note_memory(nbytes)
        return result.columns, result.rows, nbytes, encoded

    # -- streaming scans (the ship pipeline's batch-at-a-time path) --------

    def stream_scan(
        self,
        spec: TableScanSpec,
        options: ExecOptions = ExecOptions(),
        *,
        batch_bytes: int = DEFAULT_BATCH_BYTES,
        fixed_rows: int | None = None,
    ) -> tuple[list[str], Iterator[EncodedBatch]]:
        """Run one offloaded scan as a stream of bounded record batches.

        Batches come straight off the operator iterator, so the storage
        side's serialization working set is one ~``batch_bytes`` batch
        instead of the whole materialized result — ``Meter.note_memory``
        then reflects the real bounded buffer in the Figure 11 sweep.
        ``fixed_rows`` pins the rows-per-batch target (the oblivious full
        tier's predicate-independent batch boundaries).
        """
        return self._stream_statement(
            spec.to_select(), options, batch_bytes, fixed_rows
        )

    def stream_sql(
        self,
        sql: str,
        options: ExecOptions = ExecOptions(),
        *,
        batch_bytes: int = DEFAULT_BATCH_BYTES,
        fixed_rows: int | None = None,
    ) -> tuple[list[str], Iterator[EncodedBatch]]:
        """:meth:`stream_scan` for a manually partitioned portion's SQL."""
        return self._stream_statement(parse(sql), options, batch_bytes, fixed_rows)

    def _stream_statement(
        self,
        statement: A.Statement,
        options: ExecOptions,
        batch_bytes: int,
        fixed_rows: int | None,
    ) -> tuple[list[str], Iterator[EncodedBatch]]:
        columns, rows = self.db.stream_select(statement, options=options)
        assembler = BatchAssembler(target_bytes=batch_bytes, fixed_rows=fixed_rows)

        def batches() -> Iterator[EncodedBatch]:
            for batch in assembler.batches(rows):
                # One bounded batch is the whole ship buffer now.
                self.meter.note_memory(batch.nbytes)
                yield batch

        return columns, batches()

    def execute_full(
        self, statement: A.Statement, options: ExecOptions = ExecOptions()
    ):
        """Run a complete statement locally (the `sos` configuration)."""
        return self.db.execute_statement(statement, options=options)

    def commit(self) -> None:
        self.db.commit()
