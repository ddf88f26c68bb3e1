"""Table stores: where rows physically live.

Two backends implement the same interface:

* :class:`PagedStore` — rows packed into pages behind a pager (plain or
  secure).  This is the storage server's on-disk database; every scan
  re-reads pages through the pager, so the secure configurations pay
  decrypt + freshness per page request, exactly as the paper measures.
* :class:`MemoryStore` — plain Python lists.  This is the host engine's
  in-memory instance that receives filtered records from the storage side
  (and the whole database for host-only configurations without a secure
  at-rest story).
"""

from __future__ import annotations

from collections.abc import Iterator

from ..errors import ExecutionError, StorageError
from ..sim import Meter
from ..stats import (
    PageSynopsis,
    TableZoneMaps,
    deserialize_zone_maps,
    serialize_zone_maps,
)
from .catalog import Catalog, TableSchema
from .records import encode_row, pack_page, unpack_page
from .values import COERCED_TYPES, coerce, estimate_rows_bytes
from .vector import Morsel, morsels_from_rows

CATALOG_META_KEY = "sql_catalog"
#: Pager-metadata key the zone maps persist under.  On the secure pager
#: this rides the authenticated-metadata path (per-blob HMAC + trusted
#: digest folded into the RPMB-anchored root), so a malicious host cannot
#: forge "nothing here, skip me" synopses.
ZONEMAP_META_KEY = "zone_maps"

_NONE_TYPE = type(None)


class TableStore:
    """Interface both backends implement."""

    catalog: Catalog
    meter: Meter

    def create_table(self, schema: TableSchema) -> None:  # pragma: no cover
        raise NotImplementedError

    def drop_table(self, name: str) -> None:  # pragma: no cover
        raise NotImplementedError

    def insert_rows(self, name: str, rows: list[tuple]) -> int:  # pragma: no cover
        raise NotImplementedError

    def scan(self, name: str) -> Iterator[tuple]:  # pragma: no cover
        raise NotImplementedError

    def replace_rows(self, name: str, rows: list[tuple]) -> None:  # pragma: no cover
        raise NotImplementedError

    def commit(self) -> None:  # pragma: no cover
        raise NotImplementedError

    # -- shared helpers ----------------------------------------------------

    def _coerce_rows(self, schema: TableSchema, rows: list[tuple]) -> list[tuple]:
        """Rows coerced to the declared column types.

        Returns *rows* itself (not a copy) when there is nothing to do:
        every row a *width*-tuple and every column holding only its exact
        declared type or NULL — always true of rows that came out of
        ``decode_batch`` / ``unpack_page``.
        """
        width = len(schema.columns)
        if (
            type(rows) is list
            and rows
            and set(map(type, rows)) == {tuple}
            and set(map(len, rows)) == {width}
            and all(
                set(map(type, column)) <= {COERCED_TYPES.get(type_name), _NONE_TYPE}
                for column, (_, type_name) in zip(zip(*rows), schema.columns)
            )
        ):
            return rows
        coerced = []
        for row in rows:
            if len(row) != width:
                raise StorageError(
                    f"row of {len(row)} values into {width}-column table {schema.name!r}"
                )
            coerced.append(
                tuple(coerce(v, t) for v, (_, t) in zip(row, schema.columns))
            )
        return coerced


class MemoryStore(TableStore):
    """In-memory backend (host engine's table cache)."""

    def __init__(self, meter: Meter | None = None):
        self.catalog = Catalog()
        self.meter = meter if meter is not None else Meter()
        self._rows: dict[str, list[tuple]] = {}
        self._bytes: dict[str, int] = {}
        # Columnar batches stashed by the ship path (HostEngine.ingest_batch)
        # so a vectorized scan can reuse shipped frames at their original
        # boundaries instead of re-batching decoded rows.
        self._morsels: dict[str, list[Morsel]] = {}

    def create_table(self, schema: TableSchema) -> None:
        self.catalog.create_table(schema)
        self._rows[schema.name] = []
        self._bytes[schema.name] = 0

    def table_bytes(self, name: str) -> int:
        """Resident (estimated serialized) bytes of one table."""
        return self._bytes.get(name, 0)

    def drop_table(self, name: str) -> None:
        self.catalog.drop_table(name)
        self._rows.pop(name, None)
        self._bytes.pop(name, None)
        self._morsels.pop(name, None)

    def insert_rows(self, name: str, rows: list[tuple]) -> int:
        schema = self.catalog.table(name)
        coerced = self._coerce_rows(schema, rows)
        self._rows[name].extend(coerced)
        schema.row_count += len(coerced)
        self._bytes[name] += estimate_rows_bytes(coerced)
        self.meter.note_memory(sum(self._bytes.values()))
        return len(coerced)

    def scan(self, name: str) -> Iterator[tuple]:
        self.catalog.table(name)  # existence check
        return iter(self._rows[name])

    def stash_morsel(self, name: str, morsel: Morsel) -> None:
        """Remember a shipped batch in columnar form.

        The stash is advisory: :meth:`scan_morsels` serves it only while
        the stashed row counts still add up to the table's rows (any
        later insert outside the ship path invalidates it implicitly),
        and :meth:`replace_rows`/:meth:`drop_table` clear it outright.
        """
        self._morsels.setdefault(name, []).append(morsel)

    def scan_morsels(
        self, name: str, pruning=None, pad: bool = False
    ) -> Iterator[Morsel]:
        """Morsel-granular scan; *pruning* and *pad* are accepted for
        interface parity with :class:`PagedStore` but there are no pages
        to skip here."""
        self.catalog.table(name)  # existence check
        rows = self._rows[name]
        stash = self._morsels.get(name)
        if stash and sum(m.row_count for m in stash) == len(rows):
            for morsel in stash:
                self.meter.bump("batches_reused", 1)
                yield morsel
            return
        width = len(self.catalog.table(name).columns)
        yield from morsels_from_rows(iter(rows), width)

    def replace_rows(self, name: str, rows: list[tuple]) -> None:
        schema = self.catalog.table(name)
        coerced = self._coerce_rows(schema, rows)
        self._rows[name] = list(coerced)  # _coerce_rows may return *rows* itself
        schema.row_count = len(coerced)
        self._bytes[name] = estimate_rows_bytes(coerced)
        self._morsels.pop(name, None)
        self.meter.note_memory(sum(self._bytes.values()))

    def commit(self) -> None:
        """Nothing to persist for the in-memory backend."""

    def total_bytes(self) -> int:
        return sum(self._bytes.values())


class PagedStore(TableStore):
    """Paged backend over a plain or secure pager."""

    def __init__(self, pager, meter: Meter | None = None):
        self.pager = pager
        self.meter = meter if meter is not None else Meter()
        self._free_pages: list[int] = []
        blob = pager.device.read_meta(CATALOG_META_KEY)
        self.catalog = Catalog.deserialize(blob) if blob else Catalog()
        self.zone_maps: dict[str, TableZoneMaps] = self._load_zone_maps()

    def _next_page(self) -> int:
        if self._free_pages:
            return self._free_pages.pop(0)
        return self.pager.allocate_page()

    # -- catalog persistence -------------------------------------------------

    def _save_catalog(self) -> None:
        self.pager.device.write_meta(CATALOG_META_KEY, self.catalog.serialize())

    # -- zone-map persistence ------------------------------------------------

    def _load_zone_maps(self) -> dict[str, TableZoneMaps]:
        """Load persisted synopses through the pager's metadata path.

        On the secure pager this verifies the blob's MAC and trusted
        digest — a forged or rolled-back synopsis raises
        :class:`~repro.errors.IntegrityError` here, before any scan could
        trust it.  A pager without a metadata path, or an undecodable
        blob, yields no synopses: scans fail closed to full reads.
        """
        reader = getattr(self.pager, "read_meta", None)
        if reader is None:
            return {}
        blob = reader(ZONEMAP_META_KEY)
        if not blob:
            return {}
        try:
            return deserialize_zone_maps(blob)
        except (ValueError, KeyError, TypeError, ExecutionError):
            return {}

    def _save_zone_maps(self) -> None:
        writer = getattr(self.pager, "write_meta", None)
        if writer is None:
            return
        writer(ZONEMAP_META_KEY, serialize_zone_maps(self.zone_maps))

    def _note_page(self, name: str, schema: TableSchema, page_no: int,
                   rows: list[tuple]) -> None:
        """Refresh the synopsis of one page after (re)writing its rows."""
        maps = self.zone_maps.get(name)
        if maps is None:
            maps = self.zone_maps[name] = TableZoneMaps(
                [t for _, t in schema.columns]
            )
        maps.set_page(page_no, PageSynopsis.from_rows(rows, maps.column_types))

    def create_table(self, schema: TableSchema) -> None:
        self.catalog.create_table(schema)
        self._save_catalog()

    def drop_table(self, name: str) -> None:
        self.catalog.drop_table(name)
        self.zone_maps.pop(name, None)
        self._save_catalog()
        self._save_zone_maps()

    # -- rows ---------------------------------------------------------------

    def insert_rows(self, name: str, rows: list[tuple]) -> int:
        schema = self.catalog.table(name)
        coerced = self._coerce_rows(schema, rows)
        if not coerced:
            return 0

        capacity = self.pager.payload_size
        # Re-open the last partially filled page, if any.
        pending: list[bytes] = []
        pending_rows: list[tuple] = []
        pending_size = 2
        target_page = None
        if schema.pages:
            target_page = schema.pages[-1]
            for row in unpack_page(self.pager.read_page(target_page)):
                encoded = encode_row(row)
                pending.append(encoded)
                pending_rows.append(row)
                pending_size += len(encoded)

        def flush(page_no: int | None) -> None:
            nonlocal pending, pending_rows, pending_size
            payload = pack_page(pending)
            if page_no is None:
                page_no = self._next_page()
                schema.pages.append(page_no)
            self.pager.write_page(page_no, payload)
            self._note_page(name, schema, page_no, pending_rows)
            pending = []
            pending_rows = []
            pending_size = 2

        for row in coerced:
            encoded = encode_row(row)
            if len(encoded) + 2 > capacity:
                raise StorageError("row larger than a page payload")
            if pending_size + len(encoded) > capacity:
                flush(target_page)
                target_page = None
            pending.append(encoded)
            pending_rows.append(row)
            pending_size += len(encoded)
        if pending:
            flush(target_page)

        schema.row_count += len(coerced)
        self._save_catalog()
        self._save_zone_maps()
        return len(coerced)

    #: Pages per batched pager request when the pager advertises the
    #: batched path — large enough to amortize shared Merkle prefixes,
    #: small enough to keep scans streaming.
    SCAN_BATCH_PAGES = 32

    def scan(self, name: str, pruning=None, pad: bool = False) -> Iterator[tuple]:
        """Rows of *name*; *pruning* skips pages its zone maps rule out.

        With *pad* (the oblivious tiers) a pruned scan still fetches every
        page, so what the device sees does not depend on the predicate.
        """
        schema = self.catalog.table(name)
        pages = schema.pages
        if pruning is not None and pruning:
            # Zone-map skip-scan: prove pages empty of matches *before*
            # fetching them, so a pruned page skips the whole read → MAC →
            # Merkle → decrypt → decode pipeline — and, on a caching
            # pager, is neither fetched nor admitted.
            pages = self._pruned_pages(name, schema, pruning)
            if pad and len(pages) < len(schema.pages):
                # Padded (oblivious) scan: every page is still fetched in
                # schedule order through the full pipeline — the device
                # sees the same trace for every predicate — but pruned
                # pages are discarded undecoded, so the CPU-side savings
                # (rows_scanned, predicate_evals) survive.
                self.meter.bump(
                    "oblivious_dummy_reads", len(schema.pages) - len(pages)
                )
                return self._scan_pages(schema.pages, frozenset(pages))
        return self._scan_pages(pages, None)

    def scan_morsels(
        self, name: str, pruning=None, pad: bool = False
    ) -> Iterator[Morsel]:
        """Morsel-granular scan with :meth:`scan`'s exact page behaviour.

        Decoded rows are re-chunked into morsels on top of the *same*
        page-read schedule — zone-map pruning counters, tracer events and
        the oblivious *pad* dummy reads included — so the
        device-visible trace of a vectorized scan is byte-identical to
        the row scan's for every predicate.
        """
        schema = self.catalog.table(name)
        width = len(schema.columns)
        return morsels_from_rows(self.scan(name, pruning=pruning, pad=pad), width)

    def _scan_pages(
        self, pages: list[int], kept: frozenset[int] | None
    ) -> Iterator[tuple]:
        """Read *pages* in order; decode only *kept* (``None`` = all).

        A pager in performance mode (the secure pager with its in-enclave
        cache enabled) exposes read_pages/batch_enabled, letting a
        contiguous scan amortize integrity verification across a batch.
        Duck-typed so this module stays agnostic of the pager's security.
        """
        if getattr(self.pager, "batch_enabled", False):
            batch = self.SCAN_BATCH_PAGES
            for start in range(0, len(pages), batch):
                chunk = pages[start : start + batch]
                for page_no, payload in zip(chunk, self.pager.read_pages(chunk)):
                    if kept is None or page_no in kept:
                        yield from unpack_page(payload)
            return
        for page_no in pages:
            payload = self.pager.read_page(page_no)
            if kept is None or page_no in kept:
                yield from unpack_page(payload)

    def _pruned_pages(self, name: str, schema: TableSchema, pruning) -> list[int]:
        """The pages a pruned scan must still read.

        Synopses that do not cover exactly the table's current page list
        are stale — fail closed to a full scan (and bump no counters, so
        an un-consulted zone map leaves the meters untouched).
        """
        maps = self.zone_maps.get(name)
        if maps is None or not maps.covers(schema.pages):
            return schema.pages
        kept: list[int] = []
        consulted_bytes = 0
        for page_no in schema.pages:
            synopsis = maps.pages[page_no]
            consulted_bytes += synopsis.size_bytes()
            if pruning.page_may_match(synopsis):
                kept.append(page_no)
        self.meter.bump("pages_scanned", len(kept))
        self.meter.bump("pages_skipped", len(schema.pages) - len(kept))
        self.meter.bump("zone_map_bytes", consulted_bytes)
        tracer = getattr(self.pager, "tracer", None)
        if tracer is not None and getattr(tracer, "enabled", False):
            total = len(schema.pages)
            skipped = total - len(kept)
            tracer.event(
                "zone_prune",
                node=getattr(self.pager, "trace_node", "storage"),
                table=name,
                pages_total=total,
                pages_skipped=skipped,
                prune_ratio=round(skipped / total, 4) if total else 0.0,
            )
            obsv = getattr(tracer, "obsv", None)
            if obsv is not None:
                # Defender-side context on the adversary's record: the
                # prune ratio explains *why* this trace's page set shrank
                # (metadata only — it never enters the fingerprint).
                obsv.annotate(**{f"zone_prune.{name}": f"{skipped}/{total}"})
        return kept

    def replace_rows(self, name: str, rows: list[tuple]) -> None:
        """Rewrite a table in place (UPDATE/DELETE are read-modify-write).

        Old pages go on a freelist and are reused by future inserts; the
        table's synopses are rebuilt from scratch so a scan never prunes
        against pre-rewrite bounds.
        """
        schema = self.catalog.table(name)
        self._free_pages.extend(schema.pages)
        schema.pages = []
        schema.row_count = 0
        self.zone_maps.pop(name, None)
        self.insert_rows(name, rows)
        self._save_catalog()
        self._save_zone_maps()

    def commit(self) -> None:
        self._save_catalog()
        self.pager.commit()

    def pages_of(self, name: str) -> list[int]:
        return list(self.catalog.table(name).pages)
