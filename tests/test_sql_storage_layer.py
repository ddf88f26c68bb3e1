"""SQL storage: record codec, catalog, memory and paged stores."""

from __future__ import annotations

import datetime

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import Rng
from repro.errors import CatalogError, StorageError
from repro.sql.catalog import Catalog, TableSchema
from repro.sql.records import (
    decode_batch,
    decode_row,
    encode_batch,
    encode_row,
    pack_page,
    unpack_page,
)
from repro.sql.stores import MemoryStore, PagedStore
from repro.sql.values import estimate_row_bytes
from repro.storage import BlockDevice, InMemoryAnchor, Pager, SecurePager

sql_value = st.one_of(
    st.none(),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=40),
    st.dates(min_value=datetime.date(1, 1, 1)),
)


#: Non-NULL value strategies by column kind (TEXT includes multi-byte UTF-8).
_KINDS = {
    "int": st.integers(min_value=-(2**62), max_value=2**62),
    "real": st.floats(allow_nan=False, width=64),
    "text": st.text(max_size=12),
    "date": st.dates(),
    "bool": st.booleans(),
}
_shapes = st.lists(st.sampled_from(sorted(_KINDS)), min_size=1, max_size=8)


@st.composite
def page_rows(draw):
    """Rows of one page: a uniform shape, optionally with a NULL in the
    middle row and/or a run of a different width or type mid-page."""
    def run(shape, max_size):
        return draw(st.lists(st.tuples(*[_KINDS[k] for k in shape]), max_size=max_size))

    shape = draw(_shapes)
    rows = run(shape, 6)
    if rows and draw(st.booleans()):
        mid = rows[len(rows) // 2]
        col = draw(st.integers(0, len(shape) - 1))
        rows[len(rows) // 2] = mid[:col] + (None,) + mid[col + 1 :]
    if draw(st.booleans()):
        rows += run(draw(_shapes), 3) + run(shape, 3)
    return rows


def _generic_unpack(payload: bytes) -> list[tuple]:
    """The reference page decoder: a loop over the generic ``decode_row``."""
    if len(payload) < 2:
        return []
    rows, offset = [], 2
    for _ in range(int.from_bytes(payload[:2], "big")):
        row, offset = decode_row(payload, offset)
        rows.append(row)
    return rows


def _outcome(decoder, payload: bytes):
    """repr of the rows (NaN-safe), or the marker for the one allowed error."""
    try:
        return repr(decoder(payload))
    except StorageError:
        return "StorageError"


class TestRecords:
    @settings(max_examples=150, deadline=None)
    @given(rows=page_rows())
    def test_compiled_page_decode_matches_generic(self, rows):
        payload = pack_page([encode_row(r) for r in rows])
        decoded = unpack_page(payload)
        assert decoded == _generic_unpack(payload)
        assert decoded == [tuple(int(v) if v is True or v is False else v for v in r)
                           for r in rows]

    @settings(max_examples=25, deadline=None)
    @given(rows=page_rows(), flips=st.lists(st.integers(min_value=0), max_size=24))
    def test_corrupt_page_is_generic_rows_or_storage_error(self, rows, flips):
        payload = pack_page([encode_row(r) for r in rows])
        corrupt = [payload[:cut] for cut in range(len(payload))]
        for flip in flips:
            bit = flip % (len(payload) * 8)
            damaged = bytearray(payload)
            damaged[bit >> 3] ^= 1 << (bit & 7)
            corrupt.append(bytes(damaged))
        for damaged in corrupt:
            # Anything but StorageError escaping either decoder fails here.
            assert _outcome(unpack_page, damaged) == _outcome(_generic_unpack, damaged)

    def test_truncated_text_is_an_error_not_a_short_string(self):
        payload = pack_page([encode_row((1, "abcdef"))])
        with pytest.raises(StorageError, match="corrupt page payload"):
            unpack_page(payload[:-2])
        with pytest.raises(StorageError, match="corrupt page payload"):
            decode_row(encode_row(("abcdef",))[:-1])

    @pytest.mark.parametrize("ordinal", [0, 0xFFFFFFFF])
    def test_impossible_date_is_a_typed_error(self, ordinal):
        # date.fromordinal raises ValueError / OverflowError for these.
        row = encode_row((datetime.date(2000, 1, 1),))
        payload = pack_page([row, row[:-4] + ordinal.to_bytes(4, "big")])
        with pytest.raises(StorageError, match="corrupt page payload"):
            unpack_page(payload)
        batch = encode_batch([(datetime.date(2000, 1, 1),)])
        with pytest.raises(StorageError, match="corrupt record batch"):
            decode_batch(batch[:-4] + ordinal.to_bytes(4, "big"))

    def test_roundtrip_all_types(self):
        row = (1, -5, 2.5, "text", None, datetime.date(1995, 6, 17))
        decoded, offset = decode_row(encode_row(row))
        assert decoded == row
        assert offset == len(encode_row(row))

    def test_page_roundtrip(self):
        rows = [(i, f"row{i}") for i in range(50)]
        payload = pack_page([encode_row(r) for r in rows])
        assert unpack_page(payload) == rows

    def test_empty_page(self):
        assert unpack_page(pack_page([])) == []
        assert unpack_page(b"") == []

    def test_bool_becomes_int(self):
        decoded, _ = decode_row(encode_row((True, False)))
        assert decoded == (1, 0)

    def test_oversized_text_rejected(self):
        with pytest.raises(StorageError):
            encode_row(("x" * 70_000,))

    def test_unsupported_type_rejected(self):
        with pytest.raises(StorageError):
            encode_row(([1, 2],))

    def test_corrupt_tag_rejected(self):
        data = bytes([1, 99])  # one column with unknown tag 99
        with pytest.raises(StorageError):
            decode_row(data)

    @settings(max_examples=60, deadline=None)
    @given(row=st.lists(sql_value, max_size=10).map(tuple))
    def test_roundtrip_property(self, row):
        decoded, _ = decode_row(encode_row(row))
        assert decoded == row


class TestCatalog:
    def _schema(self, name="t"):
        return TableSchema(name=name, columns=[("a", "INTEGER"), ("b", "TEXT")])

    def test_create_and_lookup(self):
        cat = Catalog()
        cat.create_table(self._schema())
        assert cat.table("t").column_names == ["a", "b"]
        assert cat.has_table("t")
        assert not cat.has_table("u")

    def test_duplicate_table_rejected(self):
        cat = Catalog()
        cat.create_table(self._schema())
        with pytest.raises(CatalogError):
            cat.create_table(self._schema())

    def test_duplicate_column_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema(name="t", columns=[("a", "INTEGER"), ("a", "TEXT")])

    def test_unknown_type_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema(name="t", columns=[("a", "BLOB")])

    def test_drop(self):
        cat = Catalog()
        cat.create_table(self._schema())
        cat.drop_table("t")
        with pytest.raises(CatalogError):
            cat.table("t")
        with pytest.raises(CatalogError):
            cat.drop_table("t")

    def test_column_index_and_type(self):
        schema = self._schema()
        assert schema.column_index("b") == 1
        assert schema.column_type("b") == "TEXT"
        with pytest.raises(CatalogError):
            schema.column_index("z")

    def test_owner_of_column(self):
        cat = Catalog()
        cat.create_table(self._schema("t1"))
        cat.create_table(
            TableSchema(name="t2", columns=[("a", "INTEGER"), ("c", "TEXT")])
        )
        assert cat.owner_of_column("b") == "t1"
        assert cat.owner_of_column("c") == "t2"
        assert cat.owner_of_column("a") is None  # ambiguous
        assert cat.owner_of_column("zzz") is None

    def test_serialize_roundtrip(self):
        cat = Catalog()
        schema = self._schema()
        schema.pages = [1, 5, 9]
        schema.row_count = 42
        cat.create_table(schema)
        restored = Catalog.deserialize(cat.serialize())
        assert restored.table("t").pages == [1, 5, 9]
        assert restored.table("t").row_count == 42


def _make_paged(secure: bool = False) -> PagedStore:
    device = BlockDevice()
    if secure:
        rng = Rng("store")
        pager = SecurePager(device, rng.bytes(32), InMemoryAnchor(), rng.fork("iv"))
    else:
        pager = Pager(device)
    return PagedStore(pager)


@pytest.mark.parametrize("make_store", [MemoryStore, _make_paged, lambda: _make_paged(True)],
                         ids=["memory", "paged-plain", "paged-secure"])
class TestStores:
    def _schema(self):
        return TableSchema(
            name="t", columns=[("a", "INTEGER"), ("b", "TEXT"), ("c", "REAL")]
        )

    def test_insert_and_scan(self, make_store):
        store = make_store()
        store.create_table(self._schema())
        store.insert_rows("t", [(1, "x", 1.5), (2, "y", 2.5)])
        assert list(store.scan("t")) == [(1, "x", 1.5), (2, "y", 2.5)]
        assert store.catalog.table("t").row_count == 2

    def test_coercion_on_insert(self, make_store):
        store = make_store()
        store.create_table(self._schema())
        store.insert_rows("t", [("7", 123, 1)])
        assert list(store.scan("t")) == [(7, "123", 1.0)]

    def test_wrong_width_rejected(self, make_store):
        store = make_store()
        store.create_table(self._schema())
        with pytest.raises(StorageError):
            store.insert_rows("t", [(1,)])

    def test_replace_rows(self, make_store):
        store = make_store()
        store.create_table(self._schema())
        store.insert_rows("t", [(i, "r", 0.0) for i in range(100)])
        store.replace_rows("t", [(999, "only", 9.9)])
        assert list(store.scan("t")) == [(999, "only", 9.9)]
        assert store.catalog.table("t").row_count == 1

    def test_scan_unknown_table(self, make_store):
        store = make_store()
        with pytest.raises(CatalogError):
            list(store.scan("missing"))

    def test_many_rows_span_pages(self, make_store):
        store = make_store()
        store.create_table(self._schema())
        rows = [(i, "data" * 20, float(i)) for i in range(500)]
        store.insert_rows("t", rows)
        assert list(store.scan("t")) == rows


class TestHostIngestFastPath:
    """MemoryStore ingest: untouched when types match, coerced otherwise."""

    COLUMNS = [("i", "INTEGER"), ("r", "REAL"), ("t", "TEXT"), ("d", "DATE")]

    def _store(self):
        store = MemoryStore()
        store.create_table(TableSchema(name="t", columns=self.COLUMNS))
        return store

    def test_still_coerces(self):
        store = self._store()
        store.insert_rows("t", [(1, 1, "x", "1995-01-01"), (True, 2.5, 7, None)])
        rows = list(store.scan("t"))
        assert rows == [(1, 1.0, "x", datetime.date(1995, 1, 1)), (1, 2.5, "7", None)]
        assert [type(v) for v in rows[0]] == [int, float, str, datetime.date]
        assert type(rows[1][0]) is int  # True in an INTEGER column -> 1

    def test_exact_rows_pass_through_and_are_not_aliased(self):
        store = self._store()
        rows = [(1, 1.0, "x", datetime.date(1995, 1, 1)), (None, None, None, None)]
        assert store._coerce_rows(store.catalog.table("t"), rows) is rows
        store.replace_rows("t", rows)
        rows.append((2, 2.0, "y", None))
        assert len(list(store.scan("t"))) == 2

    def test_table_bytes_equals_per_row_estimate(self):
        store = self._store()
        rows = [
            (1, 1.5, "héllo", datetime.date(2022, 6, 13)),
            (None, None, None, None),
            (True, 2, "", "1999-12-31"),
            (2**40, -0.0, "x" * 300, None),
        ]
        store.insert_rows("t", rows[:3])
        store.insert_rows("t", rows[3:])
        expected = sum(estimate_row_bytes(r) for r in store.scan("t"))
        assert store.table_bytes("t") == expected
        store.replace_rows("t", list(store.scan("t"))[1:])
        assert store.table_bytes("t") == sum(
            estimate_row_bytes(r) for r in store.scan("t")
        )


class TestPagedStorePersistence:
    def test_reopen_preserves_data(self):
        device = BlockDevice()
        store = PagedStore(Pager(device))
        store.create_table(TableSchema(name="t", columns=[("a", "INTEGER")]))
        store.insert_rows("t", [(1,), (2,)])
        store.commit()

        reopened = PagedStore(Pager(device))
        assert list(reopened.scan("t")) == [(1,), (2,)]

    def test_incremental_insert_reuses_last_page(self):
        device = BlockDevice()
        store = PagedStore(Pager(device))
        store.create_table(TableSchema(name="t", columns=[("a", "INTEGER")]))
        store.insert_rows("t", [(1,)])
        pages_after_first = len(store.catalog.table("t").pages)
        store.insert_rows("t", [(2,)])
        assert len(store.catalog.table("t").pages) == pages_after_first
        assert list(store.scan("t")) == [(1,), (2,)]

    def test_replace_reuses_freed_pages(self):
        device = BlockDevice()
        store = PagedStore(Pager(device))
        store.create_table(TableSchema(name="t", columns=[("a", "TEXT")]))
        store.insert_rows("t", [("x" * 1000,) for _ in range(50)])
        allocated_before = store.pager.page_count
        store.replace_rows("t", [("y" * 1000,) for _ in range(50)])
        assert store.pager.page_count == allocated_before  # freelist reuse

    def test_row_larger_than_page_rejected(self):
        store = _make_paged()
        store.create_table(TableSchema(name="t", columns=[("a", "TEXT")]))
        with pytest.raises(StorageError):
            store.insert_rows("t", [("z" * 5000,)])

    def test_secure_store_data_encrypted_at_rest(self):
        device = BlockDevice()
        rng = Rng("enc")
        pager = SecurePager(device, rng.bytes(32), InMemoryAnchor(), rng.fork("iv"))
        store = PagedStore(pager)
        store.create_table(TableSchema(name="t", columns=[("secret", "TEXT")]))
        store.insert_rows("t", [("CONFIDENTIAL-VALUE-123",)])
        store.commit()
        for pgno in range(device.num_pages):
            assert b"CONFIDENTIAL-VALUE-123" not in device.raw_page(pgno)
