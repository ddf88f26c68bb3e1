"""On-page and on-wire record formats.

Rows are serialized into a compact tagged binary format and packed into
page payloads.  A page payload is ``[2-byte row count][record]*`` where a
record is ``[1-byte column count][field]*`` (there is no length prefix:
a record ends where its last field ends) and a field is a 1-byte type tag
followed by its encoding.  Fixed-width numerics keep parsing cheap; TEXT
carries a 2-byte length prefix.

For the streaming ship pipeline there is additionally a **RecordBatch**
wire format (:func:`encode_batch` / :func:`decode_batch`): one header and
one type tag *per column* amortized across the whole batch, a per-row
null bitmap, and untagged fixed-width values.  Columns whose non-null
values do not share a single type fall back to inline-tagged fields
(``TAG_MIXED``), so any row the per-row format accepts round-trips
through the batch format too.

**Shape-compiled plans.**  Consecutive records almost always share one
shape (the same column types, no NULLs), so neither format is interpreted
one field at a time.  A shape — the column tags — is compiled once
(:func:`_compile_plan`, bounded cache) into *segments*: each segment is
one ``struct.Struct`` covering a run of fixed-width columns that ends at a
TEXT length prefix or at the end of the record.  In the row format the
struct reads the tags too (``[tag][value]`` pairs, the column count folded
into the first tag as one u16); in the batch format the first segment
reads the null bitmap.  Decoding a record is then one ``unpack_from`` per
segment, one slice + UTF-8 decode per TEXT, and one compare per record of
what must be constant (the tags / a zero bitmap) against what was read;
encoding a NULL-free, uniformly-typed batch is one ``Struct.pack`` per
segment mapped over the columns.  **Fallback rule:** a record that does not fit the plan in any
way — a NULL, a different width or tag, a short buffer, bad UTF-8, an
impossible date — is handed, from its first byte, to the generic
field-at-a-time decoder (:func:`decode_row` / :func:`_decode_batch_row`),
which is the reference: it produces the row or the typed error.  Plans
never change a byte of either format.
"""

from __future__ import annotations

import datetime
import struct
from functools import lru_cache
from itertools import chain, repeat

from ..errors import StorageError

TAG_NULL = 0
TAG_INT = 1
TAG_REAL = 2
TAG_TEXT = 3
TAG_DATE = 4
#: Column-level tag only (never appears on individual fields): the
#: column's values are heterogeneous, so each value carries its own
#: inline tag exactly as in the per-row format.
TAG_MIXED = 5

_INT = struct.Struct(">q")
_REAL = struct.Struct(">d")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
#: RecordBatch header: row count, column count.
_BATCH_HEADER = struct.Struct(">HB")

#: Rows a single RecordBatch can carry (header row count is a u16).
MAX_BATCH_ROWS = 0xFFFF

#: What a decoder fed corrupt bytes can raise below the typed wrappers
#: (``date.fromordinal``: ValueError for 0, OverflowError past a C int).
_DECODE_ERRORS = (
    struct.error,
    IndexError,
    UnicodeDecodeError,
    ValueError,
    OverflowError,
)

#: Exact value type -> wire tag.  Decoded rows hold only these types
#: (``bool`` is accepted on encode and stored as INT); anything else —
#: a subclass, an unsupported type — goes through :func:`_value_tag`.
_TYPE_TAG = {
    type(None): TAG_NULL,
    bool: TAG_INT,
    int: TAG_INT,
    float: TAG_REAL,
    str: TAG_TEXT,
    datetime.date: TAG_DATE,
}

#: struct code of each tag's fixed-width part (for TEXT, its length prefix).
_TAG_CODE = {TAG_INT: "q", TAG_REAL: "d", TAG_DATE: "I", TAG_TEXT: "H"}


def _encode_field(value) -> bytes:
    """One tagged field (shared by the row format and MIXED batch columns)."""
    if value is None:
        return bytes([TAG_NULL])
    if isinstance(value, bool):
        return bytes([TAG_INT]) + _INT.pack(int(value))
    if isinstance(value, int):
        return bytes([TAG_INT]) + _INT.pack(value)
    if isinstance(value, float):
        return bytes([TAG_REAL]) + _REAL.pack(value)
    if isinstance(value, datetime.date):
        return bytes([TAG_DATE]) + _U32.pack(value.toordinal())
    if isinstance(value, str):
        raw = value.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise StorageError("TEXT value exceeds 64 KiB")
        return bytes([TAG_TEXT]) + _U16.pack(len(raw)) + raw
    raise StorageError(f"unsupported value type {type(value).__name__}")


def _decode_field(data: bytes, offset: int) -> tuple[object, int]:
    """Decode one tagged field; returns (value, next_offset).

    Raises one of ``_DECODE_ERRORS`` on corrupt input; the public decoders
    turn those into :class:`StorageError`.
    """
    tag = data[offset]
    offset += 1
    if tag == TAG_NULL:
        return None, offset
    if tag == TAG_INT:
        return _INT.unpack_from(data, offset)[0], offset + 8
    if tag == TAG_REAL:
        return _REAL.unpack_from(data, offset)[0], offset + 8
    if tag == TAG_DATE:
        ordinal = _U32.unpack_from(data, offset)[0]
        return datetime.date.fromordinal(ordinal), offset + 4
    if tag == TAG_TEXT:
        length = _U16.unpack_from(data, offset)[0]
        offset += 2
        raw = data[offset : offset + length]
        if len(raw) != length:
            raise ValueError("truncated TEXT value")
        return raw.decode("utf-8"), offset + length
    raise ValueError(f"unknown tag {tag}")


def encode_row(row: tuple) -> bytes:
    """Serialize one row: ``[1-byte column count][field]*``."""
    parts = [bytes([len(row)])]
    for value in row:
        parts.append(_encode_field(value))
    return b"".join(parts)


def decode_row(data: bytes, offset: int = 0) -> tuple[tuple, int]:
    """Deserialize one row starting at *offset*; returns (row, next_offset).

    The generic field-at-a-time decoder: the reference the compiled plans
    are tested against and the fallback for any record they do not fit.
    Raises :class:`StorageError` on any corruption.
    """
    try:
        ncols = data[offset]
        offset += 1
        values = []
        for _ in range(ncols):
            value, offset = _decode_field(data, offset)
            values.append(value)
    except _DECODE_ERRORS as exc:
        raise StorageError(f"corrupt page payload: {exc}") from exc
    return tuple(values), offset


# ---------------------------------------------------------------------------
# Shape-compiled plans (shared by the row and the batch format)
# ---------------------------------------------------------------------------
#
# One record is read as a flat list of struct fields, segment by segment:
#
#   row format    [ncols<<8|tag0, v0, tag1, v1, ..., tagN, vN]
#   batch format  [null bitmap, v0, v1, ..., vN]
#
# (a TEXT column's field is its byte length until the text replaces it).
# A plan is ``(segments, check, expected, take, date_slots)``: the record
# fits when ``fields[check] == expected`` (the tags, or the zero bitmap),
# its values are ``fields[take]``, and ``date_slots`` index the ordinals
# still to become dates.  A segment is ``(unpack_from, size, text, pack,
# nfields)`` — ``text`` marks one that ends at a TEXT length prefix.


@lru_cache(maxsize=256)
def _compile_plan(tags: bytes, tagged: bool):
    """Compile one record shape; ``None`` when it has no fixed layout.

    *tagged* selects the row format (inline tags, leading column count)
    over the batch format (untagged values behind a null bitmap).  Shapes
    with a NULL or MIXED column, and zero-width ones, are not compiled.
    The cache is bounded because page bytes choose the key.
    """
    if not tags or any(tag not in _TAG_CODE for tag in tags):
        return None
    ncols = len(tags)
    if tagged:
        # Column count and first tag are read as one big-endian u16.
        codes = ["H" + _TAG_CODE[tags[0]]]
        codes += ["B" + _TAG_CODE[tag] for tag in tags[1:]]
        expected = [(ncols << 8) | tags[0], *tags[1:]]
        check, take = slice(0, None, 2), slice(1, None, 2)
    else:
        bitmap_len = (ncols + 7) // 8
        codes = [_TAG_CODE[tag] for tag in tags]
        codes[0] = f"{bitmap_len}s" + codes[0]
        expected = [bytes(bitmap_len)]
        check, take = slice(0, 1), slice(1, None)
    # Field index of each column's value in the flat record.
    slots = range(2 * ncols if tagged else ncols + 1)[take]
    segments = []
    start = field = 0
    for col, tag in enumerate(tags):
        if tag == TAG_TEXT or col == ncols - 1:
            seg = struct.Struct(">" + "".join(codes[start : col + 1]))
            nfields = slots[col] + 1 - field
            segments.append(
                (seg.unpack_from, seg.size, tag == TAG_TEXT, seg.pack, nfields)
            )
            start, field = col + 1, field + nfields
    date_slots = tuple(slots[col] for col, tag in enumerate(tags) if tag == TAG_DATE)
    return tuple(segments), check, expected, take, date_slots


def _decode_run(plan, data: bytes, offset: int, count: int, rows: list) -> int:
    """Append up to *count* consecutive records that fit *plan* to *rows*.

    Returns the offset of the first record not consumed: the end of the
    run, or the first byte of a record that does not fit — which the
    caller hands to its generic decoder.  Raises nothing on corrupt input
    (a misfit by definition).
    """
    segments, check, expected, take, date_slots = plan
    limit = len(data)
    fromordinal = datetime.date.fromordinal
    append = rows.append
    try:
        for _ in range(count):
            pos = offset
            fields: list = []
            for unpack_from, size, text, _, _ in segments:
                fields += unpack_from(data, pos)
                pos += size
                if text:
                    end = pos + fields[-1]
                    fields[-1] = data[pos:end].decode("utf-8")
                    pos = end
            # pos > limit: a TEXT slice ran past the end of the buffer.
            if fields[check] != expected or pos > limit:
                return offset
            for slot in date_slots:
                fields[slot] = fromordinal(fields[slot])
            append(tuple(fields[take]))
            offset = pos
    except _DECODE_ERRORS:
        pass
    return offset


def pack_page(rows: list[bytes]) -> bytes:
    """Assemble encoded rows into one page payload."""
    return _U16.pack(len(rows)) + b"".join(rows)


def unpack_page(payload: bytes) -> list[tuple]:
    """Decode every row in a page payload.

    Runs of same-shaped records go through the compiled plan of the last
    generically decoded record; everything else through :func:`decode_row`.
    Raises :class:`StorageError` on any corruption.
    """
    if len(payload) < 2:
        return []
    (count,) = _U16.unpack_from(payload, 0)
    rows: list[tuple] = []
    offset = 2
    plan = None
    while len(rows) < count:
        if plan is not None:
            offset = _decode_run(plan, payload, offset, count - len(rows), rows)
            if len(rows) == count:
                break
        row, offset = decode_row(payload, offset)
        rows.append(row)
        plan = _compile_plan(bytes(_TYPE_TAG[type(value)] for value in row), True)
    return rows


# ---------------------------------------------------------------------------
# RecordBatch wire format (streaming ship pipeline)
# ---------------------------------------------------------------------------


def _value_tag(value) -> int:
    """The wire tag a non-null value would carry in the per-row format."""
    if isinstance(value, bool) or isinstance(value, int):
        return TAG_INT
    if isinstance(value, float):
        return TAG_REAL
    if isinstance(value, datetime.date):
        return TAG_DATE
    if isinstance(value, str):
        return TAG_TEXT
    raise StorageError(f"unsupported value type {type(value).__name__}")


def _column_tags(columns: list[tuple]) -> tuple[bytes, bool]:
    """One amortized type tag per column (NULL = all-null, MIXED = varies).

    Also reports whether any value is NULL.  Tags come from the set of
    exact value types in the column; only a type outside ``_TYPE_TAG``
    (a subclass, an unsupported value) costs the per-value check.
    """
    tags = bytearray()
    nullable = False
    for column in columns:
        kinds = set(map(type, column))
        if type(None) in kinds:
            nullable = True
            kinds.discard(type(None))
        try:
            found = {_TYPE_TAG[kind] for kind in kinds}
        except KeyError:
            found = {_value_tag(value) for value in column if value is not None}
        if not found:
            tags.append(TAG_NULL)
        else:
            tags.append(found.pop() if len(found) == 1 else TAG_MIXED)
    return bytes(tags), nullable


def _pack_columns(plan, columns: list[tuple]) -> bytes:
    """Rows of a NULL-free, uniformly-typed batch, packed segment-wise."""
    segments, check, expected, take, date_slots = plan
    # One iterable per struct field, in record order.
    slots: list = [None] * (len(expected) + len(columns))
    slots[check] = map(repeat, expected)
    slots[take] = columns
    for slot in date_slots:
        slots[slot] = map(datetime.date.toordinal, slots[slot])
    streams: list = []
    start = 0
    for _, _, text, pack, nfields in segments:
        args = slots[start : start + nfields]
        start += nfields
        if text:
            raws = list(map(str.encode, args[-1]))
            args[-1] = lengths = list(map(len, raws))
            if max(lengths) > 0xFFFF:
                raise StorageError("TEXT value exceeds 64 KiB")
            streams += (map(pack, *args), raws)
        else:
            streams.append(map(pack, *args))
    return b"".join(chain.from_iterable(zip(*streams)))


def encode_batch(rows: list[tuple]) -> bytes:
    """Serialize a record batch: one header, per-column tags, null bitmaps.

    Layout::

        [u16 row count][u8 ncols][ncols x u8 column tag]
        per row: [ceil(ncols/8) null-bitmap bytes][non-null values]

    Values of a uniformly-typed column are written untagged (INT 8 B,
    REAL 8 B, DATE 4 B, TEXT u16-length-prefixed); a ``TAG_MIXED`` column
    falls back to inline-tagged fields.  Assembled with a single
    ``b"".join`` so serialization stays one flat pass per batch.
    """
    count = len(rows)
    if count > MAX_BATCH_ROWS:
        raise StorageError(f"record batch exceeds {MAX_BATCH_ROWS} rows")
    ncols = len(rows[0]) if rows else 0
    if rows and set(map(len, rows)) != {ncols}:
        ragged = next(len(row) for row in rows if len(row) != ncols)
        raise StorageError(
            f"ragged record batch: row of {ragged} values in a "
            f"{ncols}-column batch"
        )
    columns = list(zip(*rows))
    tags, nullable = _column_tags(columns)
    parts = [_BATCH_HEADER.pack(count, ncols), tags]
    plan = None if nullable else _compile_plan(tags, False)
    if plan is not None:
        parts.append(_pack_columns(plan, columns))
        return b"".join(parts)
    bitmap_len = (ncols + 7) // 8
    for row in rows:
        bitmap = bytearray(bitmap_len)
        values: list[bytes] = []
        for col, value in enumerate(row):
            if value is None:
                bitmap[col >> 3] |= 1 << (col & 7)
                continue
            tag = tags[col]
            if tag == TAG_MIXED:
                values.append(_encode_field(value))
            elif tag == TAG_INT:
                values.append(_INT.pack(int(value)))
            elif tag == TAG_REAL:
                values.append(_REAL.pack(value))
            elif tag == TAG_DATE:
                values.append(_U32.pack(value.toordinal()))
            else:  # TAG_TEXT
                raw = value.encode("utf-8")
                if len(raw) > 0xFFFF:
                    raise StorageError("TEXT value exceeds 64 KiB")
                values.append(_U16.pack(len(raw)) + raw)
        parts.append(bytes(bitmap))
        parts.extend(values)
    return b"".join(parts)


def decode_batch(data: bytes) -> list[tuple]:
    """Decode one RecordBatch payload back into row tuples.

    Raises :class:`StorageError` on any corruption: unknown column tag,
    truncated values, a non-null cell in an all-NULL column, or trailing
    bytes after the declared row count.
    """
    try:
        return _decode_batch(data)
    except _DECODE_ERRORS as exc:
        raise StorageError(f"corrupt record batch: {exc}") from exc


def _decode_batch(data: bytes) -> list[tuple]:
    count, ncols = _BATCH_HEADER.unpack_from(data, 0)
    offset = _BATCH_HEADER.size
    tags = data[offset : offset + ncols]
    if len(tags) != ncols:
        raise StorageError("corrupt record batch: truncated column tags")
    for tag in tags:
        if tag > TAG_MIXED:
            raise StorageError(f"corrupt record batch: unknown column tag {tag}")
    offset += ncols
    plan = _compile_plan(bytes(tags), False)
    rows: list[tuple] = []
    while len(rows) < count:
        if plan is not None:
            offset = _decode_run(plan, data, offset, count - len(rows), rows)
            if len(rows) == count:
                break
        row, offset = _decode_batch_row(data, offset, tags)
        rows.append(row)
    if offset != len(data):
        raise StorageError(
            f"corrupt record batch: {len(data) - offset} trailing bytes"
        )
    return rows


def _decode_batch_row(data: bytes, offset: int, tags: bytes) -> tuple[tuple, int]:
    """Generic decoder of one batch row (NULLs, MIXED columns, misfits)."""
    ncols = len(tags)
    bitmap_len = (ncols + 7) // 8
    bitmap = data[offset : offset + bitmap_len]
    if len(bitmap) != bitmap_len:
        raise StorageError("corrupt record batch: truncated null bitmap")
    offset += bitmap_len
    values: list = []
    for col in range(ncols):
        if bitmap[col >> 3] & (1 << (col & 7)):
            values.append(None)
            continue
        tag = tags[col]
        if tag == TAG_NULL:
            raise StorageError(
                "corrupt record batch: non-null cell in all-NULL column"
            )
        if tag == TAG_MIXED:
            value, offset = _decode_field(data, offset)
        elif tag == TAG_INT:
            value = _INT.unpack_from(data, offset)[0]
            offset += 8
        elif tag == TAG_REAL:
            value = _REAL.unpack_from(data, offset)[0]
            offset += 8
        elif tag == TAG_DATE:
            value = datetime.date.fromordinal(_U32.unpack_from(data, offset)[0])
            offset += 4
        else:  # TAG_TEXT
            length = _U16.unpack_from(data, offset)[0]
            offset += 2
            raw = data[offset : offset + length]
            if len(raw) != length:
                raise StorageError("corrupt record batch: truncated TEXT value")
            value = raw.decode("utf-8")
            offset += length
        values.append(value)
    return tuple(values), offset
