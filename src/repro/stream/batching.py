"""Size-bounded record-batch assembly with adaptive row-count targeting.

The assembler drains a row iterator into RecordBatch payloads of roughly
``target_bytes`` each.  Row width is not known up front (TEXT columns
vary), so instead of encoding row-by-row and measuring, it carries a
*row-count target* across batches: after each emitted batch it re-derives
the per-row byte estimate from what the batch actually encoded to and
retargets the next batch.  One encode pass and one ``b"".join`` per
batch; peak working set is one batch, never the whole result.  On the
wire each batch payload travels behind a one-byte frame tag
(:func:`pack_frame` / :func:`unpack_frame`).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from ..errors import StreamError
from ..sql.records import MAX_BATCH_ROWS, encode_batch

#: On-wire batch size target (pre-encryption) of every streamed ship.
DEFAULT_BATCH_BYTES = 64 * 1024

#: Row-count target for the very first batch, before any byte feedback.
INITIAL_ROW_TARGET = 64


@dataclass(frozen=True)
class EncodedBatch:
    """One assembled batch: the decoded rows and their wire payload."""

    rows: tuple[tuple, ...]
    payload: bytes

    @property
    def row_count(self) -> int:
        return len(self.rows)

    @property
    def nbytes(self) -> int:
        return len(self.payload)


#: The one-byte tag that opens every batch frame on the wire.
_FRAME_TAG = b"\x00"


def pack_frame(payload: bytes) -> bytes:
    """Frame a batch *payload* for the wire: its tag byte, then the payload."""
    return _FRAME_TAG + payload


def unpack_frame(frame: bytes) -> bytes:
    """Undo :func:`pack_frame`; a frame without the batch tag is refused."""
    if not frame:
        raise StreamError("empty ship frame")
    if frame[:1] != _FRAME_TAG:
        raise StreamError(f"unknown ship frame flag {frame[0]}")
    return frame[1:]


class BatchAssembler:
    """Accumulate rows into ~``target_bytes`` RecordBatches."""

    def __init__(
        self,
        target_bytes: int = DEFAULT_BATCH_BYTES,
        *,
        initial_rows: int = INITIAL_ROW_TARGET,
        max_rows: int = 4096,
        fixed_rows: int | None = None,
    ):
        if target_bytes <= 0:
            raise StreamError(f"batch target must be positive, got {target_bytes}")
        if not 1 <= initial_rows <= MAX_BATCH_ROWS:
            raise StreamError(f"initial row target {initial_rows} out of range")
        self.target_bytes = target_bytes
        self.max_rows = min(max_rows, MAX_BATCH_ROWS)
        if fixed_rows is not None:
            # Oblivious full tier: the rows-per-batch target is pinned to
            # a predicate-independent value derived from catalog stats,
            # so the batch *boundaries* (and hence the frame schedule)
            # never adapt to the filtered data.
            if not 1 <= fixed_rows <= MAX_BATCH_ROWS:
                raise StreamError(f"fixed row target {fixed_rows} out of range")
            self._row_target = min(fixed_rows, self.max_rows)
        else:
            self._row_target = min(initial_rows, self.max_rows)
        self._fixed = fixed_rows is not None

    @property
    def row_target(self) -> int:
        """Current adaptive rows-per-batch target (observable for tests)."""
        return self._row_target

    def _retarget(self, rows: int, nbytes: int) -> None:
        if self._fixed:
            return
        if rows <= 0 or nbytes <= 0:
            return
        per_row = max(1, nbytes // rows)
        self._row_target = max(1, min(self.max_rows, self.target_bytes // per_row))

    def batches(self, rows: Iterable[tuple]) -> Iterator[EncodedBatch]:
        """Yield encoded batches straight off *rows* (a lazy iterator)."""
        chunk: list[tuple] = []
        for row in rows:
            chunk.append(row)
            if len(chunk) >= self._row_target:
                payload = encode_batch(chunk)
                yield EncodedBatch(tuple(chunk), payload)
                self._retarget(len(chunk), len(payload))
                chunk = []
        if chunk:
            yield EncodedBatch(tuple(chunk), encode_batch(chunk))
