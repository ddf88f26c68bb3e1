"""Typed column buffers and morsel batches for vectorized execution.

The row engine (:mod:`repro.sql.operators`) is a Volcano iterator tree:
every tuple pays per-row Python dispatch in every operator.  This package
is the columnar data plane that lets operators amortize that overhead
batch-at-a-time:

* :class:`ColumnVector` — one column of values with a validity bitmap.
* :class:`Morsel` — a batch of columns plus an optional *selection
  vector*, so filters mark surviving rows instead of copying them.
  Morsels convert losslessly to/from the ``RecordBatch`` wire format
  (:mod:`repro.sql.records`), so scan output and channel frames share
  one representation end-to-end.
* Elementwise kernels (comparison / arithmetic / boolean) that map the
  scalar SQL semantics of :mod:`repro.sql.values` over whole columns —
  NULL handling is therefore identical to the row path by construction.

Layering: this package is the bottom of the vectorized stack and may
import only ``repro.errors``, ``repro.sim``, ``repro.sql.values`` and
``repro.sql.records`` (enforced by lint rule ARCH009).  The vectorized
operators themselves live in :mod:`repro.sql.vexec`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import Callable

from ...errors import ExecutionError
from ...sim import Meter
from ..records import MAX_BATCH_ROWS, decode_batch, encode_batch
from ..values import (
    estimate_value_bytes,
    is_true,
    sql_add,
    sql_and,
    sql_concat,
    sql_div,
    sql_eq,
    sql_ge,
    sql_gt,
    sql_le,
    sql_lt,
    sql_mod,
    sql_mul,
    sql_ne,
    sql_neg,
    sql_not,
    sql_or,
    sql_sub,
)

#: Meter counters the vectorized path accrues.  Registered here (import
#: time) so ``Metrics.absorb_meter`` treats them as first-class instead
#: of warn-dropping unknown extras.
VECTOR_COUNTERS = (
    "vector_batches",
    "vector_values",
    "selection_density_pct",
    "batches_reused",
)

for _name in VECTOR_COUNTERS:
    Meter.register_counter(_name)
del _name

#: Rows per morsel when a source chunks freely (scans over stores, row →
#: morsel adapters).  Batches arriving off the wire keep their shipped
#: boundaries instead.  Must stay within the RecordBatch row limit.
DEFAULT_MORSEL_ROWS = 1024
assert DEFAULT_MORSEL_ROWS <= MAX_BATCH_ROWS


class ColumnVector:
    """One column of a morsel: a value buffer with NULLs as ``None``.

    The validity bitmap is derived (LSB-first, 1 = valid) rather than
    stored, matching how the RecordBatch wire format materializes its
    per-row null bitmaps on encode.
    """

    __slots__ = ("values",)

    def __init__(self, values: Iterable[object]):
        self.values = values if isinstance(values, list) else list(values)

    def __len__(self) -> int:
        return len(self.values)

    def null_count(self) -> int:
        return sum(1 for v in self.values if v is None)

    def validity(self) -> bytes:
        """LSB-first validity bitmap (1 bit per slot, 1 = non-NULL)."""
        out = bytearray((len(self.values) + 7) // 8)
        for i, value in enumerate(self.values):
            if value is not None:
                out[i >> 3] |= 1 << (i & 7)
        return bytes(out)

    def gather(self, sel: Sequence[int]) -> list:
        """Values at the selected row positions."""
        values = self.values
        return [values[i] for i in sel]

    def nbytes(self) -> int:
        return 8 + sum(estimate_value_bytes(v) for v in self.values)


class Morsel:
    """A batch of rows in columnar form, with an optional selection vector.

    ``selection`` (when set) lists the surviving row positions in
    ascending order; the column buffers are never compacted by a filter,
    downstream operators simply gather through the selection.  A morsel
    with ``selection is None`` has every row active.
    """

    __slots__ = ("columns", "row_count", "selection")

    def __init__(
        self,
        columns: list[ColumnVector],
        row_count: int,
        selection: list[int] | None = None,
    ):
        self.columns = columns
        self.row_count = row_count
        self.selection = selection

    # -- construction -------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[tuple], width: int | None = None) -> "Morsel":
        """Transpose row tuples into column buffers (lossless)."""
        if width is None:
            if not rows:
                raise ExecutionError("cannot infer morsel width from zero rows")
            width = len(rows[0])
        columns = [ColumnVector(list(column)) for column in zip(*rows)]
        if len(columns) != width:
            # Zero rows (zip yields no columns) or rows not *width* wide.
            columns = [ColumnVector([row[c] for row in rows]) for c in range(width)]
        return cls(columns, len(rows))

    @classmethod
    def from_payload(cls, payload: bytes, width: int | None = None) -> "Morsel":
        """Decode one RecordBatch payload into a morsel (lossless)."""
        return cls.from_rows(decode_batch(payload), width)

    # -- inspection ---------------------------------------------------------

    @property
    def width(self) -> int:
        return len(self.columns)

    def active_indices(self) -> list[int]:
        """Row positions still live (the selection, or every row)."""
        if self.selection is None:
            return list(range(self.row_count))
        return self.selection

    @property
    def active_count(self) -> int:
        if self.selection is None:
            return self.row_count
        return len(self.selection)

    def nbytes(self) -> int:
        return sum(column.nbytes() for column in self.columns)

    # -- conversion ---------------------------------------------------------

    def with_selection(self, selection: list[int]) -> "Morsel":
        """Same buffers, narrowed to *selection* (no copying of values)."""
        return Morsel(self.columns, self.row_count, selection)

    def to_rows(self) -> list[tuple]:
        """Materialize the active rows as positional tuples."""
        columns = [column.values for column in self.columns]
        if self.selection is None:
            return list(zip(*columns)) if columns else [()] * self.row_count
        return [tuple(values[i] for values in columns) for i in self.selection]

    def to_payload(self) -> bytes:
        """Encode the active rows as one RecordBatch payload (lossless)."""
        return encode_batch(self.to_rows())


def morsels_from_rows(
    rows: Iterable[tuple], width: int, batch_rows: int = DEFAULT_MORSEL_ROWS
) -> Iterator[Morsel]:
    """Chunk a row iterator into morsels of at most *batch_rows* rows."""
    chunk: list[tuple] = []
    for row in rows:
        chunk.append(row)
        if len(chunk) >= batch_rows:
            yield Morsel.from_rows(chunk, width)
            chunk = []
    if chunk:
        yield Morsel.from_rows(chunk, width)


# ---------------------------------------------------------------------------
# Elementwise kernels
# ---------------------------------------------------------------------------
#
# Kernels wrap the scalar functions of repro.sql.values over aligned value
# lists, so three-valued logic, type errors and NULL propagation are the
# row path's semantics verbatim — there is no second implementation of SQL
# value rules to drift.

Kernel = Callable[[list, list], list]


def map_unary(fn: Callable[[object], object], values: list) -> list:
    return [fn(v) for v in values]


def map_binary(fn: Callable[[object, object], object], left: list, right: list) -> list:
    return [fn(a, b) for a, b in zip(left, right)]


def fill(value: object, count: int) -> list:
    """A broadcast literal column."""
    return [value] * count


def select_true(flags: list, sel: Sequence[int]) -> list[int]:
    """Row positions from *sel* whose aligned flag is SQL-TRUE.

    Uses :func:`repro.sql.values.is_true`, so WHERE semantics (truthy
    non-NULL values qualify, NULL and FALSE do not) match the row path.
    """
    return [i for i, flag in zip(sel, flags) if is_true(flag)]


def density_pct(kept: int, evaluated: int) -> float:
    """Selection density of one filter batch, as a rounded percentage."""
    if evaluated <= 0:
        return 0.0
    return round(100.0 * kept / evaluated, 2)


def _binary_kernel(fn: Callable[[object, object], object]) -> Kernel:
    def kernel(left: list, right: list) -> list:
        return [fn(a, b) for a, b in zip(left, right)]

    return kernel


#: Vectorized forms of the scalar binary operators, keyed by SQL symbol.
#: AND/OR appear in their *eager* forms; the expression compiler in
#: :mod:`repro.sql.vexec` short-circuits them lazily over sub-selections
#: to mirror the row compiler's evaluation order exactly.
BINARY_KERNELS: dict[str, Kernel] = {
    "+": _binary_kernel(sql_add),
    "-": _binary_kernel(sql_sub),
    "*": _binary_kernel(sql_mul),
    "/": _binary_kernel(sql_div),
    "%": _binary_kernel(sql_mod),
    "||": _binary_kernel(sql_concat),
    "=": _binary_kernel(sql_eq),
    "<>": _binary_kernel(sql_ne),
    "<": _binary_kernel(sql_lt),
    "<=": _binary_kernel(sql_le),
    ">": _binary_kernel(sql_gt),
    ">=": _binary_kernel(sql_ge),
    "AND": _binary_kernel(sql_and),
    "OR": _binary_kernel(sql_or),
}


def not_kernel(values: list) -> list:
    return [sql_not(v) for v in values]


def neg_kernel(values: list) -> list:
    return [sql_neg(v) for v in values]


__all__ = [
    "BINARY_KERNELS",
    "ColumnVector",
    "DEFAULT_MORSEL_ROWS",
    "Kernel",
    "Morsel",
    "VECTOR_COUNTERS",
    "density_pct",
    "fill",
    "map_binary",
    "map_unary",
    "morsels_from_rows",
    "neg_kernel",
    "not_kernel",
    "select_true",
]
