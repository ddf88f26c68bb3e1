"""Runtime value semantics: SQL types, three-valued logic, date arithmetic.

Values are represented with native Python types — ``int``, ``float``,
``str``, ``datetime.date`` and ``None`` for SQL NULL.  This module pins the
SQL behaviours that differ from Python: NULL propagation through operators
and comparisons, Kleene AND/OR, LIKE patterns, and date ± interval.
"""

from __future__ import annotations

import datetime
import re
from functools import lru_cache

from ..errors import ExecutionError

TYPE_NAMES = ("INTEGER", "REAL", "TEXT", "DATE")
#: Declared column type -> the exact value type :func:`coerce` produces; a
#: value already of that type (or NULL) comes back from it unchanged.
COERCED_TYPES = {"INTEGER": int, "REAL": float, "TEXT": str, "DATE": datetime.date}


def coerce(value, type_name: str):
    """Coerce an inserted value to its declared column type."""
    if value is None:
        return None
    if type_name == "INTEGER":
        return int(value)
    if type_name == "REAL":
        return float(value)
    if type_name == "TEXT":
        return str(value)
    if type_name == "DATE":
        if isinstance(value, datetime.date):
            return value
        if isinstance(value, str):
            return datetime.date.fromisoformat(value)
        raise ExecutionError(f"cannot coerce {value!r} to DATE")
    raise ExecutionError(f"unknown type {type_name!r}")


# ---------------------------------------------------------------------------
# Three-valued logic
# ---------------------------------------------------------------------------


def sql_and(a, b):
    """Kleene AND: False dominates NULL."""
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return bool(a) and bool(b)


def sql_or(a, b):
    """Kleene OR: True dominates NULL."""
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return bool(a) or bool(b)


def sql_not(a):
    if a is None:
        return None
    return not a


def is_true(value) -> bool:
    """WHERE/HAVING keep a row only when the predicate is exactly TRUE."""
    return value is True or (value is not None and value is not False and bool(value))


# ---------------------------------------------------------------------------
# Comparisons and arithmetic
# ---------------------------------------------------------------------------


def _comparable(a, b):
    """Raise on type mixes SQL would reject (TEXT vs INTEGER, etc.)."""
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return
    if isinstance(a, str) and isinstance(b, str):
        return
    if isinstance(a, datetime.date) and isinstance(b, datetime.date):
        return
    raise ExecutionError(f"cannot compare {type(a).__name__} with {type(b).__name__}")


def sql_eq(a, b):
    if a is None or b is None:
        return None
    _comparable(a, b)
    return a == b


def sql_ne(a, b):
    result = sql_eq(a, b)
    return None if result is None else not result


def sql_lt(a, b):
    if a is None or b is None:
        return None
    _comparable(a, b)
    return a < b


def sql_le(a, b):
    if a is None or b is None:
        return None
    _comparable(a, b)
    return a <= b


def sql_gt(a, b):
    if a is None or b is None:
        return None
    _comparable(a, b)
    return a > b


def sql_ge(a, b):
    if a is None or b is None:
        return None
    _comparable(a, b)
    return a >= b


def _add_months(d: datetime.date, months: int) -> datetime.date:
    month_index = d.year * 12 + (d.month - 1) + months
    year, month = divmod(month_index, 12)
    # clamp the day into the target month
    for day in (d.day, 30, 29, 28):
        try:
            return datetime.date(year, month + 1, day)
        except ValueError:
            continue
    raise ExecutionError("date arithmetic failed")  # pragma: no cover


def interval_shift(d: datetime.date, amount: int, unit: str, sign: int):
    """date ± INTERVAL 'amount' unit."""
    if d is None:
        return None
    if unit == "DAY":
        return d + datetime.timedelta(days=sign * amount)
    if unit == "MONTH":
        return _add_months(d, sign * amount)
    if unit == "YEAR":
        return _add_months(d, sign * amount * 12)
    raise ExecutionError(f"unknown interval unit {unit!r}")


def sql_add(a, b):
    if a is None or b is None:
        return None
    if isinstance(a, datetime.date) or isinstance(b, datetime.date):
        raise ExecutionError("date addition requires an INTERVAL")
    return a + b


def sql_sub(a, b):
    if a is None or b is None:
        return None
    if isinstance(a, datetime.date) and isinstance(b, datetime.date):
        return (a - b).days
    return a - b


def sql_mul(a, b):
    if a is None or b is None:
        return None
    return a * b


def sql_div(a, b):
    if a is None or b is None:
        return None
    if b == 0:
        return None  # SQL engines commonly NULL or error; we NULL like SQLite
    if isinstance(a, int) and isinstance(b, int):
        return a / b  # SQL-92 DECIMAL division, not C integer division
    return a / b


def sql_mod(a, b):
    if a is None or b is None:
        return None
    if b == 0:
        return None
    return a % b


def sql_concat(a, b):
    if a is None or b is None:
        return None
    return str(a) + str(b)


def sql_neg(a):
    return None if a is None else -a


# ---------------------------------------------------------------------------
# LIKE
# ---------------------------------------------------------------------------


@lru_cache(maxsize=512)
def _like_regex(pattern: str) -> re.Pattern:
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


def sql_like(value, pattern):
    if value is None or pattern is None:
        return None
    return _like_regex(str(pattern)).match(str(value)) is not None


# ---------------------------------------------------------------------------
# Scalar functions and EXTRACT/SUBSTRING
# ---------------------------------------------------------------------------


def sql_extract(unit: str, value):
    if value is None:
        return None
    if not isinstance(value, datetime.date):
        raise ExecutionError(f"EXTRACT expects a DATE, got {type(value).__name__}")
    if unit == "YEAR":
        return value.year
    if unit == "MONTH":
        return value.month
    if unit == "DAY":
        return value.day
    raise ExecutionError(f"unknown EXTRACT unit {unit!r}")


def sql_substring(value, start, length=None):
    """1-based SUBSTRING with optional length (SQL semantics)."""
    if value is None or start is None:
        return None
    s = str(value)
    begin = max(int(start) - 1, 0)
    if length is None:
        return s[begin:]
    if length < 0:
        raise ExecutionError("SUBSTRING length must be non-negative")
    return s[begin : begin + int(length)]


SCALAR_FUNCTIONS = {
    "abs": lambda v: None if v is None else abs(v),
    "round": lambda v, n=0: None if v is None else round(v, int(n)),
    "lower": lambda v: None if v is None else str(v).lower(),
    "upper": lambda v: None if v is None else str(v).upper(),
    "length": lambda v: None if v is None else len(str(v)),
    "coalesce": lambda *args: next((a for a in args if a is not None), None),
}


def estimate_value_bytes(value) -> int:
    """Rough in-memory size used for working-set accounting."""
    if value is None:
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, datetime.date):
        return 4
    return 2 + len(value)


def estimate_row_bytes(row: tuple) -> int:
    return 8 + sum(estimate_value_bytes(v) for v in row)


def estimate_rows_bytes(rows: list[tuple]) -> int:
    """``sum(estimate_row_bytes(r) for r in rows)`` for equal-width rows.

    Summed column-wise: a column of one fixed-width type (or of TEXT)
    costs no per-value Python call; any other column is summed per value.
    """
    count = len(rows)
    total = 8 * count
    for column in zip(*rows):
        kinds = set(map(type, column))
        if kinds <= {int, float, bool}:
            total += 8 * count
        elif kinds == {str}:
            total += 2 * count + sum(map(len, column))
        elif kinds == {datetime.date}:
            total += 4 * count
        else:
            total += sum(map(estimate_value_bytes, column))
    return total
