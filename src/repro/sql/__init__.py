"""From-scratch SQL engine: lexer → parser → planner → iterator executor.

Covers the SQL-92 subset the TPC-H evaluation and the GDPR policy rewrites
need: multi-way joins (implicit and explicit, including LEFT OUTER),
correlated and uncorrelated subqueries (decorrelated into hash semi joins
and lookup maps), grouped aggregation with HAVING, CASE, LIKE, date
arithmetic, ORDER BY / LIMIT / DISTINCT, and basic DML/DDL.
"""

from .ast_nodes import Select, Statement
from .catalog import Catalog, TableSchema
from .engine import Database, ExecOptions, Result, memory_database, paged_database
from .parser import parse, parse_expression
from .stores import MemoryStore, PagedStore, TableStore

__all__ = [
    "Catalog",
    "Database",
    "ExecOptions",
    "MemoryStore",
    "PagedStore",
    "Result",
    "Select",
    "Statement",
    "TableSchema",
    "TableStore",
    "memory_database",
    "paged_database",
    "parse",
    "parse_expression",
]
