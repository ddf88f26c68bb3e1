"""Benchmark harness for regenerating every table and figure."""

from .harness import (
    PAPER_EPC_BYTES,
    PAPER_SCALE_FACTOR,
    PAPER_TREE_BYTES_SF3,
    OverheadBreakdown,
    QueryRuns,
    build_deployment,
    format_table,
    geomean,
    overhead_breakdown,
    run_tpch_suite,
    scaled_epc_limit,
)

__all__ = [
    "PAPER_EPC_BYTES",
    "PAPER_SCALE_FACTOR",
    "PAPER_TREE_BYTES_SF3",
    "OverheadBreakdown",
    "QueryRuns",
    "build_deployment",
    "format_table",
    "geomean",
    "overhead_breakdown",
    "run_tpch_suite",
    "scaled_epc_limit",
]
