"""Benchmark harness: builds deployments, runs the paper's experiments,
and formats result tables.  Resource sweeps re-price a recorded run
through :func:`repro.sim.pricing.price_split`.

Every experiment here regenerates one table or figure of the paper's
evaluation (see DESIGN.md §5 for the index).  Reported numbers are
deterministic *simulated* milliseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..core import Deployment, RunResult
from ..core.manual_partitions import MANUAL_PARTITIONS
from ..sim import CAT_CHANNEL_CRYPTO, CAT_DECRYPTION, CAT_FRESHNESS, MIB
from ..tpch import ALL_QUERIES, EVALUATED_NUMBERS

GIB = 1024**3

# Our simulated database stands in for the paper's scale-factor-3 TPC-H
# instance; resource knobs (EPC size, storage memory) scale by the data
# ratio so pressure points land where the paper's did.
PAPER_SCALE_FACTOR = 3.0
PAPER_EPC_BYTES = 96 * MIB
PAPER_TREE_BYTES_SF3 = 59 * MIB


def scaled_epc_limit(deployment_tree_bytes: int) -> int:
    """EPC limit giving the same tree/EPC ratio as the paper's SF-3 setup."""
    return max(4096, int(deployment_tree_bytes * PAPER_EPC_BYTES / PAPER_TREE_BYTES_SF3))


def build_deployment(
    scale_factor: float = 0.002,
    *,
    seed: int = 2022,
    scale_epc: bool = True,
    **kwargs,
) -> Deployment:
    """Build an attested deployment; optionally pin the EPC to paper ratio."""
    deployment = Deployment(scale_factor=scale_factor, seed=seed, **kwargs)
    if scale_epc:
        tree = deployment.storage_engine.pager.tree_size_bytes()
        deployment.cost_model = deployment.cost_model.scaled(
            epc_limit_bytes=scaled_epc_limit(tree)
        )
    deployment.attest_all()
    return deployment


# ---------------------------------------------------------------------------
# Core experiment: run one query under a set of configurations
# ---------------------------------------------------------------------------


@dataclass
class QueryRuns:
    number: int
    runs: dict[str, RunResult] = field(default_factory=dict)

    def ms(self, config: str) -> float:
        return self.runs[config].total_ms

    def speedup(self, base: str, new: str) -> float:
        return self.ms(base) / self.ms(new)


def run_tpch_suite(
    deployment: Deployment,
    configs: tuple[str, ...],
    numbers: list[int] | None = None,
    use_manual: bool = True,
    run_config=None,
) -> list[QueryRuns]:
    """Run each TPC-H query under each configuration.

    *run_config* overrides the deployment's default execution knobs for
    every run (e.g. ``RunConfig(vectorized=True)`` for the morsel arm).
    """
    numbers = numbers if numbers is not None else EVALUATED_NUMBERS
    out = []
    for number in numbers:
        query = ALL_QUERIES[number]
        manual = MANUAL_PARTITIONS.get(number) if use_manual else None
        runs = QueryRuns(number)
        reference: list | None = None
        for config in configs:
            kwargs = {}
            if config in ("vcs", "scs") and manual is not None:
                kwargs["manual_partition"] = manual
            if run_config is not None:
                kwargs["run_config"] = run_config
            result = deployment.run_query(query.sql, config, **kwargs)
            runs.runs[config] = result
            if reference is None:
                reference = sorted(result.rows)
            elif sorted(result.rows) != reference:
                raise AssertionError(
                    f"Q{number}: configuration {config} produced different rows"
                )
        out.append(runs)
    return out


# ---------------------------------------------------------------------------
# Breakdown extraction (Figures 8 / 9c)
# ---------------------------------------------------------------------------


@dataclass
class OverheadBreakdown:
    """Figure 8 row: where an scs run's time goes, vs its vcs twin."""

    number: int
    ndp_ms: float  # = the vcs runtime: the non-secure CS cost
    freshness_ms: float
    decryption_ms: float
    other_ms: float
    total_ms: float

    def fraction(self, part_ms: float) -> float:
        return part_ms / self.total_ms if self.total_ms else 0.0


def overhead_breakdown(number: int, scs: RunResult, vcs: RunResult) -> OverheadBreakdown:
    freshness = scs.breakdown.ms(CAT_FRESHNESS)
    decryption = scs.breakdown.ms(CAT_DECRYPTION)
    # The paper's "other" covers channel encryption + storage-side CS
    # service instantiation; the monitor's control path is not part of
    # Figure 8's per-query breakdown.
    other = scs.breakdown.ms(CAT_CHANNEL_CRYPTO)
    return OverheadBreakdown(
        number=number,
        ndp_ms=vcs.total_ms,
        freshness_ms=freshness,
        decryption_ms=decryption,
        other_ms=other,
        total_ms=scs.total_ms,
    )


# ---------------------------------------------------------------------------
# Table formatting
# ---------------------------------------------------------------------------


def format_table(headers: list[str], rows: list[list], title: str = "") -> str:
    """Plain-text table (the harness prints these under pytest -s)."""
    def fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.2f}"
        return str(value)

    str_rows = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def geomean(values: list[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
