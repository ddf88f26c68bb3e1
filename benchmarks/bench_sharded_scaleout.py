"""Sharded scale-out: strong scaling, the adaptive offload optimizer,
single-shard byte-identity, and per-shard leakage groups.

Four arms over :class:`repro.shard.ShardedDeployment`:

* **strong scaling** — the same TPC-H instance partitioned over 1..8
  storage nodes, driven by a concurrent-client workload of
  shard-decomposable aggregates (``sos``: per-shard partials in
  parallel, host-side final merge).  Throughput must reach at least
  ``0.8 × N`` of the single-node rate at 8 shards — per-shard partials
  are embarrassingly parallel, so anything below that means the merge
  or session path grew a serial bottleneck.
* **optimizer** — every evaluated TPC-H query runs through
  ``ShardedDeployment.run_auto`` and under every manual configuration
  of its security class.  The cost-based plan must match or beat the
  best manual choice on *every* query, in both the secure (hos/scs/sos)
  and plain (hons/vcs) classes; ``optimizer_win_pct`` lands in the
  trend payload so an eroding win rate shows up in review.
* **byte-identity** — ``shards=1`` must be indistinguishable from the
  seed deployment: same rows, same simulated nanoseconds.
* **leakage** — K probes differing only in the predicate constant run
  under the ``full`` oblivious tier at 2 and 4 shards.  Each per-shard
  group (``scs|full|shardN``) must be leak-free with exactly one
  fingerprint; the traces are dumped as an obsv JSONL artifact so the
  CI leakage gate re-asserts this offline (``--require '*|shard*'``).
"""

from __future__ import annotations

import os
from pathlib import Path

from conftest import BENCH_SF, run_once

from repro.bench import format_table
from repro.core import Deployment, RunConfig
from repro.core.manual_partitions import MANUAL_PARTITIONS
from repro.errors import PartitionError
from repro.shard import PLAIN_CLASS, SECURE_CLASS, ShardedDeployment
from repro.telemetry import leakage_report, write_obsv_jsonl
from repro.tpch import ALL_QUERIES, EVALUATED_NUMBERS

SHARD_COUNTS = (1, 2, 4, 8)

#: The acceptance floor: throughput at N shards / (N x single-node).
MIN_EFFICIENCY = 0.8

#: Serial ship path for apples-to-apples manual-vs-auto comparisons.
SERIAL = RunConfig(pipeline=False)

#: Probe constants per leakage cell.
PROBES = 8

OBSV_OUT = os.environ.get("REPRO_BENCH_OUT", "")

#: Shard-decomposable aggregates (distinct constants so the concurrent
#: sessions are not byte-copies of each other).
_AGG = (
    "SELECT l_returnflag, l_linestatus, COUNT(*), SUM(l_quantity), "
    "SUM(l_extendedprice), MIN(l_shipdate), MAX(l_shipdate) FROM lineitem "
    "WHERE l_quantity > {q} GROUP BY l_returnflag, l_linestatus"
)
SCALING_QUERIES = [_AGG.format(q=q) for q in (5, 10, 15, 20)]


def _build(shards: int) -> ShardedDeployment:
    deployment = ShardedDeployment(
        shards=shards, scale_factor=BENCH_SF, seed=2022
    )
    deployment.attest_all()
    return deployment


def _scaling_arm():
    """Concurrent decomposable aggregates over 1..8 shards."""
    rows, points = [], []
    base_qps = None
    for shards in SHARD_COUNTS:
        deployment = _build(shards)
        outcome = deployment.run_concurrent(
            [(sql, "sos") for sql in SCALING_QUERIES], workers=2
        )
        qps = outcome.throughput_qps
        if base_qps is None:
            base_qps = qps
        efficiency = qps / (shards * base_qps)
        rows.append([shards, qps, outcome.makespan_ms, efficiency])
        points.append(
            {
                "shards": shards,
                "throughput_qps": qps,
                "makespan_ms": outcome.makespan_ms,
                "scaling_efficiency": efficiency,
            }
        )
    top = points[-1]
    assert top["shards"] == max(SHARD_COUNTS)
    assert top["scaling_efficiency"] >= MIN_EFFICIENCY, (
        f"{top['shards']} shards reached only "
        f"{top['scaling_efficiency']:.2f}x/shard of the single-node rate "
        f"(floor {MIN_EFFICIENCY})"
    )
    return rows, points


def _optimizer_arm(deployment):
    """``run_auto`` vs every manual config, both security classes."""
    rows, wins, total = [], 0, 0
    for requested, manual_configs in (("scs", SECURE_CLASS), ("vcs", PLAIN_CLASS)):
        for number in EVALUATED_NUMBERS:
            sql = ALL_QUERIES[number].sql
            manual_partition = MANUAL_PARTITIONS.get(number)
            timings = {}
            for config in manual_configs:
                kwargs = {"run_config": SERIAL}
                if config in ("scs", "vcs") and manual_partition is not None:
                    kwargs["manual_partition"] = manual_partition
                try:
                    timings[config] = deployment.run_query(
                        sql, config, **kwargs
                    ).total_ms
                except PartitionError:
                    continue  # sos: not shard-decomposable
            auto = deployment.run_auto(
                sql, requested, run_config=SERIAL, manual_partition=manual_partition
            )
            best_config = min(timings, key=timings.get)
            best_ms = timings[best_config]
            total += 1
            won = auto.total_ms <= best_ms * 1.0001
            wins += won
            assert won, (
                f"Q{number} ({requested} class): auto chose {auto.config} at "
                f"{auto.total_ms:.3f} ms but manual {best_config} runs in "
                f"{best_ms:.3f} ms"
            )
            assert auto.host_meter.get("optimizer_plans_considered") >= 2
            rows.append(
                [
                    f"Q{number}",
                    requested,
                    auto.config,
                    auto.total_ms,
                    best_config,
                    best_ms,
                ]
            )
    return rows, 100.0 * wins / total


def _identity_arm():
    """shards=1 must be byte-identical to the seed deployment."""
    results = []
    for cls in (Deployment, ShardedDeployment):
        deployment = cls(scale_factor=BENCH_SF, seed=2022)
        deployment.attest_all()
        results.append(deployment.run_query(SCALING_QUERIES[0], "scs"))
    seed, single = results
    assert single.rows == seed.rows
    assert single.breakdown.total_ns == seed.breakdown.total_ns, (
        "shards=1 drifted from the seed deployment's simulated time"
    )
    return seed.breakdown.total_ms


def _leakage_arm():
    """Per-shard full-tier probes: fixed trace, one fingerprint."""
    all_traces, rows = [], []
    for shards in (2, 4):
        deployment = _build(shards)
        recorder = deployment.enable_observability()
        group = f"scs|full|shard{shards}"
        traces = []
        for i in range(PROBES):
            lo = 1 + i * 200
            sql = (
                "SELECT l_suppkey, COUNT(*), SUM(l_extendedprice) "
                f"FROM lineitem WHERE l_orderkey >= {lo} "
                f"AND l_orderkey <= {lo + 400} GROUP BY l_suppkey"
            )
            deployment.run_query(
                sql, "scs", run_config=RunConfig(pipeline=False, oblivious="full")
            )
            trace = recorder.last_trace()
            trace.attributes["group"] = group
            trace.attributes["probe"] = f"c{i}"
            traces.append(trace)
        report = leakage_report(traces, group=group)
        assert report.leak_free and report.mi_bits == 0.0, (
            f"{group}: the full tier must stay leak-free across shards"
        )
        assert report.distinct_fingerprints == 1, (
            f"{group}: {report.distinct_fingerprints} fingerprints"
        )
        all_traces.extend(traces)
        rows.append([group, report.mi_bits, report.distinct_fingerprints])
    if OBSV_OUT:
        out = Path(OBSV_OUT)
        out.mkdir(parents=True, exist_ok=True)
        write_obsv_jsonl(str(out / "sharded-scaleout.obsv.jsonl"), all_traces)
    return rows


def test_sharded_scaleout(benchmark):
    def experiment():
        scaling_rows, scaling_points = _scaling_arm()
        optimizer_rows, win_pct = _optimizer_arm(_build(4))
        identity_ms = _identity_arm()
        leakage_rows = _leakage_arm()
        return {
            "scaling": scaling_points,
            "scaling_rows": scaling_rows,
            "scaling_efficiency": scaling_points[-1]["scaling_efficiency"],
            "optimizer_rows": optimizer_rows,
            "optimizer_win_pct": win_pct,
            "identity_ms": identity_ms,
            "leakage_rows": leakage_rows,
        }

    outcome = run_once(benchmark, experiment)
    print()
    print(
        format_table(
            ["shards", "qps", "makespan ms", "efficiency"],
            outcome["scaling_rows"],
            title=(
                "Strong scaling — concurrent decomposable aggregates "
                f"(sos, SF {BENCH_SF}, {len(SCALING_QUERIES)} clients)"
            ),
        )
    )
    print()
    print(
        format_table(
            ["query", "class", "auto chose", "auto ms", "best manual", "best ms"],
            outcome["optimizer_rows"],
            title=(
                "Adaptive offload — auto vs best manual "
                f"(4 shards, win rate {outcome['optimizer_win_pct']:.0f}%)"
            ),
        )
    )
    print()
    print(
        format_table(
            ["group", "MI bits", "fingerprints"],
            outcome["leakage_rows"],
            title=f"Per-shard leakage groups ({PROBES} constants/cell)",
        )
    )
    assert outcome["optimizer_win_pct"] == 100.0
