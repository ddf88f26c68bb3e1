"""Observations the split-runner goldens pin, and the script that froze them.

``split_runner.json`` was written by this script at the commit *before* the
five vcs/scs paths were folded into one runner, so it is the old code's
behaviour that ``tests/test_golden_runner.py`` holds the runner to; the
``tpch/`` cases were added at the commit before ``RunConfig`` shrank to four
fields, and the sharded hons/hos/sos and ``table3/`` cases at the commit
before pricing moved into one module, the same way.  Rerun it only for a
change that is meant to move a pinned number, and say so in CHANGES.md:

    PYTHONPATH=src python tests/golden/regen_split_runner.py
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from pathlib import Path

from repro.core import CONFIGS, MANUAL_PARTITIONS, Deployment, RunConfig
from repro.errors import ComplianceError, PartitionError
from repro.gdpr import GDPRWorkbench
from repro.shard import ShardedDeployment, ShardingSpec, TablePartitioning, default_tpch_sharding
from repro.tpch import ALL_QUERIES

GOLDEN_PATH = Path(__file__).with_name("split_runner.json")

SF = 0.001
SEED = 11

#: The run-config points some benchmark, example or workload uses today.
POINTS = {
    "paper": RunConfig(pipeline=False),
    "streaming": RunConfig(),
    "streaming_vectorized": RunConfig(vectorized=True),
    "zone_maps": RunConfig(zone_maps=True),
    "padded": RunConfig(oblivious="padded"),
    "full": RunConfig(oblivious="full"),
}
#: Ship-path-only points: they differ from the above under vcs/scs alone.
SHIP_POINTS = {
    "paper_padded": RunConfig(pipeline=False, oblivious="padded"),
    "paper_full": RunConfig(pipeline=False, oblivious="full"),
}
ALL_POINTS = {**POINTS, **SHIP_POINTS}

#: name -> (sql, manual partition): a scan, a group-by, two joins, and one
#: hand-partitioned query (its partition only applies under vcs/scs).
SHAPES = {
    "q6_scan": (ALL_QUERIES[6].sql, None),
    "q1_group": (ALL_QUERIES[1].sql, None),
    "q3_join": (ALL_QUERIES[3].sql, None),
    "q12_join": (ALL_QUERIES[12].sql, None),
    "q13_manual": (ALL_QUERIES[13].sql, MANUAL_PARTITIONS[13]),
}

#: The two points ``BENCHMARK.json``'s workloads run, for every TPC-H query
#: the shapes above leave out (hand-partitioned where a partition exists).
BENCHMARK_POINTS = {"paper": CONFIGS, "streaming_vectorized": ("vcs", "scs")}
TPCH_SHAPES = {
    f"q{number}": (query.sql, MANUAL_PARTITIONS.get(number))
    for number, query in sorted(ALL_QUERIES.items())
    if number not in (6, 1, 3, 12, 13)
}


def meter_counts(meter) -> dict:
    counts = {f.name: getattr(meter, f.name) for f in fields(meter) if f.name != "extra"}
    counts["extra"] = dict(sorted(meter.extra.items()))
    return counts


def observe(deployment, recorder, sql, config, run_config, manual) -> dict:
    """Everything one run shows a caller, a meter reader and the adversary."""
    result = deployment.run_query(
        sql, config, run_config=run_config, manual_partition=manual
    )
    return {
        "rows": hashlib.sha256(repr((result.columns, result.rows)).encode()).hexdigest(),
        "row_count": len(result.rows),
        "storage_meter": meter_counts(result.storage_meter),
        "host_meter": meter_counts(result.host_meter),
        "portions": len(result.portion_meters),
        "bytes_shipped": result.bytes_shipped,
        "ns": dict(sorted(result.breakdown.by_category.items())),
        "storage_ns": dict(sorted(result.storage_breakdown.by_category.items())),
        "host_ns": dict(sorted(result.host_breakdown.by_category.items())),
        "plan_notes": list(result.plan_notes),
        "fingerprint": recorder.last_trace().fingerprint(),
    }


def observe_or_refusal(deployment, recorder, sql, config, run_config, manual) -> dict:
    """:func:`observe`, or the class of the ``PartitionError`` a sharded
    ``sos`` raises for a query it cannot decompose."""
    try:
        return observe(deployment, recorder, sql, config, run_config, manual)
    except PartitionError as exc:
        return {"error": type(exc).__name__}


def _runnable(manual, run_config) -> bool:
    # A hand-written ship names a derived table (``c_orders``) that no
    # catalog holds, so the full tier cannot bound its ship schedule and the
    # run raises CatalogError -- before and after the refactor alike.
    return manual is None or run_config.oblivious != "full"


def _observed(deployment):
    deployment.attest_all()
    return deployment, deployment.enable_observability()


def single_node_cases():
    """``Deployment``: five configs x five shapes x the points in use.

    Yields (case id, observation), running each case as it is asked for;
    cases share one deployment, so consume them in order, once.
    """
    deployment, recorder = _observed(Deployment(scale_factor=SF, seed=SEED))
    for config in CONFIGS:
        split = CONFIGS[config].split_execution
        points = ALL_POINTS if split else POINTS
        for shape, (sql, manual) in SHAPES.items():
            for point, run_config in points.items():
                if split and not _runnable(manual, run_config):
                    continue
                yield (
                    f"single/{config}/{shape}/{point}",
                    observe(deployment, recorder, sql, config, run_config, manual),
                )


def tpch_cases():
    """``Deployment``: the remaining TPC-H queries at the benchmark's points."""
    deployment, recorder = _observed(Deployment(scale_factor=SF, seed=SEED))
    for point, configs in BENCHMARK_POINTS.items():
        for config in configs:
            for shape, (sql, manual) in TPCH_SHAPES.items():
                yield (
                    f"tpch/{config}/{shape}/{point}",
                    observe(deployment, recorder, sql, config, POINTS[point], manual),
                )


def sharded_cases():
    """``ShardedDeployment``: every config x serial/streaming x 2 and 4
    shards, plus a layout that forces the co-partition fallback."""
    points = {name: POINTS[name] for name in ("paper", "streaming")}
    for shards in (2, 4):
        deployment, recorder = _observed(
            ShardedDeployment(shards=shards, scale_factor=SF, seed=SEED)
        )
        for config in ("scs", "vcs"):
            for shape, (sql, manual) in SHAPES.items():
                for point, run_config in points.items():
                    yield (
                        f"shards{shards}/{config}/{shape}/{point}",
                        observe(deployment, recorder, sql, config, run_config, manual),
                    )
        if shards == 2:
            for point in ("paper_full", "full", "zone_maps"):
                run_config = ALL_POINTS[point]
                yield (
                    f"shards2/scs/q6_scan/{point}",
                    observe(
                        deployment, recorder, SHAPES["q6_scan"][0], "scs", run_config, None
                    ),
                )
        for config in ("hons", "hos", "sos"):
            for shape, (sql, manual) in SHAPES.items():
                for point, run_config in points.items():
                    yield (
                        f"shards{shards}/{config}/{shape}/{point}",
                        observe_or_refusal(
                            deployment, recorder, sql, config, run_config, manual
                        ),
                    )
    layout = default_tpch_sharding(2, SF)
    tables = {**layout.tables, "orders": TablePartitioning("hash", "o_orderkey", 0)}
    deployment, recorder = _observed(
        ShardedDeployment(
            shards=2, sharding=ShardingSpec(shards=2, tables=tables),
            scale_factor=SF, seed=SEED,
        )
    )
    sql, manual = SHAPES["q13_manual"]
    for point, run_config in points.items():
        yield (
            f"shards2_fallback/scs/q13_manual/{point}",
            observe(deployment, recorder, sql, "scs", run_config, manual),
        )


TABLE3_SCENARIOS = (
    "timely_deletion", "indiscriminate_use", "transparent_sharing",
    "risk_agnostic", "data_breaches",
)


def table3_cases():
    """``GDPRWorkbench(rows=400)``: each Table 3 scenario's result, then the
    rows, per-category ns and storage meter of each ``run_ironsafe`` call it
    made (or the class of the error that call raised)."""
    workbench = GDPRWorkbench(rows=400)
    engine = workbench.deployment.storage_engine
    run_ironsafe = workbench.run_ironsafe
    calls: list[dict] = []

    def recorded(*args, **kwargs):
        try:
            result, total, auth = run_ironsafe(*args, **kwargs)
        except ComplianceError as exc:
            calls.append({"error": type(exc).__name__})
            raise
        calls.append({
            "rows": hashlib.sha256(repr((result.columns, result.rows)).encode()).hexdigest(),
            "row_count": len(result.rows),
            "ns": dict(sorted(total.by_category.items())),
            "storage_meter": meter_counts(engine.meter),
        })
        return result, total, auth

    workbench.run_ironsafe = recorded
    for name in TABLE3_SCENARIOS:
        scenario = getattr(workbench, f"scenario_{name}")()
        yield (
            f"table3/{name}",
            {
                "name": scenario.name,
                "detail": scenario.detail,
                "ms": {"baseline": scenario.baseline_ms, "ironsafe": scenario.ironsafe_ms},
            },
        )
        for index, call in enumerate(calls):
            yield f"table3/{name}/run_ironsafe{index}", call
        calls.clear()


def main() -> None:
    golden = {
        **dict(single_node_cases()), **dict(tpch_cases()), **dict(sharded_cases()),
        **dict(table3_cases()),
    }
    # One case per line, so a moved number shows up as a one-line diff.
    lines = [
        f"{json.dumps(case)}: {json.dumps(golden[case], sort_keys=True)}"
        for case in sorted(golden)
    ]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(golden)} cases to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
