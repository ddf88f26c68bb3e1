"""Benchmark harness: re-pricing a recorded run, and table formatting."""

from __future__ import annotations

import pytest

from repro.bench import (
    QueryRuns,
    format_table,
    geomean,
    overhead_breakdown,
    run_tpch_suite,
    scaled_epc_limit,
)
from repro.core import RunConfig
from repro.shard import ShardedDeployment
from repro.sim import MIB, PAGE_SIZE
from repro.sim.pricing import price_split
from repro.tpch import ALL_QUERIES

#: Fig 11's storage memory points, scaled like its bench does.
FIG11_MIB = (128, 256, 2048)
PAPER_SF3_BYTES = 3.2e9


@pytest.fixture(scope="module")
def suite(tiny_deployment):
    return run_tpch_suite(
        tiny_deployment, ("hons", "scs"), numbers=[3, 6], use_manual=True
    )


class TestHarness:
    def test_suite_checks_result_agreement(self, suite):
        assert {q.number for q in suite} == {3, 6}
        for q in suite:
            assert q.ms("hons") > 0 and q.ms("scs") > 0
            assert q.speedup("hons", "scs") == q.ms("hons") / q.ms("scs")

    def test_recost_monotone_in_cpus(self, tiny_deployment, suite):
        q3 = next(q for q in suite if q.number == 3)
        times = [
            price_split(
                tiny_deployment.cost_model, q3.runs["scs"].record,
                cpus=c, memory=tiny_deployment.storage_memory_bytes,
            ).breakdown.total_ms
            for c in (1, 2, 4, 8)
        ]
        assert times == sorted(times, reverse=True)

    def test_overhead_breakdown_fields(self, tiny_deployment):
        runs = run_tpch_suite(tiny_deployment, ("vcs", "scs"), numbers=[6])
        q6 = runs[0]
        b = overhead_breakdown(6, q6.runs["scs"], q6.runs["vcs"])
        assert b.total_ms == pytest.approx(q6.ms("scs"))
        assert b.ndp_ms == pytest.approx(q6.ms("vcs"))
        assert 0 <= b.fraction(b.freshness_ms) <= 1

    def test_scaled_epc_limit_ratio(self):
        # 59 MiB tree / 96 MiB EPC: the inverse ratio must hold.
        limit = scaled_epc_limit(59_000_000)
        assert limit == pytest.approx(96_000_000, rel=0.01)
        assert scaled_epc_limit(0) == 4096  # floor


@pytest.fixture(scope="module")
def sharded2():
    deployment = ShardedDeployment(shards=2, scale_factor=0.001, seed=11)
    deployment.attest_all()
    return deployment


def _recorded(result) -> list[dict]:
    return [dict(b.by_category) for b in (result.breakdown, result.storage_breakdown, result.host_breakdown)]


def _repriced(priced) -> list[dict]:
    return [dict(b.by_category) for b in (priced.breakdown, priced.storage, priced.host)]


class TestRepricing:
    """Figs 10/11 re-price a recorded split run instead of re-running it.

    That is only sound if re-pricing *is* re-running: execution never reads
    the storage CPU count or memory limit, so the same counts priced at
    other knobs must give exactly what a real run at those knobs charges.
    """

    CASES = [
        (number, config, pipeline)
        for number in (3, 6)
        for config in ("scs", "vcs")
        for pipeline in (False, True)
    ]

    @pytest.fixture(params=["single", "sharded2"])
    def deployment(self, request, tiny_deployment):
        return tiny_deployment if request.param == "single" else request.getfixturevalue("sharded2")

    def test_repricing_at_own_knobs_reproduces_every_breakdown(self, deployment):
        for number, config, pipeline in self.CASES:
            result = deployment.run_query(
                ALL_QUERIES[number].sql, config, run_config=RunConfig(pipeline=pipeline)
            )
            priced = price_split(
                deployment.cost_model, result.record,
                cpus=deployment.storage_cpus, memory=deployment.storage_memory_bytes,
            )
            assert _repriced(priced) == _recorded(result), (number, config, pipeline)

    def test_repricing_equals_rerunning_at_other_knobs(self, deployment):
        ratio = deployment.secure_device.num_pages * PAGE_SIZE / PAPER_SF3_BYTES
        knobs = [(cpus, deployment.storage_memory_bytes) for cpus in (1, 2, 4)]
        knobs += [(16, max(PAGE_SIZE, int(mib * MIB * ratio))) for mib in FIG11_MIB]
        for number, config, pipeline in self.CASES:
            sql, run_config = ALL_QUERIES[number].sql, RunConfig(pipeline=pipeline)
            recorded = deployment.run_query(sql, config, run_config=run_config)
            for cpus, memory in knobs:
                rerun = deployment.run_query(
                    sql, config, run_config=run_config,
                    storage_cpus=cpus, storage_memory_bytes=memory,
                )
                priced = price_split(
                    deployment.cost_model, recorded.record, cpus=cpus, memory=memory
                )
                assert _repriced(priced) == _recorded(rerun), (
                    number, config, pipeline, cpus, memory
                )


class TestFormatting:
    def test_format_table_alignment(self):
        out = format_table(["a", "metric"], [["x", 1.5], ["longer", 22.0]], "Title")
        lines = out.splitlines()
        assert lines[0] == "Title"
        assert "1.50" in out and "22.00" in out
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all rows padded equal

    def test_format_table_empty_rows(self):
        out = format_table(["h1", "h2"], [])
        assert "h1" in out

    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([]) == 0.0
        assert geomean([0.0, 4.0]) == pytest.approx(4.0)  # zeros skipped
