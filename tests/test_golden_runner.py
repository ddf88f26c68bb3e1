"""The split runner against goldens frozen before it replaced five paths.

``tests/golden/split_runner.json`` holds, for every (deployment, config,
query shape, run-config point) in ``tests/golden/regen_split_runner.py``, what
the pre-refactor code produced: row digest, every counter of both meters,
bytes shipped, per-category simulated nanoseconds and the adversary-trace
fingerprint; and for each Table 3 scenario its result and what each of its
``run_ironsafe`` calls charged and counted.  Counts, digests and fingerprints must match exactly; simulated
time to 1e-9 relative (summation order inside a breakdown may differ).
"""

from __future__ import annotations

import json
import math

import pytest

from tests.golden.regen_split_runner import (
    GOLDEN_PATH,
    sharded_cases,
    single_node_cases,
    table3_cases,
    tpch_cases,
)

NS_KEYS = ("ns", "storage_ns", "host_ns", "ms")


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _differences(case: str, got: dict, expected: dict) -> list[str]:
    out = []
    for key in expected.keys() | got.keys():
        want, have = expected.get(key), got.get(key)
        if key in NS_KEYS:
            same = want.keys() == have.keys() and all(
                math.isclose(have[c], want[c], rel_tol=1e-9, abs_tol=0.0) for c in want
            )
        else:
            same = want == have
        if not same:
            out.append(f"{case}: {key}: expected {want!r}, got {have!r}")
    return out


def _check(cases, golden: dict, prefix: str) -> None:
    expected_ids = {case for case in golden if case.startswith(prefix)}
    seen, problems = set(), []
    for case, got in cases:
        seen.add(case)
        if case not in golden:
            problems.append(f"{case}: not in the golden file")
        else:
            # Through JSON, as the golden went: tuples become lists.
            problems += _differences(case, json.loads(json.dumps(got)), golden[case])
    problems += [f"{case}: in the golden file but never run" for case in expected_ids - seen]
    assert not problems, "\n".join(problems[:40])


def test_single_node_matches_pre_refactor_goldens(golden):
    _check(single_node_cases(), golden, "single/")


def test_every_tpch_query_matches_goldens_at_the_benchmark_points(golden):
    _check(tpch_cases(), golden, "tpch/")


def test_sharded_matches_pre_refactor_goldens(golden):
    _check(sharded_cases(), golden, "shards")


def test_table3_matches_goldens(golden):
    _check(table3_cases(), golden, "table3/")
