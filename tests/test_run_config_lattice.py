"""Every point of ``RunConfig``, run against every other.

``RunConfig`` is four fields with 2·2·3·2 = 24 value combinations.  This
module runs Q6 and Q3 under scs and Q6 under vcs at all 24 and holds each
field to what the table in docs/performance.md ("What each ``RunConfig``
field may change") says flipping it — with the other three held fixed — may
never change.  The domains below are checked against
``dataclasses.fields(RunConfig)``, so a fifth field fails here until it is
given a domain and a row in that table.

The deployment has ``tiny_deployment``'s scale and seed but is this module's
own: the adversary-view taps stay installed once enabled, and the shared
fixture must not carry them into other modules.
"""

from __future__ import annotations

import math
from dataclasses import fields, replace
from itertools import product

import pytest

from repro.core import Deployment, RunConfig
from repro.oblivious import TIERS
from repro.tpch import ALL_QUERIES

DOMAINS = {
    "pipeline": (False, True),
    "zone_maps": (False, True),
    "oblivious": TIERS,
    "vectorized": (False, True),
}

Q6, Q3 = ALL_QUERIES[6].sql, ALL_QUERIES[3].sql
#: The same queries with every predicate constant changed.
Q6_OTHER = (
    Q6.replace("1994-01-01", "1995-06-01")
    .replace("< 24", "< 11")
    .replace("0.05 AND 0.07", "0.02 AND 0.03")
)
Q3_OTHER = Q3.replace("BUILDING", "MACHINERY").replace("1995-03-15", "1996-01-10")

#: (workload, configuration, sql, sql with other constants)
WORKLOADS = (
    ("q6-scs", "scs", Q6, Q6_OTHER),
    ("q3-scs", "scs", Q3, Q3_OTHER),
    ("q6-vcs", "vcs", Q6, Q6_OTHER),
)

#: field -> the projections of the adversary's trace that flipping the field
#: must leave equal, and the points (of the other fields) where that holds.
#: Rows are held equal for every field, everywhere; see docs/performance.md.
NEVER_CHANGES = {
    "pipeline": {"device": lambda point: True},
    "zone_maps": {
        # Padded and full scans fetch the pruned pages anyway.
        "device": lambda point: point.oblivious != "off",
        "channel": lambda point: True,
    },
    "oblivious": {},
    "vectorized": {"device": lambda point: True, "channel": lambda point: True},
}


def lattice() -> list[RunConfig]:
    names = [field.name for field in fields(RunConfig)]
    assert set(names) == set(DOMAINS), "give the new RunConfig field a domain"
    return [
        RunConfig(**dict(zip(names, values)))
        for values in product(*(DOMAINS[name] for name in names))
    ]


def _projection(trace, channel: str) -> tuple:
    return tuple(event for event in trace.events if event.channel == channel)


@pytest.fixture(scope="module")
def observed():
    deployment = Deployment(scale_factor=0.001, seed=11)
    deployment.attest_all()
    return deployment, deployment.enable_observability()


@pytest.fixture(scope="module")
def runs(observed) -> dict:
    """(workload, point) -> what one run showed the client and the adversary."""
    deployment, recorder = observed
    out = {}
    for workload, config, sql, _other in WORKLOADS:
        for point in lattice():
            result = deployment.run_query(sql, config, run_config=point)
            trace = recorder.last_trace()
            out[workload, point] = {
                "rows": result.rows,
                "device": _projection(trace, "device"),
                "channel": _projection(trace, "channel"),
                "fingerprint": trace.fingerprint(),
            }
    return out


def _same_rows(got: list[tuple], expected: list[tuple], exact: bool) -> bool:
    if exact:
        return got == expected
    return len(got) == len(expected) and all(
        math.isclose(a, b, rel_tol=1e-12) if isinstance(a, float) else a == b
        for row, reference in zip(got, expected)
        for a, b in zip(row, reference, strict=True)
    )


def test_lattice_is_the_24_points():
    points = lattice()
    assert len(points) == len(set(points)) == 24
    assert RunConfig() in points and RunConfig(pipeline=False) in points


def test_rows_equal_hons_at_every_point(observed, runs):
    deployment, _ = observed
    for workload, _config, sql, _other in WORKLOADS:
        expected = deployment.run_query(sql, "hons").rows
        for point in lattice():
            # The full tier's group-by folds float sums in sorted order, so
            # a sum may differ from the hash group-by's in its last ulp.
            assert _same_rows(
                runs[workload, point]["rows"], expected,
                exact=point.oblivious != "full",
            ), f"{workload} at {point}"


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_flipping_one_field_leaves_its_projections_alone(runs, name):
    for (workload, point), seen in runs.items():
        for value in DOMAINS[name]:
            other = runs[workload, replace(point, **{name: value})]
            for projection, holds_at in NEVER_CHANGES[name].items():
                if holds_at(point):
                    assert other[projection] == seen[projection], (
                        f"{workload}: {name}={value!r} moved the {projection} "
                        f"trace at {point}"
                    )


def test_full_tier_trace_is_constant_independent_at_every_point(observed, runs):
    deployment, recorder = observed
    for workload, config, _sql, other in WORKLOADS:
        for point in lattice():
            if point.oblivious != "full":
                continue
            deployment.run_query(other, config, run_config=point)
            assert (
                recorder.last_trace().fingerprint()
                == runs[workload, point]["fingerprint"]
            ), f"{workload}: the full-tier trace leaks the constant at {point}"
