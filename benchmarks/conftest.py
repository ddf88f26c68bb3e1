"""Shared fixtures for the benchmark harness.

One deployment (and one full TPC-H suite run) is shared across every
figure's benchmark — Figures 6, 7, 8, 10, 11 and 12 are different views
of the same 16-query execution, exactly as in the paper.

Scale: ``REPRO_BENCH_SF`` (default 0.002) sets the TPC-H scale factor.
The simulated database stands in for the paper's SF-3 instance; EPC size
and storage memory scale by the data ratio (see repro.bench.harness).

Smoke mode: ``REPRO_BENCH_SMOKE=1`` runs every benchmark at reduced scale
(SF 0.001 unless ``REPRO_BENCH_SF`` is set explicitly) — this is the CI
benchmark job.  Each ``bench_*.py`` module's result payload is written to
``BENCH_<module>.json`` under ``REPRO_BENCH_OUT`` (default: the working
directory) so the workflow can upload them as artifacts; setting
``REPRO_BENCH_OUT`` alone also enables the JSON dump at full scale.

Tracing: set ``REPRO_TRACE_DIR`` to a directory to record every
benchmark query as telemetry spans; on teardown the fixture writes
``bench-traces.jsonl`` (replayable with ``repro-trace``) and
``bench-traces.chrome.json`` (loadable in Perfetto / chrome://tracing)
there.  Tracing never charges the simulated clock, so the recorded
numbers match an untraced run exactly.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

from repro.bench import build_deployment, run_tpch_suite

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"
BENCH_SF = float(os.environ.get("REPRO_BENCH_SF", "0.001" if SMOKE else "0.002"))
BENCH_OUT = os.environ.get("REPRO_BENCH_OUT", "")
TRACE_DIR = os.environ.get("REPRO_TRACE_DIR", "")

#: Result payload per benchmark module, dumped as BENCH_<module>.json.
_BENCH_RESULTS: dict[str, object] = {}


@pytest.fixture(scope="session")
def deployment():
    deployment = build_deployment(BENCH_SF)
    if not TRACE_DIR:
        yield deployment
        return
    tracer = deployment.enable_tracing()
    yield deployment
    from repro.telemetry import write_chrome_trace, write_jsonl

    out = Path(TRACE_DIR)
    out.mkdir(parents=True, exist_ok=True)
    write_jsonl(tracer.traces, out / "bench-traces.jsonl", metrics=tracer.metrics)
    write_chrome_trace(tracer.traces, out / "bench-traces.chrome.json")


@pytest.fixture(scope="session")
def tpch_suite(deployment):
    """All 16 evaluated queries under hons/hos/vcs/scs (result cache)."""
    return run_tpch_suite(deployment, ("hons", "hos", "vcs", "scs"))


@pytest.fixture(scope="session")
def tpch_suite_vectorized(deployment):
    """The split configurations again, under the morsel executor."""
    from repro.core import RunConfig

    return run_tpch_suite(
        deployment, ("vcs", "scs"), run_config=RunConfig(vectorized=True)
    )


@pytest.fixture(scope="session")
def suite_by_number(tpch_suite):
    return {q.number: q for q in tpch_suite}


def run_once(benchmark, fn, payload=None):
    """Run an experiment exactly once under pytest-benchmark's timer.

    The experiment's return value — or ``payload(value)``, for experiments
    that return whole run results rather than numbers — is kept, keyed by
    the calling benchmark module, so the smoke job can dump one
    ``BENCH_<module>.json`` per benchmark file.
    """
    result = benchmark.pedantic(fn, rounds=1, iterations=1)
    caller = sys._getframe(1).f_globals.get("__name__", "")
    if caller.startswith("bench_"):
        _BENCH_RESULTS[caller] = payload(result) if payload else result
    return result


def pytest_sessionfinish(session, exitstatus):
    """Dump per-module benchmark payloads for the CI artifact upload."""
    if not (SMOKE or BENCH_OUT):
        return
    out = Path(BENCH_OUT or ".")
    out.mkdir(parents=True, exist_ok=True)
    for name, payload in sorted(_BENCH_RESULTS.items()):
        document = {
            "bench": name,
            "scale_factor": BENCH_SF,
            "smoke": SMOKE,
            "result": payload,
        }
        path = out / f"BENCH_{name}.json"
        path.write_text(json.dumps(document, indent=2, default=str) + "\n")
