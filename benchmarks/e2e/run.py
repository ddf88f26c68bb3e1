#!/usr/bin/env python3
"""Two-clock end-to-end benchmark: one command, four workloads, every metric.

Driver form (one workload, one process, the last stdout line is the result)::

    python3 benchmarks/e2e/run.py --workload scan_paper --seed 7 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed;
``--trace 1`` repeats the workload with the probes of ``probes.py`` around the
layers' public functions and reports the per-layer metrics.  End-to-end
numbers never come from traced passes.

Local forms::

    python3 benchmarks/e2e/run.py [--seed N] [--repeat K] [--traced] [--out FILE]
    python3 benchmarks/e2e/run.py --selfcheck
    python3 benchmarks/e2e/run.py --compare A.json B.json

Without ``--workload`` each workload runs in a child process of its own, one
after another (peak RSS is per workload; the box has two cores and one is
left for noise).  See README.md beside this file for the metric glossary.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

try:
    import probes
    import report
    import workloads
    from repro.errors import FreshnessError, IntegrityError
except ImportError as exc:  # no program to measure: fail before printing a result
    print(f"benchmark cannot import the program under test: {exc}", file=sys.stderr)
    sys.exit(2)

# Per-layer wall metrics: (metric, "self" | "inclusive", span name), in ms per op.
WALL_METRICS = [
    ("monitor.authorize_wall_ms", "self", "monitor.authorize"),
    ("monitor.proof_verify_wall_ms", "self", "monitor.proof_verify"),
    ("monitor.finish_session_wall_ms", "self", "monitor.finish_session"),
    ("partitioner.partition_wall_ms", "self", "partitioner.partition"),
    ("deployment.self_wall_ms", "self", "deployment.run_query"),
    ("storage_engine.scan_wall_ms", "inclusive", "storage_engine.scan"),
    ("storage.read_page_wall_ms", "self", "storage.read_page"),
    ("storage.write_page_wall_ms", "self", "storage.write_page"),
    ("storage.commit_wall_ms", "self", "storage.commit"),
    ("records.unpack_page_wall_ms", "self", "records.unpack_page"),
    ("records.encode_row_wall_ms", "self", "records.encode_row"),
    ("records.encode_batch_wall_ms", "self", "records.encode_batch"),
    ("records.decode_batch_wall_ms", "self", "records.decode_batch"),
    ("sql.parse_wall_ms", "self", "sql.parse"),
    ("sql.execute_self_wall_ms", "self", "sql.execute"),
    ("stream.batch_assemble_wall_ms", "self", "stream.batch_assemble"),
    ("channel.send_wall_ms", "self", "channel.send"),
    ("channel.receive_wall_ms", "self", "channel.receive"),
    ("host_engine.ingest_wall_ms", "self", "host_engine.ingest"),
    ("host_engine.run_wall_ms", "inclusive", "host_engine.run"),
]
# Per-layer counts read off the spans: (metric, "calls" | "count", span name), per op.
SPAN_COUNTS = [
    ("monitor.authorize_calls", "calls", "monitor.authorize"),
    ("deployment.run_query_calls", "calls", "deployment.run_query"),
    ("records.rows_decoded", "count", "records.unpack_page"),
    ("records.batch_bytes", "count", "records.encode_batch"),
    ("host_engine.rows_ingested", "count", "host_engine.ingest"),
]


def _percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (no interpolation: always a measured value)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1]


def _peak_rss_mb() -> float:
    """This process's own high-water mark.

    ``ru_maxrss`` survives fork+exec, so under a large parent it reads the
    parent's footprint; ``VmHWM`` belongs to the address space exec created.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _typical_latency(timed) -> float:
    """Median latency per template, averaged over the operations.

    A plain median over all operations lands in the gap between two
    templates of a mixed pass (58 ms and 340 ms on ship_stream) and then
    follows neither of them.
    """
    by_template: dict[str, list[float]] = {}
    for outcome in timed:
        by_template.setdefault(outcome.template, []).append(outcome.wall_s)
    return sum(len(w) * statistics.median(w) for w in by_template.values()) / len(timed)


def _timed_setup(workload) -> float:
    gc.collect()
    start = perf_counter()
    workload.setup()
    return perf_counter() - start


def _run_passes(workload, first: int, count: int, root=None) -> list[list]:
    passes = []
    for index in range(first, first + count):
        gc.collect()
        passes.append(list(workload.run_pass(index, root)))
    return passes


def _pass_rate(ops) -> float:
    """Correct operations per wall second of one pass (must-deny ones aside)."""
    timed = [o for o in ops if o.timed]
    return sum(1 for o in timed if o.ok) / sum(o.wall_s for o in timed)


def _end_to_end(setup_s, passes, finals, stored_ratio) -> dict:
    outcomes = [o for ops in passes for o in ops]
    timed = [o for o in outcomes if o.timed]
    walls = [o.wall_s for o in timed]
    attempted = len(outcomes) + len(finals)
    failed = sum(1 for o in outcomes + finals if not o.ok)
    return {
        "attempted": attempted,
        "failed": failed,
        "n_timed_ops": len(timed),
        "metrics": {
            "setup_s": statistics.median(setup_s),
            # Passes are equal work, so the median pass is the steady rate
            # and one disturbed pass does not move it.
            "ops_per_s": statistics.median(_pass_rate(ops) for ops in passes),
            "op_wall_ms_p50": _typical_latency(timed) * 1e3,
            "op_wall_ms_p90": _percentile(walls, 0.90) * 1e3,
            "sim_ms_per_op": statistics.fmean(o.sim_ms for o in timed),
            "failed_op_ratio": failed / attempted,
            "peak_rss_mb": _peak_rss_mb(),
            "stored_bytes_per_user_byte": stored_ratio,
        },
    }


def _pass_fingerprint(ops) -> list:
    """What must repeat exactly: per-op counts and simulated time."""
    return [(o.template, o.sim_ms, sorted(o.counts.items())) for o in ops]


def _per_layer(recorder, setup_totals, op_spans, traced, untraced) -> tuple[dict, dict]:
    outcomes = [o for ops in traced for o in ops]
    n = len(outcomes)
    layer: dict[str, float | None] = {}
    # Counts and simulated ms read off the meters each call returned.
    names = {key for o in outcomes for key in o.counts}
    total = {key: sum(o.counts.get(key, 0) for o in outcomes) for key in names}
    for key in sorted(names):
        layer[key] = total[key] / n
    reads = total.get("perf.cache_hits", 0) + total.get("perf.cache_misses", 0)
    layer["perf.cache_hit_ratio"] = total.get("perf.cache_hits", 0) / reads if reads else 0.0
    output = total.get("storage_engine.rows_output", 0)
    layer["storage_engine.rows_scanned_per_row_output"] = (
        total.get("storage_engine.rows_scanned", 0) / output if output else 0.0
    )
    layer["monitor.denied"] = sum(1 for o in outcomes if o.kind == workloads.DENY) / n
    layer["storage.integrity_errors"] = sum(
        1 for o in outcomes if o.error in (IntegrityError.__name__, FreshnessError.__name__)
    ) / n
    for kind in (workloads.READ, workloads.INSERT, workloads.REWRITE):
        walls = [o.wall_s for o in outcomes if o.kind == kind]
        layer[f"gdpr.{kind}_wall_ms_p50"] = statistics.median(walls) * 1e3 if walls else 0.0

    # Wall time per layer, from the spans of the traced operations.
    resolved = recorder.resolved_names
    for metric, mode, name in WALL_METRICS:
        source = op_spans.self_s if mode == "self" else op_spans.inclusive_s
        layer[metric] = source.get(name, 0.0) * 1e3 / n if name in resolved else None
    for metric, mode, name in SPAN_COUNTS:
        source = op_spans.calls if mode == "calls" else op_spans.count
        layer[metric] = source.get(name, 0) / n if name in resolved else None
    for metric, name, minus in (
        ("tpch.dbgen_wall_s", "tpch.dbgen", None),
        ("tpch.load_wall_s", "tpch.load", "tpch.dbgen"),
        ("deployment.attest_wall_s", "deployment.attest", None),
    ):
        if name not in resolved or (minus and minus not in resolved):
            layer[metric] = None
            continue
        seconds = setup_totals.inclusive_s.get(name, 0.0)
        layer[metric] = seconds - (setup_totals.inclusive_s.get(minus, 0.0) if minus else 0.0)

    def mean_wall(passes):
        walls = [o.wall_s for ops in passes for o in ops if o.timed]
        return statistics.fmean(walls)

    layer["trace.overhead_ratio"] = mean_wall(traced) / mean_wall(untraced)
    layer["trace.unresolved_probes"] = len(set(recorder.unresolved))
    shares = {
        name: seconds / op_spans.root_s for name, seconds in sorted(op_spans.layer_self_s.items())
    }
    return layer, shares


def measure(name: str, seed: int, sizes, *, trace: bool, spans_out=None) -> dict:
    """Run one workload in this process and return everything measured."""
    live = probes.any_installed()
    if live:
        raise RuntimeError(f"probes still installed before an untraced run: {live}")
    workload = workloads.build(name, seed, sizes, report.load_golden())
    recorder = probes.Recorder()
    setup_totals = None
    if trace:
        with probes.installed(recorder):
            setup_s = [_timed_setup(workload)]
        setup_totals = probes.totals(recorder)
        timed_passes = max(2, sizes.timed_passes // 4)
    else:
        setup_s = [_timed_setup(workload) for _ in range(sizes.setup_repeats)]
        timed_passes = sizes.timed_passes
    workload.prepare()

    _run_passes(workload, 0, sizes.warmup_passes)  # excluded from every metric
    first = sizes.warmup_passes
    untraced = _run_passes(workload, first, timed_passes)
    traced = []
    if trace:
        with probes.installed(recorder):
            traced = _run_passes(workload, first + timed_passes, timed_passes, recorder.root)
    finals = workload.finish()
    stored_ratio = workload.stored_bytes_per_user_byte()  # after the run: writes count

    result = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "sizes": {
            "scale": sizes.scale,
            "warmup_passes": sizes.warmup_passes,
            "timed_passes": timed_passes,
            "ops_per_pass": workload.ops_per_pass,
            "setup_repeats": len(setup_s),
        },
        "end_to_end": _end_to_end(setup_s, untraced, finals, stored_ratio),
        "pass_fingerprints": [_pass_fingerprint(ops) for ops in untraced],
    }
    if trace:
        op_spans = probes.totals(recorder, ops_only=True)
        per_layer, shares = _per_layer(recorder, setup_totals, op_spans, traced, untraced)
        result["per_layer"] = per_layer
        result["layer_self_share"] = shares
        result["unresolved_probes"] = sorted(set(recorder.unresolved))
        result["traced_attempted"] = sum(map(len, traced))
        result["traced_failed"] = sum(1 for ops in traced for o in ops if not o.ok)
        result["self_time_residue"] = (
            abs(sum(op_spans.self_s.values()) - op_spans.root_s) / op_spans.root_s
        )
        if spans_out:
            recorder.write_jsonl(spans_out)
    if probes.any_installed():
        raise RuntimeError("probes were not restored")
    return result


def _driver_line(result: dict, spec: dict) -> dict:
    """The contract's last line: exactly correct/attempted/failed/metrics."""
    e2e = result["end_to_end"]
    failed = e2e["failed"] + result.get("traced_failed", 0)
    attempted = e2e["attempted"] + result.get("traced_attempted", 0)
    if result["trace"]:
        values, wanted = result["per_layer"], spec["per_layer"]
    else:
        values, wanted = e2e["metrics"], spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        value = values[metric["name"]]
        # A probe that no longer resolves reads null in result files; the
        # driver wants a number, and trace.unresolved_probes says how many.
        metrics[metric["name"]] = {"value": 0.0 if value is None else value,
                                   "unit": metric["unit"]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _print_metrics(result: dict, spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["failed_op_ratio"] = "ratio"
    e2e = result["end_to_end"]
    sizes = result["sizes"]
    print(f"# {result['workload']}  seed={result['seed']}  scale={sizes['scale']}  "
          f"timed ops={e2e['n_timed_ops']}  attempted={e2e['attempted']}  failed={e2e['failed']}")
    shown = result["per_layer"] if result["trace"] else e2e["metrics"]
    for name in sorted(shown):
        value = shown[name]
        text = "null (probe unresolved)" if value is None else f"{value:.6g}"
        print(f"{name:46s} {text:>14s} {units.get(name, '')}")


def run_driver(args, spec: dict) -> int:
    sizes = workloads.sizes_for(args.workload, args.seconds)
    result = measure(args.workload, args.seed, sizes, trace=bool(args.trace),
                     spans_out=args.spans_out)
    _print_metrics(result, spec)
    if args.result_file:
        result.pop("pass_fingerprints")  # only --selfcheck reads them, in process
        Path(args.result_file).write_text(json.dumps(result))
    line = _driver_line(result, spec)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def _child(name: str, seed: int, seconds: int, trace: int, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    result_file = out_dir / f"{name}-seed{seed}-trace{trace}.json"
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--result-file", str(result_file)]
    if trace:
        command += ["--spans-out", str(out_dir / f"{name}-seed{seed}-spans.jsonl")]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")  # all but the JSON line
    if done.returncode not in (0, 1) or not result_file.exists():
        raise RuntimeError(f"{name}: child exited with {done.returncode}")
    return json.loads(result_file.read_text())


def run_all(args, spec: dict) -> int:
    out_dir = HERE / "out"
    runs: dict[str, list[dict]] = {}
    traced: dict[str, dict] = {}
    for name in workloads.NAMES:
        runs[name] = [
            _child(name, args.seed, args.seconds, 0, out_dir) for _ in range(args.repeat)
        ]
        if args.traced:
            traced[name] = _child(name, args.seed, args.seconds, 1, out_dir)
    summary = report.summarise(runs, traced, spec, seed=args.seed, seconds=args.seconds)
    print(report.render(summary))
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(report.dumps(summary))
    failed = sum(w["failed"] for w in summary["workloads"].values())
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES,
                        help="run this one workload in this process (driver form)")
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--seconds", type=int, default=None,
                        help="nominal measuring time; fixes the pass counts")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result-file", help="also write the full result here")
    parser.add_argument("--spans-out", help="write the traced spans here as JSONL")
    parser.add_argument("--repeat", type=int, default=1,
                        help="local form: untraced runs per workload")
    parser.add_argument("--traced", action="store_true",
                        help="local form: add one traced run per workload")
    parser.add_argument("--out", help="local form: write the summary JSON here")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--write-golden", action="store_true",
                        help="recompute golden.json from the hons references (seed 2022)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.compare:
        return report.compare(*args.compare)
    if args.selfcheck:
        return report.selfcheck(measure, spec)
    if args.write_golden:
        return report.write_golden()
    if args.workload:
        return run_driver(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
