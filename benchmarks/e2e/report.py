"""Result files: environment stamp, summaries, ``--compare`` and ``--selfcheck``."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
from pathlib import Path

import probes
import workloads
from repro.sim import CostModel

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")
#: Reported by run.py but not declared in BENCHMARK.json, whose end-to-end
#: metrics may never read 0; there it is the failed/attempted pair.
FAILED_RATIO = {"name": "failed_op_ratio", "unit": "ratio", "better": "lower", "bound": 0.0}


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def write_golden(seed: int = 2022) -> int:
    """Recompute the committed digests from the hons references."""
    golden: dict[str, dict] = {}
    for spec in workloads.SPECS:
        if spec.templates is None:
            continue
        workload = workloads.build(spec.name, seed, workloads.sizes_for(spec.name, 1), {})
        workload.setup()
        workload.prepare()
        golden.setdefault(workload.golden_key, {}).update(workload.reference_digests())
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def stamp(seed: int, seconds: int) -> dict:
    constants = json.dumps(dataclasses.asdict(CostModel()), sort_keys=True)
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        "seed": seed,
        "run_seconds": seconds,
        "cost_model_sha256": hashlib.sha256(constants.encode()).hexdigest(),
    }


def _is_wall(name: str) -> bool:
    return "_wall_" in name or name == "trace.overhead_ratio"


def _leaf(values: list[float], metric: dict) -> dict:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
        "n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
        "values": values,
    }


def summarise(runs, traced, spec, *, seed: int, seconds: int) -> dict:
    """Fold the child results into one result file (see README: trajectory)."""
    out = {"stamp": stamp(seed, seconds), "workloads": {}, "claim": None}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, results in runs.items():
        e2e = {}
        for metric in spec["end_to_end"] + [FAILED_RATIO]:
            values = [r["end_to_end"]["metrics"][metric["name"]] for r in results]
            e2e[metric["name"]] = _leaf(values, metric)
        entry = {
            "sizes": results[0]["sizes"],
            "attempted": sum(r["end_to_end"]["attempted"] for r in results),
            "failed": sum(r["end_to_end"]["failed"] for r in results),
            "n_timed_ops": results[0]["end_to_end"]["n_timed_ops"],
            "end_to_end": e2e,
        }
        trace = traced.get(name)
        if trace is not None:
            entry["attempted"] += trace["traced_attempted"]
            entry["failed"] += trace["traced_failed"]
            entry["traced_sizes"] = trace["sizes"]
            entry["per_layer"] = {
                key: {"unit": units.get(key, ""), "value": value}
                for key, value in sorted(trace["per_layer"].items())
            }
            entry["layer_self_share"] = trace["layer_self_share"]
            entry["self_time_residue"] = trace["self_time_residue"]
            entry["unresolved_probes"] = trace["unresolved_probes"]
        out["workloads"][name] = entry
    return out


def dumps(summary: dict) -> str:
    """Sorted keys below the top level; the file ends with ``"claim": null``."""
    ordered = {
        "stamp": summary["stamp"],
        "workloads": json.loads(json.dumps(summary["workloads"], sort_keys=True)),
        "claim": summary["claim"],
    }
    return json.dumps(ordered, indent=1) + "\n"


def render(summary: dict) -> str:
    lines = []
    for name, entry in summary["workloads"].items():
        lines.append("")
        lines.append(f"== {name}: {entry['n_timed_ops']} timed ops, "
                     f"{entry['failed']} failed of {entry['attempted']} attempted ==")
        for metric, leaf in entry["end_to_end"].items():
            lines.append(
                f"  {metric:30s} {leaf['median']:>14.6g} {leaf['unit']:8s} "
                f"[q1 {leaf['q1']:.6g}, q3 {leaf['q3']:.6g}, n={leaf['n']}]"
            )
        if "layer_self_share" in entry:
            shares = ", ".join(
                f"{layer} {share:.1%}" for layer, share in
                sorted(entry["layer_self_share"].items(), key=lambda kv: -kv[1])
            )
            lines.append(f"  self-time share of op wall (traced): {shares}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------


def _verdict(a: dict, b: dict) -> tuple[float, str]:
    """Signed change of B against A (positive = worse) and its verdict."""
    bound = a["bound"]
    lower = a["better"] == "lower"
    base = a["median"]
    change = (b["median"] - base) / base if base else float(b["median"] != base)
    worse = change if lower else -change
    spread = max(
        (leaf["q3"] - leaf["q1"]) / abs(leaf["median"]) if leaf["median"] else 0.0
        for leaf in (a, b)
    )
    if spread > bound:
        best_a = min(a["values"]) if lower else max(a["values"])
        worst_b = max(b["values"]) if lower else min(b["values"])
        clearly_better = worst_b < best_a if lower else worst_b > best_a
        return worse, "improved" if clearly_better and worse < -bound else "unresolved"
    if worse > bound:
        return worse, "regressed"
    if worse < -bound:
        return worse, "improved"
    return worse, "ok"


def compare(path_a: str, path_b: str) -> int:
    """Per (workload, metric): B's median against A's, judged by the bound."""
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    bad = 0
    print(f"A = {path_a} ({a['stamp']['git_sha'][:10]})   B = {path_b} ({b['stamp']['git_sha'][:10]})")
    if a["stamp"]["cost_model_sha256"] != b["stamp"]["cost_model_sha256"]:
        print("note: CostModel constants differ; simulated time is not comparable")
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            print(f"{name}: missing from B")
            bad += 1
            continue
        for metric, leaf_a in entry_a["end_to_end"].items():
            leaf_b = entry_b["end_to_end"][metric]
            worse, verdict = _verdict(leaf_a, leaf_b)
            bad += verdict in ("regressed", "unresolved")
            print(f"{name:12s} {metric:28s} A {leaf_a['median']:>12.6g}  B {leaf_b['median']:>12.6g} "
                  f"{leaf_a['unit']:7s} worse by {worse:+8.2%} (bound {leaf_a['bound']:.0%})  {verdict}")
        # Counts and simulated time per layer must repeat exactly.
        layer_a, layer_b = entry_a.get("per_layer", {}), entry_b.get("per_layer", {})
        changed = [
            key for key in sorted(layer_a)
            if not _is_wall(key) and key in layer_b
            and layer_a[key]["value"] != layer_b[key]["value"]
        ]
        for key in changed:
            print(f"{name:12s} {key:28s} A {layer_a[key]['value']!r}  B {layer_b[key]['value']!r}  changed")
        exact = sum(1 for key in layer_a if not _is_wall(key))
        print(f"{name:12s} per-layer counts and sim-ms: {exact - len(changed)} of {exact} identical")
    return 1 if bad else 0


# ---------------------------------------------------------------------------
# --selfcheck
# ---------------------------------------------------------------------------


def selfcheck(measure, spec) -> int:
    """Small sizes, every promise of BENCHMARK.json checked."""
    problems: list[str] = []
    declared = spec["end_to_end"] + spec["per_layer"] + spec["workloads"]
    for item in declared:
        if not NAME_RE.fullmatch(item["name"]):
            problems.append(f"bad name {item['name']!r}")
    if [w["name"] for w in spec["workloads"]] != workloads.NAMES:
        problems.append("BENCHMARK.json workloads differ from workloads.NAMES")

    # A patch point that is gone must cost one metric, not the run.
    recorder = probes.Recorder()
    gone = ("repro.sql.records", "no_such_function", "records", "records.gone", probes.CALL, None)
    with probes.installed(recorder, points=[gone]):
        pass
    if recorder.unresolved != ["repro.sql.records.no_such_function"] or probes.any_installed():
        problems.append("a missing patch point was not reported as unresolved")

    for name in workloads.NAMES:
        gdpr = workloads.BY_NAME[name].templates is None
        sizes = workloads.Sizes(
            scale=1000 if gdpr else 0.001,
            warmup_passes=workloads.BY_NAME[name].warmup_passes,
            timed_passes=8,  # a traced run takes a quarter: two passes
            setup_repeats=1,
        )
        result = measure(name, 2022, sizes, trace=True)
        e2e = result["end_to_end"]
        if e2e["failed"] or result["traced_failed"]:
            problems.append(f"{name}: {e2e['failed'] + result['traced_failed']} operations failed")
        for metric in spec["end_to_end"]:
            if not isinstance(e2e["metrics"].get(metric["name"]), (int, float)):
                problems.append(f"{name}: end-to-end metric {metric['name']} missing")
        for metric in spec["per_layer"]:
            if metric["name"] not in result["per_layer"]:
                problems.append(f"{name}: per-layer metric {metric['name']} missing")
            elif result["per_layer"][metric["name"]] is None and not result["unresolved_probes"]:
                problems.append(f"{name}: {metric['name']} is null with every probe resolved")
        undeclared = set(result["per_layer"]) - {m["name"] for m in spec["per_layer"]}
        if undeclared:
            problems.append(f"{name}: measured but not in BENCHMARK.json: {sorted(undeclared)}")
        if result["self_time_residue"] > 0.02:
            problems.append(f"{name}: self times miss the root span by {result['self_time_residue']:.2%}")
        if gdpr:
            # Its passes continue one seeded sequence, so repeat the run instead.
            again = measure(name, 2022, sizes, trace=True)
            same = again["pass_fingerprints"] == result["pass_fingerprints"]
        else:
            first, *rest = result["pass_fingerprints"]
            same = all(other == first for other in rest)
        if not same:
            problems.append(f"{name}: counts or simulated time differ between passes")
        print(f"selfcheck {name}: {e2e['attempted']} ops, "
              f"residue {result['self_time_residue']:.3%}, "
              f"overhead x{result['per_layer']['trace.overhead_ratio']:.2f}, "
              f"unresolved {result['unresolved_probes']}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck", "failed" if problems else "ok")
    return 1 if problems else 0
