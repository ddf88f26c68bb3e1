"""Counts become time in one place.

Every run is priced by :mod:`repro.sim.pricing` from the counts it recorded;
the cost model holds the constants.  This scan of ``src/repro`` fails if
any other module composes a run's time itself, i.e. references
``phase_breakdown``, ``net_transfer_ns``, ``tls_handshake_ns`` or
``lpt_makespan_ns``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
PRICING_NAMES = {"phase_breakdown", "net_transfer_ns", "tls_handshake_ns", "lpt_makespan_ns"}
HOMES = {"sim/costmodel.py", "sim/pricing.py"}
#: The unprotected Table 3 baseline is none of the five configurations:
#: it is priced where it runs.
ALLOWED = {("gdpr/scenarios.py", "GDPRWorkbench.run_baseline")}


def pricing_references(source: str) -> list[tuple[str, str, int]]:
    """(enclosing scope, name, line) of every reference to a pricing name."""
    found = []

    def visit(node, scope: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Attribute):
                name = child.attr
            elif isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.alias):
                name = child.asname or child.name
            else:
                name = None
            if name in PRICING_NAMES:
                found.append((".".join(scope), name, getattr(child, "lineno", 0)))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_runs_are_priced_only_by_the_pricing_module():
    strays = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel in HOMES:
            continue
        for scope, name, line in pricing_references(path.read_text()):
            if (rel, scope) not in ALLOWED:
                strays.append(f"{rel}:{line} ({scope or 'module'}) uses {name}")
    assert not strays, "price runs through repro.sim.pricing:\n" + "\n".join(strays)


def test_the_scan_sees_calls_attributes_and_imports():
    source = (
        "from repro.sim.pricing import lpt_makespan_ns\n"
        "class Runner:\n"
        "    def run(self, cost, meter):\n"
        "        return cost.phase_breakdown(meter, platform='arm').total_ns + cost.tls_handshake_ns\n"
    )
    assert {(scope, name) for scope, name, _ in pricing_references(source)} == {
        ("", "lpt_makespan_ns"),
        ("Runner.run", "phase_breakdown"),
        ("Runner.run", "tls_handshake_ns"),
    }
    # The one allowlisted site really is a pricing call, so the allowlist
    # cannot go stale silently.
    scenarios = (SRC / "gdpr" / "scenarios.py").read_text()
    assert ("GDPRWorkbench.run_baseline", "phase_breakdown") in {
        (scope, name) for scope, name, _ in pricing_references(scenarios)
    }
