"""Architecture-conformance rules (ARCH001–ARCH010).

The reproduction's trust argument depends on its layering: ``crypto`` is
the bottom of the TCB, enclave internals are reachable only through the
deployment/channel layer, and every monitor mutation leaves an audit
trace.  These rules pin that structure so a refactor cannot silently
invert it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from ..findings import Finding
from ..importgraph import top_subpackage
from ..registry import Rule, add_rule, register

# Allowed repro-internal dependencies per top-level subpackage ("errors" is
# the shared bottom).  A package opts in by adding a row.
LAYERING: dict[str, frozenset[str]] = {
    "errors": frozenset(),
    "crypto": frozenset({"errors"}),
    "sim": frozenset({"errors"}),
    # Telemetry is pure observation: it may see simulated time but never
    # the security machinery it observes (ARCH004 bans it by name too).
    "telemetry": frozenset({"errors", "sim"}),
    # The page cache and session scheduler are policy, not security: opaque
    # bytes and simulated durations, never the crypto they sit next to.
    "perf": frozenset({"errors", "sim"}),
    # stream, stats, oblivious and shard list "sql" here, but only the
    # modules named in IMPORT_SURFACES below; none may see crypto or tee.
    # The ship pipeline is transport policy: encoded rows, simulated time.
    "stream": frozenset({"errors", "sim", "sql"}),
    # Zone maps summarise plaintext rows; the crypto that authenticates
    # the persisted synopses lives in the storage layer.
    "stats": frozenset({"errors", "sim", "sql"}),
    # Padding, fixed ship schedules and the bitonic networks are pure
    # data-shape policy over meters, telemetry and SQL values.
    "oblivious": frozenset({"errors", "sim", "telemetry", "sql"}),
    "sql": frozenset({"errors", "sim", "stats", "oblivious"}),
    "storage": frozenset({"errors", "sim", "crypto", "telemetry", "perf"}),
    "tee": frozenset({"errors", "sim", "crypto"}),
    "policy": frozenset({"errors", "sql"}),
    "monitor": frozenset(
        {"errors", "sim", "crypto", "sql", "policy", "tee", "telemetry"}
    ),
    "tpch": frozenset({"errors", "crypto", "sql"}),
    "core": frozenset(
        {"errors", "sim", "crypto", "sql", "storage", "tee", "policy", "monitor",
         "tpch", "telemetry", "perf", "stream", "oblivious"}
    ),
    "gdpr": frozenset(
        {"errors", "sim", "crypto", "sql", "storage", "policy", "monitor", "core"}
    ),
    "bench": frozenset(
        {"errors", "sim", "crypto", "sql", "tpch", "core", "telemetry"}
    ),
    # The sharded scale-out layer composes existing machinery: core,
    # zone-map synopses, the ship pipeline, oblivious padding and the TPC-H
    # generator.  Each shard's keys and anchors stay behind its engines.
    "shard": frozenset(
        {"errors", "sim", "stats", "telemetry", "perf", "stream",
         "oblivious", "sql", "tpch", "core"}
    ),
    # The analyzer lints trees that may not import; it depends on nothing.
    "analysis": frozenset(),
}

# Enclave / secure-storage internals, and the layers that may name them.
ENCLAVE_INTERNALS = frozenset(
    {
        "SecurePager",
        "TAAnchor",
        "Enclave",
        "TrustedOS",
        "TrustedApplication",
        "SecureStorageTA",
        "AttestationTA",
        "RPMB",
        "RPMBClient",
        "TrustZoneDevice",
        "RealmManager",
    }
)
TRUSTED_SUBPACKAGES = frozenset({"storage", "tee", "monitor", "core"})

MUTATION_PREFIXES = ("register_", "provision_", "revoke", "rotate_", "finish_", "delete_")
AUDIT_CALL_NAMES = frozenset({"_audit", "append", "audit_log"})


def _name_of(node: ast.AST) -> str | None:
    """The identifier an ``x.name`` or bare ``name`` node spells."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _named(tree: ast.AST, names: frozenset[str]) -> Iterator[tuple[ast.AST, str]]:
    """Every attribute or name node of *tree* that spells one of *names*."""
    for node in ast.walk(tree):
        name = _name_of(node)
        if name in names:
            yield node, name


@register
class LayeringViolation(Rule):
    """Module imports a subpackage its layer may not depend on.

    Keeps the TCB partial order acyclic and honest: ``crypto`` must stay
    importable inside the most constrained TEE (so it cannot pull in
    ``monitor``/``core``), and the ``sql`` engine runs inside enclaves on
    both sides of the channel, so it may never reach back into ``tee``.
    """

    rule_id = "ARCH001"
    title = "package layering violation"
    rationale = "the TCB dependency order is part of the trust argument"

    def check(self, ctx) -> Iterator[Finding]:
        subpackage = ctx.subpackage
        allowed = LAYERING.get(subpackage)
        if allowed is None:
            return  # outside repro, or a package with no row
        for record in ctx.graph.imports_of(ctx.module):
            target = top_subpackage(record.module)
            if target is None:
                # Importing the bare "repro" package root from inside a
                # subpackage would also invert the layering.
                if record.module == "repro" and subpackage != "analysis":
                    yield self.finding(
                        ctx, record,
                        f"'{subpackage}' imports the repro package root; "
                        "import the concrete subpackage instead",
                    )
                continue
            if target == subpackage or target in allowed:
                continue
            yield self.finding(
                ctx, record,
                f"'{subpackage}' may not import 'repro.{target}' "
                f"(allowed: {', '.join(sorted(allowed)) or 'nothing'})",
            )


@register
class EnclaveBoundaryViolation(Rule):
    """Untrusted module reaches into enclave / secure-storage internals.

    ``SecurePager``, ``Enclave``, the TrustZone TAs and the RPMB are
    inside the trust boundary; host-side and workload code must cross it
    only through ``repro.core.channel`` (MAC'd messages) or the
    ``Deployment`` API, exactly like the hardware would force it to.
    """

    rule_id = "ARCH002"
    title = "enclave internals referenced outside the trusted layer"
    rationale = "the enclave boundary is only real if no code bypasses it"

    def check(self, ctx) -> Iterator[Finding]:
        subpackage = ctx.subpackage
        # ("analysis" names these classes in its own tables.)
        if subpackage is None or subpackage in TRUSTED_SUBPACKAGES | {"analysis"}:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                imported = [a.name for a in node.names if a.name in ENCLAVE_INTERNALS]
                name = imported[0] if imported else None
            else:
                name = _name_of(node)
            if name in ENCLAVE_INTERNALS:
                yield self.finding(
                    ctx, node,
                    f"untrusted package '{subpackage}' references enclave-internal "
                    f"'{name}'; go through repro.core.channel or the Deployment API",
                )


@register
class UnauditedMonitorMutation(Rule):
    """Monitor state mutated without an audit-log append.

    The paper's transparency obligation (and GDPR Art. 30) requires the
    trusted monitor to record provisioning, registration and revocation —
    not just queries: a ``*Monitor`` method named with a mutation verb
    must append to an audit log (directly or via an ``_audit`` helper).
    """

    rule_id = "ARCH003"
    title = "monitor mutation without audit-log append"
    rationale = "unaudited mutations break the tamper-evident history"

    def check(self, ctx) -> Iterator[Finding]:
        if ctx.subpackage != "monitor":
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef) or "Monitor" not in node.name:
                continue
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if not item.name.startswith(MUTATION_PREFIXES):
                    continue
                if any(
                    isinstance(call, ast.Call) and _name_of(call.func) in AUDIT_CALL_NAMES
                    for call in ast.walk(item)
                ):
                    continue
                yield self.finding(
                    ctx, item,
                    f"{node.name}.{item.name} mutates monitor state but never "
                    "appends to an audit log",
                )


# Secret-bearing names: off limits to layers whose output leaves the trust
# boundary (telemetry) or that span several trust domains (shard).
KEY_MATERIAL_NAMES = frozenset(
    {
        "master_key",
        "get_master_key",
        "private_key",
        "_signing_key",
        "_keypair",
        "_enc_key",
        "_mac_key",
        "_merkle_key",
        "_send_key",
        "_recv_key",
        "_hmac",
        "_send_hmac",
        "_recv_hmac",
        "attestation_key",
    }
)


TELEMETRY_FORBIDDEN_PACKAGES = frozenset({"crypto", "tee"})
TELEMETRY_FORBIDDEN_NAMES = KEY_MATERIAL_NAMES | {"session_key"}


@register
class TelemetryIsolationViolation(Rule):
    """Telemetry reaches into crypto/TEE internals or names key material.

    Traces and metrics are exported to untrusted storage — the one place
    data intentionally leaves the trust boundary — so a span that could
    reach key material would be an exfiltration channel.  No imports of
    ``repro.crypto`` / ``repro.tee``, no key-bearing names; audit
    correlation uses duck-typed entry digests for exactly this reason.
    """

    rule_id = "ARCH004"
    title = "telemetry reaches into security internals"
    rationale = "exported traces must be incapable of carrying key material"

    def check(self, ctx) -> Iterator[Finding]:
        if ctx.subpackage != "telemetry":
            return
        for record in ctx.graph.imports_of(ctx.module):
            target = top_subpackage(record.module)
            if target in TELEMETRY_FORBIDDEN_PACKAGES:
                yield self.finding(
                    ctx, record,
                    f"telemetry may not import 'repro.{target}': "
                    "the observability layer stays outside the TCB",
                )
        for node, name in _named(ctx.tree, TELEMETRY_FORBIDDEN_NAMES):
            yield self.finding(
                ctx, node,
                f"telemetry references key material {name!r}; spans may "
                "carry counts and digests only",
            )


@dataclass(frozen=True, kw_only=True)
class ImportSurface(Rule):
    """A confined package: the only in-tree modules it may import.

    ARCH001 says which *subpackages* a layer may depend on; a row of
    :data:`IMPORT_SURFACES` narrows that to named modules.  With
    ``packages=None`` it constrains only the package's ``repro.sql``
    imports and leaves the rest to ARCH001; otherwise every import must be
    the package itself, one of ``sql_modules`` or inside ``packages``.
    ``forbidden_names`` are banned on top (``names_reason`` says why).
    """

    rule_id: str
    title: str
    rationale: str
    package: str
    sql_modules: frozenset[str] = frozenset()
    packages: frozenset[str] | None = None
    forbidden_names: frozenset[str] = frozenset()
    names_reason: str = ""

    def _covers(self, module: str) -> bool:
        return module == self.package or module.startswith(self.package + ".")

    def _allowed(self, target: str) -> bool:
        if target in self.sql_modules:
            return True
        if self.packages is None:
            return top_subpackage(target) != "sql"
        return self._covers(target) or top_subpackage(target) in self.packages

    def check(self, ctx) -> Iterator[Finding]:
        if ctx.module is None or not self._covers(ctx.module):
            return
        modules = ", ".join(sorted(self.sql_modules))
        if self.packages is None:
            label = self.package.removeprefix("repro.")
            surface = f"repro.sql only via {modules}"
        else:
            label = self.package
            surface = "only " + " plus ".join(
                filter(None, [modules, ", ".join(sorted(self.packages))])
            )
        for record in ctx.graph.imports_of(ctx.module):
            if not self._allowed(record.module):
                yield self.finding(
                    ctx, record,
                    f"{label} may import {surface}; found import of {record.module!r}",
                )
        for node, name in _named(ctx.tree, self.forbidden_names):
            yield self.finding(
                ctx, node,
                f"{label} references key material {name!r}; {self.names_reason}",
            )


IMPORT_SURFACES = (
    # With the planner or the stores in reach the ship pipeline could run
    # queries itself, outside the engines' metering and the enclave boundary.
    ImportSurface(
        rule_id="ARCH005",
        title="stream package exceeds its repro.sql surface",
        rationale="the transport layer must not grow into a query engine",
        package="repro.stream",
        sql_modules=frozenset({"repro.sql.records"}),
    ),
    # Pruning must agree with the row-level filter, hence the shared value
    # semantics; with the stores or the pager in reach zone maps could read
    # pages outside the metered, authenticated scan path.
    ImportSurface(
        rule_id="ARCH006",
        title="stats package exceeds its repro.sql surface",
        rationale="zone maps summarise data; they must not become a data path",
        package="repro.stats",
        sql_modules=frozenset({"repro.sql.values"}),
    ),
    # The adversary view is a pure consumer of recorded traces: storage,
    # core or crypto would let it peek inside the boundary it sits outside.
    ImportSurface(
        rule_id="ARCH007",
        title="adversary-view package exceeds its import surface",
        rationale="the leakage meter models the adversary; it must not join the system",
        package="repro.telemetry.obsv",
        packages=frozenset({"telemetry", "errors", "sim"}),
    ),
    # The bitonic sort must agree with the engine's ORDER BY, hence the
    # value semantics; dummy work must flow through the same metered
    # pipeline as real work or the cost model lies.
    ImportSurface(
        rule_id="ARCH008",
        title="oblivious package exceeds its repro.sql surface",
        rationale="dummy work must ride the real pipeline, not a side door",
        package="repro.oblivious",
        sql_modules=frozenset({"repro.sql.values"}),
    ),
    # Column buffers and batch kernels are a passive representation —
    # morsels are containers the engine fills, not an engine of their own.
    ImportSurface(
        rule_id="ARCH009",
        title="vector data plane exceeds its import surface",
        rationale="column batches are containers, not a second query engine",
        package="repro.sql.vector",
        sql_modules=frozenset({"repro.sql.values", "repro.sql.records"}),
        packages=frozenset({"errors", "sim"}),
    ),
    # The sharded runners re-ship rows other layers produced (parsing and
    # planning go through repro.core), and a layer that fans one query
    # across N trust domains must never be able to aggregate their keys.
    ImportSurface(
        rule_id="ARCH010",
        title="shard package exceeds its confinement surface",
        rationale="cross-shard orchestration must stay key-blind and engine-blind",
        package="repro.shard",
        sql_modules=frozenset({"repro.sql.values", "repro.sql.records"}),
        forbidden_names=KEY_MATERIAL_NAMES,
        names_reason="per-shard keys stay inside each node's engines",
    ),
)

for _rule in IMPORT_SURFACES:
    add_rule(_rule)
del _rule
