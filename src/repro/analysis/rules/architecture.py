"""Architecture-conformance rules (ARCH001–ARCH010).

The reproduction's trust argument depends on its layering: ``crypto`` is
the bottom of the TCB, enclave internals are reachable only through the
deployment/channel layer, and every monitor mutation leaves an audit
trace.  These rules pin that structure so a refactor cannot silently
invert it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..importgraph import top_subpackage
from ..registry import Rule, register

# Allowed repro-internal dependencies per top-level subpackage.  "errors"
# is the shared bottom; a package absent from this table is unconstrained
# (new packages opt in by adding a row).
LAYERING: dict[str, frozenset[str]] = {
    "errors": frozenset(),
    "crypto": frozenset({"errors"}),
    "sim": frozenset({"errors"}),
    # Telemetry is pure observation: it may see simulated time but never
    # the security machinery it observes (ARCH004 enforces the latter by
    # name too, so even an allowed layer can't smuggle key material in).
    "telemetry": frozenset({"errors", "sim"}),
    # The performance layer (page cache, session scheduler) is policy, not
    # security: it handles opaque bytes and simulated durations, so it may
    # never import the crypto it sits next to.
    "perf": frozenset({"errors", "sim"}),
    # The streaming ship pipeline is transport policy: encoded rows and
    # simulated durations only.  It may see the record wire format
    # (ARCH005 pins its repro.sql surface to repro.sql.records) but never
    # the query engine or crypto it ships between.
    "stream": frozenset({"errors", "sim", "sql"}),
    # Table statistics (zone maps / pruning predicates) summarise plaintext
    # rows: they may use the SQL value semantics (ARCH006 pins the surface
    # to repro.sql.values) but never the crypto/TEE machinery that
    # authenticates the persisted synopses — that protection lives in the
    # storage layer.
    "stats": frozenset({"errors", "sim", "sql"}),
    # Oblivious-execution primitives (padding, fixed ship schedules, the
    # bitonic operator networks) are pure data-shape policy: they may see
    # simulated meters, telemetry and the SQL value semantics (ARCH008
    # pins the surface to repro.sql.values) but never the crypto, TEE or
    # engine machinery whose traces they flatten.
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
    # The sharded scale-out layer composes existing machinery: it may see
    # the deployment/partitioning surface (core), zone-map synopses
    # (stats), the ship pipeline and oblivious padding, and the TPC-H
    # generator for partition-aware loading.  Its repro.sql surface is
    # pinned by ARCH010 to the value semantics and record wire format —
    # parsing and planning happen through repro.core — and it must never
    # touch crypto or TEE machinery: each shard's keys and anchors live
    # behind its engines.
    "shard": frozenset(
        {"errors", "sim", "stats", "telemetry", "perf", "stream",
         "oblivious", "sql", "tpch", "core"}
    ),
    # The analyzer lints trees that may not import; it depends on nothing.
    "analysis": frozenset(),
}

# Class names that are enclave/secure-storage internals: only the trusted
# assembly layer may touch them; untrusted code goes through core.channel
# or the Deployment API.
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

# Monitor methods whose name starts with one of these verbs mutate
# monitor state and must leave an audit-log trace.
MUTATION_PREFIXES = ("register_", "provision_", "revoke", "rotate_", "finish_", "delete_")
AUDIT_CALL_NAMES = frozenset({"_audit", "append", "audit_log"})


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
        if ctx.module is None or subpackage is None:
            return
        allowed = LAYERING.get(subpackage)
        if allowed is None:
            return
        for record in ctx.graph.imports_of(ctx.module):
            target = top_subpackage(record.module)
            if target is None:
                # Importing the bare "repro" package root from inside a
                # subpackage would also invert the layering.
                if record.module == "repro" and subpackage != "analysis":
                    yield Finding(
                        rule_id=self.rule_id,
                        path=ctx.relpath,
                        line=record.lineno,
                        col=record.col,
                        message=f"'{subpackage}' imports the repro package root; "
                        "import the concrete subpackage instead",
                    )
                continue
            if target == subpackage or target in allowed:
                continue
            yield Finding(
                rule_id=self.rule_id,
                path=ctx.relpath,
                line=record.lineno,
                col=record.col,
                message=(
                    f"'{subpackage}' may not import 'repro.{target}' "
                    f"(allowed: {', '.join(sorted(allowed)) or 'nothing'})"
                ),
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
        if subpackage is None or subpackage in TRUSTED_SUBPACKAGES:
            return
        if subpackage == "analysis":
            return  # the linter names these classes in its own tables
        for node in ast.walk(ctx.tree):
            name: str | None = None
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name in ENCLAVE_INTERNALS:
                        name = alias.name
                        break
            elif isinstance(node, ast.Name) and node.id in ENCLAVE_INTERNALS:
                name = node.id
            elif isinstance(node, ast.Attribute) and node.attr in ENCLAVE_INTERNALS:
                name = node.attr
            if name is not None:
                yield self.finding(
                    ctx,
                    node,
                    f"untrusted package '{subpackage}' references enclave-internal "
                    f"'{name}'; go through repro.core.channel or the Deployment API",
                )


@register
class UnauditedMonitorMutation(Rule):
    """Monitor state mutated without an audit-log append.

    The paper's transparency obligation (and GDPR Art. 30) requires the
    trusted monitor to record provisioning, registration and revocation —
    not just queries.  Any ``register_*``/``provision_*``/``revoke*``/...
    method on a ``*Monitor`` class must append to an audit log (directly
    or via an ``_audit`` helper).
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
                if self._audits(item):
                    continue
                yield self.finding(
                    ctx,
                    item,
                    f"{node.name}.{item.name} mutates monitor state but never "
                    "appends to an audit log",
                )

    @staticmethod
    def _audits(func: ast.AST) -> bool:
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                callee = node.func
                if isinstance(callee, ast.Attribute) and callee.attr in AUDIT_CALL_NAMES:
                    return True
                if isinstance(callee, ast.Name) and callee.id in AUDIT_CALL_NAMES:
                    return True
        return False


# Packages the observability layer must never depend on, and the secret-
# bearing attribute/function names it must never reference.  A span that
# could reach key material would turn the trace files — which leave the
# enclave by design — into an exfiltration channel.
TELEMETRY_FORBIDDEN_PACKAGES = frozenset({"crypto", "tee"})
TELEMETRY_FORBIDDEN_NAMES = frozenset(
    {
        "master_key",
        "session_key",
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


@register
class TelemetryIsolationViolation(Rule):
    """Telemetry reaches into crypto/TEE internals or names key material.

    Traces and metrics are exported to untrusted storage (JSONL files,
    Chrome trace viewers) — the one place data intentionally leaves the
    trust boundary.  The telemetry package therefore must stay blind to
    the security machinery: no imports of ``repro.crypto`` or
    ``repro.tee``, and no references to key-bearing attributes.  Audit
    correlation uses duck-typed entry digests for exactly this reason.
    """

    rule_id = "ARCH004"
    title = "telemetry reaches into security internals"
    rationale = "exported traces must be incapable of carrying key material"

    def check(self, ctx) -> Iterator[Finding]:
        if ctx.subpackage != "telemetry":
            return
        for record in ctx.graph.imports_of(ctx.module) if ctx.module else ():
            target = top_subpackage(record.module)
            if target in TELEMETRY_FORBIDDEN_PACKAGES:
                yield Finding(
                    rule_id=self.rule_id,
                    path=ctx.relpath,
                    line=record.lineno,
                    col=record.col,
                    message=f"telemetry may not import 'repro.{target}': "
                    "the observability layer stays outside the TCB",
                )
        for node in ast.walk(ctx.tree):
            name: str | None = None
            if isinstance(node, ast.Attribute) and node.attr in TELEMETRY_FORBIDDEN_NAMES:
                name = node.attr
            elif isinstance(node, ast.Name) and node.id in TELEMETRY_FORBIDDEN_NAMES:
                name = node.id
            if name is not None:
                yield self.finding(
                    ctx,
                    node,
                    f"telemetry references key material {name!r}; spans may "
                    "carry counts and digests only",
                )


# The one repro.sql module the stream package may import: the record wire
# format.  Everything else in repro.sql (parser, planner, operators,
# stores) is query-engine machinery the transport layer must stay blind to.
STREAM_ALLOWED_SQL_MODULES = frozenset({"repro.sql.records"})


@register
class StreamSurfaceViolation(Rule):
    """The stream package imports repro.sql beyond the record wire format.

    ARCH001 already allows ``stream`` → ``sql``, but the intended surface
    is exactly ``repro.sql.records`` (encode/decode of rows and batches).
    If the ship pipeline could reach the planner or the stores it could
    execute queries on its own, outside the engines' metering and the
    enclave boundary — so the wider import is banned by name.
    """

    rule_id = "ARCH005"
    title = "stream package exceeds its repro.sql surface"
    rationale = "the transport layer must not grow into a query engine"

    def check(self, ctx) -> Iterator[Finding]:
        if ctx.subpackage != "stream" or ctx.module is None:
            return
        for record in ctx.graph.imports_of(ctx.module):
            if top_subpackage(record.module) != "sql":
                continue
            if record.module in STREAM_ALLOWED_SQL_MODULES:
                continue
            yield Finding(
                rule_id=self.rule_id,
                path=ctx.relpath,
                line=record.lineno,
                col=record.col,
                message=(
                    f"stream may import repro.sql only via "
                    f"{', '.join(sorted(STREAM_ALLOWED_SQL_MODULES))}; "
                    f"found import of {record.module!r}"
                ),
            )


# The one repro.sql module the stats package may import: the SQL value
# semantics (coercion and three-valued comparisons).  Pruning decisions
# must agree with the row-level filter, so they share those primitives —
# but the stats layer must never reach the planner, stores or operators,
# and (via LAYERING) never the crypto that authenticates its synopses.
STATS_ALLOWED_SQL_MODULES = frozenset({"repro.sql.values"})


@register
class StatsSurfaceViolation(Rule):
    """The stats package imports repro.sql beyond the value semantics.

    ARCH001 already allows ``stats`` → ``sql``, but the intended surface
    is exactly ``repro.sql.values``.  If zone maps could reach the stores
    or the pager they could read pages outside the metered, authenticated
    scan path — the synopses must stay a passive summary the engine
    consults, not a second data path.
    """

    rule_id = "ARCH006"
    title = "stats package exceeds its repro.sql surface"
    rationale = "zone maps summarise data; they must not become a data path"

    def check(self, ctx) -> Iterator[Finding]:
        if ctx.subpackage != "stats" or ctx.module is None:
            return
        for record in ctx.graph.imports_of(ctx.module):
            if top_subpackage(record.module) != "sql":
                continue
            if record.module in STATS_ALLOWED_SQL_MODULES:
                continue
            yield Finding(
                rule_id=self.rule_id,
                path=ctx.relpath,
                line=record.lineno,
                col=record.col,
                message=(
                    f"stats may import repro.sql only via "
                    f"{', '.join(sorted(STATS_ALLOWED_SQL_MODULES))}; "
                    f"found import of {record.module!r}"
                ),
            )


# The adversary-view observability package (repro.telemetry.obsv) models
# what the untrusted host/storage can see.  It must stay a pure consumer
# of recorded traces: telemetry internals, shared errors and simulated
# time only — pulling in storage, core or crypto would let the "adversary"
# peek inside the trust boundary it is supposed to sit outside of.
OBSV_PREFIX = "repro.telemetry.obsv"
OBSV_ALLOWED_SUBPACKAGES = frozenset({"telemetry", "errors", "sim"})


@register
class ObsvConfinementViolation(Rule):
    rule_id = "ARCH007"
    title = "adversary-view package exceeds its import surface"
    rationale = "the leakage meter models the adversary; it must not join the system"

    def check(self, ctx) -> Iterator[Finding]:
        module = ctx.module
        if module is None:
            return
        if module != OBSV_PREFIX and not module.startswith(OBSV_PREFIX + "."):
            return
        for record in ctx.graph.imports_of(module):
            target = top_subpackage(record.module)
            if target in OBSV_ALLOWED_SUBPACKAGES:
                continue
            yield Finding(
                rule_id=self.rule_id,
                path=ctx.relpath,
                line=record.lineno,
                col=record.col,
                message=(
                    f"repro.telemetry.obsv may import only "
                    f"{', '.join(sorted(OBSV_ALLOWED_SUBPACKAGES))}; "
                    f"found import of {record.module!r}"
                ),
            )


# The oblivious-execution package pads and reorders *shapes* (page
# schedules, frame sizes, compare-exchange networks).  Like stats it may
# share the SQL value semantics — the bitonic sort must agree with the
# engine's ORDER BY comparisons — but it must never reach the stores,
# pager or operators: obliviousness is a transform the engine applies,
# not a second execution path.
OBLIVIOUS_ALLOWED_SQL_MODULES = frozenset({"repro.sql.values"})


@register
class ObliviousSurfaceViolation(Rule):
    """The oblivious package imports repro.sql beyond the value semantics.

    ARCH001 already allows ``oblivious`` → ``sql``, but the intended
    surface is exactly ``repro.sql.values``.  If the padding or shuffle
    primitives could reach the stores or the pager they could issue reads
    outside the metered, authenticated scan path — dummy work must flow
    through the same pipeline as real work or the cost model lies.
    """

    rule_id = "ARCH008"
    title = "oblivious package exceeds its repro.sql surface"
    rationale = "dummy work must ride the real pipeline, not a side door"

    def check(self, ctx) -> Iterator[Finding]:
        if ctx.subpackage != "oblivious" or ctx.module is None:
            return
        for record in ctx.graph.imports_of(ctx.module):
            if top_subpackage(record.module) != "sql":
                continue
            if record.module in OBLIVIOUS_ALLOWED_SQL_MODULES:
                continue
            yield Finding(
                rule_id=self.rule_id,
                path=ctx.relpath,
                line=record.lineno,
                col=record.col,
                message=(
                    f"oblivious may import repro.sql only via "
                    f"{', '.join(sorted(OBLIVIOUS_ALLOWED_SQL_MODULES))}; "
                    f"found import of {record.module!r}"
                ),
            )


# The vector data plane (repro.sql.vector) holds typed column buffers and
# batch kernels.  It must stay a passive data representation: the record
# wire format, the SQL value semantics, shared errors and simulated meters
# only.  If it could reach the planner, stores or operators it would grow
# into a second query engine outside the metered scan path — morsels are
# containers the engine fills, not a data path of their own.
# The sharded scale-out package routes scans, partitions rows and prices
# candidate plans — all over values and encoded records.  Its repro.sql
# surface is exactly the value semantics and the record wire format;
# parsing, planning and aggregate decomposition go through repro.core.
# And although every shard's engines hold keys, anchors and Merkle roots,
# the shard layer itself must stay key-blind: it reaches each node's
# security machinery only through engine/deployment attribute surfaces.
SHARD_ALLOWED_SQL_MODULES = frozenset({"repro.sql.values", "repro.sql.records"})
SHARD_FORBIDDEN_NAMES = frozenset(
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


@register
class ShardConfinementViolation(Rule):
    """The shard package exceeds its repro.sql surface or names key material.

    ARCH001 already allows ``shard`` → ``sql``, but the intended surface
    is exactly ``repro.sql.values`` / ``repro.sql.records`` — the sharded
    runners re-ship rows other layers produced; if they could reach the
    parser, planner or stores they would become a second query engine
    outside the metered path.  The rule also bans key-material names
    outright: a layer that fans one query across N trust domains must
    never be able to aggregate their keys.
    """

    rule_id = "ARCH010"
    title = "shard package exceeds its confinement surface"
    rationale = "cross-shard orchestration must stay key-blind and engine-blind"

    def check(self, ctx) -> Iterator[Finding]:
        if ctx.subpackage != "shard":
            return
        for record in ctx.graph.imports_of(ctx.module) if ctx.module else ():
            if top_subpackage(record.module) != "sql":
                continue
            if record.module in SHARD_ALLOWED_SQL_MODULES:
                continue
            yield Finding(
                rule_id=self.rule_id,
                path=ctx.relpath,
                line=record.lineno,
                col=record.col,
                message=(
                    f"shard may import repro.sql only via "
                    f"{', '.join(sorted(SHARD_ALLOWED_SQL_MODULES))}; "
                    f"found import of {record.module!r}"
                ),
            )
        for node in ast.walk(ctx.tree):
            name: str | None = None
            if isinstance(node, ast.Attribute) and node.attr in SHARD_FORBIDDEN_NAMES:
                name = node.attr
            elif isinstance(node, ast.Name) and node.id in SHARD_FORBIDDEN_NAMES:
                name = node.id
            if name is not None:
                yield self.finding(
                    ctx,
                    node,
                    f"shard references key material {name!r}; per-shard keys "
                    "stay inside each node's engines",
                )


VECTOR_PREFIX = "repro.sql.vector"
VECTOR_ALLOWED_SUBPACKAGES = frozenset({"errors", "sim"})
VECTOR_ALLOWED_SQL_MODULES = frozenset({"repro.sql.values", "repro.sql.records"})


@register
class VectorConfinementViolation(Rule):
    rule_id = "ARCH009"
    title = "vector data plane exceeds its import surface"
    rationale = "column batches are containers, not a second query engine"

    def check(self, ctx) -> Iterator[Finding]:
        module = ctx.module
        if module is None:
            return
        if module != VECTOR_PREFIX and not module.startswith(VECTOR_PREFIX + "."):
            return
        for record in ctx.graph.imports_of(module):
            if record.module == VECTOR_PREFIX or record.module.startswith(
                VECTOR_PREFIX + "."
            ):
                continue
            if top_subpackage(record.module) in VECTOR_ALLOWED_SUBPACKAGES:
                continue
            if record.module in VECTOR_ALLOWED_SQL_MODULES:
                continue
            yield Finding(
                rule_id=self.rule_id,
                path=ctx.relpath,
                line=record.lineno,
                col=record.col,
                message=(
                    f"repro.sql.vector may import only "
                    f"{', '.join(sorted(VECTOR_ALLOWED_SQL_MODULES))} plus "
                    f"{', '.join(sorted(VECTOR_ALLOWED_SUBPACKAGES))}; "
                    f"found import of {record.module!r}"
                ),
            )
