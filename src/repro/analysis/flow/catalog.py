"""Declarative source / sink / sanitizer catalog for the dataflow rules.

Every entry names a *real* API of the reproduction.  The engine matches
call sites against these patterns (suffix dotted-name matching, see
:func:`repro.analysis.flow.taint.match_pattern`); adding a summary for a
new API is adding one line here, never touching the engine.

Catalog semantics:

* **Source** — the call's return value acquires ``tags``.  An optional
  ``when_arg`` restricts the match to calls carrying that string literal
  as an argument (used for command-dispatch APIs like
  ``trusted_os.invoke("secure-storage", "get_master_key")``).
* **ValueSanitizer** — the call's return value is the union of its
  argument taints *minus* ``clears``.  Encryption (``hash_ctr_crypt``,
  ``cbc_encrypt``, ``seal``) and one-way functions (``sha256``, ``sign``,
  ``KeyedHmac.mac``) launder what they consume: ciphertext and digests
  are safe to ship and log.
* **GuardSanitizer** — a verification call: reaching it means the current
  path has authenticated its inputs, so ``clears`` is removed from every
  live value in the function (flow-sensitively — a decode *before* the
  guard still fires).  ``constant_time_eq`` clears only the channel tag:
  a page MAC alone does not prove freshness, the Merkle/anchored-digest
  walk (``verify_*``) does.
* **CallSink** — arguments carrying one of ``tags`` at this call violate
  ``rule``.
* **PARAM_SINKS** — sinks declared on the *callee*: any call resolving to
  that function with a tainted value in the named parameter fires, so the
  finding lands at the caller's line (e.g. key material passed to
  ``SecureChannel.send`` — even encrypted, keys never ride the data
  channel).
* **ATTRIBUTE_SOURCES** — reading an attribute with one of these names is
  a source regardless of how the object was obtained (field-name
  sensitivity: ``session.key``, ``self._enc_key``).
* **EXEMPT_MODULES** — per-rule module exemptions.  The only entry is the
  deliberately-unauthenticated baseline pager (``repro.storage.pager``),
  which exists to measure the *insecure* arms of the paper's figures and
  decodes device bytes without MACs by design.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .taint import TAG_CHANNEL, TAG_KEY, TAG_PLAINTEXT, TAG_STORAGE


@dataclass(frozen=True)
class Source:
    pattern: str
    tags: frozenset
    origin: str
    when_arg: str | None = None


@dataclass(frozen=True)
class ValueSanitizer:
    pattern: str
    clears: frozenset
    label: str


@dataclass(frozen=True)
class GuardSanitizer:
    pattern: str
    clears: frozenset
    label: str


@dataclass(frozen=True)
class CallSink:
    pattern: str
    rule: str
    tags: frozenset
    label: str


@dataclass(frozen=True)
class ParamSink:
    param: str
    rule: str
    tags: frozenset
    label: str


_KEY = frozenset({TAG_KEY})
_UNVERIFIED = frozenset({TAG_STORAGE, TAG_CHANNEL})
_ALL = frozenset({TAG_KEY, TAG_STORAGE, TAG_CHANNEL, TAG_PLAINTEXT})


SOURCES: tuple[Source, ...] = (
    # -- key material ---------------------------------------------------
    Source("hkdf", _KEY, "hkdf()"),
    Source("derive_key", _KEY, "derive_key()"),
    Source("sealing_key_for", _KEY, "sealing_key_for()"),
    Source("generate_keypair", _KEY, "generate_keypair()"),
    # A pre-keyed MAC object holds the two keyed hash states: it is the key.
    Source("KeyedHmac", _KEY, "KeyedHmac()"),
    Source("get_master_key", _KEY, "get_master_key()"),
    Source("invoke", _KEY, 'invoke(.., "get_master_key")', when_arg="get_master_key"),
    # -- untrusted storage bytes ---------------------------------------
    Source("device.read_page", frozenset({TAG_STORAGE}), "device.read_page()"),
    Source("device.read_meta", frozenset({TAG_STORAGE}), "device.read_meta()"),
    # -- untrusted channel bytes ---------------------------------------
    Source("link.receive", frozenset({TAG_CHANNEL}), "link.receive()"),
    # -- decrypted row data inside the enclave --------------------------
    Source("pager.read_page", frozenset({TAG_PLAINTEXT}), "pager.read_page()"),
    Source("pager.read_pages", frozenset({TAG_PLAINTEXT}), "pager.read_pages()"),
    Source("unpack_page", frozenset({TAG_PLAINTEXT}), "unpack_page()"),
    Source("decode_batch", frozenset({TAG_PLAINTEXT}), "decode_batch()"),
    Source("decode_row", frozenset({TAG_PLAINTEXT}), "decode_row()"),
)

#: Attribute-read sources, matched as dotted suffix patterns against the
#: full receiver chain (``auth.session.key`` matches ``session.key``).
#: Bare names match any receiver; ``session.key`` is anchored because a
#: bare ``.key`` collides with AST/dict field names.
ATTRIBUTE_SOURCES: dict[str, tuple[frozenset, str]] = {
    "session.key": (_KEY, ".session.key"),
    "master_key": (_KEY, ".master_key"),
    "session_key": (_KEY, ".session_key"),
    "sealing_key": (_KEY, ".sealing_key"),
    "private_key": (_KEY, ".private_key"),
    "_signing_key": (_KEY, "._signing_key"),
    "_enc_key": (_KEY, "._enc_key"),
    "_mac_key": (_KEY, "._mac_key"),
    "_merkle_key": (_KEY, "._merkle_key"),
    "_send_key": (_KEY, "._send_key"),
    "_recv_key": (_KEY, "._recv_key"),
    "_hmac": (_KEY, "._hmac (pre-keyed MAC)"),
    "_send_hmac": (_KEY, "._send_hmac (pre-keyed MAC)"),
    "_recv_hmac": (_KEY, "._recv_hmac (pre-keyed MAC)"),
    "_root_key": (_KEY, "._root_key"),
    "_huk": (_KEY, "._huk (hardware-unique key)"),
    "_task": (_KEY, "._task (TA storage key)"),
    "_keypair": (_KEY, "._keypair"),
}

VALUE_SANITIZERS: tuple[ValueSanitizer, ...] = (
    # Encryption: ciphertext is safe to ship, store and (size-wise) meter.
    ValueSanitizer("hash_ctr_crypt", _ALL, "stream-cipher encrypt/decrypt"),
    ValueSanitizer("cbc_encrypt", _ALL, "AES-CBC encrypt"),
    ValueSanitizer("cbc_decrypt", _ALL, "AES-CBC decrypt"),
    ValueSanitizer("seal", _ALL, "enclave sealing"),
    # One-way functions: digests/signatures of secrets are declassified.
    ValueSanitizer("sha256", _ALL, "SHA-256"),
    ValueSanitizer("sha512", _ALL, "SHA-512"),
    ValueSanitizer("hmac_sha256", _ALL, "HMAC-SHA256"),
    ValueSanitizer("hmac_sha512", _ALL, "HMAC-SHA512"),
    # KeyedHmac.mac(): the tag is declassified, the receiver is not.
    ValueSanitizer("mac", _ALL, "pre-keyed HMAC tag"),
    ValueSanitizer("sign", _ALL, "signature"),
    ValueSanitizer("fingerprint", _ALL, "public-key fingerprint"),
    # Row → wire encoders produce opaque framing the ship path may handle.
    ValueSanitizer("len", _ALL, "length"),
)

GUARD_SANITIZERS: tuple[GuardSanitizer, ...] = (
    # A MAC check proves integrity of what arrived *now* — enough for the
    # sequenced channel, not for storage (replay of a stale page passes).
    GuardSanitizer(
        "constant_time_eq", frozenset({TAG_CHANNEL}), "constant-time MAC check"
    ),
    GuardSanitizer(
        "compare_digest", frozenset({TAG_CHANNEL}), "constant-time MAC check"
    ),
    # Merkle walks and anchored-digest checks prove freshness too.
    GuardSanitizer("verify_*", _UNVERIFIED, "Merkle/anchored-root verification"),
)

CALL_SINKS: tuple[CallSink, ...] = (
    # -- logging --------------------------------------------------------
    CallSink("print", "TAINT001", _KEY, "print()"),
    CallSink("logging.debug", "TAINT001", _KEY, "logging"),
    CallSink("logging.info", "TAINT001", _KEY, "logging"),
    CallSink("logging.warning", "TAINT001", _KEY, "logging"),
    CallSink("logging.error", "TAINT001", _KEY, "logging"),
    CallSink("logging.exception", "TAINT001", _KEY, "logging"),
    CallSink("logging.critical", "TAINT001", _KEY, "logging"),
    CallSink("logging.log", "TAINT001", _KEY, "logging"),
    CallSink("logger.*", "TAINT001", _KEY, "logging"),
    CallSink("log.*", "TAINT001", _KEY, "logging"),
    # -- telemetry spans / metric labels -------------------------------
    CallSink("tracer.event", "TAINT001", _KEY, "telemetry event"),
    CallSink("tracer.span", "TAINT001", _KEY, "telemetry span"),
    CallSink("metrics.counter", "TAINT001", _KEY, "metric label"),
    # -- observable-event taps (repro.telemetry.obsv) ------------------
    # Observable traces model the *adversary's* record: feeding them key
    # material or decrypted row bytes would turn the leakage meter into a
    # leak.  Taps pass indices and byte counts only (``len`` sanitizes).
    CallSink("obsv.observe", "TAINT001", _KEY, "observable-event tap"),
    CallSink(
        "obsv.observe",
        "FLOW001",
        frozenset({TAG_PLAINTEXT}),
        "observable-event tap",
    ),
    CallSink("obsv.annotate", "TAINT001", _KEY, "observable-trace attr"),
    CallSink(
        "obsv.annotate",
        "FLOW001",
        frozenset({TAG_PLAINTEXT}),
        "observable-trace attr",
    ),
    # -- the raw (unencrypted) link ------------------------------------
    CallSink("link.send", "TAINT001", _KEY, "raw network link"),
    CallSink(
        "link.send",
        "FLOW001",
        frozenset({TAG_PLAINTEXT}),
        "raw network link",
    ),
    # -- decode/use of unverified bytes (TAINT002) ---------------------
    CallSink("hash_ctr_crypt", "TAINT002", _UNVERIFIED, "decrypt"),
    CallSink("cbc_decrypt", "TAINT002", _UNVERIFIED, "decrypt"),
    CallSink("unpack_page", "TAINT002", _UNVERIFIED, "row decode"),
    CallSink("decode_batch", "TAINT002", _UNVERIFIED, "batch decode"),
    CallSink("decode_row", "TAINT002", _UNVERIFIED, "row decode"),
    CallSink("json.loads", "TAINT002", _UNVERIFIED, "JSON decode"),
)

#: Sinks declared on callees: resolved calls check the named parameter.
#: Keys are ``Class.method`` / function-name suffixes of the definition's
#: qualified name.
PARAM_SINKS: dict[str, tuple[ParamSink, ...]] = {
    # Keys never ride the data channel, not even encrypted: the monitor
    # distributes session keys out of band, and a key inside a record
    # batch would decrypt on the *other* engine.
    "SecureChannel.send": (
        ParamSink("payload", "TAINT001", _KEY, "SecureChannel.send"),
    ),
    # The JSONL/Chrome exporters write to untrusted files by design.
    "write_jsonl": (ParamSink("traces", "TAINT001", _KEY, "JSONL exporter"),),
    "to_chrome_trace": (
        ParamSink("traces", "TAINT001", _KEY, "Chrome-trace exporter"),
    ),
    # Observable traces are the adversary's own record (exported to
    # untrusted files for leakage metering): plaintext rows or key
    # material must never reach the recorder or its exporter.
    "ObservableRecorder.observe": (
        ParamSink("detail", "TAINT001", _KEY, "observable-event tap"),
        ParamSink(
            "detail", "FLOW001", frozenset({TAG_PLAINTEXT}), "observable-event tap"
        ),
        ParamSink("actor", "TAINT001", _KEY, "observable-event tap"),
        ParamSink(
            "actor", "FLOW001", frozenset({TAG_PLAINTEXT}), "observable-event tap"
        ),
    ),
    "write_obsv_jsonl": (
        ParamSink("traces", "TAINT001", _KEY, "observable-trace exporter"),
        ParamSink(
            "traces",
            "FLOW001",
            frozenset({TAG_PLAINTEXT}),
            "observable-trace exporter",
        ),
    ),
}

#: Per-rule module exemptions, each carrying its justification here.
EXEMPT_MODULES: dict[str, frozenset[str]] = {
    # The plain pager is the paper's insecure baseline arm: it reads
    # device pages with no MAC or Merkle tree *by design* (figures 8/9c
    # measure secure-storage overhead against it).
    "TAINT002": frozenset({"repro.storage.pager"}),
    "FLOW001": frozenset({"repro.storage.pager"}),
}

#: Tags stripped from the *summaries* of functions defined in a module:
#: the baseline pager's returns are unauthenticated by design, so its
#: callers (the polymorphic ``PagedStore`` scan paths) must not inherit
#: the storage taint — the secure arm goes through ``SecurePager``, whose
#: summaries are clean because it verifies before returning.
EXEMPT_SUMMARY_TAGS: dict[str, frozenset] = {
    "repro.storage.pager": frozenset({TAG_STORAGE}),
}


@dataclass(frozen=True)
class RuleDoc:
    """Human-readable catalog slice for ``repro-lint --explain``."""

    rule_id: str
    sources: tuple[str, ...] = field(default_factory=tuple)
    sinks: tuple[str, ...] = field(default_factory=tuple)
    sanitizers: tuple[str, ...] = field(default_factory=tuple)


def _tags_for_rule(rule_id: str) -> frozenset:
    tags = set()
    for sink in CALL_SINKS:
        if sink.rule == rule_id:
            tags |= sink.tags
    for sinks in PARAM_SINKS.values():
        for sink in sinks:
            if sink.rule == rule_id:
                tags |= sink.tags
    return frozenset(tags)


def rule_doc(rule_id: str) -> RuleDoc:
    """Sources, sinks and sanitizers relevant to one TAINT/FLOW rule."""
    tags = _tags_for_rule(rule_id)
    sources = [f"{s.pattern}  [{', '.join(sorted(s.tags))}]"
               for s in SOURCES if s.tags & tags]
    sources += [f".{name} (attribute read)"
                for name, (attr_tags, _) in sorted(ATTRIBUTE_SOURCES.items())
                if attr_tags & tags]
    sinks = [f"{s.pattern}  ({s.label})" for s in CALL_SINKS if s.rule == rule_id]
    sinks += [
        f"{qual}({sink.param}=...)  ({sink.label})"
        for qual, entries in sorted(PARAM_SINKS.items())
        for sink in entries
        if sink.rule == rule_id
    ]
    sanitizers = [f"{s.pattern}  (clears {', '.join(sorted(s.clears & tags))})"
                  for s in (*VALUE_SANITIZERS, *GUARD_SANITIZERS)
                  if s.clears & tags]
    return RuleDoc(rule_id, tuple(sources), tuple(sinks), tuple(sanitizers))
