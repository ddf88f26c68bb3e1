"""Outside-in probes: wall-clock spans around the layers' public entry points.

The program under test is not edited.  Each row of :data:`PATCH_POINTS` names
an attribute of a ``repro`` module or class; :func:`installed` swaps it for a
wrapper that records one span per call into a :class:`Recorder` and puts the
original back on exit.  Functions imported by name (``from .records import
unpack_page``) are patched at their *use sites*, because that is the binding
the caller reads.

A row whose target no longer exists is skipped and listed in
``Recorder.unresolved``; nothing else changes, so a refactor that renames a
function costs the benchmark one per-layer metric and no end-to-end one.

Spans nest strictly (one thread), so a span's self time is its duration minus
the durations of its direct children, and the self times under one root add
up to the root's duration by construction.
"""

from __future__ import annotations

import importlib
import inspect
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

# How the wrapped callable hands back its work:
CALL = "call"  # an ordinary call: one span
ITER = "iter"  # returns an iterator: one span per next()
PAIR_ITER = "pair_iter"  # returns (columns, iterator): one span per next()


def _len_result(args, result):
    return len(result)


def _int_result(args, result):
    return int(result)


def _len_rows_arg(args, result):
    return len(args[-1])


#: (target, attribute, layer, span name, kind, count) — *target* is
#: ``package.module`` or ``package.module:Class``; *count*, when given, turns
#: (call args, result) into the amount of work the call did.
PATCH_POINTS: list[tuple] = [
    # set-up
    ("repro.core.deployment", "load_tpch", "tpch", "tpch.load", CALL, None),
    ("repro.tpch.dbgen:TPCHGenerator", "generate_all", "tpch", "tpch.dbgen", CALL, None),
    ("repro.core.deployment:Deployment", "attest_all", "deployment", "deployment.attest", CALL, None),
    # monitor
    ("repro.monitor.monitor:TrustedMonitor", "authorize", "monitor", "monitor.authorize", CALL, None),
    ("repro.monitor.monitor:TrustedMonitor", "finish_session", "monitor", "monitor.finish_session", CALL, None),
    ("repro.gdpr.scenarios", "verify_proof", "monitor", "monitor.proof_verify", CALL, None),
    # partitioner and runner glue
    ("repro.core.partitioner:QueryPartitioner", "partition", "partitioner", "partitioner.partition", CALL, None),
    ("repro.core.deployment:Deployment", "run_query", "deployment", "deployment.run_query", CALL, None),
    # storage engine
    ("repro.core.storage_engine:StorageEngine", "execute_scan", "storage_engine", "storage_engine.scan", CALL, None),
    ("repro.core.storage_engine:StorageEngine", "stream_scan", "storage_engine", "storage_engine.scan", PAIR_ITER, None),
    ("repro.core.storage_engine:StorageEngine", "stream_sql", "storage_engine", "storage_engine.scan", PAIR_ITER, None),
    ("repro.core.storage_engine:StorageEngine", "execute_full", "storage_engine", "storage_engine.scan", CALL, None),
    ("repro.core.storage_engine:StorageEngine", "commit", "storage_engine", "storage_engine.commit", CALL, None),
    # secure pager
    ("repro.storage.securepager:SecurePager", "read_page", "storage", "storage.read_page", CALL, None),
    ("repro.storage.securepager:SecurePager", "read_pages", "storage", "storage.read_page", CALL, None),
    ("repro.storage.securepager:SecurePager", "write_page", "storage", "storage.write_page", CALL, None),
    ("repro.storage.securepager:SecurePager", "commit", "storage", "storage.commit", CALL, None),
    # record codecs, at their use sites
    ("repro.sql.stores", "unpack_page", "records", "records.unpack_page", CALL, _len_result),
    ("repro.sql.stores", "encode_row", "records", "records.encode_row", CALL, None),
    ("repro.core.storage_engine", "encode_row", "records", "records.encode_row", CALL, None),
    # Deployment._run_split imports encode_row from its home module per call.
    ("repro.sql.records", "encode_row", "records", "records.encode_row", CALL, None),
    ("repro.stream.batching", "encode_batch", "records", "records.encode_batch", CALL, _len_result),
    ("repro.core.host_engine", "decode_batch", "records", "records.decode_batch", CALL, None),
    # SQL front end and executors
    ("repro.sql.engine:Database", "execute_statement", "sql", "sql.execute", CALL, None),
    ("repro.sql.engine:Database", "stream_select", "sql", "sql.execute", PAIR_ITER, None),
    ("repro.sql.engine", "parse", "sql", "sql.parse", CALL, None),
    ("repro.core.deployment", "parse", "sql", "sql.parse", CALL, None),
    ("repro.core.storage_engine", "parse", "sql", "sql.parse", CALL, None),
    ("repro.gdpr.scenarios", "parse", "sql", "sql.parse", CALL, None),
    # ship path
    ("repro.stream.batching:BatchAssembler", "batches", "stream", "stream.batch_assemble", ITER, None),
    ("repro.core.channel:SecureChannel", "send", "channel", "channel.send", CALL, None),
    ("repro.core.channel:SecureChannel", "receive", "channel", "channel.receive", CALL, None),
    # host engine
    ("repro.core.host_engine:HostEngine", "receive_table", "host_engine", "host_engine.ingest", CALL, _len_rows_arg),
    ("repro.core.host_engine:HostEngine", "ingest_batch", "host_engine", "host_engine.ingest", CALL, _int_result),
    ("repro.core.host_engine:HostEngine", "run", "host_engine", "host_engine.run", CALL, None),
]

#: Span name and layer of the root the benchmark opens around each operation.
ROOT = "op"
ROOT_LAYER = "client"

_MARK = "__e2e_probe_original__"


@dataclass
class Recorder:
    """In-memory span store: ``[name, layer, start, end, parent, op, count]``."""

    spans: list[list] = field(default_factory=list)
    unresolved: list[str] = field(default_factory=list)
    resolved_names: set[str] = field(default_factory=set)
    op: int = -1
    _stack: list[int] = field(default_factory=list)

    def enter(self, name: str, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, 0.0, 0.0, parent, self.op, 0])
        self._stack.append(index)
        self.spans[index][2] = perf_counter()
        return index

    def exit(self, index: int, count: int = 0) -> None:
        span = self.spans[index]
        span[3] = perf_counter()
        span[6] = count
        top = self._stack.pop()
        if top != index:
            raise RuntimeError(f"probe spans closed out of order ({top} != {index})")

    @contextmanager
    def root(self, op: int):
        """The span of one benchmark operation; every probe nests under it."""
        self.op = op
        index = self.enter(ROOT, ROOT_LAYER)
        try:
            yield
        finally:
            self.exit(index)
            self.op = -1

    def write_jsonl(self, path) -> None:
        keys = ("name", "layer", "start", "end", "parent", "op", "count")
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def _iterate(recorder: Recorder, iterator, name: str, layer: str):
    iterator = iter(iterator)
    while True:
        index = recorder.enter(name, layer)
        try:
            item = next(iterator)
        except StopIteration:
            return
        finally:
            recorder.exit(index)
        yield item


def _wrap(recorder: Recorder, original, name: str, layer: str, kind: str, count):
    def probe(*args, **kwargs):
        index = recorder.enter(name, layer)
        amount = 0
        try:
            result = original(*args, **kwargs)
            if count is not None:
                amount = count(args, result)
        finally:
            recorder.exit(index, amount)
        if kind == ITER:
            return _iterate(recorder, result, name, layer)
        if kind == PAIR_ITER:
            return result[0], _iterate(recorder, result[1], name, layer)
        return result

    setattr(probe, _MARK, original)
    probe.__name__ = getattr(original, "__name__", name)
    return probe


def _resolve(target: str, attribute: str):
    """The object holding *attribute* and its current plain-function value."""
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    value = vars(owner)[attribute]
    if not inspect.isfunction(value):
        raise TypeError(f"{target}.{attribute} is not a plain function")
    return owner, value


def any_installed() -> list[str]:
    """Patch points currently wrapped (the untraced run asserts there are none)."""
    live = []
    for target, attribute, *_ in PATCH_POINTS:
        try:
            _, value = _resolve(target, attribute)
        except (ImportError, AttributeError, KeyError, TypeError):
            continue
        if hasattr(value, _MARK):
            live.append(f"{target}.{attribute}")
    return live


@contextmanager
def installed(recorder: Recorder, points=None):
    """Wrap every resolvable patch point; restore the originals on exit."""
    undo: list[tuple] = []
    try:
        for target, attribute, layer, name, kind, count in points or PATCH_POINTS:
            try:
                owner, original = _resolve(target, attribute)
            except (ImportError, AttributeError, KeyError, TypeError):
                recorder.unresolved.append(f"{target}.{attribute}")
                continue
            if hasattr(original, _MARK):
                raise RuntimeError(f"{target}.{attribute} is already probed")
            setattr(owner, attribute, _wrap(recorder, original, name, layer, kind, count))
            undo.append((owner, attribute, original))
            recorder.resolved_names.add(name)
        yield recorder
    finally:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)


@dataclass
class SpanTotals:
    """Per span name, summed over the spans of the selected operations."""

    self_s: dict[str, float] = field(default_factory=dict)
    inclusive_s: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    count: dict[str, int] = field(default_factory=dict)
    layer_self_s: dict[str, float] = field(default_factory=dict)
    root_s: float = 0.0


def totals(recorder: Recorder, *, ops_only: bool = False) -> SpanTotals:
    """Aggregate spans; *ops_only* leaves out those recorded outside any root
    (the traced set-up)."""
    spans = recorder.spans
    child_s = [0.0] * len(spans)
    for name, layer, start, end, parent, op, count in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out = SpanTotals()
    for index, (name, layer, start, end, parent, op, count) in enumerate(spans):
        if ops_only and op < 0:
            continue
        duration = end - start
        own = duration - child_s[index]
        out.self_s[name] = out.self_s.get(name, 0.0) + own
        out.inclusive_s[name] = out.inclusive_s.get(name, 0.0) + duration
        out.calls[name] = out.calls.get(name, 0) + 1
        out.count[name] = out.count.get(name, 0) + count
        out.layer_self_s[layer] = out.layer_self_s.get(layer, 0.0) + own
        if name == ROOT:
            out.root_s += duration
    return out
