"""The four workloads: what is built, which operations run, how each is checked.

A workload is a closed loop of one client: the next operation is issued when
the previous one has returned and been checked.  Operation counts are fixed by
the sizes, never by a deadline, so counts and simulated time repeat exactly
for a seed.  ``--seed`` drives dbgen, the constants of the two non-TPC-H
templates and the ``gdpr_mixed`` operation sequence; the program under test
only ever sees generated SQL.

Every operation yields an :class:`Outcome`: its wall time (the call into the
system only, the check excluded), its simulated time, whether the result was
right, and the layer counts read from the meters the call returned.
"""

from __future__ import annotations

import datetime
import hashlib
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from time import perf_counter

from repro.core import MANUAL_PARTITIONS, Deployment, RunConfig
from repro.errors import IronSafeError
from repro.gdpr import GDPRWorkbench
from repro.sim import Meter, TimeBreakdown
from repro.sql.records import encode_row
from repro.tpch import ALL_QUERIES


@dataclass(frozen=True)
class Sizes:
    """How much one run does.  Chosen by :func:`sizes_for`."""

    scale: float  # TPC-H scale factor, or persons rows for gdpr_mixed
    warmup_passes: int
    timed_passes: int
    setup_repeats: int = 3


@dataclass
class Outcome:
    template: str
    wall_s: float
    sim_ms: float
    ok: bool
    #: False for must-deny operations: they count towards failed/attempted
    #: but not towards latency or throughput.
    timed: bool = True
    #: gdpr_mixed only: read / insert / rewrite / deny.
    kind: str = ""
    #: Class name of the exception the call raised, if any.
    error: str = ""
    counts: dict[str, float] = field(default_factory=dict)


def digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _sorted(rows) -> list:
    try:
        return sorted(rows)
    except TypeError:  # NULLs do not order against values
        return sorted(rows, key=repr)


def layer_counts(
    storage: Meter,
    host: Meter,
    total: TimeBreakdown,
    host_time: TimeBreakdown,
    *,
    bytes_shipped: int = 0,
    portions: int = 0,
) -> dict[str, float]:
    """One operation's per-layer counts and simulated milliseconds."""

    def both(name: str) -> int:
        return storage.get(name) + host.get(name)

    return {
        "monitor.sim_ms": total.ms("policy") + total.ms("attestation"),
        "partitioner.portions": portions,
        "storage_engine.rows_scanned": storage.rows_scanned,
        "storage_engine.rows_output": storage.rows_output,
        "storage.pages_read": storage.pages_read,
        "storage.pages_written": storage.pages_written,
        "storage.pages_decrypted": storage.pages_decrypted,
        "storage.pages_encrypted": storage.pages_encrypted,
        "storage.page_macs_verified": storage.page_macs_verified,
        "storage.merkle_nodes_hashed": storage.merkle_nodes_hashed,
        "storage.merkle_batch_pages": storage.get("merkle_batch_pages"),
        "storage.rpmb_reads": storage.rpmb_reads,
        "storage.rpmb_writes": storage.rpmb_writes,
        "storage.decryption_sim_ms": total.ms("decryption"),
        "storage.freshness_sim_ms": total.ms("freshness"),
        "storage.io_sim_ms": total.ms("io"),
        "perf.cache_hits": storage.get("page_cache_hits"),
        "perf.cache_misses": storage.get("page_cache_misses"),
        "perf.cache_evictions": storage.get("page_cache_evictions"),
        "perf.cache_flushes": storage.get("page_cache_flushes"),
        "sql.predicate_evals": both("predicate_evals"),
        "sql.join_probes": both("join_probes"),
        "sql.hash_inserts": both("hash_inserts"),
        "sql.agg_updates": both("agg_updates"),
        "sql.sort_ops": both("sort_ops"),
        "sql.expr_ops": both("expr_ops"),
        "sql.vector_batches": both("vector_batches"),
        "sql.vector_values": both("vector_values"),
        "sql.cpu_sim_ms": total.ms("cpu"),
        "stream.batches_shipped": storage.get("batches_shipped"),
        "stream.channel_bytes_saved": storage.get("channel_bytes_saved"),
        "channel.bytes_shipped": bytes_shipped,
        "channel.bytes_encrypted": both("channel_bytes_encrypted"),
        "channel.messages": both("messages_sent"),
        "channel.crypto_sim_ms": total.ms("channel_crypto"),
        "host_engine.enclave_transitions": host.enclave_transitions,
        "host_engine.epc_page_faults": host.epc_page_faults,
        "host_engine.cpu_sim_ms": host_time.ms("cpu"),
        "host_engine.epc_paging_sim_ms": host_time.ms("epc_paging"),
    }


def timed_call(call, root, op: int):
    """Run *call*; return (wall seconds, its result or None, the exception or None).

    *root*, when given, opens the traced root span of operation *op* around
    the call.  A failing operation is counted by the caller, never raised.
    """
    result = error = None
    start = perf_counter()
    try:
        if root is None:
            result = call()
        else:
            with root(op):
                result = call()
    except Exception as exc:  # noqa: BLE001 - classified by the caller
        error = exc
    return perf_counter() - start, result, error


def stored_bytes(device) -> int:
    """Everything the untrusted device holds: pages plus the metadata region."""
    snapshot = device.snapshot()
    return sum(map(len, snapshot["pages"].values())) + sum(
        map(len, snapshot["meta"].values())
    )


# ---------------------------------------------------------------------------
# TPC-H-shaped workloads (scan_paper, join_cached, ship_stream)
# ---------------------------------------------------------------------------


def _tpch(number: int):
    return (f"q{number}", ALL_QUERIES[number].sql, MANUAL_PARTITIONS.get(number))


def _ship_templates(seed: int):
    rng = random.Random(f"e2e-ship:{seed}")
    quantity = rng.randint(1, 3)  # l_quantity is uniform on 1..50: >= 96 % pass
    since = datetime.date(1992, 1, 1) + datetime.timedelta(days=rng.randint(0, 90))
    wide = (
        "SELECT l_orderkey, l_partkey, l_suppkey, l_quantity, l_extendedprice, "
        "l_shipdate, l_shipmode, l_comment FROM lineitem "
        f"WHERE l_quantity >= {quantity}"
    )
    agg = (
        "SELECT o_orderpriority, count(*) AS n, sum(o_totalprice) AS total "
        f"FROM orders WHERE o_orderdate >= DATE '{since.isoformat()}' "
        "GROUP BY o_orderpriority ORDER BY o_orderpriority"
    )
    return [_tpch(1), _tpch(13), ("ship_lineitem_wide", wide, None),
            ("ship_orders_agg", agg, None)]


@dataclass(frozen=True)
class Spec:
    name: str
    default_scale: float  # TPC-H scale factor, or persons rows
    nominal_pass_s: float  # one pass on the reference box at default_scale
    warmup_passes: int
    # TPC-H-shaped workloads only:
    templates: Callable[[int], list] | None = None  # seed -> [(name, sql, manual partition)]
    run_config: RunConfig | None = None  # None = the deployment's paper default
    cache_pages: Callable[[int], int] | None = None  # page count -> capacity (0 = no cache)


class TpchWorkload:
    """Four query templates per pass against one attested deployment."""

    def __init__(self, spec: Spec, seed: int, sizes: Sizes, golden: dict):
        self.spec = spec
        self.seed = seed
        self.sizes = sizes
        self.golden = golden
        self.templates = spec.templates(seed)
        self.ops_per_pass = len(self.templates)
        self.deployment: Deployment | None = None
        self.reference: dict[str, list] = {}
        self.reference_ok: dict[str, bool] = {}
        self.golden_key = f"seed={seed}/sf={sizes.scale}"

    def setup(self) -> None:
        """The timed set-up: dbgen, load (encrypt, MAC, Merkle, zone maps), attest."""
        self.deployment = None
        deployment = Deployment(scale_factor=self.sizes.scale, seed=self.seed)
        deployment.attest_all()
        self.deployment = deployment

    def prepare(self) -> None:
        """Untimed: size the cache, compute the hons references."""
        deployment = self.deployment
        capacity = self.spec.cache_pages(deployment.storage_engine.pager.page_count)
        if capacity:
            deployment.enable_page_cache(capacity)
        expected = self.golden.get(self.golden_key, {})
        for name, sql, _manual in self.templates:
            rows = _sorted(deployment.run_query(sql, "hons").rows)
            self.reference[name] = rows
            found = digest(rows)
            self.reference_ok[name] = expected.get(name, found) == found

    def reference_digests(self) -> dict[str, str]:
        return {name: digest(rows) for name, rows in self.reference.items()}

    def run_pass(self, index: int, root=None):
        """Yield one :class:`Outcome` per template.  *root*, when given, opens
        the traced root span around the call into the system."""
        deployment = self.deployment
        for slot, (name, sql, manual) in enumerate(self.templates):
            op = index * self.ops_per_pass + slot
            kwargs = {"manual_partition": manual}
            if self.spec.run_config is not None:
                kwargs["run_config"] = self.spec.run_config
            wall, result, error = timed_call(
                lambda: deployment.run_query(sql, "scs", **kwargs), root, op
            )
            if result is None:
                yield Outcome(name, wall, 0.0, ok=False, error=type(error).__name__)
                continue
            ok = self.reference_ok[name] and _sorted(result.rows) == self.reference[name]
            counts = layer_counts(
                result.storage_meter, result.host_meter, result.breakdown,
                result.host_breakdown, bytes_shipped=result.bytes_shipped,
                portions=len(result.portion_meters),
            )
            yield Outcome(name, wall, result.total_ms, ok, counts=counts)

    def finish(self) -> list[Outcome]:
        return []

    def stored_bytes_per_user_byte(self) -> float:
        """Device bytes over encoded row bytes (read off the unprotected twin)."""
        deployment = self.deployment
        plain = deployment.storage_engine_plain.db.store
        user = sum(
            len(encode_row(row))
            for table in plain.catalog.table_names()
            for row in plain.scan(table)
        )
        return stored_bytes(deployment.secure_device) / user


# ---------------------------------------------------------------------------
# gdpr_mixed
# ---------------------------------------------------------------------------

NOW = 5000  # run_ironsafe's default clock; 10 % of the seeded rows expired before it
_COUNTRIES = ["DE", "FR", "PT", "UK", "US"]

READ, INSERT, REWRITE, DENY = "read", "insert", "rewrite", "deny"
#: One pass: 60 % consumer reads, 15 % owner reads, 8 % INSERT, 8 % UPDATE,
#: 6 % DELETE, 3 % writes by the consumer that the monitor must deny.  The
#: seed shuffles the order and picks the keys; the mix itself is fixed, so
#: seeds do not differ in how much work a pass is.
GDPR_PASS = (
    ["bob"] * 60 + ["alice"] * 15 + ["insert"] * 8 + ["update"] * 8
    + ["delete"] * 6 + [DENY] * 3
)


class GdprWorkload:
    """Short policy-checked reads and writes against ``persons-db``.

    A plain-Python model of ``persons`` (a dict keyed by ``person_id``) is kept
    beside the system: every read is compared with what the model says the
    caller may see, and the final ``SELECT *`` with the whole model.
    """

    ops_per_pass = len(GDPR_PASS)

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        self.bench: GDPRWorkbench | None = None
        self.rng = random.Random(f"e2e-gdpr:{seed}")
        self.model: dict[int, tuple] = {}
        self.ids: list[int] = []
        self.next_id = 0

    def setup(self) -> None:
        self.bench = None
        self.bench = GDPRWorkbench(seed=self.seed, rows=int(self.sizes.scale))

    def prepare(self) -> None:
        store = self.bench.baseline_db.store  # the unprotected twin: same seeded rows
        self.model = {row[0]: row for row in store.scan("persons")}
        self.ids = sorted(self.model)
        self.next_id = max(self.ids) + 1

    # -- what each caller may see ----------------------------------------

    def _visible_to_bob(self, row: tuple) -> bool:
        return row[5] >= NOW and bool(row[6] >> 3 & 1)

    def _rows(self, who: str):
        rows = self.model.values()
        if who == "bob":
            return [row for row in rows if self._visible_to_bob(row)]
        return list(rows)

    # -- the operation mix --------------------------------------------------

    def _next_op(self, slot: str):
        """(kind, template, who, sql, expected rows or None, model update or None)."""
        rng = self.rng
        key = self.ids[rng.randrange(len(self.ids))]
        if slot in ("bob", "alice"):
            return (READ, *self._read(slot, key, rng.randrange(3)), None)
        # A must-deny operation is one of the three writes, sent by bob.
        denied = slot == DENY
        if denied:
            slot = ("insert", "update", "delete")[rng.randrange(3)]
        salary = rng.randrange(20_000, 90_000) + 0.5
        if slot == "insert":
            new = self.next_id
            country = _COUNTRIES[new % len(_COUNTRIES)]
            kind = INSERT
            sql = (
                "INSERT INTO persons (person_id, name, email, country, salary) "
                f"VALUES ({new}, 'person-{new}', 'p{new}@example.com', "
                f"'{country}', {salary})"
            )
            # The monitor adds the protected columns: expiry from the
            # database's default TTL, every reuse bit set.
            update = ("put", (new, f"person-{new}", f"p{new}@example.com", country,
                              salary, NOW + 3600, (1 << 16) - 1))
        elif slot == "update":
            kind = REWRITE
            sql = f"UPDATE persons SET salary = {salary} WHERE person_id = {key}"
            old = self.model[key]
            update = ("put", old[:4] + (salary,) + old[5:])
        else:
            kind = REWRITE
            sql = f"DELETE FROM persons WHERE person_id = {key}"
            update = ("drop", key)
        if denied:
            return DENY, f"bob_{slot}", "bob", sql, None, None
        return kind, slot, "alice", sql, None, update

    def _read(self, who: str, key: int, shape: int):
        """(template, who, sql, expected rows) of one read."""
        visible = self._rows(who)
        if shape == 0:
            sql = f"SELECT name, email FROM persons WHERE person_id = {key}"
            return f"{who}_point", who, sql, [(r[1], r[2]) for r in visible if r[0] == key]
        if shape == 1:
            sql = (
                "SELECT person_id, salary FROM persons "
                f"WHERE person_id >= {key} AND person_id < {key + 40}"
            )
            expected = [(r[0], r[4]) for r in visible if key <= r[0] < key + 40]
            return f"{who}_range", who, sql, expected
        country = _COUNTRIES[key % len(_COUNTRIES)]
        sql = f"SELECT count(*) FROM persons WHERE country = '{country}'"
        return f"{who}_count", who, sql, [(sum(1 for r in visible if r[3] == country),)]

    def _apply(self, update) -> None:
        action, value = update
        if action == "put":
            if value[0] not in self.model:
                self.ids.append(value[0])
                self.next_id = value[0] + 1
            self.model[value[0]] = value
        else:
            del self.model[value]
            self.ids.remove(value)

    def run_pass(self, index: int, root=None):
        bench = self.bench
        keys = {"alice": bench.alice, "bob": bench.bob}
        engine = bench.deployment.storage_engine
        nothing = Meter()
        slots = list(GDPR_PASS)
        self.rng.shuffle(slots)
        for position, slot in enumerate(slots):
            op = index * self.ops_per_pass + position
            kind, template, who, sql, expected, update = self._next_op(slot)
            wall, answer, error = timed_call(
                lambda: bench.run_ironsafe(sql, keys[who]), root, op
            )
            if kind == DENY:
                # Right only if the monitor refused with a typed error.
                yield Outcome(template, wall, 0.0, isinstance(error, IronSafeError),
                              timed=False, kind=kind)
                continue
            if answer is None:
                yield Outcome(template, wall, 0.0, ok=False, kind=kind,
                              error=type(error).__name__)
                continue
            result, total, _auth = answer  # run_ironsafe verified the proof
            if update is not None:
                self._apply(update)
            ok = expected is None or _sorted(result.rows) == _sorted(expected)
            counts = layer_counts(engine.meter, nothing, total, TimeBreakdown())
            yield Outcome(template, wall, total.total_ms, ok, kind=kind, counts=counts)

    def finish(self) -> list[Outcome]:
        """The whole table must equal the model once the run is over."""
        bench = self.bench
        result, _total, _auth = bench.run_ironsafe("SELECT * FROM persons", bench.alice)
        ok = _sorted(result.rows) == _sorted(self.model.values())
        return [Outcome("final_select_all", 0.0, 0.0, ok, timed=False)]

    def stored_bytes_per_user_byte(self) -> float:
        user = sum(len(encode_row(row)) for row in self.model.values())
        return stored_bytes(self.bench.deployment.secure_device) / user


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

SPECS = [
    Spec(
        name="scan_paper",
        default_scale=0.002,
        nominal_pass_s=0.75,
        warmup_passes=1,
        templates=lambda seed: [_tpch(6), _tpch(12), _tpch(14), _tpch(19)],
        cache_pages=lambda pages: 0,
    ),
    Spec(
        name="join_cached",
        default_scale=0.002,
        nominal_pass_s=1.2,
        # One pass fills the cache, the next settles the LRU order; from
        # then on passes repeat exactly.
        warmup_passes=2,
        templates=lambda seed: [_tpch(5), _tpch(9), _tpch(18), _tpch(21)],
        run_config=RunConfig(vectorized=True),
        cache_pages=lambda pages: pages + 64,
    ),
    Spec(
        name="ship_stream",
        default_scale=0.002,
        nominal_pass_s=0.85,
        warmup_passes=1,
        templates=_ship_templates,
        run_config=RunConfig(vectorized=True),
        cache_pages=lambda pages: pages // 4,
    ),
    Spec(
        name="gdpr_mixed",
        default_scale=4000,
        nominal_pass_s=3.2,
        warmup_passes=1,
    ),
]
BY_NAME = {spec.name: spec for spec in SPECS}
NAMES = list(BY_NAME)


def sizes_for(name: str, seconds: float) -> Sizes:
    """Fixed pass counts that take about *seconds* on the reference box."""
    spec = BY_NAME[name]
    return Sizes(
        scale=spec.default_scale,
        warmup_passes=spec.warmup_passes,
        timed_passes=max(2, round(seconds / spec.nominal_pass_s)),
    )


def build(name: str, seed: int, sizes: Sizes, golden: dict):
    spec = BY_NAME[name]
    if spec.templates is None:
        return GdprWorkload(seed, sizes)
    return TpchWorkload(spec, seed, sizes, golden)
