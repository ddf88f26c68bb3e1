"""Oblivious execution tiers: padding, shuffle kernels, trace identity.

Four contracts under test.  The ``off`` tier is byte-identical to the
seed behaviour in every deployment configuration (rows, meters, simulated
time, observable trace).  The ``padded``/``full`` tiers never change
query results, only trace shapes — and the ``full`` tier's shapes are
identical across arbitrary predicate constants (a seeded property test).
Dummy page reads ride the real read→MAC→Merkle→decrypt pipeline, so
tampering with a page the query didn't even need still raises and leaves
exactly one flight-recorder incident.  And the kernels themselves
(bitonic sort/join/group, frame padding, fixed schedules) match their
non-oblivious twins row for row while charging data-independent work.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Deployment, RunConfig
from repro.errors import IntegrityError, IronSafeError, StreamError
from repro.oblivious import (
    FRAME_HEADER_BYTES,
    PAD_QUANTUM,
    TIERS,
    batch_schedule,
    bitonic_ops,
    dummy_frame,
    fixed_ship_schedule,
    oblivious_group_runs,
    oblivious_join,
    oblivious_operators,
    oblivious_sort,
    pad_frame,
    pads_channel,
    pads_pages,
    quantize,
    record_schedule,
    unpad_frame,
    validate_tier,
)
from repro.sim import Meter
from repro.stream import BatchAssembler
from repro.tpch import Cardinalities

ALL_CONFIGS = ("hons", "hos", "vcs", "scs", "sos")

SCALE = 0.001
SEED = 29

#: Channel ciphertext overhead on top of the padded frame (seq + MAC).
CHANNEL_OVERHEAD = 8 + 32


def _window_query(lo: int, hi: int) -> str:
    return (
        "SELECT count(*), sum(l_extendedprice) FROM lineitem "
        f"WHERE l_orderkey >= {lo} AND l_orderkey <= {hi}"
    )


def _groupby_query(lo: int, hi: int) -> str:
    return (
        "SELECT l_suppkey, count(*), sum(l_extendedprice) FROM lineitem "
        f"WHERE l_orderkey >= {lo} AND l_orderkey <= {hi} "
        "GROUP BY l_suppkey"
    )


@pytest.fixture(scope="module")
def observed():
    deployment = Deployment(scale_factor=SCALE, seed=SEED)
    deployment.attest_all()
    recorder = deployment.enable_observability()
    return deployment, recorder


# ---------------------------------------------------------------------------
# Tier knob
# ---------------------------------------------------------------------------


class TestTierKnob:
    def test_ladder_predicates(self):
        assert TIERS == ("off", "padded", "full")
        assert not pads_pages("off") and not pads_channel("off")
        assert pads_pages("padded") and pads_channel("padded")
        assert pads_pages("full") and pads_channel("full")
        assert not fixed_ship_schedule("padded") and fixed_ship_schedule("full")
        assert not oblivious_operators("padded") and oblivious_operators("full")

    def test_unknown_tier_rejected(self):
        with pytest.raises(IronSafeError):
            validate_tier("extra-oblivious")
        with pytest.raises(IronSafeError):
            RunConfig(oblivious="extra-oblivious")

    def test_run_config_defaults_off(self):
        assert RunConfig().oblivious == "off"


# ---------------------------------------------------------------------------
# Frame padding
# ---------------------------------------------------------------------------


class TestFramePadding:
    def test_quantized_roundtrip(self):
        for size in (0, 1, PAD_QUANTUM - FRAME_HEADER_BYTES, PAD_QUANTUM, 10_000):
            inner = bytes(range(256)) * (size // 256) + bytes(size % 256)
            frame = pad_frame(inner)
            assert len(frame) % PAD_QUANTUM == 0
            assert unpad_frame(frame) == inner

    def test_fixed_target_roundtrip_and_fail_closed(self):
        inner = b"x" * 100
        frame = pad_frame(inner, target=512)
        assert len(frame) == 512
        assert unpad_frame(frame) == inner
        with pytest.raises(IronSafeError):
            pad_frame(b"y" * 512, target=512)  # header no longer fits

    def test_dummy_frame_is_droppable(self):
        frame = dummy_frame(256)
        assert len(frame) == 256
        assert unpad_frame(frame) is None
        with pytest.raises(IronSafeError):
            dummy_frame(FRAME_HEADER_BYTES - 1)

    def test_malformed_frames_rejected(self):
        with pytest.raises(IronSafeError):
            unpad_frame(b"\x0b\x00")  # truncated header
        with pytest.raises(IronSafeError):
            unpad_frame(b"\xee" + (0).to_bytes(4, "big"))  # unknown marker
        lying = bytes([0x0B]) + (99).to_bytes(4, "big") + b"short"
        with pytest.raises(IronSafeError):
            unpad_frame(lying)  # declares more bytes than it holds

    def test_schedules_are_predicate_independent(self):
        # Same catalog stats -> same schedule, whatever the query did.
        a = batch_schedule(10_000, 400_000, 64 * 1024)
        b = batch_schedule(10_000, 400_000, 64 * 1024)
        assert a == b
        assert a.units >= 1 and a.frame_bytes % PAD_QUANTUM == 0
        assert a.units * a.rows_per_unit >= 10_000
        r = record_schedule(10_000, 400_000, 256)
        assert r.rows_per_unit == 256
        assert r.units == -(-10_000 // 256)
        with pytest.raises(IronSafeError):
            batch_schedule(10, 100, 0)
        with pytest.raises(IronSafeError):
            record_schedule(10, 100, 0)

    def test_empty_table_still_ships_one_unit(self):
        schedule = batch_schedule(0, 0, 64 * 1024)
        assert schedule.units == 1


# ---------------------------------------------------------------------------
# Bitonic kernels
# ---------------------------------------------------------------------------


class TestBitonicKernels:
    def test_sort_matches_sorted_and_charges_fixed_ops(self):
        rows = [(5,), (1,), (None,), (3,), (1,), (9,), (None,), (2,)]
        meter = Meter()
        out = oblivious_sort(rows, lambda r: tuple(r), meter=None)
        # None sorts last; ties keep all duplicates.
        assert [r[0] for r in out] == [1, 1, 2, 3, 5, 9, None, None]
        before = meter.sort_ops
        oblivious_sort(rows, lambda r: tuple(r), meter)
        assert meter.sort_ops - before == bitonic_ops(len(rows))

    def test_ops_depend_on_size_only(self):
        a = [(i,) for i in range(13)]
        b = [(13 - i,) for i in range(13)]
        ma, mb = Meter(), Meter()
        oblivious_sort(a, lambda r: tuple(r), ma)
        oblivious_sort(b, lambda r: tuple(r), mb)
        assert ma.sort_ops == mb.sort_ops == bitonic_ops(13)
        assert bitonic_ops(0) == bitonic_ops(1) == 0

    def test_join_matches_nested_loop_semantics(self):
        left = [(1, "a"), (2, "b"), (None, "n"), (2, "c"), (4, "d")]
        right = [(2, 20.0), (2, 21.0), (1, 10.0), (None, 0.0), (5, 50.0)]

        def reference(kind):
            out = []
            for lrow in sorted(left, key=lambda r: (r[0] is None, r[0] or 0)):
                matched = False
                for rrow in right:
                    if lrow[0] is not None and lrow[0] == rrow[0]:
                        matched = True
                        out.append(lrow + rrow)
                if not matched and kind == "left":
                    out.append(lrow + (None, None))
            return out

        for kind in ("inner", "left"):
            got = list(
                oblivious_join(
                    left, right,
                    lambda r: (r[0],), lambda r: (r[0],),
                    kind=kind, pad_width=2,
                )
            )
            assert sorted(got, key=repr) == sorted(reference(kind), key=repr)

    def test_join_residual_filters_combined_rows(self):
        left = [(1, 5), (1, 50)]
        right = [(1, 10)]
        got = list(
            oblivious_join(
                left, right,
                lambda r: (r[0],), lambda r: (r[0],),
                accept=lambda combined: combined[1] > combined[3],
            )
        )
        assert got == [(1, 50, 1, 10)]

    def test_group_runs_cover_every_row_once(self):
        rows = [(2, 1), (1, 2), (2, 3), (None, 4), (1, 5)]
        runs = list(oblivious_group_runs(rows, lambda r: (r[0],)))
        assert [key for key, _ in runs] == [(1,), (2,), (None,)]
        assert sorted(v for _, run in runs for _, v in run) == [1, 2, 3, 4, 5]


# ---------------------------------------------------------------------------
# Fixed-rows batch assembly
# ---------------------------------------------------------------------------


class TestFixedRowsAssembler:
    def test_fixed_rows_pins_batch_boundaries(self):
        assembler = BatchAssembler(target_bytes=64, fixed_rows=3)
        rows = [(i, "x" * (i % 7)) for i in range(10)]
        sizes = [b.row_count for b in assembler.batches(iter(rows))]
        assert sizes == [3, 3, 3, 1]
        assert assembler.row_target == 3  # never retargets

    def test_fixed_rows_validated(self):
        with pytest.raises(StreamError):
            BatchAssembler(fixed_rows=0)
        with pytest.raises(StreamError):
            BatchAssembler(fixed_rows=1_000_000)


class TestVectorizedComposition:
    """ISSUE 9: the morsel executor must compose with the oblivious
    tiers without widening the observable channel.  Vectorized scans
    consume the very pages the row scan reads (``scan_morsels`` wraps
    ``scan``), and the full tier's fixed ship schedule is sized by the
    table, not the executor — so the adversary's view cannot move."""

    def test_full_tier_trace_unchanged_by_vectorization(self, observed):
        deployment, recorder = observed
        sql = _groupby_query(1, 60)
        for config in ("sos", "scs"):
            row = deployment.run_query(
                sql, config,
                run_config=RunConfig(zone_maps=True, oblivious="full"),
            )
            row_fingerprint = recorder.last_trace().fingerprint()
            vec = deployment.run_query(
                sql, config,
                run_config=RunConfig(
                    zone_maps=True, oblivious="full", vectorized=True
                ),
            )
            assert recorder.last_trace().fingerprint() == row_fingerprint, config
            assert sorted(vec.rows) == sorted(row.rows), config

    def test_full_tier_vectorized_trace_constant_independent(self, observed):
        deployment, recorder = observed
        fingerprints = set()
        for lo in (1, 40, 111):
            deployment.run_query(
                _groupby_query(lo, lo + 50), "sos",
                run_config=RunConfig(
                    zone_maps=True, oblivious="full", vectorized=True
                ),
            )
            fingerprints.add(recorder.last_trace().fingerprint())
        assert len(fingerprints) == 1, "vectorized full-tier trace leaks the constant"


# ---------------------------------------------------------------------------
# Trace identity across predicate constants (property test)
# ---------------------------------------------------------------------------

#: Reference fingerprints per (config, tier), filled by the first example.
_REFERENCE: dict = {}


class TestTraceIdentity:
    @settings(max_examples=8, deadline=None)
    @given(lo=st.integers(min_value=1, max_value=200), seed=st.randoms())
    def test_padded_and_full_traces_constant_independent(self, observed, lo, seed):
        """Whatever the predicate constant, the padded/full sos traces
        (and the full scs trace, channel included) are byte-identical."""
        deployment, recorder = observed
        orders = Cardinalities.for_scale(SCALE).orders
        width = 1 + int(seed.random() * 0.2 * orders)
        sql = _groupby_query(lo, lo + width)
        for config, tier in (("sos", "padded"), ("sos", "full"), ("scs", "full")):
            deployment.run_query(
                sql, config,
                run_config=RunConfig(zone_maps=True, oblivious=tier),
            )
            fingerprint = recorder.last_trace().fingerprint()
            reference = _REFERENCE.setdefault((config, tier), fingerprint)
            assert fingerprint == reference, (
                f"{config}/{tier}: trace depends on the predicate constant"
            )

    def test_padded_channel_sizes_are_quantized(self, observed):
        """scs padded tier: every channel ciphertext is a pad quantum
        multiple plus the fixed seq+MAC overhead — sizes leak at quantum
        granularity only."""
        deployment, recorder = observed
        deployment.run_query(
            _window_query(1, 40), "scs",
            run_config=RunConfig(zone_maps=True, oblivious="padded"),
        )
        sends = [
            e for e in recorder.last_trace().events
            if e.channel == "channel" and e.op == "send"
        ]
        assert sends
        for event in sends:
            assert (event.nbytes - CHANNEL_OVERHEAD) % PAD_QUANTUM == 0

    def test_dummy_work_is_metered(self, observed):
        deployment, _ = observed
        padded = deployment.run_query(
            _window_query(1, 40), "sos",
            run_config=RunConfig(zone_maps=True, oblivious="padded"),
        )
        assert padded.storage_meter.get("oblivious_dummy_reads") > 0
        full_scs = deployment.run_query(
            _window_query(1, 40), "scs",
            run_config=RunConfig(zone_maps=True, oblivious="full"),
        )
        assert full_scs.storage_meter.get("oblivious_pad_bytes") > 0
        assert full_scs.storage_meter.get("oblivious_dummy_batches") > 0

    def test_tiers_never_change_results(self, observed):
        deployment, _ = observed
        sql = _groupby_query(1, 80)
        for config in ALL_CONFIGS:
            base = deployment.run_query(
                sql, config, run_config=RunConfig(zone_maps=True)
            )
            for tier in ("padded", "full"):
                run = deployment.run_query(
                    sql, config,
                    run_config=RunConfig(zone_maps=True, oblivious=tier),
                )
                assert sorted(run.rows) == sorted(base.rows), (config, tier)


# ---------------------------------------------------------------------------
# Tamper under padding
# ---------------------------------------------------------------------------


class TestTamperUnderPadding:
    def test_tampered_dummy_page_still_raises_one_incident(self, tmp_path):
        """Dummy reads are real reads: corrupt a page the query's pruned
        scan would never touch, and the padded tier — which reads it only
        to hide the skip — still detects the tamper and dumps exactly one
        flight-recorder incident."""
        deployment = Deployment(scale_factor=SCALE, seed=11)
        deployment.attest_all()
        recorder = deployment.enable_observability(flight_dir=str(tmp_path))
        victim = deployment.storage_engine.db.store.pages_of("lineitem")[-1]
        deployment.secure_device.corrupt(victim, offset=100)

        # The off tier's pruned scan skips the victim page: the corrupted
        # page is invisible, the query succeeds.
        sql = _window_query(1, 10)
        result = deployment.run_query(
            sql, "sos", run_config=RunConfig(zone_maps=True, oblivious="off")
        )
        assert result.rows
        assert not recorder.flight.incidents

        # The padded tier reads it as a dummy — through the same
        # MAC+Merkle verification — so the tamper surfaces.
        with pytest.raises(IntegrityError):
            deployment.run_query(
                sql, "sos",
                run_config=RunConfig(zone_maps=True, oblivious="padded"),
            )
        assert len(recorder.flight.incidents) == 1
        assert recorder.flight.incidents[0]["page"] == victim
        assert recorder.meter_snapshot()["flight_dump_count"] == 1
        assert recorder.last_trace().status == "error"
