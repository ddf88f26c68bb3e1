"""Streaming ship pipeline: RecordBatch format, batching, overlap model,
and the pipelined deployment path (vs. the byte-identical serial escape
hatch)."""

from __future__ import annotations

import datetime
import random

import pytest

from repro.core import RunConfig, SERIAL_RUN_CONFIG
from repro.sim.pricing import BatchTiming, apportion_ns, pipelined_ns
from repro.errors import IronSafeError, StorageError, StreamError
from repro.sql.records import (
    MAX_BATCH_ROWS,
    TAG_MIXED,
    decode_batch,
    encode_batch,
    encode_row,
)
from repro.stream import BatchAssembler, pack_frame, unpack_frame

SQL = (
    "SELECT l_orderkey, l_partkey, l_quantity, l_extendedprice, l_shipdate "
    "FROM lineitem WHERE l_quantity > 10"
)


# ---------------------------------------------------------------------------
# RecordBatch wire format
# ---------------------------------------------------------------------------


class TestRecordBatchFormat:
    def test_round_trip_every_tag(self):
        rows = [
            (None, 1, 1.5, "text", datetime.date(2022, 6, 13)),
            (None, -(2**62), -0.0, "", datetime.date(1, 1, 1)),
            (None, 0, float("inf"), "naïve — ünïcode", datetime.date(9999, 12, 31)),
        ]
        assert decode_batch(encode_batch(rows)) == rows

    def test_bool_round_trips_as_int_like_encode_row(self):
        # The per-row format stores bools as INT; the batch format must
        # agree so the two ship paths deliver identical tables.
        rows = [(True, False), (False, True)]
        assert decode_batch(encode_batch(rows)) == [(1, 0), (0, 1)]

    def test_empty_batch_and_single_row(self):
        assert decode_batch(encode_batch([])) == []
        assert decode_batch(encode_batch([(42,)])) == [(42,)]

    def test_all_null_column(self):
        rows = [(None, 1), (None, 2)]
        assert decode_batch(encode_batch(rows)) == rows

    def test_mixed_column_falls_back_to_inline_tags(self):
        rows = [(1, "a"), (2.5, "b"), (None, "c"), ("x", "d")]
        payload = encode_batch(rows)
        ncols = payload[2]
        tags = payload[3 : 3 + ncols]
        assert tags[0] == TAG_MIXED
        assert decode_batch(payload) == rows

    def test_text_64k_boundary(self):
        at_limit = "x" * 0xFFFF
        assert decode_batch(encode_batch([(at_limit,)])) == [(at_limit,)]
        with pytest.raises(StorageError):
            encode_batch([("x" * (0xFFFF + 1),)])

    def test_row_count_limit(self):
        with pytest.raises(StorageError):
            encode_batch([(1,)] * (MAX_BATCH_ROWS + 1))

    def test_ragged_rows_rejected(self):
        with pytest.raises(StorageError):
            encode_batch([(1, 2), (3,)])

    def test_property_style_random_rows(self):
        """Seeded random batches over all value kinds round-trip exactly."""
        rng = random.Random(20220613)

        def value(kind):
            return {
                "null": lambda: None,
                "int": lambda: rng.randint(-(2**60), 2**60),
                "real": lambda: rng.uniform(-1e12, 1e12),
                "text": lambda: "".join(
                    chr(rng.randint(32, 0x10FF)) for _ in range(rng.randint(0, 40))
                ),
                "date": lambda: datetime.date.fromordinal(rng.randint(1, 3_650_000)),
            }[kind]()

        kinds = ["null", "int", "real", "text", "date"]
        for case in range(36):
            ncols = rng.randint(1, 8)
            if case % 3 == 0:
                # NULL-free, one type per column: the compiled pack/unpack path.
                column_kinds = [[rng.choice(kinds[1:])] for _ in range(ncols)]
            else:
                # Uniform columns sometimes, mixed columns sometimes.
                column_kinds = [
                    kinds if rng.random() < 0.3 else [rng.choice(kinds[1:]), "null"]
                    for _ in range(ncols)
                ]
            rows = [
                tuple(value(rng.choice(column_kinds[c])) for c in range(ncols))
                for _ in range(rng.randint(0, 50))
            ]
            assert decode_batch(encode_batch(rows)) == rows

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: p[:-1],  # truncated value area
            lambda p: p + b"\x00",  # trailing bytes
            lambda p: p[:3] + bytes([250]) + p[4:],  # unknown column tag
            lambda p: p[:1],  # truncated header
        ],
    )
    def test_corruption_detected(self, mutate):
        for rows in (
            [(1, "abc", 2.0), (2, "defg", 3.0)],  # NULL-free uniform: compiled path
            [(1, None, 2.0), ("x", "defg", None)],  # NULLs and a MIXED column
        ):
            payload = encode_batch(rows)
            assert decode_batch(payload) == rows
            with pytest.raises(StorageError):
                decode_batch(mutate(payload))

    def test_encoded_bytes_are_pinned(self):
        """The wire bytes of a fixed batch, as the pre-plan encoder wrote them."""
        uniform = [
            (1, 2.5, "ab", datetime.date(1995, 6, 17), True),
            (-7, -0.0, "naïve", datetime.date(1, 1, 1), False),
            (2**40, 1e300, "", datetime.date(9999, 12, 31), 3),
        ]
        assert encode_batch(uniform).hex() == (
            "0003050102030401"
            "000000000000000001400400000000000000026162000b1d8d0000000000000001"
            "00fffffffffffffff9800000000000000000066e61c3af7665000000010000000000000000"
            "0000000100000000007e37e43c8800759c00000037b9db0000000000000003"
        )
        null_mixed = [(1, None, "x"), (2.5, None, "y")]
        assert encode_batch(null_mixed).hex() == (
            "0002030500030201000000000000000100017802024004000000000000000179"
        )

    def test_null_in_declared_column_via_bitmap_only(self):
        # A non-null cell in an all-NULL column cannot be expressed by a
        # well-formed encoder; flipping the bitmap bit must be caught.
        payload = bytearray(encode_batch([(None, 7)]))
        bitmap_offset = 2 + 1 + 2  # header + ncols tags
        payload[bitmap_offset] &= ~1  # claim column 0 is non-null
        with pytest.raises(StorageError):
            decode_batch(bytes(payload))


# ---------------------------------------------------------------------------
# Batch assembly
# ---------------------------------------------------------------------------


class TestBatchAssembler:
    def test_bounded_batches_and_adaptive_target(self):
        assembler = BatchAssembler(target_bytes=4096, initial_rows=8)
        rows = [(i, "v" * 40) for i in range(2000)]
        batches = list(assembler.batches(iter(rows)))
        assert [r for b in batches for r in b.rows] == rows
        # After feedback the target settles near target_bytes / row width.
        assert assembler.row_target > 8
        for batch in batches[1:-1]:
            assert batch.nbytes <= 4096 * 2
        assert all(b.payload == encode_batch(list(b.rows)) for b in batches)

    def test_empty_iterator_yields_nothing(self):
        assert list(BatchAssembler().batches(iter([]))) == []

    def test_invalid_target_rejected(self):
        with pytest.raises(StreamError):
            BatchAssembler(target_bytes=0)


# ---------------------------------------------------------------------------
# Batch framing (the class keeps the name it had when frames could be zlib)
# ---------------------------------------------------------------------------


class TestCompressFraming:
    def test_raw_round_trip(self):
        payload = random.Random(7).randbytes(256)
        frame = pack_frame(payload)
        # The wire format is pinned: one tag byte of value 0, then the payload.
        assert frame == b"\x00" + payload
        assert unpack_frame(frame) == payload

    def test_bad_frames_rejected(self):
        with pytest.raises(StreamError):
            unpack_frame(b"")
        with pytest.raises(StreamError):
            unpack_frame(bytes([99]) + b"x")
        # Tag 1 was zlib; it is an unknown tag like any other now.
        with pytest.raises(StreamError):
            unpack_frame(bytes([1]) + b"not-zlib")


# ---------------------------------------------------------------------------
# Pipeline time model
# ---------------------------------------------------------------------------


def _serial_ns(timings) -> float:
    return sum(t.serial_ns for t in timings)


class TestPipelineModel:
    def test_single_batch_is_serial(self):
        t = [BatchTiming(10.0, 5.0, 3.0)]
        assert pipelined_ns(t) == _serial_ns(t) == 18.0

    def test_bottleneck_stage_dominates(self):
        timings = [BatchTiming(10.0, 1.0, 2.0) for _ in range(100)]
        makespan = pipelined_ns(timings)
        assert makespan < _serial_ns(timings)
        # Steady state: scan is the bottleneck; tail adds one ship+ingest.
        assert makespan == pytest.approx(100 * 10.0 + 1.0 + 2.0)
        assert _serial_ns(timings) - makespan == pytest.approx(99 * 3.0)

    def test_never_faster_than_any_stage_sum(self):
        rng = random.Random(99)
        timings = [
            BatchTiming(rng.uniform(0, 9), rng.uniform(0, 9), rng.uniform(0, 9))
            for _ in range(50)
        ]
        makespan = pipelined_ns(timings)
        for stage in ("scan_ns", "ship_ns", "ingest_ns"):
            assert makespan >= sum(getattr(t, stage) for t in timings)
        assert makespan <= _serial_ns(timings)

    def test_apportion_conserves_total(self):
        shares = apportion_ns(100.0, [1, 2, 7])
        assert sum(shares) == pytest.approx(100.0)
        assert shares == [10.0, 20.0, 70.0]
        assert apportion_ns(90.0, [0, 0, 0]) == [30.0, 30.0, 30.0]
        assert apportion_ns(5.0, []) == []


# ---------------------------------------------------------------------------
# Streaming scans keep the storage working set bounded
# ---------------------------------------------------------------------------


class TestStreamScan:
    def test_stream_matches_materialized_and_bounds_memory(self, tiny_deployment):
        engine = tiny_deployment.storage_engine
        meter = engine.fresh_meter()
        columns, batches = engine.stream_sql(
            "SELECT l_orderkey, l_comment FROM lineitem", batch_bytes=2048
        )
        streamed = [row for batch in batches for row in batch.rows]
        streamed_peak = meter.peak_memory_bytes

        meter = engine.fresh_meter()
        result = engine.db.execute("SELECT l_orderkey, l_comment FROM lineitem")
        assert streamed == result.rows
        materialized_bytes = sum(len(encode_row(r)) for r in result.rows)
        assert 0 < streamed_peak < materialized_bytes


# ---------------------------------------------------------------------------
# The pipelined deployment path
# ---------------------------------------------------------------------------


class TestPipelinedDeployment:
    def test_run_config_validation(self):
        with pytest.raises(IronSafeError):
            RunConfig(oblivious="mostly")
        assert SERIAL_RUN_CONFIG.pipeline is False

    def test_removed_knobs_are_gone_not_ignored(self):
        for knob in ({"compress": True}, {"strategy": "auto"}, {"batch_bytes": 1}):
            with pytest.raises(TypeError):
                RunConfig(**knob)

    @pytest.mark.parametrize("config", ["scs", "vcs"])
    def test_pipeline_returns_same_rows(self, tiny_deployment, config):
        serial = tiny_deployment.run_query(SQL, config)
        pipe = tiny_deployment.run_query(SQL, config, run_config=RunConfig())
        assert serial.columns == pipe.columns
        assert sorted(serial.rows) == sorted(pipe.rows)
        assert pipe.batches_shipped > 0
        assert serial.batches_shipped == 0

    def test_pipeline_never_slower_and_bounds_storage_memory(self, tiny_deployment):
        serial = tiny_deployment.run_query(SQL, "scs")
        pipe = tiny_deployment.run_query(SQL, "scs", run_config=RunConfig())
        assert pipe.breakdown.total_ns <= serial.breakdown.total_ns
        assert (
            pipe.storage_meter.peak_memory_bytes
            < serial.storage_meter.peak_memory_bytes
        )

    def test_tamper_on_channel_detected_mid_stream(self, tiny_deployment):
        """Flipping a bit in a shipped batch record trips the channel MAC."""
        from repro.errors import ChannelError

        link = tiny_deployment.link
        original_send = link.send
        state = {"count": 0}

        def corrupting_send(src, dst, record, **kw):
            state["count"] += 1
            if state["count"] == 2 and src == "storage":
                record = record[:-1] + bytes([record[-1] ^ 0x01])
            return original_send(src, dst, record, **kw)

        link.send = corrupting_send
        try:
            with pytest.raises(ChannelError):
                tiny_deployment.run_query(SQL, "scs", run_config=RunConfig())
        finally:
            link.send = original_send
            tiny_deployment.host_engine.end_session()

    @pytest.mark.parametrize("number", [13, 21])
    def test_manual_partition_streams(self, tiny_deployment, number):
        from repro.core.manual_partitions import MANUAL_PARTITIONS
        from repro.tpch import ALL_QUERIES

        manual = MANUAL_PARTITIONS[number]
        serial = tiny_deployment.run_query(
            ALL_QUERIES[number].sql, "scs", manual_partition=manual
        )
        pipe = tiny_deployment.run_query(
            ALL_QUERIES[number].sql, "scs", manual_partition=manual,
            run_config=RunConfig(),
        )
        assert sorted(serial.rows) == sorted(pipe.rows)
        assert pipe.batches_shipped > 0
