"""Component microbenchmarks (real wall-clock, via pytest-benchmark).

These complement the simulated-time experiment harness with genuine
throughput measurements of the building blocks: page encryption, Merkle
verification, record codecs and SQL execution.  They have no paper
counterpart; they document the reproduction's own performance envelope.
"""

from __future__ import annotations

import datetime

import pytest

from repro.core import channel_pair
from repro.crypto import AES, Rng, generate_keypair, hash_ctr_crypt, hmac_sha512, sha256
from repro.sim import CostModel, NetworkLink, SimClock
from repro.sql import memory_database
from repro.sql.records import (
    decode_batch,
    encode_batch,
    encode_row,
    pack_page,
    unpack_page,
)
from repro.storage import BlockDevice, InMemoryAnchor, MerkleTree, SecurePager

_RNG = Rng(99)
_PAGE = _RNG.bytes(3996)
_KEY = _RNG.bytes(32)
_IV = _RNG.bytes(16)


def test_micro_hash_ctr_page(benchmark):
    out = benchmark(hash_ctr_crypt, _KEY, _IV, _PAGE)
    assert hash_ctr_crypt(_KEY, _IV, out) == _PAGE


def test_micro_hmac_sha512_page(benchmark):
    mac = benchmark(hmac_sha512, _KEY, _PAGE)
    assert len(mac) == 64


def test_micro_aes_block(benchmark):
    cipher = AES(_KEY)
    block = _PAGE[:16]
    out = benchmark(cipher.encrypt_block, block)
    assert cipher.decrypt_block(out) == block


def test_micro_merkle_update(benchmark):
    tree = MerkleTree(_KEY, 4096)
    digest = _RNG.bytes(32)

    def update():
        tree.update_leaf(1234, digest)

    benchmark(update)


def test_micro_merkle_verify_leaf(benchmark):
    tree = MerkleTree(_KEY, 4096)
    digest = _RNG.bytes(32)
    root = tree.update_leaf(1234, digest)

    benchmark(tree.verify_leaf, 1234, digest, root)


def test_micro_secure_page_roundtrip(benchmark):
    """The read the workloads pay: device read + page MAC + a 10-level
    Merkle walk (1024 pages, as at SF 0.002) + decrypt of a full payload."""
    device = BlockDevice()
    pager = SecurePager(device, _KEY, InMemoryAnchor(), Rng(5))
    for _ in range(1024):
        pager.write_page(pager.allocate_page(), _PAGE)
    assert pager.tree.depth == 10

    result = benchmark(pager.read_page, 517)
    assert result == _PAGE


def test_micro_channel_frame(benchmark):
    """One 64 KiB record: encrypt + MAC + link, then verify + decrypt."""
    link = NetworkLink(SimClock(), CostModel())
    link.register("host")
    link.register("storage")
    host, storage = channel_pair(link, "host", "storage", _KEY)
    frame = _RNG.bytes(64 * 1024)

    def ship():
        storage.send(frame)
        return host.receive()

    assert benchmark(ship) == frame


def test_micro_rsa_sign(benchmark):
    key = generate_keypair(Rng(7))
    body = sha256(b"proof body")
    signature = benchmark(key.sign, body)
    assert key.public_key.verify(body, signature)


def _lineitem_row(i: int) -> tuple:
    """A row of lineitem's shape: 4 INT, 4 REAL, 2 TEXT, 3 DATE, 3 TEXT."""
    day = datetime.date(1995, 1, 1) + datetime.timedelta(days=i % 900)
    return (
        i, i % 400, i % 20, i % 7, float(i % 50), 901.5 + i, 0.04, 0.02,
        "NRA"[i % 3], "OF"[i % 2], day, day, day,
        "DELIVER IN PERSON", "TRUCK", f"carefully final deposits {i} détail",
    )


#: 24 lineitem-shaped rows fit one 4 KiB page payload.
_CODEC_ROWS = [_lineitem_row(i) for i in range(24)]
#: The same page with one row that does not fit the page's compiled plan.
_CODEC_ROWS_ONE_NULL = (
    _CODEC_ROWS[:12] + [(None,) + _CODEC_ROWS[12][1:]] + _CODEC_ROWS[13:]
)
_BATCH_ROWS = [_lineitem_row(i) for i in range(1024)]


@pytest.mark.parametrize(
    "rows", [_CODEC_ROWS, _CODEC_ROWS_ONE_NULL], ids=["uniform", "one-null-row"]
)
def test_micro_unpack_page(benchmark, rows):
    payload = pack_page([encode_row(row) for row in rows])
    assert len(payload) <= 3996
    assert benchmark(unpack_page, payload) == rows


def test_micro_encode_batch(benchmark):
    payload = benchmark(encode_batch, _BATCH_ROWS)
    assert decode_batch(payload) == _BATCH_ROWS


def test_micro_decode_batch(benchmark):
    payload = encode_batch(_BATCH_ROWS)
    assert benchmark(decode_batch, payload) == _BATCH_ROWS


@pytest.fixture(scope="module")
def small_db():
    db = memory_database()
    db.execute("CREATE TABLE t (a INTEGER, b REAL, c TEXT)")
    rng = Rng(3)
    rows = [(i, i * 1.5, f"row-{i % 97}") for i in range(5000)]
    db.store.insert_rows("t", rows)
    return db


def test_micro_sql_filter_scan(benchmark, small_db):
    result = benchmark(small_db.execute, "SELECT count(*) FROM t WHERE a % 7 = 0 AND b > 100")
    assert result.rows[0][0] > 0


def test_micro_sql_group_by(benchmark, small_db):
    result = benchmark(small_db.execute, "SELECT c, count(*), sum(b) FROM t GROUP BY c")
    assert len(result.rows) == 97
