"""Secure storage: block device, Merkle tree, plain and secure pagers."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import Rng
from repro.errors import FreshnessError, IntegrityError, StorageError
from repro.sim import Meter
from repro.storage import (
    PAYLOAD_SIZE,
    BlockDevice,
    InMemoryAnchor,
    MerkleTree,
    Pager,
    SecurePager,
)

_RNG = Rng("storage-tests")


class TestBlockDevice:
    def test_roundtrip(self):
        dev = BlockDevice()
        dev.write_page(0, bytes(4096))
        assert dev.read_page(0) == bytes(4096)

    def test_wrong_size_rejected(self):
        with pytest.raises(StorageError):
            BlockDevice().write_page(0, bytes(100))

    def test_missing_page_rejected(self):
        with pytest.raises(StorageError):
            BlockDevice().read_page(7)

    def test_negative_page_rejected(self):
        with pytest.raises(StorageError):
            BlockDevice().read_page(-1)
        with pytest.raises(StorageError):
            BlockDevice().write_page(-1, bytes(4096))

    def test_meta_region(self):
        dev = BlockDevice()
        assert dev.read_meta("missing") is None
        dev.write_meta("k", b"v")
        assert dev.read_meta("k") == b"v"

    def test_snapshot_restore(self):
        dev = BlockDevice()
        dev.write_page(0, b"A" * 4096)
        snap = dev.snapshot()
        dev.write_page(0, b"B" * 4096)
        dev.restore(snap)
        assert dev.read_page(0) == b"A" * 4096

    def test_fork_is_independent(self):
        dev = BlockDevice()
        dev.write_page(0, b"X" * 4096)
        clone = dev.fork("clone")
        clone.write_page(0, b"Y" * 4096)
        assert dev.read_page(0) == b"X" * 4096

    def test_corrupt_flips_bits(self):
        dev = BlockDevice()
        dev.write_page(0, bytes(4096))
        dev.corrupt(0, offset=10)
        assert dev.raw_page(0)[10] == 0xFF

    def test_meter_counts(self):
        dev = BlockDevice()
        dev.write_page(0, bytes(4096))
        dev.read_page(0)
        assert dev.meter.pages_written == 1
        assert dev.meter.pages_read == 1


class TestMerkleTree:
    def test_root_changes_on_update(self):
        tree = MerkleTree(b"key", 8)
        before = tree.root
        tree.update_leaf(3, b"d" * 32)
        assert tree.root != before

    def test_verify_leaf_ok(self):
        tree = MerkleTree(b"key", 8)
        digest = b"x" * 32
        root = tree.update_leaf(5, digest)
        tree.verify_leaf(5, digest, root)

    def test_verify_wrong_digest_fails(self):
        tree = MerkleTree(b"key", 8)
        root = tree.update_leaf(5, b"x" * 32)
        with pytest.raises(IntegrityError):
            tree.verify_leaf(5, b"y" * 32, root)

    def test_verify_stale_root_fails(self):
        tree = MerkleTree(b"key", 8)
        old_root = tree.update_leaf(5, b"x" * 32)
        tree.update_leaf(2, b"z" * 32)
        with pytest.raises(IntegrityError):
            tree.verify_leaf(5, b"x" * 32, old_root)

    def test_key_matters(self):
        t1 = MerkleTree(b"key1", 4)
        t2 = MerkleTree(b"key2", 4)
        t1.update_leaf(0, b"a" * 32)
        t2.update_leaf(0, b"a" * 32)
        assert t1.root != t2.root

    def test_growth_preserves_leaves(self):
        tree = MerkleTree(b"key", 2)
        tree.update_leaf(0, b"a" * 32)
        tree.update_leaf(100, b"b" * 32)  # forces growth
        root = tree.root
        tree.verify_leaf(0, b"a" * 32, root)
        tree.verify_leaf(100, b"b" * 32, root)

    def test_serialization_roundtrip(self):
        tree = MerkleTree(b"key", 8)
        for i in range(8):
            tree.update_leaf(i, bytes([i]) * 32)
        blob = tree.serialize_leaves()
        restored = MerkleTree.from_serialized(b"key", blob)
        assert restored.root == tree.root

    def test_opening_serialized_leaves_hashes_each_node_once(self):
        tree = MerkleTree(b"key", 1)
        for i in range(1000):
            tree.update_leaf(i, hashlib.sha256(bytes([i % 251, i // 251])).digest())
        meter = Meter()
        restored = MerkleTree.from_serialized(
            b"key", tree.serialize_leaves(), meter=meter
        )
        assert restored.root == tree.root
        assert restored.num_leaves == 1000
        # 1,000 leaves sit in a 1,024-leaf tree: 1,023 interior nodes.
        assert meter.merkle_nodes_hashed == 1023

    def test_corrupt_serialization_rejected(self):
        with pytest.raises(IntegrityError):
            MerkleTree.from_serialized(b"key", b"odd-length-blob")

    def test_position_matters(self):
        """Swapping two identical-content leaves changes nothing, but
        swapping distinct leaves must change the root (anti-displacement)."""
        t1 = MerkleTree(b"key", 4)
        t1.update_leaf(0, b"a" * 32)
        t1.update_leaf(1, b"b" * 32)
        t2 = MerkleTree(b"key", 4)
        t2.update_leaf(0, b"b" * 32)
        t2.update_leaf(1, b"a" * 32)
        assert t1.root != t2.root

    def test_size_proportional_to_leaves(self):
        small = MerkleTree(b"k", 10)
        big = MerkleTree(b"k", 1000)
        assert big.size_bytes() > small.size_bytes()

    def test_zero_leaves_rejected(self):
        with pytest.raises(IntegrityError):
            MerkleTree(b"k", 0)

    def test_root_is_pinned(self):
        # Taken from the commit before node HMACs were pre-keyed: roots are
        # anchored in RPMB, so how the HMAC is computed may never move them.
        tree = MerkleTree(bytes(range(32)), 5)
        for i in range(5):
            tree.update_leaf(i, hashlib.sha256(b"leaf-%d" % i).digest())
        assert tree.root.hex() == (
            "1ce5232daf741906c163ab30d8af4193ededf5a42ec5dcad829be60399428583"
        )

    @settings(max_examples=20, deadline=None)
    @given(updates=st.lists(st.tuples(st.integers(0, 63), st.binary(min_size=32, max_size=32)), max_size=20))
    def test_verify_after_any_updates(self, updates):
        tree = MerkleTree(b"prop", 64)
        final: dict[int, bytes] = {}
        for index, digest in updates:
            tree.update_leaf(index, digest)
            final[index] = digest
        root = tree.root
        for index, digest in final.items():
            tree.verify_leaf(index, digest, root)


class TestPlainPager:
    def _pager(self):
        return Pager(BlockDevice())

    def test_roundtrip(self):
        pager = self._pager()
        pgno = pager.allocate_page()
        pager.write_page(pgno, b"payload")
        assert pager.read_page(pgno) == b"payload"

    def test_max_payload(self):
        pager = self._pager()
        pgno = pager.allocate_page()
        data = bytes(PAYLOAD_SIZE)
        pager.write_page(pgno, data)
        assert pager.read_page(pgno) == data

    def test_oversize_rejected(self):
        pager = self._pager()
        pgno = pager.allocate_page()
        with pytest.raises(StorageError):
            pager.write_page(pgno, bytes(PAYLOAD_SIZE + 1))

    def test_unallocated_rejected(self):
        pager = self._pager()
        with pytest.raises(StorageError):
            pager.read_page(0)
        with pytest.raises(StorageError):
            pager.write_page(0, b"x")

    def test_page_count_persists(self):
        device = BlockDevice()
        pager = Pager(device)
        pager.allocate_page()
        pager.allocate_page()
        reopened = Pager(device)
        assert reopened.page_count == 2


class TestSecurePager:
    def _setup(self, cipher="hash-ctr"):
        rng = Rng("sp")
        device = BlockDevice()
        anchor = InMemoryAnchor()
        key = rng.bytes(32)
        pager = SecurePager(device, key, anchor, rng.fork("iv"), cipher=cipher)
        return device, anchor, key, pager, rng

    @pytest.mark.parametrize("cipher", ["hash-ctr", "aes-cbc"])
    def test_roundtrip(self, cipher):
        _, _, _, pager, _ = self._setup(cipher)
        pgno = pager.allocate_page()
        pager.write_page(pgno, b"sensitive payload")
        assert pager.read_page(pgno) == b"sensitive payload"

    def test_unknown_cipher_rejected(self):
        rng = Rng(1)
        with pytest.raises(StorageError):
            SecurePager(BlockDevice(), bytes(32), InMemoryAnchor(), rng, cipher="rot13")

    def test_confidentiality(self):
        device, _, _, pager, _ = self._setup()
        pgno = pager.allocate_page()
        secret = b"TOP-SECRET-CUSTOMER-RECORD"
        pager.write_page(pgno, secret * 10)
        assert secret not in device.raw_page(pgno)

    def test_identical_payloads_encrypt_differently(self):
        device, _, _, pager, _ = self._setup()
        a, b = pager.allocate_page(), pager.allocate_page()
        pager.write_page(a, b"same content")
        pager.write_page(b, b"same content")
        assert device.raw_page(a) != device.raw_page(b)  # fresh IV per page

    def test_integrity_bit_flip_detected(self):
        device, _, _, pager, _ = self._setup()
        pgno = pager.allocate_page()
        pager.write_page(pgno, b"data")
        device.corrupt(pgno, offset=20)
        with pytest.raises(IntegrityError):
            pager.read_page(pgno)

    def test_mac_tamper_detected(self):
        device, _, _, pager, _ = self._setup()
        pgno = pager.allocate_page()
        pager.write_page(pgno, b"data")
        device.corrupt(pgno, offset=4095)  # inside the trailing MAC
        with pytest.raises(IntegrityError):
            pager.read_page(pgno)

    def test_displacement_detected(self):
        """Swapping two whole encrypted pages must not go unnoticed."""
        device, _, _, pager, _ = self._setup()
        a, b = pager.allocate_page(), pager.allocate_page()
        pager.write_page(a, b"page A")
        pager.write_page(b, b"page B")
        raw_a, raw_b = device.raw_page(a), device.raw_page(b)
        device.write_page(a, raw_b)
        device.write_page(b, raw_a)
        with pytest.raises(IntegrityError):
            pager.read_page(a)

    def test_single_page_replay_detected(self):
        """Restoring one stale page while the tree moved on is caught."""
        device, _, _, pager, _ = self._setup()
        pgno = pager.allocate_page()
        pager.write_page(pgno, b"version 1")
        stale = device.raw_page(pgno)
        pager.write_page(pgno, b"version 2")
        device.write_page(pgno, stale)
        with pytest.raises(IntegrityError):
            pager.read_page(pgno)

    def test_rollback_detected_on_reopen(self):
        rng = Rng("rollback")
        device = BlockDevice()
        anchor = InMemoryAnchor()
        key = rng.bytes(32)
        pager = SecurePager(device, key, anchor, rng.fork("iv"))
        pgno = pager.allocate_page()
        pager.write_page(pgno, b"v1")
        pager.commit()
        snapshot = device.snapshot()
        pager.write_page(pgno, b"v2")
        pager.commit()
        device.restore(snapshot)
        with pytest.raises(FreshnessError):
            SecurePager(device, key, anchor, rng.fork("iv2"))

    def test_reopen_preserves_data(self):
        rng = Rng("reopen")
        device = BlockDevice()
        anchor = InMemoryAnchor()
        key = rng.bytes(32)
        pager = SecurePager(device, key, anchor, rng.fork("iv"))
        pgno = pager.allocate_page()
        pager.write_page(pgno, b"durable")
        pager.close()
        reopened = SecurePager(device, key, anchor, rng.fork("iv2"))
        assert reopened.read_page(pgno) == b"durable"

    def test_wrong_key_cannot_read(self):
        rng = Rng("wrongkey")
        device = BlockDevice()
        anchor = InMemoryAnchor()
        pager = SecurePager(device, rng.bytes(32), anchor, rng.fork("iv"))
        pgno = pager.allocate_page()
        pager.write_page(pgno, b"locked")
        pager.commit()
        intruder = SecurePager(
            device, rng.bytes(32), InMemoryAnchor(), rng.fork("iv2")
        )
        with pytest.raises(IntegrityError):
            intruder.read_page(pgno)

    def test_meter_counts_crypto_work(self):
        _, _, _, pager, _ = self._setup()
        pgno = pager.allocate_page()
        pager.write_page(pgno, b"x")
        before = pager.meter.merkle_nodes_hashed
        pager.read_page(pgno)
        assert pager.meter.pages_decrypted == 1
        assert pager.meter.page_macs_verified == 1
        assert pager.meter.merkle_nodes_hashed > before

    def test_page_and_meta_macs_are_pinned(self):
        # Same provenance as TestMerkleTree.test_root_is_pinned: stored
        # pages carry these MACs, so they must verify across commits.
        pager = SecurePager(
            BlockDevice(), bytes(range(32, 64)), InMemoryAnchor(), Rng("pin")
        )
        assert pager._page_mac(7, bytes(range(16)), bytes(range(256)) * 15).hex() == (
            "d0272d51f2b3be462ca28d79f99b1a006eb71b99a20f5dba5a5fa72b2052ba36"
            "60c518bf9f568001e5e20fc7f55853645475f48025cf697f190d28596559358b"
        )
        assert pager._meta_mac("zonemap", bytes(range(16)), b"blob" * 10).hex() == (
            "dea70d0ab1f600bbacb2c59aaed3b3aff4b9ab1ab011a0d042b536dece996c37"
            "896b8802d0ec08d00b3cbed0a4e3787251b8fec51acdd3dcdf9dfe59c5488532"
        )

    def test_commit_idempotent_when_clean(self):
        _, anchor, _, pager, _ = self._setup()
        pgno = pager.allocate_page()
        pager.write_page(pgno, b"x")
        pager.commit()
        rpmb_writes = pager.meter.rpmb_writes
        pager.commit()  # nothing dirty
        assert pager.meter.rpmb_writes == rpmb_writes

    @settings(max_examples=15, deadline=None)
    @given(payload=st.binary(max_size=PAYLOAD_SIZE))
    def test_roundtrip_property(self, payload):
        _, _, _, pager, _ = self._setup()
        pgno = pager.allocate_page()
        pager.write_page(pgno, payload)
        assert pager.read_page(pgno) == payload


class TestKeySchemes:
    """Per-unit key management (the paper's §4.1 alternative scheme)."""

    def _pager(self, scheme: str, seed: str = "ks"):
        rng = Rng(seed)
        return SecurePager(
            BlockDevice(), rng.bytes(32), InMemoryAnchor(), rng.fork("iv"),
            key_scheme=scheme,
        )

    def test_unknown_scheme_rejected(self):
        from repro.errors import StorageError

        rng = Rng(0)
        with pytest.raises(StorageError):
            SecurePager(
                BlockDevice(), bytes(32), InMemoryAnchor(), rng, key_scheme="vault"
            )

    @pytest.mark.parametrize("scheme", ["single", "per-page"])
    def test_roundtrip(self, scheme):
        pager = self._pager(scheme)
        pages = [pager.allocate_page() for _ in range(5)]
        for p in pages:
            pager.write_page(p, f"payload-{p}".encode())
        for p in pages:
            assert pager.read_page(p) == f"payload-{p}".encode()

    def test_per_page_keys_differ(self):
        pager = self._pager("per-page")
        assert pager._key_for(0) != pager._key_for(1)
        assert pager._key_for(0) == pager._key_for(0)

    def test_single_scheme_shares_key(self):
        pager = self._pager("single")
        assert pager._key_for(0) == pager._key_for(1)

    def test_schemes_produce_different_ciphertext(self):
        a = self._pager("single", "same-seed")
        b = self._pager("per-page", "same-seed")
        pa, pb = a.allocate_page(), b.allocate_page()
        # Page 0's derived key equals neither master-derived stream.
        a.write_page(pa, b"identical")
        b.write_page(pb, b"identical")
        # IVs match (same rng seed), so any difference is the key schedule.
        assert a.device.raw_page(pa) != b.device.raw_page(pb)

    def test_integrity_still_enforced(self):
        pager = self._pager("per-page")
        pgno = pager.allocate_page()
        pager.write_page(pgno, b"x")
        pager.device.corrupt(pgno, offset=30)
        with pytest.raises(IntegrityError):
            pager.read_page(pgno)
