"""Hashes, pre-keyed HMAC, HKDF, the deterministic RNG and the XOF stream cipher."""

from __future__ import annotations

import hashlib
import hmac

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import (
    KeyedHmac,
    Rng,
    constant_time_eq,
    hash_ctr_crypt,
    hkdf,
    hmac_sha256,
    hmac_sha512,
    sha256,
    sha512,
)
from repro.errors import CryptoError


class TestHashes:
    def test_sha256_known_vector(self):
        assert sha256(b"abc").hex() == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_sha512_length(self):
        assert len(sha512(b"abc")) == 64

    def test_hmac_sha256_rfc4231_case1(self):
        key = bytes([0x0B] * 20)
        assert hmac_sha256(key, b"Hi There").hex() == (
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        )

    def test_hmac_sha512_rfc4231_case2(self):
        assert hmac_sha512(b"Jefe", b"what do ya want for nothing?").hex().startswith(
            "164b7a7bfcf819e2e395fbe73b56e0a387bd64222e831fd610270cd7ea250554"
        )

    def test_constant_time_eq(self):
        assert constant_time_eq(b"same", b"same")
        assert not constant_time_eq(b"same", b"diff")


class TestKeyedHmac:
    """The pre-keyed helper must be bit-identical to ``hmac.new``: Merkle
    roots, page MACs and RPMB-anchored roots are its outputs."""

    @settings(max_examples=150, deadline=None)
    @given(
        key=st.binary(max_size=200),  # 0 bytes .. beyond both block sizes
        msg=st.binary(max_size=5000),
        name=st.sampled_from(["sha256", "sha512"]),
    )
    def test_equals_stdlib_hmac(self, key, msg, name):
        assert KeyedHmac(key, name).mac(msg) == hmac.new(key, msg, name).digest()

    @pytest.mark.parametrize("key_len", [0, 63, 64, 65, 127, 128, 129, 200])
    def test_block_size_boundaries(self, key_len):
        key = bytes(i % 251 for i in range(key_len))
        for name in ("sha256", "sha512"):
            assert KeyedHmac(key, name).mac(b"m") == hmac.new(key, b"m", name).digest()

    def test_reusable_and_order_independent(self):
        mac = KeyedHmac(b"key", "sha256")
        first = mac.mac(b"one")
        mac.mac(b"two")
        assert mac.mac(b"one") == first == hmac_sha256(b"key", b"one")


class TestHKDF:
    def test_deterministic(self):
        assert hkdf(b"key", b"info") == hkdf(b"key", b"info")

    def test_domain_separation(self):
        assert hkdf(b"key", b"a") != hkdf(b"key", b"b")

    def test_key_separation(self):
        assert hkdf(b"key1", b"x") != hkdf(b"key2", b"x")

    @pytest.mark.parametrize("length", [1, 16, 32, 33, 64, 100])
    def test_requested_length(self, length):
        assert len(hkdf(b"k", b"i", length)) == length

    def test_prefix_property(self):
        # HKDF output is a stream: shorter requests are prefixes.
        assert hkdf(b"k", b"i", 16) == hkdf(b"k", b"i", 64)[:16]


class TestRng:
    def test_deterministic_across_instances(self):
        assert Rng(42).bytes(100) == Rng(42).bytes(100)

    def test_different_seeds_differ(self):
        assert Rng(1).bytes(32) != Rng(2).bytes(32)

    def test_stream_advances(self):
        rng = Rng(7)
        assert rng.bytes(16) != rng.bytes(16)

    def test_fork_is_independent(self):
        rng = Rng(3)
        child_a = rng.fork("a")
        child_b = rng.fork("b")
        assert child_a.bytes(16) != child_b.bytes(16)
        # Forking does not perturb the parent stream.
        fresh = Rng(3)
        fresh.fork("a")
        assert fresh.bytes(8) == Rng(3).bytes(8)

    def test_seed_types(self):
        assert Rng(5).bytes(8) == Rng(5).bytes(8)
        assert Rng("label").bytes(8) == Rng("label").bytes(8)
        assert Rng(b"raw").bytes(8) == Rng(b"raw").bytes(8)

    @given(lo=st.integers(-100, 100), span=st.integers(0, 500))
    @settings(max_examples=50, deadline=None)
    def test_randint_bounds(self, lo, span):
        rng = Rng(lo * 1000 + span)
        value = rng.randint(lo, lo + span)
        assert lo <= value <= lo + span

    def test_randint_rejects_empty_range(self):
        with pytest.raises(ValueError):
            Rng(0).randint(5, 4)

    def test_random_in_unit_interval(self):
        rng = Rng(9)
        for _ in range(100):
            assert 0.0 <= rng.random() < 1.0

    def test_shuffle_is_permutation(self):
        rng = Rng(11)
        items = list(range(50))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items
        assert shuffled != items  # astronomically unlikely to be identity

    def test_choice(self):
        rng = Rng(13)
        seq = ["a", "b", "c"]
        assert all(rng.choice(seq) in seq for _ in range(20))

    def test_uniformity_rough(self):
        rng = Rng(17)
        counts = [0] * 10
        for _ in range(5000):
            counts[rng.randint(0, 9)] += 1
        assert min(counts) > 350  # ~500 expected per bucket


class TestHashCtr:
    def test_symmetric(self):
        key, nonce = bytes(32), bytes(16)
        data = b"stream me" * 50
        assert hash_ctr_crypt(key, nonce, hash_ctr_crypt(key, nonce, data)) == data

    def test_empty(self):
        assert hash_ctr_crypt(bytes(32), bytes(16), b"") == b""

    def test_nonce_matters(self):
        key = bytes(32)
        data = bytes(100)
        a = hash_ctr_crypt(key, b"n" * 16, data)
        b = hash_ctr_crypt(key, b"m" * 16, data)
        assert a != b

    def test_keystream_looks_random(self):
        # Encrypting zeros exposes the keystream; it should not repeat in
        # 32-byte blocks.
        ks = hash_ctr_crypt(bytes(32), bytes(16), bytes(128))
        blocks = [ks[i : i + 32] for i in range(0, 128, 32)]
        assert len(set(blocks)) == 4

    @settings(max_examples=30, deadline=None)
    @given(data=st.binary(max_size=500), key=st.binary(min_size=32, max_size=32))
    def test_roundtrip_property(self, data, key):
        nonce = bytes(16)
        assert hash_ctr_crypt(key, nonce, hash_ctr_crypt(key, nonce, data)) == data

    @pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 4014, 1 << 20])
    def test_keystream_is_one_shake256_call(self, length):
        # Known answer: encrypting zeros exposes the keystream, which is
        # the SHAKE-256 XOF over key ‖ nonce and nothing else.
        key, nonce = bytes(range(32)), bytes(range(100, 116))
        assert hash_ctr_crypt(key, nonce, bytes(length)) == hashlib.shake_256(
            key + nonce
        ).digest(length)

    def test_shorter_keystream_is_prefix_of_longer(self):
        key, nonce = b"k" * 32, b"n" * 16
        long = hash_ctr_crypt(key, nonce, bytes(4014))
        for length in (1, 31, 32, 33, 1000):
            assert hash_ctr_crypt(key, nonce, bytes(length)) == long[:length]

    @pytest.mark.parametrize(
        "key_len, nonce_len", [(31, 16), (33, 16), (16, 16), (32, 15), (32, 17)]
    )
    def test_wrong_length_key_or_nonce_rejected(self, key_len, nonce_len):
        # key ‖ nonce is only unambiguous at fixed lengths: (k‖x, n) and
        # (k, x‖n) would otherwise share a keystream.
        with pytest.raises(CryptoError):
            hash_ctr_crypt(bytes(key_len), bytes(nonce_len), b"data")
        with pytest.raises(CryptoError):
            hash_ctr_crypt(bytes(key_len), bytes(nonce_len), b"")
