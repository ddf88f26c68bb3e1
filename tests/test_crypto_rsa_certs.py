"""RSA signatures and the certificate-chain infrastructure."""

from __future__ import annotations

import pytest

from repro.crypto import (
    PrivateKey,
    Rng,
    generate_keypair,
    issue_certificate,
    self_signed,
    verify_chain,
    verify_or_raise,
)
from repro.crypto.rsa import _encode_digest
from repro.errors import CertificateError, CryptoError, SignatureError

_RNG = Rng("rsa-tests")
KEY = generate_keypair(_RNG)
OTHER = generate_keypair(_RNG.fork("other"))


class TestRSA:
    def test_sign_verify(self):
        sig = KEY.sign(b"message")
        assert KEY.public_key.verify(b"message", sig)

    def test_wrong_message_fails(self):
        sig = KEY.sign(b"message")
        assert not KEY.public_key.verify(b"other message", sig)

    def test_wrong_key_fails(self):
        sig = KEY.sign(b"message")
        assert not OTHER.public_key.verify(b"message", sig)

    def test_tampered_signature_fails(self):
        sig = bytearray(KEY.sign(b"message"))
        sig[0] ^= 1
        assert not KEY.public_key.verify(b"message", bytes(sig))

    def test_signature_deterministic(self):
        assert KEY.sign(b"x") == KEY.sign(b"x")

    def test_empty_message(self):
        sig = KEY.sign(b"")
        assert KEY.public_key.verify(b"", sig)

    def test_oversized_signature_rejected(self):
        bad = (KEY.n + 1).to_bytes((KEY.n.bit_length() + 15) // 8, "big")
        assert not KEY.public_key.verify(b"m", bad)

    def test_fingerprint_stable_and_distinct(self):
        assert KEY.public_key.fingerprint() == KEY.public_key.fingerprint()
        assert KEY.public_key.fingerprint() != OTHER.public_key.fingerprint()

    def test_verify_or_raise(self):
        sig = KEY.sign(b"ok")
        verify_or_raise(KEY.public_key, b"ok", sig, "test blob")
        with pytest.raises(SignatureError, match="test blob"):
            verify_or_raise(KEY.public_key, b"bad", sig, "test blob")

    def test_keygen_rejects_bad_sizes(self):
        with pytest.raises(CryptoError):
            generate_keypair(_RNG, bits=256)
        with pytest.raises(CryptoError):
            generate_keypair(_RNG, bits=1023)

    def test_distinct_keypairs(self):
        a = generate_keypair(Rng("a"))
        b = generate_keypair(Rng("b"))
        assert a.n != b.n

    @pytest.mark.parametrize("seed", ["crt-1", "crt-2", "crt-3"])
    def test_crt_signature_equals_plain_exponentiation(self, seed):
        # pow(m, d, n) is the reference the CRT path must reproduce byte
        # for byte: certificates and proofs signed before stay valid.
        key = generate_keypair(Rng(seed), bits=512 if seed == "crt-3" else 1024)
        assert key.p * key.q == key.n
        size = (key.n.bit_length() + 7) // 8
        for message in (b"", b"m", b"proof body " * 40, bytes(range(256))):
            m = int.from_bytes(_encode_digest(message, key.n), "big")
            sig = key.sign(message)
            assert sig == pow(m, key.d, key.n).to_bytes(size, "big")
            assert key.public_key.verify(message, sig)

    def test_inconsistent_key_parts_never_emit_a_signature(self):
        # A half computed modulo the wrong prime is exactly the fault the
        # Bellcore attack needs: gcd(sig**e - m, n) would reveal q.
        for broken in (
            PrivateKey(n=KEY.n, e=KEY.e, d=KEY.d, p=OTHER.p, q=KEY.q),
            PrivateKey(n=KEY.n, e=KEY.e, d=KEY.d, p=KEY.p, q=OTHER.q),
            PrivateKey(n=KEY.n, e=KEY.e, d=KEY.d + 2, p=KEY.p, q=KEY.q),
        ):
            with pytest.raises(CryptoError, match="self-check"):
                broken.sign(b"message")


class TestCertificates:
    def _chain(self):
        root = generate_keypair(Rng("root"))
        mid = generate_keypair(Rng("mid"))
        leaf = generate_keypair(Rng("leaf"))
        root_cert = self_signed("root-ca", root, {"role": "root"})
        mid_cert = issue_certificate("root-ca", root, "mid-ca", mid.public_key)
        leaf_cert = issue_certificate(
            "mid-ca", mid, "device-7", leaf.public_key, {"location": "eu"}
        )
        return root, mid, leaf, [root_cert, mid_cert, leaf_cert]

    def test_valid_chain(self):
        root, _, _, chain = self._chain()
        leaf = verify_chain(chain, root.public_key)
        assert leaf.subject == "device-7"
        assert leaf.attributes["location"] == "eu"

    def test_single_self_signed(self):
        root = generate_keypair(Rng("solo"))
        cert = self_signed("solo", root)
        assert verify_chain([cert], root.public_key).subject == "solo"

    def test_empty_chain_rejected(self):
        root = generate_keypair(Rng("r"))
        with pytest.raises(CertificateError):
            verify_chain([], root.public_key)

    def test_wrong_trust_anchor_rejected(self):
        _, _, _, chain = self._chain()
        wrong = generate_keypair(Rng("wrong"))
        with pytest.raises(CertificateError):
            verify_chain(chain, wrong.public_key)

    def test_broken_issuer_linkage_rejected(self):
        root, _, leaf_key, chain = self._chain()
        # Leaf claims a different issuer.
        bad_leaf = issue_certificate(
            "unrelated-ca", generate_keypair(Rng("x")), "device-7", leaf_key.public_key
        )
        with pytest.raises(CertificateError, match="issuer"):
            verify_chain([chain[0], chain[1], bad_leaf], root.public_key)

    def test_forged_signature_rejected(self):
        root, _, _, chain = self._chain()
        forged = type(chain[2])(
            subject=chain[2].subject,
            issuer=chain[2].issuer,
            public_key=chain[2].public_key,
            attributes={"location": "us"},  # attribute swap invalidates sig
            signature=chain[2].signature,
        )
        with pytest.raises(CertificateError):
            verify_chain([chain[0], chain[1], forged], root.public_key)

    def test_attacker_cannot_extend_chain(self):
        root, _, _, chain = self._chain()
        mallory = generate_keypair(Rng("mallory"))
        fake = issue_certificate("device-7", mallory, "evil", mallory.public_key)
        # The leaf key did not sign this, so the chain must break.
        with pytest.raises(CertificateError):
            verify_chain(chain + [fake], root.public_key)
