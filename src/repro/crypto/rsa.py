"""RSA signatures, built from scratch for the attestation infrastructure.

The trusted monitor certifies host keys, Intel's (simulated) attestation
service signs quote reports, and the TrustZone secure-boot chain is a chain
of RSA-signed certificates rooted in the ROTPK.  We implement textbook RSA
with deterministic full-domain-hash padding (sign the SHA-256 of the
message, left-padded per PKCS#1 v1.5 semantics).  Keys default to 1024 bits
— small for production, but the reproduction needs protocol fidelity, not
long-term secrecy, and keygen must stay fast under test.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CryptoError, SignatureError
from .hashes import sha256
from .rng import Rng

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]


def _is_probable_prime(n: int, rng: Rng, rounds: int = 24) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randint(2, n - 2)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int, rng: Rng) -> int:
    while True:
        candidate = int.from_bytes(rng.bytes(bits // 8), "big")
        candidate |= (1 << (bits - 1)) | 1  # correct size, odd
        if _is_probable_prime(candidate, rng):
            return candidate


@dataclass(frozen=True)
class PublicKey:
    """RSA public key (n, e)."""

    n: int
    e: int

    def fingerprint(self) -> bytes:
        """Stable identifier used in certificates and policy predicates."""
        return sha256(self.n.to_bytes((self.n.bit_length() + 7) // 8, "big"))

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Return True iff *signature* is a valid signature of *message*."""
        try:
            sig_int = int.from_bytes(signature, "big")
            if sig_int >= self.n:
                return False
            recovered = pow(sig_int, self.e, self.n)
            expected = int.from_bytes(_encode_digest(message, self.n), "big")
            return recovered == expected
        except (ValueError, CryptoError):
            return False


@dataclass(frozen=True)
class PrivateKey:
    """RSA private key with its prime factors; holds the public part too."""

    n: int
    e: int
    d: int
    p: int
    q: int

    @property
    def public_key(self) -> PublicKey:
        return PublicKey(self.n, self.e)

    def sign(self, message: bytes) -> bytes:
        """Deterministic signature of SHA-256(message), computed by CRT.

        Two half-size exponentiations (mod p, mod q) recombined with
        Garner's formula give exactly ``pow(m, d, n)`` at about a third of
        the cost.  The result is re-verified with the public exponent
        before it leaves: a fault in either half — or inconsistent key
        parts — would otherwise emit a value that factors *n* (the
        Bellcore attack), so it raises :class:`CryptoError` instead.
        """
        p, q = self.p, self.q
        m = int.from_bytes(_encode_digest(message, self.n), "big")
        sp = pow(m % p, self.d % (p - 1), p)
        sq = pow(m % q, self.d % (q - 1), q)
        sig = sq + q * ((sp - sq) * pow(q, -1, p) % p)
        if pow(sig, self.e, self.n) != m:
            raise CryptoError("RSA-CRT signature failed its self-check")
        return sig.to_bytes((self.n.bit_length() + 7) // 8, "big")


def _encode_digest(message: bytes, n: int) -> bytes:
    """PKCS#1-v1.5-style encoding of SHA-256(message) to the modulus size."""
    k = (n.bit_length() + 7) // 8
    digest = sha256(message)
    if k < len(digest) + 11:
        raise CryptoError("modulus too small for digest encoding")
    padding = b"\xff" * (k - len(digest) - 3)
    return b"\x00\x01" + padding + b"\x00" + digest


def generate_keypair(rng: Rng, bits: int = 1024) -> PrivateKey:
    """Generate an RSA keypair with public exponent 65537."""
    if bits < 512 or bits % 2:
        raise CryptoError("key size must be an even number of bits >= 512")
    e = 65537
    while True:
        p = _random_prime(bits // 2, rng)
        q = _random_prime(bits // 2, rng)
        if p == q:
            continue
        n = p * q
        phi = (p - 1) * (q - 1)
        if phi % e == 0:
            continue
        d = pow(e, -1, phi)
        return PrivateKey(n=n, e=e, d=d, p=p, q=q)


def verify_or_raise(key: PublicKey, message: bytes, signature: bytes, what: str) -> None:
    """Verify and raise :class:`SignatureError` naming *what* on failure."""
    if not key.verify(message, signature):
        raise SignatureError(f"invalid signature on {what}")
