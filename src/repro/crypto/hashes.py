"""Hashing, MACs and key derivation used across the TEE and storage layers.

SHA-2 and HMAC come from the Python standard library (they are primitives,
not the paper's contribution); this module pins the exact constructions the
system uses so every component agrees on digest sizes and domain separation.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac

SHA256_LEN = 32
SHA512_LEN = 64


def sha256(data: bytes) -> bytes:
    """SHA-256 digest (used for measurements and Merkle internals)."""
    return hashlib.sha256(data).digest()


def sha512(data: bytes) -> bytes:
    """SHA-512 digest."""
    return hashlib.sha512(data).digest()


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA256 (RPMB MACs, channel MACs)."""
    return _hmac.new(key, data, hashlib.sha256).digest()


def hmac_sha512(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA512 (per-page MACs, exactly as SQLiteCipher configures)."""
    return _hmac.new(key, data, hashlib.sha512).digest()


_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


class KeyedHmac:
    """HMAC under one fixed key, with the two key blocks hashed once.

    ``hmac.new`` pads the key, XORs it into the ipad/opad blocks and
    compresses both on every call; for the 72-byte Merkle node message
    that is most of the work.  This keeps the two keyed hash states and
    copies them per message, so :meth:`mac` is six C calls and returns
    exactly ``hmac.new(key, data, hash_name).digest()`` (RFC 2104).
    The object *is* key material: hold it where the key was held.
    """

    __slots__ = ("_inner", "_outer")

    def __init__(self, key: bytes, hash_name: str):
        inner = hashlib.new(hash_name)
        if len(key) > inner.block_size:
            key = hashlib.new(hash_name, key).digest()
        block = key.ljust(inner.block_size, b"\x00")
        outer = inner.copy()
        inner.update(block.translate(_IPAD))
        outer.update(block.translate(_OPAD))
        self._inner = inner
        self._outer = outer

    def mac(self, data: bytes) -> bytes:
        inner = self._inner.copy()
        inner.update(data)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()


def constant_time_eq(a: bytes, b: bytes) -> bool:
    """Timing-safe comparison for MAC verification."""
    return _hmac.compare_digest(a, b)


def hkdf(key: bytes, info: bytes, length: int = 32, salt: bytes = b"") -> bytes:
    """HKDF-SHA256 (RFC 5869) — all derived keys in IronSafe use this.

    TrustZone derives the TA storage key (TASK) from the hardware-unique
    key, the storage TA derives the Merkle-root MAC key, and the monitor
    derives per-session channel keys.  ``info`` provides domain separation.
    """
    prk = _hmac.new(salt or bytes(SHA256_LEN), key, hashlib.sha256).digest()
    out = b""
    block = b""
    counter = 1
    while len(out) < length:
        block = _hmac.new(prk, block + info + bytes([counter]), hashlib.sha256).digest()
        out += block
        counter += 1
    return out[:length]
