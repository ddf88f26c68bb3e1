"""XOF stream cipher: the default page, metadata and channel cipher.

The paper encrypts pages with AES-256-CBC through OpenSSL — a few
microseconds per page in C.  Our from-scratch pure-Python AES
(:mod:`repro.crypto.aes`) is functionally correct but ~10 ms per 4 KiB
page, and since the end-to-end benchmark reports wall-clock beside
simulated time, a cipher that slow would measure the stand-in rather than
the system.  The secure pager and the secure channel therefore default to
this stream cipher, selected as ``cipher="hash-ctr"``:

* **Construction.**  The keystream is the SHAKE-256 extendable-output
  function keyed by ``key ‖ nonce`` — one ``hashlib`` call yields all
  ``len(data)`` bytes — and is XORed into the data on big integers, which
  CPython evaluates in C.  The key is exactly 32 bytes and the nonce
  exactly 16, so the concatenation is unambiguous; other lengths are
  rejected.
* **What it preserves.**  Every architectural property the evaluation
  depends on: a per-page key/IV, ciphertext indistinguishable from random
  on the device and on the wire, a decrypt on every read, and ciphertext
  exactly as long as the plaintext.
* **What differs from earlier commits.**  The keystream used to be
  SHA-256 in counter mode, so page and wire *bytes* differ; lengths,
  every meter count and all simulated time do not.

AES-CBC remains selectable (``cipher="aes-cbc"``) as the paper-faithful
cipher and is exercised by the unit tests.
"""

from __future__ import annotations

import hashlib

from ..errors import CryptoError

KEY_LEN = 32
NONCE_LEN = 16


def hash_ctr_crypt(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """Encrypt/decrypt *data* under the SHAKE-256(key ‖ nonce) keystream.

    The keystream for a shorter input is a prefix of the one for a longer
    input; a (key, nonce) pair must therefore never encrypt two messages.
    """
    if len(key) != KEY_LEN or len(nonce) != NONCE_LEN:
        raise CryptoError(
            f"stream cipher needs a {KEY_LEN}-byte key and a {NONCE_LEN}-byte nonce"
        )
    if not data:
        return b""
    keystream = hashlib.shake_256(key + nonce).digest(len(data))
    value = int.from_bytes(data, "big") ^ int.from_bytes(keystream, "big")
    return value.to_bytes(len(data), "big")
