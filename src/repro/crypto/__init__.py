"""Cryptographic substrate: AES, chaining modes, hashes/KDF, RSA, certificates.

Everything IronSafe needs is implemented here from scratch (block cipher,
signatures, certificates) or pinned to a stdlib primitive (SHA-2, HMAC), so
the library has zero third-party dependencies.
"""

from .aes import AES, BLOCK_SIZE
from .certs import Certificate, issue_certificate, self_signed, verify_chain
from .hashes import (
    KeyedHmac,
    constant_time_eq,
    hkdf,
    hmac_sha256,
    hmac_sha512,
    sha256,
    sha512,
)
from .modes import cbc_decrypt, cbc_encrypt, ctr_crypt, pkcs7_pad, pkcs7_unpad
from .rng import Rng
from .stream import hash_ctr_crypt
from .rsa import PrivateKey, PublicKey, generate_keypair, verify_or_raise

__all__ = [
    "AES",
    "BLOCK_SIZE",
    "Certificate",
    "KeyedHmac",
    "PrivateKey",
    "PublicKey",
    "Rng",
    "cbc_decrypt",
    "cbc_encrypt",
    "constant_time_eq",
    "ctr_crypt",
    "generate_keypair",
    "hash_ctr_crypt",
    "hkdf",
    "hmac_sha256",
    "hmac_sha512",
    "issue_certificate",
    "pkcs7_pad",
    "pkcs7_unpad",
    "self_signed",
    "sha256",
    "sha512",
    "verify_chain",
    "verify_or_raise",
]
