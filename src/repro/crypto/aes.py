"""A from-scratch AES (FIPS-197) block cipher.

The paper's secure storage layer encrypts every 4 KiB database page with
AES-256-CBC (via SQLiteCipher/OpenSSL).  The Python standard library ships
hashes and HMAC but no block cipher, so we implement AES here.  The
implementation favours clarity over speed (~10 ms per page), which keeps
the reproduction dependency-free but is far too slow for the wall-clock
the end-to-end benchmark reports; it is the paper-faithful cipher that
``SecurePager(cipher="aes-cbc")`` selects and the unit tests exercise,
while the default page cipher is the C-speed stand-in in
:mod:`repro.crypto.stream`.  Simulated time charges the same per-page
decrypt cost under either cipher.

Only the pieces IronSafe needs are exposed: the raw block transform for
128/192/256-bit keys.  Chaining modes live in :mod:`repro.crypto.modes`.
"""

from __future__ import annotations

from ..errors import CryptoError

BLOCK_SIZE = 16

# --- S-box generation -------------------------------------------------------
# We derive the S-box from GF(2^8) inversion + the affine transform rather
# than pasting a 256-entry table: it is self-checking (a typo in a table is
# invisible; a bug in the derivation breaks known-answer tests loudly).


def _xtime(a: int) -> int:
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gmul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8) with the AES polynomial."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _build_sbox() -> tuple[bytes, bytes]:
    # Build the multiplicative inverse table via exponentiation by a
    # generator (3 generates the multiplicative group of GF(2^8)).
    exp = [0] * 256
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x = _gmul(x, 3)
    exp[255] = exp[0]

    sbox = bytearray(256)
    inv_sbox = bytearray(256)
    for value in range(256):
        inv = 0 if value == 0 else exp[255 - log[value]]
        # Affine transform over GF(2).
        s = inv
        result = 0x63
        for shift in range(8):
            bit = (
                (s >> shift)
                ^ (s >> ((shift + 4) % 8))
                ^ (s >> ((shift + 5) % 8))
                ^ (s >> ((shift + 6) % 8))
                ^ (s >> ((shift + 7) % 8))
            ) & 1
            result ^= bit << shift
        sbox[value] = result
    for value in range(256):
        inv_sbox[sbox[value]] = value
    return bytes(sbox), bytes(inv_sbox)


SBOX, INV_SBOX = _build_sbox()

_RCON = [0x01]
while len(_RCON) < 14:
    _RCON.append(_xtime(_RCON[-1]))

# Precomputed multiplication tables for MixColumns / InvMixColumns.
_MUL2 = bytes(_gmul(i, 2) for i in range(256))
_MUL3 = bytes(_gmul(i, 3) for i in range(256))
_MUL9 = bytes(_gmul(i, 9) for i in range(256))
_MUL11 = bytes(_gmul(i, 11) for i in range(256))
_MUL13 = bytes(_gmul(i, 13) for i in range(256))
_MUL14 = bytes(_gmul(i, 14) for i in range(256))

_ROUNDS_BY_KEYLEN = {16: 10, 24: 12, 32: 14}


class AES:
    """AES block cipher for a fixed key.

    >>> cipher = AES(bytes(32))
    >>> block = cipher.encrypt_block(bytes(16))
    >>> cipher.decrypt_block(block) == bytes(16)
    True
    """

    def __init__(self, key: bytes):
        if len(key) not in _ROUNDS_BY_KEYLEN:
            raise CryptoError(f"AES key must be 16/24/32 bytes, got {len(key)}")
        self.key = bytes(key)
        self.rounds = _ROUNDS_BY_KEYLEN[len(key)]
        self._round_keys = self._expand_key(self.key)

    # -- key schedule --------------------------------------------------------

    def _expand_key(self, key: bytes) -> list[list[int]]:
        nk = len(key) // 4
        words = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
        total_words = 4 * (self.rounds + 1)
        for i in range(nk, total_words):
            temp = list(words[i - 1])
            if i % nk == 0:
                temp = temp[1:] + temp[:1]
                temp = [SBOX[b] for b in temp]
                temp[0] ^= _RCON[i // nk - 1]
            elif nk > 6 and i % nk == 4:
                temp = [SBOX[b] for b in temp]
            words.append([a ^ b for a, b in zip(words[i - nk], temp)])
        # Group words into 16-byte round keys (flat lists of 16 ints).
        round_keys = []
        for r in range(self.rounds + 1):
            rk: list[int] = []
            for w in words[4 * r : 4 * r + 4]:
                rk.extend(w)
            round_keys.append(rk)
        return round_keys

    # -- round functions (state is a flat list of 16 bytes, column-major) ----

    @staticmethod
    def _shift_rows(s: list[int]) -> list[int]:
        return [
            s[0], s[5], s[10], s[15],
            s[4], s[9], s[14], s[3],
            s[8], s[13], s[2], s[7],
            s[12], s[1], s[6], s[11],
        ]

    @staticmethod
    def _inv_shift_rows(s: list[int]) -> list[int]:
        return [
            s[0], s[13], s[10], s[7],
            s[4], s[1], s[14], s[11],
            s[8], s[5], s[2], s[15],
            s[12], s[9], s[6], s[3],
        ]

    @staticmethod
    def _mix_columns(s: list[int]) -> list[int]:
        out = [0] * 16
        for c in range(4):
            a0, a1, a2, a3 = s[4 * c : 4 * c + 4]
            out[4 * c + 0] = _MUL2[a0] ^ _MUL3[a1] ^ a2 ^ a3
            out[4 * c + 1] = a0 ^ _MUL2[a1] ^ _MUL3[a2] ^ a3
            out[4 * c + 2] = a0 ^ a1 ^ _MUL2[a2] ^ _MUL3[a3]
            out[4 * c + 3] = _MUL3[a0] ^ a1 ^ a2 ^ _MUL2[a3]
        return out

    @staticmethod
    def _inv_mix_columns(s: list[int]) -> list[int]:
        out = [0] * 16
        for c in range(4):
            a0, a1, a2, a3 = s[4 * c : 4 * c + 4]
            out[4 * c + 0] = _MUL14[a0] ^ _MUL11[a1] ^ _MUL13[a2] ^ _MUL9[a3]
            out[4 * c + 1] = _MUL9[a0] ^ _MUL14[a1] ^ _MUL11[a2] ^ _MUL13[a3]
            out[4 * c + 2] = _MUL13[a0] ^ _MUL9[a1] ^ _MUL14[a2] ^ _MUL11[a3]
            out[4 * c + 3] = _MUL11[a0] ^ _MUL13[a1] ^ _MUL9[a2] ^ _MUL14[a3]
        return out

    # -- public block API -----------------------------------------------------

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise CryptoError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        rk = self._round_keys
        state = [b ^ k for b, k in zip(block, rk[0])]
        for r in range(1, self.rounds):
            state = [SBOX[b] for b in state]
            state = self._shift_rows(state)
            state = self._mix_columns(state)
            state = [b ^ k for b, k in zip(state, rk[r])]
        state = [SBOX[b] for b in state]
        state = self._shift_rows(state)
        state = [b ^ k for b, k in zip(state, rk[self.rounds])]
        return bytes(state)

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise CryptoError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        rk = self._round_keys
        state = [b ^ k for b, k in zip(block, rk[self.rounds])]
        state = self._inv_shift_rows(state)
        state = [INV_SBOX[b] for b in state]
        for r in range(self.rounds - 1, 0, -1):
            state = [b ^ k for b, k in zip(state, rk[r])]
            state = self._inv_mix_columns(state)
            state = self._inv_shift_rows(state)
            state = [INV_SBOX[b] for b in state]
        state = [b ^ k for b, k in zip(state, rk[0])]
        return bytes(state)
