"""HMAC-based Merkle tree over page MACs.

The paper builds integrity protection in two steps: an HMAC per 4 KiB data
unit, then a Merkle tree (also HMAC-based) whose leaves are those page
MACs.  The tree prevents an adversary with physical access from silently
*displacing* or *suppressing* units (a per-page MAC alone would let pages
be swapped or dropped); anchoring the root in RPMB adds freshness.

The tree is a complete binary tree stored level-by-level in flat lists.
Absent leaves are a fixed empty digest, so the tree can grow lazily as the
database allocates pages.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from ..crypto import KeyedHmac, constant_time_eq
from ..errors import IntegrityError
from ..sim import Meter

DIGEST_LEN = 32
_EMPTY = bytes(DIGEST_LEN)


class MerkleTree:
    """Integrity tree keyed with a dedicated HMAC key.

    ``meter`` (optional) counts every node hash computed — the freshness
    cost in Figures 8/9c is exactly this count times the per-hash cost.
    """

    def __init__(
        self,
        key: bytes,
        num_leaves: int,
        meter: Meter | None = None,
        *,
        leaves: Sequence[bytes] = (),
    ):
        """A tree of *num_leaves* leaves: the given *leaves* first, the rest
        empty.  Every interior node is hashed exactly once."""
        if num_leaves <= 0:
            raise IntegrityError("tree needs at least one leaf")
        self._hmac = KeyedHmac(key, "sha256")
        self.meter = meter
        self.num_leaves = num_leaves
        self._capacity = 1 << max(1, math.ceil(math.log2(num_leaves)))
        # levels[0] = leaves .. levels[-1] = [root]
        self._levels: list[list[bytes]] = [
            [*leaves, *[_EMPTY] * (self._capacity - len(leaves))]
        ]
        width = self._capacity // 2
        while width >= 1:
            self._levels.append([_EMPTY] * width)
            width //= 2
        self._rebuild_all()

    # ------------------------------------------------------------------

    def _hash_pair(self, level: int, index: int, left: bytes, right: bytes) -> bytes:
        if self.meter is not None:
            self.meter.merkle_nodes_hashed += 1
        header = level.to_bytes(2, "big") + index.to_bytes(6, "big")
        return self._hmac.mac(header + left + right)

    def _rebuild_all(self) -> None:
        for level in range(1, len(self._levels)):
            below = self._levels[level - 1]
            here = self._levels[level]
            for i in range(len(here)):
                here[i] = self._hash_pair(level, i, below[2 * i], below[2 * i + 1])

    @property
    def depth(self) -> int:
        return len(self._levels) - 1

    @property
    def root(self) -> bytes:
        return self._levels[-1][0]

    def size_bytes(self) -> int:
        """In-memory footprint of the tree (drives EPC pressure in `hos`).

        Counts populated leaves plus the same again for internal nodes —
        a sparse representation's footprint, proportional to the database
        size rather than the power-of-two capacity.
        """
        return 2 * self.num_leaves * DIGEST_LEN

    # ------------------------------------------------------------------

    def _grow_to(self, leaf_index: int) -> None:
        while leaf_index >= self._capacity:
            self._capacity *= 2
            for level in self._levels:
                level.extend([_EMPTY] * len(level))
            self._levels.append([_EMPTY])
            # Recompute everything above the (now wider) leaf level.
            self._rebuild_all()
        if leaf_index >= self.num_leaves:
            self.num_leaves = leaf_index + 1

    def update_leaf(self, leaf_index: int, digest: bytes) -> bytes:
        """Set a leaf and re-hash its path to the root; returns new root."""
        if leaf_index < 0:
            raise IntegrityError("negative leaf index")
        self._grow_to(leaf_index)
        self._levels[0][leaf_index] = digest
        index = leaf_index
        for level in range(1, len(self._levels)):
            index //= 2
            below = self._levels[level - 1]
            self._levels[level][index] = self._hash_pair(
                level, index, below[2 * index], below[2 * index + 1]
            )
        return self.root

    def leaf(self, leaf_index: int) -> bytes:
        if not 0 <= leaf_index < self._capacity:
            raise IntegrityError(f"leaf {leaf_index} out of range")
        return self._levels[0][leaf_index]

    def verify_leaf(self, leaf_index: int, digest: bytes, expected_root: bytes) -> None:
        """Recompute the leaf's path and compare against *expected_root*.

        This is the per-read freshness walk the storage engine performs:
        log2(N) HMACs per page request.  Raises :class:`IntegrityError`
        when the stored leaf differs from *digest* or the recomputed root
        does not match.
        """
        if not 0 <= leaf_index < self._capacity:
            raise IntegrityError(f"leaf {leaf_index} out of range")
        if not constant_time_eq(self._levels[0][leaf_index], digest):
            raise IntegrityError(
                f"page MAC for leaf {leaf_index} does not match the integrity tree"
            )
        current = digest
        index = leaf_index
        for level in range(1, len(self._levels)):
            sibling_index = index ^ 1
            sibling = self._levels[level - 1][sibling_index]
            if index % 2 == 0:
                current = self._hash_pair(level, index // 2, current, sibling)
            else:
                current = self._hash_pair(level, index // 2, sibling, current)
            index //= 2
        if not constant_time_eq(current, expected_root):
            raise IntegrityError("Merkle path does not reach the trusted root")

    def verify_leaves(
        self,
        leaf_indices: list[int],
        digests: list[bytes],
        expected_root: bytes,
    ) -> None:
        """Batch-verify several leaves against *expected_root* at once.

        Recomputes the *union* of the leaves' root paths level by level,
        hashing every shared interior node once instead of once per leaf —
        for a contiguous K-page scan this costs ~K + log2(N) HMACs rather
        than the K*log2(N) of per-leaf :meth:`verify_leaf` walks.  Exactly
        the same tree positions are authenticated: every recomputed parent
        uses recomputed children where available and stored siblings
        otherwise, and the final recomputed root is compared against
        *expected_root*.  Raises :class:`IntegrityError` on any leaf
        mismatch or a root that does not verify.
        """
        if len(leaf_indices) != len(digests):
            raise IntegrityError("batch verify: index/digest count mismatch")
        if not leaf_indices:
            return
        current: dict[int, bytes] = {}
        for leaf_index, digest in zip(leaf_indices, digests):
            if not 0 <= leaf_index < self._capacity:
                raise IntegrityError(f"leaf {leaf_index} out of range")
            if not constant_time_eq(self._levels[0][leaf_index], digest):
                raise IntegrityError(
                    f"page MAC for leaf {leaf_index} does not match the integrity tree"
                )
            current[leaf_index] = digest
        for level in range(1, len(self._levels)):
            below = self._levels[level - 1]
            parents: dict[int, bytes] = {}
            for index in sorted(current):
                parent = index // 2
                if parent in parents:
                    continue  # sibling already folded in with this parent
                left_i, right_i = 2 * parent, 2 * parent + 1
                left = current[left_i] if left_i in current else below[left_i]
                right = current[right_i] if right_i in current else below[right_i]
                parents[parent] = self._hash_pair(level, parent, left, right)
            current = parents
        if not constant_time_eq(current[0], expected_root):
            raise IntegrityError("Merkle path does not reach the trusted root")

    # ------------------------------------------------------------------
    # Persistence: leaves round-trip through the device metadata region.
    # ------------------------------------------------------------------

    def serialize_leaves(self) -> bytes:
        return b"".join(self._levels[0][: self.num_leaves])

    @classmethod
    def from_serialized(
        cls, key: bytes, blob: bytes, meter: Meter | None = None
    ) -> "MerkleTree":
        if len(blob) % DIGEST_LEN:
            raise IntegrityError("corrupt serialized Merkle leaves")
        leaves = [blob[i : i + DIGEST_LEN] for i in range(0, len(blob), DIGEST_LEN)]
        return cls(key, max(1, len(leaves)), meter=meter, leaves=leaves)
