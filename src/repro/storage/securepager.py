"""Secure pager: confidentiality + integrity + freshness for on-disk pages.

Implements the paper's secure storage framework (§4.1, "Protection for
on-storage data") at the same layer SQLiteCipher hooks SQLite:

* every 4 KiB physical page holds ``IV ‖ ciphertext ‖ HMAC-SHA512``, with
  the MAC computed over (page number ‖ IV ‖ ciphertext) so pages cannot be
  displaced;
* a Merkle tree over the page MACs detects suppression and replay of
  individual pages;
* the tree root is anchored in RPMB through the secure-storage TA, so the
  whole database cannot be rolled back to a stale version.

Every read decrypts and walks the Merkle path (no page cache by default) —
exactly the per-request work that makes freshness dominate the secure
storage overhead in Figures 8 and 9c.  :meth:`SecurePager.enable_cache`
installs an optional in-enclave LRU cache of decrypted, verified payloads
(write-back on commit): a hit stays inside the trust boundary and skips
the device read, MAC check, Merkle walk and decryption entirely, while a
miss — including re-reading an evicted page — repeats the full
verification chain.  With the cache disabled the pager behaves (and
costs) exactly as before.
"""

from __future__ import annotations

from typing import Callable

from ..crypto import (
    KeyedHmac,
    Rng,
    cbc_decrypt,
    cbc_encrypt,
    constant_time_eq,
    hash_ctr_crypt,
    hkdf,
    sha256,
)
from ..errors import FreshnessError, IntegrityError, StorageError
from ..perf import PageCache
from ..sim import PAGE_SIZE, Meter
from ..telemetry import (
    NODE_STORAGE,
    NOOP_TRACER,
    SPAN_MERKLE_VERIFY,
    SPAN_PAGE_CACHE,
    SPAN_PAGE_WRITE,
)
from .blockdevice import BlockDevice
from .merkle import MerkleTree
from .pager import PAYLOAD_SIZE, PLAINTEXT_FRAME

IV_LEN = 16
MAC_LEN = 64
_CT_OFFSET = IV_LEN + 2
_MAX_CT = PAGE_SIZE - IV_LEN - 2 - MAC_LEN

META_LEAVES = "merkle_leaves"
META_PAGE_COUNT = "secure_page_count"
#: Trusted-digest table for authenticated application metadata.  Stored
#: raw on the device; its integrity comes from the combined root anchored
#: in RPMB, not from a MAC of its own.
META_AUTH_DIGESTS = "secure_meta_digests"
#: Device-key namespace for authenticated application metadata blobs.
_META_PREFIX = "ameta:"


class SecureStorageAnchor:
    """Where the trusted root lives.  Production path: the secure-storage TA.

    The pager only needs two operations; binding them through this tiny
    interface lets unit tests run the pager without a full TrustZone stack
    while the integrated system routes both calls through the TA → RPMB.
    """

    def anchor_root(self, root: bytes) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def verify_root(self, root: bytes) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class InMemoryAnchor(SecureStorageAnchor):
    """Test double with RPMB-like semantics (monotonic, last-writer-wins)."""

    def __init__(self) -> None:
        self._root: bytes | None = None

    def anchor_root(self, root: bytes) -> None:
        self._root = bytes(root)

    def verify_root(self, root: bytes) -> None:
        from ..errors import FreshnessError

        if self._root is None:
            return  # first open of an empty store
        if not constant_time_eq(self._root, root):
            raise FreshnessError(
                "Merkle root does not match the anchored value: rollback detected"
            )


class TAAnchor(SecureStorageAnchor):
    """Routes anchor operations through the secure-storage TA (via SMC)."""

    def __init__(self, trusted_os, meter: Meter | None = None):
        self._tos = trusted_os
        self._meter = meter

    def anchor_root(self, root: bytes) -> None:
        self._tos.invoke("secure-storage", "anchor_root", root)
        if self._meter is not None:
            self._meter.rpmb_writes += 2  # root MAC + epoch blocks

    def verify_root(self, root: bytes) -> None:
        self._tos.invoke("secure-storage", "verify_root", root)
        if self._meter is not None:
            self._meter.rpmb_reads += 2


class SecurePager:
    """Encrypted, integrity- and freshness-protected page store."""

    payload_size = PAYLOAD_SIZE

    def __init__(
        self,
        device: BlockDevice,
        master_key: bytes,
        anchor: SecureStorageAnchor,
        rng: Rng,
        meter: Meter | None = None,
        cipher: str = "hash-ctr",
        key_scheme: str = "single",
        cache_pages: int = 0,
    ):
        if cipher not in ("hash-ctr", "aes-cbc"):
            raise StorageError(f"unknown page cipher {cipher!r}")
        if key_scheme not in ("single", "per-page"):
            raise StorageError(f"unknown key scheme {key_scheme!r}")
        self.device = device
        self.anchor = anchor
        self.meter = meter if meter is not None else Meter()
        # Observability hook: emits per-page freshness/write markers when
        # a recording tracer is installed (no-op and branch-free cost
        # otherwise).  The tracer observes counts only — never keys.
        # ``trace_node`` is the node the pager runs on: the storage server
        # normally, the host in the host-only secure configuration.
        self.tracer = NOOP_TRACER
        self.trace_node = NODE_STORAGE
        self.cipher = cipher
        # The paper uses a single symmetric key for all data units "for
        # simplicity ... but other management schemes can be adopted
        # (e.g., one key per unit)" (§4.1).  'per-page' derives a distinct
        # encryption key per page number, so compromising one page key
        # exposes only that page.
        self.key_scheme = key_scheme
        self._rng = rng
        self._enc_key = hkdf(master_key, b"page-encryption", 32)
        self._hmac = KeyedHmac(hkdf(master_key, b"page-mac", 32), "sha512")
        self._merkle_key = hkdf(master_key, b"merkle-tree", 32)
        self._page_keys: dict[int, bytes] = {}

        count_blob = device.read_meta(META_PAGE_COUNT)
        self._page_count = int.from_bytes(count_blob, "big") if count_blob else 0

        leaves_blob = device.read_meta(META_LEAVES)
        if leaves_blob:
            self.tree = MerkleTree.from_serialized(
                self._merkle_key, leaves_blob, meter=self.meter
            )
        else:
            self.tree = MerkleTree(self._merkle_key, 1, meter=self.meter)
        # Authenticated application metadata (catalog-adjacent blobs such
        # as zone maps): each blob is encrypted + MAC'd individually and a
        # trusted digest of every MAC is folded into the anchored root, so
        # forging *or rolling back* a blob is detected.
        self._meta_digests: dict[str, bytes] = {}
        digests_blob = device.read_meta(META_AUTH_DIGESTS)
        if digests_blob:
            for line in digests_blob.decode().splitlines():
                name, _, hexdigest = line.partition("=")
                self._meta_digests[name] = bytes.fromhex(hexdigest)
        # Opening verifies freshness once against the hardware anchor; the
        # root is then cached in trusted memory and checked per read.
        self._trusted_root = self.tree.root
        self.anchor.verify_root(self._anchored_root())
        self._dirty = False
        # Optional in-enclave decrypted-page cache (None = verify every
        # read, the paper's baseline).  ``on_violation`` is an observer the
        # deployment wires to the trusted monitor so storage-side
        # integrity failures land in the audit chain before propagating.
        self.cache: PageCache | None = None
        self.on_violation: Callable[[int, str], None] | None = None
        if cache_pages > 0:
            self.cache = PageCache(cache_pages)

    # ------------------------------------------------------------------

    @property
    def page_count(self) -> int:
        return self._page_count

    def allocate_page(self) -> int:
        pgno = self._page_count
        self._page_count += 1
        self.device.write_meta(META_PAGE_COUNT, self._page_count.to_bytes(8, "big"))
        return pgno

    # -- page crypto -------------------------------------------------------

    def _key_for(self, pgno: int) -> bytes:
        if self.key_scheme == "single":
            return self._enc_key
        key = self._page_keys.get(pgno)
        if key is None:
            key = hkdf(self._enc_key, b"page:" + pgno.to_bytes(8, "big"), 32)
            self._page_keys[pgno] = key
        return key

    def _encrypt(self, pgno: int, iv: bytes, plaintext: bytes) -> bytes:
        key = self._key_for(pgno)
        if self.cipher == "aes-cbc":
            return cbc_encrypt(key, iv, plaintext)
        return hash_ctr_crypt(key, iv, plaintext)

    def _decrypt(self, pgno: int, iv: bytes, ciphertext: bytes) -> bytes:
        key = self._key_for(pgno)
        if self.cipher == "aes-cbc":
            return cbc_decrypt(key, iv, ciphertext)
        return hash_ctr_crypt(key, iv, ciphertext)

    def _page_mac(self, pgno: int, iv: bytes, ciphertext: bytes) -> bytes:
        return self._hmac.mac(pgno.to_bytes(8, "big") + iv + ciphertext)

    # -- authenticated application metadata ---------------------------------

    def _meta_enc_key(self, key: str) -> bytes:
        return hkdf(self._enc_key, b"meta:" + key.encode(), 32)

    def _meta_mac(self, key: str, iv: bytes, ciphertext: bytes) -> bytes:
        # Domain-separated from page MACs: keyed by the metadata name, so a
        # blob cannot be displaced to another key or passed off as a page.
        return self._hmac.mac(b"meta:" + key.encode() + b"\x00" + iv + ciphertext)

    def _meta_root(self) -> bytes | None:
        if not self._meta_digests:
            return None
        acc = b"".join(
            name.encode() + b"\x00" + digest
            for name, digest in sorted(self._meta_digests.items())
        )
        return sha256(acc)

    def _anchored_root(self) -> bytes:
        """The value anchored in RPMB: page-tree root ⊕ metadata digests.

        With no authenticated metadata this is exactly the Merkle root —
        stores that never call :meth:`write_meta` anchor the same bytes
        they always did.
        """
        meta_root = self._meta_root()
        if meta_root is None:
            return self._trusted_root
        return sha256(self._trusted_root + meta_root)

    def write_meta(self, key: str, blob: bytes) -> None:
        """Store an application metadata blob encrypted + MAC'd.

        The MAC's digest joins the anchored root at the next
        :meth:`commit`, extending the rollback protection that covers
        pages to this blob.  Deliberately meter-free: metadata
        maintenance is bookkeeping, not scan work.
        """
        iv = self._rng.bytes(IV_LEN)
        enc_key = self._meta_enc_key(key)
        if self.cipher == "aes-cbc":
            ciphertext = cbc_encrypt(enc_key, iv, blob)
        else:
            ciphertext = hash_ctr_crypt(enc_key, iv, blob)
        mac = self._meta_mac(key, iv, ciphertext)
        self.device.write_meta(
            _META_PREFIX + key,
            iv + len(ciphertext).to_bytes(4, "big") + ciphertext + mac,
        )
        self._meta_digests[key] = sha256(mac)
        self._dirty = True

    def _verify_meta_blob(
        self,
        key: str,
        raw: bytes,
        iv: bytes,
        ciphertext: bytes,
        ct_len: int,
        mac: bytes,
        expected_digest: bytes,
    ) -> None:
        """MAC + trusted-digest verification for one metadata blob.

        The metadata analogue of the Merkle leaf walk: the HMAC proves
        the blob is one we wrote, the anchored digest proves it is the
        *latest* one (a rolled-back blob carries a valid MAC but a stale
        digest).  Split out so the whole authentication decision is one
        auditable unit; nothing may decrypt before it passes.
        """
        if len(raw) != IV_LEN + 4 + ct_len + MAC_LEN or not constant_time_eq(
            self._meta_mac(key, iv, ciphertext), mac
        ):
            raise IntegrityError(
                f"metadata {key!r}: HMAC mismatch — data was tampered with"
            )
        if not constant_time_eq(sha256(mac), expected_digest):
            raise IntegrityError(
                f"metadata {key!r}: does not match the trusted digest "
                "— stale or replayed metadata"
            )

    def read_meta(self, key: str) -> bytes | None:
        """Fetch + verify + decrypt an authenticated metadata blob.

        Raises :class:`IntegrityError` (reported to ``on_violation`` with
        the sentinel page number -1) when the blob was tampered with,
        suppressed, forged from nothing, or rolled back to an older
        validly-MAC'd version.
        """
        expected_digest = self._meta_digests.get(key)
        raw = self.device.read_meta(_META_PREFIX + key)
        if raw is None and expected_digest is None:
            return None
        try:
            if expected_digest is None:
                raise IntegrityError(
                    f"metadata {key!r}: unexpected blob with no trusted digest "
                    "— forged metadata"
                )
            if raw is None:
                raise IntegrityError(
                    f"metadata {key!r}: blob missing — metadata suppressed"
                )
            iv = raw[:IV_LEN]
            ct_len = int.from_bytes(raw[IV_LEN : IV_LEN + 4], "big")
            ciphertext = raw[IV_LEN + 4 : IV_LEN + 4 + ct_len]
            mac = raw[IV_LEN + 4 + ct_len :]
            self._verify_meta_blob(
                key, raw, iv, ciphertext, ct_len, mac, expected_digest
            )
        except IntegrityError as exc:
            self._report_violation(-1, exc)
            raise
        enc_key = self._meta_enc_key(key)
        if self.cipher == "aes-cbc":
            return cbc_decrypt(enc_key, iv, ciphertext)
        return hash_ctr_crypt(enc_key, iv, ciphertext)

    # -- public API ---------------------------------------------------------

    def write_page(self, pgno: int, payload: bytes) -> None:
        """Encrypt + MAC + update the integrity tree, then hit the device.

        With the cache enabled the write is buffered (write-back): the
        plaintext stays in enclave memory, marked dirty, and reaches the
        device — re-encrypted, re-MAC'd, tree updated — when it is
        evicted, flushed or committed.
        """
        if pgno >= self._page_count:
            raise StorageError(f"page {pgno} not allocated")
        if len(payload) > PAYLOAD_SIZE:
            raise StorageError(
                f"payload of {len(payload)} bytes exceeds page capacity {PAYLOAD_SIZE}"
            )
        if self.cache is not None:
            self._cache_insert(pgno, bytes(payload), dirty=True)
            self._dirty = True
            if self.tracer.enabled:
                self.tracer.event(
                    SPAN_PAGE_WRITE, node=self.trace_node, page=pgno, buffered=True
                )
            return
        self._store_page(pgno, payload)

    def _store_page(self, pgno: int, payload: bytes) -> None:
        """The real write path: encrypt, MAC, device write, tree update."""
        frame = len(payload).to_bytes(2, "big") + payload
        frame += bytes(PLAINTEXT_FRAME - len(frame))
        iv = self._rng.bytes(IV_LEN)
        ciphertext = self._encrypt(pgno, iv, frame)
        if len(ciphertext) > _MAX_CT:
            raise StorageError("ciphertext does not fit the physical page")
        mac = self._page_mac(pgno, iv, ciphertext)
        self.meter.pages_encrypted += 1

        physical = bytearray(PAGE_SIZE)
        physical[:IV_LEN] = iv
        physical[IV_LEN:_CT_OFFSET] = len(ciphertext).to_bytes(2, "big")
        physical[_CT_OFFSET : _CT_OFFSET + len(ciphertext)] = ciphertext
        physical[PAGE_SIZE - MAC_LEN :] = mac
        self.device.write_page(pgno, bytes(physical))
        self.meter.pages_written += 1

        self._trusted_root = self.tree.update_leaf(pgno, sha256(mac))
        self._dirty = True
        if self.tracer.enabled:
            self.tracer.event(SPAN_PAGE_WRITE, node=self.trace_node, page=pgno)

    def read_page(self, pgno: int) -> bytes:
        """Verify MAC + Merkle path + decrypt.  Raises on any tampering.

        A cache hit returns the decrypted payload that was verified when
        it entered enclave memory; a miss (or an evicted page) pays the
        full MAC + Merkle + freshness chain again.
        """
        if pgno >= self._page_count:
            raise StorageError(f"page {pgno} not allocated")
        if self.cache is not None:
            payload = self.cache.get(pgno)
            if payload is not None:
                self.meter.bump("page_cache_hits")
                if self.tracer.enabled:
                    self.tracer.event(
                        SPAN_PAGE_CACHE, node=self.trace_node, page=pgno, hit=True
                    )
                return payload
            self.meter.bump("page_cache_misses")
        try:
            iv, ciphertext, mac = self._read_verified(pgno)
            # Freshness: the per-read Merkle walk against the trusted root.
            nodes_before = self.meter.merkle_nodes_hashed
            self.tree.verify_leaf(pgno, sha256(mac), self._trusted_root)
            if self.tracer.enabled:
                self.tracer.event(
                    SPAN_MERKLE_VERIFY,
                    node=self.trace_node,
                    page=pgno,
                    nodes_hashed=self.meter.merkle_nodes_hashed - nodes_before,
                )
            payload = self._decode_frame(pgno, iv, ciphertext)
        except IntegrityError as exc:
            self._report_violation(pgno, exc)
            raise
        if self.cache is not None:
            self._cache_insert(pgno, payload, dirty=False)
        return payload

    def read_pages(self, pgnos: list[int]) -> list[bytes]:
        """Batch read: one amortized Merkle verification for all misses.

        Cache hits are served from enclave memory; the remaining pages are
        MAC-checked individually and then freshness-checked with a single
        :meth:`MerkleTree.verify_leaves` walk that hashes shared path
        prefixes once.  Without a cache this degrades to per-page
        :meth:`read_page` calls (the baseline cost model).
        """
        if self.cache is None:
            return [self.read_page(pgno) for pgno in pgnos]
        results: list[bytes | None] = [None] * len(pgnos)
        pending: dict[int, list[int]] = {}
        hits = 0
        for pos, pgno in enumerate(pgnos):
            if pgno >= self._page_count:
                raise StorageError(f"page {pgno} not allocated")
            payload = self.cache.get(pgno)
            if payload is not None:
                self.meter.bump("page_cache_hits")
                hits += 1
                results[pos] = payload
            else:
                self.meter.bump("page_cache_misses")
                pending.setdefault(pgno, []).append(pos)
        if pending:
            misses = sorted(pending)
            raws: dict[int, tuple[bytes, bytes, bytes]] = {}
            digests: list[bytes] = []
            for pgno in misses:
                try:
                    iv, ciphertext, mac = self._read_verified(pgno)
                except IntegrityError as exc:
                    self._report_violation(pgno, exc)
                    raise
                raws[pgno] = (iv, ciphertext, mac)
                digests.append(sha256(mac))
            nodes_before = self.meter.merkle_nodes_hashed
            try:
                self.tree.verify_leaves(misses, digests, self._trusted_root)
            except IntegrityError:
                # Re-walk per leaf so the violation report names the page.
                for pgno, digest in zip(misses, digests):
                    try:
                        self.tree.verify_leaf(pgno, digest, self._trusted_root)
                    except IntegrityError as exc:
                        self._report_violation(pgno, exc)
                        raise
                raise
            self.meter.bump("merkle_batch_pages", len(misses))
            if self.tracer.enabled:
                self.tracer.event(
                    SPAN_PAGE_CACHE,
                    node=self.trace_node,
                    hits=hits,
                    misses=len(misses),
                    nodes_hashed=self.meter.merkle_nodes_hashed - nodes_before,
                )
            for pgno in misses:
                iv, ciphertext, _mac = raws[pgno]
                try:
                    payload = self._decode_frame(pgno, iv, ciphertext)
                except IntegrityError as exc:
                    self._report_violation(pgno, exc)
                    raise
                self._cache_insert(pgno, payload, dirty=False)
                for pos in pending[pgno]:
                    results[pos] = payload
        return results  # type: ignore[return-value]

    def _read_verified(self, pgno: int) -> tuple[bytes, bytes, bytes]:
        """Device read + frame split + MAC check; returns (iv, ct, mac)."""
        raw = self.device.read_page(pgno)
        self.meter.pages_read += 1

        iv = raw[:IV_LEN]
        ct_len = int.from_bytes(raw[IV_LEN:_CT_OFFSET], "big")
        if ct_len > _MAX_CT:
            raise IntegrityError(f"page {pgno}: corrupt ciphertext length")
        ciphertext = raw[_CT_OFFSET : _CT_OFFSET + ct_len]
        mac = raw[PAGE_SIZE - MAC_LEN :]

        expected_mac = self._page_mac(pgno, iv, ciphertext)
        self.meter.page_macs_verified += 1
        if not constant_time_eq(expected_mac, mac):
            raise IntegrityError(f"page {pgno}: HMAC mismatch — data was tampered with")
        return iv, ciphertext, mac

    def _decode_frame(self, pgno: int, iv: bytes, ciphertext: bytes) -> bytes:
        frame = self._decrypt(pgno, iv, ciphertext)
        self.meter.pages_decrypted += 1
        length = int.from_bytes(frame[:2], "big")
        if length > PAYLOAD_SIZE:
            raise IntegrityError(f"page {pgno}: corrupt plaintext frame")
        return frame[2 : 2 + length]

    def _report_violation(self, pgno: int, exc: IntegrityError) -> None:
        """Surface an integrity failure to the wired-in observer.

        The deployment points this at the trusted monitor so the tampering
        attempt is recorded in the hash-chained audit log *before* the
        exception propagates; the read still fails either way.
        """
        if self.on_violation is not None:
            self.on_violation(pgno, str(exc))

    # -- cache management ---------------------------------------------------

    def enable_cache(self, capacity_pages: int) -> None:
        """Install (or resize) the in-enclave decrypted-page LRU cache.

        A payload enters the cache only after the full MAC + Merkle +
        freshness verification chain; eviction re-encrypts dirty payloads
        on the way out, and re-reading an evicted page repeats the chain.
        """
        self.flush_cache()
        self.cache = PageCache(capacity_pages)

    def disable_cache(self) -> None:
        """Flush and drop the cache, restoring verify-every-read behavior."""
        self.flush_cache()
        self.cache = None

    @property
    def batch_enabled(self) -> bool:
        """Whether scans should prefer the batched :meth:`read_pages` path."""
        return self.cache is not None

    def flush_cache(self) -> None:
        """Write back every dirty cached page (entries stay cached, clean)."""
        if self.cache is None:
            return
        for pgno, payload in self.cache.take_dirty():
            self.meter.bump("page_cache_flushes")
            self._store_page(pgno, payload)

    def _cache_insert(self, pgno: int, payload: bytes, *, dirty: bool) -> None:
        evicted = self.cache.put(pgno, payload, dirty=dirty)
        self.meter.note_memory(len(self.cache) * PAGE_SIZE)
        if evicted is None:
            return
        self.meter.bump("page_cache_evictions")
        victim_pgno, victim_payload, victim_dirty = evicted
        if victim_dirty:
            self.meter.bump("page_cache_flushes")
            self._store_page(victim_pgno, victim_payload)

    def commit(self) -> None:
        """Write back dirty cached pages, persist the integrity tree and
        re-anchor the (page + metadata) root in RPMB."""
        self.flush_cache()
        if not self._dirty:
            return
        self.device.write_meta(META_LEAVES, self.tree.serialize_leaves())
        if self._meta_digests:
            table = "\n".join(
                f"{name}={digest.hex()}"
                for name, digest in sorted(self._meta_digests.items())
            )
            self.device.write_meta(META_AUTH_DIGESTS, table.encode())
        root = self._anchored_root()
        self.anchor.anchor_root(root)
        obsv = self.tracer.obsv
        if obsv is not None:
            # RPMB traffic is observable: the adversary sits on the bus
            # between the TA and the replay-protected block.
            obsv.observe("rpmb", "write", 0, len(root), actor=self.device.name)
        self._dirty = False

    def close(self) -> None:
        self.commit()

    def verify_freshness(self) -> None:
        """Re-check the current root against the hardware anchor.

        A rollback detection (``FreshnessError``) is surfaced through
        ``on_violation`` like any other integrity failure — page -1 marks
        a whole-database violation — before the exception propagates.
        """
        root = self._anchored_root()
        obsv = self.tracer.obsv
        if obsv is not None:
            obsv.observe("rpmb", "read", 0, len(root), actor=self.device.name)
        try:
            self.anchor.verify_root(root)
        except FreshnessError as exc:
            self._report_violation(-1, exc)
            raise

    def tree_size_bytes(self) -> int:
        """Integrity-tree memory footprint (EPC pressure in host-only mode)."""
        return self.tree.size_bytes()
