"""Secure channel between host and storage engines.

TLS-equivalent construction over the simulated network: the session key
(distributed by the trusted monitor after attesting both ends) derives
separate encryption and MAC keys *per direction*, bound to the two
endpoint names; every record carries a sequence number (replay
protection) and an HMAC over (sequence ‖ ciphertext).  Payloads are
really encrypted — a test reading link traffic sees ciphertext only.

Both ends count their records from sequence 0 and several storage nodes
share one session key, so without the (sender → receiver) binding two
records would share a keystream and a record reflected to its sender
would verify as peer data.
"""

from __future__ import annotations

import struct

from ..crypto import KeyedHmac, constant_time_eq, hash_ctr_crypt, hkdf
from ..errors import ChannelError
from ..sim import Meter, NetworkLink
from ..telemetry import NOOP_TRACER, SPAN_CHANNEL_SEND, Tracer

_SEQ = struct.Struct(">Q")
_MAC_LEN = 32


def _direction_keys(
    session_key: bytes, sender: str, receiver: str
) -> tuple[bytes, KeyedHmac]:
    """Cipher key and record MAC for records flowing *sender* → *receiver*."""
    direction = f"{sender}->{receiver}".encode()
    return (
        hkdf(session_key, b"channel-enc:" + direction, 32),
        KeyedHmac(hkdf(session_key, b"channel-mac:" + direction, 32), "sha256"),
    )


class SecureChannel:
    """One endpoint of a channel: sends to, and receives from, *peer*."""

    def __init__(
        self,
        link: NetworkLink,
        local: str,
        peer: str,
        session_key: bytes,
        meter: Meter | None = None,
        tracer: Tracer | None = None,
    ):
        self.link = link
        self.local = local
        self.peer = peer
        self._send_key, self._send_hmac = _direction_keys(session_key, local, peer)
        self._recv_key, self._recv_hmac = _direction_keys(session_key, peer, local)
        self.meter = meter if meter is not None else Meter()
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self._send_seq = 0
        self._recv_seq = 0

    def _nonce(self, seq: int) -> bytes:
        return b"chan" + _SEQ.pack(seq) + bytes(4)

    def send(self, payload: bytes, charge_time: bool = True) -> None:
        """Encrypt-then-MAC and put the record on the wire."""
        seq = self._send_seq
        self._send_seq += 1
        header = _SEQ.pack(seq)
        ciphertext = hash_ctr_crypt(self._send_key, self._nonce(seq), payload)
        record = header + self._send_hmac.mac(header + ciphertext) + ciphertext
        # Meter the *ciphertext* length, mirroring receive(), so the two
        # ends always charge the same quantity.
        self.meter.channel_bytes_encrypted += len(ciphertext)
        if self.tracer.enabled:
            self.tracer.event(
                SPAN_CHANNEL_SEND, node=self.local, seq=seq, bytes=len(payload)
            )
        if self.tracer.obsv is not None:
            # The adversary sees the whole wire record (seq + MAC +
            # ciphertext) and the direction — never the payload length.
            self.tracer.obsv.observe(
                "channel", "send", seq, len(record),
                actor=f"{self.local}->{self.peer}",
            )
        self.link.send(self.local, self.peer, record, meter=self.meter, charge_time=charge_time)

    def receive(self) -> bytes:
        """Pop, verify and decrypt the next record."""
        sender, record = self.link.receive(self.local, meter=self.meter)
        if sender != self.peer:
            raise ChannelError(f"record from unexpected sender {sender!r}")
        if len(record) < _SEQ.size + _MAC_LEN:
            raise ChannelError("short channel record")
        (seq,) = _SEQ.unpack_from(record, 0)
        mac = record[_SEQ.size : _SEQ.size + _MAC_LEN]
        ciphertext = record[_SEQ.size + _MAC_LEN :]
        if seq != self._recv_seq:
            raise ChannelError(
                f"sequence {seq} out of order (expected {self._recv_seq}): replay or drop"
            )
        expected = self._recv_hmac.mac(_SEQ.pack(seq) + ciphertext)
        if not constant_time_eq(expected, mac):
            raise ChannelError("channel record MAC invalid: tampering detected")
        self._recv_seq += 1
        self.meter.channel_bytes_encrypted += len(ciphertext)
        if self.tracer.obsv is not None:
            self.tracer.obsv.observe(
                "channel", "recv", seq, len(record),
                actor=f"{self.peer}->{self.local}",
            )
        return hash_ctr_crypt(self._recv_key, self._nonce(seq), ciphertext)


def channel_pair(
    link: NetworkLink,
    name_a: str,
    name_b: str,
    session_key: bytes,
    meter_a: Meter | None = None,
    meter_b: Meter | None = None,
    tracer: Tracer | None = None,
) -> tuple[SecureChannel, SecureChannel]:
    """Create both ends of a channel (endpoints must be pre-registered)."""
    a = SecureChannel(link, name_a, name_b, session_key, meter_a, tracer=tracer)
    b = SecureChannel(link, name_b, name_a, session_key, meter_b, tracer=tracer)
    return a, b
