"""Simulated network link between the host and the storage server.

Models the paper's testbed link: 40 GbE physical, ~850 MB/s single-stream
goodput (measured identically for NFS and IronSafe's channel, §6.1).  The
link moves real bytes between endpoints (so encryption and MACs are
actually exercised) and charges simulated time for bandwidth + latency.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..errors import ChannelError
from .clock import CAT_NETWORK, SimClock
from .costmodel import CostModel
from .meter import Meter
from .pricing import message_ns


@dataclass
class Endpoint:
    """One side of the link, identified by name."""

    name: str
    inbox: deque = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.inbox is None:
            self.inbox = deque()


class NetworkLink:
    """A point-to-point, lossless, in-order simulated link."""

    def __init__(self, clock: SimClock, cost_model: CostModel):
        self.clock = clock
        self.cost_model = cost_model
        self._endpoints: dict[str, Endpoint] = {}
        self.total_bytes = 0
        self.total_messages = 0

    def register(self, name: str) -> Endpoint:
        if name in self._endpoints:
            raise ChannelError(f"endpoint {name!r} already registered")
        endpoint = Endpoint(name)
        self._endpoints[name] = endpoint
        return endpoint

    def send(
        self,
        sender: str,
        recipient: str,
        payload: bytes,
        meter: Meter | None = None,
        charge_time: bool = True,
    ) -> None:
        """Deliver *payload* from *sender* to *recipient*.

        Charges bandwidth + latency unless *charge_time* is False (used
        when the caller models the transfer as overlapped with compute).
        """
        if recipient not in self._endpoints:
            raise ChannelError(f"unknown endpoint {recipient!r}")
        if sender not in self._endpoints:
            raise ChannelError(f"unknown endpoint {sender!r}")
        self._endpoints[recipient].inbox.append((sender, bytes(payload)))
        self.total_bytes += len(payload)
        self.total_messages += 1
        if meter is not None:
            meter.bytes_sent += len(payload)
            meter.messages_sent += 1
        if charge_time:
            self.clock.charge(message_ns(self.cost_model, len(payload)), CAT_NETWORK)

    def receive(self, recipient: str, meter: Meter | None = None) -> tuple[str, bytes]:
        """Pop the oldest message addressed to *recipient*."""
        endpoint = self._endpoints.get(recipient)
        if endpoint is None:
            raise ChannelError(f"unknown endpoint {recipient!r}")
        if not endpoint.inbox:
            raise ChannelError(f"no message waiting for {recipient!r}")
        sender, payload = endpoint.inbox.popleft()
        if meter is not None:
            meter.bytes_received += len(payload)
        return sender, payload

    def pending(self, recipient: str) -> int:
        endpoint = self._endpoints.get(recipient)
        return len(endpoint.inbox) if endpoint else 0
