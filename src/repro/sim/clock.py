"""Deterministic simulated time.

All benchmark numbers in this reproduction are *simulated* nanoseconds,
charged against a :class:`SimClock` by the cost model — never wall-clock
time.  That keeps every figure deterministic across machines and lets us
model hardware we do not have (SGX transitions, EPC paging, a 40 GbE link,
an ARM storage server).

Time is tracked per *category* so the per-query overhead breakdowns the
paper reports (Figure 8: ndp / freshness / decryption / other; Figure 9c:
freshness / decryption / rest) fall out of the accounting directly.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

NS_PER_MS = 1_000_000
NS_PER_US = 1_000

# Canonical charge categories.  Anything not listed is legal too — these are
# the ones the benchmark harness knows how to group.
CAT_CPU = "cpu"
CAT_IO = "io"
CAT_NETWORK = "network"
CAT_DECRYPTION = "decryption"
CAT_FRESHNESS = "freshness"
CAT_ENCLAVE_TRANSITIONS = "enclave_transitions"
CAT_EPC_PAGING = "epc_paging"
CAT_CHANNEL_CRYPTO = "channel_crypto"
CAT_ATTESTATION = "attestation"
CAT_POLICY = "policy"
CAT_OTHER = "other"


@dataclass
class TimeBreakdown:
    """Nanoseconds spent, grouped by category."""

    by_category: dict[str, float] = field(default_factory=lambda: defaultdict(float))

    def add(self, category: str, ns: float) -> None:
        if ns < 0:
            raise ValueError("cannot charge negative time")
        self.by_category[category] += ns

    def merge(self, other: "TimeBreakdown") -> "TimeBreakdown":
        for category, ns in other.by_category.items():
            self.by_category[category] += ns
        return self

    @property
    def total_ns(self) -> float:
        return sum(self.by_category.values())

    @property
    def total_ms(self) -> float:
        return self.total_ns / NS_PER_MS

    def ms(self, category: str) -> float:
        return self.by_category.get(category, 0.0) / NS_PER_MS

    def fraction(self, category: str) -> float:
        """Share of total time spent in *category* (0 when total is 0)."""
        total = self.total_ns
        return self.by_category.get(category, 0.0) / total if total else 0.0

    def scaled(self, factor: float) -> "TimeBreakdown":
        out = TimeBreakdown()
        for category, ns in self.by_category.items():
            out.add(category, ns * factor)
        return out

    def copy(self) -> "TimeBreakdown":
        return TimeBreakdown().merge(self)

    def minus(self, earlier: "TimeBreakdown") -> "TimeBreakdown":
        """Per-category difference (for snapshot-based deltas)."""
        out = TimeBreakdown()
        for category, ns in self.by_category.items():
            delta = ns - earlier.by_category.get(category, 0.0)
            if delta > 0:
                out.add(category, delta)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{k}={v / NS_PER_MS:.3f}ms" for k, v in sorted(self.by_category.items())
        )
        return f"TimeBreakdown(total={self.total_ms:.3f}ms, {parts})"


class SimClock:
    """Monotonic simulated clock with category accounting.

    Components call :meth:`charge` as they do work.  ``now_ns`` only moves
    forward.  Overlapping activities (the paper ships filtered records to
    the host asynchronously) are modelled by the deployment layer charging
    only the non-overlapped portion.
    """

    def __init__(self) -> None:
        self._now_ns = 0.0
        self.breakdown = TimeBreakdown()

    @property
    def now_ns(self) -> float:
        return self._now_ns

    @property
    def now_ms(self) -> float:
        return self._now_ns / NS_PER_MS

    def charge(self, ns: float, category: str = CAT_OTHER) -> None:
        """Advance time by *ns*, attributing it to *category*."""
        if ns < 0:
            raise ValueError("cannot charge negative time")
        self._now_ns += ns
        self.breakdown.add(category, ns)
