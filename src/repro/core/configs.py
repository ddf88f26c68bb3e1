"""The five system configurations of the evaluation (paper Table 2),
plus :class:`RunConfig`, the per-query execution options."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import IronSafeError
from ..oblivious import TIERS
from ..sql import ExecOptions


@dataclass(frozen=True)
class SystemConfig:
    """One row of Table 2."""

    abbrev: str
    description: str
    split_execution: bool
    secure: bool


HONS = SystemConfig("hons", "Host-only, non-secure (NFS-attached storage)", False, False)
HOS = SystemConfig("hos", "Host-only, secure (SGX enclave, remote pages)", False, True)
VCS = SystemConfig("vcs", "Vanilla computational storage (no security)", True, False)
SCS = SystemConfig("scs", "IronSafe (secure computational storage)", True, True)
SOS = SystemConfig("sos", "Storage-only, secure (whole query on ARM)", False, True)

CONFIGS: dict[str, SystemConfig] = {c.abbrev: c for c in (HONS, HOS, VCS, SCS, SOS)}
CONFIG_NAMES = tuple(CONFIGS)

#: Strategy-selection modes for :attr:`RunConfig.strategy`.
STRATEGIES = ("manual", "auto")


@dataclass(frozen=True)
class RunConfig:
    """How one query runs: its ship form, and how its statements execute.

    A value, passed per query (``run_query(..., run_config=...)``) or fixed
    for a deployment; the engines keep no such state between queries — the
    runner hands them :attr:`exec_options` with every call.

    The vcs/scs runner (``Deployment._run_split``; docs/performance.md has
    what each stage charges) goes partition → admit → per-node channels →
    for each ship: route → on each target node: scan-and-ship → host run →
    per-node wall → arbiter → breakdown.  Only the scan-and-ship stage has
    two forms, picked by ``pipeline``:

    * ``pipeline=False`` — *record-framed*: materialize the scan, ship
      ``RECORD_ROWS``-row records, ingest the table.  Nothing overlaps.
      This is the paper's calibrated path and what a
      :class:`~repro.core.deployment.Deployment` built without a run
      config uses, so every figure reproduction keeps its calibration.
    * ``pipeline=True`` (``RunConfig()``) — *streaming*: bounded
      RecordBatches off the operator iterator, with scan | channel crypto
      | host ingest overlapped per batch (optionally zlib-compressed
      before encryption).  Under ``oblivious="full"`` the scan is drained
      before anything ships, because interleaving sends with reads would
      leak match positions through event order.

    Both forms, every other field and all five configurations are pinned
    to the numbers the code produced before the runner was unified by
    ``tests/golden/split_runner.json``.
    """

    pipeline: bool = True
    #: Target encoded-batch size (pre-compression, pre-encryption).
    batch_bytes: int = 64 * 1024
    #: Compress each batch before channel encryption (zlib).
    compress: bool = False
    #: zlib level used when ``compress`` is on.
    compress_level: int = 6
    #: Consult authenticated zone maps to skip pages a sargable filter
    #: provably cannot match (skip-scans).  Off by default: the seed scan
    #: path reads every page.  Synopses are *maintained* either way; this
    #: only gates scan-time consultation.  Note the trade-off documented
    #: in docs/performance.md: data-dependent skipping makes the
    #: page-access pattern a function of the query predicate, which an
    #: adversary observing the device can exploit.
    zone_maps: bool = False
    #: Oblivious-execution tier: ``off`` (the seed behaviour), ``padded``
    #: (page-read schedules padded to fixed predicate-independent shapes,
    #: channel frames padded to fixed ciphertext sizes) or ``full``
    #: (additionally fixes the shipped frame *count* from catalog
    #: statistics and swaps hash join / group-by for oblivious
    #: bitonic-shuffle variants, making the whole observable trace
    #: byte-identical across predicate constants).  See
    #: ``repro.oblivious`` and docs/performance.md for the measured
    #: (sim-time, leakage) ladder.
    oblivious: str = "off"
    #: Batch-at-a-time (morsel) execution: operators exchange typed
    #: column batches (``repro.sql.vector``) instead of single tuples,
    #: with selection-vector filters and per-batch amortized CPU charges
    #: (``CostModel.vector_batch_ns`` / ``vector_value_ns``).  Off by
    #: default — the seed row path.  Composes with ``zone_maps`` (morsel
    #: scans keep the pruned page schedule) and with the oblivious tiers
    #: (the ``full`` tier's bitonic join / group-by stay row-oblivious
    #: above vectorized scans and filters, and the fixed ship schedule
    #: re-batches morsel output rather than being bypassed).
    vectorized: bool = False
    #: How the hons/hos/vcs/scs/sos configuration is chosen.  ``manual``
    #: (the default, and the only mode a single-node
    #: :class:`~repro.core.deployment.Deployment` accepts) runs exactly
    #: the configuration named in :meth:`Deployment.run_query`.  ``auto``
    #: hands the choice to the cost-based offload optimizer of a sharded
    #: deployment (``repro.shard``): it predicts each candidate
    #: configuration's simulated cost from catalog + zone-map statistics
    #: priced through the calibrated :class:`~repro.sim.CostModel`, runs
    #: the argmin, and emits the chosen plan with its predicted-vs-actual
    #: cost into the ``offload_plan`` telemetry span.
    strategy: str = "manual"

    @property
    def exec_options(self) -> ExecOptions:
        """The per-statement slice of this config, handed to the engines
        with every call (they keep no such state between queries)."""
        return ExecOptions(
            zone_maps=self.zone_maps,
            oblivious=self.oblivious,
            vectorized=self.vectorized,
        )

    def __post_init__(self) -> None:
        if self.batch_bytes <= 0:
            raise IronSafeError(f"batch_bytes must be positive, got {self.batch_bytes}")
        if not 1 <= self.compress_level <= 9:
            raise IronSafeError(
                f"compress_level must be in 1-9, got {self.compress_level}"
            )
        if self.compress and not self.pipeline:
            raise IronSafeError(
                "batch compression requires the streaming pipeline "
                "(pipeline=False ships the serial per-row path)"
            )
        if self.oblivious not in TIERS:
            raise IronSafeError(
                f"oblivious tier must be one of {', '.join(TIERS)}; "
                f"got {self.oblivious!r}"
            )
        if self.strategy not in STRATEGIES:
            raise IronSafeError(
                f"strategy must be one of {', '.join(STRATEGIES)}; "
                f"got {self.strategy!r}"
            )


#: The calibrated paper baseline: materialize, ship serially, no batches.
SERIAL_RUN_CONFIG = RunConfig(pipeline=False)
