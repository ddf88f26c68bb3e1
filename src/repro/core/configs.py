"""The five system configurations of the evaluation (paper Table 2),
plus :class:`RunConfig`, the per-query execution options."""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True, kw_only=True)
class RunConfig(ExecOptions):
    """How one query runs: :class:`~repro.sql.ExecOptions` (how its
    statements execute — the fields are documented there) plus its ship form.

    A value, passed per query (``run_query(..., run_config=...)``) or fixed
    for a deployment; the runner hands it to the engines with every call.
    Only the scan-and-ship stage of the vcs/scs runner
    (``Deployment._run_split``; docs/performance.md has what each stage
    charges) has two forms, picked by ``pipeline``:

    * ``pipeline=False`` — *record-framed*: materialize the scan, ship
      ``RECORD_ROWS``-row records, ingest the table.  Nothing overlaps.
      This is the paper's calibrated path and what a
      :class:`~repro.core.deployment.Deployment` built without a run
      config uses, so every figure reproduction keeps its calibration.
    * ``pipeline=True`` (``RunConfig()``) — *streaming*: bounded
      RecordBatches off the operator iterator, with scan | channel crypto
      | host ingest overlapped per batch.  Under ``oblivious="full"`` the
      scan is drained before anything ships, because interleaving sends
      with reads would leak match positions through event order.

    All 24 points of the four fields are run against each other by
    ``tests/test_run_config_lattice.py``; the ones in use are pinned to the
    numbers the code produced before the runner was unified by
    ``tests/golden/split_runner.json``.
    """

    pipeline: bool = True


#: The calibrated paper baseline: materialize, ship serially, no batches.
SERIAL_RUN_CONFIG = RunConfig(pipeline=False)
