"""The performance regression observatory over the pipeline's instrumentation.

Trust: **advisory** — performance evidence; no verdict path ever consults
it (docs/TRUSTED_BASE.md).  A corrupted baseline or a wrong comparison
can page an operator, never the kernel.

The paper reports wall-clock blowup tables (Tab. 1) and its predecessor
on validating Boogie's VC generation leans on per-phase timing
breakdowns; both treat performance evidence as a first-class artifact.
This package gives the reproduction a memory of its own performance:

* :mod:`repro.perf.history` — an append-only JSONL baseline store under
  ``benchmarks/results/history/``: each record is one ``bench --json``
  document, with the host's reference-loop speed sampled while it ran,
  plus an environment fingerprint and a content digest
  (``repro bench record``);
* :mod:`repro.perf.compare` — the statistical comparator behind
  ``repro bench diff``: one comparison per stage, its seconds summed
  over the files every sample measured, with a bootstrap confidence
  interval on the median ratio and a noise floor, calibrated by the two
  sides' host references so a slower machine does not page.

Hotspots below a stage come from ``python -m cProfile -s cumulative -m
repro.cli certify FILE --timings``.  A running server's per-stage view is the ``repro_stage_seconds{stage}``
histograms on ``/metrics`` (:mod:`repro.service.metrics`).
"""

from .compare import (  # noqa: F401
    DiffReport,
    StageDelta,
    STAGE_FIELDS,
    bootstrap_ratio_ci,
    compare_reports,
    file_records,
)
from .history import (  # noqa: F401
    DEFAULT_HISTORY_DIR,
    DEFAULT_HISTORY_FILE,
    HOST_REFERENCE_KEY,
    HistoryError,
    HistoryRecord,
    HostReference,
    append_record,
    environment_fingerprint,
    latest_record,
    make_record,
    read_history,
    report_digest,
)

__all__ = [
    "DEFAULT_HISTORY_DIR",
    "DEFAULT_HISTORY_FILE",
    "DiffReport",
    "HOST_REFERENCE_KEY",
    "HistoryError",
    "HistoryRecord",
    "HostReference",
    "STAGE_FIELDS",
    "StageDelta",
    "append_record",
    "bootstrap_ratio_ci",
    "compare_reports",
    "environment_fingerprint",
    "file_records",
    "latest_record",
    "make_record",
    "read_history",
    "report_digest",
]
