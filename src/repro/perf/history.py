"""The append-only benchmark history store behind ``repro bench record``.

Trust: **advisory** — performance baselines; nothing here is consulted by
any verdict path (docs/TRUSTED_BASE.md).

One history file is a JSONL sequence of *records*; one record is one
``bench --json`` document plus just enough context to compare it later:

* an **environment fingerprint** (repro version, python version,
  platform, CPU count, ``git describe``) that says where a record came
  from;
* a **content digest** (SHA-256 over the canonical JSON of the report)
  so a truncated or hand-edited baseline is detected at read time
  instead of silently skewing a comparison;
* an optional **label** and a wall-clock timestamp.

The host's speed is measured during the run, not once: a shared host
drifts by up to 2× in spells of seconds to minutes.  While each sample
runs, a :class:`HostReference` times a fixed pure-Python loop (dict,
string, tuple and sort operations that call nothing of the pipeline)
every :data:`REFERENCE_INTERVAL` seconds, and the median lands in the
report's ``meta`` under :data:`HOST_REFERENCE_KEY`.  A slower host moves
both the loop and the stages; a slower stage moves only the stage.  The
comparator divides by the ratio of the two sides' references.

Records are append-only: ``repro bench record`` only ever adds lines, so
the checked-in baselines under ``benchmarks/results/history/`` keep
their history across re-recordings and multiple lines of the same label
act as repeated *samples* for the bootstrap comparator.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Bumped when the record envelope changes shape incompatibly.
SCHEMA_VERSION = 1

#: Where ``repro bench record`` appends by default (relative to the cwd).
DEFAULT_HISTORY_DIR = os.path.join("benchmarks", "results", "history")
DEFAULT_HISTORY_FILE = os.path.join(DEFAULT_HISTORY_DIR, "history.jsonl")

#: The report ``meta`` key of the median reference-loop seconds.
HOST_REFERENCE_KEY = "host_reference_seconds"
#: Seconds between two timings of the reference loop during a sample.
REFERENCE_INTERVAL = 0.01


class HistoryError(ValueError):
    """A history file that cannot be trusted: bad JSON, bad digest, bad shape."""


def _git_describe() -> str:
    """``git describe --always --dirty`` for the checkout, else ``unknown``.

    Best-effort by design: an installed package without a ``.git`` — or a
    machine without git — still fingerprints, just without a revision.
    """
    try:
        completed = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if completed.returncode != 0:
        return "unknown"
    return completed.stdout.strip() or "unknown"


def environment_fingerprint() -> Dict[str, object]:
    """The environment block stamped onto every record (and ``bench --json``).

    ``python`` and ``platform`` keep the exact semantics the pre-observatory
    ``bench --json`` meta block had, so old readers keep working; the rest
    is additive.
    """
    from .. import __version__

    return {
        "repro_version": __version__,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "git_describe": _git_describe(),
    }


def reference_seconds() -> float:
    """Seconds one run of the fixed reference loop takes now."""
    started = time.perf_counter()
    counts: Dict[str, int] = {}
    pairs = []
    for number in range(300):
        key = f"k{number % 37}"
        counts[key] = counts.get(key, 0) + number
        pairs.append((key, number * 3 % 11))
    pairs.sort()
    return time.perf_counter() - started


class HostReference:
    """Times :func:`reference_seconds` before, every
    :data:`REFERENCE_INTERVAL` seconds during, and after a ``with`` block,
    on a thread of its own.  A timing holds the interpreter lock for one
    loop, a fraction of a millisecond and a small share of the interval."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "HostReference":
        self.samples.append(reference_seconds())
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        self.samples.append(reference_seconds())

    def _sample(self) -> None:
        while not self._stop.wait(REFERENCE_INTERVAL):
            self.samples.append(reference_seconds())

    def median(self) -> float:
        return statistics.median(self.samples)


def canonical_json(payload: object) -> str:
    """The canonical serialisation digests are computed over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def report_digest(report: Dict[str, object]) -> str:
    """``sha256:<hex>`` over the canonical JSON of one bench report."""
    return "sha256:" + hashlib.sha256(canonical_json(report).encode("utf-8")).hexdigest()


@dataclass
class HistoryRecord:
    """One line of a history file: a bench report plus its provenance."""

    report: Dict[str, object]
    fingerprint: Dict[str, object]
    digest: str
    label: str = ""
    recorded_unix: float = 0.0
    schema: int = SCHEMA_VERSION
    #: Where the record was read from (not serialised; set by the reader).
    path: str = field(default="", compare=False)
    line: int = field(default=0, compare=False)

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": self.schema,
            "label": self.label,
            "recorded_unix": self.recorded_unix,
            "fingerprint": dict(self.fingerprint),
            "digest": self.digest,
            "report": self.report,
        }

    @classmethod
    def from_dict(
        cls, payload: Dict[str, object], *, verify: bool = True
    ) -> "HistoryRecord":
        if not isinstance(payload, dict) or "report" not in payload:
            raise HistoryError("history record is not an object with a 'report'")
        report = payload["report"]
        if not isinstance(report, dict):
            raise HistoryError("history record 'report' is not an object")
        digest = str(payload.get("digest", ""))
        if verify:
            expected = report_digest(report)
            if digest != expected:
                raise HistoryError(
                    f"history record digest mismatch: stored {digest or '<none>'}, "
                    f"recomputed {expected} — the baseline was corrupted or "
                    f"hand-edited"
                )
        return cls(
            report=report,
            fingerprint=dict(payload.get("fingerprint") or {}),
            digest=digest,
            label=str(payload.get("label", "")),
            recorded_unix=float(payload.get("recorded_unix", 0.0)),
            schema=int(payload.get("schema", SCHEMA_VERSION)),
        )


def make_record(report: Dict[str, object], label: str = "") -> HistoryRecord:
    """Seal one bench report into a record (fingerprint + digest + stamp)."""
    return HistoryRecord(
        report=report,
        fingerprint=environment_fingerprint(),
        digest=report_digest(report),
        label=label,
        recorded_unix=time.time(),
    )


def append_record(path: str, record: HistoryRecord) -> None:
    """Append one record line to ``path``, creating parents as needed."""
    parent = os.path.dirname(os.path.abspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(canonical_json(record.to_dict()) + "\n")


def read_history(path: str, *, verify: bool = True) -> List[HistoryRecord]:
    """All records of one history file, in append order.

    With ``verify`` (the default) every record's digest is recomputed and
    a mismatch raises :class:`HistoryError` — a silently-corrupt baseline
    is worse than no baseline.
    """
    records: List[HistoryRecord] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as error:
                raise HistoryError(f"{path}:{number}: invalid JSON: {error}") from None
            try:
                record = HistoryRecord.from_dict(payload, verify=verify)
            except HistoryError as error:
                raise HistoryError(f"{path}:{number}: {error}") from None
            record.path = path
            record.line = number
            records.append(record)
    if not records:
        raise HistoryError(f"{path}: no history records")
    return records


def latest_record(
    records: List[HistoryRecord], label: Optional[str] = None
) -> HistoryRecord:
    """The most recently appended record (optionally of one label)."""
    candidates = (
        [r for r in records if r.label == label] if label is not None else records
    )
    if not candidates:
        raise HistoryError(f"no history record with label {label!r}")
    return candidates[-1]
