"""Disk-backed artifact cache tier: warm state that survives restarts.

Trust: **untrusted-but-checked** — stores only untrusted artifact text;
corrupt or forged entries are quarantined or kernel-rejected, never
silently accepted (docs/TRUSTED_BASE.md design rule 1).

The in-memory :class:`~repro.pipeline.cache.ArtifactCache` dies with the
process; every server restart used to start cold.  This module adds a
persistent tier underneath it: one JSON file per cache entry under a root
directory, content-addressed by ``(source digest, options digest)``.

Design rules (mirroring ``docs/TRUSTED_BASE.md``):

* **Only untrusted artifacts are stored** — the pretty-printed Boogie
  program and the rendered certificate text, both plain text.  Kernel
  verdicts are *never* written to disk: the trusted path (certificate
  re-parse + independent kernel check) runs fresh on every request, so a
  poisoned cache entry can cause a spurious rejection but never a false
  acceptance.
* **Atomic writes** — entries are written to a temporary file in the same
  directory and ``os.replace``-d into place, so concurrent workers and
  crashed writers can never expose a half-written entry.
* **Corruption tolerance** — any entry that fails to load (bad JSON,
  missing fields, digest mismatch, wrong format version) is quarantined
  into ``<root>/quarantine/`` and reported as a miss; the service then
  recomputes and overwrites it.
* **LRU size bound** — total payload bytes are capped; loads refresh the
  entry mtime and eviction removes the stalest entries first.  A store
  lists the directories only when its running byte total could pass the
  bound, or after it has written its share of a sixteenth of the bound
  since its last listing (N workers on one root: a 16·N-th each).
  Between listings an instance sees only its own writes, so N workers
  may overshoot by less than a sixteenth of the bound, plus the entries
  being written at that moment (docs/SERVICE.md).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from ..frontend import TranslationOptions

#: On-disk entry format version; bump on incompatible layout changes.
FORMAT_VERSION = 1

#: The disk key: (source digest, options digest) — both hex strings, so
#: the key doubles as a stable filename.
DiskKey = Tuple[str, str]


# Re-exported from the pipeline's unit layer so the disk tier and the
# per-unit cache keys can never disagree about what "same options" means.
from ..pipeline.units import options_digest  # noqa: E402  (re-export)


def _artifacts_digest(artifacts: Dict[str, str]) -> str:
    payload = json.dumps(artifacts, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class DiskCacheStats:
    """Counters for one :class:`DiskCache` instance (not persisted)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    quarantined: int = 0

    def to_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


@dataclass
class DiskEntry:
    """One loaded cache entry."""

    key: DiskKey
    artifacts: Dict[str, str]
    created: float = field(default_factory=time.time)

    @property
    def boogie_text(self) -> Optional[str]:
        return self.artifacts.get("boogie_text")

    @property
    def certificate_text(self) -> Optional[str]:
        return self.artifacts.get("certificate_text")


@dataclass
class UnitDiskEntry:
    """One loaded per-unit envelope (a single method's untrusted artifacts).

    The envelope stores the pretty-printed Boogie procedure and the
    method's certificate block, plus the ``depends`` record — the callee
    names whose *interfaces* the artifacts were built against.  The
    ``depends`` record is load-bearing here: the unit key that addresses
    this envelope folds in those callees' interface digests, which is
    what makes a stale entry unreachable after a spec edit.  It is still
    never trusted — the kernel recomputes dependencies from the
    certificate text on every request it serves.
    """

    unit_key: str
    method: str
    artifacts: Dict[str, str]
    depends: Tuple[str, ...] = ()
    created: float = field(default_factory=time.time)

    @property
    def procedure_text(self) -> Optional[str]:
        return self.artifacts.get("procedure_text")

    @property
    def certificate_block(self) -> Optional[str]:
        return self.artifacts.get("certificate_block")


class DiskCache:
    """Content-addressed, size-bounded, corruption-tolerant entry store.

    Safe for concurrent use by multiple worker processes sharing one
    root: writes are atomic renames, loads tolerate concurrent eviction,
    and the LRU bound is enforced best-effort by the stores that list the
    directories (see :meth:`_account`).
    """

    def __init__(
        self, root: os.PathLike, max_bytes: int = 64 * 1024 * 1024, workers: int = 1
    ):
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.root = Path(root)
        self.max_bytes = max_bytes
        #: How many instances (worker processes) store into ``root``.
        self.workers = max(1, workers)
        self.stats = DiskCacheStats()
        self._lock = threading.Lock()
        # One listing at a time, so each reads the total the last one left.
        self._listing = threading.Lock()
        # The running byte total: what the last listing found (None until
        # the first store lists), plus what this instance stored since.
        self._scanned_bytes: Optional[int] = None
        self._stored_bytes = 0
        self.root.mkdir(parents=True, exist_ok=True)
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        self.units_dir.mkdir(parents=True, exist_ok=True)

    # -- paths -------------------------------------------------------------

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    @property
    def units_dir(self) -> Path:
        return self.root / "units"

    def path_for(self, key: DiskKey) -> Path:
        source_digest, opts_digest = key
        # Shortened digests keep filenames readable; 32+16 hex chars is
        # far beyond accidental-collision range for a local cache.
        return self.root / f"{source_digest[:32]}-{opts_digest[:16]}.json"

    def unit_path_for(self, unit_key: str) -> Path:
        return self.units_dir / f"{unit_key[:40]}.json"

    # -- store / load ------------------------------------------------------

    def store(self, key: DiskKey, artifacts: Dict[str, str]) -> Path:
        """Atomically persist one entry (write temp file, then rename)."""
        if not artifacts:
            raise ValueError("refusing to store an empty artifact set")
        envelope = {
            "format": FORMAT_VERSION,
            "source_digest": key[0],
            "options_digest": key[1],
            "created": time.time(),
            "artifacts": dict(artifacts),
            "digest": _artifacts_digest(artifacts),
        }
        return self._write(self.path_for(key), envelope)

    def load(self, key: DiskKey) -> Optional[DiskEntry]:
        """Load one entry; quarantines and misses on any corruption."""
        path = self.path_for(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except (FileNotFoundError, OSError):
            with self._lock:
                self.stats.misses += 1
            return None
        try:
            envelope = json.loads(raw)
            if envelope["format"] != FORMAT_VERSION:
                raise ValueError(f"unsupported format {envelope['format']!r}")
            if (envelope["source_digest"], envelope["options_digest"]) != tuple(key):
                raise ValueError("entry key does not match its filename")
            artifacts = envelope["artifacts"]
            if not isinstance(artifacts, dict) or not all(
                isinstance(k, str) and isinstance(v, str) for k, v in artifacts.items()
            ):
                raise ValueError("artifacts must be a str→str mapping")
            if envelope["digest"] != _artifacts_digest(artifacts):
                raise ValueError("artifact digest mismatch (bitrot or truncation)")
        except (ValueError, KeyError, TypeError) as error:
            self.quarantine(key, reason=str(error))
            with self._lock:
                self.stats.misses += 1
            return None
        self._touch(path)
        with self._lock:
            self.stats.hits += 1
        return DiskEntry(
            key=key, artifacts=artifacts, created=float(envelope.get("created", 0.0))
        )

    # -- per-unit envelopes ------------------------------------------------

    def store_unit(
        self,
        unit_key: str,
        method: str,
        artifacts: Dict[str, str],
        depends: Tuple[str, ...] = (),
    ) -> Path:
        """Atomically persist one method-unit envelope."""
        if not artifacts:
            raise ValueError("refusing to store an empty artifact set")
        envelope = {
            "format": FORMAT_VERSION,
            "unit_key": unit_key,
            "method": method,
            "depends": list(depends),
            "created": time.time(),
            "artifacts": dict(artifacts),
            "digest": _artifacts_digest(artifacts),
        }
        return self._write(self.unit_path_for(unit_key), envelope)

    def load_unit(self, unit_key: str) -> Optional[UnitDiskEntry]:
        """Load one unit envelope; quarantines and misses on corruption."""
        path = self.unit_path_for(unit_key)
        try:
            raw = path.read_text(encoding="utf-8")
        except (FileNotFoundError, OSError):
            with self._lock:
                self.stats.misses += 1
            return None
        try:
            envelope = json.loads(raw)
            if envelope["format"] != FORMAT_VERSION:
                raise ValueError(f"unsupported format {envelope['format']!r}")
            if envelope["unit_key"] != unit_key:
                raise ValueError("unit key does not match its filename")
            artifacts = envelope["artifacts"]
            if not isinstance(artifacts, dict) or not all(
                isinstance(k, str) and isinstance(v, str) for k, v in artifacts.items()
            ):
                raise ValueError("artifacts must be a str→str mapping")
            if envelope["digest"] != _artifacts_digest(artifacts):
                raise ValueError("artifact digest mismatch (bitrot or truncation)")
            method = envelope["method"]
            if not isinstance(method, str):
                raise ValueError("method must be a string")
            depends = envelope.get("depends", [])
            if not isinstance(depends, list) or not all(
                isinstance(d, str) for d in depends
            ):
                raise ValueError("depends must be a list of method names")
        except (ValueError, KeyError, TypeError) as error:
            self.quarantine_unit(unit_key, reason=str(error))
            with self._lock:
                self.stats.misses += 1
            return None
        self._touch(path)
        with self._lock:
            self.stats.hits += 1
        return UnitDiskEntry(
            unit_key=unit_key,
            method=method,
            artifacts=artifacts,
            depends=tuple(depends),
            created=float(envelope.get("created", 0.0)),
        )

    def quarantine_unit(self, unit_key: str, reason: str = "") -> Optional[Path]:
        """Move a bad unit envelope aside (kept for post-mortems)."""
        path = self.unit_path_for(unit_key)
        target = self.quarantine_dir / f"{path.stem}-{uuid.uuid4().hex[:8]}.bad"
        try:
            os.replace(path, target)
        except (FileNotFoundError, OSError):
            return None
        if reason:
            try:
                (target.with_suffix(".reason")).write_text(reason + "\n", encoding="utf-8")
            except OSError:  # pragma: no cover - advisory only
                pass
        with self._lock:
            self.stats.quarantined += 1
        return target

    def quarantine(self, key: DiskKey, reason: str = "") -> Optional[Path]:
        """Move a bad entry aside (kept for post-mortems, never reloaded)."""
        path = self.path_for(key)
        target = self.quarantine_dir / f"{path.stem}-{uuid.uuid4().hex[:8]}.bad"
        try:
            os.replace(path, target)
        except (FileNotFoundError, OSError):
            return None
        if reason:
            try:
                (target.with_suffix(".reason")).write_text(reason + "\n", encoding="utf-8")
            except OSError:  # pragma: no cover - advisory only
                pass
        with self._lock:
            self.stats.quarantined += 1
        return target

    # -- bookkeeping -------------------------------------------------------

    def _write(self, path: Path, envelope: Dict[str, object]) -> Path:
        """Write ``envelope`` to ``path`` atomically, then count its bytes."""
        data = json.dumps(envelope, sort_keys=True).encode("utf-8")
        tmp = path.with_name(f".tmp-{uuid.uuid4().hex}")
        tmp.write_bytes(data)
        os.replace(tmp, path)
        with self._lock:
            self.stats.stores += 1
        self._account(len(data))
        return path

    @property
    def _slack(self) -> int:
        """The most this instance stores between two listings: its share
        of a sixteenth of the bound, so ``workers`` instances together
        overshoot by less than a sixteenth."""
        return self.max_bytes // (16 * self.workers)

    def _account(self, size: int) -> None:
        """Add one store's bytes to the running total; list and evict only
        when the total could pass ``max_bytes``, or when this instance has
        stored :attr:`_slack` bytes since its last listing.

        The total over-counts an overwrite, a quarantine and another
        instance's eviction, which only brings the next listing sooner.
        What it misses are other instances' stores; the periodic listing
        bounds those (docs/SERVICE.md).
        """
        with self._lock:
            if self._scanned_bytes is not None:
                self._stored_bytes += size
                if (
                    self._scanned_bytes + self._stored_bytes <= self.max_bytes
                    and self._stored_bytes < self._slack
                ):
                    return
        self._evict_to_bound()

    def _touch(self, path: Path) -> None:
        """Refresh an entry's recency (mtime drives LRU eviction)."""
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - entry evicted concurrently
            pass

    def _scan(self, *directories: Path) -> List[Tuple[float, int, str]]:
        """``(mtime, bytes, path)`` of every live entry in ``directories``,
        from one ``os.scandir`` listing each."""
        found = []
        for directory in directories:
            try:
                listing = os.scandir(directory)
            except OSError:  # pragma: no cover - root removed under us
                continue
            with listing:
                for entry in listing:
                    try:
                        if entry.name.endswith(".json") and entry.is_file():
                            stat = entry.stat()
                            found.append((stat.st_mtime, stat.st_size, entry.path))
                    except OSError:  # pragma: no cover - concurrent eviction
                        pass
        return found

    def __len__(self) -> int:
        return len(self._scan(self.root))

    def unit_count(self) -> int:
        return len(self._scan(self.units_dir))

    def total_bytes(self) -> int:
        return sum(size for _, size, _ in self._scan(self.root, self.units_dir))

    def _evict_to_bound(self) -> None:
        """List both tiers, remove least-recently-used entries until they
        hold at most ``max_bytes``, and restart the running total from
        what is left."""
        with self._listing:
            with self._lock:
                stored_before = self._stored_bytes
            entries = self._scan(self.root, self.units_dir)
            total = sum(size for _, size, _ in entries)
            if total > self.max_bytes:
                entries.sort()  # oldest mtime first
                for _, size, path in entries:
                    if total <= self.max_bytes:
                        break
                    try:
                        os.unlink(path)
                    except OSError:  # pragma: no cover - already gone
                        continue
                    total -= size
                    with self._lock:
                        self.stats.evictions += 1
            with self._lock:
                # Stores that counted themselves after the listing began
                # stay counted; if the listing saw them too, they count
                # twice, which errs on the safe side.
                self._scanned_bytes = total
                self._stored_bytes -= stored_before

    def clear(self) -> None:
        """Drop all live entries (quarantine is kept)."""
        with self._listing:
            for _, _, path in self._scan(self.root, self.units_dir):
                try:
                    os.unlink(path)
                except OSError:  # pragma: no cover
                    pass
            with self._lock:
                self.stats = DiskCacheStats()
                self._scanned_bytes = None
                self._stored_bytes = 0
