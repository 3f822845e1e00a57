"""Disk-cache tier tests: round-trips, corruption, LRU, option digests."""

from __future__ import annotations

import json
import os
import sys
import threading

import pytest

from repro.frontend import TranslationOptions
from repro.service.diskcache import (
    DiskCache,
    FORMAT_VERSION,
    options_digest,
)

KEY = ("a" * 64, "b" * 64)
OTHER = ("c" * 64, "d" * 64)
ARTIFACTS = {"boogie_text": "procedure p() {}", "certificate_text": "(cert)"}


class TestRoundTrip:
    def test_store_then_load_returns_artifacts(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.store(KEY, ARTIFACTS)
        entry = cache.load(KEY)
        assert entry is not None
        assert entry.artifacts == ARTIFACTS
        assert entry.boogie_text == ARTIFACTS["boogie_text"]
        assert entry.certificate_text == ARTIFACTS["certificate_text"]
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1

    def test_entries_survive_a_simulated_restart(self, tmp_path):
        """A new DiskCache over the same root sees the old entries."""
        DiskCache(tmp_path).store(KEY, ARTIFACTS)
        reopened = DiskCache(tmp_path)
        entry = reopened.load(KEY)
        assert entry is not None
        assert entry.artifacts == ARTIFACTS
        assert reopened.stats.hits == 1

    def test_missing_entry_is_a_counted_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.load(KEY) is None
        assert cache.stats.misses == 1

    def test_store_refuses_empty_artifacts(self, tmp_path):
        with pytest.raises(ValueError):
            DiskCache(tmp_path).store(KEY, {})

    def test_len_and_clear(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.store(KEY, ARTIFACTS)
        cache.store(OTHER, ARTIFACTS)
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0
        assert cache.load(KEY) is None


class TestCorruption:
    def test_truncated_json_is_quarantined_and_missed(self, tmp_path):
        cache = DiskCache(tmp_path)
        path = cache.store(KEY, ARTIFACTS)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert cache.load(KEY) is None
        assert cache.stats.quarantined == 1
        # The bad entry has been moved aside, not deleted.
        assert not path.exists()
        assert list(cache.quarantine_dir.glob("*.bad"))

    def test_bitflipped_artifact_fails_the_digest_check(self, tmp_path):
        cache = DiskCache(tmp_path)
        path = cache.store(KEY, ARTIFACTS)
        envelope = json.loads(path.read_text())
        envelope["artifacts"]["certificate_text"] = "(tampered)"
        path.write_text(json.dumps(envelope))
        assert cache.load(KEY) is None
        assert cache.stats.quarantined == 1
        reasons = list(cache.quarantine_dir.glob("*.reason"))
        assert reasons and "digest mismatch" in reasons[0].read_text()

    def test_wrong_format_version_is_quarantined(self, tmp_path):
        cache = DiskCache(tmp_path)
        path = cache.store(KEY, ARTIFACTS)
        envelope = json.loads(path.read_text())
        envelope["format"] = FORMAT_VERSION + 1
        path.write_text(json.dumps(envelope))
        assert cache.load(KEY) is None
        assert cache.stats.quarantined == 1

    def test_entry_under_the_wrong_filename_is_rejected(self, tmp_path):
        """A valid envelope copied onto another key's path must not load."""
        cache = DiskCache(tmp_path)
        path = cache.store(KEY, ARTIFACTS)
        os.replace(path, cache.path_for(OTHER))
        assert cache.load(OTHER) is None
        assert cache.stats.quarantined == 1

    def test_quarantine_recovers_after_recompute(self, tmp_path):
        cache = DiskCache(tmp_path)
        path = cache.store(KEY, ARTIFACTS)
        path.write_text("not json at all")
        assert cache.load(KEY) is None
        cache.store(KEY, ARTIFACTS)  # the service recomputes + overwrites
        entry = cache.load(KEY)
        assert entry is not None and entry.artifacts == ARTIFACTS


class TestEviction:
    def _key(self, i: int):
        # Vary the *leading* hex chars: path_for truncates digests, so a
        # suffix-only difference would alias every key to one filename.
        return ((f"{i:x}" * 64)[:64], "0" * 64)

    def test_lru_eviction_keeps_total_under_the_bound(self, tmp_path):
        cache = DiskCache(tmp_path, max_bytes=2_000)
        for i in range(8):
            cache.store(self._key(i), {"boogie_text": "x" * 300})
        assert cache.total_bytes() <= 2_000
        assert len(cache) < 8
        assert cache.stats.evictions > 0

    def test_recently_loaded_entries_are_kept(self, tmp_path):
        cache = DiskCache(tmp_path, max_bytes=3_000)
        for i in range(4):
            path = cache.store(self._key(i), {"boogie_text": "x" * 300})
            # Make mtimes strictly increasing without sleeping.
            os.utime(path, (1_000_000 + i, 1_000_000 + i))
        # Touch entry 0 so it becomes the most recent.
        entry_zero = cache.path_for(self._key(0))
        os.utime(entry_zero, (2_000_000, 2_000_000))
        cache.max_bytes = 1  # force eviction down to (almost) nothing
        cache._evict_to_bound()
        survivors = list(cache.root.glob("*.json"))
        # Entry 0 is evicted last: if anything survives it is entry 0.
        assert all(p == entry_zero for p in survivors)

    def test_rejects_nonpositive_bound(self, tmp_path):
        with pytest.raises(ValueError):
            DiskCache(tmp_path, max_bytes=0)


class TestRunningTotal:
    """A store lists the cache directories only when its running byte
    total could pass the bound, or after it has stored its share of a
    sixteenth of the bound since its last listing (docs/SERVICE.md,
    § Operations)."""

    def _key(self, i: int):
        # Distinct in the prefix that names the file (see path_for).
        return (f"{i:032x}" * 2, "0" * 64)

    def _store(self, cache, i: int, payload: int = 300):
        """Store entry ``i`` in the file tier (even) or the unit tier (odd)."""
        if i % 2:
            return cache.store_unit(
                f"{i:040x}", f"m{i}",
                {"procedure_text": "x" * payload, "certificate_block": "c"},
            )
        return cache.store(self._key(i), {"boogie_text": "x" * payload})

    def _count_listings(self, monkeypatch):
        listed = []
        scandir = os.scandir

        def counting(path="."):
            listed.append(os.fspath(path))
            return scandir(path)

        monkeypatch.setattr(os, "scandir", counting)
        return listed

    def _count_scans(self, monkeypatch):
        scans = []
        evict = DiskCache._evict_to_bound

        def spy(cache):
            scans.append(cache)
            return evict(cache)

        monkeypatch.setattr(DiskCache, "_evict_to_bound", spy)
        return scans

    def test_stores_under_the_bound_list_no_directory(self, tmp_path, monkeypatch):
        cache = DiskCache(tmp_path)
        scans = self._count_scans(monkeypatch)
        self._store(cache, 0)  # the first store seeds the total
        listed = self._count_listings(monkeypatch)
        for i in range(1, 200):
            self._store(cache, i)
        assert listed == []
        assert len(scans) == 1
        assert len(cache) + cache.unit_count() == 200
        assert cache.stats.stores == 200

    def test_one_instance_holds_the_bound_after_every_store(self, tmp_path):
        cache = DiskCache(tmp_path, max_bytes=48_000)
        for i in range(200):
            self._store(cache, i, payload=200 + 7 * (i % 13))
            assert cache.total_bytes() <= cache.max_bytes
        assert cache.stats.evictions > 0

    @pytest.mark.parametrize("count", [2, 4])
    def test_instances_sharing_a_root_stay_within_the_documented_slack(
        self, tmp_path, monkeypatch, count
    ):
        # ~550-byte entries; each instance lists after ~2,000 bytes.
        bound = 32_000 * count
        workers = [
            DiskCache(tmp_path, max_bytes=bound, workers=count) for _ in range(count)
        ]
        scans = self._count_scans(monkeypatch)
        i = 0
        while workers[0].total_bytes() < bound - workers[0]._slack:
            self._store(workers[0], i)
            i += 1
        # The worst case: every instance lists the same directory, a slack
        # under the bound, then all store in turn, unseen by each other,
        # until one of them lists again.  docs/SERVICE.md: N workers
        # overshoot by less than a sixteenth of the bound once their
        # stores have returned.
        for worker in workers:
            worker._evict_to_bound()
        listed, peak = len(scans), 0
        while len(scans) == listed:
            self._store(workers[i % count], i, payload=200 + 7 * (i % 13))
            i += 1
            peak = max(peak, workers[0].total_bytes())
            assert peak <= bound + bound // 16
        assert peak > bound  # the schedule did overshoot
        assert workers[0].total_bytes() <= bound  # until the next listing

    def test_one_listing_at_a_time_per_instance(self, tmp_path, monkeypatch):
        # Threads of one process share one instance (repro serve
        # --threads).  A second listing that started while the first ran
        # would subtract the first one's stores again, and the running
        # total would fall below what the directories hold.
        cache = DiskCache(tmp_path, max_bytes=16_000)  # lists every 1,000 bytes
        self._store(cache, 0)  # seeds the total
        scan, listing, overlap = DiskCache._scan, threading.Event(), []
        meet = threading.Barrier(2, timeout=0.3)

        def slow_scan(self, *directories):
            overlap.append(listing.is_set())
            listing.set()
            try:
                meet.wait()  # a second listing, if it can start, meets this one
            except threading.BrokenBarrierError:
                pass
            found = scan(self, *directories)
            listing.clear()
            return found

        monkeypatch.setattr(DiskCache, "_scan", slow_scan)
        first = threading.Thread(target=self._store, args=(cache, 2, 1_200))
        first.start()
        assert listing.wait(5)
        second = threading.Thread(target=self._store, args=(cache, 4, 1_200))
        second.start()
        first.join()
        second.join()
        monkeypatch.undo()
        assert overlap == [False, False]
        assert cache._stored_bytes >= 0
        assert cache._scanned_bytes + cache._stored_bytes >= cache.total_bytes()
        assert cache.total_bytes() <= cache.max_bytes

    def test_threads_storing_into_one_instance_keep_the_total(self, tmp_path, monkeypatch):
        cache = DiskCache(tmp_path, max_bytes=24_000)  # lists every 1,500 bytes
        errors, after_listing = [], []
        evict = DiskCache._evict_to_bound

        def spy(self):
            evict(self)
            with self._lock:  # what this instance stored since the listing
                after_listing.append(self._stored_bytes)

        monkeypatch.setattr(DiskCache, "_evict_to_bound", spy)

        def store_many(k):
            try:
                for n in range(60):
                    self._store(cache, 1_000 * k + n, payload=200 + 7 * (n % 13))
            except Exception as error:  # reported by the assertion below
                errors.append(error)

        threads = [threading.Thread(target=store_many, args=(k,)) for k in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert cache.stats.stores == 360
        assert len(after_listing) > 10 and min(after_listing) >= 0
        assert cache._scanned_bytes + cache._stored_bytes >= cache.total_bytes()
        assert cache.total_bytes() <= cache.max_bytes

    def test_a_rescan_keeps_the_most_recently_loaded_entry(self, tmp_path):
        # Room for four and a half entries of this size.
        probe = DiskCache(tmp_path / "probe").store(self._key(9), {"boogie_text": "x" * 900})
        cache = DiskCache(tmp_path / "cache", max_bytes=probe.stat().st_size * 9 // 2)
        paths = []
        for i in range(4):
            paths.append(cache.store(self._key(i), {"boogie_text": "x" * 900}))
            os.utime(paths[i], (1_000_000 + i, 1_000_000 + i))
        assert cache.stats.evictions == 0
        assert cache.load(self._key(0)) is not None  # now the most recent
        # Each further store passes the bound by one entry and evicts the
        # stalest one: entries 1, 2 and 3 go, entry 0 stays.
        for i in range(4, 7):
            cache.store(self._key(i), {"boogie_text": "x" * 900})
        assert cache.stats.evictions == 3
        assert [p.exists() for p in paths] == [True, False, False, False]


class TestOptionsDigest:
    def test_default_options_digest_is_stable(self):
        assert options_digest(None) == options_digest(TranslationOptions())

    def test_differing_options_get_distinct_digests(self):
        defaults = TranslationOptions()
        field = next(iter(TranslationOptions.__dataclass_fields__))
        flipped = TranslationOptions(**{field: not getattr(defaults, field)})
        assert options_digest(defaults) != options_digest(flipped)
