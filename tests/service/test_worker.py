"""Worker tests: cache-tier resolution and the never-cached trusted path.

The central claim (docs/SERVICE.md § Trust): the disk tier stores only
*untrusted* artifacts, and the kernel re-derives every verdict, so a
poisoned cache entry can cause at most a spurious rejection — never a
false acceptance.  ``TestKernelIsNeverCached`` exercises that directly by
planting a checksum-valid but semantically wrong certificate through the
legitimate store API (the strongest position an attacker with cache-dir
write access holds).
"""

from __future__ import annotations

import pytest

from repro.pipeline.cache import source_digest
from repro.service import worker
from repro.service.diskcache import DiskCache, options_digest

SOURCE = """
field val: Int

method get(self: Ref) returns (r: Int)
  requires acc(self.val)
  ensures acc(self.val) && r == self.val
{
  r := self.val
}
"""

OTHER_SOURCE = """
field num: Int

method put(self: Ref)
  requires acc(self.num)
  ensures acc(self.num) && self.num == 7
{
  self.num := 7
}
"""


TWO_METHODS = SOURCE + """
method bump(self: Ref)
  requires acc(self.val)
  ensures acc(self.val)
{
  self.val := 1
}
"""


@pytest.fixture
def disk_worker(tmp_path):
    """A worker configured with a disk tier; state is reset afterwards."""
    worker.configure({"cache_dir": str(tmp_path)})
    yield tmp_path
    worker.configure({})


def certify(source: str = SOURCE, **extra):
    return worker.handle_job({"action": "certify", "source": source, **extra})


class TestCacheTiers:
    def test_first_request_misses_then_memory_hits(self, disk_worker):
        first = certify()
        assert first["ok"] and first["cache"] == "miss"
        second = certify()
        assert second["ok"] and second["cache"] == "memory"

    def test_restart_serves_from_disk_then_promotes(self, disk_worker):
        assert certify()["ok"]
        # Reconfigure = simulated restart: fresh memory tier, same disk.
        worker.configure({"cache_dir": str(disk_worker)})
        warm = certify()
        assert warm["ok"] and warm["cache"] == "disk"
        # The disk hit skipped the untrusted stages but ran the kernel.
        assert "check" in warm["stage_seconds"]
        assert "reparse" in warm["stage_seconds"]
        assert "translate" not in warm["stage_seconds"]
        promoted = certify()
        assert promoted["ok"] and promoted["cache"] == "memory"

    def test_disk_write_through_is_timed_as_the_store_stage(self, disk_worker):
        assert "store" in certify(TWO_METHODS)["stage_seconds"]
        hit = certify(TWO_METHODS)
        assert hit["cache"] == "memory"
        assert "store" not in hit["stage_seconds"]
        # An edit of one method: the unit tier serves the other one, and
        # the rebuilt unit and the new file entry are written through.
        edited = certify(
            TWO_METHODS.replace("self.val := 1", "self.val := 0 + 1"),
            traceparent="00-" + "a" * 32 + "-" + "b" * 16 + "-01",
        )
        assert edited["ok"]
        assert edited["unit_cache"]["reused_methods"] == ["get"]
        assert edited["unit_cache"]["rebuilt_methods"] == ["bump"]
        assert edited["stage_seconds"]["store"] > 0
        assert edited["counters"]["stage.store.runs"] == 1
        (span,) = [s for s in edited["trace"] if s["name"] == "stage.store"]
        assert span["duration"] > 0

    def test_translate_serves_boogie_from_disk(self, disk_worker):
        assert certify()["ok"]
        worker.configure({"cache_dir": str(disk_worker)})
        response = worker.handle_job({"action": "translate", "source": SOURCE})
        assert response["ok"] and response["cache"] == "disk"
        assert "procedure" in response["boogie"]

    def test_without_disk_tier_restart_is_cold(self, tmp_path):
        worker.configure({})
        try:
            assert certify()["cache"] == "miss"
            assert certify()["cache"] == "memory"
            worker.configure({})
            assert certify()["cache"] == "miss"
        finally:
            worker.configure({})


class TestKernelIsNeverCached:
    def _poison(self, cache_dir, artifacts):
        """Write a checksum-valid envelope under SOURCE's key."""
        disk = DiskCache(cache_dir)
        key = (source_digest(SOURCE), options_digest(None))
        disk.store(key, artifacts)

    def test_swapped_certificate_is_rejected_not_accepted(self, disk_worker):
        """A valid-for-another-program certificate must fail the kernel."""
        mine = certify(include_boogie=True)
        other = certify(OTHER_SOURCE, include_certificate=True)
        assert mine["ok"] and other["ok"]
        self._poison(disk_worker, {
            "boogie_text": mine["boogie"],
            "certificate_text": other["certificate"],
        })
        worker.configure({"cache_dir": str(disk_worker)})  # fresh memory
        poisoned = certify()
        assert poisoned["cache"] == "disk"
        assert poisoned["ok"] is False
        assert poisoned["rejected"] is True
        assert poisoned["error"]

    def test_poisoned_entry_is_quarantined_then_recomputed(self, disk_worker):
        mine = certify(include_boogie=True)
        other = certify(OTHER_SOURCE, include_certificate=True)
        self._poison(disk_worker, {
            "boogie_text": mine["boogie"],
            "certificate_text": other["certificate"],
        })
        worker.configure({"cache_dir": str(disk_worker)})
        assert certify()["ok"] is False
        # The rejection quarantined the whole-file entry; the next request
        # re-certifies successfully.  The still-valid per-unit envelopes
        # (written by the original good run) serve it from the unit tier —
        # and the kernel re-derived the verdict fresh either way.
        recovered = certify()
        assert recovered["ok"] is True
        assert recovered["cache"] == "disk"
        assert "check" in recovered["stage_seconds"]
        disk = DiskCache(disk_worker)
        assert list(disk.quarantine_dir.glob("*.bad"))

    def test_unparseable_entry_is_quarantined_and_falls_through(
        self, disk_worker
    ):
        """A digest-valid whole-file entry whose Boogie text the parser
        refuses: the request still gets a verdict from the next tier, and
        the entry is quarantined instead of failing every request."""
        mine = certify(include_boogie=True, include_certificate=True)
        assert mine["ok"]
        self._poison(disk_worker, {
            "boogie_text": mine["boogie"] + "\nprocedure ;\n",
            "certificate_text": mine["certificate"],
        })
        for _ in range(2):  # across restarts, not just once
            worker.configure({"cache_dir": str(disk_worker)})
            response = certify()
            assert response["status"] == 200
            assert response["ok"] is True
            assert "check" in response["stage_seconds"]
        disk = DiskCache(disk_worker)
        (reason,) = disk.quarantine_dir.glob("*.reason")
        assert "unparseable artifact" in reason.read_text()

    @pytest.mark.parametrize("axiom, reason", [
        # An isdigit character int() refuses.
        ("axiom ² == 2;", "unparseable artifact"),
        # Past the recursion limit of the parser.
        ("axiom " + "(" * 2000 + "true" + ")" * 2000 + ";", "unparseable artifact"),
        # Parsed at one frame a level, past the kernel's typechecker.
        ("axiom " + "true ==> " * 600 + "true;", "nested too deeply for the kernel"),
    ], ids=["superscript-digit", "nested-parens-2000", "implications-600"])
    def test_hostile_boogie_text_is_quarantined_and_falls_through(
        self, disk_worker, axiom, reason
    ):
        """A stored text the parser refuses, or one nested deeper than the
        recursive kernel walks, is quarantined and recomputed: never a
        500."""
        mine = certify(include_boogie=True, include_certificate=True)
        assert mine["ok"]
        self._poison(disk_worker, {
            "boogie_text": mine["boogie"] + "\n" + axiom + "\n",
            "certificate_text": mine["certificate"],
        })
        worker.configure({"cache_dir": str(disk_worker)})
        response = certify()
        assert response["status"] == 200
        assert response["ok"] is True
        disk = DiskCache(disk_worker)
        (written,) = disk.quarantine_dir.glob("*.reason")
        assert reason in written.read_text()

    def test_poisoned_unit_envelope_is_rejected_quarantined_recomputed(
        self, disk_worker
    ):
        """A unit envelope with a swapped certificate block can never be
        accepted: the kernel re-checks every unit it serves."""
        from repro.pipeline import run_pipeline, unit_keys as pipeline_unit_keys

        assert certify()["ok"]
        other = certify(OTHER_SOURCE, include_certificate=True)
        assert other["ok"]
        # Overwrite SOURCE's unit envelope with OTHER's certificate block
        # (checksum-valid envelope, semantically wrong content).
        ctx = run_pipeline(SOURCE, upto="units")
        keys = pipeline_unit_keys(ctx.units, ctx.program, ctx.options)
        (unit_key,) = keys.values()
        disk = DiskCache(disk_worker)
        original = disk.load_unit(unit_key)
        assert original is not None
        other_block = "\n".join(
            other["certificate"].splitlines()[1:-1]
        )
        disk.store_unit(unit_key, "get", {
            "procedure_text": original.procedure_text,
            "certificate_block": other_block,
        })
        worker.configure({"cache_dir": str(disk_worker)})  # fresh memory
        # Make the whole-file entry miss so the unit tier is consulted.
        disk.quarantine((source_digest(SOURCE), options_digest(None)))
        poisoned = certify()
        assert poisoned["ok"] is False and poisoned["rejected"] is True
        # The rejection quarantined the served envelope; the next request
        # recomputes from scratch and re-certifies successfully.
        recovered = certify()
        assert recovered["ok"] is True
        assert recovered["cache"] == "miss"


class TestValidation:
    def setup_method(self):
        worker.configure({})

    def teardown_method(self):
        worker.configure({})

    def test_unknown_action_is_a_400(self):
        response = worker.handle_job({"action": "mine-bitcoin", "source": SOURCE})
        assert response["status"] == 400 and not response["ok"]

    def test_missing_source_is_a_400(self):
        response = worker.handle_job({"action": "certify"})
        assert response["status"] == 400
        response = worker.handle_job({"action": "certify", "source": "   "})
        assert response["status"] == 400

    def test_oversized_source_is_a_413(self):
        worker.configure({"max_source_bytes": 64})
        response = certify("x" * 65)
        assert response["status"] == 413
        assert "64" in response["error"]

    def test_unknown_option_is_a_400_naming_known_fields(self):
        response = worker.handle_job({
            "action": "certify", "source": SOURCE,
            "options": {"turbo_mode": True},
        })
        assert response["status"] == 400
        assert "turbo_mode" in response["error"]

    def test_parse_failure_is_a_422_with_the_stage(self):
        response = certify("method oops(")
        assert response["status"] == 422
        assert response["error_stage"] == "parse"
        assert response["error"]

    def test_options_from_dict_round_trips_known_fields(self):
        options = worker.options_from_dict(None)
        assert options == worker.options_from_dict({})
        field = next(iter(type(options).__dataclass_fields__))
        flipped = worker.options_from_dict({field: not getattr(options, field)})
        assert getattr(flipped, field) is not getattr(options, field)
