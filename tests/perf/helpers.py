"""Synthetic bench-report fixtures for the observatory tests.

Real harness runs are slow and noisy; these builders produce
``bench --json``-shaped documents with *controlled* timing
distributions, so the comparator's statistical behaviour (zero false
positives under jitter, guaranteed detection of a seeded slowdown) can
be asserted deterministically.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro.perf import HOST_REFERENCE_KEY

#: Nominal per-stage seconds of one synthetic corpus file — shaped like
#: a real mid-size Viper file (check dominates, generate is tiny).
BASE_STAGES = {
    "translate_seconds": 0.020,
    "generate_seconds": 0.008,
    "check_seconds": 0.060,
    "analyze_seconds": 0.015,
}


def synth_file_row(
    name: str,
    rng: random.Random,
    *,
    jitter: float = 0.05,
    scale: Optional[Dict[str, float]] = None,
    methods: int = 2,
) -> Dict[str, object]:
    """One per-file metrics row with multiplicative jitter per stage."""
    scale = scale or {}
    row: Dict[str, object] = {
        "suite": "Viper",
        "name": name,
        "methods": methods,
        "viper_loc": 40,
        "boogie_loc": 160,
        "cert_loc": 320,
        "certified": True,
        "error": None,
    }
    total = 0.0
    for field, nominal in BASE_STAGES.items():
        seconds = (
            nominal
            * scale.get(field, 1.0)
            * (1.0 + rng.uniform(-jitter, jitter))
        )
        row[field] = seconds
        total += seconds
    row["total_seconds"] = total
    row["cache_lookup_seconds"] = 0.0
    return row


def synth_report(
    rng: random.Random,
    *,
    files: Sequence[str] = ("a", "b", "c"),
    jitter: float = 0.05,
    scale: Optional[Dict[str, float]] = None,
    reference: Optional[float] = None,
) -> Dict[str, object]:
    """One ``bench --json``-shaped report over synthetic Viper files;
    ``reference`` is the host-reference seconds stamped into ``meta``
    (none by default, as in a history recorded before references)."""
    rows = [
        synth_file_row(name, rng, jitter=jitter, scale=scale) for name in files
    ]
    meta: Dict[str, object] = {
        "python": "3.11.0", "platform": "synthetic", "jobs": None,
    }
    if reference is not None:
        meta[HOST_REFERENCE_KEY] = reference
    return {
        "meta": meta,
        "suites": {"Viper": {"files": rows, "aggregate": {}}},
        "overall": {},
        "blowup_factor": 4.0,
        "analysis_overhead": {"fraction": 0.1, "within_budget": True},
        "unit_cache": {},
    }


def synth_samples(
    seed: int,
    count: int,
    *,
    files: Sequence[str] = ("a", "b", "c"),
    jitter: float = 0.05,
    scale: Optional[Dict[str, float]] = None,
    reference: Optional[float] = None,
) -> List[Dict[str, object]]:
    """``count`` independent sample reports from one seeded RNG."""
    rng = random.Random(seed)
    return [
        synth_report(rng, files=files, jitter=jitter, scale=scale,
                     reference=reference)
        for _ in range(count)
    ]
