"""Output checks against the expected files, and the latency statistics."""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

SCHEMES = ("crat", "crat_local", "maxtlp", "opttlp")


def digest(result: dict) -> str:
    """Short digest of a reply's result payload (key order ignored)."""
    canonical = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def p90(values: Sequence[float]) -> Tuple[Optional[float], int]:
    """The 90th percentile and how many samples lie beyond it.

    The value is ``None`` -- withheld -- when fewer than
    :data:`MIN_BEYOND` samples lie beyond it.
    """
    if len(values) < 2:
        return None, 0
    value = statistics.quantiles(values, n=10, method="inclusive")[-1]
    beyond = sum(1 for v in values if v > value)
    return (value if beyond >= MIN_BEYOND else None), beyond


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def crat_speedup(app: Dict[str, list]) -> float:
    """CRAT speedup over OptTLP: OptTLP cycles / CRAT cycles."""
    return app["opttlp"][2] / app["crat"][2]


def suite_mismatches(
    got: Dict[str, Dict[str, list]], expected: Dict[str, Dict[str, list]]
) -> List[str]:
    """Apps whose (reg, TLP, cycles) differ from the expected file in
    any scheme (CRAT, CRAT-local, MaxTLP, OptTLP)."""
    return sorted(
        app for app, result in got.items()
        if any(list(result[s]) != list(expected[app][s]) for s in SCHEMES)
    )
