"""Seeded input generator: the only place a workload's inputs come from.

Every draw goes through ``random.Random(seed)``, so one seed always
yields the same inputs.  The universes the draws are made from are the
committed expected files (``expected/*.json``): a job or point can only
be sent if its correct answer is on record.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from typing import Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")

#: The 11 resource-sensitive apps, in paper Table 3 order.
SENSITIVE = ("BLK", "CFD", "DTC", "ESP", "FDTD", "HST", "KMN", "LBM",
             "SPMV", "STE", "STM")
#: The 11 resource-insensitive apps, in paper Table 3 order.
INSENSITIVE = ("BAK", "BFS", "B+T", "GAU", "LUD", "MUM", "NEED", "PTF",
               "PATH", "SGM", "SRAD")

#: The apps a ``suite-cold`` run evaluates.  The whole sensitive suite
#: takes about 70 s, too long for one run; these five take about 20 s
#: and cover a shared-memory spill winner (CFD), the trace-heavy HST and
#: a default-optimal app (SPMV).  ``--full`` runs all of ``SENSITIVE``.
SUITE_COLD_APPS = ("BLK", "CFD", "ESP", "HST", "SPMV")

#: The pass pipeline of the serve-hits universe (the other choice is
#: no passes at all).
HITS_PASSES = "copy-prop,dce,minreg-sched"

#: serve-hits popularity: the job of rank r (1-based) is sent
#: ``max(1, round(ZIPF_HEAD / r ** ZIPF_S))`` times.
ZIPF_HEAD = 6.0
ZIPF_S = 0.8


def load_expected(workload: str) -> Dict[str, object]:
    with open(os.path.join(EXPECTED_DIR, f"{workload}.json")) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# suite-cold
# ----------------------------------------------------------------------
def suite_cold_apps(seed: int, full: bool = False) -> List[str]:
    """The apps of one run, in a seeded order."""
    apps = list(SENSITIVE if full else SUITE_COLD_APPS)
    random.Random(seed).shuffle(apps)
    return apps


# ----------------------------------------------------------------------
# serve-hits
# ----------------------------------------------------------------------
def job_id(app: str, form: str, passes: bool, verify: bool) -> str:
    """``APP|target-or-ptx|passes-or--|v-or--`` -- one crat job."""
    return "|".join((app, form, "passes" if passes else "-",
                     "v" if verify else "-"))


def parse_job_id(ident: str) -> Tuple[str, str, bool, bool]:
    app, form, passes, verify = ident.split("|")
    return app, form, passes == "passes", verify == "v"


def hits_universe(apps: Sequence[str]) -> List[str]:
    """apps x {target, inline ptx} x {no passes, HITS_PASSES} x {verify}."""
    return [
        job_id(app, form, passes, verify)
        for app in apps
        for form in ("target", "ptx")
        for passes in (False, True)
        for verify in (False, True)
    ]


def hits_params(ident: str, ptx_texts: Dict[str, str]) -> Dict[str, object]:
    """The ``crat`` request parameters of one job; ``ptx_texts`` maps an
    app to its kernel printed as PTX (the inline form)."""
    app, form, passes, verify = parse_job_id(ident)
    params: Dict[str, object] = (
        {"target": app} if form == "target" else {"ptx": ptx_texts[app]}
    )
    params["passes"] = HITS_PASSES if passes else ""
    if verify:
        params["verify"] = True
    return params


def _rank_key(ident: str) -> str:
    return hashlib.sha256(ident.encode()).hexdigest()


def hits_plan(seed: int, universe: Sequence[str]) -> List[str]:
    """The request stream: every job of the universe at least once.

    Popularity is Zipf-like over a fixed ranking (a hash of the job id),
    so every seed sends the same multiset of requests and the latency
    mix does not depend on the seed; the seed orders the stream.
    """
    ranked = sorted(universe, key=_rank_key)
    stream = [
        ident
        for rank, ident in enumerate(ranked)
        for _ in range(max(1, round(ZIPF_HEAD / (rank + 1) ** ZIPF_S)))
    ]
    random.Random(seed).shuffle(stream)
    return stream


# ----------------------------------------------------------------------
# serve-misses
# ----------------------------------------------------------------------
Point = Tuple[str, int, int]  # (app, tlp, grid)


def miss_grid(app: str, app_grid: int) -> int:
    """Resource-sensitive apps at half their grid, the others at theirs
    (fixed rather than drawn, so every seed generates the same traces)."""
    return max(1, app_grid // 2) if app in SENSITIVE else app_grid


def misses_plan(seed: int, apps: Dict[str, Dict[str, object]]) -> List[Point]:
    """The request stream: distinct ``simulate`` points.

    ``apps`` maps an app to its ``grid`` and ``max_tlp``.  Per app, TLP
    1, the middle of ``[1, MaxTLP]`` and MaxTLP (fewer when MaxTLP < 3)
    at the app's grid, in ascending TLP order, so TLP 1 always pays for
    the trace and the others reuse it.  The point set and the latency
    mix are the same for every seed -- drawing TLPs, or letting the seed
    pick which point pays for the trace, moved ``wall_s`` and
    ``latency_ms_p50`` by 15-30% from seed to seed.  The seed interleaves
    the apps.
    """
    rng = random.Random(seed)
    queues: List[List[Point]] = []
    for app in sorted(apps):
        info = apps[app]
        max_tlp = int(info["max_tlp"])  # type: ignore[arg-type]
        grid = miss_grid(app, int(info["grid"]))  # type: ignore[arg-type]
        tlps = sorted({1, (max_tlp + 1) // 2, max_tlp})
        queues.append([(app, tlp, grid) for tlp in tlps])
    stream: List[Point] = []
    while queues:
        queue = queues[rng.randrange(len(queues))]
        stream.append(queue.pop(0))
        if not queue:
            queues.remove(queue)
    return stream
