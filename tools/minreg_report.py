#!/usr/bin/env python
"""Reproduce the EXPERIMENTS.md min-register scheduling table.

For each of the 22 suite apps, runs ``minreg-sched`` and reports the
paper's ``MaxReg`` (sum over data classes of chromatic interference
demand, :func:`repro.regalloc.allocator.register_demand`) and MaxLive
(peak simultaneous liveness) before and after scheduling, plus how many
instructions moved.  Run with::

    PYTHONPATH=src python tools/minreg_report.py [--markdown]
"""

from __future__ import annotations

import argparse
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.cfg import LivenessInfo  # noqa: E402
from repro.ir import run_pipeline  # noqa: E402
from repro.regalloc.allocator import register_demand  # noqa: E402
from repro.workloads import full_suite, load_workload  # noqa: E402


def measure(kernel):
    return register_demand(kernel), LivenessInfo(kernel).max_pressure()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--markdown", action="store_true",
                        help="emit a GitHub-flavored markdown table")
    args = parser.parse_args()

    rows = []
    for workload in full_suite():
        kernel = load_workload(workload.abbr).kernel
        reg_before, live_before = measure(kernel)
        result = run_pipeline(kernel, "minreg-sched")
        reg_after, live_after = measure(result.kernel)
        rows.append((workload.abbr, reg_before, reg_after,
                     live_before, live_after, result.metadata_total("moved")))

    if args.markdown:
        print("| App | MaxReg before | MaxReg after | MaxLive before "
              "| MaxLive after | moved |")
        print("|-----|--------------:|-------------:|---------------:"
              "|--------------:|------:|")
        for abbr, rb, ra, lb, la, moved in rows:
            print(f"| {abbr} | {rb} | {ra} | {lb} | {la} | {moved} |")
    else:
        print(f"{'App':<6}{'MaxReg':>14}{'MaxLive':>16}{'moved':>8}")
        for abbr, rb, ra, lb, la, moved in rows:
            print(f"{abbr:<6}{rb:>6} -> {ra:<4}{lb:>7} -> {la:<5}"
                  f"{moved:>8}")

    reg_wins = sum(1 for _, rb, ra, *_ in rows if ra < rb)
    live_wins = sum(1 for *_, lb, la, _ in rows if la < lb)
    print(f"\nMaxReg lowered on {reg_wins}/{len(rows)} apps; "
          f"MaxLive lowered on {live_wins}/{len(rows)} apps")
    return 0


if __name__ == "__main__":
    sys.exit(main())
