"""Calibration report for workload signatures.

The 22 app signatures in :mod:`repro.workloads.characteristics` were
tuned so the paper's per-app narratives emerge.  This module is the
tool that tuning used, kept for maintainers: for one app it reports

* the resource profile (demand, default, MaxTLP, working set),
* the spill sweep — spilled variables / inserted instructions /
  loop-weighted cost at decreasing register limits, which makes the
  *knee* visible (the limit below which inner-loop state spills and
  costs explode),
* the TLP profile under the default allocation (the thread-throttling
  curve of paper Figure 5).

``python -m repro.workloads.calibrate CFD`` prints the report.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from ..arch.config import GPUConfig, FERMI
from ..arch.occupancy import compute_occupancy
from ..cfg.liveness import LivenessInfo
from ..regalloc.allocator import (
    InsufficientRegistersError,
    allocate,
    register_demand,
)
from .generator import effective_ws_bytes
from .suite import Workload, load_workload


@dataclasses.dataclass
class SpillSweepRow:
    """One register limit's spill outcome."""

    reg_limit: int
    spilled: int
    rematerialized: int
    local_insts: int
    weighted_cost: float


@dataclasses.dataclass
class CalibrationReport:
    """Everything the signature-tuning loop looks at for one app."""

    abbr: str
    demand: int
    default_reg: int
    max_tlp: int
    ws_bytes_per_block: int
    spill_sweep: List[SpillSweepRow]
    tlp_profile: Dict[int, float]

    @property
    def knee(self) -> Optional[int]:
        """The largest limit whose weighted cost jumps >=3x vs the next
        higher sampled limit — where hot state starts spilling."""
        rows = sorted(self.spill_sweep, key=lambda r: -r.reg_limit)
        for above, below in zip(rows, rows[1:]):
            if above.weighted_cost > 0 and below.weighted_cost >= 3 * max(
                above.weighted_cost, 1.0
            ):
                return below.reg_limit
            if above.weighted_cost == 0 and below.weighted_cost >= 300:
                return below.reg_limit
        return None


def calibrate(
    workload: Workload,
    config: GPUConfig = FERMI,
    step: int = 4,
    profile_tlp_curve: bool = True,
) -> CalibrationReport:
    """Build the calibration report for one workload."""
    kernel = workload.kernel
    demand = register_demand(kernel)
    default_reg = workload.default_reg or min(
        demand, config.max_reg_per_thread
    )
    occupancy = compute_occupancy(
        config, default_reg, kernel.shared_bytes(), kernel.block_size
    )

    sweep: List[SpillSweepRow] = []
    limit = demand
    while limit >= max(8, config.min_reg_per_thread - 8):
        try:
            result = allocate(kernel, limit, enable_shm_spill=False)
        except InsufficientRegistersError:
            break
        sweep.append(
            SpillSweepRow(
                reg_limit=limit,
                spilled=len(result.spilled),
                rematerialized=len(result.rematerialized),
                local_insts=result.num_local_insts,
                weighted_cost=result.weighted_local_accesses,
            )
        )
        limit -= step

    tlp_profile: Dict[int, float] = {}
    if profile_tlp_curve:
        from ..core.throttling import default_allocation
        from ..core.params import collect_resource_usage
        from ..engine import get_engine

        usage = collect_resource_usage(kernel, config, default_reg=default_reg)
        allocation = default_allocation(kernel, usage)
        # The engine caches by kernel fingerprint, so calibration
        # sweeps are free when the throttling baselines already
        # profiled this app.
        profile = get_engine().profile_tlp(
            allocation.kernel, config, usage.max_tlp,
            workload.grid_blocks, workload.param_sizes,
        )
        for tlp, sim in profile.items():
            tlp_profile[tlp] = sim.cycles

    return CalibrationReport(
        abbr=workload.abbr,
        demand=demand,
        default_reg=default_reg,
        max_tlp=occupancy.blocks,
        ws_bytes_per_block=effective_ws_bytes(workload.app,
                                              workload.input_scale),
        spill_sweep=sweep,
        tlp_profile=tlp_profile,
    )


def format_report(report: CalibrationReport) -> str:
    lines = [
        f"== calibration: {report.abbr} ==",
        f"demand {report.demand} slots, default {report.default_reg}, "
        f"MaxTLP {report.max_tlp}, working set "
        f"{report.ws_bytes_per_block} B/block",
        "",
        "reg_limit  spilled  remat  local_insts  weighted_cost",
    ]
    for row in report.spill_sweep:
        lines.append(
            f"{row.reg_limit:>9}  {row.spilled:>7}  {row.rematerialized:>5}"
            f"  {row.local_insts:>11}  {row.weighted_cost:>13.0f}"
        )
    knee = report.knee
    lines.append(f"knee (hot state starts spilling): "
                 f"{knee if knee is not None else 'not reached'}")
    if report.tlp_profile:
        lines.append("")
        lines.append("TLP profile (cycles, default allocation):")
        for tlp in sorted(report.tlp_profile):
            lines.append(f"  TLP={tlp}: {report.tlp_profile[tlp]:.0f}")
    return "\n".join(lines)


def main(argv=None) -> int:  # pragma: no cover - thin CLI
    import sys

    args = argv if argv is not None else sys.argv[1:]
    abbr = args[0] if args else "CFD"
    report = calibrate(load_workload(abbr))
    print(format_report(report))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
