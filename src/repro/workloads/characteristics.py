"""Resource signatures of the paper's 22 benchmark kernels (Table 3).

The original CUDA sources (Rodinia / Parboil / NVIDIA SDK) are not
available offline and CRAT consumes PTX anyway, so each kernel is
described by the resource signature the paper's figures expose:
register demand, the register count the toolchain's default allocation
picked, block size, shared-memory usage, per-block cache working set,
reuse, streaming intensity, and arithmetic mix.  The generator turns a
signature into a real PTX kernel whose spills, cache behaviour, and
occupancy then *emerge* in the allocator and simulator — nothing below
scripts a result directly.

Register pressure is shaped like real kernels': ``hot_values``
accumulators are touched every inner iteration (expensive to spill),
while the remaining ``live_values - hot_values`` *cold* values are live
across the whole kernel but touched only once per outer iteration —
they are what a pressured allocator spills first, at modest cost.

Signatures were tuned on the Fermi configuration (Table 2) to
reproduce the paper's per-app narratives:

* STM / SPMV / KMN / LBM — the default allocation already matches the
  demand, so CRAT cannot improve register utilization (Section 7.2);
* HST / BLK / ESP — the default spills, but CRAT's chosen point holds
  every variable, eliminating spills entirely;
* DTC / FDTD / CFD / STE — demand is so high that spills survive even
  under CRAT, making the shared-memory spilling optimization matter
  (Figure 16);
* KMN — pathological per-block working set: CRAT throttles hard;
* the 11 resource-insensitive apps — modest demand and footprints.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple


@dataclasses.dataclass(frozen=True)
class AppCharacteristics:
    """Signature of one benchmark kernel."""

    abbr: str
    app: str
    kernel: str
    suite: str
    sensitive: bool
    block_size: int
    #: total long-lived f32 values (register-pressure knob;
    #: demand ~ live_values + ~15 bookkeeping slots).
    live_values: int
    #: subset updated every inner iteration (expensive to spill).
    hot_values: int
    #: values initialized once before the loops and consumed only in
    #: the final reduction — pure register-capacity ballast from
    #: immediates (precomputed constants); a rematerializing allocator
    #: recreates them for free instead of spilling.
    frozen_values: int
    #: like frozen, but loaded from memory at kernel start (stencil
    #: coefficients): not rematerializable, so they produce real spill
    #: traffic under pressure.
    coeff_values: int
    #: modeled toolchain-default registers/thread (None = demand,
    #: clipped to the nvcc cap), mirroring what nvcc chose per the paper.
    default_reg: Optional[int]
    #: per-thread elements of the block's reusable working set.
    ws_elems_per_thread: int
    #: outer iterations (cold values touched once each).
    outer_iters: int
    #: inner iterations per outer (memory + hot compute).
    inner_iters: int
    #: per-thread reused loads per inner iteration.
    loads_per_iter: int
    #: per-thread streaming (never-reused) loads per inner iteration.
    stream_loads: int
    #: extra dependent ALU ops per inner iteration.
    alu_per_iter: int
    #: SFU ops per inner iteration.
    sfu_per_iter: int
    #: app shared-memory elements per thread (f32); 0 = unused.
    shm_elems_per_thread: int
    #: shared-memory accesses per inner iteration (0 = none).
    shm_accesses_per_iter: int
    uses_barrier: bool
    #: emit a real divergent if/else in the inner loop (irregular apps:
    #: a quarter of the lanes take an extra-work path each iteration).
    divergent: bool
    #: thread blocks simulated (the "grid" on one SM).
    grid_blocks: int

    @property
    def shm_bytes_per_block(self) -> int:
        return self.shm_elems_per_thread * self.block_size * 4


def _app(
    abbr,
    app,
    kernel,
    suite,
    sensitive,
    block_size,
    live,
    hot,
    default_reg,
    ws,
    outer,
    inner,
    loads,
    stream,
    alu,
    frozen=0,
    coeffs=0,
    sfu=0,
    shm=0,
    shm_acc=0,
    barrier=False,
    divergent=False,
    grid=16,
) -> AppCharacteristics:
    if hot > live:
        raise ValueError(f"{abbr}: hot_values cannot exceed live_values")
    return AppCharacteristics(
        abbr=abbr,
        app=app,
        kernel=kernel,
        suite=suite,
        sensitive=sensitive,
        block_size=block_size,
        live_values=live,
        hot_values=hot,
        frozen_values=frozen,
        coeff_values=coeffs,
        default_reg=default_reg,
        ws_elems_per_thread=ws,
        outer_iters=outer,
        inner_iters=inner,
        loads_per_iter=loads,
        stream_loads=stream,
        alu_per_iter=alu,
        sfu_per_iter=sfu,
        shm_elems_per_thread=shm,
        shm_accesses_per_iter=shm_acc,
        uses_barrier=barrier,
        divergent=divergent,
        grid_blocks=grid,
    )


#: Resource-sensitive applications (paper Table 3, upper half).
RESOURCE_SENSITIVE: Tuple[AppCharacteristics, ...] = (
    # BlackScholes: register-heavy compute, SFU-rich, little locality;
    # demand fits under the 63-reg cap, so CRAT eliminates spills.
    _app("BLK", "BlackScholes", "BlackScholesGPU", "SDK", True, 128,
         live=12, hot=8, frozen=8, coeffs=6, default_reg=34, ws=2, outer=4, inner=6,
         loads=2, stream=1, alu=8, sfu=3),
    # cfd: very register-hungry flux kernel (demand above the 63 cap,
    # spills survive CRAT), moderate cache reuse.
    _app("CFD", "cfd", "cuda_compute_flux", "Rodinia", True, 128,
         live=12, hot=8, frozen=8, coeffs=30, default_reg=48, ws=16, outer=4,
         inner=6, loads=5, stream=1, alu=10, sfu=1),
    # dxtc: register-heavy block compression with shared-memory tiles.
    _app("DTC", "dxtc", "compress", "SDK", True, 128,
         live=12, hot=8, frozen=8, coeffs=28, default_reg=46, ws=16, outer=4,
         inner=6, loads=4, stream=0, alu=12, shm=20, shm_acc=1,
         barrier=True),
    # EstimatePi initRNG: SFU-dominated RNG setup under pressure.
    _app("ESP", "EstimatePi", "initRNG", "SDK", True, 128,
         live=10, hot=6, frozen=8, coeffs=4, default_reg=28, ws=2, outer=4, inner=7,
         loads=1, stream=1, alu=6, sfu=4),
    # FDTD3d: huge stencil state (mostly frozen coefficients), large
    # blocks; the default allocation caps occupancy at a single block.
    _app("FDTD", "FDTD3d", "FiniteDifferences", "SDK", True, 512,
         live=12, hot=8, frozen=2, coeffs=32, default_reg=42, ws=8, outer=4,
         inner=5, loads=4, stream=1, alu=8),
    # hotspot: stencil with block-local reuse; default spills, CRAT's
    # point holds everything.
    _app("HST", "hotspot", "calculate_temp", "Rodinia", True, 256,
         live=12, hot=8, frozen=6, coeffs=4, default_reg=32, ws=12, outer=5, inner=6,
         loads=4, stream=0, alu=7, shm=1, shm_acc=1, barrier=True),
    # kmeans invert_mapping: pathological per-block working set.
    _app("KMN", "kmeans", "invert_mapping", "Rodinia", True, 256,
         live=8, hot=6, default_reg=None, ws=24, outer=12, inner=8,
         loads=6, stream=0, alu=3, grid=12),
    # lbm: bandwidth-bound streaming, default reg already optimal.
    _app("LBM", "lbm", "StreamCollide", "Parboil", True, 128,
         live=30, hot=12, default_reg=None, ws=2, outer=4, inner=6,
         loads=1, stream=5, alu=6),
    # spmv: irregular streaming, default reg already optimal.
    _app("SPMV", "spmv", "spmv_jds", "Parboil", True, 128,
         live=16, hot=8, default_reg=None, ws=10, outer=4, inner=7,
         loads=4, stream=2, alu=4),
    # stencil: deep register demand, spills survive CRAT.
    _app("STE", "stencil", "block2D", "Parboil", True, 128,
         live=12, hot=8, frozen=8, coeffs=30, default_reg=48, ws=16, outer=4,
         inner=6, loads=4, stream=1, alu=9),
    # streamcluster: cache-sensitive distance kernel, default optimal.
    _app("STM", "streamcluster", "compute_cost", "Rodinia", True, 256,
         live=8, hot=6, default_reg=None, ws=12, outer=10, inner=8,
         loads=6, stream=0, alu=5, grid=12),
)

#: Resource-insensitive applications (paper Table 3, lower half).
RESOURCE_INSENSITIVE: Tuple[AppCharacteristics, ...] = (
    _app("BAK", "backprop", "layerforward", "Rodinia", False, 256,
         live=8, hot=6, default_reg=None, ws=2, outer=3, inner=6,
         loads=2, stream=1, alu=5, shm=1, shm_acc=1, barrier=True),
    _app("BFS", "bfs", "kernel", "Rodinia", False, 256,
         live=6, hot=4, default_reg=None, ws=2, outer=3, inner=5,
         loads=2, stream=2, alu=3, divergent=True),
    _app("B+T", "b+tree", "findK", "Rodinia", False, 256,
         live=8, hot=5, default_reg=None, ws=3, outer=3, inner=6,
         loads=3, stream=1, alu=4),
    _app("GAU", "gaussian", "Fan1", "Rodinia", False, 128,
         live=6, hot=4, default_reg=None, ws=2, outer=3, inner=6,
         loads=2, stream=0, alu=4),
    _app("LUD", "lud", "diagonal", "Rodinia", False, 128,
         live=10, hot=6, default_reg=None, ws=4, outer=3, inner=6,
         loads=2, stream=0, alu=6, shm=2, shm_acc=2, barrier=True),
    _app("MUM", "mummergpu", "mummergpuKernel", "Rodinia", False, 128,
         live=10, hot=6, default_reg=None, ws=3, outer=3, inner=6,
         loads=2, stream=2, alu=4, divergent=True),
    _app("NEED", "nw", "cuda_shared_1", "Rodinia", False, 128,
         live=8, hot=5, default_reg=None, ws=3, outer=3, inner=6,
         loads=2, stream=0, alu=5, shm=2, shm_acc=2, barrier=True),
    _app("PTF", "particlefilter", "kernel", "Rodinia", False, 256,
         live=10, hot=6, default_reg=None, ws=2, outer=3, inner=6,
         loads=2, stream=1, alu=5, sfu=2),
    _app("PATH", "pathfinder", "dynproc", "Rodinia", False, 256,
         live=8, hot=5, default_reg=None, ws=3, outer=3, inner=6,
         loads=2, stream=0, alu=5, shm=1, shm_acc=1, barrier=True),
    _app("SGM", "sgemm", "mysgemmNT", "Parboil", False, 128,
         live=16, hot=10, default_reg=None, ws=4, outer=4, inner=6,
         loads=3, stream=0, alu=9, shm=2, shm_acc=2, barrier=True),
    _app("SRAD", "srad", "srad_cuda", "Rodinia", False, 256,
         live=10, hot=6, default_reg=None, ws=3, outer=3, inner=6,
         loads=3, stream=0, alu=5, sfu=1),
)

ALL_APPS: Tuple[AppCharacteristics, ...] = RESOURCE_SENSITIVE + RESOURCE_INSENSITIVE

BY_ABBR: Dict[str, AppCharacteristics] = {app.abbr: app for app in ALL_APPS}


def get_app(abbr: str) -> AppCharacteristics:
    try:
        return BY_ABBR[abbr]
    except KeyError:
        raise KeyError(
            f"unknown app {abbr!r}; available: {sorted(BY_ABBR)}"
        ) from None
