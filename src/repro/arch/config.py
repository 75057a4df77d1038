"""GPU architecture configurations (paper Table 2).

Two presets match the paper's evaluation platforms: a Fermi-like SM
(Section 7.1, Table 2) and a Kepler-like SM (Section 7.3, which doubles
the register file and raises the thread limit).  All simulator and
occupancy parameters live here so experiments can sweep them.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class LatencyConfig:
    """Instruction and memory latencies in SM cycles.

    Values follow the published GPGPU-Sim Fermi model and
    micro-benchmarking studies: arithmetic ~18 cycles, SFU ~32, shared
    memory ~36, L1 hit ~46, L2 ~350 total, DRAM ~560 total.  The paper
    measures ``Cost_local`` / ``Cost_shm`` "on the target architecture
    through micro benchmarks" — :mod:`repro.arch.latency` does the same
    against our simulator.
    """

    alu: int = 18
    sfu: int = 32
    ctrl: int = 8  # branch-resolution bubble before the next fetch
    shared_mem: int = 26
    l1_hit: int = 24
    l2_hit: int = 300
    dram: int = 550
    block_launch: int = 20  # cycles to swap a finished block for a new one
    issue_per_cycle: int = 1  # instructions per scheduler per cycle


@dataclasses.dataclass(frozen=True)
class CacheConfig:
    """One cache level's geometry."""

    size_bytes: int
    associativity: int
    line_bytes: int
    mshr_entries: int

    @property
    def num_sets(self) -> int:
        sets = self.size_bytes // (self.associativity * self.line_bytes)
        if sets <= 0:
            raise ValueError("cache too small for its geometry")
        return sets


@dataclasses.dataclass(frozen=True)
class GPUConfig:
    """Full SM + memory-hierarchy configuration."""

    name: str
    num_sms: int = 15
    cores_per_sm: int = 32
    clock_mhz: int = 700
    warp_size: int = 32
    num_schedulers: int = 2
    # Register file: 128 KB / SM on Fermi = 32768 32-bit registers.
    registers_per_sm: int = 32768
    #: Architectural ceiling on registers per thread (63 on Fermi and
    #: Kepler-1; the ISA encodes 6-bit register ids).  Demands above it
    #: spill no matter what the TLP is — the reason CRAT's CFD/FDTD
    #: points keep spilling even at low occupancy.
    max_reg_per_thread: int = 63
    # Shared memory: 48 KB / SM.
    shared_mem_per_sm: int = 49152
    max_threads_per_sm: int = 1536
    max_blocks_per_sm: int = 8
    l1: CacheConfig = CacheConfig(
        size_bytes=32 * 1024, associativity=4, line_bytes=128, mshr_entries=32
    )
    l2_size_bytes: int = 768 * 1024
    l2_banks: int = 6
    #: The L2 is shared by every SM running the same kernel, so the
    #: slice one SM's misses can actually hold is far smaller than
    #: size/num_sms: the other SMs' interleaved miss streams evict it.
    #: The effective exclusive slice is size / (num_sms * interference).
    l2_interference: int = 4
    # DRAM bandwidth expressed as bytes per SM-cycle per SM share.
    dram_bytes_per_cycle: float = 6.0
    latency: LatencyConfig = LatencyConfig()

    @property
    def min_reg_per_thread(self) -> int:
        """Paper Section 4.1: ``MinReg = NumRegister / MaxThreads``.

        Allocating fewer registers per thread than this can never raise
        the TLP (the thread limit binds first), so it is the floor of
        the interesting design range.
        """
        return self.registers_per_sm // self.max_threads_per_sm

    def scaled(self, **overrides) -> "GPUConfig":
        """A copy with selected fields replaced (for sweeps)."""
        return dataclasses.replace(self, **overrides)


#: Fermi-like configuration of paper Table 2.
FERMI = GPUConfig(name="fermi")

#: Kepler-like configuration of paper Section 7.3: register file doubled
#: to 256 KB and the concurrent-thread limit raised from 1536 to 2048.
KEPLER = GPUConfig(
    name="kepler",
    registers_per_sm=65536,
    max_threads_per_sm=2048,
    max_blocks_per_sm=16,
)

CONFIGS = {"fermi": FERMI, "kepler": KEPLER}


def get_config(name: str) -> GPUConfig:
    try:
        return CONFIGS[name]
    except KeyError:
        raise KeyError(
            f"unknown config {name!r}; available: {sorted(CONFIGS)}"
        ) from None
