"""Static performance analysis: the OptTLP estimator.

Kernel segmentation into computation and memory segments (paper
Figure 10a) and the GTO-mimic OptTLP estimator built on it (Figure
10b).  ``repro crat --static`` (CRAT-static) takes its OptTLP from
:func:`estimate_opt_tlp`; every other OptTLP comes from the simulated
sweep."""

from .gto_model import StaticEstimate, estimate_opt_tlp
from .segments import (
    DEFAULT_TRIP_COUNT,
    Segment,
    segment_kernel,
    total_cycles,
    total_mem_requests,
)

__all__ = [
    "DEFAULT_TRIP_COUNT",
    "Segment",
    "StaticEstimate",
    "estimate_opt_tlp",
    "segment_kernel",
    "total_cycles",
    "total_mem_requests",
]
