"""Static performance analysis and lint.

Two cooperating layers: the estimators (kernel segmentation, the
GTO-mimic OptTLP estimator of paper Figure 10, a Hong-Kim-style
analytical cross-check) and the ``repro lint`` subsystem — whole-kernel
static analyses over the shared :class:`~repro.analysis.context.LintContext`
emitting stable ``LNT`` rule codes (:func:`run_lint`)."""

from .context import LintContext
from .gto_model import StaticEstimate, estimate_opt_tlp, throughput_cost
from .hongkim import AnalyticalPrediction, predict_cycles
from .lint import run_lint, severity_gate
from .sarif import to_sarif
from .segments import (
    DEFAULT_TRIP_COUNT,
    Segment,
    segment_kernel,
    total_cycles,
    total_mem_requests,
)
from .uniformity import AbsVal, Kind, UniformityInfo, analyze_uniformity

__all__ = [
    "AbsVal",
    "AnalyticalPrediction",
    "DEFAULT_TRIP_COUNT",
    "Kind",
    "LintContext",
    "Segment",
    "StaticEstimate",
    "UniformityInfo",
    "analyze_uniformity",
    "estimate_opt_tlp",
    "predict_cycles",
    "run_lint",
    "segment_kernel",
    "severity_gate",
    "throughput_cost",
    "to_sarif",
    "total_cycles",
    "total_mem_requests",
]
