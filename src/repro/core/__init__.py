"""CRAT: coordinated register allocation and TLP optimization.

The paper's primary contribution: resource-usage collection (Table 1),
design-space pruning (Section 4), the TPSC prediction model (Section
6), the thread-throttling baselines, and the orchestrating optimizer.
"""

from .crat import CRATOptimizer, CRATResult
from .design_space import DesignPoint, enumerate_space, prune
from .params import NVCC_DEFAULT_REG_CAP, ResourceUsage, collect_resource_usage
from .throttling import (
    BaselineResult,
    default_allocation,
    opt_tlp_from_profile,
    run_baselines,
)
from .tpsc import ScoredPoint, score, select_best, spill_cost, tlp_gain

__all__ = [
    "BaselineResult",
    "CRATOptimizer",
    "CRATResult",
    "DesignPoint",
    "NVCC_DEFAULT_REG_CAP",
    "ResourceUsage",
    "ScoredPoint",
    "collect_resource_usage",
    "default_allocation",
    "enumerate_space",
    "opt_tlp_from_profile",
    "prune",
    "run_baselines",
    "score",
    "select_best",
    "spill_cost",
    "tlp_gain",
]
