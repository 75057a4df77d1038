"""Suite loader: one-call access to a ready-to-run workload.

A :class:`Workload` bundles the generated kernel with its buffer sizes
and grid so experiments can run it with one call.  Kernels are
immutable and generated once per process.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, List, Optional

from ..ptx.module import Kernel
from .characteristics import (
    ALL_APPS,
    AppCharacteristics,
    RESOURCE_INSENSITIVE,
    RESOURCE_SENSITIVE,
    get_app,
)
from .generator import generate_kernel, param_sizes


@dataclasses.dataclass
class Workload:
    """A runnable benchmark instance."""

    app: AppCharacteristics
    kernel: Kernel
    param_sizes: Dict[str, int]
    input_scale: float = 1.0

    @property
    def abbr(self) -> str:
        return self.app.abbr

    @property
    def grid_blocks(self) -> int:
        return self.app.grid_blocks

    @property
    def default_reg(self) -> Optional[int]:
        return self.app.default_reg


def load_workload(abbr: str, input_scale: float = 1.0) -> Workload:
    """Build the workload for one app abbreviation (e.g. ``"CFD"``).

    Each call returns a new :class:`Workload`, but the kernel is
    generated once per (app, input scale) per process: every workload
    of one app and scale holds the same (immutable) kernel object.
    """
    app = get_app(abbr)
    return Workload(
        app=app,
        kernel=_kernel_of(app.abbr, input_scale),
        param_sizes=param_sizes(app, input_scale),
        input_scale=input_scale,
    )


@functools.lru_cache(maxsize=None)
def _kernel_of(abbr: str, input_scale: float) -> Kernel:
    # Generation is a pure function of the app table.
    return generate_kernel(get_app(abbr), input_scale)


def sensitive_suite() -> List[Workload]:
    """The 11 resource-sensitive workloads (paper Figures 13-17)."""
    return [load_workload(app.abbr) for app in RESOURCE_SENSITIVE]


def insensitive_suite() -> List[Workload]:
    """The 11 resource-insensitive workloads (paper Figure 19)."""
    return [load_workload(app.abbr) for app in RESOURCE_INSENSITIVE]


def full_suite() -> List[Workload]:
    """All 22 workloads of paper Table 3."""
    return [load_workload(app.abbr) for app in ALL_APPS]
