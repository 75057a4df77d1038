"""Lane-value helpers: numpy dtypes and virtual address layout.

The functional executor vectorizes the lanes of a group of thread
blocks into numpy arrays.  This module maps IR data types onto numpy dtypes and defines
the virtual address layout that separates the PTX state spaces:

* ``GLOBAL_BASE`` — kernel parameter buffers live here,
* ``SHARED_BASE`` — per-block shared arrays,
* ``LOCAL_BASE``  — per-thread local arrays (spill stacks).

A virtual address encodes the space in its top bits so that address
arithmetic performed by kernel code (base + offset computations) stays
meaningful, while loads/stores recover the space-relative offset.
"""

from __future__ import annotations

import numpy as np

from ..ptx.isa import DType

GLOBAL_BASE = np.uint64(0x1000_0000)
SHARED_BASE = np.uint64(0x4000_0000)
LOCAL_BASE = np.uint64(0x6000_0000)

NUMPY_DTYPE = {
    DType.U8: np.uint8,
    DType.U16: np.uint16,
    DType.U32: np.uint32,
    DType.U64: np.uint64,
    DType.S8: np.int8,
    DType.S16: np.int16,
    DType.S32: np.int32,
    DType.S64: np.int64,
    DType.F32: np.float32,
    DType.F64: np.float64,
    DType.B8: np.uint8,
    DType.B16: np.uint16,
    DType.B32: np.uint32,
    DType.B64: np.uint64,
    DType.PRED: np.bool_,
}


def np_dtype(dtype: DType):
    """The numpy dtype that carries one lane of an IR value."""
    return NUMPY_DTYPE[dtype]


def cast_lanes(values: np.ndarray, dtype: DType) -> np.ndarray:
    """Convert lane values to the numpy dtype of ``dtype`` (C-like cast)."""
    target = np_dtype(dtype)
    if values.dtype == target:
        return values
    with np.errstate(invalid="ignore", over="ignore"):
        return values.astype(target)
