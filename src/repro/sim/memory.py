"""Functional memory images for the three PTX state spaces.

:class:`GlobalMemory` is shared by the whole grid and holds one buffer
per kernel parameter.  :class:`BlockMemory` gives each thread block of
a lockstep group its shared-memory image and each thread its private
local-memory image (spill stacks).  All accesses are vectorized: the
group supplies a lane-address array and an active-lane mask.

Addresses are virtual (see :mod:`repro.sim.values`); accesses that wrap
past a buffer are folded back in (synthetic workloads size their
buffers correctly, so wrapping only guards against pathological
generated addresses rather than silently corrupting neighbours).
"""

from __future__ import annotations

import copy
from typing import Dict, Optional

import numpy as np

from ..ptx.isa import DType, Space
from ..ptx.module import Kernel
from .values import GLOBAL_BASE, LOCAL_BASE, SHARED_BASE, np_dtype

_DEFAULT_PARAM_BYTES = 1 << 20  # 1 MiB per parameter unless specified


def _align_up(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment


class GlobalMemory:
    """The grid-wide global-memory image with per-parameter buffers."""

    def __init__(
        self,
        kernel: Kernel,
        param_sizes: Optional[Dict[str, int]] = None,
        fill_seed: Optional[int] = 12345,
    ):
        param_sizes = param_sizes or {}
        self.param_base: Dict[str, int] = {}
        offset = 0
        for param in kernel.params:
            size = _align_up(param_sizes.get(param.name, _DEFAULT_PARAM_BYTES), 256)
            self.param_base[param.name] = int(GLOBAL_BASE) + offset
            offset += size
        self.size = max(offset, 256)
        self.data = np.zeros(self.size, dtype=np.uint8)
        if fill_seed is not None:
            rng = np.random.default_rng(fill_seed)
            # Fill with small positive floats so float kernels stay finite.
            as_f32 = self.data[: self.size // 4 * 4].view(np.float32)
            as_f32[:] = rng.uniform(0.5, 1.5, size=as_f32.shape).astype(np.float32)

    def base_of(self, name: str) -> int:
        return self.param_base[name]

    def load(self, addrs: np.ndarray, dtype: DType, mask: np.ndarray) -> np.ndarray:
        return _gather(self.data, addrs - GLOBAL_BASE, dtype, mask)

    def store(
        self, addrs: np.ndarray, values: np.ndarray, dtype: DType, mask: np.ndarray
    ) -> None:
        _scatter(self.data, addrs - GLOBAL_BASE, values, dtype, mask)

    def read_buffer(self, name: str, dtype: DType, count: int) -> np.ndarray:
        """Read back a parameter buffer (test/inspection helper)."""
        start = self.base_of(name) - int(GLOBAL_BASE)
        width = dtype.bytes
        raw = self.data[start : start + count * width]
        return raw.view(np_dtype(dtype)).copy()

    def write_buffer(self, name: str, values: np.ndarray) -> None:
        """Fill a parameter buffer with test data."""
        start = self.base_of(name) - int(GLOBAL_BASE)
        raw = values.tobytes()
        self.data[start : start + len(raw)] = np.frombuffer(raw, dtype=np.uint8)


class BlockMemory:
    """Shared + local memory images for ``num_blocks`` thread blocks.

    Lanes are block-major.  Local memory is thread-private: storage is
    ``(num_blocks * block_size, local_bytes)`` and lane ``i`` accesses
    row ``i``.  Shared memory is one image per block: storage is
    ``(num_blocks, shared_bytes)`` and lane ``i`` accesses row
    ``i // block_size``.
    """

    def __init__(self, kernel: Kernel, block_size: int, num_blocks: int = 1):
        self.block_size = block_size
        shared_bytes = max(kernel.shared_bytes(), 4)
        local_bytes = max(kernel.local_bytes(), 4)
        self.shared = np.zeros(
            (num_blocks, _align_up(shared_bytes, 8)), dtype=np.uint8
        )
        self.local = np.zeros(
            (num_blocks * block_size, _align_up(local_bytes, 8)),
            dtype=np.uint8,
        )
        # Symbol bases within each space.
        self.sym_base: Dict[str, int] = {}
        shared_off = 0
        local_off = 0
        for arr in kernel.arrays:
            if arr.space is Space.SHARED:
                shared_off = _align_up(shared_off, arr.align)
                self.sym_base[arr.name] = int(SHARED_BASE) + shared_off
                shared_off += arr.size_bytes
            else:
                local_off = _align_up(local_off, arr.align)
                self.sym_base[arr.name] = int(LOCAL_BASE) + local_off
                local_off += arr.size_bytes

    def take(self, blocks: np.ndarray) -> "BlockMemory":
        """A copy holding only ``blocks`` (indices into these blocks)."""
        part = copy.copy(self)
        part.shared = self.shared[blocks]
        lanes = blocks[:, None] * self.block_size + np.arange(self.block_size)
        part.local = self.local[lanes.ravel()]
        return part

    def load_shared(
        self, addrs: np.ndarray, dtype: DType, mask: np.ndarray
    ) -> np.ndarray:
        offsets = (addrs - SHARED_BASE).astype(np.int64)
        return _gather_rows(
            self.shared, self._block_rows(len(addrs)), offsets, dtype, mask
        )

    def store_shared(
        self, addrs: np.ndarray, values: np.ndarray, dtype: DType, mask: np.ndarray
    ) -> None:
        offsets = (addrs - SHARED_BASE).astype(np.int64)
        _scatter_rows(
            self.shared, self._block_rows(len(addrs)), offsets, values,
            dtype, mask,
        )

    def load_local(
        self, addrs: np.ndarray, dtype: DType, mask: np.ndarray
    ) -> np.ndarray:
        offsets = (addrs - LOCAL_BASE).astype(np.int64)
        return _gather_rows(
            self.local, np.arange(len(addrs)), offsets, dtype, mask
        )

    def store_local(
        self, addrs: np.ndarray, values: np.ndarray, dtype: DType, mask: np.ndarray
    ) -> None:
        offsets = (addrs - LOCAL_BASE).astype(np.int64)
        _scatter_rows(
            self.local, np.arange(len(addrs)), offsets, values, dtype, mask
        )

    def _block_rows(self, lanes: int) -> np.ndarray:
        return np.arange(lanes) // self.block_size


# ----------------------------------------------------------------------
# Vectorized gather/scatter over byte images.
# ----------------------------------------------------------------------
def _gather(image: np.ndarray, offsets: np.ndarray, dtype: DType, mask: np.ndarray):
    width = dtype.bytes
    nd = np_dtype(dtype)
    n_words = image.size // width
    view = image[: n_words * width].view(nd)
    idx = (offsets.astype(np.int64) // width) % n_words
    out = view[idx]
    if not mask.all():
        out = np.where(mask, out, nd(0))
    return out.astype(nd)


def _scatter(image, offsets, values, dtype: DType, mask) -> None:
    width = dtype.bytes
    nd = np_dtype(dtype)
    n_words = image.size // width
    view = image[: n_words * width].view(nd)
    idx = (offsets.astype(np.int64) // width) % n_words
    view[idx[mask]] = values.astype(nd)[mask]


def _gather_rows(image2d, rows, offsets, dtype: DType, mask):
    """Lane ``i`` reads row ``rows[i]`` of a 2-D byte image."""
    width = dtype.bytes
    nd = np_dtype(dtype)
    cols = image2d.shape[1] // width
    view = image2d[:, : cols * width].view(nd)
    idx = (offsets // width) % cols
    out = view[rows, idx]
    if not mask.all():
        out = np.where(mask, out, nd(0))
    return out.astype(nd)


def _scatter_rows(image2d, rows, offsets, values, dtype: DType, mask) -> None:
    width = dtype.bytes
    nd = np_dtype(dtype)
    cols = image2d.shape[1] // width
    view = image2d[:, : cols * width].view(nd)
    idx = ((offsets // width) % cols)[mask]
    view[rows[mask], idx] = values.astype(nd)[mask]
