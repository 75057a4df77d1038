"""Content-addressed caching for simulation results.

A design point is identified by the tuple ``(kernel fingerprint,
configuration, grid_blocks, param_sizes, tlp, scheduler)``.  The kernel
contributes through :meth:`repro.ptx.module.Kernel.fingerprint` (a
digest of its canonical printed form) and the configuration through the
``repr`` of the frozen :class:`~repro.arch.config.GPUConfig` dataclass,
so two configs that differ in any field — even under the same preset
name — never collide.

The cache is two-level: an in-process LRU map, plus an optional
on-disk store (one file per key digest) enabled by passing a directory
or setting ``REPRO_CACHE_DIR``.  Disk entries survive across
processes, which is what makes repeated benchmark invocations free.

**Bounding.**  The in-memory level is unbounded by default (a one-shot
CLI run cannot outgrow its own working set) but accepts a maximum
entry count — ``REPRO_CACHE_MAX_ENTRIES`` or the ``max_entries``
constructor argument — above which the least-recently-used entry is
evicted (counted in :attr:`SimResultCache.evictions`).  A long-lived
host like ``repro serve`` sets a bound so the resident set stays flat
under arbitrary traffic; evicted entries that also live on disk are
re-admitted on their next lookup.

**Integrity.**  Each disk entry is framed as ``magic + sha256(payload)
+ payload`` (:data:`ENTRY_MAGIC`).  A truncated write (power loss,
full disk, an injected ``corrupt-cache`` fault), a garbled payload, or
a legacy bare-pickle file all fail verification on read; the entry is
**deleted** and reported through the ``on_corrupt`` hook (the engine
counts it and emits a ``cache_corrupt`` event) instead of being
silently treated as a miss on every future lookup.  Writes remain
atomic (temp file + rename), so readers never observe a half-written
entry under POSIX semantics either.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

from ..arch.config import GPUConfig
from ..ir.pipeline import PIPELINE_SCHEMA_VERSION
from ..sim.batch import BATCH_SCHEMA_VERSION
from ..sim.stats import SimResult
from . import faults
from .fastpath import FASTPATH_SCHEMA_VERSION

#: Environment variable naming the on-disk cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable bounding the in-memory result cache (entry
#: count; unset, empty, or <= 0 all mean unbounded).
CACHE_MAX_ENTRIES_ENV = "REPRO_CACHE_MAX_ENTRIES"


def resolve_max_entries(value: Optional[int] = None) -> Optional[int]:
    """Normalize a cache bound: explicit argument wins, then the
    ``REPRO_CACHE_MAX_ENTRIES`` environment variable; ``None`` or a
    non-positive value means unbounded.  Unparseable env values are
    ignored (unbounded) rather than fatal — matching ``resolve_jobs``'s
    tolerance for bad environments."""
    if value is None:
        raw = os.environ.get(CACHE_MAX_ENTRIES_ENV, "").strip()
        if not raw:
            return None
        try:
            value = int(raw)
        except ValueError:
            return None
    return value if value > 0 else None

#: Revision of the cached-result layout itself (what a ``SimResult``
#: contains and how keys are built).  v2: checksummed entry framing +
#: the ``estimated`` result flag.
RESULT_SCHEMA_VERSION = 2

#: Leading magic of a framed disk entry; bump with the framing.
ENTRY_MAGIC = b"RPRC2\n"

_DIGEST_LEN = hashlib.sha256().digest_size


class CacheCorruptionError(Exception):
    """A persistent cache entry failed integrity verification."""

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{reason}: {path}")


def cache_schema_version() -> str:
    """The schema tag baked into every simulation-cache key.

    Combines the result-layout revision with the fast-path scoring
    revision (:data:`repro.engine.fastpath.FASTPATH_SCHEMA_VERSION`),
    the optimization-pipeline revision
    (:data:`repro.ir.pipeline.PIPELINE_SCHEMA_VERSION`) and the batched
    simulation core's revision
    (:data:`repro.sim.batch.BATCH_SCHEMA_VERSION`): on-disk entries
    written under a different scoring model — whose pruning decided
    *which* points ever got simulated — under pass semantics that have
    since changed, or by a batched core whose semantics have since been
    revised, are invalidated wholesale by a version bump rather than
    trusted silently.
    """
    return (
        f"r{RESULT_SCHEMA_VERSION}.fp{FASTPATH_SCHEMA_VERSION}"
        f".pp{PIPELINE_SCHEMA_VERSION}.b{BATCH_SCHEMA_VERSION}"
        # Retired tier-0 model tag, kept so existing disk caches still hit.
        ".m1"
    )


SimKey = Tuple[str, str, str, int, Tuple[Tuple[str, int], ...], int, str, str]


def config_signature(config: GPUConfig) -> str:
    """A stable, content-complete rendering of a configuration.

    ``GPUConfig`` is a frozen dataclass whose ``repr`` lists every
    field (including the nested cache/latency configs), so it is a
    faithful content key — unlike ``config.name``, which ``scaled()``
    copies share.
    """
    return repr(config)


def make_sim_key(
    fingerprint: str,
    config: GPUConfig,
    grid_blocks: int,
    param_sizes: Optional[Dict[str, int]],
    tlp: int,
    scheduler: str,
    pipeline: str = "",
    schema: Optional[str] = None,
) -> SimKey:
    """Build a cache key; ``schema`` defaults to the current version.

    ``pipeline`` is the active ``--passes`` signature
    (:func:`repro.ir.pipeline.pipeline_signature`); folding it into the
    key means results produced under different pass pipelines can never
    alias, even when a pass happens to leave a kernel's content (and
    hence its fingerprint) unchanged.
    """
    if schema is None:
        schema = cache_schema_version()
    params = tuple(sorted((param_sizes or {}).items()))
    return (
        schema,
        fingerprint,
        config_signature(config),
        grid_blocks,
        params,
        tlp,
        scheduler,
        pipeline,
    )


def key_digest(key: Tuple) -> str:
    """Short hex digest of a cache key (disk filename / event label)."""
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:16]


def encode_entry(result: SimResult, token: str = "") -> bytes:
    """Frame a result for disk: magic + payload checksum + payload.

    ``token`` feeds the fault-injection harness — under an active
    ``corrupt-cache`` fault the *stored* payload is perturbed while the
    checksum still covers the clean payload, which is exactly what a
    torn write looks like to the reader.
    """
    payload = pickle.dumps(result)
    stored = faults.corrupt_payload(token, payload) if token else payload
    return ENTRY_MAGIC + hashlib.sha256(payload).digest() + stored


def decode_entry(data: bytes, path: str = "<memory>") -> SimResult:
    """Verify and unpickle a framed entry.

    Raises :class:`CacheCorruptionError` on a missing/foreign magic
    (legacy bare-pickle entries included), a short read, or a checksum
    mismatch.
    """
    if not data.startswith(ENTRY_MAGIC):
        raise CacheCorruptionError(path, "legacy or foreign entry format")
    header_len = len(ENTRY_MAGIC) + _DIGEST_LEN
    if len(data) < header_len:
        raise CacheCorruptionError(path, "truncated entry header")
    digest = data[len(ENTRY_MAGIC):header_len]
    payload = data[header_len:]
    if hashlib.sha256(payload).digest() != digest:
        raise CacheCorruptionError(path, "checksum mismatch")
    try:
        return pickle.loads(payload)
    except Exception as err:
        # Checksum passed but unpickling failed: written by an
        # incompatible interpreter / class layout.
        raise CacheCorruptionError(path, f"unreadable payload: {err}")


class SimResultCache:
    """In-memory dict fronting an optional on-disk checksummed store.

    ``on_corrupt(path, reason)`` is invoked whenever a disk entry fails
    verification (it has already been deleted by then); the engine uses
    it to emit ``cache_corrupt`` instrumentation.
    """

    def __init__(
        self,
        disk_dir: Optional[str] = None,
        on_corrupt: Optional[Callable[[str, str], None]] = None,
        max_entries: Optional[int] = None,
    ):
        if disk_dir is None:
            disk_dir = os.environ.get(CACHE_DIR_ENV) or None
        self.disk_dir = disk_dir
        self.on_corrupt = on_corrupt
        self.corrupt_entries = 0
        self.evictions = 0
        self.max_entries = resolve_max_entries(max_entries)
        self._memory: "OrderedDict[SimKey, SimResult]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._memory)

    def set_max_entries(self, max_entries: Optional[int]) -> None:
        """Re-bound the in-memory level (``None``/``<=0`` unbounds it);
        an over-budget cache sheds its LRU tail immediately."""
        self.max_entries = (
            max_entries if max_entries is not None and max_entries > 0 else None
        )
        self._evict_over_budget()

    def _evict_over_budget(self) -> None:
        if self.max_entries is None:
            return
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)
            self.evictions += 1

    def _disk_path(self, key: SimKey) -> Optional[str]:
        if not self.disk_dir:
            return None
        return os.path.join(self.disk_dir, f"sim-{key_digest(key)}.pkl")

    def _discard_corrupt(self, path: str, reason: str) -> None:
        try:
            os.remove(path)
        except OSError:
            pass
        self.corrupt_entries += 1
        if self.on_corrupt:
            self.on_corrupt(path, reason)

    # ------------------------------------------------------------------
    def get(self, key: SimKey) -> Tuple[Optional[SimResult], str]:
        """Look a key up; returns ``(result, source)`` where source is
        ``"memory"``, ``"disk"``, or ``"miss"``."""
        result = self._memory.get(key)
        if result is not None:
            self._memory.move_to_end(key)
            return result, "memory"
        path = self._disk_path(key)
        if path and os.path.exists(path):
            try:
                with open(path, "rb") as handle:
                    data = handle.read()
            except OSError:
                return None, "miss"
            try:
                result = decode_entry(data, path)
            except CacheCorruptionError as err:
                self._discard_corrupt(path, err.reason)
                return None, "miss"
            self._memory[key] = result
            self._evict_over_budget()
            return result, "disk"
        return None, "miss"

    def put(self, key: SimKey, result: SimResult) -> None:
        if getattr(result, "estimated", False):
            # Degraded analytical estimates never enter the cache: a
            # later healthy run must re-simulate the real point.
            return
        self._memory[key] = result
        self._memory.move_to_end(key)
        self._evict_over_budget()
        path = self._disk_path(key)
        if path:
            try:
                os.makedirs(self.disk_dir, exist_ok=True)
                tmp = f"{path}.tmp.{os.getpid()}"
                with open(tmp, "wb") as handle:
                    handle.write(encode_entry(result, token=key_digest(key)))
                os.replace(tmp, path)
            except OSError:
                pass  # disk persistence is best-effort

    def clear(self, disk: bool = False) -> None:
        self._memory.clear()
        if disk and self.disk_dir and os.path.isdir(self.disk_dir):
            for name in os.listdir(self.disk_dir):
                if name.startswith("sim-") and name.endswith(".pkl"):
                    try:
                        os.remove(os.path.join(self.disk_dir, name))
                    except OSError:
                        pass
