"""Content-addressed caching for simulation results.

A design point is identified by the tuple ``(kernel fingerprint,
configuration, grid_blocks, param_sizes, tlp)``.  The kernel
contributes through :meth:`repro.ptx.module.Kernel.fingerprint` (a
digest of its canonical printed form) and the configuration through the
``repr`` of the frozen :class:`~repro.arch.config.GPUConfig` dataclass,
so two configs that differ in any field — even under the same preset
name — never collide.

The cache is two-level: an in-process LRU map, plus an optional
on-disk store (one file per key digest) enabled by passing a directory
or setting ``REPRO_CACHE_DIR``.  Disk entries survive across
processes, which is what makes repeated benchmark invocations free.
The engine's stage memo keeps its entries in the same directory,
through the same reader and writer (:meth:`SimResultCache.read_entry`,
:meth:`SimResultCache.write_entry`), keyed by :func:`source_digest`.

**Bounding.**  The in-memory level is unbounded by default (a one-shot
CLI run cannot outgrow its own working set) but accepts a maximum
entry count — ``REPRO_CACHE_MAX_ENTRIES`` or the ``max_entries``
constructor argument — above which the least-recently-used entry is
evicted (counted in :attr:`SimResultCache.evictions`).  A long-lived
host like ``repro serve`` sets a bound so the resident set stays flat
under arbitrary traffic; evicted entries that also live on disk are
re-admitted on their next lookup.  The engine's stage memo and trace
cache are bounded by the same value; all three memory levels are an
:class:`LRUMap`, whose lock lets a daemon's workers share them.

**Integrity.**  Each disk entry is framed as ``magic + sha256(payload)
+ payload`` (:data:`ENTRY_MAGIC`).  A truncated write (power loss,
full disk), a garbled payload, or a legacy bare-pickle file all fail
verification on read; the entry is **deleted** and reported through
the ``on_corrupt`` hook (the engine counts it and emits a
``cache_corrupt`` mark) instead of being silently treated as a miss
on every future lookup.  Writes remain
atomic: each writer fills its own uniquely named temp file and renames
it into place, so concurrent writers of one key (threads or processes)
never share a file, and readers never observe a half-written entry
under POSIX semantics either.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from typing import Callable, Dict, Generic, Optional, Tuple, TypeVar

from ..arch.config import GPUConfig
from ..ir.pipeline import PIPELINE_SCHEMA_VERSION
from ..sim.batch import BATCH_SCHEMA_VERSION
from ..sim.stats import SimResult

#: Environment variable naming the on-disk cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable bounding the in-memory result cache (entry
#: count; unset, empty, or <= 0 all mean unbounded).
CACHE_MAX_ENTRIES_ENV = "REPRO_CACHE_MAX_ENTRIES"


def resolve_max_entries(
    value: Optional[int] = None, default: Optional[int] = None
) -> Optional[int]:
    """Normalize a cache bound: an explicit ``value`` wins, then the
    ``REPRO_CACHE_MAX_ENTRIES`` environment variable, then ``default``
    (an unset, empty or unparseable variable falls through to it,
    rather than being fatal).  No bound, or a non-positive one, means
    unbounded: ``None``."""
    if value is None:
        try:
            value = int(os.environ.get(CACHE_MAX_ENTRIES_ENV, "").strip())
        except ValueError:
            value = default
    return value if value is not None and value > 0 else None

#: Revision of the cached-result layout itself (what a ``SimResult``
#: contains and how keys are built).  v2: checksummed entry framing +
#: the ``estimated`` result flag.
RESULT_SCHEMA_VERSION = 2

#: Leading magic of a framed disk entry; bump with the framing.
ENTRY_MAGIC = b"RPRC2\n"

_DIGEST_LEN = hashlib.sha256().digest_size

T = TypeVar("T")


class CacheCorruptionError(Exception):
    """A persistent cache entry failed integrity verification."""

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{reason}: {path}")


def cache_schema_version() -> str:
    """The schema tag baked into every simulation-cache key.

    Combines the result-layout revision with the optimization-pipeline
    revision (:data:`repro.ir.pipeline.PIPELINE_SCHEMA_VERSION`) and
    the batched simulation core's revision
    (:data:`repro.sim.batch.BATCH_SCHEMA_VERSION`): on-disk entries
    written under pass semantics that have since changed, or by a
    batched core whose semantics have since been revised, are
    invalidated wholesale by a version bump rather than trusted
    silently.
    """
    return (
        # ``fp1`` and ``m1`` tag the retired fast-path and tier-0
        # models; kept as literals so existing disk caches still hit.
        f"r{RESULT_SCHEMA_VERSION}.fp1"
        f".pp{PIPELINE_SCHEMA_VERSION}.b{BATCH_SCHEMA_VERSION}"
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
    *,
    schema: Optional[str] = None,
) -> SimKey:
    """Build a cache key; ``schema`` defaults to the current version.

    ``fingerprint`` names the kernel that is simulated, after any
    ``--passes`` pipeline ran, so the key needs no pipeline term.
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
        # Once the warp scheduler and the ``--passes`` signature; kept
        # as literals, like ``fp1``/``m1`` in the schema tag, so
        # existing disk caches still hit.
        "gto",
        "",
    )


def key_digest(key: Tuple) -> str:
    """Short hex digest of a cache key (disk filename / event label)."""
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:16]


def frame_entry(payload: bytes) -> bytes:
    """Frame a payload for disk: magic + payload checksum + payload."""
    return ENTRY_MAGIC + hashlib.sha256(payload).digest() + payload


def encode_entry(result: SimResult) -> bytes:
    """A result pickled and framed for disk (:func:`frame_entry`)."""
    return frame_entry(pickle.dumps(result))


def decode_entry(
    data: bytes,
    path: str = "<memory>",
    decode: Callable[[bytes], T] = pickle.loads,
) -> T:
    """Verify a framed entry and ``decode`` its payload (unpickle it).

    Raises :class:`CacheCorruptionError` on a missing/foreign magic
    (legacy bare-pickle entries included), a short read, a checksum
    mismatch, or a payload ``decode`` rejects.
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
        return decode(payload)
    except Exception as err:
        # Checksum passed but decoding failed: written by an
        # incompatible interpreter / class layout.
        raise CacheCorruptionError(path, f"unreadable payload: {err}")


@functools.lru_cache(maxsize=None)
def source_digest() -> Optional[str]:
    """sha256 over the relative path and bytes of every ``*.py`` file
    of the ``repro`` package, or ``None`` if a file cannot be read.

    Computed once per process.  Disk memo entries are keyed by the
    stage's *input* kernel, so unlike a simulation key (which names the
    allocated kernel) nothing in the key changes when the code that
    computes the value does; this digest does.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    files = sorted(
        os.path.relpath(os.path.join(folder, name), root).replace(os.sep, "/")
        for folder, _, names in os.walk(root)
        for name in names
        if name.endswith(".py")
    )
    digest = hashlib.sha256()
    try:
        for rel in files:
            with open(os.path.join(root, rel), "rb") as handle:
                data = handle.read()
            digest.update(f"{rel}\0{len(data)}\0".encode("utf-8"))
            digest.update(data)
    except OSError:
        return None
    return digest.hexdigest()


class LRUMap(Generic[T]):
    """A locked LRU map: :meth:`get` refreshes an entry, :meth:`put`
    stores one as most recent and evicts least-recent entries past
    ``max_entries`` (``None``: unbounded), counting them in
    :attr:`evictions`."""

    def __init__(self, max_entries: Optional[int] = None):
        self.max_entries = max_entries
        self.evictions = 0
        self._data: "OrderedDict[Tuple, T]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Tuple) -> Optional[T]:
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self._data.move_to_end(key)
            return value

    def put(self, key: Tuple, value: T) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            self._evict_over_budget()

    def set_max_entries(self, max_entries: Optional[int]) -> None:
        """Re-bound the map (``None``/``<=0`` unbounds it); an
        over-budget map sheds its LRU tail immediately."""
        with self._lock:
            self.max_entries = (
                max_entries if max_entries is not None and max_entries > 0
                else None
            )
            self._evict_over_budget()

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def _evict_over_budget(self) -> None:
        while self.max_entries is not None and len(self._data) > self.max_entries:
            self._data.popitem(last=False)
            self.evictions += 1


class SimResultCache:
    """In-memory LRU map fronting an optional on-disk checksummed store.

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
        self._memory: LRUMap[SimResult] = LRUMap(
            resolve_max_entries(max_entries)
        )

    def __len__(self) -> int:
        return len(self._memory)

    def set_max_entries(self, max_entries: Optional[int]) -> None:
        """Re-bound the in-memory level (:meth:`LRUMap.set_max_entries`)."""
        self._memory.set_max_entries(max_entries)

    @property
    def max_entries(self) -> Optional[int]:
        return self._memory.max_entries

    @property
    def evictions(self) -> int:
        return self._memory.evictions

    def _disk_path(self, kind: str, digest: str) -> str:
        return os.path.join(self.disk_dir, f"{kind}-{digest}.pkl")

    def _discard_corrupt(self, path: str, reason: str) -> None:
        try:
            os.remove(path)
        except OSError:
            pass
        self.corrupt_entries += 1
        if self.on_corrupt:
            self.on_corrupt(path, reason)

    # ------------------------------------------------------------------
    # The disk store, shared by simulation results and the stage memo.
    # ------------------------------------------------------------------
    def read_entry(
        self,
        kind: str,
        key: Tuple,
        decode: Callable[[bytes], T] = pickle.loads,
    ) -> Optional[T]:
        """The decoded disk entry ``{kind}-{key digest}.pkl``, or
        ``None`` without a disk directory or such an entry.

        An entry that fails verification or ``decode`` is deleted,
        reported through ``on_corrupt`` and read as a miss.
        """
        if not self.disk_dir:
            return None
        path = self._disk_path(kind, key_digest(key))
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            return None
        try:
            return decode_entry(data, path, decode)
        except CacheCorruptionError as err:
            self._discard_corrupt(path, err.reason)
            return None

    def write_entry(self, kind: str, key: Tuple, payload: bytes) -> None:
        """Persist ``payload`` framed as ``{kind}-{key digest}.pkl``
        (best effort; a no-op without a disk directory).

        The writer creates the directory, fills its own temp file there
        and renames it into place: concurrent writers of one key never
        share a file, and a reader sees a whole entry or none.
        """
        if not self.disk_dir:
            return
        digest = key_digest(key)
        data = frame_entry(payload)
        try:
            os.makedirs(self.disk_dir, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                prefix=f"{kind}-{digest}.", suffix=".tmp", dir=self.disk_dir
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                os.replace(tmp, self._disk_path(kind, digest))
            except BaseException:
                with contextlib.suppress(OSError):
                    os.remove(tmp)
                raise
        except OSError:
            pass  # disk persistence is best-effort

    # ------------------------------------------------------------------
    def get(self, key: SimKey) -> Tuple[Optional[SimResult], str]:
        """Look a key up; returns ``(result, source)`` where source is
        ``"memory"``, ``"disk"``, or ``"miss"``."""
        result = self._memory.get(key)
        if result is not None:
            return result, "memory"
        result = self.read_entry("sim", key)
        if result is None:
            return None, "miss"
        self._memory.put(key, result)
        return result, "disk"

    def put(self, key: SimKey, result: SimResult) -> None:
        self._memory.put(key, result)
        if self.disk_dir:
            self.write_entry("sim", key, pickle.dumps(result))

    def clear(self, disk: bool = False) -> None:
        """Drop the memory level; ``disk=True`` also deletes every
        simulation and stage-memo entry on disk."""
        self._memory.clear()
        if disk and self.disk_dir and os.path.isdir(self.disk_dir):
            for name in os.listdir(self.disk_dir):
                if name.startswith(("sim-", "memo-")) and name.endswith(".pkl"):
                    try:
                        os.remove(os.path.join(self.disk_dir, name))
                    except OSError:
                        pass
