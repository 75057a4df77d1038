"""Shard supervision for the fleet tier: spawn, watch, heal.

One :class:`ShardSupervisor` owns one engine-shard subprocess (a plain
``repro serve`` daemon with a shard identity in its environment) and
drives its whole lifecycle from an asyncio task inside the fleet
router's event loop:

* **boot** — restore any warm state the ring successor replicated for
  this shard (missing journal files only; local files win), spawn the
  subprocess, and wait for its socket to answer ``ping`` within the
  boot deadline;
* **watch** — heartbeat the shard's ``health`` control job on a fixed
  interval with a hard per-probe deadline; a crashed process
  (``poll()``) is detected immediately, a hung one after
  ``miss_threshold`` consecutive missed heartbeats;
* **heal** — declare the shard dead (waking every dispatch parked on
  it so the router re-routes), kill the process, wait out a bounded
  exponential backoff, and boot again with a bumped restart epoch.

The supervisor never decides *routing* — that is the hash ring's job —
it only publishes liveness.  Everything observable (spawn, ready,
heartbeat-miss, dead, restart, restore) is emitted as a typed
:class:`~repro.engine.events.ShardEvent` and mirrored into the fleet
counters, so ``repro fleet status`` and the chaos smoke read recovery
behavior from data, not logs.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import shutil
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from ..engine.engine import CHECKPOINT_DIR_ENV
from .protocol import PROTOCOL_VERSION  # noqa: F401  (re-exported context)
from .server import SHARD_EPOCH_ENV, SHARD_ID_ENV

#: Exit code a shard uses for an injected abrupt death (``os._exit``);
#: only meaningful in logs — the supervisor treats every unexpected
#: exit the same way.
SHARD_CRASH_EXIT = 86


def restart_backoff(
    restarts: int, base: float = 0.2, cap: float = 5.0
) -> float:
    """Bounded exponential backoff before restart number ``restarts``
    (1-based: the first restart waits ``base``)."""
    if restarts <= 0:
        return 0.0
    return min(cap, base * (2.0 ** (restarts - 1)))


def replicate_files(
    src_dir: str, dst_dir: str, names: List[str]
) -> List[str]:
    """Copy ``names`` from a shard's checkpoint dir into its ring
    successor's replica area.  Best-effort and idempotent: a file that
    vanished mid-round (cache eviction) is skipped, not fatal."""
    copied: List[str] = []
    try:
        os.makedirs(dst_dir, exist_ok=True)
    except OSError:
        return copied
    for name in names:
        src = os.path.join(src_dir, name)
        dst = os.path.join(dst_dir, name)
        try:
            shutil.copy2(src, dst)
        except OSError:
            continue
        copied.append(name)
    return copied


def restore_missing(replica_dir: str, checkpoint_dir: str) -> List[str]:
    """Seed a (re)booting shard's checkpoint dir from its replica.

    Only files the shard does not already have locally are restored —
    the local journal survived an ordinary crash on the same host and
    is always at least as fresh as the replica; the replica matters
    when the shard's own state is gone (new host, wiped disk)."""
    restored: List[str] = []
    if not os.path.isdir(replica_dir):
        return restored
    try:
        os.makedirs(checkpoint_dir, exist_ok=True)
    except OSError:
        return restored
    for name in sorted(os.listdir(replica_dir)):
        src = os.path.join(replica_dir, name)
        dst = os.path.join(checkpoint_dir, name)
        if not os.path.isfile(src) or os.path.exists(dst):
            continue
        try:
            shutil.copy2(src, dst)
        except OSError:
            continue
        restored.append(name)
    return restored


@dataclasses.dataclass
class ShardSpec:
    """Static configuration of one engine shard."""

    shard_id: str
    socket_path: str
    checkpoint_dir: str
    replica_dir: str  # where *this shard's* state is replicated to
    workers: int = 2
    queue_limit: int = 64
    passes: str = ""

    def spawn_command(self) -> List[str]:
        cmd = [
            sys.executable, "-m", "repro.cli", "serve",
            "--socket", self.socket_path,
            "--workers", str(self.workers),
            "--queue-limit", str(self.queue_limit),
            "--log-interval", "0",
        ]
        if self.passes:
            cmd += ["--passes", self.passes]
        return cmd

    def spawn_env(self, epoch: int) -> Dict[str, str]:
        env = dict(os.environ)
        env[SHARD_ID_ENV] = self.shard_id
        env[SHARD_EPOCH_ENV] = str(epoch)
        env[CHECKPOINT_DIR_ENV] = self.checkpoint_dir
        env.pop("REPRO_SOCKET", None)
        env.setdefault("PYTHONPATH", "src")
        return env


class ShardHandle:
    """Mutable runtime state of one shard, owned by its supervisor and
    read by the router (same event loop, no locking needed)."""

    def __init__(self, spec: ShardSpec):
        self.spec = spec
        self.proc: Optional[subprocess.Popen] = None
        self.live = False
        self.state = "booting"  # booting | live | dead | backoff
        self.epoch = 0          # restart count == current epoch
        self.consecutive_misses = 0
        self.heartbeat_misses = 0
        self.last_heartbeat_at: Optional[float] = None
        self.last_health: Optional[Dict[str, Any]] = None
        self.died_at: Optional[float] = None
        self.last_recovery_seconds: Optional[float] = None
        self.max_recovery_seconds: float = 0.0
        #: Set when the shard is declared dead; every dispatch parked
        #: on this shard races its reply read against this event.
        self.dead_event: asyncio.Event = asyncio.Event()

    @property
    def shard_id(self) -> str:
        return self.spec.shard_id

    @property
    def restarts(self) -> int:
        return self.epoch

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid if self.proc is not None else None

    def status(self, now: Optional[float] = None) -> Dict[str, Any]:
        now = time.monotonic() if now is None else now
        return {
            "live": self.live,
            "state": self.state,
            "socket": self.spec.socket_path,
            "pid": self.pid,
            "epoch": self.epoch,
            "restarts": self.restarts,
            "consecutive_misses": self.consecutive_misses,
            "heartbeat_misses": self.heartbeat_misses,
            "last_heartbeat_age": (
                now - self.last_heartbeat_at
                if self.last_heartbeat_at is not None
                else None
            ),
            "last_recovery_seconds": self.last_recovery_seconds,
            "max_recovery_seconds": self.max_recovery_seconds,
            "health": self.last_health,
        }

    def kill(self) -> None:
        if self.proc is None:
            return
        pgid = self.proc.pid
        try:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=5.0)
        except (OSError, subprocess.TimeoutExpired):
            pass
        # The shard leads its own process group (start_new_session), so
        # this also reaps anything it forked.  A forked child inherits
        # the shard's *listening socket*: an orphan keeps the socket
        # accept()-able after the shard dies, and every restarted epoch
        # then refuses to boot with "a server is already listening" — a
        # crash loop with nobody serving.
        if hasattr(os, "killpg"):
            try:
                os.killpg(pgid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError, OSError):
                pass


class ShardSupervisor:
    """The per-shard healing loop (one asyncio task per shard)."""

    def __init__(
        self,
        handle: ShardHandle,
        fleet,  # FleetRouter — typed loosely to avoid an import cycle
        heartbeat_interval: float = 1.0,
        heartbeat_timeout: float = 1.0,
        miss_threshold: int = 3,
        boot_timeout: float = 30.0,
        backoff_base: float = 0.2,
        backoff_cap: float = 5.0,
        max_restarts: Optional[int] = None,
    ):
        self.handle = handle
        self.fleet = fleet
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.miss_threshold = max(1, miss_threshold)
        self.boot_timeout = boot_timeout
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.max_restarts = max_restarts

    # ------------------------------------------------------------------
    # Lifecycle loop.
    # ------------------------------------------------------------------
    async def run(self) -> None:
        handle = self.handle
        while not self.fleet.stopping:
            booted = await self._boot()
            if self.fleet.stopping:
                return
            if booted:
                reason = await self._watch()
                if self.fleet.stopping:
                    return
                await self._declare_dead(reason)
            if (
                self.max_restarts is not None
                and handle.epoch >= self.max_restarts
            ):
                self.fleet.emit_shard_event(
                    handle.shard_id, "dead", handle.epoch,
                    detail="restart budget exhausted",
                )
                return
            handle.epoch += 1
            handle.state = "backoff"
            delay = restart_backoff(
                handle.epoch, self.backoff_base, self.backoff_cap
            )
            self.fleet.emit_shard_event(
                handle.shard_id, "restart", handle.epoch,
                detail=f"backoff {delay:.2f}s",
            )
            self.fleet.stats.restarts += 1
            await self.fleet.sleep(delay)

    async def _boot(self) -> bool:
        handle = self.handle
        spec = handle.spec
        handle.state = "booting"
        restored = restore_missing(spec.replica_dir, spec.checkpoint_dir)
        if restored:
            self.fleet.emit_shard_event(
                handle.shard_id, "restore", handle.epoch,
                detail=f"{len(restored)} journal files from replica",
            )
        try:
            # Each shard leads its own process group so kill() can take
            # down anything it forked with it (a child inherits the
            # listening socket — see kill()).
            handle.proc = subprocess.Popen(
                spec.spawn_command(),
                env=spec.spawn_env(handle.epoch),
                start_new_session=hasattr(os, "killpg"),
            )
        except OSError as err:
            self.fleet.emit_shard_event(
                handle.shard_id, "dead", handle.epoch,
                detail=f"spawn failed: {err}",
            )
            await self.fleet.sleep(
                restart_backoff(max(1, handle.epoch),
                                self.backoff_base, self.backoff_cap)
            )
            return False
        self.fleet.stats.spawns += 1
        self.fleet.emit_shard_event(
            handle.shard_id, "spawn", handle.epoch,
            detail=f"pid {handle.proc.pid}",
        )
        deadline = time.monotonic() + self.boot_timeout
        while time.monotonic() < deadline and not self.fleet.stopping:
            if handle.proc.poll() is not None:
                self.fleet.emit_shard_event(
                    handle.shard_id, "dead", handle.epoch,
                    detail=f"exited {handle.proc.returncode} during boot",
                )
                handle.kill()  # reap any process-group stragglers
                return False
            try:
                reply = await self.fleet.shard_control(
                    handle, "ping", timeout=self.heartbeat_timeout
                )
            except Exception:
                await self.fleet.sleep(0.1)
                continue
            if reply.get("status") == "ok":
                self._mark_ready()
                return True
            await self.fleet.sleep(0.1)
        if not self.fleet.stopping:
            self.fleet.emit_shard_event(
                handle.shard_id, "dead", handle.epoch,
                detail="never answered ping within boot deadline",
            )
            handle.kill()
        return False

    def _mark_ready(self) -> None:
        handle = self.handle
        handle.live = True
        handle.state = "live"
        handle.consecutive_misses = 0
        handle.dead_event = asyncio.Event()
        handle.last_heartbeat_at = time.monotonic()
        if handle.died_at is not None:
            recovery = time.monotonic() - handle.died_at
            handle.last_recovery_seconds = recovery
            handle.max_recovery_seconds = max(
                handle.max_recovery_seconds, recovery
            )
            handle.died_at = None
        self.fleet.note_shard_ready(handle)
        self.fleet.emit_shard_event(
            handle.shard_id, "ready", handle.epoch,
            detail=f"pid {handle.pid}",
        )

    async def _watch(self) -> str:
        """Heartbeat until the shard dies; returns the death reason."""
        handle = self.handle
        while not self.fleet.stopping:
            await self.fleet.sleep(self.heartbeat_interval)
            if self.fleet.stopping:
                return "fleet stopping"
            if handle.proc is not None and handle.proc.poll() is not None:
                return f"process exited {handle.proc.returncode}"
            try:
                reply = await self.fleet.shard_control(
                    handle, "health", timeout=self.heartbeat_timeout
                )
                ok = reply.get("status") == "ok"
            except Exception:
                ok = False
            if ok:
                handle.consecutive_misses = 0
                handle.last_heartbeat_at = time.monotonic()
                handle.last_health = reply.get("result")
            else:
                handle.consecutive_misses += 1
                handle.heartbeat_misses += 1
                self.fleet.stats.heartbeat_misses += 1
                self.fleet.emit_shard_event(
                    handle.shard_id, "heartbeat-miss", handle.epoch,
                    detail=f"{handle.consecutive_misses}/"
                           f"{self.miss_threshold}",
                )
                if handle.consecutive_misses >= self.miss_threshold:
                    return (
                        f"unresponsive ({handle.consecutive_misses} "
                        "missed heartbeats)"
                    )
        return "fleet stopping"

    async def _declare_dead(self, reason: str) -> None:
        handle = self.handle
        handle.live = False
        handle.state = "dead"
        handle.died_at = time.monotonic()
        handle.dead_event.set()  # wake every dispatch parked on us
        self.fleet.note_shard_dead(handle)
        self.fleet.emit_shard_event(
            handle.shard_id, "dead", handle.epoch, detail=reason
        )
        # kill() blocks on process waits (up to ~7s for a shard whose
        # drain wedged); run it off-loop so heartbeats of the OTHER
        # shards — and every in-flight dispatch — keep moving.
        loop = asyncio.get_event_loop()
        await loop.run_in_executor(None, handle.kill)
        if handle.proc is not None and handle.proc.poll() is None:
            self.fleet.emit_shard_event(
                handle.shard_id, "dead", handle.epoch,
                detail=f"pid {handle.pid} survived kill",
            )


__all__ = [
    "SHARD_CRASH_EXIT",
    "ShardHandle",
    "ShardSpec",
    "ShardSupervisor",
    "replicate_files",
    "restart_backoff",
    "restore_missing",
]
