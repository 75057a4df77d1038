"""The sharded service tier: an asyncio front door over N engine shards.

``repro serve --shards N`` boots a :class:`FleetRouter` instead of a
single :class:`~repro.service.server.ReproServer`.  The router owns N
supervised shard subprocesses (each a plain PR 5 server loop on its own
unix socket, see :mod:`repro.service.supervisor`) and speaks the same
NDJSON protocol to clients, so every existing client — ``repro
submit``, the smoke drivers, a shell one-liner — works unchanged
against a fleet.

The coordination discipline mirrors the paper's one level up: CRAT
coordinates register allocation and TLP inside one SM under fixed
resources; the fleet coordinates job placement and recovery across N
shards under the same zero-drift contract the ``service-smoke`` and
``fault-smoke`` CI gates already enforce.  Concretely:

* **Placement** is a consistent hash (:class:`HashRing`) of the PR 5
  content signature.  Identical jobs always land on the same live
  shard, so single-flight dedup stays shard-local *and stays correct*
  — two concurrent identical submits meet in one shard's in-flight
  table exactly as they would on a single daemon.
* **Self-healing**: per-shard health checks with a deadline and a
  missed-heartbeat threshold, crash detection, bounded
  exponential-backoff restarts, and re-routing of a dead shard's
  in-flight dispatches to the ring's next live shard.  Replays are
  safe because the dedup signature makes jobs idempotent — a job that
  half-ran on a dead shard produces the bit-identical answer on the
  next one (at-most-once *side effects*, at-least-once execution).
* **Replicated warm state**: a replication loop periodically sends
  each shard the ``handoff`` control job (snapshot your queue into the
  PR 3 checkpoint journal, return a manifest) and ships the journal
  files to the shard's ring successor; a restarted shard restores
  whatever its local disk lost and reboots warm.
* **Accounting**: every dispatch ends in exactly one of ``completed``
  / ``rerouted`` / ``expired`` / ``drained``, so the fleet-wide
  conservation law ``accepted == completed + expired + drained +
  rerouted`` holds structurally — ``repro fleet status`` and
  ``tools/fleet_smoke.py`` assert it from counters, not logs.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import itertools
import json
import os
import threading
import time
import traceback
from typing import Any, Dict, Iterable, List, Optional, Set, TextIO

from ..engine import get_engine
from ..engine.events import ShardEvent
from ..errors import EXIT_SERVICE, ReproError, ServiceError
from . import jobs as jobs_mod
from .protocol import (
    CONTROL_JOBS,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    decode_frame,
    drained_reply,
    encode_frame,
    error_reply,
    expired_reply,
    invalid_reply,
    ok_reply,
    overloaded_reply,
    validate_request,
)
from .supervisor import ShardHandle, ShardSpec, ShardSupervisor


# ----------------------------------------------------------------------
# Consistent hashing.
# ----------------------------------------------------------------------
class HashRing:
    """Consistent hash ring over shard ids with virtual nodes.

    The ring always carries *every* configured shard's points; liveness
    is a filter applied at lookup time.  That is what gives the
    stability property the fleet (and the property tests) rely on:
    when a shard dies, only the signatures it owned move — to its ring
    successor — and every other signature keeps its owner.
    """

    def __init__(self, shard_ids: Iterable[str], replicas: int = 64):
        self.shard_ids = sorted(set(shard_ids))
        if replicas <= 0:
            raise ValueError("replicas must be positive")
        points = []
        for sid in self.shard_ids:
            for v in range(replicas):
                points.append((self._hash(f"{sid}#{v}"), sid))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._owners = [sid for _, sid in points]

    @staticmethod
    def _hash(text: str) -> int:
        digest = hashlib.sha256(text.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def _walk(self, start_hash: int) -> Iterable[str]:
        """Ring order (with wraparound) starting at the first point at
        or after ``start_hash``; yields shard ids, possibly repeated."""
        if not self._hashes:
            return
        index = bisect.bisect_left(self._hashes, start_hash)
        n = len(self._hashes)
        for step in range(n):
            yield self._owners[(index + step) % n]

    def owner(
        self, signature: str, live: Optional[Set[str]] = None
    ) -> Optional[str]:
        """The first live shard clockwise from the signature's point."""
        live_set = set(self.shard_ids) if live is None else live
        for sid in self._walk(self._hash(signature)):
            if sid in live_set:
                return sid
        return None

    def preference(
        self, signature: str, live: Optional[Set[str]] = None
    ) -> List[str]:
        """All live shards in ring order from the signature's point —
        the failover order a replayed dispatch walks."""
        live_set = set(self.shard_ids) if live is None else live
        seen: List[str] = []
        for sid in self._walk(self._hash(signature)):
            if sid in live_set and sid not in seen:
                seen.append(sid)
        return seen

    def successor_shard(
        self, shard_id: str, live: Optional[Set[str]] = None
    ) -> Optional[str]:
        """The next distinct live shard after ``shard_id`` on the ring
        (the replication target for its warm state)."""
        live_set = set(self.shard_ids) if live is None else live
        for sid in self._walk(self._hash(f"{shard_id}#0") + 1):
            if sid != shard_id and sid in live_set:
                return sid
        return None


# ----------------------------------------------------------------------
# Fleet counters.
# ----------------------------------------------------------------------
class FleetStats:
    """Dispatch-level counters (all mutated on the router's loop).

    ``accepted`` counts dispatches handed to a shard; each ends in
    exactly one of ``completed`` (a definitive shard reply, whatever
    its status), ``rerouted`` (the shard died or dropped the wire
    mid-dispatch; the job replays elsewhere), ``expired`` (the
    client's deadline lapsed at the router) or ``drained`` (fleet
    shutdown overtook the dispatch).  Supervision counters ride along.
    """

    def __init__(self) -> None:
        self.started_at = time.monotonic()
        self.accepted = 0
        self.completed = 0
        self.expired = 0
        self.drained = 0
        self.rerouted = 0
        self.rejected_invalid = 0
        self.rejected_overloaded = 0
        self.spawns = 0
        self.restarts = 0
        self.heartbeat_misses = 0
        self.handoffs = 0
        self.connections = 0

    @property
    def conservation_ok(self) -> bool:
        return self.accepted == (
            self.completed + self.expired + self.drained + self.rerouted
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "uptime_seconds": time.monotonic() - self.started_at,
            "accepted": self.accepted,
            "completed": self.completed,
            "expired": self.expired,
            "drained": self.drained,
            "rerouted": self.rerouted,
            "rejected_invalid": self.rejected_invalid,
            "rejected_overloaded": self.rejected_overloaded,
            "spawns": self.spawns,
            "restarts": self.restarts,
            "heartbeat_misses": self.heartbeat_misses,
            "handoffs": self.handoffs,
            "connections": self.connections,
            "conservation_ok": self.conservation_ok,
        }


class _DispatchLost(Exception):
    """The shard died / dropped the wire mid-dispatch; replay."""


class _FleetDraining(Exception):
    """Fleet shutdown overtook an in-flight dispatch."""


class _RouterDeadline(Exception):
    """The request's deadline lapsed while the router waited."""


# ----------------------------------------------------------------------
# The router.
# ----------------------------------------------------------------------
class FleetRouter:
    """Front door + supervisor host for N engine shards."""

    def __init__(
        self,
        socket_path: str,
        shards: int = 2,
        state_dir: Optional[str] = None,
        workers_per_shard: int = 2,
        queue_limit: int = 64,
        passes: str = "",
        heartbeat_interval: float = 1.0,
        heartbeat_timeout: float = 1.0,
        miss_threshold: int = 3,
        boot_timeout: float = 45.0,
        backoff_base: float = 0.2,
        backoff_cap: float = 5.0,
        max_restarts: Optional[int] = None,
        replication_interval: float = 5.0,
        ring_replicas: int = 64,
        no_shard_wait: float = 20.0,
        log_stream: Optional[TextIO] = None,
    ):
        if shards < 1:
            raise ValueError("a fleet needs at least one shard")
        self.socket_path = socket_path
        self.state_dir = state_dir or (socket_path + ".fleet")
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.miss_threshold = miss_threshold
        self.boot_timeout = boot_timeout
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.max_restarts = max_restarts
        self.replication_interval = replication_interval
        self.no_shard_wait = no_shard_wait
        self._log_stream = log_stream
        self.stats = FleetStats()
        self.shards: Dict[str, ShardHandle] = {}
        for index in range(shards):
            sid = f"s{index}"
            spec = ShardSpec(
                shard_id=sid,
                socket_path=f"{socket_path}.{sid}",
                checkpoint_dir=os.path.join(self.state_dir, f"shard-{sid}"),
                replica_dir=os.path.join(self.state_dir, "replica", sid),
                workers=workers_per_shard,
                queue_limit=queue_limit,
                passes=passes,
            )
            self.shards[sid] = ShardHandle(spec)
        self.ring = HashRing(self.shards.keys(), replicas=ring_replicas)
        self.stopping = False
        self._draining = False
        self._stopped = threading.Event()
        self._ready = threading.Event()
        self._boot_error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._any_live: Optional[asyncio.Event] = None
        self._drain_event: Optional[asyncio.Event] = None
        self._inflight_dispatches = 0
        self._dispatch_ids = itertools.count(1)
        self._tasks: List[asyncio.Task] = []

    # ------------------------------------------------------------------
    # Lifecycle (thread-hosted event loop, mirrors ReproServer's API).
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-fleet", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=10.0)
        if self._boot_error is not None:
            raise ServiceError(f"fleet failed to boot: {self._boot_error}")
        if not self._ready.is_set():
            raise ServiceError("fleet event loop never came up")

    def serve_forever(self) -> None:
        self._stopped.wait()

    def wait_ready(self, timeout: float = 60.0) -> bool:
        """Block until at least one shard answers pings (or timeout)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if any(h.live for h in self.shards.values()):
                return True
            if self._stopped.is_set():
                return False
            time.sleep(0.05)
        return False

    def shutdown(self, drain: bool = True, timeout: float = 90.0) -> None:
        """Thread-safe: schedule the drain on the loop and wait."""
        loop = self._loop
        if loop is None or self._stopped.is_set():
            self._stopped.set()
            return
        try:
            loop.call_soon_threadsafe(self._begin_shutdown, drain)
        except RuntimeError:
            self._stopped.set()
            return
        self._stopped.wait(timeout)

    def _begin_shutdown(self, drain: bool) -> None:
        if self.stopping:
            return
        asyncio.ensure_future(self._shutdown_async(drain))

    def _thread_main(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        loop.set_exception_handler(self._loop_exception)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        except BaseException as err:  # noqa: BLE001 — surface boot failures
            self._boot_error = err
            self._ready.set()
            # Post-boot this is fatal to the whole fleet; a silent exit
            # would strand live shard subprocesses with no supervisor.
            self._log_line({
                "kind": "fleet_crash",
                "error": repr(err),
                "traceback": traceback.format_exc(),
            })
        finally:
            try:
                loop.close()
            except OSError:
                pass
            self._stopped.set()

    def _loop_exception(self, loop, context) -> None:
        # Unhandled task/callback exceptions must never be invisible:
        # asyncio's default handler writes to a logger nobody wired up.
        err = context.get("exception")
        self._log_line({
            "kind": "fleet_task_error",
            "message": context.get("message", ""),
            "error": repr(err) if err is not None else None,
            "traceback": (
                "".join(traceback.format_exception(
                    type(err), err, err.__traceback__
                ))
                if err is not None
                else None
            ),
        })

    async def _main(self) -> None:
        os.makedirs(self.state_dir, exist_ok=True)
        self._any_live = asyncio.Event()
        self._drain_event = asyncio.Event()
        self._stop_async = asyncio.Event()
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        self._server = await asyncio.start_unix_server(
            self._handle_client,
            path=self.socket_path,
            limit=MAX_FRAME_BYTES + 2,
        )
        for handle in self.shards.values():
            supervisor = ShardSupervisor(
                handle,
                self,
                heartbeat_interval=self.heartbeat_interval,
                heartbeat_timeout=self.heartbeat_timeout,
                miss_threshold=self.miss_threshold,
                boot_timeout=self.boot_timeout,
                backoff_base=self.backoff_base,
                backoff_cap=self.backoff_cap,
                max_restarts=self.max_restarts,
            )
            self._tasks.append(asyncio.ensure_future(supervisor.run()))
        if self.replication_interval > 0:
            self._tasks.append(
                asyncio.ensure_future(self._replication_loop())
            )
        self._log_line({
            "kind": "fleet_ready", "socket": self.socket_path,
            "shards": sorted(self.shards),
        })
        self._ready.set()
        await self._stop_async.wait()

    async def _shutdown_async(self, drain: bool) -> None:
        self.stopping = True
        self._draining = True
        if self._server is not None:
            self._server.close()
        if drain:
            # Final replication round, then ask every live shard to
            # drain (their executing jobs finish and are answered, the
            # queued rest is checkpointed — zero accepted jobs lost).
            await self._replicate_once()
            for handle in self.shards.values():
                if not handle.live:
                    continue
                try:
                    await self.shard_control(
                        handle, "shutdown", params={"drain": True},
                        timeout=5.0,
                    )
                except Exception:
                    pass
            grace = time.monotonic() + 30.0
            while self._inflight_dispatches and time.monotonic() < grace:
                await asyncio.sleep(0.05)
        assert self._drain_event is not None
        self._drain_event.set()  # stragglers answer ``drained``
        await asyncio.sleep(0.05)
        for handle in self.shards.values():
            handle.live = False
            handle.dead_event.set()
            handle.kill()
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._log_line({
            "kind": "fleet_drained" if drain else "fleet_stopped",
            "stats": self.stats.to_dict(),
        })
        self._stop_async.set()

    # ------------------------------------------------------------------
    # Helpers the supervisors call (all on the loop).
    # ------------------------------------------------------------------
    async def sleep(self, seconds: float) -> None:
        if seconds <= 0:
            return
        try:
            await asyncio.wait_for(
                self._stop_async.wait(), timeout=seconds
            )
        except asyncio.TimeoutError:
            pass

    def live_shards(self) -> Set[str]:
        return {sid for sid, h in self.shards.items() if h.live}

    def note_shard_ready(self, handle: ShardHandle) -> None:
        assert self._any_live is not None
        self._any_live.set()

    def note_shard_dead(self, handle: ShardHandle) -> None:
        if not self.live_shards():
            assert self._any_live is not None
            self._any_live.clear()

    def emit_shard_event(
        self, shard: str, action: str, epoch: int, detail: str = ""
    ) -> None:
        get_engine()._emit(ShardEvent(
            shard=shard, action=action, epoch=epoch, detail=detail,
        ))
        self._log_line({
            "kind": "shard_event", "shard": shard, "action": action,
            "epoch": epoch, "detail": detail,
        })

    async def shard_control(
        self,
        handle: ShardHandle,
        job: str,
        params: Optional[Dict[str, Any]] = None,
        timeout: float = 5.0,
    ) -> Dict[str, Any]:
        """One control round trip to a shard (heartbeats, handoff,
        shutdown).  Raises on transport failure or timeout."""
        wire = {"id": f"ctl{next(self._dispatch_ids)}", "job": job,
                "params": params or {}}
        return await asyncio.wait_for(
            self._roundtrip_raw(handle.spec.socket_path, wire),
            timeout=timeout,
        )

    async def _roundtrip_raw(
        self, socket_path: str, wire: Dict[str, Any]
    ) -> Dict[str, Any]:
        reader, writer = await asyncio.open_unix_connection(
            socket_path, limit=MAX_FRAME_BYTES + 2
        )
        try:
            writer.write(encode_frame(wire))
            await writer.drain()
            line = await reader.readline()
            if not line:
                raise ConnectionError("shard closed the connection")
            return decode_frame(line, require_newline=True)
        finally:
            writer.close()

    # ------------------------------------------------------------------
    # Replication (warm-state shipping to ring successors).
    # ------------------------------------------------------------------
    async def _replication_loop(self) -> None:
        while not self.stopping:
            await self.sleep(self.replication_interval)
            if self.stopping:
                return
            try:
                await self._replicate_once()
            except Exception:
                pass  # replication is best-effort, like the PR 3 journal

    async def _replicate_once(self) -> Dict[str, int]:
        """One handoff round: snapshot every live shard's warm state
        and ship the journal files to its ring successor's replica."""
        from .supervisor import replicate_files

        loop = asyncio.get_event_loop()
        shipped: Dict[str, int] = {}
        for sid in sorted(self.live_shards()):
            handle = self.shards[sid]
            try:
                reply = await self.shard_control(
                    handle, "handoff", timeout=self.heartbeat_timeout + 4.0
                )
            except Exception:
                continue
            if reply.get("status") != "ok":
                continue
            manifest = reply.get("result") or {}
            names = [
                f["name"] for f in manifest.get("files", ())
                if isinstance(f, dict) and isinstance(f.get("name"), str)
            ]
            if not names:
                continue
            successor = self.ring.successor_shard(sid, self.live_shards())
            if successor is None:
                continue
            copied = await loop.run_in_executor(
                None,
                replicate_files,
                handle.spec.checkpoint_dir,
                handle.spec.replica_dir,
                names,
            )
            shipped[sid] = len(copied)
            self.stats.handoffs += 1
            self.emit_shard_event(
                sid, "handoff", handle.epoch,
                detail=f"{len(copied)} files -> {successor}",
            )
        return shipped

    # ------------------------------------------------------------------
    # Client connections.
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.connections += 1
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    self.stats.rejected_invalid += 1
                    writer.write(encode_frame(invalid_reply(
                        None,
                        f"frame exceeds MAX_FRAME_BYTES ({MAX_FRAME_BYTES})",
                    )))
                    await writer.drain()
                    return
                if not line:
                    return
                reply = await self._handle_line(line)
                if reply is None:
                    continue
                writer.write(encode_frame(reply))
                await writer.drain()
        except (ConnectionError, OSError):
            pass  # peer went away mid-conversation
        finally:
            try:
                writer.close()
            except OSError:
                pass

    async def _handle_line(self, line: bytes) -> Optional[Dict[str, Any]]:
        req_id: Optional[str] = None
        try:
            obj = decode_frame(line, require_newline=True)
            raw_id = obj.get("id")
            req_id = raw_id if isinstance(raw_id, str) else None
            request = validate_request(obj)
        except ProtocolError as err:
            self.stats.rejected_invalid += 1
            return invalid_reply(req_id, str(err))
        if request.job in CONTROL_JOBS:
            return await self._handle_control(request)
        return await self._dispatch(request)

    async def _handle_control(self, request: Request) -> Dict[str, Any]:
        if request.job == "ping":
            return ok_reply(request.id, {
                "pong": True,
                "protocol_version": PROTOCOL_VERSION,
                "fleet": True,
                "shards": len(self.shards),
            })
        if request.job == "health":
            return ok_reply(request.id, self.health_payload())
        if request.job == "handoff":
            shipped = await self._replicate_once()
            return ok_reply(request.id, {"replicated": shipped})
        if request.job == "stats":
            return ok_reply(request.id, await self._aggregate_stats())
        # shutdown — acknowledge, then drain.
        drain = request.params.get("drain", True)
        asyncio.ensure_future(self._shutdown_async(drain))
        return ok_reply(request.id, {
            "shutting_down": True, "drain": drain, "fleet": True,
        })

    def health_payload(self) -> Dict[str, Any]:
        now = time.monotonic()
        return {
            "protocol_version": PROTOCOL_VERSION,
            "fleet": {
                "socket": self.socket_path,
                "shards": len(self.shards),
                "live": sorted(self.live_shards()),
                "draining": self._draining,
                **self.stats.to_dict(),
            },
            "shards": {
                sid: handle.status(now)
                for sid, handle in sorted(self.shards.items())
            },
        }

    async def _aggregate_stats(self) -> Dict[str, Any]:
        per_shard: Dict[str, Any] = {}
        for sid in sorted(self.shards):
            handle = self.shards[sid]
            if not handle.live:
                per_shard[sid] = None
                continue
            try:
                reply = await self.shard_control(handle, "stats", timeout=5.0)
                per_shard[sid] = reply.get("result")
            except Exception:
                per_shard[sid] = None
        return {
            "protocol_version": PROTOCOL_VERSION,
            "fleet": self.stats.to_dict(),
            "shards": per_shard,
        }

    # ------------------------------------------------------------------
    # Dispatch (the routing + failover core).
    # ------------------------------------------------------------------
    def _signature_of(self, request: Request) -> str:
        return jobs_mod.prepare(request).signature

    def _retry_after_hint(self) -> float:
        # No live shard: suggest roughly one restart backoff.
        return round(min(30.0, max(0.5, self.backoff_cap / 2.0)), 3)

    async def _dispatch(self, request: Request) -> Dict[str, Any]:
        if self._draining:
            self.stats.rejected_overloaded += 1
            return overloaded_reply(request.id, 1.0)
        loop = asyncio.get_event_loop()
        try:
            signature = await loop.run_in_executor(
                None, self._signature_of, request
            )
        except ReproError as err:
            return error_reply(
                request.id, err.kind, str(err), err.exit_code
            )
        deadline_at = (
            time.monotonic() + request.deadline
            if request.deadline is not None
            else None
        )
        attempt = request.attempt
        reroutes = 0
        max_reroutes = 2 * len(self.shards) + 2
        # Shards that lost a dispatch of THIS job: skipped on re-route
        # until every live shard is suspect.  The supervisor may not
        # have noticed a kill yet (liveness lags by up to a heartbeat),
        # so without this a replay re-resolves the same dead owner and
        # burns the whole re-route budget in milliseconds.
        suspects: Set[str] = set()
        self._inflight_dispatches += 1
        try:
            while True:
                live = self.live_shards() - suspects
                if not live and suspects:
                    suspects.clear()
                    live = self.live_shards()
                owner = self.ring.owner(signature, live)
                if owner is None:
                    if not await self._await_any_live(deadline_at):
                        if self._draining:
                            return drained_reply(request.id)
                        if (
                            deadline_at is not None
                            and time.monotonic() >= deadline_at
                        ):
                            return expired_reply(request.id)
                        self.stats.rejected_overloaded += 1
                        return overloaded_reply(
                            request.id, self._retry_after_hint()
                        )
                    continue
                handle = self.shards[owner]
                wire = dataclasses_replace_wire(request, attempt)
                self.stats.accepted += 1
                try:
                    reply = await self._shard_dispatch(
                        handle, wire, deadline_at
                    )
                except _DispatchLost as err:
                    self.stats.rerouted += 1
                    self.emit_shard_event(
                        owner, "reroute", handle.epoch,
                        detail=f"attempt {attempt}: {err}",
                    )
                    suspects.add(owner)
                    reroutes += 1
                    attempt += 1
                    if reroutes > max_reroutes:
                        return error_reply(
                            request.id,
                            "ServiceError",
                            f"job bounced off {reroutes} shard dispatches "
                            "without a definitive reply",
                            EXIT_SERVICE,
                        )
                    # Brief pause so supervision can catch up with the
                    # failure we just observed before we pick again.
                    await asyncio.sleep(min(0.5, 0.05 * reroutes))
                    continue
                except _RouterDeadline:
                    self.stats.expired += 1
                    return expired_reply(request.id)
                except _FleetDraining:
                    self.stats.drained += 1
                    return drained_reply(request.id)
                self.stats.completed += 1
                reply["id"] = request.id
                return reply
        finally:
            self._inflight_dispatches -= 1

    async def _await_any_live(
        self, deadline_at: Optional[float]
    ) -> bool:
        assert self._any_live is not None
        timeout = self.no_shard_wait
        if deadline_at is not None:
            timeout = min(timeout, max(0.0, deadline_at - time.monotonic()))
        try:
            await asyncio.wait_for(self._any_live.wait(), timeout=timeout)
            return True
        except asyncio.TimeoutError:
            return False

    async def _shard_dispatch(
        self,
        handle: ShardHandle,
        wire: Dict[str, Any],
        deadline_at: Optional[float],
    ) -> Dict[str, Any]:
        """Send one job to one shard; the reply read races the shard's
        death, fleet drain and the request deadline."""
        dead_event = handle.dead_event
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_unix_connection(
                    handle.spec.socket_path, limit=MAX_FRAME_BYTES + 2
                ),
                timeout=self.heartbeat_timeout + 4.0,
            )
        except (OSError, asyncio.TimeoutError) as err:
            raise _DispatchLost(f"connect failed: {err}")
        try:
            try:
                writer.write(encode_frame(wire))
                await writer.drain()
            except (OSError, ConnectionError) as err:
                raise _DispatchLost(f"send failed: {err}")
            read_task = asyncio.ensure_future(reader.readline())
            dead_task = asyncio.ensure_future(dead_event.wait())
            assert self._drain_event is not None
            drain_task = asyncio.ensure_future(self._drain_event.wait())
            timeout = (
                max(0.0, deadline_at - time.monotonic())
                if deadline_at is not None
                else None
            )
            done, pending = await asyncio.wait(
                {read_task, dead_task, drain_task},
                timeout=timeout,
                return_when=asyncio.FIRST_COMPLETED,
            )
            for task in pending:
                task.cancel()
            if read_task in done:
                try:
                    line = read_task.result()
                except (OSError, ConnectionError, ValueError,
                        asyncio.LimitOverrunError) as err:
                    raise _DispatchLost(f"read failed: {err}")
                if not line:
                    raise _DispatchLost("shard closed the connection")
                try:
                    return decode_frame(line, require_newline=True)
                except ProtocolError as err:
                    # The killed-mid-write case: a truncated frame is a
                    # typed protocol failure, never a JSON traceback.
                    raise _DispatchLost(f"undecodable reply: {err}")
            if dead_task in done:
                raise _DispatchLost("shard declared dead mid-job")
            if drain_task in done:
                raise _FleetDraining()
            raise _RouterDeadline()
        finally:
            try:
                writer.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Logging.
    # ------------------------------------------------------------------
    def _log_line(self, payload: Dict[str, Any]) -> None:
        if self._log_stream is None:
            return
        try:
            self._log_stream.write(
                json.dumps(payload, sort_keys=True) + "\n"
            )
            self._log_stream.flush()
        except (OSError, ValueError):
            pass


def dataclasses_replace_wire(request: Request, attempt: int) -> Dict[str, Any]:
    """The wire frame forwarded to a shard: the client's request with
    the fleet's replay counter stamped in."""
    wire = request.to_wire()
    if attempt:
        wire["attempt"] = attempt
    else:
        wire.pop("attempt", None)
    return wire


def fleet_main(
    socket_path: str,
    shards: int,
    state_dir: Optional[str] = None,
    workers_per_shard: int = 2,
    queue_limit: int = 64,
    passes: str = "",
    heartbeat_interval: float = 1.0,
    replication_interval: float = 5.0,
    log_stream: Optional[TextIO] = None,
) -> int:
    """Blocking entry point for ``repro serve --shards N``."""
    import signal
    import sys as _sys

    router = FleetRouter(
        socket_path=socket_path,
        shards=shards,
        state_dir=state_dir,
        workers_per_shard=workers_per_shard,
        queue_limit=queue_limit,
        passes=passes,
        heartbeat_interval=heartbeat_interval,
        heartbeat_timeout=max(0.5, heartbeat_interval),
        replication_interval=replication_interval,
        log_stream=log_stream if log_stream is not None else _sys.stderr,
    )
    router.start()

    def _drain(signum, frame):  # noqa: ARG001
        threading.Thread(
            target=router.shutdown, kwargs={"drain": True}, daemon=True
        ).start()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    print(
        f"repro serve: fleet of {shards} shards on {socket_path}",
        file=_sys.stderr,
    )
    router.serve_forever()
    if router._boot_error is not None:
        print(
            f"repro serve: fleet router died: {router._boot_error!r}",
            file=_sys.stderr,
        )
        return 1
    return 0


__all__ = [
    "FleetRouter",
    "FleetStats",
    "HashRing",
    "fleet_main",
]
