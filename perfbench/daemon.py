"""Daemon harness and closed-loop client for the serve workloads.

:class:`Daemon` spawns ``perfbench/launcher.py`` (which enters the
normal ``repro serve`` entry point) on a unix socket inside the run's
own directory -- named relative to the checkout root, which must be the
working directory, so a long checkout path cannot overflow the socket
name limit -- times spawn-to-first-``ping``, reads the daemon's peak
RSS (``VmHWM``) and its ``stats`` before shutting it down with a
draining ``shutdown`` job.  :class:`Connection` speaks the service's
newline-delimited JSON protocol directly; :func:`closed_loop` drives one
connection.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "launcher.py")

#: How long a daemon may take to answer its first ping.
START_TIMEOUT_S = 60.0
#: How long a drained daemon may take to exit.
STOP_TIMEOUT_S = 60.0


class Connection:
    """One client connection: send a frame, read the reply line."""

    def __init__(self, path: str, timeout: float = 120.0):
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout)
        try:
            self._sock.connect(path)
        except OSError:
            self._sock.close()
            raise
        self._reader = self._sock.makefile("rb")

    def request(self, req_id: str, job: str, params: Optional[dict] = None) -> dict:
        frame = {"id": req_id, "job": job, "params": params or {}}
        self._sock.sendall(json.dumps(frame).encode() + b"\n")
        line = self._reader.readline()
        if not line.endswith(b"\n"):
            raise ConnectionError(f"daemon closed the connection ({job})")
        return json.loads(line)

    def close(self) -> None:
        self._reader.close()
        self._sock.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def vmhwm_mb(pid: int) -> float:
    """Peak resident set size of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Daemon:
    """One ``repro serve --workers 2`` process owned by the benchmark."""

    def __init__(
        self,
        root: str,
        run_dir: str,
        name: str,
        cache_dir: str,
        trace: bool = False,
    ):
        self.root = root
        self.socket_path = os.path.relpath(
            os.path.join(run_dir, f"{name}.sock"), root
        )
        self.trace_path = os.path.join(run_dir, f"{name}.trace.json")
        self.log_path = os.path.join(run_dir, f"{name}.log")
        self.cache_dir = cache_dir
        self.trace = trace
        self.proc: Optional[subprocess.Popen] = None

    def start(self) -> float:
        """Spawn the daemon; returns seconds until the first ping answered."""
        env = dict(os.environ)
        for name in ("REPRO_JOBS", "REPRO_CHECKPOINT_DIR",
                     "REPRO_TELEMETRY_DIR", "REPRO_CACHE_MAX_ENTRIES"):
            env.pop(name, None)
        env["REPRO_CACHE_DIR"] = self.cache_dir
        argv = [sys.executable, LAUNCHER]
        if self.trace:
            argv += ["--trace-out", self.trace_path]
        argv += ["serve", "--socket", self.socket_path, "--workers", "2",
                 "--log-interval", "0"]
        with open(self.log_path, "ab") as log:
            t0 = time.perf_counter()
            self.proc = subprocess.Popen(
                argv, cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=log,
            )
        while True:
            try:
                with Connection(self.socket_path, timeout=5.0) as conn:
                    reply = conn.request("ping", "ping")
                if reply.get("status") == "ok":
                    return time.perf_counter() - t0
            except OSError:
                pass
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.proc.returncode} before "
                    f"answering ping (log: {self.log_path})"
                )
            if time.perf_counter() - t0 > START_TIMEOUT_S:
                self.kill()
                raise RuntimeError("daemon did not answer ping in time")
            time.sleep(0.002)

    def connect(self) -> Connection:
        return Connection(self.socket_path)

    def peak_rss_mb(self) -> float:
        assert self.proc is not None
        return vmhwm_mb(self.proc.pid)

    def stats(self) -> dict:
        with self.connect() as conn:
            reply = conn.request("stats", "stats")
        if reply.get("status") != "ok":
            raise RuntimeError(f"stats job failed: {reply}")
        return reply["result"]

    def stop(self) -> Optional[dict]:
        """Drain and wait for exit; returns the span dump when traced."""
        assert self.proc is not None
        try:
            with self.connect() as conn:
                conn.request("shutdown", "shutdown", {"drain": True})
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        finally:
            self.kill()
        if self.proc.returncode != 0:
            raise RuntimeError(
                f"daemon exited with {self.proc.returncode} "
                f"(log: {self.log_path})"
            )
        if not self.trace:
            return None
        with open(self.trace_path) as handle:
            return json.load(handle)

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def setup_samples(make: Callable[[str], Daemon], count: int) -> List[float]:
    """Spawn-to-ping seconds of ``count`` throwaway daemons."""
    samples = []
    for index in range(count):
        daemon = make(f"setup{index}")
        try:
            samples.append(daemon.start())
            daemon.stop()
        finally:
            daemon.kill()
    return samples


#: One request's outcome: (request id, job key, reply, seconds).
Record = Tuple[str, object, dict, float]


def closed_loop(
    daemon: Daemon,
    stream: Sequence[object],
    make_request: Callable[[object], Tuple[str, dict]],
) -> Tuple[List[Record], float]:
    """Send ``stream`` on one connection, each request only after the
    previous reply arrived.  Returns every request's record and the wall
    time from first send to last reply."""
    records: List[Record] = []
    with daemon.connect() as conn:
        start = time.perf_counter()
        for seq, key in enumerate(stream):
            job, params = make_request(key)
            req_id = f"r{seq}"
            t0 = time.perf_counter()
            reply = conn.request(req_id, job, params)
            records.append((req_id, key, reply, time.perf_counter() - t0))
        wall = time.perf_counter() - start
    return records, wall


def conservation(service: Dict[str, int]) -> bool:
    """Every accepted request completed, expired or drained."""
    return service["accepted"] == (
        service["completed"] + service["expired"] + service["drained"]
    )
