"""Host provenance, the leftover check and the single-layer probes.

The probes time one public call of one layer in a tight loop and report
the median of several batches: ``busy_cpu`` overshoot, wire encode and
decode, one loopback round trip, and plan emit and parse.
"""

from __future__ import annotations

import os
import platform
import socket
import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from pdevsim import (WireFrame, busy_cpu, decode_frame,
                     default_endpoints, emit_distributed_plan_xml,
                     encode_frame, parse_plan_xml)
from pdevsim.wire import PROPAGATE, read_frame, write_frame

# -- provenance ------------------------------------------------------------------


def git_revision(root: Path) -> str:
    """Commit of the checkout, read from ``.git`` without running git;
    ``unknown`` when the checkout is not a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_info(root: Path, workers: int) -> dict:
    """What a number needs beside it: CPU count, Python, revision and the
    pool shape, with ``lanes`` = min(workers, CPUs)."""
    nproc = os.cpu_count() or 1
    return {"nproc": nproc, "python": platform.python_version(),
            "revision": git_revision(root), "pool": f"1x{workers}",
            "lanes": min(workers, nproc)}


# -- leftover check ------------------------------------------------------------------


@dataclass(frozen=True)
class Snapshot:
    """Live OS threads, child processes and open sockets of this process."""

    threads: int
    children: tuple[int, ...]
    sockets: int

    @classmethod
    def take(cls) -> "Snapshot":
        return cls(len(os.listdir("/proc/self/task")), child_pids(), _socket_count())

    @classmethod
    def settled(cls, before: "Snapshot", grace_s: float = 2.0) -> list[str]:
        """What is still left behind relative to ``before`` once ``grace_s``
        has passed. A joined thread may live on in the OS for a moment
        after Python's join returns, so a leftover only counts if it lasts."""
        deadline = time.monotonic() + grace_s
        while (found := cls.take().leftovers(before)) and time.monotonic() < deadline:
            time.sleep(0.01)
        return found

    def leftovers(self, before: "Snapshot") -> list[str]:
        found = []
        if self.threads > before.threads:
            found.append(f"{self.threads - before.threads} thread(s)")
        extra = sorted(set(self.children) - set(before.children))
        if extra:
            found.append(f"child process(es) {extra}")
        if self.sockets > before.sockets:
            found.append(f"{self.sockets - before.sockets} socket(s)")
        return found


def child_pids() -> tuple[int, ...]:
    pids: set[int] = set()
    for task in os.listdir("/proc/self/task"):
        try:
            text = Path(f"/proc/self/task/{task}/children").read_text()
        except OSError:
            continue  # the thread ended while we listed
        pids.update(int(pid) for pid in text.split())
    return tuple(sorted(pids))


def _socket_count() -> int:
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            if os.readlink(f"/proc/self/fd/{fd}").startswith("socket:"):
                count += 1
        except OSError:
            continue  # closed while we listed
    return count


class ChildSampler:
    """Counts the distinct child processes seen while it runs, polling
    every few milliseconds from a thread of its own."""

    PERIOD_S = 0.005

    def __init__(self) -> None:
        self.seen: set[int] = set()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, name="child-sampler")

    def _poll(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            self.seen.update(child_pids())

    def __enter__(self) -> "ChildSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


# -- single-layer probes ----------------------------------------------------------------


def _batched_median_us(call, per_batch: int, batches: int = 7) -> float:
    """Median over batches of the mean microseconds per call."""
    results = []
    for _ in range(batches):
        started = time.perf_counter()
        for _ in range(per_batch):
            call()
        results.append((time.perf_counter() - started) / per_batch * 1e6)
    return statistics.median(results)


def busy_overshoot_us(k: float = 0.005, calls: int = 20) -> float:
    """Median CPU microseconds ``busy_cpu(k)`` burns beyond ``k``."""
    over = []
    for _ in range(calls):
        started = time.thread_time()
        busy_cpu(k)
        over.append((time.thread_time() - started - k) * 1e6)
    return statistics.median(over)


def wire_probe() -> dict[str, float]:
    """Encode, decode and loopback echo of a PROPAGATE frame of 20 values."""
    frame = WireFrame(PROPAGATE, sender="A1_2", port="in", values=tuple(range(20)))
    encoded = encode_frame(frame)
    body = encoded[4:]  # decode_frame takes the body after the length prefix
    if decode_frame(body) != frame:
        raise AssertionError("wire round trip changed the frame")
    return {"wire.encode_us": _batched_median_us(lambda: encode_frame(frame), 2000),
            "wire.decode_us": _batched_median_us(lambda: decode_frame(body), 2000),
            "wire.frame_bytes": len(encoded),
            "wire.rtt_us": loopback_rtt_us(frame)}


def loopback_rtt_us(frame: WireFrame, trips: int = 400) -> float:
    """Median microseconds of one write_frame/read_frame echo over one
    loopback TCP connection served by a thread of the benchmark's own."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(10.0)  # the echo thread ends even if no client comes
    conns: list[socket.socket] = []

    def echo() -> None:
        conn, _ = listener.accept()
        conns.append(conn)
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        while (got := read_frame(conn)) is not None:
            write_frame(conn, got)

    server = threading.Thread(target=echo, name="rtt-echo")
    server.start()
    client = socket.create_connection(listener.getsockname(), timeout=10.0)
    try:
        client.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        trip_us = []
        for _ in range(trips):
            started = time.perf_counter()
            write_frame(client, frame)
            if read_frame(client) != frame:
                raise AssertionError("loopback echo changed the frame")
            trip_us.append((time.perf_counter() - started) * 1e6)
    finally:
        client.close()
        server.join(timeout=10.0)
        for sock in (listener, *conns):
            sock.close()
    return statistics.median(trip_us)


def planfile_probe(graph, reps: int = 5) -> dict[str, float]:
    """Median seconds to emit and to parse the distributed plan of
    ``graph`` with generated loopback endpoints."""
    plan = default_endpoints(graph)
    emits, parses = [], []
    for _ in range(reps):
        started = time.perf_counter()
        text = emit_distributed_plan_xml(plan)
        emits.append(time.perf_counter() - started)
        started = time.perf_counter()
        parsed = parse_plan_xml(text)
        parses.append(time.perf_counter() - started)
    if set(parsed.endpoints) != set(plan.endpoints):
        raise AssertionError("plan emit/parse lost endpoints")
    return {"planfile.emit_s": statistics.median(emits),
            "planfile.parse_s": statistics.median(parses)}
