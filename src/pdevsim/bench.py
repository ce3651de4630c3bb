"""Benchmark harness: profiling, two-level allocation, backend runners and
speedup reporting.

This is the operator-facing machinery behind the CLI. Everything emits or
consumes plain CSV so results can be piped into any plotting tool; the
harness itself draws nothing.
"""

from __future__ import annotations

import csv
import io
import math
import os
import select
import signal
import socket
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import cli
from .devstone import GENERATOR_NAME
from .distributed import (DistributedCoordinator, DistributedPlan, Endpoint, ServiceGroup,
                          Timeouts, _listen, _start_groups)
from .kernel import RunReport, SequentialCoordinator, SimulationError
from .model import ModelGraph, flatten
from .parallel import ParallelCoordinator, PoolPlan, PoolSpec, default_workers
from .planfile import ParallelPlan, contiguous_blocks


class BenchError(Exception):
    """Harness-level misuse: mismatched plans, missing baselines, bad input."""


# -- profiling -----------------------------------------------------------------


@dataclass(frozen=True)
class AtomicProfile:
    """CPU seconds one atomic spent inside its transition functions."""

    name: str
    cpu_seconds_ext: float
    cpu_seconds_int: float

    @property
    def total(self) -> float:
        return self.cpu_seconds_ext + self.cpu_seconds_int


PROFILE_HEADER = ("atomic", "cpu_seconds_ext", "cpu_seconds_int", "cpu_seconds_total")


def profile_model(graph: ModelGraph, runs: int = 1,
                  max_iterations: int | None = None) -> list[AtomicProfile]:
    """Sequential per-atomic CPU profile, averaged over ``runs`` and sorted
    slowest first (ties broken by name)."""
    if runs < 1:
        raise BenchError("profiling needs at least one run")
    sums: dict[str, list[float]] = {}
    for _ in range(runs):
        coordinator = SequentialCoordinator(graph, profile=True)
        coordinator.simulate(max_iterations)
        for name, cpu_ext, cpu_int in coordinator.atomic_profiles():
            entry = sums.setdefault(name, [0.0, 0.0])
            entry[0] += cpu_ext
            entry[1] += cpu_int
    profiles = [AtomicProfile(name, ext / runs, internal / runs)
                for name, (ext, internal) in sums.items()]
    profiles.sort(key=lambda p: (-p.total, p.name))
    return profiles


def profiles_to_csv(profiles: list[AtomicProfile]) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(PROFILE_HEADER)
    for profile in profiles:
        writer.writerow([profile.name, repr(profile.cpu_seconds_ext),
                         repr(profile.cpu_seconds_int), repr(profile.total)])
    return out.getvalue()


def _csv_rows(lines, header: tuple[str, ...], what: str,
              numbers: tuple[str, ...] = ()) -> list[list[str]]:
    """The non-blank rows of the CSV ``lines`` under ``header``. A wrong header,
    a row of another length, a ``numbers`` column that is not a number, or
    text that is not CSV is refused in one line naming ``what`` and it."""
    reader = csv.reader(lines)
    columns = [(header.index(name), name) for name in numbers]
    try:
        found = next(reader, None)
        if found is None or tuple(found) != header:
            raise BenchError(f"bad {what} header: {found!r:.80}")
        rows = []
        for row in filter(None, reader):
            if len(row) != len(header):
                raise BenchError(f"{what} line {reader.line_num} has {len(row)} fields, "
                                 f"not {len(header)}: {row!r:.80}")
            for index, name in columns:
                try:
                    float(row[index])
                except ValueError:
                    raise BenchError(f"{what} line {reader.line_num} column {name} is "
                                     f"not a number: {row[index]!r:.40}") from None
            rows.append(row)
    except (csv.Error, UnicodeDecodeError) as exc:
        raise BenchError(f"{what} line {reader.line_num}: {exc}") from None
    return rows


def profiles_from_csv(text: str) -> list[AtomicProfile]:
    return [AtomicProfile(row[0], float(row[1]), float(row[2]))
            for row in _csv_rows(io.StringIO(text), PROFILE_HEADER, "profile CSV",
                                 PROFILE_HEADER[1:3])]


# -- allocation ------------------------------------------------------------------


@dataclass(frozen=True)
class Allocation2Level:
    """Slow set / fast set split plus the resource counts per level."""

    l1: tuple[str, ...]
    l2: tuple[str, ...]
    l1_resources: int
    l2_resources: int


def allocate_two_level(profiles: list[AtomicProfile], graph: ModelGraph,
                       fraction: float = 0.25, n: int = 1,
                       m: int = 1) -> Allocation2Level:
    """Rank atomics by profiled cost and put the slowest fraction in L1.

    The trigger generator never counts toward the fraction and always lands
    in L2 (it is bookkeeping, not load). ``n``/``m`` are the resource
    counts of the two levels: workers for a pool run, container groups for
    a distributed one.
    """
    if n < 1 or m < 1:
        raise BenchError("resource counts must be >= 1")
    if not 0.0 <= fraction <= 1.0:
        raise BenchError("fraction must be in [0, 1]")
    flat_names = {spec.name: spec for _, spec in graph.walk_atomics()}
    profiled = {p.name for p in profiles}
    missing = sorted(set(flat_names) - profiled)
    if missing:
        raise BenchError(f"profile misses atomic {missing[0]!r}")
    ranked = sorted(profiles, key=lambda p: (-p.total, p.name))
    bench = [p.name for p in ranked
             if flat_names[p.name].model != GENERATOR_NAME]
    generators = [p.name for p in ranked
                  if flat_names[p.name].model == GENERATOR_NAME]
    # floor keeps 25% of 197 at 49, the split the two-level experiments use
    slow_count = int(fraction * len(bench) + 1e-9)
    l1 = tuple(bench[:slow_count])
    l2 = tuple(bench[slow_count:] + generators)
    return Allocation2Level(l1, l2, n, m)


def two_level_pool_plan(alloc: Allocation2Level) -> PoolPlan:
    """Two pools, L1 before L2, members in rank order."""
    assignment = {name: "L1" for name in alloc.l1}
    assignment.update({name: "L2" for name in alloc.l2})
    return PoolPlan((PoolSpec("L1", alloc.l1_resources),
                     PoolSpec("L2", alloc.l2_resources)), assignment)


def balanced_pool_plan(profiles: list[AtomicProfile], m: int,
                       name: str = "main") -> PoolPlan:
    """One pool of ``m`` workers that pull atomics heaviest first, so the
    heavy atomics spread over distinct workers."""
    ranked = sorted(profiles, key=lambda p: (-p.total, p.name))
    return PoolPlan((PoolSpec(name, m),), {p.name: name for p in ranked})


# -- backend runners ---------------------------------------------------------------


def run_sequential(graph: ModelGraph, *, iterations: int | None = None,
                   trace: bool = False) -> RunReport:
    return SequentialCoordinator(graph, trace=trace).simulate(iterations)


def run_parallel(graph: ModelGraph, pool_plan: PoolPlan, *,
                 iterations: int | None = None, trace: bool = False) -> RunReport:
    with ParallelCoordinator(graph, pool_plan, trace=trace) as coordinator:
        return coordinator.simulate(iterations)


def _loopback_plan(graph: ModelGraph,
                   listeners: dict[Endpoint, socket.socket]) -> DistributedPlan:
    """Plan for ``graph`` over loopback: one contiguous block of plan order
    per CPU this process may run on (never more blocks than atomics), each
    co-hosted, so coupled neighbours push in memory, at a listener bound on
    a port that the kernel assigns and added to ``listeners``."""
    flat = flatten(graph)
    names = list(flat.atomics)
    endpoints = {}
    for block in contiguous_blocks(names, min(default_workers(), len(names))):
        listener = socket.create_server(("127.0.0.1", 0))
        endpoint = Endpoint(*listener.getsockname())
        listeners[endpoint] = listener
        endpoints.update(dict.fromkeys(block, endpoint))
    return DistributedPlan(flat, endpoints)


# How long a service process may take to end once the coordinator's links
# are closed, before a failed run stops waiting for it.
_EXIT_GRACE_S = 1.0


@dataclass
class _Child:
    """A forked service process that serves the groups at ``endpoints``,
    which host ``members``: a pidfd that is readable once it exits, an
    eventfd that it bumps once it serves, and the memfd that holds its
    stdout and stderr, of which the last 4 KiB are kept once it is reaped."""

    pid: int
    pidfd: int
    ready: int
    output: int
    members: list[str]
    endpoints: list[Endpoint]
    printed: bytes = b""
    code: int | None = None  # its exit code, once reaped

    def exited(self, timeout: float = 0.0) -> bool:
        """Whether the process has exited, or exits within ``timeout`` seconds."""
        return self.code is not None or bool(select.select([self.pidfd], [], [], timeout)[0])

    def close(self, timeout: float = 0.0) -> int:
        """Wait up to ``timeout`` seconds for the process to exit, kill it
        if it has not, reap it, keep the end of what it printed and close
        its fds, once; its exit code."""
        if self.code is None:
            if not self.exited(timeout):
                os.kill(self.pid, signal.SIGKILL)
            self.code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
            end = os.fstat(self.output).st_size
            self.printed = os.pread(self.output, 4096, max(end - 4096, 0))
            for fd in (self.pidfd, self.ready, self.output):
                os.close(fd)
        return self.code

    def tail(self) -> str:
        """The last lines the process printed, once it is reaped."""
        lines = self.printed.decode(errors="replace").splitlines()
        return " | ".join(line for line in lines[-5:] if line.strip()) or "no output"


def _fork_service(plan: DistributedPlan, block: list[Endpoint],
                  listeners: dict[Endpoint, socket.socket], timeouts: Timeouts | None,
                  share: list[int]) -> _Child:
    """Fork one process that serves the groups at the endpoints of ``block``
    on the CPUs in ``share``: it keeps their ``listeners``, which it
    inherits, closes every other group's, dials each group's peers, and
    goes on like ``pdevsim serve`` once that has bound its listeners, but
    bumps an eventfd where that prints its ready line. Its stdout and
    stderr go to one memfd, which a write never waits on, as fresh stream
    objects, so nothing the launcher left unflushed, and no lock a launcher
    thread held at the fork, is in them; ``os._exit`` runs none of the
    launcher's exit handlers."""
    output, ready = os.memfd_create("pdevsim-service"), os.eventfd(0)
    pid = 0
    try:
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                for endpoint in listeners.keys() - block:
                    listeners[endpoint].close()
                os.sched_setaffinity(0, share)
                os.dup2(output, 1)
                os.dup2(output, 2)
                sys.stdout = sys.stderr = open(1, "w", buffering=1, encoding="utf-8",
                                               errors="backslashreplace")
                code = cli.guarded(lambda: cli.serve(_start_groups(
                    plan, {endpoint: listeners[endpoint] for endpoint in block},
                    timeouts, dial=True), lambda: os.eventfd_write(ready, 1)))
                sys.stdout.flush()
            finally:
                os._exit(code)
        groups = plan.groups()
        return _Child(pid, os.pidfd_open(pid), ready, output,
                      [name for endpoint in block for name in groups[endpoint]], block)
    except BaseException:
        if pid:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os.close(output)
        os.close(ready)
        raise


def _wait_ready(child: _Child, deadline: float) -> None:
    """Wait until a service process bumps its ready eventfd; if it exits
    first, report its exit code and the last lines it printed."""
    members = ", ".join(child.members)
    woken = select.select([child.ready, child.pidfd], [], [],
                          max(deadline - time.monotonic(), 0.0))[0]
    if child.ready in woken:
        return
    if not woken:
        raise SimulationError(f"simulator process for {members} never came up")
    raise SimulationError(f"simulator process for {members} exited with code "
                          f"{child.close()} before it was ready: {child.tail()}")


def _lost_process(error: SimulationError, children: list[_Child]) -> SimulationError | None:
    """When a service process died during the coordinator run that
    ``error`` ended, ``error`` naming that process's atomics and endpoints,
    its exit code and the last lines it printed. The coordinator has closed
    its links, so every process still serving ends at once with code 0."""
    for child in children:
        if child.exited(_EXIT_GRACE_S) and child.close() != 0:
            return SimulationError(
                f"{error}; the simulator process for {', '.join(child.members)} at "
                f"{', '.join(map(str, child.endpoints))} exited with code {child.code}: "
                f"{child.tail()}")
    return None


def run_distributed_local(plan_or_graph, *, iterations: int | None = None,
                          trace: bool = False, startup_timeout: float = 60.0,
                          timeouts: Timeouts | None = None) -> RunReport:
    """Serve a plan on loopback in one process per CPU, run the coordinator
    against it, and tear everything down.

    The launcher binds every listener before its first fork, so no port is
    chosen first and bound later, and one that cannot be bound is reported
    before any fork. Each process dials its own links, none while the
    coordinator runs: each group dials its peers before it serves, in a
    forked process before that is ready, and the coordinator dials the
    groups once every process is ready (:meth:`DistributedCoordinator.connect`).
    A graph gets one contiguous block of plan order per CPU at a port the
    kernel assigns (:func:`_loopback_plan`). A plan, checked and indexed
    when it was made, keeps its endpoints, and its groups are dealt in plan
    order into contiguous blocks, one per process, never more processes
    than CPUs or groups, so only a shared endpoint co-hosts (``generate
    --workers`` makes such plans; with one endpoint per atomic, every
    coupling crosses loopback TCP). Process
    ``i`` of ``count`` runs on slice ``i`` of the launcher's allowed CPUs,
    ``allowed[len * i // count:len * (i + 1) // count]``, which its groups
    divide between them.

    Each block but block 0 gets a process forked from this one, which
    inherits its block's listeners and closes every other group's; this
    process closes its copies right after the fork. The child serves the
    plan it inherited in memory with this call's ``timeouts`` (no
    interpreter start-up, argument parsing or plan XML). The coordinator
    runs once every child has bumped its ready eventfd, within
    ``startup_timeout`` seconds. A child's stdout and stderr go to a memfd,
    which is read only once the child is reaped: a process that exits
    before it is ready, or dies mid-run, is reported with its atomics, exit
    code and last output, and in the second case its endpoints.

    This process serves block 0, pinned to share 0 from before its groups
    start until the coordinator ends: the coordinator runs block 0's first
    group on its own thread, without a socket (``local`` of
    :class:`DistributedCoordinator`), and any other group of block 0 runs
    on a thread of its own. Linux only (``os.pidfd_open``).
    """
    listeners: dict[Endpoint, socket.socket] = {}  # bound, not yet handed over
    children: list[_Child] = []
    served: list[ServiceGroup] = []
    grace = 0.0  # how long the processes may take to exit: a failed run kills them
    try:
        plan = (plan_or_graph if isinstance(plan_or_graph, DistributedPlan)
                else _loopback_plan(plan_or_graph, listeners))
        endpoints = list(plan.groups())
        listeners.update(_listen(plan, [endpoint for endpoint in endpoints
                                        if endpoint not in listeners]))
        blocks = contiguous_blocks(endpoints, min(default_workers(), len(endpoints)))
        allowed = sorted(os.sched_getaffinity(0))
        shares = contiguous_blocks(allowed, len(blocks))
        for block, share in zip(blocks[1:], shares[1:]):
            children.append(_fork_service(plan, block, listeners, timeouts, share))
            for endpoint in block:  # close(), never shutdown(): the child serves them
                listeners.pop(endpoint).close()
        # Linux pins only the calling thread: the group threads it starts
        # keep share 0, default_workers() sizes the groups' engines by it,
        # and it runs block 0's first group with the coordinator.
        os.sched_setaffinity(0, shares[0])
        try:
            deadline = time.monotonic() + startup_timeout
            # Block 0's groups dial while the children start. A child that
            # refused a dial by exiting is reported as exiting before it was ready.
            try:
                served = _start_groups(
                    plan, {endpoint: listeners.pop(endpoint) for endpoint in blocks[0]},
                    timeouts, first_local=True, dial=True)
                coordinator = DistributedCoordinator(plan, trace=trace, timeouts=timeouts,
                                                     local=served[0])
            finally:
                for child in children:
                    _wait_ready(child, deadline)
            try:
                coordinator.connect()
                report = coordinator.run(iterations)
            except SimulationError as exc:
                if (lost := _lost_process(exc, children)) is None:
                    raise
                raise lost from exc
        finally:
            os.sched_setaffinity(0, allowed)
        grace = 10.0  # they have answered EXIT: killed if still running then
        report.backend = "distributed-local"
        return report
    finally:
        for listener in listeners.values():
            listener.close()
        for group in served:
            group.stop()
        for child in children:
            child.close(grace)


BACKENDS = ("sequential", "parallel", "distributed-local")


def run_plan(parsed, backend: str, *, iterations: int | None = None,
             trace: bool = False) -> RunReport:
    """Run a parsed plan document under the named backend.

    Sequential accepts either addressing mode (it only needs the model);
    parallel needs pool addressing, distributed-local endpoint addressing.
    """
    if backend == "sequential":
        graph = parsed.graph if isinstance(parsed, (ParallelPlan, DistributedPlan)) else parsed
        return run_sequential(graph, iterations=iterations, trace=trace)
    if backend == "parallel":
        if not isinstance(parsed, ParallelPlan):
            raise BenchError("parallel backend needs a pool-addressed plan")
        return run_parallel(parsed.graph, parsed.pool_plan,
                            iterations=iterations, trace=trace)
    if backend == "distributed-local":
        if not isinstance(parsed, DistributedPlan):
            raise BenchError("distributed-local backend needs an "
                             "endpoint-addressed plan")
        return run_distributed_local(parsed, iterations=iterations, trace=trace)
    raise BenchError(f"unknown backend {backend!r} (choose from {BACKENDS})")


# -- result rows and speedups ----------------------------------------------------------


def append_report_row(path: str | Path, report: RunReport) -> None:
    path = Path(path)
    fresh = not path.exists() or path.stat().st_size == 0
    with path.open("a", encoding="utf-8") as handle:
        if fresh:
            handle.write(RunReport.CSV_HEADER + "\n")
        handle.write(report.csv_row() + "\n")


def read_report_rows(path: str | Path) -> list[dict[str, str]]:
    header = tuple(RunReport.CSV_HEADER.split(","))
    with Path(path).open(encoding="utf-8", newline="") as handle:
        return [dict(zip(header, row))
                for row in _csv_rows(handle, header, f"results file {path}",
                                     ("wall_seconds",))]


@dataclass(frozen=True)
class SpeedupRow:
    model: str
    group: str  # sequential / parallel-1pool / parallel-2pool / distributed...
    label: str  # "i x j" style worker/pool shape
    wall_seconds: float
    speedup: float


SPEEDUP_HEADER = ("model", "group", "label", "wall_seconds", "speedup")


def speedup_rows(rows: list[dict[str, str]]) -> list[SpeedupRow]:
    """Fold result rows into speedups against the sequential baseline.

    Exactly one sequential row per model is required; it becomes the
    reference time for every other row of that model.
    """
    baselines: dict[str, float] = {}
    for row in rows:
        if row["backend"] == "sequential":
            if row["model"] in baselines:
                raise BenchError(f"multiple sequential baselines for {row['model']!r}")
            baselines[row["model"]] = _wall_seconds(row)
    result = []
    for row in rows:
        model = row["model"]
        if model not in baselines:
            raise BenchError(f"no sequential baseline for model {model!r}")
        wall = _wall_seconds(row)
        backend = row["backend"]
        if backend == "parallel":
            pools = row["workers/pools"].count("x") + 1
            group = f"parallel-{pools}pool"
        else:
            group = backend
        result.append(SpeedupRow(model, group, row["workers/pools"], wall,
                                 baselines[model] / wall))
    return result


def _wall_seconds(row: dict[str, str]) -> float:
    try:
        wall = float(row["wall_seconds"])
    except ValueError:
        wall = math.nan
    if wall <= 0 or math.isnan(wall):
        raise BenchError(f"bad wall time {row['wall_seconds']!r:.40}")
    return wall


def speedups_to_csv(rows: list[SpeedupRow]) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(SPEEDUP_HEADER)
    for row in rows:
        writer.writerow([row.model, row.group, row.label,
                         repr(row.wall_seconds), repr(row.speedup)])
    return out.getvalue()


def plot_data_csv(rows: list[SpeedupRow]) -> str:
    """Long-format (group, label, speedup) table per model, ready for any
    bar-chart tool."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(("model", "group", "label", "speedup"))
    for row in rows:
        if row.group == "sequential":
            continue
        writer.writerow([row.model, row.group, row.label, repr(row.speedup)])
    return out.getvalue()
