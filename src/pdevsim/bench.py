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
import multiprocessing
import os
import select
import socket
import sys
import tempfile
import time
from dataclasses import dataclass
from multiprocessing.process import BaseProcess
from pathlib import Path
from typing import BinaryIO

from . import cli
from .devstone import GENERATOR_NAME
from .distributed import (READY_LINE, DistributedPlan, Endpoint, Timeouts,
                          run_coordinator)
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


def profiles_from_csv(text: str) -> list[AtomicProfile]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or tuple(header) != PROFILE_HEADER:
        raise BenchError(f"bad profile CSV header: {header}")
    return [AtomicProfile(row[0], float(row[1]), float(row[2])) for row in reader if row]


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


def balanced_buckets(profiles: list[AtomicProfile], m: int) -> list[list[str]]:
    """Round-robin the ranked atomics over ``m`` resources.

    Heaviest-first round-robin keeps per-resource load sums within one
    heaviest atomic of each other.
    """
    if m < 1:
        raise BenchError("resource count must be >= 1")
    ranked = sorted(profiles, key=lambda p: (-p.total, p.name))
    buckets: list[list[str]] = [[] for _ in range(m)]
    for index, profile in enumerate(ranked):
        buckets[index % m].append(profile.name)
    return buckets


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


def free_port_block(count: int, host: str = "127.0.0.1") -> list[int]:
    """Distinct currently-free TCP ports, reserved simultaneously so they
    cannot collide with each other."""
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.bind((host, 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


def local_plan(graph: ModelGraph, host: str = "127.0.0.1") -> DistributedPlan:
    """Distributed plan over loopback: the atomics in one contiguous block
    of plan order per CPU this process may run on, never more blocks than
    atomics. Each block is co-hosted at one freshly probed free port, which
    keeps coupled neighbours in one group, where their pushes stay in
    memory."""
    flat = flatten(graph)
    names = [spec.name for _, spec in flat.walk_atomics()]
    count = min(default_workers(), len(names))
    ports = free_port_block(count + 1, host)
    endpoints = {name: Endpoint(host, port)
                 for block, port in zip(contiguous_blocks(names, count), ports)
                 for name in block}
    return DistributedPlan(flat, endpoints, Endpoint(host, ports[-1]))


def _serve(plan: DistributedPlan, members: list[str], timeouts: Timeouts | None,
           stdout_fd: int, stderr_path: Path, share: list[int]) -> None:
    """Body of a forked service process: serve ``members`` of the plan the
    launcher holds in memory, like ``pdevsim serve`` does after parsing
    its plan, on the CPUs in ``share`` (all the launcher's if empty), with
    stdout on the launcher's pipe and stderr in ``stderr_path``.

    The process sizes its engines by the CPUs it may run on, so a share of
    one CPU runs its blocks sequentially. Fresh ``sys.stdout``/``sys.stderr``
    objects are put on fds 1 and 2, so nothing the launcher left unflushed
    in its own stream objects can reach the pipe, and no lock a launcher
    thread held on them at the fork is taken; multiprocessing flushes the
    new ones before the process ends.
    """
    if share:
        os.sched_setaffinity(0, share)
    os.dup2(stdout_fd, 1)
    os.close(stdout_fd)
    with open(stderr_path, "wb") as stderr:
        os.dup2(stderr.fileno(), 2)
    sys.stdout = open(1, "w", encoding="utf-8")
    sys.stderr = open(2, "w", buffering=1, encoding="utf-8", errors="backslashreplace")
    sys.exit(cli.guarded(cli.serve, plan, members, timeouts))


def _start_service(plan: DistributedPlan, members: list[str], timeouts: Timeouts | None,
                   stderr_path: Path, share: list[int]) -> tuple[BaseProcess, BinaryIO]:
    """Fork one process that serves ``members`` on the CPUs in ``share``;
    returns it with the read end of its stdout pipe."""
    read_fd, write_fd = os.pipe()
    stdout = open(read_fd, "rb")
    process = multiprocessing.get_context("fork").Process(
        target=_serve, args=(plan, members, timeouts, write_fd, stderr_path, share))
    try:
        process.start()
    except BaseException:
        stdout.close()
        raise
    finally:
        # The child has its own copy. Any other copy of the write end, here
        # or in a later child, would hide this child's exit from the pipe.
        os.close(write_fd)
    return process, stdout


def _wait_ready(process: BaseProcess, stdout: BinaryIO, members: list[str],
                deadline: float, stderr_path: Path) -> None:
    """Wait until a service process prints its ready line on stdout."""
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not select.select([stdout], [], [], remaining)[0]:
            raise SimulationError(
                f"simulator process for {', '.join(members)} never came up")
        line = stdout.readline()
        if line.decode(errors="replace").strip() == READY_LINE:
            return
        if not line:  # stdout closed: the process is exiting
            process.join(timeout=max(deadline - time.monotonic(), 1.0))
            raise SimulationError(
                f"simulator process for {', '.join(members)} exited with "
                f"code {process.exitcode} before listening: {_tail(stderr_path)}")


def _tail(path: Path, lines: int = 5) -> str:
    """The last lines of a service process's stderr, on one line."""
    text = path.read_text(encoding="utf-8", errors="replace").splitlines()
    return " | ".join(line for line in text[-lines:] if line.strip()) or "no stderr output"


def run_distributed_local(plan_or_graph, *, iterations: int | None = None,
                          trace: bool = False, startup_timeout: float = 60.0,
                          timeouts: Timeouts | None = None) -> RunReport:
    """Fork one service process per CPU on loopback, wait for each to
    print its ready line, run the coordinator against them, and tear
    everything down.

    A graph gets :func:`local_plan`: one endpoint, and so one service
    group, per CPU. A plan keeps its endpoints, and its groups are dealt
    in plan order into contiguous blocks, one per process, never more
    processes than CPUs or groups. The plan, not the process, decides
    what is co-hosted: a plan with one endpoint per atomic (the default of
    ``generate --addressing distributed``) runs every atomic as a group of
    its own, whose couplings to the others cross loopback TCP even inside
    one process; ``generate --workers`` co-hosts contiguous blocks.

    Process ``i`` of ``count`` may run only on its slice of the launcher's
    allowed CPUs, ``allowed[len * i // count:len * (i + 1) // count]``, and
    its groups divide that share between them: with one CPU each, every
    process runs its groups sequentially instead of oversubscribing the
    host with one pool per process.

    A process is forked from this one and hands the plan it inherited in
    memory to :func:`cli.serve`, as ``pdevsim serve`` does after parsing
    its plan, with this call's ``timeouts``: no interpreter start-up, no
    argument parsing and no plan XML. Every process is forked before the
    coordinator opens a socket or starts a thread. The temporary directory
    holds only the processes' stderr. POSIX only.
    """
    if isinstance(plan_or_graph, DistributedPlan):
        plan = plan_or_graph
    else:
        plan = local_plan(plan_or_graph)
    plan.check()
    groups = list(plan.groups().values())
    count = min(default_workers(), len(groups))
    blocks = [[name for group in block for name in group]
              for block in contiguous_blocks(groups, count)]
    allowed = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    shares = contiguous_blocks(allowed, count)
    services: list[tuple[BaseProcess, BinaryIO]] = []
    with tempfile.TemporaryDirectory(prefix="pdevsim-") as tmp:
        stderr_paths = [Path(tmp) / f"serve-{i}.stderr" for i in range(count)]
        try:
            for members, stderr_path, share in zip(blocks, stderr_paths, shares):
                services.append(_start_service(plan, members, timeouts, stderr_path, share))
            deadline = time.monotonic() + startup_timeout
            for (process, stdout), members, stderr_path in zip(services, blocks,
                                                               stderr_paths):
                _wait_ready(process, stdout, members, deadline, stderr_path)
            report = run_coordinator(plan, iterations, trace=trace,
                                     timeouts=timeouts)
            for process, _ in services:
                process.join(timeout=10.0)  # killed below if still running
            report.backend = "distributed-local"
            return report
        finally:
            for process, stdout in services:
                if process.exitcode is None:
                    process.kill()
                process.join()
                process.close()
                stdout.close()


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
    with Path(path).open(encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != RunReport.CSV_HEADER.split(","):
            raise BenchError(f"bad results header in {path}: {reader.fieldnames}")
        return [dict(row) for row in reader]


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
            baselines[row["model"]] = float(row["wall_seconds"])
    result = []
    for row in rows:
        model = row["model"]
        if model not in baselines:
            raise BenchError(f"no sequential baseline for model {model!r}")
        wall = float(row["wall_seconds"])
        if wall <= 0 or math.isnan(wall):
            raise BenchError(f"bad wall time {row['wall_seconds']!r}")
        backend = row["backend"]
        if backend == "parallel":
            pools = row["workers/pools"].count("x") + 1
            group = f"parallel-{pools}pool"
        else:
            group = backend
        result.append(SpeedupRow(model, group, row["workers/pools"], wall,
                                 baselines[model] / wall))
    return result


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
