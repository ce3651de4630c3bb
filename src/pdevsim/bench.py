"""Benchmark harness: profiling, two-level allocation, backend runners and
speedup reporting. The distributed-local launcher that ``run_plan`` calls
lives with the service groups it starts, in :mod:`pdevsim.distributed`.

This is the operator-facing machinery behind the CLI. Everything emits or
consumes plain CSV so results can be piped into any plotting tool; the
harness itself draws nothing.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

from .devstone import GENERATOR_NAME
from .distributed import DistributedPlan, run_distributed_local
from .kernel import RunReport, SequentialCoordinator
from .model import ModelGraph
from .parallel import ParallelCoordinator, PoolPlan, PoolSpec
from .planfile import ParallelPlan


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
