"""Worker-pool parallel coordinator.

Runs the sequential kernel's cycle and overrides only its phase seam: the
simulators active in a phase are dealt to named thread pools, and pools
run strictly one after another within a phase. Value propagation and the
time-advance scan stay single-threaded between the phases, which is the
barrier that makes results identical to sequential execution.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from itertools import groupby

from .kernel import SequentialCoordinator, SimulationError, Simulator
from .model import ModelGraph


@dataclass(frozen=True)
class PoolSpec:
    """One named worker pool; order of declaration is execution order."""

    name: str
    workers: int

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise SimulationError(f"pool {self.name!r} needs at least one worker")


def default_workers() -> int:
    """The number of CPUs this process may run on: its affinity mask where
    the platform has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def contiguous_blocks(items: Sequence, count: int) -> list[Sequence]:
    """``items`` in ``count`` contiguous blocks whose sizes differ by at
    most one."""
    return [items[len(items) * i // count:len(items) * (i + 1) // count]
            for i in range(count)]


@dataclass
class PoolPlan:
    """Assignment of every atomic to exactly one pool.

    ``assignment`` insertion order is also the order in which each pool's
    workers pull active atomics, which lets a caller put heavy atomics
    first.
    """

    pools: tuple[PoolSpec, ...]
    assignment: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = [p.name for p in self.pools]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise SimulationError(f"duplicate pool name {name!r}")

    @classmethod
    def single_pool(cls, atomics, workers: int | None = None,
                    name: str = "main") -> "PoolPlan":
        workers = default_workers() if workers is None else workers
        return cls((PoolSpec(name, workers),), {a: name for a in atomics})

    def check(self, atomics) -> None:
        """Refuse a plan that misses one of ``atomics``, those of the model
        it runs, or assigns an atomic that is not among them."""
        missing = [name for name in atomics if name not in self.assignment]
        if missing:
            raise SimulationError(f"pool plan misses atomic {missing[0]!r}"
                                  + (f" (+{len(missing) - 1} more)" if len(missing) > 1 else ""))
        unknown = sorted(set(self.assignment) - set(atomics))
        if unknown:
            raise SimulationError(f"pool plan assigns unknown atomic {unknown[0]!r}")

    def pool_members(self) -> dict[str, list[str]]:
        members: dict[str, list[str]] = {p.name: [] for p in self.pools}
        for atomic, pool in self.assignment.items():
            if pool not in members:
                raise SimulationError(
                    f"atomic {atomic!r} assigned to unknown pool {pool!r}")
            members[pool].append(atomic)
        return members

    def label(self) -> str:
        return "x".join(str(p.workers) for p in self.pools)


def _drain(step, feed, t: float) -> None:
    # Pullers of one pool share ``feed``; under the GIL a list iterator
    # hands out each simulator exactly once.
    for sim in feed:
        step(sim, t)


class ParallelCoordinator(SequentialCoordinator):
    """Pooled execution of the lambda and delta phases over a flat graph."""

    backend_name = "parallel"

    def __init__(self, graph: ModelGraph, plan: PoolPlan, *, trace: bool = False) -> None:
        super().__init__(graph, flatten_graph=True, trace=trace)
        self.plan = plan
        members = plan.pool_members()
        plan.check(self.simulators)
        # Seat of every simulator: (pool index, position within the pool).
        self._seats = {self.simulators[name]: (index, position)
                       for index, pool in enumerate(plan.pools)
                       for position, name in enumerate(members[pool.name])}
        self._executors = {pool.name: ThreadPoolExecutor(
            max_workers=pool.workers, thread_name_prefix=f"pool-{pool.name}")
            for pool in plan.pools}

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        for executor in self._executors.values():
            executor.shutdown(wait=True)

    def __enter__(self) -> "ParallelCoordinator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- phase execution ---------------------------------------------------------

    def _run_phase(self, step, sims: list[Simulator], t: float) -> None:
        """Pools run in plan order, each finished before the next starts.
        Within a pool, min(workers, active members) pullers take the active
        simulators from one iterator in plan order, so a heaviest-first
        plan is dealt longest job first."""
        seats = self._seats
        queue = sorted(sims, key=seats.__getitem__)
        for index, group in groupby(queue, key=lambda sim: seats[sim][0]):
            pool = self.plan.pools[index]
            active = list(group)
            feed = iter(active)
            executor = self._executors[pool.name]
            futures = [executor.submit(_drain, step, feed, t)
                       for _ in range(min(pool.workers, len(active)))]
            wait(futures)  # no puller still runs when an error is raised
            for future in futures:
                future.result()

    def workers_pools_label(self) -> str:
        return self.plan.label()
