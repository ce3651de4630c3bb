"""Worker-pool coordinator: equivalence with sequential, pool barriers,
and plan handling."""

import math
import os
import statistics
import sys
import threading
import time
from dataclasses import dataclass

import pytest

from pdevsim import (ParallelCoordinator, PoolPlan, PoolSpec,
                     SequentialCoordinator, SimulationError, Simulator,
                     atomic_spec)
from pdevsim.devstone import DelayDistribution, DevstoneConfig, generate
from pdevsim.parallel import default_workers
from pdevsim.model import ModelGraph

from conftest import fan_out_model


def _names(graph):
    coordinator = SequentialCoordinator(graph)
    return list(coordinator.simulators)


def _two_pool_plan(names, w1=2, w2=2):
    half = len(names) // 2
    assignment = {n: ("L1" if i < half else "L2") for i, n in enumerate(names)}
    return PoolPlan((PoolSpec("L1", w1), PoolSpec("L2", w2)), assignment)


@pytest.mark.parametrize("pool_shape", ["single", "two", "many"])
def test_result_equivalence_with_sequential(pool_shape):
    config = DevstoneConfig("HO", 5, 4, DelayDistribution.constant(0.0), seed=2)
    sequential = SequentialCoordinator(generate(config), trace=True).simulate()
    names = _names(generate(config))
    if pool_shape == "single":
        plan = PoolPlan.single_pool(names, workers=4)
    elif pool_shape == "two":
        plan = _two_pool_plan(names)
    else:
        pools = tuple(PoolSpec(f"P{i}", 1 + i % 3) for i in range(5))
        plan = PoolPlan(pools, {n: f"P{i % 5}" for i, n in enumerate(names)})
    with ParallelCoordinator(generate(config), plan, trace=True) as coordinator:
        parallel = coordinator.simulate()
    assert parallel.counter_triple() == sequential.counter_triple()
    assert parallel.cycles == sequential.cycles
    assert parallel.trace_text() == sequential.trace_text()


def test_equivalence_under_cpu_delays():
    config = DevstoneConfig("HO", 4, 3, DelayDistribution.constant(0.005), seed=4)
    sequential = SequentialCoordinator(generate(config), trace=True).simulate()
    plan = PoolPlan.single_pool(_names(generate(config)), workers=4)
    with ParallelCoordinator(generate(config), plan, trace=True) as coordinator:
        parallel = coordinator.simulate()
    assert parallel.trace_text() == sequential.trace_text()
    assert parallel.counter_triple() == sequential.counter_triple()


def test_each_atomic_counts_its_own_transitions():
    """Every atomic has counters of its own: on HO(4,3) their triples sum
    to the report's, and each atomic's triple is the same under the
    sequential backend and a 2-worker pool."""
    graph = generate(DevstoneConfig("HO", 4, 3))

    def per_atomic(coordinator):
        report = coordinator.simulate()
        counters = {name: sim.model.counters for name, sim in coordinator.simulators.items()}
        assert len({id(c) for c in counters.values()}) == len(counters)  # one each
        triples = {name: c.triple() for name, c in counters.items()}
        assert tuple(map(sum, zip(*triples.values()))) == report.counter_triple() != (0, 0, 0)
        return triples

    sequential = per_atomic(SequentialCoordinator(graph))
    with ParallelCoordinator(graph, PoolPlan.single_pool(_names(graph), 2)) as pool:
        assert per_atomic(pool) == sequential


def test_single_pool_single_worker_degenerates_to_sequential():
    graph = fan_out_model(senders=2, receivers=2)
    sequential = SequentialCoordinator(fan_out_model(2, 2), trace=True).simulate()
    plan = PoolPlan.single_pool(_names(fan_out_model(2, 2)), workers=1)
    with ParallelCoordinator(graph, plan, trace=True) as coordinator:
        report = coordinator.simulate()
    assert report.trace_text() == sequential.trace_text()


@dataclass(frozen=True)
class Dispatch:
    cycle: int
    pool: str
    phase: str
    atomic: str
    start: float
    end: float


def _record_dispatches(monkeypatch, coordinator) -> list[Dispatch]:
    """Log every run_lambda/run_delta call on the per-atomic seam. The cycle
    comes from the coordinator clock, the pool from the worker thread name
    (``pool-<name>_k``; empty on the coordinator thread)."""
    log: list[Dispatch] = []
    lock = threading.Lock()

    def recorded(phase, original):
        def step(sim, t):
            start = time.perf_counter()
            result = original(sim, t)
            pool = threading.current_thread().name.removeprefix("pool-").rpartition("_")[0]
            entry = Dispatch(coordinator.clock.iteration, pool, phase, sim.name,
                             start, time.perf_counter())
            with lock:
                log.append(entry)
            return result
        return step

    monkeypatch.setattr(Simulator, "run_lambda", recorded("lambda", Simulator.run_lambda))
    monkeypatch.setattr(Simulator, "run_delta", recorded("delta", Simulator.run_delta))
    return log


@pytest.mark.parametrize("backend", ["sequential", "one-pool", "two-pool"])
def test_dispatch_is_imminents_and_influencees(monkeypatch, backend):
    # Parallel DEVS: a cycle runs the output functions of the imminents and
    # one transition for each imminent or influencee, and nothing else.
    config = DevstoneConfig("HO", 15, 15)
    names = _names(generate(config))
    assert len(names) == 198  # 197 benchmark atomics plus the generator
    if backend == "sequential":
        coordinator = SequentialCoordinator(generate(config), trace=True)
    else:
        plan = (PoolPlan.single_pool(names, workers=4) if backend == "one-pool"
                else _two_pool_plan(names, 4, 8))
        coordinator = ParallelCoordinator(generate(config), plan, trace=True)
    log = _record_dispatches(monkeypatch, coordinator)
    seen = dict.fromkeys(names, 0)
    cycles = 0
    try:
        while True:
            tn = coordinator.time_advance()
            if math.isinf(tn):
                break
            coordinator.clock.t = tn
            coordinator.run_lambda()
            coordinator.run_deltfcn()
            moved = {}
            for name, sim in coordinator.simulators.items():
                if len(sim.trace) > seen[name]:
                    seen[name] = len(sim.trace)
                    moved[name] = sim.trace[-1].kind
            dispatched = {phase: {e.atomic for e in log
                                  if e.cycle == cycles and e.phase == phase}
                          for phase in ("lambda", "delta")}
            assert dispatched["delta"] == set(moved), f"cycle {cycles}"
            assert dispatched["lambda"] == {n for n, k in moved.items() if k != "ext"}
            coordinator.clock.iteration += 1
            cycles += 1
    finally:
        if isinstance(coordinator, ParallelCoordinator):
            coordinator.close()
    assert cycles > 0
    assert {e.atomic for e in log} == set(names)


def test_pullers_dispatch_each_active_simulator_once(monkeypatch):
    # More pullers than cores and a short switch interval: a shared feed
    # that handed a simulator out twice, or lost one, shows up here.
    config = DevstoneConfig("HO", 8, 8)
    sequential = SequentialCoordinator(generate(config), trace=True).simulate()
    plan = PoolPlan.single_pool(_names(generate(config)), workers=8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ParallelCoordinator(generate(config), plan, trace=True) as coordinator:
            log = _record_dispatches(monkeypatch, coordinator)
            report = coordinator.simulate()
    finally:
        sys.setswitchinterval(interval)
    keys = [(e.cycle, e.phase, e.atomic) for e in log]
    assert len(keys) == len(set(keys))
    assert report.trace_text() == sequential.trace_text()
    assert report.counter_triple() == sequential.counter_triple()


def test_plan_missing_atomic_is_named():
    graph = fan_out_model(1, 1)
    plan = PoolPlan((PoolSpec("main", 2),), {"s0": "main"})  # r0 missing
    with pytest.raises(SimulationError, match="r0"):
        ParallelCoordinator(graph, plan)


def test_plan_unknown_atomic_rejected():
    graph = fan_out_model(1, 1)
    assignment = {"s0": "main", "r0": "main", "ghost": "main"}
    plan = PoolPlan((PoolSpec("main", 2),), assignment)
    with pytest.raises(SimulationError, match="ghost"):
        ParallelCoordinator(graph, plan)


def test_plan_unknown_pool_rejected():
    graph = fan_out_model(1, 1)
    plan = PoolPlan((PoolSpec("main", 2),), {"s0": "main", "r0": "other"})
    with pytest.raises(SimulationError, match="other"):
        ParallelCoordinator(graph, plan)


def test_pool_spec_requires_workers():
    with pytest.raises(SimulationError):
        PoolSpec("p", 0)
    with pytest.raises(SimulationError, match="^duplicate pool name 'a'$"):
        PoolPlan((PoolSpec("a", 1), PoolSpec("a", 2)), {})


def test_default_workers_follow_the_cpu_affinity(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3, 5, 7}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    assert default_workers() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert default_workers() == 16  # where the platform has no affinity call


def test_empty_pool_is_noop():
    graph = fan_out_model(1, 1)
    plan = PoolPlan((PoolSpec("empty", 2), PoolSpec("main", 2)),
                    {"s0": "main", "r0": "main"})
    with ParallelCoordinator(graph, plan) as coordinator:
        report = coordinator.simulate()
    assert report.cycles == 1


def _barrier_run(monkeypatch, width=3, depth=3, delay=0.02):
    config = DevstoneConfig("HO", width, depth, DelayDistribution.constant(delay))
    graph = generate(config)
    names = _names(generate(config))
    plan = _two_pool_plan(names, 2, 2)
    with ParallelCoordinator(graph, plan) as coordinator:
        log = _record_dispatches(monkeypatch, coordinator)
        coordinator.simulate()
    return log


def test_phase_barrier_lambda_before_delta(monkeypatch):
    log = _barrier_run(monkeypatch)
    by_cycle = {}
    for entry in log:
        by_cycle.setdefault(entry.cycle, []).append(entry)
    assert by_cycle
    for entries in by_cycle.values():
        lambda_ends = [e.end for e in entries if e.phase == "lambda"]
        delta_starts = [e.start for e in entries if e.phase == "delta"]
        if lambda_ends and delta_starts:
            assert max(lambda_ends) <= min(delta_starts)


def test_pool_sequencing_within_phase(monkeypatch):
    log = _barrier_run(monkeypatch)
    by_key = {}
    for entry in log:
        by_key.setdefault((entry.cycle, entry.phase), []).append(entry)
    saw_both = False
    for entries in by_key.values():
        first = [e for e in entries if e.pool == "L1"]
        second = [e for e in entries if e.pool == "L2"]
        if first and second:
            saw_both = True
            assert max(e.end for e in first) <= min(e.start for e in second)
    assert saw_both


def _busy_fan(receivers: int, delay: float) -> ModelGraph:
    graph = ModelGraph("busyfan")
    graph.add_component(atomic_spec("s0", "emit_once"))
    for i in range(receivers):
        graph.add_component(atomic_spec(f"r{i}", "busy_ext", delay_ext=delay))
        graph.connect("s0", "out", f"r{i}", "in")
    return graph


def _delta_phase_wall(graph, plan):
    """The median of three runs' first delta-phase wall times: other load
    on the host stretches a single run."""
    walls = []
    for _ in range(3):
        with pytest.MonkeyPatch.context() as patch, \
                ParallelCoordinator(graph, plan) as coordinator:
            log = _record_dispatches(patch, coordinator)
            coordinator.simulate()
        entries = [e for e in log if e.phase == "delta" and e.cycle == 0]
        walls.append(max(e.end for e in entries) - min(e.start for e in entries))
    return statistics.median(walls)


def test_pool_phase_wall_time_reflects_worker_count():
    # Four receivers burning 100 ms each behind a two-worker pool: the
    # delta phase needs about two serialized rounds. A serialized pool
    # would need about four.
    graph = _busy_fan(4, 0.1)
    plan = PoolPlan.single_pool([f"r{i}" for i in range(4)] + ["s0"], workers=2)
    wall = _delta_phase_wall(graph, plan)
    assert 0.18 <= wall <= 0.38, f"delta phase wall {wall:.3f}s"


@pytest.mark.skipif((os.cpu_count() or 1) < 4, reason="needs >= 4 CPUs")
def test_pool_phase_wall_time_four_workers():
    graph = _busy_fan(8, 0.1)
    plan = PoolPlan.single_pool([f"r{i}" for i in range(8)] + ["s0"], workers=4)
    wall = _delta_phase_wall(graph, plan)
    assert 0.18 <= wall <= 0.45, f"delta phase wall {wall:.3f}s"


def test_model_shared_between_backends_unchanged():
    graph = generate(DevstoneConfig("HO", 3, 3))
    before = graph.structural_hash()
    SequentialCoordinator(graph).simulate()
    plan = PoolPlan.single_pool(_names(generate(DevstoneConfig("HO", 3, 3))), 2)
    with ParallelCoordinator(graph, plan) as coordinator:
        coordinator.simulate()
    assert graph.structural_hash() == before


def test_pool_sequencing_costs_wall_time():
    # Companion of the acceptance pool-order criterion, scaled so both
    # configurations are CPU-backed on this host: one pool with as many
    # workers as cores versus the same atomics split over two
    # single-worker pools that the coordinator must run one after the
    # other. The split serializes the phases and must not be faster.
    workers = min(2, os.cpu_count() or 1)
    if workers < 2:
        pytest.skip("needs at least 2 CPUs")
    config = DevstoneConfig("HO", 5, 5, DelayDistribution.constant(0.02), seed=3)
    names = _names(generate(config))
    single = PoolPlan.single_pool(names, workers=2)
    with ParallelCoordinator(generate(config), single) as coordinator:
        single_wall = coordinator.simulate().wall_seconds
    split = _two_pool_plan(names, 1, 1)
    with ParallelCoordinator(generate(config), split) as coordinator:
        split_wall = coordinator.simulate().wall_seconds
    assert split_wall >= single_wall * 0.95, (
        f"split pools {split_wall:.2f}s vs single pool {single_wall:.2f}s")


def test_parallel_speedup_on_available_cores():
    # Scaled companion of the acceptance speedup criterion: with two cores
    # the ideal is 2.0 and this host's virtualization overhead leaves
    # roughly 1.5; anything clearly above 1.25 proves the phases overlap.
    workers = min(4, os.cpu_count() or 1)
    if workers < 2:
        pytest.skip("needs at least 2 CPUs")
    config = DevstoneConfig("HO", 6, 6, DelayDistribution.constant(0.02), seed=1)
    sequential = SequentialCoordinator(generate(config)).simulate()
    plan = PoolPlan.single_pool(_names(generate(config)), workers=workers)
    with ParallelCoordinator(generate(config), plan) as coordinator:
        parallel = coordinator.simulate()
    speedup = sequential.wall_seconds / parallel.wall_seconds
    assert speedup >= 1.25, f"speedup {speedup:.2f}"
