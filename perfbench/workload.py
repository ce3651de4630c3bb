"""The DEVStone workloads, their timed and traced runs, and the
correctness gate every run passes through.

Load is a closed loop from one process: one simulation at a time, each
backend in turn on the same graph, the workload's graphs round robin.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, replace

from pdevsim import (DelayDistribution, DevstoneConfig, ExpectedCounts,
                     ParallelCoordinator, PoolPlan, RunReport,
                     SequentialCoordinator, Timeouts, delay_map,
                     expected_counts, flatten, generate, trace_text, validate)
from pdevsim.bench import run_distributed_local
from pdevsim.wire import PROPAGATE

from probes import ChildSampler

POOL_WORKERS = 2
# A single simulation slower than this is a failed run; the distributed
# launcher gets the same limit for start-up and for each read.
TIME_LIMIT_S = 60.0
DIST_STARTUP_S = 30.0
DIST_TIMEOUTS = Timeouts(connect=5.0, read=30.0)


@dataclass(frozen=True)
class Workload:
    name: str
    width: int
    depth: int
    delay_s: float  # transitions burn uniform(0, delay_s) CPU seconds; 0 = none
    graphs: int  # delay draws, each from its own seed; their figures add up
    seq_repeats: int  # sequential runs per visit of a graph
    distributed: bool

    def configs(self, seed: int) -> list[DevstoneConfig]:
        law = (DelayDistribution.uniform(self.delay_s) if self.delay_s
               else DelayDistribution.constant(0.0))
        return [DevstoneConfig("HO", self.width, self.depth, law, seed * self.graphs + k)
                for k in range(self.graphs)]

    def expected(self) -> ExpectedCounts:
        return expected_counts(self.width, self.depth)

    def tiny(self) -> "Workload":
        return replace(self, width=3, depth=3, graphs=min(self.graphs, 2))

    def label(self) -> str:
        delay = f"uniform(0, {self.delay_s * 1e3:g} ms)" if self.delay_s else "zero delay"
        return f"HO({self.width},{self.depth}) x{self.graphs}, {delay}"


# ho-cpu adds up eight delay draws: one draw of HO(8,8) moves its total CPU
# by about 13% (quartile spread) from seed to seed, eight by about 4%.
# Short sequential runs repeat on each visit: a single 70 ms or 0.3 ms run
# samples the host's speed at one instant, and on a shared host that speed
# swings by tens of percent from second to second.
WORKLOADS = {
    "ho-zero": Workload("ho-zero", 40, 20, 0.0, 1, 8, False),
    "ho-cpu": Workload("ho-cpu", 8, 8, 0.002, 8, 1, False),
    "ho-dist": Workload("ho-dist", 5, 5, 0.0, 1, 15, True),
}


def pool_plan(graph) -> PoolPlan:
    return PoolPlan.single_pool([spec.name for _, spec in graph.walk_atomics()],
                                POOL_WORKERS)


# -- correctness gate -------------------------------------------------------------


class GateError(Exception):
    """A run broke a correctness check or its time bound."""


class Tally:
    """Runs attempted and failed, with one line per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def attempt(self, label: str, call):
        """Run ``call`` as one run; a raise counts it failed and returns None."""
        self.attempted += 1
        try:
            return call()
        except Exception as exc:  # counted and reported; the benchmark goes on
            self.fail(label, f"{type(exc).__name__}: {exc}")
            return None

    def fail(self, label: str, message: str) -> None:
        self.failed += 1
        self.errors.append(f"{label}: {message}")


@dataclass
class Gate:
    """What every run of one workload must reproduce: the HO closed-form
    counter triple, the oracle's cycle count, and the time bound."""

    expected: ExpectedCounts
    cycles: int | None = None

    def check(self, label: str, triple, cycles: int, seconds: float) -> None:
        e = self.expected
        want = (e.delta_int, e.delta_ext, e.events)
        if tuple(triple) != want:
            raise GateError(f"{label}: counters {tuple(triple)} != closed form {want}")
        if self.cycles is not None and cycles != self.cycles:
            raise GateError(f"{label}: {cycles} cycles, oracle ran {self.cycles}")
        if seconds > TIME_LIMIT_S:
            raise GateError(f"{label}: {seconds:.1f} s exceeds the {TIME_LIMIT_S:g} s bound")

    def check_report(self, report: RunReport, seconds: float) -> None:
        label = report.backend
        self.check(label, report.counter_triple(), report.cycles, seconds)
        if report.backend.startswith("distributed"):
            frames = report.diagnostics.get("frames_sent")
            if frames is None:
                raise GateError(f"{label}: report carries no frames_sent histogram")
            if PROPAGATE in frames:
                raise GateError(f"{label}: coordinator relayed {frames[PROPAGATE]} "
                                "PROPAGATE frames")


def check_trace(label: str, text: str, oracle: str) -> None:
    if text == oracle:
        return
    ours, theirs = text.splitlines(), oracle.splitlines()
    for line, (a, b) in enumerate(zip(ours, theirs), 1):
        if a != b:
            raise GateError(f"{label}: trace line {line} is {a!r}, oracle has {b!r}")
    raise GateError(f"{label}: trace has {len(ours)} lines, oracle {len(theirs)}")


def run_gate(workload: Workload, graph, gate: Gate, tally: Tally) -> str | None:
    """Event-traced runs of every backend on ``graph``, compared byte for
    byte with the sequential trace. Sets the gate's cycle count."""

    def oracle() -> RunReport:
        report = SequentialCoordinator(graph, trace=True).simulate()
        gate.check_report(report, report.wall_seconds)
        return report

    report = tally.attempt("sequential oracle", oracle)
    if report is None:
        return None
    gate.cycles = report.cycles
    text = report.trace_text()

    def pool() -> None:
        with ParallelCoordinator(graph, pool_plan(graph), trace=True) as coordinator:
            traced = coordinator.simulate()
        gate.check_report(traced, traced.wall_seconds)
        check_trace("parallel", traced.trace_text(), text)

    def dist() -> None:
        traced = run_distributed_local(graph, trace=True, startup_timeout=DIST_STARTUP_S,
                                       timeouts=DIST_TIMEOUTS)
        gate.check_report(traced, traced.wall_seconds)
        check_trace("distributed-local", traced.trace_text(), text)

    tally.attempt("parallel traced", pool)
    if workload.distributed:
        tally.attempt("distributed-local traced", dist)
    return text


# -- the cycle loop through the public protocol -----------------------------------------


def drive(coordinator, span, after_cycle=None) -> int:
    """``simulate()``'s loop, driven through the coordinator's public
    protocol operations so that each phase can be timed on its own."""
    cycles = 0
    while True:
        with span("time_advance"):
            tn = coordinator.time_advance()
        coordinator.clock.t = tn
        if math.isinf(tn):
            return cycles
        with span("lambda"):
            coordinator.run_lambda()
        with span("delta"):
            coordinator.run_deltfcn()
        coordinator.clock.iteration += 1
        cycles += 1
        if after_cycle is not None:
            after_cycle()


@dataclass
class Schedule:
    """Which simulators transitioned in each cycle, and with which kind."""

    atomics: int
    cycles: list[list[tuple[str, str]]]

    def active_fraction(self) -> float:
        moved = sum(len(c) for c in self.cycles)
        return moved / (self.atomics * len(self.cycles))

    def cpu_bound(self, delays: dict[str, tuple[float, float]], lanes: int) -> tuple[float, float]:
        """(sum of sampled delays, critical-path bound on ``lanes`` lanes).

        A confluent transition burns both delays. The bound adds up, per
        cycle, the larger of its heaviest transition and its total over
        the lanes.
        """
        ideal = bound = 0.0
        for moved in self.cycles:
            costs = []
            for name, kind in moved:
                d_int, d_ext = delays[name]
                costs.append({"int": d_int, "ext": d_ext, "con": d_int + d_ext}[kind])
            total = sum(costs)
            ideal += total
            bound += max(max(costs, default=0.0), total / lanes)
        return ideal, bound


def capture_schedule(graph, gate: Gate, oracle: str) -> Schedule:
    """One event-traced sequential run, driven cycle by cycle, that must
    match the oracle trace. Delays burn CPU but never move virtual time, so
    every delay draw of a shape shares this schedule."""
    coordinator = SequentialCoordinator(graph, trace=True)
    seen = dict.fromkeys(coordinator.simulators, 0)
    cycles: list[list[tuple[str, str]]] = []

    def record() -> None:
        moved = []
        for name, sim in coordinator.simulators.items():
            if len(sim.trace) > seen[name]:
                seen[name] = len(sim.trace)
                moved.append((name, sim.trace[-1].kind))
        cycles.append(moved)

    started = time.perf_counter()
    count = drive(coordinator, lambda phase: nullcontext(), record)
    gate.check("sequential schedule", coordinator.counters.triple(), count,
               time.perf_counter() - started)
    check_trace("sequential schedule",
                trace_text({n: s.trace for n, s in coordinator.simulators.items()}), oracle)
    return Schedule(len(coordinator.simulators), cycles)


# -- timed and traced runs -------------------------------------------------------------


class Samples:
    """Timings per graph of a workload. The figure for a name is the median
    of each graph's runs, summed over the graphs, so that a slow moment of
    a shared host spoils one run of one graph rather than a whole pass."""

    def __init__(self, graphs: int) -> None:
        self._runs: dict[str, list[list[float]]] = defaultdict(
            lambda: [[] for _ in range(graphs)])

    def add(self, name: str, graph: int, value: float) -> None:
        self._runs[name][graph].append(value)

    def total(self, name: str) -> float:
        return sum(statistics.median(runs) for runs in self._runs[name])

    def count(self, name: str) -> int:
        return sum(len(runs) for runs in self._runs[name])


def timed_sequential(graph, gate: Gate) -> tuple[float, float]:
    """(set-up seconds, simulate() seconds) of one untraced run."""
    started = time.perf_counter()
    coordinator = SequentialCoordinator(graph)
    ready = time.perf_counter()
    report = coordinator.simulate()
    wall = time.perf_counter() - ready
    gate.check_report(report, wall)
    return ready - started, wall


def timed_pool(graph, gate: Gate) -> tuple[float, float, float]:
    """(set-up seconds, simulate() seconds, process CPU seconds of the run)."""
    started = time.perf_counter()
    coordinator = ParallelCoordinator(graph, pool_plan(graph))
    with coordinator:
        ready = time.perf_counter()
        cpu = time.process_time()
        report = coordinator.simulate()
        wall = time.perf_counter() - ready
        cpu = time.process_time() - cpu
    gate.check_report(report, wall)
    return ready - started, wall, cpu


def timed_distributed(graph, gate: Gate) -> tuple[float, float, RunReport]:
    """(launcher seconds outside the coordinator, RunReport.wall_seconds, report)."""
    started = time.perf_counter()
    report = run_distributed_local(graph, startup_timeout=DIST_STARTUP_S,
                                   timeouts=DIST_TIMEOUTS)
    call = time.perf_counter() - started
    gate.check_report(report, report.wall_seconds)
    return call - report.wall_seconds, report.wall_seconds, report


def timed_graph(workload: Workload, k: int, config, gate: Gate, tally: Tally,
                result: "Measurement") -> None:
    """Untraced runs of every backend on graph ``k``: the sequential one
    ``workload.seq_repeats`` times, the others once."""
    samples = result.samples
    started = time.perf_counter()
    graph = generate(config)
    samples.add("generate_s", k, time.perf_counter() - started)
    for _ in range(workload.seq_repeats):
        got = tally.attempt("sequential", lambda: timed_sequential(graph, gate))
        if got is not None:
            samples.add("seq_setup_s", k, got[0])
            samples.add("seq_wall_s", k, got[1])
    got = tally.attempt("parallel", lambda: timed_pool(graph, gate))
    if got is not None:
        samples.add("pool_setup_s", k, got[0])
        samples.add("pool_wall_s", k, got[1])
        samples.add("pool_cpu_s", k, got[2])
    if workload.distributed:
        got = tally.attempt("distributed-local", lambda: timed_distributed(graph, gate))
        if got is not None:
            samples.add("dist_setup_s", k, got[0])
            samples.add("dist_wall_s", k, got[1])
            result.dist_report = got[2]


def traced_graph(workload: Workload, k: int, config, gate: Gate, tally: Tally,
                 rec, samples: Samples) -> None:
    """The same runs as ``timed_graph`` (the sequential one once), with a
    span around each public call; adds each span name's self time."""

    def spanned(layer: str, graph, build) -> None:
        with rec.span(f"{layer}.setup"):
            coordinator = build(graph)
        try:
            with rec.span(f"{layer}.simulate") as span:
                cycles = drive(coordinator, lambda phase: rec.span(f"{layer}.{phase}"))
        finally:
            if isinstance(coordinator, ParallelCoordinator):
                coordinator.close()
        gate.check(f"{layer} spans", coordinator.counters.triple(), cycles, span.duration)

    def build_pool(graph) -> ParallelCoordinator:
        return ParallelCoordinator(graph, pool_plan(graph))

    def dist() -> None:
        with ChildSampler() as sampler, rec.span("bench.run_distributed_local"):
            report = run_distributed_local(graph, startup_timeout=DIST_STARTUP_S,
                                           timeouts=DIST_TIMEOUTS)
        gate.check_report(report, report.wall_seconds)
        samples.add("processes", k, len(sampler.seen))

    with rec.run(f"{workload.name}/{k}") as run:
        with rec.span("devstone.generate"):
            graph = generate(config)
        with rec.span("model.validate"):
            validate(graph)
        with rec.span("model.flatten"):
            flatten(graph)
        tally.attempt("sequential spans", lambda: spanned("kernel", graph, SequentialCoordinator))
        tally.attempt("parallel spans", lambda: spanned("parallel", graph, build_pool))
        if workload.distributed:
            tally.attempt("distributed-local spans", dist)
    for name, seconds in rec.self_times(run).items():
        samples.add(f"self:{name}", k, seconds)
    for name, seconds in rec.durations(run).items():
        samples.add(f"span:{name}", k, seconds)


# -- the measurement loop -----------------------------------------------------------------


@dataclass
class Measurement:
    workload: Workload
    seed: int
    samples: Samples
    dist_report: RunReport | None = None
    schedule: Schedule | None = None
    oracle_cycles: int = 0

    def cpu_bound(self, lanes: int) -> tuple[float, float]:
        """Sampled CPU delay and its critical-path bound, summed over the
        workload's graphs."""
        ideal = bound = 0.0
        for config in self.workload.configs(self.seed):
            one_ideal, one_bound = self.schedule.cpu_bound(delay_map(generate(config)), lanes)
            ideal += one_ideal
            bound += one_bound
        return ideal, bound

    def setup_s(self) -> float:
        """Seed to ready coordinators, summed over the workload's backends."""
        names = ["generate_s", "seq_setup_s", "pool_setup_s"]
        if self.workload.distributed:
            names.append("dist_setup_s")
        return sum(self.samples.total(name) for name in names)


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            tally: Tally, rec) -> Measurement:
    """Gate once, then visit the graphs round robin until ``seconds`` have
    passed and every graph has been visited; with tracing, each untraced
    visit is followed by a traced one."""
    configs = workload.configs(seed)
    result = Measurement(workload, seed, Samples(len(configs)))
    gate = Gate(workload.expected())
    graph = generate(configs[0])
    oracle = run_gate(workload, graph, gate, tally)
    if tally.failed:
        return result
    result.oracle_cycles = gate.cycles
    if trace:
        result.schedule = tally.attempt(
            "sequential schedule", lambda: capture_schedule(graph, gate, oracle))
    deadline = time.perf_counter() + seconds
    step = 0
    while step < len(configs) or time.perf_counter() < deadline:
        k = step % len(configs)
        timed_graph(workload, k, configs[k], gate, tally, result)
        if trace:
            traced_graph(workload, k, configs[k], gate, tally, rec, result.samples)
        step += 1
    return result


def backend_key(workload: Workload) -> str:
    """The samples behind ``backend_wall_s``: the backend under test."""
    return "dist_wall_s" if workload.distributed else "pool_wall_s"
