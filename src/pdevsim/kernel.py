"""Abstract-simulator protocol and the sequential root coordinator.

The sequential coordinator is the reference backend: parallel and
distributed execution must reproduce its event traces and counter totals
exactly. The cycle is the classic one: advance the clock to the minimum
next-event time, run the output functions of the imminent simulators
(``run_lambda``), then propagate values along the couplings and run one
transition per affected simulator (``run_deltfcn``). Every backend's
engine, a distributed service group's too, steps through that pair.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field

from .behaviors import AtomicModel, Counters, create_behavior
from .model import EIC, IC, INPUT, ModelError, ModelGraph, _leaves, flatten

INFINITY = math.inf


class SimulationError(Exception):
    """A run aborted: invalid setup or a failing user transition."""


@dataclass
class SimulationClock:
    """Virtual time plus the count of completed DEVS cycles."""

    t: float = 0.0
    iteration: int = 0


@dataclass(frozen=True)
class TraceEntry:
    """One transition of one atomic: what it consumed and what it emitted.

    ``inputs`` holds (port, values) pairs for non-empty input bags at
    transition time; ``outputs`` the values deposited by the output function
    in the same cycle (empty unless the atomic was imminent).
    """

    time: float
    kind: str  # "int" | "ext" | "con"
    inputs: tuple[tuple[str, tuple], ...]
    outputs: tuple[tuple[str, tuple], ...]

    def to_payload(self) -> list:
        """JSON-ready ``[time, kind, inputs, outputs]`` list."""
        return [self.time, self.kind,
                [[p, list(v)] for p, v in self.inputs],
                [[p, list(v)] for p, v in self.outputs]]

    @classmethod
    def from_payload(cls, payload) -> "TraceEntry":
        t, kind, inputs, outputs = payload
        return cls(float(t), kind,
                   tuple((p, tuple(v)) for p, v in inputs),
                   tuple((p, tuple(v)) for p, v in outputs))


def _bags_snapshot(bags: dict[str, list], order: tuple[str, ...]) -> tuple:
    return tuple((port, tuple(bags[port])) for port in order if bags[port])


def trace_text(traces: dict[str, list[TraceEntry]]) -> str:
    """Canonical one-line-per-transition serialization, atomics sorted by
    name. Byte-equal outputs mean equal traces; used for cross-backend
    comparison."""
    lines = []
    for name in sorted(traces):
        for entry in traces[name]:
            payload = json.dumps(entry.to_payload(), separators=(",", ":"),
                                 allow_nan=False)
            lines.append(f"{name}|{payload}")
    return "\n".join(lines) + ("\n" if lines else "")


class Simulator:
    """Drives one atomic model: tL/tN bookkeeping around the behavior."""

    __slots__ = ("model", "tL", "tN", "trace")

    def __init__(self, model: AtomicModel, *, trace: bool = False) -> None:
        self.model = model
        self.tL = 0.0
        self.tN = INFINITY
        self.trace: list[TraceEntry] | None = [] if trace else None

    @property
    def name(self) -> str:
        return self.model.name

    def initialize(self) -> None:
        try:
            self.model.initialize()
        except Exception as exc:
            raise SimulationError(f"initialize failed in atomic {self.name!r}: {exc}") from exc
        self.tL = 0.0
        self.tN = self.tL + self.model.time_advance()

    def run_lambda(self, t: float) -> None:
        """Run the output function of this simulator, imminent at ``t``."""
        try:
            self.model.output()
        except Exception as exc:
            raise SimulationError(f"output failed in atomic {self.name!r}: {exc}") from exc

    def run_delta(self, t: float) -> str | None:
        """Apply at most one transition for the cycle at time ``t``.

        Internal when imminent with an empty bag, external when input
        arrived before the schedule, confluent on collision; a no-op
        otherwise. Returns the kind executed, or None. On a transition the
        bookkeeping is tL = t, tN = t + ta, and all bags are cleared.
        """
        imminent = self.tN == t
        has_input = not self.model.input_empty()
        if not imminent and not has_input:
            return None
        if imminent and not has_input:
            kind = "int"
        elif not imminent:
            kind = "ext"
        else:
            kind = "con"
        entry_inputs = entry_outputs = ()
        if self.trace is not None:
            entry_inputs = _bags_snapshot(self.model.input_bags, self.model.spec.input_ports)
            entry_outputs = _bags_snapshot(self.model.output_bags, self.model.spec.output_ports)
        try:
            if kind == "int":
                self.model.delta_int()
            elif kind == "ext":
                self.model.delta_ext(t - self.tL)
            else:
                self.model.delta_con()
        except Exception as exc:
            raise SimulationError(f"transition failed in atomic {self.name!r}: {exc}") from exc
        if self.trace is not None:
            self.trace.append(TraceEntry(t, kind, entry_inputs, entry_outputs))
        self.tL = t
        self.tN = t + self.model.time_advance()
        self.model.clear_bags()
        return kind


@dataclass
class RunReport:
    """Outcome of one run: counters, cycle count, wall time, optional traces."""

    model: str
    backend: str
    workers_pools: str
    cycles: int
    wall_seconds: float
    num_delt_ints: int
    num_delt_exts: int
    num_of_events: int
    traces: dict[str, list[TraceEntry]] | None = None
    diagnostics: dict = field(default_factory=dict)

    CSV_HEADER = ("model,backend,workers/pools,cycles,wall_seconds,"
                  "num_delt_ints,num_delt_exts,num_events")

    def csv_row(self) -> str:
        """The report as one CSV line, a field quoted where it must be."""
        line = io.StringIO()
        csv.writer(line, lineterminator="").writerow((
            self.model, self.backend, self.workers_pools, self.cycles, repr(self.wall_seconds),
            self.num_delt_ints, self.num_delt_exts, self.num_of_events))
        return line.getvalue()

    def counter_triple(self) -> tuple[int, int, int]:
        return self.num_delt_ints, self.num_delt_exts, self.num_of_events

    def trace_text(self) -> str:
        if self.traces is None:
            raise SimulationError("run was executed without tracing")
        return trace_text(self.traces)


# Key of a boundary-port bag in hierarchical execution.
_BoundaryKey = tuple[tuple[str, ...], str, str]
# One propagation hop bound to the bags it copies between: source bag,
# destination bag, and the rank of the destination simulator (None when the
# destination is a coupled boundary bag).
_Route = tuple[list, list, int | None]


class SequentialCoordinator:
    """Single-threaded root coordinator over a (normally flattened) graph.

    By default the graph is flattened first so that every backend executes
    the identical single-level structure. ``flatten=False`` keeps the
    hierarchy and propagates values hop by hop through coupled boundary
    ports, which exists to demonstrate closure under coupling.

    A cycle touches only its active set: the output functions of the
    imminents, then propagation and one transition per imminent or
    influencee, in rank (graph walk) order. Both phases go through
    ``_run_phase``, the one seam the pool backend overrides.
    """

    backend_name = "sequential"

    def __init__(self, graph: ModelGraph, *, flatten_graph: bool = True,
                 trace: bool = False) -> None:
        try:
            graph.freeze()
        except ModelError as exc:
            raise SimulationError(f"invalid graph {graph.name!r}: {exc}") from None
        self.graph = graph
        self.exec_graph = flatten(graph) if flatten_graph else graph
        self.trace_enabled = trace
        if self.exec_graph.is_flat():
            specs = list(self.exec_graph.atomics.values())
        else:
            leaves = _leaves(self.exec_graph)
            self._rename = {path: spec.name for path, spec in leaves}
            specs = [spec for _, spec in leaves]
        self._sim_list = [Simulator(create_behavior(spec, Counters()), trace=trace)
                          for spec in specs]
        names = [spec.name for spec in specs]
        self.simulators = dict(zip(names, self._sim_list))
        self._ranks = dict(zip(names, range(len(names))))
        self._build_routes()
        self.initialize()

    @property
    def counters(self) -> Counters:
        """The sum of every atomic's counters."""
        return Counters(*map(sum, zip(*(sim.model.counters.triple()
                                         for sim in self._sim_list))))

    # -- protocol operations ---------------------------------------------------

    def initialize(self) -> None:
        """Run every atomic's init, reset bookkeeping, seat the clock."""
        for sim in self._sim_list:
            sim.initialize()
        self.clock = SimulationClock(t=self.time_advance(), iteration=0)
        self.dropped_events = 0
        # (t, ranks) of the imminents that run_lambda left for run_deltfcn.
        self._active: tuple[float, list[int]] | None = None

    def time_advance(self) -> float:
        """Minimum next-event time over the child simulators (read-only)."""
        tn = INFINITY
        for sim in self._sim_list:
            if sim.tN < tn:
                tn = sim.tN
        return tn

    def run_lambda(self) -> list[Simulator]:
        """Output functions of the simulators imminent at the clock time;
        returns them, and leaves them for run_deltfcn."""
        t = self.clock.t
        imminent = self._imminent(t)
        sims = [self._sim_list[rank] for rank in imminent]
        self._run_phase(Simulator.run_lambda, sims, t)
        self._active = (t, imminent)
        return sims

    def run_deltfcn(self) -> None:
        """Value propagation, then one transition per imminent or
        influencee, in rank order."""
        t = self.clock.t
        if self._active is None or self._active[0] != t:
            raise SimulationError(f"run_deltfcn at t={t} without run_lambda at that time")
        active = self._propagate()
        active.update(self._active[1])
        self._active = None
        sims = [self._sim_list[rank] for rank in sorted(active)]
        self._run_phase(Simulator.run_delta, sims, t)

    def simulate(self, max_iterations: int | None = None) -> RunReport:
        """Drive cycles until passivity or the iteration cap."""
        started = time.perf_counter()
        cycles = 0
        while max_iterations is None or cycles < max_iterations:
            tn = self.time_advance()
            self.clock.t = tn
            if math.isinf(tn):
                break
            self.run_lambda()
            self.run_deltfcn()
            self.clock.iteration += 1
            cycles += 1
        wall = time.perf_counter() - started
        return self._report(cycles, wall)

    # -- internals ----------------------------------------------------------------

    def _imminent(self, t: float) -> list[int]:
        """Ranks of the simulators scheduled at ``t``. A schedule before
        ``t`` means the clock skipped an event, which is an error."""
        if math.isinf(t):
            return []
        ranks = []
        for rank, sim in enumerate(self._sim_list):
            if sim.tN <= t:
                if sim.tN < t:
                    raise SimulationError(
                        f"clock overran atomic {sim.name!r}: tN={sim.tN} < t={t}")
                ranks.append(rank)
        return ranks

    def _run_phase(self, step, sims: list[Simulator], t: float) -> None:
        """Apply ``step(sim, t)`` to each simulator, in order."""
        for sim in sims:
            step(sim, t)

    def _report(self, cycles: int, wall: float) -> RunReport:
        ints, exts, events = self.counters.triple()
        traces = None
        if self.trace_enabled:
            traces = {sim.name: list(sim.trace) for sim in self._sim_list}
        return RunReport(
            model=self.graph.name, backend=self.backend_name,
            workers_pools=self.workers_pools_label(), cycles=cycles,
            wall_seconds=wall, num_delt_ints=ints, num_delt_exts=exts,
            num_of_events=events, traces=traces,
            diagnostics={"dropped_events": self.dropped_events})

    def workers_pools_label(self) -> str:
        return "1"

    # Propagation. Every coupling hop is bound at build time to the bags it
    # copies between, in the order the hops apply. In flat mode each hop
    # copies directly from an atomic output bag to an atomic input bag, in
    # coupling order (boundary couplings of an open flat graph have no
    # runtime peer in a closed run and are skipped). In hierarchical mode
    # values hop through coupled boundary bags: outputs climb EOCs
    # child-first, cross one IC, then descend EICs top-down, which
    # reproduces the classic coordinator hierarchy without materializing it.
    # In either mode a value is counted as dropped once, when it is emitted
    # on an atomic output from which no chain of hops reaches an atomic input.

    def _build_routes(self) -> None:
        self._routes: list[_Route] = []
        self._boundary: dict[_BoundaryKey, list] = {}
        graph = self.exec_graph
        if graph.is_flat():
            sims, ranks = self.simulators, self._ranks
            for coupling in graph.couplings:
                if coupling.kind == IC:
                    src, dst = coupling.src, coupling.dst
                    rank = ranks[dst.component]
                    self._routes.append((
                        sims[src.component].model.output_bags[src.port],
                        self._sim_list[rank].model.input_bags[dst.port], rank))
        else:
            for port in graph.input_ports:
                self._boundary[((), port, "in")] = []
            for port in graph.output_ports:
                self._boundary[((), port, "out")] = []
            self._collect_upward(graph, ())
            self._collect_downward(graph, ())
        self._bind_routes(self._routes, self._boundary.values())

    def _bind_routes(self, routes: list[_Route], boundary, shipped=()) -> None:
        """Propagate along ``routes``, in order, and empty the ``boundary``
        bags after each propagation. An output bag from which no chain of
        routes reaches an atomic input, and that is not in ``shipped`` (read
        by a caller), holds dropped values. A route runs before every route
        that reads its destination, so one backward pass finds the bags that
        lead somewhere."""
        self._routes = routes
        self._transit = list(boundary)
        live = set(map(id, shipped))
        for src, dst, rank in reversed(routes):
            if rank is not None or id(dst) in live:
                live.add(id(src))
        self._dangling = [bag for sim in self._sim_list
                          for bag in sim.model.output_bags.values() if id(bag) not in live]

    def _collect_upward(self, level: ModelGraph, path: tuple[str, ...]) -> None:
        """Materialize boundary bags and bind the EOC and IC hops, children
        first."""
        for child in level.components():
            if isinstance(child, ModelGraph):
                child_path = path + (child.name,)
                for port in child.input_ports:
                    self._boundary[(child_path, port, "in")] = []
                for port in child.output_ports:
                    self._boundary[(child_path, port, "out")] = []
                self._collect_upward(child, child_path)
        self._routes += [self._hop(path, level, coupling)
                         for coupling in level.couplings if coupling.kind != EIC]

    def _collect_downward(self, level: ModelGraph, path: tuple[str, ...]) -> None:
        """Bind the EIC hops, parents before children."""
        self._routes += [self._hop(path, level, coupling)
                         for coupling in level.couplings if coupling.kind == EIC]
        for child in level.components():
            if isinstance(child, ModelGraph):
                self._collect_downward(child, path + (child.name,))

    def _hop(self, path: tuple[str, ...], level: ModelGraph, coupling) -> _Route:
        src, _ = self._bag_for(path, level, coupling.src, as_source=True)
        dst, rank = self._bag_for(path, level, coupling.dst, as_source=False)
        return src, dst, rank

    def _bag_for(self, path: tuple[str, ...], level: ModelGraph, ref,
                 as_source: bool) -> tuple[list, int | None]:
        """The bag one end of a coupling reads or fills, and the rank of its
        atomic (None for a boundary bag)."""
        if ref.component == level.name:
            side = "in" if ref.direction == INPUT else "out"
            return self._boundary[(path, ref.port, side)], None
        if ref.component in level.atomics:
            rank = self._ranks[self._rename[path + (ref.component,)]]
            model = self._sim_list[rank].model
            bags = model.output_bags if as_source else model.input_bags
            return bags[ref.port], rank
        side = "out" if as_source else "in"
        return self._boundary[(path + (ref.component,), ref.port, side)], None

    def _propagate(self) -> set[int]:
        """Apply every hop in order, count what no hop reads and empty the
        boundary bags; returns the ranks of the simulators that received
        values."""
        influenced = set()
        for src, dst, rank in self._routes:
            if src:
                dst.extend(src)
                if rank is not None:
                    influenced.add(rank)
        for bag in self._dangling:
            self.dropped_events += len(bag)
        for bag in self._transit:
            bag.clear()
        return influenced
