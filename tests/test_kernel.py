"""Sequential kernel: the reference protocol semantics."""

import math

import pytest

from pdevsim import (Counters, ModelGraph, SequentialCoordinator,
                     SimulationError, Simulator, atomic_spec, build_efp,
                     build_gpt, create_behavior)
from pdevsim.devstone import DevstoneConfig, generate

from conftest import fan_out_model


def _coordinator(graph, **kw):
    return SequentialCoordinator(graph, **kw)


def test_initialize_gpt_clock_starts_at_zero(gpt_graph):
    coord = _coordinator(gpt_graph)
    assert coord.clock.t == 0.0
    assert coord.simulators["generator"].tN == 0.0
    assert math.isinf(coord.simulators["processor"].tN)


def test_initialize_all_passive_clock_infinite():
    graph = ModelGraph("idle")
    graph.add_component(atomic_spec("c1", "collector"))
    graph.add_component(atomic_spec("c2", "collector"))
    coord = _coordinator(graph)
    assert math.isinf(coord.clock.t)
    report = coord.simulate()
    assert report.cycles == 0


def test_initialize_ho_clock_at_generator_time():
    coord = _coordinator(generate(DevstoneConfig("HO", 3, 3)))
    assert coord.clock.t == 0.0  # the trigger generator fires immediately


def test_time_advance_is_min_and_pure():
    coord = _coordinator(fan_out_model(senders=2, emit_at=3.0))
    coord.simulators["s1"].tN = 5.0
    assert coord.time_advance() == 3.0
    assert coord.time_advance() == 3.0  # no mutation
    coord.simulators["s0"].tN = math.inf
    coord.simulators["s1"].tN = math.inf
    assert math.isinf(coord.time_advance())


def _step(coord, t):
    """One cycle at ``t`` through the public step; run_deltfcn propagates."""
    coord.clock.t = t
    coord.run_lambda()
    coord.run_deltfcn()


def _inputs(coord, name):
    """What ``name``'s last transition found in its input bags."""
    return dict(coord.simulators[name].trace[-1].inputs)


def test_lambda_fan_out_duplicates_values():
    coord = _coordinator(fan_out_model(senders=1, receivers=2), trace=True)
    _step(coord, coord.time_advance())
    assert _inputs(coord, "r0") == {"in": ("s0",)}
    assert _inputs(coord, "r1") == {"in": ("s0",)}


def test_lambda_fan_in_concatenates_in_coupling_order():
    coord = _coordinator(fan_out_model(senders=2, receivers=1), trace=True)
    _step(coord, coord.time_advance())
    assert _inputs(coord, "r0") == {"in": ("s0", "s1")}


def test_lambda_without_imminent_models_leaves_bags_empty():
    coord = _coordinator(fan_out_model(senders=1, receivers=1, emit_at=4.0), trace=True)
    _step(coord, 1.0)  # before the sender's schedule
    assert coord.simulators["r0"].trace == [] and coord.simulators["s0"].trace == []
    assert coord.simulators["r0"].model.input_empty()
    assert coord.simulators["s0"].model.output_bags["out"] == []


def test_phase_order_and_overrun_are_checked():
    coord = _coordinator(fan_out_model(senders=1, receivers=1, emit_at=4.0))
    coord.clock.t = 4.0
    with pytest.raises(SimulationError, match="without run_lambda"):
        coord.run_deltfcn()
    coord.run_lambda()
    coord.clock.t = 5.0
    with pytest.raises(SimulationError, match="without run_lambda"):
        coord.run_deltfcn()
    with pytest.raises(SimulationError, match="clock overran atomic 's0'"):
        coord.run_lambda()


def _devstone_sim(trace=False):
    counters = Counters()
    behavior = create_behavior(atomic_spec("a", "devstone"), counters)
    sim = Simulator(behavior, trace=trace)
    sim.initialize()
    return sim, counters


def test_deltfcn_internal_on_imminent_empty_bag():
    sim, counters = _devstone_sim()
    behavior = sim.model
    behavior.event_list = [7]
    behavior.hold_in("active", 0.0)
    sim.tN = 0.0
    assert sim.run_delta(0.0) == "int"
    assert behavior.event_list == [] and math.isinf(behavior.sigma)
    assert counters.triple() == (1, 0, 0)


def test_deltfcn_external_with_elapsed_time():
    sim, counters = _devstone_sim()
    sim.tL = 1.0
    sim.tN = math.inf
    sim.model.input_bags["in"].append(9)
    assert sim.run_delta(3.5) == "ext"
    assert sim.model.event_list == [9]
    assert sim.model.phase == "active" and sim.model.sigma == 0.0
    assert (sim.tL, sim.tN) == (3.5, 3.5)
    assert counters.triple() == (0, 1, 1)


def test_deltfcn_confluent_runs_internal_then_external():
    sim, counters = _devstone_sim()
    sim.model.event_list = ["old"]
    sim.model.hold_in("active", 0.0)
    sim.tN = 0.0
    sim.model.input_bags["in"].append("new")
    assert sim.run_delta(0.0) == "con"
    assert sim.model.event_list == ["new"]  # internal cleared, external appended
    assert counters.triple() == (1, 1, 1)


def test_deltfcn_noop_keeps_bookkeeping():
    sim, _ = _devstone_sim()
    sim.tL, sim.tN = 1.0, 5.0
    assert sim.run_delta(3.0) is None
    assert (sim.tL, sim.tN) == (1.0, 5.0)


def test_transition_failure_names_the_atomic():
    class Exploding(Exception):
        pass

    sim, _ = _devstone_sim()
    def boom():
        raise Exploding("nope")
    sim.model.delta_int = boom
    sim.tN = 0.0
    with pytest.raises(SimulationError, match="'a'"):
        sim.run_delta(0.0)


def test_simulate_gpt_matches_hand_execution(gpt_graph):
    report = _coordinator(gpt_graph, trace=True).simulate()
    assert report.cycles == 2
    assert report.trace_text() == (
        'generator|[0.0,"int",[],[["out",[0]]]]\n'
        'processor|[0.0,"ext",[["in",[0]]],[]]\n'
        'processor|[1.0,"int",[],[["out",[0]]]]\n'
        'transducer|[0.0,"ext",[["arrived",[0]]],[]]\n'
        'transducer|[1.0,"ext",[["solved",[0]]],[]]\n'
    )


def test_simulate_zero_iterations_returns_immediately(gpt_graph):
    report = _coordinator(gpt_graph).simulate(max_iterations=0)
    assert report.cycles == 0
    assert report.counter_triple() == (0, 0, 0)


def test_simulate_ho55_counter_closed_form():
    report = _coordinator(generate(DevstoneConfig("HO", 5, 5))).simulate()
    assert report.counter_triple() == (41, 41, 41)  # 1 + 4*10 each


def test_determinism_same_seed_same_everything():
    def run():
        graph = generate(DevstoneConfig("HO", 4, 4, seed=7))
        return _coordinator(graph, trace=True).simulate()
    one, two = run(), run()
    assert one.trace_text() == two.trace_text()
    assert one.counter_triple() == two.counter_triple()
    assert one.cycles == two.cycles


def test_clock_nondecreasing_and_advancing(gpt_graph):
    coord = _coordinator(gpt_graph)
    times = []
    while True:
        tn = coord.time_advance()
        if math.isinf(tn) or len(times) > 50:
            break
        coord.clock.t = tn
        times.append(tn)
        coord.run_lambda()
        coord.run_deltfcn()
    assert times == sorted(times)
    assert times == [0.0, 1.0]


def test_bag_hygiene_between_cycles():
    coord = _coordinator(generate(DevstoneConfig("HO", 3, 3)))
    while True:
        tn = coord.time_advance()
        if math.isinf(tn):
            break
        coord.clock.t = tn
        for sim in coord.simulators.values():
            assert sim.model.input_empty()
            assert not any(sim.model.output_bags.values())
        coord.run_lambda()
        coord.run_deltfcn()


def test_exactly_one_transition_per_cycle(monkeypatch):
    # Count top-level transition dispatches per simulator per cycle through
    # the run_delta seam shared by every backend.
    coord = _coordinator(generate(DevstoneConfig("HO", 3, 3)))
    dispatches: dict[str, list[str]] = {name: [] for name in coord.simulators}
    original = Simulator.run_delta

    def wrapped(self, t):
        kind = original(self, t)
        if kind is not None:
            dispatches[self.name].append(kind)
        return kind

    monkeypatch.setattr(Simulator, "run_delta", wrapped)
    per_cycle_max = []
    while True:
        tn = coord.time_advance()
        if math.isinf(tn):
            break
        coord.clock.t = tn
        before = {n: len(log) for n, log in dispatches.items()}
        coord.run_lambda()
        coord.run_deltfcn()
        deltas = [len(log) - before[n] for n, log in dispatches.items()]
        assert max(deltas) <= 1
        per_cycle_max.append(max(deltas))
    assert per_cycle_max and max(per_cycle_max) == 1
    kinds = {kind for log in dispatches.values() for kind in log}
    assert kinds == {"int", "ext", "con"}  # the cascade exercises all three


def test_coordinator_never_mutates_the_graph(gpt_graph):
    before = gpt_graph.structural_hash()
    _coordinator(gpt_graph, trace=True).simulate()
    assert gpt_graph.structural_hash() == before


def test_closure_under_coupling_efp_vs_gpt():
    hier = _coordinator(build_efp(), flatten_graph=False, trace=True).simulate()
    flat = _coordinator(build_gpt(), trace=True).simulate()
    assert hier.trace_text() == flat.trace_text()
    assert hier.cycles == flat.cycles


def test_hierarchical_vs_flat_ho_traces():
    hier = _coordinator(generate(DevstoneConfig("HO", 4, 4)),
                        flatten_graph=False, trace=True).simulate()
    flat = _coordinator(generate(DevstoneConfig("HO", 4, 4)), trace=True).simulate()
    assert hier.trace_text() == flat.trace_text()
    assert hier.counter_triple() == flat.counter_triple()


def _open_root() -> ModelGraph:
    """An open root whose atomic feeds both an atomic in a coupled sibling
    and the root's own output port."""
    box = ModelGraph("box", input_ports=("in",))
    box.add_component(atomic_spec("r", "collector"))
    box.connect("box", "in", "r", "in")
    root = ModelGraph("open", output_ports=("out",))
    root.add_component(atomic_spec("s", "emit_once"))
    root.add_component(box)
    root.connect("s", "out", "box", "in")
    root.connect("s", "out", "open", "out")
    return root


@pytest.mark.parametrize("name", [f"{shape}({width},{depth})" for shape in ("LI", "HI", "HO")
                                  for width, depth in ((3, 3), (4, 3), (5, 5))]
                         + ["efp", "open"])
def test_flat_and_hierarchical_runs_drop_alike(name):
    """Both modes give the same trace and counters, and count a value as
    dropped once, when it leaves an atomic output from which no coupling
    path reaches an atomic input; a path that ends at a coupled port or at
    the root's output drops nothing more."""

    def build():
        if name == "efp":
            return build_efp()
        if name == "open":
            return _open_root()
        shape, width, depth = name[:2], int(name[3]), int(name[5])
        return generate(DevstoneConfig(shape, width, depth))

    flat = _coordinator(build(), trace=True).simulate()
    hier = _coordinator(build(), flatten_graph=False, trace=True).simulate()
    assert hier.trace_text() == flat.trace_text()
    assert hier.counter_triple() == flat.counter_triple()
    assert hier.diagnostics["dropped_events"] == flat.diagnostics["dropped_events"]


def test_unconnected_port_values_dropped_and_counted():
    graph = ModelGraph("dangling")
    graph.add_component(atomic_spec("s", "emit_once"))
    report = _coordinator(graph).simulate()
    assert report.diagnostics["dropped_events"] == 1


def test_invalid_graph_rejected():
    broken = build_gpt()
    from pdevsim import IC, PortRef
    broken.couplings.append(type(broken.couplings[0])(
        PortRef("processor", "missing", "output"),
        PortRef("transducer", "solved", "input"), IC))
    with pytest.raises(SimulationError, match="invalid graph"):
        _coordinator(broken)
    assert not broken.frozen and isinstance(broken.couplings, list)


def test_csv_row_schema(gpt_graph):
    report = _coordinator(gpt_graph).simulate()
    assert report.CSV_HEADER.split(",") == [
        "model", "backend", "workers/pools", "cycles", "wall_seconds",
        "num_delt_ints", "num_delt_exts", "num_events"]
    row = report.csv_row().split(",")
    assert row[0] == "efp" and row[1] == "sequential"
    assert int(row[3]) == 2
