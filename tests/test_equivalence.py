"""Backend equivalence on random flat DAGs and on random graphs with
cycles: sequential, pool 1x2, in-process thread services split at random
into 1-3 groups, and distributed-local service processes must agree on the
trace, the counter triple and the dropped-event count."""

from hypothesis import given, settings
from hypothesis import strategies as st

from pdevsim import (ModelGraph, ParallelCoordinator, PoolPlan,
                     SequentialCoordinator, atomic_spec, run_coordinator,
                     serve_simulators)
from pdevsim.bench import run_distributed_local

from conftest import grouped_plan

# Emission times of the EmitOnce sources: ties and distinct times.
_EMIT_TIMES = (0.0, 0.0, 0.5, 1.0)
_KINDS = ("emit_once", "devstone", "collector")
# Processor service times: zero twice as often, so cycles through
# zero-delay processors make zero-time chains of any length.
_SERVICE_TIMES = (0.0, 0.0, 0.25, 1.0)
# Cycles with zero-time loops never end on their own.
_CYCLIC_ITERATIONS = 30


def _deal_groups(draw, size):
    """The process group of each of ``size`` atomics: 1-3 groups, none of
    them empty."""
    groups = draw(st.sampled_from((2, 3, 1)))
    dealt = draw(st.permutations(range(size)))
    return [dealt.index(index) % groups for index in range(size)]


@st.composite
def dags(draw):
    """A closed flat DAG: EmitOnce sources, devstone relays (which count)
    and collectors. Every non-source gets one or more earlier senders, so
    ports see fan-in; senders whose output nobody takes drop events."""
    size = draw(st.integers(3, 8))
    sources = draw(st.integers(1, min(3, size - 1)))
    graph = ModelGraph("dag")
    senders = []
    for index in range(size):
        name = f"n{index}"
        if index < sources:
            kind = "emit_once"
        else:
            kind = draw(st.sampled_from(_KINDS[1:]))
        delay = draw(st.sampled_from(_EMIT_TIMES)) if kind == "emit_once" else 0.0
        graph.add_component(atomic_spec(name, kind, delay_int=delay))
        if index >= sources:
            fan_in = draw(st.lists(st.sampled_from(senders), min_size=1,
                                   max_size=len(senders), unique=True))
            for sender in fan_in:
                graph.connect(sender, "out", name, "in")
        if kind != "collector":
            senders.append(name)
    return graph, _deal_groups(draw, size)


@st.composite
def cyclic_graphs(draw):
    """EmitOnce sources feeding a chain of processors, plus back edges from
    later processors to earlier ones (at least one, so there is a cycle)
    and devstone sinks that count what some processors emit. A processor
    holds one job and drops arrivals while busy, so bags stay bounded
    however long the cycles run."""
    sources = draw(st.integers(1, 2))
    processors = draw(st.integers(2, 5))
    graph = ModelGraph("cyclic")
    senders = []
    for index in range(sources):
        graph.add_component(atomic_spec(f"s{index}", "emit_once",
                                        delay_int=draw(st.sampled_from(_EMIT_TIMES))))
        senders.append(f"s{index}")
    for index in range(processors):
        name = f"p{index}"
        graph.add_component(atomic_spec(name, "processor",
                                        delay_int=draw(st.sampled_from(_SERVICE_TIMES))))
        fan_in = draw(st.lists(st.sampled_from(senders), min_size=1, max_size=2,
                               unique=True))
        for sender in fan_in:
            graph.connect(sender, "out", name, "in")
        senders.append(name)
    back = draw(st.lists(st.tuples(st.integers(1, processors - 1),
                                   st.integers(0, processors - 1))
                         .filter(lambda edge: edge[1] < edge[0]),
                         min_size=1, max_size=3, unique=True))
    for src, dst in back:
        graph.connect(f"p{src}", "out", f"p{dst}", "in")
    for index in range(draw(st.integers(0, 2))):
        graph.add_component(atomic_spec(f"d{index}", "devstone"))
        graph.connect(f"p{draw(st.integers(0, processors - 1))}", "out",
                      f"d{index}", "in")
    return graph, _deal_groups(draw, len(graph.atomics))


def _blocks(graph, group_of):
    blocks = {}
    for name, group in zip(graph.atomics, group_of):
        blocks.setdefault(group, []).append(name)
    return list(blocks.values())


def _distributed(graph, group_of, iterations=None):
    blocks = _blocks(graph, group_of)
    plan = grouped_plan(graph, blocks)
    started = []
    try:
        for block in blocks:
            started.extend(serve_simulators(plan, block))
        return run_coordinator(plan, iterations, trace=True)
    finally:
        for group in started:
            group.stop()


def _distributed_local(graph, group_of, iterations=None):
    """distributed-local over a plan that co-hosts the atomics of each
    drawn group, so that the groups' links cut edges of the graph in both
    directions."""
    return run_distributed_local(grouped_plan(graph, _blocks(graph, group_of)),
                                 iterations=iterations, trace=True)


def _observed(report):
    return (report.trace_text(), report.counter_triple(),
            report.diagnostics["dropped_events"])


@given(dags())
@settings(max_examples=50)
def test_backends_agree_on_random_dags(case):
    graph, group_of = case
    oracle = _observed(SequentialCoordinator(graph, trace=True).simulate())
    names = list(graph.atomics)
    with ParallelCoordinator(graph, PoolPlan.single_pool(names, 2),
                             trace=True) as pool:
        assert _observed(pool.simulate()) == oracle
    assert _observed(_distributed(graph, group_of)) == oracle


@given(dags())
@settings(max_examples=8)
def test_distributed_local_agrees_on_random_dags(case):
    """Real service processes: each DELTFCN waits for the batches of the
    senders it names before it fills the input bags."""
    graph, group_of = case
    oracle = _observed(SequentialCoordinator(graph, trace=True).simulate())
    assert _observed(_distributed_local(graph, group_of)) == oracle


@given(cyclic_graphs())
@settings(max_examples=10)
def test_backends_agree_on_random_graphs_with_cycles(case):
    """Every backend runs the same fixed number of cycles; zero-delay
    cycles keep virtual time still for most of them."""
    graph, group_of = case
    cycles = _CYCLIC_ITERATIONS
    oracle = _observed(SequentialCoordinator(graph, trace=True).simulate(cycles))
    names = list(graph.atomics)
    with ParallelCoordinator(graph, PoolPlan.single_pool(names, 2),
                             trace=True) as pool:
        assert _observed(pool.simulate(cycles)) == oracle
    assert _observed(_distributed(graph, group_of, cycles)) == oracle
    assert _observed(_distributed_local(graph, group_of, cycles)) == oracle
