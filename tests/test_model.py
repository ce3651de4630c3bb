"""Modeling layer: construction, coupling classification, validation,
flattening."""

import gc
import random

import pytest

from pdevsim import (EIC, EOC, IC, AtomicSpec, DevstoneConfig, ModelError,
                     ModelGraph, ParallelCoordinator, PoolPlan, PortRef,
                     SequentialCoordinator, atomic_spec, build_efp, build_gpt,
                     check_event_value, flatten, generate, validate)
from pdevsim import model
from pdevsim.model import Coupling


def test_add_component_and_duplicate_rejection():
    graph = ModelGraph("gpt")
    graph.add_component(atomic_spec("processor", "processor"))
    assert list(graph.atomics) == ["processor"]
    with pytest.raises(ModelError, match="processor"):
        graph.add_component(atomic_spec("processor", "processor"))


def test_two_level_hierarchy_construction():
    ef = ModelGraph("ef", input_ports=("in",), output_ports=("out",))
    ef.add_component(atomic_spec("generator", "generator"))
    ef.add_component(atomic_spec("transducer", "transducer"))
    efp = ModelGraph("efp")
    efp.add_component(ef)
    efp.add_component(atomic_spec("processor", "processor"))
    assert efp.atomic_count() == 3
    assert list(efp.coupleds) == ["ef"]


def test_coupling_classification():
    efp = build_efp()
    kinds = {(c.src.component, c.src.port, c.dst.component, c.dst.port): c.kind
             for c in efp.coupleds["ef"].couplings + efp.couplings}
    assert kinds[("generator", "out", "ef", "out")] == EOC
    assert kinds[("generator", "out", "transducer", "arrived")] == IC
    assert kinds[("ef", "in", "transducer", "solved")] == EIC
    assert kinds[("ef", "out", "processor", "in")] == IC
    assert kinds[("processor", "out", "ef", "in")] == IC


def test_connect_and_couple_make_equal_records():
    """connect ends each coupling at the graph's one PortRef for that port;
    its couplings equal, and hash as, those that couple makes from fresh
    PortRefs. Both records stay immutable and equal only their own type,
    and a PortRef refuses a bad direction."""
    by_name, by_ref = build_gpt(), ModelGraph("efp")
    for child in by_name.components():
        by_ref.add_component(child)
    for coupling in by_name.couplings:
        src, dst = coupling.src, coupling.dst
        by_ref.couple(PortRef(src.component, src.port, src.direction),
                      PortRef(dst.component, dst.port, dst.direction))
    assert by_ref.couplings == by_name.couplings
    assert [hash(c) for c in by_ref.couplings] == [hash(c) for c in by_name.couplings]
    assert by_ref.structural_hash() == by_name.structural_hash()
    first, second = by_name.couplings[:2]
    assert first.src is second.src and first.src is not by_ref.couplings[0].src
    assert first.src != tuple(first.src) and tuple(first.src) != first.src
    assert first != tuple(first) and first != first.src
    for record, field in ((first, "kind"), (first.src, "port"), (first, "extra")):
        with pytest.raises(AttributeError):
            setattr(record, field, "x")
    with pytest.raises(ModelError, match="^bad port direction 'sideways'$"):
        PortRef("processor", "in", "sideways")


def test_couple_errors():
    graph = ModelGraph("m", input_ports=("in",))
    graph.add_component(atomic_spec("a", "devstone"))
    graph.add_component(atomic_spec("b", "devstone"))
    with pytest.raises(ModelError, match="no output port"):
        graph.connect("a", "nope", "b", "in")
    with pytest.raises(ModelError, match="no component"):
        graph.connect("ghost", "out", "b", "in")
    # input-to-input between two children is an illegal pattern
    with pytest.raises(ModelError):
        graph.couple(PortRef("a", "in", "input"), PortRef("b", "in", "input"))


def test_self_loop_is_legal_ic():
    graph = ModelGraph("m")
    graph.add_component(atomic_spec("a", "devstone"))
    graph.connect("a", "out", "a", "in")
    assert graph.couplings[0].kind == IC
    assert validate(graph) == []
    warnings = validate(graph, include_warnings=True)
    assert any(v.severity == "warning" and "cycle" in v.message for v in warnings)


def test_validate_clean_and_broken():
    assert validate(build_gpt()) == []
    broken = build_gpt()
    bad = PortRef("processor", "missing", "output")
    broken.couplings.append(type(broken.couplings[0])(bad, PortRef("transducer", "solved", "input"), IC))
    violations = validate(broken)
    assert len(violations) == 1 and violations[0].severity == "error"


def test_freeze_blocks_mutation():
    graph = build_gpt()
    graph.freeze()
    with pytest.raises(ModelError, match="frozen"):
        graph.add_component(atomic_spec("x", "devstone"))
    with pytest.raises(ModelError, match="frozen"):
        graph.connect("generator", "out", "processor", "in")


def test_freeze_refuses_an_invalid_graph_and_leaves_it_mutable(monkeypatch):
    """freeze() raises the first violation and freezes nothing, so the
    graph can still be mended; once mended it freezes, and a frozen graph
    validates without being walked."""
    root = build_efp()
    inner = root.coupleds["ef"]
    good = list(inner.couplings)
    inner.couplings.append(Coupling(PortRef("generator", "missing", "output"),
                                    PortRef("transducer", "arrived", "input"), IC))
    message = validate(root)[0].message
    with pytest.raises(ModelError) as caught:
        root.freeze()
    assert str(caught.value) == message
    assert not root.frozen and not inner.frozen and isinstance(inner.couplings, list)
    inner.couplings[:] = good
    assert root.freeze() is root and root.frozen and inner.frozen
    monkeypatch.setattr(model, "_validate_levels", None)  # a walk would raise
    assert validate(root) == [] and root.freeze() is root


def test_flatten_efp_equals_gpt():
    flat = flatten(build_efp())
    gpt = build_gpt()
    assert flat.structurally_equal(gpt)
    routes = [(c.src.component, c.src.port, c.dst.component, c.dst.port)
              for c in flat.couplings]
    assert routes == [
        ("generator", "out", "processor", "in"),
        ("generator", "out", "transducer", "arrived"),
        ("processor", "out", "transducer", "solved"),
    ]


def test_flatten_already_flat_is_identity():
    gpt = build_gpt()
    again = flatten(gpt)
    assert again is gpt and gpt.frozen


def test_flatten_rejects_invalid_graph():
    broken = build_efp()
    bad_ref = PortRef("processor", "missing", "output")
    broken.couplings.append(
        type(broken.couplings[0])(bad_ref, PortRef("ef", "in", "input"), IC))
    with pytest.raises(ModelError):
        flatten(broken)


def test_flatten_qualifies_colliding_leaf_names():
    inner_a = ModelGraph("box_a", input_ports=("in",))
    inner_a.add_component(atomic_spec("leaf", "collector"))
    inner_a.connect("box_a", "in", "leaf", "in")
    inner_b = ModelGraph("box_b")
    inner_b.add_component(atomic_spec("leaf", "emit_once"))
    root = ModelGraph("root")
    root.add_component(inner_a)
    root.add_component(inner_b)
    flat = flatten(root)
    assert sorted(flat.atomics) == ["box_a.leaf", "box_b.leaf"]


def _random_nested(rng: random.Random, depth: int, counter: list) -> ModelGraph:
    graph = ModelGraph(f"c{counter[0]}", input_ports=("in",), output_ports=("out",))
    counter[0] += 1
    members = []
    for _ in range(rng.randint(1, 3)):
        spec = atomic_spec(f"a{counter[0]}", "devstone")
        counter[0] += 1
        graph.add_component(spec)
        members.append((spec.name, ("in",), ("out",)))
    if depth < 2:
        for _ in range(rng.randint(0, 2)):
            child = _random_nested(rng, depth + 1, counter)
            graph.add_component(child)
            members.append((child.name, child.input_ports, child.output_ports))
    for name, inputs, _ in members:
        if inputs and rng.random() < 0.8:
            graph.connect(graph.name, "in", name, inputs[0])
    for src_name, _, src_out in members:
        if not src_out:
            continue
        for dst_name, dst_in, _ in members:
            if dst_in and rng.random() < 0.3:
                graph.connect(src_name, src_out[0], dst_name, dst_in[0])
    outs = [m for m in members if m[2]]
    if outs:
        pick = rng.choice(outs)
        graph.connect(pick[0], pick[2][0], graph.name, "out")
    return graph


def test_flatten_idempotence_on_random_nested_graphs():
    for seed in range(20):
        rng = random.Random(seed)
        graph = _random_nested(rng, 0, [0])
        assert validate(graph) == []
        once = flatten(graph)
        twice = flatten(once)
        assert once.structurally_equal(twice), f"seed {seed}"
        assert once.atomic_count() == graph.atomic_count()


def test_structural_hash_reclassification_stability():
    graph = build_efp()
    level = graph.coupleds["ef"]
    for coupling in level.couplings:
        assert level.classify(coupling.src, coupling.dst) == coupling.kind
    for coupling in graph.couplings:
        assert graph.classify(coupling.src, coupling.dst) == coupling.kind


def test_event_value_contract():
    check_event_value(5)
    check_event_value(2.5)
    check_event_value("text")
    check_event_value([1, [2.0, "x"], []])
    for bad in (True, float("nan"), float("inf"), {"a": 1}, (1, 2), b"bytes"):
        with pytest.raises(ModelError):
            check_event_value(bad)


def test_atomic_spec_duplicate_ports_rejected():
    with pytest.raises(ModelError):
        AtomicSpec("a", "devstone", input_ports=("in", "in"))


# sha256 of the flat forms as flatten() made them when it passed every
# route through couple(); a change of atomic order, route order or kind
# changes them.
FLAT_HASHES = {
    "LI": "8f191dcbf316e39c9b40b12a57c6ce4f45f5b7d5393e960485ef05366d2b3322",
    "HI": "80b60704566dc7aaf3d03046d94a8b29931ee1d6b6c43115cfd75c12ec5806e6",
    "HO": "05d4c9fa125e2d9f02f3d6cf4fa89bfdc79d5f537065cb2542bffac594c25d4b",
    "efp": "cdefeab652f1aa0ae27876ddda7c0b003ce4b59cc90407215e41d81280970d19",
}


@pytest.mark.parametrize("name", sorted(FLAT_HASHES))
def test_flat_form_is_pinned(name):
    graph = build_efp() if name == "efp" else generate(DevstoneConfig(name, 4, 3))
    flat = flatten(graph)
    assert flat.structural_hash() == FLAT_HASHES[name]
    for coupling in flat.couplings:
        assert coupling.kind == flat.classify(coupling.src, coupling.dst)
    assert validate(flat) == []


def test_pass_through_via_coupled_child_rejected():
    """No route may run from a root input to a root output without an
    atomic: coupling one through a child is refused, and a graph that got
    one anyway cannot be flattened."""
    inner = ModelGraph("inner", input_ports=("in",), output_ports=("out",))
    inner.add_component(atomic_spec("a", "devstone"))
    with pytest.raises(ModelError, match="boundary to boundary"):
        inner.connect("inner", "in", "inner", "out")
    root = ModelGraph("root", input_ports=("in",), output_ports=("out",))
    root.add_component(inner)
    root.connect("root", "in", "inner", "in")
    root.connect("inner", "out", "root", "out")
    inner.couplings.append(Coupling(PortRef("inner", "in", "input"),
                                    PortRef("inner", "out", "output"), EIC))
    with pytest.raises(ModelError, match="cannot flatten invalid graph: "
                                         "cannot couple boundary to boundary"):
        flatten(root)
    assert not root.frozen


def test_graph_compiles_once(monkeypatch):
    """Both coordinators and a later flatten share one validation walk and
    one route walk of the graph, and nothing walks the flat form, which is
    valid by construction; the frozen graph refuses new couplings."""
    walks, route_walks = [], []
    walk, routes = model._validate_levels, model._routes

    def counting_walk(graph):
        walks.append(graph)
        return walk(graph)

    def counting_routes(graph, *args):
        route_walks.append(graph)
        return routes(graph, *args)

    monkeypatch.setattr(model, "_validate_levels", counting_walk)
    monkeypatch.setattr(model, "_routes", counting_routes)
    graph = generate(DevstoneConfig("HO", 4, 3))
    sequential = SequentialCoordinator(graph)
    names = list(sequential.simulators)
    with ParallelCoordinator(graph, PoolPlan.single_pool(names, 2)) as parallel:
        assert parallel.exec_graph is sequential.exec_graph
    flat = flatten(graph)
    assert flat is sequential.exec_graph and flat.frozen
    for checked in (graph, flat, graph, flat):
        assert validate(checked) == []
    assert walks == [graph]
    assert route_walks == [graph]
    for frozen in (graph, graph.coupleds["C1"], flat):
        with pytest.raises(AttributeError):
            frozen.couplings.append(frozen.couplings[0])


def test_a_frozen_flat_graph_is_its_own_flat_form():
    """Flattening a flat graph freezes it and returns that graph, which
    keeps no reference to itself."""
    flat = flatten(generate(DevstoneConfig("HO", 3, 3)))
    assert flat.frozen and flatten(flat) is flat and flat._flat is None
    assert SequentialCoordinator(flat).exec_graph is flat


@pytest.mark.parametrize("shape", ["LI", "HI", "HO"])
def test_a_dropped_coordinator_leaves_no_cyclic_garbage(shape):
    """Compiling a hierarchical graph makes no reference cycle: with the
    collector off, a coordinator built on a freshly generated graph, once
    dropped with it, leaves nothing for the collector to find."""
    gc.collect()
    gc.disable()
    try:
        SequentialCoordinator(generate(DevstoneConfig(shape, 5, 5)))
        assert gc.collect() == 0
    finally:
        gc.enable()
