"""Benchmark family: structure counts, transition bodies, delay engine,
distributions, and the independent cascade oracle for LI/HI/HO."""

import math
import os
import random
import threading
import time
from collections import Counter as TallyCounter
from collections import defaultdict

import pytest

from pdevsim import (Counters, ModelError, SequentialCoordinator, atomic_spec,
                     busy_cpu, create_behavior, flatten, validate)
from pdevsim.devstone import (DelayDistribution, DevstoneConfig,
                              benchmark_atomic_names, delay_map,
                              expected_counts, generate, sample_delays)


# -- independent oracle -------------------------------------------------------------
#
# A wave simulation over the flattened coupling lists using only the
# benchmark-atomic rules (store arrivals, re-emit the store once per
# schedule). It shares no code with the kernel and serves as the expected
# value for transition counters of any shape.

def cascade_oracle(graph):
    flat = flatten(graph)
    routes = defaultdict(list)
    seeded = []
    for coupling in flat.couplings:
        src, dst = coupling.src.component, coupling.dst.component
        if flat.atomics[src].model == "generator":
            seeded.append(dst)
        else:
            routes[src].append(dst)
    store = defaultdict(list)
    scheduled = set()
    incoming = {name: [0] for name in seeded}
    ints = exts = events = 0
    while incoming or scheduled:
        emissions = {name: list(store[name]) for name in scheduled}
        new_incoming = defaultdict(list)
        for src, values in emissions.items():
            for dst in routes.get(src, ()):
                new_incoming[dst].extend(values)
        for name in set(incoming) | set(scheduled):
            has_input = bool(incoming.get(name))
            if name in scheduled and not has_input:
                ints += 1
                store[name] = []
                scheduled.discard(name)
            elif has_input and name not in scheduled:
                exts += 1
                events += len(incoming[name])
                store[name].extend(incoming[name])
                scheduled.add(name)
            elif has_input:
                ints += 1
                store[name] = []
                exts += 1
                events += len(incoming[name])
                store[name].extend(incoming[name])
        incoming = dict(new_incoming)
    return ints, exts, events


@pytest.mark.parametrize("shape", ["LI", "HI", "HO"])
@pytest.mark.parametrize("width,depth", [(2, 1), (3, 3), (4, 2), (5, 4), (6, 3)])
def test_counters_match_cascade_oracle(shape, width, depth):
    graph = generate(DevstoneConfig(shape, width, depth))
    expected = cascade_oracle(graph)
    report = SequentialCoordinator(graph).simulate()
    assert report.counter_triple() == expected


def test_ho_oracle_agrees_with_closed_forms():
    for width, depth in [(3, 3), (5, 5), (8, 4), (10, 10)]:
        graph = generate(DevstoneConfig("HO", width, depth))
        exp = expected_counts(width, depth)
        assert cascade_oracle(graph) == (exp.delta_int, exp.delta_ext, exp.events)


# -- structure ---------------------------------------------------------------------


def _coupling_kinds(graph):
    tally = TallyCounter(coupling.kind for coupling in graph.couplings)
    for child in graph.coupleds.values():
        tally.update(_coupling_kinds(child))
    return tally


@pytest.mark.parametrize("width,depth", [(2, 1), (2, 5), (3, 3), (10, 10), (15, 15)])
def test_ho_structure_matches_equations(width, depth):
    graph = generate(DevstoneConfig("HO", width, depth))
    assert validate(graph) == []
    shape = graph.coupleds["C1" if depth > 1 else f"C{depth}"]
    exp = expected_counts(width, depth)
    assert shape.atomic_count() == exp.atomics
    kinds = _coupling_kinds(shape)
    assert kinds["EIC"] == exp.eic
    assert kinds["IC"] == exp.ic
    assert kinds["EOC"] == exp.eoc


def test_generated_models_validate_deeply():
    for shape in ("LI", "HI", "HO"):
        assert validate(generate(DevstoneConfig(shape, 3, 3))) == []
    assert validate(generate(DevstoneConfig("HO", 3, 3)), include_warnings=True) == []


def test_atomic_count_table_squared_models():
    sizes = {w: generate(DevstoneConfig("HO", w, w)).coupleds["C1"].atomic_count()
             for w in range(10, 16)}
    assert sizes == {10: 82, 11: 101, 12: 122, 13: 145, 14: 170, 15: 197}


def test_depth_one_base_case():
    exp = expected_counts(9, 1)
    assert (exp.atomics, exp.eic, exp.ic, exp.eoc) == (1, 1, 0, 1)
    assert exp.delta_int == exp.delta_ext == exp.events == 1


def test_expected_counts_reference_values():
    assert expected_counts(15, 15).atomics == 197
    assert expected_counts(15, 15).delta_int == 1471  # 1 + 14*105
    assert expected_counts(10, 10) == expected_counts(10, 10)
    exp = expected_counts(10, 10)
    assert (exp.atomics, exp.eic, exp.ic, exp.eoc) == (82, 100, 72, 91)
    with pytest.raises(ModelError):
        expected_counts(5, 5, shape="LI")


def test_config_validation():
    with pytest.raises(ModelError):
        DevstoneConfig("HO", 1, 3)
    with pytest.raises(ModelError):
        DevstoneConfig("HO", 3, 0)
    with pytest.raises(ModelError):
        DevstoneConfig("XX", 3, 3)


# -- transition suite ----------------------------------------------------------------


def _fresh_atomic(delay_int=0.0, delay_ext=0.0):
    counters = Counters()
    behavior = create_behavior(
        atomic_spec("a", "devstone", delay_int, delay_ext), counters)
    behavior.initialize()
    return behavior, counters


def test_devstone_external_transition_body():
    atomic, counters = _fresh_atomic()
    atomic.input_bags["in"].append(7)
    atomic.delta_ext(0.0)
    assert atomic.event_list == [7]
    assert atomic.sigma == 0.0 and atomic.phase == "active"
    assert counters.triple() == (0, 1, 1)


def test_devstone_internal_transition_body():
    atomic, counters = _fresh_atomic()
    atomic.event_list = [7]
    atomic.delta_int()
    assert atomic.event_list == [] and math.isinf(atomic.sigma)
    assert counters.triple() == (1, 0, 0)


def test_devstone_confluent_is_internal_then_external():
    atomic, counters = _fresh_atomic()
    atomic.event_list = ["a"]
    atomic.input_bags["in"].append("b")
    atomic.delta_con()
    assert atomic.event_list == ["b"]
    assert counters.triple() == (1, 1, 1)


def test_devstone_lambda_emits_whole_list():
    atomic, _ = _fresh_atomic()
    atomic.event_list = [1, 2, 3]
    atomic.output()
    assert atomic.output_bags["out"] == [1, 2, 3]


def test_devstone_ta_returns_sigma_unchanged():
    atomic, _ = _fresh_atomic()
    atomic.hold_in("active", 0.25)
    assert atomic.time_advance() == 0.25
    assert atomic.time_advance() == 0.25


# -- delay engine ----------------------------------------------------------------------


def test_busy_zero_returns_immediately():
    started = time.perf_counter()
    busy_cpu(0.0)
    busy_cpu(-1.0)
    assert time.perf_counter() - started < 0.01


def test_busy_consumes_cpu_not_less():
    before = time.process_time()
    busy_cpu(0.05)
    consumed = time.process_time() - before
    assert consumed >= 0.05 - 1e-9  # float-representation slack only
    # one scheduler tick of slack on coarse-clock kernels
    assert consumed <= 0.05 + 0.011


@pytest.mark.skipif(time.get_clock_info("thread_time").resolution > 1e-6,
                    reason="thread CPU clock coarser than 1 us")
def test_busy_overshoots_by_microseconds():
    # The clock is read after every checksum and the tail is sized to the
    # budget left, so a call stops a few microseconds past its budget, not
    # a batch of checksums (over 100 us) past it.
    budget_ns = 2_000_000
    overshoot_ns = []
    for _ in range(50):
        started = time.thread_time_ns()
        busy_cpu(budget_ns / 1e9)
        overshoot_ns.append(time.thread_time_ns() - started - budget_ns)
    assert min(overshoot_ns) >= 0
    overshoot_ns.sort()
    median_us = (overshoot_ns[24] + overshoot_ns[25]) / 2e3
    assert median_us <= 30, f"median overshoot {median_us:.1f} us"


def test_busy_runs_concurrently_across_threads():
    # Two threads burning half a second each must overlap; a serialized
    # (lock-bound) loop would need ~1 s of wall time. The generous bound
    # absorbs this host's virtualization overhead.
    threads = [threading.Thread(target=busy_cpu, args=(0.5,)) for _ in range(2)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    assert wall < 0.85, f"threads serialized: {wall:.3f}s for 2 x 0.5 CPU-s"


# -- distributions ---------------------------------------------------------------------


def test_sample_delays_deterministic_and_ordered():
    dist = DelayDistribution.uniform(3.0)
    names = [f"a{i}" for i in range(50)]
    one = sample_delays(dist, names, seed=11)
    two = sample_delays(dist, names, seed=11)
    other = sample_delays(dist, names, seed=12)
    assert one == two
    assert one != other
    assert all(0.0 <= v <= 3.0 for v in one.values())


def test_constant_distribution_assigns_k_everywhere():
    config = DevstoneConfig("HO", 15, 15, DelayDistribution.constant(2.0), seed=3)
    delays = sample_delays(config.delay, benchmark_atomic_names(config), config.seed)
    assert len(delays) == 197
    assert set(delays.values()) == {2.0}


def test_uniform_mean_near_half_k():
    dist = DelayDistribution.uniform(3.0)
    values = sample_delays(dist, [str(i) for i in range(20000)], seed=5).values()
    mean = sum(values) / len(values)
    assert abs(mean - 1.5) < 0.05


def test_chi_square_mean_and_support():
    dist = DelayDistribution.chi_square()
    values = list(sample_delays(dist, [str(i) for i in range(100000)], seed=9).values())
    assert all(v >= 0.0 for v in values)
    mean = sum(values) / len(values)
    assert 1.96 <= mean <= 2.04


def test_generated_graph_embeds_sampled_delays():
    config = DevstoneConfig("HO", 4, 3, DelayDistribution.uniform(1.0), seed=21)
    graph = generate(config)
    sampled = sample_delays(config.delay, benchmark_atomic_names(config), config.seed)
    embedded = delay_map(graph)
    for name, value in sampled.items():
        assert embedded[name] == (value, value)
    assert embedded["generator"] == (0.0, 0.0)


def test_cascade_property_per_chain_position():
    # Chain atomic i runs i internal and i external transitions.
    graph = generate(DevstoneConfig("HO", 5, 3))
    report = SequentialCoordinator(graph, trace=True).simulate()
    for level in (1, 2):
        for position in range(1, 5):
            entries = report.traces[f"A{position}_{level}"]
            kinds = TallyCounter(entry.kind for entry in entries)
            ints = kinds["int"] + kinds["con"]
            exts = kinds["ext"] + kinds["con"]
            assert (ints, exts) == (position, position)
