"""Acceptance criteria.

Each test implements one acceptance criterion at its stated tolerance and
prints one PASS/FAIL line. Criteria whose statement presumes at least four
CPUs (the concurrent-delay wall bound and the 4-worker speedup threshold)
skip with an explicit precondition message on smaller hosts and run at full
strictness elsewhere; scaled companions of those properties live in the
regular test modules and run everywhere.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import contextlib
import math
import os
import random
import statistics
import threading
import time

import pytest

from pdevsim import (PoolPlan, PoolSpec, SequentialCoordinator, build_efp,
                     build_gpt, busy_cpu, flatten, run_coordinator, validate)
from pdevsim.bench import (profile_model, run_distributed_local,
                           run_parallel, run_sequential)
from pdevsim.devstone import (DelayDistribution, DevstoneConfig,
                              expected_counts, generate, sample_delays)
from pdevsim.wire import COMMANDS, WireFrame, decode_frame, encode_frame

from conftest import spread_plan, thread_services
from test_model import _random_nested

CPUS = os.cpu_count() or 1
FOUR_CPU_NOTE = f"criterion precondition 'on a >= 4-CPU machine' unmet (host has {CPUS})"


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except pytest.skip.Exception as exc:
        print(f"\nACCEPTANCE SKIP — {name} ({exc})")
        raise
    except BaseException:
        print(f"\nACCEPTANCE FAIL — {name}")
        raise
    else:
        print(f"\nACCEPTANCE PASS — {name}")


def _names(graph):
    return list(SequentialCoordinator(graph).simulators)


def _two_pool(names, w1, w2):
    half = len(names) // 2
    return PoolPlan((PoolSpec("L1", w1), PoolSpec("L2", w2)),
                    {n: ("L1" if i < half else "L2") for i, n in enumerate(names)})


# -- 1. backend trace equivalence ----------------------------------------------------


def test_backend_trace_equivalence():
    with criterion("backend trace equivalence (HO 3x3/5x5/8x4, delay 0 and 5 ms)"):
        started = time.perf_counter()
        for width, depth in ((3, 3), (5, 5), (8, 4)):
            for delay in (0.0, 0.005):
                config = DevstoneConfig("HO", width, depth,
                                        DelayDistribution.constant(delay), seed=1)
                reference = run_sequential(generate(config), trace=True)
                names = _names(generate(config))
                outcomes = {
                    "parallel-1x4": run_parallel(
                        generate(config), PoolPlan.single_pool(names, 4), trace=True),
                    "parallel-2x2": run_parallel(
                        generate(config), _two_pool(names, 2, 2), trace=True),
                    "distributed-local": run_distributed_local(
                        generate(config), trace=True),
                }
                expected_text = reference.trace_text().encode()
                for label, report in outcomes.items():
                    assert report.counter_triple() == reference.counter_triple(), (
                        f"{label} counters diverge at HO({width},{depth}) delay {delay}")
                    assert report.trace_text().encode() == expected_text, (
                        f"{label} trace diverges at HO({width},{depth}) delay {delay}")
                    assert report.cycles == reference.cycles
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0, f"equivalence sweep took {elapsed:.0f}s"


# -- 2. counter closed forms ------------------------------------------------------------


def test_counter_closed_forms():
    with criterion("counter closed forms (w 2..10, d 1..10, exact)"):
        started = time.perf_counter()
        for width in range(2, 11):
            for depth in range(1, 11):
                report = run_sequential(generate(DevstoneConfig("HO", width, depth)))
                exp = expected_counts(width, depth)
                assert report.counter_triple() == (
                    exp.delta_int, exp.delta_ext, exp.events), (width, depth)
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"closed-form sweep took {elapsed:.0f}s"


# -- 3. atomic-count table ---------------------------------------------------------------


def test_atomic_count_table():
    with criterion("atomic-count table (HO w=10..15 squared)"):
        expected = {10: 82, 11: 101, 12: 122, 13: 145, 14: 170, 15: 197}
        for width, count in expected.items():
            graph = generate(DevstoneConfig("HO", width, width))
            shape = graph.coupleds["C1"]
            assert shape.atomic_count() == count
            assert expected_counts(width, width).atomics == count


# -- 4. CPU-delay contract ---------------------------------------------------------------


def test_cpu_delay_budget():
    with criterion("CPU-delay contract: busy_cpu(0.1) median of 20 in [0.1, 0.11]"):
        samples = []
        for _ in range(20):
            before = time.process_time()
            busy_cpu(0.1)
            samples.append(time.process_time() - before)
        median = statistics.median(samples)
        assert 0.1 - 1e-9 <= median <= 0.11 + 1e-9, f"median {median:.4f}"
        assert min(samples) >= 0.1 - 1e-9


def test_cpu_delay_concurrency():
    with criterion("CPU-delay contract: 4 x busy_cpu(0.5) wall <= 0.65 s"):
        if CPUS < 4:
            pytest.skip(FOUR_CPU_NOTE)
        threads = [threading.Thread(target=busy_cpu, args=(0.5,)) for _ in range(4)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        assert wall <= 0.65, f"wall {wall:.3f}s"


# -- 5. desk-scale parallel speedup -----------------------------------------------------


@pytest.fixture(scope="module")
def ho88_walls():
    config = DevstoneConfig("HO", 8, 8, DelayDistribution.constant(0.02), seed=1)
    names = _names(generate(config))
    baseline = run_sequential(generate(config)).wall_seconds
    single = run_parallel(generate(config),
                          PoolPlan.single_pool(names, 4)).wall_seconds
    double = run_parallel(generate(config), _two_pool(names, 2, 2)).wall_seconds
    return {"baseline": baseline, "single": single, "double": double}


def test_parallel_speedup_threshold(ho88_walls):
    with criterion("desk-scale speedup: balanced 4-worker pool >= 2.5x"):
        baseline = ho88_walls["baseline"]
        assert 4.0 <= baseline <= 16.0, f"baseline off scale: {baseline:.1f}s"
        if CPUS < 4:
            pytest.skip(FOUR_CPU_NOTE +
                        f"; measured speedup {baseline / ho88_walls['single']:.2f}x")
        speedup = baseline / ho88_walls["single"]
        assert speedup >= 2.5, f"speedup {speedup:.2f}"


def test_pool_order_barrier_cost(ho88_walls):
    with criterion("desk-scale speedup: 2-pool 2x2 slower than or equal to single pool"):
        if CPUS < 4:
            # With fewer cores than workers the 4-worker pool oversubscribes
            # while 2x2 fits, which inverts the contrast the criterion
            # derives from CPU-backed workers. The scaled companion in
            # test_parallel.py demonstrates the pool-sequencing cost here.
            pytest.skip(FOUR_CPU_NOTE +
                        f"; measured single {ho88_walls['single']:.2f}s, "
                        f"2-pool {ho88_walls['double']:.2f}s")
        assert ho88_walls["double"] >= ho88_walls["single"] * 0.95, (
            f"2-pool {ho88_walls['double']:.2f}s vs single {ho88_walls['single']:.2f}s")


# -- 6. two-level monotonicity ------------------------------------------------------------


def test_two_level_monotonicity():
    # Each figure is the median of three runs, so that a moment of load
    # on a shared host does not decide the comparison.
    with criterion("two-level allocation: L1 workers 1->2->4 non-increasing (10% noise)"):
        config = DevstoneConfig("HO", 8, 8, DelayDistribution.constant(0.005), seed=1)
        profiles = profile_model(generate(config))
        from pdevsim.bench import allocate_two_level, two_level_pool_plan
        walls = []
        for l1_workers in (1, 2, 4):
            alloc = allocate_two_level(profiles, generate(config),
                                       fraction=0.25, n=l1_workers, m=1)
            plan = two_level_pool_plan(alloc)
            walls.append(statistics.median(
                run_parallel(generate(config), plan).wall_seconds for _ in range(3)))
        for slower, faster in zip(walls, walls[1:]):
            assert faster <= slower * 1.10, f"walls {walls}"


# -- 7. distributed protocol properties ------------------------------------------------------


def _random_frame(rng: random.Random) -> WireFrame:
    def value(depth=0):
        kind = rng.randrange(4 if depth < 2 else 3)
        if kind == 0:
            return rng.randrange(-2**40, 2**40)
        if kind == 1:
            return rng.uniform(-1e9, 1e9)
        if kind == 2:
            return "".join(rng.choice("abcXYZ09_π") for _ in range(rng.randrange(8)))
        return [value(depth + 1) for _ in range(rng.randrange(3))]

    time_choice = rng.randrange(3)
    return WireFrame(
        command=rng.choice(sorted(COMMANDS)),
        sender=f"atom{rng.randrange(100)}" if rng.random() < 0.8 else "",
        port=f"p{rng.randrange(10)}" if rng.random() < 0.5 else "",
        values=tuple(value() for _ in range(rng.randrange(5))),
        time=(None, rng.uniform(0, 1e6), math.inf)[time_choice],
    )


def test_distributed_protocol_properties():
    with criterion("distributed protocol: 1000-frame round-trip, no relay, "
                   "HO(5,5) counters 41/41/41 under 60 s"):
        rng = random.Random(20210810)
        for _ in range(1000):
            frame = _random_frame(rng)
            assert decode_frame(encode_frame(frame)[4:]) == frame

        plan = spread_plan(build_gpt())
        with thread_services(plan):
            gpt_report = run_coordinator(plan)
        sent = gpt_report.diagnostics["frames_sent"]
        received = gpt_report.diagnostics["frames_received"]
        assert sent.get("PROPAGATE", 0) == 0
        assert received.get("PROPAGATE", 0) == 0

        started = time.perf_counter()
        report = run_distributed_local(generate(DevstoneConfig("HO", 5, 5)))
        elapsed = time.perf_counter() - started
        assert report.counter_triple() == (41, 41, 41)
        assert elapsed < 60.0, f"distributed HO(5,5) took {elapsed:.0f}s"


# -- 8. chi-square sampler --------------------------------------------------------------------


def test_chi_square_sampler():
    with criterion("chi-square(2) sampler: 1e5 samples, mean in [1.96, 2.04], all >= 0"):
        names = [str(i) for i in range(100000)]
        values = list(sample_delays(DelayDistribution.chi_square(), names,
                                    seed=20250810).values())
        assert all(v >= 0.0 for v in values)
        mean = sum(values) / len(values)
        assert 1.96 <= mean <= 2.04, f"mean {mean:.4f}"


# -- 9. flattening ------------------------------------------------------------------------------


def test_flattening_equivalence_and_idempotence():
    with criterion("flattening: EF-P vs GPT identical traces; idempotence x20"):
        hier = SequentialCoordinator(build_efp(), flatten_graph=False,
                                     trace=True).simulate()
        flat = SequentialCoordinator(build_gpt(), trace=True).simulate()
        assert hier.trace_text() == flat.trace_text()
        assert flatten(build_efp()).structurally_equal(build_gpt())
        for seed in range(20):
            graph = _random_nested(random.Random(seed), 0, [0])
            assert validate(graph) == []
            once = flatten(graph)
            assert flatten(once).structurally_equal(once), f"seed {seed}"


# -- 10. profile staircase ------------------------------------------------------------------------


def test_profile_staircase():
    with criterion("profile staircase: HO(8,8) at 10 ms, top seven near 0.14 s "
                   "and t(A_i) ~ i/7 of t(A_7), both within 20%"):
        config = DevstoneConfig("HO", 8, 8, DelayDistribution.constant(0.01), seed=1)
        profiles = profile_model(generate(config))
        nominal_top = 2 * 7 * 0.01
        for profile in profiles[:7]:
            assert abs(profile.total - nominal_top) <= 0.2 * nominal_top, (
                f"{profile.name}: {profile.total:.3f}s")
        by_position: dict[int, list[float]] = {}
        for profile in profiles:
            if profile.name.startswith("A") and "_" in profile.name:
                position = int(profile.name[1:].split("_")[0])
                by_position.setdefault(position, []).append(profile.total)
        t7 = statistics.mean(by_position[7])
        for position in range(1, 8):
            observed = statistics.mean(by_position[position])
            expected = position / 7 * t7
            assert abs(observed - expected) <= 0.2 * expected + 0.005, (
                f"position {position}: {observed:.3f} vs {expected:.3f}")
