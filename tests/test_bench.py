"""Harness: profiling, allocation math, runners, speedup reports."""

import math
import os
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdevsim import RunReport, SequentialCoordinator, SimulationError, flatten, model
from pdevsim.bench import (Allocation2Level, AtomicProfile, BenchError,
                           allocate_two_level, append_report_row,
                           plot_data_csv, profile_model, profiles_from_csv,
                           profiles_to_csv, read_report_rows,
                           run_distributed_local, run_parallel, run_plan,
                           run_sequential, speedup_rows, speedups_to_csv,
                           two_level_pool_plan)
from pdevsim.devstone import DelayDistribution, DevstoneConfig, generate
from pdevsim.planfile import (emit_distributed_plan_xml, emit_plan_xml,
                              parse_plan_xml)

from conftest import blocks_of, free_ports, grouped_plan, open_fds


def _recorded_forks(monkeypatch) -> list[int]:
    """The pids of the processes that ``os.fork`` forks from now on."""
    spawned = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            spawned.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return spawned


def _two_block_plan(graph):
    """Loopback plan that co-hosts ``graph`` in two contiguous blocks."""
    return grouped_plan(graph, blocks_of(graph, 2))


def _synthetic_profiles(total=197, generator=True):
    profiles = [AtomicProfile(f"A{i:03d}", float(total - i), float(total - i))
                for i in range(total)]
    if generator:
        profiles.append(AtomicProfile("generator", 0.0, 0.0))
    return profiles


def _graph_for(profiles):
    from pdevsim import ModelGraph, atomic_spec
    graph = ModelGraph("synthetic")
    for profile in profiles:
        model = "generator" if profile.name == "generator" else "devstone"
        graph.add_component(atomic_spec(profile.name, model))
    return graph


def test_quarter_fraction_matches_published_split():
    profiles = _synthetic_profiles(197)
    alloc = allocate_two_level(profiles, _graph_for(profiles), fraction=0.25,
                               n=4, m=8)
    assert len(alloc.l1) == 49
    assert len(alloc.l2) == 149  # the rest plus the generator
    assert "generator" in alloc.l2
    assert alloc.l1 == tuple(f"A{i:03d}" for i in range(49))  # slowest first


def test_full_fraction_leaves_generator_in_l2():
    profiles = _synthetic_profiles(10)
    alloc = allocate_two_level(profiles, _graph_for(profiles), fraction=1.0)
    assert len(alloc.l1) == 10
    assert alloc.l2 == ("generator",)


def test_allocation_requires_complete_profile():
    profiles = _synthetic_profiles(5)
    graph = _graph_for(profiles + [AtomicProfile("extra", 1.0, 1.0)])
    with pytest.raises(BenchError, match="extra"):
        allocate_two_level(profiles, graph)


def test_allocation_determinism_with_ties():
    profiles = [AtomicProfile(name, 1.0, 1.0) for name in ("b", "a", "d", "c")]
    graph = _graph_for(profiles)
    one = allocate_two_level(profiles, graph, fraction=0.5)
    two = allocate_two_level(list(reversed(profiles)), graph, fraction=0.5)
    assert one == two
    assert one.l1 == ("a", "b")  # ties break lexicographically


def test_two_level_pool_plan_shape():
    profiles = _synthetic_profiles(8)
    alloc = allocate_two_level(profiles, _graph_for(profiles), 0.25, n=3, m=5)
    plan = two_level_pool_plan(alloc)
    assert [(p.name, p.workers) for p in plan.pools] == [("L1", 3), ("L2", 5)]
    assert set(plan.assignment.values()) == {"L1", "L2"}


def test_profile_csv_roundtrip():
    profiles = _synthetic_profiles(4)
    text = profiles_to_csv(profiles)
    assert profiles_from_csv(text) == sorted(
        profiles, key=lambda p: (-p.total, p.name))
    with pytest.raises(BenchError, match="header"):
        profiles_from_csv("nope\n1,2,3\n")


def test_profile_ranks_slow_atomics_first():
    config = DevstoneConfig("HO", 4, 3, DelayDistribution.constant(0.02), seed=0)
    profiles = profile_model(generate(config))
    assert profiles[0].name.startswith("A3_")  # deepest chain position is slowest
    totals = [p.total for p in profiles]
    assert totals == sorted(totals, reverse=True)
    by_name = {p.name: p for p in profiles}
    top = by_name["A3_1"]
    assert top.total == pytest.approx(2 * 3 * 0.02, rel=0.5)
    assert by_name["generator"].total <= 0.02 + 0.011


def test_profile_zero_delay_is_near_zero():
    profiles = profile_model(generate(DevstoneConfig("HO", 3, 3)))
    # everything within measurement-tick noise of zero
    assert all(p.total <= 0.021 for p in profiles)


def test_run_plan_backend_matching(tmp_path):
    pool_text = emit_plan_xml(generate(DevstoneConfig("HO", 3, 3)), workers=2)
    dist_text = emit_plan_xml(generate(DevstoneConfig("HO", 3, 3)),
                              host="127.0.0.1", base_port=5400)
    pool_plan = parse_plan_xml(pool_text)
    dist_plan = parse_plan_xml(dist_text)
    report = run_plan(pool_plan, "sequential")
    assert report.counter_triple() == (7, 7, 7)
    report = run_plan(pool_plan, "parallel")
    assert report.counter_triple() == (7, 7, 7)
    with pytest.raises(BenchError, match="pool-addressed"):
        run_plan(dist_plan, "parallel")
    with pytest.raises(BenchError, match="endpoint-addressed"):
        run_plan(pool_plan, "distributed-local")
    with pytest.raises(BenchError, match="unknown backend"):
        run_plan(pool_plan, "quantum")


def test_distributed_local_harness_roundtrip():
    report = run_distributed_local(generate(DevstoneConfig("HO", 3, 3)), trace=True)
    sequential = run_sequential(generate(DevstoneConfig("HO", 3, 3)), trace=True)
    assert report.backend == "distributed-local"
    assert report.counter_triple() == sequential.counter_triple()
    assert report.trace_text() == sequential.trace_text()


@pytest.mark.parametrize("given", ["graph", "plan"])
def test_distributed_local_validates_the_plan_once(monkeypatch, given):
    """Making the plan validates its graph once, and neither the launcher
    nor the coordinator walks it again: the flat form that a sequential
    run of the graph already made, or the graph of a plan, which making
    the plan froze. No graph is walked twice."""
    walks = []
    walk = model._validate_levels

    def counting_walk(graph):
        walks.append(graph)
        return walk(graph)

    monkeypatch.setattr(model, "_validate_levels", counting_walk)
    graph = generate(DevstoneConfig("HO", 3, 3))
    if given == "graph":
        sequential = run_sequential(graph)
        walks.clear()
        target = graph
        plan_graph = flatten(graph)
    else:
        sequential = run_sequential(generate(DevstoneConfig("HO", 3, 3)))
        blocks = blocks_of(graph, 2)
        walks.clear()  # from before the plan is made, which checks it
        target = grouped_plan(graph, blocks)
        plan_graph = target.graph
    report = run_distributed_local(target, startup_timeout=30.0)
    assert report.counter_triple() == sequential.counter_triple()
    assert walks.count(plan_graph) == 1
    assert all(walks.count(walked) == 1 for walked in walks)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs CPU affinity")
def test_distributed_local_gives_each_process_its_own_cpus():
    """Process i runs on slice i of the launcher's CPUs; the trace shows
    the CPUs that each atomic's process may run on."""
    from pdevsim import ModelGraph, atomic_spec
    graph = ModelGraph("toy")
    names = [f"a{i}" for i in range(5)]
    for name in names:
        graph.add_component(atomic_spec(name, "affinity"))
    report = run_distributed_local(graph, trace=True)
    allowed = sorted(os.sched_getaffinity(0))
    count = min(len(allowed), len(names))
    shares = []
    for i in range(count):
        block = names[len(names) * i // count:len(names) * (i + 1) // count]
        seen = {tuple(values[0]) for name in block
                for _, values in report.traces[name][0].outputs}
        assert len(seen) == 1, seen  # one process, one share
        shares.append(list(seen.pop()))
    assert shares == [allowed[len(allowed) * i // count:len(allowed) * (i + 1) // count]
                      for i in range(count)]
    assert sorted(cpu for share in shares for cpu in share) == allowed  # disjoint


def _fail_to_bind(plan, victim):
    """run_distributed_local on ``plan`` while another socket holds the
    victim's main port; returns the error and the seconds it took."""
    import socket
    import time
    blocker = socket.socket()
    blocker.bind(plan.endpoints[victim].main_addr())
    blocker.listen(1)
    started = time.monotonic()
    try:
        with pytest.raises(SimulationError) as err:
            run_distributed_local(plan, startup_timeout=30.0)
    finally:
        blocker.close()
    return str(err.value), time.monotonic() - started


@pytest.mark.parametrize("position", [0, -1], ids=["first", "last"])
def test_distributed_local_reports_a_service_that_cannot_bind(monkeypatch, position):
    """A failed bind, of block 0 or block 1, is reported by the launcher
    well inside the start-up deadline, before it forks any process."""
    plan = _two_block_plan(generate(DevstoneConfig("HO", 3, 3)))
    victim = list(plan.endpoints)[position]
    spawned = _recorded_forks(monkeypatch)
    message, seconds = _fail_to_bind(plan, victim)
    assert "cannot bind" in message and repr(victim) in message
    assert victim in message.split(" exited ")[0]  # the hosting process's atomics
    assert seconds < 5.0, message
    assert len(spawned) == 0
    _assert_no_child_process()  # nothing left unreaped


def _recorded_sockets(monkeypatch, log):
    """From now on, in each process that this one forks too, append to
    the file ``log`` one line per event: (pid, "bind", address) for each
    socket bound, (pid, "listen", address) for each that listens, (pid,
    "dial", address) for each connection made with
    ``socket.create_connection``, (pid, "fork", child pid) for each process
    forked, (pid, "ready", "") for each ready eventfd bumped and (pid,
    "run", "") for each ``DistributedCoordinator.run`` begun. Returns a
    function that reads the events back, in the order they were
    written."""
    import socket

    from pdevsim import DistributedCoordinator

    def record(kind, detail=""):
        with open(log, "a", encoding="utf-8") as out:
            out.write(f"{os.getpid()} {kind} {detail}\n")

    def address(text):
        host, _, port = text.rpartition(":")
        return host, int(port)

    def read() -> list[tuple]:
        events = []
        for line in log.read_text(encoding="utf-8").splitlines():
            pid, kind, detail = line.split(" ")
            events.append((int(pid), kind, address(detail) if ":" in detail
                           else int(detail) if detail else detail))
        return events

    bind, listen, dial = socket.socket.bind, socket.socket.listen, socket.create_connection
    fork, bump, run = os.fork, os.eventfd_write, DistributedCoordinator.run

    def recording_bind(self, where):
        bind(self, where)
        record("bind", "%s:%d" % self.getsockname())

    def recording_listen(self, *args):
        listen(self, *args)
        record("listen", "%s:%d" % self.getsockname())

    def recording_dial(where, *args, **kwargs):
        record("dial", "%s:%d" % tuple(where))
        return dial(where, *args, **kwargs)

    def recording_fork():
        pid = fork()
        if pid:
            record("fork", pid)
        return pid

    def recording_bump(fd, value):
        record("ready")
        bump(fd, value)

    def recording_run(self, *args, **kwargs):
        record("run")
        return run(self, *args, **kwargs)

    monkeypatch.setattr(socket.socket, "bind", recording_bind)
    monkeypatch.setattr(socket.socket, "listen", recording_listen)
    monkeypatch.setattr(socket, "create_connection", recording_dial)
    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(os, "eventfd_write", recording_bump)
    monkeypatch.setattr(DistributedCoordinator, "run", recording_run)
    return read


def _fed_back():
    """Two atomics whose only coupling runs from the second in plan order
    to the first, so that block 1 pushes into block 0."""
    from pdevsim import ModelGraph, atomic_spec
    graph = ModelGraph("toy")
    graph.add_component(atomic_spec("r0", "collector"))
    graph.add_component(atomic_spec("s0", "emit_once"))
    graph.connect("s0", "out", "r0", "in")
    return graph


@pytest.mark.parametrize("model, given", [("ho", "graph"), ("ho", "plan"), ("fed-back", "plan")],
                         ids=["graph", "plan", "fed-back"])
def test_distributed_local_binds_every_listener_before_it_forks(monkeypatch, tmp_path,
                                                                model, given):
    """The launcher binds each listener once, all before its first fork,
    and every socket it binds listens: none is bound only to learn a free
    port and be closed. No process dials inside the coordinator's run: the
    launcher dials nothing once the coordinator runs, and each forked
    process dials only before it is ready. Across the processes, the
    coordinator dials every group but block 0's first, which it runs
    in-process, and the group that hosts the source of a coupling into
    another group dials that group, once for each such ordered pair."""
    from pdevsim.parallel import contiguous_blocks, default_workers

    def build():
        return generate(DevstoneConfig("HO", 3, 3)) if model == "ho" else _fed_back()

    target = build() if given == "graph" else _two_block_plan(build())
    read = _recorded_sockets(monkeypatch, tmp_path / "events.log")
    report = run_distributed_local(target)
    assert report.counter_triple() == run_sequential(build()).counter_triple()
    events = read()
    launcher = os.getpid()
    bound = [address for pid, kind, address in events if kind == "bind"]
    assert len(bound) == len(set(bound)) > 0
    assert [address for _, kind, address in events if kind == "listen"] == bound
    assert {pid for pid, kind, _ in events if kind in ("bind", "listen")} == {launcher}
    if given == "plan":
        assert set(bound) == {endpoint.main_addr() for endpoint in target.groups()}
    forks = [i for i, (_, kind, _) in enumerate(events) if kind == "fork"]
    assert len(forks) == min(default_workers(), len(bound)) - 1
    binds = [i for i, (_, kind, _) in enumerate(events) if kind == "bind"]
    assert all(i < fork for i in binds for fork in forks)
    children = [child for _, kind, child in events if kind == "fork"]
    # (a) The launcher dials nothing once the coordinator runs, which it
    # begins once.
    mine = [kind for pid, kind, _ in events if pid == launcher and kind in ("dial", "run")]
    assert mine.count("run") == 1 and "dial" not in mine[mine.index("run"):], mine
    # (b) Each forked process dials only before it bumps its ready eventfd.
    for child in children:
        theirs = [kind for pid, kind, _ in events if pid == child]
        assert theirs.count("ready") == 1 and "dial" not in theirs[theirs.index("ready"):], \
            theirs
    # (c) Who dials whom: groups in plan order at the bound addresses, dealt
    # into contiguous blocks, block 0 in the launcher and block i in the
    # i-th process forked.
    flat = flatten(build())
    names = list(flat.atomics)
    if given == "graph":
        groups = contiguous_blocks(names, min(default_workers(), len(names)))
        at = {name: bound[i] for i, group in enumerate(groups) for name in group}
    else:
        at = {name: target.endpoints[name].main_addr() for name in names}
    addresses = list(dict.fromkeys(at[name] for name in names))
    assert addresses == bound
    blocks = contiguous_blocks(addresses, min(default_workers(), len(addresses)))
    block_of = {address: i for i, block in enumerate(blocks) for address in block}
    process = {pid: i for i, pid in enumerate([launcher, *children])}
    pairs = {(at[c.src.component], at[c.dst.component]) for c in flat.couplings}
    expected = [(0, address) for address in addresses[1:]]
    expected += [(block_of[src], dst) for src, dst in pairs if src != dst]
    dialled = [(process[pid], address) for pid, kind, address in events if kind == "dial"]
    assert sorted(dialled) == sorted(expected)
    # Only fed-back has another group push into block 0's first group.
    assert any(dst == bound[0] != src for src, dst in pairs) == (model == "fed-back")


def test_distributed_local_reports_a_process_that_exits_before_it_is_ready(monkeypatch):
    """A forked process that fails before its ready line is reported with
    the atomics it hosts, its exit code and its last output, and reaped."""
    import time

    from pdevsim import distributed
    from pdevsim.parallel import default_workers
    if default_workers() < 2:
        pytest.skip("a single CPU runs every block in the launcher")

    def failing_serve(groups, announce):
        raise SimulationError("injected start-up failure")

    monkeypatch.setattr(distributed, "serve", failing_serve)  # only forked processes call it
    plan = _two_block_plan(generate(DevstoneConfig("HO", 3, 3)))
    second = list(plan.groups().values())[1]
    fds = open_fds()
    started = time.monotonic()
    with pytest.raises(SimulationError) as err:
        run_distributed_local(plan, startup_timeout=30.0)
    message = str(err.value)
    assert "exited with code 1 before it was ready" in message, message
    assert "injected start-up failure" in message and second[0] in message, message
    assert time.monotonic() - started < 5.0, message
    _assert_no_child_process()
    assert open_fds() == fds


def test_distributed_local_reports_a_process_whose_peer_dial_fails(monkeypatch):
    """A forked process whose group cannot dial a peer exits before it is
    ready, and is reported with the one line that names the peer's atomic
    and endpoint, well inside the start-up deadline."""
    import time

    from pdevsim import Endpoint, distributed
    from pdevsim.parallel import default_workers
    if default_workers() < 2:
        pytest.skip("a single CPU runs every block in the launcher")
    launcher, dial = os.getpid(), distributed._dial
    refusing = Endpoint("127.0.0.1", free_ports(1)[0])

    def refused_in_children(endpoint, where, timeouts):
        return dial(endpoint if os.getpid() == launcher else refusing, where, timeouts)

    monkeypatch.setattr(distributed, "_dial", refused_in_children)
    plan = _two_block_plan(_fed_back())  # block 1's s0 pushes into block 0's r0
    fds = open_fds()
    started = time.monotonic()
    with pytest.raises(SimulationError) as err:
        run_distributed_local(plan, startup_timeout=30.0)
    message = str(err.value)
    assert message.startswith("simulator process for s0 exited with code 1 before it was "
                              "ready: error: the process of 'r0' at "
                              f"{plan.endpoints['r0']} unreachable: "), message
    assert "\n" not in message
    assert time.monotonic() - started < 5.0, message
    _assert_no_child_process()
    assert open_fds() == fds


def test_distributed_local_finishes_a_block_that_prints_more_than_a_pipe_holds():
    """An atomic of a forked block that prints 2000 lines of 100 characters
    mid-run never waits on its output: the run ends well inside the read
    timeout with the sequential counters and trace."""
    import time

    from pdevsim import ModelGraph, Timeouts, atomic_spec
    from pdevsim.parallel import default_workers
    if default_workers() < 2:
        pytest.skip("a single CPU runs every block in the launcher")

    def build():
        graph = ModelGraph("toy")
        graph.add_component(atomic_spec("s0", "emit_once"))
        graph.add_component(atomic_spec("p1", "print_ext"))
        graph.connect("s0", "out", "p1", "in")
        return graph

    plan = _two_block_plan(build())
    assert plan.endpoints["s0"] != plan.endpoints["p1"]
    started = time.monotonic()
    report = run_distributed_local(plan, trace=True, timeouts=Timeouts(read=5.0))
    elapsed = time.monotonic() - started
    sequential = run_sequential(build(), trace=True)
    assert report.counter_triple() == sequential.counter_triple()
    assert report.trace_text() == sequential.trace_text()
    assert elapsed < 2.0, elapsed
    _assert_no_child_process()


@pytest.mark.parametrize("dies_in", ["delta_ext", "output", "loud"])
def test_distributed_local_reports_a_process_that_dies_mid_run(dies_in):
    """A forked process that dies in a transition, while the coordinator
    waits for its reply or block 0 waits for its batch, is reported with
    the atomics it hosts, its endpoint, its exit code and the last line it
    printed, also after far more output than the report keeps ("loud"),
    well inside the read timeout; no process, service thread or descriptor
    is left behind."""
    import time

    from pdevsim import ModelGraph, Timeouts, atomic_spec
    from pdevsim.parallel import default_workers
    if default_workers() < 2:
        pytest.skip("a single CPU runs every block in the launcher")
    graph = ModelGraph("toy")
    if dies_in != "output":  # block 0 pushes to it, then waits for its reply
        graph.add_component(atomic_spec("s0", "emit_once"))
        graph.add_component(atomic_spec("x0", "exit_loud" if dies_in == "loud" else "exit_ext"))
        graph.connect("s0", "out", "x0", "in")
    else:  # block 0 waits for its batch
        graph.add_component(atomic_spec("r0", "collector"))
        graph.add_component(atomic_spec("x0", "exit_output"))
        graph.connect("x0", "out", "r0", "in")
    plan = _two_block_plan(graph)
    fds = open_fds()
    started = time.monotonic()
    with pytest.raises(SimulationError) as err:
        run_distributed_local(plan, timeouts=Timeouts(connect=5.0, read=20.0))
    elapsed = time.monotonic() - started
    message = str(err.value)
    printed = ("p" * 100 + " | ") * 4 if dies_in == "loud" else ""  # the last lines
    assert message.endswith(f"; the simulator process for x0 at {plan.endpoints['x0']} "
                            f"exited with code 3: {printed}x0 ends its process"), message
    assert "\n" not in message
    assert elapsed < 5.0, (elapsed, message)
    _assert_no_child_process()
    assert _service_threads() == []
    assert open_fds() == fds


@pytest.mark.parametrize("backend, failure", [
    ("sequential", "raise_ext"), ("pool", "raise_ext"), ("distributed-local", "raise_ext"),
    ("sequential", "raise_output"), ("pool", "raise_output"),
    ("distributed-local", "raise_output"),
], ids=["sequential", "pool", "distributed-local", "sequential-raise_output",
        "pool-raise_output", "distributed-local-raise_output"])
def test_a_raising_transition_ends_the_run_under_each_backend(backend, failure):
    """A transition that raises, in the forked block under
    distributed-local, ends the run with a one-line error that names its
    atomic, and under distributed-local its endpoint, well inside the read
    timeout; no process, service thread or descriptor is left behind. So
    does an output function that raises in the forked block, x0, whose
    output block 0 waits for."""
    import time

    from pdevsim import ModelGraph, Timeouts, atomic_spec
    from pdevsim.parallel import PoolPlan, default_workers
    if backend == "distributed-local" and default_workers() < 2:
        pytest.skip("a single CPU runs every block in the launcher")
    graph = ModelGraph("toy")
    if failure == "raise_ext":
        graph.add_component(atomic_spec("s0", "emit_once"))
        graph.add_component(atomic_spec("r0", "collector"))
        graph.add_component(atomic_spec("r1", "raise_ext"))
        for receiver in ("r0", "r1"):
            graph.connect("s0", "out", receiver, "in")
        plan, culprit, error = grouped_plan(graph, [["s0", "r0"], ["r1"]]), "r1", "delta_ext"
    else:
        graph.add_component(atomic_spec("r0", "collector"))
        graph.add_component(atomic_spec("x0", "raise_output"))
        graph.connect("x0", "out", "r0", "in")
        plan, culprit, error = grouped_plan(graph, [["r0"], ["x0"]]), "x0", "output"
    fds = open_fds()
    started = time.monotonic()
    with pytest.raises(SimulationError) as err:
        if backend == "sequential":
            run_sequential(graph)
        elif backend == "pool":
            run_parallel(graph, PoolPlan.single_pool(list(graph.atomics), 2))
        else:
            run_distributed_local(plan, timeouts=Timeouts(connect=5.0, read=20.0))
    elapsed = time.monotonic() - started
    message = str(err.value)
    assert f"'{culprit}'" in message and f"injected {error} failure" in message, message
    assert "\n" not in message
    if backend == "distributed-local":
        assert str(plan.endpoints[culprit]) in message, message
    assert elapsed < 5.0, (elapsed, message)
    _assert_no_child_process()
    assert _service_threads() == []
    assert open_fds() == fds


@pytest.mark.parametrize("backend",
                         ["sequential", "pool", "serve+coordinate", "distributed-local"])
def test_each_atomic_is_initialized_once_per_run(backend):
    """Every backend runs each atomic's ``initialize`` once per run: a
    service group initializes its atomics when it is built, and INIT only
    reports their tN. Under distributed-local, atomic ``a`` runs in block
    0, in the launcher, and ``b`` in block 1, in a forked process."""
    from pdevsim import ModelGraph, atomic_spec, run_coordinator
    from pdevsim.parallel import PoolPlan

    from conftest import thread_services
    graph = ModelGraph("toy")
    for name in ("a", "b"):
        graph.add_component(atomic_spec(name, "count_inits"))
    plan = _two_block_plan(graph)
    if backend == "sequential":
        report = run_sequential(graph, trace=True)
    elif backend == "pool":
        report = run_parallel(graph, PoolPlan.single_pool(["a", "b"], 2), trace=True)
    elif backend == "serve+coordinate":
        with thread_services(plan):
            report = run_coordinator(plan, trace=True)
    else:
        report = run_distributed_local(plan, trace=True)
    inits = {name: [values for _, values in report.traces[name][0].outputs]
             for name in ("a", "b")}
    assert inits == {"a": [(1,)], "b": [(1,)]}


def _service_threads() -> list[str]:
    import threading
    return [t.name for t in threading.enumerate() if t.name.startswith("svc-")]


def _assert_no_child_process():
    import multiprocessing
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):  # no live or zombie child at all
        os.waitpid(-1, os.WNOHANG)


def test_distributed_local_leaves_no_child_process():
    graph = generate(DevstoneConfig("HO", 3, 3))
    fds = open_fds()
    assert run_distributed_local(graph).counter_triple() == (7, 7, 7)
    _assert_no_child_process()
    assert open_fds() == fds
    plan = _two_block_plan(graph)
    _fail_to_bind(plan, list(plan.endpoints)[-1])
    _assert_no_child_process()


def test_distributed_local_serves_block_0_in_the_launcher(monkeypatch):
    """The launcher serves block 0 itself and forks one process per other
    block, so one on a 2-CPU host. It starts no service thread for block
    0's first group, which the coordinator runs, and one for each other
    group of block 0; none is left after a run that succeeds or one that
    fails."""
    from pdevsim import ServiceGroup
    from pdevsim.parallel import contiguous_blocks, default_workers

    threaded = []
    run = ServiceGroup._run

    def recording_run(self):
        threaded.append(self.names[0])
        run(self)

    monkeypatch.setattr(ServiceGroup, "_run", recording_run)
    spawned = _recorded_forks(monkeypatch)
    graph = generate(DevstoneConfig("HO", 3, 3))
    assert run_distributed_local(graph).counter_triple() == (7, 7, 7)
    assert len(spawned) == min(default_workers(), len(list(graph.walk_atomics()))) - 1
    assert threaded == []  # block 0 is one group
    assert _service_threads() == []
    spread = grouped_plan(graph, [[name] for name in flatten(graph).atomics])
    assert run_distributed_local(spread).counter_triple() == (7, 7, 7)
    groups = [names[0] for names in spread.groups().values()]
    block0 = contiguous_blocks(groups, min(default_workers(), len(groups)))[0]
    assert threaded == block0[1:]
    assert _service_threads() == []
    plan = _two_block_plan(graph)
    for victim in (list(plan.endpoints)[0], list(plan.endpoints)[-1]):
        _fail_to_bind(plan, victim)
        assert _service_threads() == []
    _assert_no_child_process()


def test_distributed_local_children_serve_the_plan_in_memory(monkeypatch):
    """The forked processes neither parse arguments nor read plan XML."""
    from pdevsim import cli, planfile

    def forbidden(*args, **kwargs):
        raise AssertionError("a service process parsed its arguments or its plan")

    monkeypatch.setattr(cli, "main", forbidden)
    monkeypatch.setattr(planfile, "parse_plan_xml", forbidden)
    report = run_distributed_local(generate(DevstoneConfig("HO", 3, 3)), trace=True)
    sequential = run_sequential(generate(DevstoneConfig("HO", 3, 3)), trace=True)
    assert report.trace_text() == sequential.trace_text()


def test_distributed_local_services_use_the_launchers_timeouts(monkeypatch):
    """A lost peer batch ends the run within the launcher's read timeout,
    with an error naming the sender, whether the coordinator or the
    receiving process gives up first."""
    import time

    from pdevsim import ServiceGroup, Timeouts
    monkeypatch.setattr(ServiceGroup, "_ship", lambda self, imminent: None)
    plan = _two_block_plan(generate(DevstoneConfig("HO", 3, 3)))
    first, second = plan.groups().values()
    senders = {c.src.component for c in plan.graph.couplings
               if c.src.component in first and c.dst.component in second}
    assert senders
    started = time.monotonic()
    with pytest.raises(SimulationError) as err:
        run_distributed_local(plan, timeouts=Timeouts(connect=5.0, read=2.0))
    elapsed = time.monotonic() - started
    message = str(err.value)
    assert any(repr(sender) in message for sender in senders), message
    assert elapsed < 5.0, (elapsed, message)
    _assert_no_child_process()


def test_distributed_local_does_not_repeat_unflushed_stdout():
    """Text the launcher left in its stdout buffer is written once, by the
    launcher: a forked process writes its own output to a memfd, through
    fresh stream objects, and prints no ready line."""
    import subprocess
    import sys
    code = ("import sys\n"
            "from pdevsim.bench import run_distributed_local\n"
            "from pdevsim.devstone import DevstoneConfig, generate\n"
            "sys.stdout.write('marker')\n"
            "report = run_distributed_local(generate(DevstoneConfig('HO', 3, 3)))\n"
            "sys.exit(report.counter_triple() != (7, 7, 7))\n")
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)  # keep 'marker' in the stdout buffer
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, timeout=120, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("marker") == 1, result.stdout
    assert "ready" not in result.stdout, result.stdout


def test_distributed_local_leaves_nothing_unclosed(tmp_path):
    """distributed-local in development mode with ResourceWarning as an
    error: a socket, pipe or child process left unclosed fails the run or
    shows on stderr, on a run that succeeds and on one that fails."""
    import socket
    import subprocess
    import sys
    plan = _two_block_plan(generate(DevstoneConfig("HO", 3, 3)))
    plan_path = tmp_path / "plan.xml"
    plan_path.write_text(emit_distributed_plan_xml(plan), encoding="utf-8")
    trace = tmp_path / "trace.txt"
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "pdevsim",
         "run", "--plan", str(plan_path), "--backend", "distributed-local",
         "--trace-out", str(trace)],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "ResourceWarning" not in result.stderr, result.stderr
    sequential = run_sequential(generate(DevstoneConfig("HO", 3, 3)), trace=True)
    assert trace.read_text() == sequential.trace_text()
    # The error path too: the launcher cannot bind the endpoint of block 0
    # or of block 1.
    for endpoint in (list(plan.groups())[0], list(plan.groups())[-1]):
        blocker = socket.create_server(endpoint.main_addr())
        try:
            result = subprocess.run(
                [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m",
                 "pdevsim", "run", "--plan", str(plan_path), "--backend",
                 "distributed-local"],
                capture_output=True, text=True, timeout=120)
        finally:
            blocker.close()
        assert result.returncode == 1, result.stderr
        assert "cannot bind" in result.stderr and result.stderr.count("\n") == 1, \
            result.stderr
        assert str(endpoint) in result.stderr, result.stderr
        assert "ResourceWarning" not in result.stderr, result.stderr


def test_report_rows_roundtrip(tmp_path):
    path = tmp_path / "rows.csv"
    first = run_sequential(generate(DevstoneConfig("HO", 3, 3)))
    append_report_row(path, first)
    append_report_row(path, first)
    rows = read_report_rows(path)
    assert len(rows) == 2
    assert rows[0]["model"] == "ho_w3_d3"
    assert int(rows[0]["num_delt_ints"]) == 7


def test_report_and_profile_csvs_quote_fields_and_refuse_malformed_rows(tmp_path):
    """A model name with a comma is quoted, so its rows read back whole and
    fold into speedups; a row with more or fewer fields than the header is
    refused in one line that names it."""
    path = tmp_path / "rows.csv"
    report = run_sequential(generate(DevstoneConfig("HO", 3, 3)))
    append_report_row(path, replace(report, model="a,b"))
    append_report_row(path, replace(report, model="a,b", backend="parallel",
                                    workers_pools="2"))
    rows = read_report_rows(path)
    assert [(row["model"], row["backend"]) for row in rows] == [
        ("a,b", "sequential"), ("a,b", "parallel")]
    assert [row.model for row in speedup_rows(rows)] == ["a,b", "a,b"]
    header = path.read_text(encoding="utf-8").splitlines()[0]
    for bad in ("m,parallel,2,3,0.25,7,7,7,x", "m,parallel,2,3,0.25,7,7"):
        path.write_text(f"{header}\nm,sequential,1,3,0.5,7,7,7\n{bad}\n", encoding="utf-8")
        with pytest.raises(BenchError) as err:
            read_report_rows(path)
        assert str(err.value).startswith(f"results file {path} line 3 has "), err.value
    text = profiles_to_csv(_synthetic_profiles(2))
    line = text.count("\n") + 1
    with pytest.raises(BenchError, match=f"^profile CSV line {line} has 3 fields, not 4: "):
        profiles_from_csv(text + "x,1.0,2.0\n")


# Edits to a valid CSV: (position, characters deleted there, text inserted).
_CSV_TEXT = st.sampled_from(["", "abc", "nan", "-1", "1e999", "0x1", ",", '"', "\n", "\r",
                             "\x00", "\u00e9"]) | st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=3)
_CSV_EDITS = st.lists(st.tuples(st.integers(0, 400), st.integers(0, 3), _CSV_TEXT),
                      min_size=1, max_size=4)


def _mutated(text: str, edits) -> str:
    for position, deleted, inserted in edits:
        position %= len(text) + 1
        text = text[:position] + inserted + text[position + deleted:]
    return text


def _parses_or_refuses_in_one_line(parse) -> None:
    try:
        parse()
    except BenchError as exc:
        message = str(exc)
        assert message and "\n" not in message and "\r" not in message, message


@given(_CSV_EDITS)
@settings(max_examples=300)
def test_a_mutated_profile_csv_parses_or_is_refused_in_one_line(edits):
    text = _mutated(profiles_to_csv(_synthetic_profiles(3)), edits)
    _parses_or_refuses_in_one_line(lambda: profiles_from_csv(text))


@given(edits=_CSV_EDITS)
@settings(max_examples=300)
def test_a_mutated_results_file_parses_or_is_refused_in_one_line(tmp_path_factory, edits):
    path = tmp_path_factory.getbasetemp() / "mutated-rows.csv"
    path.write_text(_mutated(f"{RunReport.CSV_HEADER}\nm,sequential,1,3,0.5,7,7,7\n"
                             "m,parallel,2x2,3,0.25,7,7,7\n", edits), encoding="utf-8")
    _parses_or_refuses_in_one_line(lambda: speedup_rows(read_report_rows(path)))


def _row(model, backend, label, wall):
    return {"model": model, "backend": backend, "workers/pools": label,
            "cycles": "3", "wall_seconds": repr(wall),
            "num_delt_ints": "7", "num_delt_exts": "7", "num_events": "7"}


def test_speedup_math_and_grouping():
    rows = [_row("m", "sequential", "1", 8.0),
            _row("m", "parallel", "4", 2.0),
            _row("m", "parallel", "2x2", 4.0),
            _row("m", "distributed-local", "6", 16.0)]
    folded = speedup_rows(rows)
    by_label = {r.label: r for r in folded}
    assert by_label["4"].speedup == pytest.approx(4.0)
    assert by_label["4"].group == "parallel-1pool"
    assert by_label["2x2"].speedup == pytest.approx(2.0)
    assert by_label["2x2"].group == "parallel-2pool"
    assert by_label["6"].speedup == pytest.approx(0.5)
    csv_text = speedups_to_csv(folded)
    assert csv_text.splitlines()[0] == "model,group,label,wall_seconds,speedup"
    plot = plot_data_csv(folded)
    assert "sequential" not in plot


def test_speedup_requires_exactly_one_baseline():
    rows = [_row("m", "parallel", "4", 2.0)]
    with pytest.raises(BenchError, match="baseline"):
        speedup_rows(rows)
    rows = [_row("m", "sequential", "1", 8.0), _row("m", "sequential", "1", 7.0)]
    with pytest.raises(BenchError, match="multiple"):
        speedup_rows(rows)


def test_reference_speedup_ratios_from_published_numbers():
    rows = [_row("big", "sequential", "1", 5896.54),
            _row("big", "parallel", "32", 369.9),
            _row("big", "distributed-local", "7x15", 5896.54 / 1.84)]
    folded = speedup_rows(rows)
    assert folded[1].speedup == pytest.approx(15.94, abs=0.01)
    assert folded[2].speedup == pytest.approx(1.84, abs=0.01)


def test_profile_totals_track_process_cpu():
    # The summed per-atomic transition CPU must stay below the process
    # total for the run and dominate it once delays reach ~10 ms.
    import time

    from pdevsim import SequentialCoordinator

    config = DevstoneConfig("HO", 4, 3, DelayDistribution.constant(0.02), seed=0)
    graph = generate(config)
    coordinator = SequentialCoordinator(graph, profile=True)
    before = time.process_time()
    coordinator.simulate()
    process_cpu = time.process_time() - before
    summed = sum(ext + internal for _, ext, internal in coordinator.atomic_profiles())
    assert summed <= process_cpu + 1e-9
    assert summed >= 0.9 * process_cpu, (summed, process_cpu)
