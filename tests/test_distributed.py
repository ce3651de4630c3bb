"""Distributed backend: service protocol behavior and equivalence with the
sequential reference, using in-process services on loopback."""

import math
import socket
import sys
import threading

import pytest

from pdevsim import (DistributedPlan, Endpoint, SequentialCoordinator,
                     SimulationError, Timeouts, build_gpt, flatten,
                     run_coordinator, serve_simulator, serve_simulators)
from pdevsim.bench import local_plan
from pdevsim.devstone import DevstoneConfig, generate
from pdevsim.wire import (ACK, DELTFCN, EXIT, INIT, LAMBDA, PROPAGATE,
                          WireFrame, read_frame, write_frame)

from conftest import fan_out_model, thread_services


def _dial(endpoint):
    sock = socket.create_connection(endpoint.main_addr(), timeout=5.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.settimeout(10.0)
    return sock


def test_service_reports_tn_infinite_before_any_event(gpt_graph):
    plan = local_plan(gpt_graph)
    with thread_services(plan, names=["processor"]):
        sock = _dial(plan.endpoints["processor"])
        try:
            write_frame(sock, WireFrame(INIT, values=(0,)))
            reply = read_frame(sock)
            assert reply.command == ACK
            assert math.isinf(reply.time)  # the processor starts passive
        finally:
            sock.close()


def test_leftover_propagate_batch_is_an_error(gpt_graph):
    plan = local_plan(gpt_graph)
    with thread_services(plan, names=["processor"]):
        sock = _dial(plan.endpoints["processor"])
        peer = socket.create_connection(plan.endpoints["processor"].aux_addr(),
                                        timeout=5.0)
        try:
            write_frame(sock, WireFrame(INIT, values=(0,)))
            assert read_frame(sock).command == ACK
            for value in ("job-1", "job-2"):  # two batches on one key, one cycle
                write_frame(peer, WireFrame(PROPAGATE, sender="generator",
                                            port="in", values=(value,)))
                assert read_frame(peer).command == ACK
            write_frame(sock, WireFrame(DELTFCN, time=0.0))
            reply = read_frame(sock)
            assert reply.command == ACK and reply.values[0] == "__error__"
            assert "'processor'" in reply.values[1]
            assert "'generator'" in reply.values[1] and "'in'" in reply.values[1]
        finally:
            peer.close()
            sock.close()


def test_commands_without_time_are_rejected(gpt_graph):
    plan = local_plan(gpt_graph)
    with thread_services(plan, names=["processor"]):
        sock = _dial(plan.endpoints["processor"])
        try:
            write_frame(sock, WireFrame(INIT, values=(0,)))
            assert read_frame(sock).command == ACK
            for command in (LAMBDA, DELTFCN):
                write_frame(sock, WireFrame(command))
                reply = read_frame(sock)
                assert reply.values[0] == "__error__"
                assert f"{command} frame without time" in reply.values[1]
        finally:
            sock.close()


def test_serve_unknown_atomic_fails_at_startup(gpt_graph):
    plan = local_plan(gpt_graph)
    with pytest.raises(SimulationError, match="ghost"):
        serve_simulator(plan, "ghost")


def test_port_in_use_is_reported(gpt_graph):
    plan = local_plan(gpt_graph)
    blocker = socket.socket()
    blocker.bind((plan.endpoints["generator"].host,
                  plan.endpoints["generator"].main_port))
    blocker.listen(1)
    try:
        with pytest.raises(SimulationError, match="cannot bind"):
            serve_simulator(plan, "generator")
    finally:
        blocker.close()


def test_exit_shuts_the_service_down(gpt_graph):
    plan = local_plan(gpt_graph)
    service = serve_simulator(plan, "generator")
    sock = _dial(plan.endpoints["generator"])
    try:
        write_frame(sock, WireFrame(INIT, values=(0,)))
        read_frame(sock)
        write_frame(sock, WireFrame(EXIT))
        reply = read_frame(sock)
        assert reply.command == ACK
        assert reply.values[0] == 0  # counters: the generator counts nothing
    finally:
        sock.close()
    service.join(timeout=5.0)
    assert service._stop.is_set()
    with pytest.raises(OSError):
        _dial(plan.endpoints["generator"])


def test_gpt_distributed_equals_sequential(gpt_graph):
    plan = local_plan(gpt_graph)
    with thread_services(plan):
        report = run_coordinator(plan, trace=True)
    sequential = SequentialCoordinator(build_gpt(), trace=True).simulate()
    assert report.counter_triple() == sequential.counter_triple()
    assert report.cycles == sequential.cycles
    assert report.trace_text() == sequential.trace_text()


def _addressed_command_counts(graph) -> tuple[int, int]:
    """(LAMBDA, DELTFCN) frames the coordinator must send for ``graph``,
    from a sequential oracle: the int and con transitions, and per cycle the
    imminent simulators together with their coupling targets."""
    oracle = SequentialCoordinator(graph, trace=True).simulate()
    kinds = [entry.kind for trace in oracle.traces.values() for entry in trace]
    targets = {}
    for coupling in flatten(graph).couplings:
        targets.setdefault(coupling.src.component, set()).add(coupling.dst.component)
    stepper = SequentialCoordinator(graph)
    deltfcns = 0
    while not math.isinf(t := stepper.time_advance()):
        stepper.clock.t = t
        imminent = {name for name, sim in stepper.simulators.items() if sim.tN == t}
        deltfcns += len(imminent.union(*(targets.get(n, ()) for n in imminent)))
        stepper.run_lambda()
        stepper.run_deltfcn()
    return kinds.count("int") + kinds.count("con"), deltfcns


def test_coordinator_relays_no_propagate_frames(gpt_graph):
    plan = local_plan(gpt_graph)
    with thread_services(plan):
        report = run_coordinator(plan, trace=False)
    sent = report.diagnostics["frames_sent"]
    assert sent.get("PROPAGATE", 0) == 0
    assert report.diagnostics["frames_received"].get("PROPAGATE", 0) == 0
    lambdas, deltfcns = _addressed_command_counts(build_gpt())
    assert sent == {"INIT": 3, "LAMBDA": lambdas, "DELTFCN": deltfcns, "EXIT": 3}


def test_ho_distributed_counters_and_traces():
    plan = local_plan(generate(DevstoneConfig("HO", 4, 3)))
    with thread_services(plan):
        report = run_coordinator(plan, trace=True)
    sequential = SequentialCoordinator(
        generate(DevstoneConfig("HO", 4, 3)), trace=True).simulate()
    assert report.counter_triple() == sequential.counter_triple()
    assert report.trace_text() == sequential.trace_text()
    assert report.diagnostics["dropped_events"] == sequential.diagnostics["dropped_events"]
    lambdas, deltfcns = _addressed_command_counts(generate(DevstoneConfig("HO", 4, 3)))
    atomics = len(plan.endpoints)
    assert report.diagnostics["frames_sent"] == {
        "INIT": atomics, "LAMBDA": lambdas, "DELTFCN": deltfcns, "EXIT": atomics}


@pytest.mark.parametrize("groups", [1, 2])
def test_cohosted_groups_push_in_memory(groups, monkeypatch):
    """Services co-hosted in one group reproduce the sequential trace, and
    only pushes between different groups dial an aux port."""
    plan = local_plan(generate(DevstoneConfig("HO", 4, 3)))
    names = list(plan.endpoints)
    blocks = [names[len(names) * i // groups:len(names) * (i + 1) // groups]
              for i in range(groups)]
    group_of = {name: i for i, block in enumerate(blocks) for name in block}
    aux_owner = {plan.endpoints[name].aux_addr(): name for name in names}
    dials = []
    dial = socket.create_connection

    def recording_dial(address, *args, **kwargs):
        if address in aux_owner:  # a push: runs on the pusher's main thread
            pusher = threading.current_thread().name.removeprefix("svc-")
            dials.append((pusher.removesuffix("-main"), aux_owner[address]))
        return dial(address, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", recording_dial)
    started = []
    try:
        for block in blocks:
            started.append(serve_simulators(plan, block))
        report = run_coordinator(plan, trace=True)
    finally:
        for group in started:
            group.stop()
    sequential = SequentialCoordinator(
        generate(DevstoneConfig("HO", 4, 3)), trace=True).simulate()
    assert report.trace_text() == sequential.trace_text()
    assert report.counter_triple() == sequential.counter_triple()
    assert all(group_of[src] != group_of[dst] for src, dst in dials), dials
    assert bool(dials) == (groups > 1)  # cross-group pushes still use TCP


def test_multi_sender_fan_in_matches_sequential_order():
    graph = fan_out_model(senders=3, receivers=2)
    sequential = SequentialCoordinator(fan_out_model(3, 2), trace=True).simulate()
    plan = local_plan(graph)
    with thread_services(plan):
        report = run_coordinator(plan, trace=True)
    assert report.trace_text() == sequential.trace_text()


def test_cohosted_fan_in_under_frequent_switches():
    """Eight senders push into two co-hosted receivers at once, from the
    coordinator's concurrent LAMBDA threads; no value may be lost or
    reordered."""
    sequential = SequentialCoordinator(fan_out_model(8, 2), trace=True).simulate()
    plan = local_plan(fan_out_model(8, 2))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            group = serve_simulators(plan, plan.endpoints)
            try:
                report = run_coordinator(plan, trace=True,
                                         timeouts=Timeouts(connect=5.0, read=20.0))
            finally:
                group.stop()
            assert report.trace_text() == sequential.trace_text()
    finally:
        sys.setswitchinterval(interval)


def test_unreachable_service_names_the_endpoint(gpt_graph):
    plan = local_plan(gpt_graph)
    victim = plan.endpoints["processor"]
    names = [n for n in plan.endpoints if n != "processor"]
    with thread_services(plan, names=names):
        with pytest.raises(SimulationError) as err:
            run_coordinator(plan, timeouts=Timeouts(connect=0.5, read=5.0))
    assert f"{victim.host}:{victim.main_port}" in str(err.value)


def test_max_iterations_caps_distributed_run(gpt_graph):
    plan = local_plan(gpt_graph)
    with thread_services(plan):
        report = run_coordinator(plan, max_iterations=1, trace=True)
    assert report.cycles == 1
    generator_trace = report.traces["generator"]
    assert len(generator_trace) == 1


def test_plan_check_rejects_inconsistencies(gpt_graph):
    plan = local_plan(gpt_graph)
    broken = DistributedPlan(plan.graph, dict(plan.endpoints),
                             Endpoint("127.0.0.1", plan.coordinator.main_port))
    del broken.endpoints["processor"]
    with pytest.raises(SimulationError, match="processor"):
        broken.check()
    dup = DistributedPlan(plan.graph, dict(plan.endpoints), plan.endpoints["generator"])
    with pytest.raises(SimulationError, match="duplicate endpoint"):
        dup.check()


def test_plan_requires_closed_flat_model():
    open_graph = fan_out_model(1, 1)
    open_graph.input_ports = ("in",)
    open_graph.connect(open_graph.name, "in", "r0", "in")
    plan = local_plan(fan_out_model(1, 1))
    bad = DistributedPlan(open_graph, plan.endpoints, plan.coordinator)
    with pytest.raises(SimulationError, match="closed"):
        bad.check()
