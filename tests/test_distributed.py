"""Distributed backend: service protocol behavior and equivalence with the
sequential reference, using in-process services on loopback."""

import math
import os
import select
import socket
import sys
import threading
import time
from collections import Counter

import pytest

from pdevsim import (DistributedPlan, ModelGraph, ParallelCoordinator,
                     SequentialCoordinator, SimulationError,
                     Timeouts, atomic_spec, build_gpt, flatten,
                     run_coordinator, serve_simulators)
from pdevsim import distributed
from pdevsim.devstone import DevstoneConfig, generate
from pdevsim.wire import (ACK, DELTFCN, EXIT, INIT, PROPAGATE, WireFrame,
                          decode_time, read_frame, write_frame)

from conftest import (Rendezvous, SwapLarge, blocks_of, fan_out_model,
                      grouped_plan, spread_plan, thread_services)


def _dial(endpoint):
    sock = socket.create_connection(endpoint.main_addr(), timeout=5.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.settimeout(10.0)
    return sock


def test_service_reports_tn_infinite_before_any_event(gpt_graph):
    plan = spread_plan(gpt_graph)
    with thread_services(plan, names=["processor"]):
        sock = _dial(plan.endpoints["processor"])
        try:
            write_frame(sock, WireFrame(INIT, values=(0,)))
            reply = read_frame(sock)
            assert reply.command == ACK
            [(name, tn)] = reply.values  # [atomic, tN] per hosted atomic
            assert name == "processor"
            assert math.isinf(decode_time(tn))  # the processor starts passive
        finally:
            sock.close()


def _peer_link(endpoint):
    """Dial an endpoint as a peer group would; the link becomes a peer link
    with the first PROPAGATE frame written to it."""
    link = socket.create_connection(endpoint.main_addr(), timeout=5.0)
    link.settimeout(10.0)
    return link


def _deltfcn(sock, atomics, senders):
    """Send a DELTFCN at time 0 with no imminent atomic and return its reply."""
    write_frame(sock, WireFrame(DELTFCN, time=0.0,
                                values=([], list(atomics), list(senders))))
    return read_frame(sock)


def test_leftover_propagate_batch_is_an_error(gpt_graph):
    plan = spread_plan(gpt_graph)
    with thread_services(plan, names=["processor"]) as (group,):
        sock = _dial(plan.endpoints["processor"])
        peer = _peer_link(plan.endpoints["processor"])
        try:
            write_frame(sock, WireFrame(INIT, values=(0,)))
            assert read_frame(sock).command == ACK
            for value in ("job-1", "job-2"):  # two batches on one coupling, one cycle
                write_frame(peer, WireFrame(PROPAGATE, values=(
                    ["generator", "out", "processor", "in", [value]],)))
            # Pushes get no reply; let the group file both before DELTFCN reads them.
            deadline = time.monotonic() + 10.0
            while not group._intake_errors:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            reply = _deltfcn(sock, ["processor"], ["generator"])
            assert not select.select([peer], [], [], 0)[0]  # the peer link stays silent
            assert reply.command == ACK and reply.values[0] == "__error__"
            assert "'processor'" in reply.values[1]
            assert "'generator'" in reply.values[1] and "'in'" in reply.values[1]
        finally:
            peer.close()
            sock.close()


@pytest.mark.parametrize("item", [
    ["transducer", "out", "processor", "in", ["job"]],
    ["generator", "out", "transducer", "arrived", ["job"]],
], ids=["no-such-coupling", "not-entering"])
def test_propagate_for_unknown_coupling_is_rejected(gpt_graph, item):
    """A batch item for a coupling that does not enter the receiving
    process is refused, naming the coupling's ends, by the next DELTFCN."""
    plan = spread_plan(gpt_graph)
    with thread_services(plan, names=["processor"]):
        sock = _dial(plan.endpoints["processor"])
        peer = _peer_link(plan.endpoints["processor"])
        try:
            write_frame(sock, WireFrame(INIT, values=(0,)))
            assert read_frame(sock).command == ACK
            write_frame(peer, WireFrame(PROPAGATE, values=(item,)))
            # The generator's own batch never comes: only the error ends the wait.
            reply = _deltfcn(sock, ["processor"], ["generator"])
        finally:
            peer.close()
            sock.close()
    assert reply.command == ACK and reply.values[0] == "__error__"
    sender, _, target, port, _ = item
    for name in (sender, target, port):
        assert repr(name) in reply.values[1]
    assert "\n" not in reply.values[1]


@pytest.mark.parametrize("payload, message", [
    (WireFrame(PROPAGATE, values=(["generator", "out", "processor"],)),
     "malformed PROPAGATE item"),
    (WireFrame(EXIT), "unexpected EXIT"),
    (b"\x00\x00\x00\x02{]", "bad frame"),
], ids=["short-item", "not-propagate", "not-json"])
def test_bad_peer_input_is_reported_at_deltfcn(gpt_graph, payload, message):
    """Whatever a peer link brings that cannot be filed comes back, in one
    line naming the receiving atomic, in the reply to the next DELTFCN."""
    plan = spread_plan(gpt_graph)
    with thread_services(plan, names=["processor"]):
        sock = _dial(plan.endpoints["processor"])
        peer = _peer_link(plan.endpoints["processor"])
        try:
            write_frame(sock, WireFrame(INIT, values=(0,)))
            assert read_frame(sock).command == ACK
            write_frame(peer, WireFrame(PROPAGATE))  # an empty batch opens the link
            if isinstance(payload, bytes):
                peer.sendall(payload)
            else:
                write_frame(peer, payload)
            reply = _deltfcn(sock, ["processor"], ["generator"])
        finally:
            peer.close()
            sock.close()
    assert reply.values[0] == "__error__" and message in reply.values[1]
    assert "'processor'" in reply.values[1] and "\n" not in reply.values[1]


def test_commands_without_time_are_rejected(gpt_graph):
    plan = spread_plan(gpt_graph)
    with thread_services(plan, names=["processor"]):
        sock = _dial(plan.endpoints["processor"])
        try:
            write_frame(sock, WireFrame(INIT, values=(0,)))
            assert read_frame(sock).command == ACK
            for command in (DELTFCN,):
                write_frame(sock, WireFrame(command))
                reply = read_frame(sock)
                assert reply.values[0] == "__error__"
                assert f"{command} frame without time" in reply.values[1]
        finally:
            sock.close()


@pytest.mark.parametrize("names, message", [
    (("processor", "processor"), "addresses an atomic twice"),
    (("generator",), "does not host"),
], ids=["twice", "not-hosted"])
def test_badly_addressed_commands_are_rejected(gpt_graph, names, message):
    plan = spread_plan(gpt_graph)
    with thread_services(plan, names=["processor"]):
        sock = _dial(plan.endpoints["processor"])
        try:
            write_frame(sock, WireFrame(INIT, values=(0,)))
            assert read_frame(sock).command == ACK
            for values in ((list(names), [], []), ([], list(names), [])):
                write_frame(sock, WireFrame(DELTFCN, time=0.0, values=values))
                reply = read_frame(sock)
                assert reply.values[0] == "__error__"
                assert message in reply.values[1]
        finally:
            sock.close()


@pytest.mark.parametrize("values, message", [
    (("processor",), "must be [imminent, atomics, senders]"),
    (([], ["processor"], ["transducer"]), "no coupling into the process"),
    (([], ["processor"], ["processor"]), "no coupling into the process"),
], ids=["flat", "uncoupled-sender", "hosted-sender"])
def test_deltfcn_must_name_senders_coupled_into_the_process(gpt_graph, values, message):
    plan = spread_plan(gpt_graph)
    with thread_services(plan, names=["processor"]):
        sock = _dial(plan.endpoints["processor"])
        try:
            write_frame(sock, WireFrame(INIT, values=(0,)))
            assert read_frame(sock).command == ACK
            write_frame(sock, WireFrame(DELTFCN, time=0.0, values=values))
            reply = read_frame(sock)
        finally:
            sock.close()
    assert reply.values[0] == "__error__" and message in reply.values[1]


def test_serve_unknown_atomic_fails_at_startup(gpt_graph):
    plan = spread_plan(gpt_graph)
    with pytest.raises(SimulationError, match="ghost"):
        serve_simulators(plan, ["ghost"])


def test_port_in_use_is_reported(gpt_graph):
    plan = spread_plan(gpt_graph)
    blocker = socket.socket()
    blocker.bind((plan.endpoints["generator"].host,
                  plan.endpoints["generator"].main_port))
    blocker.listen(1)
    try:
        with pytest.raises(SimulationError, match="cannot bind"):
            serve_simulators(plan, ["generator"])
    finally:
        blocker.close()


def test_serve_refuses_to_split_an_endpoint(gpt_graph):
    plan = grouped_plan(gpt_graph, [["generator", "processor"], ["transducer"]])
    with pytest.raises(SimulationError) as err:
        serve_simulators(plan, ["transducer", "generator"])
    message = str(err.value)
    assert "'processor'" in message and "not hosted" in message and "\n" not in message
    groups = serve_simulators(plan, ["processor", "transducer", "generator"])
    try:  # one group per endpoint, hosting the plan's atomics there in plan order
        assert [group.names for group in groups] == [["generator", "processor"],
                                                     ["transducer"]]
    finally:
        for group in groups:
            group.stop()


def test_nine_atomic_group_has_one_listener_and_one_thread():
    graph = generate(DevstoneConfig("HO", 5, 5))
    plan = grouped_plan(graph, blocks_of(graph, 2))
    block = list(plan.groups().values())[0]
    assert len(block) == 9
    before = set(threading.enumerate())
    (group,) = serve_simulators(plan, block)
    try:
        started = [t for t in threading.enumerate() if t not in before]
        assert [t.name for t in started] == [f"svc-{block[0]}"]
        (listener,) = group._sockets
        assert listener.getsockname() == plan.endpoints[block[0]].main_addr()
    finally:
        group.stop()
    group.join(timeout=5.0)
    assert not started[0].is_alive()
    assert listener.fileno() == -1


def test_bad_later_frame_on_the_coordinators_link_ends_the_group(gpt_graph):
    """A malformed frame after INIT on the coordinator's link is answered
    within 1 s with one line naming the group's first atomic and its
    endpoint; the group then hangs up and ends its thread."""
    plan = spread_plan(gpt_graph)
    before = set(threading.enumerate())
    with thread_services(plan, names=["processor"]) as (group,):
        sock = _dial(plan.endpoints["processor"])
        try:
            write_frame(sock, WireFrame(INIT, values=(0,)))
            assert read_frame(sock).command == ACK
            started = time.monotonic()
            sock.sendall(b"\x00\x00\x00\x02{]")
            reply = read_frame(sock)
            elapsed = time.monotonic() - started
            closed = read_frame(sock)
        finally:
            sock.close()
        group.join(timeout=5.0)
        left = [t.name for t in threading.enumerate()
                if t not in before and t.name.startswith("svc-")]
    assert reply.command == ACK and reply.values[0] == "__error__"
    assert "bad frame" in reply.values[1] and "'processor'" in reply.values[1]
    assert str(plan.endpoints["processor"]) in reply.values[1]
    assert "\n" not in reply.values[1]
    assert elapsed < 1.0, elapsed
    assert closed is None  # the service hangs up
    assert left == []


def test_command_during_a_deltfcn_wait_is_refused(gpt_graph):
    """A frame that reaches the coordinator's link while a DELTFCN waits for
    peer batches is refused with one line; the DELTFCN still ends with the
    group's read timeout."""
    plan = spread_plan(gpt_graph)
    groups = serve_simulators(plan, ["processor"], timeouts=Timeouts(read=1.0))
    try:
        sock = _dial(plan.endpoints["processor"])
        try:
            write_frame(sock, WireFrame(INIT, values=(0,)))
            assert read_frame(sock).command == ACK
            write_frame(sock, WireFrame(DELTFCN, time=0.0,
                                        values=([], ["processor"], ["generator"])))
            time.sleep(0.2)  # the group now waits for the generator's batch
            write_frame(sock, WireFrame(INIT, values=(0,)))
            refused, timed_out = read_frame(sock), read_frame(sock)
        finally:
            sock.close()
    finally:
        for group in groups:
            group.stop()
    assert refused.values[0] == "__error__" and "INIT" in refused.values[1]
    assert "while another runs" in refused.values[1] and "'processor'" in refused.values[1]
    assert timed_out.values[0] == "__error__" and "no batch within 1 s" in timed_out.values[1]


def test_a_second_init_is_refused(gpt_graph):
    """A group's atomics are initialized once, when it is built: a second
    INIT on its link is refused with one line that names the group, and
    the group still serves the run."""
    plan = spread_plan(gpt_graph)
    with thread_services(plan, names=["processor"]):
        sock = _dial(plan.endpoints["processor"])
        try:
            write_frame(sock, WireFrame(INIT, values=(0,)))
            first = read_frame(sock)
            write_frame(sock, WireFrame(INIT, values=(0,)))
            second = read_frame(sock)
            write_frame(sock, WireFrame(EXIT))
            exited = read_frame(sock)
        finally:
            sock.close()
    assert first.values == (["processor", "inf"],), first.values
    assert second.values[0] == "__error__", second.values
    assert second.values[1] == (f"the process of 'processor' at {plan.endpoints['processor']} "
                                "got a second INIT")
    assert exited.command == ACK and exited.values[0] != "__error__"


def test_a_deltfcn_leaves_no_stale_event_behind(gpt_graph, monkeypatch):
    """A select that reports both a DELTFCN and the peer batch it waits for:
    the DELTFCN files the batch itself, and the group then selects again
    rather than read the peer link on the stale event, which would hold it
    until the read timeout."""
    plan = spread_plan(gpt_graph)
    endpoint = plan.endpoints["processor"]
    (group,) = serve_simulators(plan, ["processor"], timeouts=Timeouts(read=3.0))
    stalls = [0.3]
    encode_time = distributed.encode_time

    def stalling_encode_time(t):  # INIT encodes the processor's tN first
        if stalls:
            time.sleep(stalls.pop())
        return encode_time(t)

    monkeypatch.setattr(distributed, "encode_time", stalling_encode_time)
    try:
        peer = _peer_link(endpoint)
        write_frame(peer, WireFrame(PROPAGATE))  # the group now watches the link
        sock = _dial(endpoint)
        try:
            write_frame(sock, WireFrame(INIT, values=(0,)))
            time.sleep(0.1)  # the group is in INIT while both frames arrive
            write_frame(sock, WireFrame(DELTFCN, time=0.0,
                                        values=([], ["processor"], ["generator"])))
            write_frame(peer, WireFrame(PROPAGATE, values=(
                ["generator", "out", "processor", "in", ["job"]],)))
            assert read_frame(sock).command == ACK and stalls == []
            reply = read_frame(sock)  # the job arrived: the processor is busy
            assert reply.values == (["processor", 1.0],), reply.values
            started = time.monotonic()
            write_frame(sock, WireFrame(EXIT))
            assert read_frame(sock).command == ACK
            assert time.monotonic() - started < 1.0
        finally:
            sock.close()
            peer.close()
    finally:
        group.stop()


def test_bad_first_frame_is_rejected_with_one_line(gpt_graph):
    plan = spread_plan(gpt_graph)
    with thread_services(plan, names=["processor"]):
        sock = _dial(plan.endpoints["processor"])
        try:
            sock.sendall(b"\x00\x00\x00\x02{]")
            reply = read_frame(sock)
            closed = read_frame(sock)
        finally:
            sock.close()
    assert reply.command == ACK and reply.values[0] == "__error__"
    assert "bad first frame" in reply.values[1] and "'processor'" in reply.values[1]
    assert str(plan.endpoints["processor"]) in reply.values[1]
    assert "\n" not in reply.values[1]
    assert closed is None  # the service hangs up


def test_exit_shuts_the_service_down(gpt_graph):
    plan = spread_plan(gpt_graph)
    (group,) = serve_simulators(plan, ["generator"])
    sock = _dial(plan.endpoints["generator"])
    try:
        write_frame(sock, WireFrame(INIT, values=(0,)))
        read_frame(sock)
        write_frame(sock, WireFrame(EXIT))
        reply = read_frame(sock)
        assert reply.command == ACK
        # ints, exts, events, dropped, PROPAGATE frames; one trace per atomic
        *totals, traces = reply.values
        assert totals == [0, 0, 0, 0, 0]  # the generator counts nothing
        assert traces == [["generator", []]]
    finally:
        sock.close()
    group.join(timeout=5.0)
    assert group._stop.is_set()
    with pytest.raises(OSError):
        _dial(plan.endpoints["generator"])


def test_gpt_distributed_equals_sequential(gpt_graph):
    plan = spread_plan(gpt_graph)
    with thread_services(plan):
        report = run_coordinator(plan, trace=True)
    sequential = SequentialCoordinator(build_gpt(), trace=True).simulate()
    assert report.counter_triple() == sequential.counter_triple()
    assert report.cycles == sequential.cycles
    assert report.trace_text() == sequential.trace_text()


def _addressed_command_counts(graph, group_of=None) -> tuple[int, int, Counter, Counter]:
    """(imminent processes, DELTFCN frames) for ``graph``, from a
    sequential oracle: per cycle, the service processes hosting an
    imminent simulator, and those hosting an imminent simulator or one of
    its coupling targets, to which the coordinator sends a DELTFCN.
    ``group_of`` maps an atomic to its process; by default every atomic has
    a process of its own, and the first count must then equal the oracle's
    int and con transitions. The third item counts the
    PROPAGATE frames that services send each other: per (sender process,
    receiver process) pair, the cycles with an imminent sender coupled
    across that pair. The fourth counts the DELTFCN frames by (time,
    receiving process, senders named): the imminent simulators of other
    processes coupled into the receiving one, in plan order."""
    oracle = SequentialCoordinator(graph, trace=True).simulate()
    kinds = [entry.kind for trace in oracle.traces.values() for entry in trace]
    targets = {}
    for coupling in flatten(graph).couplings:
        targets.setdefault(coupling.src.component, set()).add(coupling.dst.component)
    group_of = group_of or {name: name for name in oracle.traces}
    stepper = SequentialCoordinator(graph)
    lambdas = deltfcns = 0
    pushes, named = Counter(), Counter()
    while not math.isinf(t := stepper.time_advance()):
        stepper.clock.t = t
        imminent = {name for name, sim in stepper.simulators.items() if sim.tN == t}
        active = imminent.union(*(targets.get(n, ()) for n in imminent))
        lambdas += len({group_of[name] for name in imminent})
        deltfcns += len({group_of[name] for name in active})
        pushes.update({(group_of[src], group_of[dst]) for src in imminent
                       for dst in targets.get(src, ()) if group_of[src] != group_of[dst]})
        for group in {group_of[name] for name in active}:
            named[(t, group, tuple(
                src for src in stepper.simulators if src in imminent
                and group_of[src] != group
                and any(group_of[dst] == group for dst in targets.get(src, ()))))] += 1
        stepper.run_lambda()
        stepper.run_deltfcn()
    if len(set(group_of.values())) == len(group_of):
        assert lambdas == kinds.count("int") + kinds.count("con")
    return lambdas, deltfcns, pushes, named


def test_coordinator_relays_no_propagate_frames(gpt_graph):
    plan = spread_plan(gpt_graph)
    with thread_services(plan):
        report = run_coordinator(plan, trace=False)
    sent = report.diagnostics["frames_sent"]
    assert sent.get("PROPAGATE", 0) == 0
    assert report.diagnostics["frames_received"].get("PROPAGATE", 0) == 0
    _, deltfcns, _, _ = _addressed_command_counts(build_gpt())
    assert sent == {"INIT": 3, "DELTFCN": deltfcns, "EXIT": 3}


def test_ho_distributed_counters_and_traces():
    plan = spread_plan(generate(DevstoneConfig("HO", 4, 3)))
    with thread_services(plan):
        report = run_coordinator(plan, trace=True)
    sequential = SequentialCoordinator(
        generate(DevstoneConfig("HO", 4, 3)), trace=True).simulate()
    assert report.counter_triple() == sequential.counter_triple()
    assert report.trace_text() == sequential.trace_text()
    assert report.diagnostics["dropped_events"] == sequential.diagnostics["dropped_events"]
    _, deltfcns, pushes, _ = _addressed_command_counts(
        generate(DevstoneConfig("HO", 4, 3)))
    atomics = len(plan.endpoints)
    assert report.diagnostics["frames_sent"] == {
        "INIT": atomics, "DELTFCN": deltfcns, "EXIT": atomics}
    assert report.diagnostics["peer_frames"] == sum(pushes.values())


def _run_blocks(config, groups, monkeypatch):
    """Run ``config`` on ``groups`` co-hosted groups of contiguous atomics,
    each at one plan endpoint, check it against the sequential trace, and
    return the report, each atomic's group, the (pushing group, dialled
    group) of every peer dial and the DELTFCN frames by (time, receiving
    group, senders named)."""
    graph = generate(config)
    plan = grouped_plan(graph, blocks_of(graph, groups))
    names = list(plan.endpoints)
    blocks = list(plan.groups().values())
    assert len(blocks) == groups
    group_of = {name: i for i, block in enumerate(blocks) for name in block}
    owner = {plan.endpoints[name].main_addr(): name for name in names}
    dials = []
    dial = socket.create_connection

    def recording_dial(address, *args, **kwargs):
        # A push runs on the group's thread, named svc-<first atomic of the
        # group>; the coordinator dials from this thread.
        pusher = threading.current_thread().name
        if pusher.startswith("svc-"):
            pusher = pusher.removeprefix("svc-").split("-")[0]
            dials.append((group_of[pusher], group_of[owner[address]]))
        return dial(address, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", recording_dial)
    named = Counter()
    write = distributed.write_frame

    def recording_write(sock, frame):
        # Only the coordinator writes DELTFCN frames.
        if frame.command == DELTFCN:
            _, atomics, senders = frame.values
            named[(frame.time, group_of[atomics[0]], tuple(senders))] += 1
        write(sock, frame)

    monkeypatch.setattr(distributed, "write_frame", recording_write)
    started = []
    try:
        for block in blocks:
            started.extend(serve_simulators(plan, block))
        report = run_coordinator(plan, trace=True)
    finally:
        for group in started:
            group.stop()
    sequential = SequentialCoordinator(generate(config), trace=True).simulate()
    assert report.trace_text() == sequential.trace_text()
    assert report.counter_triple() == sequential.counter_triple()
    return report, group_of, dials, named


@pytest.mark.parametrize("groups", [1, 2])
def test_cohosted_groups_push_in_memory(groups, monkeypatch):
    """Services co-hosted in one group reproduce the sequential trace. Only
    pushes between different groups dial a peer's endpoint, exactly once per
    ordered pair of groups that exchanges values, and such a pair gets one
    PROPAGATE frame per cycle. Each DELTFCN names exactly the imminent
    senders of other groups coupled into its group."""
    config = DevstoneConfig("HO", 4, 3)
    report, group_of, dials, named = _run_blocks(config, groups, monkeypatch)
    _, deltfcns, pushes, senders = _addressed_command_counts(generate(config),
                                                             group_of)
    assert named == senders
    assert sorted(dials) == sorted(pushes), dials
    assert bool(dials) == (groups > 1)  # cross-group pushes still use TCP
    assert report.diagnostics["peer_frames"] == sum(pushes.values())
    # One frame per group and phase: INIT and EXIT reach every group once.
    assert report.diagnostics["frames_sent"] == {
        "INIT": groups, "DELTFCN": deltfcns, "EXIT": groups}


def test_two_blocks_of_ho55_send_four_peer_frames(monkeypatch):
    """HO(5,5) in two contiguous blocks, as distributed-local runs it on two
    CPUs: 12 cross-block pushes per run, batched into 4 PROPAGATE frames,
    which the 4 DELTFCN frames to block 1 that name senders wait for."""
    config = DevstoneConfig("HO", 5, 5)
    report, group_of, dials, named = _run_blocks(config, 2, monkeypatch)
    lambdas, deltfcns, pushes, senders = _addressed_command_counts(generate(config),
                                                                   group_of)
    assert named == senders
    assert sum(n for (_, _, names), n in named.items() if names) == 4
    assert report.diagnostics["frames_sent"] == {
        "INIT": 2, "DELTFCN": deltfcns, "EXIT": 2}
    assert (lambdas, deltfcns) == (9, 10)
    assert sum(pushes.values()) == report.diagnostics["peer_frames"] == 4
    assert sorted(dials) == sorted(pushes) == [(0, 1)]  # HO feeds forward only


def test_multi_sender_fan_in_matches_sequential_order():
    graph = fan_out_model(senders=3, receivers=2)
    sequential = SequentialCoordinator(fan_out_model(3, 2), trace=True).simulate()
    plan = spread_plan(graph)
    with thread_services(plan):
        report = run_coordinator(plan, trace=True)
    assert report.trace_text() == sequential.trace_text()


def test_cohosted_fan_in_under_frequent_switches():
    """Two co-hosted receivers take pushes from the four senders of their
    own group, in memory, while the four senders of another group, or of
    two other groups on two links, push into them over TCP at the same
    time; no value may be lost or reordered."""
    sequential = SequentialCoordinator(fan_out_model(8, 2), trace=True).simulate()
    local = [f"s{i}" for i in range(4)] + ["r0", "r1"]
    layouts = ((local, [f"s{i}" for i in range(4, 8)]),
               (local, ["s4", "s5"], ["s6", "s7"]))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for blocks in layouts * 3:
            plan = grouped_plan(fan_out_model(8, 2), blocks)
            groups = []
            try:
                for block in blocks:
                    groups.extend(serve_simulators(plan, block))
                report = run_coordinator(plan, trace=True,
                                         timeouts=Timeouts(connect=5.0, read=20.0))
            finally:
                for group in groups:
                    group.stop()
            assert report.trace_text() == sequential.trace_text()
    finally:
        sys.setswitchinterval(interval)


def test_group_checks_the_plan_once(monkeypatch):
    """A process that serves many endpoints checks the plan once and walks
    its couplings once, not once per group."""
    plan = spread_plan(generate(DevstoneConfig("HO", 4, 3)))
    checks, indexes = [], []
    check, index = DistributedPlan.check, distributed._index

    def counting_check(self):
        checks.append(self)
        return check(self)

    def counting_index(plan):
        indexes.append(plan)
        return index(plan)

    monkeypatch.setattr(DistributedPlan, "check", counting_check)
    monkeypatch.setattr(distributed, "_index", counting_index)
    groups = serve_simulators(plan, plan.endpoints)
    try:
        assert len(groups) == len(plan.endpoints) > 1
        assert (len(checks), len(indexes)) == (1, 1)
        assert [group.names for group in groups] == [[name] for name in plan.endpoints]
    finally:
        for group in groups:
            group.stop()


@pytest.mark.parametrize("cpus, blocks, pools", [
    ({0}, 1, [None]),
    ({0, 1}, 1, ["2"]),
    ({0, 1}, 2, [None, None]),
    ({0, 1, 2, 3}, 2, ["2", "2"]),
    ({0, 1, 2}, 2, [None, "2"]),
], ids=["one-cpu", "two-cpus", "two-groups-two-cpus", "two-groups-four-cpus",
        "two-groups-three-cpus"])
def test_group_engine_follows_its_cpu_share(monkeypatch, cpus, blocks, pools):
    """The groups of one process divide the CPUs it may run on, at least
    one each: a group with one CPU runs its block sequentially, one with
    more on a pool of that many workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    graph = generate(DevstoneConfig("HO", 3, 3))
    plan = grouped_plan(graph, blocks_of(graph, blocks))
    groups = serve_simulators(plan, plan.endpoints)
    try:
        assert [group.engine.plan.label()
                if isinstance(group.engine, ParallelCoordinator) else None
                for group in groups] == pools
        assert all(type(group.engine) is SequentialCoordinator
                   for group, pool in zip(groups, pools) if pool is None)
    finally:
        for group in groups:
            group.stop()


def test_batched_command_failure_names_the_failing_atomic():
    """A transition that raises inside a co-hosted group ends the run with
    an error naming that atomic, not the group's dialled one, well inside
    the read timeout and without leaving a service thread behind."""
    graph = ModelGraph("toy")
    graph.add_component(atomic_spec("s0", "emit_once"))
    graph.add_component(atomic_spec("r0", "collector"))
    graph.add_component(atomic_spec("r1", "raise_ext"))
    for receiver in ("r0", "r1"):
        graph.connect("s0", "out", receiver, "in")
    blocks = (["s0"], ["r0", "r1"])  # the second group's first atomic is r0
    plan = grouped_plan(graph, blocks)
    before = set(threading.enumerate())
    groups = []
    read_timeout = 20.0
    started = time.monotonic()
    try:
        for block in blocks:
            groups.extend(serve_simulators(plan, block))
        with pytest.raises(SimulationError) as err:
            run_coordinator(plan, timeouts=Timeouts(connect=5.0, read=read_timeout))
    finally:
        for group in groups:
            group.stop()
    elapsed = time.monotonic() - started
    for group in groups:
        group.join(timeout=5.0)
    assert "'r1'" in str(err.value) and "injected delta_ext failure" in str(err.value)
    assert elapsed < read_timeout / 4, elapsed
    left = [t.name for t in threading.enumerate()
            if t not in before and t.name.startswith(("coord", "svc-"))]
    assert left == []


def _swap_model():
    graph = ModelGraph("swap")
    for name in ("a", "b"):
        graph.add_component(atomic_spec(name, "swap_large"))
    graph.connect("a", "out", "b", "in")
    graph.connect("b", "out", "a", "in")
    return graph


def test_groups_that_push_large_batches_to_each_other_finish_the_cycle():
    """Two groups that send each other a batch larger than the loopback
    socket buffers in one cycle finish it well inside the read timeout:
    while its link to the peer is full, a group files the peer's batch."""
    plan = spread_plan(_swap_model())
    started = time.monotonic()
    with thread_services(plan) as groups:
        report = run_coordinator(plan, timeouts=Timeouts(connect=5.0, read=20.0))
        received = [group.engine.simulators[group.names[0]].model.received
                    for group in groups]
    assert time.monotonic() - started < 10.0
    sequential = SequentialCoordinator(_swap_model()).simulate()
    assert report.counter_triple() == sequential.counter_triple()
    assert received == [[SwapLarge.size], [SwapLarge.size]]


def test_launcher_group_and_another_that_push_large_batches_to_each_other_finish_the_cycle():
    """Under distributed-local, block 0's group, which the coordinator runs
    in-process, and the other group (forked, or on a thread of its own on a
    single CPU) send each other a batch larger than the loopback socket
    buffers in one cycle, and finish it well inside the read timeout."""
    from pdevsim.bench import run_distributed_local
    plan = grouped_plan(_swap_model(), [["a"], ["b"]])
    started = time.monotonic()
    report = run_distributed_local(plan, timeouts=Timeouts(connect=5.0, read=20.0))
    assert time.monotonic() - started < 10.0
    sequential = SequentialCoordinator(_swap_model()).simulate()
    assert report.counter_triple() == sequential.counter_triple()
    assert report.diagnostics["peer_frames"] == 2


def test_missing_peer_batch_fails_within_the_read_timeout():
    """A DELTFCN names a sender whose PROPAGATE never comes: the receiving
    process gives up after its read timeout, naming the coupling and the
    receiving atomic, and no service thread is left behind."""
    graph = ModelGraph("toy")
    graph.add_component(atomic_spec("s0", "emit_once"))
    graph.add_component(atomic_spec("r0", "collector"))
    graph.connect("s0", "out", "r0", "in")
    plan = spread_plan(graph)
    before = set(threading.enumerate())
    groups = []
    started = time.monotonic()
    try:
        for block in (["s0"], ["r0"]):
            groups.extend(serve_simulators(plan, block, timeouts=Timeouts(read=1.0)))
        groups[0]._ship = lambda imminent: None  # the batch is lost on the way
        with pytest.raises(SimulationError) as err:
            run_coordinator(plan, timeouts=Timeouts(connect=5.0, read=10.0))
    finally:
        for group in groups:
            group.stop()
    elapsed = time.monotonic() - started
    for group in groups:
        group.join(timeout=5.0)
    message = str(err.value)
    assert "from 's0' port 'out' to 'r0' port 'in'" in message, message
    assert "no batch within 1 s" in message
    assert elapsed < 3.0, elapsed
    left = [t.name for t in threading.enumerate()
            if t not in before and t.name.startswith(("coord", "svc-"))]
    assert left == []


def test_coordinator_timeout_names_the_awaited_senders():
    """When the coordinator gives up on a DELTFCN first, its error names
    the command, the cycle time and the senders whose batches the process
    waits for; stopping the groups ends that wait."""
    graph = ModelGraph("toy")
    graph.add_component(atomic_spec("s0", "emit_once"))
    graph.add_component(atomic_spec("r0", "collector"))
    graph.connect("s0", "out", "r0", "in")
    plan = spread_plan(graph)
    before = set(threading.enumerate())
    groups = []
    started = time.monotonic()
    try:
        for block in (["s0"], ["r0"]):
            groups.extend(serve_simulators(plan, block, timeouts=Timeouts(read=30.0)))
        groups[0]._ship = lambda imminent: None  # the batch is lost on the way
        with pytest.raises(SimulationError) as err:
            run_coordinator(plan, timeouts=Timeouts(connect=5.0, read=1.0))
    finally:
        for group in groups:
            group.stop()
    for group in groups:
        group.join(timeout=5.0)
    elapsed = time.monotonic() - started
    message = str(err.value)
    assert message == (f"simulator 'r0' at {plan.endpoints['r0']} timed out after 1 s "
                       "on DELTFCN at t=0.0 waiting for the batches of 's0'")
    assert elapsed < 3.0, elapsed
    left = [t.name for t in threading.enumerate()
            if t not in before and t.name.startswith(("coord", "svc-"))]
    assert left == []


@pytest.mark.parametrize("workers", [1, 2])
def test_batch_members_run_at_once(workers, monkeypatch):
    """The members that one DELTFCN names imminent run at the same time: two
    co-hosted atomics whose output functions wait for each other finish
    with two workers and fail with one."""
    graph = ModelGraph("toy")
    for name in ("a0", "a1"):
        graph.add_component(atomic_spec(name, "rendezvous"))
        graph.add_component(atomic_spec(f"r{name}", "collector"))
        graph.connect(name, "out", f"r{name}", "in")
    plan = grouped_plan(graph, blocks_of(graph, 1))
    before = set(threading.enumerate())
    Rendezvous.barrier = threading.Barrier(2, timeout=5.0 if workers > 1 else 0.5)
    monkeypatch.setattr(distributed, "default_workers", lambda: workers)
    (group,) = serve_simulators(plan, plan.endpoints)
    try:
        if workers > 1:
            report = run_coordinator(plan)
            assert report.cycles == 1
            assert report.diagnostics["frames_sent"] == {
                "INIT": 1, "DELTFCN": 1, "EXIT": 1}
        else:
            with pytest.raises(SimulationError, match="output failed in atomic 'a0'"):
                run_coordinator(plan)
    finally:
        group.stop()
        group.join(timeout=5.0)
    assert [t.name for t in threading.enumerate() if t not in before] == []


@pytest.mark.parametrize("hosted", [
    [["processor", "inf"]],
    [["generator", 0.0], ["ghost", "inf"]],
    [["generator", "soon"]],
    [["generator", 0.0], ["generator", "inf"]],
    [["generator", 0.0], ["processor", "inf"]],
    ["__error__"],
], ids=["misses-itself", "unknown-atomic", "bad-tn", "duplicate-atomic",
        "other-endpoint", "error-without-message"])
def test_bad_init_membership_is_rejected(gpt_graph, hosted):
    plan = spread_plan(gpt_graph)
    endpoint = plan.endpoints["generator"]
    listener = socket.create_server(endpoint.main_addr())
    listener.settimeout(10.0)

    def fake_service():
        conn, _ = listener.accept()
        with conn:
            read_frame(conn)
            write_frame(conn, WireFrame(ACK, values=tuple(hosted)))
            read_frame(conn)  # returns once the coordinator hangs up

    server = threading.Thread(target=fake_service)
    server.start()
    try:
        with thread_services(plan, names=["transducer", "processor"]):
            with pytest.raises(SimulationError, match=f"'generator' at {endpoint}"):
                run_coordinator(plan, timeouts=Timeouts(connect=2.0, read=5.0))
    finally:
        server.join(timeout=10.0)
        listener.close()
    assert not server.is_alive()


def test_coordinator_writes_every_init_before_reading_any_ack(gpt_graph, monkeypatch):
    plan = spread_plan(gpt_graph)
    coordinator = threading.current_thread()
    calls = []
    write, read = distributed.write_frame, distributed.read_frame

    def recording_write(sock, frame):
        if threading.current_thread() is coordinator:
            calls.append(("write", frame.command))
        write(sock, frame)

    def recording_read(sock):
        if threading.current_thread() is coordinator:
            calls.append(("read", None))
        return read(sock)

    monkeypatch.setattr(distributed, "write_frame", recording_write)
    monkeypatch.setattr(distributed, "read_frame", recording_read)
    with thread_services(plan):
        run_coordinator(plan)
    assert calls[:4] == [("write", INIT)] * 3 + [("read", None)]


def test_silent_service_fails_init_within_the_read_timeout(gpt_graph):
    """A service that accepts the connection but never answers INIT ends
    the run after the read timeout, with an error naming its endpoint, its
    atomic and the command, and leaves no thread behind."""
    plan = spread_plan(gpt_graph)
    endpoint = plan.endpoints["generator"]
    listener = socket.create_server(endpoint.main_addr())
    listener.settimeout(10.0)

    def silent_service():
        conn, _ = listener.accept()
        with conn:
            while read_frame(conn) is not None:  # until the coordinator hangs up
                pass

    server = threading.Thread(target=silent_service, name="silent")
    before = set(threading.enumerate())
    server.start()
    started = time.monotonic()
    try:
        with thread_services(plan, names=["transducer", "processor"]):
            with pytest.raises(SimulationError) as err:
                run_coordinator(plan, timeouts=Timeouts(connect=2.0, read=1.0))
        elapsed = time.monotonic() - started
    finally:
        server.join(timeout=10.0)
        listener.close()
    message = str(err.value)
    assert str(endpoint) in message and "'generator'" in message, message
    assert "INIT" in message and "\n" not in message, message
    assert elapsed < 3.0, elapsed
    assert not server.is_alive()
    left = [t.name for t in threading.enumerate()
            if t not in before and t.name.startswith("coord")]
    assert left == []


def test_unreachable_service_names_the_endpoint(gpt_graph):
    plan = spread_plan(gpt_graph)
    victim = plan.endpoints["processor"]
    names = [n for n in plan.endpoints if n != "processor"]
    with thread_services(plan, names=names):
        with pytest.raises(SimulationError) as err:
            run_coordinator(plan, timeouts=Timeouts(connect=0.5, read=5.0))
    assert f"{victim.host}:{victim.main_port}" in str(err.value)


def test_max_iterations_caps_distributed_run(gpt_graph):
    plan = spread_plan(gpt_graph)
    with thread_services(plan):
        report = run_coordinator(plan, max_iterations=1, trace=True)
    assert report.cycles == 1
    generator_trace = report.traces["generator"]
    assert len(generator_trace) == 1


def test_plan_check_rejects_inconsistencies(gpt_graph):
    plan = spread_plan(gpt_graph)
    broken = DistributedPlan(plan.graph, dict(plan.endpoints))
    del broken.endpoints["processor"]
    with pytest.raises(SimulationError, match="processor"):
        broken.check()


def test_plan_check_accepts_shared_endpoints(gpt_graph):
    plan = grouped_plan(gpt_graph, [["generator", "transducer", "processor"]])
    plan.check()
    assert list(plan.groups().values()) == [["generator", "transducer", "processor"]]


def test_plan_requires_closed_flat_model():
    open_graph = fan_out_model(1, 1)
    open_graph.input_ports = ("in",)
    open_graph.connect(open_graph.name, "in", "r0", "in")
    plan = spread_plan(fan_out_model(1, 1))
    bad = DistributedPlan(open_graph, plan.endpoints)
    with pytest.raises(SimulationError, match="closed"):
        bad.check()
