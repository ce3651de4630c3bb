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
from dataclasses import FrozenInstanceError, replace

import pytest

from pdevsim import (DistributedPlan, ModelGraph, ParallelCoordinator,
                     SequentialCoordinator, SimulationError,
                     Timeouts, atomic_spec, build_gpt, flatten,
                     run_coordinator, serve_simulators)
from pdevsim import distributed, model
from pdevsim.devstone import DevstoneConfig, generate
from pdevsim.wire import (ACK, DELTFCN, EXIT, INIT, PROPAGATE, WireFrame,
                          decode_time, encode_time, read_frame, write_frame)

from conftest import (Rendezvous, SwapLarge, blocks_of, fan_out_model,
                      grouped_plan, open_fds, spread_plan, thread_services)


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
            # The hosted atomics, then the group's tN and senders.
            hosted, tn, *senders = reply.values
            assert hosted == ["processor"]
            assert math.isinf(decode_time(tn))  # the processor starts passive
            assert senders == []  # so it lists none
        finally:
            sock.close()


def _peer_link(endpoint):
    """Dial an endpoint as a peer group would; the link becomes a peer link
    with the first PROPAGATE frame written to it."""
    link = socket.create_connection(endpoint.main_addr(), timeout=5.0)
    link.settimeout(10.0)
    return link


def _deltfcn(sock, senders):
    """Send a DELTFCN at time 0 naming ``senders`` and return its reply."""
    write_frame(sock, WireFrame(DELTFCN, time=0.0, values=tuple(senders)))
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
            reply = _deltfcn(sock, ["generator"])
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
            reply = _deltfcn(sock, ["generator"])
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
            reply = _deltfcn(sock, ["generator"])
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


@pytest.mark.parametrize("values", [(7,), ("transducer",), ("processor",)],
                         ids=["flat", "uncoupled-sender", "hosted-sender"])
def test_deltfcn_must_name_senders_coupled_into_the_process(gpt_graph, values):
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
    assert reply.values[0] == "__error__"
    assert "no coupling into the process of 'processor'" in reply.values[1]


def test_deltfcn_past_a_hosted_tn_is_refused(gpt_graph):
    """A DELTFCN at a time past a hosted atomic's tN would skip its event:
    the group's engine refuses it, naming the atomic."""
    plan = spread_plan(gpt_graph)
    with thread_services(plan, names=["generator"]):
        sock = _dial(plan.endpoints["generator"])
        try:
            write_frame(sock, WireFrame(INIT, values=(0,)))
            _, tn, *_ = read_frame(sock).values
            write_frame(sock, WireFrame(DELTFCN, time=decode_time(tn) + 1.0))
            reply = read_frame(sock)
        finally:
            sock.close()
    assert reply.values[0] == "__error__", reply.values
    assert "clock overran atomic 'generator'" in reply.values[1]


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


@pytest.mark.parametrize("threaded", [False, True], ids=["threadless", "threaded"])
def test_serve_runs_a_threadless_group_on_the_calling_thread(monkeypatch, threaded):
    """``serve`` runs a group built without a thread (``local``) on
    the thread that calls it, and only waits for one that has a thread of
    its own (``serve_simulators``, as under ``pdevsim serve``). EXIT ends
    the group from inside its loop, which then closes its sockets and
    selector once, on one thread, and ``serve`` returns."""
    closed, runs = [], []
    close, run = distributed.ServiceGroup._close, distributed.ServiceGroup._run
    monkeypatch.setattr(distributed.ServiceGroup, "_close",
                        lambda self: (closed.append(self), close(self)))
    monkeypatch.setattr(distributed.ServiceGroup, "_run",
                        lambda self: (runs.append(threading.current_thread().name), run(self)))
    graph = generate(DevstoneConfig("HO", 3, 3))
    plan = grouped_plan(graph, [list(flatten(graph).atomics)])
    before = set(threading.enumerate())
    if threaded:
        (group,) = serve_simulators(plan, plan.endpoints)
    else:
        (group,) = distributed._start_groups(
            plan, distributed._listen(plan, plan.groups()), None, local=True)
        assert set(threading.enumerate()) == before
    (listener,) = group._sockets
    codes = []
    server = threading.Thread(
        target=lambda: codes.append(distributed.serve([group], lambda: None)), name="server")
    server.start()
    try:
        report = run_coordinator(plan)
    finally:
        server.join(timeout=10.0)
    assert not server.is_alive() and codes == [0]
    assert report.counter_triple() == (7, 7, 7)
    assert runs == ([f"svc-{group.names[0]}"] if threaded else ["server"])
    assert closed == [group] and listener.fileno() == -1
    assert set(threading.enumerate()) == before


def test_wait_beside_another_thread_makes_one_blocking_call():
    """With a second thread alive, the wait helper never polls: it makes
    one call that waits for the whole timeout."""
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        for timeout in (0.01, None):
            calls = []
            assert distributed._wait(lambda wait: calls.append(wait), timeout) is None
            assert calls == [timeout]
    finally:
        release.set()
        other.join()


class _Clock:
    """A monotonic clock that advances 20 us per reading, from 0."""

    def __init__(self):
        self.now = -20e-6

    def __call__(self):
        self.now += 20e-6
        return self.now


def test_wait_alone_polls_up_data_written_50_us_later(monkeypatch):
    """A thread alone in its process finds data that a peer writes 50 us
    after it starts to wait without a call that blocks."""
    clock = _Clock()
    monkeypatch.setattr(distributed.time, "monotonic", clock)
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    ours, peer = socket.socketpair()
    poller = select.poll()
    poller.register(ours, select.POLLIN)
    waits, written = [], []

    def ready(wait):
        waits.append(wait)
        if clock.now >= 50e-6 and not written:
            written.append(peer.send(b"x"))
        return poller.poll(wait * 1e3)

    with ours, peer:
        assert distributed._wait(ready, 5.0) == [(ours.fileno(), select.POLLIN)]
    assert clock.now < distributed._POLL_S
    assert len(waits) > 1 and set(waits) == {0}


def test_wait_honours_timeouts_of_0_and_below_the_poll_window(monkeypatch):
    """A timeout of 0 makes one call that does not wait. A timeout below
    ``_POLL_S`` ends the polls once it has passed, and no call waits past
    it."""
    clock = _Clock()
    monkeypatch.setattr(distributed.time, "monotonic", clock)
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    for timeout in (0, 0.0, 50e-6, 150e-6, distributed._POLL_S - 1e-6):
        clock.now, calls = -20e-6, []
        assert distributed._wait(lambda wait: calls.append((clock.now, wait)), timeout) is None
        if timeout == 0:
            assert [wait for _, wait in calls] == [0]
            continue
        *polls, (at, wait) = calls
        assert polls and all(t < timeout and w == 0 for t, w in polls)
        assert at >= timeout and wait == 0


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
            write_frame(sock, WireFrame(DELTFCN, time=0.0, values=("generator",)))
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
    assert first.values == (["processor"], "inf"), first.values
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
            write_frame(sock, WireFrame(DELTFCN, time=0.0, values=("generator",)))
            write_frame(peer, WireFrame(PROPAGATE, values=(
                ["generator", "out", "processor", "in", ["job"]],)))
            assert read_frame(sock).command == ACK and stalls == []
            # The job arrived: the processor is busy until 1.0, and then its
            # output enters the transducer's group.
            reply = read_frame(sock)
            assert reply.values == (1.0, "processor"), reply.values
            started = time.monotonic()
            write_frame(sock, WireFrame(EXIT))
            assert read_frame(sock).command == ACK
            assert time.monotonic() - started < 1.0
        finally:
            sock.close()
            peer.close()
    finally:
        group.stop()


def _sender_and_collector():
    """s0 emits once at time 0 into r0, at an endpoint of its own."""
    graph = ModelGraph("toy")
    graph.add_component(atomic_spec("s0", "emit_once"))
    graph.add_component(atomic_spec("r0", "collector"))
    graph.connect("s0", "out", "r0", "in")
    return spread_plan(graph)


def test_a_peer_link_dialled_on_the_first_push_opens_with_an_empty_propagate():
    """Under serve, a group dials a peer on its first push to it, not at
    INIT, and the first frame on the link is an empty PROPAGATE, then the
    batch."""
    plan = _sender_and_collector()
    peer = socket.create_server(plan.endpoints["r0"].main_addr())
    try:
        with thread_services(plan, names=["s0"]):
            sock = _dial(plan.endpoints["s0"])
            try:
                write_frame(sock, WireFrame(INIT, values=(0,)))
                assert read_frame(sock).command == ACK
                assert not select.select([peer], [], [], 0.1)[0]  # not dialled at INIT
                write_frame(sock, WireFrame(DELTFCN, time=0.0))
                reply = read_frame(sock)
                peer.settimeout(5.0)
                link, _ = peer.accept()
                with link:
                    link.settimeout(5.0)
                    frames = [read_frame(link), read_frame(link)]
                write_frame(sock, WireFrame(EXIT))
                assert read_frame(sock).command == ACK
            finally:
                sock.close()
    finally:
        peer.close()
    assert reply.values == ("inf",), reply.values  # s0 is passive, so no sender
    assert [(frame.command, frame.values) for frame in frames] == [
        (PROPAGATE, ()), (PROPAGATE, (["s0", "out", "r0", "in", ["s0"]],))]


def test_an_unreachable_peer_is_reported_by_the_deltfcn_that_pushes_to_it():
    """Under serve, a group whose peer's endpoint refuses connections
    answers the DELTFCN that pushes to it, within the connect timeout, with
    one line naming the peer's atomic and endpoint, and still serves; it
    leaves no thread or socket behind once it ends."""
    plan = _sender_and_collector()
    before, fds = set(threading.enumerate()), open_fds()
    (group,) = serve_simulators(plan, ["s0"], timeouts=Timeouts(connect=2.0, read=5.0))
    try:
        sock = _dial(plan.endpoints["s0"])
        try:
            write_frame(sock, WireFrame(INIT, values=(0,)))
            assert read_frame(sock).command == ACK
            started = time.monotonic()
            write_frame(sock, WireFrame(DELTFCN, time=0.0))
            reply = read_frame(sock)
            elapsed = time.monotonic() - started
            write_frame(sock, WireFrame(EXIT))
            exited = read_frame(sock)
        finally:
            sock.close()
        group.join(timeout=5.0)
    finally:
        group.stop()
    assert reply.values[0] == "__error__", reply.values
    assert reply.values[1].startswith(
        f"the process of 'r0' at {plan.endpoints['r0']} unreachable: "), reply.values[1]
    assert "\n" not in reply.values[1]
    assert elapsed < 2.0, elapsed
    assert exited.command == ACK and exited.values[0] != "__error__"
    assert [t.name for t in threading.enumerate()
            if t not in before and t.name.startswith("svc-")] == []
    assert open_fds() == fds


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


def _transcript(plan, iterations=None, trace=True) -> list[tuple]:
    """What the coordinator must read when ``plan`` runs, derived from the
    sequential oracle stepped over the plan's grouping: one entry per
    INIT (cycle 0) or cycle and addressed group, in group order, holding
    (cycle, group, command, time, the command's values, its ACK's values).
    A group is its index in plan order. A DELTFCN reaches each group
    hosting an imminent atomic or fed by one in another group, and names
    those senders in plan order. Each ACK carries the group's next tN and
    the hosted atomics imminent then whose output enters another group,
    none when the group is passive; INIT's first gives the hosted atomics."""
    blocks = list(plan.groups().values())
    group_of = {name: group for group, block in enumerate(blocks) for name in block}
    feeds = {}  # each atomic's output: the other groups it enters
    for coupling in plan.graph.couplings:
        src, dst = group_of[coupling.src.component], group_of[coupling.dst.component]
        if src != dst:
            feeds.setdefault(coupling.src.component, set()).add(dst)
    stepper = SequentialCoordinator(plan.graph)
    sims = stepper.simulators

    def ack(group):
        tn = min(sims[name].tN for name in blocks[group])
        return (encode_time(tn), *[name for name in blocks[group] if name in feeds
                                   and sims[name].tN == tn and not math.isinf(tn)])

    entries = [(0, group, INIT, None, (1 if trace else 0,), (block, *ack(group)))
               for group, block in enumerate(blocks)]
    cycle = 0
    while (iterations is None or cycle < iterations) and not math.isinf(
            t := stepper.time_advance()):
        cycle += 1
        imminent = [name for name, sim in sims.items() if sim.tN == t]
        named = {group_of[name]: [] for name in imminent}
        for name in imminent:
            for group in sorted(feeds.get(name, ())):
                named.setdefault(group, []).append(name)
        stepper.clock.t = t
        stepper.run_lambda()
        stepper.run_deltfcn()
        entries += [(cycle, group, DELTFCN, t, tuple(named[group]), ack(group))
                    for group in sorted(named)]
    return entries


def _recorder(monkeypatch) -> list[tuple]:
    """Record every reply to an INIT or DELTFCN that a DistributedCoordinator
    reads from now on, the in-process group's too, as (phase, plan, and the
    rest of a transcript entry, see _transcript): the list fills as runs
    go. The coordinator writes a whole phase before it reads a reply, so
    its frame count when it reads tells the phase."""
    recorded = []
    read = distributed.DistributedCoordinator._read

    def recording_read(self, endpoint, sent):
        reply = read(self, endpoint, sent)
        if sent.command != EXIT:
            recorded.append((sum(self.frames_sent.values()), self.plan,
                             list(self.plan.groups()).index(endpoint), sent.command,
                             sent.time, sent.values, reply.values))
        return reply

    monkeypatch.setattr(distributed.DistributedCoordinator, "_read", recording_read)
    return recorded


def _assert_same_transcript(recorded, iterations=None, trace=True):
    """The transcript of the one run recorded equals the oracle's, entry by
    entry: the first difference is reported with its cycle, group and
    frame. Each DELTFCN ACK holds at most the tN and each atomic of the
    group whose output enters another group."""
    plan = recorded[0][1]
    assert all(entry[1] is plan for entry in recorded)
    phases = sorted({entry[0] for entry in recorded})
    got = sorted((phases.index(phase), *rest) for phase, _, *rest in recorded)
    expected = _transcript(plan, iterations, trace)
    for want, have in zip(expected, got):
        assert have == want, (f"cycle {want[0]}, group {want[1]}: {want[2]} at "
                              f"t={want[3]} with values {want[4]}, ACK {want[5]}; "
                              f"the run had {have}")
    assert len(got) == len(expected), f"{len(got)} entries, the oracle {len(expected)}"
    couplings = plan.graph.couplings
    for _, group, command, _, _, ack in got:
        hosted = list(plan.groups().values())[group]
        boundary = {c.src.component for c in couplings if c.src.component in hosted
                    and c.dst.component not in hosted}
        assert command == INIT or len(ack) <= 1 + len(boundary)


def _counts(plan, iterations=None) -> tuple[int, int, Counter, Counter]:
    """Frame counts of the oracle's transcript (see _transcript): the
    (cycle, group) pairs whose group hosts an imminent atomic; DELTFCN
    frames; the PROPAGATE frames that groups send each other, by (sender
    group, receiver group), one per cycle in which the receiver waits for
    a sender of that group; and the DELTFCN frames by (time, group,
    senders named)."""
    group_of = {name: group for group, block in enumerate(plan.groups().values())
                for name in block}
    imminent, deltfcns, pushes, named = 0, 0, Counter(), Counter()
    tn = {}  # each group's tN, from its last ACK
    for _, group, command, t, values, ack in _transcript(plan, iterations):
        if command == DELTFCN:
            imminent += tn[group] == t
            deltfcns += 1
            pushes.update({(group_of[sender], group) for sender in values})
            named[(t, group, values)] += 1
        tn[group] = decode_time(ack[1] if command == INIT else ack[0])
    return imminent, deltfcns, pushes, named


def _zero_delay_cycle():
    """A source whose job circles between two zero-delay processors, in
    two groups whose couplings cross both ways, with a devstone sink:
    virtual time stands still, so a run ends only at its iteration cap."""
    graph = ModelGraph("loop")
    graph.add_component(atomic_spec("s0", "emit_once"))
    for name in ("p0", "p1"):
        graph.add_component(atomic_spec(name, "processor", delay_int=0.0))
    graph.add_component(atomic_spec("d0", "devstone"))
    graph.connect("s0", "out", "p0", "in")
    graph.connect("p0", "out", "p1", "in")
    graph.connect("p1", "out", "p0", "in")
    graph.connect("p1", "out", "d0", "in")
    return graph


@pytest.mark.parametrize("case", ["gpt-spread", "ho43-1", "ho43-2", "ho43-3",
                                  "ho55-distributed-local", "zero-delay-cycle",
                                  "interleaved-fan-in"])
def test_protocol_transcript_matches_the_oracle(case, monkeypatch):
    """Every DELTFCN (its time and senders) and every ACK (tN and senders)
    that the coordinator exchanges equals what the sequential oracle,
    stepped over the same grouping, says it must be. In the interleaved
    fan-in, r0 waits for s0 and s2 of one group and s1 of another, named
    in plan order."""
    recorded = _recorder(monkeypatch)
    iterations = None
    if case == "ho55-distributed-local":
        from pdevsim.bench import run_distributed_local
        run_distributed_local(generate(DevstoneConfig("HO", 5, 5)), trace=True)
    else:
        if case == "gpt-spread":
            plan = spread_plan(build_gpt())
        elif case == "zero-delay-cycle":
            plan, iterations = grouped_plan(_zero_delay_cycle(), [["s0", "p1"], ["p0", "d0"]]), 25
        elif case == "interleaved-fan-in":
            plan = grouped_plan(fan_out_model(3, 1), [["s0", "s2"], ["s1"], ["r0"]])
        else:
            graph = generate(DevstoneConfig("HO", 4, 3))
            plan = grouped_plan(graph, blocks_of(graph, int(case[-1])))
        with thread_services(plan):
            run_coordinator(plan, iterations, trace=True)
    _assert_same_transcript(recorded, iterations)


def test_coordinator_relays_no_propagate_frames(gpt_graph):
    plan = spread_plan(gpt_graph)
    with thread_services(plan):
        report = run_coordinator(plan, trace=False)
    sent = report.diagnostics["frames_sent"]
    assert sent.get("PROPAGATE", 0) == 0
    assert report.diagnostics["frames_received"].get("PROPAGATE", 0) == 0
    _, deltfcns, _, _ = _counts(plan)
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
    imminent, deltfcns, pushes, _ = _counts(plan)
    # One atomic per group: each imminent group is one int or con transition.
    kinds = [entry.kind for trace in sequential.traces.values() for entry in trace]
    assert imminent == kinds.count("int") + kinds.count("con")
    atomics = len(plan.endpoints)
    assert report.diagnostics["frames_sent"] == {
        "INIT": atomics, "DELTFCN": deltfcns, "EXIT": atomics}
    assert report.diagnostics["peer_frames"] == sum(pushes.values())


def test_distributed_rows_name_the_group_count():
    """A distributed result row names its resources as a pool row names its
    pool shape: by the groups that the coordinator drives, here 2 for the
    18 atomics of HO(5,5), or 3 for GPT with an endpoint per atomic."""
    from pdevsim.bench import run_distributed_local
    graph = generate(DevstoneConfig("HO", 5, 5))
    report = run_distributed_local(grouped_plan(graph, blocks_of(graph, 2)))
    assert report.workers_pools == "2"
    assert report.csv_row().startswith(f"{report.model},distributed-local,2,")
    plan = spread_plan(build_gpt())
    with thread_services(plan):
        assert run_coordinator(plan).workers_pools == "3"


def _run_blocks(config, groups, monkeypatch):
    """Run ``config`` on ``groups`` co-hosted groups of contiguous atomics,
    each at one plan endpoint, check it against the sequential trace, and
    return the report, the plan, the (pushing group, dialled group) of
    every peer dial and the DELTFCN frames by (time, receiving group,
    senders named)."""
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
            named[(frame.time, group_of[owner[sock.getpeername()]], frame.values)] += 1
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
    return report, plan, dials, named


@pytest.mark.parametrize("groups", [1, 2])
def test_cohosted_groups_push_in_memory(groups, monkeypatch):
    """Services co-hosted in one group reproduce the sequential trace. Only
    pushes between different groups dial a peer's endpoint, exactly once per
    ordered pair of groups that exchanges values, and such a pair gets one
    PROPAGATE frame per cycle. Each DELTFCN names exactly the imminent
    senders of other groups coupled into its group."""
    config = DevstoneConfig("HO", 4, 3)
    report, plan, dials, named = _run_blocks(config, groups, monkeypatch)
    _, deltfcns, pushes, senders = _counts(plan)
    assert named == senders
    assert sorted(dials) == sorted(pushes), dials
    assert bool(dials) == (groups > 1)  # cross-group pushes still use TCP
    assert report.diagnostics["peer_frames"] == sum(pushes.values())
    # One frame per group and phase: INIT and EXIT reach every group once.
    assert report.diagnostics["frames_sent"] == {
        "INIT": groups, "DELTFCN": deltfcns, "EXIT": groups}


def test_each_deltfcn_steps_the_group_engine_once(monkeypatch):
    """A service group steps its engine through the kernel's public cycle
    step: each DELTFCN runs run_lambda, then run_deltfcn, once each."""
    calls = []
    for method in ("run_lambda", "run_deltfcn"):
        original = getattr(SequentialCoordinator, method)

        def recording(self, original=original, method=method):
            calls.append((self, method))
            return original(self)

        monkeypatch.setattr(SequentialCoordinator, method, recording)
    dispatch = distributed.ServiceGroup._dispatch

    def recording_dispatch(self, frame):
        calls.append((self.engine, frame.command))
        return dispatch(self, frame)

    monkeypatch.setattr(distributed.ServiceGroup, "_dispatch", recording_dispatch)
    graph = generate(DevstoneConfig("HO", 4, 3))
    plan = grouped_plan(graph, blocks_of(graph, 3))
    with thread_services(plan) as groups:
        report = run_coordinator(plan, trace=True)
    sequential = SequentialCoordinator(generate(DevstoneConfig("HO", 4, 3)),
                                       trace=True).simulate()
    assert report.trace_text() == sequential.trace_text()
    steps = 0
    for group in groups:
        mine = [call for engine, call in calls if engine is group.engine]
        deltfcns = mine.count(DELTFCN)
        assert mine == [INIT, *[DELTFCN, "run_lambda", "run_deltfcn"] * deltfcns, EXIT]
        steps += deltfcns
    assert steps == report.diagnostics["frames_sent"]["DELTFCN"] > 0


def test_two_blocks_of_ho55_send_four_peer_frames(monkeypatch):
    """HO(5,5) in two contiguous blocks, as distributed-local runs it on two
    CPUs: 12 cross-block pushes per run, batched into 4 PROPAGATE frames,
    which the 4 DELTFCN frames to block 1 that name senders wait for."""
    config = DevstoneConfig("HO", 5, 5)
    report, plan, dials, named = _run_blocks(config, 2, monkeypatch)
    lambdas, deltfcns, pushes, senders = _counts(plan)
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
    """A process that serves many endpoints checks the plan and walks its
    couplings once, when the plan is made, and never validates its graph:
    the flat form that making the plan compiled, which is valid by
    construction."""
    made, walks = [], []
    post_init, walk = DistributedPlan.__post_init__, model._validate_levels

    def counting_post_init(self):
        made.append(self)
        return post_init(self)

    def counting_walk(graph):
        walks.append(graph)
        return walk(graph)

    monkeypatch.setattr(DistributedPlan, "__post_init__", counting_post_init)
    monkeypatch.setattr(model, "_validate_levels", counting_walk)
    plan = spread_plan(generate(DevstoneConfig("HO", 4, 3)))
    groups = serve_simulators(plan, plan.endpoints)
    try:
        assert len(groups) == len(plan.endpoints) > 1
        assert (len(made), walks.count(plan.graph)) == (1, 0)
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


def test_a_group_that_omits_an_imminent_sender_is_reported_at_exit(monkeypatch):
    """HO(4,3) in two blocks, block 0's group patched to list no senders in
    its ACKs. The coordinator, which keeps no atomic's tN, cannot see that,
    and never sends block 1 a DELTFCN; but the batch that block 0 still
    pushes is left in block 1's group, which refuses EXIT naming it, so the
    run does not end with partial counters and no error."""
    graph = generate(DevstoneConfig("HO", 4, 3))
    plan = grouped_plan(graph, blocks_of(graph, 2))
    first, second = plan.groups().values()
    listed = distributed.ServiceGroup._next
    monkeypatch.setattr(distributed.ServiceGroup, "_next", lambda self: (
        listed(self)[:1] if self.names == first else listed(self)))
    with thread_services(plan):
        with pytest.raises(SimulationError) as err:
            run_coordinator(plan, timeouts=Timeouts(connect=2.0, read=5.0))
    assert str(err.value) == (
        f"simulator {second[0]!r} (+{len(second) - 1} co-hosted) at "
        f"{plan.endpoints[second[0]]} reported: PROPAGATE from 'A2_2' port 'out' "
        "to 'A3_2' port 'in': a batch no DELTFCN named")


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


def _fake_group(endpoint, *acks):
    """A thread that serves ``endpoint`` as a fake group: it answers the
    coordinator's first frames with ACKs carrying ``acks``, one each, and
    returns once the coordinator hangs up."""
    listener = socket.create_server(endpoint.main_addr())
    listener.settimeout(10.0)

    def fake_service():
        with listener:
            conn, _ = listener.accept()
            with conn:
                for values in acks:
                    read_frame(conn)
                    write_frame(conn, WireFrame(ACK, values=tuple(values)))
                while read_frame(conn) is not None:  # until the coordinator hangs up
                    pass

    server = threading.Thread(target=fake_service)
    server.start()
    return server


@pytest.mark.parametrize("ack, message", [
    ((["processor"], "inf"), "hosts ['processor'], but the plan puts ['generator'] there"),
    ((["generator", "ghost"], 0.0), "hosts ['generator', 'ghost'], but"),
    ((["generator", "generator"], 0.0), "hosts ['generator', 'generator'], but"),
    ((["generator", "processor"], 0.0), "hosts ['generator', 'processor'], but"),
    (("generator", 0.0), "hosts 'generator', but"),
    ((["generator"], "soon"), "acknowledged INIT with a bad tN: bad time field: 'soon'"),
    ((["generator"], "-inf"), "acknowledged INIT with a bad tN: bad time field: '-inf'"),
    ((["generator"], 0.0, "processor"), "acknowledged INIT listing senders ['processor']: "
                                        "not atomics of that group"),
    (("__error__",), "reported: an error without a message"),
], ids=["misses-itself", "unknown-atomic", "duplicate-atomic", "other-endpoint",
        "names-not-a-list", "bad-tn", "minus-inf-tn", "sender-elsewhere",
        "error-without-message"])
def test_bad_init_membership_is_rejected(gpt_graph, ack, message):
    """An INIT ACK gives the hosted atomics, which must be exactly the
    plan's atomics at that endpoint, then the group's tN and senders: a
    fake generator group that breaks that is refused in one line naming
    it and what is wrong."""
    plan = spread_plan(gpt_graph)
    endpoint = plan.endpoints["generator"]
    server = _fake_group(endpoint, ack)
    try:
        with thread_services(plan, names=["transducer", "processor"]):
            with pytest.raises(SimulationError) as err:
                run_coordinator(plan, timeouts=Timeouts(connect=2.0, read=5.0))
    finally:
        server.join(timeout=10.0)
    assert not server.is_alive()
    assert str(err.value).startswith(f"simulator 'generator' at {endpoint} {message}"), err.value
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("blocks, init, ack", [
    ([["transducer"]], (0.0,), (1.0, "processor")),
    ([["transducer"]], (0.0,), (1.0, "transducer")),
    ([["transducer"]], (0.0,), (1.0, ["transducer"])),
    ([["generator"]], (0.0, "generator"), (1.0, "generator", "generator")),
    ([["generator", "processor"]], (0.0, "generator"), (0.0, "processor", "generator")),
], ids=["other-endpoint", "feeds-no-other-group", "not-a-name", "listed-twice",
        "out-of-plan-order"])
def test_bad_deltfcn_ack_is_rejected(gpt_graph, blocks, init, ack):
    """A group's DELTFCN ACK may list as senders only its own atomics whose
    output enters another group, each once, in plan order: a fake group,
    imminent at 0 by its INIT ACK, that breaks that gets its ACK refused in
    one line naming it and the cycle. (A group that omits an imminent
    sender is not visible to the coordinator: the group that the sender
    feeds reports the batch, see
    test_a_group_that_omits_an_imminent_sender_is_reported_at_exit.)"""
    blocks = blocks + [[name] for name in gpt_graph.atomics if name not in blocks[0]]
    plan = grouped_plan(gpt_graph, blocks)
    fake = blocks[0]
    endpoint = plan.endpoints[fake[0]]
    server = _fake_group(endpoint, (fake, *init), ack)
    try:
        with thread_services(plan, names=[name for block in blocks[1:] for name in block]):
            with pytest.raises(SimulationError) as err:
                run_coordinator(plan, timeouts=Timeouts(connect=2.0, read=5.0))
    finally:
        server.join(timeout=10.0)
    assert not server.is_alive()
    where = f"simulator {fake[0]!r}" + (" (+1 co-hosted)" if len(fake) > 1 else "")
    assert str(err.value) == (
        f"{where} at {endpoint} acknowledged DELTFCN at t=0.0 listing senders "
        f"{list(ack[1:])!r}: not atomics of that group whose output enters another, "
        "once each, in plan order")


def test_bad_deltfcn_ack_of_a_feeding_group_ends_the_run_at_once(gpt_graph):
    """A fake generator group ACKs its DELTFCN at 0 with a tN before that
    cycle and never pushes the batch that the processor waits for. The
    coordinator checks each ACK as it reads it, so the run ends at once
    with the generator's bad ACK, not after the read timeout with the
    processor's wait for that batch."""
    plan = spread_plan(gpt_graph)
    endpoint = plan.endpoints["generator"]
    server = _fake_group(endpoint, (["generator"], 0.0, "generator"), (-1.0,))
    try:
        with thread_services(plan, names=["processor", "transducer"]):
            started = time.monotonic()
            with pytest.raises(SimulationError) as err:
                run_coordinator(plan, timeouts=Timeouts(connect=2.0, read=3.0))
            elapsed = time.monotonic() - started
    finally:
        server.join(timeout=10.0)
    assert not server.is_alive()
    assert str(err.value) == (f"simulator 'generator' at {endpoint} acknowledged DELTFCN "
                              "at t=0.0 with tN=-1.0, earlier than the cycle")
    assert elapsed < 1.5, elapsed


@pytest.mark.parametrize("tn, problem", [
    ("-inf", "with a bad tN: bad time field: '-inf'"),
    (-1.0, "with tN=-1.0, earlier than the cycle"),
], ids=["minus-inf", "earlier"])
def test_an_ack_tn_before_its_cycle_ends_the_run(gpt_graph, monkeypatch, tn, problem):
    """The generator's real group, patched to encode the tN of its DELTFCN
    ACK as ``tn``, before the cycle at 0. The run ends within 1.5 s with
    one line that names the group and the cycle; minus infinity used to
    pass for passivity and end the run with partial counters and no error."""
    plan = spread_plan(gpt_graph)
    lying = set()  # the threads running the generator group's DELTFCN
    dispatch, encode_time = distributed.ServiceGroup._dispatch, distributed.encode_time

    def patched_dispatch(self, frame):
        if frame.command == DELTFCN and self.names == ["generator"]:
            lying.add(threading.get_ident())
        try:
            return dispatch(self, frame)
        finally:
            lying.discard(threading.get_ident())

    monkeypatch.setattr(distributed.ServiceGroup, "_dispatch", patched_dispatch)
    monkeypatch.setattr(distributed, "encode_time",
                        lambda t: tn if threading.get_ident() in lying else encode_time(t))
    groups = serve_simulators(plan, plan.endpoints, timeouts=Timeouts(read=3.0))
    started = time.monotonic()
    try:
        with pytest.raises(SimulationError) as err:
            run_coordinator(plan, 20, timeouts=Timeouts(connect=2.0, read=3.0))
    finally:
        for group in groups:
            group.stop()
    assert time.monotonic() - started < 1.5
    assert str(err.value) == (f"simulator 'generator' at {plan.endpoints['generator']} "
                              f"acknowledged DELTFCN at t=0.0 {problem}")


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
    endpoints = dict(plan.endpoints)
    del endpoints["processor"]
    with pytest.raises(SimulationError, match="processor"):
        DistributedPlan(plan.graph, endpoints)


def test_plan_check_accepts_shared_endpoints(gpt_graph):
    plan = grouped_plan(gpt_graph, [["generator", "transducer", "processor"]])
    assert replace(plan) == plan  # made again, so checked again
    assert list(plan.groups().values()) == [["generator", "transducer", "processor"]]


def test_plan_requires_closed_flat_model():
    open_graph = fan_out_model(1, 1)
    open_graph.input_ports = ("in",)
    open_graph.connect(open_graph.name, "in", "r0", "in")
    plan = spread_plan(fan_out_model(1, 1))
    with pytest.raises(SimulationError, match="closed"):
        DistributedPlan(open_graph, plan.endpoints)


def test_plan_is_checked_when_made_and_read_only(gpt_graph):
    """Making a plan refuses an unknown atomic or an unflattened graph with
    one line that names it; a plan once made cannot be changed."""
    plan = spread_plan(gpt_graph)
    with pytest.raises(SimulationError, match="^endpoint for unknown atomic 'ghost'$"):
        DistributedPlan(plan.graph, {**plan.endpoints, "ghost": plan.endpoints["generator"]})
    nested = ModelGraph("outer")
    nested.add_component(build_gpt())
    with pytest.raises(SimulationError, match="^distributed plan graph must be flattened$"):
        DistributedPlan(nested, plan.endpoints)
    with pytest.raises(TypeError):
        plan.endpoints["processor"] = plan.endpoints["generator"]
    with pytest.raises(FrozenInstanceError):
        plan.endpoints = {}
    assert replace(plan) == plan
    assert plan.graph.frozen
