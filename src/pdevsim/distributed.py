"""Socket-distributed backend.

The plan states the process layout: atomics whose plan endpoints are equal
(``host:port``) are co-hosted by one :class:`ServiceGroup`, which runs the
kernel's cycle engine over them: a :class:`SequentialCoordinator`, or a
:class:`ParallelCoordinator` with one pool of up to one worker per CPU of
its share (the groups of a process divide the CPUs it may run on). Groups
that share a process but not an endpoint push to each other over TCP like
any other peers. A group serves its listener, the coordinator's link and
every peer link from one selector on one thread: a thread of its own, or,
for the first group of a process that ``distributed-local`` forks, the
process's main thread, so such a process that hosts one group runs one
thread. The first frame on an accepted connection says what the
connection is: PROPAGATE opens a link from a peer group, anything else is
the coordinator's link. A thread alone in its process polls its sockets
briefly before it blocks (:func:`_wait`).

The root coordinator sees each group only through its next-event time
(tN), as a Parallel DEVS coordinator sees a coupled child. It writes every
INIT, in plan order, before it reads any reply. Each ACK lists the atomics
at that endpoint, then gives the group's tN and senders: the atomics
imminent then whose output enters another group. Each cycle sends one
DELTFCN, at the minimum tN, to each group at that tN and to each group
that their senders feed, naming those senders in plan order. The group
steps its engine through the kernel's cycle step:

- ``run_lambda`` runs the output functions of its imminent atomics, and
  the group sends each peer group one PROPAGATE frame, not acknowledged,
  holding every coupling from them into that group, or the error of an
  output function that raised, which a peer waiting for the batch reports;
- the group pumps its selector until every coupling from the senders has
  filed its batch;
- ``run_deltfcn`` fills the input bags along every coupling that enters
  the block, in plan coupling order, from the hosted output bags or the
  peers' batches, which keeps bags byte-identical to the sequential
  backend, and runs one transition per imminent atomic or influencee. The
  group answers with its new tN and senders, or with the first error.

The coordinator writes a phase's frame to every group before it reads any
reply, checks each reply as it reads it, and never relays event values.
There is one link per ordered pair of groups that a coupling connects; it
carries PROPAGATE frames only, and nothing is read back from it. A peer
link that ends is reported by the receiving group's next DELTFCN.

A group is built on a listener that is already bound: :func:`serve_simulators`
binds them for ``pdevsim serve``, and the ``distributed-local`` launcher
(:func:`run_distributed_local`, at the end of this module) binds every
listener before it forks. A group dials each peer in
:meth:`ServiceGroup._link`: on its first push to it under ``pdevsim serve``,
before it serves under ``distributed-local``. The coordinator dials the
groups in :meth:`DistributedCoordinator.connect`. The launcher runs its
first group without a thread or a link: the coordinator hands it each
command in-process (see :class:`DistributedCoordinator`). Each process it
forks serves its first group on its main thread (:func:`serve`). Under
``pdevsim serve`` every group has a thread of its own, so the process
never polls: nothing tells it how many other processes share its CPUs.
The coordinator has no endpoint of its own.
"""

from __future__ import annotations

import contextlib
import math
import os
import select
import selectors
import signal
import socket
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping

from .kernel import (RunReport, SequentialCoordinator, SimulationError,
                     Simulator, TraceEntry)
from .model import IC, Coupling, ModelError, ModelGraph, check_event_value, flatten
from .parallel import ParallelCoordinator, PoolPlan, contiguous_blocks, default_workers
from .wire import (ACK, DELTFCN, EXIT, INIT, PROPAGATE, ProtocolError,
                   WireFrame, decode_time, encode_frame, encode_time,
                   read_frame, take_frame, write_frame)

_ERROR_MARK = "__error__"

# How long a thread alone in its process polls before it blocks. On a
# 2-vCPU host, a process blocked in recv/epoll answered a loopback frame
# 38-87 us late, one that polled for 200 us first 15-69 us (medians of 1500
# ping-pong exchanges at 0, 100 and 300 us of peer work); 50 us gained
# nothing, and 1000 us no more than 200.
_POLL_S = 200e-6


@dataclass(frozen=True)
class Endpoint:
    """Where a service group listens. Atomics with equal endpoints are
    co-hosted by one group."""

    host: str
    main_port: int

    def __post_init__(self) -> None:
        if not 1 <= self.main_port <= 65535:
            raise SimulationError(f"port {self.main_port} out of range 1-65535 on {self.host}")
        if not self.host:  # "" would bind every interface
            raise SimulationError(f"empty host for port {self.main_port}")

    def main_addr(self) -> tuple[str, int]:
        return self.host, self.main_port

    def __str__(self) -> str:
        return f"{self.host}:{self.main_port}"


@dataclass(frozen=True)
class Timeouts:
    connect: float = 5.0
    read: float = 60.0


@dataclass(frozen=True)
class DistributedPlan:
    """A flattened closed model plus one endpoint per atomic; atomics that
    share an endpoint are co-hosted. A plan is checked when it is made, and
    refused with a :class:`SimulationError` that names the culprit; its
    graph is then frozen and its endpoints are read-only."""

    graph: ModelGraph
    endpoints: Mapping[str, Endpoint]

    def __post_init__(self) -> None:
        try:
            self.graph.freeze()
        except ModelError as exc:
            raise SimulationError(f"invalid plan graph: {exc}") from None
        if not self.graph.is_flat():
            raise SimulationError("distributed plan graph must be flattened")
        endpoints = MappingProxyType(dict(self.endpoints))
        missing = sorted(self.graph.atomics.keys() - endpoints.keys())
        if missing:
            raise SimulationError(f"no endpoint for atomic {missing[0]!r}")
        unknown = sorted(endpoints.keys() - self.graph.atomics.keys())
        if unknown:
            raise SimulationError(f"endpoint for unknown atomic {unknown[0]!r}")
        object.__setattr__(self, "endpoints", endpoints)
        # Each endpoint's atomics and the couplings that touch them, in plan
        # order; the other endpoints that an atomic's output enters.
        blocks: dict[Endpoint, tuple[list[str], list[Coupling]]] = {}
        feeds: dict[str, list[Endpoint]] = {}
        for name, endpoint in endpoints.items():
            blocks.setdefault(endpoint, ([], []))[0].append(name)
        for coupling in self.graph.couplings:
            if coupling.kind != IC:
                raise SimulationError("distributed plan must be a closed model "
                                      f"(found {coupling.kind} coupling)")
            src, dst = endpoints[coupling.src.component], endpoints[coupling.dst.component]
            for endpoint in {src, dst}:
                blocks[endpoint][1].append(coupling)
            if dst != src and dst not in feeds.get(coupling.src.component, ()):
                feeds.setdefault(coupling.src.component, []).append(dst)
        object.__setattr__(self, "_blocks", blocks)
        object.__setattr__(self, "_feeds", feeds)

    def groups(self) -> dict[Endpoint, list[str]]:
        """The atomics at each endpoint, both in plan order."""
        return {endpoint: list(names) for endpoint, (names, _) in self._blocks.items()}


def _configure(sock: socket.socket, read_timeout: float | None) -> None:
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.settimeout(read_timeout)


def _dial(endpoint: Endpoint, where: str, timeouts: Timeouts) -> socket.socket:
    """A link to the group at ``endpoint``, which ``where`` names, that
    waits ``timeouts.read`` seconds for a reply."""
    try:
        sock = socket.create_connection(endpoint.main_addr(), timeout=timeouts.connect)
    except OSError as exc:
        raise SimulationError(f"{where} unreachable: {exc}") from exc
    _configure(sock, timeouts.read)
    return sock


def _wait(ready, timeout: float | None):
    """What ``ready(wait)`` finds: ``ready`` returns what is ready within
    ``wait`` seconds (None: however long it takes), or something falsy. A
    thread alone in its process first polls, calling it with 0 for up to
    ``_POLL_S`` seconds, since waking from a blocking call costs more; one
    with company never polls, which would take the CPU from the others.
    Never waits past ``timeout`` seconds."""
    if timeout != 0 and threading.active_count() == 1:
        start = now = time.monotonic()
        window = _POLL_S if timeout is None else min(_POLL_S, timeout)
        while now - start < window:
            if found := ready(0):
                return found
            now = time.monotonic()
        if timeout is not None:
            timeout = max(timeout - (now - start), 0.0)
    return ready(timeout)


def _push(key: tuple[str, str, str, str]) -> str:
    """How errors name the coupling ``key``: (sender, port, target, port)."""
    sender, port, target, target_port = key
    return f"PROPAGATE from {sender!r} port {port!r} to {target!r} port {target_port!r}"


class ServiceGroup:
    """The atomics at one plan endpoint, and the kernel engine over them.

    The engine is built, and so its atomics initialized, with the group:
    INIT, once per group, only sets the trace mode and reports the tN. One
    thread serves ``listener``, bound at the endpoint, and every connection
    it accepts from one selector (:meth:`_run`): a thread of its own, or the
    thread that :func:`serve` runs the group on. The coordinator's link
    drives the whole group, and a peer group's link carries that peer's
    pushes to every hosted atomic. :func:`_start_groups` starts the groups.
    """

    def __init__(self, plan: DistributedPlan, endpoint: Endpoint, listener: socket.socket,
                 *, workers: int, timeouts: Timeouts | None = None) -> None:
        self.endpoint = endpoint
        self.names, couplings = plan._blocks[endpoint]
        self.label = f"the process of {self.names[0]!r} at {self.endpoint}"
        block = ModelGraph(plan.graph.name)
        for name in self.names:
            block.add_component(plan.graph.atomics[name])
        block._seal()  # atomics of a valid plan only: valid by construction
        self.timeouts = timeouts or Timeouts()
        workers = min(workers, len(self.names))
        self.engine = (ParallelCoordinator(block, PoolPlan.single_pool(self.names, workers))
                       if workers > 1 else SequentialCoordinator(block))
        sims = self.engine.simulators
        # Couplings into the block, in plan order, read a hosted output bag
        # or the inbound bucket that peers fill; couplings out of it are
        # shipped at DELTFCN to the target's endpoint as [sender, port,
        # target, target port, values].
        routes = []
        self._inbound: dict[tuple[str, str, str, str], list] = {}
        # The inbound couplings of each sender in another group.
        self._feeds: dict[str, list[tuple[str, str, str, str]]] = {}
        self._outbound: dict[str, list[tuple[list, Endpoint, list[str]]]] = {
            name: [] for name in self.names}
        for coupling in couplings:
            src, dst = coupling.src, coupling.dst
            key = (src.component, src.port, dst.component, dst.port)
            if src.component in sims:
                bag = sims[src.component].model.output_bags[src.port]
                if dst.component not in sims:
                    self._outbound[src.component].append(
                        (bag, plan.endpoints[dst.component], list(key)))
                    continue
            else:  # the index lists only couplings that touch the block
                bag = self._inbound[key] = []
                self._feeds.setdefault(src.component, []).append(key)
            routes.append((bag, sims[dst.component].model.input_bags[dst.port],
                           self.engine._ranks[dst.component]))
        self.engine._bind_routes(routes, self._inbound.values(), shipped=[
            bag for leaving in self._outbound.values() for bag, _, _ in leaving])
        # Each peer group that a coupling from the block enters, and an
        # atomic it hosts there.
        self._peers = {endpoint: head[2] for leaving in self._outbound.values()
                       for _, endpoint, head in leaving}
        # The hosted atomics whose output enters another group, in plan order.
        self._boundary = [sims[name] for name in self.names if name in plan._feeds]
        # Inbound couplings that filed a batch since the last DELTFCN, and
        # the intake errors the next DELTFCN reports.
        self._received: set[tuple[str, str, str, str]] = set()
        self._intake_errors: list[str] = []
        self._initialized = False
        self._depth = 0  # commands running: a DELTFCN pumps the selector
        self.peer_frames = 0
        self._links: dict[Endpoint, socket.socket] = {}  # to peer groups
        # Every socket the group holds; for an accepted connection, what it
        # has sent that is not yet a whole frame.
        self._sockets: dict[socket.socket, bytearray | None] = {listener: None}
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ, "listener")
        self._thread: threading.Thread | None = None
        self._running = False  # whether _run serves the group
        self._stop = threading.Event()

    # -- lifecycle -----------------------------------------------------------

    def join(self, timeout: float | None = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)

    def stop(self) -> None:
        """End the group from any thread: shutting its sockets down wakes
        :meth:`_run` wherever it waits, which then closes them and ends. A
        group that _run does not serve is closed here. From another thread,
        return once the group's own thread, if it has one, has ended."""
        self._stop.set()
        for sock in list(self._sockets):
            with contextlib.suppress(OSError):
                sock.shutdown(socket.SHUT_RDWR)
        if self._thread is not None:
            if self._thread is not threading.current_thread():
                self._thread.join()
        elif not self._running:
            self._close()

    def _run(self) -> None:
        """Serve the group until it stops, then close its sockets, selector
        and pool, once."""
        self._running = True
        try:
            while not self._stop.is_set():
                self._pump(None)
        finally:
            self._close()

    def _close(self) -> None:
        for sock in self._sockets:
            sock.close()
        self._selector.close()
        if isinstance(self.engine, ParallelCoordinator):
            self.engine.close()

    # -- connections --------------------------------------------------------------

    def _pump(self, timeout: float | None) -> None:
        """Serve what one select within ``timeout`` seconds reports, up to the
        coordinator's link: a command may pump the selector, staling the rest."""
        for key, _ in _wait(self._selector.select, timeout):
            if self._stop.is_set() or self._serve(key.fileobj, key.data):
                return

    def _serve(self, sock: socket.socket, role: str) -> bool:
        """Serve a ready socket in its ``role``. The listener accepts ``new``
        connections, whose bytes are buffered until a frame is whole, so no
        read waits for the rest of a frame. A first PROPAGATE makes one a
        ``peer`` group's link, never answered; any other first frame the
        ``coordinator``'s link, whose end ends the group. A frame that
        cannot be read ends the connection, reported on it or, from a peer,
        by the next DELTFCN. True for the coordinator's link (see _pump)."""
        if role == "full":  # a peer link took more: _send writes on
            return False
        if role == "listener":
            try:
                conn, _ = sock.accept()
            except OSError:  # stop() shut the listener down
                return False
            _configure(conn, self.timeouts.read)
            self._sockets[conn] = bytearray()
            self._selector.register(conn, selectors.EVENT_READ, "new")
            return False
        buffer = self._sockets[sock]
        try:
            buffer += (chunk := sock.recv(1 << 16))
            # A command may pump the selector, and so serve this socket too.
            while sock in self._sockets and (frame := take_frame(buffer)):
                if role == "new":
                    role = "peer" if frame.command == PROPAGATE else "coordinator"
                    self._selector.modify(sock, selectors.EVENT_READ, role)
                if role == "peer":
                    self._take_batch(frame)
                else:
                    self._command(sock, frame)
            if chunk or sock not in self._sockets:
                return role == "coordinator"
            error = ProtocolError("connection closed mid-frame") if buffer else None
        except (ProtocolError, OSError) as exc:
            error = exc
        if role == "peer":  # the peer group has stopped, or sent what cannot be read
            self._intake_errors.append(
                f"bad frame on a peer link to {self.label}: {error}"
                if isinstance(error, ProtocolError)
                else f"a peer link to {self.label} closed" + (f": {error}" if error else ""))
        elif isinstance(error, ProtocolError):
            where = ("first frame on a connection" if role == "new"
                     else "frame on the coordinator's link")
            self._reply(sock, (_ERROR_MARK, f"bad {where} to {self.label}: {error}"))
        self._selector.unregister(sock)
        del self._sockets[sock]
        sock.close()
        if role == "coordinator":
            self.stop()
        return role == "coordinator"

    def _command(self, conn: socket.socket, frame: WireFrame) -> None:
        """Answer one command with an ACK carrying its result, or the error
        it raised. The group ends once an EXIT succeeds or a reply fails."""
        try:
            values, ended = self.execute(frame), frame.command == EXIT
        except SimulationError as exc:
            values, ended = (_ERROR_MARK, str(exc)), False
        if not self._reply(conn, values) or ended:
            self.stop()

    def _reply(self, conn: socket.socket, values: tuple) -> bool:
        """Write one ACK; False if the link failed."""
        try:
            write_frame(conn, WireFrame(ACK, values=values))
        except (OSError, ProtocolError):
            return False
        return True

    # -- coordinator commands -----------------------------------------------------

    def execute(self, frame: WireFrame) -> tuple:
        """Run one coordinator command over the block; the values of its
        ACK. A command that arrives while another runs (a DELTFCN pumps the
        selector) is refused."""
        self._depth += 1
        try:
            if self._depth > 1:
                raise SimulationError(f"{frame.command} to {self.label} while another runs")
            return self._dispatch(frame)
        finally:
            self._depth -= 1

    def _dispatch(self, frame: WireFrame) -> tuple:
        """Run one coordinator command over the block: INIT and EXIT cover
        every hosted atomic, DELTFCN one cycle of the engine at the frame's
        time, whose values name the senders whose batches it waits for.
        INIT and DELTFCN answer with :meth:`_next`, INIT after the names."""
        command = frame.command
        engine = self.engine
        sims = engine.simulators
        if command == INIT:
            if self._initialized:
                raise SimulationError(f"{self.label} got a second INIT")
            engine.trace_enabled = bool(frame.values and frame.values[0])
            for sim in sims.values():
                sim.trace = [] if engine.trace_enabled else None
            self._initialized = True
            return (list(sims), *self._next())
        if not self._initialized:
            raise SimulationError(f"{self.label} got {command} before INIT")
        if command == EXIT:
            if self._received:  # left only when a group omitted a sender from its ACK
                raise SimulationError(f"{_push(min(self._received))}: a batch no DELTFCN named")
            traces = [[atomic, [entry.to_payload() for entry in sim.trace or ()]]
                      for atomic, sim in sims.items()]
            return (*engine.counters.triple(), engine.dropped_events,
                    self.peer_frames, traces)
        if command != DELTFCN:
            raise SimulationError(f"unexpected command {command} on the coordinator's "
                                  f"link to {self.label}")
        if frame.time is None:
            raise SimulationError(f"{command} frame without time")
        engine.clock.t = frame.time
        try:
            imminent = engine.run_lambda()
        except SimulationError as exc:
            self._fail_peers(exc)
            raise
        self._ship(imminent)
        self._take_inputs(frame.values)
        engine.run_deltfcn()
        return self._next()

    def _next(self) -> tuple:
        """All that the coordinator sees of the group: its tN and, unless it
        is passive, its senders, the atomics imminent then (plan order)."""
        tn = self.engine.time_advance()
        senders = [sim.name for sim in self._boundary if sim.tN == tn] if tn < math.inf else []
        return (encode_time(tn), *senders)

    # -- peer links ---------------------------------------------------------------

    def _ship(self, imminent: list[Simulator]) -> None:
        """Send each peer group one PROPAGATE frame holding every coupling
        from ``imminent`` into that group. Nothing is read back: the peer
        waits for the frame at DELTFCN and reports intake errors there."""
        batches: dict[Endpoint, list] = {}
        for sim in imminent:
            for bag, endpoint, head in self._outbound[sim.name]:
                batches.setdefault(endpoint, []).append([*head, list(bag)])
        for endpoint, items in batches.items():
            try:
                self._send(self._link(endpoint, items[0][2]),
                           encode_frame(WireFrame(PROPAGATE, values=tuple(items))))
            except (OSError, ProtocolError) as exc:
                raise SimulationError(f"propagation to the process of {items[0][2]!r} at "
                                      f"{endpoint} failed: {exc}") from exc
        self.peer_frames += len(batches)

    def _fail_peers(self, error: SimulationError) -> None:
        """Send every peer group that the block pushes to one PROPAGATE item
        carrying ``error``, a failed output phase, so that a peer waiting
        for the block's batch reports the failure instead of the missing
        batch. A peer that cannot be reached is skipped."""
        item = [_ERROR_MARK, f"{error}, in {self.label}"]
        for endpoint, target in self._peers.items():
            with contextlib.suppress(OSError, ProtocolError, SimulationError):
                self._send(self._link(endpoint, target),
                           encode_frame(WireFrame(PROPAGATE, values=(item,))))

    def dial_peers(self) -> None:
        """Dial every peer group that a coupling from the block enters."""
        for endpoint, target in self._peers.items():
            self._link(endpoint, target)

    def _link(self, endpoint: Endpoint, target: str) -> socket.socket:
        """The link to the peer group at ``endpoint``, which hosts
        ``target``: dialled on the first call, and opened by an empty
        PROPAGATE, so that the peer knows the link at once and reports its
        end."""
        link = self._links.get(endpoint)
        if link is None:
            where = f"the process of {target!r} at {endpoint}"
            link = self._links[endpoint] = _dial(endpoint, where, self.timeouts)
            self._sockets[link] = None  # closed with the group
            try:
                write_frame(link, WireFrame(PROPAGATE))
            except (OSError, ProtocolError) as exc:
                raise SimulationError(f"{where} unreachable: {exc}") from exc
            link.settimeout(0.0)  # non-blocking: see _send
        return link

    def _send(self, link: socket.socket, data: bytes) -> None:
        """Write ``data`` to a peer link, serving the group's sockets while
        the link is full: two groups that push large batches to each other
        would otherwise wait on each other until the read timeout."""
        view, deadline = memoryview(data), time.monotonic() + self.timeouts.read
        while view:
            try:
                view = view[link.send(view):]
            except BlockingIOError:
                if self._stop.is_set() or time.monotonic() > deadline:
                    raise OSError("stopped" if self._stop.is_set() else "timed out")
                self._selector.register(link, selectors.EVENT_WRITE, "full")
                self._pump(deadline - time.monotonic())
                self._selector.unregister(link)

    def _take_batch(self, frame: WireFrame) -> None:
        """Put a peer's PROPAGATE batch in the inbound buckets, which the
        next DELTFCN empties. Each coupling that enters the block may send
        one batch per cycle; an error, or one that the peer sent about its
        failed output phase, is kept for the next DELTFCN to report."""
        try:
            if frame.command != PROPAGATE:
                raise SimulationError(
                    f"unexpected {frame.command} on a peer link to {self.label}")
            for item in frame.values:
                if (isinstance(item, list) and len(item) == 2
                        and item[0] == _ERROR_MARK and isinstance(item[1], str)):
                    raise SimulationError(item[1])
                if not (isinstance(item, list) and len(item) == 5
                        and isinstance(item[4], list)
                        and all(isinstance(field, str) for field in item[:4])):
                    raise SimulationError(
                        f"malformed PROPAGATE item for {self.label}: {item!r:.80}")
                key, values = tuple(item[:4]), item[4]
                bucket = self._inbound.get(key)
                if bucket is None:
                    raise SimulationError(f"{_push(key)}: no such coupling enters {self.label}")
                if key in self._received:
                    raise SimulationError(f"{_push(key)}: a second batch in one cycle")
                self._received.add(key)
                bucket.extend(values)
        except SimulationError as exc:
            self._intake_errors.append(str(exc))

    def _take_inputs(self, senders) -> None:
        """Pump the selector until every coupling from ``senders``, the
        imminent atomics of other groups coupled into the block, has filed
        its batch in the inbound buckets, which the engine's run_deltfcn
        then propagates from. Raises the first intake error, or names a
        coupling whose batch did not arrive within the read timeout."""
        expected = []
        for sender in senders:
            keys = self._feeds.get(sender) if isinstance(sender, str) else None
            if keys is None:
                raise SimulationError(f"{DELTFCN} names sender {sender!r}, which has no "
                                      f"coupling into {self.label}")
            expected.extend(keys)
        deadline = time.monotonic() + self.timeouts.read
        while not (arrived := self._received.issuperset(expected)):
            remaining = deadline - time.monotonic()
            if self._stop.is_set() or self._intake_errors or remaining <= 0:
                break
            self._pump(remaining)
        if self._stop.is_set():
            raise SimulationError(f"{self.label} stopped")
        if self._intake_errors:
            error = self._intake_errors[0]
            self._intake_errors.clear()
            raise SimulationError(error)
        if not arrived:
            key = next(key for key in expected if key not in self._received)
            problem = f"no batch within {self.timeouts.read:g} s"
        else:  # a peer that sent what no DELTFCN expects is out of step
            key = min(self._received.difference(expected), default=None)
            problem = "a batch that this DELTFCN does not name"
        if key is not None:
            raise SimulationError(f"{_push(key)}: {problem}")
        self._received.clear()


def _bind(host: str, port: int, names) -> socket.socket:
    """A socket listening at ``host:port`` for the group of ``names``, which
    the error names when it cannot be bound. Every listener is bound here."""
    try:  # a link may be dialled before its group serves
        return socket.create_server((host, port), backlog=socket.SOMAXCONN)
    except OSError as exc:
        raise SimulationError(f"cannot bind {', '.join(map(repr, names))} at "
                              f"{host}:{port}: {exc}") from exc


def _listen(plan: DistributedPlan, endpoints) -> dict[Endpoint, socket.socket]:
    """A listening socket at each of ``endpoints``: all of them or, when one
    cannot be bound, none, and an error that names its atomics."""
    listeners: dict[Endpoint, socket.socket] = {}
    with contextlib.ExitStack() as bound:
        for endpoint in endpoints:
            listeners[endpoint] = bound.enter_context(
                _bind(*endpoint.main_addr(), plan._blocks[endpoint][0]))
        bound.pop_all()  # every one is bound: keep them open
    return listeners


def _start_groups(plan: DistributedPlan, listeners: dict[Endpoint, socket.socket],
                  timeouts: Timeouts | None, *, local: bool = False) -> list[ServiceGroup]:
    """Start, and return, one service group on each of ``listeners``, keyed
    by endpoint, from the plan's index: all of them or, on any error, none,
    and every listener and link closed. In a ``local`` (``distributed-local``)
    process, each group dials its peers before it serves, and the first gets
    no thread: an in-process coordinator drives it, or :func:`serve` serves
    it on the calling thread. Under ``pdevsim serve`` every group has a
    thread and dials each peer on its first push. The groups divide the
    process's CPUs in contiguous blocks, at least one each, so k groups on N
    CPUs do not start k pools of N."""
    shares = contiguous_blocks(range(default_workers()), len(listeners))
    groups: list[ServiceGroup] = []
    try:
        for (endpoint, listener), share in zip(listeners.items(), shares):
            groups.append(ServiceGroup(plan, endpoint, listener, workers=max(len(share), 1),
                                       timeouts=timeouts))
        for group in groups:
            if local:
                group.dial_peers()
            if not local or group is not groups[0]:
                group._thread = threading.Thread(target=group._run, daemon=True,
                                                 name=f"svc-{group.names[0]}")
                group._thread.start()
    except BaseException:
        for group in groups:
            group.stop()
        for listener in listeners.values():
            listener.close()
        raise
    return groups


def serve_simulators(plan: DistributedPlan, names, *,
                     timeouts: Timeouts | None = None) -> list[ServiceGroup]:
    """Bind a listener at each distinct endpoint among ``names`` and start,
    and return, one service group on each (see :func:`_start_groups`).
    Every atomic at such an endpoint must be among ``names``: an unknown
    atomic or a split endpoint is refused before anything is bound. The
    plan was checked and indexed when it was made."""
    for name in names:
        if name not in plan.endpoints:
            raise SimulationError(f"unknown atomic {name!r} in plan {plan.graph.name!r}")
    named = set(names)
    endpoints = list(dict.fromkeys(plan.endpoints[name] for name in names))
    for endpoint in endpoints:
        for name in plan._blocks[endpoint][0]:
            if name not in named:
                raise SimulationError(f"atomic {name!r} at {endpoint} is not hosted: "
                                      "a process must host every atomic at its endpoint")
    return _start_groups(plan, _listen(plan, endpoints), timeouts)


def serve(groups: list[ServiceGroup], announce) -> int:
    """Call ``announce`` once ``groups`` are serving, serve a first group
    started without a thread (``local``) on the calling thread, and
    return once every group has ended with its coordinator's link: the rest
    of ``pdevsim serve``, which prints ``ready``, and of each process that
    :func:`run_distributed_local` forks, which bumps an eventfd. So a forked
    process that serves one group runs one thread."""
    announce()
    if groups and groups[0]._thread is None:
        groups[0]._run()
    for group in groups:
        group.join()
    return 0


class DistributedCoordinator:
    """Drives the abstract-protocol command cycle over service groups, one
    connection per plan endpoint, dialled by :meth:`connect`, all closed
    when the run ends.

    A ``local`` group of the plan, hosted by this process, gets no link:
    each of its commands runs on the coordinator's thread once every other
    group's frame of the phase is written and before any reply is read, so
    it may push to, and wait for, the groups at work on theirs. One group,
    not several: two driven from one thread would wait on each other."""

    backend_name = "distributed"

    def __init__(self, plan: DistributedPlan, *, trace: bool = False,
                 timeouts: Timeouts | None = None, local: ServiceGroup | None = None) -> None:
        self.plan = plan
        self.trace_enabled = trace
        self.timeouts = timeouts or Timeouts()
        self._groups = plan.groups()
        self._rank = {name: rank for rank, name in enumerate(plan.graph.atomics)}
        # The atomics that each group may list as senders, in plan order.
        self._boundary = {endpoint: [name for name in names if name in plan._feeds]
                          for endpoint, names in self._groups.items()}
        self.frames_sent: Counter[str] = Counter()
        self.frames_received: Counter[str] = Counter()
        self._conns: dict[Endpoint, socket.socket] = {}
        self._local = local
        self._local_at = local.endpoint if local is not None else None

    # -- plumbing ---------------------------------------------------------------

    def _where(self, endpoint: Endpoint) -> str:
        """How the coordinator's errors name the group at ``endpoint``."""
        hosted = self._groups[endpoint]
        more = f" (+{len(hosted) - 1} co-hosted)" if len(hosted) > 1 else ""
        return f"simulator {hosted[0]!r}{more} at {endpoint}"

    def connect(self) -> None:
        """Dial every endpoint without a link, but the local group's, in
        plan order: all of them or, when one cannot be reached, none. The
        run calls this first."""
        dialled: dict[Endpoint, socket.socket] = {}
        with contextlib.ExitStack() as opened:
            for endpoint in self._groups:
                if endpoint != self._local_at and endpoint not in self._conns:
                    dialled[endpoint] = opened.enter_context(
                        _dial(endpoint, self._where(endpoint), self.timeouts))
            opened.pop_all()  # every one is made: keep them open
        self._conns.update(dialled)

    def _write(self, endpoint: Endpoint, frame: WireFrame) -> None:
        """Write ``frame`` to the group at ``endpoint``; the local group
        runs it when its reply is read."""
        if endpoint != self._local_at:
            try:
                write_frame(self._conns[endpoint], frame)
            except (OSError, ProtocolError) as exc:
                raise SimulationError(f"{self._where(endpoint)} failed: {exc}") from exc
        self.frames_sent[frame.command] += 1

    def _read(self, endpoint: Endpoint, sent: WireFrame) -> WireFrame:
        """The reply to ``sent``. A read timeout names the command, its
        cycle time and, for a DELTFCN, the senders whose batches the
        process waits for. The local group runs ``sent`` here, and an error
        it raises is reported as one that a group sends back."""
        where = self._where(endpoint)
        if endpoint == self._local_at:
            try:
                values = self._local.execute(sent)
            except SimulationError as exc:
                raise SimulationError(f"{where} reported: {exc}") from exc
            self.frames_received[ACK] += 1
            return WireFrame(ACK, values=values)
        conn = self._conns[endpoint]
        poller = select.poll()
        poller.register(conn, select.POLLIN)
        try:
            if not _wait(lambda wait: poller.poll(None if wait is None else wait * 1e3),
                         self.timeouts.read):
                raise socket.timeout("timed out")
            reply = read_frame(conn)
        except socket.timeout as exc:
            waiting = f" at t={sent.time!r}" if sent.time is not None else ""
            if sent.command == DELTFCN and sent.values:
                waiting += (" waiting for the batches of "
                            f"{', '.join(map(repr, sent.values))}")
            raise SimulationError(f"{where} timed out after {self.timeouts.read:g} s "
                                  f"on {sent.command}{waiting}") from exc
        except (OSError, ProtocolError) as exc:
            raise SimulationError(f"{where} failed: {exc}") from exc
        if reply is None:
            raise SimulationError(f"{where} closed the connection")
        if reply.values[:1] == (_ERROR_MARK,):
            detail = reply.values[1] if len(reply.values) > 1 else "an error without a message"
            raise SimulationError(f"{where} reported: {detail}")
        self.frames_received[reply.command] += 1
        if reply.command != ACK:
            raise SimulationError(f"{where} replied {reply.command}, expected {ACK}")
        return reply

    def _send(self, frames: dict[Endpoint, WireFrame]) -> Iterator[tuple[Endpoint, WireFrame]]:
        """Write every frame to its connection, then read every ACK: the
        groups work on their commands at once. Each ACK is yielded as soon
        as it is read, so the caller's check of the first bad one ends the
        run. The local group's command runs first among the reads, once the
        others are at work."""
        for endpoint, frame in frames.items():
            self._write(endpoint, frame)
        for endpoint in sorted(frames, key=lambda endpoint: endpoint != self._local_at):
            yield endpoint, self._read(endpoint, frames[endpoint])

    def _deltfcn(self, t: float, state: dict[Endpoint, tuple[float, tuple]]
                 ) -> dict[Endpoint, tuple[float, tuple]]:
        """Send a DELTFCN at ``t`` to each group at ``t`` and to each group
        that their senders feed, naming those it waits for in plan order;
        the new tN and senders of each group it reached."""
        named: dict[Endpoint, list[str]] = {}
        for endpoint, (tn, senders) in state.items():
            if tn == t:
                named.setdefault(endpoint, [])
                for name in senders:  # a group that a sender feeds waits for its batch
                    for fed in self.plan._feeds[name]:
                        named.setdefault(fed, []).append(name)
        frames = {endpoint: WireFrame(DELTFCN, time=t, values=tuple(
                      sorted(names, key=self._rank.__getitem__)))
                  for endpoint, names in named.items()}
        return {group: self._ack(group, ack.values, t) for group, ack in self._send(frames)}

    def _ack(self, endpoint: Endpoint, values, t: float) -> tuple[float, tuple]:
        """The tN, not earlier than ``t``, and senders that a group's ACK to
        a DELTFCN at ``t`` (to INIT, at -inf) carries in ``values``, refused
        in one line when they break the contract."""
        at = f"{self._where(endpoint)} acknowledged " + (
            INIT if t == -math.inf else f"{DELTFCN} at t={t!r}")
        raw, *senders = values or (None,)
        try:
            tn = decode_time(raw)
        except ProtocolError as exc:
            raise SimulationError(f"{at} with a bad tN: {exc}") from exc
        if tn < t:
            raise SimulationError(f"{at} with tN={tn!r}, earlier than the cycle")
        boundary = iter(self._boundary[endpoint])
        if not all(name in boundary for name in senders):  # a subsequence of it
            raise SimulationError(f"{at} listing senders {senders!r:.80}: not atomics of "
                                  "that group whose output enters another, once each, "
                                  "in plan order")
        return tn, tuple(senders)

    # -- the protocol ------------------------------------------------------------------

    def run(self, max_iterations: int | None = None) -> RunReport:
        started = time.perf_counter()
        # Each group's EXIT ACK: its ints, exts, events, dropped events and
        # PROPAGATE frames, then [atomic, trace] for every atomic it hosts.
        totals = [0] * 5
        traces: dict[str, list] = {}
        try:
            self.connect()
            init = WireFrame(INIT, values=(1 if self.trace_enabled else 0,))
            state = {}  # each group's tN and senders
            for endpoint, reply in self._send(dict.fromkeys(self._groups, init)):
                hosted, *values = reply.values or (None,)  # then as a DELTFCN ACK
                if hosted != self._groups[endpoint]:
                    raise SimulationError(f"{self._where(endpoint)} hosts {hosted!r:.80}, but "
                                          f"the plan puts {self._groups[endpoint]} there")
                state[endpoint] = self._ack(endpoint, values, -math.inf)
            cycles = 0
            while max_iterations is None or cycles < max_iterations:
                t = min((tn for tn, _ in state.values()), default=math.inf)
                if math.isinf(t):
                    break
                state.update(self._deltfcn(t, state))
                cycles += 1
            for endpoint, reply in self._send({endpoint: WireFrame(EXIT)
                                               for endpoint in self._groups}):
                *numbers, pairs = reply.values or (None,)
                try:
                    check_event_value(pairs)  # the traces carry event values
                except ModelError:
                    pairs = None
                if not (len(numbers) == 5 and all(type(n) is int for n in numbers)
                        and isinstance(pairs, list)
                        and all(isinstance(pair, list) and len(pair) == 2 for pair in pairs)
                        and [atomic for atomic, _ in pairs] == self._groups[endpoint]):
                    raise SimulationError(f"bad exit payload from {self._where(endpoint)}: "
                                          f"{reply.values!r:.80}")
                totals = [total + n for total, n in zip(totals, numbers)]
                traces.update(pairs)
        finally:
            for sock in self._conns.values():
                sock.close()
        ints, exts, events, dropped, peer_frames = totals
        wall = time.perf_counter() - started
        return RunReport(
            model=self.plan.graph.name, backend=self.backend_name,
            workers_pools=str(len(self._groups)), cycles=cycles,
            wall_seconds=wall, num_delt_ints=ints, num_delt_exts=exts,
            num_of_events=events,
            traces={name: [TraceEntry.from_payload(raw) for raw in traces[name]]
                    for name in self.plan.graph.atomics} if self.trace_enabled else None,
            diagnostics={"dropped_events": dropped,
                         "frames_sent": dict(self.frames_sent),
                         "frames_received": dict(self.frames_received),
                         "peer_frames": peer_frames})


def run_coordinator(plan: DistributedPlan, max_iterations: int | None = None, *,
                    trace: bool = False,
                    timeouts: Timeouts | None = None) -> RunReport:
    """Run the distributed protocol over already-listening services."""
    return DistributedCoordinator(plan, trace=trace, timeouts=timeouts).run(max_iterations)


# -- distributed-local: the plan's groups in one process per CPU ----------------


def _loopback_plan(graph: ModelGraph,
                   listeners: dict[Endpoint, socket.socket]) -> DistributedPlan:
    """Plan for ``graph`` over loopback: one contiguous block of plan order
    per CPU this process may run on (never more blocks than atomics), each
    co-hosted, so coupled neighbours push in memory, at a listener bound on
    a port that the kernel assigns and added to ``listeners``."""
    flat = flatten(graph)
    names = list(flat.atomics)
    endpoints = {}
    for block in contiguous_blocks(names, min(default_workers(), len(names))):
        listener = _bind("127.0.0.1", 0, block)
        endpoint = Endpoint(*listener.getsockname())
        listeners[endpoint] = listener
        endpoints.update(dict.fromkeys(block, endpoint))
    return DistributedPlan(flat, endpoints)


# How long a service process may take to end once the coordinator's links
# are closed, before a failed run stops waiting for it.
_EXIT_GRACE_S = 1.0


@dataclass
class _Child:
    """A forked service process that serves the groups at ``endpoints``,
    which host ``members``: a pidfd that is readable once it exits, an
    eventfd that it bumps once it serves, and the memfd that holds its
    stdout and stderr, of which the last 4 KiB are kept once it is reaped."""

    pid: int
    pidfd: int
    ready: int
    output: int
    members: list[str]
    endpoints: list[Endpoint]
    printed: bytes = b""
    code: int | None = None  # its exit code, once reaped

    def exited(self, timeout: float = 0.0) -> bool:
        """Whether the process has exited, or exits within ``timeout`` seconds."""
        return self.code is not None or bool(select.select([self.pidfd], [], [], timeout)[0])

    def close(self, timeout: float = 0.0) -> int:
        """Wait up to ``timeout`` seconds for the process to exit, kill it
        if it has not, reap it, keep the end of what it printed and close
        its fds, once; its exit code."""
        if self.code is None:
            if not self.exited(timeout):
                os.kill(self.pid, signal.SIGKILL)
            self.code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
            end = os.fstat(self.output).st_size
            self.printed = os.pread(self.output, 4096, max(end - 4096, 0))
            for fd in (self.pidfd, self.ready, self.output):
                os.close(fd)
        return self.code

    def tail(self) -> str:
        """The last lines the process printed, once it is reaped."""
        lines = self.printed.decode(errors="replace").splitlines()
        return " | ".join(line for line in lines[-5:] if line.strip()) or "no output"


def _fork_service(plan: DistributedPlan, block: list[Endpoint],
                  listeners: dict[Endpoint, socket.socket], timeouts: Timeouts | None,
                  share: list[int]) -> _Child:
    """Fork one process that serves the groups at the endpoints of ``block``
    on the CPUs in ``share``: it keeps their ``listeners``, which it
    inherits, closes every other group's, dials each group's peers, and
    goes on like ``pdevsim serve`` (:func:`serve`), but bumps an eventfd
    where that prints its ready line. Its stdout and stderr go to one memfd,
    which a write never waits on, as fresh stream objects, so nothing the
    launcher left unflushed, and no lock a launcher thread held at the fork,
    is in them; ``os._exit`` runs none of the launcher's exit handlers."""
    from .cli import guarded  # imported before the fork, not in each child
    output, ready = os.memfd_create("pdevsim-service"), os.eventfd(0)
    pid = 0
    try:
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                for endpoint in listeners.keys() - block:
                    listeners[endpoint].close()
                os.sched_setaffinity(0, share)
                os.dup2(output, 1)
                os.dup2(output, 2)
                sys.stdout = sys.stderr = open(1, "w", buffering=1, encoding="utf-8",
                                               errors="backslashreplace")
                code = guarded(lambda: serve(_start_groups(
                    plan, {endpoint: listeners[endpoint] for endpoint in block}, timeouts,
                    local=True), lambda: os.eventfd_write(ready, 1)))
                sys.stdout.flush()
            finally:
                os._exit(code)
        groups = plan.groups()
        return _Child(pid, os.pidfd_open(pid), ready, output,
                      [name for endpoint in block for name in groups[endpoint]], block)
    except BaseException:
        if pid:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os.close(output)
        os.close(ready)
        raise


def _wait_ready(child: _Child, deadline: float) -> None:
    """Wait until a service process bumps its ready eventfd; if it exits
    first, report its exit code and the last lines it printed."""
    members = ", ".join(child.members)
    woken = select.select([child.ready, child.pidfd], [], [],
                          max(deadline - time.monotonic(), 0.0))[0]
    if child.ready in woken:
        return
    if not woken:
        raise SimulationError(f"simulator process for {members} never came up")
    raise SimulationError(f"simulator process for {members} exited with code "
                          f"{child.close()} before it was ready: {child.tail()}")


def _lost_process(error: SimulationError, children: list[_Child]) -> SimulationError | None:
    """When a service process died during the coordinator run that
    ``error`` ended, ``error`` naming that process's atomics and endpoints,
    its exit code and the last lines it printed. The coordinator has closed
    its links, so every process still serving ends at once with code 0."""
    for child in children:
        if child.exited(_EXIT_GRACE_S) and child.close() != 0:
            return SimulationError(
                f"{error}; the simulator process for {', '.join(child.members)} at "
                f"{', '.join(map(str, child.endpoints))} exited with code {child.code}: "
                f"{child.tail()}")
    return None


def run_distributed_local(plan_or_graph, *, iterations: int | None = None,
                          trace: bool = False, startup_timeout: float = 60.0,
                          timeouts: Timeouts | None = None) -> RunReport:
    """Serve a plan on loopback in one process per CPU, run the coordinator
    against it, and tear everything down. Linux only (``os.pidfd_open``).

    A graph gets one contiguous block of plan order per CPU at a port the
    kernel assigns (:func:`_loopback_plan`). A plan keeps its endpoints, and
    its groups are dealt in plan order into contiguous blocks, one per
    process, never more processes than CPUs or groups, so only a shared
    endpoint co-hosts (``generate --workers`` makes such plans; with one
    endpoint per atomic, every coupling crosses loopback TCP). Process ``i``
    runs on contiguous block ``i`` of the launcher's allowed CPUs, which its
    groups divide between them (:func:`contiguous_blocks` makes each split).

    Every listener is bound before the first fork, so no port is chosen
    first and bound later, and one that cannot be bound is reported before
    any fork. Each block but block 0 gets a process forked from this one
    (:func:`_fork_service`), which serves the plan it inherited in memory
    with this call's ``timeouts``; this process closes its copies of the
    block's listeners right after the fork. Each group dials its peers
    before it serves, and the coordinator dials the groups once every child
    is ready (:meth:`DistributedCoordinator.connect`), within
    ``startup_timeout`` seconds, so no process dials while the coordinator
    runs. A child that exits before it is ready, or dies mid-run, is
    reported with its atomics, exit code and last output.

    This process serves block 0, pinned to share 0 from before its groups
    start until the coordinator ends: the coordinator runs block 0's first
    group on its own thread, without a socket (``local`` of
    :class:`DistributedCoordinator`), and any other group of block 0 runs
    on a thread of its own.
    """
    listeners: dict[Endpoint, socket.socket] = {}  # bound, not yet handed over
    children: list[_Child] = []
    served: list[ServiceGroup] = []
    grace = 0.0  # how long the processes may take to exit: a failed run kills them
    try:
        plan = (plan_or_graph if isinstance(plan_or_graph, DistributedPlan)
                else _loopback_plan(plan_or_graph, listeners))
        endpoints = list(plan.groups())
        listeners.update(_listen(plan, [endpoint for endpoint in endpoints
                                        if endpoint not in listeners]))
        # Block 0 is this process's, empty for a model without atomics.
        blocks = contiguous_blocks(endpoints, min(default_workers(), len(endpoints)) or 1)
        allowed = sorted(os.sched_getaffinity(0))
        shares = contiguous_blocks(allowed, len(blocks))
        for block, share in zip(blocks[1:], shares[1:]):
            children.append(_fork_service(plan, block, listeners, timeouts, share))
            for endpoint in block:  # close(), never shutdown(): the child serves them
                listeners.pop(endpoint).close()
        # Linux pins only the calling thread: the group threads it starts
        # keep share 0, default_workers() sizes the groups' engines by it,
        # and it runs block 0's first group with the coordinator.
        os.sched_setaffinity(0, shares[0])
        try:
            deadline = time.monotonic() + startup_timeout
            # Block 0's groups dial while the children start. A child that
            # refused a dial by exiting is reported as exiting before it was ready.
            try:
                served = _start_groups(
                    plan, {endpoint: listeners.pop(endpoint) for endpoint in blocks[0]},
                    timeouts, local=True)
                coordinator = DistributedCoordinator(plan, trace=trace, timeouts=timeouts,
                                                     local=served[0] if served else None)
            finally:
                for child in children:
                    _wait_ready(child, deadline)
            try:
                coordinator.connect()
                report = coordinator.run(iterations)
            except SimulationError as exc:
                if (lost := _lost_process(exc, children)) is None:
                    raise
                raise lost from exc
        finally:
            os.sched_setaffinity(0, allowed)
        grace = 10.0  # they have answered EXIT: killed if still running then
        report.backend = "distributed-local"
        return report
    finally:
        for listener in listeners.values():
            listener.close()
        for group in served:
            group.stop()
        for child in children:
            child.close(grace)
