"""Socket-distributed backend.

The plan states the process layout: atomics whose plan endpoints are equal
(``host:port``) are co-hosted by one :class:`ServiceGroup`, which runs the
kernel's cycle engine over them: a :class:`SequentialCoordinator`, or a
:class:`ParallelCoordinator` with one pool of up to one worker per CPU of
its share (the groups of a process divide the CPUs it may run on). Groups
that share a process but not an endpoint push to each other over TCP like
any other peers. A group serves its listener, the coordinator's link and
every peer link from one selector on one thread. The first frame on an
accepted connection says what the connection is: PROPAGATE opens a link
from a peer group, anything else is the coordinator's link.

The root coordinator connects to every endpoint in plan order and writes
every INIT before it reads any reply. Each ACK lists exactly the atomics
that the plan puts at that endpoint, each with its next-event time (tN).
The coordinator keeps every atomic's tN and takes the minimum itself. Each
cycle then sends one DELTFCN, carrying the cycle time and ``[imminent,
atomics, senders]``, to each group that hosts an imminent atomic or a
coupling target of one. The group:

- runs the output functions of its ``imminent`` atomics and sends each
  peer group one PROPAGATE frame, which is not acknowledged, holding every
  coupling from them into that group;
- pumps its selector until every coupling from ``senders``, the imminent
  atomics of other groups coupled into the block, has filed its batch;
- fills its input bags along every coupling that enters the block, in plan
  coupling order, from the hosted output bags or the peers' batches, which
  keeps bags byte-identical to the sequential backend;
- runs the transitions of ``atomics`` and answers with ``[atomic, tN]``
  for each, or with the first error that a peer's batch raised.

The coordinator writes a phase's frame to every group before it reads any
reply, and never relays event values. There is one link per ordered pair
of groups that a coupling connects; it carries PROPAGATE frames only, and
nothing is read back from it. A peer link that ends is reported by the
receiving group's next DELTFCN, since the group that dialled it has stopped.

A group serves a listener that is already bound: :func:`serve_simulators`
binds them for ``pdevsim serve``, and there a group dials a peer on its
first push to it. The ``distributed-local`` launcher binds every listener
and dials every link before it forks (:func:`_dial_links`), so each forked
process inherits its own listeners and links, and the coordinator its
links. The launcher runs its first group without a thread or a link: the
coordinator hands it each command in-process (see
:class:`DistributedCoordinator`). The coordinator has no endpoint of its
own.
"""

from __future__ import annotations

import contextlib
import math
import selectors
import socket
import threading
import time
from collections import Counter
from dataclasses import dataclass

from .kernel import (RunReport, SequentialCoordinator, SimulationError,
                     Simulator, TraceEntry)
from .model import IC, ModelError, ModelGraph, check_event_value, freeze_valid
from .parallel import ParallelCoordinator, PoolPlan, default_workers
from .wire import (ACK, DELTFCN, EXIT, INIT, PROPAGATE, ProtocolError,
                   WireFrame, decode_time, encode_frame, encode_time,
                   read_frame, take_frame, write_frame)

_ERROR_MARK = "__error__"


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


@dataclass
class DistributedPlan:
    """A flattened closed model plus one endpoint per atomic; atomics that
    share an endpoint are co-hosted."""

    graph: ModelGraph
    endpoints: dict[str, Endpoint]

    def check(self) -> None:
        """Refuse a plan the backend cannot run. A valid graph is frozen
        here, so each later check reuses its validation."""
        errors = freeze_valid(self.graph)
        if errors:
            raise SimulationError(f"invalid plan graph: {errors[0].message}")
        if not self.graph.is_flat():
            raise SimulationError("distributed plan graph must be flattened")
        for coupling in self.graph.couplings:
            if coupling.kind != IC:
                raise SimulationError(
                    "distributed plan must be a closed model "
                    f"(found {coupling.kind} coupling)")
        atoms = set(self.graph.atomics)
        missing = sorted(atoms - set(self.endpoints))
        if missing:
            raise SimulationError(f"no endpoint for atomic {missing[0]!r}")
        unknown = sorted(set(self.endpoints) - atoms)
        if unknown:
            raise SimulationError(f"endpoint for unknown atomic {unknown[0]!r}")

    def groups(self) -> dict[Endpoint, list[str]]:
        """The atomics at each endpoint, both in plan order."""
        groups: dict[Endpoint, list[str]] = {}
        for name, endpoint in self.endpoints.items():
            groups.setdefault(endpoint, []).append(name)
        return groups


def _configure(sock: socket.socket, read_timeout: float | None) -> None:
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.settimeout(read_timeout)


def _describe(hosted: list[str], endpoint: Endpoint) -> str:
    """How the coordinator's errors name the group of ``hosted`` atomics at
    ``endpoint``."""
    more = f" (+{len(hosted) - 1} co-hosted)" if len(hosted) > 1 else ""
    return f"simulator {hosted[0]!r}{more} at {endpoint}"


def _dial(endpoint: Endpoint, where: str, timeouts: Timeouts) -> socket.socket:
    """A link to the group at ``endpoint``, which ``where`` names, that
    waits ``timeouts.read`` seconds for a reply."""
    try:
        sock = socket.create_connection(endpoint.main_addr(), timeout=timeouts.connect)
    except OSError as exc:
        raise SimulationError(f"{where} unreachable: {exc}") from exc
    _configure(sock, timeouts.read)
    return sock


def _push(key: tuple[str, str, str, str]) -> str:
    """How errors name the coupling ``key``: (sender, port, target, port)."""
    sender, port, target, target_port = key
    return f"PROPAGATE from {sender!r} port {port!r} to {target!r} port {target_port!r}"


def _index(plan: DistributedPlan) -> dict[Endpoint, tuple[list[str], list]]:
    """Each endpoint's atomics, and the couplings that enter or leave them,
    both in plan order."""
    index = {endpoint: (names, []) for endpoint, names in plan.groups().items()}
    for coupling in plan.graph.couplings:
        for endpoint in {plan.endpoints[coupling.src.component],
                         plan.endpoints[coupling.dst.component]}:
            index[endpoint][1].append(coupling)
    return index


class ServiceGroup:
    """The atomics at one plan endpoint, and the kernel engine over them.

    The engine is built, and so its atomics initialized, with the group:
    INIT, once per group, only sets the trace mode and reports their tN. One
    thread serves the group's listener and every connection it accepts
    from one selector: the coordinator's link drives the whole group, and
    a peer group's link carries that peer's pushes to every hosted atomic.

    :func:`_start_groups` builds the groups of a process once the plan is
    checked and indexed (``index``, see :func:`_index`), dividing the
    process's CPUs between them (``workers``), and starts each on the
    listener bound at its endpoint.
    """

    def __init__(self, plan: DistributedPlan, endpoint: Endpoint, index: dict, *,
                 workers: int, timeouts: Timeouts | None = None) -> None:
        self.endpoint = endpoint
        self.names, couplings = index[endpoint]
        self.label = f"the process of {self.names[0]!r} at {self.endpoint}"
        block = ModelGraph(plan.graph.name)
        for name in self.names:
            block.add_component(plan.graph.atomics[name])
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
            elif dst.component in sims:
                bag = self._inbound[key] = []
                self._feeds.setdefault(src.component, []).append(key)
            else:
                continue
            routes.append((bag, sims[dst.component].model.input_bags[dst.port],
                           self.engine._ranks[dst.component]))
        self.engine._bind_routes(routes, self._inbound.values(), shipped=[
            bag for leaving in self._outbound.values() for bag, _, _ in leaving])
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
        self._sockets: dict[socket.socket, bytearray | None] = {}
        self._selector = selectors.DefaultSelector()
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    # -- lifecycle -----------------------------------------------------------

    def start(self, listener: socket.socket, links: dict[Endpoint, socket.socket] | None = None,
              *, thread: bool = True) -> None:
        """Serve ``listener``, bound at the group's endpoint, and every
        connection it accepts, and push over ``links``, dialled already, by
        peer endpoint; another peer is dialled on the first push to it. The
        group runs on a thread of its own or, without ``thread``, only
        within the commands that an in-process coordinator hands it."""
        self._sockets[listener] = None
        self._selector.register(listener, selectors.EVENT_READ, "listener")
        for endpoint, link in (links or {}).items():
            self._keep_link(endpoint, link)
        if thread:
            self._thread = threading.Thread(target=self._run, daemon=True,
                                            name=f"svc-{self.names[0]}")
            self._thread.start()

    def join(self, timeout: float | None = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)

    def stop(self) -> None:
        """End the group from any thread: shutting its sockets down wakes its
        thread wherever it waits, which then closes them and ends."""
        self._stop.set()
        for sock in list(self._sockets):
            with contextlib.suppress(OSError):
                sock.shutdown(socket.SHUT_RDWR)
        if self._thread is None:
            self._close()

    def _run(self) -> None:
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
        for key, _ in self._selector.select(timeout):
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
        self._depth += 1
        try:
            if self._depth > 1:
                raise SimulationError(f"{frame.command} to {self.label} while another runs")
            values, ended = self._dispatch(frame), frame.command == EXIT
        except SimulationError as exc:
            values, ended = (_ERROR_MARK, str(exc)), False
        finally:
            self._depth -= 1
        if not self._reply(conn, values) or ended:
            self.stop()

    def _reply(self, conn: socket.socket, values: tuple) -> bool:
        """Write one ACK; False if the link failed."""
        try:
            write_frame(conn, WireFrame(ACK, sender=self.names[0], values=values))
        except (OSError, ProtocolError):
            return False
        return True

    # -- coordinator commands -----------------------------------------------------

    def _dispatch(self, frame: WireFrame) -> tuple:
        """Run one coordinator command over the block: INIT and EXIT cover
        every hosted atomic, DELTFCN the atomics the frame names."""
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
            return tuple([atomic, encode_time(sim.tN)] for atomic, sim in sims.items())
        if not self._initialized:
            raise SimulationError(f"{self.label} got {command} before INIT")
        if command == EXIT:
            traces = [[atomic, [entry.to_payload() for entry in sim.trace or ()]]
                      for atomic, sim in sims.items()]
            return (*engine.counters.triple(), engine.dropped_events,
                    self.peer_frames, traces)
        if command != DELTFCN:
            raise SimulationError(f"unexpected command {command} on the coordinator's "
                                  f"link to {self.label}")
        if frame.time is None:
            raise SimulationError(f"{command} frame without time")
        if not (len(frame.values) == 3
                and all(isinstance(part, list) for part in frame.values)):
            raise SimulationError(f"{command} values must be [imminent, atomics, senders], "
                                  f"got {list(frame.values)!r:.80}")
        imminent, atomics, senders = frame.values
        imminent, addressed = self._hosted(imminent), self._hosted(atomics)
        t = frame.time
        engine._run_phase(Simulator.run_lambda, imminent, t)
        self._ship([sim for sim in imminent if sim.tN == t])
        self._take_inputs(senders)
        engine._run_phase(Simulator.run_delta, addressed, t)
        return tuple([sim.name, encode_time(sim.tN)] for sim in addressed)

    def _hosted(self, names: list) -> list[Simulator]:
        """The simulators of the atomics that a DELTFCN names, each once."""
        sims = self.engine.simulators
        found = []
        for name in names:
            sim = sims.get(name) if isinstance(name, str) else None
            if sim is None:
                raise SimulationError(
                    f"{DELTFCN} addresses {name!r}, which {self.label} does not host")
            found.append(sim)
        if len(set(found)) != len(found):
            raise SimulationError(f"{DELTFCN} addresses an atomic twice: {names}")
        return found

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
                self._send(self._link(endpoint),
                           encode_frame(WireFrame(PROPAGATE, values=tuple(items))))
            except (OSError, ProtocolError) as exc:
                raise SimulationError(f"propagation to the process of {items[0][2]!r} at "
                                      f"{endpoint} failed: {exc}") from exc
        self.peer_frames += len(batches)

    def _link(self, endpoint: Endpoint) -> socket.socket:
        """The link to the peer group at ``endpoint``, dialled on the first
        push to it unless it was handed in."""
        link = self._links.get(endpoint)
        if link is None:
            link = self._keep_link(endpoint, socket.create_connection(
                endpoint.main_addr(), timeout=self.timeouts.connect))
        return link

    def _keep_link(self, endpoint: Endpoint, link: socket.socket) -> socket.socket:
        self._sockets[link] = None
        _configure(link, 0.0)  # non-blocking: see _send
        self._links[endpoint] = link
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
        one batch per cycle; an error is kept for the next DELTFCN to
        report."""
        try:
            if frame.command != PROPAGATE:
                raise SimulationError(
                    f"unexpected {frame.command} on a peer link to {self.label}")
            for item in frame.values:
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

    def _take_inputs(self, senders: list) -> None:
        """Pump the selector until every coupling from ``senders`` into the
        block has filed its batch, then fill the input bags along every
        route. Raises the first intake error, or names a coupling whose
        batch did not arrive within the read timeout."""
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
        self.engine._propagate()
        self._received.clear()


def _listen(index: dict, endpoints) -> dict[Endpoint, socket.socket]:
    """A listening socket at each of ``endpoints``: all of them or, when one
    cannot be bound, none, and an error that names its atomics."""
    listeners: dict[Endpoint, socket.socket] = {}
    with contextlib.ExitStack() as bound:
        for endpoint in endpoints:
            try:  # the launcher dials every link before any is accepted
                listener = socket.create_server(endpoint.main_addr(), backlog=socket.SOMAXCONN)
            except OSError as exc:
                raise SimulationError(f"cannot bind {', '.join(map(repr, index[endpoint][0]))} "
                                      f"at {endpoint}: {exc}") from exc
            listeners[endpoint] = bound.enter_context(listener)
        bound.pop_all()  # every one is bound: keep them open
    return listeners


def _start_groups(plan: DistributedPlan, index: dict, listeners: dict[Endpoint, socket.socket],
                  timeouts: Timeouts | None,
                  links: dict[Endpoint, dict[Endpoint, socket.socket]] | None = None, *,
                  first_local: bool = False) -> list[ServiceGroup]:
    """Start, and return, one service group on each of ``listeners``, keyed
    by endpoint, with its peer ``links`` if dialled already (see
    :func:`_dial_links`), once the plan is checked and indexed: all of them
    or, on any error, none, and every listener and link closed. With
    ``first_local`` the first group gets no thread: an in-process
    coordinator drives it. The groups divide the CPUs the process may run
    on, at least one each, as ``run_distributed_local`` divides the host's,
    so k groups on N CPUs do not start k pools of N."""
    cpus, count = default_workers(), len(listeners)
    links = links or {}
    groups: list[ServiceGroup] = []
    try:
        for i, endpoint in enumerate(listeners):
            share = cpus * (i + 1) // count - cpus * i // count
            groups.append(ServiceGroup(plan, endpoint, index, workers=max(share, 1),
                                       timeouts=timeouts))
        for i, group in enumerate(groups):
            group.start(listeners[group.endpoint], links.get(group.endpoint),
                        thread=i > 0 or not first_local)
    except BaseException:
        for group in groups:
            group.stop()
            group.join()
        for sock in [*listeners.values(), *(link for peers in links.values()
                                            for link in peers.values())]:
            sock.close()
        raise
    return groups


def _dial_links(plan: DistributedPlan, index: dict, local: Endpoint | None,
                timeouts: Timeouts | None) -> tuple[dict, dict]:
    """Dial, through listeners already bound, the coordinator's link to
    each group but the one at ``local``, which it drives in-process, and
    one link per ordered pair of groups that a coupling connects, opened by
    an empty PROPAGATE so that the receiving group reports its end. Each
    waits in its listener's queue until the group accepts it. The
    coordinator's links by endpoint, and the peer links by the dialling
    group's endpoint and the peer's: all of them or, on an error, none."""
    timeouts = timeouts or Timeouts()
    conns: dict[Endpoint, socket.socket] = {}
    links: dict[Endpoint, dict[Endpoint, socket.socket]] = {}
    with contextlib.ExitStack() as dialled:
        def dial(endpoint: Endpoint) -> socket.socket:
            return dialled.enter_context(
                _dial(endpoint, _describe(index[endpoint][0], endpoint), timeouts))

        for endpoint in index:
            if endpoint != local:
                conns[endpoint] = dial(endpoint)
        for coupling in plan.graph.couplings:
            src = plan.endpoints[coupling.src.component]
            dst = plan.endpoints[coupling.dst.component]
            if src != dst and dst not in links.setdefault(src, {}):
                links[src][dst] = link = dial(dst)
                write_frame(link, WireFrame(PROPAGATE))
        dialled.pop_all()  # every one is made: keep them open
    return conns, links


def serve_simulators(plan: DistributedPlan, names, *,
                     timeouts: Timeouts | None = None) -> list[ServiceGroup]:
    """Bind a listener at each distinct endpoint among ``names`` and start,
    and return, one service group on each (see :func:`_start_groups`).
    Every atomic at such an endpoint must be among ``names``: the plan is
    checked and indexed once, and an unknown atomic or a split endpoint
    refused, before anything is bound."""
    plan.check()
    for name in names:
        if name not in plan.endpoints:
            raise SimulationError(f"unknown atomic {name!r} in plan {plan.graph.name!r}")
    index, named = _index(plan), set(names)
    endpoints = list(dict.fromkeys(plan.endpoints[name] for name in names))
    for endpoint in endpoints:
        for name in index[endpoint][0]:
            if name not in named:
                raise SimulationError(f"atomic {name!r} at {endpoint} is not hosted: "
                                      "a process must host every atomic at its endpoint")
    return _start_groups(plan, index, _listen(index, endpoints), timeouts)


class DistributedCoordinator:
    """Drives the abstract-protocol command cycle over service groups, one
    connection per plan endpoint: ``conns`` if dialled already, the others
    dialled at INIT, all closed when the run ends.

    A ``local`` group of the plan, hosted by this process, gets no link:
    each of its commands runs on the coordinator's thread once every other
    group's frame of the phase is written and before any reply is read, so
    it may push to, and wait for, the groups at work on theirs. One group,
    not several: two driven from one thread would wait on each other."""

    backend_name = "distributed"

    def __init__(self, plan: DistributedPlan, *, trace: bool = False,
                 timeouts: Timeouts | None = None, local: ServiceGroup | None = None,
                 conns: dict[Endpoint, socket.socket] | None = None) -> None:
        plan.check()
        self.plan = plan
        self.trace_enabled = trace
        self.timeouts = timeouts or Timeouts()
        self.names = list(plan.graph.atomics)
        self._ranks = {name: rank for rank, name in enumerate(self.names)}
        # Coupling targets of each atomic: the services that may receive its
        # output and so need a DELTFCN when it is imminent.
        self._targets: dict[str, set[str]] = {name: set() for name in self.names}
        for coupling in plan.graph.couplings:
            self._targets[coupling.src.component].add(coupling.dst.component)
        self._groups = plan.groups()
        # The other endpoints that each atomic's output enters.
        self._feeds: dict[str, set[Endpoint]] = {
            name: {plan.endpoints[dst] for dst in targets} - {plan.endpoints[name]}
            for name, targets in self._targets.items()}
        self.frames_sent: Counter[str] = Counter()
        self.frames_received: Counter[str] = Counter()
        self._conns: dict[Endpoint, socket.socket] = dict(conns or {})
        self._local = local
        self._local_at = local.endpoint if local is not None else None

    # -- plumbing ---------------------------------------------------------------

    def _where(self, endpoint: Endpoint) -> str:
        return _describe(self._groups[endpoint], endpoint)

    def _connect_all(self, init: WireFrame) -> dict[str, float]:
        """Connect to every endpoint without a link, but the local group's,
        in plan order, then write every INIT and read the replies; the tN of
        every atomic."""
        for endpoint in self._groups:
            if endpoint != self._local_at and endpoint not in self._conns:
                self._conns[endpoint] = _dial(endpoint, self._where(endpoint), self.timeouts)
        tn: dict[str, float] = {}
        for endpoint, reply in self._send(dict.fromkeys(self._groups, init)).items():
            hosted = self._tn_pairs(endpoint, reply)
            if sorted(hosted) != sorted(self._groups[endpoint]):
                raise SimulationError(
                    f"{self._where(endpoint)} hosts {list(hosted)}, but the plan puts "
                    f"{self._groups[endpoint]} there")
            tn.update(hosted)
        return tn

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
            group = self._local
            group._depth += 1  # a command on a link it accepts is refused meanwhile
            try:
                values = group._dispatch(sent)
            except SimulationError as exc:
                raise SimulationError(f"{where} reported: {exc}") from exc
            finally:
                group._depth -= 1
            self.frames_received[ACK] += 1
            return WireFrame(ACK, sender=group.names[0], values=values)
        try:
            reply = read_frame(self._conns[endpoint])
        except socket.timeout as exc:
            waiting = f" at t={sent.time!r}" if sent.time is not None else ""
            if sent.command == DELTFCN and sent.values[2]:
                waiting += (" waiting for the batches of "
                            f"{', '.join(map(repr, sent.values[2]))}")
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

    def _send(self, frames: dict[Endpoint, WireFrame]) -> dict[Endpoint, WireFrame]:
        """Write every frame to its connection, then read every ACK: the
        groups work on their commands at once. The local group's command
        runs first among the reads, once the others are at work."""
        for endpoint, frame in frames.items():
            self._write(endpoint, frame)
        return {endpoint: self._read(endpoint, frames[endpoint])
                for endpoint in sorted(frames, key=lambda endpoint: endpoint != self._local_at)}

    def _deltfcn(self, t: float, imminent: list[str],
                 active: list[str]) -> dict[str, float]:
        """Send a DELTFCN at ``t`` to each group hosting ``active`` atomics,
        naming its ``imminent`` and ``active`` atomics and the senders whose
        PROPAGATE batches it waits for; the new tN of each active atomic."""
        batches: dict[Endpoint, tuple[list[str], list[str]]] = {}
        for name in active:
            batches.setdefault(self.plan.endpoints[name], ([], []))[1].append(name)
        for name in imminent:
            batches[self.plan.endpoints[name]][0].append(name)
        replies = self._send({endpoint: WireFrame(DELTFCN, time=t, values=(
            mine, atomics, [sender for sender in imminent if endpoint in self._feeds[sender]]))
            for endpoint, (mine, atomics) in batches.items()})
        tn: dict[str, float] = {}
        for endpoint, reply in replies.items():
            pairs = self._tn_pairs(endpoint, reply)
            if list(pairs) != batches[endpoint][1]:
                raise SimulationError(
                    f"{self._where(endpoint)} acknowledged {DELTFCN} for "
                    f"{list(pairs)}, expected {batches[endpoint][1]}")
            tn.update(pairs)
        return tn

    def _tn_pairs(self, endpoint: Endpoint, reply: WireFrame) -> dict[str, float]:
        """The ``[atomic, tN]`` pairs of an INIT or DELTFCN ACK, each atomic
        once. Callers check the atomics against the plan."""
        try:
            pairs = {atomic: decode_time(tn) for atomic, tn in reply.values}
            if len(pairs) != len(reply.values) or not all(isinstance(a, str) for a in pairs):
                raise ValueError("an atomic is listed twice or is not a name")
            return pairs
        except (TypeError, ValueError, ProtocolError) as exc:
            raise SimulationError(
                f"{self._where(endpoint)} sent bad [atomic, tN] pairs: {exc}") from exc

    # -- the protocol ------------------------------------------------------------------

    def run(self, max_iterations: int | None = None) -> RunReport:
        started = time.perf_counter()
        try:
            tn = self._connect_all(
                WireFrame(INIT, values=(1 if self.trace_enabled else 0,)))
            cycles = 0
            while max_iterations is None or cycles < max_iterations:
                t = min(tn.values(), default=math.inf)
                if math.isinf(t):
                    break
                imminent = [name for name in self.names if tn[name] == t]
                active = set(imminent)
                for name in imminent:
                    active.update(self._targets[name])
                tn.update(self._deltfcn(
                    t, imminent, sorted(active, key=self._ranks.__getitem__)))
                cycles += 1
            exits = self._send({endpoint: WireFrame(EXIT) for endpoint in self._groups})
        finally:
            for sock in self._conns.values():
                sock.close()
        # Each group's EXIT ACK: its ints, exts, events, dropped events and
        # PROPAGATE frames, then [atomic, trace] for every atomic it hosts.
        totals = [0] * 5
        traces: dict[str, list] = {}
        for endpoint, reply in exits.items():
            *numbers, pairs = reply.values or (None,)
            try:
                check_event_value(pairs)  # the traces carry event values
            except ModelError:
                pairs = None
            if not (len(numbers) == 5 and all(type(n) is int for n in numbers)
                    and isinstance(pairs, list) and all(
                        isinstance(pair, list) and len(pair) == 2
                        and isinstance(pair[0], str) for pair in pairs)
                    and sorted(atomic for atomic, _ in pairs)
                    == sorted(self._groups[endpoint])):
                raise SimulationError(f"bad exit payload from {self._where(endpoint)}: "
                                      f"{reply.values!r:.80}")
            totals = [total + n for total, n in zip(totals, numbers)]
            traces.update(pairs)
        ints, exts, events, dropped, peer_frames = totals
        wall = time.perf_counter() - started
        return RunReport(
            model=self.plan.graph.name, backend=self.backend_name,
            workers_pools=str(len(self.names)), cycles=cycles,
            wall_seconds=wall, num_delt_ints=ints, num_delt_exts=exts,
            num_of_events=events,
            traces={name: [TraceEntry.from_payload(raw) for raw in traces[name]]
                    for name in self.names} if self.trace_enabled else None,
            diagnostics={"dropped_events": dropped,
                         "frames_sent": dict(self.frames_sent),
                         "frames_received": dict(self.frames_received),
                         "peer_frames": peer_frames})


def run_coordinator(plan: DistributedPlan, max_iterations: int | None = None, *,
                    trace: bool = False,
                    timeouts: Timeouts | None = None) -> RunReport:
    """Run the distributed protocol over already-listening services."""
    return DistributedCoordinator(plan, trace=trace, timeouts=timeouts).run(max_iterations)
