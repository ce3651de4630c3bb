"""Socket-distributed backend.

The plan states the process layout: atomics whose plan endpoints are equal
(``host:port``) are co-hosted by one :class:`ServiceGroup`, which runs the
kernel's cycle engine over them: a :class:`SequentialCoordinator`, or a
:class:`ParallelCoordinator` with one pool of up to one worker per CPU of
its share (the groups of a process divide the CPUs it may run on). Groups
that share a process but not an endpoint push to each other over TCP like
any other peers. A group binds one listener at its endpoint, served
by one accept thread. The first frame on an accepted connection says what
the connection is: PROPAGATE opens a link from a peer group, anything else
is the coordinator's link.

The root coordinator connects to every endpoint in plan order and writes
every INIT before it reads any reply. Each ACK lists exactly the atomics
that the plan puts at that endpoint, each with its next-event time (tN).
The coordinator keeps every atomic's tN and takes the minimum itself. Each
cycle then sends at most two frames per group, both carrying the cycle
time and naming the atomics they address:

- LAMBDA, to the imminent atomics. The group runs their output functions,
  copies every coupling that leaves its block into one batch per peer
  group, and sends each peer one PROPAGATE frame, which is not
  acknowledged.
- DELTFCN, to the imminent atomics and their coupling targets, as
  ``[atomics, senders]``: the senders are the imminent atomics of other
  groups coupled into the block. The group waits until every coupling
  from them into the block has filed its batch, then fills its input bags
  along every coupling that enters the block, in plan coupling order:
  in-block couplings read the hosted output bags, cross-group ones the
  batches that peers sent. This keeps bags byte-identical to the
  sequential backend. It then runs the transitions and answers with
  ``[atomic, tN]`` for each addressed atomic, or with the first error that
  a peer's batch raised when it arrived.

The coordinator writes a phase's frame to every group before it reads any
reply, and never relays event values.

A group dials a peer's endpoint on its first push to it, so there is one
link per ordered pair of groups. The link carries PROPAGATE frames only,
and nothing is ever read back from it.
"""

from __future__ import annotations

import math
import socket
import threading
import time
from dataclasses import dataclass

from .kernel import (RunReport, SequentialCoordinator, SimulationError,
                     Simulator, TraceEntry)
from .model import IC, ModelGraph, validate
from .parallel import ParallelCoordinator, PoolPlan, default_workers
from .wire import (ACK, DELTFCN, EXIT, INIT, LAMBDA, PROPAGATE, ProtocolError,
                   WireFrame, decode_time, encode_time, read_frame,
                   write_frame)

_ERROR_MARK = "__error__"

# What ``pdevsim serve`` prints on stdout once every listener is bound.
READY_LINE = "ready"


@dataclass(frozen=True)
class Endpoint:
    """Where a service group, or the coordinator, listens. Atomics with
    equal endpoints are co-hosted by one group."""

    host: str
    main_port: int

    def __post_init__(self) -> None:
        if self.main_port and not 1 <= self.main_port <= 65535:
            raise SimulationError(f"port {self.main_port} out of range on {self.host}")

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
    coordinator: Endpoint

    def check(self) -> None:
        errors = [v for v in validate(self.graph) if v.severity == "error"]
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
        for name, endpoint in self.endpoints.items():
            if endpoint == self.coordinator:
                raise SimulationError(f"duplicate endpoint {endpoint}: atomic {name!r} "
                                      "is on the coordinator's endpoint")

    def groups(self) -> dict[Endpoint, list[str]]:
        """The atomics at each endpoint, both in plan order."""
        groups: dict[Endpoint, list[str]] = {}
        for name, endpoint in self.endpoints.items():
            groups.setdefault(endpoint, []).append(name)
        return groups


def _configure(sock: socket.socket, read_timeout: float | None) -> None:
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.settimeout(read_timeout)


def _shutdown_close(sock: socket.socket) -> None:
    """Close a socket so that a thread blocked on it wakes up."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


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

    The engine is built with the group, so INIT only initializes it. The
    group listens on its endpoint with one socket and one accept thread,
    and serves each accepted connection on a thread of its own: the
    coordinator's link drives the whole group, and a peer group's link
    carries that peer's pushes to every hosted atomic.

    :func:`serve_simulators` builds the groups of a process: it checks the
    plan, indexes it (``index``, see :func:`_index`) and divides the
    process's CPUs between the groups (``workers``) once for all of them.
    """

    def __init__(self, plan: DistributedPlan, endpoint: Endpoint, index: dict, *,
                 workers: int, timeouts: Timeouts | None = None) -> None:
        self.plan = plan
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
        # shipped at LAMBDA to the target's endpoint as [sender, port,
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
        # the intake errors the next DELTFCN reports. Peer links file under
        # the condition's lock, and DELTFCN waits on it.
        self._received: set[tuple[str, str, str, str]] = set()
        self._intake_errors: list[str] = []
        self._filed = threading.Condition()
        self._initialized = False
        self.peer_frames = 0
        self._links: dict[Endpoint, socket.socket] = {}  # to peer groups
        self._sockets: list[socket.socket] = []  # the listener and connections
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ServiceGroup":
        try:
            listener = socket.create_server(self.endpoint.main_addr())
        except OSError as exc:
            self.stop()
            raise SimulationError(
                f"cannot bind {', '.join(map(repr, self.names))} at "
                f"{self.endpoint}: {exc}") from exc
        self._sockets.append(listener)
        self._spawn(f"svc-{self.names[0]}", self._accept, listener)
        return self

    def _spawn(self, thread_name: str, target, *args) -> None:
        thread = threading.Thread(target=target, args=args, daemon=True,
                                  name=thread_name)
        thread.start()
        self._threads.append(thread)

    def join(self, timeout: float | None = None) -> None:
        index = 0
        while index < len(self._threads):  # the accept loop may still add some
            self._threads[index].join(timeout)
            index += 1

    def stop(self) -> None:
        """Close every socket and end a DELTFCN's wait for batches, which
        wakes the accept loop and every connection thread; the threads then
        end on their own."""
        self._stop.set()
        for sock in list(self._sockets):
            _shutdown_close(sock)
        with self._filed:  # ends a DELTFCN's wait for batches
            self._filed.notify_all()
        if isinstance(self.engine, ParallelCoordinator):
            self.engine.close()

    # -- connections --------------------------------------------------------------

    def _accept(self, listener: socket.socket) -> None:
        """Serve each connection ``listener`` accepts on a thread of its
        own, until :meth:`stop` shuts the listener down."""
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            _configure(conn, None)
            self._sockets.append(conn)
            if self._stop.is_set():  # stop() may have closed the others before this one
                _shutdown_close(conn)
                return
            self._spawn(f"svc-{self.names[0]}-conn", self._serve, conn)

    def _serve(self, conn: socket.socket) -> None:
        """Serve one connection: a peer group's link if its first frame is
        a PROPAGATE, else the coordinator's link. A first frame that cannot
        be read is answered with a one-line error."""
        with conn:
            try:
                frame = read_frame(conn)
            except ProtocolError as exc:
                try:
                    self._reply(conn, (_ERROR_MARK, f"bad first frame on a connection "
                                                    f"to {self.label}: {exc}"))
                except OSError:
                    pass
                return
            except OSError:
                return
            if frame is None:
                return
            if frame.command == PROPAGATE:
                self._serve_peer(conn, frame)
            else:
                self._serve_commands(conn, frame)

    def _serve_commands(self, conn: socket.socket, frame: WireFrame) -> None:
        """Answer ``frame`` and each later coordinator command with one ACK
        carrying its result, or the error it raised, until the coordinator
        hangs up or an EXIT succeeds."""
        try:
            while frame is not None:
                try:
                    values = self._dispatch(frame)
                except SimulationError as exc:
                    self._reply(conn, (_ERROR_MARK, str(exc)))
                else:
                    self._reply(conn, values)
                    if frame.command == EXIT:
                        self.stop()
                        return
                frame = read_frame(conn)
        except (ProtocolError, OSError):
            pass

    def _reply(self, conn: socket.socket, values: tuple) -> None:
        write_frame(conn, WireFrame(ACK, sender=self.names[0], values=values))

    # -- coordinator commands -----------------------------------------------------

    def _dispatch(self, frame: WireFrame) -> tuple:
        """Run one coordinator command over the block: INIT and EXIT cover
        every hosted atomic, LAMBDA and DELTFCN the atomics the frame names."""
        command = frame.command
        engine = self.engine
        sims = engine.simulators
        if command == INIT:
            engine.trace_enabled = bool(frame.values and frame.values[0])
            for sim in sims.values():
                sim.trace = [] if engine.trace_enabled else None
            engine.initialize()
            self._initialized = True
            return tuple([atomic, encode_time(sim.tN)] for atomic, sim in sims.items())
        if not self._initialized:
            raise SimulationError(f"{self.label} got {command} before INIT")
        if command == EXIT:
            traces = [[atomic, [entry.to_payload() for entry in sim.trace or ()]]
                      for atomic, sim in sims.items()]
            return (*engine.counters.triple(), engine.dropped_events,
                    self.peer_frames, traces)
        if command not in (LAMBDA, DELTFCN):
            raise SimulationError(f"unexpected command {command} on the coordinator's "
                                  f"link to {self.label}")
        if frame.time is None:
            raise SimulationError(f"{command} frame without time")
        atomics, senders = frame.values, []
        if command == DELTFCN:
            if not (len(frame.values) == 2
                    and all(isinstance(part, list) for part in frame.values)):
                raise SimulationError(f"{command} values must be [atomics, senders], "
                                      f"got {list(frame.values)!r:.80}")
            atomics, senders = frame.values
        addressed = []
        for atomic in atomics:
            sim = sims.get(atomic) if isinstance(atomic, str) else None
            if sim is None:
                raise SimulationError(
                    f"{command} addresses {atomic!r}, which {self.label} does not host")
            addressed.append(sim)
        if len(set(addressed)) != len(addressed):
            raise SimulationError(f"{command} addresses an atomic twice: "
                                  f"{list(atomics)}")
        t = frame.time
        if command == LAMBDA:
            engine._run_phase(Simulator.run_lambda, addressed, t)
            self._ship([sim for sim in addressed if sim.tN == t])
            return ()
        self._take_inputs(senders)
        engine._run_phase(Simulator.run_delta, addressed, t)
        return tuple([sim.name, encode_time(sim.tN)] for sim in addressed)

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
                write_frame(self._link(endpoint), WireFrame(PROPAGATE, values=tuple(items)))
            except (OSError, ProtocolError) as exc:
                raise SimulationError(f"propagation to the process of {items[0][2]!r} at "
                                      f"{endpoint} failed: {exc}") from exc
        self.peer_frames += len(batches)

    def _link(self, endpoint: Endpoint) -> socket.socket:
        """The link to the peer group at ``endpoint``, dialled on the first
        push to it."""
        link = self._links.get(endpoint)
        if link is None:
            link = socket.create_connection(endpoint.main_addr(),
                                            timeout=self.timeouts.connect)
            self._sockets.append(link)
            _configure(link, self.timeouts.read)
            self._links[endpoint] = link
        return link

    def _serve_peer(self, conn: socket.socket, frame: WireFrame) -> None:
        """File ``frame`` and every later batch a peer group's link brings,
        unanswered, until the peer hangs up."""
        try:
            while frame is not None:
                self._take_batch(frame)
                frame = read_frame(conn)
        except ProtocolError as exc:
            with self._filed:
                self._intake_errors.append(f"bad frame on a peer link to {self.label}: {exc}")
                self._filed.notify_all()
        except OSError:
            pass

    def _take_batch(self, frame: WireFrame) -> None:
        """Put a peer's PROPAGATE batch in the inbound buckets, which the
        next DELTFCN empties, and wake a DELTFCN that waits for it. Each
        coupling that enters the block may send one batch per cycle; an
        error is kept for the next DELTFCN to report."""
        with self._filed:
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
                    sender, port, target, target_port, values = item
                    key = (sender, port, target, target_port)
                    bucket = self._inbound.get(key)
                    if bucket is None:
                        raise SimulationError(
                            f"PROPAGATE from {sender!r} port {port!r} to {target!r} port "
                            f"{target_port!r}: no such coupling enters {self.label}")
                    if key in self._received:
                        raise SimulationError(
                            f"PROPAGATE from {sender!r} port {port!r} to {target!r} port "
                            f"{target_port!r}: a second batch in one cycle")
                    self._received.add(key)
                    bucket.extend(values)
            except SimulationError as exc:
                self._intake_errors.append(str(exc))
            self._filed.notify_all()

    def _take_inputs(self, senders: list) -> None:
        """Wait until every coupling from ``senders`` into the block has filed
        its batch, then fill the input bags along every route. Raises the
        first intake error, or names a coupling whose batch did not arrive
        within the read timeout."""
        expected = []
        for sender in senders:
            keys = self._feeds.get(sender) if isinstance(sender, str) else None
            if keys is None:
                raise SimulationError(f"{DELTFCN} names sender {sender!r}, which has no "
                                      f"coupling into {self.label}")
            expected.extend(keys)
        with self._filed:
            arrived = self._filed.wait_for(
                lambda: (self._stop.is_set() or self._intake_errors
                         or self._received.issuperset(expected)),
                timeout=self.timeouts.read)
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
                sender, port, target, target_port = key
                raise SimulationError(f"PROPAGATE from {sender!r} port {port!r} to "
                                      f"{target!r} port {target_port!r}: {problem}")
            self.engine._propagate()
            self._received.clear()


def serve_simulators(plan: DistributedPlan, names, *,
                     timeouts: Timeouts | None = None) -> list[ServiceGroup]:
    """Start, and return, one service group per distinct endpoint among
    ``names`` in this process: all of them or, on any error, none. Every
    atomic at such an endpoint must be among ``names``.

    The plan is checked and indexed once for all the groups. The groups
    divide the CPUs the process may run on between them, at least one
    each, as ``run_distributed_local`` divides the host's between its
    processes, so k groups on N CPUs do not start k pools of N workers.
    """
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
    cpus, count = default_workers(), len(endpoints)
    groups: list[ServiceGroup] = []
    try:
        for i, endpoint in enumerate(endpoints):
            share = cpus * (i + 1) // count - cpus * i // count
            groups.append(ServiceGroup(plan, endpoint, index, workers=max(share, 1),
                                       timeouts=timeouts))
        for group in groups:
            group.start()
    except BaseException:
        for group in groups:
            group.stop()
        raise
    return groups


class DistributedCoordinator:
    """Drives the abstract-protocol command cycle over service groups, one
    connection per plan endpoint."""

    backend_name = "distributed"

    def __init__(self, plan: DistributedPlan, *, trace: bool = False,
                 timeouts: Timeouts | None = None) -> None:
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
        self.frames_sent: dict[str, int] = {}
        self.frames_received: dict[str, int] = {}
        self._conns: dict[Endpoint, socket.socket] = {}

    # -- plumbing ---------------------------------------------------------------

    def _where(self, endpoint: Endpoint) -> str:
        hosted = self._groups[endpoint]
        more = f" (+{len(hosted) - 1} co-hosted)" if len(hosted) > 1 else ""
        return f"simulator {hosted[0]!r}{more} at {endpoint}"

    def _connect_all(self, init: WireFrame) -> dict[str, float]:
        """Connect to every endpoint in plan order and write its INIT, then
        read the replies; the tN of every atomic."""
        for endpoint in self._groups:
            try:
                sock = socket.create_connection(endpoint.main_addr(),
                                                timeout=self.timeouts.connect)
            except OSError as exc:
                raise SimulationError(f"{self._where(endpoint)} unreachable: {exc}") from exc
            _configure(sock, self.timeouts.read)
            self._conns[endpoint] = sock
            self._write(endpoint, init)
        tn: dict[str, float] = {}
        for endpoint, reply in self._replies(dict.fromkeys(self._groups, init)).items():
            hosted = self._tn_pairs(endpoint, reply)
            if sorted(hosted) != sorted(self._groups[endpoint]):
                raise SimulationError(
                    f"{self._where(endpoint)} hosts {list(hosted)}, but the plan puts "
                    f"{self._groups[endpoint]} there")
            tn.update(hosted)
        return tn

    def _write(self, endpoint: Endpoint, frame: WireFrame) -> None:
        try:
            write_frame(self._conns[endpoint], frame)
        except (OSError, ProtocolError) as exc:
            raise SimulationError(f"{self._where(endpoint)} failed: {exc}") from exc
        self._count(self.frames_sent, frame.command)

    def _read(self, endpoint: Endpoint, sent: WireFrame) -> WireFrame:
        """The reply to ``sent``. A read timeout names the command, its
        cycle time and, for a DELTFCN, the senders whose batches the
        process waits for."""
        where = self._where(endpoint)
        try:
            reply = read_frame(self._conns[endpoint])
        except socket.timeout as exc:
            waiting = f" at t={sent.time!r}" if sent.time is not None else ""
            if sent.command == DELTFCN and sent.values[1]:
                waiting += (" waiting for the batches of "
                            f"{', '.join(map(repr, sent.values[1]))}")
            raise SimulationError(f"{where} timed out after {self.timeouts.read:g} s "
                                  f"on {sent.command}{waiting}") from exc
        except (OSError, ProtocolError) as exc:
            raise SimulationError(f"{where} failed: {exc}") from exc
        if reply is None:
            raise SimulationError(f"{where} closed the connection")
        if reply.values[:1] == (_ERROR_MARK,):
            raise SimulationError(f"{where} reported: {reply.values[1]}")
        self._count(self.frames_received, reply.command)
        if reply.command != ACK:
            raise SimulationError(f"{where} replied {reply.command}, expected {ACK}")
        return reply

    def _count(self, histogram: dict[str, int], command: str) -> None:
        histogram[command] = histogram.get(command, 0) + 1

    def _replies(self, frames: dict[Endpoint, WireFrame]) -> dict[Endpoint, WireFrame]:
        return {endpoint: self._read(endpoint, frame) for endpoint, frame in frames.items()}

    def _send(self, frames: dict[Endpoint, WireFrame]) -> dict[Endpoint, WireFrame]:
        """Write every frame to its connection, then read every ACK: the
        groups work on their commands at once."""
        for endpoint, frame in frames.items():
            self._write(endpoint, frame)
        return self._replies(frames)

    def _command(self, command: str, t: float, names: list[str],
                 imminent: list[str] = ()) -> dict[str, float]:
        """Send ``command`` at ``t`` to the groups hosting ``names``, one
        frame per group naming its atomics in the order given; for DELTFCN,
        the new tN of each. A DELTFCN frame holds ``[atomics, senders]``:
        the senders are the ``imminent`` atomics of other groups whose
        output enters the group, so it knows whose PROPAGATE batches to
        wait for."""
        batches: dict[Endpoint, list[str]] = {}
        for name in names:
            batches.setdefault(self.plan.endpoints[name], []).append(name)
        replies = self._send({endpoint: WireFrame(command, time=t, values=(
            (batch, [sender for sender in imminent if endpoint in self._feeds[sender]])
            if command == DELTFCN else tuple(batch)))
            for endpoint, batch in batches.items()})
        tn: dict[str, float] = {}
        if command == DELTFCN:
            for endpoint, reply in replies.items():
                pairs = self._tn_pairs(endpoint, reply)
                if list(pairs) != batches[endpoint]:
                    raise SimulationError(
                        f"{self._where(endpoint)} acknowledged {command} for "
                        f"{list(pairs)}, expected {batches[endpoint]}")
                tn.update(pairs)
        return tn

    def _tn_pairs(self, endpoint: Endpoint, reply: WireFrame) -> dict[str, float]:
        """The ``[atomic, tN]`` pairs of an INIT or DELTFCN ACK, each atomic
        once. Callers check the atomics against the plan."""
        try:
            pairs = {atomic: decode_time(tn) for atomic, tn in reply.values}
            if len(pairs) != len(reply.values):
                raise ValueError("an atomic is listed twice")
            return pairs
        except (TypeError, ValueError, ProtocolError) as exc:
            raise SimulationError(
                f"{self._where(endpoint)} sent bad [atomic, tN] pairs: {exc}") from exc

    def close(self) -> None:
        for sock in self._conns.values():
            try:
                sock.close()
            except OSError:
                pass
        self._conns.clear()

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
                self._command(LAMBDA, t, imminent)
                active = set(imminent)
                for name in imminent:
                    active.update(self._targets[name])
                tn.update(self._command(
                    DELTFCN, t, sorted(active, key=self._ranks.__getitem__), imminent))
                cycles += 1
            exits = self._send({endpoint: WireFrame(EXIT) for endpoint in self._conns})
        finally:
            self.close()
        # Each group's EXIT ACK: its ints, exts, events, dropped events and
        # PROPAGATE frames, then [atomic, trace] for every atomic it hosts.
        totals = [0] * 5
        traces: dict[str, list] = {}
        for endpoint, reply in exits.items():
            *numbers, pairs = reply.values or (None,)
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
