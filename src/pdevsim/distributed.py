"""Socket-distributed backend.

A service process hosts a block of the plan's atomic models
(:func:`serve_simulators`) and runs the kernel's cycle engine over it: a
:class:`SequentialCoordinator`, or a :class:`ParallelCoordinator` with one
pool of up to one worker per CPU that the process may run on. Every hosted
atomic listens on two TCP ports: the main port takes the coordinator's
protocol commands, the auxiliary port takes links from peer processes.

The root coordinator dials, in plan order, the first atomic that no earlier
connection covers and sends it INIT. The ACK lists every atomic that the
process hosts, each with its next-event time (tN), so the coordinator opens
one connection per process. It keeps every atomic's tN and takes the
minimum itself. Each cycle then sends at most two frames per process, both
carrying the cycle time and naming the atomics they address:

- LAMBDA, to the imminent atomics. The process runs their output functions,
  copies every coupling that leaves its block into one batch per peer
  process, and sends each peer one PROPAGATE frame, which is not
  acknowledged.
- DELTFCN, to the imminent atomics and their coupling targets, as
  ``[atomics, senders]``: the senders are the imminent atomics of other
  processes coupled into the block. The process waits until every coupling
  from them into the block has filed its batch, then fills its input bags
  along every coupling that enters the block, in plan coupling order:
  in-block couplings read the hosted output bags, cross-process ones the
  batches that peers sent. This keeps bags byte-identical to the
  sequential backend. It then runs the transitions and answers with
  ``[atomic, tN]`` for each addressed atomic, or with the first error that
  a peer's batch raised when it arrived.

The coordinator writes a phase's frame to every process before it reads
any reply, and never relays event values.

A process opens the link to a peer process the first time it pushes to one
of the peer's atomics, by dialling that atomic's aux port. The peer greets
the link with the atomics it hosts, so later pushes to any of them share
the link: one link per ordered pair of processes. The greeting is the only
frame the link carries back.
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
    """Where a simulation entity listens: coordinator commands on
    ``main_port``, peer propagation on ``aux_port``."""

    host: str
    main_port: int
    aux_port: int = 0

    def __post_init__(self) -> None:
        for port in (self.main_port, self.aux_port):
            if port and not 1 <= port <= 65535:
                raise SimulationError(f"port {port} out of range on {self.host}")

    def main_addr(self) -> tuple[str, int]:
        return self.host, self.main_port

    def aux_addr(self) -> tuple[str, int]:
        return self.host, self.aux_port

    def __str__(self) -> str:
        return f"{self.host}:{self.main_port}"


@dataclass(frozen=True)
class Timeouts:
    connect: float = 5.0
    read: float = 60.0


@dataclass
class DistributedPlan:
    """A flattened closed model plus one endpoint per atomic."""

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
        seen: set[tuple[str, int]] = set()
        for endpoint in list(self.endpoints.values()) + [self.coordinator]:
            addr = endpoint.main_addr()
            if addr in seen:
                raise SimulationError(f"duplicate endpoint {endpoint}")
            seen.add(addr)


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


class ServiceGroup:
    """The atomics that one process hosts, and the kernel engine over them.

    The engine is built with the group, so INIT only initializes it. Each
    hosted atomic listens on its own plan ports. A coordinator connection
    to any of them drives the whole group, and a link accepted on any aux
    port carries one peer process's pushes to every hosted atomic. The plan
    is checked, and its couplings indexed, once per group.
    """

    def __init__(self, plan: DistributedPlan, names, *,
                 timeouts: Timeouts | None = None) -> None:
        plan.check()
        self.plan = plan
        self.names = list(names)
        block = ModelGraph(plan.graph.name)
        for name in self.names:
            if name not in plan.graph.atomics:
                raise SimulationError(f"unknown atomic {name!r} in plan "
                                      f"{plan.graph.name!r}")
            block.add_component(plan.graph.atomics[name])
        self.timeouts = timeouts or Timeouts()
        workers = min(default_workers(), len(self.names))
        self.engine = (ParallelCoordinator(block, PoolPlan.single_pool(self.names, workers))
                       if workers > 1 else SequentialCoordinator(block))
        sims = self.engine.simulators
        # Couplings into the block, in plan order, read a hosted output bag
        # or the inbound bucket that peers fill; couplings out of it are
        # shipped at LAMBDA as [sender, port, target, target port, values].
        routes = []
        self._inbound: dict[tuple[str, str, str, str], list] = {}
        # The inbound couplings of each sender in another process.
        self._feeds: dict[str, list[tuple[str, str, str, str]]] = {}
        self._outbound: dict[str, list[tuple[list, str, list[str]]]] = {
            name: [] for name in self.names}
        for coupling in plan.graph.couplings:
            src, dst = coupling.src, coupling.dst
            key = (src.component, src.port, dst.component, dst.port)
            if src.component in sims:
                bag = sims[src.component].model.output_bags[src.port]
                if dst.component not in sims:
                    self._outbound[src.component].append((bag, dst.component, list(key)))
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
        # Outgoing links by the peer atomics they reach.
        self._links: dict[str, socket.socket] = {}
        self._sockets: list[socket.socket] = []  # listeners and connections
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ServiceGroup":
        for name in self.names:
            endpoint = self.plan.endpoints[name]
            try:
                main = self._listen(endpoint.host, endpoint.main_port)
                aux = self._listen(endpoint.host, endpoint.aux_port)
            except OSError as exc:
                self.stop()
                raise SimulationError(
                    f"cannot bind {name!r} on {endpoint.host} "
                    f"ports {endpoint.main_port}/{endpoint.aux_port}: {exc}") from exc
            self._spawn(f"svc-{name}-main", self._accept, main, name, self._serve_commands)
            self._spawn(f"svc-{name}-aux", self._accept, aux, name, self._serve_peer)
        return self

    def _listen(self, host: str, port: int) -> socket.socket:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sockets.append(listener)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(16)
        listener.settimeout(0.5)  # lets accept loops notice a stop request
        return listener

    def _spawn(self, thread_name: str, target, *args) -> None:
        thread = threading.Thread(target=target, args=args, daemon=True,
                                  name=thread_name)
        thread.start()
        self._threads.append(thread)

    def join(self, timeout: float | None = None) -> None:
        index = 0
        while index < len(self._threads):  # accept loops may still add some
            self._threads[index].join(timeout)
            index += 1

    def stop(self) -> None:
        self._stop.set()
        for sock in list(self._sockets):
            _shutdown_close(sock)
        if isinstance(self.engine, ParallelCoordinator):
            self.engine.close()

    # -- connections --------------------------------------------------------------

    def _accept(self, listener: socket.socket, name: str, serve) -> None:
        """Run ``serve(conn, name)`` for each connection ``listener``
        accepts, on a thread of its own."""
        while not self._stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # stopped
            _configure(conn, None)
            self._sockets.append(conn)
            self._spawn(f"{threading.current_thread().name}-conn", serve, conn, name)

    def _serve_commands(self, conn: socket.socket, name: str) -> None:
        """Answer each coordinator command with one ACK carrying its result,
        or the error it raised, until the coordinator hangs up or an EXIT
        succeeds."""
        with conn:
            try:
                while (frame := read_frame(conn)) is not None:
                    try:
                        values = self._dispatch(frame, name)
                    except SimulationError as exc:
                        write_frame(conn, WireFrame(ACK, sender=name,
                                                    values=(_ERROR_MARK, str(exc))))
                        continue
                    write_frame(conn, WireFrame(ACK, sender=name, values=values))
                    if frame.command == EXIT:
                        self.stop()
                        return
            except (ProtocolError, OSError):
                pass

    # -- coordinator commands -----------------------------------------------------

    def _dispatch(self, frame: WireFrame, name: str) -> tuple:
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
            raise SimulationError(f"simulator {name!r} got {command} before INIT")
        if command == EXIT:
            traces = [[atomic, [entry.to_payload() for entry in sim.trace or ()]]
                      for atomic, sim in sims.items()]
            return (*engine.counters.triple(), engine.dropped_events,
                    self.peer_frames, traces)
        if command not in (LAMBDA, DELTFCN):
            raise SimulationError(f"unexpected command {command} on main connection")
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
                    f"{command} addresses {atomic!r}, which the process of "
                    f"{name!r} does not host")
            addressed.append(sim)
        if len(set(addressed)) != len(addressed):
            raise SimulationError(f"{command} addresses an atomic twice: "
                                  f"{list(atomics)}")
        t = frame.time
        if command == LAMBDA:
            engine._run_phase(Simulator.run_lambda, addressed, t)
            self._ship([sim for sim in addressed if sim.tN == t])
            return ()
        self._take_inputs(senders, name)
        engine._run_phase(Simulator.run_delta, addressed, t)
        return tuple([sim.name, encode_time(sim.tN)] for sim in addressed)

    # -- peer links ---------------------------------------------------------------

    def _ship(self, imminent: list[Simulator]) -> None:
        """Send each peer process one PROPAGATE frame holding every coupling
        from ``imminent`` into that process. Nothing is read back: the peer
        waits for the frame at DELTFCN and reports intake errors there."""
        batches: dict[socket.socket, tuple[str, list]] = {}
        for sim in imminent:
            for bag, target, head in self._outbound[sim.name]:
                batch = batches.setdefault(self._link(target), (target, []))
                batch[1].append([*head, list(bag)])
        for link, (target, items) in batches.items():
            try:
                write_frame(link, WireFrame(PROPAGATE, values=tuple(items)))
            except (OSError, ProtocolError) as exc:
                raise SimulationError(
                    f"propagation to the process of {target!r} failed: {exc}") from exc
        self.peer_frames += len(batches)

    def _link(self, target: str) -> socket.socket:
        """The link to the process hosting ``target``, dialled through
        ``target``'s aux port on the first push to that process."""
        link = self._links.get(target)
        if link is not None:
            return link
        endpoint = self.plan.endpoints[target]
        where = f"peer {target!r} at {endpoint.host}:{endpoint.aux_port}"
        try:
            link = socket.create_connection(endpoint.aux_addr(),
                                            timeout=self.timeouts.connect)
            self._sockets.append(link)
            _configure(link, self.timeouts.read)
            greeting = read_frame(link)
        except (OSError, ProtocolError) as exc:
            raise SimulationError(f"{where} unreachable: {exc}") from exc
        hosted = greeting.values if greeting is not None else ()
        if target not in hosted or not all(isinstance(atomic, str) for atomic in hosted):
            raise SimulationError(f"{where} greeted with {hosted!r:.80}")
        self._links.update(dict.fromkeys(hosted, link))
        return link

    def _serve_peer(self, conn: socket.socket, name: str) -> None:
        """Greet a peer process's link with the hosted atomics, then file
        every batch it sends, unanswered, until the peer hangs up."""
        with conn:
            try:
                write_frame(conn, WireFrame(ACK, sender=name, values=tuple(self.names)))
                while (frame := read_frame(conn)) is not None:
                    self._take_batch(frame, name)
            except ProtocolError as exc:
                with self._filed:
                    self._intake_errors.append(f"bad frame on the aux port of {name!r}: {exc}")
                    self._filed.notify_all()
            except OSError:
                pass

    def _take_batch(self, frame: WireFrame, name: str) -> None:
        """Put a peer's PROPAGATE batch in the inbound buckets, which the
        next DELTFCN empties, and wake a DELTFCN that waits for it. Each
        coupling that enters the block may send one batch per cycle; an
        error is kept for the next DELTFCN to report."""
        with self._filed:
            try:
                if frame.command != PROPAGATE:
                    raise SimulationError(
                        f"unexpected {frame.command} on aux port of {name!r}")
                for item in frame.values:
                    if not (isinstance(item, list) and len(item) == 5
                            and isinstance(item[4], list)
                            and all(isinstance(field, str) for field in item[:4])):
                        raise SimulationError(
                            f"malformed PROPAGATE item at {name!r}: {item!r:.80}")
                    sender, port, target, target_port, values = item
                    key = (sender, port, target, target_port)
                    bucket = self._inbound.get(key)
                    if bucket is None:
                        raise SimulationError(
                            f"PROPAGATE from {sender!r} port {port!r} to {target!r} port "
                            f"{target_port!r}: no such coupling enters the process of "
                            f"{name!r}")
                    if key in self._received:
                        raise SimulationError(
                            f"PROPAGATE from {sender!r} port {port!r} to {target!r} port "
                            f"{target_port!r}: a second batch in one cycle")
                    self._received.add(key)
                    bucket.extend(values)
            except SimulationError as exc:
                self._intake_errors.append(str(exc))
            self._filed.notify_all()

    def _take_inputs(self, senders: list, name: str) -> None:
        """Wait until every coupling from ``senders`` into the block has filed
        its batch, then fill the input bags along every route. Raises the
        first intake error, or names a coupling whose batch did not arrive
        within the read timeout."""
        expected = []
        for sender in senders:
            keys = self._feeds.get(sender) if isinstance(sender, str) else None
            if keys is None:
                raise SimulationError(f"{DELTFCN} names sender {sender!r}, which has no "
                                      f"coupling into the process of {name!r}")
            expected.extend(keys)
        with self._filed:
            arrived = self._filed.wait_for(
                lambda: self._intake_errors or self._received.issuperset(expected),
                timeout=self.timeouts.read)
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


def serve_simulators(plan: DistributedPlan, names) -> ServiceGroup:
    """Start (and return) one group of services hosting ``names`` in this
    process."""
    return ServiceGroup(plan, names).start()


class DistributedCoordinator:
    """Drives the abstract-protocol command cycle over simulator services,
    one connection per service process."""

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
        # The other processes each atomic's output enters, keyed like _conns;
        # known once every process has answered INIT.
        self._feeds: dict[str, set[str]] = {}
        for coupling in plan.graph.couplings:
            self._targets[coupling.src.component].add(coupling.dst.component)
        self.frames_sent: dict[str, int] = {}
        self.frames_received: dict[str, int] = {}
        # One connection per service process, keyed by the atomic it was
        # dialled through; _via maps every atomic to that key.
        self._conns: dict[str, socket.socket] = {}
        self._via: dict[str, str] = {}

    # -- plumbing ---------------------------------------------------------------

    def _connect_all(self, init: WireFrame) -> dict[str, float]:
        """Dial the first atomic that no earlier INIT reply listed, until
        every atomic is covered; the tN of every atomic."""
        tn: dict[str, float] = {}
        for name in self.names:
            if name in self._via:
                continue
            endpoint = self.plan.endpoints[name]
            try:
                sock = socket.create_connection(endpoint.main_addr(),
                                                timeout=self.timeouts.connect)
            except OSError as exc:
                raise SimulationError(
                    f"simulator {name!r} at {endpoint} unreachable: {exc}") from exc
            _configure(sock, self.timeouts.read)
            self._conns[name] = sock
            hosted = self._tn_pairs(name, self._send({name: init})[name])
            if name not in hosted or any(atomic not in self._ranks or atomic in self._via
                                         for atomic in hosted):
                raise SimulationError(
                    f"simulator {name!r} at {endpoint} hosts {list(hosted)}: a "
                    "process must host itself and only plan atomics no other "
                    "process hosts")
            self._via.update(dict.fromkeys(hosted, name))
            tn.update(hosted)
        self._feeds = {name: {self._via[dst] for dst in targets} - {self._via[name]}
                       for name, targets in self._targets.items()}
        return tn

    def _write(self, name: str, frame: WireFrame) -> None:
        try:
            write_frame(self._conns[name], frame)
        except (OSError, ProtocolError) as exc:
            raise SimulationError(
                f"simulator {name!r} at {self.plan.endpoints[name]} failed: {exc}") from exc

    def _read(self, name: str) -> WireFrame:
        endpoint = self.plan.endpoints[name]
        try:
            reply = read_frame(self._conns[name])
        except socket.timeout as exc:
            raise SimulationError(
                f"simulator {name!r} at {endpoint} timed out: {exc}") from exc
        except (OSError, ProtocolError) as exc:
            raise SimulationError(
                f"simulator {name!r} at {endpoint} failed: {exc}") from exc
        if reply is None:
            raise SimulationError(f"simulator {name!r} at {endpoint} closed the connection")
        if reply.values[:1] == (_ERROR_MARK,):
            raise SimulationError(f"simulator {name!r} at {endpoint} reported: "
                                  f"{reply.values[1]}")
        return reply

    def _count(self, histogram: dict[str, int], command: str) -> None:
        histogram[command] = histogram.get(command, 0) + 1

    def _send(self, frames: dict[str, WireFrame]) -> dict[str, WireFrame]:
        """Write every frame to its connection, then read every ACK: the
        processes work on their commands at once."""
        for name, frame in frames.items():
            self._write(name, frame)
            self._count(self.frames_sent, frame.command)
        replies: dict[str, WireFrame] = {}
        for name in frames:
            reply = self._read(name)
            self._count(self.frames_received, reply.command)
            if reply.command != ACK:
                raise SimulationError(
                    f"simulator {name!r} replied {reply.command}, expected {ACK}")
            replies[name] = reply
        return replies

    def _command(self, command: str, t: float, names: list[str],
                 imminent: list[str] = ()) -> dict[str, float]:
        """Send ``command`` at ``t`` to the processes hosting ``names``, one
        frame per process naming its atomics in the order given; for
        DELTFCN, the new tN of each. A DELTFCN frame holds ``[atomics,
        senders]``: the senders are the ``imminent`` atomics of other
        processes whose output enters the process, so it knows whose
        PROPAGATE batches to wait for."""
        batches: dict[str, list[str]] = {}
        for name in names:
            batches.setdefault(self._via[name], []).append(name)
        replies = self._send({via: WireFrame(command, time=t, values=(
            (batch, [sender for sender in imminent if via in self._feeds[sender]])
            if command == DELTFCN else tuple(batch))) for via, batch in batches.items()})
        tn: dict[str, float] = {}
        if command == DELTFCN:
            for via, reply in replies.items():
                pairs = self._tn_pairs(via, reply)
                if list(pairs) != batches[via]:
                    raise SimulationError(
                        f"simulator {via!r} at {self.plan.endpoints[via]} "
                        f"acknowledged {command} for {list(pairs)}, expected "
                        f"{batches[via]}")
                tn.update(pairs)
        return tn

    def _tn_pairs(self, name: str, reply: WireFrame) -> dict[str, float]:
        """The ``[atomic, tN]`` pairs of an INIT or DELTFCN ACK, each atomic
        once. Callers check the atomics against the plan."""
        try:
            pairs = {atomic: decode_time(tn) for atomic, tn in reply.values}
            if len(pairs) != len(reply.values):
                raise ValueError("an atomic is listed twice")
            return pairs
        except (TypeError, ValueError, ProtocolError) as exc:
            raise SimulationError(
                f"simulator {name!r} at {self.plan.endpoints[name]} sent bad "
                f"[atomic, tN] pairs: {exc}") from exc

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
            exits = self._send({name: WireFrame(EXIT) for name in self._conns})
        finally:
            self.close()
        # Each process's EXIT ACK: its ints, exts, events, dropped events and
        # PROPAGATE frames, then [atomic, trace] for every atomic it hosts.
        totals = [0] * 5
        traces: dict[str, list] = {}
        for via, reply in exits.items():
            *numbers, pairs = reply.values or (None,)
            hosted = [name for name in self.names if self._via[name] == via]
            if not (len(numbers) == 5 and all(type(n) is int for n in numbers)
                    and isinstance(pairs, list) and all(
                        isinstance(pair, list) and len(pair) == 2
                        and isinstance(pair[0], str) for pair in pairs)
                    and sorted(atomic for atomic, _ in pairs) == sorted(hosted)):
                raise SimulationError(f"bad exit payload from {via!r}: {reply.values!r:.80}")
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
