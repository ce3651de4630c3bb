"""Socket-distributed backend.

Every atomic model is hosted by a simulator service that listens on two TCP
ports: the main port takes the coordinator's protocol commands, the
auxiliary port takes PROPAGATE frames pushed directly by peer simulators.
One process hosts a group of services (:func:`serve_simulators`): pushes
between members of one group stay in memory, and one coordinator
connection drives the whole group.

The root coordinator dials, in plan order, the first atomic that no earlier
connection covers and sends it INIT. The ACK lists every atomic that the
service's process hosts, each with its next-event time (tN), so the
coordinator opens one connection per process. From then on each command
frame names the atomics it addresses; the process takes them up in the
order given, up to one per CPU at once, and answers with one ACK, which
for DELTFCN again carries ``[atomic, tN]`` for each of them. The
coordinator keeps every atomic's tN and takes the minimum itself. Each
cycle then sends at most two frames per process, both carrying the cycle
time: LAMBDA addressed to the imminent atomics, whose services run their
output functions and push the values to the coupled services, and DELTFCN
addressed to the imminent atomics and their coupling targets. The
coordinator writes a phase's frame to every process before it reads any
reply, and never relays event values.

A service pushes one PROPAGATE frame per outgoing coupling whenever it ran
its output function, including empty ones. Receivers bucket frames by
(sender, destination port) and assemble their input bags in plan coupling
order at transition time, which makes bag contents byte-identical to the
sequential backend even under concurrent arrivals.
"""

from __future__ import annotations

import math
import queue
import socket
import threading
import time
from dataclasses import dataclass

from .behaviors import Counters, create_behavior
from .kernel import RunReport, SimulationError, Simulator, TraceEntry
from .model import IC, ModelGraph, validate
from .parallel import default_workers
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


def _shutdown_close(sock: socket.socket | None) -> None:
    """Close a socket so that a thread blocked on it wakes up."""
    if sock is None:
        return
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


class SimulatorService:
    """Hosts one atomic model behind the wire protocol, as a member of a
    :class:`ServiceGroup`, which builds it."""

    def __init__(self, plan: DistributedPlan, atomic_name: str,
                 group: "ServiceGroup",
                 outgoing: list[tuple[str, str, str]],
                 incoming: list[tuple[str, str]], timeouts: Timeouts) -> None:
        self.plan = plan
        self.name = atomic_name
        self.endpoint = plan.endpoints[atomic_name]
        self.timeouts = timeouts
        self.counters = Counters()
        self.simulator: Simulator | None = None
        # Outgoing couplings in plan order: (source port, target, target port).
        self.outgoing = outgoing
        self._uncoupled = tuple(
            p for p in plan.graph.atomics[atomic_name].output_ports
            if all(src_port != p for src_port, _, _ in self.outgoing))
        # Incoming coupling keys (sender, port) in plan order drive bag assembly.
        self.incoming = incoming
        self._pending: dict[tuple[str, str], list[tuple]] = {}
        self._pending_lock = threading.Lock()
        # The services hosted in this process, this one included: a command
        # on any member's main port drives all of them, and pushes to them
        # skip TCP.
        self._group = group
        self._peers: dict[str, socket.socket] = {}
        self._inbound: list[socket.socket] = []
        self._trace_enabled = False
        self.dropped = 0
        self._stop = threading.Event()
        self._main_listener: socket.socket | None = None
        self._aux_listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "SimulatorService":
        try:
            self._main_listener = self._listen(self.endpoint.main_port)
            self._aux_listener = self._listen(self.endpoint.aux_port)
        except OSError as exc:
            self.stop()
            raise SimulationError(
                f"cannot bind {self.name!r} on {self.endpoint.host} "
                f"ports {self.endpoint.main_port}/{self.endpoint.aux_port}: {exc}") from exc
        for target, thread_name in ((self._main_loop, "main"), (self._aux_accept_loop, "aux")):
            thread = threading.Thread(target=target, daemon=True,
                                      name=f"svc-{self.name}-{thread_name}")
            thread.start()
            self._threads.append(thread)
        return self

    def _listen(self, port: int) -> socket.socket:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.endpoint.host, port))
            listener.listen(16)
        except OSError:
            listener.close()
            raise
        listener.settimeout(0.5)  # lets accept loops notice a stop request
        return listener

    def join(self, timeout: float | None = None) -> None:
        for thread in list(self._threads):
            thread.join(timeout)

    def stop(self) -> None:
        self._stop.set()
        for sock in (self._main_listener, self._aux_listener,
                     *self._peers.values(), *self._inbound):
            _shutdown_close(sock)
        self._peers.clear()
        self._inbound.clear()

    # -- main command loop --------------------------------------------------------

    def _main_loop(self) -> None:
        # Sessions are accepted until EXIT arrives; a connection that closes
        # without EXIT is harmless.
        listener = self._main_listener
        while not self._stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # stopped
            _configure(conn, None)
            try:
                while not self._stop.is_set():
                    frame = read_frame(conn)
                    if frame is None:
                        break
                    reply = self._handle(frame)
                    write_frame(conn, reply)
                    if frame.command == EXIT:
                        self._group.stop()
                        return
            except (ProtocolError, OSError):
                pass
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    def _handle(self, frame: WireFrame) -> WireFrame:
        try:
            return self._dispatch(frame)
        except SimulationError as exc:
            return WireFrame(ACK, sender=self.name, values=(_ERROR_MARK, str(exc)))

    def _dispatch(self, frame: WireFrame) -> WireFrame:
        """Run one coordinator command over the whole group: INIT and EXIT
        reach every member, LAMBDA and DELTFCN the members that the frame
        names, taken up in the order it names them."""
        command = frame.command
        services = self._group.services
        if command == INIT:
            trace = bool(frame.values and frame.values[0])
            return WireFrame(ACK, sender=self.name, values=tuple(
                [name, encode_time(member._init(trace))]
                for name, member in services.items()))
        if self.simulator is None:
            raise SimulationError(f"simulator {self.name!r} got {command} before INIT")
        if command == EXIT:
            return WireFrame(ACK, sender=self.name, values=tuple(
                member._exit_payload() for member in services.values()))
        if command not in (LAMBDA, DELTFCN):
            raise SimulationError(f"unexpected command {command} on main connection")
        if frame.time is None:
            raise SimulationError(f"{command} frame without time")
        members = [self._member(name, command) for name in frame.values]
        if len(set(members)) != len(members):
            raise SimulationError(f"{command} addresses an atomic twice: "
                                  f"{list(frame.values)}")
        if command == LAMBDA:
            self._group.run(SimulatorService._run_lambda, members, frame.time)
            return WireFrame(ACK, sender=self.name)
        tns = self._group.run(SimulatorService._run_delta, members, frame.time)
        return WireFrame(ACK, sender=self.name, values=tuple(
            [member.name, encode_time(tn)] for member, tn in zip(members, tns)))

    def _member(self, name, command: str) -> "SimulatorService":
        member = self._group.services.get(name) if isinstance(name, str) else None
        if member is None:
            raise SimulationError(
                f"{command} addresses {name!r}, which the process of "
                f"{self.name!r} does not host")
        return member

    def _init(self, trace: bool) -> float:
        self._trace_enabled = trace
        behavior = create_behavior(self.plan.graph.atomics[self.name], self.counters)
        self.simulator = Simulator(behavior, trace=trace)
        self.simulator.initialize()
        return self.simulator.tN

    def _exit_payload(self) -> list:
        """``[atomic, ints, exts, events, dropped, trace]`` for the EXIT ACK."""
        trace = ([entry.to_payload() for entry in self.simulator.trace]
                 if self._trace_enabled else [])
        return [self.name, self.counters.num_delt_ints, self.counters.num_delt_exts,
                self.counters.num_of_events, self.dropped, trace]

    def _run_lambda(self, t: float) -> None:
        sim = self.simulator
        imminent = sim.tN == t and not math.isinf(t)
        if imminent:
            sim.run_lambda(t)
        # Imminent simulators push one frame per outgoing coupling, empty
        # or not, so receivers can line buckets up with plan order.
        if imminent:
            for src_port, target, target_port in self.outgoing:
                values = tuple(sim.model.output_bags[src_port])
                self._push(target, WireFrame(
                    PROPAGATE, sender=self.name, port=target_port, values=values))
            for port in self._uncoupled:
                self.dropped += len(sim.model.output_bags[port])

    def _push(self, target: str, frame: WireFrame) -> None:
        member = self._group.services.get(target)
        if member is not None:
            member._accept(frame)
            return
        sock = self._peers.get(target)
        if sock is None:
            endpoint = self.plan.endpoints[target]
            try:
                sock = socket.create_connection(endpoint.aux_addr(),
                                                timeout=self.timeouts.connect)
            except OSError as exc:
                raise SimulationError(
                    f"peer {target!r} at {endpoint.host}:{endpoint.aux_port} "
                    f"unreachable: {exc}") from exc
            _configure(sock, self.timeouts.read)
            self._peers[target] = sock
        try:
            write_frame(sock, frame)
            reply = read_frame(sock)
        except (OSError, ProtocolError) as exc:
            raise SimulationError(f"propagation to {target!r} failed: {exc}") from exc
        if reply is None or reply.command != ACK:
            raise SimulationError(f"peer {target!r} did not acknowledge propagation")

    def _run_delta(self, t: float) -> float:
        """Transition at ``t``; the new tN."""
        sim = self.simulator
        if sim.tN < t:
            raise SimulationError(
                f"clock overran atomic {self.name!r}: tN={sim.tN} < t={t}")
        with self._pending_lock:
            for key in self.incoming:
                batches = self._pending.get(key)
                if batches:
                    values = batches.pop(0)
                    if values:
                        sim.model.input_bags[key[1]].extend(values)
            # One batch per key and cycle: anything left over belongs to no
            # coupling of this atomic or to a cycle whose DELTFCN never came.
            leftover = next(((key, batches) for key, batches in self._pending.items()
                             if batches), None)
            self._pending.clear()
        if leftover is not None:
            (sender, port), batches = leftover
            raise SimulationError(
                f"atomic {self.name!r} has {len(batches)} unconsumed PROPAGATE "
                f"batch(es) from {sender!r} on port {port!r}")
        sim.run_delta(t)
        return sim.tN

    # -- peer propagation intake ------------------------------------------------------

    def _aux_accept_loop(self) -> None:
        listener = self._aux_listener
        while not self._stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            _configure(conn, None)
            self._inbound.append(conn)
            thread = threading.Thread(target=self._aux_serve, args=(conn,),
                                      daemon=True, name=f"svc-{self.name}-peer")
            thread.start()
            self._threads.append(thread)

    def _aux_serve(self, conn: socket.socket) -> None:
        try:
            while not self._stop.is_set():
                frame = read_frame(conn)
                if frame is None:
                    break
                if frame.command != PROPAGATE:
                    raise ProtocolError(
                        f"unexpected {frame.command} on aux port of {self.name!r}")
                self._accept(frame)
                write_frame(conn, WireFrame(ACK, sender=self.name))
        except (ProtocolError, OSError):
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _accept(self, frame: WireFrame) -> None:
        """Queue a PROPAGATE frame's values for the next transition."""
        with self._pending_lock:
            self._pending.setdefault((frame.sender, frame.port), []).append(
                frame.values)


def serve_simulator(plan: DistributedPlan, atomic_name: str, *,
                    timeouts: Timeouts | None = None) -> SimulatorService:
    """Start (and return) the service hosting ``atomic_name`` alone, as a
    group of one."""
    group = ServiceGroup(plan, [atomic_name], timeouts=timeouts)
    return group.start().services[atomic_name]


class _Batch:
    """One step (LAMBDA or DELTFCN) over several members of a group.

    Pullers take members from one iterator in the order given. The caller
    waits only for members that some puller took, not for pullers that
    have not woken up yet, so a batch of cheap steps costs no thread
    switch.
    """

    def __init__(self, step, members: list[SimulatorService], t: float) -> None:
        self._step = step
        self._t = t
        self._feed = enumerate(members)
        self._outcomes: list = [None] * len(members)
        self._busy = 0
        self._done = threading.Condition()

    def drain(self) -> None:
        while True:
            with self._done:
                index, member = next(self._feed, (None, None))
                if member is None:
                    return
                self._busy += 1
            try:
                outcome = self._step(member, self._t)
            except BaseException as exc:  # raised again on the caller's thread
                outcome = exc
            with self._done:
                self._outcomes[index] = outcome
                self._busy -= 1
                self._done.notify_all()

    def results(self) -> list:
        """Each member's result in the order given, once all are done; the
        first failure in that order is raised instead."""
        with self._done:
            self._done.wait_for(lambda: not self._busy)
        for outcome in self._outcomes:
            if isinstance(outcome, BaseException):
                raise outcome
        return self._outcomes


class ServiceGroup:
    """Simulator services hosted by one process, one per atomic.

    Each member still listens on its own ports, so the coordinator and
    services in other processes reach it as before. A coordinator
    connection to any member drives every member, and pushes between
    members go straight into the target's pending buckets instead of over
    TCP. The members that one command addresses run on up to one thread
    per CPU at once: the thread that read the command and helper threads
    that the group keeps. The plan is checked, and its couplings indexed,
    once per group.
    """

    def __init__(self, plan: DistributedPlan, names, *,
                 timeouts: Timeouts | None = None) -> None:
        plan.check()
        names = list(names)
        for name in names:
            if name not in plan.graph.atomics:
                raise SimulationError(f"unknown atomic {name!r} in plan "
                                      f"{plan.graph.name!r}")
        outgoing: dict[str, list[tuple[str, str, str]]] = {name: [] for name in names}
        incoming: dict[str, list[tuple[str, str]]] = {name: [] for name in names}
        for coupling in plan.graph.couplings:
            src, dst = coupling.src, coupling.dst
            if src.component in outgoing:
                outgoing[src.component].append((src.port, dst.component, dst.port))
            if dst.component in incoming:
                incoming[dst.component].append((src.component, dst.port))
        self.services: dict[str, SimulatorService] = {
            name: SimulatorService(plan, name, self, outgoing[name],
                                   incoming[name], timeouts or Timeouts())
            for name in names}
        self._batches: queue.SimpleQueue = queue.SimpleQueue()
        self._helpers: list[threading.Thread] = []

    def start(self) -> "ServiceGroup":
        try:
            for service in self.services.values():
                service.start()
        except SimulationError:
            self.stop()
            raise
        first = next(iter(self.services))
        for k in range(min(default_workers(), len(self.services)) - 1):
            helper = threading.Thread(target=self._help, daemon=True,
                                      name=f"svc-{first}-work{k}")
            helper.start()
            self._helpers.append(helper)
        return self

    def _help(self) -> None:
        while (batch := self._batches.get()) is not None:
            batch.drain()

    def run(self, step, members: list[SimulatorService], t: float) -> list:
        """``step(member, t)`` for every member, up to one per CPU at once;
        the results in the order given."""
        batch = _Batch(step, members, t)
        for _ in range(min(len(self._helpers), len(members) - 1)):
            self._batches.put(batch)
        batch.drain()
        return batch.results()

    def join(self, timeout: float | None = None) -> None:
        for service in self.services.values():
            service.join(timeout)
        for helper in self._helpers:
            helper.join(timeout)

    def stop(self) -> None:
        for service in self.services.values():
            service.stop()
        for _ in self._helpers:
            self._batches.put(None)


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

    def _command(self, command: str, t: float, names: list[str]) -> dict[str, float]:
        """Send ``command`` at ``t`` to the processes hosting ``names``, one
        frame per process naming its atomics in the order given; for
        DELTFCN, the new tN of each."""
        batches: dict[str, list[str]] = {}
        for name in names:
            batches.setdefault(self._via[name], []).append(name)
        replies = self._send({via: WireFrame(command, time=t, values=tuple(batch))
                              for via, batch in batches.items()})
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
                    DELTFCN, t, sorted(active, key=self._ranks.__getitem__)))
                cycles += 1
            exits = self._send({name: WireFrame(EXIT) for name in self._conns})
        finally:
            self.close()
        payloads: dict[str, list] = {}
        for name, reply in exits.items():
            for entry in reply.values:
                if not (isinstance(entry, list) and len(entry) == 6
                        and isinstance(entry[0], str) and entry[0] not in payloads
                        and self._via.get(entry[0]) == name):
                    raise SimulationError(f"bad exit payload from {name!r}: {entry!r:.80}")
                payloads[entry[0]] = entry
        if len(payloads) != len(self.names):
            raise SimulationError("no exit payload for atomic " + repr(
                next(name for name in self.names if name not in payloads)))
        ints = exts = events = dropped = 0
        traces: dict[str, list[TraceEntry]] = {}
        for name in self.names:
            _, n_int, n_ext, n_events, n_dropped, trace = payloads[name]
            ints += n_int
            exts += n_ext
            events += n_events
            dropped += n_dropped
            if self.trace_enabled:
                traces[name] = [TraceEntry.from_payload(raw) for raw in trace]
        wall = time.perf_counter() - started
        return RunReport(
            model=self.plan.graph.name, backend=self.backend_name,
            workers_pools=str(len(self.names)), cycles=cycles,
            wall_seconds=wall, num_delt_ints=ints, num_delt_exts=exts,
            num_of_events=events,
            traces=traces if self.trace_enabled else None,
            diagnostics={"dropped_events": dropped,
                         "frames_sent": dict(self.frames_sent),
                         "frames_received": dict(self.frames_received)})


def run_coordinator(plan: DistributedPlan, max_iterations: int | None = None, *,
                    trace: bool = False,
                    timeouts: Timeouts | None = None) -> RunReport:
    """Run the distributed protocol over already-listening services."""
    return DistributedCoordinator(plan, trace=trace, timeouts=timeouts).run(max_iterations)
