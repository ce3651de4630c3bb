"""Socket-distributed backend.

Every atomic model is hosted by a simulator service that listens on two TCP
ports: the main port takes the coordinator's protocol commands, the
auxiliary port takes PROPAGATE frames pushed directly by peer simulators.
One process may host a group of services (:func:`serve_simulators`); pushes
between members of one group stay in memory.

The root coordinator keeps every atomic's next-event time (tN), which the
services return in the ACK of INIT and DELTFCN, and takes the minimum
itself. Each cycle then sends two addressed commands, both carrying the
cycle time: LAMBDA to the imminent atomics, whose services run their output
functions and push the values to the coupled services, and DELTFCN to the
imminent atomics and their coupling targets. The coordinator never relays
event values.

A service pushes one PROPAGATE frame per outgoing coupling whenever it ran
its output function, including empty ones. Receivers bucket frames by
(sender, destination port) and assemble their input bags in plan coupling
order at transition time, which makes bag contents byte-identical to the
sequential backend even under concurrent arrivals.
"""

from __future__ import annotations

import math
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .behaviors import Counters, create_behavior
from .kernel import RunReport, SimulationError, Simulator, TraceEntry
from .model import IC, ModelGraph, validate
from .wire import (ACK, DELTFCN, EXIT, INIT, LAMBDA, PROPAGATE, ProtocolError,
                   WireFrame, read_frame, write_frame)

_ERROR_MARK = "__error__"


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
    """Hosts one atomic model behind the wire protocol."""

    def __init__(self, plan: DistributedPlan, atomic_name: str, *,
                 timeouts: Timeouts | None = None) -> None:
        plan.check()
        if atomic_name not in plan.graph.atomics:
            raise SimulationError(f"unknown atomic {atomic_name!r} in plan "
                                  f"{plan.graph.name!r}")
        self.plan = plan
        self.name = atomic_name
        self.endpoint = plan.endpoints[atomic_name]
        self.timeouts = timeouts or Timeouts()
        self.counters = Counters()
        self.simulator: Simulator | None = None
        # Outgoing couplings in plan order: (source port, target, target port).
        self.outgoing = [
            (c.src.port, c.dst.component, c.dst.port)
            for c in plan.graph.couplings if c.src.component == atomic_name]
        self._uncoupled = tuple(
            p for p in plan.graph.atomics[atomic_name].output_ports
            if all(src_port != p for src_port, _, _ in self.outgoing))
        # Incoming coupling keys in plan order drive bag assembly.
        self.incoming = [
            (c.src.component, c.dst.port)
            for c in plan.graph.couplings if c.dst.component == atomic_name]
        self._pending: dict[tuple[str, str], list[tuple]] = {}
        self._pending_lock = threading.Lock()
        # Services hosted in the same process, by atomic name: pushes to
        # them skip TCP. Filled in by ServiceGroup.
        self._group: dict[str, SimulatorService] = {}
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
        # without EXIT (for example a readiness probe) is harmless.
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
                        self.stop()
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
        command = frame.command
        if command == INIT:
            self._trace_enabled = bool(frame.values and frame.values[0])
            behavior = create_behavior(self.plan.graph.atomics[self.name], self.counters)
            self.simulator = Simulator(behavior, trace=self._trace_enabled)
            self.simulator.initialize()
            return WireFrame(ACK, sender=self.name, time=self.simulator.tN)
        if self.simulator is None:
            raise SimulationError(f"simulator {self.name!r} got {command} before INIT")
        if command in (LAMBDA, DELTFCN) and frame.time is None:
            raise SimulationError(f"{command} frame without time")
        if command == LAMBDA:
            self._run_lambda(frame.time)
            return WireFrame(ACK, sender=self.name)
        if command == DELTFCN:
            self._run_delta(frame.time)
            return WireFrame(ACK, sender=self.name, time=self.simulator.tN)
        if command == EXIT:
            payload = [self.counters.num_delt_ints, self.counters.num_delt_exts,
                       self.counters.num_of_events, self.dropped]
            trace_blob = ([entry.to_payload() for entry in self.simulator.trace]
                          if self._trace_enabled else [])
            return WireFrame(ACK, sender=self.name, values=(*payload, trace_blob))
        raise SimulationError(f"unexpected command {command} on main connection")

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
        member = self._group.get(target)
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

    def _run_delta(self, t: float) -> None:
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
    """Start (and return) the service hosting ``atomic_name``."""
    return SimulatorService(plan, atomic_name, timeouts=timeouts).start()


class ServiceGroup:
    """Simulator services hosted by one process, one per atomic.

    Each member still listens on its own ports, so the coordinator and
    services in other processes reach it as before; pushes between members
    go straight into the target's pending buckets instead of over TCP.
    """

    def __init__(self, plan: DistributedPlan, names) -> None:
        self.services: dict[str, SimulatorService] = {}
        for name in names:
            service = SimulatorService(plan, name)
            service._group = self.services
            self.services[name] = service

    def start(self) -> "ServiceGroup":
        try:
            for service in self.services.values():
                service.start()
        except SimulationError:
            self.stop()
            raise
        return self

    def join(self, timeout: float | None = None) -> None:
        for service in self.services.values():
            service.join(timeout)

    def stop(self) -> None:
        for service in self.services.values():
            service.stop()


def serve_simulators(plan: DistributedPlan, names) -> ServiceGroup:
    """Start (and return) one group of services hosting ``names`` in this
    process."""
    return ServiceGroup(plan, names).start()


class DistributedCoordinator:
    """Drives the abstract-protocol command cycle over simulator services."""

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
        self._conns: dict[str, socket.socket] = {}
        self._pool: ThreadPoolExecutor | None = None

    # -- plumbing ---------------------------------------------------------------

    def _connect_all(self) -> None:
        self._pool = ThreadPoolExecutor(max_workers=max(len(self.names), 1),
                                        thread_name_prefix="coord")

        def connect(name: str) -> tuple[str, socket.socket]:
            endpoint = self.plan.endpoints[name]
            try:
                sock = socket.create_connection(endpoint.main_addr(),
                                                timeout=self.timeouts.connect)
            except OSError as exc:
                raise SimulationError(
                    f"simulator {name!r} at {endpoint} unreachable: {exc}") from exc
            _configure(sock, self.timeouts.read)
            return name, sock

        for name, sock in self._pool.map(connect, self.names):
            self._conns[name] = sock

    def _roundtrip(self, name: str, frame: WireFrame) -> WireFrame:
        sock = self._conns[name]
        endpoint = self.plan.endpoints[name]
        try:
            write_frame(sock, frame)
            reply = read_frame(sock)
        except socket.timeout as exc:
            raise SimulationError(
                f"simulator {name!r} at {endpoint} timed out: {exc}") from exc
        except (OSError, ProtocolError) as exc:
            raise SimulationError(
                f"simulator {name!r} at {endpoint} failed: {exc}") from exc
        if reply is None:
            raise SimulationError(f"simulator {name!r} at {endpoint} closed the connection")
        if reply.values[:1] == (_ERROR_MARK,):
            raise SimulationError(f"simulator {name!r} reported: {reply.values[1]}")
        return reply

    def _count(self, histogram: dict[str, int], command: str) -> None:
        histogram[command] = histogram.get(command, 0) + 1

    def _send(self, names, frame: WireFrame) -> dict[str, WireFrame]:
        """Send ``frame`` to every named service at once; their ACKs by name.

        Frames are counted here, on the calling thread, so that concurrent
        round trips lose no count."""
        replies: dict[str, WireFrame] = {}
        futures = {name: self._pool.submit(self._roundtrip, name, frame)
                   for name in names}
        for name, future in futures.items():
            self._count(self.frames_sent, frame.command)
            reply = future.result()
            self._count(self.frames_received, reply.command)
            if reply.command != ACK:
                raise SimulationError(
                    f"simulator {name!r} replied {reply.command}, expected {ACK}")
            replies[name] = reply
        return replies

    def _update_tn(self, tn: dict[str, float], replies: dict[str, WireFrame]) -> None:
        for name, reply in replies.items():
            if reply.time is None:
                raise SimulationError(
                    f"simulator {name!r} acknowledged without its next time")
            tn[name] = reply.time

    def close(self) -> None:
        for sock in self._conns.values():
            try:
                sock.close()
            except OSError:
                pass
        self._conns.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # -- the protocol ------------------------------------------------------------------

    def run(self, max_iterations: int | None = None) -> RunReport:
        started = time.perf_counter()
        self._connect_all()
        try:
            init = WireFrame(INIT, values=(1 if self.trace_enabled else 0,))
            tn: dict[str, float] = {}
            self._update_tn(tn, self._send(self.names, init))
            cycles = 0
            while max_iterations is None or cycles < max_iterations:
                t = min(tn.values(), default=math.inf)
                if math.isinf(t):
                    break
                imminent = [name for name in self.names if tn[name] == t]
                self._send(imminent, WireFrame(LAMBDA, time=t))
                active = set(imminent)
                for name in imminent:
                    active.update(self._targets[name])
                self._update_tn(tn, self._send(
                    sorted(active, key=self._ranks.__getitem__),
                    WireFrame(DELTFCN, time=t)))
                cycles += 1
            exits = self._send(self.names, WireFrame(EXIT))
        finally:
            self.close()
        ints = exts = events = dropped = 0
        traces: dict[str, list[TraceEntry]] = {}
        for name, reply in exits.items():
            values = reply.values
            if len(values) < 5:
                raise SimulationError(f"short exit payload from {name!r}")
            ints += values[0]
            exts += values[1]
            events += values[2]
            dropped += values[3]
            if self.trace_enabled:
                traces[name] = [TraceEntry.from_payload(raw) for raw in values[4]]
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
