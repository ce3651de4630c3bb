"""Shared test helpers: toy behaviors and in-process distributed services."""

from __future__ import annotations

import contextlib
import os
import socket
from pathlib import Path

import pytest
from hypothesis import settings

from pdevsim import (AtomicModel, DistributedPlan, Endpoint, ModelGraph,
                     atomic_spec, flatten, register_behavior, serve_simulators)
from pdevsim.behaviors import _REGISTRY
from pdevsim.planfile import contiguous_blocks

def pytest_configure(config):
    """Let the interpreters that tests start (``python -m pdevsim``) import
    pdevsim from this checkout, as the ``pythonpath`` setting lets the tests."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))


# Every run draws the same examples, and no example fails on its wall time.
settings.register_profile("pdevsim", derandomize=True, deadline=None)
settings.load_profile("pdevsim")


def _register(name, cls):
    if name not in _REGISTRY:
        register_behavior(name)(cls)
    return _REGISTRY[name]


class EmitOnce(AtomicModel):
    """Emits its own name once at virtual time delay_int, then passivates."""

    INPUT_PORTS = ()
    OUTPUT_PORTS = ("out",)

    def initialize(self):
        self.hold_in("armed", self.spec.delay_int)

    def output(self):
        self.emit("out", self.name)

    def delta_int(self):
        self.passivate()

    def delta_ext(self, e):
        pass


class Collector(AtomicModel):
    """Sinks everything; arrival order is visible through its trace."""

    INPUT_PORTS = ("in",)
    OUTPUT_PORTS = ()

    def initialize(self):
        self.received = []
        self.passivate()

    def delta_int(self):
        self.passivate()

    def delta_ext(self, e):
        self.received.extend(self.bag("in"))


class BusyExt(AtomicModel):
    """Burns delay_ext CPU seconds when (and only when) an event arrives."""

    INPUT_PORTS = ("in",)
    OUTPUT_PORTS = ()

    def initialize(self):
        self.passivate()

    def delta_int(self):
        self.passivate()

    def delta_ext(self, e):
        from pdevsim import busy_cpu
        busy_cpu(self.spec.delay_ext)


class RaiseExt(AtomicModel):
    """Fails its external transition: the first event it gets raises."""

    INPUT_PORTS = ("in",)
    OUTPUT_PORTS = ()

    def initialize(self):
        self.passivate()

    def delta_int(self):
        self.passivate()

    def delta_ext(self, e):
        raise RuntimeError("injected delta_ext failure")


class Rendezvous(AtomicModel):
    """Emits its name at time 0; its output function first waits on the
    class's ``barrier``, so rendezvous atomics finish their outputs only
    when enough of them run at the same time."""

    INPUT_PORTS = ()
    OUTPUT_PORTS = ("out",)
    barrier = None  # a threading.Barrier, set by the test

    def initialize(self):
        self.hold_in("armed", 0.0)

    def output(self):
        type(self).barrier.wait()
        self.emit("out", self.name)

    def delta_int(self):
        self.passivate()

    def delta_ext(self, e):
        pass


class Affinity(AtomicModel):
    """Emits, at time 0, the sorted CPUs its process may run on."""

    INPUT_PORTS = ()
    OUTPUT_PORTS = ("out",)

    def initialize(self):
        self.hold_in("armed", 0.0)

    def output(self):
        self.emit("out", sorted(os.sched_getaffinity(0)))

    def delta_int(self):
        self.passivate()

    def delta_ext(self, e):
        pass


class SwapLarge(AtomicModel):
    """Emits one string of ``size`` characters at time 0 and keeps the
    length of each string it receives."""

    INPUT_PORTS = ("in",)
    OUTPUT_PORTS = ("out",)
    size = 8 * 2**20

    def initialize(self):
        self.received = []
        self.hold_in("armed", 0.0)

    def output(self):
        self.emit("out", "x" * type(self).size)

    def delta_int(self):
        self.passivate()

    def delta_ext(self, e):
        self.received.extend(len(value) for value in self.bag("in"))


class ExitExt(AtomicModel):
    """Ends the process it runs in with code 3, after printing one line, in
    its external transition, as a service process that dies mid-run would.
    It never ends the process that imported this module, the tests' own."""

    INPUT_PORTS = ("in",)
    OUTPUT_PORTS = ("out",)
    spared = os.getpid()

    def initialize(self):
        self.passivate()

    def delta_int(self):
        self.passivate()

    def delta_ext(self, e):
        self.end_process()

    def end_process(self):
        if os.getpid() == type(self).spared:
            raise RuntimeError(f"{self.name} would end the test process")
        print(f"{self.name} ends its process", flush=True)
        os._exit(3)


class ExitOutput(ExitExt):
    """:class:`ExitExt` that ends its process in its output function, at
    time 0."""

    def initialize(self):
        self.hold_in("armed", 0.0)

    def output(self):
        self.end_process()


class ExitLoud(ExitExt):
    """:class:`ExitExt` that prints 2000 lines of 100 characters before its
    last line."""

    def delta_ext(self, e):
        for _ in range(2000):
            print("p" * 100)
        self.end_process()


class PrintExt(AtomicModel):
    """Prints 2000 lines of 100 characters, far more than a pipe buffer
    holds, in its external transition."""

    INPUT_PORTS = ("in",)
    OUTPUT_PORTS = ()

    def initialize(self):
        self.passivate()

    def delta_int(self):
        self.passivate()

    def delta_ext(self, e):
        for _ in range(2000):
            print("p" * 100)


class CountInits(AtomicModel):
    """Emits, at time 0, how many times it has been initialized."""

    INPUT_PORTS = ()
    OUTPUT_PORTS = ("out",)

    def initialize(self):
        self.inits = getattr(self, "inits", 0) + 1
        self.hold_in("armed", 0.0)

    def output(self):
        self.emit("out", self.inits)

    def delta_int(self):
        self.passivate()

    def delta_ext(self, e):
        pass


_register("emit_once", EmitOnce)
_register("collector", Collector)
_register("busy_ext", BusyExt)
_register("raise_ext", RaiseExt)
_register("affinity", Affinity)
_register("swap_large", SwapLarge)
_register("exit_ext", ExitExt)
_register("exit_output", ExitOutput)
_register("exit_loud", ExitLoud)
_register("print_ext", PrintExt)
_register("count_inits", CountInits)
Rendezvous = _register("rendezvous", Rendezvous)


def toy_spec(name, model, **kw):
    return atomic_spec(name, model, **kw)


def fan_out_model(senders=1, receivers=2, emit_at=0.0) -> ModelGraph:
    """senders x receivers complete bipartite toy model."""
    graph = ModelGraph("toy")
    sender_names = [f"s{i}" for i in range(senders)]
    receiver_names = [f"r{i}" for i in range(receivers)]
    for name in sender_names:
        graph.add_component(atomic_spec(name, "emit_once", delay_int=emit_at))
    for name in receiver_names:
        graph.add_component(atomic_spec(name, "collector"))
    for src in sender_names:
        for dst in receiver_names:
            graph.connect(src, "out", dst, "in")
    return graph


def blocks_of(graph, count):
    """The atomics of ``graph`` in ``count`` contiguous blocks of plan order."""
    return contiguous_blocks(list(flatten(graph).atomics), count)


def spread_plan(graph):
    """Loopback plan that gives every atomic an endpoint of its own."""
    return grouped_plan(graph, [[name] for name in flatten(graph).atomics])


def free_ports(count):
    """``count`` distinct loopback ports that are free now, for plans whose
    services bind fixed ports later; another process may take one first."""
    with contextlib.ExitStack() as stack:
        sockets = [stack.enter_context(socket.create_server(("127.0.0.1", 0)))
                   for _ in range(count)]
        return [sock.getsockname()[1] for sock in sockets]


def grouped_plan(graph, blocks):
    """Loopback plan that co-hosts the atomics of each of ``blocks`` at one
    endpoint, in the plan order of ``graph``."""
    flat = flatten(graph)
    at = {name: Endpoint("127.0.0.1", port)
          for block, port in zip(blocks, free_ports(len(blocks))) for name in block}
    return DistributedPlan(flat, {name: at[name] for name in flat.atomics})


@contextlib.contextmanager
def thread_services(plan, names=None):
    """Run simulator services for a plan inside this process, one group
    per endpoint of ``names`` (every atomic by default)."""
    groups = serve_simulators(plan, names or plan.endpoints)
    try:
        yield groups
    finally:
        for group in groups:
            group.stop()


@pytest.fixture
def gpt_graph():
    from pdevsim import build_gpt
    return build_gpt()
