"""Atomic behavior contract and the behavior registry.

A behavior class implements the state, transition functions and output
function of one atomic model type. One instance is created per atomic per
run (per OS process in the distributed backend); instances own their port
bags and are never shared between executors. Specs reference behaviors by
their registered model name, which is also what the plan-file ``model``
attribute carries.
"""

from __future__ import annotations

import math

from .model import AtomicSpec, ModelError, ModelGraph, check_event_value

INFINITY = math.inf


class Counters:
    """Benchmark counter triple of one atomic, exact under every backend.

    Each behavior has its own instance, which only the thread that runs
    that atomic's transitions touches, so increments need no lock. A
    coordinator's ``counters`` sums its atomics' triples; a distributed
    service process reports its group's sum on exit, and the root
    coordinator adds those up.
    """

    __slots__ = ("num_delt_ints", "num_delt_exts", "num_of_events")

    def __init__(self, ints: int = 0, exts: int = 0, events: int = 0) -> None:
        self.num_delt_ints = ints
        self.num_delt_exts = exts
        self.num_of_events = events

    def internal(self) -> None:
        self.num_delt_ints += 1

    def external(self) -> None:
        self.num_delt_exts += 1

    def events(self, count: int) -> None:
        self.num_of_events += count

    def triple(self) -> tuple[int, int, int]:
        return self.num_delt_ints, self.num_delt_exts, self.num_of_events

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counters{self.triple()}"


class AtomicModel:
    """Base class for atomic behavior.

    Subclasses drive ``phase``/``sigma`` through :meth:`hold_in` and
    :meth:`passivate` and implement the transition functions. The default
    ``time_advance`` returns ``sigma``, which keeps the ta() == sigma
    contract; the default confluent transition runs the internal function
    first and then the external one with zero elapsed time.

    Received values must be treated as immutable: fan-out shares payload
    objects between receivers.
    """

    INPUT_PORTS: tuple[str, ...] = ("in",)
    OUTPUT_PORTS: tuple[str, ...] = ("out",)

    def __init__(self, spec: AtomicSpec) -> None:
        self.spec = spec
        self.name = spec.name
        self.phase = "passive"
        self.sigma = INFINITY
        # Plain loops: every run builds one instance per atomic, and on
        # CPython 3.11 a comprehension of one port costs three times as much.
        self.input_bags: dict[str, list] = {}
        for port in spec.input_ports:
            self.input_bags[port] = []
        self.output_bags: dict[str, list] = {}
        for port in spec.output_ports:
            self.output_bags[port] = []
        self.counters: Counters | None = None  # injected by the runtime

    # -- lifecycle ---------------------------------------------------------

    def initialize(self) -> None:
        self.passivate()

    def time_advance(self) -> float:
        return self.sigma

    def output(self) -> None:
        """Deposit values on the output bags; runs only when imminent."""

    def delta_int(self) -> None:
        raise NotImplementedError

    def delta_ext(self, e: float) -> None:
        raise NotImplementedError

    def delta_con(self) -> None:
        self.delta_int()
        self.delta_ext(0.0)

    # -- state helpers -------------------------------------------------------

    def hold_in(self, phase: str, sigma: float) -> None:
        self.phase = phase
        self.sigma = sigma

    def passivate(self, phase: str = "passive") -> None:
        self.phase = phase
        self.sigma = INFINITY

    @property
    def passive(self) -> bool:
        return self.sigma == INFINITY

    # -- bag helpers -----------------------------------------------------------

    def bag(self, port: str) -> list:
        return self.input_bags[port]

    def emit(self, port: str, *values) -> None:
        for value in values:
            check_event_value(value)
        self.output_bags[port].extend(values)

    def input_empty(self) -> bool:
        return not any(self.input_bags.values())

    def clear_bags(self) -> None:
        for bag in self.input_bags.values():
            bag.clear()
        for bag in self.output_bags.values():
            bag.clear()


# -- registry -------------------------------------------------------------------

_REGISTRY: dict[str, type[AtomicModel]] = {}


def register_behavior(model: str):
    """Class decorator adding a behavior type under ``model``."""

    def decorate(cls: type[AtomicModel]) -> type[AtomicModel]:
        if model in _REGISTRY and _REGISTRY[model] is not cls:
            raise ModelError(f"behavior {model!r} already registered")
        _REGISTRY[model] = cls
        return cls

    return decorate


def behavior_class(model: str) -> type[AtomicModel]:
    try:
        return _REGISTRY[model]
    except KeyError:
        raise ModelError(f"unknown behavior model {model!r}") from None


def behavior_ports(model: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    cls = behavior_class(model)
    return tuple(cls.INPUT_PORTS), tuple(cls.OUTPUT_PORTS)


def atomic_spec(name: str, model: str, delay_int: float = 0.0,
                delay_ext: float = 0.0) -> AtomicSpec:
    """Build a spec for a registered behavior, taking ports from the class."""
    inputs, outputs = behavior_ports(model)
    return AtomicSpec(name, model, delay_int, delay_ext, inputs, outputs)


def create_behavior(spec: AtomicSpec, counters: Counters) -> AtomicModel:
    instance = behavior_class(spec.model)(spec)
    instance.counters = counters
    return instance


# -- built-in behaviors ------------------------------------------------------------


@register_behavior("generator")
class SeedGenerator(AtomicModel):
    """Injects one seed event at t=0 and passivates.

    This is the trigger used by the benchmark models; delays are ignored.
    """

    INPUT_PORTS = ()
    OUTPUT_PORTS = ("out",)

    SEED_VALUE = 0

    def initialize(self) -> None:
        self.hold_in("active", 0.0)

    def output(self) -> None:
        self.emit("out", self.SEED_VALUE)

    def delta_int(self) -> None:
        self.passivate()

    def delta_ext(self, e: float) -> None:  # no input ports
        pass


@register_behavior("processor")
class Processor(AtomicModel):
    """Serves one job at a time; ``delay_int`` is the virtual service time.

    A job arriving while busy is discarded (classic single-server frame);
    the remaining service time is reduced by the elapsed time so that
    ta() == sigma stays true.
    """

    INPUT_PORTS = ("in",)
    OUTPUT_PORTS = ("out",)

    def initialize(self) -> None:
        self.job = None
        self.passivate()

    def output(self) -> None:
        self.emit("out", self.job)

    def delta_int(self) -> None:
        self.job = None
        self.passivate()

    def delta_ext(self, e: float) -> None:
        bag = self.bag("in")
        if self.passive and bag:
            self.job = bag[0]
            self.hold_in("busy", self.spec.delay_int)
        elif not self.passive:
            self.sigma = max(self.sigma - e, 0.0)


@register_behavior("transducer")
class Transducer(AtomicModel):
    """Counts arrived and solved jobs; purely reactive bookkeeping."""

    INPUT_PORTS = ("arrived", "solved")
    OUTPUT_PORTS = ()

    def initialize(self) -> None:
        self.arrived = 0
        self.solved = 0
        self.passivate()

    def delta_int(self) -> None:  # never imminent
        self.passivate()

    def delta_ext(self, e: float) -> None:
        self.arrived += len(self.bag("arrived"))
        self.solved += len(self.bag("solved"))


# -- classic example models ------------------------------------------------------


def build_efp(service_time: float = 1.0) -> ModelGraph:
    """Experimental-frame/processor: the classic two-level coupled model.

    The frame (generator + transducer) and the processor are wired through
    the frame's boundary ports, so flattening it exercises multi-hop route
    rewriting.
    """
    ef = ModelGraph("ef", input_ports=("in",), output_ports=("out",))
    ef.add_component(atomic_spec("generator", "generator"))
    ef.add_component(atomic_spec("transducer", "transducer"))
    ef.connect("generator", "out", "ef", "out")
    ef.connect("generator", "out", "transducer", "arrived")
    ef.connect("ef", "in", "transducer", "solved")

    efp = ModelGraph("efp")
    efp.add_component(ef)
    efp.add_component(atomic_spec("processor", "processor", delay_int=service_time))
    efp.connect("ef", "out", "processor", "in")
    efp.connect("processor", "out", "ef", "in")
    return efp


def build_gpt(service_time: float = 1.0) -> ModelGraph:
    """Generator-processor-transducer: the flattened form of ``build_efp``."""
    gpt = ModelGraph("efp")
    gpt.add_component(atomic_spec("generator", "generator"))
    gpt.add_component(atomic_spec("transducer", "transducer"))
    gpt.add_component(atomic_spec("processor", "processor", delay_int=service_time))
    gpt.connect("generator", "out", "processor", "in")
    gpt.connect("generator", "out", "transducer", "arrived")
    gpt.connect("processor", "out", "transducer", "solved")
    return gpt
