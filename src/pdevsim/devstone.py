"""DEVStone synthetic benchmark: model generator, benchmark atomic,
CPU-delay engine, delay-distribution sampling, and closed-form oracles.

The benchmark atomic stores every event it receives and re-emits its whole
store when imminent; its transition functions burn a configurable amount of
CPU time so that model "weight" is real computation, not sleeps. Counter
totals for the HO shape have exact closed forms, which is what makes the
family usable as a correctness oracle for every backend.
"""

from __future__ import annotations

import math
import random
import time
import zlib
from dataclasses import dataclass, field

from .behaviors import AtomicModel, atomic_spec, register_behavior
from .model import ModelError, ModelGraph

# The delay engine needs a per-thread CPU clock; refuse to load without one
# rather than failing in the middle of a run.
try:  # pragma: no cover - platform guard
    time.thread_time()
except (AttributeError, OSError) as exc:  # pragma: no cover
    raise RuntimeError(
        "per-thread CPU clock unavailable on this platform; "
        "the benchmark delay engine cannot run") from exc

_BUSY_BLOCK = memoryview(b"\xa5" * 65536)
_BUSY_TAIL_MIN = 512  # bytes; the smallest checksum of the tail


def busy_cpu(delta: float) -> None:
    """Consume at least ``delta`` CPU-seconds on the calling thread.

    Checksum work over a fixed block runs until the thread's CPU clock
    (not the wall clock) crosses the threshold; the clock is read after
    every checksum. While more than a block's worth of budget remains,
    each checksum covers the whole 64 KiB block, which ``zlib.crc32``
    computes outside the interpreter lock, so concurrent callers burn
    their budgets truly in parallel. In the tail, each checksum is sized
    to half the bytes that the nanoseconds left buy at the rate this call
    has measured (at least 512 B), which bounds the overshoot at a few
    microseconds on a fine-grained CPU clock. Until the clock first moves
    the rate is unknown and whole blocks run, so on kernels that account
    CPU time in scheduler ticks the overshoot stays at most one tick. The
    deadline is computed in integer nanoseconds so that tick-quantized
    clocks compare exactly.
    """
    if delta <= 0.0:
        return
    crc = zlib.crc32
    clock = time.thread_time_ns
    block = _BUSY_BLOCK
    full = len(block)
    start = now = clock()
    deadline = start + int(delta * 1e9)
    done = 0  # bytes checksummed so far
    while now < deadline:
        elapsed = now - start
        fits = done * (deadline - now) // elapsed if elapsed else full
        # Half of what fits: a checksum that runs up to twice as slow as
        # this call's average still ends by the deadline, and the next
        # clock read sizes the rest.
        size = full if fits >= full else max(fits // 2, _BUSY_TAIL_MIN)
        crc(block[:size])
        done += size
        now = clock()


# -- delay distributions -------------------------------------------------------


@dataclass(frozen=True)
class DelayDistribution:
    """Per-atomic transition-delay law: constant(k), uniform(0,k) or
    chi_square(2)."""

    kind: str
    parameter: float = 0.0

    CONSTANT = "constant"
    UNIFORM = "uniform"
    CHI_SQUARE = "chi_square"

    def __post_init__(self) -> None:
        if self.kind not in (self.CONSTANT, self.UNIFORM, self.CHI_SQUARE):
            raise ModelError(f"unknown delay distribution {self.kind!r}")
        if self.parameter < 0:
            raise ModelError("delay parameter must be non-negative")

    @classmethod
    def constant(cls, k: float) -> "DelayDistribution":
        return cls(cls.CONSTANT, k)

    @classmethod
    def uniform(cls, k: float) -> "DelayDistribution":
        return cls(cls.UNIFORM, k)

    @classmethod
    def chi_square(cls) -> "DelayDistribution":
        """Chi-square with two degrees of freedom (mean 2)."""
        return cls(cls.CHI_SQUARE, 2.0)

    def sample(self, rng: random.Random) -> float:
        if self.kind == self.CONSTANT:
            return self.parameter
        if self.kind == self.UNIFORM:
            return rng.random() * self.parameter
        # chi^2 with f=2 is exponential with mean 2: -2*ln(1-U).
        return -2.0 * math.log(1.0 - rng.random())

    def label(self) -> str:
        if self.kind == self.CHI_SQUARE:
            return "chi_square(2)"
        return f"{self.kind}({self.parameter:g})"


def sample_delays(dist: DelayDistribution, atomics: list[str],
                  seed: int) -> dict[str, float]:
    """One delay per atomic, deterministic in (distribution, order, seed)."""
    rng = random.Random(seed)
    return {name: dist.sample(rng) for name in atomics}


# -- benchmark atomic ------------------------------------------------------------


@register_behavior("devstone")
class DevstoneAtomic(AtomicModel):
    """The benchmark atomic.

    External transition: burn the external delay, append the whole input
    bag to the stored list, go active with sigma 0. Internal transition:
    burn the internal delay, clear the list, passivate. Confluent is
    :class:`AtomicModel`'s: the internal body first, then the external one
    with zero elapsed time. The output function re-emits the stored list. Only this behavior touches
    the global counters.
    """

    INPUT_PORTS = ("in",)
    OUTPUT_PORTS = ("out",)

    def initialize(self) -> None:
        self.event_list: list = []
        self.passivate()

    def output(self) -> None:
        self.emit("out", *self.event_list)

    def delta_int(self) -> None:
        self.counters.internal()
        busy_cpu(self.spec.delay_int)
        self.event_list = []
        self.passivate()

    def delta_ext(self, e: float) -> None:
        self.counters.external()
        busy_cpu(self.spec.delay_ext)
        values = list(self.bag("in"))
        self.counters.events(len(values))
        self.event_list.extend(values)
        self.hold_in("active", 0.0)


# -- configuration and closed forms -------------------------------------------------


LI = "LI"
HI = "HI"
HO = "HO"
SHAPES = (LI, HI, HO)


@dataclass(frozen=True)
class DevstoneConfig:
    shape: str
    width: int
    depth: int
    delay: DelayDistribution = field(default_factory=lambda: DelayDistribution.constant(0.0))
    seed: int = 0

    def __post_init__(self) -> None:
        if self.shape not in SHAPES:
            raise ModelError(f"unknown benchmark shape {self.shape!r}")
        if self.width < 2:
            raise ModelError("width must be >= 2")
        if self.depth < 1:
            raise ModelError("depth must be >= 1")

    def model_name(self) -> str:
        return f"{self.shape.lower()}_w{self.width}_d{self.depth}"


@dataclass(frozen=True)
class ExpectedCounts:
    atomics: int
    eic: int
    ic: int
    eoc: int
    delta_int: int
    delta_ext: int
    events: int


def expected_counts(width: int, depth: int, shape: str = HO) -> ExpectedCounts:
    """Closed-form structure and transition totals; exact for HO only."""
    if shape != HO:
        raise ModelError("closed forms exist for the HO shape only")
    if width < 2 or depth < 1:
        raise ModelError("need width >= 2 and depth >= 1")
    w, d = width, depth
    transitions = 1 + (d - 1) * (w * w - w) // 2
    return ExpectedCounts(
        atomics=1 + (d - 1) * (w - 1),
        eic=1 + (d - 1) * (w + 1),
        ic=(d - 1) * (w - 2),
        eoc=1 + (d - 1) * w,
        delta_int=transitions,
        delta_ext=transitions,
        events=transitions,
    )


# -- model generation -----------------------------------------------------------------

GENERATOR_NAME = "generator"


def benchmark_atomic_names(config: DevstoneConfig) -> list[str]:
    """Benchmark atomics in delay-sampling order: chain atomics level by
    level from the root down, then the single innermost atomic."""
    names = []
    for level in range(1, config.depth):
        for i in range(1, config.width):
            names.append(f"A{i}_{level}")
    names.append(f"A1_{config.depth}")
    return names


def generate(config: DevstoneConfig) -> ModelGraph:
    """Build the benchmark model: the recursive shape plus a seed generator.

    The returned graph is closed (the generator feeds the shape's boundary
    inputs) and carries the sampled per-atomic delays in its atomic specs;
    both internal and external delays of an atomic equal its sampled value.
    """
    delays = sample_delays(config.delay, benchmark_atomic_names(config), config.seed)

    def bench(name: str) -> "AtomicSpec":
        delta = delays[name]
        return atomic_spec(name, "devstone", delay_int=delta, delay_ext=delta)

    if config.shape == HO:
        inner_ports = (("in1", "in2"), ("out1", "out2"))
    else:
        inner_ports = (("in",), ("out",))

    depth, width = config.depth, config.width
    deepest = ModelGraph(f"C{depth}", *inner_ports)
    deep_atomic = bench(f"A1_{depth}")
    deepest.add_component(deep_atomic)
    deepest.connect(deepest.name, inner_ports[0][0], deep_atomic.name, "in")
    deepest.connect(deep_atomic.name, "out", deepest.name, inner_ports[1][0])

    child = deepest
    for level in range(depth - 1, 0, -1):
        coupled = ModelGraph(f"C{level}", *inner_ports)
        coupled.add_component(child)
        chain = [bench(f"A{i}_{level}") for i in range(1, width)]
        for spec in chain:
            coupled.add_component(spec)
        if config.shape == HO:
            coupled.connect(coupled.name, "in1", child.name, "in1")
            coupled.connect(coupled.name, "in2", child.name, "in2")
            for spec in chain:
                coupled.connect(coupled.name, "in2", spec.name, "in")
        else:
            coupled.connect(coupled.name, "in", child.name, "in")
            for spec in chain:
                coupled.connect(coupled.name, "in", spec.name, "in")
        if config.shape in (HI, HO):
            for left, right in zip(chain, chain[1:]):
                coupled.connect(left.name, "out", right.name, "in")
        if config.shape == HO:
            coupled.connect(child.name, "out1", coupled.name, "out1")
            for spec in chain:
                coupled.connect(spec.name, "out", coupled.name, "out2")
        else:
            coupled.connect(child.name, "out", coupled.name, "out")
        child = coupled

    model = ModelGraph(config.model_name())
    model.add_component(atomic_spec(GENERATOR_NAME, "generator"))
    model.add_component(child)
    for port in child.input_ports:
        model.connect(GENERATOR_NAME, "out", child.name, port)
    return model


def delay_map(graph: ModelGraph) -> dict[str, tuple[float, float]]:
    """Per-atomic (internal delay, external delay) for a generated model."""
    return {spec.name: (spec.delay_int, spec.delay_ext)
            for _, spec in graph.walk_atomics()}
