"""Modeling layer: ports, event values, atomic specs, and coupled-model graphs.

The modeling layer is deliberately independent of any coordinator. A
:class:`ModelGraph` describes structure only (components, ports, couplings);
behavioral state lives in per-run behavior instances created from the
registry in :mod:`pdevsim.behaviors`.

A graph is compiled once. :meth:`ModelGraph.freeze`, which every
coordinator, plan and :func:`flatten` applies, validates the graph, raising
a :class:`ModelError` on its first violation, and then turns ``couplings``
into a tuple; from then on the graph is immutable and known valid, and the
first :func:`flatten` of it keeps the flat form on it (sealed too, and
never validated: it is valid by construction), so every later coordinator,
backend or plan built over the same graph shares one validation and one
flat form.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter, namedtuple
from dataclasses import dataclass, replace
from itertools import count
from typing import Iterable, Iterator, Union

EventValue = Union[int, float, str, list]

INPUT = "input"
OUTPUT = "output"

EIC = "EIC"
IC = "IC"
EOC = "EOC"

# Builds a record without its checked constructor, where the fields are
# known good.
_new_tuple = tuple.__new__


class ModelError(Exception):
    """Structural violation while building or using a model graph."""


def check_event_value(value: EventValue) -> None:
    """Reject payloads outside the closed event-value set.

    Allowed payloads are int, finite float, str, and (nested) lists of
    those. The closed set is what guarantees that anything the sequential
    backend can carry also round-trips through the distributed wire.
    """
    if isinstance(value, bool):
        raise ModelError(f"bool is not an event value: {value!r}")
    if isinstance(value, (int, str)):
        return
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise ModelError(f"event reals must be finite: {value!r}")
        return
    if isinstance(value, list):
        for item in value:
            check_event_value(item)
        return
    raise ModelError(f"unsupported event payload type: {type(value).__name__}")


def _same_record(self, other) -> bool:
    return type(other) is type(self) and tuple.__eq__(self, other)


def _other_record(self, other) -> bool:
    return not _same_record(self, other)


class PortRef(namedtuple("PortRef", "component port direction")):
    """Reference to one named port on a component or on a graph boundary.

    An immutable named tuple that, like a frozen dataclass, equals only a
    PortRef with equal fields.
    """

    __slots__ = ()

    def __new__(cls, component: str, port: str, direction: str) -> "PortRef":
        if direction not in (INPUT, OUTPUT):
            raise ModelError(f"bad port direction {direction!r}")
        return _new_tuple(cls, (component, port, direction))

    __eq__, __ne__, __hash__ = _same_record, _other_record, tuple.__hash__

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return f"{self.component}.{self.port}/{self.direction[:3]}"


class Coupling(namedtuple("Coupling", "src dst kind")):
    """One stored coupling with its auto-classified kind (EIC, IC or EOC).

    An immutable named tuple that equals only a Coupling with equal fields.
    """

    __slots__ = ()
    __eq__, __ne__, __hash__ = _same_record, _other_record, tuple.__hash__


@dataclass(frozen=True)
class AtomicSpec:
    """Structural description of one atomic component.

    ``model`` names a registered behavior type; ``delay_int``/``delay_ext``
    parameterize it. For the benchmark atomic they are CPU-seconds burned in
    the transition functions; other behaviors document their own reading.
    Specs are immutable; run state lives in behavior instances.
    """

    name: str
    model: str
    delay_int: float = 0.0
    delay_ext: float = 0.0
    input_ports: tuple[str, ...] = ("in",)
    output_ports: tuple[str, ...] = ("out",)

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("atomic name must be non-empty")
        for ports in (self.input_ports, self.output_ports):
            if len(set(ports)) != len(ports):
                raise ModelError(f"duplicate port name on atomic {self.name!r}")


@dataclass(frozen=True)
class Violation:
    severity: str  # "error" | "warning"
    where: str     # path of the coupled model the finding belongs to
    message: str


class ModelGraph:
    """A coupled model: children plus EIC/IC/EOC couplings.

    Graphs are built with :meth:`add_component` and :meth:`couple` (or the
    name-based :meth:`connect`) and become immutable once :meth:`freeze`
    validates them, which every coordinator does on construction.
    """

    def __init__(self, name: str, input_ports: Iterable[str] = (),
                 output_ports: Iterable[str] = ()) -> None:
        if not name:
            raise ModelError("coupled model name must be non-empty")
        self.name = name
        self.input_ports = tuple(input_ports)
        self.output_ports = tuple(output_ports)
        if len(set(self.input_ports)) != len(self.input_ports) or \
                len(set(self.output_ports)) != len(self.output_ports):
            raise ModelError(f"duplicate boundary port on {name!r}")
        self.atomics: dict[str, AtomicSpec] = {}
        self.coupleds: dict[str, "ModelGraph"] = {}
        self.couplings: list[Coupling] | tuple[Coupling, ...] = []
        self._order: list[str] = []  # child names in document order
        # The one PortRef of each port of this graph and of its children, by
        # (component, port, direction), filled as components are added. A
        # port that is not here is looked up on the component, and kept.
        self._refs: dict[tuple[str, str, str], PortRef] = {}
        self._add_refs(self)
        self._frozen = False
        self._flat: ModelGraph | None = None  # kept once frozen and flattened

    # -- construction -----------------------------------------------------

    def _check_mutable(self) -> None:
        if self._frozen:
            raise ModelError(f"model {self.name!r} is frozen")

    def _add_refs(self, component: Union[AtomicSpec, "ModelGraph"]) -> None:
        refs, name = self._refs, component.name
        for port in component.input_ports:
            refs[name, port, INPUT] = _new_tuple(PortRef, (name, port, INPUT))
        for port in component.output_ports:
            refs[name, port, OUTPUT] = _new_tuple(PortRef, (name, port, OUTPUT))

    def add_component(self, child: Union[AtomicSpec, "ModelGraph"]) -> "ModelGraph":
        """Register a child atomic spec or coupled model at this level."""
        self._check_mutable()
        if child.name == self.name or child.name in self.atomics or child.name in self.coupleds:
            raise ModelError(f"duplicate component name {child.name!r} in {self.name!r}")
        if isinstance(child, AtomicSpec):
            self.atomics[child.name] = child
        elif isinstance(child, ModelGraph):
            self.coupleds[child.name] = child
        else:
            raise ModelError(f"cannot add {type(child).__name__} as a component")
        self._order.append(child.name)
        self._add_refs(child)
        return self

    def components(self) -> Iterator[Union[AtomicSpec, "ModelGraph"]]:
        """Children in document order, atomics and coupleds interleaved."""
        for name in self._order:
            yield self.atomics.get(name) or self.coupleds[name]

    def couple(self, src: PortRef, dst: PortRef) -> "ModelGraph":
        """Store a coupling after classifying it as EIC, IC or EOC."""
        self._check_mutable()
        kind = self.classify(src, dst)
        self.couplings.append(_new_tuple(Coupling, (src, dst, kind)))
        return self

    def connect(self, src_component: str, src_port: str,
                dst_component: str, dst_port: str) -> "ModelGraph":
        """Name-based form of :meth:`couple`; each end is the one
        :class:`PortRef` this graph keeps for that port."""
        self._check_mutable()
        name, refs = self.name, self._refs
        src_key = (src_component, src_port, INPUT if src_component == name else OUTPUT)
        dst_key = (dst_component, dst_port, OUTPUT if dst_component == name else INPUT)
        src = refs.get(src_key) or self._port(*src_key)
        dst = refs.get(dst_key) or self._port(*dst_key)
        if src_component != name:
            kind = EOC if dst_component == name else IC
        elif dst_component != name:
            kind = EIC
        else:
            kind = self.classify(src, dst)  # refuses boundary to boundary
        self.couplings.append(_new_tuple(Coupling, (src, dst, kind)))
        return self

    def freeze(self) -> "ModelGraph":
        """Validate this graph and make it and its children immutable,
        ``couplings`` a tuple, so a frozen graph is a valid one. The first
        violation is raised as a :class:`ModelError`, and the graph is
        left as it was."""
        if not self._frozen:
            errors = _validate_levels(self)
            if errors:
                raise ModelError(errors[0].message)
            self._seal()
        return self

    def _seal(self) -> "ModelGraph":
        """Freeze without validating: for a graph valid by construction."""
        self._frozen = True
        self.couplings = tuple(self.couplings)
        for child in self.coupleds.values():
            child._seal()
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    # -- lookup ------------------------------------------------------------

    def component_ports(self, component: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Input and output port names of a component, or of this graph."""
        if component == self.name:
            return self.input_ports, self.output_ports
        if component in self.atomics:
            spec = self.atomics[component]
            return spec.input_ports, spec.output_ports
        if component in self.coupleds:
            child = self.coupleds[component]
            return child.input_ports, child.output_ports
        raise ModelError(f"no component {component!r} in {self.name!r}")

    def _port(self, component: str, port: str, direction: str) -> PortRef:
        """The PortRef of a port that is not in this graph's table, once the
        component is found to have it: a port assigned after the component
        was added."""
        inputs, outputs = self.component_ports(component)
        if port not in (inputs if direction == INPUT else outputs):
            raise ModelError(f"no {direction} port {port!r} on {component!r} in {self.name!r}")
        ref = self._refs[component, port, direction] = PortRef(component, port, direction)
        return ref

    def classify(self, src: PortRef, dst: PortRef) -> str:
        """Derive the coupling kind from endpoint ownership and direction.

        EIC: graph input to child input; IC: child output to child input;
        EOC: child output to graph output. Anything else is illegal,
        including a direct shortcut from the graph's own input to its own
        output.
        """
        refs = self._refs
        if tuple(src) not in refs:
            self._port(*src)
        if tuple(dst) not in refs:
            self._port(*dst)
        src_is_self = src.component == self.name
        dst_is_self = dst.component == self.name
        if src_is_self and dst_is_self:
            raise ModelError(
                f"cannot couple boundary to boundary on {self.name!r} without a component")
        if src_is_self:
            if src.direction != INPUT or dst.direction != INPUT:
                raise ModelError(f"illegal EIC pattern {src} -> {dst} in {self.name!r}")
            return EIC
        if dst_is_self:
            if src.direction != OUTPUT or dst.direction != OUTPUT:
                raise ModelError(f"illegal EOC pattern {src} -> {dst} in {self.name!r}")
            return EOC
        if src.direction != OUTPUT or dst.direction != INPUT:
            raise ModelError(f"illegal IC pattern {src} -> {dst} in {self.name!r}")
        return IC

    # -- traversal ----------------------------------------------------------

    def walk_atomics(self, path: tuple[str, ...] = ()) -> Iterator[tuple[tuple[str, ...], AtomicSpec]]:
        """Yield (path, spec) for every atomic, depth-first in document order.

        ``path`` is the chain of enclosing coupled names plus the leaf name,
        excluding the root.
        """
        leaves: list[tuple[tuple[str, ...], AtomicSpec]] = []
        self._collect_atomics(path, leaves)
        return iter(leaves)

    def _collect_atomics(self, path: tuple[str, ...], out: list) -> None:
        for name in self._order:
            spec = self.atomics.get(name)
            if spec is None:
                self.coupleds[name]._collect_atomics(path + (name,), out)
            else:
                out.append((path + (name,), spec))

    def atomic_count(self) -> int:
        return sum(1 for _ in self.walk_atomics())

    def is_flat(self) -> bool:
        return not self.coupleds

    # -- identity ------------------------------------------------------------

    def _canonical(self) -> dict:
        children = []
        for child in self.components():
            if isinstance(child, AtomicSpec):
                children.append(["atomic", child.name, child.model, child.delay_int,
                                 child.delay_ext, list(child.input_ports),
                                 list(child.output_ports)])
            else:
                children.append(["coupled", child._canonical()])
        return {
            "name": self.name,
            "in": list(self.input_ports),
            "out": list(self.output_ports),
            "children": children,
            "couplings": [
                [c.src.component, c.src.port, c.src.direction,
                 c.dst.component, c.dst.port, c.dst.direction, c.kind]
                for c in self.couplings
            ],
        }

    def structural_hash(self) -> str:
        """Order-preserving digest of the full structure; used to assert
        that coordinators never mutate a model."""
        blob = json.dumps(self._canonical(), separators=(",", ":"), sort_keys=False)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def structurally_equal(self, other: "ModelGraph") -> bool:
        return self.structural_hash() == other.structural_hash()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"ModelGraph({self.name!r}, atomics={len(self.atomics)}, "
                f"coupleds={len(self.coupleds)}, couplings={len(self.couplings)})")


# -- validation ---------------------------------------------------------------


def validate(graph: ModelGraph, include_warnings: bool = False) -> list[Violation]:
    """Check all graph invariants recursively.

    Returns an empty list iff every structural invariant holds. With
    ``include_warnings`` the check also reports coupling cycles among
    atomics (possible zero-delay loops) as warnings; cycles are legal but
    worth surfacing; finding them in a hierarchy flattens it, which freezes
    it. A frozen graph is valid, and is not walked again.
    """
    violations = [] if graph.frozen else _validate_levels(graph)
    if include_warnings and not violations:
        for cycle in _coupling_cycles(graph):
            violations.append(Violation(
                "warning", graph.name,
                "coupling cycle among atomics (possible zero-delay loop): "
                + " -> ".join(cycle)))
    return violations


def _validate_levels(graph: ModelGraph) -> list[Violation]:
    """One walk over every level of ``graph``, parents before children."""
    out: list[Violation] = []
    levels = [(graph.name, graph)]
    while levels:
        where, level = levels.pop()
        seen: set[str] = set()
        for name in list(level.atomics) + list(level.coupleds):
            if name in seen or name == level.name:
                out.append(Violation("error", where, f"duplicate component name {name!r}"))
            seen.add(name)
        for coupling in level.couplings:
            try:
                kind = level.classify(coupling.src, coupling.dst)
            except ModelError as exc:
                out.append(Violation("error", where, str(exc)))
                continue
            if kind != coupling.kind:
                out.append(Violation(
                    "error", where,
                    f"stored kind {coupling.kind} does not match re-derived {kind} "
                    f"for {coupling.src} -> {coupling.dst}"))
        levels.extend((f"{where}.{child.name}", child)
                      for child in reversed(level.coupleds.values()))
    return out


def _coupling_cycles(graph: ModelGraph) -> list[list[str]]:
    """Cycles in the atomic-to-atomic event graph of the flattened routes."""
    edges: dict[str, set[str]] = {}
    flat = graph if graph.is_flat() else flatten(graph)
    for coupling in flat.couplings:
        if coupling.kind == IC:
            edges.setdefault(coupling.src.component, set()).add(coupling.dst.component)
    cycles: list[list[str]] = []
    visiting: dict[str, int] = {}  # 1 = on stack, 2 = done
    stack: list[str] = []

    def visit(node: str) -> None:
        visiting[node] = 1
        stack.append(node)
        for nxt in sorted(edges.get(node, ())):
            state = visiting.get(nxt)
            if state == 1:
                cycles.append(stack[stack.index(nxt):] + [nxt])
            elif state is None:
                visit(nxt)
        stack.pop()
        visiting[node] = 2

    for node in sorted(edges):
        if node not in visiting:
            visit(node)
    return cycles


# -- flattening ---------------------------------------------------------------

def flatten(graph: ModelGraph) -> ModelGraph:
    """Rewrite a hierarchy into a single-level graph of atomics only.

    Every atomic appears exactly once (path-qualified names are substituted
    only when two leaves collide), and every event path through any number
    of coupled boundaries becomes exactly one direct coupling. Routes are
    enumerated deterministically: boundary inputs first, then atomic
    outputs in depth-first insertion order. Models in which two senders hit
    the same input port in the same cycle may therefore observe a different
    within-bag merge order than non-flattened execution; each execution
    mode is individually deterministic. The graph is frozen first (see
    :meth:`ModelGraph.freeze`) and flattened once: its flat form is sealed
    and kept, and a flat graph is its own.
    """
    try:
        graph.freeze()
    except ModelError as exc:
        raise ModelError(f"cannot flatten invalid graph: {exc}") from None
    if graph.is_flat():
        return graph  # not kept in _flat, which would make the graph cyclic garbage
    if graph._flat is None:
        leaves = _leaves(graph)
        flat = ModelGraph(graph.name, graph.input_ports, graph.output_ports)
        for _, spec in leaves:
            flat.add_component(spec)
        flat.couplings = _routes(graph, flat, leaves)
        graph._flat = flat._seal()
    return graph._flat


def _leaves(graph: ModelGraph) -> list[tuple[tuple[str, ...], AtomicSpec]]:
    """(path, spec) of every atomic in walk order, each spec under its
    flattened name: its path, dotted, when two leaves share a name."""
    leaves = list(graph.walk_atomics())
    counts = Counter(spec.name for _, spec in leaves)
    return [(path, spec if counts[spec.name] == 1 else replace(spec, name=".".join(path)))
            for path, spec in leaves]


def _routes(graph: ModelGraph, flat: ModelGraph, leaves) -> list[Coupling]:
    """The couplings of ``flat``, the flat form of the valid ``graph`` with
    ``leaves``: one per event path, in flatten's route order, each end the
    PortRef that ``flat`` keeps. A route's kind follows from its ends; one
    from a root input ends at an atomic, as a valid level couples no
    boundary to boundary. The helpers are module functions, not closures,
    which would refer to themselves and leave every flattened graph behind
    as cyclic garbage."""
    refs = flat._refs
    # Each coupled model in the walk has a number, the root 0. A route
    # node is an atomic output, by its PortRef in ``flat``, or a port of a
    # coupled model: (number, port, direction). Its edges are the nodes it
    # leads to in one hop, or the PortRef in ``flat`` of an atomic input or
    # root output where it ends.
    edges: dict = {}
    _link(graph, 0, refs, iter([spec.name for _, spec in leaves]), count(1), edges)
    sinks: dict = {}
    routes: list[Coupling] = []
    for port in graph.input_ports:
        src = refs[graph.name, port, INPUT]
        routes += [_new_tuple(Coupling, (src, dst, EIC))
                   for dst in _reach((0, port, INPUT), edges, sinks)]
    for _, spec in leaves:
        for port in spec.output_ports:
            src = refs[spec.name, port, OUTPUT]
            routes += [_new_tuple(Coupling, (src, dst, EOC if dst.direction == OUTPUT else IC))
                       for dst in _reach(src, edges, sinks)]
    return routes


def _link(level: ModelGraph, number: int, refs, flat_names, numbers, edges: dict) -> None:
    """Add to ``edges`` the route edges of ``level``, numbered ``number``
    (the root 0), and below it; children are visited in walk order, taking
    each atomic's flat name from ``flat_names`` and each coupled model's
    number from ``numbers``."""
    here: dict[str, str | int] = {level.name: number}
    for name in level._order:
        if name in level.atomics:
            here[name] = next(flat_names)
        else:
            here[name] = child = next(numbers)
            _link(level.coupleds[name], child, refs, flat_names, numbers, edges)
    for coupling in level.couplings:
        src, dst = coupling.src, coupling.dst
        at = here[src.component]
        node = refs[at, src.port, OUTPUT] if type(at) is str else (at, src.port, src.direction)
        at = here[dst.component]
        if type(at) is str:
            end = refs[at, dst.port, INPUT]
        elif at:
            end = (at, dst.port, dst.direction)
        else:  # a root output
            end = refs[level.name, dst.port, OUTPUT]
        edges.setdefault(node, []).append(end)


def _reach(node, edges: dict, sinks: dict) -> list[PortRef]:
    """The atomic inputs and root outputs that route node ``node`` leads
    to along ``edges``, kept in ``sinks``."""
    found = sinks.get(node)
    if found is None:
        found = sinks[node] = []
        for nxt in edges.get(node, ()):
            if type(nxt) is PortRef:
                found.append(nxt)
            elif nxt in edges:
                found += _reach(nxt, edges, sinks)
    return found
