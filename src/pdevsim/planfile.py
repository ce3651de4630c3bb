"""Deployment plan files: one XML schema for both execution backends.

The document describes a flattened model (atomics plus connections) and an
addressing mode: per-atomic ``pool`` attributes select worker-pool parallel
execution, per-atomic ``host``/``mainPort`` attributes select
socket-distributed execution, where atomics with equal endpoints are
co-hosted by one service group. A file must use exactly one mode. Emission
is deterministic, so emit-parse-emit is byte stable. A ``host``/``mainPort``
on the root element, which older files give the coordinator, is ignored.
"""

from __future__ import annotations

import io
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

from . import devstone  # noqa: F401  (registers the benchmark behavior)
from .behaviors import behavior_ports
from .distributed import DistributedPlan, Endpoint
from .kernel import SimulationError
from .model import AtomicSpec, ModelError, ModelGraph, flatten, freeze_valid
from .parallel import PoolPlan, PoolSpec, default_workers


class PlanError(Exception):
    """Plan file violates the schema or is internally inconsistent."""


@dataclass
class ParallelPlan:
    """Parsed pool-mode document: the model plus its pool plan."""

    graph: ModelGraph
    pool_plan: PoolPlan


_DIST_ATTRS = ("host", "mainPort")


def parse_plan_xml(source: str | Path) -> DistributedPlan | ParallelPlan:
    """Parse a plan document from a path (or literal XML text).

    Returns a :class:`DistributedPlan` when atomics carry endpoint
    attributes and a :class:`ParallelPlan` when they carry pool attributes;
    mixing both in one document is an error.
    """
    text = _read(source)
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise PlanError(f"not well-formed XML: {exc}") from exc
    if root.tag != "coupled":
        raise PlanError(f"root element must be <coupled>, got <{root.tag}>")
    name = root.get("name")
    if not name:
        raise PlanError("<coupled> requires a name attribute")

    atomics = root.findall("atomic")
    if not atomics:
        raise PlanError("plan declares no atomic models")
    has_endpoint = any(any(a.get(k) is not None for k in _DIST_ATTRS) for a in atomics)
    has_pool = any(a.get("pool") is not None for a in atomics)
    if has_endpoint and has_pool:
        raise PlanError("mixed addressing: both endpoint and pool attributes present")
    if not has_endpoint and not has_pool:
        raise PlanError("no addressing: atomics need either pool or host/port attributes")

    graph = _build_graph(name, root, atomics)
    if has_pool:
        return ParallelPlan(graph, _pool_plan(root, atomics))
    plan = DistributedPlan(graph, _endpoints(atomics))
    try:
        plan.check()
    except Exception as exc:
        raise PlanError(str(exc)) from exc
    return plan


def load_pool_plan(source: str | Path) -> PoolPlan:
    """Parse a pool-mode plan document and return its PoolPlan."""
    parsed = parse_plan_xml(source)
    if not isinstance(parsed, ParallelPlan):
        raise PlanError("plan file uses endpoint addressing, not pools")
    return parsed.pool_plan


def _read(source: str | Path) -> str:
    if isinstance(source, Path):
        return source.read_text(encoding="utf-8")
    text = str(source)
    if text.lstrip().startswith("<"):
        return text
    return Path(text).read_text(encoding="utf-8")


def _float_attr(element: ET.Element, attr: str, default: float | None = None) -> float:
    raw = element.get(attr)
    if raw is None:
        if default is None:
            raise PlanError(f"<{element.tag}> requires attribute {attr!r}")
        return default
    try:
        return float(raw)
    except ValueError:
        raise PlanError(f"bad {attr}={raw!r} on <{element.tag}>") from None


def _int_attr(element: ET.Element, attr: str) -> int:
    raw = element.get(attr)
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise PlanError(f"bad {attr}={raw!r} on <{element.tag}>") from None


def _build_graph(name: str, root: ET.Element, atomics: list[ET.Element]) -> ModelGraph:
    connections = root.findall("connection")
    atom_names = []
    for element in atomics:
        atom_name = element.get("name")
        if not atom_name:
            raise PlanError("<atomic> requires a name attribute")
        atom_names.append(atom_name)
    # Boundary ports of the root are implied by connections that touch it.
    boundary_in, boundary_out = [], []
    for conn in connections:
        if conn.get("componentFrom") == name:
            port = conn.get("portFrom")
            if port not in boundary_in:
                boundary_in.append(port)
        if conn.get("componentTo") == name:
            port = conn.get("portTo")
            if port not in boundary_out:
                boundary_out.append(port)

    graph = ModelGraph(name, boundary_in, boundary_out)
    for element in atomics:
        model = element.get("model")
        if not model:
            raise PlanError(f"<atomic name={element.get('name')!r}> requires a model attribute")
        try:
            inputs, outputs = behavior_ports(model)
        except ModelError as exc:
            raise PlanError(str(exc)) from exc
        spec = AtomicSpec(element.get("name"), model,
                          _float_attr(element, "delayInt", 0.0),
                          _float_attr(element, "delayExt", 0.0),
                          inputs, outputs)
        try:
            graph.add_component(spec)
        except ModelError as exc:
            raise PlanError(str(exc)) from exc
    for conn in connections:
        fields = [conn.get(k) for k in
                  ("componentFrom", "portFrom", "componentTo", "portTo")]
        if any(f is None for f in fields):
            raise PlanError("<connection> requires componentFrom/portFrom/componentTo/portTo")
        try:
            graph.connect(*fields)
        except ModelError as exc:
            raise PlanError(f"bad connection: {exc}") from exc
    errors = freeze_valid(graph)
    if errors:
        raise PlanError(errors[0].message)
    return graph


def _pool_plan(root: ET.Element, atomics: list[ET.Element]) -> PoolPlan:
    pools: list[PoolSpec] = []
    seen: set[str] = set()
    for element in root.findall("pool"):
        pool_name = element.get("name")
        if not pool_name:
            raise PlanError("<pool> requires a name attribute")
        if pool_name in seen:
            raise PlanError(f"duplicate pool name {pool_name!r}")
        seen.add(pool_name)
        workers = (_int_attr(element, "workers") if element.get("workers") is not None
                   else default_workers())
        if workers < 1:
            raise PlanError(f"pool {pool_name!r} needs at least one worker")
        pools.append(PoolSpec(pool_name, workers))
    assignment: dict[str, str] = {}
    for element in atomics:
        pool_name = element.get("pool")
        if pool_name is None:
            raise PlanError(f"atomic {element.get('name')!r} has no pool attribute")
        if pool_name not in seen:
            raise PlanError(f"atomic {element.get('name')!r} assigned to "
                            f"undeclared pool {pool_name!r}")
        assignment[element.get("name")] = pool_name
    return PoolPlan(tuple(pools), assignment)


def _endpoints(atomics: list[ET.Element]) -> dict[str, Endpoint]:
    endpoints: dict[str, Endpoint] = {}
    for element in atomics:
        name = element.get("name")
        missing = [k for k in _DIST_ATTRS if element.get(k) is None]
        if missing:
            raise PlanError(f"atomic {name!r} lacks endpoint attribute {missing[0]!r}")
        try:
            endpoints[name] = Endpoint(element.get("host"), _int_attr(element, "mainPort"))
        except (PlanError, SimulationError) as exc:
            raise PlanError(f"atomic {name!r}: {exc}") from None
    return endpoints


# -- emission -----------------------------------------------------------------------


def _write_document(graph: ModelGraph, *, pools: tuple[PoolSpec, ...] = (),
                    atomic_attrs) -> str:
    root = ET.Element("coupled", {"name": graph.name})
    for pool in pools:
        ET.SubElement(root, "pool", {"name": pool.name, "workers": str(pool.workers)})
    for _, spec in graph.walk_atomics():
        attrs = {"name": spec.name, "model": spec.model,
                 "delayInt": repr(float(spec.delay_int)),
                 "delayExt": repr(float(spec.delay_ext))}
        attrs.update(atomic_attrs(spec.name))
        ET.SubElement(root, "atomic", attrs)
    for coupling in graph.couplings:
        ET.SubElement(root, "connection", {
            "componentFrom": coupling.src.component, "portFrom": coupling.src.port,
            "componentTo": coupling.dst.component, "portTo": coupling.dst.port})
    ET.indent(root, space="  ")
    buffer = io.StringIO()
    buffer.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    buffer.write(ET.tostring(root, encoding="unicode"))
    buffer.write("\n")
    return buffer.getvalue()


def _flat(graph: ModelGraph) -> ModelGraph:
    """The flat form of ``graph``, which is frozen, so that each graph is
    validated and flattened once however often it is emitted."""
    errors = freeze_valid(graph)
    if errors:
        raise PlanError(f"invalid model: {errors[0].message}")
    return flatten(graph)


def emit_pool_plan_xml(graph: ModelGraph, pool_plan: PoolPlan) -> str:
    """Serialize a flattened model with pool addressing."""
    flat = _flat(graph)
    names = {spec.name for _, spec in flat.walk_atomics()}
    for atomic in names:
        if atomic not in pool_plan.assignment:
            raise PlanError(f"pool plan misses atomic {atomic!r}")
    for atomic in pool_plan.assignment:
        if atomic not in names:
            raise PlanError(f"pool plan assigns unknown atomic {atomic!r}")
    return _write_document(
        flat, pools=pool_plan.pools,
        atomic_attrs=lambda name: {"pool": pool_plan.assignment[name]})


def emit_distributed_plan_xml(plan: DistributedPlan) -> str:
    """Serialize a distributed plan (model plus endpoints)."""
    try:
        plan.check()
    except Exception as exc:
        raise PlanError(str(exc)) from exc

    def attrs(name: str) -> dict[str, str]:
        endpoint = plan.endpoints[name]
        return {"host": endpoint.host, "mainPort": str(endpoint.main_port)}

    return _write_document(plan.graph, atomic_attrs=attrs)


def contiguous_blocks(items: list, count: int) -> list[list]:
    """``items`` in ``count`` contiguous blocks whose sizes differ by at
    most one."""
    return [items[len(items) * i // count:len(items) * (i + 1) // count]
            for i in range(count)]


def default_endpoints(graph: ModelGraph, host: str = "127.0.0.1",
                      base_port: int = 5000, blocks: int | None = None) -> DistributedPlan:
    """Distributed plan with generated endpoints on consecutive ports from
    ``base_port``: one per atomic, so each is a group of its own, or, given
    ``blocks``, one per each of that many contiguous blocks of plan order
    (never more than there are atomics), so each block is one group."""
    flat = _flat(graph)
    names = [spec.name for _, spec in flat.walk_atomics()]
    if blocks is not None and blocks < 1:
        raise PlanError(f"a plan needs at least one endpoint block, got {blocks}")
    endpoints = {name: Endpoint(host, base_port + index)
                 for index, block in enumerate(contiguous_blocks(
                     names, min(blocks or len(names), len(names))))
                 for name in block}
    return DistributedPlan(flat, endpoints)


def emit_plan_xml(graph: ModelGraph, *, pool_name: str = "main",
                  workers: int | None = None, host: str | None = None,
                  base_port: int = 5000) -> str:
    """Serialize with automatic defaults: a single thread pool of
    ``workers``, or, when ``host`` is given, a single host with consecutive
    ports, one per atomic or, given ``workers``, one per each of that many
    contiguous blocks of atomics (see :func:`default_endpoints`)."""
    flat = _flat(graph)
    if host is not None:
        return emit_distributed_plan_xml(default_endpoints(flat, host, base_port, workers))
    names = [spec.name for _, spec in flat.walk_atomics()]
    return emit_pool_plan_xml(flat, PoolPlan.single_pool(names, workers, pool_name))

