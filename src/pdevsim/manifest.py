"""Orchestration manifest emission: distributed plan to pod specs.

Each container group becomes one single-container pod whose command is one
``pdevsim serve`` process hosting every atomic of the group, and which
exposes one port per distinct plan endpoint among them. The pod and its
container are named after the group as an RFC 1123 label, which Kubernetes
requires; the ``--atomic`` arguments keep the plan's names. Atomics that share
an endpoint are co-hosted by one service group, so pushes among them stay
in memory, and a container group must not split them. One extra pod runs
the root coordinator.
The output is plain YAML so any orchestrator tooling (or ``kubectl
apply``) can consume it; nothing here talks to a cluster.
"""

from __future__ import annotations

import re
import shlex

import yaml

from .distributed import DistributedPlan, Endpoint


class ManifestError(Exception):
    """Grouping is inconsistent with the plan."""


DEFAULT_IMAGE = "pdevsim:latest"
DEFAULT_PLAN_PATH = "/etc/pdevsim/plan.xml"
_NOT_IN_LABEL = re.compile(r"[^a-z0-9-]+")


def _pod_name(group: str) -> str:
    """The pod and container name of ``group``: ``sim-`` and the group name
    as an RFC 1123 label, in lower case, with each run of other characters
    a ``-``, cut to 63 characters, and ending in a letter or digit."""
    return f"sim-{_NOT_IN_LABEL.sub('-', group.lower())}"[:63].rstrip("-")


def group_by_host(plan: DistributedPlan) -> dict[str, str]:
    """One container group per distinct simulator host."""
    hosts = []
    grouping = {}
    for name, endpoint in plan.endpoints.items():
        if endpoint.host not in hosts:
            hosts.append(endpoint.host)
        grouping[name] = f"group{hosts.index(endpoint.host)}"
    return grouping


def group_by_atomic(plan: DistributedPlan) -> dict[str, str]:
    """One container group per atomic (fully spread deployment)."""
    return {name: name for name in plan.endpoints}


def emit_orchestration_manifest(plan: DistributedPlan, grouping: dict[str, str], *,
                                image: str = DEFAULT_IMAGE,
                                plan_path: str = DEFAULT_PLAN_PATH) -> str:
    """Render pod specs for every container group plus the coordinator.

    ``grouping`` maps every atomic of the plan to a group name. A group
    holds every atomic of each endpoint it serves, and two endpoints in one
    group must not collide on a port.
    """
    missing = sorted(set(plan.endpoints) - set(grouping))
    if missing:
        raise ManifestError(f"atomic {missing[0]!r} has no container group")
    unknown = sorted(set(grouping) - set(plan.endpoints))
    if unknown:
        raise ManifestError(f"grouping names unknown atomic {unknown[0]!r}")

    groups: dict[str, list[str]] = {}
    group_at: dict[Endpoint, str] = {}
    for name, endpoint in plan.endpoints.items():  # plan order keeps output deterministic
        group = grouping[name]
        groups.setdefault(group, []).append(name)
        if group_at.setdefault(endpoint, group) != group:
            raise ManifestError(
                f"group {group!r} splits endpoint {endpoint} with group "
                f"{group_at[endpoint]!r}: it holds {name!r}")

    documents = []
    named: dict[str, str] = {}
    for group, members in groups.items():
        name = _pod_name(group)
        if named.setdefault(name, group) != group:
            raise ManifestError(f"groups {named[name]!r} and {group!r} both map to "
                                f"pod name {name!r}")
        ports: list[int] = []
        for endpoint in dict.fromkeys(plan.endpoints[member] for member in members):
            if endpoint.main_port in ports:
                raise ManifestError(
                    f"port {endpoint.main_port} collides inside group {group!r}")
            ports.append(endpoint.main_port)
        command = f"pdevsim serve --plan {shlex.quote(plan_path)}" + "".join(
            f" --atomic {shlex.quote(m)}" for m in members)
        documents.append(_pod(name, image, command, ports))
    documents.append(_pod(
        "coordinator", image,
        f"pdevsim coordinate --plan {shlex.quote(plan_path)}", []))
    return yaml.safe_dump_all(documents, sort_keys=False, explicit_start=True)


def _pod(name: str, image: str, command: str, ports: list[int]) -> dict:
    container = {
        "name": name,
        "image": image,
        "command": ["/bin/sh", "-c", command],
    }
    if ports:
        container["ports"] = [{"containerPort": port} for port in ports]
    return {
        "apiVersion": "v1",
        "kind": "Pod",
        "metadata": {"name": name, "labels": {"app": "pdevsim"}},
        "spec": {"restartPolicy": "Never", "containers": [container]},
    }
