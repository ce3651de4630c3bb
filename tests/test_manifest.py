"""Orchestration manifests from distributed plans."""

import re
import shlex

import pytest
import yaml

from pdevsim import build_gpt, default_endpoints
from pdevsim.bench import AtomicProfile, allocate_two_level, two_level_pool_plan
from pdevsim.devstone import DevstoneConfig, generate
from pdevsim.distributed import DistributedPlan, Endpoint
from pdevsim.manifest import (ManifestError, emit_orchestration_manifest,
                              group_by_atomic, group_by_host)
from pdevsim.planfile import emit_pool_plan_xml, load_pool_plan

from conftest import grouped_plan, spread_plan


def test_one_pod_per_group_plus_coordinator():
    plan = spread_plan(build_gpt())
    text = emit_orchestration_manifest(plan, group_by_atomic(plan))
    documents = list(yaml.safe_load_all(text))
    assert len(documents) == 4  # three simulator pods and the coordinator
    names = [d["metadata"]["name"] for d in documents]
    assert names[-1] == "coordinator"
    for document in documents:
        assert document["kind"] == "Pod"
        assert len(document["spec"]["containers"]) == 1  # single-container pods


def test_single_group_exposes_all_ports():
    plan = spread_plan(build_gpt())
    text = emit_orchestration_manifest(plan, group_by_host(plan))
    documents = list(yaml.safe_load_all(text))
    assert len(documents) == 2
    ports = {p["containerPort"] for p in documents[0]["spec"]["containers"][0]["ports"]}
    assert ports == {endpoint.main_port for endpoint in plan.endpoints.values()}
    assert len(ports) == len(plan.endpoints)
    command = documents[0]["spec"]["containers"][0]["command"][2]
    assert command == ("pdevsim serve --plan /etc/pdevsim/plan.xml --atomic generator"
                       " --atomic transducer --atomic processor")


def test_one_port_per_distinct_endpoint():
    plan = grouped_plan(build_gpt(), [["generator", "processor"], ["transducer"]])
    documents = list(yaml.safe_load_all(
        emit_orchestration_manifest(plan, group_by_host(plan))))
    ports = [p["containerPort"] for p in documents[0]["spec"]["containers"][0]["ports"]]
    assert ports == [plan.endpoints["generator"].main_port,
                     plan.endpoints["transducer"].main_port]


def test_group_that_splits_an_endpoint_rejected():
    plan = grouped_plan(build_gpt(), [["generator", "processor"], ["transducer"]])
    with pytest.raises(ManifestError) as err:
        emit_orchestration_manifest(plan, group_by_atomic(plan))
    message = str(err.value)
    assert "splits endpoint" in message and "'processor'" in message
    assert "\n" not in message
    # Whole endpoints may share a group or have one each.
    emit_orchestration_manifest(plan, {"generator": "a", "processor": "a",
                                       "transducer": "b"})


def test_port_collision_within_group_rejected():
    plan = spread_plan(build_gpt())
    first = next(iter(plan.endpoints))
    endpoints = dict(plan.endpoints)
    clash = endpoints[first]
    other = [n for n in endpoints if n != first][0]
    # the same port on another host, in one group
    endpoints[other] = Endpoint("127.0.0.2", clash.main_port)
    bad_plan = DistributedPlan(plan.graph, endpoints)
    with pytest.raises(ManifestError, match="collides"):
        emit_orchestration_manifest(bad_plan, {n: "g" for n in endpoints})


def test_incomplete_grouping_rejected():
    plan = spread_plan(build_gpt())
    grouping = group_by_atomic(plan)
    del grouping["processor"]
    with pytest.raises(ManifestError, match="processor"):
        emit_orchestration_manifest(plan, grouping)
    grouping = group_by_atomic(plan)
    grouping["ghost"] = "g"
    with pytest.raises(ManifestError, match="ghost"):
        emit_orchestration_manifest(plan, grouping)


def test_larger_model_manifest_is_valid_yaml():
    plan = spread_plan(generate(DevstoneConfig("HO", 4, 4)))
    grouping = {name: f"tier{i % 3}" for i, name in enumerate(plan.endpoints)}
    documents = list(yaml.safe_load_all(
        emit_orchestration_manifest(plan, grouping, image="example/image:1")))
    assert len(documents) == 4
    assert all(d["spec"]["containers"][0]["image"] == "example/image:1"
               for d in documents)


RFC1123_LABEL = re.compile(r"[a-z0-9]([-a-z0-9]*[a-z0-9])?")


@pytest.mark.parametrize("groups", ["atomic", "host", "pool-plan"])
def test_every_emitted_name_is_an_rfc1123_label(groups):
    """Pod and container names are lower-case RFC 1123 labels of at most
    63 characters, while each ``--atomic`` argument keeps the plan's name."""
    graph = generate(DevstoneConfig("HO", 3, 3))
    plan = default_endpoints(graph)
    if groups == "atomic":
        grouping = group_by_atomic(plan)
    elif groups == "host":
        grouping = group_by_host(plan)
    else:
        profiles = [AtomicProfile(name, float(i), 0.0) for i, name in enumerate(plan.endpoints)]
        pools = two_level_pool_plan(allocate_two_level(profiles, plan.graph, n=2, m=2))
        grouping = dict(load_pool_plan(emit_pool_plan_xml(plan.graph, pools)).assignment)
    documents = list(yaml.safe_load_all(emit_orchestration_manifest(plan, grouping)))
    assert len(documents) == len(set(grouping.values())) + 1
    names = [d["metadata"]["name"] for d in documents]
    names += [c["name"] for d in documents for c in d["spec"]["containers"]]
    assert all(RFC1123_LABEL.fullmatch(name) and len(name) <= 63 for name in names), names
    hosted = [argument for d in documents[:-1]
              for argument in shlex.split(d["spec"]["containers"][0]["command"][2])[5::2]]
    assert sorted(hosted) == sorted(plan.endpoints)


def test_groups_whose_names_collide_as_labels_are_rejected():
    plan = spread_plan(build_gpt())
    grouping = {"generator": "Tier_1", "processor": "tier-1", "transducer": "x" * 80}
    with pytest.raises(ManifestError) as err:
        emit_orchestration_manifest(plan, grouping)
    message = str(err.value)
    assert "'Tier_1'" in message and "'tier-1'" in message and "\n" not in message
    grouping["processor"] = "x" * 81  # the same label once cut to 63 characters
    with pytest.raises(ManifestError, match="'x+' and 'x+' both map to pod name 'sim-x+'"):
        emit_orchestration_manifest(plan, grouping)
