"""Plan XML: mode detection, schema errors, round-trip identity."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdevsim import (DistributedPlan, build_efp, build_gpt, default_endpoints,
                     emit_distributed_plan_xml, emit_plan_xml,
                     emit_pool_plan_xml, load_pool_plan, parse_plan_xml)
from pdevsim.bench import run_parallel, run_sequential
from pdevsim.devstone import DevstoneConfig, generate
from pdevsim.kernel import SimulationError
from pdevsim.parallel import PoolPlan, PoolSpec, contiguous_blocks
from pdevsim.planfile import ParallelPlan, PlanError


def test_distributed_plan_roundtrip():
    text = emit_plan_xml(build_gpt(), host="127.0.0.1", base_port=5000)
    plan = parse_plan_xml(text)
    assert isinstance(plan, DistributedPlan)
    assert len(plan.endpoints) == 3
    assert plan.endpoints["generator"].main_port == 5000
    assert plan.graph.structurally_equal(parse_plan_xml(text).graph)


def test_pool_plan_roundtrip():
    text = emit_plan_xml(build_gpt(), workers=4)
    plan = parse_plan_xml(text)
    assert isinstance(plan, ParallelPlan)
    assert plan.pool_plan.pools == (PoolSpec("main", 4),)
    assert set(plan.pool_plan.assignment) == {"generator", "processor", "transducer"}


def test_same_model_switches_mode_with_attributes():
    pool_text = emit_plan_xml(build_gpt(), workers=2)
    dist_text = emit_plan_xml(build_gpt(), host="127.0.0.1")
    assert isinstance(parse_plan_xml(pool_text), ParallelPlan)
    assert isinstance(parse_plan_xml(dist_text), DistributedPlan)


def test_emit_parse_emit_is_byte_stable():
    for text in (emit_plan_xml(build_efp(), workers=3),
                 emit_plan_xml(build_efp(), host="10.0.0.1", base_port=7000)):
        parsed = parse_plan_xml(text)
        if isinstance(parsed, ParallelPlan):
            again = emit_pool_plan_xml(parsed.graph, parsed.pool_plan)
        else:
            again = emit_distributed_plan_xml(parsed)
        assert again == text


def test_emit_flattens_hierarchies():
    text = emit_plan_xml(build_efp(), workers=1)
    parsed = parse_plan_xml(text)
    assert parsed.graph.is_flat()
    assert parsed.graph.atomic_count() == 3


def test_ho_plan_lists_all_atomics():
    text = emit_plan_xml(generate(DevstoneConfig("HO", 15, 15)), workers=1)
    parsed = parse_plan_xml(text)
    assert parsed.graph.atomic_count() == 198  # 197 benchmark atomics + generator


def test_mixed_addressing_rejected():
    text = emit_plan_xml(build_gpt(), workers=2)
    hacked = text.replace(
        '<atomic name="generator" model="generator" delayInt="0.0" delayExt="0.0" pool="main" />',
        '<atomic name="generator" model="generator" delayInt="0.0" delayExt="0.0" '
        'host="127.0.0.1" mainPort="9001" />')
    with pytest.raises(PlanError, match="mixed addressing"):
        parse_plan_xml(hacked)


def test_missing_addressing_rejected():
    text = emit_plan_xml(build_gpt(), workers=2).replace(' pool="main"', "")
    with pytest.raises(PlanError, match="no addressing"):
        parse_plan_xml(text)


def test_connection_to_absent_atomic_rejected():
    text = emit_plan_xml(build_gpt(), workers=2).replace(
        'componentTo="processor"', 'componentTo="ghost"')
    with pytest.raises(PlanError, match="ghost"):
        parse_plan_xml(text)


def test_duplicate_pool_names_rejected():
    text = emit_plan_xml(build_gpt(), workers=2).replace(
        '<pool name="main" workers="2" />',
        '<pool name="main" workers="2" /><pool name="main" workers="3" />')
    with pytest.raises(PlanError, match="duplicate pool"):
        parse_plan_xml(text)


def test_undeclared_pool_rejected():
    text = emit_plan_xml(build_gpt(), workers=2).replace(
        '<atomic name="processor" model="processor" delayInt="1.0" delayExt="0.0" pool="main" />',
        '<atomic name="processor" model="processor" delayInt="1.0" delayExt="0.0" pool="L9" />')
    with pytest.raises(PlanError, match="L9"):
        parse_plan_xml(text)


def test_pool_plan_errors_name_the_culprit():
    """The parser and the emitter refuse a bad pool plan with the one-line
    errors of PoolSpec and PoolPlan, as PlanError."""
    text = emit_plan_xml(build_gpt(), workers=2)
    with pytest.raises(PlanError, match="^pool 'main' needs at least one worker$"):
        parse_plan_xml(text.replace(' workers="2"', ' workers="0"'))
    with pytest.raises(PlanError, match="^duplicate pool name 'main'$"):
        parse_plan_xml(text.replace('<pool name="main" workers="2" />',
                                    '<pool name="main" workers="2" /><pool name="main" />'))
    graph = build_gpt()
    with pytest.raises(PlanError, match="^pool plan misses atomic 'transducer'$"):
        emit_pool_plan_xml(graph, PoolPlan.single_pool(["generator", "processor"], 2))
    with pytest.raises(PlanError, match="^pool plan assigns unknown atomic 'ghost'$"):
        emit_pool_plan_xml(graph, PoolPlan.single_pool(
            ["generator", "processor", "transducer", "ghost"], 2))


def test_pool_without_workers_defaults_to_cpu_count(monkeypatch):
    import pdevsim.planfile
    monkeypatch.setattr(pdevsim.planfile, "default_workers", lambda: 7)
    text = emit_plan_xml(build_gpt(), workers=2).replace(' workers="2"', "")
    plan = parse_plan_xml(text)
    assert plan.pool_plan.pools[0].workers == 7


def test_malformed_xml_rejected():
    with pytest.raises(PlanError, match="well-formed"):
        parse_plan_xml("<coupled name='x'><atomic></coupled>")


def test_xml_text_with_stray_leading_bytes_is_refused_in_one_line(tmp_path):
    """A string that holds XML is parsed as XML, so stray bytes before its
    first tag end in a one-line PlanError, not in a missing file named by
    the whole document; paths, as strings or Paths, still read the file."""
    text = emit_plan_xml(build_gpt(), workers=2)
    path = tmp_path / "plan.xml"
    path.write_text(text, encoding="utf-8")
    for source in (text, str(path), path):
        assert isinstance(parse_plan_xml(source), ParallelPlan)
    for stray in ("x", "#", "\x00", "plan.xml\n"):
        with pytest.raises(PlanError, match="^not well-formed XML: [^\n]*$"):
            parse_plan_xml(stray + text)


def test_load_pool_plan_rejects_distributed_files(tmp_path):
    path = tmp_path / "dist.xml"
    path.write_text(emit_plan_xml(build_gpt(), host="127.0.0.1"), encoding="utf-8")
    with pytest.raises(PlanError, match="endpoint addressing"):
        load_pool_plan(path)
    pool_path = tmp_path / "pool.xml"
    pool_path.write_text(emit_plan_xml(build_gpt(), workers=5), encoding="utf-8")
    assert load_pool_plan(pool_path).pools[0].workers == 5


def test_delays_roundtrip_exactly():
    graph = generate(DevstoneConfig(
        "HO", 3, 3, __import__("pdevsim").DelayDistribution.uniform(1.0), seed=3))
    original = {spec.name: spec.delay_int for _, spec in graph.walk_atomics()}
    parsed = parse_plan_xml(emit_plan_xml(graph, workers=1))
    for _, spec in parsed.graph.walk_atomics():
        assert spec.delay_int == original[spec.name]


def test_open_pool_plan_roundtrips_its_boundary_ports():
    """A plan of an open coupled model, the EF of EFP, derives the root's
    boundary ports from the connections that touch it, runs like the graph
    under sequential and under one pool of two workers, and cannot be a
    distributed plan."""
    ef = build_efp().coupleds["ef"]
    parsed = parse_plan_xml(emit_plan_xml(ef, workers=2))
    assert (parsed.graph.input_ports, parsed.graph.output_ports) == (("in",), ("out",))
    assert parsed.pool_plan == PoolPlan((PoolSpec("main", 2),), {"generator": "main",
                                                                "transducer": "main"})
    reference = run_sequential(ef, trace=True)
    for report in (run_sequential(parsed.graph, trace=True),
                   run_parallel(parsed.graph, parsed.pool_plan, trace=True)):
        assert report.trace_text() == reference.trace_text()
        assert report.counter_triple() == reference.counter_triple()
    with pytest.raises(SimulationError, match="closed model"):
        default_endpoints(parsed.graph)


def test_default_endpoints_are_unique():
    """One port per atomic from the base port on: every atomic is a group
    of its own."""
    plan = default_endpoints(generate(DevstoneConfig("HO", 4, 4)), base_port=9000)
    ports = [e.main_port for e in plan.endpoints.values()]
    assert ports == list(range(9000, 9000 + len(plan.endpoints)))
    assert replace(plan) == plan  # made again, so checked again


def test_default_endpoints_cohost_contiguous_blocks():
    """Given a block count, each contiguous block of plan order takes one
    port from the base port on, never more blocks than atomics."""
    graph = generate(DevstoneConfig("HO", 4, 4))
    plan = default_endpoints(graph, base_port=9000, blocks=3)
    blocks = list(plan.groups().items())
    assert [endpoint.main_port for endpoint, _ in blocks] == [9000, 9001, 9002]
    assert [members for _, members in blocks] == contiguous_blocks(list(plan.endpoints), 3)
    assert [len(members) for _, members in blocks] == [3, 4, 4]
    assert replace(plan) == plan  # made again, so checked again
    assert len(default_endpoints(build_gpt(), blocks=10).groups()) == 3
    with pytest.raises(PlanError, match="at least one endpoint block"):
        default_endpoints(build_gpt(), blocks=0)


def test_shared_endpoints_roundtrip_as_cohosted_groups():
    from pdevsim import Endpoint
    plan = default_endpoints(build_gpt(), base_port=9000)
    plan = replace(plan, endpoints={**plan.endpoints, "processor": plan.endpoints["generator"]})
    text = emit_distributed_plan_xml(plan)
    parsed = parse_plan_xml(text)
    assert parsed.groups() == {Endpoint("127.0.0.1", 9000): ["generator", "processor"],
                               Endpoint("127.0.0.1", 9001): ["transducer"]}
    assert emit_distributed_plan_xml(parsed) == text


def test_root_endpoint_of_older_plans_is_ignored():
    """Older plans carry the coordinator's host/mainPort on the root
    element; they parse to the same endpoints as a plan without them, and
    emission no longer writes them."""
    text = emit_plan_xml(build_gpt(), host="127.0.0.1", base_port=9000)
    older = text.replace("<coupled ", '<coupled host="127.0.0.1" mainPort="8999" ', 1)
    assert older != text
    assert parse_plan_xml(older).endpoints == parse_plan_xml(text).endpoints
    assert emit_distributed_plan_xml(parse_plan_xml(older)) == text


@pytest.mark.parametrize("port", ["0", "70000", "x1"])
def test_bad_port_names_the_atomic(port):
    text = emit_plan_xml(build_gpt(), host="127.0.0.1", base_port=9000).replace(
        'mainPort="9000"', f'mainPort="{port}"')
    with pytest.raises(PlanError) as err:
        parse_plan_xml(text)
    message = str(err.value)
    assert "'generator'" in message and port in message and "\n" not in message


def test_empty_host_rejected():
    text = emit_plan_xml(build_gpt(), host="127.0.0.1", base_port=9000)
    hacked = text.replace('host="127.0.0.1" mainPort="9002"', 'host="" mainPort="9002"')
    assert hacked != text
    with pytest.raises(PlanError) as caught:
        parse_plan_xml(hacked)
    message = str(caught.value)
    assert "'processor'" in message and "empty host" in message and "\n" not in message


def test_emitting_a_plan_validates_each_graph_once(monkeypatch):
    """``emit_plan_xml`` walks the validation of each graph it handles at
    most once: the model, which it freezes, and the flat forms it makes."""
    from pdevsim import model
    walks = []
    walk = model._validate_levels

    def counting_walk(graph):
        walks.append(id(graph))
        return walk(graph)

    monkeypatch.setattr(model, "_validate_levels", counting_walk)
    graph = generate(DevstoneConfig("HO", 3, 3))
    text = emit_plan_xml(graph, host="127.0.0.1", workers=2)
    assert id(graph) in walks and graph.frozen
    assert len(walks) == len(set(walks)), walks
    assert text == emit_plan_xml(generate(DevstoneConfig("HO", 3, 3)), host="127.0.0.1",
                                 workers=2)


# Edits to a valid plan document: (position, characters deleted there, text inserted).
_XML_TEXT = st.sampled_from(["", "<", ">", "/>", '"', "'", "&", "&#10;", "&#0;", "&amp;", "=",
                             ' x="1"', "-1", "0", "nan", "inf", "1e999", "9" * 400,
                             "<atomic/>", "<pool/>", "<connection/>", "<!--", "]]>",
                             "pool", "host", "mainPort", "workers", "\x00", "é"]) | st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=3)
_XML_EDITS = st.lists(st.tuples(st.integers(0, 4000), st.integers(0, 8), _XML_TEXT),
                      min_size=1, max_size=4)
_PLANS = {"pool": emit_plan_xml(generate(DevstoneConfig("HO", 3, 3)), workers=2),
          "distributed": emit_plan_xml(generate(DevstoneConfig("HO", 3, 3)),
                                       host="127.0.0.1", workers=2)}


@pytest.mark.parametrize("mode", sorted(_PLANS))
@given(edits=_XML_EDITS)
@settings(max_examples=300)
def test_a_mutated_plan_parses_or_is_refused_in_one_line(mode, edits):
    text = _PLANS[mode]
    for position, deleted, inserted in edits:
        position %= len(text) + 1
        text = text[:position] + inserted + text[position + deleted:]
    try:
        parse_plan_xml(text)
    except PlanError as exc:
        message = str(exc)
        assert message and "\n" not in message and "\r" not in message, message
