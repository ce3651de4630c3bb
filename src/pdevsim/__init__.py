"""Parallel DEVS simulation engine.

One immutable model runs unchanged under three coordinators: sequential
(the reference semantics), worker-pool parallel, and socket-distributed.
The package also ships the synthetic benchmark family used to validate and
measure all three, plus plan-file and deployment-manifest tooling.
"""

from .behaviors import (AtomicModel, Counters, atomic_spec, behavior_ports,
                        build_efp, build_gpt, create_behavior,
                        register_behavior)
from .devstone import (DelayDistribution, DevstoneConfig, ExpectedCounts,
                       busy_cpu, delay_map, expected_counts, generate,
                       sample_delays)
from .distributed import (DistributedCoordinator, DistributedPlan, Endpoint,
                          ServiceGroup, Timeouts, run_coordinator,
                          serve_simulators)
from .kernel import (RunReport, SequentialCoordinator, SimulationClock,
                     SimulationError, Simulator, TraceEntry, trace_text)
from .model import (EIC, EOC, IC, AtomicSpec, Coupling, EventValue,
                    ModelError, ModelGraph, PortRef, Violation,
                    check_event_value, flatten, validate)
from .parallel import ParallelCoordinator, PoolPlan, PoolSpec
from .planfile import (ParallelPlan, PlanError, default_endpoints,
                       emit_distributed_plan_xml, emit_plan_xml,
                       emit_pool_plan_xml, load_pool_plan, parse_plan_xml)
from .wire import ProtocolError, WireFrame, decode_frame, encode_frame

__version__ = "0.1.0"

__all__ = [
    "AtomicModel", "AtomicSpec", "Counters", "Coupling", "DelayDistribution",
    "DevstoneConfig", "DistributedCoordinator", "DistributedPlan", "EIC",
    "EOC", "Endpoint", "EventValue", "ExpectedCounts", "IC", "ModelError",
    "ModelGraph", "ParallelCoordinator", "ParallelPlan", "PlanError",
    "PoolPlan", "PoolSpec", "PortRef", "ProtocolError",
    "RunReport", "SequentialCoordinator", "ServiceGroup", "SimulationClock",
    "SimulationError", "Simulator", "Timeouts",
    "TraceEntry", "Violation", "WireFrame", "atomic_spec", "behavior_ports",
    "build_efp", "build_gpt", "busy_cpu", "check_event_value",
    "create_behavior", "decode_frame", "default_endpoints", "delay_map",
    "emit_distributed_plan_xml", "emit_plan_xml", "emit_pool_plan_xml",
    "encode_frame", "expected_counts", "flatten", "generate",
    "load_pool_plan", "parse_plan_xml", "register_behavior",
    "run_coordinator", "sample_delays", "serve_simulators",
    "trace_text", "validate",
]
