"""Command-line harness.

Verbs mirror the experiment pipeline: generate a benchmark plan, profile
it, compute an allocation, run a backend, fold results into speedups, emit
a deployment manifest, or act as one distributed simulation entity (serve /
coordinate). Every failure exits nonzero with a one-line diagnostic.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _parse_plan(path: str):
    from .planfile import parse_plan_xml
    return parse_plan_xml(Path(path))


def _distributed_plan(path: str, verb: str):
    from .distributed import DistributedPlan
    parsed = _parse_plan(path)
    if not isinstance(parsed, DistributedPlan):
        raise ValueError(f"{verb} needs an endpoint-addressed plan")
    return parsed


def cmd_generate(args) -> int:
    from .devstone import DelayDistribution, DevstoneConfig, generate
    from .planfile import emit_plan_xml
    if args.distribution == "constant":
        dist = DelayDistribution.constant(args.delay_parameter)
    elif args.distribution == "uniform":
        dist = DelayDistribution.uniform(args.delay_parameter)
    else:
        dist = DelayDistribution.chi_square()
    config = DevstoneConfig(args.shape, args.width, args.depth, dist, args.seed)
    graph = generate(config)
    if args.addressing == "distributed":
        text = emit_plan_xml(graph, host=args.host, base_port=args.base_port,
                             workers=args.workers)
    else:
        text = emit_plan_xml(graph, workers=args.workers)
    _emit(text, args.out)
    return 0


def cmd_profile(args) -> int:
    from .bench import profile_model, profiles_to_csv
    parsed = _parse_plan(args.plan)
    profiles = profile_model(parsed.graph, runs=args.runs,
                             max_iterations=args.iterations)
    _emit(profiles_to_csv(profiles), args.out)
    return 0


def cmd_allocate(args) -> int:
    from .bench import (allocate_two_level, balanced_pool_plan,
                        profiles_from_csv, two_level_pool_plan)
    from .planfile import emit_pool_plan_xml
    parsed = _parse_plan(args.plan)
    profiles = profiles_from_csv(Path(args.profile).read_text(encoding="utf-8"))
    if args.mode == "two-level":
        alloc = allocate_two_level(profiles, parsed.graph,
                                   fraction=args.fraction, n=args.n, m=args.m)
        plan = two_level_pool_plan(alloc)
        summary = (f"L1: {len(alloc.l1)} atomics on {alloc.l1_resources} resources; "
                   f"L2: {len(alloc.l2)} atomics on {alloc.l2_resources} resources")
    else:
        plan = balanced_pool_plan(profiles, args.m)
        summary = f"balanced: {len(plan.assignment)} atomics on {args.m} resources"
    print(summary, file=sys.stderr)
    _emit(emit_pool_plan_xml(parsed.graph, plan), args.out)
    return 0


def _finish_run(args, report) -> int:
    from .bench import append_report_row
    from .kernel import RunReport
    if args.out:
        append_report_row(args.out, report)
    else:
        print(RunReport.CSV_HEADER)
        print(report.csv_row())
    if getattr(args, "trace_out", None):
        Path(args.trace_out).write_text(report.trace_text(), encoding="utf-8")
    return 0


def cmd_run(args) -> int:
    from .bench import run_plan
    parsed = _parse_plan(args.plan)
    report = run_plan(parsed, args.backend, iterations=args.iterations,
                      trace=bool(args.trace_out))
    return _finish_run(args, report)


def cmd_report(args) -> int:
    from .bench import plot_data_csv, read_report_rows, speedup_rows, speedups_to_csv
    rows = speedup_rows(read_report_rows(args.rows))
    _emit(speedups_to_csv(rows), args.out)
    if args.plot_out:
        Path(args.plot_out).write_text(plot_data_csv(rows), encoding="utf-8")
    return 0


def cmd_emit_manifest(args) -> int:
    from .manifest import emit_orchestration_manifest, group_by_atomic, group_by_host
    parsed = _distributed_plan(args.plan, "emit-manifest")
    if args.groups == "host":
        grouping = group_by_host(parsed)
    elif args.groups == "atomic":
        grouping = group_by_atomic(parsed)
    else:
        from .planfile import load_pool_plan
        grouping = dict(load_pool_plan(Path(args.groups)).assignment)
    text = emit_orchestration_manifest(parsed, grouping, image=args.image,
                                       plan_path=args.plan_path)
    _emit(text, args.out)
    return 0


def cmd_serve(args) -> int:
    from .distributed import serve, serve_simulators
    parsed = _distributed_plan(args.plan, "serve")
    return serve(serve_simulators(parsed, args.atomic), lambda: print("ready", flush=True))


def cmd_coordinate(args) -> int:
    from .distributed import run_coordinator
    parsed = _distributed_plan(args.plan, "coordinate")
    report = run_coordinator(parsed, args.iterations, trace=bool(args.trace_out))
    return _finish_run(args, report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdevsim",
        description="Parallel/distributed discrete-event simulation harness")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit a benchmark plan XML")
    gen.add_argument("--shape", choices=("LI", "HI", "HO"), default="HO")
    gen.add_argument("-w", "--width", type=int, required=True)
    gen.add_argument("-d", "--depth", type=int, required=True)
    gen.add_argument("--distribution", choices=("constant", "uniform", "chi_square"),
                     default="constant")
    gen.add_argument("-k", "--delay-parameter", type=float, default=0.0,
                     help="seconds; constant value or uniform upper bound")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--addressing", choices=("pool", "distributed"), default="pool")
    gen.add_argument("--workers", type=int, default=None,
                     help="pool workers (default: one per CPU); with --addressing "
                          "distributed, co-host the atomics in this many contiguous "
                          "blocks, one port each (default: one port per atomic)")
    gen.add_argument("--host", default="127.0.0.1")
    gen.add_argument("--base-port", type=int, default=5000)
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=cmd_generate)

    prof = sub.add_parser("profile", help="per-atomic CPU profile (CSV)")
    prof.add_argument("--plan", required=True)
    prof.add_argument("--runs", type=int, default=1)
    prof.add_argument("--iterations", type=int, default=None)
    prof.add_argument("--out", default=None)
    prof.set_defaults(func=cmd_profile)

    alloc = sub.add_parser("allocate", help="compute an allocation, emit annotated plan")
    alloc.add_argument("--plan", required=True)
    alloc.add_argument("--profile", required=True, help="profile CSV from 'profile'")
    alloc.add_argument("--mode", choices=("two-level", "balanced"), default="two-level")
    alloc.add_argument("--fraction", type=float, default=0.25)
    alloc.add_argument("-n", type=int, default=1, help="L1 resources")
    alloc.add_argument("-m", type=int, default=1, help="L2 (or balanced) resources")
    alloc.add_argument("--out", default=None)
    alloc.set_defaults(func=cmd_allocate)

    run = sub.add_parser("run", help="run a plan under one backend")
    run.add_argument("--plan", required=True)
    run.add_argument("--backend", choices=("sequential", "parallel", "distributed-local"),
                     required=True)
    run.add_argument("--iterations", type=int, default=None)
    run.add_argument("--out", default=None, help="append the result row to this CSV")
    run.add_argument("--trace-out", default=None, help="write the event trace here")
    run.set_defaults(func=cmd_run)

    rep = sub.add_parser("report", help="fold result rows into speedups")
    rep.add_argument("--rows", required=True)
    rep.add_argument("--out", default=None)
    rep.add_argument("--plot-out", default=None)
    rep.set_defaults(func=cmd_report)

    man = sub.add_parser("emit-manifest", help="pod manifest from a distributed plan")
    man.add_argument("--plan", required=True)
    man.add_argument("--groups", default="host",
                     help="'host', 'atomic', or a pool-addressed plan XML")
    man.add_argument("--image", default="pdevsim:latest")
    man.add_argument("--plan-path", default="/etc/pdevsim/plan.xml",
                     help="where the plan is mounted inside the containers")
    man.add_argument("--out", default=None)
    man.set_defaults(func=cmd_emit_manifest)

    srv = sub.add_parser("serve", help="host atomics as simulator services "
                         "in this process")
    srv.add_argument("--plan", required=True)
    srv.add_argument("--atomic", required=True, action="append",
                     help="atomic to host; repeat to host several, and name "
                          "every atomic of each endpoint")
    srv.set_defaults(func=cmd_serve)

    coord = sub.add_parser("coordinate", help="drive a distributed simulation")
    coord.add_argument("--plan", required=True)
    coord.add_argument("--iterations", type=int, default=None)
    coord.add_argument("--out", default=None)
    coord.add_argument("--trace-out", default=None)
    coord.set_defaults(func=cmd_coordinate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return guarded(args.func, args)


def guarded(func, *args) -> int:
    """``func(*args)``, with any failure reported as one ``error:`` line on
    stderr and exit code 1 (130 when interrupted)."""
    try:
        return func(*args)
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
