"""DEVStone benchmark for pdevsim's sequential, pool and distributed backends.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload ho-cpu --seed 1 --seconds 45 --trace 0

It imports pdevsim from ``src/`` of the checkout, gates every run on the
HO closed forms and on the sequential trace, measures for ``--seconds``,
and prints one line per metric followed, as its last line, by one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, timed without spans;
with ``--trace 1`` they are the per-layer ones, from span-traced runs
interleaved with untraced ones. Any failed run makes the exit code 1.
Spans of a traced run are written to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WATCHDOG_S = 170  # the whole command ends within 180 s

# ho-zero (HO(40,20), zero delay) runs here but is not in BENCHMARK.json:
# its interpreter-bound wall times spread 12-26% (quartiles over ten seeds)
# on a shared 2-vCPU host, at times above 0.25, the largest bound allowed.
WORKLOAD_NAMES = ("ho-zero", "ho-cpu", "ho-dist")

# (name, unit) in output order.
END_TO_END = (("seq_wall_s", "s"), ("backend_wall_s", "s"), ("setup_s", "s"))
PER_LAYER = (
    ("devstone.generate_s", "s"), ("devstone.busy_overshoot_us", "us"),
    ("devstone.ideal_cpu_s", "s"),
    ("model.flatten_s", "s"), ("model.validate_s", "s"),
    ("kernel.setup_s", "s"), ("kernel.time_advance_s", "s"), ("kernel.lambda_s", "s"),
    ("kernel.delta_s", "s"), ("kernel.cycles", "count"), ("kernel.transitions", "count"),
    ("kernel.events", "count"), ("kernel.active_fraction", "ratio"),
    ("kernel.us_per_transition", "us"), ("kernel.ms_per_cycle", "ms"),
    ("parallel.setup_s", "s"), ("parallel.lambda_s", "s"), ("parallel.delta_s", "s"),
    ("parallel.us_per_transition", "us"), ("parallel.speedup", "x"),
    ("parallel.efficiency", "ratio"), ("parallel.bound_s", "s"),
    ("parallel.bound_ratio", "ratio"), ("parallel.cpu_util", "ratio"),
    ("distributed.ms_per_cycle", "ms"), ("distributed.frames_per_cycle", "count"),
    ("distributed.frames.INIT", "count"), ("distributed.frames.GET_TN", "count"),
    ("distributed.frames.CLOCK", "count"), ("distributed.frames.LAMBDA", "count"),
    ("distributed.frames.DELTFCN", "count"), ("distributed.frames.EXIT", "count"),
    ("wire.encode_us", "us"), ("wire.decode_us", "us"), ("wire.frame_bytes", "B"),
    ("wire.rtt_us", "us"),
    ("planfile.emit_s", "s"), ("planfile.parse_s", "s"),
    ("bench.processes", "count"), ("bench.spawn_s_per_process", "s"),
    ("trace.overhead", "ratio"),
)
FRAME_COMMANDS = ("INIT", "GET_TN", "CLOCK", "LAMBDA", "DELTFCN", "EXIT")


class Watchdog(BaseException):
    """The run outlived WATCHDOG_S. A BaseException, so that no run's
    failure handler swallows it; ``finally`` blocks still stop children."""


def _expire(signum, frame) -> None:
    raise Watchdog(f"perfbench: run exceeded {WATCHDOG_S} s")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="HO(3,3) sizes, for the self-check")
    return parser.parse_args(argv)


def bootstrap() -> None:
    """Import pdevsim from this checkout's ``src`` and keep every file the
    run writes, service processes included, inside the checkout."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(src) + (os.pathsep + inherited if inherited else "")
    try:
        import pdevsim
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import pdevsim from {src}: {exc}")
    if Path(pdevsim.__file__).resolve().parent != (src / "pdevsim").resolve():
        sys.exit(f"perfbench: pdevsim came from {pdevsim.__file__}, not from {src}")
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap()
    signal.signal(signal.SIGALRM, _expire)
    signal.alarm(WATCHDOG_S)

    import probes
    import workload as wl
    from spans import SpanRecorder

    spec = wl.WORKLOADS[args.workload]
    if args.tiny:
        spec = spec.tiny()
    host = probes.host_info(ROOT, wl.POOL_WORKERS)
    before = probes.Snapshot.take()
    tally = wl.Tally()
    rec = SpanRecorder()
    result = wl.measure(spec, args.seed, args.seconds, bool(args.trace), tally, rec)
    e2e, layer = {}, {}
    if not tally.failed:
        e2e = {"seq_wall_s": result.samples.total("seq_wall_s"),
               "backend_wall_s": result.samples.total(wl.backend_key(spec)),
               "setup_s": result.setup_s()}
        if args.trace:
            layer = layer_metrics(result, host["lanes"], tally)
    leftovers = probes.Snapshot.settled(before)
    if leftovers:
        tally.fail("leftover check", "left behind " + ", ".join(leftovers))
    if args.trace:
        rec.write(OUT / f"spans-{spec.name}-seed{args.seed}.json")

    report(spec, args, host, result, e2e, layer, tally)
    chosen = PER_LAYER if args.trace else END_TO_END
    values = layer if args.trace else e2e
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in chosen if name in values}
    correct = tally.failed == 0 and len(metrics) == len(chosen)
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def layer_metrics(result, lanes: int, tally) -> dict[str, float]:
    """Per-layer numbers: span self times from the traced runs, counts
    from the gate, ratios over the untraced figures, and the probes."""
    import probes
    import workload as wl

    spec = result.workload
    samples = result.samples
    seq, pool = samples.total("seq_wall_s"), samples.total("pool_wall_s")
    expected = spec.expected()
    transitions = expected.delta_int + expected.delta_ext
    cycles = result.oracle_cycles
    runs = spec.graphs  # simulations per figure and backend

    ideal, bound = result.cpu_bound(lanes)
    m = {
        "devstone.generate_s": samples.total("self:devstone.generate"),
        "devstone.busy_overshoot_us": probes.busy_overshoot_us(),
        "devstone.ideal_cpu_s": ideal,
        "model.flatten_s": samples.total("self:model.flatten"),
        "model.validate_s": samples.total("self:model.validate"),
    }
    for layer, phases in (("kernel", ("setup", "time_advance", "lambda", "delta")),
                          ("parallel", ("setup", "lambda", "delta"))):
        for phase in phases:
            m[f"{layer}.{phase}_s"] = samples.total(f"self:{layer}.{phase}")
    m.update({
        "kernel.cycles": cycles,
        "kernel.transitions": transitions,
        "kernel.events": expected.events,
        "kernel.active_fraction": result.schedule.active_fraction(),
        "kernel.us_per_transition": seq / (runs * transitions) * 1e6,
        "kernel.ms_per_cycle": seq / (runs * cycles) * 1e3,
        "parallel.us_per_transition": pool / (runs * transitions) * 1e6,
        "parallel.speedup": seq / pool,
        "parallel.efficiency": seq / pool / lanes,
        "parallel.bound_s": bound,
        "parallel.bound_ratio": bound / pool,
        "parallel.cpu_util": samples.total("pool_cpu_s") / (pool * lanes),
    })
    traced = samples.total("span:kernel.simulate") + samples.total("span:parallel.simulate")
    m["trace.overhead"] = traced / (seq + pool) - 1.0
    frames = result.dist_report.diagnostics["frames_sent"] if result.dist_report else {}
    m["distributed.ms_per_cycle"] = (
        samples.total("dist_wall_s") / (runs * cycles) * 1e3 if frames else 0.0)
    m["distributed.frames_per_cycle"] = sum(frames.values()) / cycles if frames else 0.0
    for command in FRAME_COMMANDS:
        m[f"distributed.frames.{command}"] = frames.get(command, 0)
    processes = samples.total("processes") if spec.distributed else 0
    m["bench.processes"] = processes
    m["bench.spawn_s_per_process"] = (
        samples.total("dist_setup_s") / processes if processes else 0.0)
    m.update(tally.attempt("wire probe", probes.wire_probe) or {})
    m.update(tally.attempt("planfile probe", lambda: probes.planfile_probe(
        wl.generate(spec.configs(result.seed)[0]))) or {})
    return m


def report(spec, args, host, result, e2e, layer, tally) -> None:
    """Human-readable lines; the issue's per-backend names are printed
    beside the benchmark's own."""
    import workload as wl

    print(f"workload {spec.name}: {spec.label()}, seed {args.seed}, "
          f"trace {args.trace}, backends sequential, pool 1x{wl.POOL_WORKERS}"
          + (", distributed-local" if spec.distributed else ""))
    print("host " + json.dumps(host))
    backend = wl.backend_key(spec)
    counted = {"seq_wall_s": "seq_wall_s", "backend_wall_s": backend, "setup_s": "generate_s"}
    for name, unit in END_TO_END:
        if name in e2e:
            shown = f"{name} ({backend})" if name == "backend_wall_s" else name
            print(f"  {shown:<34} {e2e[name]:12.6g} {unit:<5} per-graph medians of "
                  f"{result.samples.count(counted[name])} samples")
    rate = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"  {'error_rate':<34} {rate:12.6g} ratio {tally.failed} of "
          f"{tally.attempted} runs failed")
    for name, unit in PER_LAYER:
        if name in layer:
            print(f"  {name:<34} {layer[name]:12.6g} {unit}")
    for error in tally.errors:
        print(f"FAILED {error}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
