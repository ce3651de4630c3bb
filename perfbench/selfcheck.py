"""Tiny-size self-check of the benchmark. It gates on no timing.

    python3 perfbench/selfcheck.py

It runs every workload of run.py at HO(3,3) in both trace modes
and checks the last output line against the contract: its keys, every
metric name and unit, and numeric values. It then feeds the correctness
gate, the leftover check and the span recorder inputs they must reject or
account for, and checks that they do. Exit code 0 means every check held.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_output(workload: str, trace: int, wanted: dict[str, str]) -> list[str]:
    """Problems with one tiny run's result line; empty when it conforms."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr.strip()[-400:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    attempted = result.get("attempted")
    if not isinstance(attempted, int) or attempted < 1:
        problems.append(f"attempted={attempted!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(wanted):
        problems.append(f"metric names differ: missing {sorted(set(wanted) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(wanted))}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if set(entry) != {"value", "unit"} or entry.get("unit") != wanted.get(name):
            problems.append(f"{name}: entry {entry}, BENCHMARK.json unit {wanted.get(name)}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
    return problems


def expect_raise(label: str, call, error: type) -> list[str]:
    try:
        call()
    except error:
        return []
    return [f"{label}: accepted"]


def gate_problems() -> list[str]:
    """The gate, the leftover check, the tally and the span recorder, each
    given input it must catch."""
    import probes
    import workload as wl
    from pdevsim import RunReport
    from spans import Span, SpanRecorder

    problems: list[str] = []
    expected = wl.WORKLOADS["ho-zero"].tiny().expected()
    good = (expected.delta_int, expected.delta_ext, expected.events)
    gate = wl.Gate(expected, cycles=3)
    gate.check("good", good, 3, 0.0)
    problems += expect_raise("wrong counters",
                             lambda: gate.check("x", (good[0] + 1,) + good[1:], 3, 0.0),
                             wl.GateError)
    problems += expect_raise("wrong cycle count", lambda: gate.check("x", good, 4, 0.0),
                             wl.GateError)
    problems += expect_raise("time bound broken",
                             lambda: gate.check("x", good, 3, wl.TIME_LIMIT_S + 1.0),
                             wl.GateError)

    def dist_report(frames) -> RunReport:
        return RunReport("m", "distributed-local", "6", 3, 0.1, *good,
                         diagnostics={} if frames is None else {"frames_sent": frames})

    gate.check_report(dist_report({"INIT": 6}), 0.1)
    problems += expect_raise("relayed PROPAGATE", lambda: gate.check_report(
        dist_report({"INIT": 6, "PROPAGATE": 1}), 0.1), wl.GateError)
    problems += expect_raise("no frame histogram",
                             lambda: gate.check_report(dist_report(None), 0.1), wl.GateError)
    oracle = "a|1\nb|2\n"
    problems += expect_raise("changed trace line",
                             lambda: wl.check_trace("x", "a|1\nb|3\n", oracle), wl.GateError)
    problems += expect_raise("missing trace line",
                             lambda: wl.check_trace("x", "a|1\n", oracle), wl.GateError)

    tally = wl.Tally()
    tally.attempt("raises", lambda: 1 / 0)
    if (tally.attempted, tally.failed) != (1, 1):
        problems.append(f"tally counted {tally.attempted} attempted, {tally.failed} failed")

    before = probes.Snapshot.take()
    release = threading.Event()
    straggler = threading.Thread(target=release.wait)
    straggler.start()
    if not probes.Snapshot.take().leftovers(before):
        problems.append("leftover check missed a live thread")
    release.set()
    straggler.join(timeout=5.0)
    if probes.Snapshot.settled(before):
        problems.append("leftover check flags a joined thread")

    rec = SpanRecorder()
    rec.spans = [Span(0, "root", 0.0, 10.0, None, 1), Span(1, "child", 1.0, 4.0, 0, 1),
                 Span(2, "child", 5.0, 6.0, 0, 1), Span(3, "other", 0.0, 2.0, None, 2)]
    if rec.self_times(1) != {"root": 6.0, "child": 4.0}:
        problems.append(f"span self times {rec.self_times(1)}")
    return problems


def main() -> int:
    sys.path.insert(0, str(HERE))
    import run

    run.bootstrap()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = 0
    for trace, key, table in ((0, "end_to_end", run.END_TO_END), (1, "per_layer", run.PER_LAYER)):
        wanted = {m["name"]: m["unit"] for m in bench[key]}
        if wanted != dict(table):
            print(f"FAIL {key}: run.py and BENCHMARK.json name different metrics or units")
            failures += 1
        for workload in run.WORKLOAD_NAMES:
            problems = check_output(workload, trace, wanted)
            print(("FAIL" if problems else "PASS") + f" {workload} --trace {trace}")
            for problem in problems:
                print(f"    {problem}")
            failures += bool(problems)
    problems = gate_problems()
    print(("FAIL" if problems else "PASS") + " correctness gate, leftover check, spans")
    for problem in problems:
        print(f"    {problem}")
    failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
