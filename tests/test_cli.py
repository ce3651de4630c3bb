"""Command-line harness: verbs, exit codes, and the end-to-end pipeline."""

import socket
import subprocess
import sys
import threading
import time

import pytest
import yaml

from pdevsim.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_writes_plan_to_stdout(capsys):
    code, out, err = run_cli(["generate", "-w", "3", "-d", "3"], capsys)
    assert code == 0
    assert "<coupled" in out and 'model="devstone"' in out


def test_generate_distributed_mode(capsys):
    code, out, _ = run_cli(["generate", "-w", "3", "-d", "2",
                            "--addressing", "distributed",
                            "--base-port", "6100"], capsys)
    assert code == 0 and 'mainPort="6100"' in out


def test_generate_distributed_workers_cohost_blocks(tmp_path, capsys):
    """--workers with distributed addressing co-hosts that many contiguous
    blocks, and distributed-local runs such a plan to the sequential trace."""
    from pdevsim.planfile import parse_plan_xml
    plan = tmp_path / "plan.xml"
    code, _, _ = run_cli(["generate", "-w", "3", "-d", "3", "--addressing", "distributed",
                          "--workers", "2", "--base-port", "6300", "--out", str(plan)],
                         capsys)
    assert code == 0
    groups = parse_plan_xml(plan).groups()
    assert [endpoint.main_port for endpoint in groups] == [6300, 6301]
    assert [len(members) for members in groups.values()] == [3, 3]
    traces = {}
    for backend in ("sequential", "distributed-local"):
        traces[backend] = tmp_path / f"{backend}.txt"
        code, _, err = run_cli(["run", "--plan", str(plan), "--backend", backend,
                                "--trace-out", str(traces[backend])], capsys)
        assert code == 0, err
    assert traces["distributed-local"].read_text() == traces["sequential"].read_text()


def test_failures_exit_nonzero_with_one_line(capsys):
    code, out, err = run_cli(["run", "--plan", "/does/not/exist.xml",
                              "--backend", "sequential"], capsys)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


def test_backend_plan_mismatch_is_diagnosed(tmp_path, capsys):
    plan = tmp_path / "plan.xml"
    code, out, err = run_cli(["generate", "-w", "3", "-d", "2",
                              "--out", str(plan)], capsys)
    assert code == 0
    code, out, err = run_cli(["run", "--plan", str(plan),
                              "--backend", "distributed-local"], capsys)
    assert code == 1 and "endpoint-addressed" in err


def test_pipeline_generate_profile_allocate_run_report(tmp_path, capsys):
    """The full pipeline closes without manual file edits."""
    plan = tmp_path / "plan.xml"
    profile = tmp_path / "profile.csv"
    allocated = tmp_path / "allocated.xml"
    rows = tmp_path / "rows.csv"
    speedups = tmp_path / "speedups.csv"
    plot = tmp_path / "plot.csv"

    assert main(["generate", "-w", "4", "-d", "4", "--distribution", "constant",
                 "-k", "0.001", "--seed", "3", "--out", str(plan)]) == 0
    assert main(["profile", "--plan", str(plan), "--out", str(profile)]) == 0
    assert main(["allocate", "--plan", str(plan), "--profile", str(profile),
                 "--fraction", "0.25", "-n", "2", "-m", "2",
                 "--out", str(allocated)]) == 0
    assert main(["run", "--plan", str(plan), "--backend", "sequential",
                 "--out", str(rows)]) == 0
    assert main(["run", "--plan", str(allocated), "--backend", "parallel",
                 "--out", str(rows)]) == 0
    assert main(["report", "--rows", str(rows), "--out", str(speedups),
                 "--plot-out", str(plot)]) == 0
    capsys.readouterr()
    text = speedups.read_text()
    assert text.splitlines()[0] == "model,group,label,wall_seconds,speedup"
    assert "parallel-2pool" in text
    assert plot.read_text().count("\n") >= 2


def test_non_numeric_csv_fields_end_in_one_line(tmp_path, capsys):
    """A profile given to ``allocate``, or a results file given to ``report``,
    whose number field reads ``abc`` ends the command in one error line that
    names the CSV, the line and the column."""
    from pdevsim.kernel import RunReport
    plan = tmp_path / "plan.xml"
    profile = tmp_path / "profile.csv"
    rows = tmp_path / "rows.csv"
    assert main(["generate", "-w", "3", "-d", "2", "--out", str(plan)]) == 0
    profile.write_text("atomic,cpu_seconds_ext,cpu_seconds_int,cpu_seconds_total\n"
                       "generator,0.0,abc,0.0\n", encoding="utf-8")
    code, _, err = run_cli(["allocate", "--plan", str(plan), "--profile", str(profile),
                            "--mode", "balanced", "-m", "2"], capsys)
    assert (code, err) == (
        1, "error: profile CSV line 2 column cpu_seconds_int is not a number: 'abc'\n")
    rows.write_text(f"{RunReport.CSV_HEADER}\nm,sequential,1,3,0.5,7,7,7\n"
                    "m,parallel,2,3,abc,7,7,7\n", encoding="utf-8")
    code, _, err = run_cli(["report", "--rows", str(rows)], capsys)
    assert (code, err) == (
        1, f"error: results file {rows} line 3 column wall_seconds is not a number: 'abc'\n")


def test_balanced_allocation_mode(tmp_path, capsys):
    plan = tmp_path / "plan.xml"
    profile = tmp_path / "profile.csv"
    main(["generate", "-w", "3", "-d", "3", "--out", str(plan)])
    main(["profile", "--plan", str(plan), "--out", str(profile)])
    code, out, err = run_cli(["allocate", "--plan", str(plan),
                              "--profile", str(profile),
                              "--mode", "balanced", "-m", "3"], capsys)
    assert code == 0
    assert 'workers="3"' in out
    assert "balanced" in err


def test_emit_manifest_verb(tmp_path, capsys):
    plan = tmp_path / "plan.xml"
    main(["generate", "-w", "3", "-d", "2", "--addressing", "distributed",
          "--base-port", "6200", "--out", str(plan)])
    code, out, _ = run_cli(["emit-manifest", "--plan", str(plan),
                            "--groups", "atomic"], capsys)
    assert code == 0
    documents = list(yaml.safe_load_all(out))
    assert len(documents) == 4 + 1  # 3 chain atomics + generator + coordinator


def _wait_listening(endpoint):
    deadline = time.monotonic() + 10.0
    while True:
        try:
            socket.create_connection(endpoint.main_addr(), timeout=1.0).close()
            return
        except OSError:
            assert time.monotonic() < deadline, f"{endpoint} never listened"
            time.sleep(0.05)


def _gpt_plan_file(tmp_path):
    """The gpt model with generator and processor co-hosted at one
    endpoint and transducer at another."""
    from pdevsim import build_gpt, emit_distributed_plan_xml

    from conftest import grouped_plan
    plan = grouped_plan(build_gpt(), [["generator", "processor"], ["transducer"]])
    path = tmp_path / "plan.xml"
    path.write_text(emit_distributed_plan_xml(plan), encoding="utf-8")
    return plan, path


def test_serve_hosts_every_repeated_atomic(tmp_path, capsys):
    from pdevsim.wire import ACK, EXIT, INIT, WireFrame, read_frame, write_frame
    plan, path = _gpt_plan_file(tmp_path)
    codes = []
    server = threading.Thread(target=lambda: codes.append(main(
        ["serve", "--plan", str(path), "--atomic", "generator", "--atomic", "processor"])),
        daemon=True)
    server.start()
    try:
        for name in ("generator", "processor"):
            _wait_listening(plan.endpoints[name])
        # One connection to the shared endpoint drives the whole group.
        with socket.create_connection(plan.endpoints["processor"].main_addr(),
                                      timeout=1.0) as sock:
            sock.settimeout(10.0)
            write_frame(sock, WireFrame(INIT, values=(0,)))
            reply = read_frame(sock)
            assert reply.command == ACK
            # The hosted atomics, then the group's tN and its senders: the
            # generator, imminent at 0, feeds the transducer's group.
            assert reply.values == (["generator", "processor"], 0.0, "generator")
            write_frame(sock, WireFrame(EXIT))
            reply = read_frame(sock)
            assert reply.command == ACK
            assert [name for name, _ in reply.values[-1]] == ["generator", "processor"]
    finally:
        server.join(timeout=10.0)
    assert not server.is_alive()
    assert codes == [0]
    assert capsys.readouterr().out == "ready\n"
    with pytest.raises(OSError):  # transducer was not hosted
        socket.create_connection(plan.endpoints["transducer"].main_addr(), timeout=1.0)


def test_serve_starts_one_group_per_endpoint(tmp_path, capsys):
    from pdevsim import build_gpt, run_coordinator
    from pdevsim.bench import run_sequential
    plan, path = _gpt_plan_file(tmp_path)
    codes = []
    server = threading.Thread(target=lambda: codes.append(main(
        ["serve", "--plan", str(path), "--atomic", "transducer", "--atomic", "generator",
         "--atomic", "processor"])), daemon=True)
    server.start()
    try:
        for endpoint in plan.groups():
            _wait_listening(endpoint)
        report = run_coordinator(plan, trace=True)
    finally:
        server.join(timeout=10.0)
    assert not server.is_alive() and codes == [0]
    assert capsys.readouterr().out == "ready\n"
    assert report.diagnostics["frames_sent"]["INIT"] == 2
    assert report.trace_text() == run_sequential(build_gpt(), trace=True).trace_text()


def test_coordinate_drives_the_groups_that_serve_starts(tmp_path, capsys):
    """``coordinate`` drives a two-group plan that two ``serve`` calls host,
    appends one distributed row and writes the sequential trace."""
    from pdevsim import build_gpt
    from pdevsim.bench import read_report_rows, run_sequential
    plan, path = _gpt_plan_file(tmp_path)
    codes = []
    servers = [threading.Thread(target=lambda names=names: codes.append(main(
        ["serve", "--plan", str(path)] + [f"--atomic={name}" for name in names])), daemon=True)
        for names in plan.groups().values()]
    for server in servers:
        server.start()
    rows, trace = tmp_path / "rows.csv", tmp_path / "t.txt"
    try:
        for endpoint in plan.groups():
            _wait_listening(endpoint)
        code = main(["coordinate", "--plan", str(path), "--out", str(rows),
                     "--trace-out", str(trace)])
    finally:
        for server in servers:
            server.join(timeout=10.0)
    assert code == 0 and codes == [0, 0]
    assert not any(server.is_alive() for server in servers)
    assert capsys.readouterr().out == "ready\nready\n"
    [row] = read_report_rows(rows)
    assert (row["backend"], row["workers/pools"]) == ("distributed", "2")
    assert trace.read_text() == run_sequential(build_gpt(), trace=True).trace_text()


def test_emit_manifest_groups_by_host_or_by_pool_plan(tmp_path, capsys):
    """``--groups host`` puts every atomic of the one host in one pod, and
    ``--groups`` with a pool-addressed plan makes a pod of each pool."""
    import shlex

    from pdevsim import PoolPlan, PoolSpec, emit_pool_plan_xml, parse_plan_xml
    plan = tmp_path / "plan.xml"
    main(["generate", "-w", "3", "-d", "2", "--addressing", "distributed",
          "--base-port", "6200", "--out", str(plan)])
    graph = parse_plan_xml(plan).graph
    names = list(graph.atomics)
    pools = tmp_path / "pools.xml"
    half = len(names) // 2
    pools.write_text(emit_pool_plan_xml(graph, PoolPlan(
        (PoolSpec("first", 1), PoolSpec("second", 1)),
        dict.fromkeys(names[:half], "first") | dict.fromkeys(names[half:], "second"))),
        encoding="utf-8")
    for groups, pods in (("host", [names]), (str(pools), [names[:half], names[half:]])):
        code, out, _ = run_cli(["emit-manifest", "--plan", str(plan), "--groups", groups],
                               capsys)
        assert code == 0
        *served, coordinator = yaml.safe_load_all(out)
        assert coordinator["metadata"]["name"] == "coordinator"
        assert [shlex.split(pod["spec"]["containers"][0]["command"][2])[5::2]
                for pod in served] == pods


def test_serve_refuses_to_split_an_endpoint(tmp_path, capsys):
    plan, path = _gpt_plan_file(tmp_path)
    code, out, err = run_cli(["serve", "--plan", str(path), "--atomic", "generator"],
                             capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'processor'" in err and "not hosted" in err


def test_trace_out_writes_canonical_trace(tmp_path, capsys):
    plan = tmp_path / "plan.xml"
    trace = tmp_path / "trace.txt"
    main(["generate", "-w", "3", "-d", "2", "--out", str(plan)])
    assert main(["run", "--plan", str(plan), "--backend", "sequential",
                 "--trace-out", str(trace)]) == 0
    capsys.readouterr()
    assert trace.read_text().startswith("A1_1|")


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "pdevsim", "generate", "-w", "2", "-d", "1"],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 0
    assert "<coupled" in result.stdout
