#!/usr/bin/env python3
"""End-to-end benchmark of the echo-gfa command line, one operation at a time.

Run from the root of a source checkout (the package is imported from
``src/``, nothing is installed)::

    python3 perfbench/run.py --workload fig1-ensemble --seed 1 --seconds 25 --trace 0

One operation is one ``echo_gfa.cli.main`` command, run in a child forked
from a process that has imported ``echo_gfa.cli``, into a fresh output
directory.  Its wall time runs from the fork until the child has been
reaped, and ``wait4`` gives the CPU time and peak resident set of the child
and of every pool worker it reaped.  The child runs in its own process
group, which is killed once the child has been reaped, so that workers a
failed command leaves behind do not outlive it.  Set-up is measured apart: a fresh
interpreter that imports ``echo_gfa.cli`` and validates the workload's
config.  Set-up repetitions are interleaved with the first operations, and
operations repeat until ``--seconds`` is used up; each metric is the median
over its repetitions.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` the same operations run under the tracer and the line reports
per-layer metrics instead.  Every operation's output must be byte-identical
to the first one's, and the first one's output must pass the workload's
checks (see checks.py); fig1-2w is also compared with a one-worker run of
the same inputs.  The benchmark sets no BLAS thread variable and passes
``--threads`` explicitly.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 3

# (layer, quantity, unit) reported by a traced run
PER_LAYER = (
    ("rmt.build_realization", "calls", "count"),
    ("rmt.build_realization", "self_s", "s"),
    ("echo.eigh", "self_s", "s"),
    ("echo.fidelity_values", "calls", "count"),
    ("echo.fidelity_values", "self_s", "s"),
    ("echo.kernel_values", "self_s", "s"),
    ("volterra.solve_many", "calls", "count"),
    ("volterra.solve_many", "self_s", "s"),
    ("volterra.first_order", "self_s", "s"),
    ("master.gamma_operator", "self_s", "s"),
    ("master.transform", "calls", "count"),
    ("master.propagate", "calls", "count"),
    ("master.propagate", "self_s", "s"),
    ("harness.run_ensemble", "self_s", "s"),
    ("harness.theory_pipeline", "self_s", "s"),
    ("cli.config", "self_s", "s"),
    ("cli.write_curve", "self_s", "s"),
    ("cli.write_curve", "bytes", "B"),
    ("cli.read_curve", "self_s", "s"),
    ("cli.read_curve", "bytes", "B"),
    ("cli.main", "self_s", "s"),
    ("cli.main", "total_s", "s"),
)

# a fresh interpreter: import the CLI, then load and validate the config
SETUP_SCRIPT = """\
import json, sys, time
t0 = time.perf_counter()
from echo_gfa.cli import main
t1 = time.perf_counter()
code = main(["validate-config", "--config", sys.argv[1]])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "config_s": t2 - t1}))
sys.exit(code)
"""


def import_cli():
    """echo_gfa.cli from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import echo_gfa.cli

    origin = Path(echo_gfa.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"echo_gfa imported from {origin}, not from {SRC}")
    return echo_gfa.cli


def setup_once(config: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_SCRIPT, str(config)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed ({proc.returncode}): {proc.stderr.strip()}")
    return {"setup_s": wall, **json.loads(proc.stdout.strip().splitlines()[-1])}


def _resident_kb() -> int:
    """This process's resident set now, in KiB."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") // 1024


def _child(cli, argv: list, log: Path, result: Path, trace: bool) -> None:
    """Body of a forked operation; never returns."""
    code = 70
    try:
        os.setpgid(0, 0)
        start_kb = _resident_kb()
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.dup2(fd, 1)
        os.dup2(fd, 2)
        os.close(fd)
        data = {"start_kb": start_kb}
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
            code = tracer.call(tracing.ROOT, cli.main, argv)
            data["trace"] = {"summary": tracer.summary(), "spans": tracer.spans}
        else:
            code = cli.main(argv)
        result.write_text(json.dumps(data))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 70
    except BaseException:
        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code if isinstance(code, int) else 70)


def _end_group(pgid: int) -> None:
    """Kill what is left of an operation's process group and wait until it is gone.

    A command that exits normally has already shut its pool workers down; a
    failed one may leave them behind, and they are no children of ours.
    """
    deadline = time.monotonic() + 10.0
    try:
        os.killpg(pgid, signal.SIGKILL)
        while time.monotonic() < deadline:
            os.killpg(pgid, 0)
            time.sleep(0.01)
    except ProcessLookupError:
        return
    print(f"processes of group {pgid} still present after SIGKILL", file=sys.stderr)


def run_op(cli, argv: list, work: Path, trace: bool) -> dict:
    """Run one command in a forked child; time it and read its rusage.

    ``peak_rss_mb`` is the largest resident set of the child and its reaped
    pool workers, less the child's resident set when it started: the memory
    the command adds to a process that has already imported the CLI.
    """
    log, result = work / "op.log", work / "op.json"
    result.unlink(missing_ok=True)
    sys.stdout.flush()
    sys.stderr.flush()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        _child(cli, argv, log, result, trace)
    try:
        os.setpgid(pid, pid)
    except OSError:
        pass  # the child has set its group already, or has exited
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    _end_group(pid)
    ok = os.waitstatus_to_exitcode(status) == 0 and result.is_file()
    data = json.loads(result.read_text()) if ok else {}
    return {
        "ok": ok,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": (usage.ru_maxrss - data.get("start_kb", 0)) / 1024.0,
        "trace": data.get("trace"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: workloads.Sizes = workloads.FULL) -> dict:
    """Measure one workload; returns the result object the benchmark prints."""
    cli = import_cli()
    work = WORK / f"{name}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        prepared = workloads.prepare(name, seed, work, sizes)
        return _measure(cli, prepared, work, seconds, trace, sizes.setup_reps)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(cli, prepared, work: Path, seconds: float, trace: bool, setup_reps: int) -> dict:
    setups, ops, fails = [], [], []
    first_out, first_digest = None, None
    start = time.perf_counter()
    while True:
        if len(setups) < setup_reps:
            setups.append(setup_once(prepared.config))
        out = work / f"op{len(ops)}"
        op = run_op(cli, prepared.argv(out), work, trace)
        ops.append(op)
        if not op["ok"]:
            log = (work / "op.log").read_text(errors="replace").strip()
            print(f"operation {len(ops)} failed: {log[-2000:]}", file=sys.stderr)
        elif first_out is None:
            first_out, first_digest = out, checks.digest(out)
        else:
            fails += checks.check_identical(first_digest, checks.digest(out), f"operation {len(ops)}")
            shutil.rmtree(out)
        next_round = statistics.median(o["wall_s"] for o in ops)
        if len(setups) < setup_reps:
            next_round += statistics.median(s["setup_s"] for s in setups)
        if (len(ops) >= MIN_OPS and len(setups) >= setup_reps
                and time.perf_counter() + next_round > start + seconds):
            break

    good = [o for o in ops if o["ok"]]
    if first_out is not None:
        fails += checks.check_workload(prepared.name, first_out, prepared.params)
        if prepared.name == "fig1-2w":
            ref = work / "one-worker"
            op = run_op(cli, prepared.argv(ref, threads=1), work, False)
            if op["ok"]:
                fails += checks.check_identical(first_digest, checks.digest(ref), "--threads 1 vs 2")
            else:
                fails.append(("identical", "the one-worker reference run failed"))
    for check, message in fails:
        print(f"check {check} failed: {message}", file=sys.stderr)

    metrics = {}
    if good and trace:
        metrics = _layer_metrics(good, setups)
        _write_spans(prepared, good)
    elif good:
        for key, unit in (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")):
            metrics[key] = {"value": statistics.median(o[key] for o in good), "unit": unit}
        metrics["setup_s"] = {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"}
    return {
        "correct": bool(good) and not fails,
        "attempted": len(ops),
        "failed": len(ops) - len(good),
        "metrics": metrics,
    }


def _layer_metrics(good: list, setups: list) -> dict:
    metrics = {
        "cli.import_s": {"value": statistics.median(s["import_s"] for s in setups), "unit": "s"},
        # timed like wall_s; minus an untraced run's wall_s it is the tracing overhead
        "traced.wall_s": {"value": statistics.median(o["wall_s"] for o in good), "unit": "s"},
    }
    for layer, quantity, unit in PER_LAYER:
        values = [o["trace"]["summary"].get(layer, {}).get(quantity, 0) for o in good]
        metrics[f"{layer}.{quantity}"] = {"value": statistics.median(values), "unit": unit}
    return metrics


def _write_spans(prepared, good: list) -> None:
    """Keep every operation's spans under .perfbench_work/traces/."""
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    spans = [o["trace"]["spans"] for o in good]
    path = traces / f"{prepared.name}.json"
    path.write_text(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "bytes"],
                                "operations": spans}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, metric in result["metrics"].items():
        print(f"{key:34s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
