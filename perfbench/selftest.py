#!/usr/bin/env python3
"""Quick self-test of the benchmark at tiny problem sizes (about a minute).

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that every workload passes its output checks and prints the
metrics BENCHMARK.json names, and that each output check rejects a
deliberately corrupted output file.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

import run
from checks import check_identical, check_transform, check_workload, digest, tag
from workloads import CSV_HEADER, TINY, WORKLOADS, prepare

SEED = 0


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def corrupt(path: Path, index: int, delta: complex) -> None:
    """Add ``delta`` to one value of a curve file, keeping its format."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    table[index, 1] += delta.real
    table[index, 2] += delta.imag
    np.savetxt(path, table, fmt="%.16e", delimiter=",", header=CSV_HEADER, comments="")


def set_value(path: Path, index: int, value: float) -> None:
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    table[index, 1] = value
    np.savetxt(path, table, fmt="%.16e", delimiter=",", header=CSV_HEADER, comments="")


def rejects(name: str, good: Path, params: dict, check: str, damage) -> None:
    """Damage a copy of a passing output; the named check must fail."""
    bad = good.parent / f"{good.name}-bad"
    shutil.rmtree(bad, ignore_errors=True)
    shutil.copytree(good, bad)
    damage(bad)
    failed = {c for c, _ in check_workload(name, bad, params)}
    expect(check in failed, f"{name}: check {check!r} accepted a corrupted output (got {failed})")
    shutil.rmtree(bad)
    print(f"  {name}: {check} rejects corrupted output")


def produce(cli, name: str, work: Path):
    work.mkdir(parents=True)
    prepared = prepare(name, SEED, work, TINY)
    out = work / "out"
    op = run.run_op(cli, prepared.argv(out), work, False)
    expect(op["ok"], f"{name}: command failed, see {work / 'op.log'}")
    fails = check_workload(name, out, prepared.params)
    expect(not fails, f"{name}: clean output failed its checks: {fails}")
    return prepared, out


def corruption_tests(cli, root: Path) -> None:
    prepared, out = produce(cli, "fig1-ensemble", root / "fig1")
    p = prepared.params
    g_lo, g_mid, g_hi = (tag(g) for g in (p["rates"][0], p["rates"][1], p["rates"][-1]))
    i4, i5 = 200, 250  # t = 4 and t = 5 on the dt = 0.02 grid
    cases = [
        ("starts_at_one", lambda d: corrupt(d / "f_lambda.csv", 0, 1e-9)),
        ("mixed_state", lambda d: corrupt(d / "f_bar.csv", 100, 1e-9)),
        ("bounded", lambda d: [set_value(d / f"{n}.csv", 5, 1.5) for n in ("f_lambda", "f_bar")]),
        ("resolve", lambda d: corrupt(d / f"phi_gamma_{g_mid}.csv", 300, 1e-7)),
        ("positive", lambda d: set_value(d / f"diff_sim_gamma_{g_lo}.csv", i5, -1e-3)),
        ("ordered", lambda d: set_value(d / f"diff_sim_gamma_{g_hi}.csv", i4, 1e-12)),
        ("coverage", lambda d: [corrupt(d / f"f_sim_gamma_{g_mid}.csv", i, 1.0) for i in range(50, 500)]),
        ("manifest", lambda d: (d / f"f_sim_gamma_{g_hi}.csv").unlink()),
    ]
    for check, damage in cases:
        rejects("fig1-ensemble", out, p, check, damage)

    _, out2 = produce(cli, "fig1-2w", root / "fig1-2w")
    expect(not check_identical(digest(out), digest(out2), "2w"), "fig1-2w differs from one worker")
    corrupt(out2 / f"phi_gamma_{g_mid}.csv", 10, 1e-15)
    expect(bool(check_identical(digest(out), digest(out2), "2w")), "identity check missed a change")
    print("  fig1-2w: identical rejects a changed file")

    prepared, out = produce(cli, "theory-long", root / "theory")
    g = tag(prepared.params["rates"][0])
    for check, damage in [
        ("closed_form", lambda d: corrupt(d / f"f_theory_gamma_{g}.csv", 1000, 1e-4)),
        ("closed_form", lambda d: corrupt(d / f"first_order_gamma_{g}.csv", 1000, 1e-4j)),
        ("starts_at_one", lambda d: corrupt(d / f"f_theory_gamma_{g}.csv", 0, 1e-9)),
        ("difference", lambda d: corrupt(d / f"diff_theory_gamma_{g}.csv", 10, 1e-9)),
        ("manifest", lambda d: (d / "manifest.json").write_text("{}")),
    ]:
        rejects("theory-long", out, prepared.params, check, damage)

    prepared, out = produce(cli, "general-exp", root / "general")
    p = prepared.params
    n = p["n_steps"]

    def wrong_rate(d: Path) -> None:
        manifest = json.loads((d / "manifest.json").read_text())
        manifest["reduction_rate"] *= 1.01
        (d / "manifest.json").write_text(json.dumps(manifest))

    for check, damage in [
        ("starts_at_one", lambda d: corrupt(d / "f_general.csv", 0, 1e-9)),
        ("expm", lambda d: corrupt(d / "f_rmt_reference.csv", n // 2, 1e-7)),
        ("expm_general", lambda d: corrupt(d / "f_general.csv", n // 4, 1e-7j)),
        ("reduction_rate", wrong_rate),
    ]:
        rejects("general-exp", out, p, check, damage)
    from echo_gfa.master import CorrelationKernel

    wrong = CorrelationKernel.exponential(p["tau_c"] * 1.001, p["c0"])
    expect(bool(check_transform(wrong, p["tau_c"], p["c0"])), "transform check missed a wrong kernel")
    print("  general-exp: transform rejects a wrong kernel")


def end_to_end_tests() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        names = {m["name"]: m["unit"] for m in spec[section]}
        for name in WORKLOADS:
            result = run.run_workload(name, SEED, 0.1, trace, sizes=TINY)
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} trace={trace}: {result}")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            expect(got == names, f"{name} trace={trace}: metrics {sorted(got)} != {sorted(names)}")
            if not trace:
                expect(all(m["value"] > 0 for m in result["metrics"].values()),
                       f"{name}: an end-to-end metric is not above 0")
            print(f"  {name} trace={int(trace)}: {result['attempted']} operation(s), metrics as declared")


def failure_tests(cli, root: Path) -> None:
    import echo_gfa.harness
    import tracing

    targets = tracing.TARGETS
    tracing.TARGETS = targets + (("echo_gfa.volterra", "no_such_function", "volterra.gone", "span"),)
    try:
        result = run.run_workload("theory-long", SEED, 0.1, True, sizes=TINY)
    finally:
        tracing.TARGETS = targets
    expect(not result["correct"] and result["failed"] == result["attempted"],
           f"a missing trace target went unreported: {result}")
    print("  a trace target the package lacks fails the traced run")

    def broken(config):
        raise RuntimeError("injected fault")

    work = root / "broken"
    work.mkdir(parents=True)
    prepared = prepare("fig1-2w", SEED, work, TINY)
    original = echo_gfa.harness.build_realization
    echo_gfa.harness.build_realization = broken
    try:
        op = run.run_op(cli, prepared.argv(work / "out"), work, False)
    finally:
        echo_gfa.harness.build_realization = original
    expect(not op["ok"], "a command whose realizations raise was counted as done")
    print("  a command that fails inside its pool workers is counted as failed, not waited on")


def main() -> int:
    root = run.WORK / "selftest"
    shutil.rmtree(root, ignore_errors=True)
    cli = run.import_cli()
    try:
        print("output checks reject corrupted files:")
        corruption_tests(cli, root)
        print("benchmark runs report the declared metrics:")
        end_to_end_tests()
        print("failures are reported:")
        failure_tests(cli, root)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
