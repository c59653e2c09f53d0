#!/usr/bin/env python3
"""Write the reduced-size preset outputs that two versions are compared on.

    PYTHONPATH=src python scripts/preset_outputs.py OUT [--threads N]

Runs ``simulate`` on the ``fig1`` and ``fig2`` presets with ``n_run`` = 4,
in CSV and in JSON, then ``theory --kernels`` on each of those outputs.
Then runs ``general`` (dim 8, GOE, 2 coupling draws, 100 steps) with a delta
and with an exponential bath kernel, in CSV and in JSON, so the comparison
also covers ``f_general``'s error columns, and once more (CSV) at dim 16 with
the exponential kernel and 400 steps, whose 256 x 256 step matrix is large
enough for OpenBLAS to run its threads.  Last, it runs ``theory --kernels``
(CSV) on closed-form curves f_lambda = exp(-0.03 t) cos(t) and
fbar = exp(-0.05 t) cos(1.3 t) with 5001 points.  The presets' 601 points
stay on the direct Volterra path; these reach the divide-and-conquer path,
whose FFT middle products then take lengths that are not powers of two.
Everything goes under OUT: the configs in ``configs/``, the generated curves
in ``long-kernels/``, and one directory per run (``fig1-csv``,
``fig1-csv-theory``, ``general-delta-csv``, ..., ``long-theory-csv``).
Paths are relative to OUT, so the manifests do not depend on where OUT is.

To compare two versions, run this once with each version's ``src`` on
PYTHONPATH, then ``python scripts/compare_outputs.py OUT_A OUT_B``.
"""

import argparse
import json
import os
from pathlib import Path

import numpy as np

from echo_gfa.cli import load_config, main, write_curve
from echo_gfa.curves import FidelityCurve, TimeGrid

N_RUN = 4

# a small general config; "kernel" is set per run
GENERAL = {
    "dim": 8, "beta": 1, "master_seed": 7, "lambda": 0.1,
    "coupling_strength": 0.1, "n_draws": 2,
    "grid": {"dt": 0.05, "n_steps": 100},
}
KERNELS = {
    "delta": {"kind": "delta", "c0": 1.0},
    "exponential": {"kind": "exponential", "tau_c": 0.5, "c0": 1.0},
}
GENERAL_DIM16 = {**GENERAL, "dim": 16, "grid": {"dt": 0.05, "n_steps": 400}, "kernel": KERNELS["exponential"]}
# above the 2^11-point threshold of the divide-and-conquer Volterra solver
LONG_GRID = TimeGrid(dt=0.01, n_steps=5000)
LONG_THEORY = {
    "dim": 50, "beta": 1, "master_seed": 1, "lambda": 0.1, "gamma_list": [0.05, 0.2],
    "grid": {"dt": LONG_GRID.dt, "n_steps": LONG_GRID.n_steps}, "n_run": 1, "n_batch": 1,
}


def run(*argv: str) -> None:
    code = main(list(argv))
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("out")
    ap.add_argument("--threads", type=int, default=1)
    ns = ap.parse_args()
    out = Path(ns.out)
    (out / "configs").mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    threads = str(ns.threads)
    for preset in ("fig1", "fig2"):
        data, _ = load_config(f"{preset}.json")
        data["n_run"] = N_RUN
        config = Path("configs") / f"{preset}.json"
        config.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        for fmt in ("csv", "json"):
            sim = f"{preset}-{fmt}"
            run("simulate", "--config", str(config), "--out", sim, "--format", fmt, "--threads", threads)
            run(
                "theory", "--config", str(config), "--out", f"{sim}-theory", "--format", fmt,
                "--kernels", sim, "--threads", threads,
            )
    general = [(f"general-{name}", {**GENERAL, "kernel": kernel}, ("csv", "json")) for name, kernel in KERNELS.items()]
    general.append(("general-exponential-dim16", GENERAL_DIM16, ("csv",)))
    for name, data, formats in general:
        config = Path("configs") / f"{name}.json"
        config.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        for fmt in formats:
            run(
                "general", "--config", str(config), "--out", f"{name}-{fmt}", "--format", fmt,
                "--threads", threads,
            )
    kernels = Path("long-kernels")
    kernels.mkdir(exist_ok=True)
    t = LONG_GRID.times
    for name, a, omega in (("f_lambda", 0.03, 1.0), ("f_bar", 0.05, 1.3)):
        write_curve(kernels / f"{name}.csv", FidelityCurve(LONG_GRID, np.exp(-a * t) * np.cos(omega * t)), "csv")
    config = Path("configs") / "long-theory.json"
    config.write_text(json.dumps(LONG_THEORY, indent=2, sort_keys=True) + "\n")
    run(
        "theory", "--config", str(config), "--out", "long-theory-csv", "--format", "csv",
        "--kernels", str(kernels), "--threads", threads,
    )
