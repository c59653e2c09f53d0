#!/usr/bin/env python3
"""Write the reduced-size preset outputs that two versions are compared on.

    PYTHONPATH=src python scripts/preset_outputs.py OUT [--threads N]

Runs ``simulate`` on the ``fig1`` and ``fig2`` presets with ``n_run`` = 4,
in CSV and in JSON, then ``theory --kernels`` on each of those outputs.
Then runs ``general`` (dim 8, GOE, 2 coupling draws, 100 steps) with a delta
and with an exponential bath kernel, in CSV and in JSON, so the comparison
also covers ``f_general``'s error columns, and once more (CSV) at dim 16 with
the exponential kernel and 400 steps, whose 256 x 256 step matrix is large
enough for OpenBLAS to run its threads.  Everything goes under OUT: the
configs in ``configs/``, and one directory per run (``fig1-csv``,
``fig1-csv-theory``, ``general-delta-csv``, ...).  Paths are relative to
OUT, so the manifests do not depend on where OUT is.

To compare two versions, run this once with each version's ``src`` on
PYTHONPATH, then ``python scripts/compare_outputs.py OUT_A OUT_B``.
"""

import argparse
import json
import os
from pathlib import Path

from echo_gfa.cli import load_config, main

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
