"""The benchmark's workloads: the inputs each one hands to the echo-gfa CLI.

Every input is a deterministic function of the benchmark seed: the same seed
writes the same config and kernel files.  The program sees only these files
and the command line built by :meth:`Prepared.argv`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("fig1-ensemble", "fig1-2w", "theory-long", "general-exp")

# physics of the packaged fig1 preset
FIG1_LAMBDA = 0.1
FIG1_RATES = (0.01, 0.05, 0.077, 0.1)
FIG1_DT = 0.02
FIG1_STEPS = 600

# grid and rate count of the generated theory-long kernel curves
THEORY_DT = 0.01
THEORY_N_RATES = 2

CSV_HEADER = "t,re_f,im_f,re_err,im_err"


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; FULL defines the benchmark, TINY serves the self-test."""

    fig1_n_run: int
    theory_steps: int
    general_dim: int
    general_draws: int
    general_steps: int
    # fresh-interpreter set-up runs per benchmark run, for the setup_s median
    setup_reps: int


# theory_steps = 2^15 gives 2^15 + 1 points, just above the threshold of
# the divide-and-conquer Volterra solver
FULL = Sizes(
    fig1_n_run=10, theory_steps=1 << 15,
    general_dim=16, general_draws=8, general_steps=400, setup_reps=3,
)
TINY = Sizes(
    fig1_n_run=4, theory_steps=2000,
    general_dim=6, general_draws=2, general_steps=100, setup_reps=1,
)


@dataclass
class Prepared:
    """One workload's generated inputs plus what its checks need to know."""

    name: str
    command: str
    config: Path
    threads: int
    params: dict
    extra: list = field(default_factory=list)

    def argv(self, out: Path, threads: int | None = None) -> list:
        return [
            self.command, "--config", str(self.config), "--out", str(out),
            "--threads", str(self.threads if threads is None else threads),
            "--format", "csv", *self.extra,
        ]


def _rng(seed: int, name: str) -> np.random.Generator:
    tag = WORKLOADS.index(name)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(tag,)))


def _write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def write_curve_csv(path: Path, t: np.ndarray, values: np.ndarray) -> None:
    """Write a deterministic curve in the documented five-column schema."""
    zeros = np.zeros_like(t)
    table = np.column_stack([t, values.real, values.imag, zeros, zeros])
    np.savetxt(path, table, fmt="%.16e", delimiter=",", header=CSV_HEADER, comments="")


def damped_cosine(t: np.ndarray, a: float, omega: float) -> np.ndarray:
    """f(t) = exp(-a t) cos(omega t): the generated f_lambda = f_bar."""
    return (np.exp(-a * t) * np.cos(omega * t)).astype(complex)


def _fig1(name: str, seed: int, work: Path, sizes: Sizes) -> Prepared:
    master_seed = int(_rng(seed, "fig1-ensemble").integers(0, 2**31))
    config = work / "fig1.json"
    _write_json(config, {
        "dim": 50, "beta": 1, "master_seed": master_seed, "lambda": FIG1_LAMBDA,
        "gamma_list": list(FIG1_RATES),
        "grid": {"dt": FIG1_DT, "n_steps": FIG1_STEPS},
        "n_run": sizes.fig1_n_run, "n_batch": 3,
        "method": "volterra-per-realization", "initial_state": "maximally-mixed",
    })
    threads = 2 if name == "fig1-2w" else 1
    return Prepared(name, "simulate", config, threads,
                    {"rates": list(FIG1_RATES), "master_seed": master_seed})


def _theory(seed: int, work: Path, sizes: Sizes) -> Prepared:
    rng = _rng(seed, "theory-long")
    a = float(rng.uniform(0.02, 0.05))
    omega = float(rng.uniform(0.5, 1.5))
    rates = sorted(float(g) for g in rng.uniform(0.05, 0.3, THEORY_N_RATES))
    kernels = work / "kernels"
    kernels.mkdir()
    t = np.arange(sizes.theory_steps + 1) * THEORY_DT
    f = damped_cosine(t, a, omega)
    write_curve_csv(kernels / "f_lambda.csv", t, f)
    write_curve_csv(kernels / "f_bar.csv", t, f)
    config = work / "theory.json"
    _write_json(config, {
        "dim": 50, "beta": 1, "master_seed": 1, "lambda": FIG1_LAMBDA,
        "gamma_list": rates,
        "grid": {"dt": THEORY_DT, "n_steps": sizes.theory_steps},
        "n_run": 1, "n_batch": 1,
    })
    return Prepared("theory-long", "theory", config, 1,
                    {"a": a, "omega": omega, "rates": rates, "dt": THEORY_DT},
                    ["--kernels", str(kernels)])


def _general(seed: int, work: Path, sizes: Sizes) -> Prepared:
    master_seed = int(_rng(seed, "general-exp").integers(0, 2**31))
    params = {
        "dim": sizes.general_dim, "beta": 1, "master_seed": master_seed,
        "lambda": FIG1_LAMBDA, "coupling_strength": 0.05, "tau_c": 0.5, "c0": 1.0,
        "dt": 0.05, "n_steps": sizes.general_steps, "n_draws": sizes.general_draws,
    }
    config = work / "general.json"
    _write_json(config, {
        "dim": params["dim"], "beta": 1, "master_seed": master_seed,
        "lambda": params["lambda"], "coupling_strength": params["coupling_strength"],
        "kernel": {"kind": "exponential", "tau_c": params["tau_c"], "c0": params["c0"]},
        "grid": {"dt": params["dt"], "n_steps": params["n_steps"]},
        "n_draws": params["n_draws"], "method": "superoperator",
    })
    return Prepared("general-exp", "general", config, 1, params)


def prepare(name: str, seed: int, work: Path, sizes: Sizes = FULL) -> Prepared:
    """Write the workload's inputs under ``work`` and describe its command."""
    if name in ("fig1-ensemble", "fig1-2w"):
        return _fig1(name, seed, work, sizes)
    if name == "theory-long":
        return _theory(seed, work, sizes)
    if name == "general-exp":
        return _general(seed, work, sizes)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
