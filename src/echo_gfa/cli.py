"""Command-line interface.

Subcommands
-----------
simulate
    Monte-Carlo ensemble run: averaged fidelity amplitude, memory kernel,
    damped amplitudes per Gamma, matching theory curves and differences.
theory
    Integral-equation curves only, either from a fresh ensemble average or
    from previously written kernel files (``--kernels DIR``).
general
    Born-Markov generator with an explicit bath kernel: mean trace curve
    over coupling-matrix draws plus the reduced-equation reference.
validate-config
    Parse and validate a config, print the resolved values, write nothing.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 numerical
failure.  All outputs are deterministic functions of the config, so repeated
runs (any ``--threads``) produce byte-identical payloads; timings go to
stdout only.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys
import time
import warnings
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .curves import FidelityCurve, TimeGrid
from .echo import check_initial_state
from .harness import (
    SIM_METHODS,
    ExperimentConfig,
    batch_statistics,
    difference_curve,
    run_ensemble,
    theory_pipeline,
)
from .master import (
    CorrelationKernel,
    PropagationError,
    general_generator,
    propagate,
    rmt_generator,
    trace_curve,
)
from .rmt import EnsembleConfig, build_realization, sample_gaussian, stream
from .volterra import StepSizeError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

THREADS_ENV = "ECHO_GFA_THREADS"


class ConfigError(ValueError):
    """Invalid or missing configuration."""


# ---------------------------------------------------------------------------
# config loading and validation

def _packaged_presets():
    return resources.files("echo_gfa").joinpath("presets")


def load_config(name: str):
    """Load a config from the filesystem or from the packaged presets.

    Returns (dict, base_dir) where base_dir anchors relative paths inside
    the config.
    """
    path = Path(name)
    if path.is_file():
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {name}: {exc}") from exc
        base = path.parent
    else:
        preset = _packaged_presets().joinpath(path.name)
        if path.name == name and preset.is_file():
            text = preset.read_text()
            base = Path.cwd()
        else:
            known = sorted(p.name for p in _packaged_presets().iterdir())
            raise ConfigError(
                f"config not found: {name} (no such file; packaged presets: {', '.join(known)})"
            )
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {name} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {name} must be a JSON object")
    return data, base


def _require(data: dict, key: str, where: str):
    if key not in data:
        raise ConfigError(f"{where}: missing required key '{key}'")
    return data[key]


def _no_unknown(data: dict, allowed, where: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(unknown)}")


def _as_int(value, key: str, minimum: int):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{key}' must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"'{key}' must be >= {minimum}, got {value}")
    return value


def _as_float(value, key: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{key}' must be a number, got {value!r}")
    value = float(value)
    if not np.isfinite(value):
        raise ConfigError(f"'{key}' must be finite, got {value}")
    return value


def _parse_grid(data, where: str) -> TimeGrid:
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: 'grid' must be an object with dt and n_steps")
    _no_unknown(data, ("dt", "n_steps"), f"{where}.grid")
    dt = _as_float(_require(data, "dt", f"{where}.grid"), "dt")
    if dt <= 0:
        raise ConfigError(f"'dt' must be > 0, got {dt}")
    n_steps = _as_int(_require(data, "n_steps", f"{where}.grid"), "n_steps", 1)
    return TimeGrid(dt=dt, n_steps=n_steps)


def _parse_initial_state(value, base: Path):
    if value == "maximally-mixed":
        return None
    if isinstance(value, str) and value.endswith(".npy"):
        path = Path(value)
        if not path.is_absolute():
            path = base / path
        if not path.is_file():
            raise ConfigError(f"initial_state file not found: {path}")
        try:
            state = np.load(path)
        except Exception as exc:
            raise ConfigError(f"cannot load initial_state {path}: {exc}") from exc
        try:
            return check_initial_state(state)
        except ValueError as exc:
            raise ConfigError(f"initial_state {path}: {exc}") from exc
    raise ConfigError(
        f"initial_state must be 'maximally-mixed' or a .npy file path, got {value!r}"
    )


_ENSEMBLE_KEYS = (
    "dim", "beta", "master_seed", "lambda", "gamma_list", "grid",
    "n_run", "n_batch", "method", "initial_state",
)


def parse_ensemble_config(data: dict, base: Path, seed_override=None):
    """Validate a simulate/theory config; returns (ExperimentConfig, resolved dict)."""
    _no_unknown(data, _ENSEMBLE_KEYS, "config")
    dim = _as_int(_require(data, "dim", "config"), "dim", 2)
    beta = _as_int(_require(data, "beta", "config"), "beta", 1)
    if beta not in (1, 2):
        raise ConfigError(f"'beta' must be 1 or 2, got {beta}")
    master_seed = _as_int(_require(data, "master_seed", "config"), "master_seed", 0)
    if seed_override is not None:
        master_seed = _as_int(seed_override, "seed", 0)
    lam = _as_float(_require(data, "lambda", "config"), "lambda")
    raw_gammas = _require(data, "gamma_list", "config")
    if not isinstance(raw_gammas, list) or not raw_gammas:
        raise ConfigError("'gamma_list' must be a non-empty list of rates")
    gammas = tuple(_as_float(g, "gamma_list entry") for g in raw_gammas)
    grid = _parse_grid(_require(data, "grid", "config"), "config")
    n_run = _as_int(_require(data, "n_run", "config"), "n_run", 1)
    n_batch = _as_int(data.get("n_batch", 3), "n_batch", 1)
    method = data.get("method", "auto")
    if method not in SIM_METHODS + ("auto",):
        raise ConfigError(f"'method' must be one of {SIM_METHODS + ('auto',)}, got {method!r}")
    state_token = data.get("initial_state", "maximally-mixed")
    initial_state = _parse_initial_state(state_token, base)

    try:
        config = ExperimentConfig(
            dim=dim, beta=beta, master_seed=master_seed, lam=lam,
            gamma_list=gammas, grid=grid, n_run=n_run, n_batch=n_batch,
            method=method, initial_state=initial_state,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    resolved = {
        "dim": dim, "beta": beta, "master_seed": master_seed, "lambda": lam,
        "gamma_list": list(gammas),
        "grid": {"dt": grid.dt, "n_steps": grid.n_steps},
        "n_run": n_run, "n_batch": n_batch, "method": method,
        "initial_state": state_token,
    }
    return config, resolved


_GENERAL_KEYS = (
    "dim", "beta", "master_seed", "lambda", "coupling_strength", "kernel",
    "grid", "n_draws", "method", "initial_state", "coupling_file",
)


def parse_general_config(data: dict, base: Path, seed_override=None):
    """Validate a general-form config; returns (dict of pieces, resolved dict)."""
    _no_unknown(data, _GENERAL_KEYS, "config")
    dim = _as_int(_require(data, "dim", "config"), "dim", 2)
    beta = _as_int(_require(data, "beta", "config"), "beta", 1)
    if beta not in (1, 2):
        raise ConfigError(f"'beta' must be 1 or 2, got {beta}")
    master_seed = _as_int(_require(data, "master_seed", "config"), "master_seed", 0)
    if seed_override is not None:
        master_seed = _as_int(seed_override, "seed", 0)
    lam = _as_float(_require(data, "lambda", "config"), "lambda")
    strength = _as_float(_require(data, "coupling_strength", "config"), "coupling_strength")

    kdata = _require(data, "kernel", "config")
    if not isinstance(kdata, dict):
        raise ConfigError("'kernel' must be an object")
    kind = _require(kdata, "kind", "config.kernel")
    if kind == "delta":
        _no_unknown(kdata, ("kind", "c0"), "config.kernel")
        resolved_kernel = {"kind": kind}
    elif kind == "exponential":
        _no_unknown(kdata, ("kind", "tau_c", "c0"), "config.kernel")
        tau_c = _as_float(_require(kdata, "tau_c", "config.kernel"), "kernel.tau_c")
        resolved_kernel = {"kind": kind, "tau_c": tau_c}
    else:
        raise ConfigError(f"'kernel.kind' must be 'delta' or 'exponential', got {kind!r}")
    resolved_kernel["c0"] = _as_float(kdata.get("c0", 1.0), "kernel.c0")
    try:
        kernel = CorrelationKernel(**resolved_kernel)
    except ValueError as exc:
        raise ConfigError(f"config.kernel: {exc}") from exc

    grid = _parse_grid(_require(data, "grid", "config"), "config")
    n_draws = _as_int(data.get("n_draws", 1), "n_draws", 1)
    method = data.get("method", "superoperator")
    if method not in ("superoperator", "stepper"):
        raise ConfigError(f"'method' must be 'superoperator' or 'stepper', got {method!r}")
    state_token = data.get("initial_state", "maximally-mixed")
    initial_state = _parse_initial_state(state_token, base)

    coupling = None
    coupling_file = data.get("coupling_file")
    if coupling_file is not None:
        path = Path(coupling_file)
        if not path.is_absolute():
            path = base / path
        if not path.is_file():
            raise ConfigError(f"coupling_file not found: {path}")
        try:
            coupling = np.asarray(np.load(path), dtype=complex)
        except Exception as exc:
            raise ConfigError(f"cannot load coupling_file {path}: {exc}") from exc
        if coupling.shape != (dim, dim):
            raise ConfigError(
                f"coupling_file matrix shape {coupling.shape} does not match dim {dim}"
            )
        if n_draws != 1:
            raise ConfigError("a fixed coupling_file requires n_draws = 1")

    pieces = {
        "dim": dim, "beta": beta, "master_seed": master_seed, "lam": lam,
        "strength": strength, "kernel": kernel,
        "grid": grid, "n_draws": n_draws, "method": method,
        "initial_state": initial_state, "coupling": coupling,
    }
    resolved = {
        "dim": dim, "beta": beta, "master_seed": master_seed, "lambda": lam,
        "coupling_strength": strength, "kernel": resolved_kernel,
        "grid": {"dt": grid.dt, "n_steps": grid.n_steps},
        "n_draws": n_draws, "method": method, "initial_state": state_token,
        "coupling_file": coupling_file,
    }
    return pieces, resolved


def config_kind(data: dict) -> str:
    return "general" if ("coupling_strength" in data or "kernel" in data) else "ensemble"


# ---------------------------------------------------------------------------
# curve serialisation

_CSV_HEADER = "t,re_f,im_f,re_err,im_err"
# 17 significant digits: lossless round-trip for binary64
_CSV_NUMBER = "%.16e"
# a missing error column is written as zeros
_CSV_ZERO = _CSV_NUMBER % 0.0
# rows formatted per write; bounds the text held in memory
_CSV_BLOCK_ROWS = 4096


def gamma_tag(g: float) -> str:
    return f"{g:g}"


def write_curve(path: Path, curve: FidelityCurve, fmt: str) -> None:
    """Write a curve as CSV (``\\r\\n`` rows, ``%.16e`` numbers) or JSON."""
    values = curve.values
    if fmt == "csv":
        columns = [curve.times, values.real, values.imag]
        fields = [_CSV_NUMBER] * 3
        for err in (curve.stderr_re, curve.stderr_im):
            if err is None:
                fields.append(_CSV_ZERO)
            else:
                columns.append(err)
                fields.append(_CSV_NUMBER)
        row = ",".join(fields) + "\r\n"
        with open(path, "w", newline="") as fh:
            fh.write(_CSV_HEADER + "\r\n")
            for lo in range(0, len(curve), _CSV_BLOCK_ROWS):
                block = [col[lo : lo + _CSV_BLOCK_ROWS].tolist() for col in columns]
                fh.write("".join(map(row.__mod__, zip(*block))))
    else:
        zeros = np.zeros(len(curve))
        payload = {
            "t": curve.times.tolist(),
            "re_f": values.real.tolist(),
            "im_f": values.imag.tolist(),
            "re_err": (zeros if curve.stderr_re is None else curve.stderr_re).tolist(),
            "im_err": (zeros if curve.stderr_im is None else curve.stderr_im).tolist(),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")


def write_curves(out: Path, curves, fmt: str) -> dict:
    """Write (name, curve) pairs to ``out/<name>.<fmt>``; returns {name: filename}."""
    ext = "csv" if fmt == "csv" else "json"
    files = {}
    for name, curve in curves:
        files[name] = filename = f"{name}.{ext}"
        write_curve(out / filename, curve, fmt)
    return files


def read_curve(path: Path) -> FidelityCurve:
    """Read a curve written by :func:`write_curve` (either format)."""
    if not path.is_file():
        raise ConfigError(f"missing kernel input: {path}")
    if path.suffix == ".json":
        with open(path) as fh:
            payload = json.load(fh)
        try:
            t = np.asarray(payload["t"], dtype=float)
            values = np.asarray(payload["re_f"], dtype=float) + 1j * np.asarray(payload["im_f"], dtype=float)
            re_err = np.asarray(payload["re_err"], dtype=float)
            im_err = np.asarray(payload["im_err"], dtype=float)
        except KeyError as exc:
            raise ConfigError(f"{path}: missing column {exc}") from exc
    else:
        with open(path, newline="") as fh:
            header = next(csv.reader([fh.readline()]))
            if header != _CSV_HEADER.split(","):
                raise ConfigError(f"{path}: unexpected header {header!r}")
            with warnings.catch_warnings():
                # an empty body is reported below, not as a numpy warning
                warnings.simplefilter("ignore", UserWarning)
                try:
                    arr = np.loadtxt(fh, dtype=float, delimiter=",", comments=None, ndmin=2)
                except ValueError as exc:
                    raise ConfigError(f"{path}: {exc}") from exc
        if arr.shape[0] < 2:
            raise ConfigError(f"{path}: need at least two grid points")
        if arr.shape[1] != 5:
            raise ConfigError(f"{path}: expected 5 columns, got {arr.shape[1]}")
        t = arr[:, 0]
        values = arr[:, 1] + 1j * arr[:, 2]
        re_err, im_err = arr[:, 3], arr[:, 4]
    if t.shape[0] < 2 or t[0] != 0.0:
        raise ConfigError(f"{path}: time column must start at 0")
    dt = t[1]
    grid = TimeGrid(dt=dt, n_steps=t.shape[0] - 1)
    if not np.allclose(t, grid.times, rtol=0.0, atol=1e-9 * max(1.0, abs(t[-1]))):
        raise ConfigError(f"{path}: time column is not a uniform grid")
    stderr_re = re_err if np.any(re_err) else None
    stderr_im = im_err if np.any(im_err) else None
    return FidelityCurve(grid, values, stderr_re=stderr_re, stderr_im=stderr_im)


def write_manifest(out_dir: Path, command: str, fmt: str, resolved: dict, files: dict, extra: dict | None = None) -> None:
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    manifest = {
        "command": command,
        "format": fmt,
        "config": resolved,
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest(),
        "files": files,
        "package_version": __version__,
    }
    if extra:
        manifest.update(extra)
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands

def _resolve_threads(args) -> int:
    if args.threads is not None:
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        return args.threads
    env = os.environ.get(THREADS_ENV)
    if env is not None:
        try:
            threads = int(env)
        except ValueError:
            raise ConfigError(f"{THREADS_ENV} must be an integer, got {env!r}") from None
        if threads < 1:
            raise ConfigError(f"{THREADS_ENV} must be >= 1, got {threads}")
        return threads
    return 1


def _prepare_out(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _alpha_map(config: ExperimentConfig) -> dict:
    return {gamma_tag(g): a for g, a in config.alpha().items()}


def cmd_simulate(args) -> int:
    data, base = load_config(args.config)
    if config_kind(data) != "ensemble":
        raise ConfigError("simulate needs an ensemble config (no 'kernel'/'coupling_strength' keys)")
    config, resolved = parse_ensemble_config(data, base, args.seed)
    threads = _resolve_threads(args)
    out = _prepare_out(args)

    t0 = time.perf_counter()
    report = run_ensemble(config, n_jobs=threads)

    curves = [("f_lambda", report.f_lambda), ("f_bar", report.kernel)]
    for g in config.gamma_list:
        tag = gamma_tag(g)
        curves += [
            (f"f_sim_gamma_{tag}", report.simulated[g]),
            (f"phi_gamma_{tag}", report.theory_phi[g]),
            (f"f_theory_gamma_{tag}", report.theory[g]),
            (f"first_order_gamma_{tag}", report.first_order[g]),
            (f"diff_sim_gamma_{tag}", report.sim_minus_f[g]),
            (f"diff_theory_gamma_{tag}", report.theory_minus_f[g]),
        ]
    files = write_curves(out, curves, args.format)
    write_manifest(out, "simulate", args.format, resolved, files, {"alpha": _alpha_map(config)})
    elapsed = time.perf_counter() - t0

    n_total = config.n_batch * config.n_run
    print(
        f"simulate: {n_total} realizations (dim={config.dim}, method={report.metadata['method']}, "
        f"threads={threads}) in {elapsed:.1f} s -> {out} ({len(files) + 1} files)"
    )
    return EXIT_OK


def cmd_theory(args) -> int:
    data, base = load_config(args.config)
    if config_kind(data) != "ensemble":
        raise ConfigError("theory needs an ensemble config (no 'kernel'/'coupling_strength' keys)")
    config, resolved = parse_ensemble_config(data, base, args.seed)
    threads = _resolve_threads(args)
    out = _prepare_out(args)
    fmt = args.format
    ext = "csv" if fmt == "csv" else "json"

    t0 = time.perf_counter()
    if args.kernels is not None:
        kdir = Path(args.kernels)
        f_lambda = read_curve(kdir / f"f_lambda.{ext}")
        kernel = read_curve(kdir / f"f_bar.{ext}")
        if f_lambda.grid != kernel.grid:
            raise ConfigError(f"{kdir}: f_lambda and f_bar grids differ")
        kgrid, cgrid = f_lambda.grid, config.grid
        if kgrid.n_steps != cgrid.n_steps or abs(kgrid.dt - cgrid.dt) > 1e-12 * cgrid.dt:
            raise ConfigError(
                f"{kdir}: kernel grid (dt = {kgrid.dt!r}, n_steps = {kgrid.n_steps}) "
                f"does not match the config grid (dt = {cgrid.dt!r}, n_steps = {cgrid.n_steps})"
            )
        source = str(kdir)
    else:
        averages = run_ensemble(dataclasses.replace(config, gamma_list=()), n_jobs=threads)
        f_lambda, kernel = averages.f_lambda, averages.kernel
        source = "ensemble"
    phi_by_gamma, theory, first = theory_pipeline(f_lambda, kernel, config.gamma_list)

    def curves():
        # a generator, so each difference curve is freed once written
        yield "f_lambda", f_lambda
        yield "f_bar", kernel
        for g in config.gamma_list:
            tag = gamma_tag(g)
            yield f"phi_gamma_{tag}", phi_by_gamma[g]
            yield f"f_theory_gamma_{tag}", theory[g]
            yield f"first_order_gamma_{tag}", first[g]
            yield f"diff_theory_gamma_{tag}", difference_curve(theory[g], f_lambda)

    files = write_curves(out, curves(), fmt)
    write_manifest(
        out, "theory", fmt, resolved, files,
        {"alpha": _alpha_map(config), "kernel_source": source},
    )
    elapsed = time.perf_counter() - t0
    print(f"theory: kernels from {source} in {elapsed:.1f} s -> {out} ({len(files) + 1} files)")
    return EXIT_OK


def cmd_general(args) -> int:
    data, base = load_config(args.config)
    if config_kind(data) != "general":
        raise ConfigError("general needs a config with 'coupling_strength' and 'kernel'")
    pieces, resolved = parse_general_config(data, base, args.seed)
    if _resolve_threads(args) > 1:
        # --threads is accepted for interface symmetry only
        print("general: coupling draws run serially; --threads is ignored", file=sys.stderr)
    out = _prepare_out(args)

    dim, beta = pieces["dim"], pieces["beta"]
    grid: TimeGrid = pieces["grid"]
    env = build_realization(EnsembleConfig(dim, beta, pieces["master_seed"]))
    h_zero = np.diag(env.env_levels).astype(complex)
    h_lam = h_zero + pieces["lam"] * env.perturbation
    rho0 = pieces["initial_state"]
    if rho0 is None:
        rho0 = np.eye(dim, dtype=complex) / dim

    t0 = time.perf_counter()
    traces = np.empty((pieces["n_draws"], len(grid)), dtype=complex)
    for draw in range(pieces["n_draws"]):
        if pieces["coupling"] is not None:
            coupling = pieces["coupling"]
        else:
            draw_cfg = EnsembleConfig(dim, beta, pieces["master_seed"], draw)
            coupling = sample_gaussian(dim, beta, stream(draw_cfg, "coupling"))
        gen = general_generator(h_lam, h_zero, coupling, pieces["kernel"], pieces["strength"])
        traj = propagate(gen, rho0, grid, method=pieces["method"])
        traces[draw] = trace_curve(traj).values

    mean, stderr_re, stderr_im = batch_statistics(traces)
    f_general = FidelityCurve(grid, mean, stderr_re=stderr_re, stderr_im=stderr_im)

    # reduced-equation reference; exact reduction rate for a delta kernel
    rate = pieces["strength"] ** 2 * dim * pieces["kernel"].c0
    ref_gen = rmt_generator(h_lam, h_zero, rate)
    reference = trace_curve(propagate(ref_gen, rho0, grid, method=pieces["method"]))

    files = write_curves(out, [("f_general", f_general), ("f_rmt_reference", reference)], args.format)
    write_manifest(out, "general", args.format, resolved, files, {"reduction_rate": rate})
    elapsed = time.perf_counter() - t0
    print(
        f"general: {pieces['n_draws']} draw(s) (dim={dim}, method={pieces['method']}) "
        f"in {elapsed:.1f} s -> {out} ({len(files) + 1} files)"
    )
    return EXIT_OK


def cmd_validate_config(args) -> int:
    data, base = load_config(args.config)
    kind = config_kind(data)
    if kind == "ensemble":
        _, resolved = parse_ensemble_config(data, base, args.seed)
    else:
        _, resolved = parse_general_config(data, base, args.seed)
    print(f"config OK ({kind}): " + json.dumps(resolved, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="echo-gfa",
        description="Generalized fidelity amplitude of a chaotic environment coupled to a far bath.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out=True):
        p.add_argument("--config", required=True, help="config file or packaged preset name")
        p.add_argument("--seed", type=int, default=None, help="override master_seed")
        p.add_argument("--threads", type=int, default=None,
                       help=f"worker processes (default: ${THREADS_ENV} or 1)")
        if needs_out:
            p.add_argument("--out", default="echo_gfa_out", help="output directory")
            p.add_argument("--format", choices=("csv", "json"), default="csv",
                           help="curve file format")

    p_sim = sub.add_parser("simulate", help="ensemble simulation plus theory curves")
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_th = sub.add_parser("theory", help="integral-equation curves only")
    common(p_th)
    p_th.add_argument("--kernels", default=None,
                      help="directory holding f_lambda/f_bar written by a previous run")
    p_th.set_defaults(func=cmd_theory)

    p_gen = sub.add_parser("general", help="Born-Markov generator with an explicit bath kernel")
    common(p_gen)
    p_gen.set_defaults(func=cmd_general)

    p_val = sub.add_parser("validate-config", help="validate a config and exit")
    common(p_val, needs_out=False)
    p_val.set_defaults(func=cmd_validate_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PropagationError, StepSizeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
