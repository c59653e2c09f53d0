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

A config is parsed once.  This module checks its JSON structure: each object's
keys, the ``initial_state`` token, ``.npy`` files, a non-empty ``gamma_list`` with
distinct file tags.  The config dataclasses check each value's type and range.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 numerical
failure or out of memory.  Outputs are deterministic functions of the
config: they are byte-identical for every ``--threads`` value and BLAS thread
setting.  Timings go to stdout only.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np

from .curveio import ConfigError, _build, gamma_tag, read_curve, write_curve, write_manifest
from .curves import TimeGrid
from .harness import (
    ExperimentConfig,
    GeneralConfig,
    _release_free_heap,
    difference_curve,
    run_ensemble,
    run_general,
    theory_pipeline,
)
from .master import BLAS_THREAD_VARS  # noqa: F401  the thread variables the CLI honours, importable from it
from .master import CorrelationKernel, _pin_numpy_blas
from .master import propagate  # noqa: F401  perfbench/tracing.py wraps cli.propagate
from .rmt import build_realization  # noqa: F401  perfbench/tracing.py wraps cli.build_realization
from .volterra import check_inputs

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

THREADS_ENV = "ECHO_GFA_THREADS"

# numpy's BLAS on one thread in the CLI process, but for general's dense route; forked workers inherit it
_pin_numpy_blas()


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


def _object(data, where: str, required, optional=()) -> dict:
    """``data``, checked to be a JSON object with every ``required`` key and no key but those and ``optional``."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be an object, got {data!r}")
    unknown = sorted(set(data) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(unknown)}")
    for key in required:
        if key not in data:
            raise ConfigError(f"{where}: missing required key '{key}'")
    return data


def _load_matrix(value, key: str, base: Path) -> np.ndarray:
    """A complex matrix from a .npy path, relative paths anchored at ``base``."""
    if not isinstance(value, str):
        raise ConfigError(f"'{key}' must be a .npy file path, got {value!r}")
    path = Path(value)
    if not path.is_absolute():
        path = base / path
    if not path.is_file():
        raise ConfigError(f"{key} not found: {path}")
    try:
        return np.asarray(np.load(path), dtype=complex)
    except Exception as exc:
        raise ConfigError(f"cannot load {key} {path}: {exc}") from exc


def _fields(data: dict, base: Path, seed_override, required, optional) -> dict:
    """Check the config's keys; return its dataclass's keyword arguments, values as JSON gives them.

    Of the shared keys, ``lambda`` becomes ``lam``, ``grid`` a TimeGrid and a ``.npy`` ``initial_state`` its matrix.
    """
    _object(data, "config", ("dim", "beta", "master_seed", "lambda", "grid", *required),
            ("initial_state", "method", *optional))
    kwargs = dict(data)
    if seed_override is not None:
        kwargs["master_seed"] = seed_override
    kwargs["lam"] = kwargs.pop("lambda")
    kwargs["grid"] = _build(TimeGrid, "config.grid: ", **_object(data["grid"], "config.grid", ("dt", "n_steps")))
    state = kwargs.pop("initial_state", "maximally-mixed")
    if state != "maximally-mixed":
        if not (isinstance(state, str) and state.endswith(".npy")):
            raise ConfigError(f"initial_state must be 'maximally-mixed' or a .npy file path, got {state!r}")
        kwargs["initial_state"] = _load_matrix(state, "initial_state", base)
    return kwargs


def _resolved(config, data: dict, *names) -> dict:
    """The resolved values of the shared keys and of the fields ``names``, read back from the checked config."""
    shared = {
        "lambda": config.lam, "grid": {"dt": config.grid.dt, "n_steps": config.grid.n_steps},
        "initial_state": data.get("initial_state", "maximally-mixed"),
    }
    return {**shared, **{name: getattr(config, name) for name in ("dim", "beta", "master_seed", "method", *names)}}


def parse_ensemble_config(data: dict, base: Path, seed_override=None):
    """Read a simulate/theory config; returns (ExperimentConfig, resolved dict)."""
    kwargs = _fields(data, base, seed_override, ("gamma_list", "n_run"), ("n_batch",))
    if not isinstance(data["gamma_list"], list) or not data["gamma_list"]:
        raise ConfigError("'gamma_list' must be a non-empty list of rates")
    config = _build(ExperimentConfig, **kwargs)
    tags = {}
    for g in config.gamma_list:
        other = tags.setdefault(gamma_tag(g), g)
        if other != g:
            raise ConfigError(f"gamma_list rates {other!r} and {g!r} share the file tag '{gamma_tag(g)}'")
    return config, {**_resolved(config, data, "n_run", "n_batch"), "gamma_list": list(config.gamma_list)}


def parse_general_config(data: dict, base: Path, seed_override=None):
    """Read a general-form config; returns (GeneralConfig, resolved dict)."""
    kwargs = _fields(data, base, seed_override, ("coupling_strength", "kernel"), ("n_draws", "coupling_file"))
    kdata = _object(kwargs.pop("kernel"), "config.kernel", ("kind",), ("tau_c", "c0"))
    kwargs["kernel"] = _build(CorrelationKernel, "config.kernel: ", **kdata)
    kwargs["strength"] = kwargs.pop("coupling_strength")
    coupling_file = kwargs.pop("coupling_file", None)
    if coupling_file is not None:
        kwargs["coupling"] = _load_matrix(coupling_file, "coupling_file", base)
    config = _build(GeneralConfig, **kwargs)
    resolved = {
        **_resolved(config, data, "n_draws"), "coupling_strength": config.strength, "coupling_file": coupling_file,
        # the kernel keys the config gives, and c0, which has a default
        "kernel": {key: getattr(config.kernel, key) for key in {"c0", *kdata}},
    }
    return config, resolved


# ---------------------------------------------------------------------------
# subcommands

def _resolve_threads(args) -> int:
    threads, source = args.threads, "--threads"
    if threads is None:
        source = THREADS_ENV
        env = os.environ.get(THREADS_ENV)
        if env is None:
            return 1
        try:
            threads = int(env)
        except ValueError:
            raise ConfigError(f"{THREADS_ENV} must be an integer, got {env!r}") from None
    if threads < 1:
        raise ConfigError(f"{source} must be >= 1, got {threads}")
    if threads > (os.cpu_count() or threads):
        print(f"warning: {source} = {threads} exceeds the {os.cpu_count()} CPU(s) of this machine; "
              f"the pool is capped at {os.cpu_count()} worker(s)", file=sys.stderr)
    return threads


def _parse(args, kind: str | None = None):
    """Load and parse ``--config``; returns (kind, config, resolved dict).

    A run command passes the ``kind`` of config it needs.
    """
    data, base = load_config(args.config)
    found = "general" if ("coupling_strength" in data or "kernel" in data) else "ensemble"
    if kind not in (None, found):
        raise ConfigError(
            f"{args.command} needs a config of kind {kind!r}, got {found!r} "
            "(a general config has 'coupling_strength'/'kernel' keys)"
        )
    parse = parse_general_config if found == "general" else parse_ensemble_config
    # theory --kernels samples nothing, so a --seed is no part of its config
    seed = None if getattr(args, "kernels", None) is not None else args.seed
    return (found, *parse(data, base, seed))


def _alpha_map(config: ExperimentConfig) -> dict:
    return {gamma_tag(g): a for g, a in config.alpha().items()}


def write_curves(out: Path, curves, fmt: str) -> dict:
    """Write (name, curve) pairs to ``out/<name>.<fmt>``; returns {name: filename}.

    A non-finite value is a numerical failure: the files this call has written are
    deleted and the error is raised before the failing curve's file is written.
    """
    files = {}
    for name, curve in curves:
        filename = f"{name}.{fmt}"
        if not np.isfinite(curve.values).all():
            for written in files.values():
                (out / written).unlink()
            raise FloatingPointError(f"{filename}: the curve has non-finite values")
        # looked up in this module, where perfbench/tracing.py wraps it
        write_curve(out / filename, curve, fmt)
        files[name] = filename
    return files


def _theory_curves(f_lambda, kernel, phi, theory, first):
    """(name, curve) of each theory file, made lazily so a difference curve is freed once written."""
    yield "f_lambda", f_lambda
    yield "f_bar", kernel
    for g in phi:
        tag = gamma_tag(g)
        yield f"phi_gamma_{tag}", phi[g]
        yield f"f_theory_gamma_{tag}", theory[g]
        yield f"first_order_gamma_{tag}", first[g]
        yield f"diff_theory_gamma_{tag}", difference_curve(theory[g], f_lambda)


def _clear_previous(out: Path) -> None:
    """Delete the files an earlier run's manifest in ``out`` lists, then that manifest.

    Only plain file names are deleted, so no manifest reaches outside ``out``; one
    that does not parse leaves the other files alone.
    """
    manifest = out / "manifest.json"
    try:
        names = [n for n in json.loads(manifest.read_text())["files"].values() if isinstance(n, str)]
    except (OSError, ValueError, LookupError, TypeError, AttributeError):
        names = []
    for name in names:
        if Path(name).name == name and (out / name).is_file():
            (out / name).unlink()
    manifest.unlink(missing_ok=True)


def _run(args, kind: str, produce) -> int:
    """Parse, make ``--out``, write what ``produce(config, threads)`` returns, print a summary.

    ``produce`` returns (lazy (name, curve) pairs, manifest extras, summary text).
    Once it has read its inputs, an earlier run's files in ``--out`` are deleted.
    """
    _, config, resolved = _parse(args, kind)
    threads = _resolve_threads(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    curves, extra, summary = produce(config, threads)
    _clear_previous(out)
    files = write_curves(out, curves, args.format)
    write_manifest(out, args.command, args.format, resolved, files, extra)
    elapsed = time.perf_counter() - t0
    print(f"{args.command}: {summary} in {elapsed:.1f} s -> {out} ({len(files) + 1} files)")
    return EXIT_OK


def cmd_simulate(args) -> int:
    def produce(config, threads):
        report = run_ensemble(config, n_jobs=threads)
        simulated = (
            (f"{prefix}_gamma_{gamma_tag(g)}", curve)
            for g, sim in report.simulated.items()
            for prefix, curve in (("f_sim", sim), ("diff_sim", difference_curve(sim, report.f_lambda)))
        )
        curves = _theory_curves(report.f_lambda, report.kernel, report.theory_phi, report.theory, report.first_order)
        summary = f"{config.n_batch * config.n_run} realizations (dim={config.dim}, threads={threads})"
        return itertools.chain(curves, simulated), {"alpha": _alpha_map(config)}, summary

    return _run(args, "ensemble", produce)


def cmd_theory(args) -> int:
    def produce(config, threads):
        if args.kernels is not None:
            if threads > 1:
                print("theory: --kernels runs in one process; --threads is ignored", file=sys.stderr)
            if args.seed is not None:
                print("theory: --kernels samples nothing; --seed is ignored", file=sys.stderr)
            kdir, fmt = Path(args.kernels), args.format
            f_lambda = read_curve(kdir / f"f_lambda.{fmt}")
            kernel = read_curve(kdir / f"f_bar.{fmt}")
            # the same grid for both, a kernel starting at 1
            _build(check_inputs, f"{kdir / f'f_bar.{fmt}'}: ", f=f_lambda, kernel=kernel)
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
        curves = _theory_curves(f_lambda, kernel, *theory_pipeline(f_lambda, kernel, config.gamma_list))
        return curves, {"alpha": _alpha_map(config), "kernel_source": source}, f"kernels from {source}"

    return _run(args, "ensemble", produce)


def cmd_general(args) -> int:
    def produce(config, threads):
        if threads > 1:
            print("general: coupling draws run serially; --threads is ignored", file=sys.stderr)
        f_general, reference, rate = run_general(config)
        # the draws' step matrices are freed: give their pages back before the curves are written
        _release_free_heap()
        summary = f"{config.n_draws} draw(s) (dim={config.dim}, method={config.method})"
        return [("f_general", f_general), ("f_rmt_reference", reference)], {"reduction_rate": rate}, summary

    return _run(args, "general", produce)


def cmd_validate_config(args) -> int:
    kind, _, resolved = _parse(args)
    _resolve_threads(args)
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

    def command(name, func, help, needs_out=True):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", required=True, help="config file or packaged preset name")
        p.add_argument("--seed", type=int, default=None, help="override master_seed")
        p.add_argument("--threads", type=int, default=None,
                       help=f"worker processes (default: ${THREADS_ENV} or 1)")
        if needs_out:
            p.add_argument("--out", default="echo_gfa_out", help="output directory")
            p.add_argument("--format", choices=("csv", "json"), default="csv",
                           help="curve file format")
        p.set_defaults(func=func)
        return p

    command("simulate", cmd_simulate, "ensemble simulation plus theory curves")
    command("theory", cmd_theory, "integral-equation curves only").add_argument(
        "--kernels", default=None, help="directory holding f_lambda/f_bar written by a previous run"
    )
    command("general", cmd_general, "Born-Markov generator with an explicit bath kernel")
    command("validate-config", cmd_validate_config, "validate a config and exit", needs_out=False)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every curve is checked for finiteness before it is written, so numpy's
        # floating-point warnings would only precede the exit-4 message
        with np.errstate(all="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        # numpy's message names the size and shape it could not allocate
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
