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
from .harness import (
    ExperimentConfig,
    GeneralConfig,
    batch_statistics,
    difference_curve,
    run_ensemble,
    theory_pipeline,
)
from .master import CorrelationKernel, general_generator, propagate, rmt_generator, trace_curve
from .rmt import EnsembleConfig, build_realization, sample_gaussian, stream
from .volterra import VolterraProblem

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


def _as_int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{key}' must be an integer, got {value!r}")
    return value


def _as_float(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{key}' must be a number, got {value!r}")
    return float(value)


def _build(cls, where: str = "", **kwargs):
    """Construct a checked dataclass; its ValueError becomes a ConfigError."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}{exc}") from exc


def _parse_grid(data) -> TimeGrid:
    if not isinstance(data, dict):
        raise ConfigError("config: 'grid' must be an object with dt and n_steps")
    _no_unknown(data, ("dt", "n_steps"), "config.grid")
    dt = _as_float(_require(data, "dt", "config.grid"), "dt")
    n_steps = _as_int(_require(data, "n_steps", "config.grid"), "n_steps")
    return _build(TimeGrid, dt=dt, n_steps=n_steps)


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


def _parse_initial_state(value, base: Path):
    if value == "maximally-mixed":
        return None
    if isinstance(value, str) and value.endswith(".npy"):
        return _load_matrix(value, "initial_state", base)
    raise ConfigError(
        f"initial_state must be 'maximally-mixed' or a .npy file path, got {value!r}"
    )


_SHARED_KEYS = ("dim", "beta", "master_seed", "lambda", "grid", "initial_state")


def _read_shared(data: dict, base: Path, seed_override):
    """Read the keys both config kinds share, checking JSON types only.

    Values are checked by the config dataclass they are passed to.  Returns
    (its keyword arguments, the resolved dict).
    """
    dim = _as_int(_require(data, "dim", "config"), "dim")
    beta = _as_int(_require(data, "beta", "config"), "beta")
    master_seed = _as_int(_require(data, "master_seed", "config"), "master_seed")
    if seed_override is not None:
        master_seed = _as_int(seed_override, "seed")
    lam = _as_float(_require(data, "lambda", "config"), "lambda")
    grid = _parse_grid(_require(data, "grid", "config"))
    state_token = data.get("initial_state", "maximally-mixed")
    kwargs = {
        "dim": dim, "beta": beta, "master_seed": master_seed, "lam": lam, "grid": grid,
        "initial_state": _parse_initial_state(state_token, base),
    }
    resolved = {
        "dim": dim, "beta": beta, "master_seed": master_seed, "lambda": lam,
        "grid": {"dt": grid.dt, "n_steps": grid.n_steps}, "initial_state": state_token,
    }
    return kwargs, resolved


_ENSEMBLE_KEYS = _SHARED_KEYS + ("gamma_list", "n_run", "n_batch", "method")
_GENERAL_KEYS = _SHARED_KEYS + ("coupling_strength", "kernel", "n_draws", "method", "coupling_file")


def parse_ensemble_config(data: dict, base: Path, seed_override=None):
    """Read a simulate/theory config; returns (ExperimentConfig, resolved dict)."""
    _no_unknown(data, _ENSEMBLE_KEYS, "config")
    shared, resolved = _read_shared(data, base, seed_override)
    raw_gammas = _require(data, "gamma_list", "config")
    if not isinstance(raw_gammas, list) or not raw_gammas:
        raise ConfigError("'gamma_list' must be a non-empty list of rates")
    gammas = [_as_float(g, "gamma_list entry") for g in raw_gammas]
    n_run = _as_int(_require(data, "n_run", "config"), "n_run")
    n_batch = _as_int(data.get("n_batch", 3), "n_batch")
    method = data.get("method", "auto")
    config = _build(
        ExperimentConfig, **shared, gamma_list=tuple(gammas),
        n_run=n_run, n_batch=n_batch, method=method,
    )
    tags = {}
    for g in config.gamma_list:
        other = tags.setdefault(gamma_tag(g), g)
        if other != g:
            raise ConfigError(f"gamma_list rates {other!r} and {g!r} share the file tag '{gamma_tag(g)}'")
    resolved.update(gamma_list=gammas, n_run=n_run, n_batch=n_batch, method=method)
    return config, resolved


def parse_general_config(data: dict, base: Path, seed_override=None):
    """Read a general-form config; returns (GeneralConfig, resolved dict)."""
    _no_unknown(data, _GENERAL_KEYS, "config")
    shared, resolved = _read_shared(data, base, seed_override)
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
    kernel = _build(CorrelationKernel, "config.kernel: ", **resolved_kernel)

    n_draws = _as_int(data.get("n_draws", 1), "n_draws")
    method = data.get("method", "superoperator")
    coupling_file = data.get("coupling_file")
    coupling = None if coupling_file is None else _load_matrix(coupling_file, "coupling_file", base)
    config = _build(
        GeneralConfig, **shared, strength=strength, kernel=kernel,
        n_draws=n_draws, method=method, coupling=coupling,
    )
    resolved.update(
        coupling_strength=strength, kernel=resolved_kernel, n_draws=n_draws,
        method=method, coupling_file=coupling_file,
    )
    return config, resolved


def config_kind(data: dict) -> str:
    return "general" if ("coupling_strength" in data or "kernel" in data) else "ensemble"


# ---------------------------------------------------------------------------
# curve serialisation

_CSV_HEADER = "t,re_f,im_f,re_err,im_err"
# 17 significant digits: lossless round-trip for binary64
_CSV_NUMBER = "%.16e"
# rows formatted per write; bounds the row table (126 bytes a row) and the
# formatter's temporaries held in memory
_CSV_BLOCK_ROWS = 4096
# bytes of one number in the row table: sign, 17 digits, '.', 'e', exponent
# sign and two or three exponent digits; unused bytes are NUL
_FIELD = 24
# a missing error column is written as zeros
_ZERO_FIELD = np.frombuffer((_CSV_NUMBER % 0.0).encode().ljust(_FIELD, b"\0"), np.uint8)

# decimal exponents floor(log10|x|) the vectorised formatter decides; the
# rest, subnormals included, take the per-value fallback
_P_MAX = 230


def _pow10_table():
    """10**(16 - p) for p = -_P_MAX ... _P_MAX as hi + lo pairs of doubles.

    hi is the power correctly rounded and lo the remainder correctly
    rounded, both from int arithmetic.
    """
    hi, lo = [], []
    for k in range(16 + _P_MAX, 15 - _P_MAX, -1):
        if k >= 0:
            h = float(10**k)
            hi.append(h)
            lo.append(float(10**k - int(h)))
        else:
            q = 10**-k
            h = 1 / q
            a, b = h.as_integer_ratio()
            hi.append(h)
            lo.append((b - a * q) / (b * q))
    return np.array(hi), np.array(lo)


_POW10_HI, _POW10_LO = _pow10_table()
# exponent bytes of p = -_P_MAX ... _P_MAX: sign and two or three digits
_EXPONENTS = np.frombuffer(
    "".join(f"{p:+03d}".ljust(4, "\0") for p in range(-_P_MAX, _P_MAX + 1)).encode(), np.uint8
).reshape(-1, 4).T.copy()


def _split(x):
    """Dekker's split: x = head + tail, each with at most 26 significant bits."""
    c = 134217729.0 * x  # 2**27 + 1
    head = c - (c - x)
    return head, x - head


def _format_e16(x: np.ndarray, out: np.ndarray) -> None:
    """Write the bytes of ``'%.16e' % v`` for each v of x into the columns of out.

    out is a ``(_FIELD, len(x))`` uint8 array; every byte is written, NUL
    where a number has none.  |v| is scaled by 10**(16 - p), where
    p = floor(log10|v|), in double-double arithmetic (Dekker's exact product
    with the table's hi, plus its lo term) and rounded to the 17-digit
    integer n.  A value this cannot decide exactly (within 1e-6 of a
    rounding tie, n outside [1e16, 1e17), |p| > _P_MAX, or not finite) is
    formatted by ``'%.16e' %`` itself, so every byte matches it.
    """
    a = np.abs(x)
    zero = a == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.floor(np.log10(a))
    ok = np.abs(p) <= _P_MAX  # false for 0, subnormals, inf and nan
    a = np.where(ok, a, 1.0)
    p = np.where(ok, p, 0.0).astype(np.int64)
    scale_hi, scale_lo = _POW10_HI[_P_MAX + p], _POW10_LO[_P_MAX + p]
    a_head, a_tail = _split(a)
    s_head, s_tail = _split(scale_hi)
    hi = a * scale_hi
    lo = ((a_head * s_head - hi) + a_head * s_tail + a_tail * s_head) + a_tail * s_tail + a * scale_lo
    whole = np.floor(lo)
    frac = lo - whole
    # hi >= 2**53 is an integer, so floor(hi + lo) = hi + whole; a smaller
    # hi gives n < 1e16, which is rejected
    n = hi.astype(np.int64) + whole.astype(np.int64)
    ok &= (n >= 10**16) & (np.abs(frac - 0.5) > 1e-6)
    n += frac > 0.5
    # a log10 one ulp off near a power of ten leaves n outside [1e16, 1e17)
    ok &= n < 10**17
    n[zero] = 0
    ok |= zero

    out[0] = np.where(np.signbit(x), ord("-"), 0)
    for row in range(18, 2, -1):
        q = n // 10
        out[row] = n - 10 * q + ord("0")
        n = q
    out[1] = n + ord("0")
    out[2] = ord(".")
    out[19] = ord("e")
    # every index is in range; "wrap" writes out directly, "raise" buffers it
    np.take(_EXPONENTS, _P_MAX + p, axis=1, out=out[20:], mode="wrap")
    for i in np.flatnonzero(~ok):
        text = (_CSV_NUMBER % x[i]).encode()
        out[:, i] = 0
        out[: len(text), i] = np.frombuffer(text, np.uint8)


def gamma_tag(g: float) -> str:
    return f"{g:g}"


def write_curve(path: Path, curve: FidelityCurve, fmt: str) -> None:
    """Write a curve as CSV (``\\r\\n`` rows, ``%.16e`` numbers) or JSON."""
    values = curve.values
    if fmt == "csv":
        columns = [curve.times, values.real, values.imag, curve.stderr_re, curve.stderr_im]
        with open(path, "wb") as fh:
            fh.write(_CSV_HEADER.encode() + b"\r\n")
            for lo in range(0, len(curve), _CSV_BLOCK_ROWS):
                rows = min(_CSV_BLOCK_ROWS, len(curve) - lo)
                # byte j of every row in table[j]: five fields, each followed
                # by ',' and the last by '\r\n'; NUL bytes are dropped
                table = np.empty((len(columns) * (_FIELD + 1) + 1, rows), np.uint8)
                slots = table[:-1].reshape(len(columns), _FIELD + 1, rows)
                slots[:, _FIELD] = ord(",")
                table[-2:] = [[ord("\r")], [ord("\n")]]
                for slot, col in zip(slots, columns):
                    if col is None:
                        slot[:_FIELD] = _ZERO_FIELD[:, None]
                    else:
                        _format_e16(col[lo : lo + rows], slot[:_FIELD])
                fh.write(table.T.tobytes().replace(b"\0", b""))
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
        try:
            with open(path) as fh:
                payload = json.load(fh)
            t = np.asarray(payload["t"], dtype=float)
            values = np.asarray(payload["re_f"], dtype=float) + 1j * np.asarray(payload["im_f"], dtype=float)
            re_err = np.asarray(payload["re_err"], dtype=float)
            im_err = np.asarray(payload["im_err"], dtype=float)
        except KeyError as exc:
            raise ConfigError(f"{path}: missing column {exc}") from exc
        except (TypeError, ValueError) as exc:  # bad JSON, not an object, not numbers
            raise ConfigError(f"{path}: {exc}") from exc
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
    grid = _build(TimeGrid, f"{path}: ", dt=t[1], n_steps=t.shape[0] - 1)
    if not np.allclose(t, grid.times, rtol=0.0, atol=1e-9 * max(1.0, abs(t[-1]))):
        raise ConfigError(f"{path}: time column is not a uniform grid")
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{path}: curve values must be finite")
    stderr_re = re_err if np.any(re_err) else None
    stderr_im = im_err if np.any(im_err) else None
    return _build(
        FidelityCurve, f"{path}: ", grid=grid, values=values, stderr_re=stderr_re, stderr_im=stderr_im
    )


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
        print(f"warning: {source} = {threads} exceeds the {os.cpu_count()} CPU(s) of this machine", file=sys.stderr)
    return threads


def _parse(args, kind: str | None = None):
    """Load and parse ``--config``; returns (kind, config, resolved dict).

    A run command passes the ``kind`` of config it needs.
    """
    data, base = load_config(args.config)
    found = config_kind(data)
    if kind not in (None, found):
        raise ConfigError(
            f"{args.command} needs a config of kind {kind!r}, got {found!r} "
            "(a general config has 'coupling_strength'/'kernel' keys)"
        )
    parse = parse_general_config if found == "general" else parse_ensemble_config
    return (found, *parse(data, base, args.seed))


def _prepare_out(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _alpha_map(config: ExperimentConfig) -> dict:
    return {gamma_tag(g): a for g, a in config.alpha().items()}


def cmd_simulate(args) -> int:
    _, config, resolved = _parse(args, "ensemble")
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
        f"simulate: {n_total} realizations (dim={config.dim}, threads={threads}) "
        f"in {elapsed:.1f} s -> {out} ({len(files) + 1} files)"
    )
    return EXIT_OK


def cmd_theory(args) -> int:
    _, config, resolved = _parse(args, "ensemble")
    threads = _resolve_threads(args)
    out = _prepare_out(args)
    fmt = args.format
    ext = "csv" if fmt == "csv" else "json"

    t0 = time.perf_counter()
    if args.kernels is not None:
        kdir = Path(args.kernels)
        f_lambda = read_curve(kdir / f"f_lambda.{ext}")
        kernel = read_curve(kdir / f"f_bar.{ext}")
        # the same grid for both, a kernel starting at 1
        _build(VolterraProblem, f"{kdir / f'f_bar.{ext}'}: ", f=f_lambda, kernel=kernel, gamma_rate=0.0)
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
    _, config, resolved = _parse(args, "general")
    if _resolve_threads(args) > 1:
        # --threads is accepted for interface symmetry only
        print("general: coupling draws run serially; --threads is ignored", file=sys.stderr)
    out = _prepare_out(args)

    dim, beta, grid = config.dim, config.beta, config.grid
    env = build_realization(EnsembleConfig(dim, beta, config.master_seed))
    h_zero = np.diag(env.env_levels).astype(complex)
    h_lam = h_zero + config.lam * env.perturbation
    rho0 = config.initial_state
    if rho0 is None:
        rho0 = np.eye(dim, dtype=complex) / dim

    t0 = time.perf_counter()
    traces = np.empty((config.n_draws, len(grid)), dtype=complex)
    for draw in range(config.n_draws):
        if config.coupling is not None:
            coupling = config.coupling
        else:
            draw_cfg = EnsembleConfig(dim, beta, config.master_seed, draw)
            coupling = sample_gaussian(dim, beta, stream(draw_cfg, "coupling"))
        gen = general_generator(h_lam, h_zero, coupling, config.kernel, config.strength)
        traj = propagate(gen, rho0, grid, method=config.method)
        traces[draw] = trace_curve(traj).values

    mean, stderr_re, stderr_im = batch_statistics(traces)
    f_general = FidelityCurve(grid, mean, stderr_re=stderr_re, stderr_im=stderr_im)

    # reduced-equation reference; exact reduction rate for a delta kernel
    rate = config.strength ** 2 * dim * config.kernel.c0
    ref_gen = rmt_generator(h_lam, h_zero, rate)
    reference = trace_curve(propagate(ref_gen, rho0, grid, method=config.method))

    files = write_curves(out, [("f_general", f_general), ("f_rmt_reference", reference)], args.format)
    write_manifest(out, "general", args.format, resolved, files, {"reduction_rate": rate})
    elapsed = time.perf_counter() - t0
    print(
        f"general: {config.n_draws} draw(s) (dim={dim}, method={config.method}) "
        f"in {elapsed:.1f} s -> {out} ({len(files) + 1} files)"
    )
    return EXIT_OK


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
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
