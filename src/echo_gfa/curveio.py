"""Curve files (CSV or JSON, columns t, re_f, im_f, re_err, im_err) and the manifest.

A missing error column is written as zeros and read back as None.  Reading
raises :class:`ConfigError`: curve files are inputs of ``theory --kernels``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .curves import FidelityCurve, TimeGrid


class ConfigError(ValueError):
    """Invalid or missing configuration."""


def _build(cls, where: str = "", **kwargs):
    """Construct a checked dataclass, or run a check; its ValueError becomes a ConfigError."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}{exc}") from exc


_COLUMNS = ("t", "re_f", "im_f", "re_err", "im_err")
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
    columns = [curve.times, values.real, values.imag, curve.stderr_re, curve.stderr_im]
    if fmt == "csv":
        with open(path, "wb") as fh:
            fh.write(",".join(_COLUMNS).encode() + b"\r\n")
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
        payload = {name: (zeros if col is None else col).tolist() for name, col in zip(_COLUMNS, columns)}
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")


def read_curve(path: Path) -> FidelityCurve:
    """Read a curve written by :func:`write_curve` (either format)."""
    if not path.is_file():
        raise ConfigError(f"missing kernel input: {path}")
    if path.suffix == ".json":
        try:
            with open(path) as fh:
                payload = json.load(fh)
            # one row per grid point, as from the CSV branch
            arr = np.stack([np.asarray(payload[name], dtype=float) for name in _COLUMNS], axis=-1)
        except KeyError as exc:
            raise ConfigError(f"{path}: missing column {exc}") from exc
        except (TypeError, ValueError) as exc:  # bad JSON, not an object, not numbers
            raise ConfigError(f"{path}: {exc}") from exc
    else:
        with open(path, newline="") as fh:
            header = next(csv.reader([fh.readline()]))
            if header != list(_COLUMNS):
                raise ConfigError(f"{path}: unexpected header {header!r}")
            with warnings.catch_warnings():
                # an empty body is reported below, not as a numpy warning
                warnings.simplefilter("ignore", UserWarning)
                try:
                    arr = np.loadtxt(fh, dtype=float, delimiter=",", comments=None, ndmin=2)
                except ValueError as exc:
                    raise ConfigError(f"{path}: {exc}") from exc
    if arr.ndim != 2:
        raise ConfigError(f"{path}: each column must be a flat list of numbers, got shape {arr.shape[:-1]}")
    if arr.shape[0] < 2:
        raise ConfigError(f"{path}: need at least two grid points")
    if arr.shape[1] != len(_COLUMNS):
        raise ConfigError(f"{path}: expected {len(_COLUMNS)} columns, got {arr.shape[1]}")
    t, re_f, im_f, re_err, im_err = arr.T
    values = re_f + 1j * im_f
    if t[0] != 0.0:
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


def write_manifest(out_dir: Path, command: str, fmt: str, resolved: dict, files: dict, extra: dict) -> None:
    """Write ``manifest.json``: the resolved config, its hash, the files and ``extra``."""
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    manifest = {
        "command": command,
        "format": fmt,
        "config": resolved,
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest(),
        "files": files,
        "package_version": __version__,
        **extra,
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
