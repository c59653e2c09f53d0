"""Curve files (CSV or JSON, columns t, re_f, im_f, re_err, im_err) and the manifest.

A missing error column is written as zeros and read back as None.  Reading
raises :class:`ConfigError`: curve files are inputs of ``theory --kernels``.

CSV numbers are ``'%.16e' %``'s bytes, made by numpy a block of rows at a
time: each row starts as a template holding the separators and zeros, and
each number's digits are decided in double-double arithmetic and written as
a leading digit and two uint64 words of eight ASCII digits each.  A number
that arithmetic cannot decide exactly is formatted by ``'%.16e' %`` itself.
The time column is formatted once per grid and kept for the next curve on
the same grid.  Every CSV file is read by ``np.loadtxt`` after its header is
checked, so its values are the ones ``float()`` gives.
"""

from __future__ import annotations

import csv
import functools
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
_HEADER = ",".join(_COLUMNS).encode()
# 17 significant digits: lossless round-trip for binary64
_CSV_NUMBER = "%.16e"
# rows formatted per block; bounds the row table (126 bytes a row) and the
# temporaries held in memory
_CSV_BLOCK_ROWS = 4096
# bytes of one number in the row table: sign, 17 digits, '.', 'e', exponent
# sign and two or three exponent digits; unused bytes are NUL
_FIELD = 24
# the fields of one number: the 16 digits after the point are two groups of
# eight ASCII digits, each one little-endian uint64 with its first digit in
# the lowest byte; every byte belongs to a field
_FIELD_DTYPE = np.dtype({
    "names": ["sign", "lead", "dot", "hi", "lo", "e", "exp"],
    "formats": ["u1", "u1", "u1", "<u8", "<u8", "u1", "<u4"],
    "offsets": [0, 1, 2, 3, 11, 19, 20],
    "itemsize": _FIELD,
})
# one CSV row: five numbers, each followed by ',' and the last by '\r\n'
_ROW_DTYPE = np.dtype({
    "names": list(_COLUMNS),
    "formats": [_FIELD_DTYPE] * len(_COLUMNS),
    "offsets": [i * (_FIELD + 1) for i in range(len(_COLUMNS))],
    "itemsize": len(_COLUMNS) * (_FIELD + 1) + 1,
})
# zero in every field, with the separators: a missing error column stays so
_ZERO_FIELD = b"\0" + (_CSV_NUMBER % 0.0).encode() + b"\0"
_ROW_TEMPLATE = b",".join([_ZERO_FIELD] * len(_COLUMNS)) + b"\r\n"

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
# exponent bytes of p = -_P_MAX ... _P_MAX as one uint32 each: sign and two
# or three digits, NUL-padded
_EXPONENTS = np.frombuffer(
    "".join(f"{p:+03d}".ljust(4, "\0") for p in range(-_P_MAX, _P_MAX + 1)).encode(), "<u4"
)
_ASCII_ZEROS = 0x3030303030303030


def _split(x):
    """Dekker's split: x = head + tail, each with at most 26 significant bits."""
    c = 134217729.0 * x  # 2**27 + 1
    head = c - (c - x)
    return head, x - head


def _times_pow10(x, k):
    """x * 10**(16 - p) as a double-double (hi, lo), with table index k = _P_MAX + p.

    Dekker's exact product of x and the table's hi, plus the cross term
    x * lo; the relative error is a few units of 2**-104.
    """
    scale_hi, scale_lo = _POW10_HI[k], _POW10_LO[k]
    x_head, x_tail = _split(x)
    s_head, s_tail = _split(scale_hi)
    hi = x * scale_hi
    lo = ((x_head * s_head - hi) + x_head * s_tail + x_tail * s_head) + x_tail * s_tail
    return hi, lo + x * scale_lo


def _ascii8(v):
    """The eight ASCII digits of each int 0 <= v < 10**8 as a uint64, first digit in the lowest byte.

    Three multiply-shift-mask steps split v into two groups of four digits
    in 32-bit lanes, each of those into two of two in 16-bit lanes, and
    each of those into single digits in bytes; the multipliers are
    ceil(2**s / d), exact for these ranges.
    """
    v = v.astype(np.uint64)
    q = (v * 109951163) >> 40  # v // 10**4
    v = q | ((v - q * 10000) << 32)
    q = ((v * 10486) >> 20) & 0x0000007F0000007F  # each lane // 100
    v = q | ((v - q * 100) << 16)
    q = ((v * 103) >> 10) & 0x000F000F000F000F  # each lane // 10
    v = q | ((v - q * 10) << 8)
    return v | _ASCII_ZEROS


def _format_e16(x: np.ndarray, out: np.ndarray) -> None:
    """Write the bytes of ``'%.16e' % v`` for each v of x into out, an array of _FIELD_DTYPE.

    out must already hold the '.' and the 'e'.  |v| is scaled by
    10**(16 - p), where p = floor(log10|v|), in double-double arithmetic and
    rounded to the 17-digit integer n, whose last 16 digits are packed eight
    to a uint64.  A value this cannot decide exactly (within 1e-6 of a
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
    hi, lo = _times_pow10(a, _P_MAX + p)
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

    lead = n // 10**16
    n -= lead * 10**16
    high = n // 10**8
    out["sign"] = np.where(np.signbit(x), ord("-"), 0)
    out["lead"] = lead + ord("0")
    out["hi"] = _ascii8(high)
    out["lo"] = _ascii8(n - high * 10**8)
    out["exp"] = _EXPONENTS[_P_MAX + p]
    for i in np.flatnonzero(~ok):
        out[i] = np.frombuffer((_CSV_NUMBER % x[i]).encode().ljust(_FIELD, b"\0"), _FIELD_DTYPE)[0]


# one entry: the time column of the last grid written, 24 bytes a point; a
# run writes every curve on one grid, and this formats its times once
@functools.lru_cache(maxsize=1)
def _time_fields(grid: TimeGrid) -> np.ndarray:
    fields = np.frombuffer(bytearray(_ZERO_FIELD) * len(grid), _FIELD_DTYPE)
    times = grid.times
    for lo in range(0, len(grid), _CSV_BLOCK_ROWS):
        _format_e16(times[lo : lo + _CSV_BLOCK_ROWS], fields[lo : lo + _CSV_BLOCK_ROWS])
    fields.flags.writeable = False
    return fields


def gamma_tag(g: float) -> str:
    return f"{g:g}"


def write_curve(path: Path, curve: FidelityCurve, fmt: str) -> None:
    """Write a curve as CSV (``\\r\\n`` rows, ``%.16e`` numbers) or JSON."""
    values = curve.values
    columns = [curve.times, values.real, values.imag, curve.stderr_re, curve.stderr_im]
    if fmt == "csv":
        times = _time_fields(curve.grid)
        with open(path, "wb") as fh:
            fh.write(_HEADER + b"\r\n")
            for lo in range(0, len(curve), _CSV_BLOCK_ROWS):
                rows = min(_CSV_BLOCK_ROWS, len(curve) - lo)
                # each row starts as the template; its NUL bytes are dropped
                buf = bytearray(_ROW_TEMPLATE) * rows
                table = np.frombuffer(buf, _ROW_DTYPE)
                table["t"] = times[lo : lo + rows]
                for name, col in zip(_COLUMNS[1:], columns[1:]):
                    if col is not None:
                        _format_e16(col[lo : lo + rows], table[name])
                fh.write(buf.translate(None, b"\0"))
    else:
        zeros = np.zeros(len(curve))
        payload = {name: (zeros if col is None else col).tolist() for name, col in zip(_COLUMNS, columns)}
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")


def _json_columns(path: Path, payload) -> np.ndarray:
    """The (rows, 5) numbers of a JSON curve file: an object of the five columns, each a list of numbers."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: expected an object of columns, got {type(payload).__name__}")
    for name, col in payload.items():
        if name not in _COLUMNS:
            raise ConfigError(f"{path}: unknown column {name!r}, expected {', '.join(_COLUMNS)}")
        # json.load gives a number as an int or a float; numpy would also take "1" or true
        if not isinstance(col, list) or not {type(v) for v in col} <= {int, float}:
            raise ConfigError(f"{path}: column {name!r} must be a list of numbers")
    try:
        # one row per grid point, as from the CSV branch
        return np.stack([np.asarray(payload[name], dtype=float) for name in _COLUMNS], axis=-1)
    except KeyError as exc:
        raise ConfigError(f"{path}: missing column {exc}") from exc
    except (OverflowError, ValueError) as exc:  # columns of different lengths, an int beyond float
        raise ConfigError(f"{path}: {exc}") from exc


def read_curve(path: Path) -> FidelityCurve:
    """Read a curve written by :func:`write_curve` (either format).

    A CSV file's header is checked and its rows read by ``np.loadtxt``,
    which gives the values ``float()`` gives.
    """
    if not path.is_file():
        raise ConfigError(f"missing kernel input: {path}")
    if path.suffix == ".json":
        with open(path) as fh:
            try:
                payload = json.load(fh)
            except ValueError as exc:
                raise ConfigError(f"{path}: {exc}") from exc
        arr = _json_columns(path, payload)
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
    if arr.shape[0] < 2:
        raise ConfigError(f"{path}: need at least two grid points")
    if arr.shape[1] != len(_COLUMNS):
        raise ConfigError(f"{path}: expected {len(_COLUMNS)} columns, got {arr.shape[1]}")
    t, re_f, im_f, re_err, im_err = arr.T
    values = re_f.astype(complex)
    values.imag = im_f  # re_f + 1j * im_f would turn -0.0 + 0j into 0j
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
