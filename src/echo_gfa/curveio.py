"""Curve files (CSV or JSON, columns t, re_f, im_f, re_err, im_err) and the manifest.

A missing error column is written as zeros and read back as None.  Reading
raises :class:`ConfigError`: curve files are inputs of ``theory --kernels``.

CSV numbers are ``'%.16e' %``'s bytes, made by numpy a block of rows at a
time: each row starts as a template holding the separators and zeros, and
each number's digits are decided in double-double arithmetic and written as
a leading digit and two uint64 words of eight ASCII digits each.  A number
that arithmetic cannot decide exactly is formatted by ``'%.16e' %`` itself.
The time column is formatted once per grid and kept for the next curve on
the same grid.  The reader parses a file in the writer's form (that header,
``%.16e`` fields, every line ending in ``\r\n`` or every one in ``\n``)
the same way in reverse, handing a field it cannot decide exactly to
``float()``; any other file goes to ``np.loadtxt``.  Either way the values
are ``float()``'s and the errors the same.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import os
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
# rows formatted or parsed per block; bounds the row table (126 bytes a row)
# and the temporaries held in memory
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
_HIGH_NIBBLES = 0xF0F0F0F0F0F0F0F0


def _split(x):
    """Dekker's split: x = head + tail, each with at most 26 significant bits."""
    c = 134217729.0 * x  # 2**27 + 1
    head = c - (c - x)
    return head, x - head


def _times_pow10(x, x_lo, k):
    """(x + x_lo) * 10**(16 - p) as a double-double (hi, lo), with table index k = _P_MAX + p.

    Dekker's exact product of x and the table's hi, plus the cross terms
    x * lo and x_lo * hi (x_lo None: zero); the relative error is a few
    units of 2**-104.
    """
    scale_hi, scale_lo = _POW10_HI[k], _POW10_LO[k]
    x_head, x_tail = _split(x)
    s_head, s_tail = _split(scale_hi)
    hi = x * scale_hi
    lo = ((x_head * s_head - hi) + x_head * s_tail + x_tail * s_head) + x_tail * s_tail
    cross = x * scale_lo
    if x_lo is not None:
        cross += x_lo * scale_hi
    return hi, lo + cross


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


def _digits8(w):
    """The value of eight ASCII digits in each uint64 w (first digit in the lowest byte), and where w is digits."""
    ok = ((w & _HIGH_NIBBLES) == _ASCII_ZEROS) & (((w + 0x0606060606060606) & _HIGH_NIBBLES) == _ASCII_ZEROS)
    v = ((w & 0x0F0F0F0F0F0F0F0F) * 2561) >> 8  # pairs of digits in 16-bit lanes
    v = ((v & 0x00FF00FF00FF00FF) * 6553601) >> 16  # groups of four in 32-bit lanes
    v = ((v & 0x0000FFFF0000FFFF) * 42949672960001) >> 32
    return v.astype(np.int64), ok


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
    hi, lo = _times_pow10(a, None, _P_MAX + p)
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


def _parse_e16(block: bytes, crlf: bool, out: np.ndarray):
    """Parse complete CSV lines in the writer's form into the first rows of out; their count, or None if not in it.

    block ends in 8 spare bytes.  Every field must read
    ``[-]d.dddddddddddddddde(+|-)dd[d]`` and every line hold five of them and
    end in ``\\r\\n`` (crlf) or ``\\n``.  A field's 17-digit integer n and
    exponent p give n * 10**(p - 16) in double-double arithmetic, rounded
    once to the nearest double.  A field that this cannot decide exactly
    (within 1e-6 ulp of a rounding tie, or p - 16 outside the table, which
    is also every subnormal or overflowing result) is read by ``float()``,
    so every value is the one ``float()`` reads.
    """
    b = np.frombuffer(block, np.uint8)
    size = b.size - 8
    # the eight bytes from each offset, as one little-endian uint64
    words = np.ndarray((size + 1,), "<u8", b, 0, (1,))
    line_ends = np.flatnonzero(b == ord("\n"))
    commas = np.flatnonzero(b == ord(","))
    rows = line_ends.size
    if commas.size != 4 * rows or line_ends[-1] != size - 1:
        return None
    ends = np.empty((rows, len(_COLUMNS)), np.int64)
    ends[:, :-1] = commas.reshape(rows, -1)
    ends[:, -1] = line_ends
    ends = ends.ravel()
    if np.any(ends[1:] <= ends[:-1]):  # four commas in every line
        return None
    start = np.empty_like(ends)
    start[0] = 0
    start[1:] = ends[:-1] + 1
    if crlf:
        ends[len(_COLUMNS) - 1 :: len(_COLUMNS)] -= 1
        if not np.all(b[ends[len(_COLUMNS) - 1 :: len(_COLUMNS)]] == ord("\r")):
            return None
    neg = b[start] == ord("-")
    s = start + neg  # the first digit
    length = ends - s
    if not np.all((length == 22) | (length == 23)):
        return None
    three = length == 23
    # each block's arrays of 5 x 4096 fields are dropped once used, to bound memory
    del length
    high, high_ok = _digits8(words[s + 2])
    low, low_ok = _digits8(words[s + 10])
    lead, d1, d2, d3 = (b[s + j] - np.uint8(ord("0")) for j in (0, 20, 21, 22))
    exp_sign = b[s + 19]
    well_formed = (
        (b[s + 1] == ord(".")) & (b[s + 18] == ord("e")) & ((exp_sign == ord("+")) | (exp_sign == ord("-")))
        & high_ok & low_ok & (lead < 10) & (d1 < 10) & (d2 < 10) & (~three | (d3 < 10))
    )
    if not well_formed.all():
        return None
    del s, high_ok, low_ok, well_formed

    n = lead * np.int64(10**16) + high * 10**8 + low
    del high, low
    p = 10 * d1.astype(np.int64) + d2
    p = np.where(three, 10 * p + d3, p)
    # n * 10**(p - 16) = n * 10**(16 - q) with q = 32 - p: table index _P_MAX + q
    k = np.where(exp_sign == ord("-"), _P_MAX + 32 + p, _P_MAX + 32 - p)
    ok = (k >= 0) & (k <= 2 * _P_MAX)
    k[~ok] = _P_MAX
    n_hi = n.astype(np.float64)  # n < 10**17: n_hi + n_lo is exact
    hi, lo = _times_pow10(n_hi, (n - n_hi.astype(np.int64)).astype(np.float64), k)
    x = hi + lo
    err = (hi - x) + lo  # x + err is the double-double value, to its own rounding
    # half the gap to the neighbour on err's side is the rounding boundary
    gap = np.where(err < 0, x - np.nextafter(x, 0), np.spacing(x))
    ok &= (np.abs(err) < (0.5 - 1e-6) * gap) | (n == 0)  # a zero is exact
    np.negative(x, out=x, where=neg)
    for i in np.flatnonzero(~ok):
        x[i] = float(block[start[i] : ends[i]])
    out[:rows] = x.reshape(rows, len(_COLUMNS))
    return rows


def _read_csv_exact(path: Path):
    """The (rows, 5) numbers of a CSV curve file in the writer's form; None if it is not in it."""
    with open(path, "rb") as fh:
        header = fh.readline()
        if header not in (_HEADER + b"\r\n", _HEADER + b"\n"):
            return None
        crlf = header.endswith(b"\r\n")
        # a line of the writer's form has at least five 22-byte numbers, four commas and '\n'
        body = os.fstat(fh.fileno()).st_size - len(header)
        out = np.empty((body // (len(_COLUMNS) * 23), len(_COLUMNS)))
        rows, rest = 0, b""
        # about _CSV_BLOCK_ROWS lines a read, cut after the last complete one
        while chunk := fh.read(_CSV_BLOCK_ROWS * _ROW_DTYPE.itemsize):
            cut = chunk.rfind(b"\n") + 1
            if not cut:
                rest += chunk
                continue
            parsed = _parse_e16(b"".join((rest, memoryview(chunk)[:cut], bytes(8))), crlf, out[rows:])
            if parsed is None:
                return None
            rows += parsed
            rest = chunk[cut:]
    if rest or not rows:  # no line break after the last line, or no line
        return None
    return out[:rows]


def read_curve(path: Path) -> FidelityCurve:
    """Read a curve written by :func:`write_curve` (either format).

    A CSV file in the writer's own form is parsed exactly by numpy, a block
    of rows at a time; any other CSV file by ``np.loadtxt``.  Both give the
    values ``float()`` gives.
    """
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
    elif (arr := _read_csv_exact(path)) is None:
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
