"""Compare two output directories file by file.

    python scripts/compare_outputs.py DIR_A DIR_B

For every file in either directory it prints whether the sha256 digests
match and, for curve files (CSV with a header row, or JSON objects of
numeric lists), the largest absolute difference of each numeric column,
max |a-b|, and that difference relative to the column's scale in DIR_A,
max |a-b| / max |a|.  A curve that grows large moves by a large absolute
amount even at rounding level, which only the relative figure shows.  The
real and imaginary columns of one complex curve (``re_f`` and ``im_f``)
share the scale max |re + i im|, so an imaginary part that is rounding
noise on a real curve is not measured against itself.  The last
line names the largest absolute and the largest relative difference
overall.  Exits 0 when every file is byte-identical, 1 otherwise.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np


def columns(path: Path) -> dict:
    """Numeric columns of a curve file by name; empty for anything else."""
    try:
        if path.suffix == ".csv":
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            return {name: np.array([float(r[i]) for r in rows[1:]]) for i, name in enumerate(rows[0])}
        if path.suffix == ".json":
            payload = json.loads(path.read_text())
            if isinstance(payload, dict):
                return {
                    k: np.asarray(v, dtype=float) for k, v in payload.items()
                    if isinstance(v, list) and all(isinstance(x, (int, float)) for x in v)
                }
    except (ValueError, IndexError, UnicodeDecodeError):
        pass
    return {}


def scale(cols: dict, col: str) -> float:
    """max |a| of a column; of the complex curve for one of a re_/im_ pair."""
    part, _, name = col.partition("_")
    if part in ("re", "im") and {f"re_{name}", f"im_{name}"} <= cols.keys():
        return float(np.max(np.hypot(cols[f"re_{name}"], cols[f"im_{name}"]), initial=0.0))
    return float(np.max(np.abs(cols[col]), initial=0.0))


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: compare_outputs.py DIR_A DIR_B", file=sys.stderr)
        return 2
    dir_a, dir_b = map(Path, argv)
    names = sorted(
        {p.relative_to(d).as_posix() for d in (dir_a, dir_b) for p in d.rglob("*") if p.is_file()}
    )
    same, worst, worst_rel = 0, (0.0, "none"), (0.0, "none")
    for name in names:
        a, b = dir_a / name, dir_b / name
        if not (a.is_file() and b.is_file()):
            print(f"{name}: only in {dir_a if a.is_file() else dir_b}")
            continue
        if digest(a) == digest(b):
            same += 1
            print(f"{name}: sha256 same")
            continue
        cols_a, cols_b = columns(a), columns(b)
        parts = []
        for col in cols_a:
            if col not in cols_b or cols_a[col].shape != cols_b[col].shape:
                parts.append(f"{col} shape differs")
                continue
            diff = float(np.max(np.abs(cols_a[col] - cols_b[col]), initial=0.0))
            size = scale(cols_a, col)
            # a column of zeros in DIR_A has no scale: any difference there is infinitely large
            rel = diff / size if size else (float("inf") if diff else 0.0)
            parts.append(f"{col} {diff:.3g} (rel {rel:.3g})")
            if diff > worst[0]:
                worst = (diff, f"{name}:{col}")
            if rel > worst_rel[0]:
                worst_rel = (rel, f"{name}:{col}")
        print(f"{name}: sha256 differs" + (" | max |a-b| " + ", ".join(parts) if parts else ""))
    print(
        f"{same}/{len(names)} files identical; largest difference {worst[0]:.3g} ({worst[1]}), "
        f"largest relative {worst_rel[0]:.3g} ({worst_rel[1]})"
    )
    return 0 if same == len(names) else 1


if __name__ == "__main__":
    raise SystemExit(main())
