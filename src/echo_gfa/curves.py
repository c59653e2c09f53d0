"""Uniform time grids and complex-valued curves defined on them.

Everything downstream (echo dynamics, master-equation traces, the Volterra
solver, ensemble averages) exchanges data as a :class:`FidelityCurve` on a
shared :class:`TimeGrid`, so grid compatibility is checked in one place, as
are integer and real config values (:func:`check_integer`, :func:`check_number`).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np


def check_integer(name: str, value, minimum: int) -> None:
    """Raise ValueError unless ``value`` is a Python or numpy integer, not a bool, >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_number(name: str, value) -> float:
    """``value`` as a float; raises ValueError unless it is a finite int or float, not a bool."""
    is_number = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    # NaN fails the comparison, and so do infinities and ints beyond the float range
    if is_number and abs(value) <= sys.float_info.max:
        return float(value)
    raise ValueError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = i * dt, i = 0 .. n_steps (n_steps + 1 points)."""

    dt: float
    n_steps: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "dt", check_number("dt", self.dt))
        if self.dt <= 0.0:
            raise ValueError(f"dt must be > 0, got {self.dt!r}")
        check_integer("n_steps", self.n_steps, 1)
        if not np.isfinite(self.t_max):
            raise ValueError(f"grid end n_steps * dt = {self.n_steps} * {self.dt!r} is not finite")

    def __len__(self) -> int:
        return self.n_steps + 1

    @property
    def t_max(self) -> float:
        return self.n_steps * self.dt

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


@dataclass(eq=False)
class FidelityCurve:
    """Complex curve on a uniform grid, optionally with batch standard errors.

    ``stderr_re``/``stderr_im`` are standard errors of the real and imaginary
    parts (e.g. over ensemble batches); they stay ``None`` for deterministic
    curves.
    """

    grid: TimeGrid
    values: np.ndarray
    stderr_re: np.ndarray | None = None
    stderr_im: np.ndarray | None = None

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (len(self.grid),):
            raise ValueError(
                f"values shape {values.shape} does not match grid length {len(self.grid)}"
            )
        self.values = values
        for name in ("stderr_re", "stderr_im"):
            err = getattr(self, name)
            if err is None:
                continue
            err = np.asarray(err, dtype=float)
            if err.shape != values.shape:
                raise ValueError(f"{name} shape {err.shape} does not match values")
            if np.any(err < 0.0) or not np.all(np.isfinite(err)):
                raise ValueError(f"{name} must be finite and non-negative")
            setattr(self, name, err)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def times(self) -> np.ndarray:
        return self.grid.times


def check_same_grid(a: FidelityCurve, b: FidelityCurve) -> TimeGrid:
    """Return the common grid of two curves, or raise if they differ."""
    if a.grid != b.grid:
        raise ValueError(f"curves live on different grids: {a.grid} vs {b.grid}")
    return a.grid
