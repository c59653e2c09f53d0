"""Uniform time grids and complex-valued curves defined on them.

Everything downstream (echo dynamics, master-equation traces, the Volterra
solver, ensemble averages) exchanges data as a :class:`FidelityCurve` on a
shared :class:`TimeGrid`, so grid compatibility is checked in one place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = i * dt, i = 0 .. n_steps (n_steps + 1 points)."""

    dt: float
    n_steps: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be finite and positive, got {self.dt!r}")
        if isinstance(self.n_steps, (bool, np.bool_)) or int(self.n_steps) != self.n_steps or self.n_steps < 1:
            raise ValueError(f"n_steps must be an integer >= 1, got {self.n_steps!r}")
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
