"""Exact theory curves from a Volterra integral equation of the second kind.

Averaging the reduced master equation over the ensemble closes on two
inputs: the undamped fidelity amplitude f(t) and the memory kernel
fbar(t) = <tr M(t)> / dim.  The damped amplitude is f_Gamma = exp(-Gamma t)
phi(t) where

    phi(t) = f(t) + Gamma * int_0^t fbar(t - tau) phi(tau) dtau .

The solver discretises the convolution with the trapezoid rule on the shared
uniform grid and solves the resulting lower-triangular system by forward
substitution.  That recursion is O(n^2); for the long grids needed to hold
the trapezoid bias down (the scheme's error on the identity check grows as
Gamma^3 t dt^2 / 12) a divide-and-conquer variant pushes the cross-block
convolutions through FFTs, giving the *same* discrete solution in
O(n log^2 n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as sp_fft

from .curves import FidelityCurve, TimeGrid, check_same_grid

# grid size above which solve() switches to the divide-and-conquer path
_FAST_THRESHOLD = 1 << 15
# block size at which the divide-and-conquer recursion bottoms out
_BASE_BLOCK = 1 << 10


class StepSizeError(ValueError):
    """Gamma * dt / 2 >= 1: the implicit trapezoid update is not solvable."""


@dataclass(eq=False)
class VolterraProblem:
    """Inhomogeneity f, memory kernel fbar and damping rate Gamma on one grid."""

    f: FidelityCurve
    kernel: FidelityCurve
    gamma_rate: float

    def __post_init__(self) -> None:
        check_same_grid(self.f, self.kernel)
        if not (np.isfinite(self.gamma_rate) and self.gamma_rate >= 0.0):
            raise ValueError(f"gamma_rate must be >= 0, got {self.gamma_rate!r}")
        k0 = self.kernel.values[0]
        if abs(k0 - 1.0) > 1e-12:
            raise ValueError(f"kernel must start at 1 (normalised trace), got {k0!r}")

    @property
    def grid(self) -> TimeGrid:
        return self.f.grid


def _fftconvolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two complex arrays through one FFT pair.

    Bit-identical to ``scipy.signal.fftconvolve`` on complex inputs of length
    >= 2 (every caller's case), without the cost of importing
    ``scipy.signal``.  ``real=True`` sizes would not be bit-identical.
    """
    size = a.shape[0] + b.shape[0] - 1
    n = sp_fft.next_fast_len(size, real=False)
    return sp_fft.ifft(sp_fft.fft(a, n) * sp_fft.fft(b, n))[:size]


def convolve(a: FidelityCurve, b: FidelityCurve) -> FidelityCurve:
    """Trapezoid-rule convolution (a * b)(t_n) = dt * sum'' a_m b_{n-m}."""
    grid = check_same_grid(a, b)
    av, bv = a.values, b.values
    full = _fftconvolve(av, bv)[: len(av)]
    out = grid.dt * (full - 0.5 * av[0] * bv - 0.5 * bv[0] * av)
    out[0] = 0.0  # empty trapezoid sum; FFT round-off would leave ~1e-16 here
    return FidelityCurve(grid, out)


def check_rates(gammas, dt: float) -> np.ndarray:
    """Rates as a 1-D float array; each must be finite, >= 0 and satisfy Gamma dt / 2 < 1."""
    gammas = np.asarray(gammas, dtype=float)
    if gammas.ndim != 1:
        raise ValueError("gammas must be one-dimensional")
    if np.any(~np.isfinite(gammas)) or np.any(gammas < 0.0):
        raise ValueError(f"every gamma must be finite and >= 0, got {gammas.tolist()!r}")
    bad = 0.5 * gammas * dt
    if np.any(bad >= 1.0):
        worst = gammas[np.argmax(bad)]
        raise StepSizeError(
            f"gamma * dt / 2 = {np.max(bad):.3g} >= 1 for gamma = {worst:g}; "
            f"refine the grid (dt = {dt:g})"
        )
    return gammas


def _solve_direct(f: np.ndarray, kernel: np.ndarray, gammas: np.ndarray, dt: float) -> np.ndarray:
    """Forward substitution for (n,) or (r, n) rows of (f, kernel) against every Gamma.

    Gives (m, n) or (r, m, n); a row's values do not depend on its batch.
    """
    if f.ndim == 1:
        return _solve_direct(f[None], kernel[None], gammas, dt)[0]
    n = f.shape[1]
    h = gammas * dt  # (m,)
    denom = 1.0 - 0.5 * h
    krev = kernel[:, ::-1, None].copy()
    phi = np.empty((f.shape[0], gammas.shape[0], n), dtype=complex)
    phi[:, :, 0] = f[:, :1]
    half_k = 0.5 * kernel
    for i in range(1, n):
        # sum_{j=1}^{i-1} kernel[i-j] phi[..., j] as a stacked reversed-kernel product
        s = (phi[:, :, 1:i] @ krev[:, n - i : n - 1])[:, :, 0] if i > 1 else 0.0
        phi[:, :, i] = (f[:, i, None] + h * (half_k[:, i, None] * phi[:, :, 0] + s)) / denom
    return phi


def _solve_fast(f: np.ndarray, kernel: np.ndarray, gamma: float, dt: float) -> np.ndarray:
    """Same discrete solution as _solve_direct, via block recursion + FFT."""
    n = f.shape[0]
    h = gamma * dt
    c = 1.0 / (1.0 - 0.5 * h)
    kap = h * np.asarray(kernel, dtype=complex)
    phi = np.empty(n, dtype=complex)
    phi[0] = f[0]
    # running right-hand side: f plus every contribution from already-solved phi
    r = np.asarray(f, dtype=complex).copy()
    r[1:] += (0.5 * h) * kernel[1:] * phi[0]

    def recurse(lo: int, hi: int) -> None:
        if hi - lo <= _BASE_BLOCK:
            for i in range(lo, hi):
                s = phi[lo:i] @ kap[i - lo : 0 : -1] if i > lo else 0.0
                phi[i] = c * (r[i] + s)
            return
        mid = (lo + hi) // 2
        recurse(lo, mid)
        # fold phi[lo:mid] into the right-hand side of the upper half
        y = _fftconvolve(phi[lo:mid], kap[1 : hi - lo])
        r[mid:hi] += y[mid - lo - 1 : hi - lo - 1]
        recurse(mid, hi)

    if n > 1:
        recurse(1, n)
    return phi


def solve_rows(f: np.ndarray, kernel: np.ndarray, gammas, dt: float) -> np.ndarray:
    """phi for (n,) or (r, n) rows of (f, kernel) against every Gamma: (m, n) or (r, m, n).

    Long grids are solved row by row by block recursion, short ones all at once.
    """
    gammas = check_rates(gammas, dt)
    n = f.shape[-1]
    if n <= _FAST_THRESHOLD:
        return _solve_direct(f, kernel, gammas, dt)
    out = np.empty(f.shape[:-1] + gammas.shape + (n,), dtype=complex)
    for row in np.ndindex(f.shape[:-1]):
        for gi, g in enumerate(gammas):
            out[row + (gi,)] = f[row] if g == 0.0 else _solve_fast(f[row], kernel[row], g, dt)
    return out


def solve_many(f: FidelityCurve, kernel: FidelityCurve, gammas) -> np.ndarray:
    """phi rows for several Gamma values at once; see :func:`solve`."""
    grid = check_same_grid(f, kernel)
    return solve_rows(f.values, kernel.values, gammas, grid.dt)


def solve(problem: VolterraProblem) -> FidelityCurve:
    """Trapezoid solution phi of the integral equation on the problem grid.

    Gamma = 0 returns f unchanged.  Requires Gamma * dt / 2 < 1; accuracy on
    smooth inputs is O(dt^2).
    """
    phi = solve_many(problem.f, problem.kernel, [problem.gamma_rate])[0]
    return FidelityCurve(problem.grid, phi)


def generalized_fidelity(phi: FidelityCurve, gamma_rate: float) -> FidelityCurve:
    """Damped amplitude exp(-Gamma t) * phi(t).

    Error bars, if present, are scaled by the same real factor; that is
    exact for a deterministic pointwise product.
    """
    if not (np.isfinite(gamma_rate) and gamma_rate >= 0.0):
        raise ValueError(f"gamma_rate must be >= 0, got {gamma_rate!r}")
    damp = np.exp(-gamma_rate * phi.times)
    return FidelityCurve(
        phi.grid,
        damp * phi.values,
        stderr_re=None if phi.stderr_re is None else damp * phi.stderr_re,
        stderr_im=None if phi.stderr_im is None else damp * phi.stderr_im,
    )


def first_order(f: FidelityCurve, kernel: FidelityCurve, gamma_rate: float) -> FidelityCurve:
    """One Born iteration, exp(-Gamma t) (f + Gamma (fbar * f)); small-Gamma check."""
    if not (np.isfinite(gamma_rate) and gamma_rate >= 0.0):
        raise ValueError(f"gamma_rate must be >= 0, got {gamma_rate!r}")
    conv = convolve(kernel, f)
    values = np.exp(-gamma_rate * f.times) * (f.values + gamma_rate * conv.values)
    return FidelityCurve(f.grid, values)
