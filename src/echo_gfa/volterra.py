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
Gamma^3 t dt^2 / 12) a divide-and-conquer variant gives the *same* discrete
solution in O(n log^2 n).  It splits the grid in halves down to base blocks,
solves each base block by one triangular solve against a Toeplitz matrix
built once, and folds each solved half into the next by one FFT middle
product: a cyclic convolution just long enough that the outputs it needs do
not wrap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as sp_fft
from scipy.linalg import solve_triangular

from .curves import FidelityCurve, TimeGrid, check_same_grid

# grid size above which solve() switches to the divide-and-conquer path
_FAST_THRESHOLD = 1 << 11
# block size at which the divide-and-conquer recursion bottoms out
_BASE_BLOCK = 1 << 7


class StepSizeError(ValueError):
    """Gamma * dt / 2 >= 1: the implicit trapezoid update is not solvable."""


@dataclass(eq=False)
class VolterraProblem:
    """Inhomogeneity f, memory kernel fbar and damping rate Gamma on one grid."""

    f: FidelityCurve
    kernel: FidelityCurve
    gamma_rate: float

    def __post_init__(self) -> None:
        check_inputs(self.f, self.kernel)
        check_rates([self.gamma_rate], self.grid.dt)

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


def check_inputs(f: FidelityCurve, kernel: FidelityCurve) -> TimeGrid:
    """The common grid of f and kernel; the kernel must start at 1 (normalised trace)."""
    grid = check_same_grid(f, kernel)
    k0 = kernel.values[0]
    if abs(k0 - 1.0) > 1e-12:
        raise ValueError(f"kernel must start at 1 (normalised trace), got {k0!r}")
    return grid


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

    Gives (m, n) or (r, m, n).  Each (row, Gamma) pair takes its own dot product per
    step, so a row's values do not depend on its batch, of rows or of rates.
    """
    n = f.shape[-1]
    h = gammas[:, None] * dt  # (m, 1)
    denom = 1.0 - 0.5 * h
    krev = kernel[..., None, ::-1, None].copy()  # ([r,] 1, n, 1)
    phi = np.empty(f.shape[:-1] + (gammas.shape[0], 1, n), dtype=complex)
    phi[..., 0] = f[..., None, :1]
    half_k = 0.5 * kernel[..., None, :, None]
    for i in range(1, n):
        # sum_{j=1}^{i-1} kernel[i-j] phi[..., j]: one (1, i-1) @ (i-1, 1) product per (row, Gamma)
        s = (phi[..., 1:i] @ krev[..., n - i : n - 1, :])[..., 0] if i > 1 else 0.0
        phi[..., i] = (f[..., None, i, None] + h * (half_k[..., i, :] * phi[..., 0] + s)) / denom
    return phi[..., 0, :]


def _solve_fast(f: np.ndarray, kernel: np.ndarray, gamma: float, dt: float) -> np.ndarray:
    """Same discrete solution as _solve_direct, in O(n log^2 n), by block recursion.

    A node [lo, hi) solves its lower half, folds that half into the right-hand side
    of its upper half by one FFT middle product, then solves the upper half.  A base
    block of k <= _BASE_BLOCK unknowns solves (I - c K) phi = c r by one triangular
    solve, with K the strictly lower Toeplitz matrix of kap[1:k], shared by every block.
    """
    n = f.shape[0]
    h = gamma * dt
    c = 1.0 / (1.0 - 0.5 * h)
    kap = h * np.asarray(kernel, dtype=complex)
    phi = np.empty(n, dtype=complex)
    phi[0] = f[0]
    # running right-hand side: f plus every contribution from already-solved phi
    r = np.asarray(f, dtype=complex).copy()
    r[1:] += (0.5 * h) * kernel[1:] * phi[0]
    if n == 1:
        return phi

    # I - c K of the largest block, filled column by column; its unit diagonal is never read
    m = min(_BASE_BLOCK, n - 1)
    base = np.zeros((m, m), dtype=complex, order="F")
    col = -c * kap[1:m]
    for j in range(m - 1):
        base[j + 1 :, j] = col[: m - 1 - j]

    def recurse(lo: int, hi: int) -> None:
        if hi - lo <= m:
            k = hi - lo
            phi[lo:hi] = solve_triangular(
                base[:k, :k], c * r[lo:hi], lower=True, unit_diagonal=True, check_finite=False
            )
            return
        mid = (lo + hi) // 2
        recurse(lo, mid)
        # phi[lo:mid] * kap[1:hi-lo] at outputs mid-lo-1 ... hi-lo-2: a cyclic convolution
        # of hi-lo-1 points or more wraps only outputs below mid-lo-1 (a middle product)
        size = sp_fft.next_fast_len(hi - lo - 1, real=False)
        y = sp_fft.ifft(sp_fft.fft(phi[lo:mid], size) * sp_fft.fft(kap[1 : hi - lo], size))
        r[mid:hi] += y[mid - lo - 1 : hi - lo - 1]
        recurse(mid, hi)

    recurse(1, n)
    return phi


def solve_rows(f: np.ndarray, kernel: np.ndarray, gammas, dt: float) -> np.ndarray:
    """phi for (n,) or (r, n) rows of (f, kernel) against every Gamma: (m, n) or (r, m, n).

    Long grids are solved row by row by block recursion, short ones all at once; no rates, no solve.
    """
    gammas = check_rates(gammas, dt)
    n = f.shape[-1]
    if n <= _FAST_THRESHOLD and gammas.size:
        return _solve_direct(f, kernel, gammas, dt)
    out = np.empty(f.shape[:-1] + gammas.shape + (n,), dtype=complex)
    for row in np.ndindex(f.shape[:-1]):
        for gi, g in enumerate(gammas):
            out[row + (gi,)] = f[row] if g == 0.0 else _solve_fast(f[row], kernel[row], g, dt)
    return out


def solve_many(f: FidelityCurve, kernel: FidelityCurve, gammas) -> np.ndarray:
    """phi rows for several Gamma values at once, each as a single-rate solve gives it; see :func:`solve`."""
    grid = check_inputs(f, kernel)
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
    check_rates([gamma_rate], phi.grid.dt)
    damp = np.exp(-gamma_rate * phi.times)
    return FidelityCurve(
        phi.grid,
        damp * phi.values,
        stderr_re=None if phi.stderr_re is None else damp * phi.stderr_re,
        stderr_im=None if phi.stderr_im is None else damp * phi.stderr_im,
    )


def first_order(f: FidelityCurve, kernel: FidelityCurve, gamma_rate: float) -> FidelityCurve:
    """One Born iteration, exp(-Gamma t) (f + Gamma (fbar * f)); small-Gamma check."""
    check_rates([gamma_rate], f.grid.dt)
    conv = convolve(kernel, f)
    values = np.exp(-gamma_rate * f.times) * (f.values + gamma_rate * conv.values)
    return FidelityCurve(f.grid, values)
