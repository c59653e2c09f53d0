"""Closed-system echo dynamics.

The echo operator M(t) = U_0(t)^dag U_lam(t) compares free evolution under
the diagonal environment Hamiltonian H_0 = diag(env_levels) with evolution
under the perturbed H_lam = H_0 + lam * V.  Its weighted trace
f(t) = tr[M(t) rho_0] is the fidelity amplitude; the normalised plain trace
tr[M(t)] / dim doubles as the memory kernel of the ensemble-averaged theory
because tr[M(t) M(tau)^dag] = tr[M(t - tau)] for this pair of Hamiltonians
(H_0 commutes with itself and U_lam forms a group).

Curves over long grids are evaluated spectrally: with H_lam = Q E Q^dag,

    tr[M(t) rho_0] = sum_{j,a} exp(i E0_j t) S_ja exp(-i E_a t),
    S_ja = Q_ja * (Q^dag rho_0)_aj,

which needs the diagonalisation only once.  On the grid t_k = (qB + r) dt the
phase tables factor into coarse exp(iE qB dt) and fine exp(iE r dt) tables, with
q from the global index k, and each curve is one GEMM, sum_a ((P0 @ S) * P1)_ta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import FidelityCurve, TimeGrid
from .rmt import Realization

# time points handled per chunk when synthesising long curves
_CHUNK = 1 << 16
# fine steps per coarse step of the factored phase tables
_BLOCK = 32


@dataclass(frozen=True, eq=False)
class Spectral:
    """Eigendecomposition H = Q diag(eigvals) Q^dag."""

    eigvals: np.ndarray
    eigvecs: np.ndarray

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.eigvals)):
            raise ValueError("spectrum has non-finite eigenvalues")

    @classmethod
    def from_matrix(cls, h: np.ndarray) -> "Spectral":
        return cls(*np.linalg.eigh(h))


def propagator(spectral: Spectral, t: float) -> np.ndarray:
    """U(t) = exp(-i H t) from the eigendecomposition of H."""
    phases = np.exp(-1j * spectral.eigvals * t)
    q = spectral.eigvecs
    return (q * phases) @ q.conj().T


def _phases(energies: np.ndarray, dt: float, lo: int, hi: int) -> np.ndarray:
    """exp(i E k dt) for k in [lo, hi) as coarse (q B dt) times fine (r dt) factors."""
    q = np.arange(lo // _BLOCK, (hi - 1) // _BLOCK + 1)
    coarse = np.exp(1j * np.outer(q * (_BLOCK * dt), energies))
    fine = np.exp(1j * np.outer(np.arange(_BLOCK) * dt, energies))
    table = (coarse[:, None, :] * fine).reshape(-1, energies.shape[0])
    return table[lo - q[0] * _BLOCK : hi - q[0] * _BLOCK]


def check_hermitian(name: str, m: np.ndarray) -> None:
    """Raise unless m is finite and equals its conjugate transpose to 1e-12 relative."""
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} must have finite entries")
    dev = np.max(np.abs(m - m.conj().T))
    if dev > 1e-12 * max(1.0, np.max(np.abs(m))):
        raise ValueError(f"{name} must be Hermitian: max |M - M^dag| = {dev:.3e}")


def check_initial_state(rho: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Validate a density matrix: finite and Hermitian, then unit trace and positive within tol."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"initial state must be a square matrix, got shape {rho.shape}")
    check_hermitian("initial state", rho)
    trace_dev = abs(np.trace(rho) - 1.0)
    if trace_dev > tol:
        raise ValueError(f"initial state trace deviates from 1 by {trace_dev:.3e}")
    min_eig = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0).min()
    if min_eig < -tol:
        raise ValueError(f"initial state is not positive: min eigenvalue {min_eig:.3e}")
    return rho


@dataclass(eq=False)
class EchoSetup:
    """Perturbation strength, evaluation grid and initial state for one echo run.

    ``initial_state = None`` selects the maximally mixed state 1/dim.
    """

    lam: float
    grid: TimeGrid
    initial_state: np.ndarray | None = None

    def __post_init__(self) -> None:
        # lam is checked by EchoOperator, which every curve builds
        if self.initial_state is not None:
            state = getattr(self.initial_state, "matrix", self.initial_state)
            self.initial_state = check_initial_state(state)

    def state(self, dim: int) -> np.ndarray:
        if self.initial_state is None:
            return np.eye(dim, dtype=complex) / dim
        if self.initial_state.shape != (dim, dim):
            raise ValueError(
                f"initial state shape {self.initial_state.shape} does not match dim {dim}"
            )
        return self.initial_state


class EchoOperator:
    """M(t) = U_0(t)^dag U_lam(t) for one realization; eigenbasis cached once."""

    def __init__(self, realization: Realization, lam: float):
        if not np.isfinite(lam):
            raise ValueError(f"lam must be finite, got {lam!r}")
        self.dim = realization.dim
        self.levels = realization.env_levels
        h = np.diag(self.levels) + lam * realization.perturbation
        self.perturbed = Spectral.from_matrix(h)

    def __call__(self, t: float) -> np.ndarray:
        # U_0(t)^dag is diagonal in the environment basis
        return np.exp(1j * self.levels * t)[:, None] * propagator(self.perturbed, t)

    def _curve(self, grid: TimeGrid, smat: np.ndarray) -> np.ndarray:
        """sum_{j,a} exp(i E0_j t) smat_ja exp(-i E_a t) on the grid, chunked over t."""
        n = len(grid)
        out = np.empty(n, dtype=complex)
        for lo in range(0, n, _CHUNK):
            hi = min(lo + _CHUNK, n)
            prod = _phases(self.levels, grid.dt, lo, hi) @ smat
            prod *= _phases(-self.perturbed.eigvals, grid.dt, lo, hi)
            out[lo:hi] = prod.sum(axis=1)
        return out

    def fidelity_values(self, grid: TimeGrid, rho0: np.ndarray) -> np.ndarray:
        """tr[M(t) rho0] at every grid time."""
        q = self.perturbed.eigvecs
        smat = q * (q.conj().T @ rho0).T
        return self._curve(grid, smat)

    def kernel_values(self, grid: TimeGrid) -> np.ndarray:
        """tr[M(t)] / dim at every grid time; equals fidelity_values for rho0 = 1/dim."""
        q = self.perturbed.eigvecs
        smat = (q.conj() * q).real / self.dim
        return self._curve(grid, smat)


def fidelity_curve(realization: Realization, setup: EchoSetup) -> FidelityCurve:
    """Fidelity amplitude tr[M(t) rho_0] over the setup's grid."""
    op = EchoOperator(realization, setup.lam)
    rho0 = setup.state(realization.dim)
    return FidelityCurve(setup.grid, op.fidelity_values(setup.grid, rho0))


def kernel_curve(realization: Realization, lam: float, grid: TimeGrid) -> FidelityCurve:
    """Normalised echo trace tr[M(t)] / dim over a grid (the memory kernel)."""
    op = EchoOperator(realization, lam)
    return FidelityCurve(grid, op.kernel_values(grid))
