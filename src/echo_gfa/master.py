"""Echo master equations for the quasi-density matrix.

The object evolved here is X(t) = U_lam(t) rho U_0(t)^dag: it starts as a
proper density matrix but is *not* trace preserving -- its trace is the
fidelity amplitude.  Two generator forms are supported:

general (Born-Markov, second order in the far-bath coupling gamma)::

    dX/dt = -i (H_lam X - X H_0)
            - gamma^2 (V' G_lam X - V' X G_0 - G_lam X V' + X G_0 V')

with the one-sided bath transforms

    G_lam = int_0^inf ds C(s) U_lam(s) V' U_lam(s)^dag ,

and the random-matrix reduction obtained by averaging V' over the unitary
ensemble::

    dX/dt = -i (H_lam X - X H_0) - Gamma (X - tr[X]/dim * 1) .

For a delta-correlated bath C(s) with full-axis area C0 the reduction rate
is Gamma = gamma^2 * dim * C0.  Both bath kernels (delta and exponential)
have closed-form one-sided transforms, so G_lam is a few matrix products in
the eigenbasis of H_lam.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.linalg import expm
from scipy.linalg.blas import zgemv

from .curves import FidelityCurve, TimeGrid
from .echo import Spectral, check_hermitian, check_initial_state

PROPAGATION_METHODS = ("superoperator", "stepper")
# largest dim for which the dense superoperator route is allowed
_MAX_SUPEROP_DIM = 64


class PropagationError(RuntimeError):
    """Time integration of the master equation failed."""


@dataclass(eq=False)
class QuasiDensity:
    """dim x dim complex matrix; a proper density matrix only at t = 0."""

    matrix: np.ndarray

    @classmethod
    def maximally_mixed(cls, dim: int) -> "QuasiDensity":
        return cls(np.eye(dim, dtype=complex) / dim)


def check_method(method: str, dim: int) -> None:
    """Raise unless :func:`propagate` can run ``method`` at this dim."""
    if method not in PROPAGATION_METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {PROPAGATION_METHODS}")
    if method == "superoperator" and dim > _MAX_SUPEROP_DIM:
        raise ValueError(
            f"superoperator method is limited to dim <= {_MAX_SUPEROP_DIM} (got {dim}); use stepper"
        )


@dataclass(frozen=True)
class CorrelationKernel:
    """Bath autocorrelation C(s) on s >= 0 and its closed-form one-sided transform.

    Both kinds are normalised so that the even extension of C has area c0:

    * ``delta``: C(s) = c0 * delta(s), so the one-sided integral picks up c0 / 2.
    * ``exponential``: C(s) = (c0 / 2 tau_c) exp(-s / tau_c), whose transform is
      (c0 / 2) / (1 - i omega tau_c) (Breuer & Petruccione, The Theory of Open
      Quantum Systems, 2002, ch. 3).  The delta kernel is its tau_c = 0 limit.
    """

    kind: str
    c0: float = 1.0
    tau_c: float = 0.0

    def __post_init__(self) -> None:
        if self.kind == "delta":
            if self.tau_c != 0.0:
                raise ValueError(f"a delta kernel has tau_c = 0, got {self.tau_c!r}")
        elif self.kind == "exponential":
            if not (np.isfinite(self.tau_c) and self.tau_c > 0.0):
                raise ValueError(f"tau_c must be finite and > 0, got {self.tau_c!r}")
        else:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if not (np.isfinite(self.c0) and self.c0 > 0.0):
            raise ValueError(f"bath weight c0 must be finite and > 0, got {self.c0!r}")

    @classmethod
    def delta(cls, c0: float) -> "CorrelationKernel":
        return cls(kind="delta", c0=c0)

    @classmethod
    def exponential(cls, tau_c: float, c0: float = 1.0) -> "CorrelationKernel":
        return cls(kind="exponential", c0=c0, tau_c=tau_c)

    def transform(self, omega):
        """One-sided transform int_0^inf C(s) exp(i omega s) ds, elementwise in omega."""
        # tau_c = 0 for a delta kernel, so this is exactly c0 / 2 there
        return (0.5 * self.c0) / (1.0 - 1j * self.tau_c * np.asarray(omega, dtype=float))


def gamma_operator(kernel: CorrelationKernel, spectral: Spectral, coupling: np.ndarray) -> np.ndarray:
    """G = int_0^inf ds C(s) U(s) V' U(s)^dag for H with the given eigenbasis.

    In the eigenbasis the integral is elementwise:
    G_ab = V'_ab * Chat(E_b - E_a) with Chat the one-sided transform.  A
    delta kernel therefore gives (c0 / 2) V' exactly.  Real C(s) makes G
    Hermitian, since Chat(-omega) = conj(Chat(omega)).
    """
    coupling = np.asarray(coupling, dtype=complex)
    n = spectral.eigvals.shape[0]
    if coupling.shape != (n, n):
        raise ValueError(f"coupling shape {coupling.shape} does not match dim {n}")
    check_hermitian("coupling", coupling)
    if kernel.kind == "delta":
        return (0.5 * kernel.c0) * coupling

    q, e = spectral.eigvecs, spectral.eigvals
    chat = kernel.transform(e[None, :] - e[:, None])
    return q @ ((q.conj().T @ coupling @ q) * chat) @ q.conj().T


@dataclass(eq=False)
class EchoGenerator:
    """Right-hand side of the echo master equation, in either form."""

    form: str  # "general" | "rmt"
    h_lambda: np.ndarray
    h_zero: np.ndarray
    rate: float = 0.0
    strength: float = 0.0
    coupling: np.ndarray | None = None
    gamma_lambda: np.ndarray | None = None
    gamma_zero: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.h_lambda.shape[0]

    def dissipator(self, rho: np.ndarray) -> np.ndarray:
        if self.form == "rmt":
            trace = np.trace(rho, axis1=-2, axis2=-1)[..., None, None]
            return -self.rate * (rho - (trace / self.dim) * np.eye(self.dim))
        g2 = self.strength ** 2
        v, gl, g0 = self.coupling, self.gamma_lambda, self.gamma_zero
        return -g2 * (v @ (gl @ rho) - v @ (rho @ g0) - gl @ (rho @ v) + (rho @ g0) @ v)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """The right-hand side at one (d, d) state or a stack (..., d, d) of them."""
        return -1j * (self.h_lambda @ rho - rho @ self.h_zero) + self.dissipator(rho)

    def superoperator(self) -> np.ndarray:
        """Dense matrix L with L vec(rho) = vec(apply(rho)), row-major vec.

        Built from Kronecker products in O(d^4): a term A rho B of :meth:`apply`
        is (A kron B^T) vec(rho), so it adds A[a, i] B[j, b] to L[a d + b, i d + j].
        The rows of each a are filled in place, with no d^4 temporary, and the terms
        are combined in :meth:`apply`'s order, so column k is vec(apply(E_k)) for
        the k-th unit matrix E_k up to how a single complex product is rounded
        (BLAS and numpy may round it differently).
        """
        d = self.dim
        l = np.zeros((d, d, d, d), dtype=complex)
        h_left, h_right = -1j * self.h_lambda, -1j * self.h_zero.T
        if self.form == "rmt":
            scale = -self.rate
        else:
            scale = -self.strength ** 2
            v, gl, g0 = self.coupling, self.gamma_lambda, self.gamma_zero
            v_gl, g0_v = v @ gl, g0 @ v
        for a in range(d):
            # rows[b, i, j] = L[a d + b, i d + j]; a left term A rho sits at j = b,
            # a right term rho B at i = a
            rows = l[a]
            np.einsum("bib->ib", rows)[...] += h_left[a, :, None]
            rows[:, a, :] -= h_right
            if self.form == "rmt":
                # rho - tr[rho]/d 1
                bracket = np.zeros((d, d, d), dtype=complex)
                bracket[:, a, :] = np.eye(d)
                np.einsum("ii->i", bracket[a])[...] -= 1.0 / d
            else:
                # v gl rho - v rho g0 - gl rho v + rho g0 v
                bracket = -v[a, None, :, None] * g0.T[:, None, :]
                np.einsum("bib->ib", bracket)[...] += v_gl[a, :, None]
                bracket -= gl[a, None, :, None] * v.T[:, None, :]
                bracket[:, a, :] += g0_v.T
            rows += scale * bracket
        return l.reshape(d * d, d * d)


def rmt_generator(h_lambda: np.ndarray, h_zero: np.ndarray, rate: float) -> EchoGenerator:
    """Reduced-form generator with isotropic damping at the given rate."""
    h_lambda, h_zero = _check_hamiltonians(h_lambda, h_zero)
    if not (np.isfinite(rate) and rate >= 0.0):
        raise ValueError(f"damping rate must be >= 0, got {rate!r}")
    return EchoGenerator(form="rmt", h_lambda=h_lambda, h_zero=h_zero, rate=float(rate))


def general_generator(
    h_lambda: np.ndarray,
    h_zero: np.ndarray,
    coupling: np.ndarray,
    kernel: CorrelationKernel,
    strength: float,
) -> EchoGenerator:
    """Born-Markov generator; evaluates both bath transforms up front."""
    h_lambda, h_zero = _check_hamiltonians(h_lambda, h_zero)
    if not np.isfinite(strength):
        raise ValueError(f"coupling strength must be finite, got {strength!r}")
    gl = gamma_operator(kernel, Spectral.from_matrix(h_lambda), coupling)
    g0 = gamma_operator(kernel, Spectral.from_matrix(h_zero), coupling)
    return EchoGenerator(
        form="general",
        h_lambda=h_lambda,
        h_zero=h_zero,
        strength=float(strength),
        coupling=np.asarray(coupling, dtype=complex),
        gamma_lambda=gl,
        gamma_zero=g0,
    )


def _check_hamiltonians(h_lambda: np.ndarray, h_zero: np.ndarray):
    h_lambda = np.asarray(h_lambda, dtype=complex)
    h_zero = np.asarray(h_zero, dtype=complex)
    for name, h in (("h_lambda", h_lambda), ("h_zero", h_zero)):
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError(f"{name} must be square, got shape {h.shape}")
        check_hermitian(name, h)
    if h_lambda.shape != h_zero.shape:
        raise ValueError(f"shape mismatch: {h_lambda.shape} vs {h_zero.shape}")
    return h_lambda, h_zero


@dataclass(eq=False)
class Trajectory:
    """Quasi-density matrices on a grid: states[i] is X(t_i)."""

    grid: TimeGrid
    states: np.ndarray

    def __post_init__(self) -> None:
        states = np.asarray(self.states, dtype=complex)
        if states.ndim != 3 or states.shape[0] != len(self.grid) or states.shape[1] != states.shape[2]:
            raise ValueError(f"states shape {states.shape} does not match grid/dim")
        self.states = states


def _propagate_superoperator(gen: EchoGenerator, rho0: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """States vec(X(t_k)) = exp(L dt)^k vec(X(0)) on the uniform grid, as (len(grid), d, d).

    One step matrix serves every point; each step is a matrix-vector product on
    the BLAS that ran ``expm``.
    """
    step = expm(gen.superoperator() * grid.dt)
    # step.T is an F-contiguous view, so trans=1 applies step itself without a copy
    step_t = step.T
    d = gen.dim
    states = np.empty((len(grid), d * d), dtype=complex)
    states[0] = rho0.reshape(-1)
    for k in range(1, len(grid)):
        # scipy's zgemv, not np.matmul: numpy's own OpenBLAS pool would fight expm's for the cores
        states[k] = zgemv(1.0, step_t, states[k - 1], trans=1)
    return states.reshape(len(grid), d, d)


def _propagate_stepper(
    gen: EchoGenerator,
    rho0: np.ndarray,
    grid: TimeGrid,
    rtol: float,
    atol: float,
) -> np.ndarray:
    d = gen.dim

    def rhs(t, y):
        return gen.apply(y.reshape(d, d)).reshape(-1)

    sol = integrate.solve_ivp(
        rhs,
        (0.0, grid.t_max),
        rho0.reshape(-1).astype(complex),
        method="RK45",
        t_eval=grid.times,
        rtol=rtol,
        atol=atol,
    )
    if not sol.success:
        raise PropagationError(f"adaptive stepper failed: {sol.message}")
    return np.ascontiguousarray(sol.y.T).reshape(len(grid), d, d)


def propagate(
    generator: EchoGenerator,
    rho0: QuasiDensity | np.ndarray,
    grid: TimeGrid,
    method: str = "superoperator",
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> Trajectory:
    """Integrate the master equation from a density matrix over a grid.

    ``superoperator`` builds one exact step matrix expm(L dt) from the dense,
    Kronecker-built generator L (dims up to 64) and applies it once per grid
    step; it needs no eigenbasis, so defective generators are handled too.
    ``stepper`` is adaptive RK45.
    """
    check_method(method, generator.dim)
    matrix = np.asarray(getattr(rho0, "matrix", rho0), dtype=complex)
    if matrix.shape != (generator.dim, generator.dim):
        raise ValueError(
            f"initial state shape {matrix.shape} does not match generator dim {generator.dim}"
        )
    check_initial_state(matrix)

    if method == "superoperator":
        states = _propagate_superoperator(generator, matrix, grid)
    else:
        states = _propagate_stepper(generator, matrix, grid, rtol, atol)
    return Trajectory(grid=grid, states=states)


def trace_curve(trajectory: Trajectory) -> FidelityCurve:
    """Fidelity amplitude tr[X(t)] along a trajectory."""
    return FidelityCurve(trajectory.grid, np.einsum("tii->t", trajectory.states))
