"""Echo master equations for the quasi-density matrix.

The object evolved here is X(t) = U_lam(t) rho U_0(t)^dag: it starts as a
proper density matrix but is *not* trace preserving -- its trace is the
fidelity amplitude.  One :class:`EchoGenerator` holds either of two forms,
as terms A X B plus an isotropic damping rate:

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

import math
from dataclasses import dataclass

import numpy as np

from .curves import FidelityCurve, TimeGrid, check_number
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
        if self.kind not in ("delta", "exponential"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        object.__setattr__(self, "tau_c", check_number("tau_c", self.tau_c))
        object.__setattr__(self, "c0", check_number("c0", self.c0))
        if self.kind == "delta" and self.tau_c != 0.0:
            raise ValueError(f"a delta kernel has tau_c = 0, got {self.tau_c!r}")
        if self.kind == "exponential" and self.tau_c <= 0.0:
            raise ValueError(f"tau_c must be > 0, got {self.tau_c!r}")
        if self.c0 <= 0.0:
            raise ValueError(f"bath weight c0 must be > 0, got {self.c0!r}")

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
    """Right-hand side -i (H_lam X - X H_0) + sum_k A_k X B_k - rate (X - tr[X]/dim 1).

    ``terms`` holds the (A_k, B_k) pairs, ``None`` standing for an identity factor.
    """

    h_lambda: np.ndarray
    h_zero: np.ndarray
    terms: tuple = ()
    rate: float = 0.0

    @property
    def dim(self) -> int:
        return self.h_lambda.shape[0]

    def dissipator(self, rho: np.ndarray) -> np.ndarray:
        out = np.zeros(np.shape(rho), dtype=complex)
        for a, b in self.terms:
            x = rho if a is None else a @ rho
            out += x if b is None else x @ b
        if self.rate:
            trace = np.trace(rho, axis1=-2, axis2=-1)[..., None, None]
            out -= self.rate * (rho - (trace / self.dim) * np.eye(self.dim))
        return out

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """The right-hand side at one (d, d) state or a stack (..., d, d) of them."""
        return -1j * (self.h_lambda @ rho - rho @ self.h_zero) + self.dissipator(rho)

    def superoperator(self) -> np.ndarray:
        """Dense matrix L with L vec(rho) = vec(apply(rho)), row-major vec.

        Built from Kronecker products in O(d^4): a term A rho B is
        (A kron B^T) vec(rho), so it adds A[a, i] B[j, b] to L[a d + b, i d + j].
        The Hamiltonian pair and ``terms`` are read as :meth:`apply` reads
        them, and the rows of each a are filled in place, with no d^4 temporary.
        """
        d = self.dim
        l = np.zeros((d, d, d, d), dtype=complex)
        terms = ((-1j * self.h_lambda, None), (None, 1j * self.h_zero)) + self.terms
        for a in range(d):
            # rows[b, i, j] = L[a d + b, i d + j]; a left-only term sits at j = b,
            # a right-only term at i = a
            rows = l[a]
            for left, right in terms:
                if right is None:
                    np.einsum("bib->ib", rows)[...] += left[a, :, None]
                elif left is None:
                    rows[:, a, :] += right.T
                else:
                    rows += left[a, None, :, None] * right.T[:, None, :]
            if self.rate:
                # -rate (rho - tr[rho]/d 1): rho at i = a, j = b meets tr[rho] 1 at i = j = a
                unit = np.eye(d)
                unit[a, a] -= 1.0 / d
                rows[:, a, :] -= self.rate * unit
                np.einsum("ii->i", rows[a])[...] += self.rate * (1.0 / d) * (np.arange(d) != a)
        return l.reshape(d * d, d * d)


def rmt_generator(h_lambda: np.ndarray, h_zero: np.ndarray, rate: float) -> EchoGenerator:
    """Reduced-form generator with isotropic damping at the given rate."""
    h_lambda, h_zero = _check_hamiltonians(h_lambda, h_zero)
    if not (np.isfinite(rate) and rate >= 0.0):
        raise ValueError(f"damping rate must be >= 0, got {rate!r}")
    return EchoGenerator(h_lambda, h_zero, rate=float(rate))


def general_generator(h_lambda: np.ndarray, h_zero: np.ndarray, coupling: np.ndarray,
                      kernel: CorrelationKernel, strength: float) -> EchoGenerator:
    """Born-Markov generator: both bath transforms up front, and the dissipator as four terms."""
    h_lambda, h_zero = _check_hamiltonians(h_lambda, h_zero)
    strength = check_number("coupling strength", strength)
    if not np.isfinite(strength * strength):  # strength ** 2 would raise OverflowError
        raise ValueError(f"coupling strength squared is not finite, got {strength!r}")
    v = np.asarray(coupling, dtype=complex)
    gl = gamma_operator(kernel, Spectral.from_matrix(h_lambda), v)
    g0 = gamma_operator(kernel, Spectral.from_matrix(h_zero), v)
    g2 = strength ** 2
    terms = ((-g2 * (v @ gl), None), (g2 * v, g0), (g2 * gl, v), (None, -g2 * (g0 @ v)))
    return EchoGenerator(h_lambda, h_zero, terms)


def _check_hamiltonians(h_lambda: np.ndarray, h_zero: np.ndarray):
    h_lambda, h_zero = np.asarray(h_lambda, dtype=complex), np.asarray(h_zero, dtype=complex)
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


# Bader, Blanes & Casas, "Computing the matrix exponential with an optimized Taylor
# polynomial approximation", Mathematics 7, 1174 (2019): the degree-18 Taylor
# polynomial of exp(A) in five products, to unit roundoff for ||A||_1 <= _THETA_18.
# Row i holds B_i's coefficients over [I, A, A^2, A^3, A^6].
_THETA_18 = 1.090863719290036
_TAYLOR_18 = np.array([
    [0.0, -1.00365581030144618291e-01, -8.02924648241156932449e-03, -8.92138498045361080337e-04, 0.0],
    [0.0, 3.97849749499645077844e-01, 1.36783778460411720168e+00, 4.98289622525382669416e-01,
     -6.37898194594723280150e-04],
    [-1.09676396052962061844e+01, 1.68015813878906206114e+00, 5.71779846478865511061e-02,
     -6.98210122488052056106e-03, 3.34975017086070470649e-05],
    [-9.04316832390810593223e-02, -6.76404519071381882256e-02, 6.75961301770459654925e-02,
     2.95552570429315521194e-02, -1.39180257516060693404e-05],
    [0.0, 0.0, -9.23364619367118555360e-02, -1.69364939002081722752e-02, -1.40086798182036094347e-05],
])
# reals per column block of the coefficient product
_COMBINE_BLOCK = 8192


def _step_matrix(l: np.ndarray, dt: float) -> np.ndarray:
    """exp(L dt) by scaling and squaring the degree-18 Taylor polynomial, with no linear solve.

    A = L dt / 2^s with s the least power that brings ||A||_1 under _THETA_18,
    so the scaling is exact.  Every product is scipy's zgemm written in place
    into one preallocated (5, n, n) buffer: A, A^2, A^3 and A^6 fill slots
    0-3, the five B_i overwrite slots 0-4, then A_9 = B_0 B_4 + B_3 and
    T = B_1 + (B_2 + A_9) A_9, which is squared s times.  The result is a view
    of that buffer.  A diagonal L gets its exponential elementwise, which is exact.
    """
    from scipy.linalg.blas import zgemm

    diagonal = np.diagonal(l)
    if np.count_nonzero(l) == np.count_nonzero(diagonal):
        step = np.zeros_like(l)
        np.einsum("ii->i", step)[...] = np.exp(diagonal * dt)
        return step
    norm = float(np.abs(l).sum(axis=0).max()) * dt
    if not np.isfinite(norm):
        raise PropagationError(f"generator norm ||L dt||_1 = {norm} is not finite")
    s = math.ceil(math.log2(norm / _THETA_18)) if norm > _THETA_18 else 0

    buf = np.empty((5, *l.shape), dtype=complex)

    def product(out, a, b, add=False):
        # out = a b (+ out): the transposed views are F-ordered, as zgemm wants them;
        # f2py would silently return a copy of a c it cannot write
        c = zgemm(1.0, b.T, a.T, beta=float(add), c=out.T, overwrite_c=1)
        if c.ctypes.data != out.ctypes.data:
            raise RuntimeError("zgemm did not write its output buffer in place")

    np.multiply(l, dt * 2.0**-s, out=buf[0])
    a, a2, a3, a6 = buf[:4]
    product(a2, a, a)
    product(a3, a2, a)
    product(a6, a3, a3)
    # B_i = sum_j c_ij [A, A^2, A^3, A^6]_j, column block by column block over
    # the stack seen as reals, so each block is read before B overwrites it
    reals = buf.reshape(5, -1).view(np.float64)
    block = np.empty((5, _COMBINE_BLOCK))
    for start in range(0, reals.shape[1], _COMBINE_BLOCK):
        cols = reals[:, start:start + _COMBINE_BLOCK]
        out = block[:, :cols.shape[1]]
        np.matmul(_TAYLOR_18[:, 1:], cols[:4], out=out)
        cols[...] = out
    for b, c0 in zip(buf, _TAYLOR_18[:, 0]):
        if c0:
            np.einsum("ii->i", b)[...] += c0
    b0, b1, b2, b3, b4 = buf
    product(b3, b0, b4, add=True)  # A_9
    b2 += b3
    product(b1, b2, b3, add=True)  # T
    t, spare = b1, b0
    for _ in range(s):
        product(spare, t, t)
        t, spare = spare, t
    return t


def _propagate_superoperator(gen: EchoGenerator, rho0: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """States vec(X(t_k)) = exp(L dt)^k vec(X(0)) on the uniform grid, as (len(grid), d, d).

    One step matrix serves every point: :func:`_step_matrix`, the degree-18
    Taylor polynomial in five products with scaling and squaring (Bader,
    Blanes & Casas, Mathematics 7, 1174, 2019).  Each step is a matrix-vector
    product on the BLAS whose zgemm built the step matrix.
    """
    # only this method needs scipy.linalg, whose import alone takes about 0.35 s
    from scipy.linalg.blas import zgemv

    step = _step_matrix(gen.superoperator(), grid.dt)
    # step.T is an F-contiguous view, so trans=1 applies step itself without a copy
    step_t = step.T
    d = gen.dim
    states = np.empty((len(grid), d * d), dtype=complex)
    states[0] = rho0.reshape(-1)
    for k in range(1, len(grid)):
        # scipy's zgemv, not np.matmul: the CLI runs numpy's OpenBLAS on one thread, scipy's keeps its pool
        states[k] = zgemv(1.0, step_t, states[k - 1], trans=1)
    return states.reshape(len(grid), d, d)


def _propagate_stepper(
    gen: EchoGenerator,
    rho0: np.ndarray,
    grid: TimeGrid,
    rtol: float,
    atol: float,
) -> np.ndarray:
    # only this method needs scipy.integrate, which alone imports ~230 modules
    from scipy import integrate

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

    ``superoperator`` builds one step matrix exp(L dt) from the dense,
    Kronecker-built generator L (dims up to 64) and applies it once per grid
    step; it needs no eigenbasis, so defective generators are handled too.
    The step matrix is the degree-18 Taylor polynomial, exact to unit
    roundoff, evaluated in five matrix products with scaling and squaring
    (Bader, Blanes & Casas, Mathematics 7, 1174, 2019), so it needs no
    linear solve.
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
