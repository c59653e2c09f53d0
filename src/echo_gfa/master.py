"""Echo master equations for the quasi-density matrix.

The object evolved here is X(t) = U_lam(t) rho U_0(t)^dag: it starts as a
proper density matrix but is *not* trace preserving -- its trace is the
fidelity amplitude.  One :class:`EchoGenerator` holds either of two forms,
folded into one shape: a left factor, a right factor, products A X B and
a trace reinjection r tr[X] 1:

general (Born-Markov, second order in the far-bath coupling gamma)::

    dX/dt = -i (H_lam X - X H_0)
            - gamma^2 (V' G_lam X - V' X G_0 - G_lam X V' + X G_0 V')

with the one-sided bath transforms

    G_lam = int_0^inf ds C(s) U_lam(s) V' U_lam(s)^dag ,

and the random-matrix reduction obtained by averaging V' over the unitary
ensemble::

    dX/dt = -i (H_lam X - X H_0) - Gamma (X - tr[X]/dim * 1) ,

that is, the left factor -Gamma * 1 and the reinjection r = Gamma / dim.

For a delta-correlated bath C(s) with full-axis area C0 the reduction rate
is Gamma = gamma^2 * dim * C0.  Both bath kernels (delta and exponential)
have closed-form one-sided transforms, so G_lam is a few matrix products in
the eigenbasis of H_lam.
"""

from __future__ import annotations

import ctypes
import math
import os
from dataclasses import dataclass

import numpy as np

from .curves import FidelityCurve, TimeGrid, check_number
from .echo import Spectral, check_hermitian, check_initial_state

PROPAGATION_METHODS = ("superoperator", "stepper")
# the superoperator method's first dim on the matrix-free route.  Where the routes
# cross grows with the grid: timed as the CLI runs them on two cores (the dense
# route on numpy's two-thread pool, the matrix-free one on one thread), Born-Markov
# crosses near dim 20 at 50 steps and near 30 at 400, the reduced form near 18 and
# 26.  Dim 24 is where the matrix-free route first wins in the geometric mean of the
# time ratios over 50 and 400 steps (Born-Markov at dim 24: 79-92 ms dense against
# 32 ms matrix-free at 50 steps, 113-141 ms against 267-366 ms at 400)
_MATRIX_FREE_DIM = 24
# the most working memory the superoperator method may need, in bytes
_MAX_WORKING_BYTES = 2**31
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# numpy's OpenBLAS thread setter and the count _pin_numpy_blas replaced; the no-op _NO_PIN until it pins
_numpy_blas = _NO_PIN = (lambda count: None, 1)


def _pin_numpy_blas() -> None:
    """Run numpy's bundled OpenBLAS on one thread, unless a thread variable is set.

    Most numpy BLAS calls here are small (eigh, phase-table GEMMs, Volterra
    products, the d x d products of the matrix-free route and the stepper),
    and OpenBLAS's second thread only spin-waits on them.  The count it
    replaces is kept for the d^2 x d^2 products of :func:`_dense_states` in a
    process that runs its draws itself; pool workers run every route on one
    thread.  Only a count above one is pinned: a worker forked from the CLI
    inherits its pin, and a forkserver or spawn worker pins in its initializer.
    A forked child that sets one thread starts OpenBLAS's spinning server thread,
    so workers forked by a library caller that never imported the CLI get one.
    """
    global _numpy_blas
    if any(var in os.environ for var in BLAS_THREAD_VARS):
        return
    try:
        # looked up through numpy's linalg extension, whose handle also searches the libraries it links
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        get_threads, set_threads = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return  # not numpy's scipy-openblas wheel: leave BLAS as it is
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    count = get_threads()
    if count > 1:
        _numpy_blas = (set_threads, count)
        set_threads(1)


class PropagationError(RuntimeError):
    """Time integration of the master equation failed."""


@dataclass(eq=False)
class QuasiDensity:
    """dim x dim complex matrix; a proper density matrix only at t = 0."""

    matrix: np.ndarray

    @classmethod
    def maximally_mixed(cls, dim: int) -> "QuasiDensity":
        return cls(np.eye(dim, dtype=complex) / dim)


def _working_bytes(dim: int) -> int:
    """Memory the superoperator method needs at this dim, besides any states it keeps.

    Below ``_MATRIX_FREE_DIM`` that is the step matrix's five d^2 x d^2
    slots; from there on, about sixteen d x d matrices: the folded
    generator, the state, its Taylor term and sum, and their products.
    """
    n = dim * dim
    return 16 * (5 * n * n if dim < _MATRIX_FREE_DIM else 16 * n)


def check_method(method: str, dim: int) -> None:
    """Raise unless :func:`propagate` can run ``method`` at this dim.

    The stepper takes any dim; the superoperator method takes a dim whose
    :func:`_working_bytes` stay within ``_MAX_WORKING_BYTES``.
    """
    if method not in PROPAGATION_METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {PROPAGATION_METHODS}")
    if method == "superoperator" and _working_bytes(dim) > _MAX_WORKING_BYTES:
        raise ValueError(
            f"superoperator method at dim {dim} needs {_working_bytes(dim) / 2**20:.0f} MiB, "
            f"over its {_MAX_WORKING_BYTES / 2**20:.0f} MiB bound; use stepper"
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
    """Right-hand side K_L X + X K_R + sum_k A_k X B_k + r tr[X] 1.

    The dissipator is ``left`` X + X ``right`` + sum_k A_k X B_k + r tr[X] 1,
    with the (A_k, B_k) pairs in ``products`` and r the ``reinjection``;
    folding in the Hamiltonian pair once gives K_L = -i H_lam + ``left`` and
    K_R = i H_0 + ``right``.  A term A X B is A kron B^T on row-major vec(X).
    """

    h_lambda: np.ndarray
    h_zero: np.ndarray
    left: np.ndarray
    right: np.ndarray
    products: tuple = ()
    reinjection: float = 0.0

    def __post_init__(self) -> None:
        self.k_left = -1j * self.h_lambda + self.left
        self.k_right = 1j * self.h_zero + self.right

    @property
    def dim(self) -> int:
        return self.h_lambda.shape[0]

    def _sandwich(self, left: np.ndarray, right: np.ndarray, x: np.ndarray) -> np.ndarray:
        out = left @ x
        out += x @ right
        for a, b in self.products:
            out += a @ x @ b
        if self.reinjection:
            np.einsum("...ii->...i", out)[...] += self.reinjection * np.einsum("...ii->...", x)[..., None]
        return out

    def dissipator(self, rho: np.ndarray) -> np.ndarray:
        """The bath part alone, at one (d, d) state or a stack (..., d, d) of them."""
        return self._sandwich(self.left, self.right, rho)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """The right-hand side at one (d, d) state or a stack (..., d, d) of them."""
        return self._sandwich(self.k_left, self.k_right, rho)

    def norm_bound(self) -> float:
        """A bound on ||L||_1: ||A||_1 ||B||_inf for each term A X B, d |r| for the reinjection."""

        def norm(m, order):  # a Python float, whose sum overflows to inf without a warning
            return float(np.linalg.norm(m, order))

        products = sum(norm(a, 1) * norm(b, np.inf) for a, b in self.products)
        return norm(self.k_left, 1) + norm(self.k_right, np.inf) + products + self.dim * abs(self.reinjection)

    def superoperator(self) -> np.ndarray:
        """Dense matrix L with L vec(rho) = vec(apply(rho)), row-major vec.

        A term A rho B adds A[a, i] B[j, b] to l[a, b, i, j] = L[a d + b, i d + j]:
        K_L fills the diagonal j = b of that view, K_R the diagonal i = a,
        each product one row block l[a] at a time (a d^3 outer product), and
        the reinjection r tr[rho] 1 the entries a = b, i = j.
        """
        d = self.dim
        l = np.zeros((d, d, d, d), dtype=complex)
        np.einsum("abib->abi", l)[...] += self.k_left[:, None, :]
        np.einsum("abaj->abj", l)[...] += self.k_right.T
        for a, b in self.products:
            b_t = b.T[:, None, :]
            for row in range(d):
                l[row] += a[row, None, :, None] * b_t
        np.einsum("aaii->ai", l)[...] += self.reinjection
        return l.reshape(d * d, d * d)


def rmt_generator(h_lambda: np.ndarray, h_zero: np.ndarray, rate: float) -> EchoGenerator:
    """Reduced-form generator: isotropic damping -rate (X - tr[X]/dim 1)."""
    h_lambda, h_zero = _check_hamiltonians(h_lambda, h_zero)
    rate = check_number("damping rate", rate)
    if rate < 0.0:
        raise ValueError(f"damping rate must be >= 0, got {rate!r}")
    d = h_lambda.shape[0]
    return EchoGenerator(h_lambda, h_zero, -rate * np.eye(d), np.zeros((d, d)), reinjection=rate / d)


def general_generator(h_lambda: np.ndarray, h_zero: np.ndarray, coupling: np.ndarray,
                      kernel: CorrelationKernel, strength: float) -> EchoGenerator:
    """Born-Markov generator: both bath transforms up front, the dissipator in one-sided factors and products."""
    h_lambda, h_zero = _check_hamiltonians(h_lambda, h_zero)
    strength = check_number("coupling strength", strength)
    if not np.isfinite(strength * strength):  # strength ** 2 would raise OverflowError
        raise ValueError(f"coupling strength squared is not finite, got {strength!r}")
    v = np.asarray(coupling, dtype=complex)
    gl = gamma_operator(kernel, Spectral.from_matrix(h_lambda), v)
    g0 = gamma_operator(kernel, Spectral.from_matrix(h_zero), v)
    g2 = strength ** 2
    return EchoGenerator(h_lambda, h_zero, -g2 * (v @ gl), -g2 * (g0 @ v), ((g2 * v, g0), (g2 * gl, v)))


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
    """A propagation on a grid: traces[i] is tr[X(t_i)]."""

    grid: TimeGrid
    traces: np.ndarray


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
_PRODUCT_COLUMNS = 64  # columns per block of A_9 = B_0 B_4 + B_3


def _step_matrix(l: np.ndarray, dt: float) -> np.ndarray:
    """exp(L dt), written over ``l``, by scaling and squaring the degree-18 Taylor polynomial.

    A = L dt / 2^s with s the least power that brings ||A||_1 under _THETA_18,
    so the scaling is exact.  A, A^2, A^3 and A^6 fill a (4, n, n) buffer,
    the five B_i overwrite its four slots and ``l``, A_9 = B_0 B_4 + B_3
    fills B_4's slot a column block at a time (a block reads only its own
    columns of B_4), and T = B_1 + (B_2 + A_9) A_9, the product written into
    B_0's slot, is squared s times.  Whichever of B_0 and B_1 the last
    product writes is the one kept in ``l``, so T ends there and the buffer
    is freed on return.
    """
    norm = float(np.abs(l).sum(axis=0).max()) * dt
    if not np.isfinite(norm):
        raise PropagationError(f"generator norm ||L dt||_1 = {norm} is not finite")
    s = math.ceil(math.log2(norm / _THETA_18)) if norm > _THETA_18 else 0

    buf = np.empty((4, *l.shape), dtype=complex)
    np.multiply(l, dt * 2.0**-s, out=buf[0])
    a, a2, a3, a6 = buf
    np.matmul(a, a, out=a2)
    np.matmul(a2, a, out=a3)
    np.matmul(a3, a3, out=a6)
    # T is B_1 after an even number of squarings and B_0 after an odd one
    kept = 1 - s % 2
    slots = list(buf)
    slots.insert(kept, l)
    # B_i = sum_j c_ij [A, A^2, A^3, A^6]_j, column block by column block over
    # the buffer seen as reals, so each block is read before B overwrites it
    reals = buf.reshape(4, -1).view(np.float64)
    kept_reals = l.reshape(-1).view(np.float64)
    rest = [i for i in range(5) if i != kept]
    block = np.empty((5, _COMBINE_BLOCK))
    for start in range(0, reals.shape[1], _COMBINE_BLOCK):
        cols = reals[:, start:start + _COMBINE_BLOCK]
        out = block[:, :cols.shape[1]]
        np.matmul(_TAYLOR_18[:, 1:], cols, out=out)
        cols[...] = out[rest]
        kept_reals[start:start + _COMBINE_BLOCK] = out[kept]
    for b, c0 in zip(slots, _TAYLOR_18[:, 0]):
        if c0:
            np.einsum("ii->i", b)[...] += c0
    b0, b1, b2, b3, b4 = slots
    for start in range(0, l.shape[0], _PRODUCT_COLUMNS):
        cols = slice(start, start + _PRODUCT_COLUMNS)
        b4[:, cols] = b0 @ b4[:, cols] + b3[:, cols]  # A_9
    b2 += b4
    np.matmul(b2, b4, out=b0)
    b1 += b0  # T
    t, spare = b1, b0
    for _ in range(s):
        np.matmul(t, t, out=spare)
        t, spare = spare, t
    return t


def _dense_states(gen: EchoGenerator, x: np.ndarray, grid: TimeGrid):
    """vec(X(t_k)) = exp(L dt)^k vec(X(0)) for k >= 1, one state at a time.

    One step matrix from :func:`_step_matrix` serves every point, a
    matrix-vector product each.  The build and the steps run numpy's BLAS on
    the thread count that :func:`_pin_numpy_blas` replaced, and one thread
    again after, also on an error; where no pin happened, the thread count
    is left alone.
    """
    set_threads, count = _numpy_blas
    set_threads(count)
    try:
        step = _step_matrix(gen.superoperator(), grid.dt)
        x = x.reshape(-1)
        for _ in range(1, len(grid)):
            x = step @ x
            yield x
    finally:
        set_threads(1)


# Al-Mohy & Higham, "Computing the action of the matrix exponential", SIAM J. Sci.
# Comput. 33, 488 (2011), table 3.1: the degree-m Taylor series of exp(A) b has
# backward error below the unit roundoff 2^-53 while ||A|| <= theta_m.
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3, 6: 9.07e-3, 7: 2.38e-2,
    8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1, 11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1,
    15: 6.41e-1, 16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44, 21: 1.62, 22: 1.82,
    23: 2.01, 24: 2.22, 25: 2.43, 26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54, 35: 4.7,
    40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}


def _taylor_degree(norm: float) -> tuple[int, int]:
    """(m, s): s substeps of degree m, the fewest products m s with norm / s <= theta_m."""
    if not np.isfinite(norm):
        raise PropagationError(f"generator norm bound ||L dt||_1 = {norm} is not finite")
    choices = ((m, max(1, math.ceil(norm / theta))) for m, theta in _THETA.items())
    return min(choices, key=lambda ms: ms[0] * ms[1])


def _max_entry(x: np.ndarray) -> float:
    """Largest |Re| or |Im| of a C-ordered complex array."""
    return float(np.abs(x.view(np.float64)).max())


def _taylor_action(apply, x: np.ndarray, h: float, m: int, s: int) -> np.ndarray:
    """exp(L s h) x for a C-ordered d x d state x, L x given by ``apply``.

    s substeps of the degree-m Taylor series of exp(L h), each summed until
    Al-Mohy & Higham's test (algorithm 3.2 of the paper above) holds: the
    last two terms, in the largest-entry norm, are within the unit roundoff
    of the sum.
    """
    for _ in range(s):
        total = x.copy()
        c1 = _max_entry(x)
        for j in range(1, m + 1):
            x = apply(x)
            x *= h / j
            c2 = _max_entry(x)
            total += x
            if c1 + c2 <= 2.0**-53 * _max_entry(total):
                break
            c1 = c2
        x = total
    return x


def _matrix_free_states(gen: EchoGenerator, x: np.ndarray, grid: TimeGrid):
    """X(t_k) for k >= 1 by the truncated-Taylor action on d x d states, one grid step at a time."""
    m, s = _taylor_degree(gen.norm_bound() * grid.dt)
    x = np.ascontiguousarray(x)
    for _ in range(1, len(grid)):
        x = _taylor_action(gen.apply, x, grid.dt / s, m, s)
        yield x


def _superoperator_states(gen: EchoGenerator, x: np.ndarray, grid: TimeGrid):
    """X(t_k) for every grid point, as d x d matrices, by the route for the generator's dim."""
    d = gen.dim
    yield x
    steps = _dense_states if d < _MATRIX_FREE_DIM else _matrix_free_states
    for state in steps(gen, x, grid):
        yield state.reshape(d, d)


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

    ``superoperator`` propagates exactly, to unit roundoff, by one of two
    routes chosen by dim.  Below ``_MATRIX_FREE_DIM`` it builds one step
    matrix exp(L dt) from the dense generator L and applies it once per grid
    step, on numpy's BLAS pool; it needs no eigenbasis, so defective
    generators are handled too.  The step matrix is the degree-18 Taylor
    polynomial in five matrix products with scaling and squaring (Bader,
    Blanes & Casas, Mathematics 7, 1174, 2019), so it needs no linear solve.
    From that dim on it never forms L: each grid step is the truncated-Taylor
    action of Al-Mohy & Higham (SIAM J. Sci. Comput. 33, 488, 2011) on the
    d x d state, d x d products only, with substeps from a bound on
    ||L dt||_1.  ``stepper`` is adaptive RK45, the one route on scipy.

    The trajectory holds the trace at every grid point; the superoperator
    method holds one state at a time and the diagonal of each.
    """
    check_method(method, generator.dim)
    matrix = np.asarray(getattr(rho0, "matrix", rho0), dtype=complex)
    if matrix.shape != (generator.dim, generator.dim):
        raise ValueError(
            f"initial state shape {matrix.shape} does not match generator dim {generator.dim}"
        )
    check_initial_state(matrix)

    if method == "stepper":
        traces = np.einsum("tii->t", _propagate_stepper(generator, matrix, grid, rtol, atol))
    else:
        diagonals = np.empty((len(grid), generator.dim), dtype=complex)
        for k, x in enumerate(_superoperator_states(generator, matrix, grid)):
            diagonals[k] = np.diagonal(x)
        # each diagonal summed left to right from zero, as einsum("tii->t") sums a stack of states
        traces = np.zeros(len(grid), dtype=complex)
        for column in diagonals.T:
            traces += column
    return Trajectory(grid, traces)


def trace_curve(trajectory: Trajectory) -> FidelityCurve:
    """Fidelity amplitude tr[X(t)] along a trajectory."""
    return FidelityCurve(trajectory.grid, trajectory.traces)
