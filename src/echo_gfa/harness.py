"""Monte-Carlo ensembles: simulation averages, error bars and theory curves.

A run simulates ``n_batch * n_run`` independent realizations.  Realization
``b * n_run + r`` always consumes the same random substreams, so results are
bitwise reproducible no matter how work is distributed over processes.
Batch means feed the error bars: the reported standard error is the spread
of the ``n_batch`` batch means.  The runner keeps only per-batch running
sums, so its memory does not depend on ``n_run``.

Per realization the damped amplitude is exp(-Gamma t) phi_r, where phi_r
solves the realization's own integral equation (using that
tr[M(t) M(tau)^dag] = tr[M(t - tau)]; O(dim^2) per time point).  A worker
chunk solves all its (realization, Gamma) rows in one batched forward
substitution.  The reduced master equation gives the same trace; it serves
the gate checks and :func:`run_general`, not the ensemble runner.

The theory curves solve the same integral equation, for all rates in one
call, on the batch-averaged inputs <f> and <tr M>/dim.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from . import volterra
from .curves import FidelityCurve, TimeGrid, check_integer, check_number, check_same_grid
from .echo import EchoOperator, EchoSetup, check_hermitian
from .master import CorrelationKernel, _pin_numpy_blas, check_method, general_generator, propagate, rmt_generator, trace_curve
from .rmt import EnsembleConfig, build_realization, sample_gaussian, stream

# both spellings name the one per-realization route
SIM_METHODS = ("auto", "volterra-per-realization")
# realizations per worker task; fixed so chunking never affects results
_CHUNK_REALIZATIONS = 32


def _check_shared(config) -> np.ndarray | None:
    """Checks common to both config kinds; returns the checked initial state.

    ``initial_state = None`` selects the maximally mixed state 1/dim.  ``lam`` is stored as a float.
    """
    # EnsembleConfig checks dim/beta/master_seed
    EnsembleConfig(config.dim, config.beta, config.master_seed)
    config.lam = check_number("lambda", config.lam)
    setup = EchoSetup(config.lam, config.grid, config.initial_state)
    return None if config.initial_state is None else setup.state(config.dim)


@dataclass(eq=False)
class ExperimentConfig:
    """Full description of one ensemble experiment."""

    dim: int
    beta: int
    master_seed: int
    lam: float
    gamma_list: tuple[float, ...]
    grid: TimeGrid
    n_run: int
    n_batch: int = 3
    method: str = "auto"
    initial_state: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.initial_state = _check_shared(self)
        gammas = tuple(check_number("gamma_list entry", g) for g in self.gamma_list)
        volterra.check_rates(gammas, self.grid.dt)
        if len(set(gammas)) != len(gammas):
            raise ValueError(f"gamma_list has duplicates: {self.gamma_list!r}")
        self.gamma_list = gammas
        check_integer("n_run", self.n_run, 1)
        check_integer("n_batch", self.n_batch, 1)
        if self.method not in SIM_METHODS:
            raise ValueError(
                f"method must be one of {SIM_METHODS}, got {self.method!r} "
                "(master-equation propagation belongs to general configs)"
            )

    def alpha(self) -> dict[float, float | None]:
        """Gamma / lam per rate; None when the echo is unperturbed."""
        return {g: (g / self.lam if self.lam != 0.0 else None) for g in self.gamma_list}


@dataclass(eq=False)
class GeneralConfig:
    """Full description of one Born-Markov run over coupling-matrix draws.

    ``coupling = None`` draws a fresh Gaussian coupling per draw; a fixed
    coupling needs ``n_draws = 1``.
    """

    dim: int
    beta: int
    master_seed: int
    lam: float
    strength: float
    kernel: CorrelationKernel
    grid: TimeGrid
    n_draws: int = 1
    method: str = "superoperator"
    initial_state: np.ndarray | None = None
    coupling: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.initial_state = _check_shared(self)
        self.strength = check_number("coupling_strength", self.strength)
        if not np.isfinite(self.strength * self.strength * self.dim * self.kernel.c0):
            raise ValueError(f"coupling_strength = {self.strength!r} makes strength**2 * dim * c0 infinite")
        check_integer("n_draws", self.n_draws, 1)
        check_method(self.method, self.dim)
        if self.coupling is not None:
            coupling = np.asarray(self.coupling, dtype=complex)
            if coupling.shape != (self.dim, self.dim):
                raise ValueError(f"coupling shape {coupling.shape} does not match dim {self.dim}")
            check_hermitian("coupling", coupling)
            if self.n_draws != 1:
                raise ValueError("a fixed coupling requires n_draws = 1")
            self.coupling = coupling


@dataclass(eq=False)
class RunReport:
    """Everything a simulate run produces; the difference curves are made each time they are read."""

    f_lambda: FidelityCurve
    kernel: FidelityCurve
    simulated: dict[float, FidelityCurve]
    theory_phi: dict[float, FidelityCurve]
    theory: dict[float, FidelityCurve]
    first_order: dict[float, FidelityCurve]

    @property
    def sim_minus_f(self) -> dict[float, FidelityCurve]:
        """f_{lambda,Gamma} - f_lambda per simulated rate."""
        return {g: difference_curve(c, self.f_lambda) for g, c in self.simulated.items()}

    @property
    def theory_minus_f(self) -> dict[float, FidelityCurve]:
        """exp(-Gamma t) phi - f_lambda per theory rate."""
        return {g: difference_curve(c, self.f_lambda) for g, c in self.theory.items()}


def difference_curve(a: FidelityCurve, b: FidelityCurve) -> FidelityCurve:
    """a - b with standard errors added in quadrature.

    Treats the inputs as independent, which is conservative when they are
    positively correlated (e.g. curves sharing realizations).
    """
    grid = check_same_grid(a, b)

    def combine(ea, eb):
        if ea is None or eb is None:
            return None if ea is eb else (eb if ea is None else ea).copy()
        return np.sqrt(ea * ea + eb * eb)

    return FidelityCurve(
        grid,
        a.values - b.values,
        stderr_re=combine(a.stderr_re, b.stderr_re),
        stderr_im=combine(a.stderr_im, b.stderr_im),
    )


def batch_statistics(batch_means: np.ndarray):
    """Mean over batches plus standard errors of Re/Im parts (None if 1 batch)."""
    batch_means = np.asarray(batch_means)
    n_batch = batch_means.shape[0]
    mean = batch_means.mean(axis=0)
    if n_batch < 2:
        return mean, None, None
    scale = 1.0 / np.sqrt(n_batch)
    se_re = batch_means.real.std(axis=0, ddof=1) * scale
    se_im = batch_means.imag.std(axis=0, ddof=1) * scale
    return mean, se_re, se_im


def theory_pipeline(f: FidelityCurve, kernel: FidelityCurve, gammas):
    """Solve the integral equation for each Gamma on averaged inputs.

    Returns dicts {gamma: phi}, {gamma: exp(-Gamma t) phi} and
    {gamma: first-order iterate}.  All rates are solved in one call, each
    exactly as a single-rate solve gives it.  A step-size error names the
    offending Gamma.
    """
    rows = volterra.solve_many(f, kernel, gammas)
    phi = {g: FidelityCurve(f.grid, row) for g, row in zip(gammas, rows)}
    theory = {g: volterra.generalized_fidelity(phi[g], g) for g in gammas}
    first = dict(zip(gammas, volterra._first_orders(f, kernel, gammas)))
    return phi, theory, first


def _chunk_task(args):
    """Simulate one contiguous block of realizations (worker entry point)."""
    config, start, count = args
    grid, gammas, lam = config.grid, config.gamma_list, config.lam
    mixed = config.initial_state is None
    k_out = np.empty((count, len(grid)), dtype=complex)
    # for rho0 = 1/dim the fidelity amplitude is the kernel: one curve serves both
    f_out = k_out if mixed else np.empty_like(k_out)
    for pos in range(count):
        try:
            cfg = EnsembleConfig(config.dim, config.beta, config.master_seed, start + pos)
            op = EchoOperator(build_realization(cfg), lam)
            k_out[pos] = op.kernel_values(grid)
            if not mixed:
                f_out[pos] = op.fidelity_values(grid, config.initial_state)
        except Exception as exc:
            raise RuntimeError(
                f"realization {start + pos} (master_seed={config.master_seed}) failed: {exc}"
            ) from exc
    fg_out = volterra.solve_rows(f_out, k_out, gammas, grid.dt)
    fg_out *= np.exp(-np.outer(gammas, grid.times))
    return start, f_out, k_out, fg_out


def _release_free_heap() -> None:
    """Hand the C heap's free pages back to the operating system (glibc's malloc_trim).

    Once glibc has unmapped one large array, it serves later ones of that size
    from its heap and keeps their pages after they are freed.  So the step
    matrices of ``general``'s draws would stay resident under the curve
    writing that follows.  The CLI calls this once ``general`` has propagated;
    the library leaves the process heap alone.  Where there is no glibc this
    does nothing.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError, TypeError):  # TypeError: Windows' CDLL takes no None
        return
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    trim(0)


def _init_worker(errstate: dict) -> None:
    """Pool initializer: the caller's floating-point handling, numpy's BLAS on one thread."""
    np.seterr(**errstate)
    _pin_numpy_blas()


def run_ensemble(config: ExperimentConfig, n_jobs: int = 1) -> RunReport:
    """Simulate the ensemble and derive theory curves from its averages."""
    check_integer("n_jobs", n_jobs, 1)
    grid = config.grid
    n_total = config.n_batch * config.n_run

    tasks = [
        (config, start, min(_CHUNK_REALIZATIONS, n_total - start))
        for start in range(0, n_total, _CHUNK_REALIZATIONS)
    ]

    # per-batch sums in realization order: memory is independent of n_run, the
    # means are those of the stacked rows
    nt, m = len(grid), len(config.gamma_list)
    sums = [np.empty((config.n_batch,) + shape, dtype=complex) for shape in ((nt,), (nt,), (m, nt))]
    # a worker per chunk at most; one chunk runs in this process
    workers = min(n_jobs, len(tasks))
    pool = None
    if workers > 1:
        # imported here, so a run that starts no workers does not load the process pool
        from concurrent.futures import ProcessPoolExecutor

        # the workers handle floating-point errors as the caller does (np.errstate)
        pool = ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=(np.geterr(),))
    try:
        results = map(_chunk_task, tasks) if pool is None else pool.map(_chunk_task, tasks)
        for start, *parts in results:
            for pos in range(parts[0].shape[0]):
                batch, run = divmod(start + pos, config.n_run)
                for total, part in zip(sums, parts):
                    if run == 0:
                        total[batch] = part[pos]
                    else:
                        total[batch] += part[pos]
    finally:
        if pool is not None:
            # also on a failed realization: drop queued chunks, reap the workers
            pool.shutdown(cancel_futures=True)

    def averaged(batch_sums):
        # batch means, then statistics over batches
        return FidelityCurve(grid, *batch_statistics(batch_sums / config.n_run))

    f_sum, k_sum, fg_sum = sums
    f_lambda, kernel = averaged(f_sum), averaged(k_sum)
    simulated = {g: averaged(fg_sum[:, gi, :]) for gi, g in enumerate(config.gamma_list)}

    # theory_pipeline returns (phi, theory, first order): the report's last three fields
    return RunReport(f_lambda, kernel, simulated, *theory_pipeline(f_lambda, kernel, config.gamma_list))


def run_general(config: GeneralConfig) -> tuple[FidelityCurve, FidelityCurve, float]:
    """Born-Markov runs over coupling draws and the reduced-equation reference.

    Returns (f_general, reference, rate): the mean trace curve over the
    draws with batch-statistics error bars, the trace curve of the reduced
    master equation at ``rate = strength**2 * dim * c0`` (the exact
    reduction rate for a delta kernel), and that rate.  Each propagation
    keeps only its trace, so memory does not grow with the grid.
    """
    dim, beta, grid = config.dim, config.beta, config.grid
    env = build_realization(EnsembleConfig(dim, beta, config.master_seed))
    h_zero = np.diag(env.env_levels).astype(complex)
    h_lam = h_zero + config.lam * env.perturbation
    rho0 = EchoSetup(config.lam, grid, config.initial_state).state(dim)

    traces = np.empty((config.n_draws, len(grid)), dtype=complex)
    for draw in range(config.n_draws):
        coupling = config.coupling
        if coupling is None:
            coupling = sample_gaussian(dim, beta, stream(EnsembleConfig(dim, beta, config.master_seed, draw), "coupling"))
        gen = general_generator(h_lam, h_zero, coupling, config.kernel, config.strength)
        traces[draw] = propagate(gen, rho0, grid, method=config.method).traces
    f_general = FidelityCurve(grid, *batch_statistics(traces))

    rate = config.strength ** 2 * dim * config.kernel.c0
    reference = propagate(rmt_generator(h_lam, h_zero, rate), rho0, grid, method=config.method)
    return f_general, trace_curve(reference), rate
