"""Monte-Carlo ensembles: simulation averages, error bars and theory curves.

A run simulates ``n_batch * n_run`` independent realizations.  Realization
``b * n_run + r`` always consumes the same random substreams, so results are
bitwise reproducible no matter how work is distributed over processes.
Batch means feed the error bars: the reported standard error is the spread
of the ``n_batch`` batch means.

Per realization the damped amplitude can be obtained three ways (they agree
up to discretisation error):

* ``volterra-per-realization``: solve the realization's own integral
  equation, using that tr[M(t) M(tau)^dag] = tr[M(t - tau)]; O(dim^2) per
  time point, the only practical choice at dim ~ 50.
* ``superoperator`` / ``stepper``: integrate the reduced master equation
  and take the trace.

The theory curves solve the same integral equation once, on the
batch-averaged inputs <f> and <tr M>/dim.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import volterra
from .curves import FidelityCurve, TimeGrid, check_same_grid
from .echo import EchoOperator, check_initial_state
from .master import _MAX_SUPEROP_DIM, propagate, rmt_generator
from .rmt import EnsembleConfig, build_realization

SIM_METHODS = ("superoperator", "stepper", "volterra-per-realization")
# realizations per worker task; fixed so chunking never affects results
_CHUNK_REALIZATIONS = 32


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
        # EnsembleConfig re-checks dim/beta/master_seed
        EnsembleConfig(self.dim, self.beta, self.master_seed)
        if not np.isfinite(self.lam):
            raise ValueError(f"lam must be finite, got {self.lam!r}")
        gammas = tuple(float(g) for g in self.gamma_list)
        if any(not np.isfinite(g) or g < 0.0 for g in gammas):
            raise ValueError(f"every gamma must be finite and >= 0, got {self.gamma_list!r}")
        if len(set(gammas)) != len(gammas):
            raise ValueError(f"gamma_list has duplicates: {self.gamma_list!r}")
        for g in gammas:
            if 0.5 * g * self.grid.dt >= 1.0:
                raise ValueError(
                    f"gamma = {g:g} with dt = {self.grid.dt:g} violates gamma*dt/2 < 1; refine the grid"
                )
        self.gamma_list = gammas
        if int(self.n_run) != self.n_run or self.n_run < 1:
            raise ValueError(f"n_run must be an integer >= 1, got {self.n_run!r}")
        if int(self.n_batch) != self.n_batch or self.n_batch < 1:
            raise ValueError(f"n_batch must be an integer >= 1, got {self.n_batch!r}")
        if self.method not in SIM_METHODS + ("auto",):
            raise ValueError(f"method must be one of {SIM_METHODS + ('auto',)}, got {self.method!r}")
        if self.initial_state is not None:
            state = check_initial_state(self.initial_state)
            if state.shape != (self.dim, self.dim):
                raise ValueError(f"initial state shape {state.shape} does not match dim {self.dim}")
            self.initial_state = state

    def resolved_method(self) -> str:
        if self.method != "auto":
            return self.method
        # dense superoperators are exact and cheap for small dims only
        return "superoperator" if self.dim <= 16 else "volterra-per-realization"

    def alpha(self) -> dict[float, float | None]:
        """Gamma / lam per rate; None when the echo is unperturbed."""
        return {g: (g / self.lam if self.lam != 0.0 else None) for g in self.gamma_list}

    def digest(self) -> str:
        """Stable hash of everything that determines the results."""
        if self.initial_state is None:
            state = "maximally-mixed"
        else:
            state = hashlib.sha256(
                np.ascontiguousarray(self.initial_state).tobytes()
            ).hexdigest()
        payload = json.dumps(
            {
                "dim": self.dim, "beta": self.beta, "master_seed": self.master_seed,
                "lam": self.lam, "gamma_list": list(self.gamma_list),
                "dt": self.grid.dt, "n_steps": self.grid.n_steps,
                "n_run": self.n_run, "n_batch": self.n_batch,
                "method": self.resolved_method(), "initial_state": state,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(eq=False)
class RunReport:
    """Everything a simulate run produces."""

    config: ExperimentConfig
    f_lambda: FidelityCurve
    kernel: FidelityCurve
    simulated: dict[float, FidelityCurve]
    theory_phi: dict[float, FidelityCurve]
    theory: dict[float, FidelityCurve]
    first_order: dict[float, FidelityCurve]
    sim_minus_f: dict[float, FidelityCurve]
    theory_minus_f: dict[float, FidelityCurve]
    alpha: dict[float, float | None]
    metadata: dict = field(default_factory=dict)


def difference_curve(a: FidelityCurve, b: FidelityCurve) -> FidelityCurve:
    """a - b with standard errors added in quadrature.

    Treats the inputs as independent, which is conservative when they are
    positively correlated (e.g. curves sharing realizations).
    """
    grid = check_same_grid(a, b)

    def combine(ea, eb):
        if ea is None and eb is None:
            return None
        if ea is None:
            return eb.copy()
        if eb is None:
            return ea.copy()
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
    {gamma: first-order iterate}.  Solver errors are re-raised with the
    offending Gamma named.
    """
    phi_by_gamma: dict[float, FidelityCurve] = {}
    theory: dict[float, FidelityCurve] = {}
    first: dict[float, FidelityCurve] = {}
    for g in gammas:
        try:
            phi = volterra.solve(volterra.VolterraProblem(f, kernel, g))
        except volterra.StepSizeError as exc:
            raise volterra.StepSizeError(f"gamma = {g:g}: {exc}") from exc
        phi_by_gamma[g] = phi
        theory[g] = volterra.generalized_fidelity(phi, g)
        first[g] = volterra.first_order(f, kernel, g)
    return phi_by_gamma, theory, first


def _chunk_task(args):
    """Simulate one contiguous block of realizations (worker entry point)."""
    (start, count, dim, beta, master_seed, lam, dt, n_steps, gammas, method, rho0) = args
    grid = TimeGrid(dt, n_steps)
    times = grid.times
    nt = len(grid)
    m = len(gammas)
    if rho0 is None:
        rho0 = np.eye(dim, dtype=complex) / dim
    f_out = np.empty((count, nt), dtype=complex)
    k_out = np.empty((count, nt), dtype=complex)
    fg_out = np.empty((count, m, nt), dtype=complex)
    damp = np.exp(-np.multiply.outer(np.asarray(gammas), times)) if m else None
    for pos in range(count):
        try:
            cfg = EnsembleConfig(dim, beta, master_seed, start + pos)
            realization = build_realization(cfg)
            op = EchoOperator(realization, lam)
            f_vals = op.fidelity_values(times, rho0)
            k_vals = op.kernel_values(times)
            f_out[pos] = f_vals
            k_out[pos] = k_vals
            if m == 0:
                continue
            if method == "volterra-per-realization":
                phi = volterra.solve_many(
                    FidelityCurve(grid, f_vals), FidelityCurve(grid, k_vals), gammas
                )
                fg_out[pos] = damp * phi
            else:
                h_lam = np.diag(realization.env_levels) + lam * realization.perturbation
                h_zero = np.diag(realization.env_levels)
                for gi, g in enumerate(gammas):
                    gen = rmt_generator(h_lam, h_zero, g)
                    traj = propagate(gen, rho0, grid, method=method)
                    fg_out[pos, gi] = np.einsum("tii->t", traj.states)
        except Exception as exc:
            raise RuntimeError(
                f"realization {start + pos} (master_seed={master_seed}) failed: {exc}"
            ) from exc
    return start, f_out, k_out, fg_out


def run_ensemble(config: ExperimentConfig, n_jobs: int = 1) -> RunReport:
    """Simulate the ensemble and derive theory curves from its averages."""
    if int(n_jobs) != n_jobs or n_jobs < 1:
        raise ValueError(f"n_jobs must be an integer >= 1, got {n_jobs!r}")
    method = config.resolved_method()
    if method == "superoperator" and config.dim > _MAX_SUPEROP_DIM:
        raise ValueError(
            f"superoperator simulation at dim = {config.dim} is infeasible "
            "(dense generator too large); use stepper or volterra-per-realization"
        )
    t_started = time.perf_counter()
    grid = config.grid
    nt = len(grid)
    m = len(config.gamma_list)
    n_total = config.n_batch * config.n_run

    tasks = []
    for start in range(0, n_total, _CHUNK_REALIZATIONS):
        count = min(_CHUNK_REALIZATIONS, n_total - start)
        tasks.append(
            (
                start, count, config.dim, config.beta, config.master_seed,
                config.lam, grid.dt, grid.n_steps, config.gamma_list, method,
                config.initial_state,
            )
        )

    f_all = np.empty((n_total, nt), dtype=complex)
    k_all = np.empty((n_total, nt), dtype=complex)
    fg_all = np.empty((n_total, m, nt), dtype=complex)
    pool = ProcessPoolExecutor(max_workers=n_jobs) if n_jobs > 1 else None
    try:
        results = map(_chunk_task, tasks) if pool is None else pool.map(_chunk_task, tasks)
        for start, f_part, k_part, fg_part in results:
            stop = start + f_part.shape[0]
            f_all[start:stop] = f_part
            k_all[start:stop] = k_part
            fg_all[start:stop] = fg_part
    finally:
        if pool is not None:
            # also on a failed realization: drop queued chunks, reap the workers
            pool.shutdown(cancel_futures=True)

    # batch means, then statistics over batches
    shape = (config.n_batch, config.n_run)
    f_batch = f_all.reshape(shape + (nt,)).mean(axis=1)
    k_batch = k_all.reshape(shape + (nt,)).mean(axis=1)
    fg_batch = fg_all.reshape(shape + (m, nt)).mean(axis=1)

    f_mean, f_se_re, f_se_im = batch_statistics(f_batch)
    k_mean, k_se_re, k_se_im = batch_statistics(k_batch)
    f_lambda = FidelityCurve(grid, f_mean, stderr_re=f_se_re, stderr_im=f_se_im)
    kernel = FidelityCurve(grid, k_mean, stderr_re=k_se_re, stderr_im=k_se_im)

    simulated: dict[float, FidelityCurve] = {}
    for gi, g in enumerate(config.gamma_list):
        mean, se_re, se_im = batch_statistics(fg_batch[:, gi, :])
        simulated[g] = FidelityCurve(grid, mean, stderr_re=se_re, stderr_im=se_im)

    phi_by_gamma, theory, first = theory_pipeline(f_lambda, kernel, config.gamma_list)
    sim_minus_f = {g: difference_curve(simulated[g], f_lambda) for g in config.gamma_list}
    theory_minus_f = {g: difference_curve(theory[g], f_lambda) for g in config.gamma_list}

    metadata = {
        "method": method,
        "n_jobs": int(n_jobs),
        "n_realizations": int(n_total),
        "master_seed": config.master_seed,
        "config_digest": config.digest(),
        "elapsed_s": time.perf_counter() - t_started,
    }
    return RunReport(
        config=config,
        f_lambda=f_lambda,
        kernel=kernel,
        simulated=simulated,
        theory_phi=phi_by_gamma,
        theory=theory,
        first_order=first,
        sim_minus_f=sim_minus_f,
        theory_minus_f=theory_minus_f,
        alpha=config.alpha(),
        metadata=metadata,
    )
