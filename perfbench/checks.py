"""Output checks made apart from the program.

Each check reads the files a command wrote, with numpy alone, and compares
them with a closed form, an independent re-solve, ``scipy.linalg.expm`` or a
property the paper states.  None compares with a stored copy of earlier
output.  A check returns a list of failures, each ``(check name, message)``;
an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
from scipy.linalg import expm, solve_triangular

from workloads import CSV_HEADER, damped_cosine

# |f(0) - 1|, f_lambda vs f_bar, |f| <= 1: round-off only
EXACT_TOL = 1e-12
# written phi vs the dense re-solve: same discrete equations, other arithmetic
RESOLVE_TOL = 1e-9
# theory-long vs the closed form, in units of dt^2 (at most 0.07 dt^2 seen)
TRAPEZOID_TOL = 0.5
# superoperator propagation vs expm (about 1e-14 seen on both curves)
EXPM_TOL = 1e-9


def tag(g: float) -> str:
    """File-name tag of a rate, as the CLI writes it."""
    return f"{g:g}"


def read_curve(path: Path):
    """(t, values, re_err, im_err) from a curve CSV."""
    with open(path) as fh:
        header = fh.readline().strip()
    if header != CSV_HEADER:
        raise ValueError(f"{path.name}: header {header!r}")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, 0], table[:, 1] + 1j * table[:, 2], table[:, 3], table[:, 4]


def _values(out: Path, name: str) -> np.ndarray:
    return read_curve(out / f"{name}.csv")[1]


def check_manifest(out: Path, names: list) -> list:
    """Every expected curve is listed in manifest.json and present on disk."""
    try:
        files = json.loads((out / "manifest.json").read_text())["files"]
    except (OSError, ValueError, KeyError) as exc:
        return [("manifest", f"unreadable manifest: {exc}")]
    fails = [("manifest", f"{n} not listed") for n in names if n not in files]
    fails += [("manifest", f"{f} missing") for f in files.values() if not (out / f).is_file()]
    return fails


def starts_at_one(out: Path, name: str) -> list:
    v0 = _values(out, name)[0]
    if abs(v0 - 1.0) > EXACT_TOL:
        return [("starts_at_one", f"{name}(0) = {v0!r}")]
    return []


def resolve_phi(f: np.ndarray, fbar: np.ndarray, gamma: float, dt: float) -> np.ndarray:
    """Trapezoid discretisation of phi = f + Gamma (fbar * phi), solved densely.

    Row i: phi_i - Gamma dt [fbar_i phi_0 / 2 + sum_{0<j<i} fbar_{i-j} phi_j
    + fbar_0 phi_i / 2] = f_i, and phi_0 = f_0.
    """
    n = f.shape[0]
    i, j = np.tril_indices(n)
    weights = np.where((j == 0) | (j == i), 0.5, 1.0)
    weights[i == 0] = 0.0
    a = np.zeros((n, n), dtype=complex)
    a[i, j] = -gamma * dt * weights * fbar[i - j]
    a[np.diag_indices(n)] += 1.0
    return solve_triangular(a, f, lower=True)


def check_fig1(out: Path, rates: list) -> list:
    """Properties of a simulate run at the fig1 physics (maximally mixed state)."""
    names = ["f_lambda", "f_bar"] + [
        f"{kind}_gamma_{tag(g)}" for g in rates
        for kind in ("f_sim", "phi", "f_theory", "first_order", "diff_sim", "diff_theory")
    ]
    fails = check_manifest(out, names)
    if fails:
        return fails
    fails += starts_at_one(out, "f_lambda") + starts_at_one(out, "f_bar")

    t, f, f_se_re, f_se_im = read_curve(out / "f_lambda.csv")
    fbar = _values(out, "f_bar")
    dev = np.max(np.abs(f - fbar))
    if dev > EXACT_TOL:
        fails.append(("mixed_state", f"max |f_lambda - f_bar| = {dev:.3e}"))
    if np.max(np.abs(f)) > 1.0 + EXACT_TOL:
        fails.append(("bounded", f"max |f_lambda| = {np.max(np.abs(f))!r}"))

    dt = t[1] - t[0]
    for g in rates:
        phi = _values(out, f"phi_gamma_{tag(g)}")
        dev = np.max(np.abs(phi - resolve_phi(f, fbar, g, dt)))
        if dev > RESOLVE_TOL * max(1.0, np.max(np.abs(phi))):
            fails.append(("resolve", f"gamma={g:g}: max |phi - dense re-solve| = {dev:.3e}"))

    # gate 07: difference positive on [1, 10], ordered in the rate at t = 4,
    # simulation within 3 combined standard errors of theory at >= 95 %
    window = (t >= 1.0) & (t <= 10.0)
    i4 = int(np.argmin(np.abs(t - 4.0)))
    at_t4 = []
    for g in rates:
        diff = _values(out, f"diff_sim_gamma_{tag(g)}").real
        if not np.all(diff[window] > 0.0):
            fails.append(("positive", f"gamma={g:g}: difference dips to {diff[window].min():.3e}"))
        at_t4.append(diff[i4])
        _, sim, se_re, se_im = read_curve(out / f"f_sim_gamma_{tag(g)}.csv")
        theory = _values(out, f"f_theory_gamma_{tag(g)}")
        for part, se_sim, se_base in ((np.real, se_re, f_se_re), (np.imag, se_im, f_se_im)):
            se = np.hypot(se_sim, se_base)[window]
            coverage = np.mean(np.abs(part(sim) - part(theory))[window] <= 3.0 * se)
            if coverage < 0.95:
                fails.append(("coverage", f"gamma={g:g}: coverage {coverage:.3f} < 0.95"))
    if not np.all(np.diff(at_t4) > 0.0):
        fails.append(("ordered", f"differences at t=4 not increasing in the rate: {at_t4}"))
    return fails


def gfa_closed_form(t, a: float, omega: float, gamma: float) -> np.ndarray:
    """f_Gamma for f = fbar = exp(-a t) cos(omega t); needs omega > Gamma / 2."""
    nu = np.sqrt(omega**2 - gamma**2 / 4.0)
    return np.exp(-(a + gamma / 2.0) * t) * (np.cos(nu * t) + gamma / (2.0 * nu) * np.sin(nu * t))


def first_order_closed_form(t, a: float, omega: float, gamma: float) -> np.ndarray:
    """exp(-Gamma t) (f + Gamma fbar * f) for the same f = fbar."""
    conv = np.exp(-a * t) * (t * np.cos(omega * t) + np.sin(omega * t) / omega) / 2.0
    return np.exp(-gamma * t) * (damped_cosine(t, a, omega) + gamma * conv)


def check_theory(out: Path, a: float, omega: float, rates: list, dt: float) -> list:
    """theory --kernels on f = fbar = exp(-a t) cos(omega t) against closed forms."""
    names = ["f_lambda", "f_bar"] + [
        f"{kind}_gamma_{tag(g)}" for g in rates
        for kind in ("phi", "f_theory", "first_order", "diff_theory")
    ]
    fails = check_manifest(out, names)
    if fails:
        return fails
    t, f, _, _ = read_curve(out / "f_lambda.csv")
    tol = TRAPEZOID_TOL * dt * dt
    for g in rates:
        fails += starts_at_one(out, f"f_theory_gamma_{tag(g)}")
        for kind, exact in (("f_theory", gfa_closed_form), ("first_order", first_order_closed_form)):
            dev = np.max(np.abs(_values(out, f"{kind}_gamma_{tag(g)}") - exact(t, a, omega, g)))
            if dev > tol:
                fails.append(("closed_form", f"{kind} gamma={g:g}: max error {dev:.3e} > {tol:.3e}"))
        theory = _values(out, f"f_theory_gamma_{tag(g)}")
        dev = np.max(np.abs(_values(out, f"diff_theory_gamma_{tag(g)}") - (theory - f)))
        if dev > EXACT_TOL:
            fails.append(("difference", f"gamma={g:g}: diff_theory off by {dev:.3e}"))
    return fails


def check_transform(kernel, tau_c: float, c0: float) -> list:
    """``kernel.transform`` vs c0 / (2 (1 - i w tau_c)), the exponential kernel's closed form."""
    fails = []
    for w in (-3.0, -0.7, 0.0, 0.4, 2.5):
        exact = c0 / (2.0 * (1.0 - 1j * w * tau_c))
        dev = abs(kernel.transform(w) - exact)
        if dev > 1e-9 * abs(exact):
            fails.append(("transform", f"omega={w:g}: off by {dev:.3e}"))
    return fails


def superoperator(rhs, dim: int) -> np.ndarray:
    """Dense L with L vec(X) = vec(rhs(X)), row-major vec, column by column."""
    basis = np.eye(dim * dim, dtype=complex).reshape(dim * dim, dim, dim)
    return rhs(basis).reshape(dim * dim, dim * dim).T


def reduced_generator(h_lambda: np.ndarray, h_zero: np.ndarray, rate: float) -> np.ndarray:
    """L of dX/dt = -i (H_lam X - X H_0) - rate (X - tr[X]/N 1)."""
    n = h_lambda.shape[0]
    eye = np.eye(n)

    def rhs(x):
        tr = np.trace(x, axis1=-2, axis2=-1)[..., None, None]
        return -1j * (h_lambda @ x - x @ h_zero) - rate * (x - tr * eye / n)

    return superoperator(rhs, n)


def exponential_bath_operator(h: np.ndarray, v: np.ndarray, tau_c: float, c0: float) -> np.ndarray:
    """G = int_0^inf ds C(s) U(s) V U(s)^dag for C(s) = (c0 / 2 tau_c) exp(-s / tau_c).

    In the eigenbasis of H, G_ab = V_ab c0 / (2 (1 - i (E_b - E_a) tau_c)).
    """
    e, q = np.linalg.eigh(h)
    omega = e[None, :] - e[:, None]
    g = (q.conj().T @ v @ q) * (c0 / (2.0 * (1.0 - 1j * omega * tau_c)))
    return q @ g @ q.conj().T


def general_generator(h_lambda, h_zero, v, strength: float, tau_c: float, c0: float) -> np.ndarray:
    """L of the Born-Markov equation with an exponential bath kernel:
    dX/dt = -i (H_lam X - X H_0) - g^2 (V G_lam X - V X G_0 - G_lam X V + X G_0 V).
    """
    g_lam = exponential_bath_operator(h_lambda, v, tau_c, c0)
    g_zero = exponential_bath_operator(h_zero, v, tau_c, c0)
    g2 = strength**2

    def rhs(x):
        return (-1j * (h_lambda @ x - x @ h_zero)
                - g2 * (v @ g_lam @ x - v @ x @ g_zero - g_lam @ x @ v + x @ g_zero @ v))

    return superoperator(rhs, h_lambda.shape[0])


def _expm_traces(generator: np.ndarray, rho0: np.ndarray, tau: float) -> np.ndarray:
    """tr(exp(L t) rho0) at t = tau, 2 tau and 4 tau, by squaring exp(L tau)."""
    dim = rho0.shape[0]
    step = expm(generator * tau)
    out = []
    for _ in range(3):
        out.append(np.trace((step @ rho0.reshape(-1)).reshape(dim, dim)))
        step = step @ step
    return np.array(out)


def check_general(out: Path, params: dict) -> list:
    """general with an exponential kernel: f(0), the transform, and both curves vs expm.

    The Hamiltonians and couplings come from the program's own sampler; the
    bath operators and both generators are built here from their definitions.
    """
    from echo_gfa.master import CorrelationKernel
    from echo_gfa.rmt import EnsembleConfig, build_realization, sample_gaussian, stream

    fails = check_manifest(out, ["f_general", "f_rmt_reference"])
    if fails:
        return fails
    tau_c, c0 = params["tau_c"], params["c0"]
    fails += starts_at_one(out, "f_general")
    fails += check_transform(CorrelationKernel.exponential(tau_c, c0), tau_c, c0)

    dim, beta, seed = params["dim"], params["beta"], params["master_seed"]
    rate = params["coupling_strength"] ** 2 * dim * c0
    manifest_rate = json.loads((out / "manifest.json").read_text()).get("reduction_rate")
    if manifest_rate is None or abs(manifest_rate - rate) > EXACT_TOL * rate:
        fails.append(("reduction_rate", f"manifest {manifest_rate!r}, expected {rate!r}"))
    env = build_realization(EnsembleConfig(dim, beta, seed))
    h_zero = np.diag(env.env_levels).astype(complex)
    h_lambda = h_zero + params["lambda"] * env.perturbation
    rho0 = np.eye(dim, dtype=complex) / dim

    # compared at a quarter, half and all of the grid, which needs 4 | n_steps
    t, ref, _, _ = read_curve(out / "f_rmt_reference.csv")
    n = t.shape[0] - 1
    index = [n // 4, n // 2, n]
    tau = t[n] / 4.0
    fails += starts_at_one(out, "f_rmt_reference")
    exact = _expm_traces(reduced_generator(h_lambda, h_zero, rate), rho0, tau)
    for i, value in zip(index, exact):
        if abs(ref[i] - value) > EXPM_TOL:
            fails.append(("expm", f"f_rmt_reference(t={t[i]:g}) off by {abs(ref[i] - value):.3e}"))

    general = _values(out, "f_general")
    mean = np.zeros(len(index), dtype=complex)
    for draw in range(params["n_draws"]):
        v = sample_gaussian(dim, beta, stream(EnsembleConfig(dim, beta, seed, draw), "coupling"))
        generator = general_generator(h_lambda, h_zero, v.astype(complex),
                                      params["coupling_strength"], tau_c, c0)
        mean += _expm_traces(generator, rho0, tau) / params["n_draws"]
    for i, value in zip(index, mean):
        if abs(general[i] - value) > EXPM_TOL:
            fails.append(("expm_general", f"f_general(t={t[i]:g}) off by {abs(general[i] - value):.3e}"))
    return fails


def digest(out: Path) -> dict:
    """sha256 of every file in an output directory, by name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def check_identical(reference: dict, other: dict, what: str) -> list:
    if reference == other:
        return []
    differ = sorted(k for k in set(reference) | set(other) if reference.get(k) != other.get(k))
    return [("identical", f"{what}: {len(differ)} file(s) differ, e.g. {differ[0]}")]


def check_workload(name: str, out: Path, params: dict) -> list:
    if name in ("fig1-ensemble", "fig1-2w"):
        return check_fig1(out, params["rates"])
    if name == "theory-long":
        return check_theory(out, params["a"], params["omega"], params["rates"], params["dt"])
    return check_general(out, params)
