"""Master-equation generator, bath transforms, and propagation back ends."""

import numpy as np
import pytest
from scipy.linalg import expm

from echo_gfa.curves import TimeGrid
from echo_gfa.echo import EchoSetup, Spectral, fidelity_curve, kernel_curve
from echo_gfa.master import (
    CorrelationKernel,
    PropagationError,
    QuasiDensity,
    gamma_operator,
    general_generator,
    propagate,
    rmt_generator,
    trace_curve,
    _propagate_superoperator,
    _step_matrix,
)
from echo_gfa.rmt import EnsembleConfig, build_realization, sample_gaussian
from echo_gfa.volterra import VolterraProblem, generalized_fidelity, solve
from helpers import random_density, random_hermitian


def make_realization(dim=8, beta=1, seed=42, index=0):
    return build_realization(
        EnsembleConfig(dim=dim, beta=beta, master_seed=seed, realization_index=index)
    )


def realization_generator(real, lam, rate):
    h0 = np.diag(real.env_levels)
    return rmt_generator(h0 + lam * real.perturbation, h0, rate)


class TestQuasiDensity:
    def test_maximally_mixed(self):
        q = QuasiDensity.maximally_mixed(5)
        assert q.matrix.dtype == complex
        assert np.array_equal(q.matrix, np.eye(5) / 5)


class TestCorrelationKernel:
    def test_delta_transform_is_half_weight(self):
        k = CorrelationKernel.delta(c0=1.8)
        for w in (0.0, 3.7, -3.7):
            assert k.transform(w) == 0.9 + 0.0j

    def test_parametric_exponential_closed_form(self):
        # int_0^inf e^{-s/tau} e^{i w s} ds = tau / (1 - i w tau); C(s) = e^{-s/tau}
        # is the exponential kernel of weight c0 = 2 tau
        tau = 0.6
        k = CorrelationKernel.exponential(tau, c0=2 * tau)
        for w in (0.0, 0.31, -0.31, 2.5, -7.0):
            assert abs(k.transform(w) - tau / (1.0 - 1j * w * tau)) < 1e-9

    def test_exponential_normalization(self):
        # C(s) = (c0 / 2 tau) e^{-s/tau} integrates one-sidedly to c0/2 at w=0
        k = CorrelationKernel.exponential(tau_c=0.25, c0=1.4)
        assert abs(k.transform(0.0) - 0.7) < 1e-10
        w = 1.9
        assert abs(k.transform(w) - 0.7 / (1.0 - 1j * w * 0.25)) < 1e-9

    def test_conjugate_symmetry(self):
        k = CorrelationKernel.exponential(tau_c=0.8)
        w = 1.3
        assert abs(k.transform(-w) - np.conj(k.transform(w))) < 1e-12

    def test_transform_is_elementwise(self):
        omega = np.array([[0.0, -1.3], [1.3, 4.0]])
        for k in (CorrelationKernel.delta(0.6), CorrelationKernel.exponential(0.8, c0=0.6)):
            got = k.transform(omega)
            assert got.shape == omega.shape
            assert np.array_equal(got, [[k.transform(w) for w in row] for row in omega])

    def test_validation(self):
        with pytest.raises(ValueError):
            CorrelationKernel(kind="tabulated")
        with pytest.raises(ValueError):
            CorrelationKernel(kind="delta", tau_c=0.5)

    @pytest.mark.parametrize("c0", [-1.0, 0.0, np.nan, np.inf])
    def test_rejects_bad_weight(self, c0):
        with pytest.raises(ValueError, match="c0"):
            CorrelationKernel.delta(c0)
        with pytest.raises(ValueError, match="c0"):
            CorrelationKernel.exponential(0.5, c0=c0)

    @pytest.mark.parametrize("tau_c", [0.0, -1.0, np.nan])
    def test_rejects_bad_correlation_time(self, tau_c):
        with pytest.raises(ValueError, match="tau_c"):
            CorrelationKernel.exponential(tau_c)


class TestGammaOperator:
    def test_delta_kernel_exact(self):
        rng = np.random.default_rng(0)
        v = random_hermitian(5, rng)
        spectral = Spectral(np.arange(5.0), np.eye(5))
        out = gamma_operator(CorrelationKernel.delta(2.0), spectral, v)
        assert np.array_equal(out, v)  # c0/2 = 1

    def test_exponential_closed_form_dense(self):
        # oracle: in the eigenbasis of H, G_ab = V_ab tau / (1 + i (E_a - E_b) tau)
        tau = 0.5
        rng = np.random.default_rng(1)
        h = random_hermitian(4, rng)
        v = random_hermitian(4, rng)
        spectral = Spectral.from_matrix(h)
        got = gamma_operator(CorrelationKernel.exponential(tau, c0=2 * tau), spectral, v)
        e, q = np.linalg.eigh(h)
        vt = q.conj().T @ v @ q
        chat = tau / (1.0 + 1j * np.subtract.outer(e, e) * tau)
        expected = q @ (vt * chat) @ q.conj().T
        assert np.max(np.abs(got - expected)) < 1e-8

    def test_exponential_closed_form_diagonal(self):
        tau = 1.7
        e = np.array([-1.2, 0.0, 0.4, 2.0])
        rng = np.random.default_rng(2)
        v = random_hermitian(4, rng)
        got = gamma_operator(
            CorrelationKernel.exponential(tau, c0=2 * tau), Spectral(e, np.eye(4)), v
        )
        expected = v * (tau / (1.0 + 1j * np.subtract.outer(e, e) * tau))
        assert np.max(np.abs(got - expected)) < 1e-9

    def test_hermitian_for_real_kernel(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(6, rng)
        v = random_hermitian(6, rng)
        g = gamma_operator(
            CorrelationKernel.exponential(tau_c=0.4), Spectral.from_matrix(h), v
        )
        assert np.max(np.abs(g - g.conj().T)) < 1e-10

    def test_zero_coupling_gives_zero(self):
        g = gamma_operator(
            CorrelationKernel.exponential(tau_c=0.4),
            Spectral(np.arange(3.0), np.eye(3)),
            np.zeros((3, 3)),
        )
        assert np.all(g == 0.0)

    def test_rejects_bad_coupling(self):
        spectral = Spectral(np.arange(3.0), np.eye(3))
        k = CorrelationKernel.delta(1.0)
        with pytest.raises(ValueError):
            gamma_operator(k, spectral, np.triu(np.ones((3, 3)), 1))
        with pytest.raises(ValueError):
            gamma_operator(k, spectral, np.eye(4))


class TestGenerators:
    def test_apply_matches_superoperator_rmt(self):
        real = make_realization(dim=6)
        gen = realization_generator(real, lam=0.2, rate=0.3)
        rng = np.random.default_rng(4)
        rho = random_density(6, rng)
        via_l = (gen.superoperator() @ rho.reshape(-1)).reshape(6, 6)
        assert np.max(np.abs(via_l - gen.apply(rho))) < 1e-12

    def test_apply_matches_superoperator_general(self):
        rng = np.random.default_rng(5)
        h0 = random_hermitian(5, rng)
        v = random_hermitian(5, rng)
        gen = general_generator(
            h0 + 0.1 * v, h0, v, CorrelationKernel.exponential(tau_c=0.3), strength=0.4
        )
        rho = random_density(5, rng)
        via_l = (gen.superoperator() @ rho.reshape(-1)).reshape(5, 5)
        assert np.max(np.abs(via_l - gen.apply(rho))) < 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 7])
    @pytest.mark.parametrize("beta", [1, 2])
    @pytest.mark.parametrize("form", ["rmt", "delta", "exponential"])
    def test_superoperator_matches_apply_on_unit_matrices(self, form, beta, dim):
        # the Kronecker-built L against its definition: column k is vec(apply(E_k))
        real = make_realization(dim=dim, beta=beta, seed=31)
        # a full h0 (complex for beta = 2) tells h0 from its transpose
        h0 = real.perturbation
        h_lam = np.diag(real.env_levels) + 0.2 * real.perturbation
        if form == "rmt":
            gen = rmt_generator(h_lam, h0, rate=0.3)
        else:
            v = sample_gaussian(dim, beta, np.random.default_rng(dim))
            kernel = CorrelationKernel.delta(1.0) if form == "delta" else CorrelationKernel.exponential(tau_c=0.5)
            gen = general_generator(h_lam, h0, v, kernel, strength=0.4)
        n = dim * dim
        expected = gen.apply(np.eye(n, dtype=complex).reshape(n, dim, dim)).reshape(n, n).T
        l = gen.superoperator()
        assert l.shape == (n, n)
        assert np.max(np.abs(l - expected)) <= 1e-15 * np.max(np.abs(expected))

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("dim", [3, 8])
    @pytest.mark.parametrize("beta", [1, 2])
    @pytest.mark.parametrize("form", ["rmt", "delta", "exponential"])
    def test_dissipator_matches_its_formula(self, form, beta, dim, stacked):
        # the generator's terms against the master equation written out from gamma_operator
        rng = np.random.default_rng(10 * dim + beta)
        h0 = sample_gaussian(dim, beta, rng)
        v = sample_gaussian(dim, beta, rng)
        h_lam = h0 + 0.2 * sample_gaussian(dim, beta, rng)
        rho = np.stack([random_density(dim, rng) for _ in range(3)]) if stacked else random_density(dim, rng)
        if form == "rmt":
            rate = 0.3
            gen = rmt_generator(h_lam, h0, rate)
            trace = np.trace(rho, axis1=-2, axis2=-1)[..., None, None]
            expected = -rate * (rho - trace / dim * np.eye(dim))
        else:
            kernel = CorrelationKernel.delta(1.0) if form == "delta" else CorrelationKernel.exponential(tau_c=0.5)
            strength = 0.4
            gen = general_generator(h_lam, h0, v, kernel, strength)
            gl = gamma_operator(kernel, Spectral.from_matrix(h_lam), v)
            g0 = gamma_operator(kernel, Spectral.from_matrix(h0), v)
            expected = -strength**2 * (v @ gl @ rho - v @ rho @ g0 - gl @ rho @ v + rho @ g0 @ v)
        got = gen.dissipator(rho)
        assert got.shape == rho.shape
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_rmt_trace_dynamics(self):
        # d/dt tr X = -i lam tr[V X]; the damping term is traceless
        real = make_realization(dim=7)
        lam = 0.15
        gen = realization_generator(real, lam=lam, rate=0.8)
        rng = np.random.default_rng(6)
        rho = random_density(7, rng)
        expected = -1j * lam * np.trace(real.perturbation @ rho)
        assert abs(np.trace(gen.apply(rho)) - expected) < 1e-12

    def test_general_trace_conserved_without_detuning(self):
        # H_lambda = H_0 with a delta bath: the trace derivative vanishes
        rng = np.random.default_rng(7)
        h = random_hermitian(5, rng)
        v = random_hermitian(5, rng)
        gen = general_generator(h, h, v, CorrelationKernel.delta(1.0), strength=0.6)
        rho = random_density(5, rng)
        assert abs(np.trace(gen.apply(rho))) < 1e-12

    def test_zero_strength_is_exactly_unitary(self):
        rng = np.random.default_rng(8)
        h0 = random_hermitian(4, rng)
        v = random_hermitian(4, rng)
        gen = general_generator(h0 + v, h0, v, CorrelationKernel.delta(1.0), strength=0.0)
        rho = random_density(4, rng)
        unitary = -1j * ((h0 + v) @ rho - rho @ h0)
        assert np.array_equal(gen.apply(rho), unitary)

    @pytest.mark.parametrize("strength", [1e155, np.inf, np.nan, "0.1", True])
    def test_general_rejects_strength_without_a_finite_square(self, strength):
        # 1e155 ** 2 raises OverflowError as a Python float
        v = np.diag([1.0, -1.0])
        with pytest.raises(ValueError, match="coupling strength"):
            general_generator(np.eye(2), np.eye(2), v, CorrelationKernel.delta(1.0), strength)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            rmt_generator(np.eye(2), np.eye(2), rate=-0.1)
        with pytest.raises(ValueError):
            rmt_generator(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2), rate=0.1)

    def test_gue_average_reduces_to_isotropic_damping(self):
        # ensemble mean of the general dissipator over the coupling matrix
        # approaches -gamma^2 dim (rho - tr rho / dim) for a unit delta bath
        dim, n_draws, strength = 4, 600, 0.7
        rng = np.random.default_rng(9)
        h = random_hermitian(dim, rng)
        rho = random_density(dim, rng)
        kernel = CorrelationKernel.delta(1.0)
        samples = np.empty((n_draws, dim, dim), dtype=complex)
        for i in range(n_draws):
            v = sample_gaussian(dim, 2, rng)
            gen = general_generator(h, h, v, kernel, strength=strength)
            samples[i] = gen.dissipator(rho)
        mean = samples.mean(axis=0)
        se = samples.std(axis=0, ddof=1) / np.sqrt(n_draws)
        rate = strength**2 * dim
        target = -rate * (rho - np.trace(rho) / dim * np.eye(dim))
        dev = np.abs(mean - target)
        assert np.all(dev <= 6.0 * se + 1e-12)


class TestPropagate:
    def test_stationary_state(self):
        # lam = 0 keeps the maximally mixed state fixed for any damping rate
        real = make_realization(dim=8)
        gen = realization_generator(real, lam=0.0, rate=0.5)
        grid = TimeGrid(dt=0.1, n_steps=200)
        rho0 = QuasiDensity.maximally_mixed(8)
        traj = propagate(gen, rho0, grid, method="superoperator")
        dev = np.max(np.abs(traj.states - rho0.matrix))
        assert dev < 1e-9
        traj = propagate(gen, rho0, grid, method="stepper")
        assert np.max(np.abs(traj.states - rho0.matrix)) < 1e-7

    def test_zero_damping_reduces_to_fidelity(self):
        real = make_realization(dim=6, seed=11)
        lam = 0.2
        gen = realization_generator(real, lam=lam, rate=0.0)
        grid = TimeGrid(dt=0.05, n_steps=240)
        traj = propagate(gen, QuasiDensity.maximally_mixed(6), grid)
        f = fidelity_curve(real, EchoSetup(lam=lam, grid=grid))
        assert np.max(np.abs(trace_curve(traj).values - f.values)) < 1e-9

    def test_superoperator_matches_stepper(self):
        real = make_realization(dim=8, seed=13)
        gen = realization_generator(real, lam=0.1, rate=0.05)
        grid = TimeGrid(dt=0.1, n_steps=100)
        rho0 = QuasiDensity.maximally_mixed(8)
        a = propagate(gen, rho0, grid, method="superoperator")
        b = propagate(gen, rho0, grid, method="stepper")
        assert np.max(np.abs(a.states - b.states)) < 1e-7

    def test_trace_matches_damped_volterra_solution(self):
        # the trace of the driven system equals e^{-Gt} times the solution of
        # the convolution equation built from this realization's own curves
        real = make_realization(dim=6, seed=17)
        lam, rate = 0.1, 0.08
        grid = TimeGrid(dt=0.01, n_steps=800)
        gen = realization_generator(real, lam=lam, rate=rate)
        traj = propagate(gen, QuasiDensity.maximally_mixed(6), grid, method="stepper")
        f = fidelity_curve(real, EchoSetup(lam=lam, grid=grid))
        k = kernel_curve(real, lam, grid)
        phi = solve(VolterraProblem(f=f, kernel=k, gamma_rate=rate))
        f_theory = generalized_fidelity(phi, rate)
        assert np.max(np.abs(trace_curve(traj).values - f_theory.values)) < 1e-4

    def test_traceless_sector_contracts_exponentially(self):
        # lam = 0: any traceless component decays as e^{-Gt} in Frobenius norm
        real = make_realization(dim=5, seed=19)
        rate = 0.4
        gen = realization_generator(real, lam=0.0, rate=rate)
        grid = TimeGrid(dt=0.2, n_steps=30)
        rng = np.random.default_rng(20)
        x0 = random_hermitian(5, rng)
        x0 -= np.trace(x0) / 5 * np.eye(5)
        states = _propagate_superoperator(gen, x0.astype(complex), grid)
        norms = np.linalg.norm(states.reshape(len(grid), -1), axis=1)
        expected = norms[0] * np.exp(-rate * grid.times)
        assert np.max(np.abs(norms - expected)) < 1e-8

    @pytest.mark.parametrize("form", ["rmt", "general"])
    def test_stepped_states_match_expm_over_long_grid(self, form):
        # the step matrix is applied 5000 times; the accumulated error must
        # stay at rounding level against expm(L t_k) taken directly
        dim = 6
        if form == "rmt":
            gen = realization_generator(make_realization(dim=dim, seed=23), lam=0.1, rate=0.1)
        else:
            rng = np.random.default_rng(29)
            h0 = random_hermitian(dim, rng)
            v = random_hermitian(dim, rng)
            gen = general_generator(
                h0 + 0.1 * v, h0, v, CorrelationKernel.exponential(tau_c=0.5), strength=0.3
            )
        grid = TimeGrid(dt=0.01, n_steps=5000)
        rho0 = np.eye(dim, dtype=complex) / dim
        states = _propagate_superoperator(gen, rho0, grid)
        l = gen.superoperator()
        for k in (1, 10, 100, 1000, 5000):
            exact = expm(l * grid.times[k]) @ rho0.reshape(-1)
            assert np.max(np.abs(states[k].reshape(-1) - exact)) < 1e-12

    def test_steps_apply_the_step_matrix_not_its_transpose(self):
        # a non-normal generator tells step from step^T: the stepped states must be
        # those of plain matrix-vector products with the step matrix
        dim = 4
        rng = np.random.default_rng(37)
        h0 = random_hermitian(dim, rng)
        v = random_hermitian(dim, rng)
        gen = general_generator(
            h0 + 0.3 * v, h0, v, CorrelationKernel.exponential(tau_c=0.5), strength=0.5
        )
        grid = TimeGrid(dt=0.1, n_steps=50)
        step = _step_matrix(gen.superoperator(), grid.dt)
        assert np.max(np.abs(step - step.T)) > 1e-2
        rho0 = random_density(dim, rng)
        expected = np.empty((len(grid), dim * dim), dtype=complex)
        expected[0] = rho0.reshape(-1)
        for k in range(1, len(grid)):
            expected[k] = np.matmul(step, expected[k - 1])
        states = _propagate_superoperator(gen, rho0, grid).reshape(len(grid), -1)
        assert np.max(np.abs(states - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("dim", [2, 5, 16, 40])
    @pytest.mark.parametrize("norm", [1e-3, 0.3, 0.9, 3.0, 20.0])
    def test_step_matrix_matches_expm(self, dim, norm):
        # ||A||_1 from 1e-3 to 20 takes 0 to 5 squarings of the degree-18 polynomial
        rng = np.random.default_rng(int(1000 * norm) + dim)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a *= norm / np.abs(a).sum(axis=0).max()
        exact = expm(a)
        step = _step_matrix(a, 1.0)
        assert np.max(np.abs(step - exact)) <= 1e-13 * np.max(np.abs(exact))

    def test_step_matrix_of_diagonal_generator_is_elementwise(self):
        # the rate-0 reduction of a diagonal Hamiltonian pair has a diagonal L
        h = np.diag(np.arange(3.0))
        l = rmt_generator(h + 0.5 * np.eye(3), h, rate=0.0).superoperator()
        assert np.count_nonzero(l - np.diag(np.diagonal(l))) == 0
        step = _step_matrix(l, 0.3)
        assert np.array_equal(step, np.diag(np.exp(np.diagonal(l) * 0.3)))

    def test_step_matrix_of_overflowing_generator_fails_cleanly(self):
        # finite inputs whose L dt overflows leave no scaling power to choose
        gen = rmt_generator(np.zeros((2, 2)), np.zeros((2, 2)), rate=1e308)
        with pytest.raises(PropagationError, match="not finite"):
            propagate(gen, QuasiDensity.maximally_mixed(2), TimeGrid(10.0, 2))

    def test_superoperator_dim_guard(self):
        dim = 70
        gen = rmt_generator(np.zeros((dim, dim)), np.zeros((dim, dim)), rate=0.1)
        rho0 = QuasiDensity.maximally_mixed(dim)
        with pytest.raises(ValueError, match="stepper"):
            propagate(gen, rho0, TimeGrid(0.1, 5))
        # the stepper has no dim limit
        propagate(gen, rho0, TimeGrid(0.1, 2), method="stepper")

    def test_rejects_invalid_initial_state(self):
        gen = rmt_generator(np.zeros((3, 3)), np.zeros((3, 3)), rate=0.0)
        with pytest.raises(ValueError):
            propagate(gen, np.eye(3, dtype=complex) * 2, TimeGrid(0.1, 5))
        with pytest.raises(ValueError):
            propagate(gen, QuasiDensity.maximally_mixed(4), TimeGrid(0.1, 5))

    def test_unknown_method_rejected(self):
        gen = rmt_generator(np.zeros((2, 2)), np.zeros((2, 2)), rate=0.0)
        with pytest.raises(ValueError):
            propagate(gen, QuasiDensity.maximally_mixed(2), TimeGrid(0.1, 5), method="magic")

    def test_trace_curve_starts_at_one(self):
        real = make_realization(dim=5, seed=29)
        gen = realization_generator(real, lam=0.3, rate=0.2)
        traj = propagate(gen, QuasiDensity.maximally_mixed(5), TimeGrid(0.05, 40))
        vals = trace_curve(traj).values
        assert abs(vals[0] - 1.0) < 1e-12
