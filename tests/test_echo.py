"""Echo operator and fidelity curves against brute-force matrix exponentials."""

import numpy as np
import pytest
from scipy.linalg import expm

from echo_gfa.curves import TimeGrid
from echo_gfa.echo import (
    EchoOperator,
    EchoSetup,
    Spectral,
    check_initial_state,
    fidelity_curve,
    kernel_curve,
    propagator,
)
from echo_gfa.rmt import EnsembleConfig, build_realization
from helpers import random_density


def make_realization(dim=8, beta=1, seed=42, index=0):
    return build_realization(
        EnsembleConfig(dim=dim, beta=beta, master_seed=seed, realization_index=index)
    )


class TestPropagator:
    def test_zero_hamiltonian_is_identity(self):
        u = propagator(Spectral(np.zeros(5), np.eye(5)), t=3.7)
        assert np.array_equal(u, np.eye(5, dtype=complex))

    def test_diagonal_phases(self):
        u = propagator(Spectral(np.array([1.0, 2.0]), np.eye(2)), t=np.pi)
        assert np.allclose(u, np.diag([-1.0, 1.0]), atol=1e-12)

    def test_unitary_for_dense_hamiltonian(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = (a + a.conj().T) / 2
        u = propagator(Spectral.from_matrix(h), t=2.3)
        assert np.max(np.abs(u @ u.conj().T - np.eye(6))) < 1e-10

    def test_matches_expm(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((5, 5))
        h = (a + a.T) / 2
        for t in (0.3, 1.9):
            u = propagator(Spectral.from_matrix(h), t)
            assert np.max(np.abs(u - expm(-1j * h * t))) < 1e-12

    def test_rejects_non_finite_levels(self):
        with pytest.raises(ValueError):
            Spectral(np.array([0.0, np.inf]), np.eye(2))


class TestEchoOperator:
    def test_zero_perturbation_is_identity(self):
        real = make_realization(dim=6)
        m = EchoOperator(real, lam=0.0)(2.7)
        assert np.max(np.abs(m - np.eye(6))) < 1e-12

    def test_time_zero_is_identity(self):
        real = make_realization(dim=6)
        m = EchoOperator(real, lam=0.4)(0.0)
        assert np.max(np.abs(m - np.eye(6))) < 1e-12

    def test_unitarity(self):
        real = make_realization(dim=10, beta=2, seed=3)
        m = EchoOperator(real, lam=0.3)(4.1)
        assert np.max(np.abs(m @ m.conj().T - np.eye(10))) < 1e-10

    def test_matches_expm_product(self):
        real = make_realization(dim=5, seed=9)
        lam, t = 0.25, 1.6
        h0 = np.diag(real.env_levels)
        hl = h0 + lam * real.perturbation
        expected = expm(1j * h0 * t) @ expm(-1j * hl * t)
        got = EchoOperator(real, lam)(t)
        assert np.max(np.abs(got - expected)) < 1e-10

    @pytest.mark.parametrize("seed", [0, 1, 7, 19, 23])
    def test_group_property_of_trace(self, seed):
        # tr[M(t) M(tau)^dag] depends only on t - tau
        real = make_realization(dim=16, seed=seed)
        op = EchoOperator(real, lam=0.1)
        for t, tau in [(2.0, 0.7), (5.5, 5.5), (1.2, 4.0)]:
            lhs = np.trace(op(t) @ op(tau).conj().T)
            rhs = np.trace(op(t - tau))
            assert abs(lhs - rhs) < 1e-10


class TestFidelityCurve:
    def test_brute_force_oracle(self):
        # dim-4 echo amplitude versus direct matrix exponentials
        real = make_realization(dim=4, beta=2, seed=12)
        rng = np.random.default_rng(13)
        rho0 = random_density(4, rng)
        grid = TimeGrid(dt=0.7, n_steps=10)
        lam = 0.3
        curve = fidelity_curve(real, EchoSetup(lam=lam, grid=grid, initial_state=rho0))
        h0 = np.diag(real.env_levels)
        hl = h0 + lam * real.perturbation
        for i, t in enumerate(grid.times):
            brute = np.trace(expm(-1j * hl * t) @ rho0 @ expm(1j * h0 * t))
            assert abs(curve.values[i] - brute) < 1e-9

    def test_starts_at_one(self):
        real = make_realization(dim=8)
        curve = fidelity_curve(real, EchoSetup(lam=0.2, grid=TimeGrid(0.1, 50)))
        assert abs(curve.values[0] - 1.0) < 1e-12

    def test_unperturbed_echo_is_flat(self):
        real = make_realization(dim=8)
        curve = fidelity_curve(real, EchoSetup(lam=0.0, grid=TimeGrid(0.05, 200)))
        assert np.max(np.abs(curve.values - 1.0)) < 1e-12

    def test_amplitude_bounded_by_one(self):
        real = make_realization(dim=12, beta=2, seed=21)
        curve = fidelity_curve(real, EchoSetup(lam=0.4, grid=TimeGrid(0.1, 200)))
        assert np.max(np.abs(curve.values)) <= 1.0 + 1e-10

    def test_kernel_equals_maximally_mixed_fidelity(self):
        real = make_realization(dim=9, seed=4)
        grid = TimeGrid(0.08, 120)
        k = kernel_curve(real, 0.35, grid)
        f = fidelity_curve(real, EchoSetup(lam=0.35, grid=grid, initial_state=None))
        assert np.max(np.abs(k.values - f.values)) < 1e-12

    def test_chunked_evaluation_matches_direct(self, monkeypatch):
        import echo_gfa.echo as echo_mod

        real = make_realization(dim=6, seed=8)
        grid = TimeGrid(0.05, 100)
        setup = EchoSetup(lam=0.3, grid=grid)
        full = fidelity_curve(real, setup).values
        monkeypatch.setattr(echo_mod, "_CHUNK", 7)
        chunked = fidelity_curve(real, setup).values
        assert np.array_equal(full, chunked)


class TestInitialStateValidation:
    def test_rejects_non_hermitian(self):
        bad = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(ValueError):
            check_initial_state(bad)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            check_initial_state(np.eye(3))

    def test_rejects_negative_state(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError):
            check_initial_state(bad)

    def test_accepts_pure_state(self):
        v = np.array([1.0, 1j]) / np.sqrt(2)
        rho = np.outer(v, v.conj())
        out = check_initial_state(rho)
        assert np.allclose(out, rho)

    def test_setup_shape_mismatch(self):
        setup = EchoSetup(lam=0.1, grid=TimeGrid(0.1, 10), initial_state=np.eye(3) / 3)
        with pytest.raises(ValueError):
            setup.state(5)
