"""Convolution and damped-echo integral equation against closed forms."""

import numpy as np
import pytest

import echo_gfa.volterra as volterra_mod
from echo_gfa.curves import FidelityCurve, TimeGrid
from echo_gfa.echo import EchoSetup, fidelity_curve, kernel_curve
from echo_gfa.rmt import EnsembleConfig, build_realization
from echo_gfa.volterra import (
    StepSizeError,
    VolterraProblem,
    convolve,
    first_order,
    generalized_fidelity,
    solve,
    solve_many,
)


def curve(grid, values):
    return FidelityCurve(grid, np.asarray(values, dtype=complex))


def smooth_pair(grid):
    """A decaying oscillatory forcing and a kernel with k(0) = 1."""
    t = grid.times
    f = np.exp(-0.1 * t) * (np.cos(t) + 0.3j * np.sin(0.7 * t))
    k = np.exp(-0.05 * t) * (np.cos(1.3 * t) - 0.2j * np.sin(t))
    return curve(grid, f), curve(grid, k)


class TestConvolve:
    def test_ones_give_identity_ramp(self):
        grid = TimeGrid(dt=0.01, n_steps=500)
        ones = curve(grid, np.ones(len(grid)))
        out = convolve(ones, ones)
        assert np.max(np.abs(out.values - grid.times)) < 1e-12

    def test_exponential_pair(self):
        # (e^{-t} * e^{-t})(t) = t e^{-t}
        grid = TimeGrid(dt=1e-3, n_steps=4000)
        e = curve(grid, np.exp(-grid.times))
        out = convolve(e, e)
        assert np.max(np.abs(out.values - grid.times * np.exp(-grid.times))) < 1e-6

    def test_commutative(self):
        grid = TimeGrid(dt=0.02, n_steps=300)
        a, b = smooth_pair(grid)
        ab = convolve(a, b).values
        ba = convolve(b, a).values
        assert np.max(np.abs(ab - ba)) < 1e-12

    def test_starts_at_zero_exactly(self):
        grid = TimeGrid(dt=0.1, n_steps=10)
        a, b = smooth_pair(grid)
        assert convolve(a, b).values[0] == 0.0

    def test_fft_helper_matches_scipy_signal_bitwise(self):
        from scipy.signal import fftconvolve

        rng = np.random.default_rng(3)
        for n, m in ((2, 2), (601, 601), (1000, 7), (513, 1024), (4097, 4097), (12345, 999)):
            a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            b = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            assert np.array_equal(volterra_mod._fftconvolve(a, b), fftconvolve(a, b))

    def test_next_fast_len_matches_scipy(self):
        # the FFT sizes, and so the bits, are those scipy.fft would use
        from scipy.fft import next_fast_len

        for n in [*range(1, (1 << 17) + 1), (1 << 20) + 1, 3 * (1 << 18) + 7]:
            assert volterra_mod._next_fast_len(n) == next_fast_len(n, real=False), n

    def test_grid_mismatch_rejected(self):
        a = curve(TimeGrid(0.1, 10), np.ones(11))
        b = curve(TimeGrid(0.1, 11), np.ones(12))
        with pytest.raises(ValueError):
            convolve(a, b)


def test_check_rates_rejects_arrays_of_non_numbers():
    for gammas in (["0.1"], [True], np.array([0.1, None]), [[0.1]]):
        with pytest.raises(ValueError, match="array of numbers"):
            volterra_mod.check_rates(gammas, 0.1)
    assert volterra_mod.check_rates(np.array([1, 2], dtype=np.uint8), 0.1).tolist() == [1.0, 2.0]


class TestSolve:
    def test_zero_rate_returns_forcing_bitwise(self, monkeypatch):
        # bytes, not np.array_equal, which takes -0.0 for 0.0; on the direct and the fast path
        grid = TimeGrid(dt=0.05, n_steps=20)
        f, k = smooth_pair(grid)
        values = f.values.copy()
        values.imag = -0.0
        f = curve(grid, values)
        for threshold in (volterra_mod._FAST_THRESHOLD, 0):
            monkeypatch.setattr(volterra_mod, "_FAST_THRESHOLD", threshold)
            out = solve(VolterraProblem(f=f, kernel=k, gamma_rate=0.0))
            assert out.values.tobytes() == f.values.tobytes()
            assert solve_many(f, k, [0.3, 0.0])[1].tobytes() == f.values.tobytes()

    def test_flat_echo_grows_exponentially(self):
        # f = kernel = 1 turns the equation into phi' = G phi
        grid = TimeGrid(dt=1e-3, n_steps=10_000)
        ones = curve(grid, np.ones(len(grid)))
        gamma = 0.3
        phi = solve(VolterraProblem(f=ones, kernel=ones, gamma_rate=gamma)).values
        exact = np.exp(gamma * grid.times)
        assert np.max(np.abs(phi - exact) / exact) < 1e-5

    def test_decaying_forcing_closed_form(self):
        # f = kernel = e^{-t}: phi(t) = e^{(G - 1) t}
        grid = TimeGrid(dt=1e-3, n_steps=10_000)
        decay = curve(grid, np.exp(-grid.times))
        gamma = 0.4
        phi = solve(VolterraProblem(f=decay, kernel=decay, gamma_rate=gamma)).values
        exact = np.exp((gamma - 1.0) * grid.times)
        assert np.max(np.abs(phi - exact) / exact) < 1e-5

    def test_second_order_self_convergence(self):
        gamma = 0.5

        def run(dt, n):
            grid = TimeGrid(dt=dt, n_steps=n)
            f, k = smooth_pair(grid)
            return solve(VolterraProblem(f=f, kernel=k, gamma_rate=gamma)).values

        coarse = run(0.04, 200)
        mid = run(0.02, 400)
        fine = run(0.01, 800)
        e1 = np.max(np.abs(coarse - mid[::2]))
        e2 = np.max(np.abs(mid - fine[::2]))
        assert 3.4 < e1 / e2 < 4.6

    def test_fast_path_matches_direct(self):
        grid = TimeGrid(dt=0.005, n_steps=40_000)
        f, k = smooth_pair(grid)
        gamma = np.array([0.25])
        direct = volterra_mod._solve_direct(f.values, k.values, gamma, grid.dt)[0]
        fast = volterra_mod._solve_fast(f.values, k.values, 0.25, grid.dt)
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(direct - fast)) < 1e-12 * scale

    def test_rows_above_fast_threshold_match_direct(self, monkeypatch):
        # shrink the thresholds so the row-by-row fast path runs on a short grid
        monkeypatch.setattr(volterra_mod, "_FAST_THRESHOLD", 64)
        monkeypatch.setattr(volterra_mod, "_BASE_BLOCK", 16)
        grid = TimeGrid(dt=0.02, n_steps=300)
        f, k = smooth_pair(grid)
        rows_f = np.stack([f.values, 0.5j * f.values])
        rows_k = np.stack([k.values, k.values.conj()])
        gammas = np.array([0.0, 0.3])
        fast = volterra_mod.solve_rows(rows_f, rows_k, gammas, grid.dt)
        direct = volterra_mod._solve_direct(rows_f, rows_k, gammas, grid.dt)
        assert fast.shape == (2, 2, 301)
        assert np.array_equal(fast[:, 0], rows_f)
        assert np.max(np.abs(fast - direct)) < 1e-12

    @pytest.mark.parametrize("gamma", [0.05, 1.0])
    @pytest.mark.parametrize("n", [2, 3, 9, 10, 301])
    def test_small_blocks_match_direct(self, monkeypatch, n, gamma):
        # base blocks of 8 (phi[0] is given, so n points have n - 1 unknowns): n = 9 is
        # one full block, n = 10 splits into two short ones, n = 301 ends in short
        # blocks with uneven middle-product lengths
        monkeypatch.setattr(volterra_mod, "_BASE_BLOCK", 8)
        grid = TimeGrid(dt=0.02, n_steps=n - 1)
        f, k = smooth_pair(grid)
        direct = volterra_mod._solve_direct(f.values, k.values, np.array([gamma]), grid.dt)[0]
        fast = volterra_mod._solve_fast(f.values, k.values, gamma, grid.dt)
        assert np.max(np.abs(direct - fast)) < 1e-12 * np.max(np.abs(direct))

    @pytest.mark.parametrize("n", [129, 257])
    def test_near_singular_step_matches_direct_where_finite(self, n):
        # Gamma dt / 2 = 0.999 grows the inverse's column like 2000^i, past the float
        # range within one 128-point base block; a forcing of 1e-250 keeps forward
        # substitution finite for about 170 points, so one or two base blocks overflow
        # only in the inverse
        grid = TimeGrid(dt=0.02, n_steps=n - 1)
        f, k = smooth_pair(grid)
        gamma = 2 * 0.999 / grid.dt
        with np.errstate(over="ignore", invalid="ignore"):
            direct = volterra_mod._solve_direct(1e-250 * f.values, k.values, np.array([gamma]), grid.dt)[0]
            fast = volterra_mod._solve_fast(1e-250 * f.values, k.values, gamma, grid.dt)
        finite = np.isfinite(direct)
        assert finite[:129].all()
        assert np.isfinite(fast[finite]).all()
        assert np.all(np.abs(fast - direct)[finite] <= 1e-12 * np.abs(direct[finite]))

    def test_solve_many_matches_single_solves(self):
        grid = TimeGrid(dt=0.02, n_steps=500)
        f, k = smooth_pair(grid)
        gammas = [0.0, 0.1, 0.4]
        batch = solve_many(f, k, gammas)
        for row, g in zip(batch, gammas):
            single = solve(VolterraProblem(f=f, kernel=k, gamma_rate=g)).values
            assert np.array_equal(row, single)

    def test_step_size_guard(self):
        grid = TimeGrid(dt=0.5, n_steps=10)
        f, k = smooth_pair(grid)
        with pytest.raises(StepSizeError, match="dt"):
            solve(VolterraProblem(f=f, kernel=k, gamma_rate=5.0))

    def test_kernel_normalization_guard(self):
        grid = TimeGrid(dt=0.1, n_steps=10)
        f, _ = smooth_pair(grid)
        bad = curve(grid, np.full(len(grid), 0.5))
        with pytest.raises(ValueError, match="kernel"):
            VolterraProblem(f=f, kernel=bad, gamma_rate=0.1)

    def test_negative_rate_rejected(self):
        grid = TimeGrid(dt=0.1, n_steps=10)
        f, k = smooth_pair(grid)
        with pytest.raises(ValueError):
            VolterraProblem(f=f, kernel=k, gamma_rate=-0.2)


class TestGeneralizedFidelity:
    def test_zero_rate_is_identity_bitwise(self):
        grid = TimeGrid(dt=0.05, n_steps=50)
        f, _ = smooth_pair(grid)
        out = generalized_fidelity(f, 0.0)
        assert np.array_equal(out.values, f.values)

    def test_flat_echo_stays_unity(self):
        # f = kernel = 1: e^{-Gt} phi = 1 up to the quadrature bias
        grid = TimeGrid(dt=1e-3, n_steps=10_000)
        ones = curve(grid, np.ones(len(grid)))
        gamma = 0.3
        phi = solve(VolterraProblem(f=ones, kernel=ones, gamma_rate=gamma))
        out = generalized_fidelity(phi, gamma)
        assert np.max(np.abs(out.values - 1.0)) < 1e-7

    def test_stderr_scaled_with_curve(self):
        grid = TimeGrid(dt=0.1, n_steps=20)
        f = FidelityCurve(
            grid,
            np.ones(len(grid), dtype=complex),
            stderr_re=np.full(len(grid), 0.01),
            stderr_im=np.full(len(grid), 0.02),
        )
        out = generalized_fidelity(f, 1.0)
        damp = np.exp(-grid.times)
        assert np.allclose(out.stderr_re, 0.01 * damp)
        assert np.allclose(out.stderr_im, 0.02 * damp)


class TestFirstOrder:
    def test_zero_rate_returns_forcing(self):
        grid = TimeGrid(dt=0.05, n_steps=60)
        f, k = smooth_pair(grid)
        out = first_order(f, k, 0.0)
        assert np.array_equal(out.values, f.values)

    def test_flat_echo_closed_form(self):
        # f = kernel = 1: e^{-Gt}(1 + G t) exactly (the ramp is trapezoid-exact)
        grid = TimeGrid(dt=0.01, n_steps=1000)
        ones = curve(grid, np.ones(len(grid)))
        gamma = 0.2
        out = first_order(ones, ones, gamma)
        exact = np.exp(-gamma * grid.times) * (1.0 + gamma * grid.times)
        assert np.max(np.abs(out.values - exact)) < 1e-12

    def test_residual_is_second_order_in_rate(self):
        # |solve - first_order| at fixed t shrinks 4x when the rate halves
        real = build_realization(
            EnsembleConfig(dim=16, beta=1, master_seed=31, realization_index=0)
        )
        grid = TimeGrid(dt=0.02, n_steps=500)
        lam = 0.1
        f = fidelity_curve(real, EchoSetup(lam=lam, grid=grid))
        k = kernel_curve(real, lam, grid)

        idx = 250  # t = 5, before the amplitude has decayed away

        def residual(gamma):
            phi = solve(VolterraProblem(f=f, kernel=k, gamma_rate=gamma))
            full = generalized_fidelity(phi, gamma)
            lin = first_order(f, k, gamma)
            return abs(full.values[idx] - lin.values[idx])

        ratio = residual(0.04) / residual(0.02)
        assert 3.2 < ratio < 4.8
