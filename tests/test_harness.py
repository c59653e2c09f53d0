"""Ensemble and general runners: averaging, error bars, determinism and the batched chunk."""

import concurrent.futures
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import echo_gfa.harness as harness_mod
import echo_gfa.volterra as volterra_mod
from echo_gfa.cli import EXIT_OK, main, read_curve
from echo_gfa.curves import FidelityCurve, TimeGrid
from echo_gfa.echo import EchoOperator
from echo_gfa.harness import (
    ExperimentConfig,
    GeneralConfig,
    _chunk_task,
    batch_statistics,
    difference_curve,
    run_ensemble,
    run_general,
    theory_pipeline,
)
from echo_gfa.master import CorrelationKernel, _superoperator_states, general_generator, rmt_generator
from echo_gfa.rmt import EnsembleConfig, build_realization, sample_gaussian, stream
from echo_gfa.volterra import StepSizeError, solve_many

SRC = str(Path(__file__).resolve().parents[1] / "src")


def small_config(**kw):
    base = dict(
        dim=8,
        beta=1,
        master_seed=5,
        lam=0.1,
        gamma_list=(0.05, 0.2),
        grid=TimeGrid(dt=0.05, n_steps=80),
        n_run=6,
        n_batch=2,
        method="auto",
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(gamma_list=(0.1, 0.1))
        with pytest.raises(ValueError):
            small_config(gamma_list=(-0.1,))
        with pytest.raises(ValueError):
            small_config(n_run=0)
        with pytest.raises(ValueError):
            small_config(n_batch=0)
        with pytest.raises(ValueError):
            small_config(method="exact")
        with pytest.raises(ValueError):
            small_config(initial_state=np.eye(3) / 3)  # dim mismatch

    @pytest.mark.parametrize("rate", ["0.1", True, np.True_, None])
    def test_rejects_rates_that_are_not_numbers(self, rate):
        with pytest.raises(ValueError, match="gamma_list"):
            small_config(gamma_list=(rate,))
        with pytest.raises(ValueError, match="gamma_list"):
            small_config(gamma_list=(0.05, rate))

    def test_stores_real_values_as_floats(self):
        config = small_config(lam=1, gamma_list=(0, 1), grid=TimeGrid(dt=1, n_steps=4))
        assert [type(v) for v in (config.lam, *config.gamma_list, config.grid.dt)] == [float] * 4
        general = small_general_config(strength=1, kernel=CorrelationKernel("exponential", c0=2, tau_c=1))
        assert [type(v) for v in (general.strength, general.kernel.c0, general.kernel.tau_c)] == [float] * 3

    def test_rejects_rate_too_large_for_grid(self):
        # gamma * dt / 2 = 1 at dt = 0.05: the trapezoid update is singular
        with pytest.raises(ValueError, match="gamma = 40"):
            small_config(gamma_list=(0.05, 40.0))
        small_config(gamma_list=(0.05, 39.9))


def small_general_config(**kw):
    base = dict(
        dim=4, beta=1, master_seed=7, lam=0.1, strength=0.3,
        kernel=CorrelationKernel.exponential(tau_c=0.5), grid=TimeGrid(dt=0.05, n_steps=40),
    )
    base.update(kw)
    return GeneralConfig(**base)


@pytest.mark.parametrize(
    "flag", [True, np.True_, 2.0, "2", None], ids=["bool", "numpy-bool", "float", "string", "none"]
)
@pytest.mark.parametrize(
    "build",
    [
        lambda flag: EnsembleConfig(16, flag, 3),
        lambda flag: EnsembleConfig(16, 1, flag),
        lambda flag: EnsembleConfig(16, 1, 3, realization_index=flag),
        lambda flag: TimeGrid(0.1, flag),
        lambda flag: small_config(n_run=flag),
        lambda flag: small_config(n_batch=flag),
        lambda flag: small_general_config(n_draws=flag),
        lambda flag: run_ensemble(small_config(), n_jobs=flag),
    ],
    ids=["beta", "master_seed", "realization_index", "n_steps", "n_run", "n_batch", "n_draws", "n_jobs"],
)
def test_integer_fields_reject_booleans(build, flag):
    # and every other non-integer: True == 1 and 2.0 == 2, so an equality check would read
    # them as integers; the CLI passes JSON values to these fields unchanged
    with pytest.raises(ValueError, match="integer"):
        build(flag)


class TestStatistics:
    def test_batch_statistics_mean_and_scale(self):
        rng = np.random.default_rng(0)
        batches = rng.standard_normal((4, 10)) + 1j * rng.standard_normal((4, 10))
        mean, se_re, se_im = batch_statistics(batches)
        assert np.allclose(mean, batches.mean(axis=0))
        assert np.allclose(se_re, batches.real.std(axis=0, ddof=1) / 2.0)
        assert np.allclose(se_im, batches.imag.std(axis=0, ddof=1) / 2.0)

    def test_batch_statistics_single_batch(self):
        mean, se_re, se_im = batch_statistics(np.ones((1, 5), dtype=complex))
        assert se_re is None and se_im is None
        assert np.allclose(mean, 1.0)

    def test_stderr_shrinks_like_root_n(self):
        # doubling the batch count four-fold halves the error bar (statistically)
        rng = np.random.default_rng(1)
        draws = rng.standard_normal((64, 1)).astype(complex)
        _, se4, _ = batch_statistics(draws[:4])
        _, se64, _ = batch_statistics(draws)
        # se ~ sigma/sqrt(n): ratio should be near 4, allow wide slack
        assert 1.5 < se4[0] / se64[0] < 12.0

    def test_difference_curve_quadrature(self):
        grid = TimeGrid(0.1, 4)
        ones = np.ones(5, dtype=complex)
        a = FidelityCurve(grid, 3 * ones, stderr_re=np.full(5, 0.3), stderr_im=np.full(5, 0.4))
        b = FidelityCurve(grid, ones, stderr_re=np.full(5, 0.4), stderr_im=np.full(5, 0.3))
        d = difference_curve(a, b)
        assert np.allclose(d.values, 2.0)
        assert np.allclose(d.stderr_re, 0.5)
        assert np.allclose(d.stderr_im, 0.5)

    def test_difference_curve_one_sided_errors(self):
        grid = TimeGrid(0.1, 4)
        ones = np.ones(5, dtype=complex)
        a = FidelityCurve(grid, ones, stderr_re=np.full(5, 0.2), stderr_im=np.full(5, 0.2))
        b = FidelityCurve(grid, ones)
        d = difference_curve(a, b)
        assert np.allclose(d.stderr_re, 0.2)
        d = difference_curve(b, b)
        assert d.stderr_re is None


class TestTheoryPipeline:
    def test_zero_rate_returns_forcing(self):
        grid = TimeGrid(0.05, 100)
        t = grid.times
        f = FidelityCurve(grid, np.exp(-0.1 * t) * np.cos(t) + 0.0j)
        k = FidelityCurve(grid, np.exp(-0.05 * t) + 0.0j)
        phi, theory, first = theory_pipeline(f, k, [0.0])
        assert np.array_equal(theory[0.0].values, f.values)
        assert np.array_equal(first[0.0].values, f.values)
        assert np.array_equal(phi[0.0].values, f.values)

    def test_one_solve_for_all_rates(self, monkeypatch):
        grid = TimeGrid(0.05, 100)
        f = FidelityCurve(grid, np.cos(grid.times) + 0.0j)
        k = FidelityCurve(grid, np.exp(-0.05 * grid.times) + 0.0j)
        calls = []

        def counting(*args):
            calls.append(args[2])
            return solve_many(*args)

        monkeypatch.setattr(volterra_mod, "solve_many", counting)
        phi, theory, first = theory_pipeline(f, k, [0.05, 0.1, 0.4])
        assert calls == [[0.05, 0.1, 0.4]]
        assert list(phi) == list(theory) == list(first) == [0.05, 0.1, 0.4]

    def test_first_order_convolves_once_as_first_order_gives_it(self, monkeypatch):
        grid = TimeGrid(0.05, 100)
        t = grid.times
        f = FidelityCurve(grid, np.exp(-0.1 * t) * np.exp(0.7j * t))
        k = FidelityCurve(grid, np.exp(-0.05 * t) * np.cos(0.3 * t) + 0.0j)
        gammas = [0.0, 0.05, 0.1, 0.4]
        convolve, calls = volterra_mod.convolve, []

        def counting(*args):
            calls.append(args)
            return convolve(*args)

        monkeypatch.setattr(volterra_mod, "convolve", counting)
        _, _, first = theory_pipeline(f, k, gammas)
        assert len(calls) == 1
        monkeypatch.undo()
        for g in gammas:
            expected = volterra_mod.first_order(f, k, g)
            assert first[g].values.tobytes() == expected.values.tobytes()

    def test_no_rates_do_no_solve(self, monkeypatch):
        grid = TimeGrid(0.05, 100)
        ones = FidelityCurve(grid, np.ones(101, dtype=complex))

        def fail(*args):
            raise AssertionError("solved without rates")

        monkeypatch.setattr(volterra_mod, "_solve_direct", fail)
        assert theory_pipeline(ones, ones, ()) == ({}, {}, {})

    def test_kernel_must_start_at_one(self):
        grid = TimeGrid(0.05, 100)
        f = FidelityCurve(grid, np.ones(101, dtype=complex))
        half = FidelityCurve(grid, np.full(101, 0.5, dtype=complex))
        with pytest.raises(ValueError, match="kernel"):
            theory_pipeline(f, half, [0.1])

    def test_names_offending_gamma(self):
        grid = TimeGrid(0.5, 10)
        ones = FidelityCurve(grid, np.ones(11, dtype=complex))
        with pytest.raises(StepSizeError, match="gamma = 5"):
            theory_pipeline(ones, ones, [0.1, 5.0])


class TestRunEnsemble:
    def test_unperturbed_ensemble_is_flat(self):
        cfg = small_config(lam=0.0, gamma_list=(0.0, 0.3))
        report = run_ensemble(cfg)
        assert np.max(np.abs(report.f_lambda.values - 1.0)) < 1e-9
        assert np.max(np.abs(report.kernel.values - 1.0)) < 1e-9
        for g in (0.0, 0.3):
            # both channels solve the integral equation on this grid, so both
            # carry the trapezoid bias exp(G^3 t dt^2 / 12) - 1; check it is exactly that
            bias = np.expm1(g**3 * cfg.grid.t_max * cfg.grid.dt**2 / 12.0)
            assert np.max(np.abs(report.theory[g].values - 1.0)) < 1.5 * bias + 1e-9
            assert np.max(np.abs(report.simulated[g].values - 1.0)) < 1.5 * bias + 1e-9
            assert np.max(np.abs(report.simulated[g].values - report.theory[g].values)) < 1e-12

    def test_zero_rate_channel_equals_baseline(self):
        report = run_ensemble(small_config(gamma_list=(0.0,)))
        assert np.max(np.abs(report.simulated[0.0].values - report.f_lambda.values)) < 1e-12
        assert np.max(np.abs(report.theory[0.0].values - report.f_lambda.values)) < 1e-12

    def test_worker_count_does_not_change_bits(self, monkeypatch):
        # 40 realizations: two chunks, so two workers share them, also on a one-CPU machine
        cfg = small_config(n_run=20, n_batch=2, gamma_list=(0.05,))
        serial = run_ensemble(cfg, n_jobs=1)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        parallel = run_ensemble(cfg, n_jobs=2)
        assert np.array_equal(serial.f_lambda.values, parallel.f_lambda.values)
        assert np.array_equal(serial.kernel.values, parallel.kernel.values)
        assert np.array_equal(
            serial.simulated[0.05].values, parallel.simulated[0.05].values
        )
        assert np.array_equal(
            serial.simulated[0.05].stderr_re, parallel.simulated[0.05].stderr_re
        )

    def test_one_chunk_starts_no_pool(self, monkeypatch):
        cfg = small_config(n_run=7, n_batch=2)
        serial = run_ensemble(cfg, n_jobs=1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started for one chunk")

        # run_ensemble imports the pool class from concurrent.futures when it starts one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        capped = run_ensemble(cfg, n_jobs=2)
        assert np.array_equal(serial.f_lambda.values, capped.f_lambda.values)
        for g in cfg.gamma_list:
            assert np.array_equal(serial.simulated[g].values, capped.simulated[g].values)
            assert np.array_equal(serial.theory[g].values, capped.theory[g].values)

    def test_pool_is_capped_at_cpu_count(self, monkeypatch):
        # 99 realizations: four chunks, so four workers were asked for
        cfg = small_config(n_run=33, n_batch=3)
        serial = run_ensemble(cfg, n_jobs=1)
        started = []
        pool_class = concurrent.futures.ProcessPoolExecutor

        def recording(max_workers, **kwargs):
            started.append(max_workers)
            return pool_class(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        # run_ensemble imports the pool class from concurrent.futures when it starts one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording)
        capped = run_ensemble(cfg, n_jobs=4)
        assert started == [2]
        assert np.array_equal(serial.f_lambda.values, capped.f_lambda.values)
        for g in cfg.gamma_list:
            assert np.array_equal(serial.simulated[g].values, capped.simulated[g].values)
            assert np.array_equal(serial.theory[g].values, capped.theory[g].values)

    def test_alpha_map(self):
        alpha = small_config(gamma_list=(0.0, 0.2), lam=0.1).alpha()
        # alpha = Gamma / lam: 0.2 / 0.1 = 2
        assert alpha[0.2] == pytest.approx(2.0)
        assert alpha[0.0] == 0.0
        assert small_config(lam=0.0, gamma_list=(0.1,)).alpha()[0.1] is None

    def test_error_bars_present_with_batches(self):
        report = run_ensemble(small_config(n_run=6, n_batch=3))
        assert report.f_lambda.stderr_re is not None
        assert np.all(report.f_lambda.stderr_re >= 0.0)
        assert report.simulated[0.05].stderr_re is not None
        report = run_ensemble(small_config(n_run=2, n_batch=1))
        assert report.f_lambda.stderr_re is None

    def test_superoperator_guard_precedes_work(self):
        # master-equation methods are rejected when the config is built, at any dim
        for method in ("superoperator", "stepper"):
            for dim in (8, 80):
                with pytest.raises(ValueError, match="general"):
                    small_config(dim=dim, method=method, n_run=1000)

    def test_rejects_bad_n_jobs(self):
        with pytest.raises(ValueError):
            run_ensemble(small_config(), n_jobs=0)

    def test_failing_realization_does_not_leak_workers(self, monkeypatch):
        def fail(cfg):
            raise ValueError("injected failure")

        # forked workers inherit the patched module; two of them, also on a one-CPU machine
        monkeypatch.setattr(harness_mod, "build_realization", fail)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with pytest.raises(RuntimeError, match="injected failure"):
            run_ensemble(small_config(n_run=40), n_jobs=2)
        assert multiprocessing.active_children() == []


def batched_config(beta, state):
    # 36 realizations: two worker chunks, the last batch spans both
    rho = None
    if state == "pure":
        rng = np.random.default_rng(beta)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        rho = np.outer(v, v.conj()) / np.vdot(v, v).real
    return small_config(
        beta=beta, n_run=12, n_batch=3, method="volterra-per-realization",
        gamma_list=(0.0, 0.05, 0.2), initial_state=rho,
    )


@pytest.mark.parametrize("state", ["mixed", "pure"])
@pytest.mark.parametrize("beta", [1, 2])
class TestBatchedChunk:
    def test_rows_match_per_realization_path(self, beta, state):
        cfg = batched_config(beta, state)
        grid, gammas = cfg.grid, cfg.gamma_list
        rho0 = np.eye(8) / 8 if cfg.initial_state is None else cfg.initial_state
        start, f, k, fg = _chunk_task((cfg, 0, 30))
        assert start == 0 and fg.shape == (30, 3, len(grid))
        for pos in range(30):
            real = build_realization(EnsembleConfig(8, beta, cfg.master_seed, pos))
            op = EchoOperator(real, cfg.lam)
            f_ref = op.fidelity_values(grid, rho0)
            k_ref = op.kernel_values(grid)
            phi = solve_many(FidelityCurve(grid, f_ref), FidelityCurve(grid, k_ref), gammas)
            fg_ref = np.exp(-np.outer(gammas, grid.times)) * phi
            assert np.max(np.abs(f[pos] - f_ref)) < 1e-13
            assert np.max(np.abs(k[pos] - k_ref)) < 1e-13
            assert np.max(np.abs(fg[pos] - fg_ref)) < 1e-13

    def test_chunk_split_is_bit_identical(self, beta, state):
        cfg = batched_config(beta, state)
        whole = _chunk_task((cfg, 0, 30))[1:]
        head = _chunk_task((cfg, 0, 7))[1:]
        tail = _chunk_task((cfg, 7, 23))[1:]
        for w, a, b in zip(whole, head, tail):
            assert np.array_equal(w, np.concatenate([a, b]))

    def test_running_sums_equal_stacked_batch_means(self, beta, state):
        cfg = batched_config(beta, state)
        report = run_ensemble(cfg)
        n_total = cfg.n_batch * cfg.n_run
        f, k, fg = _chunk_task((cfg, 0, n_total))[1:]

        def stats(rows):
            return batch_statistics(rows.reshape((cfg.n_batch, cfg.n_run) + rows.shape[1:]).mean(axis=1))

        def same(curve, expected):
            mean, se_re, se_im = expected
            assert np.array_equal(curve.values, mean)
            assert np.array_equal(curve.stderr_re, se_re)
            assert np.array_equal(curve.stderr_im, se_im)

        same(report.f_lambda, stats(f))
        same(report.kernel, stats(k))
        for gi, g in enumerate(cfg.gamma_list):
            same(report.simulated[g], stats(fg[:, gi]))


class TestRunGeneral:
    @pytest.mark.parametrize("strength, c0", [(1e155, 1.0), (10.0, 1e307)])
    def test_rejects_strength_whose_reduction_rate_overflows(self, strength, c0):
        # strength**2 * dim * c0 at dim 4 is not finite; the generator would overflow in run_general
        with pytest.raises(ValueError, match="coupling_strength"):
            small_general_config(strength=strength, kernel=CorrelationKernel.delta(c0))

    def test_cli_writes_exactly_what_run_general_returns(self, tmp_path):
        # the general command adds only I/O: its files and manifest hold the
        # runner's curves, error columns and reduction rate, bit for bit
        data = {
            "dim": 4, "beta": 1, "master_seed": 7, "lambda": 0.1, "coupling_strength": 0.3,
            "kernel": {"kind": "exponential", "tau_c": 0.5, "c0": 1.0},
            "grid": {"dt": 0.05, "n_steps": 40}, "n_draws": 2,
        }
        config = GeneralConfig(
            dim=4, beta=1, master_seed=7, lam=0.1, strength=0.3,
            kernel=CorrelationKernel("exponential", c0=1.0, tau_c=0.5),
            grid=TimeGrid(dt=0.05, n_steps=40), n_draws=2,
        )
        f_general, reference, rate = run_general(config)
        assert f_general.stderr_re is not None and f_general.stderr_im is not None

        cfg = tmp_path / "general.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(["general", "--config", str(cfg), "--out", str(out), "--format", "csv"]) == EXIT_OK
        for name, expected in (("f_general", f_general), ("f_rmt_reference", reference)):
            back = read_curve(out / f"{name}.csv")
            assert back.grid == config.grid
            assert np.array_equal(back.values, expected.values)
            for got, want in ((back.stderr_re, expected.stderr_re), (back.stderr_im, expected.stderr_im)):
                assert (got is None) == (want is None)
                if want is not None:
                    assert np.array_equal(got, want)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["reduction_rate"] == rate

    @pytest.mark.parametrize("beta", [1, 2])
    def test_traces_are_those_of_full_propagations(self, beta):
        # run_general keeps only traces; they are bit for bit the traces of full
        # trajectories on the dense route, summed as a (steps, d, d) stack, draw by
        # draw and for the reference
        config = small_general_config(dim=5, beta=beta, n_draws=3)
        f_general, reference, rate = run_general(config)
        env = build_realization(EnsembleConfig(5, beta, config.master_seed))
        h_zero = np.diag(env.env_levels).astype(complex)
        h_lam = h_zero + config.lam * env.perturbation
        rho0 = np.eye(5, dtype=complex) / 5

        def traces_of(gen):
            return np.einsum("tii->t", np.array(list(_superoperator_states(gen, rho0, config.grid))))

        traces = []
        for draw in range(config.n_draws):
            v = sample_gaussian(5, beta, stream(EnsembleConfig(5, beta, config.master_seed, draw), "coupling"))
            gen = general_generator(h_lam, h_zero, v, config.kernel, config.strength)
            traces.append(traces_of(gen))
        expected = FidelityCurve(config.grid, *batch_statistics(np.array(traces)))
        assert np.array_equal(f_general.values, expected.values)
        assert np.array_equal(f_general.stderr_re, expected.stderr_re)
        assert np.array_equal(reference.values, traces_of(rmt_generator(h_lam, h_zero, rate)))

    def test_matrix_free_run_is_fast_and_small(self):
        # dim 50, 8 draws: the matrix-free route takes seconds and well under 200 MB more
        # than the process started with (the dense route would need 500 MB of step matrix)
        # VmHWM is this process's own peak; ru_maxrss would also count the pytest process it forked from
        script = (
            "import time\n"
            "from echo_gfa.curves import TimeGrid\n"
            "from echo_gfa.harness import GeneralConfig, run_general\n"
            "from echo_gfa.master import CorrelationKernel\n"
            "def kib(key):\n"
            "    return next(int(line.split()[1]) for line in open('/proc/self/status') if line.startswith(key))\n"
            "start = kib('VmRSS:')\n"
            "t0 = time.perf_counter()\n"
            "run_general(GeneralConfig(dim=50, beta=1, master_seed=3, lam=0.1, strength=0.05,\n"
            "    kernel=CorrelationKernel.exponential(tau_c=0.5), grid=TimeGrid(0.05, 240), n_draws=8))\n"
            "print(time.perf_counter() - t0, (kib('VmHWM:') - start) / 1024)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        seconds, grown_mb = map(float, out.stdout.split())
        assert seconds < 30.0
        assert grown_mb < 200.0
