"""End-to-end command-line behaviour: files, determinism, exit codes."""

import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from echo_gfa import __version__
from echo_gfa.cli import (
    BLAS_THREAD_VARS,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    THREADS_ENV,
    gamma_tag,
    main,
    parse_ensemble_config,
    parse_general_config,
    read_curve,
    write_curve,
)
from echo_gfa.curves import FidelityCurve, TimeGrid
from echo_gfa.echo import EchoSetup, fidelity_curve
from echo_gfa.harness import ExperimentConfig, GeneralConfig
from echo_gfa.master import CorrelationKernel
from echo_gfa.rmt import EnsembleConfig, build_realization

from helpers import reference_csv


def write_config(path, **overrides):
    data = {
        "dim": 8,
        "beta": 1,
        "master_seed": 3,
        "lambda": 0.1,
        "gamma_list": [0.05, 0.2],
        "grid": {"dt": 0.05, "n_steps": 40},
        "n_run": 4,
        "n_batch": 2,
        "method": "auto",
    }
    data.update(overrides)
    data = {k: v for k, v in data.items() if v is not None}
    path.write_text(json.dumps(data))
    return path


def write_general_config(path, **overrides):
    data = {
        "dim": 4,
        "beta": 2,
        "master_seed": 5,
        "lambda": 0.1,
        "coupling_strength": 0.3,
        "kernel": {"kind": "delta", "c0": 1.0},
        "grid": {"dt": 0.05, "n_steps": 40},
        "n_draws": 3,
    }
    data.update(overrides)
    data = {k: v for k, v in data.items() if v is not None}
    path.write_text(json.dumps(data))
    return path


def run_theory_on_ones(tmp_path, gamma, *flags):
    """theory --kernels on f = f_bar = 1 (dt = 0.5, 2000 steps) at one rate into tmp_path/o.

    ``flags`` are appended to the command line.  Returns (exit code, --out).
    """
    cfg = write_config(tmp_path / "c.json", gamma_list=[gamma], grid={"dt": 0.5, "n_steps": 2000})
    kdir = tmp_path / "k"
    kdir.mkdir(exist_ok=True)
    ones = FidelityCurve(TimeGrid(dt=0.5, n_steps=2000), np.ones(2001, dtype=complex))
    for name in ("f_lambda", "f_bar"):
        write_curve(kdir / f"{name}.csv", ones, "csv")
    out = tmp_path / "o"
    return main(["theory", "--config", str(cfg), "--out", str(out), "--kernels", str(kdir), *flags]), out


def run_overflowing_theory(tmp_path):
    """theory --kernels on f = f_bar = 1 with G dt / 2 = 0.475: phi grows as 2.8^i and overflows.

    f_lambda and f_bar are written before phi_gamma_1.9 fails.  Returns (exit code, --out).
    """
    return run_theory_on_ones(tmp_path, 1.9)


def read_payloads(out_dir):
    """Data files (not the manifest) as raw bytes, keyed by name."""
    return {
        p.name: p.read_bytes()
        for p in sorted(out_dir.iterdir())
        if p.name != "manifest.json"
    }


class TestCurveIO:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        grid = TimeGrid(dt=0.1, n_steps=30)
        curve = FidelityCurve(
            grid,
            rng.standard_normal(31) * 1e-3 + 1j * rng.standard_normal(31),
            stderr_re=np.abs(rng.standard_normal(31)) * 1e-7,
            stderr_im=np.abs(rng.standard_normal(31)) * 1e-7,
        )
        for fmt, name in (("csv", "c.csv"), ("json", "c.json")):
            path = tmp_path / name
            write_curve(path, curve, fmt)
            back = read_curve(path)
            assert back.grid == grid
            assert np.array_equal(back.values, curve.values)
            assert np.array_equal(back.stderr_re, curve.stderr_re)
            assert np.array_equal(back.stderr_im, curve.stderr_im)

    def test_csv_bytes_are_pinned(self, tmp_path):
        # CRLF rows, %.16e numbers, signed zeros, tiny values, zero error columns
        curve = FidelityCurve(
            TimeGrid(dt=0.25, n_steps=4),
            np.array([
                complex(1.0, 0.0),
                complex(-0.0, 0.5),
                complex(1e-300, -3e-300),
                complex(-0.125, -0.0),
                complex(0.1, 0.2),
            ]),
        )
        expected = (
            b"t,re_f,im_f,re_err,im_err\r\n"
            b"0.0000000000000000e+00,1.0000000000000000e+00,0.0000000000000000e+00,"
            b"0.0000000000000000e+00,0.0000000000000000e+00\r\n"
            b"2.5000000000000000e-01,-0.0000000000000000e+00,5.0000000000000000e-01,"
            b"0.0000000000000000e+00,0.0000000000000000e+00\r\n"
            b"5.0000000000000000e-01,1.0000000000000000e-300,-3.0000000000000002e-300,"
            b"0.0000000000000000e+00,0.0000000000000000e+00\r\n"
            b"7.5000000000000000e-01,-1.2500000000000000e-01,-0.0000000000000000e+00,"
            b"0.0000000000000000e+00,0.0000000000000000e+00\r\n"
            b"1.0000000000000000e+00,1.0000000000000001e-01,2.0000000000000001e-01,"
            b"0.0000000000000000e+00,0.0000000000000000e+00\r\n"
        )
        path = tmp_path / "five.csv"
        write_curve(path, curve, "csv")
        assert path.read_bytes() == expected

    def test_long_round_trip_crosses_blocks(self, tmp_path):
        rng = np.random.default_rng(1)
        n = 10_001
        curve = FidelityCurve(
            TimeGrid(dt=0.01, n_steps=n - 1),
            rng.standard_normal(n) + 1j * rng.standard_normal(n) * 1e-200,
            stderr_re=np.abs(rng.standard_normal(n)) * 1e-7,
        )
        for name in ("c.csv", "c.json"):
            path = tmp_path / name
            write_curve(path, curve, path.suffix[1:])
            back = read_curve(path)
            assert back.grid == curve.grid
            assert np.array_equal(back.values, curve.values)
            assert np.array_equal(back.stderr_re, curve.stderr_re)
            assert back.stderr_im is None

        # reference: one csv.writer row per point
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "re_f", "im_f", "re_err", "im_err"])
            for t, v, e in zip(curve.times, curve.values, curve.stderr_re):
                writer.writerow([f"{x:.16e}" for x in (t, v.real, v.imag, e, 0.0)])
        assert (tmp_path / "c.csv").read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize(
        "values",
        [
            # exact ties round to even: 1.0000076293945312e+00, 1.0000228881835938e+00
            [1 + 2**-17, 1 + 3 * 2**-17],
            [np.nextafter(1.0, 0), np.nextafter(10.0, 0), 1.0, 10.0],
            # the range of the scale table, and one step past each end
            10.0 ** np.arange(-231, 232),
            [5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308],
            # three-digit exponents of both signs
            [1.5e-123, -2.5e150, 1e100, -9.999999999999999e-101, 1.0000000000000002e-100, 7e299],
        ],
        ids=["tie", "below-powers", "powers-of-ten", "extremes", "three-digit-exponents"],
    )
    def test_csv_numbers_match_percent_format(self, tmp_path, values):
        values = np.asarray(values, dtype=float)
        curve = FidelityCurve(TimeGrid(dt=0.5, n_steps=len(values) - 1), values - 1j * values[::-1])
        path = tmp_path / "c.csv"
        write_curve(path, curve, "csv")
        assert path.read_bytes() == reference_csv(curve)

    def test_time_column_follows_the_grid(self, tmp_path):
        # the writer formats a grid's times once; alternate grids of equal length
        # (different dt) and of equal dt (different length) must each get their own
        rng = np.random.default_rng(3)
        grids = [
            TimeGrid(dt=0.1, n_steps=6), TimeGrid(dt=0.3, n_steps=6),
            TimeGrid(dt=0.1, n_steps=6), TimeGrid(dt=0.1, n_steps=9), TimeGrid(dt=0.1, n_steps=6),
        ]
        for i, grid in enumerate(grids):
            curve = FidelityCurve(grid, rng.standard_normal(len(grid)) + 1j)
            path = tmp_path / f"c{i}.csv"
            write_curve(path, curve, "csv")
            assert path.read_bytes() == reference_csv(curve), grid

    def test_long_csv_matches_percent_format(self, tmp_path):
        # 10 001 rows cross two block boundaries; one error column is missing
        rng = np.random.default_rng(2)
        n = 10_001
        curve = FidelityCurve(
            TimeGrid(dt=0.01, n_steps=n - 1),
            rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n) + 1j * rng.standard_normal(n),
            stderr_re=np.abs(rng.standard_normal(n)) * 1e-7,
        )
        path = tmp_path / "long.csv"
        write_curve(path, curve, "csv")
        assert path.read_bytes() == reference_csv(curve)

    def test_reads_lf_only_csv(self, tmp_path):
        path = tmp_path / "lf.csv"
        path.write_bytes(
            b"t,re_f,im_f,re_err,im_err\n"
            b"0.0,1.0,0.0,0.0,0.0\n"
            b"0.5,0.25,-0.5,0.0,0.125\n"
            b"1.0,-1.0,0.75,0.0,0.0\n"
        )
        back = read_curve(path)
        assert back.grid == TimeGrid(dt=0.5, n_steps=2)
        assert np.array_equal(back.values, [1.0, 0.25 - 0.5j, -1.0 + 0.75j])
        assert back.stderr_re is None
        assert np.array_equal(back.stderr_im, [0.0, 0.125, 0.0])

    def test_malformed_csv_is_config_error(self, tmp_path):
        from echo_gfa.cli import ConfigError

        header = "t,re_f,im_f,re_err,im_err\n"
        cases = {
            "one_point.csv": (header + "0,1,0,0,0\n", "two grid points"),
            "columns.csv": (header + "0,1,0\n0.5,1,0\n", "5 columns"),
            "text.csv": (header + "0,1,0,0,0\n0.5,x,0,0,0\n", "could not convert"),
            "grid.csv": (header + "0,1,0,0,0\n0.5,1,0,0,0\n0.7,1,0,0,0\n", "uniform"),
        }
        for name, (text, message) in cases.items():
            path = tmp_path / name
            path.write_text(text)
            with pytest.raises(ConfigError, match=message):
                read_curve(path)

    def test_missing_file_is_config_error(self, tmp_path):
        from echo_gfa.cli import ConfigError

        with pytest.raises(ConfigError, match="missing kernel input"):
            read_curve(tmp_path / "nope.csv")

    def test_header_checked(self, tmp_path):
        from echo_gfa.cli import ConfigError

        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n0,1\n")
        with pytest.raises(ConfigError, match="header"):
            read_curve(bad)


class TestSimulate:
    def test_unperturbed_run_is_flat(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", **{"lambda": 0.0})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        for name in ("f_lambda", "f_bar"):
            assert np.max(np.abs(read_curve(out / f"{name}.csv").values - 1.0)) < 1e-9
        t_max, dt = 40 * 0.05, 0.05
        for g in (0.05, 0.2):
            sim = read_curve(out / f"f_sim_gamma_{gamma_tag(g)}.csv").values
            theory = read_curve(out / f"f_theory_gamma_{gamma_tag(g)}.csv").values
            # both channels solve the integral equation on this grid, so both
            # carry its trapezoid bias exp(G^3 t dt^2 / 12) - 1
            bias = np.expm1(g**3 * t_max * dt**2 / 12.0)
            assert np.max(np.abs(sim - theory)) < 1e-12
            assert np.max(np.abs(sim - 1.0)) < 1.5 * bias + 1e-9

    def test_expected_files_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        names = {p.name for p in out.iterdir()}
        expected = {"manifest.json", "f_lambda.csv", "f_bar.csv"}
        for tag in ("0.05", "0.2"):
            expected |= {
                f"f_sim_gamma_{tag}.csv",
                f"phi_gamma_{tag}.csv",
                f"f_theory_gamma_{tag}.csv",
                f"first_order_gamma_{tag}.csv",
                f"diff_sim_gamma_{tag}.csv",
                f"diff_theory_gamma_{tag}.csv",
            }
        assert names == expected
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["package_version"] == __version__
        assert manifest["config"]["master_seed"] == 3
        assert set(manifest["files"]) == {n[:-4] for n in names - {"manifest.json"}}
        assert manifest["alpha"]["0.2"] == pytest.approx(2.0)

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(cfg), "--out", str(out1)])
        main(["simulate", "--config", str(cfg), "--out", str(out2)])
        assert read_payloads(out1) == read_payloads(out2)

    def test_rate_files_do_not_depend_on_other_rates(self, tmp_path):
        outs = []
        for gammas in ([0.05, 0.1], [0.1]):
            cfg = write_config(tmp_path / "c.json", gamma_list=gammas, grid={"dt": 0.05, "n_steps": 200})
            outs.append(tmp_path / f"out{len(gammas)}")
            assert main(["simulate", "--config", str(cfg), "--out", str(outs[-1])]) == EXIT_OK
        for name in ("f_sim_gamma_0.1.csv", "f_theory_gamma_0.1.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        # 40 realizations: two chunks, so three threads start a two-worker pool
        cfg = write_config(tmp_path / "c.json", n_run=20, n_batch=2)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(cfg), "--out", str(out1), "--threads", "1"])
        main(["simulate", "--config", str(cfg), "--out", str(out2), "--threads", "3"])
        assert read_payloads(out1) == read_payloads(out2)

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "c.json", n_run=3, n_batch=1)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(cfg), "--out", str(out1), "--threads", "2"])
        monkeypatch.setenv(THREADS_ENV, "2")
        main(["simulate", "--config", str(cfg), "--out", str(out2)])
        assert read_payloads(out1) == read_payloads(out2)

    def test_threads_above_cpu_count_warn_on_stderr(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        cfg = write_config(tmp_path / "c.json", n_run=3, n_batch=1)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1), "--threads", "1"]) == EXIT_OK
        assert "exceeds" not in capsys.readouterr().err
        assert main(["simulate", "--config", str(cfg), "--out", str(out2), "--threads", "2"]) == EXIT_OK
        captured = capsys.readouterr()
        assert "--threads = 2 exceeds the 1 CPU(s)" in captured.err
        assert "exceeds" not in captured.out
        # the warning changes nothing in --out: same files, same payload bytes
        assert sorted(p.name for p in out1.iterdir()) == sorted(p.name for p in out2.iterdir())
        assert read_payloads(out1) == read_payloads(out2)

    def test_seed_override_changes_data(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(cfg), "--out", str(out1), "--seed", "11"])
        main(["simulate", "--config", str(cfg), "--out", str(out2), "--seed", "12"])
        a = (out1 / "f_lambda.csv").read_bytes()
        b = (out2 / "f_lambda.csv").read_bytes()
        assert a != b

    def test_json_format_matches_csv_values(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", n_run=2, n_batch=1)
        out_c, out_j = tmp_path / "c", tmp_path / "j"
        main(["simulate", "--config", str(cfg), "--out", str(out_c), "--format", "csv"])
        main(["simulate", "--config", str(cfg), "--out", str(out_j), "--format", "json"])
        a = read_curve(out_c / "f_sim_gamma_0.05.csv")
        b = read_curve(out_j / "f_sim_gamma_0.05.json")
        assert np.array_equal(a.values, b.values)

    def test_initial_state_from_file(self, tmp_path):
        rho = np.zeros((8, 8), dtype=complex)
        rho[0, 0] = rho[1, 1] = 0.5
        rho[0, 1] = rho[1, 0] = 0.25
        np.save(tmp_path / "rho.npy", rho)
        cfg = write_config(
            tmp_path / "c.json",
            initial_state="rho.npy",
            gamma_list=[0.0],
            n_run=2,
            n_batch=1,
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        # with G = 0 the simulated channel reproduces the echo of that state
        sim = read_curve(out / "f_sim_gamma_0.csv")
        base = read_curve(out / "f_lambda.csv")
        assert np.max(np.abs(sim.values - base.values)) < 1e-12


class TestTheory:
    def test_zero_rate_matches_baseline(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", gamma_list=[0.0], n_run=2, n_batch=1)
        out = tmp_path / "out"
        assert main(["theory", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        f = read_curve(out / "f_lambda.csv")
        th = read_curve(out / "f_theory_gamma_0.csv")
        assert np.array_equal(f.values, th.values)

    def test_kernels_reuse_reproduces_simulate_theory(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        sim_out = tmp_path / "sim"
        main(["simulate", "--config", str(cfg), "--out", str(sim_out)])
        th_out = tmp_path / "th"
        rc = main(
            ["theory", "--config", str(cfg), "--out", str(th_out),
             "--kernels", str(sim_out)]
        )
        assert rc == EXIT_OK
        # the kernels read back are written back byte for byte
        names = ["f_lambda", "f_bar"] + [f"f_theory_gamma_{tag}" for tag in ("0.05", "0.2")]
        for name in names:
            a = (sim_out / f"{name}.csv").read_bytes()
            b = (th_out / f"{name}.csv").read_bytes()
            assert a == b, name
        manifest = json.loads((th_out / "manifest.json").read_text())
        assert manifest["kernel_source"] == str(sim_out)

    def test_lf_kernel_files_give_the_same_bytes(self, tmp_path):
        # np.savetxt writes '\n' line endings; the reader takes either
        rc, crlf_out = run_theory_on_ones(tmp_path, 0.05)
        assert rc == EXIT_OK
        kdir = tmp_path / "k"
        for name in ("f_lambda", "f_bar"):
            path = kdir / f"{name}.csv"
            path.write_bytes(path.read_bytes().replace(b"\r\n", b"\n"))
        lf_out = tmp_path / "lf"
        cfg = tmp_path / "c.json"
        assert main(["theory", "--config", str(cfg), "--out", str(lf_out), "--kernels", str(kdir)]) == EXIT_OK
        assert read_payloads(lf_out) == read_payloads(crlf_out)

    def test_missing_kernel_directory(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        rc = main(
            ["theory", "--config", str(cfg), "--out", str(tmp_path / "o"),
             "--kernels", str(tmp_path / "absent")]
        )
        assert rc == EXIT_CONFIG

    def test_kernel_grid_must_match_config_grid(self, tmp_path, capsys):
        # config grid: dt = 0.05, 40 steps; kernel files: 81 points
        cfg = write_config(tmp_path / "c.json")
        kdir = tmp_path / "k"
        kdir.mkdir()
        grid = TimeGrid(dt=0.05, n_steps=80)
        for name in ("f_lambda", "f_bar"):
            write_curve(kdir / f"{name}.csv", FidelityCurve(grid, np.ones(81, dtype=complex)), "csv")
        rc = main(
            ["theory", "--config", str(cfg), "--out", str(tmp_path / "o"),
             "--kernels", str(kdir)]
        )
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "n_steps = 80" in err and "n_steps = 40" in err

    @pytest.mark.parametrize(
        "damage",
        ["truncated", "not-an-object", "scalar-columns", "nested-columns", "string-entries", "bool-entries",
         "unknown-key", "huge-int"],
    )
    def test_malformed_json_kernel_is_config_error(self, tmp_path, capsys, damage):
        cfg = write_config(tmp_path / "c.json", n_run=2, n_batch=1)
        kdir = tmp_path / "k"
        assert main(["simulate", "--config", str(cfg), "--out", str(kdir), "--format", "json"]) == EXIT_OK
        path = kdir / "f_lambda.json"
        text = path.read_text()
        payload = json.loads(text)
        columns = ("t", "re_f", "im_f", "re_err", "im_err")
        damaged = {
            "truncated": text[: len(text) // 2],
            "not-an-object": "[" + text + "]",
            "scalar-columns": json.dumps({key: i for i, key in enumerate(columns)}),
            "nested-columns": json.dumps({key: [[0, 1], [2, 3]] for key in columns}),
            # numpy would read each of these three as a valid curve
            "string-entries": json.dumps({**payload, "re_f": [str(v) for v in payload["re_f"]]}),
            "bool-entries": json.dumps({**payload, "re_f": [True] + [False] * (len(payload["re_f"]) - 1)}),
            "unknown-key": json.dumps({**payload, "comment": "measured"}),
            # a JSON number, but beyond the float range
            "huge-int": json.dumps({**payload, "re_f": [10**400] + payload["re_f"][1:]}),
        }
        path.write_text(damaged[damage])
        capsys.readouterr()
        rc = main(
            ["theory", "--config", str(cfg), "--out", str(tmp_path / "o"),
             "--format", "json", "--kernels", str(kdir)]
        )
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "f_lambda.json" in err
        column = {"string-entries": "'re_f'", "bool-entries": "'re_f'", "unknown-key": "'comment'"}
        assert column.get(damage, "") in err

    @pytest.mark.parametrize("damage", ["nan-value", "f_bar-at-half", "zero-step"])
    def test_bad_kernel_file_is_config_error(self, tmp_path, capsys, damage):
        cfg = write_config(tmp_path / "c.json")
        name = "f_lambda" if damage == "nan-value" else "f_bar"
        kdir = tmp_path / "k"
        kdir.mkdir()
        for key in ("f_lambda", "f_bar"):
            t, re_f = TimeGrid(dt=0.05, n_steps=40).times, np.ones(41)
            if key == name and damage == "nan-value":
                re_f[7] = np.nan
            elif key == name and damage == "f_bar-at-half":
                re_f[:] = 0.5
            elif key == name:
                t[1] = 0.0
            rows = [f"{ti!r},{vi!r},0.0,0.0,0.0" for ti, vi in zip(t.tolist(), re_f.tolist())]
            (kdir / f"{key}.csv").write_text("\r\n".join(["t,re_f,im_f,re_err,im_err"] + rows) + "\r\n")
        rc = main(
            ["theory", "--config", str(cfg), "--out", str(tmp_path / "o"),
             "--kernels", str(kdir)]
        )
        assert rc == EXIT_CONFIG
        assert f"{name}.csv" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_curve_is_numerical_failure(self, tmp_path, capsys):
        rc, out = run_overflowing_theory(tmp_path)
        assert rc == EXIT_NUMERIC
        assert "phi_gamma_1.9.csv" in capsys.readouterr().err
        assert not (out / "phi_gamma_1.9.csv").exists()
        assert not (out / "manifest.json").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_numerical_failure_leaves_no_curve_files(self, tmp_path):
        rc, out = run_overflowing_theory(tmp_path)
        assert rc == EXIT_NUMERIC
        assert not list(out.glob("*.csv"))
        assert not (out / "manifest.json").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_failed_rerun_leaves_no_stale_manifest(self, tmp_path):
        # the first run's manifest lists f_lambda.csv and f_bar.csv, which the failing rerun deletes
        assert run_theory_on_ones(tmp_path, 0.05) == (EXIT_OK, tmp_path / "o")
        assert (tmp_path / "o" / "manifest.json").exists()
        rc, out = run_overflowing_theory(tmp_path)
        assert rc == EXIT_NUMERIC
        assert not (out / "f_lambda.csv").exists()
        assert not (out / "manifest.json").exists()

    def test_smaller_rerun_leaves_only_its_own_files(self, tmp_path):
        # the first run writes the *_gamma_0.2 curves, which the rerun's manifest does not list
        out = tmp_path / "out"
        for rates in ([0.05, 0.2], [0.05]):
            cfg = write_config(tmp_path / "c.json", gamma_list=rates)
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert {p.name for p in out.iterdir()} == {"manifest.json", *manifest["files"].values()}
        assert len(manifest["files"]) == 8

    @pytest.mark.parametrize("damage", ["names-outside-out", "not-json"])
    def test_rerun_deletes_only_plain_names_from_the_old_manifest(self, tmp_path, damage):
        out = tmp_path / "o"
        assert run_theory_on_ones(tmp_path, 0.05) == (EXIT_OK, out)
        (out / "sub").mkdir()
        kept = [tmp_path / "outside.csv", out / "sub" / "x.csv", out / "notes.txt"]
        for path in kept:
            path.write_text("keep")
        manifest = out / "manifest.json"
        if damage == "names-outside-out":
            names = {"a": "../outside.csv", "b": "sub/x.csv", "c": str(tmp_path / "outside.csv"), "d": "", "e": 5}
            manifest.write_text(json.dumps({"files": names}))
        else:
            manifest.write_text("{")
        assert run_theory_on_ones(tmp_path, 0.05) == (EXIT_OK, out)
        assert all(path.read_text() == "keep" for path in kept)

    def test_first_order_accuracy_tracks_rate(self, tmp_path):
        # the one-step iterate is near-exact at tiny damping, visibly off at
        # strong damping on the same kernels
        cfg = write_config(
            tmp_path / "c.json",
            dim=16,
            gamma_list=[0.00195, 0.1],
            grid={"dt": 0.02, "n_steps": 500},
            n_run=8,
            n_batch=1,
        )
        out = tmp_path / "out"
        assert main(["theory", "--config", str(cfg), "--out", str(out)]) == EXIT_OK

        def gap(tag):
            th = read_curve(out / f"f_theory_gamma_{tag}.csv")
            fo = read_curve(out / f"first_order_gamma_{tag}.csv")
            return np.max(np.abs(th.values - fo.values))

        assert gap("0.1") > 50 * gap("0.00195")


class TestGeneral:
    def test_zero_strength_equals_closed_system(self, tmp_path):
        cfg = write_general_config(
            tmp_path / "g.json", coupling_strength=0.0, n_draws=1
        )
        out = tmp_path / "out"
        assert main(["general", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        got = read_curve(out / "f_general.csv")
        real = build_realization(EnsembleConfig(dim=4, beta=2, master_seed=5))
        expected = fidelity_curve(
            real, EchoSetup(lam=0.1, grid=TimeGrid(dt=0.05, n_steps=40))
        )
        assert np.max(np.abs(got.values - expected.values)) < 1e-9

    def test_narrow_exponential_approaches_delta(self, tmp_path):
        delta_out, exp_out = tmp_path / "d", tmp_path / "e"
        cfg_d = write_general_config(tmp_path / "d.json")
        main(["general", "--config", str(cfg_d), "--out", str(delta_out)])
        cfg_e = write_general_config(
            tmp_path / "e.json",
            kernel={"kind": "exponential", "tau_c": 1e-3, "c0": 1.0},
        )
        main(["general", "--config", str(cfg_e), "--out", str(exp_out)])
        a = read_curve(delta_out / "f_general.csv")
        b = read_curve(exp_out / "f_general.csv")
        assert np.max(np.abs(a.values - b.values)) < 5e-3

    def test_manifest_records_reduction_rate(self, tmp_path):
        cfg = write_general_config(tmp_path / "g.json")
        out = tmp_path / "out"
        main(["general", "--config", str(cfg), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        # strength^2 * dim * c0 = 0.09 * 4 * 1
        assert manifest["reduction_rate"] == pytest.approx(0.36)
        assert (out / "f_rmt_reference.csv").is_file()

    @pytest.mark.parametrize(
        "kernel, resolved",
        [
            ({"kind": "delta", "c0": 2}, {"kind": "delta", "c0": 2.0}),
            ({"kind": "delta", "tau_c": 0}, {"kind": "delta", "tau_c": 0.0, "c0": 1.0}),
            ({"kind": "exponential", "tau_c": 0.5}, {"kind": "exponential", "tau_c": 0.5, "c0": 1.0}),
        ],
    )
    def test_resolved_kernel(self, tmp_path, kernel, resolved):
        cfg = write_general_config(tmp_path / "g.json", kernel=kernel)
        config, got = parse_general_config(json.loads(cfg.read_text()), tmp_path)
        assert got["kernel"] == resolved
        assert config.kernel == CorrelationKernel(**resolved)

    @pytest.mark.parametrize(
        "kernel",
        [
            {"kind": "delta", "c0": 0.0},
            {"kind": "exponential", "tau_c": 0.5, "c0": -1.0},
            {"kind": "exponential", "tau_c": 0.0},
            {"kind": "tabulated"},
        ],
    )
    def test_bad_kernel_is_config_error(self, tmp_path, kernel):
        cfg = write_general_config(tmp_path / "g.json", kernel=kernel)
        assert main(["validate-config", "--config", str(cfg)]) == EXIT_CONFIG

    def test_threads_note_goes_to_stderr(self, tmp_path, capsys):
        cfg = write_general_config(tmp_path / "g.json", n_draws=2)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["general", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
        assert "serially" not in capsys.readouterr().err
        assert main(
            ["general", "--config", str(cfg), "--out", str(out2), "--threads", "2"]
        ) == EXIT_OK
        assert "run serially" in capsys.readouterr().err
        assert read_payloads(out1) == read_payloads(out2)

    def test_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # dim 16 gives a 256 x 256 step matrix, large enough for OpenBLAS to split
        # its products over threads
        cfg = write_general_config(
            tmp_path / "g.json", dim=16, beta=1, n_draws=2,
            kernel={"kind": "exponential", "tau_c": 0.5, "c0": 1.0},
        )
        payloads = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas-{threads}"
            argv = ["general", "--config", str(cfg), "--out", str(out)]
            TestValidateAndErrors.fresh_python(
                f"import sys; from echo_gfa.cli import main; sys.exit(main({argv!r}))",
                unset=BLAS_THREAD_VARS, OPENBLAS_NUM_THREADS=threads,
            )
            payloads.append([(out / name).read_bytes() for name in ("f_general.csv", "f_rmt_reference.csv")])
        assert payloads[0] == payloads[1]

    def test_fixed_coupling_file(self, tmp_path):
        v = np.diag([1.0, -1.0, 0.5, -0.5]).astype(complex)
        np.save(tmp_path / "v.npy", v)
        cfg = write_general_config(
            tmp_path / "g.json", coupling_file="v.npy", n_draws=1
        )
        out = tmp_path / "out"
        assert main(["general", "--config", str(cfg), "--out", str(out)]) == EXIT_OK

    def test_coupling_file_must_be_a_path(self, tmp_path):
        cfg = write_general_config(tmp_path / "g.json", coupling_file=5, n_draws=1)
        assert main(["validate-config", "--config", str(cfg)]) == EXIT_CONFIG

    def test_coupling_file_requires_single_draw(self, tmp_path):
        np.save(tmp_path / "v.npy", np.eye(4))
        cfg = write_general_config(
            tmp_path / "g.json", coupling_file="v.npy", n_draws=5
        )
        assert main(["general", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


class TestSummaryLines:
    """The one line each run command prints on stdout, with its seconds masked."""

    @staticmethod
    def masked(stdout):
        return re.sub(r" in \d+\.\d s ", " in X s ", stdout)

    def test_simulate(self, tmp_path, capsys):
        cfg, out = write_config(tmp_path / "c.json"), tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--threads", "2"]) == EXIT_OK
        assert self.masked(capsys.readouterr().out) == (
            f"simulate: 8 realizations (dim=8, threads=2) in X s -> {out} (15 files)\n"
        )

    def test_theory_from_ensemble(self, tmp_path, capsys):
        cfg, out = write_config(tmp_path / "c.json"), tmp_path / "out"
        assert main(["theory", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert self.masked(capsys.readouterr().out) == f"theory: kernels from ensemble in X s -> {out} (11 files)\n"

    def test_theory_from_kernels(self, tmp_path, capsys):
        rc, out = run_theory_on_ones(tmp_path, 0.05, "--threads", "2")
        assert rc == EXIT_OK
        captured = capsys.readouterr()
        assert self.masked(captured.out) == (
            f"theory: kernels from {tmp_path / 'k'} in X s -> {out} (7 files)\n"
        )
        # a warning about the CPU count may precede the note on a one-CPU machine
        assert captured.err.splitlines()[-1] == "theory: --kernels runs in one process; --threads is ignored"

    def test_theory_from_kernels_notes_ignored_seed(self, tmp_path, capsys):
        rc, out = run_theory_on_ones(tmp_path, 0.05)
        assert rc == EXIT_OK
        plain = read_payloads(out), (out / "manifest.json").read_bytes()
        capsys.readouterr()
        rc, out = run_theory_on_ones(tmp_path, 0.05, "--seed", "99")
        assert rc == EXIT_OK
        assert capsys.readouterr().err.splitlines()[-1] == "theory: --kernels samples nothing; --seed is ignored"
        # the seed is no part of the run: curves and manifest (master_seed, config_hash) are byte-identical
        assert (read_payloads(out), (out / "manifest.json").read_bytes()) == plain

    def test_general_and_threads_note(self, tmp_path, capsys):
        cfg, out = write_general_config(tmp_path / "g.json"), tmp_path / "out"
        assert main(["general", "--config", str(cfg), "--out", str(out), "--threads", "2"]) == EXIT_OK
        captured = capsys.readouterr()
        assert self.masked(captured.out) == (
            f"general: 3 draw(s) (dim=4, method=superoperator) in X s -> {out} (3 files)\n"
        )
        # a warning about the CPU count may precede the note on a one-CPU machine
        assert captured.err.splitlines()[-1] == "general: coupling draws run serially; --threads is ignored"


class TestValidateAndErrors:
    @pytest.mark.parametrize("command", ["simulate", "general"])
    def test_grid_too_large_to_allocate_is_exit_4(self, tmp_path, capsys, command):
        # 1e17 complex points ask for exabytes, beyond any 64-bit address space, so
        # the first curve array fails to allocate at once and touches no memory
        write = write_config if command == "simulate" else write_general_config
        cfg = write(tmp_path / "c.json", grid={"dt": 1e-12, "n_steps": 10**17})
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_NUMERIC
        assert "out of memory: Unable to allocate" in capsys.readouterr().err

    def test_packaged_presets_validate(self, capsys):
        # the resolved values that every manifest of these presets records
        expected = {
            "fig1.json": '"gamma_list": [0.01, 0.05, 0.077, 0.1], "grid": {"dt": 0.02, "n_steps": 600}, '
            '"initial_state": "maximally-mixed", "lambda": 0.1, "master_seed": 12345, ',
            "fig2.json": '"gamma_list": [0.00195, 0.01, 0.02285, 0.1], "grid": {"dt": 0.02, "n_steps": 600}, '
            '"initial_state": "maximally-mixed", "lambda": 0.02, "master_seed": 67890, ',
        }
        for preset, middle in expected.items():
            assert main(["validate-config", "--config", preset]) == EXIT_OK
            assert capsys.readouterr().out == (
                'config OK (ensemble): {"beta": 1, "dim": 50, ' + middle
                + '"method": "volterra-per-realization", "n_batch": 3, "n_run": 1000}\n'
            )

    @pytest.mark.parametrize(
        "kind, values, key",
        [
            ("ensemble", {"dim": 8.0}, "dim"),
            ("ensemble", {"beta": True}, "beta"),
            ("ensemble", {"n_run": 2.0}, "n_run"),
            ("ensemble", {"n_batch": "2"}, "n_batch"),
            ("general", {"n_draws": 1.0}, "n_draws"),
            ("ensemble", {"lambda": "x"}, "lambda"),
            ("ensemble", {"lambda": 10**400}, "lambda"),
            ("general", {"coupling_strength": None}, "coupling_strength"),
            ("general", {"coupling_strength": 1e155}, "coupling_strength"),
            ("ensemble", {"gamma_list": ["0.1"]}, "gamma_list"),
            ("ensemble", {"gamma_list": [True]}, "gamma_list"),
            ("ensemble", {"grid": [0.05, 40]}, "config.grid"),
            ("ensemble", {"grid": {"dt": "x", "n_steps": 40}}, "dt"),
            ("ensemble", {"grid": {"dt": 0.05, "n_steps": None}}, "n_steps"),
            ("general", {"kernel": ["delta"]}, "kernel"),
            ("general", {"kernel": {"c0": 1.0}}, "kind"),
            ("general", {"kernel": {"kind": "delta", "c0": "x"}}, "config.kernel: c0"),
            ("ensemble", {"initial_state": 5}, "initial_state"),
            ("general", {"coupling_file": 3, "n_draws": 1}, "coupling_file"),
        ],
        ids=[
            "dim-float", "beta-bool", "n_run-float", "n_batch-string", "n_draws-float", "lambda-string",
            "lambda-beyond-float", "strength-null", "strength-square-overflows", "gamma-string",
            "gamma-bool", "grid-list", "dt-string", "n_steps-null", "kernel-list", "kernel-without-kind",
            "c0-string", "initial_state-number", "coupling_file-number",
        ],
    )
    def test_wrongly_typed_values_are_config_errors(self, tmp_path, capsys, kind, values, key):
        # exit 2 naming the key from validate-config and from the run command alike
        write, command = (write_config, "simulate") if kind == "ensemble" else (write_general_config, "general")
        cfg = write(tmp_path / "c.json")
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), **values}))
        out = tmp_path / "out"
        for argv in (["validate-config", "--config", str(cfg)], [command, "--config", str(cfg), "--out", str(out)]):
            assert main(argv) == EXIT_CONFIG
            assert key in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_lists_presets(self, tmp_path, capsys):
        rc = main(["validate-config", "--config", str(tmp_path / "none.json")])
        assert rc == EXIT_CONFIG
        assert "fig1.json" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        data = json.loads(cfg.read_text())
        data["surprise"] = 1
        cfg.write_text(json.dumps(data))
        assert main(["validate-config", "--config", str(cfg)]) == EXIT_CONFIG

    def test_step_size_violation_rejected_up_front(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json", gamma_list=[50.0], grid={"dt": 0.05, "n_steps": 10}
        )
        assert main(["validate-config", "--config", str(cfg)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "case",
        ["non-hermitian-coupling", "state-dim", "superoperator-dim", "stepper", "nan-coupling"],
    )
    def test_value_errors_reported_by_validate_config(self, tmp_path, case):
        # each of these runs would otherwise fail later, or write nan curves
        if case == "non-hermitian-coupling":
            np.save(tmp_path / "v.npy", np.triu(np.ones((4, 4))))
            cfg = write_general_config(tmp_path / "g.json", coupling_file="v.npy", n_draws=1)
        elif case == "nan-coupling":
            v = np.eye(4)
            v[1, 1] = np.nan
            np.save(tmp_path / "v.npy", v)
            cfg = write_general_config(tmp_path / "g.json", coupling_file="v.npy", n_draws=1)
        elif case == "state-dim":
            np.save(tmp_path / "rho.npy", np.eye(3) / 3)
            cfg = write_general_config(tmp_path / "g.json", initial_state="rho.npy")
        elif case == "stepper":
            # master-equation propagation is for general configs only
            cfg = write_config(tmp_path / "c.json", dim=8, method="stepper")
        else:
            cfg = write_config(tmp_path / "c.json", dim=80, method="superoperator")
        assert main(["validate-config", "--config", str(cfg)]) == EXIT_CONFIG

    @pytest.mark.parametrize("kind", ["ensemble", "general"])
    def test_omitted_optional_keys_take_dataclass_defaults(self, tmp_path, kind):
        # the parser holds no defaults of its own: the config and the resolved dict read them
        # from the dataclass fields
        def defaults(cls):
            return {f.name: f.default for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING}

        if kind == "ensemble":
            cfg = write_config(tmp_path / "c.json", n_batch=None, method=None)
            cls, parse, count = ExperimentConfig, parse_ensemble_config, "n_batch"
        else:
            cfg = write_general_config(tmp_path / "g.json", kernel={"kind": "delta"}, n_draws=None)
            cls, parse, count = GeneralConfig, parse_general_config, "n_draws"
        config, resolved = parse(json.loads(cfg.read_text()), tmp_path)
        expected = defaults(cls)
        assert {count, "method", "initial_state"} <= set(expected)
        for name, default in expected.items():
            assert getattr(config, name) == default, name
        for name in (count, "method"):
            assert resolved[name] == expected[name]
        if kind == "general":
            c0 = defaults(CorrelationKernel)["c0"]
            assert config.kernel.c0 == c0 and resolved["kernel"]["c0"] == c0

    def test_colliding_rate_tags_rejected(self, tmp_path, capsys):
        # both rates would be written as *_gamma_0.1.csv
        cfg = write_config(tmp_path / "c.json", gamma_list=[0.1, 0.1000001])
        assert main(["validate-config", "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "0.1 " in err and "0.1000001" in err
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("case", ["flag-zero", "env-not-an-integer"])
    def test_bad_thread_setting_rejected(self, tmp_path, monkeypatch, capsys, case):
        # validate-config checks what simulate would reject
        argv = ["validate-config", "--config", "fig1.json"]
        if case == "flag-zero":
            argv += ["--threads", "0"]
        else:
            monkeypatch.setenv(THREADS_ENV, "abc")
        assert main(argv) == EXIT_CONFIG
        assert "config OK" not in capsys.readouterr().out

    def test_unwritable_output_is_io_error(self, tmp_path):
        from echo_gfa.cli import EXIT_IO

        cfg = write_config(tmp_path / "c.json", n_run=1, n_batch=1, gamma_list=[0.0])
        blocker = tmp_path / "blocked"
        blocker.write_text("")  # a file where the output directory should go
        rc = main(["simulate", "--config", str(cfg), "--out", str(blocker / "sub")])
        assert rc == EXIT_IO

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])

    @staticmethod
    def fresh_python(code, unset=(), **set_vars):
        """stdout of code run in a fresh interpreter that imports this echo_gfa.

        The environment is this one's without the variables in ``unset`` and
        with ``set_vars`` added.
        """
        import echo_gfa

        env = {k: v for k, v in os.environ.items() if k not in unset}
        env.update(set_vars)
        src = str(Path(echo_gfa.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        return proc.stdout.strip()

    @classmethod
    def imported_with_cli(cls, module):
        """Whether importing echo_gfa.cli in a fresh interpreter imports module."""
        return cls.fresh_python(f"import sys, echo_gfa.cli; print({module!r} in sys.modules)") == "True"

    def test_import_loads_no_scipy(self):
        # every command pays for what importing the CLI pulls in; only general's
        # stepper imports scipy, and only when it runs
        loaded = self.fresh_python(
            "import sys, echo_gfa.cli\n"
            "print(*[m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        )
        assert loaded == ""

    def test_package_import_loads_nothing(self):
        # every name is imported from its own module, so the package itself loads none of them
        loaded = self.fresh_python(
            "import sys, echo_gfa\n"
            "print(*[m for m in sys.modules if m == 'numpy' or m.startswith(('numpy.', 'echo_gfa.'))])"
        )
        assert loaded == ""

    def test_import_skips_fractions(self):
        # the CSV writer's scale table is built with int arithmetic
        assert not self.imported_with_cli("fractions")

    # only a run that starts workers needs the process pool
    @pytest.mark.parametrize("module", ["concurrent.futures.process"])
    def test_import_skips_modules_no_default_command_runs(self, module):
        assert not self.imported_with_cli(module)

    def test_stepper_loads_scipy_integrate_when_it_runs(self):
        # the deferred import works in an interpreter that has only imported the CLI
        code = """
import sys
import numpy as np
import echo_gfa.cli
from echo_gfa.curves import TimeGrid
from echo_gfa.master import QuasiDensity, propagate, rmt_generator, trace_curve
gen = rmt_generator(np.diag([0.0, 1.5, 2.0]), np.diag([0.0, 1.0, 2.5]), rate=0.5)
rho0, grid = QuasiDensity.maximally_mixed(3), TimeGrid(dt=0.1, n_steps=20)
before = "scipy.integrate" in sys.modules
curves = [trace_curve(propagate(gen, rho0, grid, method=m)).values for m in ("stepper", "superoperator")]
print(before, "scipy.integrate" in sys.modules, np.max(np.abs(curves[0] - curves[1])))
"""
        before, after, diff = self.fresh_python(code).split()
        assert (before, after) == ("False", "True")
        assert float(diff) < 1e-7

    def test_general_superoperator_loads_no_scipy(self, tmp_path):
        # the dense route runs on numpy's BLAS: general at dim 16 imports no scipy module at all
        cfg = write_general_config(tmp_path / "g.json", dim=16, n_draws=1, method="superoperator")
        code = f"""
import sys
from echo_gfa.cli import main
code = main(["general", "--config", {str(cfg)!r}, "--out", {str(tmp_path / "out")!r}])
print(code, *sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""
        assert self.fresh_python(code).splitlines()[-1].split() == [str(EXIT_OK)]

    def test_console_script_installed(self):
        import shutil

        exe = shutil.which("echo-gfa")
        assert exe is not None
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "simulate" in proc.stdout


def _blas_name(config) -> str | None:
    """The BLAS a numpy or scipy build names in its __config__."""
    return config.CONFIG.get("Build Dependencies", {}).get("blas", {}).get("name")


@pytest.mark.skipif(
    _blas_name(np.__config__) != "scipy-openblas", reason="numpy is not built on scipy-openblas"
)
class TestNumpyBlasThreads:
    """Importing the CLI runs numpy's bundled OpenBLAS on one thread, and only that.

    Only the dense master-equation route raises it back to the count it had.
    """

    # defines blas_threads(libs): the thread count of the OpenBLAS mapped from the
    # directory libs; a missing library or symbol raises, so the test fails
    PRELUDE = """
import ctypes

def blas_threads(libs):
    for line in open("/proc/self/maps"):
        path = line.split()[-1]
        if f"/{libs}/" in path and "openblas" in path:
            lib = ctypes.CDLL(path)
            get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
            return (get or lib.scipy_openblas_get_num_threads)()
    raise LookupError(f"no OpenBLAS mapped from {libs}")
"""

    @classmethod
    def run(cls, code, **set_vars):
        """Fresh interpreter with no BLAS thread variable but those in set_vars."""
        out = TestValidateAndErrors.fresh_python(cls.PRELUDE + code, unset=BLAS_THREAD_VARS, **set_vars)
        return [int(word) for word in out.split()]

    def test_cli_import_pins_numpy_blas(self):
        assert self.run('import echo_gfa.cli\nprint(blas_threads("numpy.libs"))') == [1]

    @pytest.mark.skipif(
        _blas_name(scipy.__config__) != "scipy-openblas",
        reason="scipy is not built on scipy-openblas",
    )
    def test_scipy_blas_keeps_its_pool(self):
        before, after = self.run(
            """
import scipy.linalg
print(blas_threads("scipy.libs"))
import echo_gfa.cli
print(blas_threads("scipy.libs"))
"""
        )
        assert after == before

    @pytest.mark.parametrize(
        "module, set_vars",
        # a thread variable the user set is never overridden
        [("echo_gfa.cli", {var: "2"}) for var in BLAS_THREAD_VARS]
        # the library without the CLI leaves BLAS alone
        + [("echo_gfa.harness", {})],
        ids=[*BLAS_THREAD_VARS, "library-only"],
    )
    def test_numpy_blas_left_as_it_was(self, module, set_vars):
        before, after = self.run(
            f"""
import numpy
print(blas_threads("numpy.libs"))
import {module}
print(blas_threads("numpy.libs"))
""",
            **set_vars,
        )
        assert after == before

    # prints numpy's thread count before the CLI pins it, within a dim-4 dense route (at the
    # step build and at each of its 5 steps), after it, within the build of a step whose
    # L dt overflows, and after the PropagationError that build raises
    ROUTE = """
import numpy
print(blas_threads("numpy.libs"))
import echo_gfa.cli
from echo_gfa import master
from echo_gfa.curves import TimeGrid

step_matrix = master._step_matrix

def reporting(l, dt):
    print(blas_threads("numpy.libs"))
    return step_matrix(l, dt)

master._step_matrix = reporting
rng = numpy.random.default_rng(5)
h0, v = (m + m.conj().T for m in rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4)))
gen = master.general_generator(h0 + 0.1 * v, h0, v, master.CorrelationKernel.exponential(0.5), 0.3)
for _ in master._dense_states(gen, numpy.eye(4) / 4, TimeGrid(0.1, 5)):
    print(blas_threads("numpy.libs"))
print(blas_threads("numpy.libs"))
overflowing = master.rmt_generator(numpy.zeros((2, 2)), numpy.zeros((2, 2)), rate=1e308)
try:
    master.propagate(overflowing, master.QuasiDensity.maximally_mixed(2), TimeGrid(10.0, 2))
except master.PropagationError:
    print(blas_threads("numpy.libs"))
"""

    def test_dense_route_runs_the_pool_numpy_had(self):
        before, *inside, after, overflow, after_error = self.run(self.ROUTE)
        assert inside == [before] * 6 and overflow == before
        assert (after, after_error) == (1, 1)

    def test_dense_route_leaves_a_set_thread_count(self):
        counts = self.run(self.ROUTE, OPENBLAS_NUM_THREADS="2")
        assert len(counts) == 10 and set(counts) == {counts[0]}

    def test_dense_route_bits_do_not_depend_on_the_pool(self):
        # a dim-16 Born-Markov propagation on the raised pool and on one thread
        code = """
import hashlib
import numpy as np
import echo_gfa.cli
from echo_gfa import master
from echo_gfa.curves import TimeGrid

rng = np.random.default_rng(11)
h0, v = (m + m.conj().T for m in rng.standard_normal((2, 16, 16)) + 1j * rng.standard_normal((2, 16, 16)))
gen = master.general_generator(h0 + 0.1 * v, h0, v, master.CorrelationKernel.exponential(0.5), 0.2)
traces = master.propagate(gen, master.QuasiDensity.maximally_mixed(16), TimeGrid(0.05, 100)).traces
print(hashlib.sha256(traces.tobytes()).hexdigest())
"""
        raised = TestValidateAndErrors.fresh_python(code, unset=BLAS_THREAD_VARS)
        assert raised == TestValidateAndErrors.fresh_python(code, OPENBLAS_NUM_THREADS="1")

    def test_pool_workers_inherit_one_thread(self):
        # two chunks of 32 realizations, so run_ensemble starts two workers
        counts = self.run(
            """
import os
import echo_gfa.cli
from echo_gfa import harness
from echo_gfa.curves import TimeGrid

chunk_task = harness._chunk_task

def reporting(args):
    if os.getpid() != parent:
        # one write per worker: with PYTHONUNBUFFERED set, print writes the count
        # and its newline apart, and two workers' writes could interleave
        os.write(1, b"%d\\n" % blas_threads("numpy.libs"))
    return chunk_task(args)

parent = os.getpid()
harness._chunk_task = reporting
config = harness.ExperimentConfig(
    dim=4, beta=2, master_seed=1, lam=0.1, gamma_list=(0.1,),
    grid=TimeGrid(dt=0.1, n_steps=10), n_run=32, n_batch=2,
)
harness.run_ensemble(config, n_jobs=2)
"""
        )
        assert counts == [1, 1]

    def test_forkserver_workers_pin_one_thread(self, tmp_path):
        # a forkserver worker imports echo_gfa.harness but not the CLI, so it inherits
        # no pin from this process: the pool initializer must set one thread itself.
        # The reporting task lives in a module that the workers can import.
        (tmp_path / "blas_probe.py").write_text(
            self.PRELUDE
            + """
import os
from echo_gfa import harness

chunk_task = harness._chunk_task

def reporting(args):
    os.write(1, b"%d\\n" % blas_threads("numpy.libs"))
    return chunk_task(args)
"""
        )
        counts = self.run(
            """
import multiprocessing
import blas_probe
import echo_gfa.cli
from echo_gfa import harness
from echo_gfa.curves import TimeGrid

multiprocessing.set_start_method("forkserver")
harness._chunk_task = blas_probe.reporting
config = harness.ExperimentConfig(
    dim=4, beta=2, master_seed=1, lam=0.1, gamma_list=(0.1,),
    grid=TimeGrid(dt=0.1, n_steps=10), n_run=32, n_batch=2,
)
harness.run_ensemble(config, n_jobs=2)
""",
            PYTHONPATH=str(tmp_path),
        )
        assert counts == [1, 1]
