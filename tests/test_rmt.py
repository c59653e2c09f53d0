"""Sampler statistics, unfolding, and stream bookkeeping."""

import numpy as np
import pytest

from echo_gfa.rmt import (
    EnsembleConfig,
    build_realization,
    sample_gaussian,
    stream,
    unfolded_spectrum,
)
from helpers import ks_distance, wigner_surmise_cdf


class TestSampleGaussian:
    def test_goe_exactly_symmetric(self):
        rng = np.random.default_rng(0)
        for dim in (2, 5, 17):
            v = sample_gaussian(dim, 1, rng)
            assert v.dtype == np.float64
            assert np.array_equal(v, v.T)

    def test_gue_exactly_hermitian(self):
        rng = np.random.default_rng(1)
        for dim in (2, 9):
            v = sample_gaussian(dim, 2, rng)
            assert v.dtype == np.complex128
            assert np.array_equal(v, v.conj().T)

    def test_goe_second_moments(self):
        # E V_12^2 = 1, E V_11^2 = 2.  Sample variance of N(0, s^2) has
        # standard error s^2 sqrt(2/n).
        n = 100_000
        rng = np.random.default_rng(2)
        draws = np.array([sample_gaussian(2, 1, rng) for _ in range(n)])
        off = draws[:, 0, 1]
        dia = draws[:, 0, 0]
        assert abs(off.mean()) < 5 / np.sqrt(n)
        assert abs(off.var() - 1.0) < 5 * np.sqrt(2.0 / n)
        assert abs(dia.var() - 2.0) < 5 * 2.0 * np.sqrt(2.0 / n)

    def test_gue_second_moments(self):
        # |V_12|^2 is Exp(1): mean 1, variance 1.  Diagonal is real N(0, 1).
        n = 100_000
        rng = np.random.default_rng(3)
        draws = np.array([sample_gaussian(2, 2, rng) for _ in range(n)])
        off = draws[:, 0, 1]
        dia = draws[:, 0, 0]
        assert np.all(dia.imag == 0.0)
        assert abs(np.mean(np.abs(off) ** 2) - 1.0) < 5 / np.sqrt(n)
        assert abs(np.mean(off**2)) < 5 / np.sqrt(n)  # no V_12^2 correlation
        assert abs(dia.real.var() - 1.0) < 5 * np.sqrt(2.0 / n)

    def test_distinct_entries_uncorrelated(self):
        n = 40_000
        rng = np.random.default_rng(4)
        draws = np.array([sample_gaussian(4, 1, rng) for _ in range(n)])
        prod = draws[:, 0, 1] * draws[:, 2, 3]
        assert abs(prod.mean()) < 5 * prod.std(ddof=1) / np.sqrt(n)

    def test_rejects_bad_arguments(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_gaussian(1, 1, rng)
        with pytest.raises(ValueError):
            sample_gaussian(4, 3, rng)

    @pytest.mark.parametrize("beta", [True, 2.0, np.float64(1.0)])
    def test_rejects_beta_that_is_not_an_integer(self, beta):
        # True == 1 and 2.0 == 2, yet neither names an ensemble
        with pytest.raises(ValueError, match="beta"):
            sample_gaussian(4, beta, np.random.default_rng(0))

    def test_accepts_numpy_integer_beta(self):
        v = sample_gaussian(4, np.int64(2), np.random.default_rng(0))
        assert np.array_equal(v, sample_gaussian(4, 2, np.random.default_rng(0)))


class TestUnfoldedSpectrum:
    @pytest.mark.parametrize("dim", [4, 16, 50])
    def test_unit_mean_spacing_exact(self, dim):
        rng = np.random.default_rng(10 + dim)
        x = unfolded_spectrum(dim, 1, rng)
        assert np.all(np.diff(x) > 0)
        assert abs((x[-1] - x[0]) / (dim - 1) - 1.0) < 1e-12
        assert abs(x.mean()) < 1e-9

    def test_spacings_follow_wigner_surmise(self):
        rng = np.random.default_rng(11)
        spacings = []
        for _ in range(200):
            spacings.append(np.diff(unfolded_spectrum(50, 1, rng)))
        d = ks_distance(np.concatenate(spacings), wigner_surmise_cdf)
        assert d < 0.15

    def test_rejects_tiny_dimension(self):
        with pytest.raises(ValueError):
            unfolded_spectrum(1, 1, np.random.default_rng(0))


class TestStreams:
    def cfg(self, **kw):
        base = dict(dim=8, beta=1, master_seed=99, realization_index=0)
        base.update(kw)
        return EnsembleConfig(**base)

    def test_purposes_are_decoupled(self):
        a = stream(self.cfg(), "levels").standard_normal(16)
        b = stream(self.cfg(), "perturbation").standard_normal(16)
        assert not np.allclose(a, b)

    def test_repeatable(self):
        a = stream(self.cfg(), "coupling").standard_normal(16)
        b = stream(self.cfg(), "coupling").standard_normal(16)
        assert np.array_equal(a, b)

    def test_realization_index_separates(self):
        a = stream(self.cfg(realization_index=3), "levels").standard_normal(4)
        b = stream(self.cfg(realization_index=4), "levels").standard_normal(4)
        assert not np.allclose(a, b)

    def test_unknown_purpose_rejected(self):
        with pytest.raises(ValueError):
            stream(self.cfg(), "noise")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            self.cfg(dim=1)
        with pytest.raises(ValueError):
            self.cfg(beta=5)
        with pytest.raises(ValueError):
            self.cfg(master_seed=-1)
        with pytest.raises(ValueError):
            self.cfg(realization_index=-2)


class TestBuildRealization:
    def test_deterministic_and_well_formed(self):
        cfg = EnsembleConfig(dim=12, beta=2, master_seed=7, realization_index=5)
        r1 = build_realization(cfg)
        r2 = build_realization(cfg)
        assert np.array_equal(r1.env_levels, r2.env_levels)
        assert np.array_equal(r1.perturbation, r2.perturbation)
        assert r1.env_levels.shape == (12,)
        assert r1.perturbation.shape == (12, 12)
        assert np.array_equal(r1.perturbation, r1.perturbation.conj().T)

    def test_beta_selects_symmetry_class(self):
        goe = build_realization(EnsembleConfig(dim=6, beta=1, master_seed=1, realization_index=0))
        gue = build_realization(EnsembleConfig(dim=6, beta=2, master_seed=1, realization_index=0))
        assert goe.perturbation.dtype == np.float64
        assert gue.perturbation.dtype == np.complex128
        assert np.any(gue.perturbation.imag != 0.0)
