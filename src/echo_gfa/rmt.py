"""Gaussian-ensemble sampling and semicircle-unfolded spectra.

Conventions
-----------
``beta = 1`` samples the orthogonal ensemble (real symmetric), ``beta = 2``
the unitary one (complex Hermitian).  Matrix elements satisfy

    <|V_ij|^2> = 1 for i != j,      <V_ii^2> = 2 / beta,

i.e. off-diagonal variance 1 in both classes.  Environment spectra are
unfolded with the integrated semicircle law and rescaled so the mean level
spacing is exactly 1; times are then measured against the Heisenberg time
t_H = 2*pi.

Randomness is organised per realization: every (master_seed,
realization_index, purpose) triple owns an independent, deterministically
derived substream, so ensembles are reproducible no matter how realizations
are distributed over workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import check_integer

# spawn-key tags; appending new purposes keeps existing streams stable
_STREAM_TAGS = {"levels": 0, "perturbation": 1, "coupling": 2}


@dataclass(frozen=True)
class EnsembleConfig:
    """Identifies one realization of the sampled environment."""

    dim: int
    beta: int
    master_seed: int
    realization_index: int = 0

    def __post_init__(self) -> None:
        check_integer("dim", self.dim, 2)
        check_integer("beta", self.beta, 1)
        if self.beta > 2:
            raise ValueError(f"beta must be 1 (orthogonal) or 2 (unitary), got {self.beta!r}")
        check_integer("master_seed", self.master_seed, 0)
        check_integer("realization_index", self.realization_index, 0)


def stream(config: EnsembleConfig, purpose: str) -> np.random.Generator:
    """Independent generator for one purpose within one realization."""
    try:
        tag = _STREAM_TAGS[purpose]
    except KeyError:
        raise ValueError(f"unknown stream purpose {purpose!r}, expected one of {sorted(_STREAM_TAGS)}") from None
    seq = np.random.SeedSequence(
        config.master_seed, spawn_key=(config.realization_index, tag)
    )
    return np.random.default_rng(seq)


def sample_gaussian(dim: int, beta: int, rng: np.random.Generator) -> np.ndarray:
    """One Gaussian-ensemble matrix; exactly (conjugate-)symmetric by construction."""
    check_integer("dim", dim, 2)
    check_integer("beta", beta, 1)
    if beta == 1:
        a = rng.standard_normal((dim, dim))
        return (a + a.T) / np.sqrt(2.0)
    if beta == 2:
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return (a + a.conj().T) / 2.0
    raise ValueError(f"beta must be 1 or 2, got {beta!r}")


def _semicircle_cdf(x: np.ndarray, radius: float) -> np.ndarray:
    """Integrated semicircle density on [-radius, radius], clamped outside."""
    u = np.clip(x / radius, -1.0, 1.0)
    return 0.5 + (u * np.sqrt(1.0 - u * u) + np.arcsin(u)) / np.pi


def unfolded_spectrum(dim: int, beta: int, rng: np.random.Generator) -> np.ndarray:
    """Ascending spectrum with mean spacing exactly 1 between its endpoints.

    A Gaussian-ensemble matrix is diagonalised, its eigenvalues are mapped
    through the integrated semicircle law (radius 2*sqrt(dim) for our
    variance convention), and the image is rescaled affinely so that
    (E_max - E_min) / (dim - 1) == 1 exactly, then centred at zero.
    """
    h = sample_gaussian(dim, beta, rng)
    eigs = np.linalg.eigvalsh(h)
    u = _semicircle_cdf(eigs, 2.0 * np.sqrt(dim))
    span = u[-1] - u[0]
    if span <= 0.0:
        # all eigenvalues clipped to one edge; astronomically unlikely
        raise ValueError("degenerate spectrum: unfolding map is constant")
    levels = (u - u[0]) * ((dim - 1) / span)
    return levels - levels.mean()


@dataclass(frozen=True, eq=False)
class Realization:
    """One sampled environment: unfolded levels plus a perturbation matrix."""

    env_levels: np.ndarray
    perturbation: np.ndarray
    config: EnsembleConfig

    @property
    def dim(self) -> int:
        return self.config.dim


def build_realization(config: EnsembleConfig) -> Realization:
    """Sample the environment spectrum and perturbation for one realization."""
    levels = unfolded_spectrum(config.dim, config.beta, stream(config, "levels"))
    v = sample_gaussian(config.dim, config.beta, stream(config, "perturbation"))
    return Realization(env_levels=levels, perturbation=v, config=config)
