"""Structural invariants checked over randomized inputs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echo_gfa.cli import write_curve
from echo_gfa.curves import FidelityCurve, TimeGrid
from echo_gfa.echo import EchoSetup, fidelity_curve, kernel_curve
from echo_gfa.rmt import EnsembleConfig, build_realization, sample_gaussian, unfolded_spectrum
from echo_gfa.volterra import VolterraProblem, convolve, first_order, solve

from helpers import reference_csv

RELAXED = settings(max_examples=25, deadline=None)


def rough_curve(rng, grid, normalized=False):
    """Complex curve with O(1) entries; optionally starting at exactly 1."""
    v = rng.standard_normal(len(grid)) + 1j * rng.standard_normal(len(grid))
    if normalized:
        v[0] = 1.0
    return FidelityCurve(grid, v)


@given(seed=st.integers(0, 2**32 - 1), beta=st.sampled_from([1, 2]), dim=st.integers(2, 12))
@RELAXED
def test_sampled_matrices_exactly_hermitian(seed, beta, dim):
    v = sample_gaussian(dim, beta, np.random.default_rng(seed))
    assert np.array_equal(v, v.conj().T)


@given(seed=st.integers(0, 2**32 - 1), beta=st.sampled_from([1, 2]), dim=st.integers(2, 24))
@RELAXED
def test_unfolded_spectrum_normalization(seed, beta, dim):
    x = unfolded_spectrum(dim, beta, np.random.default_rng(seed))
    assert np.all(np.diff(x) > 0)
    assert abs((x[-1] - x[0]) / (dim - 1) - 1.0) < 1e-12


@given(
    seed=st.integers(0, 2**31),
    n=st.integers(4, 60),
    dt=st.floats(0.01, 0.5),
)
@RELAXED
def test_convolution_commutes(seed, n, dt):
    rng = np.random.default_rng(seed)
    grid = TimeGrid(dt=dt, n_steps=n)
    a, b = rough_curve(rng, grid), rough_curve(rng, grid)
    ab = convolve(a, b).values
    ba = convolve(b, a).values
    scale = max(1.0, np.max(np.abs(ab)))
    assert np.max(np.abs(ab - ba)) < 1e-12 * scale


@given(seed=st.integers(0, 2**31), n=st.integers(4, 60))
@RELAXED
def test_zero_rate_solution_is_forcing_bitwise(seed, n):
    rng = np.random.default_rng(seed)
    grid = TimeGrid(dt=0.05, n_steps=n)
    f = rough_curve(rng, grid)
    k = rough_curve(rng, grid, normalized=True)
    out = solve(VolterraProblem(f=f, kernel=k, gamma_rate=0.0))
    assert np.array_equal(out.values, f.values)


@given(
    seed=st.integers(0, 2**31),
    n=st.integers(4, 50),
    gamma=st.floats(0.0, 2.0),
    scale_re=st.floats(-3.0, 3.0),
    scale_im=st.floats(-3.0, 3.0),
)
@RELAXED
def test_solution_linear_in_forcing(seed, n, gamma, scale_re, scale_im):
    rng = np.random.default_rng(seed)
    grid = TimeGrid(dt=0.05, n_steps=n)
    f = rough_curve(rng, grid)
    k = rough_curve(rng, grid, normalized=True)
    alpha = complex(scale_re, scale_im)
    base = solve(VolterraProblem(f=f, kernel=k, gamma_rate=gamma)).values
    scaled_f = FidelityCurve(grid, alpha * f.values)
    scaled = solve(VolterraProblem(f=scaled_f, kernel=k, gamma_rate=gamma)).values
    tol = 1e-10 * max(1.0, np.max(np.abs(base)))
    assert np.max(np.abs(scaled - alpha * base)) < max(tol, abs(alpha) * tol)


@given(seed=st.integers(0, 2**31), n=st.integers(4, 50), gamma=st.floats(0.0, 2.0))
@RELAXED
def test_first_order_starts_at_forcing_value(seed, n, gamma):
    rng = np.random.default_rng(seed)
    grid = TimeGrid(dt=0.05, n_steps=n)
    f = rough_curve(rng, grid)
    k = rough_curve(rng, grid, normalized=True)
    out = first_order(f, k, gamma)
    assert out.values[0] == f.values[0]


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 10),
    beta=st.sampled_from([1, 2]),
    lam=st.floats(-0.5, 0.5),
)
@RELAXED
def test_echo_amplitudes_bounded(seed, dim, beta, lam):
    real = build_realization(
        EnsembleConfig(dim=dim, beta=beta, master_seed=seed, realization_index=0)
    )
    grid = TimeGrid(dt=0.25, n_steps=40)
    f = fidelity_curve(real, EchoSetup(lam=lam, grid=grid))
    k = kernel_curve(real, lam, grid)
    assert np.max(np.abs(f.values)) <= 1.0 + 1e-10
    assert np.max(np.abs(k.values)) <= 1.0 + 1e-10
    assert abs(f.values[0] - 1.0) < 1e-12
    assert abs(k.values[0] - 1.0) < 1e-12


@given(dt=st.floats(allow_nan=True, allow_infinity=True))
@RELAXED
def test_time_grid_rejects_bad_spacing(dt):
    if np.isfinite(dt) and dt > 0.0 and np.isfinite(3 * dt):
        grid = TimeGrid(dt=dt, n_steps=3)
        assert len(grid) == 4
        assert grid.times[0] == 0.0
    else:
        with pytest.raises(ValueError):
            TimeGrid(dt=dt, n_steps=3)


def test_time_grid_rejects_overflowing_end():
    # every dt here is finite, but the grid end n_steps * dt is not
    with pytest.raises(ValueError, match="not finite"):
        TimeGrid(dt=1e308, n_steps=3)
    with pytest.raises(ValueError, match="not finite"):
        TimeGrid(dt=1e300, n_steps=10**9)


@given(n=st.integers(-5, 5))
@RELAXED
def test_time_grid_rejects_bad_length(n):
    if n >= 1:
        assert TimeGrid(dt=0.1, n_steps=n).times.shape == (n + 1,)
    else:
        with pytest.raises(ValueError):
            TimeGrid(dt=0.1, n_steps=n)


@given(
    rows=st.lists(
        # any float64: subnormals, signed zeros, infinities and nan included
        st.tuples(st.floats(), st.floats(), st.floats(min_value=0.0, allow_infinity=False)),
        min_size=2, max_size=40,
    ),
    dt=st.floats(1e-300, 1e300),
)
@settings(max_examples=200, deadline=None)
def test_csv_writer_matches_percent_format(rows, dt, tmp_path_factory):
    re, im, err = (np.array(col) for col in zip(*rows))
    values = re.astype(complex)
    values.imag = im  # re + 1j * im would turn an infinite im into a nan re
    curve = FidelityCurve(TimeGrid(dt=dt, n_steps=len(rows) - 1), values, stderr_re=err)
    path = tmp_path_factory.mktemp("csv") / "c.csv"
    write_curve(path, curve, "csv")
    assert path.read_bytes() == reference_csv(curve)
