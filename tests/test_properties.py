"""Structural invariants checked over randomized inputs."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echo_gfa.cli import ConfigError, read_curve, write_curve
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


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@given(
    rows=st.lists(
        # any finite float64: subnormals, signed zeros and both ends of the range included
        st.tuples(
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(min_value=0.0, allow_infinity=False),
        ),
        min_size=2, max_size=40,
    ),
    dt=st.floats(1e-300, 1e300),
    # the writer's \r\n, and the \n that np.savetxt writes
    newline=st.sampled_from([b"\r\n", b"\n"]),
)
@settings(max_examples=200, deadline=None)
def test_csv_reader_is_exact(rows, dt, newline, tmp_path_factory):
    re, im, err = (np.array(col) for col in zip(*rows))
    values = re.astype(complex)
    values.imag = im
    curve = FidelityCurve(TimeGrid(dt=dt, n_steps=len(rows) - 1), values, stderr_re=err)
    path = tmp_path_factory.mktemp("csv") / "c.csv"
    write_curve(path, curve, "csv")
    path.write_bytes(path.read_bytes().replace(b"\r\n", newline))
    back = read_curve(path)
    assert np.array_equal(_bits(back.times), _bits(curve.times))
    assert np.array_equal(_bits(back.values.real), _bits(re))
    assert np.array_equal(_bits(back.values.imag), _bits(im))
    if np.any(err):
        assert np.array_equal(_bits(back.stderr_re), _bits(err))
    else:  # all-zero errors read back as None
        assert back.stderr_re is None
    assert back.stderr_im is None


def _canonical(x: Fraction, shift: int = 0) -> str:
    """x > 0 to 17 significant digits in '%.16e' form, the last digit moved by shift."""
    p = 0
    while x >= 10 ** (p + 1):
        p += 1
    while x < 10**p:
        p -= 1
    n = round(x / Fraction(10) ** (p - 16)) + shift
    if n == 10**17:
        n, p = 10**16, p + 1
    digits = str(n)
    return f"{digits[0]}.{digits[1:]}e{p:+03d}"


def _read_numbers(path, strings):
    """read_curve on one CSV file holding strings as re_f and im_f, two to a row.

    A string that overflows makes read_curve raise ConfigError.
    """
    zero = "0.0000000000000000e+00"
    # an even count, and at least the two rows of the shortest grid
    fields = list(strings) + [zero] * max(4 - len(strings), len(strings) % 2)
    pairs = zip(fields[::2], fields[1::2])
    lines = [f"{float(i):.16e},{re},{im},{zero},{zero}" for i, (re, im) in enumerate(pairs)]
    path.write_bytes(("t,re_f,im_f,re_err,im_err\r\n" + "".join(s + "\r\n" for s in lines)).encode())
    values = read_curve(path).values
    return np.column_stack([values.real, values.imag]).ravel()[: len(strings)]


@pytest.mark.parametrize(
    "text",
    [
        # exact ties between two doubles, rounded to even: 2**53, 2**53 + 4, 2**54
        "9.0071992547409930e+15", "9.0071992547409950e+15", "1.8014398509481986e+16",
        # exponents beyond the scale table, subnormals and the largest double
        "4.9406564584124654e-324", "2.2250738585072009e-308", "1.0000000000000000e-250",
        "1.7976931348623157e+308", "1.0000000000000000e+300", "9.9999999999999999e+299",
        "1.0000000000000000e+999", "1.0000000000000000e-999", "0.0000000000000000e-999",
    ],
)
def test_csv_reader_hard_strings_match_float(text, tmp_path):
    for s in (text, "-" + text):
        if np.isinf(float(s)):
            with pytest.raises(ConfigError, match="curve values must be finite"):
                _read_numbers(tmp_path / "c.csv", [s])
        else:
            assert _bits(_read_numbers(tmp_path / "c.csv", [s])) == _bits(float(s))


# the decimal nearest the midpoint of x and the next double up, and its neighbours
NEAR_TIES = st.builds(
    lambda x, shift: _canonical((Fraction(x) + Fraction(np.nextafter(x, np.inf))) / 2, shift),
    st.floats(min_value=1e-300, max_value=1e300), st.sampled_from([-1, 0, 1]),
)
# odd integers between 2**53 and 10**16: exact ties between two even doubles,
# scaled by an inexact 10**-1
EXACT_TIES = st.integers(2**52, 5 * 10**15 - 1).map(lambda j: _canonical(Fraction(2 * j + 1)))


@given(text=st.one_of(NEAR_TIES, EXACT_TIES))
@settings(max_examples=300, deadline=None)
def test_csv_reader_near_ties_match_float(text, tmp_path_factory):
    got = _read_numbers(tmp_path_factory.mktemp("csv") / "c.csv", [text, "-" + text])
    assert np.array_equal(_bits(got), _bits([float(text), -float(text)]))


GOOD_CSV = (
    b"t,re_f,im_f,re_err,im_err\r\n"
    b"0.0000000000000000e+00,1.0000000000000000e+00,-2.5000000000000000e-01,"
    b"0.0000000000000000e+00,1.0000000000000001e-100\r\n"
    b"5.0000000000000000e-01,9.0071992547409930e+15,3.3333333333333331e-01,"
    b"0.0000000000000000e+00,2.0000000000000000e+00\r\n"
)


def _float_columns(data: bytes):
    """re_f, im_f and im_err as float() reads them from the rows of CSV curve bytes; None if no curve.

    Blank lines are skipped; a field float() rejects, a row without five
    fields, fewer than two rows or a value that is not finite is no curve.
    """
    try:
        table = np.array([[float(f) for f in line.split(b",")] for line in data.splitlines()[1:] if line])
    except ValueError:  # a field, or rows of different lengths
        return None
    if table.ndim != 2 or table.shape[0] < 2 or table.shape[1] != 5 or not np.all(np.isfinite(table)):
        return None
    return [_bits(table[:, j]).tolist() for j in (1, 2, 4)]


@pytest.mark.parametrize(
    "writer_form, damage",
    [
        # the writer's own form: the values of GOOD_CSV
        (True, lambda b: b),
        (True, lambda b: b.replace(b"\r\n", b"\n")),
        # other forms, read to the values float() reads
        (False, lambda b: b.replace(b"e+00,1.0", b"E+00,1.0")),
        (False, lambda b: b.replace(b"3.3333333333333331e-01", b"3.333333333333333e-01")),
        (False, lambda b: b.replace(b",9.0", b", 9.0")),
        (False, lambda b: b.replace(b",1.0000", b",+1.0000")),
        (False, lambda b: b[:-2]),
        (False, lambda b: b.replace(b"\r\n", b"\n", 1)),
        (False, lambda b: b + b"\r\n"),
        # malformed: a ConfigError
        (False, lambda b: b.replace(b",9.0071992547409930e+15", b",x")),
        (False, lambda b: b.replace(b",9.0071992547409930e+15", b"")),
        (False, lambda b: b.replace(b",9.0071992547409930e+15", b",nan")),
        (False, lambda b: b.split(b"\r\n")[0] + b"\r\n"),
        (True, lambda b: b.replace(b"5.0000000000000000e-01,", b"7.0000000000000000e-01,")),
    ],
)
def test_csv_reader_agrees_with_loadtxt(writer_form, damage, tmp_path):
    data = damage(GOOD_CSV)
    path = tmp_path / "c.csv"
    path.write_bytes(data)
    expected = _float_columns(data)
    if writer_form:
        assert expected == _float_columns(GOOD_CSV)
    if expected is None:
        with pytest.raises(ConfigError, match="c.csv"):
            read_curve(path)
    else:
        curve = read_curve(path)
        assert [_bits(a).tolist() for a in (curve.values.real, curve.values.imag, curve.stderr_im)] == expected
