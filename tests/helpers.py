"""Small builders shared across test modules."""

import numpy as np


def random_hermitian(dim, rng):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2.0


def random_density(dim, rng):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def wigner_surmise_cdf(s):
    # nearest-neighbor spacing law of the orthogonal ensemble
    return 1.0 - np.exp(-np.pi * s * s / 4.0)


def ks_distance(samples, cdf):
    s = np.sort(np.asarray(samples))
    n = s.size
    u = cdf(s)
    grid = np.arange(1, n + 1) / n
    return max(np.max(np.abs(u - grid)), np.max(np.abs(u - (grid - 1.0 / n))))


def reference_csv(curve):
    """The CSV bytes of a curve, one ``'%.16e' %`` per number."""
    zeros = np.zeros(len(curve))
    columns = [
        curve.times, curve.values.real, curve.values.imag,
        zeros if curve.stderr_re is None else curve.stderr_re,
        zeros if curve.stderr_im is None else curve.stderr_im,
    ]
    lines = ["t,re_f,im_f,re_err,im_err\r\n"]
    for row in zip(*(col.tolist() for col in columns)):
        lines.append(",".join("%.16e" % v for v in row) + "\r\n")
    return "".join(lines).encode()
