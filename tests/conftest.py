import numpy as np
import pytest

from cyclica import VectorSeries, scalar_series


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_series(rng, dim=2, n_terms=8, lacunary=True):
    """A random series with nonzero coefficients on a lacunary-ish spectrum."""
    if lacunary:
        exps = np.cumsum(rng.integers(1, 4, size=n_terms)) ** 2
        exps = sorted(set(int(e) for e in exps))
    else:
        exps = sorted(rng.choice(4 * n_terms, size=n_terms, replace=False))
    coeffs = rng.standard_normal((len(exps), dim)) + 1j * rng.standard_normal(
        (len(exps), dim)
    )
    return VectorSeries(dim, exps, coeffs)


def dyadic_scalar(K=12, ratio=0.5):
    """f = sum_{k<=K} ratio^k z^{2^k}, the workhorse lacunary example."""
    exps = [2**k for k in range(1, K + 1)]
    coeffs = [ratio**k for k in range(1, K + 1)]
    return scalar_series(exps, coeffs)


def edge_coeffs(rng, shape):
    """Complex normal entries, about a fifth of them exactly 0 and a tenth of
    the real and of the imaginary parts -0.0, for bit-for-bit oracle tests."""
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c[rng.uniform(size=shape) < 0.2] = 0
    c.real[rng.uniform(size=shape) < 0.1] = -0.0
    c.imag[rng.uniform(size=shape) < 0.1] = -0.0
    return c


def assert_same_bits(a, b):
    """Two VectorSeries agree in dim, truncation and every stored bit."""
    assert (a.dim, a.truncation_degree) == (b.dim, b.truncation_degree)
    assert a.exponents.tobytes() == b.exponents.tobytes()
    assert a.coeffs.shape == b.coeffs.shape
    assert a.coeffs.tobytes() == b.coeffs.tobytes()
