"""latgen's numpy.fft routines against naive O(n^2) sums: kernel.cosine_dft,
and the cyclic convolutions of the fast CBC's kernel spectra (cbc._spectrum)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latgen.cbc import _spectrum
from latgen.kernel import cosine_dft


def _dft_naive(x, sign):
    x = np.asarray(x, dtype=complex)
    n = x.shape[0]
    j = np.arange(n)
    mat = np.exp(sign * 2j * np.pi * np.outer(j, j) / n)
    return mat @ x


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 12, 16, 31, 61, 64, 100, 127])
def test_fft_matches_naive_dft(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    tab = cosine_dft(x)
    assert tab == pytest.approx(_dft_naive(x, -1).real, abs=1e-9)
    assert tab == pytest.approx(_dft_naive(x, +1).real, abs=1e-9)
    assert np.array_equal(tab[1:], tab[:0:-1])  # exact cosine symmetry


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=50, deadline=None)
def test_fft_round_trip(n, seed):
    # on a symmetric sequence the cosine transform is its own inverse up to 1/n
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x[1:] += x[1:][::-1]
    back = cosine_dft(cosine_dft(x)) / n
    assert back == pytest.approx(x, abs=1e-9)


def test_fft_linearity_and_impulse():
    n = 48
    x = np.zeros(n)
    x[0] = 1.0
    assert cosine_dft(x) == pytest.approx(np.ones(n), abs=1e-12)
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal(n), rng.standard_normal(n)
    assert cosine_dft(a + 2.0 * b) == pytest.approx(
        cosine_dft(a) + 2.0 * cosine_dft(b), abs=1e-10
    )


def test_fft_rejects_bad_input():
    with pytest.raises(ValueError):
        cosine_dft(np.ones((2, 2)))
    with pytest.raises(ValueError):
        cosine_dft([])


def _conv_reference(a, b):
    n = len(a)
    return np.array(
        [sum(a[j] * b[(k - j) % n] for j in range(n)) for k in range(n)]
    )


def _convolve(a, b):
    """The cyclic convolution a * b as the fast CBC computes it from the
    spectrum of b."""
    size, offset, K, _ = _spectrum(b)
    c = np.fft.irfft(np.fft.rfft(a, size) * K, size)
    return c[offset : offset + len(b)]


@pytest.mark.parametrize("n", [1, 2, 5, 16, 63, 64, 65, 96, 127, 128])
def test_cyclic_convolution_matches_reference(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal(n)
    b = rng.standard_normal(n)
    assert _convolve(a, b) == pytest.approx(_conv_reference(a, b), abs=1e-9)


def test_cyclic_convolution_both_routes_agree():
    # a power-of-two length takes the direct route, any other the padded one
    rng = np.random.default_rng(7)
    for n, direct in ((1, True), (64, True), (65, False), (3, False)):
        a = rng.standard_normal(n)
        b = rng.standard_normal(n)
        size, offset, _, norm = _spectrum(b)
        if direct:
            assert (size, offset) == (n, 0)
            assert norm == pytest.approx(np.linalg.norm(b))
        else:
            assert size >= 2 * n and size & (size - 1) == 0
            assert offset == n
            assert norm == pytest.approx(np.sqrt(2.0) * np.linalg.norm(b))
        assert _convolve(a, b) == pytest.approx(_conv_reference(a, b), abs=1e-9)


def test_cyclic_convolution_commutes_and_shifts():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(40)
    b = rng.standard_normal(40)
    assert _convolve(a, b) == pytest.approx(_convolve(b, a))
    e1 = np.zeros(40)
    e1[1] = 1.0
    assert _convolve(a, e1) == pytest.approx(np.roll(a, 1))
