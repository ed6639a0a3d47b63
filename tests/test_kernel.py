import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latgen.kernel import (
    LN4,
    bernoulli_poly,
    cosine_dft,
    fourier_decay_table,
    kernel_table,
    vartheta_table,
    zeta,
)
from latgen.oracles import fourier_decay_sum, log_inv_sin2, omega, vartheta_truncated


def test_omega_values():
    assert omega(0.5) == pytest.approx(-math.log(4.0))
    assert omega(1.0 / 6.0) == pytest.approx(0.0, abs=1e-15)  # 2 sin(pi/6) = 1


def test_omega_log_inv_sin2_relation():
    for x in (0.01, 0.25, 0.5, 0.9):
        assert log_inv_sin2(x) == pytest.approx(omega(x) + LN4, rel=1e-14)


@pytest.mark.parametrize("x", [0.0, 1.0, -0.1, 1.5])
def test_kernel_domain(x):
    with pytest.raises(ValueError):
        omega(x)
    with pytest.raises(ValueError):
        log_inv_sin2(x)


@pytest.mark.parametrize("N", [2, 3, 8, 61, 128, 1021])
def test_kernel_table_exactly_symmetric(N):
    tab = kernel_table(N)
    assert tab.shape == (N,)
    # symmetry must hold bit-for-bit, not just approximately
    assert np.array_equal(tab[1:], tab[1:][::-1])
    assert tab[0] == 0.0
    for k in (1, N // 2, N - 1):
        assert tab[k] == pytest.approx(log_inv_sin2(k / N), rel=1e-12)


def test_vartheta_truncated_matches_series():
    x, N = 0.3, 50
    direct = sum(2.0 * math.cos(2.0 * math.pi * m * x) / m for m in range(1, N))
    assert vartheta_truncated(x, N) == pytest.approx(direct, rel=1e-12)


def test_bernoulli_polynomials():
    assert bernoulli_poly(2, 0.0) == pytest.approx(1.0 / 6.0)
    assert bernoulli_poly(2, 0.5) == pytest.approx(-1.0 / 12.0)
    assert bernoulli_poly(4, 0.0) == pytest.approx(-1.0 / 30.0)
    assert bernoulli_poly(6, 0.0) == pytest.approx(1.0 / 42.0)
    arr = bernoulli_poly(2, np.array([0.0, 0.5]))
    assert arr == pytest.approx([1.0 / 6.0, -1.0 / 12.0])
    with pytest.raises(ValueError):
        bernoulli_poly(3, 0.5)


def test_zeta_known_values():
    assert zeta(2.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-12)
    assert zeta(4.0) == pytest.approx(math.pi**4 / 90.0, abs=1e-12)
    assert zeta(3.0) == pytest.approx(1.2020569031595943, abs=1e-12)
    with pytest.raises(ValueError):
        zeta(1.0)


def test_fourier_decay_sum_even_alpha_closed_form():
    # alpha = 2: sum_{m != 0} e^{2 pi i m x}/m^2 = 2 pi^2 B_2(x)
    for x in (0.0, 0.125, 0.5, 0.75):
        expect = 2.0 * math.pi**2 * bernoulli_poly(2, x)
        assert fourier_decay_sum(2.0, x) == pytest.approx(expect, rel=1e-12)
    assert fourier_decay_sum(2.0, 0.0) == pytest.approx(2.0 * zeta(2.0), rel=1e-12)
    assert fourier_decay_sum(4.0, 0.0) == pytest.approx(2.0 * zeta(4.0), rel=1e-12)


def test_fourier_decay_sum_truncated_vs_closed_form():
    # run an even alpha through the truncated branch by perturbing it off 2.0
    for x in (0.1, 0.37):
        series = fourier_decay_sum(2.0 + 1e-9, x, tol=1e-6)
        closed = fourier_decay_sum(2.0, x)
        assert series == pytest.approx(closed, abs=1e-5)


@pytest.mark.parametrize("alpha", [2.5, 3.0])
@pytest.mark.parametrize("N", [64, 1021, 4096])
def test_fourier_decay_table_is_the_hurwitz_fold(alpha, N):
    """The scipy import inside fourier_decay_table computes the same fold as
    before, bit for bit: S[res] = sum_{m = res mod N} m^-alpha, then one DFT."""
    from scipy.special import zeta as hurwitz_zeta

    S = np.empty(N)
    S[0] = zeta(alpha)
    S[1:] = hurwitz_zeta(alpha, np.arange(1, N, dtype=float) / N)
    S *= float(N) ** (-alpha)
    expect = 2.0 * cosine_dft(S)
    expect[0] = 2.0 * zeta(alpha)
    tab = fourier_decay_table(alpha, N)
    assert tab.dtype == expect.dtype and (tab == expect).all()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_non_finite_alpha_is_refused(alpha):
    for call in (lambda: zeta(alpha), lambda: fourier_decay_table(alpha, 64),
                 lambda: fourier_decay_sum(alpha, 0.25)):
        with pytest.raises(ValueError, match="requires finite alpha > 1"):
            call()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha, N", [(1e308, 64), (300.0, 64), (70.0, 1 << 16)])
def test_decay_table_beyond_double_range_names_alpha_and_N(alpha, N):
    """The Hurwitz fold scales by N^-alpha; once N^alpha overflows the table
    cannot be formed, and the error says so instead of returning NaN."""
    with pytest.raises(ValueError, match=re.escape("alpha = %r at N = %d" % (alpha, N))):
        fourier_decay_table(alpha, N)


@pytest.mark.parametrize("alpha", [2.0, 2.5])
@pytest.mark.parametrize("N", [1, 0, -3])
def test_tables_refuse_moduli_below_2(N, alpha):
    """No residue table exists below N = 2: the decay table refuses such N
    as the log-sine and truncated tables do, at the closed form's alpha and
    at the Hurwitz fold's."""
    for call in (lambda: fourier_decay_table(alpha, N), lambda: kernel_table(N),
                 lambda: vartheta_table(N, alpha)):
        with pytest.raises(ValueError, match="need N >= 2"):
            call()


@pytest.mark.filterwarnings("error")
def test_zeta_of_huge_alpha_is_one():
    # alpha (alpha + 1) (alpha + 2) overflows; its term is below 1000^-alpha = 0
    assert zeta(1e300) == 1.0
    assert zeta(1e308) == 1.0
    assert zeta(200.0) == 1.0


@given(st.floats(min_value=0.001, max_value=0.999))
def test_fourier_decay_sum_symmetry(x):
    assert fourier_decay_sum(2.0, x) == pytest.approx(
        fourier_decay_sum(2.0, 1.0 - x), rel=1e-10, abs=1e-10
    )


@pytest.mark.parametrize("alpha", [2.0, 4.0, 2.5, 3.0])
def test_fourier_decay_table_matches_pointwise(alpha):
    N = 32
    tab = fourier_decay_table(alpha, N)
    assert tab[0] == pytest.approx(2.0 * zeta(alpha), rel=1e-11)
    # the oracle is the independent route: B_alpha(a/N) in exact rational
    # arithmetic at even alpha, else the truncated series, at a tolerance it
    # can reach within the term cap
    tol = 1e-11 if float(alpha).is_integer() and int(alpha) % 2 == 0 else 1e-7
    for a in range(1, N):
        assert tab[a] == pytest.approx(
            fourier_decay_sum(alpha, a / N, tol=tol), abs=10 * tol
        )
    assert np.array_equal(tab[1:], tab[1:][::-1])


def test_truncation_remainder_bound():
    # |ln(1/sin^2(pi x)) - ln 4 - vartheta_N(x)| <= 1/(N * dist(x, Z))
    for N in (16, 64, 256):
        for x in np.linspace(1.0 / 512.0, 0.5, 40):
            dist = min(x, 1.0 - x)
            err = abs(log_inv_sin2(x) - LN4 - vartheta_truncated(x, N))
            assert err <= 1.0 / (N * dist) + 1e-12


def _dft_naive(x, sign):
    x = np.asarray(x, dtype=complex)
    n = x.shape[0]
    j = np.arange(n)
    mat = np.exp(sign * 2j * np.pi * np.outer(j, j) / n)
    return mat @ x


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 12, 16, 31, 61, 64, 100, 127])
def test_cosine_dft_matches_naive_dft(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    tab = cosine_dft(x)
    assert tab == pytest.approx(_dft_naive(x, -1).real, abs=1e-9)
    assert tab == pytest.approx(_dft_naive(x, +1).real, abs=1e-9)
    assert np.array_equal(tab[1:], tab[:0:-1])  # exact cosine symmetry


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=50, deadline=None)
def test_cosine_dft_round_trip(n, seed):
    # on a symmetric sequence the cosine transform is its own inverse up to 1/n
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x[1:] += x[1:][::-1]
    back = cosine_dft(cosine_dft(x)) / n
    assert back == pytest.approx(x, abs=1e-9)


def test_cosine_dft_linearity_and_impulse():
    n = 48
    x = np.zeros(n)
    x[0] = 1.0
    assert cosine_dft(x) == pytest.approx(np.ones(n), abs=1e-12)
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal(n), rng.standard_normal(n)
    assert cosine_dft(a + 2.0 * b) == pytest.approx(
        cosine_dft(a) + 2.0 * cosine_dft(b), abs=1e-10
    )


def test_cosine_dft_rejects_bad_input():
    with pytest.raises(ValueError):
        cosine_dft(np.ones((2, 2)))
    with pytest.raises(ValueError):
        cosine_dft([])


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="RLIMIT_AS caps the address space only on Linux")
def test_library_refuses_huge_moduli_before_allocating():
    """Every table refuses N >= 2^31 before it allocates, so the quality sums
    and the constructions do too: under a 2 GiB address-space limit each
    call raises the modulus ValueError, not a MemoryError."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))

    script = """
from latgen.cbc import construct_korobov_cbc, construct_standard_cbc
from latgen.cbc_dbd import construct_cbc_dbd
from latgen.error import H_quantity, T_quantity, V_quality, wce_product
from latgen.numtheory import GeneratingVector
from latgen.weights import ProductWeights

w = ProductWeights((1.0, 0.25))
v = GeneratingVector(2**33, (1, 3))
calls = [lambda: wce_product(v, 2.0, w), lambda: T_quantity(v, w),
         lambda: H_quantity(v, w), lambda: V_quality(v, w),
         lambda: construct_cbc_dbd(33, 2, w), lambda: construct_standard_cbc(2**33, 2, 2.0, w),
         lambda: construct_korobov_cbc(2147483659, 2, w)]
for call in calls:
    try:
        call()
    except ValueError as exc:
        print(exc)
    else:
        print("no error")
"""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, preexec_fn=cap, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 7 and all("need N < 2^31" in ln for ln in lines), lines
