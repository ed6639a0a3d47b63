import math

import numpy as np
import pytest

from latgen import _kernels, _slowpath
from latgen.cbc_dbd import TIE_RTOL, construct_cbc_dbd
from latgen.error import H_quantity
from latgen.kernel import kernel_table
from latgen.numtheory import GeneratingVector
from latgen.oracles import h_naive, log_inv_sin2
from latgen.weights import GeneralWeights, ProductWeights

W3 = ProductWeights((1.0, 0.25, 1.0 / 9.0))
W_DECAY = ProductWeights(tuple(1.0 / j**2 for j in range(1, 9)))


def test_construct_cbc_dbd_basic_properties():
    v = construct_cbc_dbd(5, 4, W_DECAY)
    assert v.N == 32
    assert v.z[0] == 1
    assert all(z % 2 == 1 for z in v.z)
    assert all(0 < z < 32 for z in v.z)
    # construction is progressive: prefix of a larger run equals the smaller run
    v2 = construct_cbc_dbd(5, 2, W_DECAY)
    assert v2.z == v.z[:2]


def _fold_oracle(n, gammas):
    """CBC-DBD with the fold and tie rule of the library, but with every score
    sum correctly rounded (math.fsum), so no summation order decides a bit."""
    ktab = kernel_table(1 << n)
    p = 1.0 + gammas[0] * ktab[1:]
    odd = np.arange(1, 1 << n, 2, dtype=np.int64)
    z = [1]
    for gamma in gammas[1:]:
        P = {n + 1: np.zeros(1 << n)}
        for v in range(n, 1, -1):
            half = 1 << (v - 1)
            P[v] = p[(odd[:half] << (n - v)) - 1] + 0.5 * (P[v + 1][:half] + P[v + 1][half:])
        zr = 1
        for v in range(2, n + 1):
            half, shift = 1 << (v - 1), n - v
            k = odd[:half]
            a = (k * zr) & (2 * half - 1)
            k0, k1 = ktab[a << shift], ktab[(a ^ half) << shift]
            s0 = math.fsum(P[v]) + gamma * math.fsum(P[v] * k0)
            if gamma * math.fsum(P[v] * (k1 - k0)) < -TIE_RTOL * abs(s0):
                zr += half
            p[(k << shift) - 1] *= 1.0 + gamma * ktab[((k * zr) & (2 * half - 1)) << shift]
        z.append(zr)
    return z


@pytest.mark.parametrize("n, c", [(10, 0.518), (12, 0.632), (12, 0.642), (12, 0.692),
                                  (12, 0.694), (12, 0.71), (12, 0.722)])
def test_construct_cbc_dbd_matches_fsum_oracle(n, c):
    """Geometric weights whose level-v score differences sit right at
    TIE_RTOL: comparing two rounded sums decided these cells by rounding."""
    gammas = [c**j for j in range(1, 101)]
    assert list(construct_cbc_dbd(n, 100, ProductWeights(tuple(gammas))).z) == _fold_oracle(
        n, gammas
    )


def test_construct_cbc_dbd_rejects_bad_args():
    with pytest.raises(ValueError):
        construct_cbc_dbd(0, 2, W3)
    with pytest.raises(ValueError):
        construct_cbc_dbd(4, 5, W3)  # weights too short


def test_h_naive_general_weights_reduces_to_product():
    n, r, vlev = 4, 3, 2
    w = W3
    g = GeneralWeights.from_product(w)
    for x in (1, 3):
        assert h_naive(r, n, vlev, x, (1, 3), w) == pytest.approx(
            h_naive(r, n, vlev, x, (1, 3), g), rel=1e-12
        )


def test_h_naive_validates_arguments():
    with pytest.raises(ValueError):
        h_naive(2, 4, 1, 1, (1,), W3)  # v must be >= 2
    with pytest.raises(ValueError):
        h_naive(2, 4, 2, 2, (1,), W3)  # even candidate
    with pytest.raises(ValueError):
        h_naive(2, 4, 2, 5, (1,), W3)  # out of range for level 2
    with pytest.raises(ValueError):
        h_naive(3, 4, 2, 1, (1,), W3)  # needs r - 1 previous components
    with pytest.raises(ValueError):
        h_naive(3, 4, 2, 1, (1, 2), W3)  # previous components must be odd


def test_H_quantity_closed_form_s1():
    # s = 1, z = (1): H = gamma * sum_k ln(1/sin^2(pi k/N)) = gamma (N-1-n) ln 4
    for n in (3, 5, 8):
        N = 1 << n
        gamma = 0.7
        v = GeneratingVector(N, (1,))
        w = ProductWeights((gamma,))
        expect = gamma * (N - 1 - n) * math.log(4.0)
        assert H_quantity(v, w) == pytest.approx(expect, rel=1e-10)


def test_H_quantity_direct_sum():
    N = 16
    v = GeneratingVector(N, (1, 7))
    w = ProductWeights((0.5, 0.25))
    total = 0.0
    for k in range(1, N):
        prod = 1.0
        for j, zj in enumerate(v.z, start=1):
            prod *= 1.0 + w.gamma(j) * log_inv_sin2(((k * zj) % N) / N)
        total += prod - 1.0
    assert H_quantity(v, w) == pytest.approx(total, rel=1e-10)


def test_H_quantity_rejects_non_pow2():
    with pytest.raises(ValueError):
        H_quantity(GeneratingVector(7, (1,)), ProductWeights((1.0,)))


@pytest.mark.filterwarnings("error")
def test_scores_leaving_double_range_are_reported():
    """Under gamma_j = 1000^j the level scores of component 14 are not finite:
    both backends stop there, and the construction names the component
    instead of returning a vector of ones."""
    n = 10
    gammas = [1e3**j for j in range(1, 101)]
    ktab = kernel_table(1 << n)
    built = _kernels.dbd_construct(ktab, n, gammas[0], gammas[1:], TIE_RTOL)
    assert len(built) == 12
    assert _slowpath.dbd_construct(ktab, n, gammas[0], gammas[1:], TIE_RTOL) == built
    w = ProductWeights(tuple(gammas))
    with pytest.raises(ValueError, match="scores for z_14 left double range"):
        construct_cbc_dbd(n, 100, w)
    assert construct_cbc_dbd(n, 13, w).z[1:] == tuple(built)
