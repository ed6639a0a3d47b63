import math

import numpy as np
import pytest

from latgen import error
from latgen.cbc import construct_korobov_cbc, construct_standard_cbc
from latgen.cbc_dbd import construct_cbc_dbd
from latgen.error import (
    T_alpha_quantity,
    T_quantity,
    bound_thm_cbc,
    bound_thm_cbcdbd,
    bound_thm_existence,
    lattice_kernel_sum,
    wce_product,
)
from latgen.kernel import fourier_decay_table, kernel_table, omega_table, vartheta_table
from latgen.numtheory import GeneratingVector, gcd, unit_layout
from latgen.oracles import ErrorInterval, wce_bruteforce
from latgen.weights import GeneralWeights, ProductWeights, power_weights, subset_product_sum

W = ProductWeights(tuple(1.0 / j**2 for j in range(1, 11)))


def test_error_interval():
    iv = ErrorInterval(1.0, 0.25)
    assert iv.lower == 0.75
    assert iv.upper == 1.25
    with pytest.raises(ValueError):
        ErrorInterval(1.0, -0.1)


def test_wce_product_closed_form_s1():
    # s = 1, z = (1), alpha = 2, gamma = 1: e = pi^2 / (3 N^2)
    w = ProductWeights((1.0,))
    for N in (2, 4, 8, 16, 101):
        v = GeneratingVector(N, (1,))
        assert wce_product(v, 2.0, w) == pytest.approx(
            math.pi**2 / (3.0 * N**2), rel=1e-10
        )


def test_wce_product_routes_agree():
    v = GeneratingVector(32, (1, 7, 9))
    w = ProductWeights((0.9, 0.5, 0.2))
    g = GeneralWeights.from_product(w)
    assert wce_product(v, 2.0, g) == pytest.approx(wce_product(v, 2.0, w), rel=1e-10)


@pytest.mark.parametrize("N,s", [(8, 1), (8, 2), (16, 2), (13, 2)])
def test_wce_product_within_bruteforce_interval(N, s):
    z = (1,) if s == 1 else (1, 5)
    v = GeneratingVector(N, z)
    w = ProductWeights(W.gammas[:s])
    for alpha in (2.0, 3.0):
        closed = wce_product(v, alpha, w)
        iv = wce_bruteforce(v, alpha, w, M=64)
        assert iv.lower <= closed <= iv.upper
        # the box already captures most of the mass at M = 64
        assert iv.value == pytest.approx(closed, rel=0.2)


def test_wce_bruteforce_guards():
    v = GeneratingVector(8, (1, 3))
    with pytest.raises(ValueError):
        wce_bruteforce(v, 2.0, W, M=1)
    with pytest.raises(ValueError):
        wce_bruteforce(GeneratingVector(8, tuple([1] * 10)), 2.0, W, M=100)


@pytest.mark.parametrize("N", [8, 13, 64])
@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_vartheta_table_matches_direct(N, alpha):
    tab = vartheta_table(N, alpha)
    for a in range(N):
        direct = math.fsum(
            math.cos(2.0 * math.pi * m * a / N) / abs(m) ** alpha
            for m in range(-(N - 1), N)
            if m != 0
        )
        assert tab[a] == pytest.approx(direct, abs=1e-9)


def test_T_is_zero_in_one_dimension():
    # the k-sum of the truncated kernel over a full period vanishes exactly
    for N in (4, 8, 13):
        v = GeneratingVector(N, (1,))
        assert abs(T_quantity(v, ProductWeights((1.0,)))) < 1e-9


def test_T_matches_direct_double_sum():
    N = 8
    v = GeneratingVector(N, (1, 3))
    w = ProductWeights((0.5, 0.25))
    tab = vartheta_table(N, 1.0)
    total = 0.0
    for k in range(N):
        prod = 1.0
        for j, zj in enumerate(v.z, start=1):
            prod *= 1.0 + w.gamma(j) * tab[(k * zj) % N]
        total += prod - 1.0
    assert T_quantity(v, w) == pytest.approx(total / N, rel=1e-9, abs=1e-12)
    assert T_alpha_quantity(v, 1.0, w) == pytest.approx(
        T_quantity(v, w), rel=1e-9, abs=1e-12
    )


def test_constructed_vectors_satisfy_theorem_bounds():
    s = 6
    w = ProductWeights(W.gammas[:s])
    for n in (5, 8):
        N = 1 << n
        v = construct_cbc_dbd(n, s, w)
        assert T_quantity(v, w) <= bound_thm_cbcdbd(N, w)
    for N in (31, 127):
        v = construct_korobov_cbc(N, s, w)
        assert T_quantity(v, w) <= bound_thm_cbc(N, w)


def test_bounds_decrease_roughly_like_log_over_N():
    vals = [bound_thm_existence(1 << n, W) for n in (6, 8, 10, 12)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    # for a fixed low dimension the polylog factor is mild: quadrupling N
    # from 2^10 to 2^12 must cut the bound by more than half
    small = [bound_thm_existence(1 << n, ProductWeights(W.gammas[:2])) for n in (10, 12)]
    assert small[1] < small[0] / 2


def test_bound_thm_cbcdbd_rejects_non_pow2():
    with pytest.raises(ValueError):
        bound_thm_cbcdbd(12, W)


def test_bound_dimension_handling():
    """The bounds run over the coordinates of the weights: fewer weights,
    fewer subsets, a smaller bound."""
    first = ProductWeights(W.gammas[:2])
    for bound, N in ((bound_thm_existence, 64), (bound_thm_cbcdbd, 64), (bound_thm_cbc, 61)):
        assert bound(N, first) < bound(N, W)


def test_general_weight_bounds_match_product_closed_form():
    w = ProductWeights((0.7, 0.3))
    g = GeneralWeights.from_product(w)
    assert bound_thm_cbc(31, g) == pytest.approx(bound_thm_cbc(31, w), rel=1e-12)
    assert bound_thm_existence(31, g) == pytest.approx(
        bound_thm_existence(31, w), rel=1e-12
    )


def test_standard_cbc_beats_plain_korobov_vector_on_wce():
    # sanity: the construction that minimizes e should not lose to z = (1,..,1)
    N, s, alpha = 64, 4, 2.0
    w = power_weights(ProductWeights(W.gammas[:s]), alpha)
    v = construct_standard_cbc(N, s, alpha, w)
    trivial = GeneratingVector(N, tuple([1] * s))
    assert wce_product(v, alpha, w) <= wce_product(trivial, alpha, w)


def test_wce_product_guards():
    v = GeneratingVector(8, (1,))
    with pytest.raises(ValueError):
        wce_product(v, 1.0, W)


@pytest.mark.parametrize("N", [2, 4, 8, 9, 12, 15, 61, 64, 1021, 1024, 16381, 1 << 14])
def test_lattice_kernel_sum_matches_natural_order_gather(N):
    """The unit-layout sum against the sum over k = 0..N-1 in natural order,
    each column gathered as tab[k z mod N]: equal for product weights, within
    rounding for general weights."""
    rng = np.random.default_rng(N)
    units = [k for k in range(1, N) if gcd(k, N) == 1]
    k = np.arange(N, dtype=np.int64)
    tables = [fourier_decay_table(a, N) for a in (2.0, 2.5, 4.0)]
    tables += [vartheta_table(N), kernel_table(N)]
    families = [lambda j: 1.0 / j**2, lambda j: 0.95**j, lambda j: 0.7**j]
    for s, general in ((40, False), (4, True)):
        v = GeneratingVector(N, tuple(int(z) for z in rng.choice(units, size=s)))
        for gamma in families:
            w = ProductWeights(tuple(gamma(j) for j in range(1, s + 1)))
            if general:
                w = GeneralWeights.from_product(w)
            for tab in tables:
                got = lattice_kernel_sum(v, tab, w)
                oracle = subset_product_sum(w, (tab[k * zj % N] for zj in v.z))
                if general:
                    assert got == pytest.approx(oracle, rel=1e-13)
                else:
                    assert got == oracle


def _plain_product_sum(w, columns):
    """The product-weight sum as a plain loop over whole columns, out of
    place: the reference the kernel and its numpy twin must equal bit for
    bit."""
    d = None
    for j, col in enumerate(columns, start=1):
        x = w.gamma(j) * col
        d = x if d is None else d + x * (1.0 + d)
    return 0.0 if d is None else math.fsum(memoryview(d))


# Primes; 2^n with no block longer than the fast CBC's ROW_SPAN (n <= 8) and
# with one or more (n = 9, 12, 16), whose columns take one slice per block and
# one of the fixed slots; composites, whose columns are gathers.
SUM_GRID_MODULI = [3, 61, 127, 131, 257, 16381, 2, 4, 8, 16, 256, 512, 4096, 1 << 16,
                   6, 12, 100]
# 0.5^j drives d below machine epsilon after a few coordinates.
SUM_GRID_WEIGHTS = [lambda j: 1.0 / j**2, lambda j: 0.5**j]
SUM_GRID_DIMS = [1, 2, 100]


def _grid_tables(N):
    """The decay tables at alpha = 2 and 2.5, vartheta_N, the log-sine table
    and the omega table, which has negative entries."""
    return [fourier_decay_table(2.0, N), fourier_decay_table(2.5, N), vartheta_table(N),
            kernel_table(N), omega_table(N)]


@pytest.mark.parametrize("N", SUM_GRID_MODULI)
def test_lattice_kernel_sum_equals_the_plain_column_loop(N):
    """Every product-weight lattice sum (e, T, T_alpha, H, V) is the same
    double as the plain loop over gathered columns tab[k z mod N], k = 0..N-1,
    with or without a layout passed in."""
    rng = np.random.default_rng(N)
    units = [k for k in range(1, N) if gcd(k, N) == 1]
    k = np.arange(N, dtype=np.int64)
    layout = unit_layout(N)
    tables = _grid_tables(N)
    for s in SUM_GRID_DIMS:
        v = GeneratingVector(N, tuple(int(z) for z in rng.choice(units, size=s)))
        for gamma in SUM_GRID_WEIGHTS:
            w = ProductWeights(tuple(gamma(j) for j in range(1, s + 1)))
            for tab in tables:
                ref = _plain_product_sum(w, (tab[k * zj % N] for zj in v.z))
                assert lattice_kernel_sum(v, tab, w) == ref
                assert lattice_kernel_sum(v, tab, w, layout) == ref


def test_lattice_kernel_sum_rejects_a_layout_of_another_modulus():
    v = GeneratingVector(16, (1, 3))
    with pytest.raises(ValueError):
        wce_product(v, 2.0, ProductWeights((1.0, 0.5)), unit_layout(32))


def test_theorem_bounds_equal_the_one_point_column_loop(monkeypatch):
    """The bounds read one value through the lattice-sum kernel; they are the
    doubles of the plain loop over s one-point arrays."""
    cases = []
    for s in SUM_GRID_DIMS:
        for gamma in SUM_GRID_WEIGHTS:
            cases.append(ProductWeights(tuple(gamma(j) for j in range(1, s + 1))))
    cases.append(GeneralWeights.from_product(ProductWeights((0.7, 0.3, 0.2))))

    def values():
        out = []
        for w in cases:
            for N in (2, 16, 1024, 1 << 16):
                out += [bound_thm_cbcdbd(N, w), bound_thm_existence(N, w)]
            for N in (3, 61, 16381):
                out += [bound_thm_cbc(N, w), bound_thm_existence(N, w)]
        return out

    got = values()

    def plain_power_sum(w, a):
        if isinstance(w, GeneralWeights):
            return subset_product_sum(w, [np.array([a])] * w.s)
        return _plain_product_sum(w, [np.array([a])] * w.s)

    monkeypatch.setattr(error, "_subset_power_sum", plain_power_sum)
    assert got == values()
