import math

import numpy as np
import pytest

from latgen.cbc import (
    V_quality,
    _accumulate_product,
    _gather_score,
    _omega_table,
    construct_korobov_cbc,
    construct_standard_cbc,
    scoring_plan,
)
from latgen.error import wce_product
from latgen.kernel import fourier_decay_table, omega
from latgen.numtheory import GeneratingVector, primitive_root
from latgen.weights import GeneralWeights, ProductWeights, power_weights

W = ProductWeights(tuple(1.0 / j**2 for j in range(1, 11)))
# q grows past 1e20 under these weights, where packing q and the kernel into
# one complex transform lost the kernel's digits
W095 = ProductWeights(tuple(0.95**j for j in range(1, 101)))


def test_V_quality_direct_sum():
    N = 13
    v = GeneratingVector(N, (1, 5))
    w = ProductWeights((0.5, 0.25))
    total = 0.0
    for k in range(1, N):
        prod = 1.0
        for j, zj in enumerate(v.z, start=1):
            prod *= 1.0 + w.gamma(j) * omega(((k * zj) % N) / N)
        total += prod - 1.0
    assert V_quality(v, w) == pytest.approx(total, rel=1e-10, abs=1e-10)


def test_V_quality_general_weights_agrees_with_product():
    v = GeneratingVector(17, (1, 7, 5))
    w = ProductWeights((0.9, 0.5, 0.2))
    g = GeneralWeights.from_product(w)
    assert V_quality(v, g) == pytest.approx(V_quality(v, w), rel=1e-10, abs=1e-10)


def _conv_reference(a, b):
    """Naive cyclic convolution c_k = sum_j a_j b_{(k - j) mod n}."""
    n = len(a)
    return np.array(
        [sum(a[j] * b[(k - j) % n] for j in range(n)) for k in range(n)]
    )


@pytest.mark.parametrize("N", [5, 7, 13, 31, 61, 127])
def test_rader_scores_match_direct(N):
    """The prime plan's scores equal the direct sums and the Rader convolution."""
    rng = np.random.default_rng(N)
    q = rng.standard_normal(N - 1)
    tab = _omega_table(N)
    plan = scoring_plan(N, tab)
    scores, bound = plan.scores(q)
    assert sorted(plan.z.tolist()) == list(range(1, (N - 1) // 2 + 1))
    # Rader: with k = g^i, z = g^m the scores are a cyclic convolution
    L = N - 1
    pw = [pow(primitive_root(N), i, N) for i in range(L)]
    a = np.array([q[p - 1] for p in pw])
    b = np.array([tab[p] for p in pw])
    conv = _conv_reference(a[(-np.arange(L)) % L], b)
    for z, got in zip(plan.z.tolist(), scores):
        direct = sum(q[k - 1] * tab[(k * z) % N] for k in range(1, N))
        m = pw.index(z)
        assert conv[m] == pytest.approx(direct, abs=1e-8)
        assert got == pytest.approx(direct, abs=1e-8)
        assert abs(got - direct) <= bound


def test_rader_scores_rejects_composite():
    for N in (9, 12, 15):
        with pytest.raises(ValueError):
            scoring_plan(N, np.ones(N))
    with pytest.raises(ValueError):  # not symmetric
        scoring_plan(13, np.arange(13.0))


@pytest.mark.parametrize(
    "N, w, s",
    [(17, W, 5), (31, W, 5), (61, W, 5), (127, W095, 40), (251, W095, 40)],
    ids=["17", "31", "61", "127-0.95^j-s40", "251-0.95^j-s40"],
)
def test_korobov_fast_equals_naive(N, w, s):
    fast = construct_korobov_cbc(N, s, w, mode="fast")
    naive = construct_korobov_cbc(N, s, w, mode="naive")
    assert fast.z == naive.z


@pytest.mark.parametrize("N", [8, 16, 31, 32, 64, 128, 512, 1019, 2048])
@pytest.mark.parametrize("alpha", [2.0, 2.5, 3.0, 4.0])
def test_standard_fast_equals_naive(N, alpha):
    # beyond N = 128 the transforms are long and q grows under 0.95^j
    w, s = (W, 4) if N <= 128 else (W095, 12)
    w = power_weights(w, alpha)
    fast = construct_standard_cbc(N, s, alpha, w, mode="fast")
    naive = construct_standard_cbc(N, s, alpha, w, mode="naive")
    assert fast.z == naive.z


@pytest.mark.parametrize(
    "N, alpha", [(1019, None), (8147, None), (8147, 3.0), (4096, 2.0), (4096, 3.0)]
)
def test_plan_scores_within_bound_of_gather(N, alpha):
    """Every candidate's plan score lies within the returned bound of the
    exact gather sum, along a greedy run under 0.95^j weights."""
    if alpha is None:
        tab, v = _omega_table(N), construct_korobov_cbc(N, 60, W095)
    else:
        tab = fourier_decay_table(alpha, N)
        v = construct_standard_cbc(N, 60, alpha, W095)
    plan = scoring_plan(N, tab)
    k = np.arange(1, N)
    q = 1.0 + W095.gamma(1) * tab[1:]
    for d in range(2, 61):
        if d in (2, 30, 60):
            scores, bound = plan.scores(q)
            exact = np.array([q @ tab[k * z % N] for z in plan.z.tolist()])
            assert np.max(np.abs(scores - exact)) <= bound
            for z in plan.z.tolist()[:50]:
                assert _gather_score(q, plan.column, z) == q @ tab[k * z % N]
        _accumulate_product(q, plan.column, v.z[d - 1], W095.gamma(d))
    if alpha is None:
        assert np.max(np.abs(q)) > 1e20


def test_korobov_greedy_is_componentwise_optimal():
    """Each z_d must minimize V over all candidates given the earlier ones."""
    N, s = 31, 4
    v = construct_korobov_cbc(N, s, W)
    for d in range(2, s + 1):
        chosen = V_quality(GeneratingVector(N, v.z[:d]), W)
        for cand in range(1, N):
            trial = V_quality(GeneratingVector(N, v.z[: d - 1] + (cand,)), W)
            assert chosen <= trial + 1e-9 * abs(trial)


def test_standard_greedy_is_componentwise_optimal():
    N, s, alpha = 32, 3, 2.0
    w = power_weights(W, alpha)
    v = construct_standard_cbc(N, s, alpha, w)
    for d in range(2, s + 1):
        chosen = wce_product(GeneratingVector(N, v.z[:d]), alpha, w)
        for cand in range(1, N, 2):
            trial = wce_product(
                GeneratingVector(N, v.z[: d - 1] + (cand,)), alpha, w
            )
            assert chosen <= trial + 1e-9 * abs(trial)


def test_constructions_are_nested():
    v5 = construct_korobov_cbc(61, 5, W)
    v3 = construct_korobov_cbc(61, 3, W)
    assert v5.z[:3] == v3.z
    u5 = construct_standard_cbc(64, 5, 2.0, W)
    u2 = construct_standard_cbc(64, 2, 2.0, W)
    assert u5.z[:2] == u2.z


def test_first_component_is_one():
    assert construct_korobov_cbc(13, 3, W).z[0] == 1
    assert construct_standard_cbc(16, 3, 2.0, W).z[0] == 1


def test_construct_rejects_bad_args():
    with pytest.raises(ValueError):
        construct_korobov_cbc(16, 2, W)  # not prime
    with pytest.raises(ValueError):
        construct_korobov_cbc(13, 11, W)  # weights too short
    with pytest.raises(ValueError):
        construct_standard_cbc(12, 2, 2.0, W)  # neither prime nor 2^n
    with pytest.raises(ValueError):
        construct_standard_cbc(16, 2, 1.0, W)  # alpha must exceed 1
    with pytest.raises(ValueError):
        construct_korobov_cbc(13, 2, W, mode="turbo")


def test_pow2_candidates_are_odd():
    v = construct_standard_cbc(64, 6, 2.0, W)
    assert all(z % 2 == 1 for z in v.z)
