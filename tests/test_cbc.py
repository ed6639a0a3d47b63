import dataclasses
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import latgen
from latgen import _kernels, cbc
from latgen.cbc import (
    ROW_SPAN,
    _cbc_greedy,
    _gather_score,
    _spectrum,
    construct_korobov_cbc,
    construct_standard_cbc,
    scoring_plan,
)
from latgen.error import V_quality, wce_product
from latgen.kernel import fourier_decay_table, omega_table
from latgen.numtheory import GeneratingVector, primitive_root, unit_layout
from latgen.oracles import cbc_naive, omega
from latgen.weights import GeneralWeights, ProductWeights, power_weights

W = ProductWeights(tuple(1.0 / j**2 for j in range(1, 11)))
# q grows past 1e20 under these weights, where packing q and the kernel into
# one complex transform lost the kernel's digits
W095 = ProductWeights(tuple(0.95**j for j in range(1, 101)))
WJ2 = ProductWeights(tuple(1.0 / j**2 for j in range(1, 101)))


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


def _slot_residues(N):
    """The residue each slot of the fast CBC's state stands for: the slots of
    unit_layout(N) but the last, residue 0."""
    layout = unit_layout(N)
    return np.concatenate(layout.blocks + (layout.fixed,))[:-1]


def _scores(plan, p):
    """The plan's scores and bound on a copy of the state p, which the step
    leaves as it is (b = -1)."""
    st = plan.start()
    st.p[...] = p
    plan.step(st, -1, 0.0)
    return st.sc, float(st.bound[0])


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
    q += q[::-1]  # q[k-1] == q[N-k-1], as for every running product
    tab = omega_table(N)
    plan = scoring_plan(N, tab)
    scores, bound = _scores(plan, q[_slot_residues(N) - 1])
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


@pytest.mark.parametrize(
    "N, w, s",
    [(17, W, 5), (31, W, 5), (61, W, 5), (127, W095, 40), (131, W095, 40), (251, W095, 40),
     (257, W095, 40)],
    ids=["17", "31", "61", "127-0.95^j-s40", "131-0.95^j-s40", "251-0.95^j-s40",
         "257-0.95^j-s40"],
)
def test_korobov_fast_equals_naive(N, w, s):
    fast = construct_korobov_cbc(N, s, w)
    naive = cbc_naive(N, s, w.gammas, omega_table(N))
    assert fast.z == naive.z


@pytest.mark.parametrize("N", [8, 16, 31, 32, 64, 127, 128, 131, 256, 257, 512, 1019, 2048])
@pytest.mark.parametrize("alpha", [2.0, 2.5, 3.0, 4.0])
def test_standard_fast_equals_naive(N, alpha):
    # beyond N = 128 the transforms are long and q grows under 0.95^j
    w, s = (W, 4) if N <= 128 else (W095, 12)
    w = power_weights(w, alpha)
    fast = construct_standard_cbc(N, s, alpha, w)
    naive = cbc_naive(N, s, w.gammas, fourier_decay_table(alpha, N))
    assert fast.z == naive.z


@pytest.mark.parametrize("N", [2, 4])
@pytest.mark.parametrize("alpha", [2.0, 3.0])
def test_standard_cbc_without_blocks_equals_naive(N, alpha):
    """N = 2 and 4 have no block: the plan's one candidate is z = 1, scored
    by the fixed slots alone, and it is the O(N^2) CBC's vector and its
    overflow error."""
    w = power_weights(W, alpha)
    tab = fourier_decay_table(alpha, N)
    plan = scoring_plan(N, tab)
    assert plan.z.tolist() == [1] and not plan.levels
    assert np.array_equal(plan.column(0)[plan.natural], tab[1:])
    assert construct_standard_cbc(N, 10, alpha, w) == cbc_naive(N, 10, w.gammas, tab)
    huge = ProductWeights(tuple(1e30**j for j in range(1, 11)))
    with pytest.raises(ValueError) as fast:
        construct_standard_cbc(N, 10, alpha, huge)
    with pytest.raises(ValueError) as naive:
        cbc_naive(N, 10, huge.gammas, tab)
    assert "left double range" in str(fast.value) and str(fast.value) == str(naive.value)


@pytest.mark.parametrize(
    "N, alpha",
    [(61, None), (127, None), (131, None), (257, None), (1019, None), (8147, None), (8147, 3.0),
     (256, 2.0), (512, 3.0), (2048, 4.0), (4096, 2.0), (4096, 3.0)],
)
def test_plan_scores_within_bound_of_gather(N, alpha):
    """Every candidate's plan score lies within the returned bound of the
    exact gather sum, along a greedy run under 0.95^j weights. The sizes
    straddle ROW_SPAN: prime N = 61, 127 (H <= 64) and N = 2^n <= 256 are
    scored by the row table alone, 131 and 257 by one transform. The plan's
    column of each candidate, gathered into natural order, is tab[k z mod N]."""
    if alpha is None:
        tab, v = omega_table(N), construct_korobov_cbc(N, 60, W095)
    else:
        tab = fourier_decay_table(alpha, N)
        v = construct_standard_cbc(N, 60, alpha, W095)
    plan = scoring_plan(N, tab)
    k = np.arange(1, N)
    for b, z in enumerate(plan.z.tolist()):
        assert np.array_equal(plan.column(b)[plan.natural], tab[k * z % N]), z
    res = _slot_residues(N)
    q = 1.0 + W095.gamma(1) * tab[1:]
    for d in range(2, 61):
        if d in (2, 30, 60):
            scores, bound = _scores(plan, q[res - 1])
            exact = np.array([q @ tab[k * z % N] for z in plan.z.tolist()])
            assert np.max(np.abs(scores - exact)) <= bound
            for b, z in enumerate(plan.z.tolist()[:50]):
                assert _gather_score(q, plan, b) == q @ tab[k * z % N]
        q *= 1.0 + W095.gamma(d) * tab[k * v.z[d - 1] % N]
    if alpha is None and N > 61:  # at N = 61 omega stays below 4.6, q below 1e17
        assert np.max(np.abs(q)) > 1e20


def _layout_fold(q, res):
    """The fold of the natural-order running product q on slots of the
    residues res: q[a-1] + q[N-a-1] for each +- pair a, N - a, and N/2
    alone."""
    N = q.shape[0] + 1
    f = q[res - 1] + q[N - res - 1]
    alone = 2 * res == N
    f[alone] = q[res[alone] - 1]
    return f


@pytest.mark.parametrize("w", [W095, WJ2], ids=["0.95^j", "1/j^2"])
@pytest.mark.parametrize("alpha", [2.0, 3.0])
@pytest.mark.parametrize("N", [131, 8147, 8, 256, 2048, 1 << 14])
def test_slot_state_equals_the_natural_order_product(N, alpha, w, monkeypatch):
    """Along a fast greedy run, the running product is kept on the slots of
    unit_layout(N) but its last: the plan's slots are the layout's without
    residue 0, the state each step scores holds the natural-order q of
    cbc_naive at each slot's residue, and the step's scores and bound are
    exactly those of the fold gathered from that q. The long blocks' slots
    are +- pairs, whose factor 2 the plan keeps in each level's spectrum and
    kernel norm; the reference plan takes it back out, an exact halving,
    and counts every short slot once, so that it scores the fold as given."""
    s = 60
    tab = fourier_decay_table(alpha, N)
    gammas = power_weights(w, alpha).gammas[:s]
    states = []
    step = _kernels.cbc_step

    def recording(st, b, gamma, score):
        n = step(st, b, gamma, score)
        if score:
            states.append((st.plan, st.p.copy(), st.sc.copy(), float(st.bound[0])))
        return n

    monkeypatch.setattr(_kernels, "cbc_step", recording)
    v = _cbc_greedy(N, s, gammas, tab)
    monkeypatch.undo()
    assert len(states) == s - 1
    layout = unit_layout(N)
    res = _slot_residues(N)
    plan = states[0][0]
    assert np.array_equal(plan.natural[res - 1], np.arange(res.shape[0]))
    counts = layout.counts[:-1]
    assert (counts[: plan.short] == 2.0).all()
    assert np.array_equal(plan.short_counts, counts[plan.short :])
    for lv in plan.levels:  # the factor 2 on the spectrum of a_0, a_(L-1), ..., a_1
        _, _, K, norm = cbc._spectrum(np.roll(tab[res[lv.start : lv.stop]][::-1], 1))
        assert lv.kernel_norm == 2 * norm and np.array_equal(lv.K, 2 * lv.step * K)
        assert np.array_equal(lv.values, np.tile(tab[res[lv.start : lv.stop]], 2))
    ref_plan = dataclasses.replace(
        plan, short_counts=np.ones_like(plan.short_counts), ct=np.ascontiguousarray(plan.rows.T),
        levels=tuple(dataclasses.replace(lv, K=lv.K / 2, kernel_norm=lv.kernel_norm / 2)
                     for lv in plan.levels))
    k = np.arange(1, N)
    q = 1.0 + gammas[0] * tab[1:]
    for d, (plan, p, sc, bound) in enumerate(states, start=2):
        assert np.array_equal(p, q[res - 1]) and np.array_equal(p[plan.natural], q), d
        f = _layout_fold(q, res)
        assert np.array_equal(p * counts, f), d
        ref, ref_bound = _scores(ref_plan, f)
        assert np.array_equal(sc, ref) and bound == ref_bound, d
        q *= 1.0 + gammas[d - 1] * tab[k * v.z[d - 1] % N]


@pytest.mark.parametrize("N", [61, 131, 8147, 64, 2048])
def test_fast_mode_reads_columns_only_to_rescore(N, monkeypatch):
    """The fast CBC starts, scores and updates on the slots; it gathers into
    natural order only to rescore a step's near set of several candidates:
    the state once, then one column per candidate of the set, and never
    otherwise."""
    events = []

    class CountingPlan:
        """The plan, recording each read of its natural-order index."""

        def __init__(self, plan):
            self._plan = plan

        def __getattr__(self, name):
            if name == "natural":
                events.append("N")
            return getattr(self._plan, name)

    def counting_gather(q, plan, b):
        events.append("G")
        return _gather_score(q, plan, b)

    step = _kernels.cbc_step
    near_sizes = []

    def recording_step(st, b, gamma, score):
        n = step(st, b, gamma, score)
        if score:
            near_sizes.append(n)
        return n

    monkeypatch.setattr(cbc, "_gather_score", counting_gather)
    monkeypatch.setattr(cbc, "scoring_plan", lambda N, tab: CountingPlan(scoring_plan(N, tab)))
    monkeypatch.setattr(_kernels, "cbc_step", recording_step)
    if N % 2:
        construct_korobov_cbc(N, 30, W095)
    construct_standard_cbc(N, 30, 2.0, power_weights(W095, 2.0))
    assert "G" in events  # the second component rescores its tied candidates
    # per rescoring component: q = p[natural], then column(b)[natural] per candidate
    groups = re.fullmatch(r"(N(GN)+)+", "".join(events))
    assert groups, "".join(events)
    assert [g.count("G") for g in re.findall(r"N(?:GN)+", "".join(events))] == [
        n for n in near_sizes if n > 1]


@pytest.mark.parametrize("N", [8, 256, 61, 127])
def test_short_block_plans_call_no_fft(N, monkeypatch):
    """No block of these N is longer than ROW_SPAN, so the plan scores every
    candidate by the step's row-table product and never calls numpy.fft."""
    assert max(bl.shape[0] for bl in unit_layout(N).blocks) <= ROW_SPAN
    tab = fourier_decay_table(2.0, N)
    gammas = power_weights(W095, 2.0).gammas[:12]
    naive = cbc_naive(N, 12, gammas, tab)

    def no_fft(*args, **kwargs):
        raise AssertionError("numpy.fft was called")

    for name in np.fft.__all__:
        monkeypatch.setattr(np.fft, name, no_fft)
    plan = scoring_plan(N, tab)
    assert not plan.levels
    _scores(plan, np.ones(_slot_residues(N).shape[0]))
    assert _cbc_greedy(N, 12, gammas, tab) == naive


@pytest.mark.parametrize("N", [61, 256])
def test_construction_without_transform_is_one_step_per_component(N, monkeypatch):
    """A plan with no long level runs each component as one compiled step
    (update, scores, bound and near set), s - 1 of them for s components,
    and never calls numpy.fft."""
    s = 40
    calls = []
    step = _kernels.cbc_step

    def counting(st, b, gamma, score):
        calls.append(score)
        return step(st, b, gamma, score)

    def no_fft(*args, **kwargs):
        raise AssertionError("numpy.fft was called")

    monkeypatch.setattr(_kernels, "cbc_step", counting)
    for name in np.fft.__all__:
        monkeypatch.setattr(np.fft, name, no_fft)
    w = power_weights(WJ2, 2.0)
    v = (construct_korobov_cbc(N, s, WJ2) if N % 2 else construct_standard_cbc(N, s, 2.0, w))
    assert v.s == s and calls == [True] * (s - 1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("naive", [False, True], ids=["fast", "naive"])
def test_running_product_overflow_is_reported(naive):
    """Under gamma_j = 1000^j the running product q leaves double range after
    component 14; the constructions and cbc_naive say so instead of
    returning a vector."""
    w = ProductWeights(tuple(1e3**j for j in range(1, 31)))
    if naive:
        korobov = lambda N, s: cbc_naive(N, s, w.gammas, omega_table(N))
        standard = lambda N, s: cbc_naive(N, s, w.gammas, fourier_decay_table(2.0, N))
    else:
        korobov = lambda N, s: construct_korobov_cbc(N, s, w)
        standard = lambda N, s: construct_standard_cbc(N, s, 2.0, w)
    msg = "left double range after component 14"
    with pytest.raises(ValueError, match=msg):
        korobov(61, 30)
    with pytest.raises(ValueError, match=msg):
        standard(64, 30)
    assert korobov(61, 14).s == 14


def test_bound_stays_finite_for_large_running_products(monkeypatch):
    """Under gamma_j = 3^j, max|q| passes 1e154 and q @ q overflows; the
    bound's norms are scaled instead, so no component rescores every
    candidate, and the vector is still cbc_naive's."""
    w = ProductWeights(tuple(3.0**j for j in range(1, 35)))
    naive = cbc_naive(509, 34, w.gammas, omega_table(509))
    calls = []

    def counting(q, plan, b):
        calls.append(b)
        return _gather_score(q, plan, b)

    monkeypatch.setattr(cbc, "_gather_score", counting)
    assert construct_korobov_cbc(509, 34, w) == naive
    assert len(calls) < 34, len(calls)  # an infinite bound rescores all 254 candidates


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


def test_pow2_candidates_are_odd():
    v = construct_standard_cbc(64, 6, 2.0, W)
    assert all(z % 2 == 1 for z in v.z)


_NORM_DUMP = """
from latgen.cbc import scoring_plan
from latgen.kernel import fourier_decay_table, kernel_table, omega_table
for N, tab in ((16381, fourier_decay_table(3.0, 16381)), (16381, omega_table(16381)),
               (1 << 16, fourier_decay_table(2.0, 1 << 16)), (1 << 16, kernel_table(1 << 16))):
    plan = scoring_plan(N, tab)
    print(N, *[lv.kernel_norm.hex() for lv in plan.levels], plan.row_norm.hex())
"""


def test_bound_norms_do_not_follow_the_blas_thread_count():
    """Every norm of the rounding bound, the long levels' kernel norms and
    the row table's, sums its squares without BLAS, so one and two BLAS
    threads give the same doubles, and with them the same near sets. The
    dumps cover a prime N whose one long block takes a padded transform and
    a power of two with many long levels."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(latgen.__file__)))
    dumps = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = subprocess.run([sys.executable, "-c", _NORM_DUMP], capture_output=True,
                             text=True, env=env, timeout=120)
        assert out.returncode == 0, out.stderr
        dumps.append(out.stdout.splitlines())
    assert len(dumps[0]) == 4 and [len(d.split()) for d in dumps[0]] == [3, 3, 10, 10]
    assert dumps[0] == dumps[1]
