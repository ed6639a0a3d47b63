"""Acceptance gate: ten end-to-end criteria, one test (and one printed
pass/fail line) each. Shared constructions are cached in session fixtures so
the whole gate stays inside the stated runtime budgets."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from latgen import BACKEND, BACKEND_REASON, _slowpath
from latgen.cbc import construct_korobov_cbc, construct_standard_cbc
from latgen.cbc_dbd import construct_cbc_dbd
from latgen.error import (
    H_quantity,
    T_quantity,
    V_quality,
    bound_thm_cbc,
    bound_thm_cbcdbd,
    wce_product,
)
from latgen.kernel import LN4, fourier_decay_table, kernel_table, omega_table, vartheta_table
from latgen.numtheory import GeneratingVector, UnitColumns, gcd, is_prime, unit_layout
from latgen.oracles import (
    cbc_naive,
    fourier_decay_sum,
    h_naive,
    log_inv_sin2,
    vartheta_truncated,
    wce_bruteforce,
)
from latgen.weights import ProductWeights, power_weights

DIM = 100
PRIME_LADDER = (3, 5, 7, 13, 31, 61, 127, 251, 509, 1021, 2039)
FIG_PRIMES = (61, 127, 251, 509, 1021, 2039, 4093, 8191, 16381)

WEIGHT_FAMILIES = {
    "1/j^2": lambda s: ProductWeights(tuple(1.0 / j**2 for j in range(1, s + 1))),
    "1/j^3": lambda s: ProductWeights(tuple(1.0 / j**3 for j in range(1, s + 1))),
    "0.95^j": lambda s: ProductWeights(tuple(0.95**j for j in range(1, s + 1))),
    "0.7^j": lambda s: ProductWeights(tuple(0.7**j for j in range(1, s + 1))),
}


def report(num, ok, detail):
    line = "criterion %02d: %s -- %s" % (num, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def dbd_vectors():
    """CBC-DBD vectors at s=50 for n in 4..14 and every weight family.

    The construction is progressive, so every smaller-s vector needed later
    is a prefix of these.
    """
    out = {}
    for name, make in WEIGHT_FAMILIES.items():
        w = make(50)
        for n in range(4, 15):
            out[(name, n)] = construct_cbc_dbd(n, 50, w)
    return out


@pytest.fixture(scope="session")
def fig2a_series():
    """(N, alpha) -> wce for the s=100 CBC-DBD sweep, gamma_j = 1/j^2."""
    w = WEIGHT_FAMILIES["1/j^2"](DIM)
    vectors = {n: construct_cbc_dbd(n, DIM, w) for n in range(6, 15)}
    series = {}
    for alpha in (2.0, 3.0, 4.0):
        wa = power_weights(w, alpha)
        for n, v in vectors.items():
            series[(1 << n, alpha)] = wce_product(v, alpha, wa)
    return series


def _c_constant(n, v):
    """h_naive minus the level-v score summed over all odd residues:
    -2^(v-1) (n-v+1), the sum over t = v..n of 2^(v-t) times the 2^(t-1) odd
    residues mod 2^t."""
    return -float(1 << (v - 1)) * (n - v + 1)


def test_criterion_01_dbd_quality_oracle():
    """Replay construct_cbc_dbd's own vector on the state it keeps, read
    from the unit layout of 2^n: fold the slots once per component, score
    both bits of every level from the slice of the block's doubled kernel
    values (UnitColumns.doubled) that the candidate meets, and check twice
    each score (one slot per +- pair) plus the constant against the subset
    sum h_naive, and the construction's bit against the other one. The
    weights (1, 1/4, 1/9) at n = 4, s = 3 are the first three of 1/j^2, and
    the construction is nested, so their decisions are among these cases."""
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    worse = []
    w = WEIGHT_FAMILIES["1/j^2"](6)
    for n in range(2, 9):
        z = construct_cbc_dbd(n, 6, w).z
        lay = unit_layout(1 << n)
        cols = UnitColumns(lay, kernel_table(1 << n))
        # level v at index v - 2: the fixed residue N/4, then block n - v of
        # the layout, whose values a unit +-5^c meets are its doubled values from c on
        res = [lay.fixed[1:2], *lay.blocks[::-1]]
        K = [cols.tab[res[0]], *(d for d, _ in cols.doubled[::-1])]
        q = [1.0 + w.gamma(1) * Kv[: r.shape[0]] for r, Kv in zip(res, K)]
        P = [None] * len(q)
        for r in range(2, 7):
            gamma = w.gamma(r)
            _slowpath.dbd_fold(q, P)
            for v in range(2, n + 1):
                L = 1 << (v - 2)
                units = (res[v - 2] >> (n - v)).tolist()  # 5^i mod 2^v
                low = z[r - 1] & ((1 << v) - 1)
                Pv = P[v - 2]
                naive, offset = {}, {}
                for x in (low, low ^ (1 << (v - 1))):
                    c = next(c for c, u in enumerate(units) if u in (x, (1 << v) - x))
                    score = float(Pv.sum()) + gamma * float(Pv @ K[v - 2][c : c + L])
                    naive[x], offset[x] = h_naive(r, n, v, x, z[: r - 1], w), c
                    dev = abs(2.0 * score + _c_constant(n, v) - naive[x])
                    worst = max(worst, dev / max(1.0, abs(naive[x])))
                    checked += 1
                other = naive[low ^ (1 << (v - 1))]
                if naive[low] > other + 1e-9 * abs(other):
                    worse.append((n, r, v))
                # after both scores: the top level's slots are its level sums
                c = offset[low]
                q[v - 2] *= 1.0 + gamma * K[v - 2][c : c + L]
    dt = time.perf_counter() - t0
    report(1, worst < 1e-10 and not worse and dt < 10.0,
           "digit quality of the construction's own bits, %d cases, max rel dev %.2e, "
           "bits worse than the other %r, %.1fs" % (checked, worst, worse, dt))


def test_criterion_02_fast_cbc_oracle():
    t0 = time.perf_counter()
    mismatches = []
    primes = [N for N in range(3, 128) if is_prime(N)]
    for name in ("1/j^2", "0.7^j"):
        w = WEIGHT_FAMILIES[name](8)
        for N in primes:
            fast = construct_korobov_cbc(N, 8, w)
            naive = cbc_naive(N, 8, w.gammas, omega_table(N))
            if fast != naive:
                mismatches.append((name, N))
    dt = time.perf_counter() - t0
    report(2, not mismatches and dt < 30.0,
           "fast vs naive identical on %d primes x 2 families, %.1fs (mismatches: %r)"
           % (len(primes), dt, mismatches))


def test_criterion_03_wce_bruteforce_bracket():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst_excess = -math.inf
    cases = 0
    for N in (8, 16, 32):
        for s in (1, 2, 3):
            w = WEIGHT_FAMILIES["1/j^2"](s)
            for _ in range(5):
                z = []
                while len(z) < s:
                    cand = int(rng.integers(1, N))
                    if gcd(cand, N) == 1:
                        z.append(cand)
                v = GeneratingVector(N, tuple(z))
                for alpha in (2.0, 4.0):
                    closed = wce_product(v, alpha, w)
                    iv = wce_bruteforce(v, alpha, w, M=64)
                    excess = abs(closed - iv.value) - (iv.tail_bound + 1e-12)
                    worst_excess = max(worst_excess, excess)
                    cases += 1
    dt = time.perf_counter() - t0
    report(3, worst_excess <= 0.0 and dt < 60.0,
           "%d cases, worst bracket excess %.2e, %.1fs" % (cases, worst_excess, dt))


def test_criterion_04_H_bound(dbd_vectors):
    violations = 0
    checked = 0
    for name, make in WEIGHT_FAMILIES.items():
        w50 = make(50)
        for n in range(4, 15):
            full = dbd_vectors[(name, n)]
            for s in (1, 10, 50):
                v = full.prefix(s)
                w = ProductWeights(w50.gammas[:s])
                H = H_quantity(v, w)
                bound = v.N * (
                    math.prod(1.0 + g * math.log(4.0) for g in w.gammas) - 1.0
                )
                checked += 1
                if H > bound:
                    violations += 1
    report(4, violations == 0,
           "H <= N(prod(1+gamma ln4)-1) on %d vectors, %d violations"
           % (checked, violations))


def test_criterion_05_V_bound():
    violations = 0
    checked = 0
    w = WEIGHT_FAMILIES["1/j^2"](50)
    for N in PRIME_LADDER:
        v = construct_korobov_cbc(N, 50, w)
        for s in (1, 10, 50):
            V = V_quality(v.prefix(s), ProductWeights(w.gammas[:s]))
            bound = math.prod(
                1.0 + 2.0 * g * math.log(N) for g in w.gammas[:s]
            ) - 1.0
            checked += 1
            if V > bound:
                violations += 1
    report(5, violations == 0,
           "V <= prod(1+2 gamma lnN)-1 on %d cases, %d violations"
           % (checked, violations))


def test_criterion_06_T_bounds(dbd_vectors):
    violations = []
    checked = 0
    w20 = WEIGHT_FAMILIES["1/j^2"](20)
    for n in range(4, 13):
        v = dbd_vectors[("1/j^2", n)].prefix(20)
        if T_quantity(v, w20) > bound_thm_cbcdbd(v.N, w20):
            violations.append(("dbd", v.N))
        checked += 1
    for N in PRIME_LADDER:
        v = construct_korobov_cbc(N, 20, w20)
        if T_quantity(v, w20) > bound_thm_cbc(N, w20):
            violations.append(("cbc", N))
        checked += 1
    report(6, not violations,
           "T within theorem bounds on %d vectors (violations: %r)"
           % (checked, violations))


def test_criterion_07_fig2a_reproduction(fig2a_series):
    t0 = time.perf_counter()
    slope_limits = {2.0: -1.6, 3.0: -2.5, 4.0: -3.3}
    slopes = {}
    ok = True
    for alpha, limit in slope_limits.items():
        pts = [
            (N, e) for (N, a), e in fig2a_series.items()
            if a == alpha and e > 1e-15
        ]
        logN = np.log([N for N, _ in pts])
        logE = np.log([e for _, e in pts])
        slopes[alpha] = float(np.polyfit(logN, logE, 1)[0])
        ok = ok and slopes[alpha] <= limit
    anchor = fig2a_series[(1024, 2.0)]
    ratio = anchor / 4.4138e-5
    ok = ok and 0.5 <= ratio <= 2.0
    dt = time.perf_counter() - t0
    report(7, ok and dt < 300.0,
           "slopes %s, anchor ratio %.3f at N=1024 alpha=2, %.1fs"
           % ({a: round(s, 2) for a, s in slopes.items()}, ratio, dt))


def test_criterion_08_fig3a_reproduction():
    t0 = time.perf_counter()
    w = WEIGHT_FAMILIES["1/j^2"](DIM)
    wa = power_weights(w, 2.0)
    std = {
        N: wce_product(construct_standard_cbc(N, DIM, 2.0, wa), 2.0, wa)
        for N in FIG_PRIMES
    }
    kor = wce_product(construct_korobov_cbc(1021, DIM, w), 2.0, wa)
    std_ratio = std[1021] / 3.0334e-5
    kor_ratio = kor / 3.0230e-5
    dt = time.perf_counter() - t0
    ok = 1.0 / 1.1 <= std_ratio <= 1.1 and 0.5 <= kor_ratio <= 2.0 and dt < 600.0
    report(8, ok,
           "std-cbc ratio %.4f (10%% band), korobov ratio %.4f (factor 2), "
           "series over %d primes, %.1fs"
           % (std_ratio, kor_ratio, len(std), dt))


def test_criterion_09_cost_scaling():
    w = WEIGHT_FAMILIES["1/j^2"](200)
    grid = {}
    for n in (10, 12, 14):
        for s in (50, 100, 200):
            best = math.inf
            for _ in range(3):
                t0 = time.perf_counter()
                construct_cbc_dbd(n, s, w)
                best = min(best, time.perf_counter() - t0)
            grid[(n, s)] = best
    # least-squares fit of t = c * s * N (one free constant): a component
    # folds its level sums once and then picks n bits, O(N) in all
    model = np.array([s * (1 << n) for (n, s) in grid])
    times = np.array(list(grid.values()))
    c = float(np.dot(model, times) / np.dot(model, model))
    ratios = times / (c * model)
    dev = float(max(ratios.max(), 1.0 / ratios.min()))

    tracemalloc.start()
    construct_cbc_dbd(14, 50, w)
    peak_small = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    tracemalloc.start()
    construct_cbc_dbd(14, 200, w)
    peak_large = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # memory is O(N): quadrupling s must not grow the peak footprint beyond
    # the output vector itself (a few KB of slack)
    mem_ok = peak_large <= peak_small + 64_000

    report(9, dev <= 2.5 and mem_ok,
           "t=c*s*N fit, worst per-cell deviation %.2fx (limit 2.5); "
           "peak mem s=50: %dB, s=200: %dB; backend %s (%s)"
           % (dev, peak_small, peak_large, BACKEND, BACKEND_REASON))


def test_criterion_10_math_identity_suite():
    details = []
    ok = True

    # log-sine product: sum_{k=1}^{N-1} ln(2 sin(pi k/N)) = ln N
    worst = 0.0
    for N in (2, 3, 64, 1021, 4096):
        total = math.fsum(
            math.log(2.0 * math.sin(math.pi * k / N)) for k in range(1, N)
        )
        worst = max(worst, abs(total - math.log(N)))
    ok = ok and worst <= 1e-9
    details.append("log-sine dev %.1e" % worst)

    # bit averaging: sum over the two level-v bit extensions of the kernel
    # equals ln 4 plus the level-(v-1) kernel
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(10_000):
        v = int(rng.integers(2, 15))
        a = int(rng.integers(0, 1 << (v - 2))) * 2 + 1
        k = int(rng.integers(0, 1 << 13)) * 2 + 1
        lhs = math.fsum(
            log_inv_sin2((k * (a + (z << (v - 1))) % (1 << v)) / (1 << v))
            for z in (0, 1)
        )
        rhs = LN4 + log_inv_sin2((k * a % (1 << (v - 1))) / (1 << (v - 1)))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    ok = ok and worst <= 1e-9
    details.append("bit-averaging dev %.1e" % worst)

    # truncated-kernel remainder bound on a dense grid
    bad = 0
    for N in (16, 256, 1024):
        for x in np.linspace(1.0 / 2048.0, 1.0 - 1.0 / 2048.0, 999):
            dist = min(x % 1.0, 1.0 - x % 1.0)
            err = abs(log_inv_sin2(x) - LN4 - vartheta_truncated(x, N))
            if err > 1.0 / (N * dist) + 1e-12:
                bad += 1
    ok = ok and bad == 0
    details.append("remainder bound violations %d" % bad)

    # DFT-built tables (numpy.fft) vs their series: vartheta_table against
    # vartheta_truncated at every residue, fourier_decay_table(2.5) against
    # fourier_decay_sum (tail <= 1e-9) at a spread of residues
    worst = 0.0
    for n in (61, 64, 100, 127):
        tab = vartheta_table(n)
        for a in range(n):
            worst = max(worst, abs(tab[a] - vartheta_truncated(a / n, n)))
        tab = fourier_decay_table(2.5, n)
        for a in (0, 1, 2, n // 3, n // 2):
            worst = max(worst, abs(tab[a] - fourier_decay_sum(2.5, a / n, tol=1e-9)))
    ok = ok and worst <= 1e-8
    details.append("DFT table dev %.1e" % worst)

    report(10, ok, "; ".join(details))
