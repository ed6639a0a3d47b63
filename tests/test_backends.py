"""Interchangeable implementations must agree: the C kernel and the numpy
fallback, and the vectorized products and their plain loops."""

import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

import latgen
from latgen import _kernels, _slowpath, cbc
from latgen.cbc import _gather_score, construct_korobov_cbc, construct_standard_cbc, scoring_plan
from latgen.kernel import fourier_decay_table, kernel_table, omega_table
from latgen.numtheory import ColumnSlices, is_prime
from latgen.oracles import cbc_naive
from latgen.weights import ProductWeights, power_weights


def test_backend_is_reported():
    assert latgen.BACKEND in ("c", "numpy")
    assert _kernels.BACKEND == latgen.BACKEND
    assert latgen.BACKEND_REASON


def test_accumulate_and_gather_backends_agree():
    rng = np.random.default_rng(5)
    for N, zs in ((64, (1, 7, 33, 63)), (61, (1, 2, 17, 60))):
        tab = kernel_table(N)
        plan = scoring_plan(N, tab)
        q1 = rng.uniform(0.5, 2.0, size=N - 1)
        q2 = q1.copy()
        for z in zs:
            b = int(np.flatnonzero(plan.z == min(z, N - z))[0])  # tab[k z] == tab[k (N - z)]
            q1 *= 1.0 + 0.11 * plan.column(b)[plan.natural]
            for i in range(N - 1):
                q2[i] *= 1.0 + 0.11 * tab[(i + 1) * z % N]
            assert np.array_equal(q1, q2)
            loop = sum(q2[i] * tab[(i + 1) * z % N] for i in range(N - 1))
            assert _gather_score(q1, plan, b) == pytest.approx(loop, rel=1e-12)


def test_product_sum_backends_agree():
    """The compiled lattice-sum kernel gives the doubles of its numpy twin, on
    segments shorter than, equal to and longer than its chunk, and empty."""
    rng = np.random.default_rng(8)
    lengths = np.array([1500, 0, 512, 511, 1, 513, 130])
    buf = rng.uniform(-1.4, 3.0, size=4096)
    for s in (1, 2, 7, 100):
        offsets = rng.integers(0, buf.shape[0] - lengths + 1, size=(s, lengths.shape[0]))
        cols = ColumnSlices(buf, offsets, lengths)
        for gammas in (rng.uniform(0.0, 1.0, size=s), 0.5 ** np.arange(1, s + 1)):
            d = _kernels.product_sum(gammas, cols)
            assert d.shape == (lengths.sum(),)
            assert np.array_equal(d, _slowpath.product_sum(gammas, cols))
    with pytest.raises(ValueError):
        _kernels.product_sum([0.5], ColumnSlices(buf, np.zeros((2, 1)), [3]))


def _fsum_outcome(f):
    """f()'s value as its bits (NaN as one value), or the type it raised."""
    try:
        v = f()
    except (ValueError, OverflowError) as exc:
        return type(exc)
    return "nan" if math.isnan(v) else struct.pack("<d", v)


def _fsum_agrees(x, counts=None):
    """The compiled sum of x times counts is math.fsum's, bit for bit, or
    raises what math.fsum raises."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = x if counts is None else x * counts
        want = _fsum_outcome(lambda: math.fsum(memoryview(terms)))
        got = _fsum_outcome(lambda: _kernels.fsum(x, counts))
    assert got == want, (x[:8], counts)
    return want


def _fsum_arrays():
    rng = np.random.default_rng(29)
    mixed = rng.normal(size=3000) * 10.0 ** rng.integers(-18, 18, size=3000)
    cancelling = np.concatenate([mixed, -mixed, [1e-300, 3.0]])
    rng.shuffle(cancelling)
    return [
        rng.uniform(-1.0, 1.0, size=1 << 15),
        rng.uniform(0.0, 1.0, size=5000),
        mixed,
        cancelling,
        rng.uniform(-1.0, 1.0, size=700) * 2.0**-1060,  # subnormal
        np.concatenate([rng.uniform(-1.0, 1.0, size=300) * 2.0**-1070,
                        rng.uniform(-1.0, 1.0, size=300)]),
        rng.uniform(-1.0, 1.0, size=2000) * 10.0 ** rng.uniform(-300, 300, size=2000),
        np.array([1e-16, 1.0, 1e16]),  # half-even across partials
        np.array([]),
        np.array([-0.0]),
        np.array([2.5]),
    ]


def test_fsum_backends_agree():
    """The compiled correctly rounded sum gives math.fsum's double on random,
    cancelling, subnormal and 1e+-300 data, with counts of 1 and 2, at
    lengths 0 and 1."""
    rng = np.random.default_rng(30)
    for x in _fsum_arrays():
        _fsum_agrees(x)
        _fsum_agrees(x, np.ones(x.shape[0]))
        _fsum_agrees(x, 2.0 * np.ones(x.shape[0]))
        _fsum_agrees(x, rng.integers(1, 3, size=x.shape[0]).astype(float))
        _fsum_agrees(x[::-1])
    with pytest.raises(ValueError):
        _kernels.fsum(np.ones(3), np.ones(2))


def test_fsum_non_finite_terms_give_math_fsums_result():
    """inf and NaN terms, inf + -inf and an intermediate overflow return or
    raise as math.fsum does, counts included."""
    inf, nan = math.inf, math.nan
    assert _fsum_agrees([1.0, inf, 2.0]) == struct.pack("<d", inf)
    assert _fsum_agrees([1.0, -inf]) == struct.pack("<d", -inf)
    assert _fsum_agrees([1.0, nan, 2.0]) == "nan"
    assert _fsum_agrees([inf, 1.0, -inf]) is ValueError
    assert _fsum_agrees([1e308, 1e308, -1e308]) is OverflowError
    assert _fsum_agrees([1e308, 1.0], [2.0, 1.0]) == struct.pack("<d", inf)
    assert _fsum_agrees([1e308, -1e308, 3.0], [2.0, 2.0, 1.0]) is ValueError


@given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from([1.0, 2.0])), max_size=60))
def test_fsum_matches_math_fsum(terms):
    x = [t for t, _ in terms]
    _fsum_agrees(x)
    _fsum_agrees(x, np.array([c for _, c in terms], dtype=np.float64).reshape(-1))


def _record_steps(monkeypatch, step, construct):
    """(plan, state p, near set, bound, scores) at every scoring step of
    construct(), run with step as _kernels.cbc_step."""
    states = []

    def recording(st, b, gamma, score):
        n = step(st, b, gamma, score)
        if score:
            states.append((st.plan, st.p.copy(), st.near[:n].copy(), float(st.bound[0]),
                           st.sc.copy()))
        return n

    monkeypatch.setattr(_kernels, "cbc_step", recording)
    construct()
    monkeypatch.undo()
    return states


def _near(step, plan, p, monkeypatch):
    """The near set of the state p, scored by step (b = -1 leaves p as it is)."""
    monkeypatch.setattr(_kernels, "cbc_step", step)
    st = plan.start()
    st.p[...] = p
    near = plan.step(st, -1, 0.0)
    monkeypatch.undo()
    return near


STEP_WEIGHTS = {"0.95^j": lambda j: 0.95**j, "1/j^2": lambda j: 1.0 / j**2,
                "0.52^j": lambda j: 0.52**j}


def _assert_steps_agree(monkeypatch, construct, s, check_all):
    """Runs construct() with the compiled step and with its numpy twin: both
    keep the same states and give the same scores, bit for bit (the update
    is the same element-wise product, and both sum the short tail in the
    same order); where either near set has one candidate the other holds it
    too, and both hold every candidate of least exact gather sum, the
    rescore's choice, at every component if check_all, else at the last."""
    compiled = _record_steps(monkeypatch, _kernels.cbc_step, construct)
    twin = _record_steps(monkeypatch, _slowpath.cbc_step, construct)
    assert len(compiled) == len(twin) == s - 1
    for d, ((plan, p, near, bound, sc), (_, p_twin, near_twin, bound_twin, sc_twin)) in (
            enumerate(zip(compiled, twin), start=2)):
        assert np.array_equal(p, p_twin), d
        assert np.array_equal(sc, sc_twin), d
        assert np.isfinite(bound) and bound == pytest.approx(bound_twin, rel=1e-12), d
        if near.shape[0] == 1 or near_twin.shape[0] == 1:
            assert set(near) & set(near_twin), (d, near, near_twin)
        if near.shape[0] == 1 and near_twin.shape[0] == 1:
            assert near[0] == near_twin[0], d
        if check_all or d == s:
            q = p[plan.natural]
            vals = np.array([_gather_score(q, plan, b) for b in range(plan.z.shape[0])])
            best = set(np.flatnonzero(vals == vals.min()).tolist())
            assert best <= set(near.tolist()) and best <= set(near_twin.tolist()), d


@pytest.mark.parametrize("weights", sorted(STEP_WEIGHTS))
@pytest.mark.parametrize("alpha", [2.0, 3.0])
@pytest.mark.parametrize("N", [2, 4, 8, 61, 127, 131, 256, 509, 2048, 8147])
def test_cbc_step_backends_agree(N, alpha, weights, monkeypatch):
    """The compiled fast-CBC step and its numpy twin agree on the states of
    real std-cbc runs and, at prime N, of Korobov runs under the same
    weights (_assert_steps_agree). The states at N = 8147 are checked
    against the gather sums at the last component only, to keep the test
    short."""
    s = 12
    w = power_weights(ProductWeights(tuple(map(STEP_WEIGHTS[weights], range(1, s + 1)))),
                      alpha)
    _assert_steps_agree(monkeypatch, lambda: construct_standard_cbc(N, s, alpha, w), s, N < 8000)
    if N > 2 and is_prime(N):
        _assert_steps_agree(monkeypatch, lambda: construct_korobov_cbc(N, s, w), s, N < 8000)


@pytest.mark.parametrize("N", [2, 61, 256, 131, 2048])
def test_cbc_step_reports_non_finite_scores(N, monkeypatch):
    """A state whose scores hold a NaN, or whose least score is -inf or
    +inf, has no near set on either backend: the construction reports it.
    So has one NaN or -inf transform score among finite ones, while one
    +inf is merely not near. A state whose norm leaves double range makes
    neither backend raise."""
    plan = scoring_plan(N, fourier_decay_table(2.0, N) if N % 2 == 0 else omega_table(N))
    n = plan.start().p.shape[0]
    states = []
    for i in sorted({0, n // 2, n - 1}):
        p = np.ones(n)
        p[i] = np.nan
        states.append(p)
        p = np.zeros(n)
        p[i] = np.inf
        states.append(p)
        states.append(-p)
    with np.errstate(over="ignore", invalid="ignore"):
        for p in states:
            st = plan.start()
            st.p[...] = p
            assert plan.step(st, -1, 0.0) is None, p
            assert np.isnan(st.sc).any() or not np.isfinite(st.sc.min()), p
            assert _near(_slowpath.cbc_step, plan, p, monkeypatch) is None, p
        if plan.levels:  # one bad transform score among finite ones
            for step in (_kernels.cbc_step, _slowpath.cbc_step):
                for bad in (np.nan, -np.inf, np.inf):
                    st = plan.start()
                    st.sc[...] = 1.0
                    i = st.sc.shape[0] // 2
                    st.sc[i] = bad
                    k = step(st, -1, 0.0, True)
                    if bad == np.inf:  # the least score is finite: i is merely not near
                        assert k > 0 and i not in st.near[:k], step
                    else:
                        assert k == 0, (step, bad)
        # a norm beyond double range makes the bound inf rather than an error
        p = np.full(n, 1e308)
        near = _near(_kernels.cbc_step, plan, p, monkeypatch)
        near_twin = _near(_slowpath.cbc_step, plan, p, monkeypatch)
        assert (near is None) == (near_twin is None)


@pytest.mark.parametrize("N, s", [(127, 33), (509, 34)])
def test_cbc_step_bound_stays_finite_for_large_running_products(N, s, monkeypatch):
    """Under gamma_j = 3^j, max|q| passes 1e154 and the sum of squares of the
    bound's norms overflows. Both backends scale them instead, so every
    bound stays finite, fewer than s candidates are rescored in all, and the
    vector is cbc_naive's. N = 127 scores the short tail alone, N = 509 one
    long level alone."""
    w = ProductWeights(tuple(3.0**j for j in range(1, s + 1)))
    naive = cbc_naive(N, s, w.gammas, omega_table(N))
    for step in (_kernels.cbc_step, _slowpath.cbc_step):
        calls = []

        def counting(q, plan, b):
            calls.append(b)
            return _gather_score(q, plan, b)

        monkeypatch.setattr(cbc, "_gather_score", counting)
        bounds = [bound for _, _, _, bound, _ in _record_steps(
            monkeypatch, step, lambda: calls.append(construct_korobov_cbc(N, s, w)))]
        vector = calls.pop()
        assert vector == naive
        assert len(bounds) == s - 1 and np.isfinite(bounds).all()
        assert len(calls) < s, len(calls)


def test_cbc_step_rejects_a_candidate_out_of_range():
    plan = scoring_plan(61, omega_table(61))
    for step in (_kernels.cbc_step, _slowpath.cbc_step):
        for b in (-2, plan.z.shape[0]):
            with pytest.raises(ValueError, match="out of range"):
                step(plan.start(), b, 0.5, True)


def _run(code, **env):
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, **env), check=True,
    )
    return out.stdout


def test_pure_env_forces_numpy_backend():
    out = _run("import latgen; print(latgen.BACKEND); print(latgen.BACKEND_REASON)",
               LATGEN_PURE="1")
    assert out.splitlines() == ["numpy", "forced by LATGEN_PURE=1"]


# The weight families of test_acceptance.py, n = 2..12 at s = 100: exact
# score ties are common on this grid, so the vectors agree only if every
# backend breaks ties the same way. At n = 14 and 16 the numpy score dots run
# over up to N/4 terms, long enough for BLAS to pick its own summation order.
# The c^j cells after them are near-ties at TIE_RTOL, where a score
# comparison of two rounded sums split the backends.
GRID_CODE = (
    "import latgen\n"
    "from latgen.cbc_dbd import construct_cbc_dbd\n"
    "from latgen.cbc import construct_korobov_cbc\n"
    "from latgen.weights import ProductWeights\n"
    "print(latgen.BACKEND)\n"
    "for make, large in ((lambda j: 1.0/j**2, (14, 16)), (lambda j: 1.0/j**3, ()),\n"
    "                    (lambda j: 0.95**j, ()), (lambda j: 0.7**j, (14, 16))):\n"
    "    w = ProductWeights(tuple(make(j) for j in range(1, 101)))\n"
    "    for n in (*range(2, 13), *large):\n"
    "        print(n, construct_cbc_dbd(n, 100, w).z)\n"
    "for n, c in ((10, 0.518), (12, 0.632), (12, 0.694), (12, 0.71), (12, 0.722)):\n"
    "    w = ProductWeights(tuple(c**j for j in range(1, 101)))\n"
    "    print(n, c, construct_cbc_dbd(n, 100, w).z)\n"
    "w = ProductWeights(tuple(1.0/j**2 for j in range(1, 7)))\n"
    "print(construct_korobov_cbc(127, 6, w).z)\n"
)


def test_constructions_identical_across_backends():
    compiled = _run(GRID_CODE, LATGEN_PURE="0").splitlines()
    pure = _run(GRID_CODE, LATGEN_PURE="1").splitlines()
    # The unforced run loads what this process loaded or, when this process
    # runs under LATGEN_PURE=1, the C kernel.
    forced = latgen.BACKEND_REASON.startswith("forced by LATGEN_PURE")
    assert compiled[0] == ("c" if forced else latgen.BACKEND) and pure[0] == "numpy"
    assert len(compiled) == 4 * 11 + 2 * 2 + 5 + 2
    assert compiled[1:] == pure[1:]


# Every lattice sum and theorem bound on the grid of test_error.py, printed
# exactly: the C kernel and the numpy twin must give the same doubles.
SUMS_CODE = (
    "import numpy as np\n"
    "import latgen\n"
    "from latgen.error import (bound_thm_cbc, bound_thm_cbcdbd, bound_thm_existence,\n"
    "                          lattice_kernel_sum)\n"
    "from latgen.kernel import fourier_decay_table, kernel_table, omega_table, vartheta_table\n"
    "from latgen.numtheory import GeneratingVector, gcd, is_prime\n"
    "from latgen.weights import ProductWeights\n"
    "print(latgen.BACKEND)\n"
    "for N in (3, 61, 127, 131, 257, 16381, 2, 4, 8, 16, 256, 512, 4096, 1 << 16, 6, 12, 100):\n"
    "    rng = np.random.default_rng(N)\n"
    "    units = [k for k in range(1, N) if gcd(k, N) == 1]\n"
    "    tables = [fourier_decay_table(2.0, N), fourier_decay_table(2.5, N),\n"
    "              vartheta_table(N), kernel_table(N), omega_table(N)]\n"
    "    for s in (1, 2, 100):\n"
    "        v = GeneratingVector(N, tuple(int(z) for z in rng.choice(units, size=s)))\n"
    "        for make in (lambda j: 1.0 / j**2, lambda j: 0.5**j):\n"
    "            w = ProductWeights(tuple(make(j) for j in range(1, s + 1)))\n"
    "            bound = (bound_thm_cbcdbd(N, w) if N & (N - 1) == 0\n"
    "                     else bound_thm_cbc(N, w) if is_prime(N) else 0.0)\n"
    "            print(N, s, [lattice_kernel_sum(v, tab, w).hex() for tab in tables],\n"
    "                  bound_thm_existence(N, w).hex(), bound.hex())\n"
)


def test_lattice_sums_identical_across_backends():
    compiled = _run(SUMS_CODE, LATGEN_PURE="0").splitlines()
    pure = _run(SUMS_CODE, LATGEN_PURE="1").splitlines()
    forced = latgen.BACKEND_REASON.startswith("forced by LATGEN_PURE")
    assert compiled[0] == ("c" if forced else latgen.BACKEND) and pure[0] == "numpy"
    assert len(compiled) == 1 + 17 * 3 * 2
    assert compiled[1:] == pure[1:]


VECTOR_CODE = (
    "import latgen\n"
    "from latgen.cbc_dbd import construct_cbc_dbd\n"
    "from latgen.weights import ProductWeights\n"
    "w = ProductWeights(tuple(1.0/j**3 for j in range(1, 41)))\n"
    "print(latgen.BACKEND)\n"
    "print(latgen.BACKEND_REASON)\n"
    "print(construct_cbc_dbd(10, 40, w).z)\n"
)


def _expected_vector():
    w = latgen.ProductWeights(tuple(1.0 / j**3 for j in range(1, 41)))
    return str(latgen.construct_cbc_dbd(10, 40, w).z)


@pytest.mark.skipif(_kernels.find_compiler() is None, reason="no C compiler on PATH")
def test_concurrent_first_imports_share_one_compile(tmp_path):
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), LATGEN_PURE="0")
    procs = [
        subprocess.Popen([sys.executable, "-c", VECTOR_CODE], env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for _ in range(6)
    ]
    outs = [proc.communicate(timeout=120) for proc in procs]
    assert [proc.returncode for proc in procs] == [0] * 6, [err for _, err in outs]
    expected = _expected_vector()
    for out, _ in outs:
        backend, reason, vector = out.splitlines()
        assert backend == "c", reason
        assert vector == expected
    cached = os.listdir(tmp_path / "latgen")
    assert len(cached) == 1 and cached[0].endswith(".so"), cached


@pytest.mark.parametrize("broken", ["no compiler", "cache not writable"])
def test_fallback_reports_its_reason(tmp_path, broken):
    env = {"LATGEN_PURE": "0", "XDG_CACHE_HOME": str(tmp_path)}
    if broken == "no compiler":
        (tmp_path / "bin").mkdir()
        env["PATH"] = str(tmp_path / "bin")
        expected_reason = "no C compiler found on PATH"
    else:
        (tmp_path / "file").write_text("")
        env["XDG_CACHE_HOME"] = str(tmp_path / "file")
        expected_reason = "is not writable"
    backend, reason, vector = _run(VECTOR_CODE, **env).splitlines()
    assert backend == "numpy"
    assert expected_reason in reason
    assert vector == _expected_vector()
