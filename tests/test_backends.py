"""Interchangeable implementations must agree: the C kernel and the numpy
fallback, the per-component level fold and the per-level walk, and the
vectorized products and their plain loops."""

import os
import subprocess
import sys

import numpy as np
import pytest

import latgen
from latgen import _kernels, _slowpath
from latgen.cbc import _accumulate_product, _gather_score, _natural_column
from latgen.kernel import kernel_table
from latgen.numtheory import unit_layout


def test_backend_is_reported():
    assert latgen.BACKEND in ("c", "numpy")
    assert _kernels.BACKEND == latgen.BACKEND
    assert latgen.BACKEND_REASON


def _random_state(n, seed):
    rng = np.random.default_rng(seed)
    N = 1 << n
    p = rng.uniform(0.5, 2.0, size=N - 1)
    ktab = kernel_table(N)
    return p, ktab


@pytest.mark.parametrize("n", [3, 5, 7])
def test_dbd_score_pair_backends_agree(n):
    """The level sums folded once at the start of a component give the walk's
    score pair at every level, while the levels below are updated."""
    p, ktab = _random_state(n, n)
    gamma = 0.37
    P = np.empty(1 << n)
    _slowpath.dbd_fold(p, n, P)
    zr = 1
    for v in range(2, n + 1):
        half = 1 << (v - 1)
        k = np.arange(1, 1 << v, 2)
        Pv = P[half : 2 * half]
        for x0 in range(1, half, 2):
            pair = [
                sum(Pv[i] * (1.0 + gamma * ktab[(int(k[i]) * x % (1 << v)) << (n - v)])
                    for i in range(half))
                for x in (x0, x0 + half)
            ]
            walk = _slowpath.dbd_score_pair(p, ktab, n, v, x0, gamma)
            assert walk == pytest.approx(pair, rel=1e-12)
        zr += half * (v % 2)  # any bits will do; the fold must not see them
        _slowpath.dbd_update(p, ktab, n, v, zr, gamma)


@pytest.mark.parametrize("n", [3, 6])
def test_dbd_update_backends_agree(n):
    p1, ktab = _random_state(n, 10 + n)
    p2 = p1.copy()
    for v in range(2, n + 1):
        z = (1 << v) - 1
        _slowpath.dbd_update(p1, ktab, n, v, z, 0.2)
        for k in range(1, 1 << v, 2):
            p2[k * (1 << (n - v)) - 1] *= 1.0 + 0.2 * ktab[(k * z % (1 << v)) << (n - v)]
    assert np.array_equal(p1, p2)


def test_accumulate_and_gather_backends_agree():
    rng = np.random.default_rng(5)
    for N, zs in ((64, (1, 7, 33, 63)), (61, (1, 2, 17, 60))):
        tab = kernel_table(N)
        column = _natural_column(unit_layout(N), tab)
        q1 = rng.uniform(0.5, 2.0, size=N - 1)
        q2 = q1.copy()
        for z in zs:
            _accumulate_product(q1, column, z, 0.11)
            for i in range(N - 1):
                q2[i] *= 1.0 + 0.11 * tab[(i + 1) * z % N]
            assert np.array_equal(q1, q2)
            loop = sum(q2[i] * tab[(i + 1) * z % N] for i in range(N - 1))
            assert _gather_score(q1, column, z) == pytest.approx(loop, rel=1e-12)


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
# backend breaks ties the same way. The c^j cells after it are near-ties at
# TIE_RTOL, where a score comparison of two rounded sums split the backends.
GRID_CODE = (
    "import latgen\n"
    "from latgen.cbc_dbd import construct_cbc_dbd\n"
    "from latgen.cbc import construct_korobov_cbc\n"
    "from latgen.weights import ProductWeights\n"
    "print(latgen.BACKEND)\n"
    "for make in (lambda j: 1.0/j**2, lambda j: 1.0/j**3,\n"
    "             lambda j: 0.95**j, lambda j: 0.7**j):\n"
    "    w = ProductWeights(tuple(make(j) for j in range(1, 101)))\n"
    "    for n in range(2, 13):\n"
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
    assert len(compiled) == 4 * 11 + 5 + 2
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
