"""The benchmark's workloads: the CLI calls of one pass, generated from a seed.

A seed fixes the weight sequence, the prime moduli of cbc-fft and the order
of the calls in a pass; the work each call does does not depend on it. The
program sees only argv and the files written here.
"""

import os
import random
from dataclasses import dataclass
from typing import Optional, Tuple

#: Dimension of every construction.
S = 100

NAMES = ("dbd-pow2", "cbc-fft", "sweep-small")


@dataclass(frozen=True)
class Op:
    """One CLI call and what its output must satisfy.

    kind is "construct", "error" or "sweep". key names the call within its
    workload and is the same in every pass. alpha and powered say at which
    smoothness, and with weights gamma_j or gamma_j^alpha, the output's
    worst-case error is checked. path is the vector file a construct writes
    or an error reads, or the CSV a sweep writes.
    """

    kind: str
    key: str
    argv: Tuple[str, ...]
    N: int
    s: int
    alpha: float
    powered: bool
    path: str
    algo: Optional[str] = None
    weights_arg: Optional[str] = None


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    gammas: Tuple[float, ...]
    ops: Tuple[Op, ...]
    min_rows: int = 1  # fewest timed CLI calls a run may hold


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prev_prime(n: int) -> int:
    while not is_prime(n):
        n -= 1
    return n


def seeded_gammas(rng: random.Random, s: int = S) -> Tuple[float, ...]:
    """gamma_j = j^-a with a in [2, 3], or c^j with c in [0.5, 0.8]."""
    if rng.random() < 0.5:
        a = rng.uniform(2.0, 3.0)
        return tuple(j ** -a for j in range(1, s + 1))
    c = rng.uniform(0.5, 0.8)
    return tuple(c ** j for j in range(1, s + 1))


def seeded_prime(rng: random.Random, k: int) -> int:
    """A prime in (0.97 * 2^k, 2^k]: the size, and so the work, barely moves,
    while the factorisation of N - 1 changes from seed to seed."""
    lo = int(0.97 * (1 << k))
    return rng.choice([p for p in range(lo + 1, (1 << k) + 1) if is_prime(p)])


def construct_op(work: str, weights_arg: str, algo: str, s: int, *, n: int = None,
                 N: int = None, alpha: float = None, check_alpha: float,
                 powered: bool) -> Op:
    """`latgen construct`; give n for N = 2^n or N for a prime modulus."""
    modulus = ["--n", str(n)] if n is not None else ["--N", str(N)]
    size = "n%d" % n if n is not None else "N%d" % N
    key = "construct:%s:%s" % (algo, size)
    if alpha is not None:
        key += ":a%g" % alpha
    path = os.path.join(work, key.replace(":", "_") + ".txt")
    argv = ["construct", "--algo", algo, *modulus, "--s", str(s),
            "--weights", weights_arg, "--out", path]
    if alpha is not None:
        argv += ["--alpha", repr(float(alpha))]
    return Op("construct", key, tuple(argv), 1 << n if n is not None else N, s,
              check_alpha, powered, path, algo, weights_arg)


def error_op(src: Op, alpha: float, powered: bool) -> Op:
    """`latgen error` on the vector `src` writes, as JSON with T and bounds."""
    argv = ["error", "--vector", src.path, "--alpha", repr(float(alpha)),
            "--weights", src.weights_arg]
    if powered:
        argv.append("--apply-power")
    argv += ["--with-T", "--with-bounds", "--format", "json"]
    key = "error:%s:a%g" % (src.key.split(":", 1)[1], alpha)
    return Op("error", key, tuple(argv), src.N, src.s, alpha, powered, src.path,
              weights_arg=src.weights_arg)


def sweep_op(work: str, weights_arg: str, algo: str, s: int, n: int, alpha: float,
             prime: bool) -> Op:
    """`latgen sweep` producing one row, at N = 2^n or the prime below it."""
    flag = "--prime-near-pow2" if prime else "--n-range"
    key = "sweep:%s:%s%d:a%g" % (algo, "p" if prime else "n", n, alpha)
    path = os.path.join(work, key.replace(":", "_") + ".csv")
    argv = ("sweep", "--algo", algo, "--weights", weights_arg, "--alpha-list",
            repr(float(alpha)), "--s", str(s), flag, "%d..%d" % (n, n), "--out", path)
    N = prev_prime(1 << n) if prime else 1 << n
    return Op("sweep", key, argv, N, s, alpha, True, path, algo, weights_arg)


def write_weights(path: str, gammas) -> str:
    with open(path, "w") as fh:
        fh.writelines("%r\n" % g for g in gammas)
    return "product:list:" + path


def _dbd_pow2(rng, work, wa):
    ops = []
    for n in rng.sample((14, 15, 16), 3):
        c = construct_op(work, wa, "cbc-dbd", S, n=n, check_alpha=2.0, powered=True)
        ops.append(c)
        ops += [error_op(c, a, True) for a in rng.sample((2.0, 2.5), 2)]
    return ops, 1


def _cbc_fft(rng, work, wa):
    p13, p14 = seeded_prime(rng, 13), seeded_prime(rng, 14)
    specs = [("korobov-cbc", dict(N=p13)), ("korobov-cbc", dict(N=p14)),
             ("std-cbc", dict(N=p13, alpha=2.0)), ("std-cbc", dict(N=p14, alpha=2.0)),
             ("std-cbc", dict(n=14, alpha=3.0)), ("std-cbc", dict(n=15, alpha=3.0))]
    ops = []
    for algo, size in rng.sample(specs, len(specs)):
        # std-cbc is checked on the error it minimizes; korobov-cbc at 2.5
        check = dict(check_alpha=size.get("alpha", 2.5), powered="alpha" in size)
        c = construct_op(work, wa, algo, S, **check, **size)
        ops += [c, error_op(c, 2.5, False)]
    return ops, 1


def _sweep_small(rng, work, wa):
    ops = [sweep_op(work, wa, algo, S, n, alpha, prime)
           for n in range(6, 12) for alpha in (2.0, 3.0, 4.0)
           for algo, prime in (("cbc-dbd", False), ("std-cbc", False),
                               ("korobov-cbc", True), ("std-cbc", True))]
    rng.shuffle(ops)
    # 100 rows give the 90th percentile ten rows beyond it.
    return ops, 100


_PASS_OF = {"dbd-pow2": _dbd_pow2, "cbc-fft": _cbc_fft, "sweep-small": _sweep_small}


def make_workload(name: str, seed: int, work: str) -> Workload:
    """Write the seeded weight file into `work` and return one pass of calls."""
    rng = random.Random("%s/%d" % (name, seed))
    gammas = seeded_gammas(rng)
    wa = write_weights(os.path.join(work, "weights.txt"), gammas)
    ops, min_rows = _PASS_OF[name](rng, work, wa)
    return Workload(name, seed, gammas, tuple(ops), min_rows)
