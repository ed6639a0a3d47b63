"""Output checks. Nothing here is timed, and nothing here calls latgen.

The worst-case error is evaluated from its character-sum form,

    e = -1 + (1/N) sum_{k=0}^{N-1} prod_j (1 + gamma_j D_alpha({k z_j / N})),
    D_alpha(x) = sum_{m != 0} e^(2 pi i m x) / |m|^alpha,

with D_alpha at the N residues taken from Hurwitz zeta sums and numpy's FFT.
Each constructed vector is compared with RANDOM_VECTORS seeded random
vectors at the same N, s, alpha and weights. std-cbc minimizes exactly the
error it is checked on, so it must beat their median. The smoothness-free
constructions (cbc-dbd, korobov-cbc) do not target alpha: at N <= 2^9 and
alpha 3 or 4 a cbc-dbd vector often sits near the random median, so they
must beat the worst random vector.
"""

import csv
import io
import json
import math
import random
import statistics
from math import gcd

import numpy as np
from scipy.special import zeta

#: Random vectors per random floor.
RANDOM_VECTORS = 15
#: A reported error agrees with ours when |reported - ours| is within
#: WCE_RTOL * ours + WCE_ATOL * sum_j gamma_j. In spot checks on these
#: workloads the two differed by under 2e-8 relative and 2e-16 absolute.
WCE_RTOL = 1e-6
WCE_ATOL = 1e-15


class CheckFailed(Exception):
    pass


def decay_table(alpha: float, N: int) -> np.ndarray:
    """D_alpha(a / N) for a = 0..N-1.

    Folding m by its residue r mod N, S[r] = sum_{m > 0, m = r} m^-alpha =
    N^-alpha zeta(alpha, r / N), and D_alpha(a / N) = 2 Re sum_r S[r] e^(-2 pi i r a / N).
    """
    q = np.arange(N, dtype=float) / N
    q[0] = 1.0  # zeta(alpha, 1) = zeta(alpha) covers the residue 0
    S = zeta(alpha, q) * float(N) ** -alpha
    tab = 2.0 * np.fft.fft(S).real
    tab[1:] = 0.5 * (tab[1:] + tab[:0:-1])  # D(x) = D(1 - x), exactly
    return tab


def wce(z, N: int, tab: np.ndarray, gammas) -> float:
    """Worst-case error of the rank-1 rule (N, z) from the residue table tab.

    d = prod - 1 is accumulated directly (d' = d + x (1 + d)), so tiny
    per-point values keep their relative precision.
    """
    k = np.arange(N, dtype=np.int64)
    d = np.zeros(N)
    for zj, g in zip(z, gammas):
        x = g * tab[(k * zj) % N]
        d += x * (1.0 + d)
    return math.fsum(d) / N


def units(N: int) -> np.ndarray:
    return np.array([a for a in range(1, N) if gcd(a, N) == 1], dtype=np.int64)


def parse_vector(text: str):
    """(N, z) from a `# latgen v1` vector file, parsed here, not by latgen."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) < 3 or lines[0] != "# latgen v1":
        raise CheckFailed("not a latgen v1 vector file")
    if not (lines[1].startswith("N=") and lines[2].startswith("s=")):
        raise CheckFailed("missing N=/s= lines")
    N, s = int(lines[1][2:]), int(lines[2][2:])
    pairs = [tuple(int(x) for x in ln.split()) for ln in lines[3:]]
    if [j for j, _ in pairs] != list(range(1, s + 1)):
        raise CheckFailed("component lines are not 1..%d" % s)
    return N, tuple(zj for _, zj in pairs)


class Checker:
    """Checks the outputs of one workload at one seed.

    It remembers the first vector each construct op produced (the same op
    must give the same vector in every pass) and caches residue tables,
    random floors and error values, so repeated outputs cost little.
    """

    def __init__(self, workload):
        self.workload = workload
        self.reference = {}  # op key -> z of the first output
        self._tables = {}
        self._random = {}  # (N, s, alpha, powered) -> errors of random vectors
        self._wce = {}

    # ------------------------------------------------------------- helpers

    def gammas(self, alpha: float, powered: bool, s: int):
        g = self.workload.gammas[:s]
        return tuple(x ** alpha for x in g) if powered else g

    def table(self, alpha: float, N: int) -> np.ndarray:
        if (alpha, N) not in self._tables:
            self._tables[alpha, N] = decay_table(alpha, N)
        return self._tables[alpha, N]

    def wce_of(self, z, N: int, alpha: float, powered: bool) -> float:
        key = (tuple(z), N, alpha, powered)
        if key not in self._wce:
            self._wce[key] = wce(z, N, self.table(alpha, N),
                                 self.gammas(alpha, powered, len(z)))
        return self._wce[key]

    def random_errors(self, N: int, s: int, alpha: float, powered: bool):
        """Errors of seeded random vectors (z_1 = 1, other z_j units mod N)."""
        key = (N, s, alpha, powered)
        if key not in self._random:
            rng = random.Random("floor/%d/%d/%d/%r/%d" % (
                self.workload.seed, N, s, alpha, powered))
            pool = units(N).tolist()
            self._random[key] = [
                self.wce_of((1,) + tuple(rng.choice(pool) for _ in range(s - 1)),
                            N, alpha, powered)
                for _ in range(RANDOM_VECTORS)]
        return self._random[key]

    def _beats_floor(self, op, e: float):
        errs = self.random_errors(op.N, op.s, op.alpha, op.powered)
        rule, f = ("median", statistics.median(errs)) if op.algo == "std-cbc" else ("worst", max(errs))
        if not 0.0 < e < f:
            raise CheckFailed("wce %.6g is not below the %s random vector's %.6g" % (e, rule, f))

    # -------------------------------------------------------------- checks

    def check(self, op, out) -> str:
        """None if the output of `op` is correct, else the reason it is not.

        out holds rc, stdout and text: the vector file a construct wrote or
        an error read, or the CSV a sweep wrote.
        """
        if out.rc != 0:
            return "exit code %s" % out.rc
        try:
            getattr(self, "_check_" + op.kind)(op, out)
        except CheckFailed as exc:
            return str(exc)
        except (ValueError, KeyError, TypeError) as exc:
            return "unreadable output: %r" % (exc,)
        return None

    def _check_construct(self, op, out):
        N, z = parse_vector(out.text)
        if (N, len(z)) != (op.N, op.s):
            raise CheckFailed("got N=%d s=%d, asked N=%d s=%d" % (N, len(z), op.N, op.s))
        if not all(0 < zj < N and gcd(zj, N) == 1 for zj in z):
            raise CheckFailed("a component is not a unit mod N")
        ref = self.reference.setdefault(op.key, z)
        if z != ref:
            raise CheckFailed("vector differs from the one this op gave before")
        self._beats_floor(op, self.wce_of(z, N, op.alpha, op.powered))

    def _check_error(self, op, out):
        rep = json.loads(out.stdout)
        N, z = parse_vector(out.text)
        if (rep["N"], rep["s"], rep["alpha"]) != (N, len(z), op.alpha):
            raise CheckFailed("report header does not match the vector and argv")
        ours = self.wce_of(z, N, op.alpha, op.powered)
        tol = WCE_RTOL * abs(ours) + WCE_ATOL * sum(self.gammas(op.alpha, op.powered, len(z)))
        if not abs(rep["wce"] - ours) <= tol:
            raise CheckFailed("wce %r disagrees with %r" % (rep["wce"], ours))
        bounds = [v for k, v in rep.items() if k.startswith("bound_")]
        if len(bounds) != 1 or not 0.0 < rep["T"] <= bounds[0]:
            raise CheckFailed("T %r is not within the theorem bound %r" % (rep.get("T"), bounds))

    def _check_sweep(self, op, out):
        rows = list(csv.DictReader(io.StringIO(out.text)))
        if len(rows) != 1:
            raise CheckFailed("expected one CSV row, got %d" % len(rows))
        r = rows[0]
        got = (int(r["N"]), int(r["s"]), float(r["alpha"]), r["weights_id"], r["algorithm"])
        want = (op.N, op.s, op.alpha, op.weights_arg, op.algo)
        if got != want:
            raise CheckFailed("row %r does not match argv %r" % (got, want))
        if not (float(r["construct_seconds"]) >= 0.0 and float(r["eval_seconds"]) >= 0.0):
            raise CheckFailed("negative timing in row")
        self._beats_floor(op, float(r["wce"]))
