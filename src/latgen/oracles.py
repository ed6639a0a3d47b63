"""Slow, direct references that the tests and the oracle suite check against.

Each one computes a quantity from its definition, with no layout, transform
or fold, so that it shares no code with the library path it checks:

- omega, log_inv_sin2, vartheta_truncated and fourier_decay_sum evaluate the
  kernels one point at a time (kernel.omega_table, kernel_table,
  vartheta_table and fourier_decay_table build the same values for every
  residue); fourier_decay_sum takes the Bernoulli polynomial in exact
  rational arithmetic at even alpha, the truncated series otherwise;
- wce_bruteforce enumerates the dual lattice for the worst-case error e,
  with a rigorous tail bound (error.wce_product);
- h_naive sums the digit-wise quality h of CBC-DBD over subsets
  (cbc_dbd.construct_cbc_dbd);
- cbc_naive is the O(N^2) greedy CBC over natural-order gathers (the fast
  CBC of cbc.construct_korobov_cbc and cbc.construct_standard_cbc);
- weight_of looks up gamma_u in either weight model.

Nothing in the library imports this module.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .kernel import _check_alpha, zeta
from .numtheory import GeneratingVector
from .weights import GeneralWeights, Weights

__all__ = [
    "omega",
    "log_inv_sin2",
    "vartheta_truncated",
    "fourier_decay_sum",
    "ErrorInterval",
    "wce_bruteforce",
    "h_naive",
    "cbc_naive",
    "weight_of",
]

#: Maximum number of series terms for the truncated Fourier decay sum.
TRUNCATION_CAP = 10**7

#: wce_bruteforce enumerates (2M-1)^s points.
BRUTEFORCE_MAX_POINTS = 40_000_000

#: h_naive enumerates subsets of {1..r-1}; keep that tractable.
H_NAIVE_MAX_R = 12


def omega(x: float) -> float:
    """-2 ln(2 sin(pi x)) for x in (0, 1); undefined at the endpoints."""
    if not 0.0 < x < 1.0:
        raise ValueError("omega is undefined outside (0,1), got x=%r" % (x,))
    return -2.0 * math.log(2.0 * math.sin(math.pi * x))


def log_inv_sin2(x: float) -> float:
    """ln(1/sin^2(pi x)) = omega(x) + ln 4 for x in (0, 1)."""
    if not 0.0 < x < 1.0:
        raise ValueError("log_inv_sin2 is undefined outside (0,1), got x=%r" % (x,))
    return -2.0 * math.log(math.sin(math.pi * x))


def vartheta_truncated(x: float, N: int) -> float:
    """sum_{m=1}^{N-1} 2 cos(2 pi m x) / m, compensated summation."""
    if N < 1:
        raise ValueError("need N >= 1")
    return math.fsum(2.0 * math.cos(2.0 * math.pi * m * x) / m for m in range(1, N))


def _decay_truncated(alpha: float, x: float, tol: float) -> float:
    """sum_{m=1}^{M} 2 cos(2 pi m x) / m^alpha with tail bound <= tol."""
    # tail: sum_{m>M} 2/m^alpha <= 2 M^(1-alpha) / (alpha-1)
    M = int(math.ceil((2.0 / ((alpha - 1.0) * tol)) ** (1.0 / (alpha - 1.0))))
    if M > TRUNCATION_CAP:
        raise ValueError(
            "tolerance %g requires %d terms, above the cap %d" % (tol, M, TRUNCATION_CAP)
        )
    partials = []
    chunk = 1 << 18
    for start in range(1, M + 1, chunk):
        m = np.arange(start, min(start + chunk, M + 1), dtype=float)
        partials.append(float(np.sum(2.0 * np.cos(2.0 * np.pi * m * x) * m ** (-alpha))))
    return math.fsum(partials)


def fourier_decay_sum(alpha: float, x: float, tol: float = 1e-12) -> float:
    """sum_{m in Z, m != 0} e^{2 pi i m x} / |m|^alpha.

    For alpha in {2, 4, 6, 8} the closed form
    (-1)^(alpha/2+1) (2 pi)^alpha B_alpha(x) / alpha!, with B_alpha(x) / alpha!
    evaluated exactly at the rational x and rounded once; otherwise a
    truncated cosine series with absolute error <= tol.
    """
    _check_alpha(alpha)
    if tol <= 0.0:
        raise ValueError("requires tol > 0")
    x = x % 1.0
    if alpha in (2.0, 4.0, 6.0, 8.0):
        # the Bernoulli numbers from sum_{k=0}^{m} C(m+1, k) B_k = 0 (B_1 = -1/2),
        # then B_a(x) = sum_k C(a, k) B_k x^(a-k)
        a, x, B = int(alpha), Fraction(x), [Fraction(1)]
        for m in range(1, a + 1):
            B.append(-sum(math.comb(m + 1, k) * B[k] for k in range(m)) / (m + 1))
        b = sum(math.comb(a, k) * B[k] * x ** (a - k) for k in range(a + 1)) / math.factorial(a)
        return (-1.0) ** (a // 2 + 1) * (2.0 * math.pi) ** a * float(b)
    return _decay_truncated(alpha, x, tol)


def weight_of(u, w: Weights) -> float:
    """gamma_u for either weight model."""
    u = frozenset(u)
    if isinstance(w, GeneralWeights):
        return w.gamma(u)
    if not u:
        return 1.0
    if u and max(u) > w.s:
        raise ValueError("subset %r out of range for s=%d" % (set(u), w.s))
    return math.prod(w.gamma(j) for j in u)


@dataclass(frozen=True)
class ErrorInterval:
    """value plus a guarantee |true - value| <= tail_bound."""

    value: float
    tail_bound: float

    def __post_init__(self):
        if self.tail_bound < 0.0:
            raise ValueError("tail_bound must be nonnegative")

    @property
    def lower(self) -> float:
        return self.value - self.tail_bound

    @property
    def upper(self) -> float:
        return self.value + self.tail_bound


def wce_bruteforce(v: GeneratingVector, alpha: float, w, M: int) -> ErrorInterval:
    """Dual-lattice sum over the box max_j |m_j| <= M-1, with a tail bound.

    value = sum over nonzero m in the box with m.z = 0 (mod N) of
    gamma_supp(m) * prod_{j in supp} |m_j|^(-alpha). The tail bound drops the
    dual condition outside the box: per coordinate the discarded mass is at
    most 2(zeta(alpha) - sum_{m<M} m^(-alpha)), combined over subsets.
    """
    if alpha <= 1.0:
        raise ValueError("requires alpha > 1")
    if M < 2:
        raise ValueError("need truncation radius M >= 2")
    s = v.s
    if (2 * M - 1) ** s > BRUTEFORCE_MAX_POINTS:
        raise ValueError("enumeration of (2M-1)^s = %d points is infeasible" % ((2 * M - 1) ** s))
    grid = np.arange(-(M - 1), M, dtype=np.int64)
    decay = np.ones(grid.shape[0])
    decay[grid != 0] = np.abs(grid[grid != 0]).astype(float) ** (-alpha)
    gamma_lookup = np.array([
        weight_of(frozenset(j + 1 for j in range(s) if code >> j & 1), w)
        for code in range(1 << s)
    ])
    shape = lambda j: tuple(-1 if i == j else 1 for i in range(s))
    dot = sum(grid.reshape(shape(j)) * v.z[j] for j in range(s)) % v.N
    code = sum((grid.reshape(shape(j)) != 0).astype(np.int64) << j for j in range(s))
    mag = math.prod(decay.reshape(shape(j)) for j in range(s))
    mask = (dot == 0) & (code != 0)
    value = math.fsum((mag * gamma_lookup[code])[mask])

    full = 2.0 * zeta(alpha)
    head = 2.0 * math.fsum(mm ** (-alpha) for mm in range(1, M))
    tail_terms = []
    for size in range(1, s + 1):
        for u in combinations(range(1, s + 1), size):
            tail_terms.append(
                weight_of(frozenset(u), w) * (full ** size - head ** size)
            )
    return ErrorInterval(value=value, tail_bound=math.fsum(tail_terms))


def h_naive(r: int, n: int, v: int, x: int, z_prev, w) -> float:
    """Direct subset-sum evaluation of the digit-wise quality function.

    Test oracle only: cost grows with 2^r and sum_t 2^t. Accepts general or
    product weights (looked up through weight_of).
    """
    if r > H_NAIVE_MAX_R:
        raise ValueError("h_naive capped at r <= %d" % H_NAIVE_MAX_R)
    if not 2 <= v <= n:
        raise ValueError("bit level v must satisfy 2 <= v <= n")
    if x % 2 == 0:
        raise ValueError("candidate x must be odd")
    if not 0 < x < (1 << v):
        raise ValueError("candidate x must lie in (0, 2^v)")
    if len(z_prev) != r - 1:
        raise ValueError("need exactly r-1 previous components")
    if any(zj % 2 == 0 for zj in z_prev):
        raise ValueError("previous components must be odd")
    prev = list(range(1, r))
    subsets = [
        frozenset(u) for size in range(r) for u in combinations(prev, size)
    ]
    total = []
    for t in range(v, n + 1):
        mod_t = 1 << t
        k = np.arange(1, mod_t, 2, dtype=np.int64)
        L = {
            j: -2.0 * np.log(np.sin(np.pi * ((k * z_prev[j - 1]) % mod_t) / mod_t))
            for j in prev
        }
        mod_v = 1 << v
        Lx = -2.0 * np.log(np.sin(np.pi * ((k * x) % mod_v) / mod_v))
        inner = np.zeros(k.shape[0])
        for u in subsets:
            prod = np.ones(k.shape[0])
            for j in u:
                prod = prod * L[j]
            if u:
                inner += weight_of(u, w) * prod
            inner += weight_of(u | {r}, w) * Lx * prod
        total.append(2.0 ** (v - t) * float(inner.sum()))
    return math.fsum(total)


def cbc_naive(N: int, s: int, gammas, tab: np.ndarray) -> GeneratingVector:
    """The greedy CBC in O(N^2) per component: z_1 = 1, and z_d is the
    candidate (every z < N, the odd ones for N = 2^n) of least score
    q @ tab[k z mod N] over k = 1..N-1, the smallest z winning ties, where
    q[k-1] = prod_{j<d} (1 + gamma_j tab[k z_j mod N]) is kept in natural
    order. tab is the residue-indexed kernel table the construction scores
    with (kernel.omega_table for Korobov, the decay table for standard CBC).
    Scores that are not finite raise the ValueError the construction raises.
    """
    k = np.arange(1, N, dtype=np.int64)
    candidates = range(1, N, 2 if N & (N - 1) == 0 else 1)
    z = [1]
    with np.errstate(over="ignore", invalid="ignore"):
        q = 1.0 + gammas[0] * tab[1:]
        for d in range(2, s + 1):
            scores = np.array([float(q @ tab[k * zz % N]) for zz in candidates])
            if not math.isfinite(scores.min()):
                raise ValueError(
                    "the running product q left double range after component %d, "
                    "so no z_%d can be chosen: the weights are too large" % (d - 1, d))
            z.append(candidates[int(np.argmin(scores))])
            if d < s:
                q *= 1.0 + gammas[d - 1] * tab[k * z[-1] % N]
    return GeneratingVector(N, tuple(z))
