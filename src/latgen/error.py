"""Worst-case error and related quality quantities.

wce_product evaluates the worst-case error through the character property
(one product over coordinates per lattice point); wce_bruteforce enumerates
the dual lattice inside a box and returns a value plus a rigorous tail bound,
serving as the differential oracle. T and T_alpha are the truncated-kernel
quality measures; the theorem-bound evaluators give the right-hand sides the
constructions are guaranteed to satisfy.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .kernel import fourier_decay_table, zeta
from .numtheory import GeneratingVector
from .spectral import cosine_dft
from .weights import ProductWeights, WeightSpec, weight_of

__all__ = [
    "ErrorSpec",
    "ErrorInterval",
    "wce_product",
    "wce_bruteforce",
    "vartheta_table",
    "T_quantity",
    "T_alpha_quantity",
    "bound_thm_existence",
    "bound_thm_cbcdbd",
    "bound_thm_cbc",
    "dual_indicator",
]

#: wce_bruteforce enumerates (2M-1)^s points.
BRUTEFORCE_MAX_POINTS = 40_000_000


@dataclass(frozen=True)
class ErrorSpec:
    """How an error evaluation is parameterized: smoothness alpha, a weight
    description, whether weights enter raised to the power alpha, and the
    per-factor kernel method."""

    alpha: float
    weights: WeightSpec
    apply_power: bool = False
    method: str = "closed-form"  # or "truncated"
    tol: float = 1e-12

    def __post_init__(self):
        if self.alpha <= 1.0:
            raise ValueError("requires alpha > 1")
        if self.method not in ("closed-form", "truncated"):
            raise ValueError("unknown method %r" % (self.method,))


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


def _subset_quality(v: GeneratingVector, tab: np.ndarray, w) -> float:
    """sum over nonempty u of gamma_u * sum_{k=0}^{N-1} prod_{j in u} tab[(k z_j) % N]."""
    N = v.N
    k = np.arange(N, dtype=np.int64)
    cols = {j: tab[(k * zj) % N] for j, zj in enumerate(v.z, start=1)}
    total = []
    for size in range(1, v.s + 1):
        for u in combinations(range(1, v.s + 1), size):
            prod = np.ones(N)
            for j in u:
                prod = prod * cols[j]
            total.append(weight_of(frozenset(u), w) * float(prod.sum()))
    return math.fsum(total)


def wce_product(
    v: GeneratingVector, alpha: float, w, tol: float = 1e-12
) -> float:
    """e = -1 + (1/N) sum_{k=0}^{N-1} prod_j (1 + gamma_j * D_alpha({k z_j / N}))
    where D_alpha is the two-sided Fourier decay sum (D_alpha(0) = 2 zeta(alpha)).
    """
    if alpha <= 1.0:
        raise ValueError("requires alpha > 1")
    if tol <= 0.0:
        raise ValueError("requires tol > 0")
    N = v.N
    tab = fourier_decay_table(alpha, N, tol)
    if isinstance(w, ProductWeights):
        return _product_minus_one_mean(v, tab, w)
    return _subset_quality(v, tab, w) / N


def _product_minus_one_mean(v: GeneratingVector, tab: np.ndarray, w) -> float:
    """(1/N) sum_k [prod_j (1 + gamma_j tab[(k z_j) % N]) - 1].

    The products are accumulated as d = prod - 1 directly (d' = d + x(1+d)),
    so per-point values far below machine epsilon keep full relative
    precision instead of being rounded away inside 1 + d.
    """
    N = v.N
    k = np.arange(N, dtype=np.int64)
    d = None
    for j, zj in enumerate(v.z, start=1):
        x = w.gamma(j) * tab[(k * zj) % N]
        d = x if d is None else d + x * (1.0 + d)
    return math.fsum(d) / N


def dual_indicator(m, v: GeneratingVector) -> int:
    """1 iff m . z = 0 (mod N)."""
    if len(m) != v.s:
        raise ValueError("m must have the vector's dimension")
    return int(sum(mj * zj for mj, zj in zip(m, v.z)) % v.N == 0)


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


def vartheta_table(N: int, alpha: float = 1.0) -> np.ndarray:
    """tab[a] = sum_{0 < |m| < N} e^(2 pi i m a / N) / |m|^alpha for a = 0..N-1.

    Folding m by residue class gives coefficients c_res = res^-alpha +
    (N-res)^-alpha, so one length-N DFT produces every residue's value;
    tab[0] = 2 sum_{m=1}^{N-1} m^-alpha.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    if alpha < 1.0:
        raise ValueError("requires alpha >= 1")
    res = np.arange(1, N, dtype=float)
    c = np.zeros(N)
    c[1:] = res ** (-alpha) + (N - res) ** (-alpha)
    tab = cosine_dft(c)
    tab[0] = 2.0 * math.fsum(mm ** (-alpha) for mm in range(1, N))
    return tab


def _vartheta_quality(v: GeneratingVector, w, alpha: float) -> float:
    tab = vartheta_table(v.N, alpha)
    if isinstance(w, ProductWeights):
        return _product_minus_one_mean(v, tab, w)
    return _subset_quality(v, tab, w) / v.N


def T_quantity(v: GeneratingVector, w) -> float:
    """T(N,z) = sum over nonempty u of (gamma_u / N) sum_{k=0}^{N-1}
    prod_{j in u} theta_N({k z_j / N}), theta_N(0) = 2 H_{N-1}."""
    return _vartheta_quality(v, w, 1.0)


def T_alpha_quantity(v: GeneratingVector, alpha: float, w) -> float:
    """As T_quantity with coefficients 1/|m|^alpha, truncated at |m| < N."""
    return _vartheta_quality(v, w, alpha)


def _product_bound(w, s: int, a: float) -> float:
    """sum over nonempty u of gamma_u * a^|u|; product closed form when possible."""
    if isinstance(w, ProductWeights):
        return math.prod(1.0 + w.gamma(j) * a for j in range(1, s + 1)) - 1.0
    total = []
    for size in range(1, s + 1):
        for u in combinations(range(1, s + 1), size):
            total.append(weight_of(frozenset(u), w) * a ** size)
    return math.fsum(total)


def bound_thm_existence(N: int, w, s: int = None) -> float:
    """(2/N) * sum over nonempty u of gamma_u (2(1 + ln N))^|u|."""
    s = _dim_of(w, s)
    return 2.0 / N * _product_bound(w, s, 2.0 * (1.0 + math.log(N)))


def bound_thm_cbcdbd(N: int, w, s: int = None) -> float:
    """Guaranteed T bound for the digit-by-digit construction, N = 2^n."""
    if N & (N - 1) != 0 or N < 2:
        raise ValueError("requires N = 2^n")
    s = _dim_of(w, s)
    lnN = math.log(N)
    first = math.fsum(
        [1.0, _product_bound(w, s, math.log(4.0) + 2.0 * (1.0 + lnN))]
    )
    second = 2.0 * (1.0 + lnN) * math.fsum(
        [1.0, _product_bound(w, s, 2.0 * (1.0 + 2.0 * lnN))]
    )
    return (first + second) / N


def bound_thm_cbc(N: int, w, s: int = None) -> float:
    """Guaranteed T bound for the whole-component CBC construction, prime N."""
    s = _dim_of(w, s)
    lnN = math.log(N)
    first = _product_bound(w, s, 4.0 * lnN)
    second = (1.0 + lnN) * _product_bound(w, s, 2.0 + 4.0 * lnN)
    return 2.0 / N * (first + second)


def _dim_of(w, s):
    if s is None:
        return w.s
    if s > w.s:
        raise ValueError("weight sequence shorter than requested dimension")
    return s
