"""Digit-by-digit component construction for moduli N = 2^n.

Each component z_r is built one bit at a time, least significant bit first.
The bit at level v is chosen to minimize the reduced digit-wise quality
h_bar over the running product vector p. The construction folds p into
per-level sums once per component, in O(N), after which one bit costs
O(2^(v-1)), so a component costs O(N) and the whole vector O(s N). h_bar
itself walks p directly, in O(sum_t 2^(t-1)) per candidate, and serves as the
fold's reference. The full (general-weight) quality function h differs from
h_bar only by the additive constant C(n, v), so both greedy paths agree; the
slow subset-sum evaluation h_naive is kept as a differential oracle.
"""

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Tuple

import numpy as np

from . import _kernels
from ._slowpath import dbd_score_pair, dbd_update
from .error import lattice_kernel_sum
from .kernel import kernel_table
from .numtheory import GeneratingVector
from .weights import ProductWeights, weight_of

__all__ = [
    "DigitState",
    "new_digit_state",
    "h_bar",
    "h_naive",
    "update_p",
    "construct_cbc_dbd",
    "C_constant",
    "H_quantity",
]

#: h_naive enumerates subsets of {1..r-1}; keep that tractable.
H_NAIVE_MAX_R = 12

#: Relative margin by which bit 1 must beat bit 0. Exact ties are common (at
#: v = 2, x and -x mod 4 always tie); without a margin they would be decided
#: by rounding, which differs between the C kernel and numpy. The margin is
#: compared with the score difference summed term by term, not with the
#: difference of two rounded scores, so the rounding of two large scores no
#: longer decides. Rounding in that difference still can (the C kernel sums in
#: order, numpy's dot product in its BLAS's order), but only for margins within
#: about eps * sum_k |P_v[k] (K1 - K0)| of the threshold.
TIE_RTOL = 1e-12


@dataclass
class DigitState:
    """Construction state: p[k * 2^(n-t) - 1] = q(r, t, k) for t = 1..n, odd k < 2^t;
    table is kernel_table(2^n)."""

    n: int
    table: np.ndarray
    p: np.ndarray
    r: int
    gammas: Tuple[float, ...]

    @property
    def N(self) -> int:
        return 1 << self.n


def new_digit_state(n: int, w: ProductWeights) -> DigitState:
    """State after the first component z_1 = 1 has been incorporated.

    The slot for (t, k) holds 1 + gamma_1 * ln(1/sin^2(pi k / 2^t)), which is
    exactly the kernel table entry at residue k * 2^(n-t): the t = 1 slot
    lands on sin^2(pi/2) = 1 and so equals 1.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    table = kernel_table(1 << n)
    return DigitState(n=n, table=table, p=1.0 + w.gamma(1) * table[1:], r=1,
                      gammas=w.gammas)


def C_constant(n: int, v: int) -> float:
    """Additive constant linking the two quality evaluations:
    h_naive(x) - h_bar(x) = C(n, v) = -sum_{t=v}^{n} 2^(v-t) * 2^(t-1).
    """
    return -float(1 << (v - 1)) * (n - v + 1)


def _check_bit_args(n: int, v: int, x: int):
    if not 2 <= v <= n:
        raise ValueError("bit level v must satisfy 2 <= v <= n")
    if x % 2 == 0:
        raise ValueError("candidate x must be odd")
    if not 0 < x < (1 << v):
        raise ValueError("candidate x must lie in (0, 2^v)")


def h_bar(state: DigitState, r: int, v: int, x: int, gamma_r: float) -> float:
    """Reduced digit-wise quality of candidate x for component r at bit level v."""
    _check_bit_args(state.n, v, x)
    half = 1 << (v - 1)
    base = x if x < half else x - half
    s0, s1 = dbd_score_pair(state.p, state.table, state.n, v, base, gamma_r)
    return s0 if x < half else s1


def update_p(state: DigitState, r: int, v: int, z_rv: int) -> DigitState:
    """Multiply the level-v slots of p by (1 + gamma_r ln(1/sin^2(pi k z_rv / 2^v)))."""
    _check_bit_args(state.n, v, z_rv)
    gamma_r = state.gammas[r - 1]
    dbd_update(state.p, state.table, state.n, v, z_rv, gamma_r)
    return state


def construct_cbc_dbd(n: int, s: int, w: ProductWeights) -> GeneratingVector:
    """Greedy bitwise construction of z = (1, z_2, ..., z_s) for N = 2^n.

    O(s N) time and O(N) memory. Per bit the two candidates are scored in one
    pass over the level sums. Bit 0 is kept unless bit 1 scores lower by more
    than TIE_RTOL * |s0|, with s0 the score of bit 0, so a tie goes to bit 0
    on every backend unless the rounding in the difference reaches that margin.
    """
    if n < 1 or s < 1:
        raise ValueError("need n >= 1 and s >= 1")
    if w.s < s:
        raise ValueError("weight sequence shorter than requested dimension")
    z = [1] * s
    if s >= 2 and n >= 2:
        state = new_digit_state(n, w)
        gammas = [w.gamma(r) for r in range(2, s + 1)]
        z[1:] = _kernels.dbd_construct(state.p, state.table, n, gammas, TIE_RTOL)
    return GeneratingVector(1 << n, tuple(z))


def h_naive(r: int, n: int, v: int, x: int, z_prev, w) -> float:
    """Direct subset-sum evaluation of the digit-wise quality function.

    Test oracle only: cost grows with 2^r and sum_t 2^t. Accepts general or
    product weights (looked up through weight_of).
    """
    if r > H_NAIVE_MAX_R:
        raise ValueError("h_naive capped at r <= %d" % H_NAIVE_MAX_R)
    _check_bit_args(n, v, x)
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


def H_quantity(v: GeneratingVector, w) -> float:
    """H = sum over nonempty u of gamma_u sum_{k=1}^{N-1} prod_{j in u} L({k z_j / N})
    with L(x) = ln(1/sin^2(pi x)); for product weights this is
    -(N-1) + sum_{k=1}^{N-1} prod_j (1 + gamma_j L({k z_j / N}))."""
    N = v.N
    if N & (N - 1) != 0:
        raise ValueError("H is defined for N = 2^n")
    if any(zj % 2 == 0 for zj in v.z):
        raise ValueError("all components must be odd")
    return lattice_kernel_sum(v, kernel_table(N), w)
