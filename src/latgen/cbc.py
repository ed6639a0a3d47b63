"""Whole-component CBC constructions.

Two quality functions are supported: the log-sine quality V (smoothness-free,
prime N) and the worst-case error itself (the standard CBC benchmark, prime or
power-of-two N). Component d minimizes, over the candidates z, the score
sum_{k=1}^{N-1} q[k-1] * tab[(k z) mod N], where q is the running product
over the earlier components.

The fast mode is Nuyens and Cools' fast CBC on numpy.fft. `scoring_plan`
builds, once per construction, the index arrays that reorder q and the
spectrum of the reordered kernel, both from numtheory.unit_layout; after that
one-off cost every component costs one gather of q, one rfft/irfft pair,
O(N log N), and the exact rescore. The rescore and the state update read the
column tab[k z mod N] in the natural order of q: for prime N from the doubled
power table at dlog k + dlog z, for N = 2^n at (k z) & (N - 1).

- Prime N: in the order of powers of a primitive root g the scores are a
  cyclic correlation. Since g^((N-1)/2) = -1 and the kernel table is exactly
  symmetric, the reordered kernel has period H = (N-1)/2, so q is folded over
  +- to length H. Stored in reverse, the fold is convolved with two periods
  of the kernel as one zero-padded product of power-of-two length
  M >= N - 1, whatever the factors of N - 1 (`spectral.convolver`; a
  power-of-two H takes one length-H transform instead).
- N = 2^n: writing k = 2^c k' with k' odd splits the score into levels. The
  odd residues mod M = N/2^c are the cosets +-5^i, so each level is a cyclic
  correlation of length M/4 of the +- folded q, again a convolution of the
  reversed fold. The level spectra are summed and inverted once, at length
  N/4.

The scores of z and N - z are bit-equal (the tables are exactly symmetric), so
only z <= N/2 are scored. Each score vector comes with a bound on the FFT's
rounding error. Every candidate whose score lies within twice that bound of
the minimum is rescored with the exact gather sum, and the smallest z wins
ties. While each score lies within the bound of its gather sum, the naive
mode's choice is among the rescored candidates, so the fast mode selects the
same vectors as the naive O(N^2) mode.
"""

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .error import lattice_kernel_sum
from .kernel import LN4, fourier_decay_table, kernel_table
from .numtheory import GeneratingVector, UnitLayout, is_prime, unit_layout
from .spectral import convolver
from .weights import ProductWeights

__all__ = [
    "V_quality",
    "construct_korobov_cbc",
    "construct_standard_cbc",
]

_EPS = float(np.finfo(float).eps)


def _omega_table(N: int) -> np.ndarray:
    """omega(a / N) = ln(1/sin^2(pi a / N)) - ln 4 by residue, tab[0] = 0."""
    tab = kernel_table(N)
    tab[1:] -= LN4
    return tab


def V_quality(v: GeneratingVector, w) -> float:
    """V = sum over nonempty u of gamma_u sum_{k=1}^{N-1} prod_{j in u} omega({k z_j / N}).

    The lattice sum's k = 0 term is zero, since the table stores 0 at a = 0.
    """
    return lattice_kernel_sum(v, _omega_table(v.N), w)


def _accumulate_product(q: np.ndarray, column, z: int, gamma: float):
    """q[k-1] *= 1 + gamma * tab[k z mod N] for k = 1..N-1, in place; column
    is _natural_column(layout, tab)."""
    q *= 1.0 + gamma * column(z)


def _gather_score(q: np.ndarray, column, z: int) -> float:
    """sum_{k=1}^{N-1} q[k-1] * tab[k z mod N] -- one exact candidate score."""
    return float(q @ column(z))


def _natural_column(layout: UnitLayout, tab: np.ndarray):
    """z -> tab[k z mod N] for k = 1..N-1, the order of the state q.

    For prime N it is read from the power table doubled:
    k z = +-g^(dlog k + dlog z), so tab[k z mod N] = tt[dlog k + dlog z].
    """
    N = layout.N
    if N & (N - 1) == 0:
        k = np.arange(1, N, dtype=np.int64)
        return lambda z: np.take(tab, (k * z) & (N - 1))
    tt = np.tile(tab[layout.blocks[0]], 2)
    dk = layout.dlog[1:]
    return lambda z: np.take(tt, dk + layout.dlog[z])


@dataclass(frozen=True)
class _Level:
    """One cyclic convolution: q[i1] + q[i2] against the spectrum K."""

    i1: np.ndarray  # the fold in reverse turns the correlation into a convolution
    i2: np.ndarray
    length: int  # transform length of q[i1] + q[i2]
    K: np.ndarray  # the reordered kernel's convolver spectrum, times the tiling factor
    step: int  # K lands on every step-th bin of the summed spectrum
    kernel_norm: float


@dataclass(frozen=True)
class ScoringPlan:
    """Candidates z <= N/2 and what scores all of them at once.

    scores(q)[i] approximates _gather_score(q, column, z[i]); the returned
    bound caps the difference.
    """

    z: np.ndarray
    levels: Tuple[_Level, ...]
    size: int  # length of the one inverse transform
    offset: int  # the scores start here in the inverse transform
    const_idx: np.ndarray  # q slots whose kernel value is the same for every z
    const_tab: np.ndarray
    column: Callable[[int], np.ndarray]  # _natural_column of the plan's table

    def scores(self, q: np.ndarray):
        spec = None
        weight = 0.0
        for lv in self.levels:
            a = q[lv.i1] + q[lv.i2]
            term = np.fft.rfft(a, lv.length) * lv.K
            if spec is None:
                spec = term
            else:
                spec[:: lv.step] += term
            weight += float(np.linalg.norm(a)) * lv.kernel_norm
        sc = np.fft.irfft(spec, self.size)[self.offset : self.offset + self.z.shape[0]]
        sc += float(q[self.const_idx] @ self.const_tab)
        # Per transform, each entry of irfft(rfft(a) * rfft(b)) is within
        # log2(size) * eta * ||a||_2 * ||b||_2 of exact (Cauchy-Schwarz on the
        # spectra; eta <= 8 eps covers a butterfly and its twiddle's error).
        # Three transforms take part: a's, the cached kernel's and the inverse.
        # The measured distance to the gather sum stays below 2% of this.
        bound = 3 * 8 * _EPS * math.log2(max(self.size, 2)) * weight
        return sc, bound


def scoring_plan(N: int, tab: np.ndarray) -> ScoringPlan:
    """The scoring plan for prime N >= 3 or N = 2^n >= 8; tab is the
    residue-indexed, exactly symmetric kernel table (tab[a] == tab[N - a]).

    Each block of unit_layout(N) is one level: its residues a_i order the
    kernel, and q is folded over the pairs a_i, N - a_i in reverse order.
    """
    layout = unit_layout(N)
    tab = layout.check_table(tab)
    if not layout.blocks:
        raise ValueError("the fast mode needs a prime N >= 3 or N = 2^n >= 8")
    Q = layout.blocks[0].shape[0]
    convs = [convolver(tab[res]) for res in layout.blocks]  # N = 2^n: power-of-two lengths
    levels = []
    for res, conv in zip(layout.blocks, convs):
        L = res.shape[0]
        r = res[(-np.arange(L)) % L]
        levels.append(_Level(i1=r - 1, i2=N - r - 1, length=conv.size, K=(Q // L) * conv.spectrum,
                             step=Q // L, kernel_norm=conv.norm))
    # N = 2^n: k = N/2 and k = N/4, 3N/4 meet tab[N/2] and tab[N/4] for every odd z
    a = layout.fixed[1:]
    const = np.concatenate((a, (N - a)[N - a != a]))
    top = layout.blocks[0]
    return ScoringPlan(z=np.minimum(top, N - top), levels=tuple(levels), size=convs[0].size,
                       offset=convs[0].offset, const_idx=const - 1, const_tab=tab[const],
                       column=_natural_column(layout, tab))


def _refined_argmin(plan: ScoringPlan, q: np.ndarray) -> int:
    """Exact-rescore every candidate within 2 * bound of the minimal FFT score;
    smallest z wins ties."""
    sc, bound = plan.scores(q)
    near = np.sort(plan.z[sc <= sc.min() + 2.0 * bound])
    best_z = None
    best_val = math.inf
    for zz in near.tolist():
        val = _gather_score(q, plan.column, zz)
        if val < best_val:
            best_val = val
            best_z = zz
    return best_z


def _cbc_greedy(N: int, s: int, gammas: Tuple[float, ...], tab: np.ndarray, mode: str):
    """Shared greedy loop; tab is the residue-indexed kernel table."""
    if mode not in ("fast", "naive"):
        raise ValueError("mode must be 'fast' or 'naive'")
    power_of_two = N & (N - 1) == 0
    plan = None
    if mode == "fast" and (not power_of_two or N >= 8):
        plan = scoring_plan(N, tab)
        column = plan.column
    else:
        column = _natural_column(unit_layout(N), tab)
    z_candidates = np.arange(1, N, 2 if power_of_two else 1, dtype=np.int64)
    q = 1.0 + gammas[0] * tab[1:]
    z = [1]
    for d in range(2, s + 1):
        if plan is not None:
            zd = _refined_argmin(plan, q)
        else:
            vals = [_gather_score(q, column, int(zz)) for zz in z_candidates]
            zd = int(z_candidates[int(np.argmin(vals))])
        z.append(zd)
        _accumulate_product(q, column, zd, gammas[d - 1])
    return GeneratingVector(N, tuple(z))


def construct_korobov_cbc(
    N: int, s: int, w: ProductWeights, mode: str = "fast"
) -> GeneratingVector:
    """Greedy per-component minimization of the log-sine quality V, prime N."""
    if not is_prime(N) or N < 3:
        raise ValueError("N must be prime (>= 3)")
    if s < 1:
        raise ValueError("need s >= 1")
    if w.s < s:
        raise ValueError("weight sequence shorter than requested dimension")
    tab = _omega_table(N)
    return _cbc_greedy(N, s, w.gammas[:s], tab, mode)


def construct_standard_cbc(
    N: int, s: int, alpha: float, w_alpha: ProductWeights, mode: str = "fast"
) -> GeneratingVector:
    """Greedy per-component minimization of the worst-case error itself.

    w_alpha is the weight sequence as it should enter the error (i.e. already
    raised to the power alpha if that is intended). N must be prime or 2^n.
    """
    if alpha <= 1.0:
        raise ValueError("requires alpha > 1")
    if s < 1:
        raise ValueError("need s >= 1")
    if w_alpha.s < s:
        raise ValueError("weight sequence shorter than requested dimension")
    power_of_two = N & (N - 1) == 0 and N >= 2
    if not power_of_two and not (is_prime(N) and N >= 3):
        raise ValueError("N must be prime or a power of two")
    tab = fourier_decay_table(alpha, N)
    return _cbc_greedy(N, s, w_alpha.gammas[:s], tab, mode)
