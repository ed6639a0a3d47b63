"""Whole-component CBC constructions.

Two quality functions are supported: the log-sine quality V (smoothness-free,
prime N) and the worst-case error itself (the standard CBC benchmark, prime or
power-of-two N). Component d minimizes, over the candidates z, the score
sum_{k=1}^{N-1} q[k-1] * tab[(k z) mod N], where q is the running product
over the earlier components.

The fast mode is Nuyens and Cools' fast CBC. `scoring_plan` builds, once per
construction, the index arrays that fold q onto the slots of
numtheory.unit_layout, the spectra of the long blocks' kernels and the row
table of the short ones. Every unit z = +-g^b (+-5^b) rotates each block of
the layout by b, and the scores of z and N - z are bit-equal (the tables are
exactly symmetric), so only z <= N/2 are scored, in the order of b. A
component then costs one gather of the fold, the scoring below, the argmin
and the state update. The rescore and the update read the column
tab[k z mod N] in the natural order of q: for prime N from the doubled power
table at dlog k + dlog z, for N = 2^n at (k z) & (N - 1).

- Long blocks (longer than numtheory.ROW_SPAN): the scores are a cyclic
  correlation, a convolution of the reversed fold on numpy.fft. For prime N
  the one block has length H = (N-1)/2; its fold is convolved with two
  periods of the kernel as one zero-padded product of power-of-two length
  M >= N - 1, whatever the factors of N - 1 (`spectral.convolver`; a
  power-of-two H takes one length-H transform instead). For N = 2^n each
  long level is one such correlation of length N/2^(c+2); the level spectra
  are summed and inverted once, at length N/4.
- Short blocks and the fixed slots (N/2, and N/4 folded with 3N/4; the slot
  k = 0 is not in q): their score at rotation b is rows[b] @ fold, one
  matrix-vector product with the row table of numtheory.UnitColumns, which
  repeats with the longest short block. Prime N <= 127 and N = 2^n <= 256
  have no long block and run no transform.

Each score vector comes with a bound on its rounding error, the transforms'
plus the dot products'. A lone candidate within twice that bound of the
minimum is the naive mode's choice and is taken as it is; when several are,
each is rescored with the exact gather sum, and the smallest z wins ties.
While each score lies within the bound of its gather sum, the naive mode's
choice is among the rescored candidates, so the fast mode selects the same
vectors as the naive O(N^2) mode. Scores that are not finite mean q left
double range; both modes then raise a ValueError naming the component.
"""

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .error import lattice_kernel_sum
from .kernel import LN4, fourier_decay_table, kernel_table
from .numtheory import ROW_SPAN, GeneratingVector, UnitColumns, UnitLayout, is_prime, unit_layout
from .spectral import convolver
from .weights import ProductWeights

__all__ = [
    "V_quality",
    "construct_korobov_cbc",
    "construct_standard_cbc",
]

_EPS = float(np.finfo(float).eps)
#: Below this, a @ a may have lost terms to underflow.
_TINY = 2.0**-900


def _norm(a: np.ndarray) -> float:
    """||a||_2, also where a @ a leaves double range: a is then scaled by a
    power of two, which is exact, so every norm that a @ a gives as it is
    comes out the same."""
    ss = float(a @ a)
    if _TINY < ss < math.inf:
        return math.sqrt(ss)
    top = float(np.abs(a).max(initial=0.0))
    if top == 0.0 or not math.isfinite(top):
        return math.sqrt(ss)
    e = math.frexp(top)[1]
    b = np.ldexp(a, -e)
    return math.ldexp(math.sqrt(float(b @ b)), e)


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
    """One cyclic convolution: the fold f[start:stop] against the spectrum K."""

    start: int  # f[start:stop] is the block's fold, in reverse order so
    stop: int  # that the correlation becomes a convolution
    length: int  # transform length of the slice
    K: np.ndarray  # the reordered kernel's convolver spectrum, times the tiling factor
    step: int  # K lands on every step-th bin of the summed spectrum
    kernel_norm: float


@dataclass(frozen=True)
class ScoringPlan:
    """Candidates z <= N/2 and what scores all of them at once.

    scores(q)[i] approximates _gather_score(q, column, z[i]); the returned
    bound caps the difference. The fold is f = q[i1] with q[i2] added to its
    first i2.shape[0] slots: the +- partners of each block, and 3N/4 onto N/4.
    """

    z: np.ndarray
    i1: np.ndarray
    i2: np.ndarray
    levels: Tuple[_Level, ...]  # the blocks longer than ROW_SPAN
    size: int  # length of the one inverse transform
    offset: int  # the scores start here in the inverse transform
    short: int  # f[short:] are the short blocks' slots and the fixed ones
    rows: np.ndarray  # rows[b] @ f[short:] is their score at rotation b
    row_norm: float  # max_b ||rows[b]||_2
    column: Callable[[int], np.ndarray]  # _natural_column of the plan's table

    def scores(self, q: np.ndarray):
        f = q[self.i1]
        f[: self.i2.shape[0]] += q[self.i2]
        bound = 0.0
        if self.levels:
            spec = None
            weight = 0.0
            for lv in self.levels:
                a = f[lv.start : lv.stop]
                term = np.fft.rfft(a, lv.length) * lv.K
                if spec is None:
                    spec = term
                else:
                    spec[:: lv.step] += term
                weight += _norm(a) * lv.kernel_norm
            sc = np.fft.irfft(spec, self.size)[self.offset : self.offset + self.z.shape[0]]
            # Per transform, each entry of irfft(rfft(a) * rfft(b)) is within
            # log2(size) * eta * ||a||_2 * ||b||_2 of exact (Cauchy-Schwarz on
            # the spectra; eta <= 8 eps covers a butterfly and its twiddle's
            # error). Three transforms take part: a's, the cached kernel's and
            # the inverse. The measured distance to the gather sum stays below
            # 2% of this.
            bound = 3 * 8 * _EPS * math.log2(max(self.size, 2)) * weight
        m = f.shape[0] - self.short
        if m:
            fs = f[self.short :]
            part = self.rows @ fs
            if self.levels:
                sc.reshape(-1, part.shape[0])[...] += part
            else:
                sc = part
            # The fold, the m-term dot product in any summation order (so
            # however BLAS splits it) and the addition to the transform's
            # score leave each entry within gamma_(m+2) sum_i |r_i f_i| of
            # exact, and gamma_(m+2) <= (m + 1) eps; Cauchy-Schwarz caps the
            # sum by ||rows[b]||_2 ||f[short:]||_2.
            bound += (m + 1) * _EPS * _norm(fs) * self.row_norm
        return sc, bound


def scoring_plan(N: int, tab: np.ndarray) -> ScoringPlan:
    """The scoring plan for prime N >= 3 or N = 2^n >= 8; tab is the
    residue-indexed, exactly symmetric kernel table (tab[a] == tab[N - a]).

    Each block of unit_layout(N) longer than ROW_SPAN is one level: its
    residues a_i order the kernel, and q is folded over the pairs a_i, N - a_i
    in reverse order. The shorter blocks and the fixed residues other than 0
    are scored by the rows of UnitColumns, the table the lattice sums read.
    """
    layout = unit_layout(N)
    cols = UnitColumns(layout, tab)
    tab = cols.tab
    if not layout.blocks:
        raise ValueError("the fast mode needs a prime N >= 3 or N = 2^n >= 8")
    Q = layout.blocks[0].shape[0]
    long = [bl for bl in layout.blocks if bl.shape[0] > ROW_SPAN]
    short = layout.blocks[len(long) :]
    convs = [convolver(tab[res]) for res in long]  # N = 2^n: power-of-two lengths
    levels = []
    slots = []
    start = 0
    for res, conv in zip(long, convs):
        L = res.shape[0]
        slots.append(res[(-np.arange(L)) % L])
        levels.append(_Level(start=start, stop=start + L, length=conv.size,
                             K=(Q // L) * conv.spectrum, step=Q // L, kernel_norm=conv.norm))
        start += L
    slots.extend(short)
    # The fixed slots follow the short blocks, as in cols.rows, but without
    # k = 0 (not in q) and reversed, so that the folded ones come first: for
    # N = 2^n, N/4 (with 3N/4), then N/2.
    fixed = layout.fixed[:0:-1]
    paired = np.concatenate(slots + [fixed[:1]])
    i1 = np.concatenate((paired, fixed[1:])) - 1
    n_short = sum(bl.shape[0] for bl in short)
    rows = np.hstack((cols.rows[:, :n_short], cols.rows[:, : n_short : -1]))
    top = layout.blocks[0]
    size, offset = (convs[0].size, convs[0].offset) if convs else (0, 0)
    return ScoringPlan(z=np.minimum(top, N - top), i1=i1, i2=N - paired - 1, levels=tuple(levels),
                       size=size, offset=offset, short=start, rows=rows,
                       row_norm=float(np.sqrt((rows * rows).sum(axis=1)).max()),
                       column=_natural_column(layout, tab))


def _refined_argmin(plan: ScoringPlan, q: np.ndarray):
    """The z of least score, or None if the scores are not finite.

    A lone candidate within 2 * bound of the minimal plan score is taken as
    it is; several are rescored by the exact gather sum, smallest z winning
    ties."""
    sc, bound = plan.scores(q)
    i = int(sc.argmin())  # the first NaN, if there is one
    lo = float(sc[i])
    if not math.isfinite(lo):
        return None
    near = sc <= lo + 2.0 * bound
    if np.count_nonzero(near) == 1:
        return int(plan.z[i])
    best_z = None
    best_val = math.inf
    for zz in np.sort(plan.z[near]).tolist():
        val = _gather_score(q, plan.column, zz)
        if val < best_val:
            best_val = val
            best_z = zz
    return best_z


def _naive_argmin(q: np.ndarray, column, z_candidates: np.ndarray):
    """The z of least gather sum, smallest z winning ties, or None if the
    sums are not finite."""
    vals = np.array([_gather_score(q, column, int(zz)) for zz in z_candidates])
    return int(z_candidates[int(np.argmin(vals))]) if math.isfinite(vals.min()) else None


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
    z = [1]
    # q leaving double range is reported below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        q = 1.0 + gammas[0] * tab[1:]
        for d in range(2, s + 1):
            if plan is not None:
                zd = _refined_argmin(plan, q)
            else:
                zd = _naive_argmin(q, column, z_candidates)
            if zd is None:
                raise ValueError(
                    "the running product q left double range after component %d, "
                    "so no z_%d can be chosen: the weights are too large" % (d - 1, d))
            z.append(zd)
            if d < s:
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
