"""Whole-component CBC constructions.

Two quality functions are supported: the log-sine quality V (smoothness-free,
prime N; error.V_quality evaluates it) and the worst-case error itself (the
standard CBC benchmark, prime or power-of-two N). Component d minimizes, over
the candidates z, the score sum_{k=1}^{N-1} q[k-1] * tab[(k z) mod N], where
q is the running product over the earlier components.

Both constructions run Nuyens and Cools' fast CBC. `scoring_plan` builds,
once per construction, the spectra of the long blocks' kernels and the row
table of the short ones. The tables are exactly symmetric, so
q[k-1] == q[N-k-1] bit for bit, and the state p keeps one slot per +- pair
of residues: the slots of numtheory.unit_layout but the last, residue 0,
which is not in q. Every unit z = +-g^b (+-5^b) rotates each block by b,
and the scores of z and N - z are bit-equal, so only z <= N/2 are scored,
in the order of -b. The plan reads the kernel values a candidate meets,
tab[a z mod N] at each slot's residue a, one way: column(b), a slice of
each long block's doubled kernel values at rotation -b and one row of the
row table, the slices the compiled step reads too. A component costs the
update p *= 1 + gamma * column(b) of the component before it, the scoring
below, the argmin and the near set, all on contiguous memory; the first
update turns the all-ones start into 1 + gamma_1 * column(0), since
z_1 = 1. All of that but the long blocks' transforms is one call of the
compiled step _kernels.cbc_step (its numpy twin is _slowpath.cbc_step); a
plan with long blocks calls it twice, updating before the transforms and
scoring after them. The scores are those of the fold, p times each slot's
count of residues: every slot of a long block is a +- pair, whose factor 2
the plan keeps in that level's spectrum, so only the short blocks and the
fixed slots multiply p by their counts, which the step folds into its copy
of the row table. Only a component that rescores gathers into
natural order: q = p[natural] once (natural is UnitLayout.slot[1:]), and
column(b)[natural], which is tab[k z mod N] for k = 1..N-1, per rescored
candidate.

- Long blocks (longer than ROW_SPAN): the scores are a cyclic
  correlation, a convolution of the fold with the reversed kernel values
  a_0, a_(L-1), ..., a_1 on numpy.fft, whose output b is the score of
  rotation -b; the fold keeps the layout's order. For prime N the one block
  has length H = (N-1)/2; its fold is convolved with two periods of the
  kernel as one zero-padded product of power-of-two length M >= N - 1,
  whatever the factors of N - 1 (`_spectrum`; a power-of-two H takes one
  length-H transform instead). For N = 2^n each long level is one
  such correlation of length N/2^(c+2); the level spectra are summed and
  inverted once, at length N/4.
- Short blocks and the fixed slots (N/2, and N/4 folded with 3N/4): their
  scores are one matrix-vector product with the plan's row table. Row b
  holds each short block's kernel values rotated by -b, a slice of its
  doubled values in numtheory.UnitColumns, then the fixed slots' values
  but residue 0's; the table repeats with the longest short block. The
  compiled step and its twin both sum each row in slot order, so their
  scores are the same doubles.
  Prime N <= 127 and N = 2^n <= 256 have no long block and run no
  transform; N = 2 and 4 have no block at all, and their one candidate
  z = 1 is scored by the fixed slots alone.

Each score vector comes with a bound on its rounding error, the transforms'
plus the dot products', in whatever order either is summed. Every norm in
it is _slowpath.norm's (or the compiled step's loop), none a BLAS dot, so
the bound does not follow the BLAS thread count. A lone
candidate within twice that bound of the
minimum is the exact gather sum's choice and is taken as it is; when several
are, each is rescored with the exact gather sum, and the smallest z wins
ties. While each score lies within the bound of its gather sum, the gather
sum's choice is among the rescored candidates, so the constructions select
the same vectors as the O(N^2) CBC over natural-order gathers
(latgen.oracles.cbc_naive, the reference they are tested against). Scores
that are not finite mean q left double range; the construction then raises
a ValueError naming the component.
"""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import _kernels
from ._slowpath import norm
from .kernel import fourier_decay_table, omega_table
from .numtheory import GeneratingVector, UnitColumns, is_prime, unit_layout
from .weights import ProductWeights, leading_gammas

__all__ = [
    "construct_korobov_cbc",
    "construct_standard_cbc",
]

_EPS = float(np.finfo(float).eps)

#: Blocks no longer than this are scored for every rotation from one table
#: of rows instead of by a transform: at most ROW_SPAN rows of about
#: 2 ROW_SPAN values, the many short levels of N = 2^n in one matrix-vector
#: product.
ROW_SPAN = 64


def _gather_score(q: np.ndarray, plan: "ScoringPlan", b: int) -> float:
    """sum_{k=1}^{N-1} q[k-1] * tab[k z mod N] for z = plan.z[b] -- one exact
    candidate score, over the natural-order running product q."""
    return float(q @ plan.column(b)[plan.natural])


def _spectrum(b: np.ndarray):
    """(size, offset, K, norm) for cyclic convolution with a fixed real b of
    length n: c_k = sum_j a_j b_((k-j) mod n) is
    irfft(rfft(a, size) * K, size)[offset : offset + n], and norm is the 2-norm
    of what was transformed (_slowpath.norm, the bound's one norm). A
    power-of-two n multiplies length-n spectra.
    Any other n takes the linear convolution of a with two periods of b,
    zero-padded to a power of two size >= 2n, and reads c at n..2n-1, so
    numpy.fft never meets a length with large prime factors."""
    n = b.shape[0]
    size, offset = n, 0
    if n & (n - 1):
        b = np.concatenate([b, b])
        size, offset = 1 << (2 * n - 1).bit_length(), n
    return size, offset, np.fft.rfft(b, size), norm(b)


@dataclass(frozen=True)
class _Level:
    """One cyclic convolution: the state p[start:stop] against the spectrum K."""

    start: int  # p[start:stop] are the block's slots, a_0, a_1, ..., a_(L-1)
    stop: int
    values: np.ndarray  # the kernel values of those slots, twice in a row (UnitColumns.doubled)
    K: np.ndarray  # the spectrum of a_0, a_(L-1), ..., a_1, times 2 and the tiling factor
    step: int  # K lands on every step-th bin of the summed spectrum
    kernel_norm: float  # twice the 2-norm of what K transforms


@dataclass(frozen=True)
class ScoringPlan:
    """Candidates z <= N/2 and what scores all of them at once.

    The state p has the slots of unit_layout(N) but the last: slot i stands
    for a residue a and N - a (one residue for N/2), whose entries of the
    natural-order running product are equal: q = p[natural]. column(b) holds
    tab[a z mod N] on the same slots for z = z[b], read from levels and rows.
    A _StepState holds one construction's p; step(st, b, gamma) updates it and
    scores every candidate, and st.sc[b] approximates the exact score
    _gather_score(st.p[natural], plan, b) within st.bound[0]. ct, tfactor
    and sfactor depend on the plan alone, so they are computed here once.

    ct holds the short-tail rows times their counts, transposed; the counts
    are 1 or 2, so folding them into the rows is exact. The bound has two
    terms. Per transform, each entry of irfft(rfft(a) * rfft(b)) is within
    log2(size) * eta * ||a||_2 * ||b||_2 of exact (Cauchy-Schwarz on the
    spectra; eta <= 8 eps covers a butterfly and its twiddle's error). Three
    transforms take part: a's, the cached kernel's and the inverse, so the
    term is tfactor times the sum over the long levels of ||a||_2 *
    kernel_norm. The measured distance to the gather sum stays below 2% of
    it. The fold fs = p[short:] * short_counts, the m-term dot product in any
    summation order and the addition to the transform's score leave each
    entry within gamma_(m+2) sum_i |r_i f_i| of exact, and
    gamma_(m+2) <= (m + 1) eps = sfactor; Cauchy-Schwarz caps the sum by
    ||rows[b]||_2 ||fs||_2, and every row has the first one's norm, row_norm.
    """

    z: np.ndarray  # z[b] is the one of +-g^(-b) (+-5^(-b) for N = 2^n) below N/2
    natural: np.ndarray  # int64, the slot of each k = 1..N-1 (UnitLayout.slot[1:])
    levels: Tuple[_Level, ...]  # the blocks longer than ROW_SPAN
    size: int  # length of the one inverse transform
    offset: int  # the scores start here in the inverse transform
    short: int  # p[short:] are the short blocks' slots and the fixed ones
    short_counts: np.ndarray  # residues per slot of p[short:]
    rows: np.ndarray  # rows[b] @ (p[short:] * short_counts) is their score at rotation b
    row_norm: float  # ||rows[0]||_2: each row is a rotation of the first, block by block
    ct: np.ndarray  # (rows * short_counts).T, C-contiguous: the short tail as the step reads it
    tfactor: float  # 3 * 8 eps log2(size), the transforms' factor of the bound
    sfactor: float  # (m + 1) eps for the m slots of p[short:], the short tail's factor

    def column(self, b: int) -> np.ndarray:
        """tab[a z mod N] at each slot's residue a, for z = z[b], which
        rotates every block by -b: values[r : r + L] of each long level,
        r = -b mod L, then rows[b mod P] for the short tail. _dbd.c's
        cbc_step reads the same slices."""
        parts = []
        for lv in self.levels:
            r = -b % (lv.stop - lv.start)
            parts.append(lv.values[r : r + lv.stop - lv.start])
        parts.append(self.rows[b % self.rows.shape[0]])
        return np.concatenate(parts)

    def start(self) -> "_StepState":
        """A step state on all ones, the empty product."""
        return _StepState(self)

    def step(self, st: "_StepState", b: int, gamma: float):
        """Multiplies st.p by 1 + gamma * column(b) (b = -1 leaves it as it
        is), then scores every candidate on it: st.sc, st.bound[0]. Returns
        the near set, the indices of the candidates within 2 * st.bound[0]
        of the least score in ascending order, or None if the scores are not
        finite.

        One _kernels.cbc_step call does it all when the plan has no long
        level. Otherwise the long levels' transforms, which read the updated
        slots, go between the update and a second call, which adds the
        short tail's scores to theirs."""
        if self.levels:
            _kernels.cbc_step(st, b, gamma, False)
            b = -1
            spec = None
            for lv in self.levels:
                term = np.fft.rfft(st.p[lv.start : lv.stop], self.size // lv.step)
                term *= lv.K
                if spec is None:
                    spec = term
                else:
                    spec[:: lv.step] += term
            st.sc[...] = np.fft.irfft(spec, self.size)[self.offset : self.offset + st.sc.shape[0]]
        n = _kernels.cbc_step(st, b, gamma, True)
        return st.near[:n] if n else None


class _StepState:
    """One construction's running product on a plan's slots, and the buffers
    of _kernels.cbc_step: sc[b] is the score of plan.z[b], bound[0] its
    rounding bound (see ScoringPlan) and near[:n] the near set, and part is
    scratch. Everything else the step reads is the plan's. handle is the
    compiled kernel's view of these arrays, made on its first call; no
    array is replaced after that.
    """

    __slots__ = ("plan", "p", "sc", "near", "bound", "part", "handle")

    def __init__(self, plan: ScoringPlan):
        P, m = plan.rows.shape
        Q = plan.z.shape[0]
        self.plan = plan
        self.p = np.ones(plan.short + m)
        self.sc = np.zeros(Q)
        self.near = np.zeros(Q, dtype=np.int64)
        self.bound = np.zeros(1)
        self.part = np.zeros(P)
        self.handle = None


def scoring_plan(N: int, tab: np.ndarray) -> ScoringPlan:
    """The scoring plan for prime N >= 3 or N = 2^n >= 2; tab is the
    residue-indexed, exactly symmetric kernel table (tab[a] == tab[N - a]).

    The state's slots are those of unit_layout(N) but the last, residue 0.
    Each block longer than ROW_SPAN is one level, convolved with its kernel
    values reversed, a_0, a_(L-1), ..., a_1; transform output b is then the
    score of rotation -b, and the candidates are listed in that order. The
    shorter blocks and the fixed residues other than 0 are scored by the
    row table built here in the same order: row b is each short block's
    doubled values (UnitColumns.doubled) from -b mod L, then the fixed
    residues' values. N = 2 and 4 have no block; their one candidate is
    z = 1. The step's constants that depend on the plan alone, ct, tfactor
    and sfactor, are computed here too (see ScoringPlan).
    """
    layout = unit_layout(N)
    cols = UnitColumns(layout, tab)
    if not layout.cyclic:
        raise ValueError("the fast CBC needs a prime N >= 3 or N = 2^n")
    top = layout.blocks[0] if layout.blocks else np.ones(1, dtype=np.int64)
    Q = top.shape[0]
    zr = top[-np.arange(Q) % Q]
    long = [(doubled, L) for doubled, L in cols.doubled if L > ROW_SPAN]
    short = cols.doubled[len(long) :]  # the blocks come longest first
    # a_0, a_(L-1), ..., a_1 per long block; N = 2^n: power-of-two lengths
    spectra = [_spectrum(doubled[L:0:-1]) for doubled, L in long]
    levels = []
    start = 0  # the long blocks lead the layout
    for (_, _, K, kn), (doubled, L) in zip(spectra, long):
        # every slot of a long block is a +- pair: the fold's factor 2, exact, goes into K
        levels.append(_Level(start=start, stop=start + L, values=doubled,
                             K=(2 * Q // L) * K, step=Q // L, kernel_norm=2 * kn))
        start += L
    P = short[0][1] if short else 1  # every shorter length divides it
    b = np.arange(P)[:, None]
    fixed = cols.tab[layout.fixed[:-1]]
    rows = np.hstack([doubled[-b % L + np.arange(L)] for doubled, L in short]
                     + [np.broadcast_to(fixed, (P, fixed.shape[0]))])
    size, offset = spectra[0][:2] if spectra else (0, 0)
    short_counts = layout.counts[start:-1]
    return ScoringPlan(z=np.minimum(zr, N - zr), natural=layout.slot[1:],
                       levels=tuple(levels), size=size, offset=offset, short=start,
                       short_counts=short_counts, rows=rows, row_norm=norm(rows[0]),
                       ct=np.ascontiguousarray((rows * short_counts).T),
                       tfactor=3 * 8 * _EPS * math.log2(max(size, 2)),
                       sfactor=(rows.shape[1] + 1) * _EPS)


def _rescore(plan: ScoringPlan, p: np.ndarray, near: np.ndarray):
    """The index b in near of least exact gather sum over q = p[natural],
    smallest z winning ties, or None if no sum is below inf."""
    q = p[plan.natural]
    best = None
    best_val = math.inf
    for b in near[np.argsort(plan.z[near])].tolist():
        val = _gather_score(q, plan, b)
        if val < best_val:
            best_val = val
            best = b
    return best


def _cbc_greedy(N: int, s: int, gammas: Tuple[float, ...], tab: np.ndarray):
    """Shared greedy loop; tab is the residue-indexed kernel table. The
    running product is kept on the plan's slots, and each component's step
    first applies the previous component's update: the first turns the
    all-ones start into 1 + gamma_1 * column(0), since z_1 = 1 = z[0]."""
    plan = scoring_plan(N, tab)
    st = plan.start()
    bs = [0]
    # q leaving double range is reported below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for d in range(2, s + 1):
            near = plan.step(st, bs[-1], gammas[d - 2])
            if near is None:
                b = None
            elif near.shape[0] == 1:
                b = int(near[0])
            else:
                b = _rescore(plan, st.p, near)
            if b is None:
                raise ValueError(
                    "the running product q left double range after component %d, "
                    "so no z_%d can be chosen: the weights are too large" % (d - 1, d))
            bs.append(b)
    return GeneratingVector(N, tuple(plan.z[bs].tolist()))


def construct_korobov_cbc(N: int, s: int, w: ProductWeights) -> GeneratingVector:
    """Greedy per-component minimization of the log-sine quality V, prime N.
    weights.leading_gammas checks s and w; omega_table checks N's size."""
    if not is_prime(N) or N < 3:
        raise ValueError("N must be prime (>= 3)")
    return _cbc_greedy(N, s, leading_gammas(w, s), omega_table(N))


def construct_standard_cbc(
    N: int, s: int, alpha: float, w_alpha: ProductWeights
) -> GeneratingVector:
    """Greedy per-component minimization of the worst-case error itself.

    w_alpha is the weight sequence as it should enter the error (i.e. already
    raised to the power alpha if that is intended). N must be prime or 2^n.
    weights.leading_gammas checks s and w_alpha; the decay table, built
    before any scoring, checks N's size and alpha > 1.
    """
    power_of_two = N & (N - 1) == 0 and N >= 2
    if not power_of_two and not (is_prime(N) and N >= 3):
        raise ValueError("N must be prime or a power of two")
    return _cbc_greedy(N, s, leading_gammas(w_alpha, s), fourier_decay_table(alpha, N))
