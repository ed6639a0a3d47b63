"""Digit-by-digit component construction for moduli N = 2^n.

Each component z_r is built one bit at a time, least significant bit first.
The bit at level v is chosen to minimize the digit-wise quality h over the
running products q(t, k), odd k < 2^t. construct_cbc_dbd keeps them on the
unit layout of N (numtheory.unit_layout): level t holds one slot per +- pair
of residues, in the order 5^i mod 2^t (block n - t of the layout, and its
fixed residue N/4 for t = 2), so a candidate unit +-5^c only rotates the
level's kernel values. Once per component, in O(N), the slots
are folded into per-level sums, after which one bit costs O(2^(v-2))
contiguous reads, so a component costs O(N) and the whole vector O(s N)
(latgen._slowpath has the details, _dbd.c the compiled twin). For product
weights a candidate's score differs from h by the factor 2 of the +- pairs
and an additive constant that depends only on n and v, so minimizing either
picks the same bit; latgen.oracles.h_naive evaluates h as the subset sum
that defines it, the differential oracle the construction is tested against.
The quality H of the finished vector is error.H_quantity.
"""

from . import _kernels
from .kernel import kernel_table
from .numtheory import GeneratingVector
from .weights import ProductWeights, leading_gammas

__all__ = ["construct_cbc_dbd"]

#: Relative margin by which bit 1 must beat bit 0. Exact ties are common (at
#: v = 2, x and -x mod 4 always tie); without a margin they would be decided
#: by rounding, which differs between the C kernel and numpy. The margin is
#: compared with the score difference summed term by term, not with the
#: difference of two rounded scores, so the rounding of two large scores no
#: longer decides. Rounding in that difference still can (the C kernel sums
#: in slot order, numpy's dot product in its BLAS's order, which for the up
#: to N/4 slots of a level may split the sum over threads), but only for
#: margins within about eps * sum_i |P_v[i] (K1 - K0)| of the threshold.
#: Scoring one slot per +- pair halves both sides of the comparison.
TIE_RTOL = 1e-12


def construct_cbc_dbd(n: int, s: int, w: ProductWeights) -> GeneratingVector:
    """Greedy bitwise construction of z = (1, z_2, ..., z_s) for N = 2^n.

    O(s N) time and O(N) memory. Per bit the two candidates are scored in one
    pass over the level sums. Bit 0 is kept unless bit 1 scores lower by more
    than TIE_RTOL * |s0|, with s0 the score of bit 0, so a tie goes to bit 0
    on every backend unless the rounding in the difference reaches that margin.
    A score that leaves double range raises a ValueError naming the component.
    weights.leading_gammas checks s and w; the kernel table, built before
    any other array of length N, checks N's size. s = 1 builds no table and
    returns z = (1).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    gammas = leading_gammas(w, s)
    z = [1] * s
    if s >= 2 and n >= 2:
        built = _kernels.dbd_construct(kernel_table(1 << n), n, gammas[0], gammas[1:], TIE_RTOL)
        if len(built) < s - 1:
            raise ValueError(
                "the CBC-DBD scores for z_%d left double range: the weights are too large"
                % (len(built) + 2))
        z[1:] = built
    return GeneratingVector(1 << n, tuple(z))
