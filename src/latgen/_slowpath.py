"""Pure-numpy twins of the C kernels in _dbd.c.

latgen._kernels picks the C kernels or these at import time.

product_sum is the twin of the product-weight lattice sum, and
product_columns its loop over columns given as lists of parts: one slice per
block of the unit layout and one of its fixed residues
(numtheory.ColumnSlices), or one gathered array for the moduli that have no
such layout (see weights.subset_product_sum).

cbc_step is the twin of one fast-CBC component (latgen.cbc.ScoringPlan.step):
the update, through the plan's one reader of a rotation, ScoringPlan.column,
then the short tail's scores, the rounding bound and the near set. norm is
the one 2-norm of that bound, of the plan's kernel norms and row norm as
well as of the step's states; it sums without BLAS.

dbd_construct is the twin of the CBC-DBD construction. Both keep the state on
the unit layout of N = 2^n (numtheory.unit_layout): the odd residues mod 2^t
are +-5^i, i < L_t = 2^(t-2), and level t = 2..n holds one slot per +- pair,
q[t-2][i] = q(r-1, t, 5^i mod 2^t). Level t >= 3 is block n - t of the
layout, and its kernel values are that block's doubled values in
numtheory.UnitColumns; level 2 is the layout's fixed residue N/4. The order
lives in numtheory alone; _dbd.c mirrors it. The kernel table is exactly
symmetric, so q(t, k) == q(t, -k) bit for bit and N/2 - 1 slots hold the
whole state. Every fold, score and update then reads contiguous slices (see
dbd_fold and dbd_construct). Every kernel table here is
kernel.kernel_table(2^n), indexed by residue.
"""

import math

import numpy as np

from .numtheory import UnitColumns, unit_layout

#: Below this, a sum of squares may have lost terms to underflow.
_TINY = 2.0**-900


def dbd_fold(q, P):
    """Level sums of the state q (list of levels v = 2..n) into P, in place:
    P[v-2][i] = sum_{t=v..n} 2^(v-t) sum_{odd j < 2^t, j = k mod 2^v} q(t, j)
    at k = 5^i mod 2^v (the same at -k), folded down from P_n = q_n (the same
    array) by
    P_v[i] = q_v[i] + (P_{v+1}[i] + P_{v+1}[i + L_v]) / 2: since
    5^(L_v) = 1 + 2^v mod 2^(v+1), slots i and i + L_v of level v + 1 are the
    two lifts of slot i. These are the operands of the fold over all odd
    residues, so the sums are the same doubles.

    The level-v score of a candidate x = +-5^c mod 2^v is then
    sum_i P_v[i] * (1 + gamma * K_v[c + i]), half of the sum over all odd
    residues since each slot stands for a +- pair, for as long as only slots
    of levels below v change.
    """
    P[-1] = q[-1]
    for v in range(len(q) - 1, 0, -1):
        Pw = P[v]
        L = Pw.shape[0] // 2
        P[v - 1] = q[v - 1] + 0.5 * (Pw[:L] + Pw[L:])


def dbd_construct(ktab, n, gamma1, gammas, rtol):
    """Components for the weights gammas, after the first component 1 with
    weight gamma1; ktab is the log-sine table of modulus 2^n, n >= 2.

    Each component folds the state once (dbd_fold) and then picks its bits
    from level 2 up. The level-2 candidates 1 and 3 = -1 tie exactly, so
    z = 1 mod 4 and every bit-0 candidate is a power of 5: zr = 5^c mod
    2^(v-1) is 5^c or 5^(c + L_v/2) mod 2^v, which one residue tells, and
    its other bit zr + 2^(v-1) is the other one. With s0 the score of bit 0
    and dd the score difference of bit 1 minus bit 0, summed term by term,
    the level-v bit is set only if gamma * dd < -rtol * |s0|; halving every
    score for one slot per +- pair does not change that test. Returns the
    components built: all of them, or those before the first whose s0 or dd
    is not finite.
    """
    lay = unit_layout(1 << n)
    cols = UnitColumns(lay, ktab)
    # level v = 2..n at index v - 2: the fixed residue N/4, then block n - v,
    # whose values a unit +-5^c meets are its doubled values from c on
    res = [lay.fixed[1:2], *lay.blocks[::-1]]
    K = [cols.tab[res[0]], *(d for d, _ in cols.doubled[::-1])]
    q = [1.0 + gamma1 * Kv[: r.shape[0]] for r, Kv in zip(res, K)]
    P = [None] * len(q)
    z = []
    # a state that leaves double range is reported by the caller
    with np.errstate(over="ignore", invalid="ignore"):
        for gamma in gammas:
            dbd_fold(q, P)
            zr, c = 1, 0  # z = 1 = 5^0 mod 4: the level-2 bit always stays 0
            for v in range(2, n + 1):
                L = 1 << (v - 2)
                h = L >> 1
                Kv, Pv = K[v - 2], P[v - 2]
                if int(res[v - 2][c]) >> (n - v) != zr:
                    c += h
                c1 = c + h if c < h else c - h
                k0 = Kv[c : c + L]
                s0 = float(Pv.sum()) + gamma * float(Pv @ k0)
                dd = float(Pv @ (Kv[c1 : c1 + L] - k0))
                if not (math.isfinite(s0) and math.isfinite(dd)):
                    return z
                if gamma * dd < -rtol * abs(s0):
                    zr += 2 * L
                    c = c1
                q[v - 2] *= 1.0 + gamma * Kv[c : c + L]
            z.append(zr)
    return z


def product_columns(gammas, columns):
    """d[i] = prod_j (1 + gammas[j] col_j[i]) - 1, or None if columns is empty.

    columns yields, for j = 0, 1, ..., the parts of column j, which laid end
    to end give its values in slot order; each column is copied into one
    buffer by one concatenate and scaled there by one multiply, however many
    parts it has. The product is accumulated as prod - 1:
    d = gammas[0] col_0, then x = gammas[j] col_j and d = d + x (1 + d), the
    operations of _dbd.c's product_sum in its order, into three buffers
    allocated once, so the values are the same doubles.
    """
    d = x = y = None
    for j, parts in enumerate(columns):
        if j >= len(gammas):
            raise ValueError("more columns than weights: need one gamma per column")
        g = gammas[j]
        if d is None:
            size = sum(p.shape[0] for p in parts)
            d, x, y = np.empty(size), np.empty(size), np.empty(size)
        out = d if j == 0 else x
        np.concatenate(parts, out=out)
        np.multiply(g, out, out=out)
        if j:
            np.add(1.0, d, out=y)
            np.multiply(x, y, out=x)
            np.add(d, x, out=d)
    return d


def product_sum(gammas, cols):
    """The per-slot values prod_j (1 + gammas[j] col_j) - 1 of the columns
    of cols (numtheory.ColumnSlices), one gamma per column, at least one."""
    if len(gammas) != len(cols) or not len(cols):
        raise ValueError("need one gamma per column and at least one column")
    return product_columns(gammas, map(cols.parts, range(len(cols))))


def norm(a: np.ndarray) -> float:
    """||a||_2. The squares, a new contiguous array, are summed by numpy's
    pairwise add.reduce, in an order that its source fixes, and not by
    BLAS, whose order follows its thread count; every norm of the fast
    CBC's rounding bound comes from here. Where the sum leaves double
    range, a is scaled by a power of two, which is exact, so every norm that
    the sum gives as it is comes out the same. A norm beyond double range is
    inf."""
    ss = float(np.add.reduce(a * a))
    if _TINY < ss < math.inf:
        return math.sqrt(ss)
    top = float(np.abs(a).max(initial=0.0))
    if top == 0.0 or not math.isfinite(top):
        return math.sqrt(ss)
    e = math.frexp(top)[1]
    b = np.ldexp(a, -e)
    try:
        return math.ldexp(math.sqrt(float(np.add.reduce(b * b))), e)
    except OverflowError:
        return math.inf


def cbc_step(st, b, gamma, score):
    """One component of the fast CBC on the step state st (latgen.cbc): for
    0 <= b < len(st.sc), first st.p *= 1 + gamma * st.plan.column(b), the
    same elementwise operations as the compiled step's update; b = -1 leaves
    st.p as it is. Then, if score is true, the short tail's scores
    p[short:] @ st.ct are added to the transform's scores in st.sc
    (written there when the plan has no long level), the rounding bound
    goes to st.bound[0] and the near set, the candidates within twice the
    bound of the least score, to st.near. Returns the size of the near set;
    0 if the scores are not finite or score is false."""
    plan, p, sc = st.plan, st.p, st.sc
    if not -1 <= b < sc.shape[0]:
        raise ValueError("candidate %d is out of range" % b)
    ps = p[plan.short :]
    if b >= 0:
        p *= 1.0 + gamma * plan.column(b)
    if not score:
        return 0
    bound = 0.0
    if plan.levels:
        weight = 0.0
        for lv in plan.levels:
            weight += norm(p[lv.start : lv.stop]) * lv.kernel_norm
        bound = st.tfactor * weight
    if ps.shape[0]:
        part = ps @ st.ct  # the dgemv of st.ct.T @ ps, without the transposed view
        if plan.levels:
            sc.reshape(-1, part.shape[0])[...] += part
        else:
            sc[...] = part
        bound += st.sfactor * norm(ps * plan.short_counts) * plan.row_norm
    st.bound[0] = bound
    lo = float(sc[sc.argmin()])  # the first NaN, if there is one
    if not math.isfinite(lo):
        return 0
    near = (sc <= lo + 2.0 * bound).nonzero()[0]
    st.near[: near.shape[0]] = near
    return near.shape[0]
