"""Pure-numpy CBC-DBD loops.

dbd_construct is the numpy twin of the C kernel in _dbd.c, and
latgen._kernels picks one of the two at import time. Both keep the state on
the unit layout of N = 2^n (numtheory.unit_layout): the odd residues mod 2^t
are +-5^i, i < L_t = 2^(t-2), and level t = 2..n holds one slot per +- pair,
q[t-2][i] = q(r-1, t, 5^i mod 2^t). The kernel table is exactly symmetric, so
q(t, k) == q(t, -k) bit for bit and N/2 - 1 slots hold the whole state.
Every fold, score and update then reads contiguous slices (see dbd_fold and
dbd_construct).

dbd_score_pair and dbd_update are the per-level walk over the interleaved
layout p[k * 2^(n-t) - 1] = q(r-1, t, k) that cbc_dbd.h_bar and update_p use
on both backends; they are the per-bit reference the construction is tested
against. Every kernel table here is kernel.kernel_table(2^n), indexed by
residue.
"""

import math

import numpy as np

from .numtheory import unit_layout


def dbd_score_pair(p, ktab, n, v, x0, gamma):
    """Digit-wise quality of the two candidate bits at level v.

    p[k * 2^(n-t) - 1] holds the running product q(r-1, t, k); ktab is the
    log-sin table of modulus N = 2^n. Returns the pair of scores for
    x0 and x0 + 2^(v-1), fused so the q gather is shared.
    """
    x1 = x0 + (1 << (v - 1))
    mask = (1 << v) - 1
    shift = n - v
    s0 = 0.0
    s1 = 0.0
    scale = 1.0
    for t in range(v, n + 1):
        k = np.arange(1, 1 << t, 2, dtype=np.int64)
        q = p[(k << (n - t)) - 1]
        i0 = ((k * x0) & mask) << shift
        i1 = ((k * x1) & mask) << shift
        s0 += scale * float(q @ (1.0 + gamma * ktab[i0]))
        s1 += scale * float(q @ (1.0 + gamma * ktab[i1]))
        scale *= 0.5
    return s0, s1


def dbd_update(p, ktab, n, v, z, gamma):
    """Fold the freshly selected bits into the level-v slots of p, in place."""
    k = np.arange(1, 1 << v, 2, dtype=np.int64)
    idx = ((k * z) & ((1 << v) - 1)) << (n - v)
    p[(k << (n - v)) - 1] *= 1.0 + gamma * ktab[idx]


def level_tables(ktab, n):
    """The residues and kernel values of levels v = 2..n, at index v - 2.

    res[v-2][i] = (5^i mod 2^v) 2^(n-v) for i < 2^(v-2), the block n - v of
    unit_layout(2^n) (level 2 is its fixed slot N/4), and K[v-2] is ktab at
    those residues, stored twice in a row: the values that a unit
    x = +-5^c mod 2^v meets on the level's slots are K[v-2][c : c + 2^(v-2)].
    """
    lay = unit_layout(1 << n)
    res = [lay.fixed[2:]] + [lay.blocks[n - v] for v in range(3, n + 1)]
    return res, [np.tile(ktab[r], 2) for r in res]


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
    sum_i P_v[i] * (1 + gamma * K_v[c + i]), half of what dbd_score_pair
    returns, for as long as only slots of levels below v change.
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
    res, K = level_tables(ktab, n)
    q = [1.0 + gamma1 * Kv[: Kv.shape[0] // 2] for Kv in K]
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
