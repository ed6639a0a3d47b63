"""Pure-numpy CBC-DBD loops.

dbd_construct is the numpy twin of the C kernel in _dbd.c, and
latgen._kernels picks one of the two at import time. dbd_score_pair and
dbd_update are the per-level walk that cbc_dbd.h_bar and update_p use on
both backends; they are the reference the per-component fold is tested
against. Every kernel table here is kernel.kernel_table(2^n), indexed by
residue.
"""

import numpy as np


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


def dbd_fold(p, n, P):
    """Level sums P_v[k] = sum_{t=v..n} 2^(v-t) sum_{odd j < 2^t, j = k mod 2^v}
    q(t, j) of the state p, for odd k < 2^v, v = 2..n, into P[2^(v-1) + (k-1)/2]
    (P has 2^n entries), folded down from v = n by
    P_v[k] = q(v, k) + (P_{v+1}[k] + P_{v+1}[k + 2^v]) / 2.

    The level-v score of a candidate x is then
    sum_k P_v[k] * (1 + gamma * ktab[(k x mod 2^v) * 2^(n-v)]), the value
    dbd_score_pair returns, for as long as only slots of levels below v change.
    """
    for v in range(n, 1, -1):
        half = 1 << (v - 1)
        q = p[(1 << (n - v)) - 1 : (1 << n) - 1 : 1 << (n - v + 1)]
        if v == n:
            P[half : 2 * half] = q
        else:
            P[half : 2 * half] = q + 0.5 * (P[2 * half : 3 * half] + P[3 * half : 4 * half])


def dbd_construct(p, ktab, n, gammas, rtol):
    """Components for the weights gammas, built on the state p (updated in
    place). Each component folds p once (dbd_fold) and then picks its bits
    from level 2 up. With s0 the score of bit 0 and dd the score difference
    of bit 1 minus bit 0, summed term by term, the level-v bit is set only if
    gamma * dd < -rtol * |s0|."""
    P = np.empty(1 << n)
    odd = np.arange(1, 1 << n, 2, dtype=np.int64)
    z = []
    for gamma in gammas:
        dbd_fold(p, n, P)
        zr = 1
        for v in range(2, n + 1):
            half = 1 << (v - 1)
            Pv = P[half : 2 * half]
            a = (odd[:half] * zr) & (2 * half - 1)
            k0 = ktab[a << (n - v)]
            k1 = ktab[(a ^ half) << (n - v)]
            s0 = float(Pv.sum()) + gamma * float(Pv @ k0)
            if gamma * float(Pv @ (k1 - k0)) < -rtol * abs(s0):
                zr += half
            dbd_update(p, ktab, n, v, zr, gamma)
        z.append(zr)
    return z
