/* The compiled kernels of latgen: the CBC-DBD construction for N = 2^n on
 * the unit layout (dbd_construct) and the product-weight lattice sum over
 * columns that are slices of one table (product_sum). latgen._slowpath holds
 * the numpy twin of each and its docstrings.
 *
 * dbd_construct: the odd residues mod 2^t are +-5^i, i < L_t = 2^(t-2). Level
 * t = 2..n of the state holds one slot per +- pair, q[L_t - 1 + i] =
 * q(r-1, t, 5^i mod 2^t): the kernel table is exactly symmetric, so
 * q(t, k) == q(t, -k) bit for bit and N/2 - 1 slots hold all of it.
 * K[2 (L_t - 1) + i] is the log-sine table at the residue
 * (5^i mod 2^t) 2^(n-t), stored twice in a row, so that the values a unit
 * +-5^c meets are the slice starting at c.
 *
 * At the start of each component the slots are folded into the level sums
 *   P_v[i] = sum_{t=v..n} 2^(v-t) sum_{odd j < 2^t, j = k mod 2^v} q(t, j)
 * at k = 5^i mod 2^v (the same at -k), stored like q, by P_n = q_n and
 *   P_v[i] = q_v[i] + (P_{v+1}[i] + P_{v+1}[i + L_v]) / 2,
 * since 5^(L_v) = 1 + 2^v mod 2^(v+1) makes slots i and i + L_v of level v+1
 * the two lifts of slot i. The level-v score of a candidate x = +-5^c mod 2^v
 * is sum_i P_v[i] (1 + gamma K_v[c + i]), half the score over all odd k; its
 * other bit x + 2^(v-1) is +-5^(c + L_v/2). The update after level v touches
 * only the level-v slots, which the later levels of the same component never
 * read, so one fold per component serves every level: O(N) per component,
 * O(s N) in all, and every read a contiguous slice.
 *
 * product_sum: every product-weight lattice sum (e, T, T_alpha, H, V and the
 * theorem bounds) is sum_i counts[i] d[i] with d[i] = prod_j (1 + gamma_j
 * col_j[i]) - 1, and on the unit layout each column is a few slices of one
 * buffer (numtheory.UnitColumns). The slots are walked in chunks of CHUNK
 * values, and each chunk runs through all s columns before the next one
 * starts, so d stays in L1 while the columns stream past. Per value the
 * operations are those of the numpy twin, in its order: d = gamma_1 t, then
 * x = gamma_j t and d = d + x (1 + d), so d is the same doubles.
 *
 * Compiled on first import by latgen._kernels and loaded with ctypes. Build
 * with -ffp-contract=off so every product and sum is rounded as written.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* Components z[i] for the weights gammas[i], i = 0..m-1, after the first
 * component 1 with weight gamma1; ktab is the log-sine table of modulus
 * 2^n, n >= 2. With s0 the score of bit 0 and dd the score difference of
 * bit 1 minus bit 0, summed term by term, the level-v bit is set only if
 * gamma * dd < -rtol * |s0|. Returns the number of components built: m, or
 * the index of the first whose s0 or dd is not finite; -1 if out of memory. */
int64_t dbd_construct(const double *ktab, int n, double gamma1, int64_t m,
                      const double *gammas, double rtol, uint64_t *z)
{
    uint64_t N = (uint64_t)1 << n, H = N / 4;
    double *q = malloc(2 * N * sizeof(double));
    uint32_t *R = malloc(H * sizeof(uint32_t));
    if (q == NULL || R == NULL) {
        free(q);
        free(R);
        return -1;
    }
    double *P = q + N / 2, *K = q + N;
    R[0] = 1; /* R[i] = 5^i mod N */
    for (uint64_t i = 1; i < H; i++)
        R[i] = (uint32_t)((5 * (uint64_t)R[i - 1]) & (N - 1));
    for (int v = 2; v <= n; v++) {
        uint64_t L = (uint64_t)1 << (v - 2);
        double *Kv = K + 2 * (L - 1), *qv = q + L - 1;
        for (uint64_t i = 0; i < L; i++) {
            double k = ktab[(R[i] & (4 * L - 1)) << (n - v)];
            Kv[i] = Kv[i + L] = k;
            qv[i] = 1.0 + gamma1 * k;
        }
    }
    int64_t done = 0;
    for (; done < m; done++) {
        double gamma = gammas[done];
        for (int v = n - 1; v >= 2; v--) {
            uint64_t L = (uint64_t)1 << (v - 2);
            const double *Pw = (v + 1 == n ? q : P) + 2 * L - 1, *qv = q + L - 1;
            double *Pv = P + L - 1;
            for (uint64_t i = 0; i < L; i++)
                Pv[i] = qv[i] + 0.5 * (Pw[i] + Pw[i + L]);
        }
        /* z = 1 = 5^0 mod 4: the level-2 candidates 1 and 3 = -1 tie exactly,
         * so the level-2 bit stays 0 and every zr is a power of 5 */
        uint64_t zr = 1, c = 0;
        for (int v = 2; v <= n; v++) {
            uint64_t L = (uint64_t)1 << (v - 2), h = L / 2;
            const double *Kv = K + 2 * (L - 1), *Pv = (v == n ? q : P) + L - 1;
            double *qv = q + L - 1;
            /* zr = 5^c mod 2^(v-1), so zr mod 2^v is 5^c or 5^(c + h) */
            if ((R[c] & (4 * L - 1)) != zr)
                c += h;
            uint64_t c1 = c < h ? c + h : c - h;
            double sp = 0.0, a0 = 0.0, dd = 0.0;
            for (uint64_t i = 0; i < L; i++) {
                double k0 = Kv[c + i];
                sp += Pv[i];
                a0 += Pv[i] * k0;
                dd += Pv[i] * (Kv[c1 + i] - k0);
            }
            double s0 = sp + gamma * a0;
            if (!isfinite(s0) || !isfinite(dd))
                goto out;
            if (gamma * dd < -rtol * fabs(s0)) {
                zr += 2 * L;
                c = c1;
            }
            for (uint64_t i = 0; i < L; i++)
                qv[i] *= 1.0 + gamma * Kv[c + i];
        }
        z[done] = zr;
    }
out:
    free(q);
    free(R);
    return done;
}

/* A chunk of d: 512 doubles, 4 KiB, well inside L1 beside the column slices
 * streaming past it. */
#define CHUNK 512

/* d[i] = prod_j (1 + gammas[j] col_j[i]) - 1 for j = 0..s-1, s >= 1, over
 * the slots of m segments laid end to end in d: segment k is lengths[k] long,
 * and column j's values there are buf[offsets[j m + k] ...]. The product is
 * accumulated as prod - 1, d' = d + x (1 + d) with x = gammas[j] col_j[i],
 * so values far below machine epsilon keep full relative precision. */
void product_sum(const double *buf, int64_t m, const int64_t *lengths, int64_t s,
                 const int64_t *offsets, const double *gammas, double *d)
{
    for (int64_t k = 0; k < m; k++) {
        int64_t L = lengths[k];
        for (int64_t c = 0; c < L; c += CHUNK) {
            int64_t len = L - c < CHUNK ? L - c : CHUNK;
            double *restrict dc = d + c;
            const double *restrict t = buf + offsets[k] + c;
            double g = gammas[0];
            for (int64_t i = 0; i < len; i++)
                dc[i] = g * t[i];
            for (int64_t j = 1; j < s; j++) {
                const double *restrict tj = buf + offsets[j * m + k] + c;
                g = gammas[j];
                for (int64_t i = 0; i < len; i++) {
                    double x = g * tj[i];
                    dc[i] = dc[i] + x * (1.0 + dc[i]);
                }
            }
        }
        d += L;
    }
}
