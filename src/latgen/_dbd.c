/* The compiled kernels of latgen: the CBC-DBD construction for N = 2^n on
 * the unit layout (dbd_construct), the product-weight lattice sum over
 * columns that are slices of one table (product_sum) and one component of
 * the fast CBC (cbc_step). latgen._slowpath holds the numpy twin of each and
 * its docstrings.
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
 * cbc_step: everything of one fast-CBC component but the long levels'
 * transforms (latgen.cbc). The running product p sits on the slots of
 * numtheory.unit_layout(N) but the last: each long level's slots, then the
 * m short ones. The step multiplies p by 1 + gamma column(b), the kernel
 * values that candidate b meets (a slice of each long level's doubled
 * values, one row of the short tail's table), element by element as the
 * twin does, so p is the same doubles on both. It then scores the short tail
 * for every candidate: part[i] = sum_j ct[j P + i] p[short + j], the rows of
 * the table times each slot's count of residues (1 or 2, so folding them
 * into the table is exact), summed in the order j = 0, 1, ..., m-1, and adds
 * part[b mod P] to the transform's score of candidate b (or writes it, when
 * there is no long level). The rounding bound is that of latgen.cbc: the
 * transforms' term, from the 2-norm of each long level's slots, and the
 * short tail's, from the 2-norm of its fold; a norm whose sum of squares
 * leaves double range is taken of the values scaled by a power of two,
 * which is exact. Last come the argmin and the near set: every candidate
 * within twice the bound of the least score.
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

/* One long level of the fast CBC: the kernel values of its slots
 * p[start : start + len], stored twice in a row, and twice the 2-norm of
 * what its spectrum transforms. */
struct cbc_level {
    const double *values;
    int64_t start, len;
    double kernel_norm;
};

/* The arrays of one fast-CBC construction (latgen.cbc's step state). */
struct cbc_state {
    double *p;                      /* the running product, short + m slots */
    double *sc;                     /* the Q candidates' scores */
    int64_t *near;                  /* out: the near set, ascending */
    double *bound;                  /* out: the scores' rounding bound */
    double *part;                   /* P doubles of scratch */
    const struct cbc_level *levels; /* nlev long levels, leading p */
    const double *rows;             /* P x m: row b mod P is candidate b's short tail */
    const double *ct;               /* m x P: the rows times the counts, transposed */
    const double *counts;           /* m residues per short slot */
    int64_t nlev, Q, P, m, short_start;
    double tfactor, sfactor, row_norm; /* the bound's factors (latgen.cbc) */
};

/* Below this, a sum of squares may have lost terms to underflow. */
#define TINY 0x1p-900

/* The sum of squares of x o c (of x when c is NULL), in four partial sums,
 * i mod 4, added in a fixed order at the end. */
static double sum_squares(const double *x, const double *c, int64_t n)
{
    double acc[4] = {0.0, 0.0, 0.0, 0.0};
    int64_t i = 0;
    if (c) {
        for (; i + 4 <= n; i += 4)
            for (int k = 0; k < 4; k++) {
                double v = x[i + k] * c[i + k];
                acc[k] += v * v;
            }
        for (; i < n; i++)
            acc[0] += (x[i] * c[i]) * (x[i] * c[i]);
    } else {
        for (; i + 4 <= n; i += 4)
            for (int k = 0; k < 4; k++)
                acc[k] += x[i + k] * x[i + k];
        for (; i < n; i++)
            acc[0] += x[i] * x[i];
    }
    return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

/* ||x o c||_2 (||x||_2 when c is NULL). Where the sum of squares leaves
 * (TINY, inf), the values are scaled by 2^-e, e the binary exponent of the
 * largest |value|, and the norm scaled back, as in the twin. */
static double norm2(const double *x, const double *c, int64_t n)
{
    double ss = sum_squares(x, c, n);
    if (TINY < ss && ss < INFINITY)
        return sqrt(ss);
    double top = 0.0;
    for (int64_t i = 0; i < n; i++) {
        double v = fabs(c ? x[i] * c[i] : x[i]);
        if (v > top)
            top = v;
    }
    if (top == 0.0 || !isfinite(top) || isnan(ss))
        return sqrt(ss);
    int e;
    frexp(top, &e);
    ss = 0.0;
    for (int64_t i = 0; i < n; i++) {
        double v = ldexp(c ? x[i] * c[i] : x[i], -e);
        ss += v * v;
    }
    return ldexp(sqrt(ss), e);
}

/* The least of x[0:n] that is not NaN, inf if there is none. Four running
 * minima, i mod 4, so no comparison waits on the one before. */
static double least(const double *x, int64_t n)
{
    double lo[4] = {INFINITY, INFINITY, INFINITY, INFINITY};
    int64_t i = 0;
    for (; i + 4 <= n; i += 4)
        for (int k = 0; k < 4; k++)
            lo[k] = x[i + k] < lo[k] ? x[i + k] : lo[k];
    for (; i < n; i++)
        lo[0] = x[i] < lo[0] ? x[i] : lo[0];
    lo[0] = lo[1] < lo[0] ? lo[1] : lo[0];
    lo[2] = lo[3] < lo[2] ? lo[3] : lo[2];
    return lo[2] < lo[0] ? lo[2] : lo[0];
}

/* One component of the fast CBC on st. For 0 <= b < Q, first
 * p *= 1 + gamma column(b); b = -1 leaves p as it is. Then, if score is
 * nonzero, the short tail is scored into st->sc, the bound written to
 * *st->bound and the near set to st->near. Returns the size of the near set;
 * 0 if a score is NaN, the least one not finite or the near set empty; 0
 * without score; -1 if b is out of range. */
int64_t cbc_step(const struct cbc_state *st, int64_t b, double gamma, int score)
{
    double *p = st->p, *sc = st->sc;
    int64_t P = st->P, m = st->m, Q = st->Q;
    double *ps = p + st->short_start;
    if (b < -1 || b >= Q)
        return -1;
    if (b >= 0) {
        for (int64_t l = 0; l < st->nlev; l++) {
            const struct cbc_level *lv = st->levels + l;
            int64_t L = lv->len;
            const double *restrict v = lv->values + (L - b % L) % L;
            double *restrict pl = p + lv->start;
            for (int64_t i = 0; i < L; i++)
                pl[i] *= 1.0 + gamma * v[i];
        }
        const double *restrict row = st->rows + (b % P) * m;
        for (int64_t i = 0; i < m; i++)
            ps[i] *= 1.0 + gamma * row[i];
    }
    if (!score)
        return 0;
    double bound = 0.0;
    if (st->nlev) {
        double weight = 0.0;
        for (int64_t l = 0; l < st->nlev; l++) {
            const struct cbc_level *lv = st->levels + l;
            weight += norm2(p + lv->start, NULL, lv->len) * lv->kernel_norm;
        }
        bound = st->tfactor * weight;
    }
    if (m) {
        double *restrict part = st->nlev ? st->part : sc;
        for (int64_t i = 0; i < P; i++)
            part[i] = 0.0;
        for (int64_t j = 0; j < m; j++) {
            const double *restrict cj = st->ct + j * P;
            double x = ps[j];
            for (int64_t i = 0; i < P; i++)
                part[i] += cj[i] * x;
        }
        if (st->nlev)
            for (int64_t k = 0; k < Q; k += P)
                for (int64_t i = 0; i < P; i++)
                    sc[k + i] += part[i];
        bound += st->sfactor * norm2(ps, st->counts, m) * st->row_norm;
    }
    *st->bound = bound;
    double lo = least(sc, Q);
    if (!isfinite(lo))
        return 0;
    double top = lo + 2.0 * bound;
    int64_t n = 0;
    for (int64_t k = 0; k < Q; k++)
        if (!(sc[k] > top)) { /* near, or a NaN score or bound */
            if (!(sc[k] <= top))
                return 0;
            st->near[n++] = k;
        }
    return n;
}
