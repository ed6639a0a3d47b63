/* CBC-DBD construction for N = 2^n; latgen._slowpath holds the numpy
 * reference version and its docstrings.
 *
 * p[k * 2^(n-t) - 1] holds the running product q(r-1, t, k) for odd k < 2^t;
 * ktab is the padded log-sine table of modulus N. At the start of each
 * component the slots are folded into the level sums
 *   P_v[k] = sum_{t=v..n} 2^(v-t) sum_{odd j < 2^t, j = k mod 2^v} q(t, j),
 * stored at P[2^(v-1) + (k-1)/2] for odd k < 2^v, v = 2..n, by
 *   P_v[k] = q(v, k) + (P_{v+1}[k] + P_{v+1}[k + 2^v]) / 2.
 * The level-v score of a candidate x is sum_k P_v[k] (1 + gamma K(k x / 2^v)).
 * The update after level v touches only the level-v slots, which the later
 * levels of the same component never read, so one fold per component serves
 * every level: O(N) per component, O(s N) in all.
 *
 * Compiled on first import by latgen._kernels and loaded with ctypes. Build
 * with -ffp-contract=off so every product and sum is rounded as written.
 */
#include <math.h>
#include <stdint.h>

/* Components z[i] for the weights gammas[i], i = 0..m-1, built on the state
 * p; P is scratch of 2^n doubles. With s0 the score of bit 0 and dd the
 * score difference of bit 1 minus bit 0, summed term by term, the level-v
 * bit is set only if gamma * dd < -rtol * |s0|. */
void dbd_construct(double *p, const double *ktab, int n, int64_t m,
                   const double *gammas, double rtol, double *P, uint64_t *z)
{
    for (int64_t i = 0; i < m; i++) {
        double gamma = gammas[i];
        for (int v = n; v >= 2; v--) {
            uint64_t half = (uint64_t)1 << (v - 1);
            double *Pv = P + half;
            const double *Pw = P + 2 * half;
            for (uint64_t j = 0; j < half; j++) {
                double q = p[((2 * j + 1) << (n - v)) - 1];
                Pv[j] = v == n ? q : q + 0.5 * (Pw[j] + Pw[j + half]);
            }
        }
        uint64_t zr = 1;
        for (int v = 2; v <= n; v++) {
            uint64_t half = (uint64_t)1 << (v - 1);
            uint64_t mask = 2 * half - 1;
            int shift = n - v;
            const double *Pv = P + half;
            double sp = 0.0, a0 = 0.0, dd = 0.0;
            for (uint64_t j = 0; j < half; j++) {
                uint64_t a = ((2 * j + 1) * zr) & mask;
                double k0 = ktab[a << shift];
                double k1 = ktab[(a ^ half) << shift];
                sp += Pv[j];
                a0 += Pv[j] * k0;
                dd += Pv[j] * (k1 - k0);
            }
            double s0 = sp + gamma * a0;
            if (gamma * dd < -rtol * fabs(s0))
                zr += half;
            for (uint64_t j = 0; j < half; j++) {
                uint64_t k = 2 * j + 1;
                p[(k << shift) - 1] *= 1.0 + gamma * ktab[((k * zr) & mask) << shift];
            }
        }
        z[i] = zr;
    }
}
