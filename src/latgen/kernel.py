"""Residue tables of the kernels, and the scalar math behind them.

Every table the constructions and the lattice sums read is built here: the
log-sine table ln(1/sin^2(pi a / N)) (H and CBC-DBD), its shift omega by
-ln 4 (V and Korobov CBC), the Fourier decay sum sum_{m != 0}
e^{2 pi i m a / N} / |m|^alpha of the worst-case error, and its truncation
at |m| < N (T and T_alpha); with them Bernoulli polynomials and
zeta(alpha). latgen.oracles evaluates the same kernels one point at a time,
as the references the tables are tested against.

scipy is imported only by the Hurwitz-zeta fold of fourier_decay_table at
alpha outside {2, 4, 6, 8}, on its first use; the log-sine tables, the
even-alpha closed forms and everything else here need numpy alone, so a
process that never builds such a table never loads scipy.

The per-modulus tables, kernel_table, omega_table, vartheta_table and
fourier_decay_table, share one format: a length-N array indexed by the
residue a = k z mod N, exactly symmetric (tab[a] == tab[N - a]). The log-sine
tables, which are undefined at a = 0, store tab[0] = 0 there. vartheta_table
and the Hurwitz fold of fourier_decay_table fold their series by residue
class, and cosine_dft turns the fold into values, one numpy.fft transform.
Each refuses N < 2, and N >= 2^31 (numtheory.check_modulus) before it
allocates, so a library call at such a modulus fails as the CLI does, with
a ValueError.
"""

import math

import numpy as np

from .numtheory import check_modulus

__all__ = [
    "LN4",
    "cosine_dft",
    "kernel_table",
    "omega_table",
    "vartheta_table",
    "bernoulli_poly",
    "zeta",
    "fourier_decay_table",
]

LN4 = math.log(4.0)


def cosine_dft(c) -> np.ndarray:
    """tab[a] = sum_j c[j] cos(2 pi j a / n) for a real sequence c of length n,
    one numpy.fft transform: the values at every residue of a series folded
    by residue class.

    Stored exactly symmetric, tab[a] == tab[n - a], which the fast CBC needs
    of its kernel tables.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or c.shape[0] < 1:
        raise ValueError("need a nonempty 1-d sequence")
    tab = np.ascontiguousarray(np.fft.fft(c).real)
    tab[1:] = 0.5 * (tab[1:] + tab[1:][::-1])
    return tab


def _check_table_modulus(N: int):
    """Refuse a modulus that has no table, N < 2, or one too large for any
    (numtheory.check_modulus), before anything is allocated."""
    check_modulus(N)
    if N < 2:
        raise ValueError("need N >= 2")


def kernel_table(N: int) -> np.ndarray:
    """tab[a] = ln(1/sin^2(pi a / N)) for a = 1..N-1, indexed by residue, tab[0] = 0.

    The symmetry tab[a] == tab[N - a] holds exactly as stored, which
    downstream code relies on (gather sums for z and N-z come out bit-equal).
    """
    _check_table_modulus(N)
    # -2 ln(sin(pi k / N)), k = 1..N-1, in one buffer: the operations of the
    # expression in its order, without a temporary per step.
    vals = np.arange(1, N, dtype=np.float64)
    vals *= np.pi
    vals /= N
    np.sin(vals, out=vals)
    np.log(vals, out=vals)
    vals *= -2.0
    tab = np.empty(N)
    tab[0] = 0.0
    # Enforce exact symmetry: averaging the mirrored array maps both members
    # of each (k, N-k) pair to the identical double.
    np.add(vals, vals[::-1], out=tab[1:])
    tab[1:] *= 0.5
    return tab


def omega_table(N: int) -> np.ndarray:
    """omega(a / N) = ln(1/sin^2(pi a / N)) - ln 4 by residue, tab[0] = 0."""
    tab = kernel_table(N)
    tab[1:] -= LN4
    return tab


def vartheta_table(N: int, alpha: float = 1.0) -> np.ndarray:
    """tab[a] = sum_{0 < |m| < N} e^(2 pi i m a / N) / |m|^alpha for a = 0..N-1.

    Folding m by residue class gives coefficients c_res = res^-alpha +
    (N-res)^-alpha, so one length-N DFT produces every residue's value;
    tab[0] = 2 sum_{m=1}^{N-1} m^-alpha.
    """
    _check_table_modulus(N)
    if alpha < 1.0:
        raise ValueError("requires alpha >= 1")
    p = np.arange(1, N, dtype=float) ** (-alpha)
    c = np.zeros(N)
    c[1:] = p + p[::-1]
    tab = cosine_dft(c)
    tab[0] = 2.0 * math.fsum(memoryview(p))
    return tab


# Bernoulli polynomial coefficients, highest power first.
_BERNOULLI_COEFFS = {
    2: (1.0, -1.0, 1.0 / 6.0),
    4: (1.0, -2.0, 1.0, 0.0, -1.0 / 30.0),
    6: (1.0, -3.0, 5.0 / 2.0, 0.0, -1.0 / 2.0, 0.0, 1.0 / 42.0),
    8: (1.0, -4.0, 14.0 / 3.0, 0.0, -7.0 / 3.0, 0.0, 2.0 / 3.0, 0.0, -1.0 / 30.0),
}


def bernoulli_poly(alpha: int, x):
    """B_alpha(x) for alpha in {2, 4, 6, 8}; accepts scalars or arrays."""
    try:
        coeffs = _BERNOULLI_COEFFS[alpha]
    except (KeyError, TypeError):
        raise ValueError("bernoulli_poly supports alpha in {2,4,6,8}, got %r" % (alpha,))
    result = np.zeros_like(np.asarray(x, dtype=float))
    for c in coeffs:
        result = result * x + c
    if np.ndim(x) == 0:
        return float(result)
    return result


def _check_alpha(alpha):
    if not (math.isfinite(alpha) and alpha > 1.0):
        raise ValueError("requires finite alpha > 1, got alpha = %r" % (alpha,))


def zeta(alpha: float) -> float:
    """Riemann zeta via truncated sum plus Euler-Maclaurin tail correction.

    Absolute error well below 1e-12 for alpha >= 1.5.
    """
    _check_alpha(alpha)
    M = 1000
    head = math.fsum(n ** (-alpha) for n in range(1, M + 1))
    tail = M ** (1.0 - alpha) / (alpha - 1.0)
    tail -= 0.5 * M ** (-alpha)
    tail += alpha / 12.0 * M ** (-alpha - 1.0)
    # Skipped once M^(-alpha-3) underflows: alpha^3 alone overflows near 5e102.
    last = M ** (-alpha - 3.0)
    if last:
        tail -= alpha * (alpha + 1.0) * (alpha + 2.0) / 720.0 * last
    return head + tail


def fourier_decay_table(alpha: float, N: int) -> np.ndarray:
    """The decay sum at every lattice residue: table[a] = sum_{m != 0}
    e^{2 pi i m a / N} / |m|^alpha (oracles.fourier_decay_sum(alpha, a/N)).

    table[0] = 2 zeta(alpha). For even alpha this is the exact closed form; for
    general alpha the series is folded by residue class, each class summed to
    machine precision (Hurwitz zeta), and one length-N DFT produces all values,
    so the result is far more accurate than plain truncation can reach. The
    fold needs N^alpha within double range: a larger alpha raises ValueError.
    """
    _check_table_modulus(N)
    _check_alpha(alpha)
    if alpha in _BERNOULLI_COEFFS:
        # (-1)^(alpha/2+1) (2 pi)^alpha B_alpha(a/N) / alpha!
        a = int(alpha)
        c = (-1.0 if (a // 2) % 2 == 0 else 1.0) * (2.0 * math.pi) ** a / math.factorial(a)
        table = c * bernoulli_poly(a, np.arange(N) / N)
        table[1:] = 0.5 * (table[1:] + table[1:][::-1])
        return table
    # latgen's one use of scipy, imported here and not at start-up (see above)
    from scipy.special import zeta as hurwitz_zeta

    # S[res] = sum over positive m congruent to res mod N of m^-alpha
    res = np.arange(N, dtype=float)
    S = np.empty(N)
    S[0] = zeta0 = zeta(alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        S[1:] = hurwitz_zeta(alpha, res[1:] / N)
        S *= float(N) ** (-alpha)
    if not np.isfinite(S).all():
        raise ValueError("the decay table for alpha = %r at N = %d overflows double "
                         "precision" % (alpha, N))
    table = 2.0 * cosine_dft(S)
    table[0] = 2.0 * zeta0
    return table
