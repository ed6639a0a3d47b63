"""Scalar math kernels.

The log-sine kernels omega(x) = -2 ln(2 sin(pi x)) and ln(1/sin^2(pi x)), the
truncated Fourier kernel vartheta_N, Bernoulli polynomials, zeta(alpha), and
the Fourier decay sum sum_{m != 0} e^{2 pi i m x} / |m|^alpha that appears in
the worst-case error.

scipy is imported only by the Hurwitz-zeta fold of fourier_decay_table at
alpha outside {2, 4, 6, 8}, on its first use; the log-sine tables, the
even-alpha closed forms and everything else here need numpy alone, so a
process that never builds such a table never loads scipy.

The per-modulus tables, kernel_table and fourier_decay_table here and
error.vartheta_table, share one format: a length-N array indexed by the
residue a = k z mod N, exactly symmetric (tab[a] == tab[N - a]). The log-sine
table, which is undefined at a = 0, stores tab[0] = 0 there.
"""

import math

import numpy as np

from .spectral import cosine_dft

__all__ = [
    "LN4",
    "omega",
    "log_inv_sin2",
    "kernel_table",
    "vartheta_truncated",
    "bernoulli_poly",
    "zeta",
    "fourier_decay_sum",
    "fourier_decay_table",
]

LN4 = math.log(4.0)

#: Maximum number of series terms for the truncated Fourier decay sum.
TRUNCATION_CAP = 10**7


def omega(x: float) -> float:
    """-2 ln(2 sin(pi x)) for x in (0, 1); undefined at the endpoints."""
    if not 0.0 < x < 1.0:
        raise ValueError("omega is undefined outside (0,1), got x=%r" % (x,))
    return -2.0 * math.log(2.0 * math.sin(math.pi * x))


def log_inv_sin2(x: float) -> float:
    """ln(1/sin^2(pi x)) = omega(x) + ln 4 for x in (0, 1)."""
    if not 0.0 < x < 1.0:
        raise ValueError("log_inv_sin2 is undefined outside (0,1), got x=%r" % (x,))
    return -2.0 * math.log(math.sin(math.pi * x))


def kernel_table(N: int) -> np.ndarray:
    """tab[a] = ln(1/sin^2(pi a / N)) for a = 1..N-1, indexed by residue, tab[0] = 0.

    The symmetry tab[a] == tab[N - a] holds exactly as stored, which
    downstream code relies on (gather sums for z and N-z come out bit-equal).
    """
    if N < 2:
        raise ValueError("need N >= 2")
    k = np.arange(1, N)
    vals = -2.0 * np.log(np.sin(np.pi * k / N))
    tab = np.zeros(N)
    # Enforce exact symmetry: averaging the mirrored array maps both members
    # of each (k, N-k) pair to the identical double.
    tab[1:] = 0.5 * (vals + vals[::-1])
    return tab


def vartheta_truncated(x: float, N: int) -> float:
    """sum_{m=1}^{N-1} 2 cos(2 pi m x) / m, compensated summation."""
    if N < 1:
        raise ValueError("need N >= 1")
    return math.fsum(2.0 * math.cos(2.0 * math.pi * m * x) / m for m in range(1, N))


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


def _is_even_int(alpha) -> bool:
    return float(alpha).is_integer() and int(alpha) % 2 == 0 and int(alpha) in _BERNOULLI_COEFFS


def _decay_closed_form(alpha: int, x):
    """(-1)^(alpha/2+1) (2 pi)^alpha B_alpha(x) / alpha! for even alpha."""
    a = int(alpha)
    sign = -1.0 if (a // 2) % 2 == 0 else 1.0
    return sign * (2.0 * math.pi) ** a / math.factorial(a) * bernoulli_poly(a, x)


def _decay_truncated(alpha: float, x: float, tol: float) -> float:
    """sum_{m=1}^{M} 2 cos(2 pi m x) / m^alpha with tail bound <= tol."""
    # tail: sum_{m>M} 2/m^alpha <= 2 M^(1-alpha) / (alpha-1)
    M = int(math.ceil((2.0 / ((alpha - 1.0) * tol)) ** (1.0 / (alpha - 1.0))))
    if M > TRUNCATION_CAP:
        raise ValueError(
            "tolerance %g requires %d terms, above the cap %d" % (tol, M, TRUNCATION_CAP)
        )
    partials = []
    chunk = 1 << 18
    for start in range(1, M + 1, chunk):
        m = np.arange(start, min(start + chunk, M + 1), dtype=float)
        partials.append(float(np.sum(2.0 * np.cos(2.0 * np.pi * m * x) * m ** (-alpha))))
    return math.fsum(partials)


def fourier_decay_sum(alpha: float, x: float, tol: float = 1e-12) -> float:
    """sum_{m in Z, m != 0} e^{2 pi i m x} / |m|^alpha.

    Closed form via the Bernoulli polynomial for even integer alpha; otherwise
    a truncated cosine series with absolute error <= tol.
    """
    _check_alpha(alpha)
    if tol <= 0.0:
        raise ValueError("requires tol > 0")
    x = x % 1.0
    if _is_even_int(alpha):
        return float(_decay_closed_form(int(alpha), x))
    return _decay_truncated(alpha, x, tol)


def fourier_decay_table(alpha: float, N: int) -> np.ndarray:
    """The decay sum at every lattice residue: table[a] = fourier_decay_sum(alpha, a/N).

    table[0] = 2 zeta(alpha). For even alpha this is the exact closed form; for
    general alpha the series is folded by residue class, each class summed to
    machine precision (Hurwitz zeta), and one length-N DFT produces all values,
    so the result is far more accurate than plain truncation can reach. The
    fold needs N^alpha within double range: a larger alpha raises ValueError.
    """
    _check_alpha(alpha)
    if _is_even_int(alpha):
        a = np.arange(N) / N
        table = _decay_closed_form(int(alpha), a)
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
