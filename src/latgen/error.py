"""Worst-case error and related quality quantities.

Each quantity is a lattice_kernel_sum, sum over nonempty u of gamma_u
sum_k prod_{j in u} tab[k z_j mod N] for a residue-indexed table of
latgen.kernel: the worst-case error e (through the character property), the
truncated-kernel measures T and T_alpha, and the qualities the two
smoothness-free constructions minimize, H (CBC-DBD) and V (Korobov CBC). The
theorem-bound evaluators, the right-hand sides the constructions are
guaranteed to satisfy, are the same weighted sum over one-point columns; both
go through weights.subset_product_sum. latgen.oracles.wce_bruteforce
enumerates the dual lattice inside a box and returns a value plus a rigorous
tail bound, the differential oracle e is tested against.

lattice_kernel_sum visits k in the order of numtheory.unit_layout(N). For
prime N and N = 2^n every column is then a few slices of one buffer
(numtheory.UnitColumns; the +- pairs k, N - k share a slot, counted twice),
and for product weights one compiled kernel (latgen._kernels.product_sum)
runs all s columns over a cache-sized chunk of slots at a time: O(s N/2)
work with no modular arithmetic, no gather and no column copied. Other
moduli gather tab[k z mod N] over k = 0..N-1 into the numpy loop. A theorem
bound is the same kernel over a one-value buffer that every column reads at
offset 0. Callers that evaluate several sums of one vector (latgen error: e
and T) build the layout once and pass it.
"""

import math

import numpy as np

from .kernel import fourier_decay_table, kernel_table, omega_table, vartheta_table
from .numtheory import ColumnSlices, GeneratingVector, UnitColumns, unit_layout
from .weights import subset_product_sum

__all__ = [
    "lattice_kernel_sum",
    "wce_product",
    "H_quantity",
    "V_quality",
    "T_quantity",
    "T_alpha_quantity",
    "bound_thm_existence",
    "bound_thm_cbcdbd",
    "bound_thm_cbc",
]


def lattice_kernel_sum(v: GeneratingVector, tab: np.ndarray, w, layout=None) -> float:
    """sum over nonempty u of gamma_u sum_{k=0}^{N-1} prod_{j in u} tab[(k z_j) % N]
    for a residue-indexed, exactly symmetric table of length N (see
    latgen.kernel). For product weights the per-k products are the doubles
    of the natural order, and their sum is one correctly rounded fsum.
    layout is unit_layout(v.N), built here when not given."""
    if layout is None:
        layout = unit_layout(v.N)
    elif layout.N != v.N:
        raise ValueError("the layout is for N = %d, the vector for N = %d" % (layout.N, v.N))
    cols = UnitColumns(layout, tab)
    return subset_product_sum(w, cols.columns(v.z), layout.counts)


def wce_product(v: GeneratingVector, alpha: float, w, layout=None) -> float:
    """e = -1 + (1/N) sum_{k=0}^{N-1} prod_j (1 + gamma_j * D_alpha({k z_j / N}))
    where D_alpha is the two-sided Fourier decay sum (D_alpha(0) = 2 zeta(alpha)).
    layout as for lattice_kernel_sum.
    """
    if alpha <= 1.0:
        raise ValueError("requires alpha > 1")
    return lattice_kernel_sum(v, fourier_decay_table(alpha, v.N), w, layout) / v.N


def H_quantity(v: GeneratingVector, w) -> float:
    """H = sum over nonempty u of gamma_u sum_{k=1}^{N-1} prod_{j in u} L({k z_j / N})
    with L(x) = ln(1/sin^2(pi x)); for product weights this is
    -(N-1) + sum_{k=1}^{N-1} prod_j (1 + gamma_j L({k z_j / N}))."""
    N = v.N
    if N & (N - 1) != 0:
        raise ValueError("H is defined for N = 2^n")
    return lattice_kernel_sum(v, kernel_table(N), w)


def V_quality(v: GeneratingVector, w) -> float:
    """V = sum over nonempty u of gamma_u sum_{k=1}^{N-1} prod_{j in u} omega({k z_j / N}).

    The lattice sum's k = 0 term is zero, since the table stores 0 at a = 0.
    """
    return lattice_kernel_sum(v, omega_table(v.N), w)


def T_quantity(v: GeneratingVector, w, layout=None) -> float:
    """T(N,z) = sum over nonempty u of (gamma_u / N) sum_{k=0}^{N-1}
    prod_{j in u} theta_N({k z_j / N}), theta_N(0) = 2 H_{N-1}. layout as
    for lattice_kernel_sum."""
    return T_alpha_quantity(v, 1.0, w, layout)


def T_alpha_quantity(v: GeneratingVector, alpha: float, w, layout=None) -> float:
    """As T_quantity with coefficients 1/|m|^alpha, truncated at |m| < N."""
    return lattice_kernel_sum(v, vartheta_table(v.N, alpha), w, layout) / v.N


def _subset_power_sum(w, s: int, a: float) -> float:
    """sum over nonempty u of gamma_u * a^|u|: s one-point columns, each
    reading the single value a."""
    return subset_product_sum(
        w, ColumnSlices(np.array([a]), np.zeros((s, 1), dtype=np.int64), np.ones(1, dtype=np.int64))
    )


def bound_thm_existence(N: int, w, s: int = None) -> float:
    """(2/N) * sum over nonempty u of gamma_u (2(1 + ln N))^|u|."""
    s = _dim_of(w, s)
    return 2.0 / N * _subset_power_sum(w, s, 2.0 * (1.0 + math.log(N)))


def bound_thm_cbcdbd(N: int, w, s: int = None) -> float:
    """Guaranteed T bound for the digit-by-digit construction, N = 2^n."""
    if N & (N - 1) != 0 or N < 2:
        raise ValueError("requires N = 2^n")
    s = _dim_of(w, s)
    lnN = math.log(N)
    first = math.fsum(
        [1.0, _subset_power_sum(w, s, math.log(4.0) + 2.0 * (1.0 + lnN))]
    )
    second = 2.0 * (1.0 + lnN) * math.fsum(
        [1.0, _subset_power_sum(w, s, 2.0 * (1.0 + 2.0 * lnN))]
    )
    return (first + second) / N


def bound_thm_cbc(N: int, w, s: int = None) -> float:
    """Guaranteed T bound for the whole-component CBC construction, prime N."""
    s = _dim_of(w, s)
    lnN = math.log(N)
    first = _subset_power_sum(w, s, 4.0 * lnN)
    second = (1.0 + lnN) * _subset_power_sum(w, s, 2.0 + 4.0 * lnN)
    return 2.0 / N * (first + second)


def _dim_of(w, s):
    if s is None:
        return w.s
    if s > w.s:
        raise ValueError("weight sequence shorter than requested dimension")
    return s
