"""Integer utilities: primality, prime neighbors, primitive roots, and rank-1
lattice point generation.

All arithmetic is done on Python integers (arbitrary precision), so modular
products like k*z_j never overflow regardless of the modulus size.
"""

from dataclasses import dataclass
from math import gcd
from typing import Iterator, Tuple

__all__ = [
    "gcd",
    "is_prime",
    "prev_prime",
    "next_prime",
    "primitive_root",
    "GeneratingVector",
    "lattice_points",
    "MODULUS_LIMIT",
]

#: Moduli N >= MODULUS_LIMIT are refused wherever arrays of length N are
#: built: the index products k * z < N^2 must stay exact in int64, and one
#: table of N doubles would already take 16 GiB.
MODULUS_LIMIT = 1 << 31

# Deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10^24
# (covers the full 64-bit range and then some).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with fixed witnesses)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prev_prime(n: int) -> int:
    """Largest prime <= n. Raises for n < 2 (there is none)."""
    if n < 2:
        raise ValueError("no prime <= %d" % n)
    k = n
    while not is_prime(k):
        k -= 1
    return k


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    k = max(n, 2)
    while not is_prime(k):
        k += 1
    return k


def _factorize(n: int) -> list:
    """Prime factors of n (without multiplicity), by trial division."""
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append(n)
    return factors


def primitive_root(p: int) -> int:
    """Smallest generator of the multiplicative group modulo a prime p >= 3.

    Deterministic by construction (candidates tried in increasing order),
    which keeps the Rader reindexing used by the fast CBC reproducible.
    """
    if not is_prime(p) or p < 3:
        raise ValueError("primitive_root requires a prime p >= 3")
    order = p - 1
    prime_factors = _factorize(order)
    for g in range(2, p):
        if all(pow(g, order // q, p) != 1 for q in prime_factors):
            return g
    raise RuntimeError("unreachable: no primitive root found for prime %d" % p)


@dataclass(frozen=True)
class GeneratingVector:
    """A rank-1 lattice rule: modulus N and components z = (z_1, ..., z_s).

    Every component must lie in {1, ..., N-1} and be coprime to N (odd, when
    N is a power of two).
    """

    N: int
    z: Tuple[int, ...]

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("modulus must be >= 2")
        if len(self.z) < 1:
            raise ValueError("need at least one component")
        for j, zj in enumerate(self.z, start=1):
            if not 1 <= zj <= self.N - 1:
                raise ValueError("component z_%d = %d outside {1,...,N-1}" % (j, zj))
            if gcd(zj, self.N) != 1:
                raise ValueError("component z_%d = %d not coprime to N=%d" % (j, zj, self.N))

    @property
    def s(self) -> int:
        return len(self.z)

    def prefix(self, s: int) -> "GeneratingVector":
        """The first s components as a vector (CBC constructions are nested)."""
        if not 1 <= s <= self.s:
            raise ValueError("invalid prefix length")
        return GeneratingVector(self.N, self.z[:s])


def lattice_points(v: GeneratingVector) -> Iterator[Tuple[float, ...]]:
    """Yield x_k = ({k z_1 / N}, ..., {k z_s / N}) for k = 0..N-1."""
    N = v.N
    for k in range(N):
        yield tuple((k * zj % N) / N for zj in v.z)
