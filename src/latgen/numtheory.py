"""Integer utilities: primality, prime neighbors, primitive roots, rank-1
lattice point generation, and the unit layout of the residues mod N.

The scalar functions work on Python integers (arbitrary precision), so
modular products like k*z_j never overflow regardless of the modulus size.

unit_layout(N) orders the residues k mod N once so that multiplying by a
unit z only rotates them. For prime N they are 0 and the powers g^i of the
primitive root g, folded over +-: g^((N-1)/2) = -1, so on a table with
tab[a] == tab[N - a] the ordered values for k z, z = +-g^b, are those for z = 1
rotated by b. For N = 2^n the residue k = 2^c k' (k' odd) sits in level c,
whose odd part k' runs through the cosets +-5^i mod N/2^c; z = +-5^b rotates
every level by b. The few residues no unit moves (N/2, N/4, 3N/4 for
N = 2^n, and 0) come last, 0 the very last; a unit's rotation b is its slot.
UnitColumns stores a table's values on each block twice in a row and on the
fixed residues once, so a lattice sum over k reads each column as one slice
per block and the fixed slice, with no modular arithmetic and no gather per
column; other moduli keep the natural order k = 0..N-1 and gather
tab[k z mod N].
"""

from dataclasses import dataclass
from math import gcd
from typing import Iterator, Tuple

import numpy as np

__all__ = [
    "gcd",
    "is_prime",
    "prev_prime",
    "primitive_root",
    "GeneratingVector",
    "lattice_points",
    "MODULUS_LIMIT",
    "check_modulus",
    "UnitLayout",
    "ColumnSlices",
    "UnitColumns",
    "unit_layout",
]

#: Moduli N >= MODULUS_LIMIT are refused wherever arrays of length N are
#: built: the index products k * z < N^2 must stay exact in int64, and one
#: table of N doubles would already take 16 GiB.
MODULUS_LIMIT = 1 << 31


def check_modulus(N: int):
    """Refuse a modulus too large for any table before one is allocated."""
    if N >= MODULUS_LIMIT:
        raise ValueError("N = %d is too large: need N < 2^31" % N)


# Deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10^24
# (covers the full 64-bit range and then some).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with fixed witnesses)."""
    if n < 2:
        return False
    for p in _MR_BASES:
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


def _powers(g: int, L: int, N: int) -> np.ndarray:
    """[g^0, ..., g^(L-1)] mod N by doubling; N < 2^31 keeps the products exact."""
    pw = np.ones(L, dtype=np.int64)
    n = 1
    while n < L:
        m = min(n, L - n)
        pw[n : n + m] = pw[:m] * pow(g, n, N) % N
        n += m
    return pw


@dataclass(frozen=True)
class UnitLayout:
    """The residues mod N in an order that every unit z merely rotates.

    The slots are each block in turn, then the fixed residues, which no unit
    moves: N/2, N/4 (standing for N/4 and 3N/4), then 0 for N = 2^n, 0 alone
    for prime N. Residue 0 comes last, so all slots but the last hold the
    residues k = 1..N-1 (the fast CBC keeps its state on those). Block c
    (level c of N = 2^n, or the one block of prime N) holds
    a_i = 2^c (5^i mod N/2^c), resp. g^i, for i < its length L_c. slot[k] is
    the slot of residue k and of N - k; a unit z = +-5^b (+-g^b) is in slot b
    (block 0 leads), and a_i z mod N is +-a_(i+b mod L_c). counts holds how
    many residues k each slot stands for (2 for a +- pair, 1 for 0 and N/2)
    and sums to N. Moduli neither prime nor 2^n are not cyclic: their slots
    are k = 0..N-1, one each, in natural order.
    """

    N: int
    cyclic: bool
    blocks: Tuple[np.ndarray, ...]  # int64 residues, longest first
    fixed: np.ndarray  # int64 residues, 0 last; all of 0..N-1 when not cyclic
    counts: np.ndarray  # float multiplicity of each slot
    slot: np.ndarray  # int64, slot[k] is the slot of residue k = 0..N-1

    def check_table(self, tab) -> np.ndarray:
        """tab as floats, once it is known to have length N and to be exactly
        symmetric (tab[a] == tab[N - a]), as every latgen kernel table is;
        only then do the slots of a +- pair meet equal values."""
        tab = np.asarray(tab, dtype=float)
        if tab.shape != (self.N,) or not np.array_equal(tab[1:], tab[:0:-1]):
            raise ValueError("tab must have length N and satisfy tab[a] == tab[N - a]")
        return tab


def unit_layout(N: int) -> UnitLayout:
    """The unit layout of the residues mod N (see UnitLayout)."""
    if not 2 <= N < MODULUS_LIMIT:
        raise ValueError("need 2 <= N < 2^31")
    if N & (N - 1) == 0:
        pw = _powers(5, max(N // 4, 1), N)
        blocks = tuple((pw[: N >> (c + 2)] & ((N >> c) - 1)) << c
                       for c in range(N.bit_length() - 3))
        m = min(N.bit_length(), 3) - 1  # N = 2 has no N/4
        fixed = np.array([N // 2, N // 4][:m] + [0], dtype=np.int64)
        fixed_counts = [1.0, 2.0][:m] + [1.0]
    elif is_prime(N):
        blocks = (_powers(primitive_root(N), (N - 1) // 2, N),)
        fixed = np.zeros(1, dtype=np.int64)
        fixed_counts = [1.0]
    else:
        natural = np.arange(N, dtype=np.int64)
        return UnitLayout(N, False, (), natural, np.ones(N), natural)
    res = np.concatenate(blocks + (fixed,))
    slot = np.empty(N, dtype=np.int64)
    slot[res] = idx = np.arange(res.shape[0])
    slot[N - res[:-1]] = idx[:-1]  # res[-1] = 0 is its own negative
    counts = np.full(res.shape[0], 2.0)
    counts[res.shape[0] - fixed.shape[0] :] = fixed_counts
    return UnitLayout(N, True, blocks, fixed, counts, slot)


class ColumnSlices:
    """Columns stored as slices of one buffer.

    Column j is buf[offsets[j, k] : offsets[j, k] + lengths[k]] for
    k = 0..m-1, laid end to end: size values in all. Every slice is checked
    to lie inside buf, so compiled code may read them unchecked. (A plain
    class: a dataclass would cost about 1 ms of every import.)
    """

    __slots__ = ("buf", "offsets", "lengths", "_spans")

    def __init__(self, buf, offsets, lengths):
        self.buf = np.ascontiguousarray(buf, dtype=np.float64)
        self.offsets = offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        self.lengths = lengths = np.ascontiguousarray(lengths, dtype=np.int64)
        if (self.buf.ndim != 1 or lengths.ndim != 1 or offsets.ndim != 2
                or offsets.shape[1] != lengths.shape[0]):
            raise ValueError("need a 1-d buf, and offsets of shape (s, len(lengths))")
        if (lengths.size and lengths.min() < 0) or (offsets.size and (
                offsets.min() < 0 or (offsets + lengths).max() > self.buf.shape[0])):
            raise ValueError("every slice must lie inside buf")
        self._spans = lengths.tolist()  # read by parts for every column

    def __len__(self) -> int:
        return self.offsets.shape[0]

    def __iter__(self) -> Iterator[np.ndarray]:
        for j in range(len(self)):
            yield np.concatenate(self.parts(j))

    @property
    def size(self) -> int:
        """The length of every column."""
        return int(self.lengths.sum())

    def parts(self, j: int):
        """The slices of column j, in slot order (views of buf)."""
        return [self.buf[o : o + L] for o, L in zip(self.offsets[j].tolist(), self._spans)]


class UnitColumns:
    """The columns tab[k z mod N] of one table for the units z, in slot order.

    tab is residue-indexed and exactly symmetric (UnitLayout.check_table).
    Every block is stored twice in a row (doubled), so the values that a
    rotation by r meets are one slice of it; the fixed slots, which no unit
    moves, follow once. All of them are views of one contiguous buffer. A
    unit z rotates every block by r = layout.slot[z], and columns(zs) reads
    the values at those rotations as ColumnSlices: of each block's doubled
    values the slice from r mod L, then the fixed slots. The fast CBC's plan
    (latgen.cbc.scoring_plan) takes its kernel values from doubled.
    """

    def __init__(self, layout: UnitLayout, tab):
        self.layout = layout
        self.tab = tab = layout.check_table(tab)
        self.doubled = []
        if not layout.cyclic:
            return
        lengths = [bl.shape[0] for bl in layout.blocks]
        starts = np.cumsum([0] + [2 * L for L in lengths])
        self.buf = np.empty(int(starts[-1]) + layout.fixed.shape[0])
        for bl, start in zip(layout.blocks, starts.tolist()):
            L = bl.shape[0]
            tt = self.buf[start : start + 2 * L]
            np.take(tab, bl, out=tt[:L])
            tt[L:] = tt[:L]
            self.doubled.append((tt, L))
        np.take(tab, layout.fixed, out=self.buf[int(starts[-1]) :])
        self._starts = starts
        self._lengths = np.array(lengths + [layout.fixed.shape[0]], dtype=np.int64)
        self._periods = np.array(lengths + [1], dtype=np.int64)  # the fixed slots never move

    def columns(self, zs):
        """The columns for the units zs: ColumnSlices of the buffer when the
        layout is cyclic, else an iterator of gathers tab[k z mod N]."""
        lay = self.layout
        if not lay.cyclic:
            return (self.tab[lay.fixed * z % lay.N] for z in zs)
        zs = np.asarray(zs, dtype=np.int64)
        bad = np.flatnonzero(np.gcd(zs, lay.N) != 1)
        if bad.size:
            raise ValueError("z = %d is not a unit mod %d" % (zs[bad[0]], lay.N))
        offsets = self._starts + lay.slot[zs][:, None] % self._periods
        return ColumnSlices(self.buf, offsets, self._lengths)
