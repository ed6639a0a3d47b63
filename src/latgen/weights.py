"""Weight models for the weighted function spaces.

ProductWeights is the fast path used by every construction; GeneralWeights is
the explicit per-subset table that the quality evaluators and the test
oracles also accept. subset_product_sum is the one weighted sum over subsets
of coordinates behind every quality evaluator. parse_weight_spec reads the
weight grammar of the CLI and the sweeps into resolved weights.
"""

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, Tuple, Union

import numpy as np

from . import _kernels, _slowpath
from .numtheory import ColumnSlices

__all__ = [
    "ProductWeights",
    "GeneralWeights",
    "parse_weight_spec",
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
            if u and min(u) < 1:
                raise ValueError("subset %r has an index below 1" % (set(u),))
        # Subsets with an index above s are ignored; every one inside must be given.
        if sum(1 for u in self.table if u and max(u) <= self.s) < (1 << self.s) - 1:
            missing = next(u for size in range(1, self.s + 1)
                           for u in combinations(range(1, self.s + 1), size)
                           if frozenset(u) not in self.table)
            raise ValueError("no gamma_u for u = %r: general weights need every nonempty "
                             "subset of {1..%d}" % (set(missing), self.s))

    @classmethod
    def from_product(cls, w: ProductWeights) -> "GeneralWeights":
        table = {}
        coords = range(1, w.s + 1)
        for size in range(w.s + 1):
            for u in combinations(coords, size):
                table[frozenset(u)] = math.prod(w.gamma(j) for j in u)
        return cls(w.s, table)

    def gamma(self, u) -> float:
        u = frozenset(u)
        if not u:
            return 1.0
        if not u <= frozenset(range(1, self.s + 1)):
            raise ValueError("subset %r out of range for s=%d" % (set(u), self.s))
        return self.table[u]


Weights = Union[ProductWeights, GeneralWeights]


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

    columns holds one equal-length column per coordinate j = 1..s: either
    numtheory.ColumnSlices, whose columns are slices of one buffer, or an
    iterable of arrays, consumed one at a time. Every weighted lattice sum
    (e, T, T_alpha, H, V and the theorem bounds) has this form. For product
    weights it is sum_i [prod_j (1 + gamma_j x_j[i]) - 1]: the compiled
    kernel (latgen._kernels.product_sum) computes it from ColumnSlices, and
    its numpy twin from arrays. Both accumulate d = prod - 1 directly
    (d' = d + x (1 + d)), so per-point values far below machine epsilon keep
    full relative precision instead of being rounded away inside 1 + d.
    General weights enumerate the subsets. counts, if given, says how many
    terms each index i stands for (numtheory.UnitLayout.counts). Every sum
    over i is one math.fsum, correctly rounded, so it does not depend on the
    order of the i.
    """
    if isinstance(w, ProductWeights):
        if not isinstance(columns, ColumnSlices):
            d = _slowpath.product_columns(w.gammas, ([col] for col in columns))
        elif len(columns):
            d = _kernels.product_sum(w.gammas[: len(columns)], columns)
        else:
            d = None
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


def _gamma_line(fields):
    """A product:list: line: one gamma_j."""
    if len(fields) != 1:
        raise ValueError("expected one gamma, got %d fields" % len(fields))
    return float(fields[0])


def _subset_line(fields):
    """A general: line: the subset u as comma-separated indices, then gamma_u."""
    if len(fields) != 2:
        raise ValueError("expected a subset and its gamma, got %d fields" % len(fields))
    return frozenset(int(c) for c in fields[0].split(",")), float(fields[1])


def _read_weight_file(path: str, parse) -> list:
    """parse(fields) for each nonblank line of the weight file at path; a line
    that parse refuses raises a ValueError naming the file and the line."""
    out = []
    with open(path) as fh:
        for i, ln in enumerate(fh, start=1):
            fields = ln.split()
            if fields:
                try:
                    out.append(parse(fields))
                except ValueError as e:
                    raise ValueError("%s, line %d: %s" % (path, i, e)) from None
    return out


def parse_weight_spec(text: str, s: int) -> Weights:
    """The weights of coordinates 1..s that text names. Grammar:
    product:1/j^2 | product:1/j^3 | product:c^j:<c> | product:list:<path> |
    general:<path>."""
    if text == "product:1/j^2":
        return ProductWeights(tuple(1.0 / j**2 for j in range(1, s + 1)))
    if text == "product:1/j^3":
        return ProductWeights(tuple(1.0 / j**3 for j in range(1, s + 1)))
    if text.startswith("product:c^j:"):
        c = float(text.rsplit(":", 1)[1])
        return ProductWeights(tuple(_power(c, j, j) for j in range(1, s + 1)))
    if text.startswith("product:list:"):
        gammas = _read_weight_file(text.split(":", 2)[2], _gamma_line)
        if len(gammas) < s:
            raise ValueError("weight list has %d entries, need %d" % (len(gammas), s))
        return ProductWeights(gammas[:s])
    if text.startswith("general:"):
        table = dict(_read_weight_file(text.split(":", 1)[1], _subset_line))
        table.setdefault(frozenset(), 1.0)
        return GeneralWeights(s, table)
    raise ValueError("unrecognized weight spec %r" % (text,))

