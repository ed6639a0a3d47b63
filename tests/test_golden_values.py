"""Golden values: the quality numbers of fixed vectors must not move.

tests/data/golden_values.json holds, per cell, a generating vector and the
values that latgen computes for it, each as a hex float: the worst-case
error e at alpha = 2, 2.5 and 4, T, and the three theorem bounds
(bound_thm_cbcdbd only for N = 2^n, which it requires). The vector is stored
with its values, so no construction can move a value; only the evaluators
can. The grid is N = 2, 3, 4, 6, 8, 12, 16, 61, 100, 127, 131, 256, 257, 512,
1021, 4096, 2^14, 16381 and 2^16 at s = 1, 2 and 100 under the product
weights 1/j^2, 0.5^j and 0.95^j, and general (not product) weights at
s = 1 and 2.

H, V and T_alpha at alpha != 1 are left out: they read kernel_table or
vartheta_table at alpha != 1, whose doubles follow numpy's SIMD dispatch,
so they differ between CPUs.

A change that moves values on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden_values.py

and lists the moved cells, which the test names, in CHANGES.md.
"""

import json
import math
import os
from math import gcd

from latgen.error import (
    T_quantity,
    bound_thm_cbc,
    bound_thm_cbcdbd,
    bound_thm_existence,
    wce_product,
)
from latgen.numtheory import GeneratingVector, is_prime, unit_layout
from latgen.sweep import construct
from latgen.weights import GeneralWeights, parse_weight_spec

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                    "golden_values.json")
MODULI = (2, 3, 4, 6, 8, 12, 16, 61, 100, 127, 131, 256, 257, 512, 1021, 4096,
          1 << 14, 16381, 1 << 16)
DIMS = (1, 2, 100)
PRODUCT = ("product:1/j^2", "product:c^j:0.5", "product:c^j:0.95")
#: gamma_u by subset, for s = 1 and 2; gamma_{1,2} is not gamma_1 gamma_2.
GENERAL = {frozenset({1}): 0.7, frozenset({2}): 0.4, frozenset({1, 2}): 0.05}
ALPHAS = (2.0, 2.5, 4.0)


def _weights(spec, s):
    if spec == "general":
        return GeneralWeights(s, {u: g for u, g in GENERAL.items() if max(u) <= s})
    return parse_weight_spec(spec, s)


def cells():
    """(cell name, N, s, weight spec) for every grid cell."""
    for N in MODULI:
        for s in DIMS:
            for spec in PRODUCT + (("general",) if s <= 2 else ()):
                yield "N=%d s=%d %s" % (N, s, spec), N, s, spec


def values(v: GeneratingVector, spec, layout):
    """Value name -> float for the vector v under the weights spec."""
    w = _weights(spec, v.s)
    out = {"e alpha=%g" % a: wce_product(v, a, w, layout) for a in ALPHAS}
    out["T"] = T_quantity(v, w, layout)
    out["bound_thm_existence"] = bound_thm_existence(v.N, w, v.s)
    out["bound_thm_cbc"] = bound_thm_cbc(v.N, w, v.s)
    if v.N & (v.N - 1) == 0:
        out["bound_thm_cbcdbd"] = bound_thm_cbcdbd(v.N, w, v.s)
    return out


def _vector(N, s):
    """The vector a cell is evaluated at: the standard CBC's under 1/j^2 at
    alpha = 2 for prime N and N = 2^n, else the Korobov vector of the first
    unit above 0.4 N. Only the generator calls it; the test reads the file."""
    if is_prime(N) or N & (N - 1) == 0:
        return construct("std-cbc", N, s, parse_weight_spec("product:1/j^2", s), 2.0)
    a = next(u for u in range(int(0.4 * N) + 1, N) if gcd(u, N) == 1)
    return GeneratingVector(N, tuple(pow(a, j, N) for j in range(s)))


def build():
    """Cell name -> its vector and values as the library builds them today."""
    out = {}
    for name, N, s, spec in cells():
        v = _vector(N, s)
        vals = values(v, spec, unit_layout(N))
        out[name] = {"values": {k: x.hex() for k, x in vals.items()}, "z": list(v.z)}
    return out


def _relative_move(old, new):
    if old == new:
        return 0.0
    return abs(new - old) / abs(old) if old else math.inf


def test_values_match_golden_file():
    with open(PATH) as fh:
        golden = json.load(fh)
    grid = list(cells())
    assert len(grid) == len(MODULI) * (len(DIMS) * len(PRODUCT) + 2)
    assert sorted(golden) == sorted(name for name, _, _, _ in grid), \
        "the grid no longer matches the golden file"
    layouts = {N: unit_layout(N) for N in MODULI}
    moved = []
    for name, N, s, spec in grid:
        cell = golden[name]
        got = values(GeneratingVector(N, tuple(cell["z"])), spec, layouts[N])
        assert sorted(got) == sorted(cell["values"]), name
        for key, text in cell["values"].items():
            old = float.fromhex(text)
            if got[key] != old:
                moved.append("%s %s: %s -> %s (relative move %.3g)"
                             % (name, key, text, got[key].hex(),
                                _relative_move(old, got[key])))
    assert not moved, "%d values moved: %s" % (len(moved), "; ".join(moved))


if __name__ == "__main__":
    os.makedirs(os.path.dirname(PATH), exist_ok=True)
    cells_ = build()
    with open(PATH, "w") as fh:  # one line per cell
        fh.write("{\n%s\n}\n" % ",\n".join(
            " %s: %s" % (json.dumps(name), json.dumps(cells_[name], sort_keys=True))
            for name in sorted(cells_)))
    print("wrote", PATH)
