"""Golden vectors: every construction on a fixed grid must keep its vector.

tests/data/golden_vectors.json holds one digest per cell: the first 16 hex
digits of the SHA-256 of the vector's components, comma-joined. The grid is
Korobov CBC and standard CBC at alpha = 2, 2.5, 3 and 4 on N = 2^3..2^12 and
the largest prime below each (Korobov on the primes only), and CBC-DBD at
n = 1..16, all at s = 100 under four product-weight families. A change that
moves a vector on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden_vectors.py

and lists the moved cells, which the test names, in CHANGES.md.
"""

import hashlib
import json
import os

from latgen.numtheory import prev_prime
from latgen.sweep import construct
from latgen.weights import parse_weight_spec

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                    "golden_vectors.json")
S = 100
WEIGHTS = ("product:1/j^2", "product:1/j^3", "product:c^j:0.95", "product:c^j:0.7")
ALPHAS = (2.0, 2.5, 3.0, 4.0)
EXPONENTS = range(3, 13)
DBD_EXPONENTS = range(1, 17)


def cells():
    """(cell name, algorithm, N, weight spec, alpha) for every grid cell."""
    primes = [prev_prime(1 << n) for n in EXPONENTS]
    moduli = sorted(primes + [1 << n for n in EXPONENTS])
    for spec in WEIGHTS:
        for N in primes:
            yield "korobov-cbc %s N=%d" % (spec, N), "korobov-cbc", N, spec, None
        for alpha in ALPHAS:
            for N in moduli:
                yield ("std-cbc alpha=%g %s N=%d" % (alpha, spec, N), "std-cbc", N, spec,
                       alpha)
        for n in DBD_EXPONENTS:
            yield "cbc-dbd %s N=%d" % (spec, 1 << n), "cbc-dbd", 1 << n, spec, None


def digest(z):
    return hashlib.sha256(",".join(map(str, z)).encode()).hexdigest()[:16]


def build():
    """Cell name -> digest of the vector the library builds today."""
    return {name: digest(construct(algo, N, S, parse_weight_spec(spec, S), alpha).z)
            for name, algo, N, spec, alpha in cells()}


def test_vectors_match_golden_digests():
    with open(PATH) as fh:
        golden = json.load(fh)
    got = build()
    assert len(got) == 4 * (10 + 4 * 20 + 16)
    assert sorted(golden) == sorted(got), "the grid no longer matches the digest file"
    moved = [name for name in golden if got[name] != golden[name]]
    assert not moved, "%d cells moved: %s" % (len(moved), "; ".join(moved))


if __name__ == "__main__":
    os.makedirs(os.path.dirname(PATH), exist_ok=True)
    with open(PATH, "w") as fh:
        json.dump(build(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote", PATH)
