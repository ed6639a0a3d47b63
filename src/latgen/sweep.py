"""Convergence sweeps: one construction and its worst-case error per row.

construct builds a vector by algorithm name (the CLI's --algo), sweep_row
times one construction and its error evaluation, and write_sweep_csv writes
the rows in the CSV format the `latgen sweep` command and the pinned
reproductions in latgen.experiments share.
"""

import csv
import time

from .cbc import construct_korobov_cbc, construct_standard_cbc
from .cbc_dbd import construct_cbc_dbd
from .error import wce_product
from .numtheory import check_modulus, is_prime
from .weights import ProductWeights, WeightSpec, parse_weight_spec, power_weights

__all__ = ["CSV_HEADER", "fmt", "construct", "sweep_row", "write_sweep_csv"]

CSV_HEADER = ["N", "s", "alpha", "weights_id", "algorithm", "wce",
              "construct_seconds", "eval_seconds"]


def fmt(x: float) -> str:
    """Lossless double formatting (17 significant digits)."""
    return "%.17g" % (x,)


def construct(algo: str, N: int, s: int, weights: WeightSpec, alpha):
    """The vector of algorithm algo ("cbc-dbd", "korobov-cbc" or "std-cbc")."""
    check_modulus(N)
    if algo == "cbc-dbd":
        if N & (N - 1) != 0 or N < 2:
            raise ValueError("cbc-dbd requires N = 2^n")
        w = weights.resolve(s)
        if not isinstance(w, ProductWeights):
            raise ValueError("cbc-dbd requires product weights")
        return construct_cbc_dbd(N.bit_length() - 1, s, w)
    if algo == "korobov-cbc":
        if not is_prime(N) or N < 3:
            raise ValueError("N must be prime")
        w = weights.resolve(s)
        if not isinstance(w, ProductWeights):
            raise ValueError("korobov-cbc requires product weights")
        return construct_korobov_cbc(N, s, w)
    if algo == "std-cbc":
        if alpha is None:
            raise ValueError("std-cbc requires --alpha")
        w = weights.resolve(s)
        if not isinstance(w, ProductWeights):
            raise ValueError("std-cbc requires product weights")
        return construct_standard_cbc(N, s, alpha, power_weights(w, alpha))
    raise ValueError("unknown algorithm %r" % (algo,))


def sweep_row(algo: str, N: int, s: int, weights_text: str, alpha: float):
    """One SweepRow as a dict; used directly and by the process pool.

    The smoothness-free constructions (cbc-dbd, korobov-cbc) receive the
    weight sequence as given; std-cbc targets the space whose sequence is
    the alpha-th power. The error is always evaluated with the powered
    sequence, matching the convergence plots being reproduced.
    """
    spec = parse_weight_spec(weights_text)
    w = spec.resolve(s)
    if not isinstance(w, ProductWeights):
        raise ValueError("sweeps require product weights")
    t0 = time.perf_counter()
    v = construct(algo, N, s, spec, alpha)
    t1 = time.perf_counter()
    wce = wce_product(v, alpha, power_weights(w, alpha))
    t2 = time.perf_counter()
    return {"N": N, "s": s, "alpha": alpha, "weights_id": weights_text,
            "algorithm": algo, "wce": wce,
            "construct_seconds": t1 - t0, "eval_seconds": t2 - t1}


def write_sweep_csv(path: str, rows):
    rows = sorted(rows, key=lambda r: (r["alpha"], r["N"]))
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(CSV_HEADER)
        for r in rows:
            wr.writerow([r["N"], r["s"], fmt(float(r["alpha"])), r["weights_id"],
                         r["algorithm"], fmt(r["wce"]),
                         fmt(r["construct_seconds"]), fmt(r["eval_seconds"])])
