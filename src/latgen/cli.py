"""Command-line front end.

Subcommands: construct (emit a generating-vector file), error (evaluate the
worst-case error and related quantities for a stored vector), sweep (CSV of
convergence/timing rows over a modulus schedule), points (stream the lattice
point set), experiments (run a pinned reproduction config).

Exit codes: 0 ok, 1 I/O failure, 2 usage/validation error (running out of
memory included).
"""

import argparse
import csv
import itertools
import json
import os
import sys

from .error import (
    T_quantity,
    bound_thm_cbc,
    bound_thm_cbcdbd,
    wce_product,
)
from .numtheory import GeneratingVector, check_modulus, is_prime, lattice_points, prev_prime
from .sweep import construct, fmt, sweep_row, write_sweep_csv
from .weights import ProductWeights, parse_weight_spec, power_weights

__all__ = ["main", "read_vector", "write_vector", "parse_weight_spec"]

VECTOR_MAGIC = "# latgen v1"


# ---------------------------------------------------------------- vector files

def write_vector(path: str, v: GeneratingVector):
    with open(path, "w") as fh:
        fh.write("%s\n" % VECTOR_MAGIC)
        fh.write("N=%d\n" % v.N)
        fh.write("s=%d\n" % v.s)
        for j, zj in enumerate(v.z, start=1):
            fh.write("%d %d\n" % (j, zj))


def read_vector(path: str) -> GeneratingVector:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    try:
        if not lines or lines[0] != VECTOR_MAGIC:
            raise ValueError("not a latgen v1 vector file")
        if not lines[1].startswith("N=") or not lines[2].startswith("s="):
            raise ValueError("missing N=/s= header lines")
        N = int(lines[1][2:])
        s = int(lines[2][2:])
        body = lines[3:]
        if len(body) != s:
            raise ValueError("expected %d component lines, found %d" % (s, len(body)))
        z = {}
        for ln in body:
            j_str, z_str = ln.split()
            j = int(j_str)
            if not 1 <= j <= s or j in z:
                raise ValueError("component index %d is out of range 1..%d or repeated"
                                 % (j, s))
            z[j] = int(z_str)
        return GeneratingVector(N, tuple(z[j] for j in range(1, s + 1)))
    except (IndexError, ValueError) as exc:
        raise ValueError("malformed vector file %s: %s" % (path, exc))


# ------------------------------------------------------------------ construct

def _resolve_modulus(args) -> int:
    if (args.n is None) == (args.N is None):
        raise ValueError("give exactly one of --n and --N")
    return 1 << args.n if args.n is not None else args.N


def cmd_construct(args) -> int:
    N = _resolve_modulus(args)
    v = construct(args.algo, N, args.s, parse_weight_spec(args.weights), args.alpha)
    write_vector(args.out, v)
    return 0


# ---------------------------------------------------------------------- error

def cmd_error(args) -> int:
    v = read_vector(args.vector)
    check_modulus(v.N)
    spec = parse_weight_spec(args.weights)
    w = spec.resolve(v.s)
    w_eval = w
    if args.apply_power:
        if not isinstance(w, ProductWeights):
            raise ValueError("--apply-power requires product weights")
        w_eval = power_weights(w, args.alpha)
    report = {"N": v.N, "s": v.s, "alpha": args.alpha}
    report["wce"] = wce_product(v, args.alpha, w_eval)
    if args.with_T:
        report["T"] = T_quantity(v, w)
    if args.with_bounds:
        if v.N & (v.N - 1) == 0:
            report["bound_cbcdbd"] = bound_thm_cbcdbd(v.N, w, v.s)
        elif is_prime(v.N):
            report["bound_cbc"] = bound_thm_cbc(v.N, w, v.s)
        else:
            raise ValueError("bounds available only for N prime or N = 2^n")
    if args.format == "json":
        print(json.dumps(report))
    elif args.format == "csv":
        keys = list(report)
        wr = csv.writer(sys.stdout)
        wr.writerow(keys)
        wr.writerow([fmt(report[k]) if isinstance(report[k], float) else report[k]
                     for k in keys])
    else:
        for k, x in report.items():
            print("%s = %s" % (k, fmt(x) if isinstance(x, float) else x))
    return 0


# ---------------------------------------------------------------------- sweep

def _sweep_moduli(args):
    if (args.n_range is None) == (args.prime_near_pow2 is None):
        raise ValueError("give exactly one of --n-range and --prime-near-pow2")
    spec = args.n_range if args.n_range is not None else args.prime_near_pow2
    try:
        lo, hi = (int(p) for p in spec.split(".."))
    except ValueError:
        raise ValueError("range must look like a..b, got %r" % (spec,))
    if hi < lo:
        raise ValueError("empty range %r" % (spec,))
    if args.n_range is not None:
        return [1 << n for n in range(lo, hi + 1)]
    return [prev_prime(1 << n) for n in range(lo, hi + 1)]


def _run_rows(jobs):
    threads = int(os.environ.get("LATGEN_THREADS") or "0")
    if threads > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(_sweep_row_star, jobs))
    return [sweep_row(*job) for job in jobs]


def _sweep_row_star(job):
    return sweep_row(*job)


def cmd_sweep(args) -> int:
    alphas = [float(a) for a in args.alpha_list.split(",") if a.strip()]
    if not alphas:
        raise ValueError("empty alpha list")
    moduli = _sweep_moduli(args)
    jobs = [(args.algo, N, args.s, args.weights, alpha)
            for alpha in alphas for N in moduli]
    write_sweep_csv(args.out, _run_rows(jobs))
    return 0


# --------------------------------------------------------------------- points

def cmd_points(args) -> int:
    v = read_vector(args.vector)
    limit = v.N if args.limit is None else min(args.limit, v.N)
    out = sys.stdout if args.out is None else open(args.out, "w")
    try:
        for x in itertools.islice(lattice_points(v), max(limit, 0)):
            out.write("\t".join(fmt(xj) for xj in x) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


# ---------------------------------------------------------------- experiments

def cmd_experiments(args) -> int:
    from . import experiments

    report = experiments.run_experiment(args.id, args.out_dir)
    return 0 if report["passed"] else 1


# ----------------------------------------------------------------------- main

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="latgen",
                                 description="rank-1 lattice rule constructions")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a generating vector")
    p.add_argument("--algo", required=True,
                   choices=["cbc-dbd", "korobov-cbc", "std-cbc"])
    p.add_argument("--n", type=int, help="modulus exponent, N = 2^n")
    p.add_argument("--N", type=int, help="modulus")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("error", help="evaluate quality of a stored vector")
    p.add_argument("--vector", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--apply-power", action="store_true",
                   help="evaluate with the alpha-th power of the weights")
    p.add_argument("--with-T", action="store_true", dest="with_T")
    p.add_argument("--with-bounds", action="store_true", dest="with_bounds")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.set_defaults(func=cmd_error)

    p = sub.add_parser("sweep", help="convergence/timing sweep to CSV")
    p.add_argument("--algo", required=True,
                   choices=["cbc-dbd", "korobov-cbc", "std-cbc"])
    p.add_argument("--weights", required=True)
    p.add_argument("--alpha-list", required=True, dest="alpha_list")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n-range", dest="n_range")
    p.add_argument("--prime-near-pow2", dest="prime_near_pow2")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("points", help="stream the lattice point set")
    p.add_argument("--vector", required=True)
    p.add_argument("--limit", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_points)

    p = sub.add_parser("experiments", help="run a pinned reproduction config")
    psub = p.add_subparsers(dest="subcommand", required=True)
    pr = psub.add_parser("run")
    pr.add_argument("id")
    pr.add_argument("--out-dir", required=True, dest="out_dir")
    pr.set_defaults(func=cmd_experiments)

    return ap


def _modulus_of(args):
    """The modulus a command works at (a sweep's largest), or None."""
    try:
        if args.command == "construct":
            return _resolve_modulus(args)
        if args.command == "error":
            return read_vector(args.vector).N
        if args.command == "sweep":
            return max(_sweep_moduli(args))
    except (OSError, ValueError):
        pass
    return None


def main(argv=None) -> int:
    ap = _build_parser()
    args = None
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 1
    except MemoryError:
        N = None if args is None else _modulus_of(args)
        print("error: not enough memory" + ("" if N is None else " for N = %d" % N),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
