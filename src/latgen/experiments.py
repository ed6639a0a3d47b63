"""Pinned desk-scale reproduction harness.

Each config regenerates one published convergence plot (fig2a-d: N = 2^n,
CBC-DBD vs standard CBC; fig3a-d: prime N, Korobov CBC vs standard CBC), a
timing grid of the expected cost shape (table1-shape), or the differential
oracle suite. Checks compare against tagged reference values with explicit
tolerances -- never exact equality, since tie-breaking details legitimately
perturb the constructed vectors.
"""

import csv
import json
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from .cbc import construct_korobov_cbc, construct_standard_cbc
from .cbc_dbd import construct_cbc_dbd
from .error import wce_product
from .kernel import fourier_decay_table, omega_table, vartheta_table
from .numtheory import GeneratingVector, prev_prime
from .sweep import sweep_row, write_sweep_csv
from .weights import GeneralWeights, ProductWeights, power_weights

__all__ = ["ExperimentConfig", "CONFIGS", "run_experiment"]

DIMENSION = 100
POW2_EXPONENTS = range(6, 15)  # N = 2^6 .. 2^14
PRIME_EXPONENTS = range(6, 15)  # N = prev_prime(2^6) .. prev_prime(2^14)


@dataclass(frozen=True)
class ExperimentConfig:
    """One pinned reproduction: algorithms, weight family, alpha list, modulus
    schedule, slope thresholds and anchor points (value, tolerance factor,
    provenance tag)."""

    id: str
    algorithms: Tuple[str, ...]
    weights: str
    alphas: Tuple[float, ...]
    moduli: Tuple[int, ...]
    anchor_N: int = 0
    #: (alpha, algorithm) -> (reference value, max ratio, provenance tag)
    anchors: Dict = field(default_factory=dict)
    #: alpha -> maximum acceptable least-squares log-log slope
    slope_max: Dict = field(default_factory=dict)
    #: (alpha, algorithm) -> slope limit override
    slope_overrides: Dict = field(default_factory=dict)


def _figure_config(cid, algorithms, weights, anchor_N, anchor_values, slopes, moduli):
    """anchor_values: {alpha: (value_algo0, value_algo1)}; default factor-2
    tolerance, tightened where the acceptance contract demands it."""
    anchors = {}
    for alpha, pair in anchor_values.items():
        for algo, value in zip(algorithms, pair):
            anchors[(alpha, algo)] = (value, 2.0, "reference")
    return ExperimentConfig(
        id=cid, algorithms=algorithms, weights=weights,
        alphas=tuple(sorted(anchor_values)), moduli=tuple(moduli),
        anchor_N=anchor_N, anchors=anchors, slope_max=dict(slopes),
    )


_POW2_MODULI = tuple(1 << n for n in POW2_EXPONENTS)
_PRIME_MODULI = tuple(prev_prime(1 << n) for n in PRIME_EXPONENTS)

CONFIGS = {}
for _cfg in [
    _figure_config(
        "fig2a", ("cbc-dbd", "std-cbc"), "product:1/j^2", 1024,
        {2.0: (4.4138016980327e-05, 3.04693603577786e-05),
         3.0: (3.51880305969369e-08, 1.33241000855469e-08),
         4.0: (4.26011381546609e-11, 8.69354851101778e-12)},
        {2.0: -1.6, 3.0: -2.5, 4.0: -3.3}, _POW2_MODULI),
    _figure_config(
        "fig2b", ("cbc-dbd", "std-cbc"), "product:1/j^3", 1024,
        {2.0: (8.96735413484793e-06, 6.74205804207878e-06),
         3.0: (5.25024469357468e-09, 3.14334593096102e-09),
         4.0: (4.03558187327091e-12, 2.27876940256736e-12)},
        {2.0: -1.7, 3.0: -2.6, 4.0: -3.4}, _POW2_MODULI),
    _figure_config(
        "fig2c", ("cbc-dbd", "std-cbc"), "product:c^j:0.95", 1024,
        {2.0: (276066.703147798, 271766.502104828),
         3.0: (23.921630108221, 22.1652168955361),
         4.0: (0.785733512985636, 0.614997296374464)},
        {2.0: -0.8, 3.0: -0.82, 4.0: -0.95}, _POW2_MODULI),
    _figure_config(
        "fig2d", ("cbc-dbd", "std-cbc"), "product:c^j:0.7", 1024,
        {2.0: (0.000868313446033489, 0.000649295569225828),
         3.0: (1.74556624440887e-06, 5.79750145408817e-07),
         4.0: (6.28865519885279e-09, 8.53309945874362e-10)},
        {2.0: -1.3, 3.0: -2.0, 4.0: -2.7}, _POW2_MODULI),
    _figure_config(
        "fig3a", ("korobov-cbc", "std-cbc"), "product:1/j^2", 1021,
        {2.0: (3.02304172140273e-05, 3.03337003297473e-05),
         3.0: (1.27915645867856e-08, 1.26259939267129e-08),
         4.0: (8.48349833066318e-12, 7.93817323589033e-12)},
        {2.0: -1.6, 3.0: -2.5, 4.0: -3.3}, _PRIME_MODULI),
    _figure_config(
        "fig3b", ("korobov-cbc", "std-cbc"), "product:1/j^3", 1021,
        {2.0: (6.71842516204534e-06, 6.71067140250752e-06),
         3.0: (3.15196828759722e-09, 3.1282237987031e-09),
         4.0: (2.30967568395001e-12, 2.27775310873231e-12)},
        {2.0: -1.7, 3.0: -2.6, 4.0: -3.4}, _PRIME_MODULI),
    _figure_config(
        "fig3c", ("korobov-cbc", "std-cbc"), "product:c^j:0.95", 1021,
        {2.0: (276870.710531586, 270899.820992591),
         3.0: (24.0374855168552, 22.2215313716621),
         4.0: (0.862069575307995, 0.616963198118981)},
        {2.0: -0.8, 3.0: -0.82, 4.0: -0.95}, _PRIME_MODULI),
    _figure_config(
        "fig3d", ("korobov-cbc", "std-cbc"), "product:c^j:0.7", 1021,
        {2.0: (0.000705641046409251, 0.000634771498002138),
         3.0: (8.74476856808452e-07, 6.15555840136454e-07),
         4.0: (1.94413977073814e-09, 9.78759682617165e-10)},
        {2.0: -1.3, 3.0: -2.0, 4.0: -2.7}, _PRIME_MODULI),
]:
    CONFIGS[_cfg.id] = _cfg

# the standard-CBC point the acceptance contract pins to 10%
CONFIGS["fig3a"].anchors[(2.0, "std-cbc")] = (3.03337003297473e-05, 1.1, "reference")

# For slowly decaying 0.95^j weights at higher smoothness, the published
# V-minimizing series track a slightly different greedy variant than the
# one pinned here, and the difference in wce is real. The tolerances below
# are widened, but they do not absorb it: at N = 1021 the alpha = 4 Korobov
# anchor ratio is 6.625, above its 4.5, and these checks gate like all
# others, so `latgen experiments run fig3c` exits 1.
CONFIGS["fig3c"].anchors[(3.0, "korobov-cbc")] = (24.0374855168552, 4.5, "reference")
CONFIGS["fig3c"].anchors[(4.0, "korobov-cbc")] = (0.862069575307995, 4.5, "reference")
CONFIGS["fig3c"].slope_overrides[(3.0, "korobov-cbc")] = -0.45
CONFIGS["fig3c"].slope_overrides[(4.0, "korobov-cbc")] = -0.30

CONFIGS["table1-shape"] = ExperimentConfig(
    id="table1-shape", algorithms=("cbc-dbd",), weights="product:1/j^2",
    alphas=(), moduli=(1 << 10, 1 << 12, 1 << 14),
)
CONFIGS["oracle-suite"] = ExperimentConfig(
    id="oracle-suite", algorithms=(), weights="", alphas=(), moduli=(),
)


def _check(checks, name, passed, detail):
    checks.append({"name": name, "passed": bool(passed), "detail": detail})


def _run_figure(cfg: ExperimentConfig, out_dir: str):
    rows = []
    for alpha in cfg.alphas:
        for algo in cfg.algorithms:
            for N in cfg.moduli:
                rows.append(sweep_row(algo, N, DIMENSION, cfg.weights, alpha))
    write_sweep_csv(os.path.join(out_dir, "%s.csv" % cfg.id), rows)

    checks = []
    for alpha in cfg.alphas:
        for algo in cfg.algorithms:
            series = sorted(
                (r["N"], r["wce"]) for r in rows
                if r["alpha"] == alpha and r["algorithm"] == algo
            )
            # values below ~1e-15 are unresolvable by the double-precision
            # character sum; exclude them from the log-log fit
            fit_pts = [(N, e) for N, e in series if e > 1e-15]
            logN = np.log([N for N, _ in fit_pts])
            logE = np.log([e for _, e in fit_pts])
            slope = float(np.polyfit(logN, logE, 1)[0])
            limit = cfg.slope_overrides.get((alpha, algo), cfg.slope_max[alpha])
            _check(checks, "slope alpha=%g %s" % (alpha, algo), slope <= limit,
                   "slope %.3f (limit %.3f)" % (slope, limit))
            key = (alpha, algo)
            if key in cfg.anchors:
                ref, factor, tag = cfg.anchors[key]
                got = dict(series)[cfg.anchor_N]
                ratio = got / ref
                ok = 1.0 / factor <= ratio <= factor
                _check(checks, "anchor alpha=%g %s N=%d" % (alpha, algo, cfg.anchor_N),
                       ok, "wce %.6e vs %s %.6e (ratio %.3f, max %.2f)"
                       % (got, tag, ref, ratio, factor))
    return checks


def _median_construct_seconds(n: int, s: int, w: ProductWeights):
    """The median time of three CBC-DBD constructions."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        construct_cbc_dbd(n, s, w)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _run_table1(cfg: ExperimentConfig, out_dir: str):
    dims = (50, 100, 200)
    w = ProductWeights(tuple(1.0 / j**2 for j in range(1, max(dims) + 1)))
    grid = {}
    with open(os.path.join(out_dir, "%s.csv" % cfg.id), "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["n", "s", "construct_seconds"])
        for N in cfg.moduli:
            n = N.bit_length() - 1
            for s in dims:
                grid[(n, s)] = _median_construct_seconds(n, s, w)
                wr.writerow([n, s, "%.17g" % grid[(n, s)]])
    checks = []
    ratio_n = grid[(14, 100)] / grid[(12, 100)]
    _check(checks, "N-scaling n=14/n=12", ratio_n <= 5.5,
           "ratio %.2f (limit 5.5, O(s N) predicts ~4)" % ratio_n)
    ratio_s = grid[(14, 200)] / grid[(14, 100)]
    _check(checks, "s-scaling s=200/s=100", ratio_s <= 2.6,
           "ratio %.2f (limit 2.6, model predicts ~2.0)" % ratio_s)
    return checks


def _run_oracles(cfg: ExperimentConfig, out_dir: str):
    # imported here: the references are needed by this config alone
    from .oracles import cbc_naive, h_naive, vartheta_truncated, wce_bruteforce

    checks = []
    rng = np.random.default_rng(20240)

    # digit-wise quality: every bit the construction set scores no worse
    # under the direct subset sum than the other bit
    w = ProductWeights(tuple(1.0 / j**2 for j in range(1, 5)))
    decisions, worse = 0, []
    for n in (3, 4, 5):
        z = construct_cbc_dbd(n, 3, w).z
        for r in (2, 3):
            for v in range(2, n + 1):
                low = z[r - 1] & ((1 << v) - 1)
                chosen = h_naive(r, n, v, low, z[: r - 1], w)
                other = h_naive(r, n, v, low ^ (1 << (v - 1)), z[: r - 1], w)
                decisions += 1
                if chosen > other + 1e-9 * abs(other):
                    worse.append("n=%d r=%d v=%d" % (n, r, v))
    _check(checks, "cbc-dbd digit quality vs subset oracle", not worse,
           "%d bit decisions, %d worse than the other bit %s"
           % (decisions, len(worse), worse))

    # whole-component CBC: the fast constructions pick the O(N^2) CBC's vectors
    differ = []
    for N in (17, 31, 61):
        if construct_korobov_cbc(N, 4, w) != cbc_naive(N, 4, w.gammas, omega_table(N)):
            differ.append("korobov-cbc N=%d" % N)
    wa = power_weights(ProductWeights(w.gammas[:3]), 2.0)
    for N in (31, 32):
        f = construct_standard_cbc(N, 3, 2.0, wa)
        if f != cbc_naive(N, 3, wa.gammas, fourier_decay_table(2.0, N)):
            differ.append("std-cbc N=%d" % N)
    _check(checks, "fast vs naive CBC vectors", not differ,
           "vectors differ at %s" % ", ".join(differ) if differ else "all moduli agree")

    # worst-case error: character-sum form vs dual-lattice enumeration
    ok = True
    detail = []
    for N in (8, 16):
        for s in (1, 2):
            gw = GeneralWeights.from_product(ProductWeights(w.gammas[:s]))
            z = tuple(int(zz) for zz in 1 + 2 * rng.integers(0, N // 2, size=s))
            v = GeneratingVector(N, z)
            exact = wce_product(v, 2.0, ProductWeights(w.gammas[:s]))
            box = wce_bruteforce(v, 2.0, gw, M=64)
            dev = abs(exact - box.value)
            ok = ok and dev <= box.tail_bound + 1e-12
            detail.append("N=%d s=%d dev %.2e tail %.2e" % (N, s, dev, box.tail_bound))
    _check(checks, "wce closed form vs brute force", ok, "; ".join(detail))

    # truncated-kernel residue table: DFT vs direct summation
    N = 64
    tab = vartheta_table(N)
    direct = np.array([vartheta_truncated(a / N, N) for a in range(N)])
    dev = float(np.max(np.abs(tab - direct)))
    _check(checks, "vartheta table DFT vs direct", dev < 1e-10, "max dev %.2e" % dev)

    with open(os.path.join(out_dir, "%s.csv" % cfg.id), "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["check", "passed", "detail"])
        for c in checks:
            wr.writerow([c["name"], c["passed"], c["detail"]])
    return checks


def run_experiment(config_id: str, out_dir: str) -> dict:
    """Run one config; write <id>.csv and <id>.report.json under out_dir."""
    if config_id not in CONFIGS:
        raise ValueError("unknown experiment id %r (known: %s)"
                         % (config_id, ", ".join(sorted(CONFIGS))))
    cfg = CONFIGS[config_id]
    os.makedirs(out_dir, exist_ok=True)
    if config_id == "table1-shape":
        checks = _run_table1(cfg, out_dir)
    elif config_id == "oracle-suite":
        checks = _run_oracles(cfg, out_dir)
    else:
        checks = _run_figure(cfg, out_dir)
    report = {"id": config_id, "passed": all(c["passed"] for c in checks),
              "checks": checks}
    with open(os.path.join(out_dir, "%s.report.json" % config_id), "w") as fh:
        json.dump(report, fh, indent=2)
    return report
