import csv
import json
import os

import pytest

from latgen import experiments, oracles
from latgen.experiments import CONFIGS, DIMENSION, ExperimentConfig, run_experiment
from latgen.numtheory import GeneratingVector


def test_config_registry_shape():
    expected = {
        "fig2a", "fig2b", "fig2c", "fig2d",
        "fig3a", "fig3b", "fig3c", "fig3d",
        "table1-shape", "oracle-suite",
    }
    assert set(CONFIGS) == expected
    assert DIMENSION == 100


@pytest.mark.parametrize("cid", ["fig2a", "fig2b", "fig2c", "fig2d"])
def test_pow2_figure_configs(cid):
    cfg = CONFIGS[cid]
    assert cfg.algorithms == ("cbc-dbd", "std-cbc")
    assert cfg.alphas == (2.0, 3.0, 4.0)
    assert cfg.moduli == tuple(1 << n for n in range(6, 15))
    assert cfg.anchor_N == 1024
    assert all(N & (N - 1) == 0 for N in cfg.moduli)


@pytest.mark.parametrize("cid", ["fig3a", "fig3b", "fig3c", "fig3d"])
def test_prime_figure_configs(cid):
    cfg = CONFIGS[cid]
    assert cfg.algorithms == ("korobov-cbc", "std-cbc")
    assert cfg.anchor_N == 1021
    assert cfg.moduli[0] == 61 and cfg.moduli[-1] == 16381


def test_anchor_entries_have_value_factor_tag():
    for cfg in CONFIGS.values():
        for (alpha, algo), (value, factor, tag) in cfg.anchors.items():
            assert value > 0.0
            assert factor >= 1.0
            assert tag == "reference"
            assert algo in cfg.algorithms
            assert alpha in cfg.alphas


def test_every_figure_alpha_has_a_slope_limit():
    for cid, cfg in CONFIGS.items():
        if not cid.startswith("fig"):
            continue
        for alpha in cfg.alphas:
            assert alpha in cfg.slope_max
            assert cfg.slope_max[alpha] < 0.0


def test_unknown_experiment_id():
    with pytest.raises(ValueError):
        run_experiment("fig9z", "/tmp")


def test_oracle_suite_runs_and_passes(tmp_path):
    report = run_experiment("oracle-suite", str(tmp_path))
    assert report["passed"], report["checks"]
    names = [c["name"] for c in report["checks"]]
    assert "cbc-dbd digit quality vs subset oracle" in names
    assert "fast vs naive CBC vectors" in names
    # artifacts written
    assert os.path.exists(tmp_path / "oracle-suite.csv")
    stored = json.loads((tmp_path / "oracle-suite.report.json").read_text())
    assert stored == report


def test_oracle_suite_names_the_moduli_where_fast_and_naive_differ(tmp_path, monkeypatch):
    cbc_naive = oracles.cbc_naive

    def wrong_at_31(N, s, gammas, tab):
        v = cbc_naive(N, s, gammas, tab)
        return GeneratingVector(N, v.z[:-1] + (N - v.z[-1],)) if N == 31 else v

    monkeypatch.setattr(oracles, "cbc_naive", wrong_at_31)
    report = run_experiment("oracle-suite", str(tmp_path))
    check = next(c for c in report["checks"] if c["name"] == "fast vs naive CBC vectors")
    assert not check["passed"] and not report["passed"]
    assert check["detail"] == "vectors differ at korobov-cbc N=31, std-cbc N=31"


def test_table1_shape_artifacts(tmp_path):
    report = run_experiment("table1-shape", str(tmp_path))
    with open(tmp_path / "table1-shape.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "s", "construct_seconds"]
    assert len(rows) == 1 + 3 * 3  # three exponents x three dimensions
    assert all(float(r[2]) > 0.0 for r in rows[1:])
    assert {c["name"] for c in report["checks"]} == {
        "N-scaling n=14/n=12",
        "s-scaling s=200/s=100",
    }


def test_run_figure_checks_slopes_anchors_and_the_fit_floor(tmp_path, monkeypatch):
    """_run_figure on chosen wce rows: one CSV row per (alpha, algorithm, N),
    a slope passes at or under its limit and fails over it, an override
    replaces slope_max, an anchor passes within its factor and fails
    outside it, and a point with wce <= 1e-15 stays out of the fit."""
    def fake_row(algo, N, s, weights, alpha):
        wce = float(N) ** (-2.0 if algo == "fast" else -1.0)
        if (alpha, algo, N) == (3.0, "fast", 64):
            wce = 1e-16  # in the fit, this point would make the slope positive
        return {"N": N, "s": s, "alpha": alpha, "weights_id": weights, "algorithm": algo,
                "wce": wce, "construct_seconds": 0.0, "eval_seconds": 0.0}

    monkeypatch.setattr(experiments, "sweep_row", fake_row)
    cfg = ExperimentConfig(
        id="figx", algorithms=("fast", "slow"), weights="product:1/j^2", alphas=(2.0, 3.0),
        moduli=(64, 128, 256), anchor_N=128,
        anchors={(2.0, "fast"): (1.5 / 128**2, 2.0, "reference"),
                 (2.0, "slow"): (10.0 / 128, 2.0, "reference")},
        slope_max={2.0: -1.5, 3.0: -1.5}, slope_overrides={(3.0, "slow"): -0.5})
    checks = {c["name"]: (c["passed"], c["detail"])
              for c in experiments._run_figure(cfg, str(tmp_path))}
    with open(tmp_path / "figx.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert sorted((float(r["alpha"]), r["algorithm"], int(r["N"])) for r in rows) == sorted(
        (a, algo, N) for a in (2.0, 3.0) for algo in ("fast", "slow") for N in (64, 128, 256))
    assert checks == {
        "slope alpha=2 fast": (True, "slope -2.000 (limit -1.500)"),
        "slope alpha=2 slow": (False, "slope -1.000 (limit -1.500)"),
        "slope alpha=3 fast": (True, "slope -2.000 (limit -1.500)"),
        "slope alpha=3 slow": (True, "slope -1.000 (limit -0.500)"),
        "anchor alpha=2 fast N=128": (
            True, "wce 6.103516e-05 vs reference 9.155273e-05 (ratio 0.667, max 2.00)"),
        "anchor alpha=2 slow N=128": (
            False, "wce 7.812500e-03 vs reference 7.812500e-02 (ratio 0.100, max 2.00)"),
    }
