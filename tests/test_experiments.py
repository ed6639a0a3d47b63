import csv
import json
import os

import pytest

from latgen import oracles
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
