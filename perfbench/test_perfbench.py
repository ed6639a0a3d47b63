"""Tests of the benchmark's own helpers: python3 -m pytest perfbench"""

import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
from checks import Checker, decay_table, parse_vector, units  # noqa: E402
from workloads import (S, Workload, construct_op, error_op, make_workload,  # noqa: E402
                       sweep_op, write_weights)

latgen = run.import_checkout_latgen()


# ---------------------------------------------------------------- statistics

def test_percentile_is_nearest_rank_with_counts():
    xs = list(range(1, 101))
    assert run.percentile(xs, 50) == (50, 100, 50)
    assert run.percentile(xs, 90) == (90, 100, 10)
    # 144 rows: rank ceil(129.6) = 130 leaves 14 above the 90th percentile
    assert run.percentile(range(144), 90) == (129, 144, 14)
    # 70 values: rank 63 leaves 7 above
    assert run.percentile(range(70), 90) == (62, 70, 7)
    assert run.percentile([3.0], 90) == (3.0, 1, 0)
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_kind_percentile_ignores_number_of_passes_and_one_slow_repeat():
    base = {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0, "e": 5.0, "f": 6.0}
    two = {k: [v, v] for k, v in base.items()}
    three = {k: [v, v, v] for k, v in base.items()}
    three["c"][1] = 100.0
    assert run.kind_percentile(two, 50) == (3.0, 12, 6)
    assert run.kind_percentile(three, 50) == (3.0, 18, 6)
    assert run.kind_percentile(three, 90)[0] == 6.0


# ---------------------------------------------------------------------- spans

def test_self_time_subtracts_direct_children():
    sp = [["a", 0.0, 10.0, None, 0, None],
          ["b", 1.0, 4.0, 0, 0, None],
          ["c", 2.0, 3.0, 1, 0, None],
          ["b", 5.0, 9.0, 0, 0, None]]
    s = spans.summarize(sp)
    assert s["a"]["calls"] == 1 and s["a"]["busy_s"] == 10.0 and s["a"]["self_s"] == 3.0
    assert s["b"]["calls"] == 2 and s["b"]["busy_s"] == 7.0 and s["b"]["self_s"] == 6.0
    assert s["c"]["self_s"] == 1.0


def _namespaces():
    return {m.__name__: dict(vars(m)) for m in spans.latgen_modules()}


def test_hooks_wrap_every_namespace_and_uninstall_restores_it(tmp_path):
    before = _namespaces()
    original = latgen.cbc_dbd.construct_cbc_dbd
    score_pair = latgen._kernels.dbd_score_pair
    tracer = spans.Tracer()
    with tracer:
        for mod in (latgen, latgen.cli, latgen.cbc_dbd):
            assert mod.construct_cbc_dbd is not original
        assert latgen.cli.construct_cbc_dbd is latgen.cbc_dbd.construct_cbc_dbd
        assert latgen._kernels.dbd_score_pair is not score_pair
        tracer.op = 7
        rc = latgen.cli.main(["construct", "--algo", "cbc-dbd", "--n", "6", "--s", "4",
                              "--weights", "product:1/j^2", "--out", str(tmp_path / "v.txt")])
    assert rc == 0
    after = _namespaces()
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert after[name].keys() == attrs.keys(), name
        assert all(after[name][k] is v for k, v in attrs.items()), name
    names = [sp[0] for sp in tracer.spans]
    assert names[0] == "cli.main" and tracer.spans[0][3] is None
    dbd = tracer.spans[names.index("cbc_dbd.construct_cbc_dbd")]
    assert dbd[4] == 7 and dbd[5] == 6  # op id, and n as its work count
    assert tracer.spans[dbd[3]][0] == "cli.main"
    m = spans.layer_metrics(tracer.spans, 1)
    # 3 components x levels v = 2..6, each reading 2^6 - 2^(v-1) slots
    assert m["kernels.dbd_score_pair.calls"] == 15
    assert m["kernels.dbd_score_pair.slots"] == 3 * sum(64 - (1 << (v - 1)) for v in range(2, 7))
    assert m["cbc_dbd.construct_cbc_dbd.calls"] == 1


def test_missing_target_is_absent_not_an_error(monkeypatch):
    monkeypatch.setitem(spans.TARGETS, "fft", ("fft", "no_such_function"))
    monkeypatch.setitem(spans.TARGETS, "no_such_module", ("f",))
    tracer = spans.Tracer()
    with tracer:
        pass
    assert tracer.absent == ["fft.no_such_function", "no_such_module.f"]
    m = spans.layer_metrics([], 1)
    assert m["fft.no_such_function.calls"] == 0


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["per_layer"]] == spans.metric_names()
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END_UNITS)
    for m in bench["per_layer"]:
        assert m["unit"] == spans.unit_of(m["name"])
    for m in bench["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]


# ------------------------------------------------------------------- checks

def test_decay_table_matches_bernoulli_closed_form():
    N = 50
    x = np.arange(N) / N
    want = 2.0 * np.pi ** 2 * (x * x - x + 1.0 / 6.0)  # D_2 = 2 pi^2 B_2
    assert np.allclose(decay_table(2.0, N), want, rtol=0, atol=1e-13)


def _mini(tmp_path):
    gammas = tuple(j ** -2.0 for j in range(1, S + 1))
    work = str(tmp_path)
    wa = write_weights(os.path.join(work, "weights.txt"), gammas)
    dbd = construct_op(work, wa, "cbc-dbd", 20, n=8, check_alpha=2.0, powered=True)
    cbc = construct_op(work, wa, "std-cbc", 20, N=251, alpha=2.0, check_alpha=2.0,
                       powered=True)
    ops = (dbd, error_op(dbd, 2.0, True), cbc, error_op(cbc, 2.5, False),
           sweep_op(work, wa, "korobov-cbc", 20, 7, 3.0, True))
    return Workload("mini", 0, gammas, ops)


def _ok_ratio(outputs, failures):
    metrics, _ = run.end_to_end(outputs, [1.0], failures, len(outputs), 1.0)
    return metrics["ok_ratio"]["value"]


def _run(wl, tamper=None, passes=2):
    outputs = []
    for _ in range(passes):
        outputs += run.run_pass(wl, tamper=tamper)
    failures = run.run_checks(Checker(wl), outputs)
    return outputs, failures


def test_clean_outputs_pass(tmp_path):
    outputs, failures = _run(_mini(tmp_path))
    assert failures == []
    assert _ok_ratio(outputs, failures) == 1.0


def _replace_vector(make_z):
    def tamper(op, out):
        if op.kind != "construct":
            return out
        N, z = parse_vector(out.text)
        body = "".join("%d %d\n" % (j, zj) for j, zj in enumerate(make_z(N, len(z)), 1))
        return dataclasses.replace(out, text="# latgen v1\nN=%d\ns=%d\n%s" % (N, len(z), body))
    return tamper


def test_all_ones_vector_fails(tmp_path):
    outputs, failures = _run(_mini(tmp_path), _replace_vector(lambda N, s: (1,) * s))
    assert {k for k, _ in failures} == {"construct:cbc-dbd:n8", "construct:std-cbc:N251:a2"}
    assert _ok_ratio(outputs, failures) < 1.0


def test_random_vector_in_place_of_the_constructed_one_fails(tmp_path):
    rng = random.Random(1)
    outputs, failures = _run(_mini(tmp_path), _replace_vector(
        lambda N, s: (1,) + tuple(rng.choice(units(N).tolist()) for _ in range(s - 1))))
    keys = {k for k, _ in failures}
    assert {"construct:cbc-dbd:n8", "construct:std-cbc:N251:a2"} <= keys
    assert _ok_ratio(outputs, failures) < 1.0


def test_perturbed_wce_fails(tmp_path):
    def tamper(op, out):
        if op.kind != "error":
            return out
        rep = json.loads(out.stdout)
        rep["wce"] *= 1.0 + 1e-4
        return dataclasses.replace(out, stdout=json.dumps(rep))

    outputs, failures = _run(_mini(tmp_path), tamper, passes=1)
    assert {k for k, _ in failures} == {"error:cbc-dbd:n8:a2", "error:std-cbc:N251:a2:a2.5"}
    assert _ok_ratio(outputs, failures) < 1.0


def test_sweep_row_must_match_argv(tmp_path):
    def tamper(op, out):
        if op.kind != "sweep":
            return out
        return dataclasses.replace(out, text=out.text.replace(",korobov-cbc,", ",std-cbc,"))

    _, failures = _run(_mini(tmp_path), tamper, passes=1)
    assert [k for k, _ in failures] == ["sweep:korobov-cbc:p7:a3"]


# ---------------------------------------------------------------- workloads

def test_workloads_are_seeded_and_their_work_is_not(tmp_path):
    a = make_workload("cbc-fft", 3, str(tmp_path))
    b = make_workload("cbc-fft", 3, str(tmp_path))
    c = make_workload("cbc-fft", 4, str(tmp_path))
    assert a == b and a.gammas != c.gammas
    sizes = lambda wl: sorted(op.N for op in wl.ops)  # noqa: E731
    for N, M in zip(sizes(a), sizes(c)):
        assert abs(N - M) <= 0.03 * N
    d, e = (make_workload("sweep-small", k, str(tmp_path)) for k in (1, 2))
    assert len(d.ops) == 72 and set(d.ops) == set(e.ops) and d.ops != e.ops


# ------------------------------------------------------------------- refusal

def test_refuses_a_checkout_without_latgen_sources(tmp_path):
    with pytest.raises(run.CannotRun):
        run.import_checkout_latgen(str(tmp_path))
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dbd-pow2",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert '"correct"' not in proc.stdout
