import ast
import csv
import json
import math
import os
import subprocess
import sys

import pytest

import latgen
from latgen.cbc import construct_korobov_cbc
from latgen.cli import (
    VECTOR_MAGIC,
    main,
    parse_weight_spec,
    read_vector,
    write_vector,
)
from latgen.error import wce_product
from latgen.numtheory import GeneratingVector
from latgen.sweep import CSV_HEADER, fmt, sweep_row
from latgen.weights import GeneralWeights, ProductWeights, power_weights

W10 = ProductWeights(tuple(1.0 / j**2 for j in range(1, 11)))


def test_vector_file_round_trip(tmp_path):
    path = str(tmp_path / "v.txt")
    v = GeneratingVector(64, (1, 27, 13))
    write_vector(path, v)
    lines = open(path).read().splitlines()
    assert lines[0] == VECTOR_MAGIC
    assert lines[1] == "N=64"
    assert lines[2] == "s=3"
    assert read_vector(path) == v


def test_read_vector_rejects_malformed(tmp_path):
    path = str(tmp_path / "bad.txt")
    open(path, "w").write("N=8\ns=1\n1 1\n")
    with pytest.raises(ValueError):
        read_vector(path)
    open(path, "w").write(VECTOR_MAGIC + "\nN=8\ns=2\n1 1\n")
    with pytest.raises(ValueError):
        read_vector(path)


@pytest.mark.parametrize("body", ["0 3\n1 5\n", "1 3\n1 5\n", "1 3\n3 5\n"],
                         ids=["index 0", "repeated index", "index above s"])
def test_vector_component_indices_are_1_to_s_once(tmp_path, capsys, body):
    path = tmp_path / "v.txt"
    path.write_text(VECTOR_MAGIC + "\nN=8\ns=2\n" + body)
    with pytest.raises(ValueError, match="component index"):
        read_vector(str(path))
    assert main(["error", "--vector", str(path), "--alpha", "2",
                 "--weights", "product:1/j^2"]) == 2
    capsys.readouterr()


def test_parse_weight_spec_formulas():
    w = parse_weight_spec("product:1/j^2").resolve(3)
    assert w.gammas == (1.0, 0.25, pytest.approx(1.0 / 9.0))
    w = parse_weight_spec("product:c^j:0.95").resolve(2)
    assert w.gammas == (0.95, pytest.approx(0.9025))
    with pytest.raises(ValueError):
        parse_weight_spec("uniform:1")


def test_parse_weight_spec_files(tmp_path):
    lpath = tmp_path / "g.txt"
    lpath.write_text("0.5\n0.25\n\n0.125\n")
    w = parse_weight_spec("product:list:%s" % lpath).resolve(3)
    assert w.gammas == (0.5, 0.25, 0.125)
    gpath = tmp_path / "t.txt"
    gpath.write_text("1 0.9\n2 0.5\n1,2 0.7\n")
    g = parse_weight_spec("general:%s" % gpath).resolve(2)
    assert isinstance(g, GeneralWeights)
    assert g.gamma({1, 2}) == 0.7


def test_construct_and_error_json(tmp_path, capsys):
    vec = str(tmp_path / "v.txt")
    assert main(["construct", "--algo", "korobov-cbc", "--N", "31", "--s", "4",
                 "--weights", "product:1/j^2", "--out", vec]) == 0
    stored = read_vector(vec)
    assert stored == construct_korobov_cbc(31, 4, W10)
    assert main(["error", "--vector", vec, "--alpha", "2", "--weights",
                 "product:1/j^2", "--apply-power", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["N"] == 31 and report["s"] == 4
    expect = wce_product(stored, 2.0, power_weights(W10, 2.0))
    assert report["wce"] == pytest.approx(expect, rel=1e-12)


def test_error_with_T_and_bounds(tmp_path, capsys):
    vec = str(tmp_path / "v.txt")
    main(["construct", "--algo", "cbc-dbd", "--n", "5", "--s", "3",
          "--weights", "product:1/j^2", "--out", vec])
    assert main(["error", "--vector", vec, "--alpha", "2", "--weights",
                 "product:1/j^2", "--with-T", "--with-bounds",
                 "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"N", "s", "alpha", "wce", "T", "bound_cbcdbd"}
    assert report["T"] <= report["bound_cbcdbd"]


def test_error_csv_format(tmp_path, capsys):
    vec = str(tmp_path / "v.txt")
    main(["construct", "--algo", "std-cbc", "--N", "16", "--s", "2",
          "--alpha", "2", "--weights", "product:1/j^2", "--out", vec])
    assert main(["error", "--vector", vec, "--alpha", "2",
                 "--weights", "product:1/j^2", "--format", "csv"]) == 0
    out = capsys.readouterr().out.splitlines()
    header = out[0].split(",")
    row = out[1].split(",")
    assert header[:3] == ["N", "s", "alpha"]
    assert row[0] == "16" and row[1] == "2"


def test_usage_errors_exit_2(tmp_path, capsys):
    vec = str(tmp_path / "v.txt")
    # both --n and --N
    assert main(["construct", "--algo", "cbc-dbd", "--n", "4", "--N", "16",
                 "--s", "2", "--weights", "product:1/j^2", "--out", vec]) == 2
    # korobov needs a prime
    assert main(["construct", "--algo", "korobov-cbc", "--N", "16", "--s", "2",
                 "--weights", "product:1/j^2", "--out", vec]) == 2
    # std-cbc needs --alpha
    assert main(["construct", "--algo", "std-cbc", "--N", "16", "--s", "2",
                 "--weights", "product:1/j^2", "--out", vec]) == 2
    capsys.readouterr()


def test_huge_modulus_exits_2_before_allocating(tmp_path, capsys):
    vec = str(tmp_path / "v.txt")
    assert main(["construct", "--algo", "cbc-dbd", "--n", "40", "--s", "2",
                 "--weights", "product:1/j^2", "--out", vec]) == 2
    assert "need N < 2^31" in capsys.readouterr().err
    write_vector(vec, GeneratingVector(1 << 40, (1, 3)))
    assert main(["error", "--vector", vec, "--alpha", "2",
                 "--weights", "product:1/j^2"]) == 2
    assert "need N < 2^31" in capsys.readouterr().err
    # points streams, so it has no such limit
    assert main(["points", "--vector", vec, "--limit", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "%s\t%s" % (
        fmt(2.0**-40), fmt(3 * 2.0**-40))


def test_missing_file_exits_1(capsys):
    assert main(["error", "--vector", "/nonexistent/v.txt", "--alpha", "2",
                 "--weights", "product:1/j^2"]) == 1
    capsys.readouterr()


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="RLIMIT_AS caps the address space only on Linux")
def test_running_out_of_memory_exits_2(tmp_path):
    """Under a 1.5 GB address-space limit the first table of N = 2^29 or 2^30
    doubles cannot be allocated; nothing of it is ever touched."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

    vec = str(tmp_path / "v.txt")
    write_vector(vec, GeneratingVector(1 << 30, (1, 3)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    for argv, N in ((["construct", "--algo", "cbc-dbd", "--n", "29", "--s", "3",
                      "--weights", "product:1/j^2", "--out", str(tmp_path / "w.txt")], 1 << 29),
                    (["error", "--vector", vec, "--alpha", "2",
                      "--weights", "product:1/j^2"], 1 << 30)):
        out = subprocess.run([sys.executable, "-m", "latgen.cli", *argv], capture_output=True,
                             text=True, env=env, preexec_fn=cap, timeout=120)
        assert out.returncode == 2, out.stderr
        assert out.stderr == "error: not enough memory for N = %d\n" % N


def test_sweep_csv_schema(tmp_path):
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep", "--algo", "std-cbc", "--weights", "product:1/j^2",
                 "--alpha-list", "2,3", "--s", "3", "--n-range", "4..6",
                 "--out", out]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_HEADER
    assert len(rows) == 1 + 2 * 3
    Ns = [int(r[0]) for r in rows[1:]]
    alphas = [float(r[2]) for r in rows[1:]]
    assert alphas == sorted(alphas)
    assert Ns[:3] == [16, 32, 64]  # sorted by N within each alpha
    for r in rows[1:]:
        assert float(r[5]) > 0.0  # wce
        assert float(r[6]) >= 0.0 and float(r[7]) >= 0.0


def test_sweep_prime_schedule(tmp_path):
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep", "--algo", "korobov-cbc", "--weights",
                 "product:1/j^2", "--alpha-list", "2", "--s", "2",
                 "--prime-near-pow2", "4..5", "--out", out]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert [int(r[0]) for r in rows[1:]] == [13, 31]


def test_sweep_row_powers_weights_consistently():
    row = sweep_row("korobov-cbc", 31, 3, "product:1/j^2", 2.0)
    v = construct_korobov_cbc(31, 3, W10)
    expect = wce_product(v, 2.0, power_weights(W10, 2.0))
    assert row["wce"] == pytest.approx(expect, rel=1e-12)
    assert row["algorithm"] == "korobov-cbc"


def test_cold_paths_never_import_scipy(tmp_path):
    """scipy (0.3 s of import) is loaded only by a Hurwitz-zeta decay table,
    that is, a worst-case error at alpha outside {2, 4, 6, 8}."""
    script = r"""
import sys
from latgen.cli import main

d = sys.argv[1]
w = ["--weights", "product:1/j^2"]
runs = [
    ["construct", "--algo", "cbc-dbd", "--n", "6", "--s", "4", *w, "--out", d + "/v.txt"],
    ["construct", "--algo", "korobov-cbc", "--N", "61", "--s", "4", *w, "--out", d + "/k.txt"],
    ["construct", "--algo", "std-cbc", "--N", "61", "--s", "4", "--alpha", "2", *w,
     "--out", d + "/s.txt"],
    ["error", "--vector", d + "/v.txt", "--alpha", "2", *w, "--with-T", "--with-bounds",
     "--format", "json"],
    ["points", "--vector", d + "/v.txt", "--limit", "4"],
]
for argv in runs:
    assert main(argv) == 0, argv
    assert "scipy" not in sys.modules, argv
assert main(["error", "--vector", d + "/v.txt", "--alpha", "2.5", *w]) == 0
assert "scipy" in sys.modules
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(latgen.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path)], capture_output=True,
                         text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr


def test_library_does_not_import_the_cli():
    pkg = os.path.dirname(os.path.abspath(latgen.__file__))
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py") and name != "cli.py":
            tree = ast.parse(open(os.path.join(pkg, name)).read())
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    mod = node.module or ""
                    targets = [mod] + ["%s.%s" % (mod, a.name) for a in node.names]
                elif isinstance(node, ast.Import):
                    targets = [a.name for a in node.names]
                else:
                    continue
                assert all(t.split(".")[-1] != "cli" for t in targets), (name, targets)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["error", "--alpha", "nan"],
    ["error", "--alpha", "inf"],
    ["error", "--alpha", "1e308"],
    ["error", "--alpha", "300"],
    ["construct", "--algo", "std-cbc", "--N", "61", "--s", "3", "--alpha", "nan"],
    ["construct", "--algo", "std-cbc", "--N", "61", "--s", "3", "--alpha", "inf"],
    ["sweep", "--algo", "cbc-dbd", "--alpha-list", "nan", "--s", "3", "--n-range", "4..5"],
    ["sweep", "--algo", "cbc-dbd", "--alpha-list", "inf", "--s", "3", "--n-range", "4..5"],
], ids=["error nan", "error inf", "error 1e308", "error 300", "std-cbc nan", "std-cbc inf",
        "sweep nan", "sweep inf"])
def test_unusable_alpha_exits_2_with_one_line(tmp_path, capsys, argv):
    """A non-finite alpha, or one whose decay table overflows at N = 64, ends
    in one line naming the cause, and no numpy warning on the way."""
    vec = str(tmp_path / "v.txt")
    assert main(["construct", "--algo", "cbc-dbd", "--n", "6", "--s", "4",
                 "--weights", "product:1/j^2", "--out", vec]) == 0
    argv = argv + ["--weights", "product:1/j^2"]
    if argv[0] == "error":
        argv += ["--vector", vec]
    else:
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: "), err
    assert "finite alpha" in err or "overflows double precision" in err, err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, cause", [
    (["construct", "--algo", "cbc-dbd", "--n", "6", "--s", "3", "--weights", "LIST"],
     "gamma_1 = nan"),
    (["error", "--alpha", "2", "--weights", "LIST"], "gamma_1 = nan"),
    (["construct", "--algo", "std-cbc", "--alpha", "2", "--N", "61", "--s", "100",
      "--weights", "product:c^j:1e3"], "gamma_52 = 1e+156^2.0 overflows double range"),
    (["construct", "--algo", "korobov-cbc", "--N", "61", "--s", "100",
      "--weights", "product:c^j:1e3"], "left double range after component 14"),
    (["construct", "--algo", "cbc-dbd", "--n", "10", "--s", "100",
      "--weights", "product:c^j:1e3"], "scores for z_14 left double range"),
], ids=["construct nan", "error nan", "std-cbc gamma^alpha", "korobov-cbc q", "cbc-dbd scores"])
def test_unusable_weights_exit_2_with_one_line(tmp_path, capsys, argv, cause):
    """A NaN weight, a weight whose alpha-th power overflows, or weights under
    which the CBC running product leaves double range end in one line naming
    the cause, and no numpy warning on the way."""
    vec = str(tmp_path / "v.txt")
    write_vector(vec, GeneratingVector(64, (1, 27, 13)))
    weights = tmp_path / "w.txt"
    weights.write_text("nan\n0.5\n0.25\n")
    argv = [("product:list:%s" % weights) if a == "LIST" else a for a in argv]
    argv += ["--vector", vec] if argv[0] == "error" else ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: "), err
    assert cause in err, err


def test_points_output(tmp_path):
    vec = str(tmp_path / "v.txt")
    write_vector(vec, GeneratingVector(4, (1, 3)))
    out = str(tmp_path / "pts.txt")
    assert main(["points", "--vector", vec, "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert len(lines) == 4
    assert [float(x) for x in lines[0].split("\t")] == [0.0, 0.0]
    assert [float(x) for x in lines[3].split("\t")] == [0.75, 0.25]


def test_points_limit(tmp_path, capsys):
    vec = str(tmp_path / "v.txt")
    write_vector(vec, GeneratingVector(8, (1, 5)))
    assert main(["points", "--vector", vec, "--limit", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
