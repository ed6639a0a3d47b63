"""Validation branches that the other tests never reach: each raises a
ValueError with exactly its message. And each rule on the inputs (alpha,
the modulus, the dimension) is checked in one place: every entry refuses a
breach with that one message, the CLI with that one line and exit 2."""

import math
import re

import numpy as np
import pytest

from latgen import _kernels, _slowpath
from latgen.cbc import construct_korobov_cbc, construct_standard_cbc, scoring_plan
from latgen.cbc_dbd import construct_cbc_dbd
from latgen.cli import main, write_vector
from latgen.error import lattice_kernel_sum, wce_product
from latgen.kernel import fourier_decay_table, kernel_table, omega_table, vartheta_table
from latgen.numtheory import ColumnSlices, GeneratingVector, primitive_root, unit_layout
from latgen.sweep import construct
from latgen.weights import ProductWeights, parse_weight_spec

W2 = ProductWeights((0.5, 0.25))


def _mismatched_step_state(tmp_path):
    st = scoring_plan(61, omega_table(61)).start()
    st.part = np.zeros(st.part.shape[0] + 1)
    _kernels._step_args(st)


def _two_field_weight_line(tmp_path):
    (tmp_path / "w.txt").write_text("0.5\n0.25 0.125\n")
    parse_weight_spec("product:list:%s" % (tmp_path / "w.txt"), 2)


def _columns(s):
    return ColumnSlices(np.ones(4), np.zeros((s, 1), dtype=np.int64), np.array([4]))


CASES = [
    pytest.param(_mismatched_step_state, "the step state does not match its plan",
                 id="step-state"),
    pytest.param(lambda _: _kernels.dbd_construct(kernel_table(16)[:8], 4, 1.0, [0.5], 0.0),
                 "need n >= 2 and len(ktab) == 2^n", id="dbd-table-length",
                 marks=pytest.mark.skipif(_kernels.BACKEND != "c",
                                          reason="only the compiled kernel's wrapper checks")),
    pytest.param(lambda _: _slowpath.product_sum([0.5], _columns(2)),
                 "need one gamma per column and at least one column", id="product-sum-gammas"),
    pytest.param(lambda _: _slowpath.product_sum([], _columns(0)),
                 "need one gamma per column and at least one column", id="product-sum-empty"),
    pytest.param(lambda _: _slowpath.product_columns([0.5], [[np.ones(2)], [np.ones(2)]]),
                 "more columns than weights: need one gamma per column",
                 id="product-columns-gammas"),
    pytest.param(lambda _: construct_korobov_cbc(7, 0, W2), "need s >= 1", id="korobov-s"),
    pytest.param(lambda _: construct_korobov_cbc(7, 3, W2),
                 "weight sequence shorter than requested dimension", id="korobov-weights"),
    pytest.param(lambda _: construct_standard_cbc(7, 0, 2.0, W2), "need s >= 1", id="std-cbc-s"),
    pytest.param(lambda _: construct_standard_cbc(8, 3, 2.0, W2),
                 "weight sequence shorter than requested dimension", id="std-cbc-weights"),
    pytest.param(lambda _: vartheta_table(16, 0.5), "requires alpha >= 1", id="vartheta-alpha"),
    pytest.param(lambda _: vartheta_table(16, math.nan), "requires alpha >= 1",
                 id="vartheta-alpha-nan"),
    pytest.param(lambda _: primitive_root(15), "primitive_root requires a prime p >= 3",
                 id="primitive-root"),
    pytest.param(lambda _: GeneratingVector(1, (1,)), "modulus must be >= 2",
                 id="vector-modulus"),
    pytest.param(lambda _: GeneratingVector(8, ()), "need at least one component",
                 id="vector-empty"),
    pytest.param(lambda _: GeneratingVector(8, (1, 3)).prefix(0), "invalid prefix length",
                 id="prefix-0"),
    pytest.param(lambda _: GeneratingVector(8, (1, 3)).prefix(3), "invalid prefix length",
                 id="prefix-3"),
    pytest.param(lambda _: construct("cbc-xyz", 16, 2, W2, None), "unknown algorithm 'cbc-xyz'",
                 id="sweep-algorithm"),
    pytest.param(_two_field_weight_line, "{tmp}/w.txt, line 2: expected one gamma, got 2 fields",
                 id="weight-list-line"),
]


@pytest.mark.parametrize("call, message", CASES)
def test_validation_messages(call, message, tmp_path):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message.format(tmp=tmp_path))):
        call(tmp_path)


TOO_LARGE = "N = 2147483648 is too large: need N < 2^31"


def _alpha(a):
    return "requires finite alpha > 1, got alpha = %r" % (a,)


def _alpha_entries(a):
    """The worst-case error, the standard CBC and the decay table both build first."""
    return [(wce_product, (GeneratingVector(16, (1, 3)), a, W2)),
            (construct_standard_cbc, (16, 2, a, W2)), (fourier_decay_table, (a, 16))]


def _modulus_entries(N):
    return [(unit_layout, (N,)), (kernel_table, (N,)), (vartheta_table, (N, 2.0)),
            (fourier_decay_table, (2.0, N))]


def _dimension_entries(s):
    return [(construct_korobov_cbc, (7, s, W2)), (construct_standard_cbc, (8, s, 2.0, W2)),
            (construct_cbc_dbd, (3, s, W2))]


# Per rule: its one message, the library entries (function, arguments) and
# the CLI commands that reach it. In argv, VEC stands for a vector file at
# N = 16 and HUGE for one at N = 2^31. A vector file cannot hold N < 2, and
# the commands refuse N < 2 by their algorithm's own rule first; the CLI
# reads exactly s weights or refuses the weight file; and construct and
# sweep raise alpha to a power first, which refuses NaN by its own rule
# (weights.power_weights: alpha must be finite and > 0).
RULES = [
    pytest.param(_alpha(1.0), _alpha_entries(1.0), [
        ["construct", "--algo", "std-cbc", "--N", "61", "--s", "3", "--alpha", "1"],
        ["error", "--vector", "VEC", "--alpha", "1"],
        ["sweep", "--algo", "std-cbc", "--alpha-list", "1", "--s", "3", "--n-range", "4..4"],
    ], id="alpha-1"),
    pytest.param(_alpha(math.nan), _alpha_entries(math.nan), [
        ["error", "--vector", "VEC", "--alpha", "nan"],
    ], id="alpha-nan"),
    pytest.param("need N >= 2", _modulus_entries(1), [], id="N-1"),
    pytest.param(TOO_LARGE, _modulus_entries(1 << 31) + [
        (lattice_kernel_sum, (GeneratingVector(1 << 31, (1, 3)), [0.0], W2))], [
        ["construct", "--algo", "cbc-dbd", "--n", "31", "--s", "2"],
        ["construct", "--algo", "std-cbc", "--N", str(1 << 31), "--s", "2", "--alpha", "2"],
        ["error", "--vector", "HUGE", "--alpha", "2"],
        ["sweep", "--algo", "cbc-dbd", "--alpha-list", "2", "--s", "2", "--n-range", "31..31"],
    ], id="N-2^31"),
    pytest.param("need s >= 1", _dimension_entries(0), [
        ["construct", "--algo", "cbc-dbd", "--n", "4", "--s", "0"],
        ["construct", "--algo", "korobov-cbc", "--N", "61", "--s", "0"],
        ["construct", "--algo", "std-cbc", "--N", "61", "--s", "0", "--alpha", "2"],
        ["sweep", "--algo", "korobov-cbc", "--alpha-list", "2", "--s", "0",
         "--prime-near-pow2", "5..5"],
    ], id="s-0"),
    pytest.param("weight sequence shorter than requested dimension", _dimension_entries(3), [],
                 id="short-weights"),
]


@pytest.mark.parametrize("message, entries, commands", RULES)
def test_one_refusal_per_rule(message, entries, commands, tmp_path, capsys):
    for entry, args in entries:
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            entry(*args)
    vectors = {"VEC": GeneratingVector(16, (1, 3, 5)), "HUGE": GeneratingVector(1 << 31, (1, 3))}
    for name, v in vectors.items():
        write_vector(str(tmp_path / name), v)
    out = tmp_path / "out"
    for argv in commands:
        argv = [str(tmp_path / a) if a in vectors else a for a in argv]
        argv += ["--weights", "product:1/j^2"]
        argv += [] if argv[0] == "error" else ["--out", str(out)]
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == "error: %s\n" % message, argv
        assert not out.exists(), argv
