"""Validation branches that the other tests never reach: each raises a
ValueError with exactly its message."""

import re

import numpy as np
import pytest

from latgen import _kernels, _slowpath
from latgen.cbc import construct_korobov_cbc, construct_standard_cbc, scoring_plan
from latgen.kernel import kernel_table, omega_table, vartheta_table
from latgen.numtheory import ColumnSlices, GeneratingVector, primitive_root
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
