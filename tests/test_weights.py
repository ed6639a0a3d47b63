import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from latgen.numtheory import ColumnSlices
from latgen.oracles import weight_of
from latgen.weights import (
    GeneralWeights,
    ProductWeights,
    parse_weight_spec,
    power_weights,
    subset_product_sum,
)


def test_product_weights_basics():
    w = ProductWeights((1.0, 0.25, 1.0 / 9.0))
    assert w.s == 3
    assert w.gamma(2) == 0.25
    assert weight_of(frozenset(), w) == 1.0
    assert weight_of({1, 3}, w) == pytest.approx(1.0 / 9.0)
    with pytest.raises(ValueError):
        ProductWeights((1.0, 0.0))
    with pytest.raises(ValueError):
        weight_of({4}, w)


def test_general_weights_table():
    table = {
        frozenset(): 1.0,
        frozenset({1}): 0.9,
        frozenset({2}): 0.5,
        frozenset({1, 2}): 0.7,
    }
    w = GeneralWeights(2, table)
    assert w.gamma(frozenset()) == 1.0
    assert weight_of({1, 2}, w) == 0.7
    with pytest.raises(ValueError):
        w.gamma({3})
    with pytest.raises(ValueError):
        GeneralWeights(2, {frozenset({1}): -0.1})
    with pytest.raises(ValueError):
        GeneralWeights(2, {frozenset(): 2.0})


@pytest.mark.parametrize("g", [math.nan, math.inf, -math.inf])
def test_non_finite_weights_are_rejected(g):
    with pytest.raises(ValueError, match="positive and finite"):
        ProductWeights((0.5, g))
    with pytest.raises(ValueError, match="positive and finite"):
        GeneralWeights(2, {frozenset({1}): 0.5, frozenset({2}): g})


def test_overflowing_weights_are_rejected():
    with pytest.raises(ValueError, match="gamma_2 = 1e\\+200\\^2.0 overflows"):
        power_weights(ProductWeights((0.5, 1e200)), 2.0)
    with pytest.raises(ValueError, match="gamma_309 = 10.0\\^309 overflows"):
        parse_weight_spec("product:c^j:10", 400)


def test_general_weights_need_every_subset():
    """Every nonempty subset of {1..s} needs a weight, the first missing one
    (by size, then in order) is named, indices below 1 are refused, and
    subsets reaching beyond s are ignored."""
    with pytest.raises(ValueError, match=r"no gamma_u for u = \{3\}.* of \{1\.\.3\}"):
        GeneralWeights(3, {frozenset({1}): 0.5, frozenset({2}): 0.25})
    with pytest.raises(ValueError, match=r"no gamma_u for u = \{1, 2\}"):
        GeneralWeights(2, {frozenset({1}): 0.5, frozenset({2}): 0.25, frozenset({3}): 0.1})
    with pytest.raises(ValueError, match="index below 1"):
        GeneralWeights(1, {frozenset({1}): 0.5, frozenset({0, 1}): 0.25})
    w = GeneralWeights(1, {frozenset({1}): 0.5, frozenset({1, 2}): 0.1})
    assert w.gamma({1}) == 0.5
    assert GeneralWeights(0, {}).s == 0


def test_general_from_product_agrees():
    w = ProductWeights((0.5, 0.25, 0.125))
    g = GeneralWeights.from_product(w)
    for u in ({1}, {2, 3}, {1, 2, 3}, set()):
        assert weight_of(u, g) == pytest.approx(weight_of(u, w))


def test_general_weights_dimension_cap():
    with pytest.raises(ValueError):
        GeneralWeights(21, {frozenset(): 1.0})


@given(
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=6),
    st.floats(min_value=1.5, max_value=4.0),
)
def test_power_weights_property(gammas, alpha):
    w = ProductWeights(tuple(gammas))
    wp = power_weights(w, alpha)
    for j in range(1, w.s + 1):
        assert wp.gamma(j) == pytest.approx(w.gamma(j) ** alpha)


def test_subset_product_sum_matches_subset_loop():
    rng = np.random.default_rng(3)
    cols = [rng.uniform(-1.0, 2.0, size=7) for _ in range(4)]
    w = ProductWeights((0.9, 0.5, 0.3, 0.1))
    loop = math.fsum(
        weight_of(u, w) * math.prod(cols[j - 1][i] for j in u)
        for size in range(1, 5) for u in combinations(range(1, 5), size)
        for i in range(7)
    )
    assert subset_product_sum(w, iter(cols)) == pytest.approx(loop, rel=1e-13)
    g = GeneralWeights.from_product(w)
    assert subset_product_sum(g, cols) == pytest.approx(loop, rel=1e-13)
    assert subset_product_sum(w, []) == 0.0 == subset_product_sum(g, [])
    no_column = ColumnSlices(np.ones(4), np.zeros((0, 1), dtype=np.int64), np.array([4]))
    assert subset_product_sum(w, no_column) == 0.0


def test_weight_spec_formulas():
    assert parse_weight_spec("product:1/j^2", 3).gammas == (
        1.0,
        0.25,
        pytest.approx(1.0 / 9.0),
    )
    assert parse_weight_spec("product:1/j^3", 2).gammas == (
        1.0,
        0.125,
    )
    assert parse_weight_spec("product:c^j:0.95", 2).gammas == (
        0.95,
        pytest.approx(0.95**2),
    )
    with pytest.raises(ValueError, match="unrecognized weight spec"):
        parse_weight_spec("product:j^2", 2)


def test_weight_spec_list_and_table(tmp_path):
    lpath = tmp_path / "g.txt"
    lpath.write_text("0.5\n0.25\n0.125\n")
    assert parse_weight_spec("product:list:%s" % lpath, 2).gammas == (0.5, 0.25)
    with pytest.raises(ValueError, match="weight list has 3 entries, need 4"):
        parse_weight_spec("product:list:%s" % lpath, 4)
    tpath = tmp_path / "t.txt"
    tpath.write_text("1 0.9\n2 0.5\n1,2 0.7\n")
    w = parse_weight_spec("general:%s" % tpath, 2)
    assert isinstance(w, GeneralWeights)
    assert weight_of({1, 2}, w) == 0.7
    with pytest.raises(ValueError, match="unrecognized weight spec"):
        parse_weight_spec("bogus", 2)
