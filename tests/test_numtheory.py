import numpy as np
import pytest
from hypothesis import given, strategies as st

from latgen.numtheory import (
    ColumnSlices,
    GeneratingVector,
    gcd,
    is_prime,
    lattice_points,
    prev_prime,
    primitive_root,
    UnitColumns,
    unit_layout,
)


def _trial_division(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n**0.5) + 1))


def test_small_primes():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_large_known_primes():
    assert is_prime(16381)
    assert is_prime(2**31 - 1)
    assert not is_prime(16381 * 16381)


@given(st.integers(min_value=-10, max_value=20000))
def test_is_prime_matches_trial_division(n):
    assert is_prime(n) == _trial_division(n)


def test_prev_next_prime():
    assert prev_prime(64) == 61
    assert prev_prime(128) == 127
    assert prev_prime(256) == 251
    assert prev_prime(61) == 61
    assert prev_prime(4) == 3
    with pytest.raises(ValueError):
        prev_prime(1)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 61, 127, 1021])
def test_primitive_root_generates_units(p):
    g = primitive_root(p)
    seen = set()
    val = 1
    for _ in range(p - 1):
        val = (val * g) % p
        seen.add(val)
    assert seen == set(range(1, p))


def test_primitive_root_is_smallest():
    assert primitive_root(7) == 3
    assert primitive_root(11) == 2
    assert primitive_root(191) == 19


def test_generating_vector_validation():
    v = GeneratingVector(8, (1, 3, 5))
    assert v.s == 3
    assert v.prefix(2).z == (1, 3)
    with pytest.raises(ValueError):
        GeneratingVector(8, (1, 2))  # gcd(2, 8) > 1
    with pytest.raises(ValueError):
        GeneratingVector(8, (0,))
    with pytest.raises(ValueError):
        GeneratingVector(8, (8,))


def test_lattice_points():
    v = GeneratingVector(4, (1, 3))
    pts = list(lattice_points(v))
    assert len(pts) == 4
    assert pts[0] == (0.0, 0.0)
    assert pts[3] == (0.75, 0.25)


def test_gcd_reexport():
    assert gcd(12, 18) == 6


def _symmetric_table(N):
    t = np.random.default_rng(N).standard_normal(N)
    return t + t[(-np.arange(N)) % N]  # t[a] + t[N - a], exactly symmetric


@pytest.mark.parametrize("N", [2, 3, 4, 8, 61, 64, 131, 512, 1021, 2048])
def test_unit_layout_rotates_for_every_unit(N):
    """For every unit z the layout's column is tab[k z mod N] over its slots,
    read at the rotation slot[z], the slots with their negatives cover each
    residue count-many times, slot maps each slot's residue a and N - a to
    that slot, residue 0 is the last slot, and a non-unit is refused."""
    lay = unit_layout(N)
    assert lay.cyclic
    res = np.concatenate(lay.blocks + (lay.fixed,))  # the slots for z = 1
    assert res.shape == lay.counts.shape and lay.counts.sum() == N
    assert lay.fixed[-1] == 0 and lay.counts[-1] == 1.0
    covered = np.zeros(N)
    np.add.at(covered, res, lay.counts / 2)
    np.add.at(covered, (N - res) % N, lay.counts / 2)
    assert np.array_equal(covered, np.ones(N))
    slots = np.arange(res.shape[0])
    assert lay.slot.dtype == np.int64 and lay.slot.shape == (N,)
    assert np.array_equal(lay.slot[res], slots) and np.array_equal(lay.slot[(N - res) % N], slots)
    tab = _symmetric_table(N)
    cols = UnitColumns(lay, tab)
    # one slice per block, then one of the fixed residues
    assert cols.columns([1]).lengths.tolist() == [bl.shape[0] for bl in lay.blocks] + [
        lay.fixed.shape[0]]
    for z in range(1, N):
        if gcd(z, N) == 1:
            assert np.array_equal(next(iter(cols.columns([z]))), tab[res * z % N])
        else:
            with pytest.raises(ValueError, match="not a unit"):
                cols.columns([z])


def test_unit_layout_of_other_moduli_is_the_natural_order():
    lay = unit_layout(12)
    assert not lay.cyclic and not lay.blocks
    assert np.array_equal(lay.fixed, np.arange(12))
    assert np.array_equal(lay.counts, np.ones(12))
    assert np.array_equal(lay.slot, np.arange(12))
    tab = _symmetric_table(12)
    column = next(iter(UnitColumns(lay, tab).columns([5])))
    assert np.array_equal(column, tab[np.arange(12) * 5 % 12])


def test_unit_layout_rejects_bad_input():
    with pytest.raises(ValueError):
        unit_layout(1)
    with pytest.raises(ValueError):
        unit_layout(1 << 31)
    with pytest.raises(ValueError):  # not symmetric
        UnitColumns(unit_layout(13), np.arange(13.0))
    with pytest.raises(ValueError):
        UnitColumns(unit_layout(16), _symmetric_table(16)).columns([4])
    with pytest.raises(ValueError):  # a slice past the end of the buffer
        ColumnSlices(np.zeros(4), [[2]], [3])
    with pytest.raises(ValueError):
        ColumnSlices(np.zeros(4), [[-1]], [1])
    with pytest.raises(ValueError):  # one offset per length
        ColumnSlices(np.zeros(4), [[0, 1]], [1])
