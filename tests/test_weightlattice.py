import pytest

from qck.weightlattice import (
    check_composition,
    check_partition,
    check_rank,
    descent_composition,
    entry_rows,
    enumerate_syt,
    is_partition,
    ssyt_count,
    syt_count,
)

import oracles


@pytest.mark.parametrize("n", [True, False, 2.0, "2", 0, -1])
def test_lattice_helpers_refuse_a_rank_that_is_not_a_positive_int(n):
    for helper in (check_rank, lambda n: ssyt_count((1,), n)):
        with pytest.raises(ValueError, match="^n must be a positive integer$"):
            helper(n)


def test_is_partition():
    assert is_partition((3, 1))
    assert is_partition((2, 2, 1))
    # user-supplied shapes must carry at least one cell
    assert not is_partition(())
    assert not is_partition((1, 2))
    assert not is_partition((2, 0))
    assert not is_partition((2, -1))


def test_check_partition_normalizes():
    assert check_partition([3, 1]) == (3, 1)
    with pytest.raises(ValueError):
        check_partition((1, 3))


def test_check_composition():
    assert check_composition([1, 2, 1]) == (1, 2, 1)
    with pytest.raises(ValueError):
        check_composition((1, 0, 2))


def test_bool_is_not_a_shape_part():
    # True == 1 and True > 0, so only an isinstance check keeps it out
    assert not is_partition((True,))
    with pytest.raises(ValueError, match=r"^not a partition \(weakly decreasing positive parts\): \(2, True\)$"):
        check_partition((2, True))
    with pytest.raises(ValueError, match=r"^not a partition \(weakly decreasing positive parts\): \(True,\)$"):
        syt_count((True,))
    with pytest.raises(ValueError, match=r"^not a composition \(positive parts\): \(True, 2\)$"):
        check_composition((True, 2))


def test_partitions_brute_known_table():
    # the tests range over these shapes, so the oracle is pinned to the known counts
    assert oracles.partitions_brute(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert oracles.partitions_brute(0) == [()]
    assert oracles.partitions_brute(3, max_parts=2) == [(3,), (2, 1)]
    # number of partitions of 1..8
    for m, expected in zip(range(1, 9), [1, 2, 3, 5, 7, 11, 15, 22]):
        assert len(oracles.partitions_brute(m)) == expected


def test_syt_counts_match_hook_product():
    for m in range(1, 7):
        for shape in oracles.partitions_brute(m):
            assert len(enumerate_syt(shape)) == oracles.hook_length_count(shape)


def test_tableau_counts_by_hook_formulas():
    for m in range(1, 7):
        for shape in oracles.partitions_brute(m):
            assert syt_count(shape) == len(enumerate_syt(shape))
            for n in range(1, 5):
                assert ssyt_count(shape, n) == sum(oracles.schur_monomials(shape, n).values())


def test_syt_of_a_long_row_needs_no_deep_recursion():
    assert enumerate_syt((3000,)) == [(tuple(range(1, 3001)),)]


def test_syt_of_a_long_column_is_one_tableau():
    assert enumerate_syt((1,) * 3000) == [tuple((k,) for k in range(1, 3001))]


def test_hook_formulas_on_a_long_row_cancel_before_multiplying():
    # 100000! has about 456,000 digits; the quotients are tiny
    assert syt_count((100000,)) == 1
    assert ssyt_count((100000,), 2) == 100001


def test_syt_known_counts():
    # dimensions for all shapes with five cells
    table = {
        (5,): 1,
        (4, 1): 4,
        (3, 2): 5,
        (3, 1, 1): 6,
        (2, 2, 1): 5,
        (2, 1, 1, 1): 4,
        (1, 1, 1, 1, 1): 1,
    }
    for shape, count in table.items():
        assert len(enumerate_syt(shape)) == count
    assert sum(c * c for c in table.values()) == 120


def test_syt_exact_sets_match_brute_force():
    for m in range(1, 6):
        for shape in oracles.partitions_brute(m):
            assert sorted(enumerate_syt(shape)) == oracles.brute_force_syt(shape)


def test_syt_shape_roundtrip():
    for shape in oracles.partitions_brute(5):
        for t in enumerate_syt(shape):
            rows = entry_rows(t)
            assert tuple(rows.count(r) for r in range(1, len(shape) + 1)) == shape


def test_descent_composition_known_values():
    assert descent_composition(((1, 2), (3,), (4,))) == (2, 1, 1)
    assert descent_composition(((1, 3), (2,), (4,))) == (1, 2, 1)
    assert descent_composition(((1, 4), (2,), (3,))) == (1, 1, 2)
    assert descent_composition(((1, 2, 3),)) == (3,)
    assert descent_composition(((1,), (2,), (3,))) == (1, 1, 1)


def test_descent_composition_matches_oracle():
    for m in range(1, 6):
        for shape in oracles.partitions_brute(m):
            for t in enumerate_syt(shape):
                got = descent_composition(t)
                assert got == oracles.syt_descent_composition(t)
                assert sum(got) == m
                assert all(part >= 1 for part in got)


def test_descent_composition_rejects_bad_entries():
    with pytest.raises(ValueError):
        descent_composition(((1, 2), (4,)))
    for empty in [(), ((),)]:
        with pytest.raises(ValueError, match=r"^empty tableau$"):
            descent_composition(empty)
    for bad in [((1, 2), (2,)), ((1, 3),)]:  # a duplicate, and a gap
        with pytest.raises(ValueError, match=r"^tableau entries must be exactly 1\.\.m$"):
            descent_composition(bad)
