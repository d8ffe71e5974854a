"""Partitions, set-valued tableau enumeration, weights."""

import pytest
from hypothesis import given, settings, strategies as st

from grothpoly import (
    InvalidPartitionError,
    InvalidTableauError,
    Partition,
    SetValuedTableau,
    VariableUniverse,
    count_tableaux,
    enumerate_ssyt,
    enumerate_tableaux,
    partitions_in_box,
    validate_tableau,
    weight,
)
from helpers import brute_force_ssyt


def test_partition_canonical_form():
    assert Partition((3, 2, 0, 0)).parts == (3, 2)
    assert Partition(()).parts == ()
    assert Partition((2, 2)).size == 4
    assert len(Partition((3, 1))) == 2
    assert Partition.from_string("2,1") == Partition((2, 1))
    assert Partition.from_string("") == Partition(())


def test_partition_rejects_bad_input():
    with pytest.raises(InvalidPartitionError):
        Partition((1, 2))
    with pytest.raises(InvalidPartitionError):
        Partition((2, -1))


def test_partition_equals_only_its_stripped_tuple():
    assert Partition((2, 1)) == (2, 1) == Partition((2, 1))
    assert Partition((2, 1, 0)) == (2, 1) == Partition((2, 1, 0))
    # a tuple with trailing zeros hashes apart, so it compares unequal too
    assert Partition((2, 1)) != (2, 1, 0, 0)
    assert Partition(()) != (0,) and Partition(()) == ()
    for p, t in [((2, 1), (2, 1)), ((2, 1), (2, 1, 0)), ((), ()), ((), (0,)), ((3,), (3, 0))]:
        assert (t in {Partition(p)}) == (Partition(p) == t) == (Partition(p) in {t}), (p, t)
    # a tuple that is not a partition compares unequal instead of raising
    assert Partition((2, 1)) != (1, 2)
    assert Partition((2, 1)) != (2, 1, -1)
    assert Partition((2,)) != (2, 1)
    assert (1, 2) != Partition((2, 1))


def test_partition_cells_row_major():
    assert list(Partition((2, 1)).cells()) == [(1, 1), (1, 2), (2, 1)]


def test_partition_padded_and_contains():
    assert Partition((2, 1)).padded(4) == (2, 1, 0, 0)
    box = Partition((3, 3, 3))
    assert Partition((3, 2)).contains(Partition((2, 2)))
    assert not Partition((2, 2)).contains(Partition((3,)))
    inside = list(partitions_in_box(3, 3))
    assert len(inside) == 20  # binomial(6,3) partitions in the 3x3 box
    assert all(box.contains(p) for p in inside)
    assert len(set(p.parts for p in inside)) == 20


def test_enumerate_two_one_shape():
    ts = list(enumerate_tableaux((2, 1), 2))
    assert len(ts) == 3
    fills = {t.rows for t in ts}
    assert fills == {
        (((1,), (1,)), ((2,),)),
        (((1,), (2,)), ((2,),)),
        (((1,), (1, 2)), ((2,),)),
    }


def test_enumerate_column_taller_than_n_is_empty():
    assert list(enumerate_tableaux((1, 1, 1), 2)) == []


def test_enumerate_single_cell():
    ts = list(enumerate_tableaux((1,), 2))
    assert [t.rows for t in ts] == [(((1,),),), (((1, 2),),), (((2,),),)]


def test_counts():
    assert count_tableaux((2, 1), 2) == 3
    assert count_tableaux((), 5) == 1
    # chains (A, B) of nonempty subsets of {1,2} with max A <= min B:
    # ({1},{1}), ({1},{1,2}), ({1},{2}), ({1,2},{2}), ({2},{2})
    assert count_tableaux((2,), 2) == 5


def test_enumeration_order_documented():
    # row-major cells, candidate subsets in lexicographic order, depth first
    ts = [t.rows for t in enumerate_tableaux((2, 1), 2)]
    assert ts == [
        (((1,), (1,)), ((2,),)),
        (((1,), (1, 2)), ((2,),)),
        (((1,), (2,)), ((2,),)),
    ]


def test_no_duplicates_and_validity():
    for shape in [(2, 1), (2, 2), (3, 1), (1, 1)]:
        for n in (2, 3):
            ts = list(enumerate_tableaux(shape, n))
            assert len(set(ts)) == len(ts)
            for t in ts:
                validate_tableau(t, n)


def test_independent_checker_rejects_bad_fillings():
    with pytest.raises(InvalidTableauError):
        validate_tableau(SetValuedTableau((2,), (((2,), (1,)),)), 2)  # row decreasing
    with pytest.raises(InvalidTableauError):
        validate_tableau(SetValuedTableau((1, 1), (((1,),), ((1,),))), 2)  # column weak
    with pytest.raises(InvalidTableauError):
        validate_tableau(SetValuedTableau((1,), (((3,),),)), 2)  # entry out of range
    with pytest.raises(InvalidTableauError):
        SetValuedTableau((2,), (((1,),),))  # wrong shape


def test_count_monotone_in_n():
    for shape in [(2, 1), (3,), (2, 2)]:
        for n in (1, 2, 3):
            assert count_tableaux(shape, n) <= count_tableaux(shape, n + 1)


def test_ssyt_restriction_counts():
    assert sum(1 for _ in enumerate_ssyt((2, 1), 2)) == 2
    for n in (1, 2, 3, 4):
        assert sum(1 for _ in enumerate_ssyt((1,), n)) == n
    # singleton stream matches the independent brute-force generator
    for shape in [(2, 1), (2, 2), (3, 1, 1)]:
        for n in (2, 3, 4):
            ours = sorted(
                tuple(tuple(cell[0] for cell in row) for row in t.rows)
                for t in enumerate_ssyt(shape, n)
            )
            oracle = sorted(tuple(tuple(row) for row in f) for f in brute_force_ssyt(shape, n))
            assert ours == oracle


def test_schur_rebuilt_from_ssyt_stream():
    # sum of x^T over the singleton stream equals the brute-force Schur sum
    U = VariableUniverse(3, 0)
    total = U.zero()
    for t in enumerate_ssyt((2, 1), 3):
        term = U.one()
        for _, _, cell in t.cells():
            term = term * U.x(cell[0])
        total = total + term
    from helpers import schur_oracle

    assert total == schur_oracle((2, 1), 3, U)


def test_weight_known_products():
    U = VariableUniverse(2, 3)
    ts = {t.rows: t for t in enumerate_tableaux((2, 1), 2)}
    t1 = ts[(((1,), (1,)), ((2,),))]
    assert weight(t1, U) == U.circle_plus(1, 1) * U.circle_plus(1, 2) * U.circle_plus(2, 1)
    t3 = ts[(((1,), (1, 2)), ((2,),))]
    expect = (
        U.beta()
        * U.circle_plus(1, 1)
        * U.circle_plus(1, 2)
        * U.circle_plus(2, 3)
        * U.circle_plus(2, 1)
    )
    assert weight(t3, U) == expect


def test_weight_empty_tableau():
    U = VariableUniverse(1, 1)
    (t,) = enumerate_tableaux((), 3)
    assert weight(t, U) == 1


def test_weight_universe_too_small():
    from grothpoly import UniverseMismatchError

    U = VariableUniverse(2, 1)
    ts = {t.rows: t for t in enumerate_tableaux((2, 1), 2)}
    t = ts[(((1,), (1,)), ((2,),))]  # needs y2
    with pytest.raises(UniverseMismatchError):
        weight(t, U)


def test_weight_beta_degree_is_excess():
    U = VariableUniverse(3, 5)
    for shape in [(2, 1), (2,), (1, 1)]:
        for t in enumerate_tableaux(shape, 3):
            w = weight(t, U)
            excess = t.size - t.shape.size
            # lowest beta power present is exactly the excess
            min_beta = min(e.get("b", 0) for e, _ in w.terms_sorted())
            assert min_beta == excess


def test_tableau_json():
    ts = list(enumerate_tableaux((2, 1), 2))
    obj = ts[0].to_json_obj()
    assert obj == {"shape": [2, 1], "fill": [[1, 1, [1]], [1, 2, [1]], [2, 1, [2]]]}


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(1, 3))
def test_enumerate_matches_validator_hypothesis(a, b, n):
    shape = Partition((max(a, b), min(a, b)))
    for t in enumerate_tableaux(shape, n):
        validate_tableau(t, n)
