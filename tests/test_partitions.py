import pytest
from hypothesis import given, strategies as st

from conftest import cells, nonempty_partitions, partitions
from rimhook import (
    check_partition,
    conjugate,
    enumerate_partitions,
    format_partition,
    num_partitions,
    parse_partition,
)
from rimhook.partitions import shape_of_cells

# Partition counts p(0)..p(10), computed by hand with Euler's pentagonal
# recurrence before the generator existed.
P_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_counts_match_pentagonal_recurrence():
    for n, expected in enumerate(P_COUNTS):
        assert num_partitions(n) == expected
        assert len(enumerate_partitions(n)) == expected


def test_counted_partitions_match_the_listing():
    for n in range(31):
        assert num_partitions(n) == len(enumerate_partitions(n))
    with pytest.raises(ValueError):
        num_partitions(-1)


def test_order_n4_exactly():
    assert enumerate_partitions(4) == (
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    )


def test_order_endpoints():
    for n in range(1, 9):
        parts = enumerate_partitions(n)
        assert parts[0] == (n,)
        assert parts[-1] == (1,) * n


def test_order_is_strictly_reverse_lex():
    for n in range(9):
        parts = enumerate_partitions(n)
        for a, b in zip(parts, parts[1:]):
            # equal weights, so neither is a proper prefix of the other
            assert a > b


@given(partitions)
def test_conjugate_is_an_involution(p):
    assert conjugate(conjugate(p)) == p
    assert sum(conjugate(p)) == sum(p)


@given(nonempty_partitions)
def test_conjugate_swaps_rows_and_columns(p):
    q = conjugate(p)
    assert q[0] == len(p)
    assert len(q) == p[0]
    assert cells(q) == frozenset((j, i) for i, j in cells(p))


def test_conjugate_hook_examples():
    assert conjugate((4,)) == (1, 1, 1, 1)
    assert conjugate((3, 2, 2, 1, 1)) == (5, 3, 1)
    assert conjugate(()) == ()


@given(partitions)
def test_cells_roundtrip_through_shape(p):
    assert shape_of_cells(cells(p)) == p


def test_shape_of_cells_rejects_ragged_sets():
    with pytest.raises(ValueError):
        shape_of_cells({(1, 2)})  # row 1 misses column 1
    with pytest.raises(ValueError):
        shape_of_cells({(2, 1)})  # no row 1 at all
    with pytest.raises(ValueError):
        shape_of_cells({(1, 1), (2, 1), (2, 2)})  # row lengths increase


def test_check_partition_rejects_bad_input():
    for bad in [(1, 2), (2, 0), (2, -1), (2.5,), ("2",)]:
        with pytest.raises((ValueError, TypeError)):
            check_partition(bad)
    assert check_partition([3, 1]) == (3, 1)


def test_parse_bracket_form():
    assert parse_partition("[3,2,1]") == (3, 2, 1)
    assert parse_partition("[4]") == (4,)
    assert parse_partition("[]") == ()


def test_parse_multiplicity_form():
    assert parse_partition("1^2 2^2 3") == (3, 2, 2, 1, 1)
    assert parse_partition("4") == (4,)
    assert parse_partition("1^3") == (1, 1, 1)


def test_parse_rejects_garbage():
    for bad in ["[2,3]", "1^0", "abc", "[1,x]"]:
        with pytest.raises(ValueError):
            parse_partition(bad)


def test_parse_errors_name_the_token_and_both_forms():
    for bad, token in [("[1^3 2]", "'1^3 2'"), ("1^2^3", "'2^3'"), ("(3,2)", "'(3,2)'"),
                       ("[3,,1]", "''"), ("2 -1", "'-1'")]:
        with pytest.raises(ValueError) as info:
            parse_partition(bad)
        assert token in str(info.value)
        assert "[3,2,1]" in str(info.value) and "1^2 2^2 3" in str(info.value)


def test_parse_refuses_a_huge_multiplicity():
    with pytest.raises(ValueError, match="multiplicity"):
        parse_partition("1^99999999999")


@given(st.one_of(st.text(), st.text(alphabet="[]^, 0123456789-")))
def test_parse_returns_a_partition_or_raises_value_error(text):
    try:
        p = parse_partition(text)
    except ValueError:
        return
    assert check_partition(p) == p


@given(partitions)
def test_format_parse_roundtrip(p):
    assert parse_partition(format_partition(p)) == p


def test_format_examples():
    assert format_partition((3, 2, 1)) == "[3,2,1]"
    assert format_partition(()) == "[]"
