"""Matrices over partitions, basis conversion, and 1^k evaluation.

invert_unitriangular below is the independent route to the signed matrix:
plain back-substitution on the tableau-count matrix, no hooks involved.
Disagreement between the two constructions would implicate one of them.
"""

import hashlib
import itertools
import json
from collections import Counter
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from conftest import partitions_of
from rimhook import (
    PartitionMatrix,
    SymFuncExpansion,
    conjugate,
    enumerate_partitions,
    enumerate_srht_all_types,
    enumerate_ssyt,
    evaluate_at_ones,
    inverse_kostka_matrix,
    kostka_matrix,
    schur_to_e,
    verify_identities,
)
from rimhook import symfunc
from rimhook.symfunc import _pack_type


# ---------------------------------------------------------------- oracles

def invert_unitriangular(m: PartitionMatrix) -> PartitionMatrix:
    """Exact inverse by back-substitution; requires unit diagonal and zeros
    below it in the stored order."""
    size = len(m.order)
    rows = [list(r) for r in m.rows]
    for i in range(size):
        assert rows[i][i] == 1
        assert all(rows[i][j] == 0 for j in range(i))
    inv = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for j in range(size):
        for i in range(j - 1, -1, -1):
            inv[i][j] = -sum(rows[i][k] * inv[k][j] for k in range(i + 1, j + 1))
    return PartitionMatrix(m.n, m.order, tuple(tuple(r) for r in inv))


def count_rearrangements(mu, k):
    """Distinct k-tuples of nonnegative ints whose nonzero entries are mu."""
    if len(mu) > k:
        return 0
    padded = tuple(mu) + (0,) * (k - len(mu))
    return len(set(itertools.permutations(padded)))


def weak_compositions(n, k):
    if k == 0:
        if n == 0:
            yield ()
        return
    for first in range(n + 1):
        for rest in weak_compositions(n - first, k - 1):
            yield (first,) + rest


def bounded_tableau_count(shape, k):
    """Number of fillings of `shape` with entries in 1..k, counted per
    content and summed."""
    n = sum(shape)
    return sum(len(enumerate_ssyt(shape, c)) for c in weak_compositions(n, k))


# --------------------------------------------------------------- matrices

def test_tableau_matrix_small_values():
    m = kostka_matrix(3)
    assert m.rows == ((1, 1, 1), (0, 1, 2), (0, 0, 1))
    m4 = kostka_matrix(4)
    assert m4.order == enumerate_partitions(4)
    assert m4.rows == (
        (1, 1, 1, 1, 1),
        (0, 1, 1, 2, 3),
        (0, 0, 1, 1, 2),
        (0, 0, 0, 1, 3),
        (0, 0, 0, 0, 1),
    )


def test_signed_matrix_small_values():
    # Columns tallied by hand from the tilings of each shape of 4.
    assert inverse_kostka_matrix(4).rows == (
        (1, -1, 0, 1, -1),
        (0, 1, -1, -1, 2),
        (0, 0, 1, -1, 1),
        (0, 0, 0, 1, -3),
        (0, 0, 0, 0, 1),
    )


@pytest.mark.parametrize("n", range(9))
def test_signed_matrix_equals_back_substitution(n):
    assert inverse_kostka_matrix(n) == invert_unitriangular(kostka_matrix(n))


@pytest.mark.parametrize("n", [*range(9), 16])
def test_products_are_identity(n):
    k = kostka_matrix(n)
    inv = inverse_kostka_matrix(n)
    assert k.matmul(inv).is_identity
    assert inv.matmul(k).is_identity


# The builders count; the enumerators they replaced are the oracles.

@pytest.mark.parametrize("n", range(9))
def test_count_matrix_equals_enumeration(n):
    m = kostka_matrix(n)
    for lam in m.order:
        for mu in m.order:
            assert m.entry(lam, mu) == len(enumerate_ssyt(lam, mu)), (lam, mu)


@pytest.mark.parametrize("n", range(10))
def test_signed_matrix_equals_signed_tilings(n):
    # the lister and the counter share one strip step; the lister's own
    # oracle, the walk search in test_tableaux, keeps this comparison honest
    m = inverse_kostka_matrix(n)
    for lam in m.order:
        signed = Counter()
        for t in enumerate_srht_all_types(lam):
            signed[t.type] += t.sign
        assert {mu: m.entry(mu, lam) for mu in m.order} == {
            mu: signed[mu] for mu in m.order
        }, lam


def test_signed_matrix_13_matches_the_enumerator_hash():
    # the sha256 the tiling enumerator gave for K^-1(13)
    text = json.dumps(inverse_kostka_matrix(13).to_json(), separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1f74d8d3780ebacac8c75215947c01a209acd9a53ab270dfbd50a28da41b85f8"
    )


def test_count_matrix_13_matches_the_pinned_hash():
    # the sha256 that K(13) had before the builder kept a table of strips
    text = json.dumps(kostka_matrix(13).to_json(), separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f102de10852e3cfbc3e7bfe5fd7c25ee6a88cb70e462e146228a54fa1a969d36"
    )


@pytest.mark.parametrize("n", [*range(1, 17), 48])
def test_packed_types_keep_each_multiplicity_in_its_own_field(n):
    # no multiplicity exceeds n < 2^width, so no field carries into the next
    width = n.bit_length()
    mask = (1 << width) - 1
    shapes = enumerate_partitions(n) if n <= 16 else [(1,) * n, (n,), (24, 12, 6, 3, 2, 1)]
    for typ in shapes:
        packed = _pack_type(typ, width)
        fields = {s: (packed >> (width * s)) & mask for s in range(1, n + 1)}
        assert fields == {s: typ.count(s) for s in range(1, n + 1)}, typ
        assert packed >> (width * (n + 1)) == 0


def test_entry_orientation():
    m = kostka_matrix(3)
    assert m.entry((3,), (1, 1, 1)) == 1  # single-row filling always exists
    assert m.entry((1, 1, 1), (3,)) == 0
    assert m.entry((2, 1), (1, 1, 1)) == 2


def test_matrix_csv_exact():
    assert kostka_matrix(2).to_csv() == ',[2],"[1,1]"\n[2],1,1\n"[1,1]",0,1\n'


# ------------------------------------------------------------ verification

def test_verify_identities_small():
    report = verify_identities(3)
    assert report.ok
    census = {
        mu: (c.pairs, c.cycles, c.fixed, c.signed_sum)
        for mu, c in report.last_column.items()
    }
    assert census == {
        (3,): (4, 2, 0, 0),
        (2, 1): (4, 2, 0, 0),
        (1, 1, 1): (1, 0, 1, 1),
    }


@pytest.mark.parametrize("n", [1, 2, 4, 5])
def test_verify_identities_census_consistency(n):
    report = verify_identities(n)
    assert report.ok
    for mu, c in report.last_column.items():
        assert c.pairs == 2 * c.cycles + c.fixed
        assert c.signed_sum == (1 if mu == (1,) * n else 0)
        assert c.fixed == (1 if mu == (1,) * n else 0)
    assert set(report.to_json()) == {
        "n",
        "left_identity",
        "right_identity",
        "involution_consistent",
        "last_column",
    }


def test_verify_reports_the_cycles_and_fixed_points_it_found(monkeypatch):
    # with the identity in place of the involution every pair is its own
    # partner, and the report must say so instead of assuming 2-cycles
    monkeypatch.setattr(symfunc, "outer_involution", lambda s, t: (s, t))
    report = verify_identities(4)
    assert not report.involution_consistent
    for c in report.last_column.values():
        assert c.fixed == c.pairs > 0
        assert c.cycles == 0


# --------------------------------------------------------------- expansion

def test_expansion_drops_zero_terms():
    f = SymFuncExpansion("e", {(2,): 0, (1, 1): 3}, 2)
    assert (2,) not in f.coeffs
    assert f[(2,)] == 0 and f[(1, 1)] == 3


def test_expansion_rejects_mixed_weights():
    with pytest.raises(ValueError):
        SymFuncExpansion("e", {(2,): 1, (1, 1, 1): 1}, 2)
    with pytest.raises(ValueError):
        SymFuncExpansion("q", {(2,): 1}, 2)


def test_expansion_rejects_a_negative_weight():
    with pytest.raises(ValueError, match="negative"):
        SymFuncExpansion("e", {}, -3)


def test_expansion_text_format():
    f = SymFuncExpansion("e", {(4,): 4, (3, 1): 2, (2, 2): 2}, 4)
    assert f.format_text() == "4 e[4] + 2 e[3,1] + 2 e[2,2]"
    g = SymFuncExpansion("e", {(2,): -1, (1, 1): 1}, 2)
    assert g.format_text() == "-1 e[2] + 1 e[1,1]"
    assert SymFuncExpansion("m", {}, 5).format_text() == "0"


def test_expansion_terms_are_canonically_ordered():
    f = SymFuncExpansion("e", {(1, 1, 1): 1, (3,): 5, (2, 1): -2}, 3)
    assert f.terms() == [((3,), 5), ((2, 1), -2), ((1, 1, 1), 1)]
    assert not f.is_positive()


# ---------------------------------------------------------- basis change

def test_schur_conversion_classics():
    # Column of a one-row shape: the conjugate is a column, a single
    # elementary term.
    assert schur_to_e((4,)).coeffs == {(4,): 1}
    # s_(2) = e_(1,1) - e_(2), via the transpose convention.
    assert schur_to_e((1, 1)).coeffs == {(1, 1): 1, (2,): -1}
    # Self-conjugate: s_(2,1) = e_(2,1) - e_(3).
    assert schur_to_e((2, 1)).coeffs == {(2, 1): 1, (3,): -1}


@given(st.integers(min_value=1, max_value=7).flatmap(partitions_of))
def test_schur_conversion_matches_matrix_column(lam):
    col = schur_to_e(lam)
    inv = inverse_kostka_matrix(sum(lam))
    for mu in inv.order:
        assert col[mu] == inv.entry(mu, lam)


# ---------------------------------------------------------- 1^k evaluation

@pytest.mark.parametrize("k", range(6))
def test_elementary_evaluation_is_binomial_product(k):
    for n in range(1, 6):
        for mu in enumerate_partitions(n):
            f = SymFuncExpansion("e", {mu: 1}, n)
            expected = 1
            for part in mu:
                expected *= comb(k, part)
            assert evaluate_at_ones(f, k) == expected


@pytest.mark.parametrize("k", range(6))
def test_monomial_evaluation_counts_rearrangements(k):
    for n in range(1, 6):
        for mu in enumerate_partitions(n):
            f = SymFuncExpansion("m", {mu: 1}, n)
            assert evaluate_at_ones(f, k) == count_rearrangements(mu, k)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_schur_evaluation_counts_bounded_fillings(k):
    for n in range(1, 6):
        for lam in enumerate_partitions(n):
            f = SymFuncExpansion("s", {lam: 1}, n)
            assert evaluate_at_ones(f, k) == bounded_tableau_count(lam, k)


@pytest.mark.parametrize("k", range(1, 7))
def test_dual_path_evaluation(k):
    # Elementary route through the signed matrix vs monomial route through
    # the count matrix; they share nothing but the partition order.
    for n in range(1, 7):
        km = kostka_matrix(n)
        for lam in enumerate_partitions(n):
            via_e = evaluate_at_ones(SymFuncExpansion("s", {lam: 1}, n), k)
            via_m = sum(
                km.entry(lam, mu) * count_rearrangements(mu, k)
                for mu in km.order
            )
            assert via_e == via_m


def test_hook_content_formula_spot_check():
    # s_(2,1) at 1^k is k(k^2-1)/3; try a few k.
    for k in range(1, 7):
        f = SymFuncExpansion("s", {(2, 1): 1}, 3)
        assert evaluate_at_ones(f, k) == Fraction(k * (k * k - 1), 3)


def test_conjugate_shapes_at_ones_transpose():
    # f^lam = f^(lam'): standard fillings are equinumerous under transpose,
    # so the (1^n) column of the count matrix is conjugation-symmetric.
    n = 6
    km = kostka_matrix(n)
    ones = (1,) * n
    for lam in enumerate_partitions(n):
        assert km.entry(lam, ones) == km.entry(conjugate(lam), ones)


def test_standard_count_via_factorial_ratio():
    # n! / product of hooks, checked against the count matrix.
    def hook_product(lam):
        conj = conjugate(lam)
        out = 1
        for i, row in enumerate(lam, 1):
            for j in range(1, row + 1):
                out *= (row - j) + (conj[j - 1] - i) + 1
        return out

    for n in range(1, 7):
        km = kostka_matrix(n)
        for lam in enumerate_partitions(n):
            assert km.entry(lam, (1,) * n) == factorial(n) // hook_product(lam)
