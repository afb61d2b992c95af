"""What the library builds unchecked passes the validating constructors.

The tilings' lister, the fillings' enumerator, the poset generator, `csf`
and `schur_to_e` build their outputs without validation, since each is
derived from values already checked.  Here every output at small sizes is
rebuilt through the public constructors, which must accept it and give back
an equal object; a producer that emits an invalid object fails here.
"""

import pytest

from rimhook.partitions import enumerate_partitions
from rimhook.posets import Poset, csf, enumerate_posets, is_ab_free
from rimhook.symfunc import SymFuncExpansion, schur_to_e
from rimhook.tableaux import (
    RimHook,
    SemistandardTableau,
    SpecialRimHookTableau,
    _all_srht,
    enumerate_ssyt,
)


def rebuilt(f: SymFuncExpansion) -> SymFuncExpansion:
    """The expansion through its constructor, which drops zero coefficients,
    so a stored zero makes the rebuilt one differ."""
    return SymFuncExpansion(f.basis, f.coeffs, f.weight)


@pytest.mark.parametrize("n", range(9))
def test_listed_tilings_and_their_hooks_are_valid(n):
    for lam in enumerate_partitions(n):
        for t in _all_srht(lam):
            hooks = tuple(RimHook(h.walk) for h in t.hooks)
            assert SpecialRimHookTableau(lam, hooks) == t


@pytest.mark.parametrize("n", range(7))
def test_enumerated_fillings_are_valid(n):
    for shape in enumerate_partitions(n):
        for content in enumerate_partitions(n):
            for t in enumerate_ssyt(shape, content):
                assert t.shape == shape
                assert SemistandardTableau(t.rows) == t


@pytest.mark.parametrize("n", range(7))
def test_generated_posets_are_valid(n):
    for p in enumerate_posets(n):
        assert Poset(p.elements, p.less) == p


@pytest.mark.parametrize("n", range(7))
def test_csf_expansions_are_valid(n):
    for p in enumerate_posets(n):
        if is_ab_free(p, 3, 1):
            result = csf(p)
            for f in (result.s_expansion, result.e_expansion):
                assert f.weight == n
                assert rebuilt(f) == f


@pytest.mark.parametrize("n", range(7))
def test_schur_to_e_expansions_are_valid(n):
    for lam in enumerate_partitions(n):
        f = schur_to_e(lam)
        assert f.basis == "e" and f.weight == n
        assert rebuilt(f) == f
