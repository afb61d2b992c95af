"""The acceptance suite: one test per shipped guarantee, exact arithmetic.

Run with -v to get one pass/fail line per criterion.
"""

import math

from rimhook.involution import (
    RootedTableau,
    check_sign_lemma,
    enumerate_standard_pairs,
    inner_involution,
    outer_involution,
    trace_to_json,
)
from rimhook.partitions import enumerate_partitions, num_partitions
from rimhook.posets import (
    Poset,
    chromatic_polynomial_value,
    count_p_tableaux,
    csf,
    enumerate_posets,
    height,
    incomparability_graph,
    is_ab_free,
    parse_poset,
    stanley_stembridge_involution,
)
from rimhook.symfunc import evaluate_at_ones, inverse_kostka_matrix, kostka_matrix
from rimhook.tableaux import (
    RimHook,
    SemistandardTableau,
    SpecialRimHookTableau,
    enumerate_srht,
    enumerate_srht_all_types,
)

from conftest import FIXTURES, cells, load_fixture


def syt_count_by_hook_lengths(shape) -> int:
    """Independent standard-filling count: n! over the product of arm+leg+1."""
    n = sum(shape)
    denom = 1
    conj = [sum(1 for r in shape if r >= j) for j in range(1, (shape[0] if shape else 0) + 1)]
    for i, j in cells(shape):
        denom *= shape[i - 1] - j + conj[j - 1] - i + 1
    return math.factorial(n) // denom


def chain(n):
    els = tuple("abcdefg"[:n])
    return Poset.from_relations(els, [(els[i], els[i + 1]) for i in range(n - 1)])


def test_criterion_1_matrix_products_are_identities():
    for n in range(9):
        k = kostka_matrix(n)
        inv = inverse_kostka_matrix(n)
        assert k.matmul(inv).is_identity, f"K . K^-1 != I at n={n}"
        assert inv.matmul(k).is_identity, f"K^-1 . K != I at n={n}"


def test_criterion_2_worked_sign_example():
    tableau = SpecialRimHookTableau.from_hooks(
        [
            RimHook(((5, 1), (4, 1), (3, 1), (3, 2))),
            RimHook(((2, 1), (2, 2), (1, 2), (1, 3))),
            RimHook(((1, 1),)),
        ]
    )
    assert tableau.shape == (3, 2, 2, 1, 1)
    assert tableau.type == (4, 4, 1)
    assert [h.sign for h in tableau.hooks] == [1, -1, 1]
    assert tableau.sign == -1
    assert tableau in enumerate_srht((3, 2, 2, 1, 1), (4, 4, 1))


def test_criterion_3_standard_column_cancellation():
    for n in range(1, 7):
        for mu in enumerate_partitions(n):
            pairs = enumerate_standard_pairs(mu)
            total = sum(s.sign for s, _ in pairs)
            if mu == (1,) * n:
                assert total == 1 and len(pairs) == 1
                continue
            assert total == 0, f"signs of type {mu} do not cancel"
            for s, t in pairs:
                s2, t2 = outer_involution(s, t)
                assert s2.sign == -s.sign
                assert (s2.to_json(), t2.to_json()) != (s.to_json(), t.to_json())


def test_criterion_4_involution_mechanics():
    for n in range(1, 7):
        budget = 4 * n * num_partitions(n)
        for mu in enumerate_partitions(n):
            if mu == (1,) * n:
                continue
            for s, t in enumerate_standard_pairs(mu):
                s2, t2 = outer_involution(s, t)
                s3, t3 = outer_involution(s2, t2)
                assert (s3.to_json(), t3.to_json()) == (s.to_json(), t.to_json())
        # the underlying rewrite walks, from every reachable rooted state
        for lam in enumerate_partitions(n):
            corners = [
                (i, r)
                for i, r in enumerate(lam, start=1)
                if i == len(lam) or lam[i] < r
            ]
            for s in enumerate_srht_all_types(lam):
                for root in corners:
                    owner = next(k for k, h in enumerate(s.hooks) if root in h)
                    if len(s.hooks[owner]) < 2:
                        continue
                    state = RootedTableau(lam, s.hooks, root, owner)
                    final, trace = inner_involution(state)
                    assert len(trace) <= budget
                    assert final.region() == state.region()
                    assert all(st.type == state.type for st, _ in trace)
                    assert check_sign_lemma(trace, state.sign)


def test_criterion_5_figure_fixtures_replay():
    fx = load_fixture("six_step_state.json")
    start = RootedTableau.from_json(fx["initial"])
    _, trace = inner_involution(start)
    got = trace_to_json(trace)
    assert len(got) == len(fx["steps"])
    for g, w in zip(got, fx["steps"]):
        assert g["tag"] == w["tag"]
        assert g["tableau"]["shape"] == w["state"]["shape"]
        assert g["tableau"]["hooks"] == w["state"]["hooks"]
        assert [g["root"], g["active"]] == [w["state"]["root"], w["state"]["active"]]
    assert [st.sign for st, _ in trace] == [w["sign"] for w in fx["steps"]]

    opening = load_fixture("opening_pair.json")
    s = SpecialRimHookTableau.from_json(opening["input"]["tableau"])
    t = SemistandardTableau.from_json(opening["input"]["filling"])
    s2, t2 = outer_involution(s, t)
    assert s2.to_json() == opening["expected"]["tableau"]
    assert t2.to_json() == opening["expected"]["filling"]


def test_criterion_6_example_poset_census():
    poset = parse_poset((FIXTURES / "example.poset").read_text())
    census = stanley_stembridge_involution(poset)
    assert census.total_pairs == 20
    assert len(census.matched) == 6
    assert len(census.fixed) == 8
    by_shape = {}
    for s, _ in census.fixed:
        by_shape[s.shape] = by_shape.get(s.shape, 0) + 1
    assert by_shape == {(4,): 4, (3, 1): 2, (2, 2): 2}
    assert csf(poset).e_expansion.coeffs == {(4,): 4, (3, 1): 2, (2, 2): 2}


def test_criterion_7_coloring_cross_check():
    free_total = 0
    for n in range(1, 8):
        for poset in enumerate_posets(n):
            if not is_ab_free(poset, 3, 1):
                continue
            free_total += 1
            e = csf(poset).e_expansion
            graph = incomparability_graph(poset)
            for k in range(1, 7):
                assert evaluate_at_ones(e, k) == chromatic_polynomial_value(graph, k)
    assert free_total == 884


def test_criterion_8_e_positivity_at_height_two():
    for n in range(1, 7):
        for poset in enumerate_posets(n):
            if height(poset) > 2:
                continue
            result = csf(poset)
            e = result.e_expansion
            assert e.is_positive()
            assert all(len(mu) <= 2 for mu in e.coeffs)
            assert result.pair_census is not None
            assert result.pair_census.coefficients == e.coeffs


def test_criterion_9_chain_degenerations():
    for n in range(1, 7):
        p = chain(n)
        assert csf(p).e_expansion.coeffs == {(1,) * n: 1}
        for lam in enumerate_partitions(n):
            assert count_p_tableaux(p, lam) == syt_count_by_hook_lengths(lam)
