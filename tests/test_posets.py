"""Posets, incomparability graphs, and chromatic expansions."""

import hashlib
import itertools
import json
import math
import sys
import time
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from rimhook import posets
from rimhook.partitions import check_partition, conjugate, enumerate_partitions
from rimhook.posets import (
    Graph,
    Poset,
    canonical_form,
    chromatic_polynomial,
    chromatic_polynomial_value,
    count_p_tableaux,
    csf,
    enumerate_p_tableaux,
    enumerate_posets,
    evaluate_polynomial,
    height,
    incomparability_graph,
    is_ab_free,
    is_p_tableau,
    largest_summand,
    p_tableau_counts,
    parse_poset,
    stanley_stembridge_involution,
)
from rimhook.symfunc import (
    SymFuncExpansion,
    evaluate_at_ones,
    inverse_kostka_matrix,
    kostka_matrix,
)
from rimhook.tableaux import enumerate_ssyt

from conftest import FIXTURES


# ------------------------------------------------------------- oracles


def brute_coloring_count(graph: Graph, k: int) -> int:
    """Count proper colorings by trying every assignment."""
    total = 0
    for colors in itertools.product(range(k), repeat=len(graph.vertices)):
        by = dict(zip(graph.vertices, colors))
        if all(by[u] != by[v] for u, v in graph.edges):
            total += 1
    return total


def monomial_from_colorings(poset: Poset) -> SymFuncExpansion:
    """Monomial expansion assembled directly from proper colorings with at
    most |P| colors: an n^n route independent of the library's."""
    n = len(poset.elements)
    graph = incomparability_graph(poset)
    elems = list(poset.elements)
    counts: Counter = Counter()
    for coloring in itertools.product(range(1, n + 1), repeat=n):
        by = dict(zip(elems, coloring))
        if any(by[u] == by[v] for u, v in graph.edges):
            continue
        used = sorted(set(coloring))
        # one representative monomial per coefficient: colors exactly 1..m,
        # used with weakly decreasing multiplicities
        if used != list(range(1, len(used) + 1)):
            continue
        key = tuple(coloring.count(c) for c in used)
        if all(key[i] >= key[i + 1] for i in range(len(key) - 1)):
            counts[check_partition(key)] += 1
    return SymFuncExpansion("m", dict(counts), n)


def chain(n):
    els = tuple("abcdefghij"[:n])
    return Poset.from_relations(els, [(els[i], els[i + 1]) for i in range(n - 1)])


def antichain(n):
    return Poset(tuple("abcdefghij"[:n]), frozenset())


@pytest.fixture(scope="module")
def npo():
    """The 4-element fence from the fixture file: a<c, b<c, b<d."""
    return parse_poset((FIXTURES / "example.poset").read_text())


def ab_free_posets(n):
    return [p for p in enumerate_posets(n) if is_ab_free(p, 3, 1)]


# ------------------------------------------------------------- parsing


def test_parse_fixture_file(npo):
    assert npo.elements == ("a", "c", "b", "d")
    assert npo.lt("a", "c") and npo.lt("b", "c") and npo.lt("b", "d")
    assert not npo.lt("a", "d")
    assert len(npo.less) == 3


def test_parse_chained_comparisons():
    p = parse_poset("a < b < c")
    assert p.lt("a", "c")  # closure of the two covers
    assert height(p) == 3


def test_parse_bare_elements_and_comments():
    p = parse_poset("# preamble\nx\ny # trailing\n\nx < z\n")
    assert set(p.elements) == {"x", "y", "z"}
    assert p.incomparable("x", "y")


@pytest.mark.parametrize(
    "text", ["a <", "a b", "a < b c", "a < b\nb < a", "a\tb", "c\td < e"]
)
def test_parse_rejects_garbage(text):
    with pytest.raises(ValueError):
        parse_poset(text)


def test_poset_validation():
    with pytest.raises(ValueError):
        Poset(("a", "a"), frozenset())
    with pytest.raises(ValueError):
        Poset(("a",), frozenset({("a", "b")}))
    with pytest.raises(ValueError):
        Poset(("a", "b", "c"), frozenset({("a", "b"), ("b", "c")}))
    with pytest.raises(ValueError):
        Poset.from_relations("abc", [("a", "b"), ("b", "c"), ("c", "a")])


# ------------------------------------------------- relations and height


def test_relation_queries(npo):
    assert npo.leq("a", "a") and not npo.lt("a", "a")
    assert npo.incomparable("a", "b")
    assert npo.incomparable("c", "d")
    assert not npo.incomparable("b", "d")


def test_height():
    assert height(antichain(4)) == 1
    assert height(chain(5)) == 5
    with pytest.raises(ValueError):
        height(Poset((), frozenset()))


def test_height_of_fence(npo):
    assert height(npo) == 2


def reversed_copy(p: Poset) -> Poset:
    """The same order with upper-case labels and the elements listed in
    reverse, so the element order is not the sorted label order."""
    return Poset(
        tuple(x.upper() for x in reversed(p.elements)),
        frozenset((x.upper(), y.upper()) for x, y in p.less),
    )


def small_posets_and_copies():
    for n in range(6):
        for p in enumerate_posets(n):
            yield p
            yield reversed_copy(p)


def is_chain(p: Poset, subset) -> bool:
    return all(p.lt(x, y) or p.lt(y, x) for x, y in itertools.combinations(subset, 2))


def test_height_is_the_longest_chain():
    for p in small_posets_and_copies():
        if not p.elements:
            continue
        longest = max(
            size
            for size in range(1, len(p) + 1)
            for subset in itertools.combinations(p.elements, size)
            if is_chain(p, subset)
        )
        assert height(p) == longest, p.to_json()


def test_ab_freeness_matches_a_search_over_label_subsets():
    for p in small_posets_and_copies():
        for a, b in itertools.product(range(1, 4), repeat=2):
            found = any(
                not set(ca) & set(cb)
                and is_chain(p, cb)
                and all(p.incomparable(x, y) for x in ca for y in cb)
                for ca in itertools.combinations(p.elements, a)
                if is_chain(p, ca)
                for cb in itertools.combinations(p.elements, b)
            )
            assert is_ab_free(p, a, b) == (not found), (p.to_json(), a, b)


def naive_closure(pairs) -> frozenset:
    closure = set(pairs)
    while True:
        implied = {(x, z) for x, y in closure for w, z in closure if y == w} - closure
        if not implied:
            return frozenset(closure)
        closure |= implied


def is_strict_order(elements, less) -> bool:
    known = set(elements)
    return all(
        x in known and y in known and x != y and (y, x) not in less for x, y in less
    ) and all((x, z) in less for x, y in less for w, z in less if y == w)


_LABELS = "abcdefg"


@given(st.data())
def test_from_relations_is_the_naive_closure(data):
    elements = data.draw(st.lists(st.sampled_from(_LABELS), unique=True, max_size=7))
    relations = []
    if elements:
        label = st.sampled_from(elements)
        relations = data.draw(st.lists(st.tuples(label, label), max_size=10))
        if data.draw(st.booleans()):  # acyclic: every pair points rightward
            relations = [
                (x, y) if elements.index(x) < elements.index(y) else (y, x)
                for x, y in relations
                if x != y
            ]
    closure = naive_closure(relations)
    if any(x == y for x, y in closure):
        with pytest.raises(ValueError):
            Poset.from_relations(elements, relations)
    else:
        p = Poset.from_relations(elements, relations)
        assert p.elements == tuple(elements)
        assert p.less == closure


@given(st.data())
def test_poset_validation_matches_the_definition(data):
    elements = data.draw(st.lists(st.sampled_from(_LABELS), unique=True, max_size=7))
    label = st.sampled_from(_LABELS + "z")  # z is never an element
    less = data.draw(st.frozensets(st.tuples(label, label), max_size=10))
    if elements and data.draw(st.booleans()):  # an order, perhaps with a pair dropped
        forward = st.sampled_from(list(itertools.combinations(elements, 2)) or [None])
        less = naive_closure(p for p in data.draw(st.lists(forward, max_size=8)) if p)
        if less and data.draw(st.booleans()):
            less = less - {data.draw(st.sampled_from(sorted(less)))}
    if is_strict_order(elements, less):
        assert Poset(tuple(elements), less).less == less
    else:
        with pytest.raises(ValueError):
            Poset(tuple(elements), less)


# ----------------------------------------------------- induced freeness


def test_ab_freeness_of_a_long_chain_is_fast():
    # only the chains of the shorter size are listed; a chain holds no
    # (3+1), and listing its 3-chains took 25 s at 200 elements
    labels = [f"x{i:03d}" for i in range(200)]
    long_chain = Poset.from_relations(labels, zip(labels, labels[1:]))
    start = time.perf_counter()
    assert is_ab_free(long_chain, 3, 1) and is_ab_free(long_chain, 1, 3)
    assert time.perf_counter() - start < 1.0


def test_chains_longer_than_the_recursion_limit_are_listed():
    # chains grow level by level with no recursion, and only through
    # elements that still start a chain long enough to finish one
    n = sys.getrecursionlimit() + 10
    full = (1 << n) - 1
    above = [full ^ ((2 << i) - 1) for i in range(n)]  # the n-chain 0 < 1 < ...
    assert posets._chains(above, n) == [full]
    assert sorted(posets._chains(above, n - 1)) == sorted(full ^ 1 << i for i in range(n))
    assert posets._chains(above, n + 1) == []


def test_ab_freeness(npo):
    assert is_ab_free(npo, 3, 1)
    assert is_ab_free(npo, 2, 2)
    three_plus_one = Poset.from_relations("abcd", [("a", "b"), ("b", "c")])
    assert not is_ab_free(three_plus_one, 3, 1)
    two_plus_two = Poset.from_relations("abcd", [("a", "b"), ("c", "d")])
    assert not is_ab_free(two_plus_two, 2, 2)
    assert is_ab_free(two_plus_two, 3, 1)


@pytest.mark.parametrize("n", range(1, 6))
def test_short_posets_cannot_contain_a_three_chain(n):
    for p in enumerate_posets(n):
        if height(p) <= 2:
            assert is_ab_free(p, 3, 1)


# ---------------------------------------------------------------- graphs


def test_graph_normalizes_and_validates():
    g = Graph(("a", "b"), frozenset({("b", "a")}))
    assert g.edges == frozenset({("a", "b")})
    with pytest.raises(ValueError):
        Graph(("a", "a"), frozenset())
    with pytest.raises(ValueError):
        Graph(("a",), frozenset({("a", "a")}))
    with pytest.raises(ValueError):
        Graph(("a",), frozenset({("a", "b")}))


def test_incomparability_graph(npo):
    g = incomparability_graph(npo)
    assert g.edges == frozenset({("a", "b"), ("a", "d"), ("c", "d")})
    assert incomparability_graph(chain(4)).edges == frozenset()
    complete = incomparability_graph(antichain(4))
    assert len(complete.edges) == 6
    assert g.vertices == ("a", "c", "b", "d")


# ------------------------------------------------------ coloring counts


def test_chromatic_closed_forms():
    for k in range(5):
        assert chromatic_polynomial_value(incomparability_graph(chain(3)), k) == k**3
        assert chromatic_polynomial_value(incomparability_graph(antichain(3)), k) == (
            k * (k - 1) * (k - 2)
        )
    edge = Graph(("a", "b"), frozenset({("a", "b")}))
    assert [chromatic_polynomial_value(edge, k) for k in range(4)] == [0, 0, 2, 6]


@pytest.mark.parametrize("n", range(1, 6))
def test_three_coloring_routes_agree(n):
    for p in enumerate_posets(n):
        g = incomparability_graph(p)
        poly = chromatic_polynomial(g)
        for k in range(5):
            want = brute_coloring_count(g, k)
            assert chromatic_polynomial_value(g, k) == want
            assert evaluate_polynomial(poly, k) == want


@pytest.mark.parametrize("n", range(0, 7))
def test_chain_partition_route_matches_deletion_contraction(n):
    for p in enumerate_posets(n):
        g = incomparability_graph(p)
        poly = chromatic_polynomial(g)
        for k in range(8):
            assert chromatic_polynomial_value(g, k) == evaluate_polynomial(poly, k)


def _poly_product(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _complete_graph(n):
    vs = tuple(f"v{i}" for i in range(n))
    return Graph(vs, frozenset(itertools.combinations(vs, 2)))


@pytest.mark.parametrize("n", range(0, 9))
def test_deletion_contraction_on_complete_graphs(n):
    want = (1,)
    for i in range(n):  # k(k-1)...(k-n+1)
        want = _poly_product(want, (-i, 1))
    assert chromatic_polynomial(_complete_graph(n)) == want


def test_deletion_contraction_multiplies_over_components():
    parts = [incomparability_graph(p) for n in (2, 3) for p in enumerate_posets(n)]
    parts += [_complete_graph(4), Graph(("z",), frozenset())]
    for g, h in itertools.product(parts, repeat=2):
        rename = {v: v + "'" for v in h.vertices}
        union = Graph(
            g.vertices + tuple(rename[v] for v in h.vertices),
            g.edges | {(rename[u], rename[v]) for u, v in h.edges},
        )
        want = _poly_product(chromatic_polynomial(g), chromatic_polynomial(h))
        assert chromatic_polynomial(union) == want


def test_chromatic_value_rejects_negative_k():
    with pytest.raises(ValueError):
        chromatic_polynomial_value(incomparability_graph(chain(2)), -1)


# ------------------------------------------------------------ fillings


def test_chain_fillings_are_standard_tableaux():
    for n in range(1, 6):
        p = chain(n)
        for lam in enumerate_partitions(n):
            assert count_p_tableaux(p, lam) == len(enumerate_ssyt(lam, (1,) * n))


@pytest.mark.parametrize("n", range(0, 7))
def test_counted_fillings_match_the_enumeration(n):
    for p in enumerate_posets(n):
        for lam in enumerate_partitions(n):
            assert count_p_tableaux(p, lam) == len(enumerate_p_tableaux(p, lam)), (
                p.to_json(),
                lam,
            )


def brute_p_tableaux(poset: Poset, shape) -> list:
    """Lay every permutation of the sorted elements into the shape row by
    row and keep the fillings that pass `is_p_tableau`."""
    out = []
    for perm in itertools.permutations(sorted(poset.elements)):
        rows, start = [], 0
        for length in shape:
            rows.append(perm[start : start + length])
            start += length
        if is_p_tableau(poset, tuple(rows)):
            out.append(tuple(rows))
    return out


@pytest.mark.parametrize("n", range(0, 6))
def test_enumerated_fillings_match_brute_force(n):
    for p in enumerate_posets(n):
        for lam in enumerate_partitions(n):
            assert enumerate_p_tableaux(p, lam) == brute_p_tableaux(p, lam), (
                p.to_json(),
                lam,
            )


def test_enumerated_fillings_use_sorted_labels():
    p = Poset.from_relations("cab", [("c", "a")])
    assert enumerate_p_tableaux(p, (3,)) == [
        (("a", "b", "c"),),
        (("b", "c", "a"),),
        (("c", "a", "b"),),
        (("c", "b", "a"),),
    ]
    assert enumerate_p_tableaux(p, (2, 1)) == [(("c", "b"), ("a",))]


def test_enumeration_rejects_a_shape_of_the_wrong_weight(npo):
    with pytest.raises(ValueError):
        enumerate_p_tableaux(npo, (2, 1))
    with pytest.raises(ValueError):
        enumerate_p_tableaux(npo, (2, 0, 2))


def test_filling_count_rejects_a_shape_of_the_wrong_weight(npo):
    with pytest.raises(ValueError):
        count_p_tableaux(npo, (2, 1))
    with pytest.raises(ValueError):
        count_p_tableaux(npo, (3, 2))


def test_fillings_respect_height(npo):
    assert count_p_tableaux(npo, (2, 1, 1)) == 0
    assert count_p_tableaux(npo, (1, 1, 1, 1)) == 0


def test_fence_filling_counts(npo):
    assert count_p_tableaux(npo, (4,)) == 8
    assert count_p_tableaux(npo, (3, 1)) == 4
    assert count_p_tableaux(npo, (2, 2)) == 2


def test_filling_predicate():
    p = chain(3)
    assert is_p_tableau(p, (("a", "b"), ("c",)))
    assert not is_p_tableau(p, (("b", "a"), ("c",)))  # row decreases
    assert not is_p_tableau(p, (("a", "a"), ("c",)))  # not a bijection
    assert all(
        is_p_tableau(p, rows) for rows in enumerate_p_tableaux(p, (2, 1))
    )


# ------------------------------------------------------ two-row matching


def test_a_shape_with_two_rows_at_most_has_one_tiling_of_each_sign():
    shapes = [(n - b, b) if b else (n,) for n in range(1, 31) for b in range(n // 2 + 1)]
    assert len(shapes) == 255
    for nu in shapes:
        tilings = posets.enumerate_srht_all_types(nu)
        assert [t.type for t in tilings if t.sign == 1] == [nu]
        negative = [t.type for t in tilings if t.sign == -1]
        if len(nu) == 1:
            assert negative == []
        else:
            assert negative == [tuple(x for x in (nu[0] + 1, nu[1] - 1) if x)]


def test_fence_census(npo):
    census = stanley_stembridge_involution(npo)
    assert census.total_pairs == 20
    assert len(census.matched) == 6
    assert len(census.fixed) == 8
    assert census.coefficients == {(4,): 4, (3, 1): 2, (2, 2): 2}


def test_fence_census_signs_and_shapes(npo):
    census = stanley_stembridge_involution(npo)
    for (s, _), (s2, _) in census.matched:
        assert s.sign == -1 and s2.sign == 1
        lam = s.shape
        grown = tuple(x for x in (lam[0] + 1, lam[1] - 1) if x)
        assert s2.shape == grown
    assert all(s.sign == 1 for s, _ in census.fixed)


def test_census_json_layout(npo):
    data = stanley_stembridge_involution(npo).to_json()
    assert set(data) == {"total_pairs", "matched", "fixed_by_shape"}
    assert sorted(data["fixed_by_shape"]) == ["[2,2]", "[3,1]", "[4]"]
    entry = data["matched"][0]["negative"]
    assert set(entry) == {"shape", "rows", "hooks"}


def test_census_json_matches_the_pinned_hash():
    # sha256 over the compact census JSON of the 93 posets of height <= 2
    # with 1 to 6 elements, in enumeration order
    digest = hashlib.sha256()
    count = 0
    for n in range(1, 7):
        for p in enumerate_posets(n):
            if height(p) > 2:
                continue
            data = stanley_stembridge_involution(p).to_json()
            digest.update(json.dumps(data, separators=(",", ":")).encode() + b"\n")
            count += 1
    assert count == 93
    assert digest.hexdigest() == (
        "51a35d1c322612c19f717a2cee791a321b8a4fdf7bb4bd1270a3d153d2bf6112"
    )


def test_census_counts_at_seven_elements_match_the_pinned_hash():
    # one line per census of the 164 posets of height <= 2 on 7 elements:
    # pairs, matched, fixed and the coefficients
    digest = hashlib.sha256()
    count = 0
    for p in enumerate_posets(7):
        if height(p) > 2:
            continue
        c = stanley_stembridge_involution(p)
        coeffs = sorted([list(mu), k] for mu, k in c.coefficients.items())
        line = [c.total_pairs, len(c.matched), len(c.fixed), coeffs]
        digest.update((json.dumps(line, separators=(",", ":")) + "\n").encode())
        count += 1
    assert count == 164
    assert digest.hexdigest() == (
        "34d5eedb3161962c011f716021f6ee647f16e13788a8bffd046662a78b5a95d1"
    )


@pytest.mark.parametrize("n", range(1, 7))
def test_census_accounts_for_every_pair(n):
    for p in enumerate_posets(n):
        if height(p) > 2:
            continue
        c = stanley_stembridge_involution(p)
        assert c.total_pairs == 2 * len(c.matched) + len(c.fixed)
        assert c.coefficients == Counter(s.type for s, _ in c.fixed)


def test_census_raises_on_a_shared_partner(npo, monkeypatch):
    # the source shape (3,1) lists its negative tiling twice, so the check
    # that a two-row shape has exactly one tiling of sign -1 raises before
    # any walk
    tilings = posets.enumerate_srht_all_types

    def doubled(shape):
        out = tilings(shape)
        return out + [s for s in out if s.sign == -1] if shape == (3, 1) else out

    monkeypatch.setattr(posets, "enumerate_srht_all_types", doubled)
    with pytest.raises(RuntimeError, match=r"shape \(3, 1\) has 2 tilings of sign -1, not one"):
        stanley_stembridge_involution(npo)


def test_census_raises_when_the_pull_misses(npo, monkeypatch):
    walk = posets._walk_partner

    def stay(s, root, end):
        return walk(s, root, end) if root[0] == 2 else s

    monkeypatch.setattr(posets, "_walk_partner", stay)
    with pytest.raises(RuntimeError, match="matching is not self-inverse"):
        stanley_stembridge_involution(npo)


def test_census_raises_when_the_push_misses(npo, monkeypatch):
    # the push returns the negative tiling it started from, which is not
    # the positive tiling of nu, while fillings move into nu
    walk = posets._walk_partner

    def stay(s, root, end):
        return s if root[0] == 2 else walk(s, root, end)

    monkeypatch.setattr(posets, "_walk_partner", stay)
    with pytest.raises(RuntimeError, match="image characterization counterexample"):
        stanley_stembridge_involution(npo)


def test_census_raises_when_a_walk_ends_astray(npo, monkeypatch):
    # a walk that never moves leaves the root where it started
    monkeypatch.setattr(posets, "inner_involution", lambda state: (state, []))
    with pytest.raises(RuntimeError, match=r"walk from \(3, 1\) ended at \(2, 1\), not row 1"):
        stanley_stembridge_involution(npo)


def test_census_raises_when_a_moved_filling_breaks(npo, monkeypatch):
    # a filling that a move reaches goes missing from its shape's list
    (t, reached) = stanley_stembridge_involution(npo).matched[0][1]
    listed = posets.enumerate_p_tableaux

    def dropping(poset, shape):
        return [rows for rows in listed(poset, shape) if (shape, rows) != (t.shape, reached)]

    monkeypatch.setattr(posets, "enumerate_p_tableaux", dropping)
    with pytest.raises(RuntimeError, match="moved entry broke a filling"):
        stanley_stembridge_involution(npo)


def test_census_raises_on_an_image_counterexample(npo, monkeypatch):
    # no filling is predicted to be hit, yet the pushes hit some
    monkeypatch.setattr(Poset, "lt", lambda self, x, y: False)
    with pytest.raises(RuntimeError, match="image characterization counterexample"):
        stanley_stembridge_involution(npo)


def test_census_raises_on_a_positive_tiling_no_walk_reaches(npo, monkeypatch):
    # the one negative tiling of the source shape (3,1) goes missing, so the
    # check that a two-row shape has exactly one tiling of sign -1 raises
    # before any walk
    tilings = posets.enumerate_srht_all_types

    def dropping(shape):
        out = tilings(shape)
        if shape == (3, 1):
            out.remove(next(s for s in out if s.sign == -1))
        return out

    monkeypatch.setattr(posets, "enumerate_srht_all_types", dropping)
    with pytest.raises(RuntimeError, match=r"shape \(3, 1\) has 0 tilings of sign -1, not one"):
        stanley_stembridge_involution(npo)


def test_census_walks_each_start_once(monkeypatch):
    walk = posets.inner_involution
    starts = []

    def counting(state, *args, **kwargs):
        starts.append((state.shape, state.hooks, state.root))
        return walk(state, *args, **kwargs)

    monkeypatch.setattr(posets, "inner_involution", counting)
    walked = 0
    for p in enumerate_posets(6):
        if height(p) > 2:
            continue
        starts.clear()
        stanley_stembridge_involution(p)
        assert len(set(starts)) == len(starts)
        walked += len(starts)
    assert walked > 0


def test_matching_requires_short_posets():
    with pytest.raises(ValueError):
        stanley_stembridge_involution(chain(3))
    with pytest.raises(ValueError):
        stanley_stembridge_involution(Poset((), frozenset()))


def test_csf_builds_no_census_until_it_is_read(npo, monkeypatch):
    def refuse(poset):
        raise AssertionError("built the census")

    monkeypatch.setattr(posets, "stanley_stembridge_involution", refuse)
    result = csf(npo)
    assert result.e_expansion.coeffs == {(4,): 4, (3, 1): 2, (2, 2): 2}
    assert result.s_expansion.coeffs == {(1, 1, 1, 1): 8, (2, 1, 1): 4, (2, 2): 2}
    with pytest.raises(AssertionError, match="built the census"):
        result.pair_census


def test_pair_census_is_built_once(npo, monkeypatch):
    built = []

    def counting(poset):
        built.append(poset)
        return stanley_stembridge_involution(poset)

    monkeypatch.setattr(posets, "stanley_stembridge_involution", counting)
    result = csf(npo)
    assert result.pair_census is result.pair_census
    assert built == [npo]


@pytest.mark.parametrize("n", range(1, 7))
def test_pair_census_is_the_census_at_height_two_and_none_above(n):
    for p in enumerate_posets(n):
        if not is_ab_free(p, 3, 1):
            continue
        census = csf(p).pair_census
        if height(p) <= 2:
            assert census == stanley_stembridge_involution(p)
        else:
            assert census is None


def test_csf_json_matches_the_pinned_hash():
    # sha256 over the compact csf JSON, census included, of the 245
    # (3+1)-free posets with 1 to 6 elements, in enumeration order
    digest = hashlib.sha256()
    count = 0
    for n in range(1, 7):
        for p in enumerate_posets(n):
            if not is_ab_free(p, 3, 1):
                continue
            digest.update(json.dumps(csf(p).to_json(), separators=(",", ":")).encode() + b"\n")
            count += 1
    assert count == 245
    assert digest.hexdigest() == (
        "89ada0e00c6f9b3a88a8bd7bd64f28f4c0c65122d5ad582d9bb47be8589d39d9"
    )


@pytest.mark.parametrize("n", range(1, 6))
def test_fixed_points_give_the_coefficients(n):
    for p in enumerate_posets(n):
        if height(p) > 2:
            continue
        result = csf(p)
        assert result.pair_census is not None
        assert result.e_expansion.is_positive()
        assert all(len(mu) <= 2 for mu in result.e_expansion.coeffs)
        assert result.pair_census.coefficients == result.e_expansion.coeffs


# ------------------------------------------------------- full expansions


def unsplit_csf(poset: Poset) -> tuple[dict, dict]:
    """(s, e) coefficients from Gasharov's counts over the whole order, one
    counter for every shape, pushed through K^-1 of its size, with no
    split into components."""
    n = len(poset.elements)
    _, below, above = poset._order
    count = posets._p_tableau_counter(below, above, (1 << n) - 1)
    fills = {lam: count(lam) for lam in enumerate_partitions(n)}
    inv = inverse_kostka_matrix(n)
    e = {
        mu: sum(c * fills[lam] for lam, c in zip(inv.order, row))
        for mu, row in zip(inv.order, inv.rows)
    }
    s = {conjugate(lam): f for lam, f in fills.items() if f}
    return s, {mu: c for mu, c in e.items() if c}


def unit_interval_order(h, prefix: str) -> Poset:
    """The order on 1..n with i < j exactly when h(i) < j, for a
    nondecreasing h with h(i) >= i."""
    els = [f"{prefix}{i}" for i in range(1, len(h) + 1)]
    return Poset.from_relations(
        els, [(els[i - 1], els[j - 1]) for i in range(1, len(h) + 1)
              for j in range(1, len(h) + 1) if h[i - 1] < j]
    )


def ordinal_sum(low: Poset, high: Poset) -> Poset:
    return Poset.from_relations(
        low.elements + high.elements,
        list(low.less) + list(high.less) + [(x, y) for x in low.elements for y in high.elements],
    )


def components(poset: Poset) -> list[set]:
    """The components of the incomparability graph, by a search over
    labels."""
    left = set(poset.elements)
    out = []
    while left:
        part, todo = set(), [min(left)]
        while todo:
            x = todo.pop()
            if x not in part:
                part.add(x)
                todo.extend(y for y in left if poset.incomparable(x, y))
        out.append(part)
        left -= part
    return out


@pytest.mark.parametrize("n", range(0, 7))
def test_summands_are_the_incomparability_components(n):
    for p in enumerate_posets(n):
        labels, below, above = p._order
        masks = posets._summands(below, above)
        assert sum(masks) == (1 << n) - 1
        assert all(a & b == 0 for a, b in itertools.combinations(masks, 2))
        found = [{labels[i] for i in range(n) if mask >> i & 1} for mask in masks]
        assert sorted(map(sorted, found)) == sorted(map(sorted, components(p)))
        assert largest_summand(p) == max(map(len, components(p)), default=0)


@pytest.mark.parametrize("n", range(0, 6))
def test_p_tableau_counts_are_the_counts_of_each_shape(n):
    for p in enumerate_posets(n):
        counts = {lam: count_p_tableaux(p, lam) for lam in enumerate_partitions(n)}
        assert p_tableau_counts(p) == {lam: f for lam, f in counts.items() if f}


@pytest.mark.parametrize("n", range(0, 8))
def test_csf_matches_the_unsplit_route(n):
    for p in ab_free_posets(n):
        result = csf(p)
        s, e = unsplit_csf(p)
        assert result.s_expansion.coeffs == s, p.to_json()
        assert result.e_expansion.coeffs == e, p.to_json()


def test_chain_expansions_are_standard_tableau_counts():
    # an n-chain is n one-element components: e[1^n], whose Schur
    # coefficient at lam' is the number of standard tableaux of lam
    for n in range(1, 13):
        els = [f"x{i:02d}" for i in range(n)]
        result = csf(Poset.from_relations(els, zip(els, els[1:])))
        assert result.e_expansion.coeffs == {(1,) * n: 1}
        kostka = kostka_matrix(n)
        standard = {conjugate(lam): row[-1] for lam, row in zip(kostka.order, kostka.rows)}
        assert result.s_expansion.coeffs == standard
        if n <= 9:
            assert (result.s_expansion.coeffs, result.e_expansion.coeffs) == unsplit_csf(
                Poset.from_relations(els, zip(els, els[1:]))
            )


def test_ordinal_sum_of_two_connected_orders_joins_their_expansions():
    low = unit_interval_order((2, 3, 4, 5, 5), "p")  # i < j when j > i + 1
    high = unit_interval_order((3, 4, 5, 5, 5), "q")  # i < j when j > i + 2
    parts = [csf(low).e_expansion.coeffs, csf(high).e_expansion.coeffs]
    assert all(len(posets._summands(*q._order[1:])) == 1 for q in (low, high))
    assert parts[0] != parts[1]
    joined = Counter()
    for (mu, c), (nu, d) in itertools.product(parts[0].items(), parts[1].items()):
        joined[tuple(sorted(mu + nu, reverse=True))] += c * d
    for p in (ordinal_sum(low, high), ordinal_sum(high, low)):
        assert len(posets._summands(*p._order[1:])) == 2
        result = csf(p)
        assert result.e_expansion.coeffs == dict(joined)
        assert (result.s_expansion.coeffs, result.e_expansion.coeffs) == unsplit_csf(p)


def test_census_of_an_ordinal_sum_of_antichains_is_its_e_expansion():
    # the census runs on the whole order, not on its components
    low = Poset(("a", "b", "c"), frozenset())
    high = Poset(("w", "x", "y", "z"), frozenset())
    result = csf(ordinal_sum(low, high))
    assert result.e_expansion.coeffs == {(4, 3): math.factorial(3) * math.factorial(4)}
    assert result.pair_census.coefficients == result.e_expansion.coeffs


def test_fence_expansions(npo):
    result = csf(npo)
    assert result.e_expansion.coeffs == {(4,): 4, (3, 1): 2, (2, 2): 2}
    assert result.s_expansion.coeffs == {(1, 1, 1, 1): 8, (2, 1, 1): 4, (2, 2): 2}
    assert evaluate_at_ones(result.e_expansion, 3) == 24


def test_chain_expansion_is_all_singletons():
    for n in range(1, 6):
        assert csf(chain(n)).e_expansion.coeffs == {(1,) * n: 1}


def test_antichain_expansion():
    for n in range(1, 5):
        assert csf(antichain(n)).e_expansion.coeffs == {(n,): math.factorial(n)}


def test_expansion_requires_induced_freeness():
    three_plus_one = Poset.from_relations("abcd", [("a", "b"), ("b", "c")])
    with pytest.raises(ValueError):
        csf(three_plus_one)


def test_monomial_route_on_a_chain():
    m = monomial_from_colorings(chain(3))
    assert m.coeffs == {(3,): 1, (2, 1): 3, (1, 1, 1): 6}


@pytest.mark.parametrize("n", range(1, 5))
def test_monomial_route_matches_colorings(n):
    for p in enumerate_posets(n):
        m = monomial_from_colorings(p)
        g = incomparability_graph(p)
        for k in range(5):
            assert evaluate_at_ones(m, k) == brute_coloring_count(g, k)


@pytest.mark.parametrize("n", range(1, 6))
def test_expansion_counts_colorings(n):
    for p in ab_free_posets(n):
        e = csf(p).e_expansion
        g = incomparability_graph(p)
        for k in range(5):
            assert evaluate_at_ones(e, k) == brute_coloring_count(g, k)


@pytest.mark.parametrize("n", range(1, 5))
def test_adjoined_maximum_appends_a_singleton_part(n):
    for p in ab_free_posets(n):
        top = "z"
        q = Poset.from_relations(
            p.elements + (top,),
            list(p.less) + [(x, top) for x in p.elements],
        )
        grown = csf(q).e_expansion.coeffs
        want = {
            tuple(sorted(mu + (1,), reverse=True)): c
            for mu, c in csf(p).e_expansion.coeffs.items()
        }
        assert grown == want


# ------------------------------------------------------- poset generation


def test_poset_counts_up_to_isomorphism():
    assert [len(enumerate_posets(n)) for n in range(8)] == [1, 1, 2, 5, 16, 63, 318, 2045]


def test_enumeration_matches_the_pinned_hash():
    # sha256 over the compact JSON of every enumerated poset, n = 0..7 in order
    digest = hashlib.sha256()
    for n in range(8):
        for p in enumerate_posets(n):
            digest.update((json.dumps(p.to_json(), separators=(",", ":")) + "\n").encode())
    assert digest.hexdigest() == (
        "1efaaf045c37c496a8fc83308b44f485d7e7c2d213d9f8f0778db758c5ace26e"
    )


def test_canonical_form_ignores_labels(npo):
    relabeled = Poset.from_relations("wxyz", [("w", "y"), ("x", "y"), ("x", "z")])
    assert canonical_form(relabeled) == canonical_form(npo)
    assert canonical_form(chain(4)) != canonical_form(npo)


def test_fence_appears_in_the_enumeration(npo):
    forms = {canonical_form(p) for p in enumerate_posets(4)}
    assert canonical_form(npo) in forms
