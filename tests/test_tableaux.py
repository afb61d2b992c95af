"""Hooks, fillings, and the signed-tiling enumeration.

The brute-force oracles here deliberately avoid the package's own walk
construction: a hook is checked through its row intervals, and tilings are
generated as raw set partitions.  The lister and K^-1 share one outer-rim
recursion, so a second oracle, a search over every up/right walk, keeps
the lister honest at sizes the set-partition oracle cannot reach.
"""

import itertools

import pytest
from hypothesis import given, strategies as st

from conftest import cells, partitions_of
from rimhook import (
    HookClass,
    RimHook,
    SemistandardTableau,
    SpecialRimHookTableau,
    enumerate_partitions,
    enumerate_srht,
    enumerate_ssyt,
    render_hooks,
)
from rimhook.tableaux import _count_srht, enumerate_srht_all_types


# ---------------------------------------------------------------- oracles

def is_hook_block(block) -> bool:
    """Row-interval test: contiguous rows, each row an interval, and
    consecutive rows overlapping in exactly one column (the turning
    column).  Equivalent to `connected skew diagram without a 2x2`."""
    rows: dict[int, set[int]] = {}
    for i, j in block:
        rows.setdefault(i, set()).add(j)
    lo, hi = min(rows), max(rows)
    if set(rows) != set(range(lo, hi + 1)):
        return False
    spans = {}
    for i, js in rows.items():
        a, b = min(js), max(js)
        if js != set(range(a, b + 1)):
            return False
        spans[i] = (a, b)
    return all(spans[i][0] == spans[i + 1][1] for i in range(lo, hi))


def oracle_role(hook, cell):
    """The class of `cell` as a root of `hook` from the neighbour-set
    definitions: a corner has both lower and right, or both upper and left,
    neighbours in the hook; ends are told apart by the step next to them."""
    s = set(hook.walk)
    if cell not in s:
        return None
    i, j = cell
    if len(hook.walk) == 1:
        return HookClass.SINGLETON
    if cell == hook.head:
        if hook.walk[-2] == (i, j - 1):
            return HookClass.HEAD_HORIZONTAL
        return HookClass.HEAD_VERTICAL
    if cell == hook.tail:
        if hook.walk[1] == (i - 1, j):
            return HookClass.TAIL_VERTICAL
        return HookClass.TAIL_HORIZONTAL
    if (i + 1, j) in s and (i, j + 1) in s:
        return HookClass.INNER_CORNER
    if (i - 1, j) in s and (i, j - 1) in s:
        return HookClass.OUTER_CORNER
    return None


def is_special_block(block) -> bool:
    return is_hook_block(block) and any(j == 1 for _, j in block)


def set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for k in range(len(part)):
            yield part[:k] + [part[k] + [first]] + part[k + 1 :]
        yield [[first]] + part


def brute_tilings(shape):
    """Every partition of the diagram into special hooks, as a set of
    frozensets of frozensets."""
    found = set()
    for part in set_partitions(sorted(cells(shape))):
        if all(is_special_block(b) for b in part):
            found.add(frozenset(frozenset(b) for b in part))
    return found


def oracle_all_srht(shape):
    """Every special rim-hook tableau of `shape` by search: peel hooks at
    the lowest uncovered column-1 cell, which must be the tail of the hook
    covering it, trying every up/right walk from it (right first) inside
    what is left.  Most branches never tile, so this is exponential in the
    shape, but it assumes nothing about where a hook can end."""
    out = []

    def walks(walk, region):
        yield tuple(walk)
        i, j = walk[-1]
        for nxt in ((i, j + 1), (i - 1, j)):
            if nxt in region:
                walk.append(nxt)
                yield from walks(walk, region)
                walk.pop()

    def peel(region, acc):
        if not region:
            out.append(SpecialRimHookTableau(shape, tuple(acc)))
            return
        col1 = [c for c in region if c[1] == 1]
        if not col1:
            return  # dead branch: leftover cells unreachable by special hooks
        for walk in walks([max(col1)], region):
            hook = RimHook(walk)
            acc.append(hook)
            peel(region - hook.cell_set, acc)
            acc.pop()

    peel(frozenset(cells(shape)), [])
    return out


def brute_fillings(shape, content):
    """Distinct row-major arrangements of the content multiset that satisfy
    the row/column conditions."""
    entries = [k for k, m in enumerate(content, 1) for _ in range(m)]
    widths = list(shape)
    seen = set()
    for perm in set(itertools.permutations(entries)):
        rows, pos = [], 0
        for w in widths:
            rows.append(perm[pos : pos + w])
            pos += w
        if any(r[i] > r[i + 1] for r in rows for i in range(len(r) - 1)):
            continue
        if any(
            rows[i][j] >= rows[i + 1][j]
            for i in range(len(rows) - 1)
            for j in range(len(rows[i + 1]))
        ):
            continue
        seen.add(tuple(rows))
    return seen


# ------------------------------------------------------------------ hooks

def test_walk_must_step_up_or_right():
    with pytest.raises(ValueError):
        RimHook(((1, 1), (1, 3)))  # gap
    with pytest.raises(ValueError):
        RimHook(((1, 2), (1, 1)))  # leftward
    with pytest.raises(ValueError):
        RimHook(((2, 2), (2, 1)))
    with pytest.raises(ValueError):
        RimHook(((0, 1), (0, 2)))  # cells are 1-based


def test_head_tail_leg_sign():
    h = RimHook(((4, 1), (3, 1), (2, 1), (2, 2)))
    assert h.tail == (4, 1)
    assert h.head == (2, 2)
    assert h.leg_length == 2
    assert h.sign == 1
    assert h.is_special
    flat = RimHook(((1, 1), (1, 2), (1, 3)))
    assert flat.leg_length == 0 and flat.sign == 1
    tall = RimHook(((3, 1), (2, 1), (1, 1)))
    assert tall.leg_length == 2 and tall.sign == 1
    assert RimHook(((2, 1), (1, 1))).sign == -1
    assert not RimHook(((1, 2), (1, 3))).is_special


def test_permissible_cells_of_the_four_cell_hook():
    # Walk (2,1) -> (2,2) -> (1,2) -> (1,3): one turn of each kind.
    h = RimHook(((2, 1), (2, 2), (1, 2), (1, 3)))
    assert [h.role(c) for c in h.walk] == [
        HookClass.TAIL_HORIZONTAL,
        HookClass.OUTER_CORNER,
        HookClass.INNER_CORNER,
        HookClass.HEAD_HORIZONTAL,
    ]
    assert h.permissible_cells() == frozenset({(2, 1), (2, 2), (1, 2), (1, 3)})


def test_permissible_cells_degenerate_hooks():
    assert RimHook(((1, 1),)).permissible_cells() == frozenset({(1, 1)})
    # Straight hooks have no corners, only the two ends.
    assert RimHook(((1, 1), (1, 2), (1, 3))).permissible_cells() == frozenset(
        {(1, 1), (1, 3)}
    )
    assert RimHook(((3, 1), (2, 1), (1, 1))).permissible_cells() == frozenset(
        {(3, 1), (1, 1)}
    )


def test_role_matches_the_neighbour_definitions():
    # every hook of every tiling with n <= 8, against every cell of its
    # bounding box grown by one cell on each side
    hooks = {
        h
        for n in range(1, 9)
        for shape in enumerate_partitions(n)
        for t in enumerate_srht_all_types(shape)
        for h in t.hooks
    }
    for h in hooks:
        rows = [i for i, _ in h.walk]
        cols = [j for _, j in h.walk]
        for i in range(min(rows) - 1, max(rows) + 2):
            for j in range(min(cols) - 1, max(cols) + 2):
                assert h.role((i, j)) is oracle_role(h, (i, j)), (h.walk, (i, j))
        assert h.permissible_cells() == {c for c in h.walk if oracle_role(h, c)}


@given(st.integers(min_value=1, max_value=6).flatmap(partitions_of))
def test_every_enumerated_hook_passes_the_interval_oracle(shape):
    for t in enumerate_srht_all_types(shape):
        for h in t.hooks:
            assert is_special_block(h.cell_set)


# --------------------------------------------------------------- fillings

def test_filling_validation():
    SemistandardTableau(((1, 1, 2), (2, 3)))
    with pytest.raises(ValueError):
        SemistandardTableau(((1, 2), (1, 3)))  # column repeats
    with pytest.raises(ValueError):
        SemistandardTableau(((2, 1),))  # row decreases
    with pytest.raises(ValueError):
        SemistandardTableau(((1,), (2, 3)))  # not a partition shape


def test_filling_accessors():
    t = SemistandardTableau(((1, 1), (2,)))
    assert t.shape == (2, 1)
    assert not t.is_standard
    assert SemistandardTableau(((1, 3), (2,))).is_standard
    assert SemistandardTableau.from_json(t.to_json()) == t


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_fillings_match_permutation_oracle(n):
    for shape in enumerate_partitions(n):
        for content in enumerate_partitions(n):
            expected = brute_fillings(shape, content)
            got = enumerate_ssyt(shape, content)
            assert {t.rows for t in got} == expected
            assert len(got) == len(expected)  # no duplicates


def test_composition_content_is_allowed():
    # Content need not be sorted; (1,2) means one 1 and two 2s.
    got = enumerate_ssyt((2, 1), (1, 2))
    assert {t.rows for t in got} == {((1, 2), (2,))}


def test_kostka_number_values():
    assert len(enumerate_ssyt((2, 1), (1, 1, 1))) == 2
    assert len(enumerate_ssyt((3, 1), (2, 1, 1))) == 2
    assert len(enumerate_ssyt((2, 2), (1, 1, 1, 1))) == 2
    assert len(enumerate_ssyt((1, 1), (2,))) == 0


# ---------------------------------------------------------------- tilings

@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_tilings_match_set_partition_oracle(n):
    for shape in enumerate_partitions(n):
        got = enumerate_srht_all_types(shape)
        as_sets = {frozenset(h.cell_set for h in t.hooks) for t in got}
        assert as_sets == brute_tilings(shape)
        assert len(as_sets) == len(got)


@pytest.mark.parametrize("n", range(1, 10))
def test_tilings_match_the_walk_search_in_order(n):
    for shape in enumerate_partitions(n):
        expected = oracle_all_srht(shape)
        assert enumerate_srht_all_types(shape) == expected, shape
        assert _count_srht(shape) == len(expected), shape


def test_the_staircase_lists_its_tilings():
    # the walk search did not finish on this shape in minutes
    got = enumerate_srht_all_types((12, 10, 8, 6, 4, 2))
    assert len(got) == len(set(got)) == _count_srht((12, 10, 8, 6, 4, 2)) == 360
    assert all(t.shape == (12, 10, 8, 6, 4, 2) for t in got)


def test_tilings_of_the_square():
    got = enumerate_srht_all_types((2, 2))
    by_type = {t.type: t.sign for t in got}
    assert by_type == {(2, 2): 1, (3, 1): -1}


def test_tilings_of_column_strip():
    # Stacked vertical hooks: one tiling per composition of n.
    got = enumerate_srht_all_types((1, 1, 1, 1))
    assert len(got) == 8
    assert all(_count_srht((1,) * n) == 2 ** (n - 1) for n in range(1, 49))
    assert sum(t.sign for t in got if t.type == (2, 1, 1)) == -3


def test_signed_tiling_worked_example():
    tableaux = enumerate_srht((3, 2, 2, 1, 1), (4, 4, 1))
    assert len(tableaux) == 2
    assert all(t.sign == -1 for t in tableaux)
    walks = {tuple(h.walk for h in t.hooks) for t in tableaux}
    assert (
        ((5, 1), (4, 1), (3, 1), (3, 2)),
        ((2, 1), (2, 2), (1, 2), (1, 3)),
        ((1, 1),),
    ) in walks


def test_canonical_hook_order_is_by_tail_depth():
    for shape in enumerate_partitions(6):
        for t in enumerate_srht_all_types(shape):
            tails = [h.tail[0] for h in t.hooks]
            assert tails == sorted(tails, reverse=True)


def test_tableau_validation():
    with pytest.raises(ValueError):  # overlapping hooks
        SpecialRimHookTableau(
            (2,), (RimHook(((1, 1), (1, 2))), RimHook(((1, 1),)))
        )
    with pytest.raises(ValueError):  # hole in the shape
        SpecialRimHookTableau((2,), (RimHook(((1, 1),)),))
    with pytest.raises(ValueError):  # non-special hook
        SpecialRimHookTableau(
            (2, 2),
            (RimHook(((2, 1), (1, 1))), RimHook(((2, 2), (1, 2)))),
        )


@pytest.mark.parametrize(
    "shape, walks",
    [
        ((2, 1), [((2, 1), (1, 1)), ((1, 1),)]),        # overlaps itself
        ((2, 2), [((2, 1),), ((1, 1), (1, 2), (1, 3))]),  # past the end of a row
        ((2,), [((2, 1), (1, 1))]),                     # below the last row
    ],
)
def test_tableau_of_the_right_weight_that_is_no_tiling_is_refused(shape, walks):
    hooks = tuple(RimHook(w) for w in walks)
    assert sum(map(len, hooks)) == sum(shape)
    with pytest.raises(ValueError, match="hooks do not tile the shape"):
        SpecialRimHookTableau(shape, hooks)


def test_tableau_validation_accepts_exactly_the_tilings():
    # every canonically ordered tuple of at most three special hooks inside
    # a 3x3 box, against every shape of weight at most 6: the constructor
    # accepts exactly the tuples whose cells are the diagram's, once each
    box_hooks = []

    def grow(walk):
        box_hooks.append(RimHook(tuple(walk)))
        i, j = walk[-1]
        for step in ((i - 1, j), (i, j + 1)):
            if step[0] >= 1 and step[1] <= 3:
                grow(walk + [step])

    for row in (1, 2, 3):
        grow([(row, 1)])
    tuples = [()]
    for size in (1, 2, 3):
        tuples += [
            t for t in itertools.product(box_hooks, repeat=size)
            if all(a.tail[0] > b.tail[0] for a, b in zip(t, t[1:]))
        ]
    shapes = [lam for n in range(7) for lam in enumerate_partitions(n)]
    accepted = 0
    for hooks in tuples:
        cover = [c for h in hooks for c in h.walk]
        for shape in shapes:
            tiles = len(cover) == len(set(cover)) and set(cover) == cells(shape)
            try:
                SpecialRimHookTableau(shape, hooks)
            except ValueError:
                assert not tiles, (shape, hooks)
            else:
                assert tiles, (shape, hooks)
                accepted += 1
    in_box = [lam for lam in shapes if max(lam, default=0) <= 3 and len(lam) <= 3]
    assert accepted == sum(len(enumerate_srht_all_types(lam)) for lam in in_box)


def test_tableau_accessors_and_json():
    t = enumerate_srht((2, 2), (2, 2))[0]
    assert t.type == (2, 2)
    assert t.sign == 1
    assert SpecialRimHookTableau.from_json(t.to_json()) == t


def test_from_hooks_reorders():
    a = RimHook(((1, 1), (1, 2)))
    b = RimHook(((2, 1), (2, 2)))
    t = SpecialRimHookTableau.from_hooks([a, b])
    assert t.hooks == (b, a)
    assert t.shape == (2, 2)


# ----------------------------------------------------------------- render

def test_render_smoke():
    t = enumerate_srht((2, 2), (3, 1))[0]
    art = render_hooks(t.hooks)
    assert "*" in art and "|" in art
    rooted = render_hooks(t.hooks, root=(2, 1), active=0)
    assert "#" in rooted
