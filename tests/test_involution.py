"""Rewrite-walk engine: classification, single rules, full walks, pair map."""

import hashlib
import json

import pytest
from hypothesis import given, strategies as st

from rimhook import involution
from rimhook.involution import (
    HookClass,
    RootedTableau,
    _unchecked,
    apply_rule,
    check_sign_lemma,
    enumerate_standard_pairs,
    inner_involution,
    outer_involution,
    trace_to_json,
)
from rimhook.partitions import enumerate_partitions, num_partitions
from rimhook.tableaux import (
    RimHook,
    SemistandardTableau,
    SpecialRimHookTableau,
    enumerate_srht_all_types,
)

from conftest import cells, json_values, load_fixture


def corner_cells(shape):
    """Cells that end both their row and their column."""
    out = []
    for i, row in enumerate(shape, start=1):
        if i == len(shape) or shape[i] < row:
            out.append((i, row))
    return out


def rooted_states(n):
    """Every valid walk start: a tiling rooted at a shape corner whose
    owning hook has at least two cells."""
    for lam in enumerate_partitions(n):
        for tab in enumerate_srht_all_types(lam):
            for root in corner_cells(lam):
                owner = next(k for k, h in enumerate(tab.hooks) if root in h)
                if len(tab.hooks[owner]) >= 2:
                    yield RootedTableau(lam, tab.hooks, root, owner)


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def six_fx():
    return load_fixture("six_step_state.json")


@pytest.fixture(scope="module")
def six_trace(six_fx):
    start = RootedTableau.from_json(six_fx["initial"])
    _, trace = inner_involution(start)
    return trace


@pytest.fixture(scope="module")
def pair_fx():
    return load_fixture("opening_pair.json")


class TestSixStepWalkFixture:
    def test_step_count(self, six_fx, six_trace):
        assert len(six_trace) == len(six_fx["steps"]) == 7

    def test_states_match_step_for_step(self, six_fx, six_trace):
        for (st, _), want in zip(six_trace, six_fx["steps"]):
            assert st.to_json() == want["state"]

    def test_classes_and_rule_labels(self, six_fx, six_trace):
        got = trace_to_json(six_trace)
        assert [g["tag"] for g in got] == [w["tag"] for w in six_fx["steps"]]
        ops = [w["op"] for w in six_fx["steps"]]
        assert ops[-1] is None  # no rule fires at the terminal state
        assert [g["class"] for g in got[:-1]] == ops[:-1]
        assert ops[:-1] == ["HE", "SI", "CO", "HE", "TH", "TV"]

    def test_signs_along_walk(self, six_fx, six_trace):
        assert [st.sign for st, _ in six_trace] == [w["sign"] for w in six_fx["steps"]]

    def test_sign_lemma_holds(self, six_fx, six_trace):
        start = RootedTableau.from_json(six_fx["initial"])
        assert check_sign_lemma(six_trace, start.sign)
        assert not check_sign_lemma(six_trace, -start.sign)

    def test_walk_reverses(self, six_fx, six_trace):
        start = RootedTableau.from_json(six_fx["initial"])
        final = six_trace[-1][0]
        assert final.shape == (4, 4, 3, 3) and final.root == (2, 4)
        back, back_trace = inner_involution(final)
        assert back == start
        assert len(back_trace) == len(six_trace)

    def test_trace_json_shape(self, six_trace):
        step = trace_to_json(six_trace)[0]
        assert set(step) == {"class", "tag", "tableau", "root", "active"}
        assert set(step["tableau"]) == {"shape", "hooks"}


class TestPairMapFixture:
    def test_maps_to_expected_pair(self, pair_fx):
        s = SpecialRimHookTableau.from_json(pair_fx["input"]["tableau"])
        t = SemistandardTableau.from_json(pair_fx["input"]["filling"])
        s2, t2 = outer_involution(s, t)
        assert s2.to_json() == pair_fx["expected"]["tableau"]
        assert t2.to_json() == pair_fx["expected"]["filling"]

    def test_round_trip_and_sign(self, pair_fx):
        s = SpecialRimHookTableau.from_json(pair_fx["input"]["tableau"])
        t = SemistandardTableau.from_json(pair_fx["input"]["filling"])
        s2, t2 = outer_involution(s, t)
        assert s2.sign == -s.sign
        assert t2.is_standard
        s3, t3 = outer_involution(s2, t2)
        assert (s3.to_json(), t3.to_json()) == (s.to_json(), t.to_json())


# -------------------------------------------------------------- classify


def test_classify_matches_fixture_tags():
    fx = load_fixture("six_step_state.json")
    for step in fx["steps"]:
        st = RootedTableau.from_json(step["state"])
        assert HookClass(step["tag"]) is classify_of(st)


def classify_of(state):
    from rimhook.involution import classify

    return classify(state)


def test_classify_singleton():
    st = RootedTableau(
        (1, 1),
        (RimHook(((2, 1),)), RimHook(((2, 1), (1, 1)))),
        (2, 1),
        0,
    )
    assert classify_of(st) is HookClass.SINGLETON


# ------------------------------------------------------------ single rules


def test_tail_exchange_swaps_hook_sizes():
    small = RimHook(((3, 1), (2, 1)))
    big = RimHook(((3, 1), (3, 2), (2, 2), (2, 3), (1, 3)))
    spare = RimHook(((1, 1), (1, 2)))
    st = RootedTableau((3, 3, 2), (small, big, spare), (3, 1), 1)
    assert classify_of(st) is HookClass.TAIL_HORIZONTAL
    out = apply_rule(st)
    assert out.root == (3, 1)
    assert out.active == 0  # designation moves to the other root hook
    assert out.hooks[0].walk == ((3, 1), (2, 1), (2, 2), (2, 3), (1, 3))
    assert out.hooks[1].walk == ((3, 1), (3, 2))
    assert out.hooks[2] is spare
    assert sorted(len(h) for h in out.hooks) == sorted(len(h) for h in st.hooks)
    # exchanging again from the other hook restores the original split
    redo = apply_rule(RootedTableau(out.shape, out.hooks, out.root, 1))
    assert redo.hooks == st.hooks and redo.root == st.root


def test_tail_move_up_a_column_strip():
    active = RimHook(((5, 1), (4, 1), (3, 1)))
    other = RimHook(((2, 1), (1, 1)))
    st = RootedTableau((1, 1, 1, 1, 1), (active, other), (5, 1), 0)
    assert classify_of(st) is HookClass.TAIL_VERTICAL
    out = apply_rule(st)
    assert out.shape == (1, 1, 1, 1)
    assert out.root == (2, 1) and out.overlapping
    assert out.hooks[0].walk == ((4, 1), (3, 1), (2, 1))
    assert out.hooks[0].sign == active.sign  # vertical-edge count unchanged
    assert out.active == 1


def test_tail_move_prefers_workable_attachment():
    # Both head attachments would give structurally valid states here.  The
    # cell right of the head is uncovered and closes its row and column, so
    # the tail-vertical rule attaches there and the walk stops.
    st = RootedTableau(
        (2, 1, 1),
        (RimHook(((3, 1), (2, 1))), RimHook(((1, 1), (1, 2)))),
        (3, 1),
        0,
    )
    out = apply_rule(st)
    assert not out.overlapping
    assert out.shape == (2, 2) and out.root == (2, 2)
    assert out.hooks[0].walk == ((2, 1), (2, 2))
    back, _ = inner_involution(out)
    assert back == st


# ------------------------------------------------------- state validation


def test_rejects_root_not_closing_row_and_column():
    hook = RimHook(((2, 1), (1, 1), (1, 2)))
    with pytest.raises(ValueError):
        RootedTableau((2, 1), (hook,), (1, 1), 0)


def test_rejects_foreign_double_cover():
    a = RimHook(((2, 1), (1, 1)))
    b = RimHook(((1, 1), (1, 2)))
    with pytest.raises(ValueError):
        RootedTableau((2, 1), (a, b), (2, 1), 0)


def test_rejects_active_without_root():
    a = RimHook(((2, 1),))
    b = RimHook(((1, 1), (1, 2)))
    with pytest.raises(ValueError):
        RootedTableau((2, 1), (a, b), (2, 1), 1)


def test_rejects_non_special_hook():
    with pytest.raises(ValueError):
        RootedTableau((2, 2), (RimHook(((2, 1), (1, 1))), RimHook(((2, 2), (1, 2)))), (2, 1), 0)


def test_walk_requires_plain_start_and_big_hook():
    a = RimHook(((2, 1), (1, 1)))
    b = RimHook(((1, 1), (1, 2)))
    overlapping = RootedTableau((2, 1), (a, b), (1, 1), 0)
    with pytest.raises(ValueError):
        inner_involution(overlapping)
    singleton = RootedTableau((1, 1), (RimHook(((2, 1),)), RimHook(((1, 1),))), (2, 1), 0)
    with pytest.raises(ValueError):
        inner_involution(singleton)


def test_budget_converts_nontermination_to_error(monkeypatch):
    fx = load_fixture("six_step_state.json")
    start = RootedTableau.from_json(fx["initial"])
    final, _ = inner_involution(start)
    n = sum(start.shape)
    # one overlapping state past the 4·n·p(n) budget, then a valid partner
    first = apply_rule(start)
    steps = iter([first] * (4 * n * num_partitions(n) + 1) + [final])
    monkeypatch.setattr(involution, "apply_rule", lambda state: next(steps))
    with pytest.raises(RuntimeError, match="budget"):
        inner_involution(start)


# A faulty rewrite step, one per exit check, must end the walk in that
# check's error.  Each fault passes every check that runs before its own.


def _three_cell_row():
    return RootedTableau((3,), (RimHook(((1, 1), (1, 2), (1, 3))),), (1, 3), 0)


def test_type_check_catches_a_changed_hook_multiset(monkeypatch):
    start = RootedTableau.from_json(load_fixture("six_step_state.json")["initial"])
    first = apply_rule(start)
    extra = _unchecked(first.shape, first.hooks + (RimHook(((9, 1),)),), first.root, first.active)
    monkeypatch.setattr(involution, "apply_rule", lambda state: extra)
    with pytest.raises(RuntimeError, match="hook-size multiset changed"):
        inner_involution(start)


def test_terminal_revalidation_catches_an_invalid_state(monkeypatch):
    # the real partner with one hook that is not the root's shifted off
    # column 1: same shape field, type, region and sign, but not a tiling
    start = RootedTableau.from_json(load_fixture("six_step_state.json")["initial"])
    final, _ = inner_involution(start)
    k = next(k for k in range(len(final.hooks)) if k not in final.root_hooks)
    hooks = list(final.hooks)
    hooks[k] = RimHook(tuple((i, j + 1) for i, j in hooks[k].walk))
    broken = _unchecked(final.shape, tuple(hooks), final.root, final.active)
    monkeypatch.setattr(involution, "apply_rule", lambda state: broken)
    with pytest.raises(ValueError, match="does not touch column 1"):
        inner_involution(start)


def test_region_check_catches_a_moved_region(monkeypatch):
    # a valid state of the same type and opposite sign rooted elsewhere:
    # [2,1] minus (1,2) is [1,1], where [3] minus (1,3) is [2]
    other = RootedTableau((2, 1), (RimHook(((2, 1), (1, 1), (1, 2))),), (1, 2), 0)
    monkeypatch.setattr(involution, "apply_rule", lambda state: other)
    with pytest.raises(RuntimeError, match="cell set away from the root changed"):
        inner_involution(_three_cell_row())


def test_sign_check_catches_an_unflipped_sign(monkeypatch):
    monkeypatch.setattr(involution, "apply_rule", lambda state: state)
    with pytest.raises(RuntimeError, match="failed to flip the sign"):
        inner_involution(_three_cell_row())


def test_each_state_is_classified_once(monkeypatch):
    calls = 0
    real = involution.classify

    def counting(state):
        nonlocal calls
        calls += 1
        return real(state)

    monkeypatch.setattr(involution, "classify", counting)
    states = 0
    for n in range(2, 8):
        for start in rooted_states(n):
            _, trace = inner_involution(start)
            states += len(trace)
    assert calls == states


@pytest.mark.parametrize("n", range(2, 8))
def test_region_is_the_diagram_minus_the_root(n):
    for start in rooted_states(n):
        final, _ = inner_involution(start)
        for state in (start, final):
            assert cells(state.region()) == cells(state.shape) - {state.root}


_cell = st.lists(st.integers(-1, 6) | st.integers(), min_size=2, max_size=2)
_cellish = st.lists(st.lists(_cell, min_size=1, max_size=5), max_size=4)
_state_like = st.fixed_dictionaries(
    {
        "shape": st.lists(st.integers(-1, 6) | st.integers(), max_size=4) | json_values,
        "hooks": _cellish | json_values,
        "root": _cell | json_values,
        "active": st.integers(-1, 4) | json_values,
    }
)
_SIX_STEP = load_fixture("six_step_state.json")["initial"]
_six_step_with_one_value_replaced = st.sampled_from(sorted(_SIX_STEP)).flatmap(
    lambda key: json_values.map(lambda v: {**_SIX_STEP, key: v})
)


@given(json_values | _state_like | _six_step_with_one_value_replaced)
def test_state_from_any_json_value_is_a_state_or_a_value_error(data):
    try:
        state = RootedTableau.from_json(data)
    except ValueError:
        return
    assert RootedTableau.from_json(state.to_json()) == state


# ------------------------------------------------------- exhaustive sweep


@pytest.mark.parametrize("n", range(2, 7))
def test_walk_is_a_sign_reversing_involution(n):
    budget = 4 * n * num_partitions(n)
    seen = 0
    for state in rooted_states(n):
        final, trace = inner_involution(state)
        seen += 1
        assert len(trace) <= budget
        assert final != state
        assert final.sign == -state.sign
        assert final.region() == state.region()
        assert all(st.type == state.type for st, _ in trace)
        assert check_sign_lemma(trace, state.sign)
        back, back_trace = inner_involution(final)
        assert back == state
        assert len(back_trace) == len(trace)
    assert seen > 0


def test_walk_traces_match_the_pinned_hash():
    # sha256 over the compact JSON traces of all 896 rooted walks with n <= 8,
    # in rooted_states order; any change to a rule's outcome changes it
    digest = hashlib.sha256()
    walks = 0
    for n in range(2, 9):
        for state in rooted_states(n):
            _, trace = inner_involution(state)
            digest.update(json.dumps(trace_to_json(trace), separators=(",", ":")).encode())
            walks += 1
    assert walks == 896
    assert digest.hexdigest() == (
        "5e27738de18e7dbaae8f70c89b32d0b0b9d07d256284d8222d7a0c8264fe8766"
    )


@pytest.mark.parametrize("n", range(2, 8))
def test_every_walk_state_passes_the_public_constructor(n):
    # the engine builds intermediate states without validation; each one
    # must still be a state the validating constructor accepts unchanged
    for start in rooted_states(n):
        _, trace = inner_involution(start)
        for st, _ in trace:
            assert RootedTableau(st.shape, st.hooks, st.root, st.active) == st


@pytest.mark.parametrize("n", range(1, 7))
def test_pair_map_pairs_everything_off(n):
    for mu in enumerate_partitions(n):
        pairs = enumerate_standard_pairs(mu)
        if mu == (1,) * n:
            assert len(pairs) == 1
            with pytest.raises(ValueError):
                outer_involution(*pairs[0])
            continue
        signed = 0
        for s, t in pairs:
            signed += s.sign
            s2, t2 = outer_involution(s, t)
            assert (s2.shape, s2.type) != (s.shape, s.type) or t2.rows != t.rows
            assert s2.type == s.type
            assert s2.sign == -s.sign
            assert t2.is_standard
            s3, t3 = outer_involution(s2, t2)
            assert (s3.to_json(), t3.to_json()) == (s.to_json(), t.to_json())
        assert signed == 0
