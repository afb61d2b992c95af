"""Sign-reversing involution on rooted special rim-hook tableaux.

A rooted tableau marks one cell (the root) and one hook (the active one).
Non-overlapping states tile their diagram exactly; overlapping states have
exactly two hooks meeting precisely at the root.  apply_rule rewrites a
state into its successor; iterating from a rooted tileable state always
returns to one, with the sign of the tableau flipped.  The pair-level
involution wraps this core with max-entry bookkeeping on a standard
filling.

Every rule is a function of the state alone.  The tail-vertical rule drops
the tail at the root and reattaches the active hook beyond its head (hi, hj):
at c = (hi, hj+1) when c is a permissible cell (head, tail or corner) of
the other hook covering it, or when c is uncovered and adding it keeps a
Ferrers diagram (hi = 1, or row hi-1 reaches column hj+1), so that c closes
its row and column; otherwise at (hi-1, hj).  Over every rooted walk with n <= 12 this picks
the attachment that gives a valid state from which the walk continues.

A walk's start state passes the validating constructor.  `_settle` builds
the states in between unchecked (`tableaux._unchecked`), each derived from
a valid one, while every hook a step rewrites passes the `RimHook`
constructor, the one check on a hook's steps inside a walk.  The terminal
state passes the constructor again, as does `outer_involution`'s output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .partitions import (
    Cell, Partition, check_partition, enumerate_partitions, num_partitions, shape_of_cells
)
from .tableaux import (
    HookClass,
    RimHook,
    SemistandardTableau,
    SpecialRimHookTableau,
    _json_fields,
    _json_hooks,
    _json_int,
    _json_ints,
    _unchecked,
    enumerate_srht,
    enumerate_ssyt,
    render_hooks,
)


# classes whose states keep the starting sign along a trace; the
# complementary classes carry the opposite sign (singletons are exempt)
_SAME_SIGN = frozenset(
    {HookClass.OUTER_CORNER, HookClass.HEAD_HORIZONTAL, HookClass.TAIL_VERTICAL}
)


@dataclass(frozen=True)
class RootedTableau:
    """State of the rewrite walk: hooks at stable indices, a root, an active hook.

    The shape is the union of all hook cells (a partition either way); in an
    overlapping state the root is the one doubly covered cell.
    """

    shape: Partition
    hooks: tuple[RimHook, ...]
    root: Cell
    active: int

    def __post_init__(self):
        coverage: dict[Cell, int] = {}
        for h in self.hooks:
            if not h.is_special:
                raise ValueError(f"hook does not touch column 1: {h.walk}")
            for c in h.cell_set:
                coverage[c] = coverage.get(c, 0) + 1
        if shape_of_cells(coverage) != self.shape:
            raise ValueError("hooks do not cover the stated shape")
        doubled = [c for c, k in coverage.items() if k > 1]
        if doubled and (doubled != [self.root] or coverage[self.root] != 2):
            raise ValueError("only the root may be covered twice")
        owners = self.root_hooks
        if self.active not in owners:
            raise ValueError("active hook does not contain the root")
        if any(self.hooks[k].role(self.root) is None for k in owners):
            kind = "an overlapping" if len(owners) == 2 else "the active"
            raise ValueError(f"root not permissible in {kind} hook")
        if len(owners) == 1 and not _at_diagram_corner(self.shape, self.root):
            raise ValueError("root must close both its row and its column")

    @cached_property
    def root_hooks(self) -> tuple[int, ...]:
        return tuple(k for k, h in enumerate(self.hooks) if self.root in h)

    @cached_property
    def _hook_class(self) -> HookClass:
        # the walk reads each state's class twice (trace, rewrite); classify once
        return classify(self)

    @property
    def overlapping(self) -> bool:
        return len(self.root_hooks) == 2

    @property
    def type(self) -> Partition:
        return tuple(sorted((len(h) for h in self.hooks), reverse=True))

    @property
    def sign(self) -> int:
        """Product of hook signs; the root's edges count in both owners."""
        s = 1
        for h in self.hooks:
            s *= h.sign
        return s

    def region(self) -> Partition:
        """The partition left when the root, a corner of the diagram, is
        removed: the invariant of a trace.  Raises ValueError when the root
        does not close its row and column."""
        if not _at_diagram_corner(self.shape, self.root):
            raise ValueError(f"root {self.root} is not a corner of {self.shape}")
        i, j = self.root
        return self.shape[: i - 1] + ((j - 1,) if j > 1 else ()) + self.shape[i:]

    def to_json(self) -> dict:
        return {
            "shape": list(self.shape),
            "hooks": [h.to_json() for h in self.hooks],
            "root": list(self.root),
            "active": self.active,
        }

    @classmethod
    def from_json(cls, data) -> "RootedTableau":
        shape, hooks, root, active = _json_fields(data, "shape", "hooks", "root", "active")
        return cls(
            _json_ints(shape, "shape"),
            _json_hooks(hooks),
            _json_ints(root, "root", 2),
            _json_int(active, "active"),
        )

    def render(self) -> str:
        return render_hooks(self.hooks, self.root, self.active)


Trace = tuple[tuple[RootedTableau, HookClass], ...]


def classify(state: RootedTableau) -> HookClass:
    """The unique class of (active hook, root); errors on corrupt states."""
    cls = state.hooks[state.active].role(state.root)
    if cls is None:
        raise ValueError(f"root {state.root} is not a permissible cell of the active hook")
    return cls


def _settle(old: RootedTableau, hooks: list[RimHook], new_root: Cell) -> RootedTableau:
    """Build the successor around the moved root and hand over activity.

    The hook that now overlaps the modified one at the root becomes active;
    if the root landed on singly covered ground the walk has terminated and
    the modified hook stays active.
    """
    new_active = next(
        (k for k, h in enumerate(hooks) if k != old.active and new_root in h),
        old.active,
    )
    widths: dict[int, int] = {}
    for h in hooks:
        for i, j in h.walk:
            if j > widths.get(i, 0):
                widths[i] = j
    shape = tuple(widths[i] for i in range(1, len(widths) + 1))
    return _unchecked(RootedTableau, shape, tuple(hooks), new_root, new_active)


def _attaches_right(state: RootedTableau, cell: Cell) -> bool:
    """Whether a tail move reattaches the active hook at `cell`, right of its head.

    A cell another hook covers takes the attachment exactly when it is a
    permissible cell of that hook.  An uncovered cell takes it exactly when
    the diagram stays a partition with it added, i.e. the row above reaches
    its column; it then closes its column too, since the row below is no
    longer than the head's row.
    """
    for k, h in enumerate(state.hooks):
        if k != state.active and cell in h:
            return h.role(cell) is not None
    i, j = cell
    return i == 1 or state.shape[i - 2] >= j


def apply_rule(state: RootedTableau) -> RootedTableau:
    """One rewrite step; the applied rule is determined by classify."""
    cls = state._hook_class
    hooks = list(state.hooks)
    a = state.active
    hook = hooks[a]
    r = state.root

    if cls in (HookClass.INNER_CORNER, HookClass.OUTER_CORNER):
        i, j = r
        if cls is HookClass.INNER_CORNER:
            mirror = (i + 1, j + 1)
        else:
            mirror = (i - 1, j - 1)
        k = hook.walk.index(r)
        hooks[a] = RimHook(hook.walk[:k] + (mirror,) + hook.walk[k + 1:])
        return _settle(state, hooks, mirror)

    if cls in (HookClass.HEAD_HORIZONTAL, HookClass.HEAD_VERTICAL):
        below_tail = (hook.tail[0] + 1, 1)
        hooks[a] = RimHook((below_tail,) + hook.walk[:-1])
        return _settle(state, hooks, below_tail)

    if cls is HookClass.TAIL_VERTICAL:
        hi, hj = hook.head
        right = (hi, hj + 1)
        new_cell = right if _attaches_right(state, right) else (hi - 1, hj)
        hooks[a] = RimHook(hook.walk[1:] + (new_cell,))
        return _settle(state, hooks, new_cell)

    if cls is HookClass.SINGLETON:
        partners = [k for k in state.root_hooks if k != a]
        if len(partners) != 1:
            raise ValueError("singleton slide requires an overlapping partner")
        o = partners[0]
        run = hooks[o].column_one_run()
        if len(run) < 2:
            raise ValueError("partner's column-1 portion has no opposite end")
        if r == run[0]:
            dest = run[-1]
        elif r == run[-1]:
            dest = run[0]
        else:
            raise ValueError("singleton is not at an end of the partner's column-1 run")
        hooks[a] = RimHook((dest,))
        return _settle(state, hooks, dest)

    # TAIL_HORIZONTAL: two hooks sharing their tail at the root, one walking
    # right (the active one) and one walking up; the longer walk is cut after
    # as many cells as the shorter has, and the cut part moves over.
    partners = [k for k in state.root_hooks if k != a]
    if len(partners) != 1:
        raise ValueError("tail exchange requires an overlapping partner")
    o = partners[0]
    if hooks[o].tail != r:
        raise ValueError("partner hook's tail is not at the root")
    if len(hooks[o]) == 1 or len(hooks[a]) == len(hooks[o]):
        raise ValueError("tail exchange would not change the state")
    big_idx, small_idx = (a, o) if len(hooks[a]) > len(hooks[o]) else (o, a)
    big, small = hooks[big_idx], hooks[small_idx]
    s = len(small)
    hooks[big_idx] = RimHook(big.walk[:s])
    hooks[small_idx] = RimHook(small.walk + big.walk[s:])
    return _settle(state, hooks, r)


def _at_diagram_corner(shape: Partition, cell: Cell) -> bool:
    i, j = cell
    if not (1 <= i <= len(shape) and shape[i - 1] == j):
        return False
    return i == len(shape) or shape[i] < j


def inner_involution(state: RootedTableau) -> tuple[RootedTableau, Trace]:
    """Iterate apply_rule from a tileable rooted state back to one.

    Returns the terminal state and the full trace of (state, class) pairs.
    Five checks turn an engine bug into an error: a walk longer than
    4·n·p(n) steps raises instead of hanging, and every state must keep the
    start's type (hook-size multiset); the terminal state must pass the
    validating constructor, leave the start's region and flip its sign.
    """
    if state.overlapping:
        raise ValueError("walk must start from a non-overlapping state")
    if len(state.hooks[state.active]) < 2:
        raise ValueError("root hook must have at least two cells")
    n = sum(state.shape)
    budget = 4 * n * num_partitions(n)
    typ = state.type
    trace: list[tuple[RootedTableau, HookClass]] = [(state, state._hook_class)]
    cur = state
    steps = 0
    while True:
        cur = apply_rule(cur)
        steps += 1
        if cur.type != typ:
            raise RuntimeError("hook-size multiset changed along the walk")
        trace.append((cur, cur._hook_class))
        if not cur.overlapping:
            break
        if steps > budget:
            raise RuntimeError(f"rewrite walk exceeded the {budget}-step budget")
    # the walk hands back only states that pass the public constructor
    cur = RootedTableau(cur.shape, cur.hooks, cur.root, cur.active)
    trace[-1] = (cur, trace[-1][1])
    if cur.region() != state.region():
        raise RuntimeError("cell set away from the root changed along the walk")
    if cur.sign != -state.sign:
        raise RuntimeError("terminal state failed to flip the sign")
    return cur, tuple(trace)


def check_sign_lemma(trace: Trace, eps0: int) -> bool:
    """Every non-terminal, non-singleton state carries eps0 or -eps0
    according to its class."""
    for st, cls in trace[:-1]:
        if cls is HookClass.SINGLETON:
            continue
        expected = eps0 if cls in _SAME_SIGN else -eps0
        if st.sign != expected:
            return False
    return True


def outer_involution(
    tableau: SpecialRimHookTableau, filling: SemistandardTableau
) -> tuple[SpecialRimHookTableau, SemistandardTableau]:
    """Partner of a (hook tableau, standard filling) pair of equal shape.

    Bottom singleton rows holding the running maximum are peeled off, the
    core walk is run rooted at the cell of the largest remaining entry, that
    entry follows the root, and the peeled rows are put back.  Applying the
    map twice returns the original pair; the hook tableau's sign flips.
    """
    if tableau.shape != filling.shape:
        raise ValueError("tableau and filling must have the same shape")
    n = sum(tableau.shape)
    if not filling.is_standard:
        raise ValueError("filling must be standard")
    if tableau.type == (1,) * n:
        raise ValueError("the all-singleton pair has no partner")

    entries = dict(filling.entries)
    hooks = list(tableau.hooks)          # canonical: deepest tail first
    shape = list(tableau.shape)
    stripped: list[int] = []
    m = n
    while shape[-1] == 1 and len(hooks[0]) == 1 and entries[(len(shape), 1)] == m:
        stripped.append(m)
        del entries[(len(shape), 1)]
        hooks.pop(0)
        shape.pop()
        m -= 1

    root = next(c for c, v in entries.items() if v == m)
    active = next(k for k, h in enumerate(hooks) if root in h)
    start = RootedTableau(tuple(shape), tuple(hooks), root, active)
    final, _ = inner_involution(start)

    entries[final.root] = entries.pop(root)
    new_hooks = list(final.hooks)
    depth = len(final.shape)
    for v in reversed(stripped):
        depth += 1
        c = (depth, 1)
        new_hooks.append(RimHook((c,)))
        entries[c] = v
    out_tableau = SpecialRimHookTableau.from_hooks(new_hooks)
    rows = tuple(
        tuple(entries[(i, j)] for j in range(1, out_tableau.shape[i - 1] + 1))
        for i in range(1, len(out_tableau.shape) + 1)
    )
    return out_tableau, SemistandardTableau(rows)


def enumerate_standard_pairs(mu) -> list[tuple[SpecialRimHookTableau, SemistandardTableau]]:
    """All (hook tableau of the given type, standard filling) pairs of a
    common shape, shapes in canonical order."""
    mu = check_partition(mu)
    n = sum(mu)
    pairs = []
    for lam in enumerate_partitions(n):
        tableaux = enumerate_srht(lam, mu)
        if not tableaux:
            continue
        fillings = enumerate_ssyt(lam, (1,) * n) if n else [SemistandardTableau(())]
        for s in tableaux:
            for t in fillings:
                pairs.append((s, t))
    return pairs


def trace_to_json(trace: Trace) -> list[dict]:
    return [
        {
            "class": cls.rule,
            "tag": cls.value,
            "tableau": {
                "shape": list(st.shape),
                "hooks": [h.to_json() for h in st.hooks],
            },
            "root": list(st.root),
            "active": st.active,
        }
        for st, cls in trace
    ]
