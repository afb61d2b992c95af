"""Semistandard Young tableaux, rim hooks, and special rim-hook tableaux.

A rim hook is stored as the ordered walk of its cells from tail to head,
each step going up one row or right one column; `RimHook.role` names each
cell's place as a root.  A special rim-hook tableau tiles a Ferrers diagram
with such hooks, every hook touching column 1; its sign is the product of
per-hook signs (-1)^(vertical steps).
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterator

from .partitions import (
    Cell,
    Partition,
    check_partition,
    shape_of_cells,
)


def _json_fields(data, *keys):
    """The values at `keys` of a decoded JSON object, in order; a ValueError
    names the keys when `data` is not an object or lacks one of them."""
    expected = ", ".join(keys)
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object with keys {expected}")
    missing = [k for k in keys if k not in data]
    if missing:
        raise ValueError(
            f"JSON object lacks key {', '.join(missing)}; expected keys {expected}"
        )
    return tuple(data[k] for k in keys)


def _unchecked(cls, *values):
    """The dataclass `cls` with `values` as its fields, in order, unvalidated:
    how the library builds what it derives from values already checked."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, values, strict=True))
    return obj


def _json_list(value, key: str) -> list:
    """`value` if it is a JSON list; otherwise a ValueError naming `key`."""
    if not isinstance(value, list):
        raise ValueError(f"{key}: expected a list, got {reprlib.repr(value)}")
    return value


def _json_int(value, key: str) -> int:
    """`value` if it is a JSON integer, not a bool; else a ValueError naming `key`."""
    if type(value) is not int:
        raise ValueError(f"{key}: expected an integer, got {reprlib.repr(value)}")
    return value


def _json_ints(value, key: str, length: int | None = None) -> tuple[int, ...]:
    """A JSON list of integers, of the given length if one is given."""
    items = _json_list(value, key)
    if any(type(v) is not int for v in items) or length not in (None, len(items)):
        wanted = "integers" if length is None else f"{length} integers"
        raise ValueError(f"{key}: expected a list of {wanted}, got {reprlib.repr(value)}")
    return tuple(items)


def _json_hooks(value) -> tuple[RimHook, ...]:
    """Hooks from a JSON list of walks, each a list of [i, j] cells."""
    return tuple(
        RimHook(tuple(_json_ints(c, "hooks", 2) for c in _json_list(walk, "hooks")))
        for walk in _json_list(value, "hooks")
    )


_RULE_OF_TAG = {"CI": "CO", "CE": "CO", "HH": "HE", "HV": "HE", "TV": "TV", "TH": "TH", "SI": "SI"}


class HookClass(Enum):
    """How the root sits in the active hook; decides the rewrite rule."""

    INNER_CORNER = "CI"      # corner with both lower and right neighbors in hook
    OUTER_CORNER = "CE"      # corner with both upper and left neighbors in hook
    HEAD_HORIZONTAL = "HH"   # root is the head, reached by a rightward step
    HEAD_VERTICAL = "HV"     # root is the head, reached by an upward step
    TAIL_VERTICAL = "TV"     # root is the tail, walk leaves upward
    TAIL_HORIZONTAL = "TH"   # root is the tail, walk leaves rightward
    SINGLETON = "SI"         # the active hook is a single cell

    @property
    def rule(self) -> str:
        """Label of the rewrite rule this class triggers."""
        return _RULE_OF_TAG[self.value]


# a root's class from the steps into and out of it: True up, False right,
# None past an end of the walk; a straight pass through a cell is absent
_ROLE_OF_STEPS = {
    (None, None): HookClass.SINGLETON,
    (False, None): HookClass.HEAD_HORIZONTAL,
    (True, None): HookClass.HEAD_VERTICAL,
    (None, True): HookClass.TAIL_VERTICAL,
    (None, False): HookClass.TAIL_HORIZONTAL,
    (True, False): HookClass.INNER_CORNER,
    (False, True): HookClass.OUTER_CORNER,
}


@dataclass(frozen=True)
class RimHook:
    """A connected strip of cells with no 2x2 block, walked tail to head.

    walk[0] is the tail (the lowest, leftmost end); walk[-1] is the head
    (smallest row, largest column).  Consecutive cells differ by one step
    up, (i,j) -> (i-1,j), or right, (i,j) -> (i,j+1).
    """

    walk: tuple[Cell, ...]

    def __post_init__(self):
        if not self.walk:
            raise ValueError("a rim hook has at least one cell")
        for (i, j), (i2, j2) in zip(self.walk, self.walk[1:]):
            if (i2, j2) not in ((i - 1, j), (i, j + 1)):
                raise ValueError(f"bad hook step {(i, j)} -> {(i2, j2)}")
        # steps go up or right, so the head has the least row, the tail the least column
        if self.head[0] < 1 or self.tail[1] < 1:
            raise ValueError(f"cell off the diagram: tail {self.tail}, head {self.head}")

    def __len__(self) -> int:
        return len(self.walk)

    def __contains__(self, cell) -> bool:
        return cell in self.cell_set

    @cached_property
    def cell_set(self) -> frozenset[Cell]:
        return frozenset(self.walk)

    @property
    def tail(self) -> Cell:
        return self.walk[0]

    @property
    def head(self) -> Cell:
        return self.walk[-1]

    @cached_property
    def leg_length(self) -> int:
        """Number of vertical (upward) steps in the walk."""
        return sum(1 for a, b in zip(self.walk, self.walk[1:]) if b[0] == a[0] - 1)

    @property
    def sign(self) -> int:
        return -1 if self.leg_length % 2 else 1

    @property
    def is_special(self) -> bool:
        """True when the hook touches column 1 (i.e. its tail is there)."""
        return self.tail[1] == 1

    def column_one_run(self) -> tuple[Cell, ...]:
        """The column-1 cells, bottom to top; a prefix of the walk."""
        run = []
        for c in self.walk:
            if c[1] != 1:
                break
            run.append(c)
        return tuple(run)

    def role(self, cell: Cell) -> HookClass | None:
        """The class of `cell` as a root of this hook, or None off the
        permissible cells (head, tail, corners).  Each step adds one to
        j - i, so only walk[k], k = (j - i) - (tail's j - i), can be `cell`."""
        walk = self.walk
        i, j = cell
        k = (j - i) - (walk[0][1] - walk[0][0])
        if not 0 <= k < len(walk) or walk[k] != cell:
            return None
        up_in = walk[k - 1][0] != i if k > 0 else None
        up_out = walk[k + 1][0] != i if k + 1 < len(walk) else None
        return _ROLE_OF_STEPS.get((up_in, up_out))

    def permissible_cells(self) -> frozenset[Cell]:
        """Head, tail, and both kinds of corner: the legal root positions."""
        return frozenset(c for c in self.walk if self.role(c) is not None)

    def to_json(self) -> list[list[int]]:
        return [[i, j] for (i, j) in self.walk]


@dataclass(frozen=True)
class SemistandardTableau:
    """Row-major filling: rows weakly increase, columns strictly increase."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        check_partition(len(r) for r in self.rows)
        for r in self.rows:
            if any(x < 1 for x in r):
                raise ValueError("entries must be positive")
            if any(r[k] > r[k + 1] for k in range(len(r) - 1)):
                raise ValueError(f"row not weakly increasing: {r}")
        for i in range(len(self.rows) - 1):
            hi, lo = self.rows[i], self.rows[i + 1]
            if any(hi[k] >= lo[k] for k in range(len(lo))):
                raise ValueError("column not strictly increasing")

    @property
    def shape(self) -> Partition:
        return tuple(len(r) for r in self.rows)

    @cached_property
    def entries(self) -> dict[Cell, int]:
        return {
            (i, j): v
            for i, row in enumerate(self.rows, 1)
            for j, v in enumerate(row, 1)
        }

    @property
    def is_standard(self) -> bool:
        """The entries are 1..n, each once; a sort, so its cost does not
        grow with the size of an entry."""
        flat = [v for row in self.rows for v in row]
        flat.sort()
        return flat == list(range(1, len(flat) + 1))

    def to_json(self) -> dict:
        return {"shape": list(self.shape), "rows": [list(r) for r in self.rows]}

    @classmethod
    def from_json(cls, data) -> "SemistandardTableau":
        (rows,) = _json_fields(data, "rows")
        return cls(tuple(_json_ints(row, "rows") for row in _json_list(rows, "rows")))


def enumerate_ssyt(shape, content) -> list[SemistandardTableau]:
    """All fillings of `shape` with `content[k-1]` copies of k, row-major order.

    `content` may be any composition of |shape|; the classical matrix entries
    use partition content only.
    """
    shape = check_partition(shape)
    content = tuple(int(c) for c in content)
    if any(c < 0 for c in content):
        raise ValueError("content parts must be nonnegative")
    if sum(shape) != sum(content):
        raise ValueError("shape and content have different weights")
    order = [(i, j) for i, row in enumerate(shape, 1) for j in range(1, row + 1)]
    remaining = list(content)
    grid: dict[Cell, int] = {}
    out: list[SemistandardTableau] = []

    def fill(pos: int):
        if pos == len(order):
            rows = tuple(
                tuple(grid[(i, j)] for j in range(1, shape[i - 1] + 1))
                for i in range(1, len(shape) + 1)
            )
            out.append(_unchecked(SemistandardTableau, rows))
            return
        i, j = order[pos]
        lo = 1
        if j > 1:
            lo = max(lo, grid[(i, j - 1)])          # weak along the row
        if i > 1:
            lo = max(lo, grid[(i - 1, j)] + 1)      # strict down the column
        for v in range(lo, len(remaining) + 1):
            if remaining[v - 1] == 0:
                continue
            remaining[v - 1] -= 1
            grid[(i, j)] = v
            fill(pos + 1)
            del grid[(i, j)]
            remaining[v - 1] += 1

    fill(0)
    return out


@dataclass(frozen=True)
class SpecialRimHookTableau:
    """A Ferrers diagram tiled by rim hooks that each touch column 1.

    Hooks are kept in canonical order: deepest tail first (tails occupy
    distinct column-1 rows), so structural equality is meaningful.
    """

    shape: Partition
    hooks: tuple[RimHook, ...]

    def __post_init__(self):
        shape = check_partition(self.shape)
        covered: set[Cell] = set()
        total = 0
        for h in self.hooks:
            if not h.is_special:
                raise ValueError(f"hook does not touch column 1: {h.walk}")
            covered |= h.cell_set
            total += len(h)
        # the hooks tile the diagram exactly when they have its weight, do
        # not overlap, and have no cell outside it; a hook's cells have row
        # and column at least 1, so only the far edges need testing, and
        # the diagram's cells are never built
        ell = len(shape)
        if (
            total != sum(shape)
            or len(covered) != total
            or any(i > ell or j > shape[i - 1] for i, j in covered)
        ):
            raise ValueError("hooks do not tile the shape")
        tails = [h.tail[0] for h in self.hooks]
        if tails != sorted(tails, reverse=True):
            raise ValueError("hooks not in canonical (deepest tail first) order")

    @classmethod
    def from_hooks(cls, hooks) -> "SpecialRimHookTableau":
        hooks = tuple(sorted(hooks, key=lambda h: -h.tail[0]))
        shape = shape_of_cells(set().union(*(h.cell_set for h in hooks)))
        return cls(shape, hooks)

    @property
    def type(self) -> Partition:
        return tuple(sorted((len(h) for h in self.hooks), reverse=True))

    @property
    def sign(self) -> int:
        s = 1
        for h in self.hooks:
            s *= h.sign
        return s

    def to_json(self) -> dict:
        return {"shape": list(self.shape), "hooks": [h.to_json() for h in self.hooks]}

    @classmethod
    def from_json(cls, data) -> "SpecialRimHookTableau":
        shape, hooks = _json_fields(data, "shape", "hooks")
        return cls(
            _json_ints(shape, "shape"),
            _json_hooks(hooks),
        )


def _outer_rim_strips(shape: Partition) -> Iterator[tuple[int, int, Partition]]:
    """Eğecioğlu–Remmel's strip step: the hook whose tail is the bottom
    column-1 cell, one `(top, size, nu)` per place it can end.

    No other special hook can reach a cell of the bottom row, or a cell
    right of this hook in a row it enters, so the hook runs along the outer
    rim.  It climbs row by row (rows indexed from 0 here), covering row i
    from column shape[i+1] (column 1 in the bottom row) to the row's end,
    and stops at the end of some row `top`, bottom row first.  It has
    `size` cells and leaves nu, with nu[i] = shape[i+1] - 1 for i >= top
    and the rows above untouched, in the same cells.
    """
    ell = len(shape)
    size = 0
    for top in range(ell - 1, -1, -1):
        size += shape[top] - (shape[top + 1] - 1 if top + 1 < ell else 0)
        yield top, size, shape[:top] + tuple(x - 1 for x in shape[top + 1:] if x > 1)


@lru_cache(maxsize=None)
def _all_srht(shape: Partition) -> tuple[SpecialRimHookTableau, ...]:
    """Every special rim-hook tableau of the given shape.

    Each is one of the strips of `_outer_rim_strips` followed by a tableau
    of what it leaves, so each is built exactly once, hooks in canonical
    order.  A strip is one `RimHook`, shared by the tableaux that start
    with it.  Both are built unchecked.
    """
    if not shape:
        return (_unchecked(SpecialRimHookTableau, shape, ()),)
    out: list[SpecialRimHookTableau] = []
    walk: list[Cell] = []
    for top, size, nu in _outer_rim_strips(shape):
        # the strip grows by the end of row `top`: its last size - len(walk) cells
        row = shape[top]
        walk.extend((top + 1, j) for j in range(row - (size - len(walk)) + 1, row + 1))
        hook = _unchecked(RimHook, tuple(walk))
        out.extend(_unchecked(SpecialRimHookTableau, shape, (hook,) + t.hooks)
                   for t in _all_srht(nu))
    return tuple(out)


def _count_srht(shape: Partition) -> int:
    """len(_all_srht(shape)), by the same recursion, building no tableau;
    the memo lives for one call."""
    memo = {(): 1}

    def count(lam: Partition) -> int:
        if lam not in memo:
            memo[lam] = sum(count(nu) for _, _, nu in _outer_rim_strips(lam))
        return memo[lam]

    return count(shape)


def enumerate_srht(shape, type) -> list[SpecialRimHookTableau]:
    """All special rim-hook tableaux of the given shape whose hook sizes
    sort to `type`."""
    shape = check_partition(shape)
    type = check_partition(type)
    if sum(shape) != sum(type):
        raise ValueError("shape and type have different weights")
    return [t for t in _all_srht(shape) if t.type == type]


def enumerate_srht_all_types(shape) -> list[SpecialRimHookTableau]:
    return list(_all_srht(check_partition(shape)))


# --- ASCII rendering -------------------------------------------------------
#
# Two characters per cell: nodes sit on even grid positions, hook edges on
# the odd positions between them.  Nodes draw as '*', the active hook's
# nodes as 'O', and the root as '#'.

def render_hooks(hooks, root: Cell | None = None, active: int | None = None) -> str:
    all_cells: set[Cell] = set()
    for h in hooks:
        all_cells |= h.cell_set
    if not all_cells:
        return ""
    height = max(i for i, _ in all_cells)
    width = max(j for _, j in all_cells)
    grid = [[" "] * (2 * width - 1) for _ in range(2 * height - 1)]
    for k, h in enumerate(hooks):
        node = "O" if k == active else "*"
        for (i, j) in h.walk:
            grid[2 * i - 2][2 * j - 2] = node
        for (i, j), (i2, j2) in zip(h.walk, h.walk[1:]):
            if i2 == i:
                grid[2 * i - 2][2 * j - 1] = "-"
            else:
                # up step: the edge sits between rows i2 and i
                grid[2 * i - 3][2 * j - 2] = "|"
    if root is not None:
        i, j = root
        grid[2 * i - 2][2 * j - 2] = "#"
    return "\n".join("".join(row).rstrip() for row in grid)


def render_filling(t: SemistandardTableau) -> str:
    width = max((len(str(v)) for row in t.rows for v in row), default=1)
    return "\n".join(" ".join(str(v).rjust(width) for v in row) for row in t.rows)
