"""Finite posets, their incomparability graphs, and chromatic symmetric
functions.

The expansion pipeline: count order-respecting fillings per shape, convert
through the signed hook-count matrix to the elementary basis, and — for
orders of height at most two — certify nonnegativity by an explicit
matching whose fixed points are counted by the coefficients.  The matching
joins each shape nu with at most two rows to one source shape,
(nu1 - 1, nu2 + 1), and is a product of two maps: a walk that rewrites the
tiling and sees the tiling alone, and a move of one label of the filling.
Such a shape has one positive tiling and at most one negative one, so the
census runs one push and one pull walk per shape pair and one move per
filling, which for a product map says the same as checking every pair;
`stanley_stembridge_involution` proves this and lists each check.  The
matching is a certificate: `csf` gives both expansions without it, and its
result builds the census when `pair_census` is first read.  So a census
counterexample surfaces only where the census is read: `ss-involution`,
`csf --format json` and `corpus`.

`csf` splits the order first.  Two elements in different components of
the incomparability graph are comparable, so the order is the ordinal sum
of its components, and X_P is the product of their chromatic symmetric
functions (Stanley 1995, Prop. 2.3).  Each component's fillings are
counted alone and pushed through K^-1 of its size to its e-expansion, and
in the e-basis the product joins partitions.  The Schur coefficients are
read from the product through K, since e_mu = sum_lam K(lam, mu) s_lam';
by Gasharov they equal the fillings of the whole order, which
`p_tableau_counts` counts with no split, and `corpus` checks the two agree.
A chain is all one-element components, each e[1], so no filling of more
than one element is counted.  The census always runs on the whole order.

Fillings are counted column by column and proper colorings from the
partitions of the order into chains; neither is built.  The enumerators
(`enumerate_p_tableaux`, on bitmasks, and deletion–contraction) stay for
the census, which needs real fillings, and as oracles for the tests;
`is_p_tableau`, the filling rule read off the definition, is one more.

Elements are labels at the boundary (`Poset.less`, fillings, JSON); inside,
every order algorithm reads one set of bit masks, `Poset._order`, with the
bits numbered in sorted-label order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .involution import RootedTableau, inner_involution
from .partitions import (
    Partition,
    check_partition,
    conjugate,
    enumerate_partitions,
    format_partition,
)
from .symfunc import SymFuncExpansion, inverse_kostka_matrix, kostka_matrix
from .tableaux import SpecialRimHookTableau, enumerate_srht_all_types

Rows = tuple[tuple[str, ...], ...]
PairST = tuple[SpecialRimHookTableau, Rows]


def _bits(mask: int):
    """Indices of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _masks(labels, pairs) -> tuple[list[int], list[int]]:
    """For each of `labels`, the mask of the labels before it in `pairs`
    and the mask of those after it; bit i stands for labels[i].  A pair
    naming anything else is refused."""
    bit = {x: i for i, x in enumerate(labels)}
    below = [0] * len(labels)
    above = [0] * len(labels)
    for x, y in pairs:
        if x not in bit or y not in bit:
            raise ValueError(f"relation {x} < {y} uses unknown elements")
        above[bit[x]] |= 1 << bit[y]
        below[bit[y]] |= 1 << bit[x]
    return below, above


@dataclass(frozen=True)
class Poset:
    """Elements with a strict order relation, stored transitively closed."""

    elements: tuple[str, ...]
    less: frozenset[tuple[str, str]]

    def __post_init__(self):
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate elements")
        labels, below, above = self._order  # refuses unknown elements
        for i, x in enumerate(labels):
            other = above[i] & below[i] & ~(1 << i)
            if other:
                raise ValueError(f"cycle between {x} and {labels[other.bit_length() - 1]}")
            if above[i] >> i & 1:
                raise ValueError(f"reflexive strict relation {x} < {x}")
        for up in above:  # whatever is above something above x is above x
            if any(above[j] & ~up for j in _bits(up)):
                raise ValueError("relation is not transitively closed")

    @classmethod
    def from_relations(cls, elements, relations) -> "Poset":
        """Build from any generating set of strict relations (covers are
        fine); the transitive closure is computed here."""
        elements = tuple(elements)
        labels = sorted(set(elements))
        _, rows = _masks(labels, relations)
        for k, row_k in enumerate(rows):  # Warshall; round k leaves row k alone
            for i, row in enumerate(rows):
                if row >> k & 1:
                    rows[i] = row | row_k
        less = frozenset(
            (labels[i], labels[j]) for i, row in enumerate(rows) for j in _bits(row)
        )
        return cls(elements, less)

    def __len__(self) -> int:
        return len(self.elements)

    def lt(self, x, y) -> bool:
        return (x, y) in self.less

    def leq(self, x, y) -> bool:
        return x == y or (x, y) in self.less

    def incomparable(self, x, y) -> bool:
        return x != y and (x, y) not in self.less and (y, x) not in self.less

    @cached_property
    def _order(self) -> tuple[tuple[str, ...], tuple[int, ...], tuple[int, ...]]:
        """(labels, below, above): the labels in sorted order and, for each,
        the mask of the elements below it and of those above it; bit i
        stands for labels[i].  Every order algorithm below reads this."""
        labels = tuple(sorted(self.elements))
        below, above = _masks(labels, self.less)
        return labels, tuple(below), tuple(above)

    def to_json(self) -> dict:
        return {
            "elements": list(self.elements),
            "relations": sorted([x, y] for (x, y) in self.less),
        }


def read_poset(text: str) -> tuple[tuple[str, ...], list[tuple[str, str]]]:
    """The distinct element names and the relations of a poset file, read
    in one pass; nothing is closed or checked for cycles.

    Poset file format: `x < y` relation lines (chains `x < y < z` allowed),
    bare lines naming isolated elements, `#` comments.  Elements appear in
    first-mention order."""
    elements: list[str] = []
    seen: set[str] = set()
    relations: list[tuple[str, str]] = []

    def note(name: str):
        if name not in seen:
            seen.add(name)
            elements.append(name)

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "<" in line:
            parts = [p.strip() for p in line.split("<")]
            if len(parts) < 2 or any(p.split() != [p] for p in parts):
                raise ValueError(f"line {lineno}: expected `x < y`, got {raw!r}")
            for name in parts:
                note(name)
            for x, y in zip(parts, parts[1:]):
                relations.append((x, y))
        else:
            if line.split() != [line]:
                raise ValueError(f"line {lineno}: element names cannot contain whitespace")
            note(line)
    return tuple(elements), relations


def parse_poset(text: str) -> Poset:
    """The poset of a poset file (see `read_poset`), transitively closed."""
    return Poset.from_relations(*read_poset(text))


def _peel(below, left: int, cap: int) -> int:
    """How many times the minimal elements of `left` (a mask) can be peeled
    off before none are left, stopping at `cap`: the length of a longest
    chain inside `left`, or `cap` if that is less."""
    rounds = 0
    while left and rounds < cap:
        left = sum(1 << i for i in _bits(left) if below[i] & left)
        rounds += 1
    return rounds


def height(poset: Poset) -> int:
    """Number of elements in a longest chain."""
    if not poset.elements:
        raise ValueError("empty poset has no height")
    _, below, _ = poset._order
    return _peel(below, (1 << len(below)) - 1, len(below))


def _chains(above, size: int) -> list[int]:
    """Masks of the chains of `size` >= 1 elements, grown level by level
    upward from each least element, so each is found once.  `starts[m]` is
    the mask of the elements at the bottom of some m-element chain, and a
    chain missing m elements grows only into `starts[m]`, so a partial
    chain past its first element is never a dead end and the work follows
    the chains listed."""
    starts = [0, (1 << len(above)) - 1]
    for _ in range(size - 2):  # i starts an (m+1)-chain if it is below an m-start
        left = starts[-1]
        starts.append(sum(1 << i for i in _bits(left) if above[i] & left))
    tops = range(len(above))
    masks = [1 << i for i in tops]
    for missing in range(size - 1, 1, -1):
        grown, ends = [], []
        for mask, top in zip(masks, tops):
            for j in _bits(above[top] & starts[missing]):
                grown.append(mask | 1 << j)
                ends.append(j)
        masks, tops = grown, ends
    if size == 1:
        return masks
    # the last element may be anything above the top, and no top is kept
    return [mask | 1 << j for mask, top in zip(masks, tops) for j in _bits(above[top])]


def is_ab_free(poset: Poset, a: int, b: int) -> bool:
    """No induced copy of an a-chain next to a completely incomparable
    b-chain.  Only the chains of the shorter size are listed: for each, the
    elements outside its comparability mask (the chain together with
    everything below or above one of its elements) must not hold a chain
    of the longer size, which a peel capped at that many rounds decides."""
    if a < 1 or b < 1:
        raise ValueError("chain sizes must be positive")
    _, below, above = poset._order
    short, tall = sorted((a, b))
    full = (1 << len(below)) - 1
    for chain in _chains(above, short):
        reach = chain
        for i in _bits(chain):
            reach |= below[i] | above[i]
        if _peel(below, full ^ reach, tall) == tall:
            return False
    return True


@dataclass(frozen=True)
class Graph:
    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self):
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise ValueError("duplicate vertices")
        for u, v in self.edges:
            if u == v:
                raise ValueError("loops are not allowed")
            if u not in vs or v not in vs:
                raise ValueError(f"edge {u}-{v} uses unknown vertices")
        normalized = frozenset(tuple(sorted(e)) for e in self.edges)
        object.__setattr__(self, "edges", normalized)

    @cached_property
    def independent_partition_counts(self) -> tuple[int, ...]:
        """a_j, the number of partitions of the vertices into j non-empty
        independent sets, for j = 0..n.

        A subset DP over vertex bitmasks: the block holding the lowest vertex
        of a subset is chosen first, so each partition is built once."""
        index = {v: i for i, v in enumerate(self.vertices)}
        n = len(self.vertices)
        nbrs = [0] * n
        for u, v in self.edges:
            nbrs[index[u]] |= 1 << index[v]
            nbrs[index[v]] |= 1 << index[u]
        independent = [True] * (1 << n)
        for mask in range(1, 1 << n):
            low = (mask & -mask).bit_length() - 1
            rest = mask & (mask - 1)
            independent[mask] = independent[rest] and not nbrs[low] & rest
        # parts[mask][j]: partitions of the vertex set `mask` into j blocks
        parts: list[list[int]] = [[1]]
        for mask in range(1, 1 << n):
            lowbit = mask & -mask
            rest = mask ^ lowbit
            row = [0] * (mask.bit_count() + 1)
            sub = rest
            while True:  # blocks lowbit | sub, sub running over subsets of rest
                if independent[lowbit | sub]:
                    for j, c in enumerate(parts[rest ^ sub]):
                        row[j + 1] += c
                if not sub:
                    break
                sub = (sub - 1) & rest
            parts.append(row)
        return tuple(parts[-1])


def incomparability_graph(poset: Poset) -> Graph:
    labels, below, above = poset._order
    n = len(labels)
    edges = frozenset(
        (labels[i], labels[j])
        for i in range(n)
        for j in range(i + 1, n)
        if not (below[i] | above[i]) >> j & 1
    )
    return Graph(poset.elements, edges)


def chromatic_polynomial_value(graph: Graph, k: int) -> int:
    """Number of proper colorings with colors 1..k.

    A coloring that uses exactly j colors is a partition of the vertices
    into j independent sets together with an injective choice of their
    colors, so the count is sum_j a_j * k(k-1)...(k-j+1), with a_j from
    `Graph.independent_partition_counts`."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    total = 0
    falling = 1  # k(k-1)...(k-j+1)
    for j, a in enumerate(graph.independent_partition_counts):
        total += a * falling
        falling *= k - j
    return total


def chromatic_polynomial(graph: Graph) -> tuple[int, ...]:
    """Coefficients (ascending powers of k) by deletion–contraction,
    P(G) = P(G - e) - P(G / e), down to k^n on n vertices with no edges,
    memoised on (n, edges) with the vertices numbered 0..n-1.  Independent
    of the counting route above; the two are cross-checked in the tests."""
    index = {v: i for i, v in enumerate(graph.vertices)}
    edges = frozenset(tuple(sorted((index[u], index[v]))) for u, v in graph.edges)

    @lru_cache(maxsize=None)
    def poly(n: int, es: frozenset) -> tuple[int, ...]:
        if not es:
            return (0,) * n + (1,)
        u, v = max(es, key=lambda e: e[1] - e[0])
        deleted = es - {(u, v)}
        # v merges into u, and the labels above v close the gap
        drop = [i if i < v else u if i == v else i - 1 for i in range(n)]
        merged = frozenset(
            (min(drop[x], drop[y]), max(drop[x], drop[y]))
            for x, y in deleted
            if drop[x] != drop[y]
        )
        contracted = poly(n - 1, merged) + (0,)
        return tuple(d - c for d, c in zip(poly(n, deleted), contracted))

    return poly(len(graph.vertices), edges)


def evaluate_polynomial(coeffs, k: int) -> int:
    total = 0
    for c in reversed(tuple(coeffs)):
        total = total * k + c
    return total


# --- order-respecting fillings ----------------------------------------------

def enumerate_p_tableaux(poset: Poset, shape) -> list[Rows]:
    """Bijective fillings of the shape by poset elements: columns strictly
    increase in the order, a row entry is never strictly above its right
    neighbor.  Fillings come out in lexicographic row-major label order.

    The order's bits follow the sorted labels, so a cell's candidates are
    one mask, free & above(entry over it) & ~below(left neighbour), and
    taking its bits lowest first keeps the label order."""
    shape = check_partition(shape)
    if sum(shape) != len(poset.elements):
        raise ValueError("shape weight must equal the number of elements")
    labels, below, above = poset._order
    # row-major cells: the position of the cell over each and of its left
    # neighbour, -1 where there is none
    up: list[int] = []
    left: list[int] = []
    starts = [0]
    for i, row in enumerate(shape):
        for j in range(row):
            up.append(starts[i - 1] + j if i else -1)
            left.append(starts[i] + j - 1 if j else -1)
        starts.append(starts[i] + row)
    spans = list(zip(starts, starts[1:]))
    size = len(up)
    if not size:
        return [()]
    last = size - 1
    label = list(labels).__getitem__  # cheaper to call than a tuple's
    vals = [0] * size
    out: list[Rows] = []

    def fill(pos: int, free: int):
        cand = free
        if up[pos] >= 0:
            cand &= above[vals[up[pos]]]
        if left[pos] >= 0:
            cand -= cand & below[vals[left[pos]]]
        if pos == last:  # one element is left
            if cand:
                vals[pos] = cand.bit_length() - 1
                out.append(tuple(tuple(map(label, vals[a:b])) for a, b in spans))
            return
        while cand:
            low = cand & -cand
            cand ^= low
            vals[pos] = low.bit_length() - 1
            fill(pos + 1, free ^ low)

    fill(0, (1 << size) - 1)
    return out


def _summands(below, above) -> list[int]:
    """Masks of the components of the incomparability graph, lowest
    element first.  Any two elements of different components are
    comparable, so the order is the ordinal sum of its components."""
    full = (1 << len(below)) - 1
    out = []
    left = full
    while left:
        part = frontier = left & -left
        while frontier:  # add everything incomparable to the last elements added
            reach = 0
            for i in _bits(frontier):
                reach |= full ^ below[i] ^ above[i]
            frontier = reach & left & ~part
            part |= frontier
        out.append(part)
        left ^= part
    return out


def largest_summand(poset: Poset) -> int:
    """The number of elements in the largest component of the
    incomparability graph: the largest order whose fillings `csf` counts."""
    _, below, above = poset._order
    return max((part.bit_count() for part in _summands(below, above)), default=0)


def _p_tableau_counter(below, above, elements: int):
    """Filling counts by the elements of the mask `elements`, for any
    shapes of their weight, sharing one memo.

    A column is a chain read top to bottom, and the row rule compares only
    adjacent columns.  So the shape is filled column by column, from the
    left: the number of ways to finish depends only on the column heights
    still to fill, the elements still free, and the entries of the last
    column in the rows the next column reaches.  Shapes share suffixes of
    column heights, so one memo serves every shape asked of the counter.

    Rows are packed as n-bit fields of one integer, n the size of the whole
    order: a chain sets bit e of field r when its row-r entry is e, and a
    column hands the next one the elements below each of its entries, so
    "no entry below its left neighbour" is one AND.
    """
    n = len(below)
    # chains[h]: (element mask, row fields, forbidden fields for each cut)
    chains: list[list[tuple[int, int, tuple[int, ...]]]] = [[] for _ in range(n + 1)]

    def grow(mask: int, rows: int, forbids: tuple[int, ...], top: int):
        h = len(forbids) - 1
        chains[h].append((mask, rows, forbids))
        for e in _bits(above[top] & elements if h else elements):
            grow(mask | 1 << e, rows | 1 << e + h * n,
                 forbids + (forbids[-1] | below[e] << h * n,), e)

    grow(0, 0, (0,), 0)
    memo: dict[tuple, int] = {}

    def finish(heights: tuple[int, ...], free: int, forbid: int) -> int:
        if not heights:
            return 1  # the weights agree, so no element is left
        key = (heights, free, forbid)
        if key in memo:
            return memo[key]
        h, rest = heights[0], heights[1:]
        cut = rest[0] if rest else 0
        total = 0
        for mask, rows, forbids in chains[h]:
            if mask & free == mask and not rows & forbid:
                total += finish(rest, free ^ mask, forbids[cut])
        memo[key] = total
        return total

    return lambda shape: finish(conjugate(shape), elements, 0)


def count_p_tableaux(poset: Poset, shape) -> int:
    """Number of order-respecting fillings of the shape (see
    `enumerate_p_tableaux`), counted column by column from the left.

    With F(heights, free, left) the number of ways to fill columns of the
    given heights from the free elements next to a column `left`,
    F((), 0, -) = 1 and F((h, *rest), free, left) is the sum, over the
    h-chains C of free elements with no entry below its left neighbour in
    `left`, of F(rest, free - C, C cut to the height of rest's first
    column).  F is memoised, so no filling is built.
    """
    shape = check_partition(shape)
    if sum(shape) != len(poset.elements):
        raise ValueError("shape weight must equal the number of elements")
    _, below, above = poset._order
    return _p_tableau_counter(below, above, (1 << len(below)) - 1)(shape)


def is_p_tableau(poset: Poset, rows: Rows) -> bool:
    less = poset.less
    flat = [x for r in rows for x in r]
    if sorted(flat) != sorted(poset.elements):
        return False
    for i in range(len(rows) - 1):
        upper, lower = rows[i], rows[i + 1]
        for j in range(len(lower)):
            if (upper[j], lower[j]) not in less:
                return False
    for row in rows:
        for a, b in zip(row, row[1:]):
            if (b, a) in less:
                return False
    return True


# --- the height-2 matching ---------------------------------------------------

@dataclass(frozen=True)
class SSCensus:
    """Pairing census over (hook tableau, filling) pairs of 2-row shapes."""

    total_pairs: int
    matched: tuple[tuple[PairST, PairST], ...]
    fixed: tuple[PairST, ...]
    coefficients: dict[Partition, int]

    def to_json(self) -> dict:
        """Each tiling's `shape` and `hooks` lists are built once, and every
        pair that holds the tiling shares them."""
        tilings: dict[int, tuple[list, list]] = {}  # by id: the census holds them

        def combined(pair: PairST) -> dict:
            s, rows = pair
            parts = tilings.get(id(s))
            if parts is None:
                parts = tilings[id(s)] = (list(s.shape), [h.to_json() for h in s.hooks])
            return {"shape": parts[0], "rows": [list(r) for r in rows], "hooks": parts[1]}

        fixed_by_shape: dict[Partition, list] = {}
        for s, rows in self.fixed:
            fixed_by_shape.setdefault(s.shape, []).append(combined((s, rows)))
        return {
            "total_pairs": self.total_pairs,
            "matched": [
                {"negative": combined(a), "positive": combined(b)}
                for a, b in self.matched
            ],
            "fixed_by_shape": {
                format_partition(shape): pairs for shape, pairs in fixed_by_shape.items()
            },
        }


def _walk_partner(s: SpecialRimHookTableau, root, end) -> SpecialRimHookTableau:
    """The tiling on which the walk rooted at `root` of `s` ends; the walk
    must end at the cell `end`."""
    active = next(k for k, h in enumerate(s.hooks) if root in h)
    final, _ = inner_involution(RootedTableau(s.shape, s.hooks, root, active))
    if final.root != end:
        raise RuntimeError(
            f"walk from {s.shape} ended at {final.root}, not row {end[0]}"
        )
    return SpecialRimHookTableau.from_hooks(final.hooks)


def _only_tiling(shape: Partition, tilings, sign: int) -> SpecialRimHookTableau:
    """The one tiling of `shape` with the given sign."""
    found = [t for t in tilings if t.sign == sign]
    if len(found) != 1:
        raise RuntimeError(f"shape {shape} has {len(found)} tilings of sign {sign:+d}, not one")
    return found[0]


def _counterexample(nu: Partition, rows: Rows, predicted: bool) -> RuntimeError:
    return RuntimeError(
        f"image characterization counterexample: shape {nu}, "
        f"rows {rows}, predicted {predicted}, matched {not predicted}"
    )


def stanley_stembridge_involution(poset: Poset) -> SSCensus:
    """Match every negative pair with a positive one; the leftover positive
    pairs, counted by hook-size type, are the elementary coefficients.

    A push joins one pair of shapes: a negative pair of shape
    lam = (nu1 - 1, nu2 + 1) goes to the positive pair of shape nu one column
    longer on top.  The walk rooted at (2, lam2) moves the root to (1, nu1),
    and the last row-2 entry follows it, so the push is a product of a
    tiling map and a filling map.

    Lemma: a shape nu with at most two rows has exactly one positive tiling,
    of type nu, and if it has two rows, exactly one negative tiling, of type
    (nu1 + 1, nu2 - 1).  By `_outer_rim_strips` the strip holding the bottom
    column-1 cell either stops at the end of row 2 (positive, leaving row 1)
    or climbs into row 1 (negative, leaving one row of nu2 - 1), and one row
    is tiled only one way.  So the census takes each nu, with its one source
    lam, checks the lemma on both, and checks each certificate once per
    shape or once per filling:

    - "moved entry broke a filling": every filling of lam, moved, must be in
      the list of fillings of nu, so every image is a census pair, and the
      moved fillings must be distinct.
    - Image test: a filling of nu is predicted to be hit exactly when nu has
      a row-1 overhang of at least 2 and the entry over the end of row 2 is
      above the last row-1 entry in the order.  The moved fillings must be
      exactly the predicted ones, and if any moved, the push must end on the
      positive tiling of nu.  A failure is a counterexample to the
      characterization and is raised, not patched.
    - Self-inverse: the pull, the walk rooted at (1, nu1), must return the
      negative tiling.  Moving the last row-1 entry back to row 2 undoes the
      move for every filling, so that half cannot fail and is not checked.

    For a product map these checks say the same as checking every pair; only
    the lists of pairs returned grow with tilings times fillings.
    """
    if not poset.elements:
        raise ValueError("empty poset")
    if height(poset) > 2:
        raise ValueError("order height must be at most 2")
    # every shape with at most two rows, with its tilings and fillings; each
    # is followed by (nu1 - 1, nu2 + 1), the source of its pushes, if any
    shapes = [
        (lam, enumerate_srht_all_types(lam), enumerate_p_tableaux(poset, lam))
        for lam in enumerate_partitions(len(poset.elements))
        if len(lam) <= 2
    ]
    matched: list[tuple[PairST, PairST]] = []
    fixed: list[PairST] = []
    coeffs: dict[Partition, int] = {}
    for (nu, tilings, fillings), (lam, sources, moving) in zip(
        shapes, shapes[1:] + [((), [], [])]
    ):
        nu2 = nu[1] if len(nu) > 1 else 0
        valid = set(fillings)
        moved: dict[Rows, Rows] = {}  # moved filling -> filling of lam
        for rows in moving:
            row2 = rows[1][:-1]
            rows2 = (rows[0] + (rows[1][-1],),) + ((row2,) if row2 else ())
            if rows2 not in valid:
                raise RuntimeError(f"moved entry broke a filling on {lam}: {rows}")
            moved[rows2] = rows
        if len(moved) < len(moving):
            raise RuntimeError("two negative pairs map to the same positive pair")
        unhit = []
        for rows in fillings:
            p = nu[0] > nu2 + 1 and poset.lt(rows[0][nu2], rows[0][-1])
            if p != (rows in moved):
                raise _counterexample(nu, rows, p)
            if not p:
                unhit.append(rows)

        t = _only_tiling(nu, tilings, 1)
        if lam:
            s = _only_tiling(lam, sources, -1)
            if moved:
                if _walk_partner(s, (2, lam[1]), (1, nu[0])) != t:
                    raise _counterexample(nu, next(iter(moved)), True)
                if _walk_partner(t, (1, nu[0]), (2, nu2 + 1)) != s:
                    raise RuntimeError("matching is not self-inverse")
                matched.extend(((s, rows), (t, rows2)) for rows2, rows in moved.items())
        fixed.extend((t, rows) for rows in unhit)
        if unhit:
            coeffs[nu] = len(unhit)

    total = sum(len(tilings) * len(fillings) for _, tilings, fillings in shapes)
    return SSCensus(total, tuple(matched), tuple(fixed), coeffs)


# --- the full expansion -------------------------------------------------------

@dataclass(frozen=True)
class CsfResult:
    s_expansion: SymFuncExpansion
    e_expansion: SymFuncExpansion
    poset: Poset

    @cached_property
    def pair_census(self) -> SSCensus | None:
        """The census of `poset`, built the first time it is read; None for
        the empty poset and above height 2."""
        if not self.poset.elements or height(self.poset) > 2:
            return None
        return stanley_stembridge_involution(self.poset)

    def to_json(self) -> dict:
        return {
            "s": self.s_expansion.to_json(),
            "e": self.e_expansion.to_json(),
            "census": None if self.pair_census is None else self.pair_census.to_json(),
        }


def _fill_counts(below, above, elements: int) -> dict[Partition, int]:
    """Gasharov's counts: the fillings by the elements of the mask
    `elements`, per shape, for the shapes with a nonzero count."""
    m = elements.bit_count()
    h = _peel(below, elements, m)
    count = _p_tableau_counter(below, above, elements)
    return {
        lam: f
        for lam in enumerate_partitions(m)
        if len(lam) <= h  # a column must be a chain
        if (f := count(lam))
    }


def p_tableau_counts(poset: Poset) -> dict[Partition, int]:
    """The number of P-tableaux of each shape of weight |P|, for the shapes
    with a nonzero count, from one counter over the whole order with no
    split into components; by Gasharov, the coefficient of s at the
    conjugate shape in X_P."""
    _, below, above = poset._order
    return _fill_counts(below, above, (1 << len(below)) - 1)


def _e_of_fills(fills: dict[Partition, int], m: int) -> dict[Partition, int]:
    """The e-expansion whose s-coefficient at conjugate(lam) is fills[lam],
    read through the signed hook-count matrix of weight m."""
    inv = inverse_kostka_matrix(m)
    column = {lam: j for j, lam in enumerate(inv.order)}
    filled = [(column[lam], f) for lam, f in fills.items()]
    e = {mu: sum(row[j] * f for j, f in filled) for mu, row in zip(inv.order, inv.rows)}
    return {mu: c for mu, c in e.items() if c}


def csf(poset: Poset) -> CsfResult:
    """Chromatic symmetric function of the incomparability graph, in the
    Schur and elementary bases; needs a (3+1)-free order.  Each component
    of the incomparability graph gives its e-expansion from its own
    fillings, the product joins them, and s is read from e through K (the
    module docstring states the lemma).

    No census is built here: the result builds it, over the whole order,
    when `pair_census` is first read, so a census counterexample surfaces
    only in its readers (`ss-involution`, `csf --format json` and
    `corpus`)."""
    if not is_ab_free(poset, 3, 1):
        raise ValueError("expansion requires a (3+1)-free order")
    n = len(poset.elements)
    _, below, above = poset._order
    e_coeffs: dict[Partition, int] = {(): 1}
    for part in _summands(below, above):
        factor = _e_of_fills(_fill_counts(below, above, part), part.bit_count())
        joined: dict[Partition, int] = {}
        for mu, c in e_coeffs.items():
            for nu, d in factor.items():
                key = tuple(sorted(mu + nu, reverse=True))
                joined[key] = joined.get(key, 0) + c * d
        e_coeffs = joined
    kostka = kostka_matrix(n)
    columns = [(kostka.index(mu), c) for mu, c in e_coeffs.items()]
    s_coeffs = {
        conjugate(lam): f
        for lam, row in zip(kostka.order, kostka.rows)
        if (f := sum(row[j] * c for j, c in columns))
    }
    return CsfResult(
        SymFuncExpansion("s", s_coeffs, n),
        SymFuncExpansion("e", e_coeffs, n),
        poset,
    )


# --- exhaustive small-poset generation ---------------------------------------

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def _order_ideals(poset: Poset) -> list[int]:
    """Masks of the down-closed sets of elements, in increasing order."""
    _, below, _ = poset._order
    return [
        mask
        for mask in range(1 << len(below))
        if not any(below[i] & ~mask for i in _bits(mask))
    ]


def _rank(values) -> list[int]:
    table = {v: i for i, v in enumerate(sorted(set(values)))}
    return [table[v] for v in values]


def canonical_form(poset: Poset) -> tuple:
    """Isomorphism-invariant key: minimal relation matrix over relabelings
    compatible with an iterated degree refinement."""
    _, below, above = poset._order
    n = len(below)
    color = _rank([(below[i].bit_count(), above[i].bit_count()) for i in range(n)])
    while True:
        refined = _rank(
            [
                (
                    color[i],
                    tuple(sorted(color[j] for j in _bits(below[i]))),
                    tuple(sorted(color[j] for j in _bits(above[i]))),
                )
                for i in range(n)
            ]
        )
        if refined == color:
            break
        color = refined
    classes: dict[int, list[int]] = {}
    for i, c in enumerate(color):
        classes.setdefault(c, []).append(i)
    blocks = [classes[c] for c in sorted(classes)]
    best = None
    for arrangement in itertools.product(
        *(itertools.permutations(b) for b in blocks)
    ):
        perm = [i for block in arrangement for i in block]
        mat = tuple(above[i] >> j & 1 == 1 for i in perm for j in perm)
        if best is None or mat < best:
            best = mat
    return (n, best)


@lru_cache(maxsize=None)
def enumerate_posets(n: int) -> tuple[Poset, ...]:
    """All posets on n elements up to isomorphism, built by repeatedly
    adjoining a maximal element above each order ideal."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return (Poset((), frozenset()),)
    if n > len(_ALPHABET):
        raise ValueError("poset enumeration is a desk-scale tool")
    labels = tuple(_ALPHABET[:n])
    new = labels[-1]
    out: dict[tuple, Poset] = {}
    for base in enumerate_posets(n - 1):
        old = base._order[0]
        for ideal in _order_ideals(base):
            less = set(base.less) | {(old[i], new) for i in _bits(ideal)}
            candidate = Poset(labels, frozenset(less))
            key = canonical_form(candidate)
            if key not in out:
                out[key] = candidate
    return tuple(out.values())
