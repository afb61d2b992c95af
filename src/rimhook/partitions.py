"""Integer partitions and their Ferrers diagrams.

Partitions are plain tuples of weakly decreasing positive ints.  Cells are
1-based (row, col) pairs with row 1 at the top, matching English notation.
The canonical ordering used everywhere in this package is reverse
lexicographic: (n) comes first, (1^n) comes last.
"""

from __future__ import annotations

from functools import lru_cache

Partition = tuple[int, ...]
Cell = tuple[int, int]


def check_partition(parts) -> Partition:
    """Normalize to a tuple and reject anything not weakly decreasing positive."""
    p = tuple(parts)
    if any(not isinstance(x, int) or isinstance(x, bool) for x in p):
        raise TypeError(f"parts must be ints: {p!r}")
    if any(x < 1 for x in p):
        raise ValueError(f"parts must be positive integers: {p!r}")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {p!r}")
    return p


@lru_cache(maxsize=None)
def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, reverse-lexicographically: (n) first, (1^n) last."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return ((),)
    out = []
    p = [n]
    while True:
        out.append(tuple(p))
        # locate the last part greater than 1
        i = len(p) - 1
        ones = 0
        while i >= 0 and p[i] == 1:
            ones += 1
            i -= 1
        if i < 0:
            break
        p[i] -= 1
        rem = ones + 1
        p = p[: i + 1]
        # redistribute the remainder greedily; parts stay weakly decreasing
        while rem > 0:
            t = min(p[-1], rem)
            p.append(t)
            rem -= t
    return tuple(out)


@lru_cache(maxsize=None)
def num_partitions(n: int) -> int:
    """p(n), counted part size by part size: after part k, ways[m] is the
    number of partitions of m into parts of at most k."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            ways[m] += ways[m - part]
    return ways[n]


def conjugate(p) -> Partition:
    """Transpose the Ferrers diagram: (3,2,2,1,1) -> (5,3,1)."""
    if not p:
        return ()
    return tuple(sum(1 for part in p if part >= j) for j in range(1, p[0] + 1))


def shape_of_cells(cs) -> Partition:
    """Recover the partition whose diagram is exactly the given cell set.

    Raises ValueError when the cells are not a left-justified staircase of
    contiguous rows starting at row 1.
    """
    cs = set(cs)
    if not cs:
        return ()
    rows: dict[int, set[int]] = {}
    for (i, j) in cs:
        rows.setdefault(i, set()).add(j)
    # distinct positive indices fill 1..m exactly when there are m of them,
    # a test whose cost does not grow with the indices themselves
    height = max(rows)
    if min(rows) < 1 or len(rows) != height:
        raise ValueError("cells do not fill contiguous rows from the top")
    parts = []
    for i in range(1, height + 1):
        width = max(rows[i])
        if min(rows[i]) < 1 or len(rows[i]) != width:
            raise ValueError(f"row {i} is not left-justified")
        parts.append(width)
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError("row lengths are not weakly decreasing")
    return tuple(parts)


# A multiplicity this large could never be a usable partition; refusing it
# keeps "1^99999999999" from allocating the list it names.
_MAX_MULTIPLICITY = 10_000

_FORMS = 'expected "[3,2,1]" or the multiplicity form "1^2 2^2 3"'


def _parse_part(piece: str, token: str) -> int:
    """One positive integer read from `piece`, a part of `token`."""
    try:
        value = int(piece)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"not a positive integer: {piece.strip()!r} in {token!r}; {_FORMS}")
    return value


def parse_partition(text: str) -> Partition:
    """Parse "[3,2,1]" or the multiplicity form "1^2 2^2 3".

    Anything else raises a ValueError naming the offending token.
    """
    s = text.strip()
    if s in ("", "[]", "()"):
        return ()
    if s.startswith("["):
        if not s.endswith("]"):
            raise ValueError(f"unbalanced brackets in {text!r}; {_FORMS}")
        body = s[1:-1].strip()
        if not body:
            return ()
        return check_partition(_parse_part(tok, s) for tok in body.split(","))
    parts: list[int] = []
    for tok in s.split():
        base, caret, mult = tok.partition("^")
        count = _parse_part(mult, tok) if caret else 1
        if count > _MAX_MULTIPLICITY:
            raise ValueError(f"multiplicity in {tok!r} exceeds {_MAX_MULTIPLICITY}")
        parts.extend([_parse_part(base, tok)] * count)
    return check_partition(sorted(parts, reverse=True))


def format_partition(p) -> str:
    return "[" + ",".join(str(x) for x in p) + "]"

