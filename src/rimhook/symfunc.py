"""Exact partition-indexed matrices and symmetric-function expansions.

The tableau-count matrix is upper unitriangular in the canonical
(reverse-lexicographic) order; its inverse is assembled entry-by-entry
from signed special rim-hook tableaux, never by numerical inversion.
Both matrices count their tableaux by recursion instead of building them,
and each build computes every fact once, in tables that live for that
build only.  K reads one table of horizontal strips keyed by (shape, strip
size), filled on first use.  K⁻¹ carries each hook-size type as one packed
int (`_pack_type`), so adding a hook adds a constant instead of sorting a
tuple.  K is tested against the semistandard enumerator in `tableaux`; K⁻¹
shares its strip step with the tilings' lister there, which the tests check
against a search over every up/right walk.
Expansions carry exact integer coefficients in the e, s, or m basis.
"""

from __future__ import annotations

import io
import csv as _csv
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, factorial

from .involution import enumerate_standard_pairs, outer_involution
from .partitions import (
    Partition,
    check_partition,
    conjugate,
    enumerate_partitions,
    format_partition,
)
from .tableaux import _outer_rim_strips, _unchecked


@dataclass(frozen=True)
class PartitionMatrix:
    """Square integer matrix indexed both ways by the partitions of n in
    canonical order."""

    n: int
    order: tuple[Partition, ...]
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        p = len(self.order)
        if len(self.rows) != p or any(len(r) != p for r in self.rows):
            raise ValueError("matrix is not square against its index")

    def index(self, part) -> int:
        return self.order.index(tuple(part))

    def entry(self, row_part, col_part) -> int:
        return self.rows[self.index(row_part)][self.index(col_part)]

    def matmul(self, other: "PartitionMatrix") -> "PartitionMatrix":
        if self.order != other.order:
            raise ValueError("matrices indexed by different orders")
        cols = tuple(zip(*other.rows))
        prod = tuple(
            tuple(sum(map(operator.mul, row, col)) for col in cols)
            for row in self.rows
        )
        return PartitionMatrix(self.n, self.order, prod)

    @property
    def is_identity(self) -> bool:
        return all(
            v == (1 if i == j else 0)
            for i, row in enumerate(self.rows)
            for j, v in enumerate(row)
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = _csv.writer(buf, lineterminator="\n")
        labels = [format_partition(p) for p in self.order]
        w.writerow([""] + labels)
        for label, row in zip(labels, self.rows):
            w.writerow([label] + list(row))
        return buf.getvalue()

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "order": [format_partition(p) for p in self.order],
            "rows": [list(r) for r in self.rows],
        }


def _horizontal_strips(lam: Partition, size: int):
    """Every nu inside lam such that lam/nu is a horizontal strip of `size`
    cells: row i keeps between lam[i+1] and lam[i] cells."""
    floors = lam[1:] + (0,)
    nu = list(lam)

    def take(i: int, left: int):
        if left == 0:
            yield tuple(x for x in nu if x)
            return
        if i == len(lam):
            return
        for d in range(min(left, lam[i] - floors[i]), -1, -1):
            nu[i] = lam[i] - d
            yield from take(i + 1, left - d)
        nu[i] = lam[i]

    yield from take(0, size)


def _kostka_count(lam: Partition, mu: Partition, memo: dict, strips: dict) -> int:
    """Semistandard fillings of lam with content mu, counted by peeling the
    horizontal strip that holds the largest entry, len(mu).  `strips` maps
    (shape, size) to that shape's strips of that size, listed on first use,
    so each pair is listed once however many contents reach it."""
    if len(lam) > len(mu):
        return 0
    if not mu:
        return 1
    key = (lam, mu)
    count = memo.get(key)
    if count is None:
        skey = (lam, mu[-1])
        nus = strips.get(skey)
        if nus is None:
            nus = strips[skey] = tuple(_horizontal_strips(*skey))
        rest = mu[:-1]
        count = memo[key] = sum(_kostka_count(nu, rest, memo, strips) for nu in nus)
    return count


@lru_cache(maxsize=None)
def kostka_matrix(n: int) -> PartitionMatrix:
    """Entry (shape, content): number of semistandard fillings."""
    order = enumerate_partitions(n)
    memo: dict = {}
    strips: dict = {}
    rows = tuple(
        tuple(_kostka_count(lam, mu, memo, strips) for mu in order) for lam in order
    )
    return PartitionMatrix(n, order, rows)


def _pack_type(typ: Partition, width: int) -> int:
    """The hook-size type `typ` as one int: the multiplicity of part s in
    the `width`-bit field at bit width * s."""
    return sum(1 << (width * part) for part in typ)


def _srht_type_counts(shape: Partition, memo: dict, width: int) -> tuple[tuple[int, int], ...]:
    """Signed count of the special rim-hook tableaux of `shape`, per type,
    as (packed type, count) pairs with nonzero counts.

    Eğecioğlu–Remmel's recursion over `tableaux._outer_rim_strips`: the hook
    whose tail is the bottom column-1 cell ends at the end of row `top`,
    has `size` cells and sign (-1)^(rows spanned - 1), and leaves nu.
    A type is packed by `_pack_type`, so adding a hook of size s adds
    1 << width * s.  No multiplicity exceeds the weight n of the build, so
    with width = n.bit_length() no field carries into the next, and two
    types are equal exactly when their packings are.  The caller owns
    `memo`, which holds packings of one width, so no count outlives it.
    """
    if not shape:
        return ((0, 1),)
    counts = memo.get(shape)
    if counts is None:
        ell = len(shape)
        acc: dict[int, int] = {}
        for top, size, nu in _outer_rim_strips(shape):
            step = 1 << (width * size)
            sign = -1 if (ell - 1 - top) % 2 else 1
            for typ, c in _srht_type_counts(nu, memo, width):
                key = typ + step
                acc[key] = acc.get(key, 0) + sign * c
        counts = memo[shape] = tuple((typ, c) for typ, c in acc.items() if c)
    return counts


def _inverse_kostka_entry(shape: Partition, typ: Partition) -> int:
    """K⁻¹(typ, shape) from the recursion for the column of `shape` alone,
    with a memo that lives for this call; `typ` is packed, so nothing is
    unpacked."""
    width = sum(shape).bit_length()
    return dict(_srht_type_counts(shape, {}, width)).get(_pack_type(typ, width), 0)


@lru_cache(maxsize=None)
def inverse_kostka_matrix(n: int) -> PartitionMatrix:
    """Entry (type, shape): signed count of special rim-hook tableaux."""
    order = enumerate_partitions(n)
    width = n.bit_length()
    row_of = {_pack_type(p, width): i for i, p in enumerate(order)}
    grid = [[0] * len(order) for _ in order]
    memo: dict = {}
    for j, lam in enumerate(order):
        for typ, c in _srht_type_counts(lam, memo, width):
            grid[row_of[typ]][j] = c
    return PartitionMatrix(n, order, tuple(tuple(r) for r in grid))


@dataclass(frozen=True)
class PairCensus:
    """Cancellation bookkeeping for one hook-size type."""

    pairs: int
    cycles: int
    fixed: int
    signed_sum: int


@dataclass(frozen=True)
class VerificationReport:
    n: int
    left_identity: bool            # K . K^-1 = I
    right_identity: bool           # K^-1 . K = I
    involution_consistent: bool
    last_column: dict[Partition, PairCensus] = field(compare=False)

    @property
    def ok(self) -> bool:
        return self.left_identity and self.right_identity and self.involution_consistent

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "left_identity": self.left_identity,
            "right_identity": self.right_identity,
            "involution_consistent": self.involution_consistent,
            "last_column": {
                format_partition(mu): {
                    "pairs": c.pairs,
                    "cycles": c.cycles,
                    "fixed": c.fixed,
                    "signed_sum": c.signed_sum,
                }
                for mu, c in self.last_column.items()
            },
        }


def verify_identities(n: int) -> VerificationReport:
    """Both matrix products, plus pair cancellation against the standard
    column, all in exact arithmetic."""
    k = kostka_matrix(n)
    k_inv = inverse_kostka_matrix(n)
    left = k.matmul(k_inv).is_identity
    right = k_inv.matmul(k).is_identity

    ones = (1,) * n
    census: dict[Partition, PairCensus] = {}
    consistent = True
    for mu in enumerate_partitions(n):
        pairs = enumerate_standard_pairs(mu)
        signed = sum(s.sign for s, _ in pairs)
        cycles = fixed = 0  # as found: partners met, and pairs that map to themselves
        if mu == ones:
            fixed = len(pairs)
            consistent &= len(pairs) == 1 and signed == 1
        else:
            seen = set()
            for s, t in pairs:
                key = (s, t.rows)
                if key in seen:
                    continue
                s2, t2 = outer_involution(s, t)
                s3, t3 = outer_involution(s2, t2)
                loop = (s2, t2) == (s, t)
                fixed += loop
                cycles += not loop
                if loop or (s3, t3) != (s, t) or s2.sign != -s.sign:
                    consistent = False
                seen.add(key)
                seen.add((s2, t2.rows))
            consistent &= len(pairs) % 2 == 0 and signed == 0
        census[mu] = PairCensus(len(pairs), cycles, fixed, signed)
    return VerificationReport(n, left, right, consistent, census)


@dataclass(frozen=True)
class SymFuncExpansion:
    """Exact integer coefficients on partitions of one weight, in a named
    basis ("e", "s", or "m"); zero coefficients are never stored."""

    basis: str
    coeffs: dict[Partition, int] = field(compare=True)
    weight: int

    def __post_init__(self):
        if self.basis not in ("e", "s", "m"):
            raise ValueError(f"unknown basis {self.basis!r}")
        if self.weight < 0:
            raise ValueError(f"weight {self.weight} is negative")
        cleaned = {}
        for part, c in self.coeffs.items():
            part = check_partition(part)
            if sum(part) != self.weight:
                raise ValueError(f"{part} does not have weight {self.weight}")
            if c != 0:
                cleaned[part] = int(c)
        object.__setattr__(self, "coeffs", cleaned)

    def __getitem__(self, part) -> int:
        return self.coeffs.get(tuple(part), 0)

    def terms(self) -> list[tuple[Partition, int]]:
        """Coefficients in canonical partition order: among partitions of
        one weight, reverse-lexicographic is descending tuple order."""
        return sorted(self.coeffs.items(), reverse=True)

    def is_positive(self) -> bool:
        return all(c >= 0 for c in self.coeffs.values())

    def format_text(self) -> str:
        parts = []
        for p, c in self.terms():
            parts.append((c, f"{abs(c)} {self.basis}{format_partition(p)}"))
        if not parts:
            return "0"
        out = [parts[0][1] if parts[0][0] > 0 else "-" + parts[0][1]]
        for c, txt in parts[1:]:
            out.append((" + " if c > 0 else " - ") + txt)
        return "".join(out)

    def to_json(self) -> dict:
        return {
            "basis": self.basis,
            "weight": self.weight,
            "coeffs": {format_partition(p): c for p, c in self.terms()},
        }


def schur_to_e(lam) -> SymFuncExpansion:
    """e-expansion of the Schur function on the conjugate of `lam`, read
    off one column of the signed hook-count matrix."""
    lam = check_partition(lam)
    n = sum(lam)
    inv = inverse_kostka_matrix(n)
    j = inv.index(lam)
    coeffs = {mu: c for mu, row in zip(inv.order, inv.rows) if (c := row[j])}
    return _unchecked(SymFuncExpansion, "e", coeffs, n)


def _eval_e_ones(mu: Partition, k: int) -> int:
    out = 1
    for part in mu:
        out *= comb(k, part)
    return out


def _eval_m_ones(mu: Partition, k: int) -> int:
    ell = len(mu)
    if ell > k:
        return 0
    out = 1
    for i in range(ell):
        out *= k - i
    for part in set(mu):
        out //= factorial(mu.count(part))
    return out


def evaluate_at_ones(f: SymFuncExpansion, k: int) -> int:
    """Value of the expansion with k variables set to 1, exact."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    total = 0
    for part, c in f.coeffs.items():
        if f.basis == "e":
            total += c * _eval_e_ones(part, k)
        elif f.basis == "m":
            total += c * _eval_m_ones(part, k)
        else:
            total += c * evaluate_at_ones(schur_to_e(conjugate(part)), k)
    return total
