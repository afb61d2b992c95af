"""Command-line front end: every library operation behind one binary.

Exit codes: 0 success, 1 domain error (bad mathematical input), 2 flag
parse error.  All output is deterministic for fixed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections import Counter
from pathlib import Path

from .involution import (
    RootedTableau,
    inner_involution,
    outer_involution,
    trace_to_json,
)
from .partitions import conjugate, format_partition, parse_partition
from .posets import (
    Poset,
    chromatic_polynomial_value,
    csf,
    height,
    incomparability_graph,
    is_ab_free,
    enumerate_posets,
    largest_summand,
    p_tableau_counts,
    read_poset,
    stanley_stembridge_involution,
)
from .symfunc import (
    _inverse_kostka_entry,
    evaluate_at_ones,
    inverse_kostka_matrix,
    kostka_matrix,
    verify_identities,
)
from .tableaux import (
    SemistandardTableau,
    SpecialRimHookTableau,
    _count_srht,
    _json_fields,
    enumerate_srht,
    enumerate_ssyt,
    render_filling,
    render_hooks,
)


# Admission bounds on n, each the largest n whose command, output included,
# finished in about 10 s on a 2-core machine (Python 3.11): `kostka --n 22`
# took 6.1 to 9.5 s in eleven runs, as text or JSON (349 MiB), with the
# one-minute load average at 0.4 to 1.1, and n = 23 took 15.5 s
# (450 MiB); `kostka --n 19` takes 1.9 s (75 MiB), and the inverse is faster
# (`inv-kostka --n 22`, 1.1 to 1.2 s as text and 1.3 to 1.4 s as JSON,
# 109 MiB);
# `verify --n 8` took 3.2 s and n = 9 took 17 s, since it still builds every
# (tableau, standard filling) pair; `inv-kostka --shape --type` counts one
# column of K^-1, and the shapes with parts of at most 3, mostly 2, are the
# slowest of their weight: at weight 50, 2^25 took 7.7 to 8.7 s (434 MiB)
# and 1^50 only 3.1 to 4.6 s; [3,2^24], at 51, took 9.2 to 10.2 s
# (509 MiB), and 2^26, at 52, 12.4 s (610 MiB).
# `kostka --shape --content` enumerates its entry's fillings, and content 1^n
# is the slowest of its weight since K(λ,μ) ≤ f^λ: `[6,4,2,1,1]`, the largest
# f^λ of weight 14 (69,498), took 3.6 s, and `[5,4,3,2,1]` (292,864 at
# weight 15) took 22 s.
# `corpus --max-elements 8` takes about 90 s, but n = 9 would grow all
# 183,231 posets on 9 elements, so 8 is the bound there.
# `csf` counts the fillings of each component of the incomparability graph
# alone and joins their e-expansions, so MAX_POSET_N bounds the largest
# component, the connected unit interval order with i < j when j > i + 1
# being the slowest found at 12 elements (0.6 to 0.8 s cold; connected
# orders of height 2 or 3 took under 0.1 s).  The total is bounded by
# MAX_CSF_N, counted before the closure, since the Schur coefficients are
# read through kostka_matrix(n), built cold: as JSON, that order plus a
# 9-chain, 21 elements, took 5.1 to 6.2 s (196 MiB) and a 21-chain 4.2 to
# 6.0 s (190 MiB), while with a 10-chain, 22 elements, it took 8.6 to
# 10.0 s (353 MiB), at the 10 s limit.  A 20-chain takes 2.5 to 2.9 s, and
# a 13-chain, refused when the whole order was filled at once (12.3 s),
# takes 0.13 s.
# At height ≤ 2 `ss-involution` and `csf --format json` build the census,
# whose fillings grow like n!.  On a 9-element antichain (362,880 pairs)
# `csf` took 4.6 to 7.2 s as JSON, and `ss-involution` 1.6 to 2.0 s as text
# and 4.9 to 6.1 s as JSON; text peaked at 125 MiB and JSON at 353 MiB
# (49 MB printed).  10 elements took 21 s and 990 MiB as text.  `csf` as
# text builds no census, so the bounds above alone bound it: at height 2,
# the 12-element antichain took 0.15 to 0.18 s, the ordinal sum of two
# 6-element antichains 0.23 s, and the 9-element antichain 0.11 s.
# `ab-free` closes its file's order, quadratic in the names, and with
# min(a, b) = 2 lists every 2-chain: on a 2000-element chain `--a 2 --b 2`
# took 8.4 to 10.3 s (624 MiB) and `--a 3 --b 1` 5.5 to 6.1 s (206 MiB);
# a 2250-element chain took 12.0 s (902 MiB) at `--a 2 --b 2`.  It lists at
# most C(names, min(a, b)) chains, as many as a chain has, and refuses more
# than MAX_AB_FREE_CHAINS before closing the order, which admits every
# 2-chain of 2000 names: at that cap, chains of 289 names at `--a 3 --b 3`
# took 5.7 to 7.2 s (281 MiB), 100 names at 4 and 4 took 6.5 s, 56 at 5 and
# 5 7.8 s, 40 at 6 and 6 8.0 s, and 28 at 8 and 8 7.3 s.  The cap is kept
# round, below the 4,455,100 3-chains of 300 names (6.7 to 7.2 s, 314 MiB),
# for a machine shared with other load.
# `trace --shape --type` lists every tiling of its shape, and 1^n has the
# most of its weight, 2^(n-1): `trace --shape 1^18` took 7.8 s (74 MiB) and
# 1^19 took 17 s (133 MiB).  So it lists at most as many as 1^MAX_TRACE_N
# has, counted first by the strip recursion at weight at most MAX_ENTRY_N,
# the weight that recursion takes in `inv-kostka --shape` (counting 1^50
# took 3 ms, 2^25 15 ms and [3^16,2] 21 ms); a heavier shape with fewer
# tilings, such as [12,10,8,6,4,2] with 360, is answered.
MAX_MATRIX_N = 22
MAX_VERIFY_N = 8
MAX_ENTRY_N = 50
_MAX_CONTENT_N = 14
MAX_CORPUS_N = 8
MAX_POSET_N = 12
MAX_CSF_N = 21
MAX_CENSUS_N = 9
MAX_TRACE_N = 18
MAX_AB_FREE_N = 2000
MAX_AB_FREE_CHAINS = 4_000_000


def _admit_n(n: int, bound: int, flag: str = "--n") -> int:
    if n > bound:
        raise ValueError(f"n = {n} is beyond this command's bound: {flag} must be at most {bound}")
    return n


def _parse_cell(text: str) -> tuple[int, int]:
    body = text.strip().strip("[]()")
    parts = [p for p in body.replace(",", " ").split() if p]
    if len(parts) != 2:
        raise ValueError(f"expected a cell `i,j`, got {text!r}")
    return int(parts[0]), int(parts[1])


def _load_poset(path: str, census: bool) -> Poset:
    """The poset in `path` if `csf` and `ss-involution` take it: at most
    MAX_CSF_N elements, counted before the closure is built; at most
    MAX_POSET_N in each component of its incomparability graph, the orders
    whose fillings `csf` counts; and, if the command builds a census, at
    most MAX_CENSUS_N at height ≤ 2."""
    elements, relations = read_poset(Path(path).read_text())
    n = _admit_n(len(elements), MAX_CSF_N, "the number of elements")
    poset = Poset.from_relations(elements, relations)
    _admit_n(largest_summand(poset), MAX_POSET_N,
             "the number of elements in one incomparability component")
    if census and n > MAX_CENSUS_N and height(poset) <= 2:
        _admit_n(n, MAX_CENSUS_N, "the number of elements at height <= 2")
    return poset


def _emit(payload_fn, fmt: str, text_fn):
    """Print `payload_fn()` as JSON on one line, with no spaces between
    items, or `text_fn()` as text; only the chosen one is built."""
    if fmt == "json":
        print(json.dumps(payload_fn(), separators=(",", ":")))
    else:
        print(text_fn())


def _cmd_kostka(args) -> int:
    if args.shape and args.content:
        shape, content = parse_partition(args.shape), parse_partition(args.content)
        _admit_n(sum(shape), _MAX_CONTENT_N, "the weight of --shape")
        print(len(enumerate_ssyt(shape, content)))
        return 0
    if args.n is None:
        raise ValueError("need --n, or --shape with --content")
    m = kostka_matrix(_admit_n(args.n, MAX_MATRIX_N))
    _emit(m.to_json, args.format, lambda: m.to_csv().rstrip("\n"))
    return 0


def _cmd_inv_kostka(args) -> int:
    if args.shape and args.type:
        shape, typ = parse_partition(args.shape), parse_partition(args.type)
        if sum(shape) != sum(typ):
            raise ValueError("shape and type have different weights")
        _admit_n(sum(shape), MAX_ENTRY_N, "the weight of --shape")
        print(_inverse_kostka_entry(shape, typ))
        return 0
    if args.n is None:
        raise ValueError("need --n, or --shape with --type")
    m = inverse_kostka_matrix(_admit_n(args.n, MAX_MATRIX_N))
    _emit(m.to_json, args.format, lambda: m.to_csv().rstrip("\n"))
    return 0


def _cmd_verify(args) -> int:
    report = verify_identities(_admit_n(args.n, MAX_VERIFY_N))

    def text() -> str:
        lines = [
            f"n = {report.n}",
            f"K . K^-1 = I: {report.left_identity}",
            f"K^-1 . K = I: {report.right_identity}",
            f"pair matching consistent: {report.involution_consistent}",
            "standard-column cancellation by type:",
        ]
        for mu, c in report.last_column.items():
            lines.append(
                f"  {format_partition(mu)}: pairs={c.pairs} cycles={c.cycles} "
                f"fixed={c.fixed} signed_sum={c.signed_sum}"
            )
        return "\n".join(lines)

    _emit(report.to_json, args.format, text)
    return 0 if report.ok else 1


def _load_pair(path: str) -> tuple[SpecialRimHookTableau, SemistandardTableau]:
    tableau, filling = _json_fields(json.loads(Path(path).read_text()), "tableau", "filling")
    return (
        SpecialRimHookTableau.from_json(tableau),
        SemistandardTableau.from_json(filling),
    )


def _cmd_involve(args) -> int:
    s, t = _load_pair(args.pair)
    s2, t2 = outer_involution(s, t)

    def text() -> str:
        return "\n".join(
            [
                f"input  (sign {s.sign:+d}):",
                render_hooks(s.hooks),
                render_filling(t),
                f"output (sign {s2.sign:+d}):",
                render_hooks(s2.hooks),
                render_filling(t2),
            ]
        )

    def payload() -> dict:
        return {
            "input": {"tableau": s.to_json(), "filling": t.to_json(), "sign": s.sign},
            "output": {"tableau": s2.to_json(), "filling": t2.to_json(), "sign": s2.sign},
        }

    _emit(payload, args.format, text)
    return 0


def _trace_start(args) -> RootedTableau:
    if args.input:
        return RootedTableau.from_json(json.loads(Path(args.input).read_text()))
    if not (args.shape and args.type and args.root):
        raise ValueError("need --input, or --shape/--type/--root")
    shape = parse_partition(args.shape)
    _admit_n(sum(shape), MAX_ENTRY_N, "the weight of --shape")
    _admit_n(_count_srht(shape), 2 ** (MAX_TRACE_N - 1), "the number of tilings of --shape")
    typ = parse_partition(args.type)
    root = _parse_cell(args.root)
    tableaux = enumerate_srht(shape, typ)
    if not (0 <= args.index < len(tableaux)):
        raise ValueError(
            f"--index {args.index} out of range: {len(tableaux)} tableaux of "
            f"shape {format_partition(shape)} and type {format_partition(typ)}"
        )
    s = tableaux[args.index]
    owners = [k for k, h in enumerate(s.hooks) if root in h]
    if not owners:
        raise ValueError(f"root {root} is not a cell of shape {format_partition(shape)}")
    return RootedTableau(s.shape, s.hooks, root, owners[0])


def _cmd_trace(args) -> int:
    start = _trace_start(args)
    final, trace = inner_involution(start)

    def text() -> str:
        blocks = []
        for i, (state, cls) in enumerate(trace):
            label = "terminal" if i == len(trace) - 1 else f"{cls.rule} ({cls.value})"
            blocks.append(f"step {i}  [{label}]")
            blocks.append(state.render())
            blocks.append("")
        blocks.append(f"sign {trace[0][0].sign:+d} -> {final.sign:+d}")
        return "\n".join(blocks)

    _emit(lambda: trace_to_json(trace), args.format, text)
    return 0


def _cmd_csf(args) -> int:
    # only the JSON form reads `pair_census`, and so builds the census
    result = csf(_load_poset(args.poset, census=args.format == "json"))
    _emit(result.to_json, args.format, result.e_expansion.format_text)
    return 0


def _cmd_ss(args) -> int:
    census = stanley_stembridge_involution(_load_poset(args.poset, census=True))

    def text() -> str:
        lines = [
            f"pairs: {census.total_pairs}",
            f"matched 2-cycles: {len(census.matched)}",
            f"fixed points: {len(census.fixed)}",
        ]
        by_shape = Counter(s.shape for s, _ in census.fixed)
        lines.extend(
            f"  shape {key}: {count}"
            for key, count in sorted((format_partition(nu), k) for nu, k in by_shape.items())
        )
        coeff = " + ".join(
            f"{census.coefficients[mu]} e{format_partition(mu)}"
            for mu in sorted(census.coefficients, reverse=True)
        )
        lines.append(f"coefficients: {coeff}")
        return "\n".join(lines)

    _emit(census.to_json, args.format, text)
    return 0


def _cmd_ab_free(args) -> int:
    if args.a < 1 or args.b < 1:
        raise ValueError("chain sizes must be positive")
    elements, relations = read_poset(Path(args.poset).read_text())
    _admit_n(len(elements), MAX_AB_FREE_N, "the number of elements")
    # the chains listed are those of size min(a, b), at most C(names, size)
    size = min(args.a, args.b)
    _admit_n(math.comb(len(elements), size), MAX_AB_FREE_CHAINS,
             f"the number of {size}-element chains it may list, C({len(elements)}, {size}),")
    poset = Poset.from_relations(elements, relations)
    print("true" if is_ab_free(poset, args.a, args.b) else "false")
    return 0


def _cmd_corpus(args) -> int:
    max_n = _admit_n(args.max_elements, MAX_CORPUS_N, "--max-elements")
    summary = []
    for n in range(1, max_n + 1):
        posets = enumerate_posets(n)
        free = [p for p in posets if is_ab_free(p, 3, 1)]
        low = [p for p in free if height(p) <= 2]
        failures = 0
        positive = 0
        for poset in free:
            result = csf(poset)
            # csf multiplies over the components of the incomparability
            # graph and reads s through K; by Gasharov its Schur
            # coefficients are the fillings of the whole order, unsplit
            fills = p_tableau_counts(poset)
            if {conjugate(lam): f for lam, f in fills.items()} != result.s_expansion.coeffs:
                failures += 1
            graph = incomparability_graph(poset)
            for k in range(1, 5):
                if evaluate_at_ones(result.e_expansion, k) != chromatic_polynomial_value(graph, k):
                    failures += 1
            # every (3+1)-free order is e-positive (Stanley-Stembridge,
            # proved by Hikita), so a negative coefficient is a pipeline bug
            e_positive = result.e_expansion.is_positive()
            if not e_positive:
                failures += 1
            if height(poset) <= 2:
                if result.pair_census is None or dict(result.pair_census.coefficients) != dict(
                    result.e_expansion.coeffs
                ):
                    failures += 1
                if e_positive:
                    positive += 1
        summary.append(
            {
                "n": n,
                "posets": len(posets),
                "three_plus_one_free": len(free),
                "height_le_2": len(low),
                "e_positive_height_le_2": positive,
                "failures": failures,
            }
        )

    def text() -> str:
        lines = []
        for row in summary:
            lines.append(
                f"n={row['n']}: posets={row['posets']} "
                f"(3+1)-free={row['three_plus_one_free']} "
                f"height<=2={row['height_le_2']} "
                f"e-positive={row['e_positive_height_le_2']}/{row['height_le_2']} "
                f"failures={row['failures']}"
            )
        total_free = sum(r["three_plus_one_free"] for r in summary)
        total_fail = sum(r["failures"] for r in summary)
        lines.append(f"total (3+1)-free posets: {total_free}")
        lines.append("all checks passed" if total_fail == 0 else f"FAILURES: {total_fail}")
        return "\n".join(lines)

    _emit(lambda: summary, args.format, text)
    return 0 if all(r["failures"] == 0 for r in summary) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: `parse_args` returns a fresh
    namespace on each call, so `main` may serve many requests with it."""
    parser = argparse.ArgumentParser(
        prog="rimhook",
        description="Signed rim-hook tableaux, inverse Kostka matrices, and "
        "chromatic symmetric functions, all in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("kostka", help="tableau-count matrix, or one entry")
    p.add_argument("--n", type=int)
    p.add_argument("--shape")
    p.add_argument("--content")
    add_format(p)
    p.set_defaults(fn=_cmd_kostka)

    p = sub.add_parser("inv-kostka", help="signed hook-count matrix, or one entry")
    p.add_argument("--n", type=int)
    p.add_argument("--shape")
    p.add_argument("--type")
    add_format(p)
    p.set_defaults(fn=_cmd_inv_kostka)

    p = sub.add_parser("verify", help="matrix identities and pair cancellation")
    p.add_argument("--n", type=int, required=True)
    add_format(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("involve", help="partner of a (tableau, standard filling) pair")
    p.add_argument("--pair", required=True, help="JSON file with tableau and filling")
    add_format(p)
    p.set_defaults(fn=_cmd_involve)

    p = sub.add_parser("trace", help="full rewrite walk from a rooted tableau")
    p.add_argument("--input", help="JSON file with a rooted tableau")
    p.add_argument("--shape")
    p.add_argument("--type")
    p.add_argument("--root", help="cell `i,j`")
    p.add_argument("--index", type=int, default=0, help="which tableau of this shape/type")
    add_format(p)
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("csf", help="chromatic symmetric function of an order's incomparability graph")
    p.add_argument("--poset", required=True)
    add_format(p)
    p.set_defaults(fn=_cmd_csf)

    p = sub.add_parser("ss-involution", help="height-2 pairing census and coefficients")
    p.add_argument("--poset", required=True)
    add_format(p)
    p.set_defaults(fn=_cmd_ss)

    p = sub.add_parser("ab-free", help="check for an induced chain+chain configuration")
    p.add_argument("--poset", required=True)
    p.add_argument("--a", type=int, default=3)
    p.add_argument("--b", type=int, default=1)
    p.set_defaults(fn=_cmd_ab_free)

    p = sub.add_parser("corpus", help="exhaustive small-poset sweep with cross-checks")
    p.add_argument("--max-elements", type=int, default=5)
    add_format(p)
    p.set_defaults(fn=_cmd_corpus)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ValueError, RuntimeError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
