"""The four workloads: inputs from a seed, the timed operations, the checks.

Each workload turns its seed into a fixed list of operations; one pass runs
the list once.  `check` runs only after every timed pass has finished, so it
cannot fill a memo table that a timed operation reads.

Cold and warm.  `kostka_matrix`, `inverse_kostka_matrix`, the tiling cache
behind `enumerate_srht*` and `enumerate_posets` keep their memo tables for
the life of a process.  `matrices` is cold: every pass runs in a fresh
process with no warm-up, because a second build in the same process is a
cache hit.  `walks`, `posets` and `queries` are warm: a long-lived process
answers many calls, so the memo tables are filled before timing starts
(`warm_up`) and every timed pass sees the same state.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# sha256 of json.dumps(inverse_kostka_matrix(13).to_json(), separators=(",", ":"))
KINV13_SHA256 = "1f74d8d3780ebacac8c75215947c01a209acd9a53ab270dfbd50a28da41b85f8"


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    arg: object = None


class Failed:
    """Stands in for the result of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.error = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return False

    __hash__ = None


def _corners(shape) -> list[tuple[int, int]]:
    return [
        (i, shape[i - 1])
        for i in range(1, len(shape) + 1)
        if i == len(shape) or shape[i] < shape[i - 1]
    ]


def _rooted_starts(tableau):
    """(root, active) for every diagram corner that can start a walk."""
    out = []
    for root in _corners(tableau.shape):
        active = next(k for k, h in enumerate(tableau.hooks) if root in h)
        hook = tableau.hooks[active]
        if len(hook) >= 2 and root in hook.permissible_cells():
            out.append((root, active))
    return out


class Workload:
    name = ""
    cold = False

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.ops: list[Op] = self.build(random.Random(f"{self.name}:{seed}"))

    def build(self, rng: random.Random) -> list[Op]:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Fill the memo tables the timed operations read (warm workloads)."""

    def fingerprint(self, op: Op, result):
        """What two passes of the same operation must agree on."""
        return result

    def check(self, results: list) -> list[bool]:
        """One verdict per operation, on one pass's results."""
        raise NotImplementedError

    def properties(self, results: list) -> dict:
        """Measured properties of the generated inputs."""
        return {"ops": len(self.ops), "kinds": dict(Counter(op.kind for op in self.ops))}

    def describe_inputs(self) -> list:
        """A comparable summary of the input list (used by the self-tests)."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class Matrices(Workload):
    name = "matrices"
    cold = True

    def build(self, rng):
        # call through the package at run time, so traced runs see the wrappers
        import rimhook

        built: dict[str, object] = {}

        def step(key, fn):
            def run():
                built[key] = fn()
                return built[key]
            return run

        ops = {
            "K10": Op("kostka_matrix", step("K10", lambda: rimhook.kostka_matrix(10)), 10),
            "Ki10": Op("inverse_kostka_matrix", step("Ki10", lambda: rimhook.inverse_kostka_matrix(10)), 10),
            "Ki13": Op("inverse_kostka_matrix", step("Ki13", lambda: rimhook.inverse_kostka_matrix(13)), 13),
            "K10*Ki10": Op("matmul", lambda: built["K10"].matmul(built["Ki10"]), "K10*Ki10"),
            "Ki10*K10": Op("matmul", lambda: built["Ki10"].matmul(built["K10"]), "Ki10*K10"),
        }
        # the seed sets only the order; each product lands after both factors
        order = ["K10", "Ki10", "Ki13"]
        rng.shuffle(order)
        for prod in ("K10*Ki10", "Ki10*K10"):
            after = max(order.index("K10"), order.index("Ki10")) + 1
            order.insert(rng.randint(after, len(order)), prod)
        self.order = order
        return [ops[k] for k in order]

    def describe_inputs(self):
        return list(self.order)

    def check(self, results):
        by_key = dict(zip(self.order, results))
        products_ok = all(
            not isinstance(by_key[k], Failed) and by_key[k].is_identity
            for k in ("K10*Ki10", "Ki10*K10")
        )
        kinv13 = by_key["Ki13"]
        sha_ok = not isinstance(kinv13, Failed) and hashlib.sha256(
            json.dumps(kinv13.to_json(), separators=(",", ":")).encode()
        ).hexdigest() == KINV13_SHA256
        verdict = {"K10": products_ok, "Ki10": products_ok, "Ki13": sha_ok}
        out = []
        for key in self.order:
            if key in verdict:
                out.append(verdict[key])
            else:
                r = by_key[key]
                out.append(not isinstance(r, Failed) and r.is_identity)
        return out


def _systematic_sample(rng, population: list, k: int) -> list:
    """One uniform draw from each of k equal consecutive blocks."""
    size = len(population)
    return [
        population[rng.randrange(i * size // k, (i + 1) * size // k)]
        for i in range(k)
    ]


class Walks(Workload):
    name = "walks"
    INNER = 999       # rooted tilings at diagram corners, a third each n = 10, 11, 12
    OUTER = 500       # (tiling, standard filling) pairs, half each n = 8, 9

    def build(self, rng):
        import rimhook
        from rimhook import (
            RootedTableau,
            enumerate_partitions,
            enumerate_srht_all_types,
            enumerate_ssyt,
        )

        # populations in enumeration order (by shape), sampled one draw per
        # block, so every seed covers the shapes evenly
        ops = []
        for n in (10, 11, 12):
            starts = [
                (t, root, active)
                for lam in enumerate_partitions(n)
                for t in enumerate_srht_all_types(lam)
                for root, active in _rooted_starts(t)
            ]
            for t, root, active in _systematic_sample(rng, starts, self.INNER // 3):
                state = RootedTableau(t.shape, t.hooks, root, active)
                ops.append(Op("inner", lambda s=state: rimhook.inner_involution(s), state))

        for n in (8, 9):
            tilings = [
                t
                for lam in enumerate_partitions(n)
                for t in enumerate_srht_all_types(lam)
                if t.type != (1,) * n
            ]
            fillings: dict = {}
            for t in _systematic_sample(rng, tilings, self.OUTER // 2):
                if t.shape not in fillings:
                    fillings[t.shape] = enumerate_ssyt(t.shape, (1,) * n)
                pair = (t, rng.choice(fillings[t.shape]))
                ops.append(Op("outer", lambda p=pair: rimhook.outer_involution(*p), pair))
        rng.shuffle(ops)
        return ops

    def fingerprint(self, op, result):
        if isinstance(result, Failed):
            return result
        if op.kind == "inner":
            final, trace = result
            return final, len(trace)
        s2, t2 = result
        return s2, t2.rows

    def check(self, results):
        from rimhook import check_sign_lemma, inner_involution, outer_involution

        out = []
        for op, r in zip(self.ops, results):
            if isinstance(r, Failed):
                out.append(False)
                continue
            try:
                if op.kind == "inner":
                    state = op.arg
                    final, trace = r
                    ok = (
                        final.sign == -state.sign
                        and check_sign_lemma(trace, state.sign)
                        and inner_involution(final)[0] == state
                    )
                else:
                    s, t = op.arg
                    s2, t2 = r
                    ok = s2.sign == -s.sign and outer_involution(s2, t2) == (s, t)
            except (ValueError, RuntimeError):
                ok = False
            out.append(ok)
        return out

    def properties(self, results):
        props = super().properties(results)
        hist = Counter(
            len(r[1]) - 1
            for op, r in zip(self.ops, results)
            if op.kind == "inner" and not isinstance(r, Failed)
        )
        props["walk_length_histogram"] = {str(k): hist[k] for k in sorted(hist)}
        props["inner_n"] = dict(sorted(Counter(sum(op.arg.shape) for op in self.ops
                                               if op.kind == "inner").items()))
        props["outer_n"] = dict(sorted(Counter(sum(op.arg[0].shape) for op in self.ops
                                               if op.kind == "outer").items()))
        return props

    def describe_inputs(self):
        return [(op.kind, op.arg.to_json() if op.kind == "inner"
                 else (op.arg[0].to_json(), op.arg[1].to_json())) for op in self.ops]


class Posets(Workload):
    name = "posets"
    LOW = 12          # of the 164 of height <= 2: csf plus the census
    HIGH = 160        # of the 475 of height > 2: csf without the census
    KS = range(1, 7)

    def build(self, rng):
        from rimhook import enumerate_posets, height, is_ab_free

        free = [p for p in enumerate_posets(7) if is_ab_free(p, 3, 1)]
        # within a height stratum, order by relation count (cost follows it
        # loosely) and draw one poset per block, so seeds differ but every
        # sample covers the stratum evenly
        low = sorted((p for p in free if height(p) <= 2), key=lambda p: len(p.less))
        high = sorted((p for p in free if height(p) > 2), key=lambda p: len(p.less))
        sample = _systematic_sample(rng, low, self.LOW) + _systematic_sample(rng, high, self.HIGH)
        rng.shuffle(sample)
        return [Op("csf_pipeline", lambda p=p: self._pipeline(p), (p, height(p))) for p in sample]

    def _pipeline(self, poset):
        from rimhook import (
            chromatic_polynomial_value,
            csf,
            evaluate_at_ones,
            incomparability_graph,
        )

        result = csf(poset)
        graph = incomparability_graph(poset)
        chrom = [chromatic_polynomial_value(graph, k) for k in self.KS]
        evals = [evaluate_at_ones(result.e_expansion, k) for k in self.KS]
        return result, chrom, evals

    def warm_up(self):
        from rimhook import inverse_kostka_matrix

        inverse_kostka_matrix(7)

    def fingerprint(self, op, result):
        if isinstance(result, Failed):
            return result
        res, chrom, evals = result
        return tuple(sorted(res.e_expansion.coeffs.items())), tuple(chrom), tuple(evals)

    def check(self, results):
        out = []
        for op, r in zip(self.ops, results):
            if isinstance(r, Failed):
                out.append(False)
                continue
            res, chrom, evals = r
            ok = chrom == evals
            if op.arg[1] <= 2:
                ok = ok and res.pair_census is not None and (
                    dict(res.pair_census.coefficients) == dict(res.e_expansion.coeffs)
                )
            out.append(ok)
        return out

    def properties(self, results):
        props = super().properties(results)
        low = sum(1 for op in self.ops if op.arg[1] <= 2)
        props["height_le_2_share"] = low / len(self.ops)
        props["relations"] = dict(sorted(Counter(len(op.arg[0].less) for op in self.ops).items()))
        return props

    def describe_inputs(self):
        return [op.arg[0].to_json() for op in self.ops]


class Queries(Workload):
    """Closed loop, one client, one warm process: each request is sent after
    the previous answer has been parsed."""

    name = "queries"
    KOSTKA = 200      # kostka --shape --content, n in 5..8
    INV = 150         # inv-kostka --shape --type, n in 6..10
    TRACE = 150       # trace --shape --type --root --index, n in 6..9
    # csf --poset: every (3+1)-free poset on 4, 5 and 6 elements, once per
    # pass.  The 6-element height <= 2 ones are the slow tail that sets p99,
    # so that tail is the same population on every seed.

    def build(self, rng):
        from rimhook import (
            enumerate_partitions,
            enumerate_posets,
            enumerate_srht,
            enumerate_srht_all_types,
            format_partition,
            is_ab_free,
        )

        reqs: list[Op] = []
        for _ in range(self.KOSTKA):
            n = rng.randint(5, 8)
            lam, mu = rng.choice(enumerate_partitions(n)), rng.choice(enumerate_partitions(n))
            argv = ["kostka", "--shape", format_partition(lam), "--content", format_partition(mu)]
            reqs.append(self._request("kostka", argv, (n, lam, mu)))
        for _ in range(self.INV):
            n = rng.randint(6, 10)
            lam, mu = rng.choice(enumerate_partitions(n)), rng.choice(enumerate_partitions(n))
            argv = ["inv-kostka", "--shape", format_partition(lam), "--type", format_partition(mu)]
            reqs.append(self._request("inv-kostka", argv, (n, lam, mu)))
        for _ in range(self.TRACE):
            n = rng.randint(6, 9)
            while True:
                lam = rng.choice(enumerate_partitions(n))
                t = rng.choice(enumerate_srht_all_types(lam))
                starts = _rooted_starts(t)
                if starts:
                    break
            root, _ = rng.choice(starts)
            index = enumerate_srht(lam, t.type).index(t)
            argv = ["trace", "--shape", format_partition(lam), "--type",
                    format_partition(t.type), "--root", f"{root[0]},{root[1]}",
                    "--index", str(index), "--format", "json"]
            reqs.append(self._request("trace", argv, (n, lam, t.type, root, index)))

        posets = [p for n in (4, 5, 6) for p in enumerate_posets(n) if is_ab_free(p, 3, 1)]
        self.tmp = Path(tempfile.mkdtemp(prefix="posets-", dir=self.workdir))
        for count, poset in enumerate(posets):
            path = self.tmp / f"p{count}.poset"
            lines = list(poset.elements) + [f"{x} < {y}" for x, y in sorted(poset.less)]
            path.write_text("\n".join(lines) + "\n")
            argv = ["csf", "--poset", str(path), "--format", "json"]
            reqs.append(self._request("csf", argv, (len(poset), str(path))))
        rng.shuffle(reqs)
        return reqs

    @staticmethod
    def _request(kind, argv, arg):
        from rimhook import cli

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            if rc != 0:
                return rc, None
            text = buf.getvalue()
            return rc, int(text) if kind in ("kostka", "inv-kostka") else json.loads(text)

        return Op(kind, run, arg)

    def warm_up(self):
        for op in self.ops:
            op.run()

    def _expected(self, op):
        from rimhook import (
            RootedTableau,
            csf,
            enumerate_srht,
            inner_involution,
            inverse_kostka_matrix,
            kostka_matrix,
            parse_poset,
            trace_to_json,
        )

        if op.kind == "kostka":
            n, lam, mu = op.arg
            return kostka_matrix(n).entry(lam, mu)
        if op.kind == "inv-kostka":
            n, lam, mu = op.arg
            return inverse_kostka_matrix(n).entry(mu, lam)
        if op.kind == "trace":
            n, lam, typ, root, index = op.arg
            t = enumerate_srht(lam, typ)[index]
            active = next(k for k, h in enumerate(t.hooks) if root in h)
            _, trace = inner_involution(RootedTableau(t.shape, t.hooks, root, active))
            return json.loads(json.dumps(trace_to_json(trace)))
        _, path = op.arg
        return json.loads(json.dumps(csf(parse_poset(Path(path).read_text())).to_json()))

    def check(self, results):
        out = []
        for op, r in zip(self.ops, results):
            if isinstance(r, Failed) or r[0] != 0:
                out.append(False)
                continue
            try:
                out.append(r[1] == self._expected(op))
            except (ValueError, RuntimeError, KeyError):
                out.append(False)
        return out

    def properties(self, results):
        props = super().properties(results)
        props["request_mix"] = {k: v / len(self.ops) for k, v in props["kinds"].items()}
        props["n_by_kind"] = {
            kind: dict(sorted(Counter(op.arg[0] for op in self.ops if op.kind == kind).items()))
            for kind in ("kostka", "inv-kostka", "trace", "csf")
        }
        return props

    def describe_inputs(self):
        # poset files live in a per-run directory; name them by content
        return [
            (op.kind, op.arg if op.kind != "csf" else (op.arg[0], Path(op.arg[1]).read_text()))
            for op in self.ops
        ]

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Matrices, Walks, Posets, Queries)}
