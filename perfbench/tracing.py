"""Spans around rimhook's layer boundaries, recorded from outside the library.

`Installed` replaces every public function of the six rimhook modules, in every
module namespace that holds it, with a wrapper that opens and closes a span.
Names imported with `from .x import f` (for example
`rimhook.involution.shape_of_cells`) are the same function objects, so they
are replaced too and a call is attributed to the module that defines the
function.  `PartitionMatrix.matmul` is wrapped as a method, and the
`RootedTableau` constructor only counts the states it builds.

Spans live in memory (four parallel arrays) until the run ends.  Counts come
from return values: list lengths, trace lengths and rule classes, census
sizes, exit codes and `cache_info()`.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("partitions", "tableaux", "symfunc", "involution", "posets", "cli")
RULES = ("CO", "HE", "TV", "TH", "SI")


class Tracer:
    """Spans as (name id, start, end, parent index); -1 marks a root span."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a finished span directly (used by the self-tests)."""
        self.name_id.append(self._name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        return len(self.start) - 1

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part of it its children cover."""
        children: dict[int, list[int]] = {}
        for idx, par in enumerate(self.parent):
            if par >= 0:
                children.setdefault(par, []).append(idx)
        out = []
        for idx in range(len(self.start)):
            lo, hi = self.start[idx], self.end[idx]
            covered = 0.0
            reach = lo
            for c in sorted(children.get(idx, ()), key=lambda k: self.start[k]):
                a, b = max(self.start[c], reach), min(self.end[c], hi)
                if b > a:
                    covered += b - a
                    reach = b
            out.append((hi - lo) - covered)
        return out

    def layer_totals(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """Self seconds and span counts per layer, inclusive seconds per name.

        A span's layer is the part of its name before the first dot.
        """
        self_s: Counter = Counter()
        calls: Counter = Counter()
        incl: Counter = Counter()
        for idx, st in enumerate(self.self_times()):
            name = self.names[self.name_id[idx]]
            layer = name.split(".", 1)[0]
            self_s[layer] += st
            calls[layer] += 1
            incl[name] += self.end[idx] - self.start[idx]
        return dict(self_s), dict(calls), dict(incl)

    def dump(self, path) -> None:
        """Write every span as gzipped JSON: names plus four parallel lists."""
        data = {
            "names": self.names,
            "name_id": list(self.name_id),
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(data, fh)


def _count_walk(tracer: Tracer, result) -> None:
    _, trace = result
    c = tracer.counts
    steps = len(trace) - 1
    c["involution.walks"] += 1
    c["involution.steps"] += steps
    c["involution.trace_states"] += len(trace)
    c["involution.walk_len_max"] = max(c["involution.walk_len_max"], steps)
    for _, cls in trace[:-1]:
        c["involution.steps." + cls.rule] += 1


# span name -> what to count from the wrapped function's return value
_ON_RETURN = {
    "tableaux.enumerate_ssyt": lambda t, r: t.counts.update({"tableaux.ssyt_built": len(r)}),
    "tableaux.enumerate_srht": lambda t, r: t.counts.update({"tableaux.srht_returned": len(r)}),
    "tableaux.enumerate_srht_all_types":
        lambda t, r: t.counts.update({"tableaux.srht_returned": len(r)}),
    "involution.inner_involution": _count_walk,
    "posets.enumerate_p_tableaux": lambda t, r: t.counts.update({"posets.p_tableaux_built": len(r)}),
    "posets.stanley_stembridge_involution":
        lambda t, r: t.counts.update({"posets.census_pairs": r.total_pairs}),
    "cli.main": lambda t, r: t.counts.update({"cli.requests": 1, "cli.errors": int(r != 0)}),
}


def _wrap(tracer: Tracer, fn, name: str):
    after = _ON_RETURN.get(name)

    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer, result)
        return result

    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__qualname__ = getattr(fn, "__qualname__", name)
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper


def _is_public_function(obj) -> bool:
    module = getattr(obj, "__module__", None) or ""
    if not module.startswith("rimhook."):
        return False
    if module.rsplit(".", 1)[1] not in LAYERS:
        return False
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")


class Installed:
    """Handle on the wrappers in place; `remove` restores every original."""

    def __init__(self, tracer: Tracer):
        self._undo: list[tuple[object, str, object]] = []
        modules = [importlib.import_module("rimhook")]
        modules += [importlib.import_module(f"rimhook.{name}") for name in LAYERS]
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not _is_public_function(obj):
                    continue
                w = wrappers.get(id(obj))
                if w is None:
                    layer = obj.__module__.rsplit(".", 1)[1]
                    w = wrappers[id(obj)] = _wrap(tracer, obj, f"{layer}.{obj.__name__}")
                self._set(mod, attr, w)

        symfunc = importlib.import_module("rimhook.symfunc")
        matmul = symfunc.PartitionMatrix.matmul
        self._set(symfunc.PartitionMatrix, "matmul",
                  _wrap(tracer, matmul, "symfunc.PartitionMatrix.matmul"))

        involution = importlib.import_module("rimhook.involution")
        init = involution.RootedTableau.__init__
        counts = tracer.counts

        def counted_init(self, *args, **kwargs):
            counts["involution.states_built"] += 1
            init(self, *args, **kwargs)

        self._set(involution.RootedTableau, "__init__", counted_init)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()


def memo_hits() -> dict[str, int]:
    """Cache hits so far in the symfunc and tableaux memo tables."""
    symfunc = importlib.import_module("rimhook.symfunc")
    tableaux = importlib.import_module("rimhook.tableaux")
    return {
        "symfunc.memo_hits": symfunc.kostka_matrix.cache_info().hits
        + symfunc.inverse_kostka_matrix.cache_info().hits,
        "tableaux.memo_hits": tableaux._all_srht.cache_info().hits,
    }


# per-layer metrics reported on every workload: name -> unit
PER_LAYER = {
    "partitions.self_s": "s",
    "partitions.calls": "count",
    "tableaux.self_s": "s",
    "tableaux.ssyt_built": "count",
    "tableaux.srht_returned": "count",
    "tableaux.memo_hits": "count",
    "symfunc.self_s": "s",
    "symfunc.kostka_matrix_s": "s",
    "symfunc.inverse_kostka_matrix_s": "s",
    "symfunc.matmul_s": "s",
    "symfunc.memo_hits": "count",
    "involution.self_s": "s",
    "involution.walks": "count",
    "involution.steps": "count",
    **{f"involution.steps.{r}": "count" for r in RULES},
    "involution.walk_len_max": "count",
    "involution.states_built": "count",
    "involution.state_yield": "ratio",
    "posets.self_s": "s",
    "posets.census_s": "s",
    "posets.census_pairs": "count",
    "posets.p_tableaux_built": "count",
    "posets.chromatic_s": "s",
    "cli.self_s": "s",
    "cli.requests": "count",
    "cli.errors": "count",
    "bench.spans": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(tracer: Tracer, hits_before: dict, hits_after: dict) -> dict[str, float]:
    """Every per-layer metric except the two trace.* ones, from one traced pass."""
    self_s, calls, incl = tracer.layer_totals()
    c = tracer.counts
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    out["partitions.calls"] = calls.get("partitions", 0)
    for key in ("tableaux.ssyt_built", "tableaux.srht_returned", "involution.walks",
                "involution.steps", "involution.walk_len_max", "involution.states_built",
                "posets.census_pairs", "posets.p_tableaux_built", "cli.requests",
                "cli.errors"):
        out[key] = c.get(key, 0)
    for r in RULES:
        out[f"involution.steps.{r}"] = c.get(f"involution.steps.{r}", 0)
    built = c.get("involution.states_built", 0)
    out["involution.state_yield"] = c.get("involution.trace_states", 0) / built if built else 0.0
    out["symfunc.kostka_matrix_s"] = incl.get("symfunc.kostka_matrix", 0.0)
    out["symfunc.inverse_kostka_matrix_s"] = incl.get("symfunc.inverse_kostka_matrix", 0.0)
    out["symfunc.matmul_s"] = incl.get("symfunc.PartitionMatrix.matmul", 0.0)
    out["posets.census_s"] = incl.get("posets.stanley_stembridge_involution", 0.0)
    out["posets.chromatic_s"] = (incl.get("posets.chromatic_polynomial_value", 0.0)
                                 + incl.get("posets.chromatic_polynomial", 0.0))
    for key in hits_after:
        out[key] = hits_after[key] - hits_before[key]
    out["bench.spans"] = len(tracer)
    return out
