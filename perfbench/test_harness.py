"""Self-tests for the benchmark harness (not part of the library's suite).

    python3 -m pytest perfbench -q

The traced-run test starts the benchmark twice and takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _inputs(name: str, seed: int, tmp_path: Path):
    workload = WORKLOADS[name](seed, workdir=tmp_path)
    try:
        return workload.describe_inputs()
    finally:
        workload.close()


@pytest.mark.parametrize("name", ["walks", "posets", "queries"])
def test_same_seed_same_inputs_other_seed_other_sample(name, tmp_path):
    first = _inputs(name, 7, tmp_path)
    assert first == _inputs(name, 7, tmp_path)
    assert first != _inputs(name, 8, tmp_path)


def test_matrices_seed_sets_only_a_valid_order(tmp_path):
    orders = {tuple(_inputs("matrices", seed, tmp_path)) for seed in range(10)}
    assert len(orders) > 1
    for order in orders:
        assert sorted(order) == sorted(["K10", "Ki10", "Ki13", "K10*Ki10", "Ki10*K10"])
        factors = max(order.index("K10"), order.index("Ki10"))
        assert order.index("K10*Ki10") > factors and order.index("Ki10*K10") > factors
    assert _inputs("matrices", 3, tmp_path) == _inputs("matrices", 3, tmp_path)


def test_self_time_of_synthetic_nested_spans():
    t = tracing.Tracer()
    root = t.add("cli.main", 0.0, 10.0)
    a = t.add("symfunc.kostka_matrix", 1.0, 4.0, root)
    t.add("partitions.check_partition", 2.0, 3.0, a)
    b = t.add("tableaux.enumerate_ssyt", 5.0, 7.0, root)
    t.add("tableaux.enumerate_ssyt", 5.5, 6.0, b)
    assert t.self_times() == [5.0, 2.0, 1.0, 1.5, 0.5]
    self_s, calls, incl = t.layer_totals()
    assert self_s == {"cli": 5.0, "symfunc": 2.0, "partitions": 1.0, "tableaux": 2.0}
    assert calls == {"cli": 1, "symfunc": 1, "partitions": 1, "tableaux": 2}
    assert incl["tableaux.enumerate_ssyt"] == 2.5
    # layer self times add up to the root span's duration
    assert sum(self_s.values()) == 10.0


def test_children_outside_or_overlapping_are_clipped():
    t = tracing.Tracer()
    root = t.add("posets.csf", 0.0, 4.0)
    t.add("symfunc.inverse_kostka_matrix", 1.0, 3.0, root)
    t.add("tableaux.enumerate_srht_all_types", 2.0, 5.0, root)   # overlaps and overruns
    assert t.self_times()[0] == pytest.approx(1.0)


def test_open_close_records_parents():
    t = tracing.Tracer()
    outer = t.open("posets.csf")
    inner = t.open("partitions.conjugate")
    t.close(inner)
    t.close(outer)
    assert list(t.parent) == [-1, outer]
    assert t.start[outer] <= t.start[inner] <= t.end[inner] <= t.end[outer]


def test_wrappers_attribute_imported_names_and_are_removed():
    import rimhook
    from rimhook import involution, partitions, posets, symfunc

    original = partitions.shape_of_cells
    t = tracing.Tracer()
    installed = tracing.Installed(t)
    try:
        assert involution.shape_of_cells is partitions.shape_of_cells is not original
        assert symfunc.outer_involution is involution.outer_involution
        assert posets.inner_involution is rimhook.inner_involution
        partitions.shape_of_cells({(1, 1), (1, 2), (2, 1)})
        rimhook.RootedTableau.from_json(
            {"shape": [2], "hooks": [[[1, 1], [1, 2]]], "root": [1, 2], "active": 0}
        )
    finally:
        installed.remove()
    assert partitions.shape_of_cells is original
    assert involution.shape_of_cells is original
    names = [t.names[i] for i in t.name_id]
    assert names[0] == "partitions.shape_of_cells"
    assert "partitions.shape_of_cells" in names[1:]   # called by the constructor
    assert t.counts["involution.states_built"] == 1


def _traced_counts(seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "queries", "--seed", str(seed),
           "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in ("count", "ratio")}


def test_traced_counts_repeat_exactly():
    first, second = _traced_counts(5), _traced_counts(5)
    assert first == second
    for name in ("involution.steps", "tableaux.ssyt_built", "posets.p_tableaux_built",
                 "cli.requests", "symfunc.memo_hits"):
        assert first[name] > 0, name
    assert first["cli.errors"] == 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "walks", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
