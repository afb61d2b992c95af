"""End-to-end checks of the command-line front end."""

import contextlib
import gc
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import rimhook
from rimhook.cli import (
    MAX_AB_FREE_CHAINS,
    MAX_AB_FREE_N,
    MAX_CENSUS_N,
    MAX_CORPUS_N,
    MAX_CSF_N,
    MAX_ENTRY_N,
    MAX_MATRIX_N,
    MAX_POSET_N,
    MAX_TRACE_N,
    MAX_VERIFY_N,
    _MAX_CONTENT_N,
    build_parser,
    main,
)
from rimhook.involution import RootedTableau, inner_involution, trace_to_json
from rimhook.partitions import enumerate_partitions, format_partition, parse_partition
from rimhook.posets import Poset, SSCensus, parse_poset, stanley_stembridge_involution
from rimhook.symfunc import inverse_kostka_matrix, kostka_matrix
from rimhook.tableaux import enumerate_srht, enumerate_srht_all_types

from conftest import FIXTURES, json_values, load_fixture

EXAMPLE_POSET = str(FIXTURES / "example.poset")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# ------------------------------------------------------------- matrices


def test_kostka_matrix_text(capsys):
    code, out, err = run_cli(capsys, "kostka", "--n", "2")
    assert code == 0 and err == ""
    assert out.rstrip("\n") == kostka_matrix(2).to_csv().rstrip("\n")


def test_kostka_matrix_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "kostka", "--n", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == kostka_matrix(3).to_json()


def test_kostka_single_entry(capsys):
    code, out, _ = run_cli(capsys, "kostka", "--shape", "[2,1]", "--content", "[1,1,1]")
    assert code == 0
    assert out.strip() == "2"


def test_inv_kostka_matrix_json(capsys):
    code, out, _ = run_cli(capsys, "inv-kostka", "--n", "4", "--format", "json")
    assert code == 0
    assert json.loads(out) == inverse_kostka_matrix(4).to_json()


def test_inv_kostka_single_entry(capsys):
    code, out, _ = run_cli(
        capsys, "inv-kostka", "--shape", "[3,2,2,1,1]", "--type", "[4,4,1]"
    )
    assert code == 0
    assert out.strip() == "-2"


def test_inv_kostka_entries_match_the_enumerator(capsys):
    for n in range(8):
        for shape in enumerate_partitions(n):
            for typ in enumerate_partitions(n):
                code, out, err = run_cli(
                    capsys, "inv-kostka", "--shape", format_partition(shape),
                    "--type", format_partition(typ),
                )
                assert code == 0 and err == ""
                assert int(out) == sum(t.sign for t in enumerate_srht(shape, typ)), (shape, typ)


@pytest.mark.parametrize("n", [7, 8])
def test_inv_kostka_entries_match_the_matrix_across_the_field_width(capsys, n):
    # a type packs each multiplicity into n.bit_length() bits: 1^7 fills a
    # 3-bit field, and n = 8 is the first weight that needs 4 bits
    m = inverse_kostka_matrix(n)
    for shape in m.order:
        for typ in m.order:
            code, out, err = run_cli(
                capsys, "inv-kostka", "--shape", format_partition(shape),
                "--type", format_partition(typ),
            )
            assert code == 0 and err == ""
            assert int(out) == m.entry(typ, shape), (shape, typ)


def test_inv_kostka_entry_rejects_mismatched_weights(capsys):
    code, out, err = run_cli(capsys, "inv-kostka", "--shape", "[3,1]", "--type", "[2,1]")
    assert code == 1 and out == ""
    assert err.strip() == "error: shape and type have different weights"


def test_inv_kostka_entry_keeps_nothing_after_the_request(capsys):
    # the per-shape counts of one request (about 5 MiB for this one) live
    # only as long as the request.  A full collection also empties the
    # interpreter's free lists, so what is left traced is what the request
    # kept alive.
    run_cli(capsys, "inv-kostka", "--shape", "[2]", "--type", "[2]")
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        code, out, _ = run_cli(capsys, "inv-kostka", "--shape", "1^30", "--type", "[30]")
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert code == 0 and int(out) == -1
    assert kept < 256 * 1024


def test_inv_kostka_entry_beyond_the_bound_is_refused(capsys):
    # refused before any work
    for n in (MAX_ENTRY_N + 1, 5000):
        code, out, err = run_cli(capsys, "inv-kostka", "--shape", f"1^{n}", "--type", f"1^{n}")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert f"the weight of --shape must be at most {MAX_ENTRY_N}" in err


def test_kostka_entry_beyond_the_bound_is_refused(capsys):
    # content 1^n is the slowest of its weight; refused before any work
    for n in (_MAX_CONTENT_N + 1, 5000):
        code, out, err = run_cli(capsys, "kostka", "--shape", f"1^{n}", "--content", f"1^{n}")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert f"the weight of --shape must be at most {_MAX_CONTENT_N}" in err


def test_matrix_commands_need_n_or_entry_flags(capsys):
    code, _, err = run_cli(capsys, "kostka")
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "command, bound",
    [("kostka", MAX_MATRIX_N), ("inv-kostka", MAX_MATRIX_N), ("verify", MAX_VERIFY_N)],
)
def test_matrix_sizes_beyond_the_bound_are_refused(capsys, command, bound):
    # refused before any work starts, so n = 40 answers at once
    for n in (40, bound + 1):
        code, out, err = run_cli(capsys, command, "--n", str(n))
        assert code == 1 and out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert f"--n must be at most {bound}" in err


def test_unreadable_partition_names_the_token_and_the_forms(capsys):
    code, _, err = run_cli(capsys, "inv-kostka", "--shape", "[3,1]", "--type", "[1^3 2]")
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert "'1^3 2'" in err and "[3,2,1]" in err and "1^2 2^2 3" in err


def test_verify_reports_identities(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "3", "--format", "text")
    assert code == 0
    assert "K . K^-1 = I: True" in out
    assert "K^-1 . K = I: True" in out
    code, out, _ = run_cli(capsys, "verify", "--n", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["left_identity"] and data["right_identity"]
    assert data["involution_consistent"]


# ------------------------------------------------------ pair involution


def test_involve_round_trip_through_files(capsys, tmp_path):
    fx = load_fixture("opening_pair.json")
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(json.dumps(fx["input"]))
    code, out, _ = run_cli(capsys, "involve", "--pair", str(pair_file), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["output"]["tableau"] == fx["expected"]["tableau"]
    assert data["output"]["filling"] == fx["expected"]["filling"]
    assert data["output"]["sign"] == -data["input"]["sign"]


def test_involve_text_shows_signs(capsys, tmp_path):
    fx = load_fixture("opening_pair.json")
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(json.dumps(fx["input"]))
    code, out, _ = run_cli(capsys, "involve", "--pair", str(pair_file))
    assert code == 0
    assert "input  (sign +1):" in out
    assert "output (sign -1):" in out


def test_involve_rejects_the_all_singleton_pair(capsys, tmp_path):
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(
        json.dumps(
            {
                "tableau": {"shape": [1, 1], "hooks": [[[1, 1]], [[2, 1]]]},
                "filling": {"shape": [1, 1], "rows": [[1], [2]]},
            }
        )
    )
    code, _, err = run_cli(capsys, "involve", "--pair", str(pair_file))
    assert code == 1
    assert err.startswith("error:")


def test_involve_rejects_a_huge_entry_without_counting_up_to_it(capsys, tmp_path):
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(
        json.dumps(
            {
                "tableau": {"shape": [2], "hooks": [[[1, 1], [1, 2]]]},
                "filling": {"shape": [2], "rows": [[1, 10**12]]},
            }
        )
    )
    code, _, err = run_cli(capsys, "involve", "--pair", str(pair_file))
    assert code == 1
    assert err.startswith("error:")
    assert "standard" in err
    assert "Traceback" not in err


def test_involve_rejects_non_object_json(capsys, tmp_path):
    pair_file = tmp_path / "pair.json"
    pair_file.write_text("[1]")
    code, _, err = run_cli(capsys, "involve", "--pair", str(pair_file))
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert "tableau, filling" in err


def test_involve_rejects_a_filling_that_is_not_an_object(capsys, tmp_path):
    fx = load_fixture("opening_pair.json")
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(json.dumps({"tableau": fx["input"]["tableau"], "filling": [1]}))
    code, _, err = run_cli(capsys, "involve", "--pair", str(pair_file))
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert "rows" in err


# --------------------------------------------------------------- traces


def test_trace_from_input_file(capsys, tmp_path):
    fx = load_fixture("six_step_state.json")
    state_file = tmp_path / "state.json"
    state_file.write_text(json.dumps(fx["initial"]))
    code, out, _ = run_cli(capsys, "trace", "--input", str(state_file), "--format", "json")
    assert code == 0
    start = RootedTableau.from_json(fx["initial"])
    _, trace = inner_involution(start)
    assert json.loads(out) == trace_to_json(trace)


def test_trace_text_labels_and_sign_line(capsys, tmp_path):
    fx = load_fixture("six_step_state.json")
    state_file = tmp_path / "state.json"
    state_file.write_text(json.dumps(fx["initial"]))
    code, out, _ = run_cli(capsys, "trace", "--input", str(state_file))
    assert code == 0
    labels = re.findall(r"step \d+  \[(.+)\]", out)
    assert labels == [
        "HE (HH)",
        "SI (SI)",
        "CO (CI)",
        "HE (HV)",
        "TH (TH)",
        "TV (TV)",
        "terminal",
    ]
    assert out.rstrip("\n").endswith("sign -1 -> +1")


def test_trace_from_shape_type_root(capsys):
    code, out, _ = run_cli(
        capsys,
        "trace",
        "--shape", "[2,1,1]",
        "--type", "[2,2]",
        "--root", "3,1",
        "--format", "json",
    )
    assert code == 0
    steps = json.loads(out)
    assert [s["class"] for s in steps[:-1]] == ["TV"]
    assert steps[-1]["tableau"]["shape"] == [2, 2]


def test_trace_index_out_of_range(capsys):
    code, _, err = run_cli(
        capsys,
        "trace",
        "--shape", "[2,1,1]",
        "--type", "[2,2]",
        "--root", "3,1",
        "--index", "5",
    )
    assert code == 1
    assert "out of range" in err


@pytest.mark.parametrize(
    "shape, typ, root, tilings",
    [
        (f"[{MAX_TRACE_N}]", f"[{MAX_TRACE_N}]", f"1,{MAX_TRACE_N}", 1),
        (f"[{MAX_TRACE_N + 1}]", f"[{MAX_TRACE_N + 1}]", f"1,{MAX_TRACE_N + 1}", 1),
        ("[12,10,8,6,4,2]", "[14,10,9,4,3,2]", "6,2", 360),
    ],
    ids=["row-at-the-weight", "row-past-the-weight", "staircase-42"],
)
def test_trace_shapes_within_the_tiling_bound_are_answered(capsys, shape, typ, root, tilings):
    # the bound is on the tilings listed, so weight alone refuses nothing
    assert len(enumerate_srht_all_types(parse_partition(shape))) == tilings
    code, out, err = run_cli(capsys, "trace", "--shape", shape, "--type", typ, "--root", root)
    assert code == 0 and err == ""
    assert re.search(r"sign [+-]1 -> [+-]1$", out.rstrip("\n"))


@pytest.mark.parametrize(
    "n, what, bound",
    [
        # 1^n has the most tilings of its weight, 2^(n-1)
        (MAX_TRACE_N + 1, "the number of tilings of --shape", 2 ** (MAX_TRACE_N - 1)),
        (MAX_ENTRY_N + 1, "the weight of --shape", MAX_ENTRY_N),
        (5000, "the weight of --shape", MAX_ENTRY_N),
    ],
)
def test_trace_shapes_beyond_the_bound_are_refused(capsys, monkeypatch, n, what, bound):
    def listing(*args):
        raise AssertionError("listed the tilings of a shape over the bound")

    monkeypatch.setattr(rimhook.cli, "enumerate_srht", listing)
    code, out, err = run_cli(
        capsys, "trace", "--shape", f"1^{n}", "--type", f"[{n}]", "--root", f"{n},1"
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert f"{what} must be at most {bound}" in err


def test_trace_needs_a_source(capsys):
    code, _, err = run_cli(capsys, "trace")
    assert code == 1
    assert err.startswith("error:")


def test_trace_root_off_the_diagram(capsys):
    code, _, err = run_cli(
        capsys,
        "trace",
        "--shape", "[2,1,1]",
        "--type", "[2,2]",
        "--root", "9,9",
    )
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert "(9, 9)" in err and "[2,1,1]" in err


def test_trace_rejects_non_object_json(capsys, tmp_path):
    state_file = tmp_path / "state.json"
    state_file.write_text("[1]")
    code, _, err = run_cli(capsys, "trace", "--input", str(state_file))
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert "shape, hooks, root, active" in err


def test_trace_names_a_missing_key(capsys, tmp_path):
    state_file = tmp_path / "state.json"
    state_file.write_text(json.dumps({"shape": [2]}))
    code, _, err = run_cli(capsys, "trace", "--input", str(state_file))
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert "hooks, root, active" in err and "shape, hooks, root, active" in err


_SIX_STEP = load_fixture("six_step_state.json")["initial"]
_OPENING = load_fixture("opening_pair.json")["input"]


@pytest.mark.parametrize(
    "command, flag, payload, key",
    [
        ("involve", "--pair", {**_OPENING, "tableau": {**_OPENING["tableau"], "shape": 5}}, "shape"),
        ("involve", "--pair", {**_OPENING, "filling": {"rows": [5]}}, "rows"),
        ("trace", "--input", {**_SIX_STEP, "root": 5}, "root"),
        ("trace", "--input", {**_SIX_STEP, "root": [1]}, "root"),
        ("trace", "--input", {**_SIX_STEP, "hooks": 7}, "hooks"),
    ],
    ids=["shape-int", "rows-of-ints", "root-int", "root-short", "hooks-int"],
)
def test_wrongly_typed_json_values_name_the_key(capsys, tmp_path, command, flag, payload, key):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code, _, err = run_cli(capsys, command, flag, str(path))
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert key in err


# --------------------------------------------------------------- posets


def test_csf_text_is_the_expansion(capsys):
    code, out, _ = run_cli(capsys, "csf", "--poset", EXAMPLE_POSET)
    assert code == 0
    assert out.strip() == "4 e[4] + 2 e[3,1] + 2 e[2,2]"


def test_csf_json_carries_both_bases(capsys):
    code, out, _ = run_cli(capsys, "csf", "--poset", EXAMPLE_POSET, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["e"]["coeffs"] == {"[4]": 4, "[3,1]": 2, "[2,2]": 2}
    assert data["s"]["coeffs"] == {"[1,1,1,1]": 8, "[2,1,1]": 4, "[2,2]": 2}
    assert data["census"]["total_pairs"] == 20


# `csf` counts the fillings of each component of the incomparability graph
# alone: a chain is one-element components, bounded by MAX_CSF_N alone,
# and an antichain is one component, bounded by MAX_POSET_N.  An antichain
# has n! fillings of one row, and the census, which `ss-involution` and
# `csf --format json` build, lists them
_LONG_CHAIN = " < ".join(f"x{i}" for i in range(MAX_CSF_N + 1))
_WIDE_ANTICHAIN = "\n".join(f"a{i}" for i in range(MAX_CENSUS_N + 1))
_BIG_COMPONENT = "\n".join(f"a{i}" for i in range(MAX_POSET_N + 1))


@pytest.mark.parametrize(
    "argv, text, bound, what",
    [
        (["csf"], _LONG_CHAIN, MAX_CSF_N, "the number of elements"),
        (["csf"], _BIG_COMPONENT, MAX_POSET_N, "elements in one incomparability component"),
        (["csf", "--format", "json"], _WIDE_ANTICHAIN, MAX_CENSUS_N, "height <= 2"),
        (["ss-involution"], _WIDE_ANTICHAIN, MAX_CENSUS_N, "height <= 2"),
    ],
    ids=["csf-chain", "csf-component", "csf-antichain", "ss-involution-antichain"],
)
def test_poset_sizes_beyond_the_bound_are_refused(capsys, tmp_path, argv, text, bound, what):
    path = tmp_path / "big.poset"
    path.write_text(text + "\n")
    code, out, err = run_cli(capsys, *argv, "--poset", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert f"{what} must be at most {bound}" in err


def test_oversized_poset_file_is_refused_before_its_closure(capsys, tmp_path, monkeypatch):
    def closure(*args):
        raise AssertionError("built the closure of a file over the bound")

    monkeypatch.setattr(Poset, "from_relations", closure)
    path = tmp_path / "big.poset"
    path.write_text(_LONG_CHAIN + "\n")
    code, out, err = run_cli(capsys, "csf", "--poset", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert f"the number of elements must be at most {MAX_CSF_N}" in err


def test_chains_longer_than_the_component_bound_are_answered(capsys, tmp_path):
    path = tmp_path / "chain.poset"
    for n in (MAX_POSET_N + 1, 16):
        path.write_text(" < ".join(f"x{i}" for i in range(n)) + "\n")
        code, out, err = run_cli(capsys, "csf", "--poset", str(path))
        assert code == 0 and err == ""
        assert out == f"1 e[{','.join(['1'] * n)}]\n"


def test_ab_free_refuses_a_file_over_the_bound_before_its_closure(capsys, tmp_path, monkeypatch):
    def closure(*args):
        raise AssertionError("built the closure of a file over the bound")

    monkeypatch.setattr(Poset, "from_relations", closure)
    path = tmp_path / "big.poset"
    path.write_text(" < ".join(f"x{i}" for i in range(MAX_AB_FREE_N + 1)) + "\n")
    code, out, err = run_cli(capsys, "ab-free", "--poset", str(path), "--a", "2", "--b", "2")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert f"the number of elements must be at most {MAX_AB_FREE_N}" in err


@pytest.mark.parametrize("a, b", [(-1, 5), (5, 0), (0, 0)])
def test_ab_free_refuses_sizes_below_one_before_the_closure(capsys, tmp_path, monkeypatch, a, b):
    def closure(*args):
        raise AssertionError("built the closure before refusing the chain sizes")

    monkeypatch.setattr(Poset, "from_relations", closure)
    path = tmp_path / "chain.poset"
    path.write_text(" < ".join(f"x{i}" for i in range(MAX_AB_FREE_N)) + "\n")
    code, out, err = run_cli(capsys, "ab-free", "--poset", str(path), "--a", str(a), "--b", str(b))
    assert code == 1 and out == ""
    assert err == "error: chain sizes must be positive\n"


def test_ab_free_refuses_too_many_chains_before_the_closure(capsys, tmp_path, monkeypatch):
    def closure(*args):
        raise AssertionError("built the closure of a file over the bound")

    monkeypatch.setattr(Poset, "from_relations", closure)
    path = tmp_path / "chain.poset"
    path.write_text(" < ".join(f"x{i}" for i in range(300)) + "\n")
    assert math.comb(300, 3) > MAX_AB_FREE_CHAINS
    code, out, err = run_cli(capsys, "ab-free", "--poset", str(path), "--a", "3", "--b", "3")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert f"C(300, 3), must be at most {MAX_AB_FREE_CHAINS}" in err
    # while every 2-chain of a file within the name bound is admitted
    assert math.comb(MAX_AB_FREE_N, 2) <= MAX_AB_FREE_CHAINS


@pytest.mark.parametrize(
    "command, levels, bound, answer",
    [
        # ordinal sums of antichains: the graph is a union of cliques
        ("csf", (4, 4, 4), MAX_POSET_N, "13824 e[4,4,4]"),
        # text builds no census, so at height 2 only the component and total
        # bounds apply
        ("csf", (6, 6), MAX_POSET_N, "518400 e[6,6]"),
        ("csf", (4, 5), MAX_CENSUS_N, "2880 e[5,4]"),
        ("ss-involution", (4, 5), MAX_CENSUS_N, "coefficients: 2880 e[5,4]"),
    ],
    ids=["csf-4+4+4", "csf-6+6", "csf-4+5", "ss-involution-4+5"],
)
def test_poset_sizes_at_the_bound_are_answered(capsys, tmp_path, command, levels, bound, answer):
    assert sum(levels) == bound
    names = [[f"l{k}x{i}" for i in range(size)] for k, size in enumerate(levels)]
    path = tmp_path / "sum.poset"
    lines = [f"{x} < {y}\n" for low, high in zip(names, names[1:]) for x in low for y in high]
    path.write_text("".join(lines))
    code, out, err = run_cli(capsys, command, "--poset", str(path))
    assert code == 0 and err == ""
    assert out.rstrip("\n").endswith(answer)


def test_csf_rejects_forbidden_order(capsys, tmp_path):
    bad = tmp_path / "bad.poset"
    bad.write_text("a < b < c\nd\n")
    code, _, err = run_cli(capsys, "csf", "--poset", str(bad))
    assert code == 1
    assert err.startswith("error:")


def test_text_output_builds_no_json(capsys, monkeypatch):
    commands = [("csf", "--poset", EXAMPLE_POSET), ("ss-involution", "--poset", EXAMPLE_POSET)]
    plain = [run_cli(capsys, *argv) for argv in commands]

    def refuse(self):
        raise AssertionError("text output serialised the census")

    monkeypatch.setattr(SSCensus, "to_json", refuse)
    assert [run_cli(capsys, *argv) for argv in commands] == plain
    assert [code for code, _, _ in plain] == [0, 0]


def test_csf_text_builds_no_census(capsys, monkeypatch):
    plain = run_cli(capsys, "csf", "--poset", EXAMPLE_POSET)

    def refuse(poset):
        raise AssertionError("text output built the census")

    monkeypatch.setattr(rimhook.posets, "stanley_stembridge_involution", refuse)
    assert run_cli(capsys, "csf", "--poset", EXAMPLE_POSET) == plain
    assert plain[0] == 0


def test_ss_involution_text(capsys):
    code, out, _ = run_cli(capsys, "ss-involution", "--poset", EXAMPLE_POSET)
    assert code == 0
    assert out.splitlines() == [
        "pairs: 20",
        "matched 2-cycles: 6",
        "fixed points: 8",
        "  shape [2,2]: 2",
        "  shape [3,1]: 2",
        "  shape [4]: 4",
        "coefficients: 4 e[4] + 2 e[3,1] + 2 e[2,2]",
    ]


def test_ab_free_defaults_and_flags(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "ab-free", "--poset", EXAMPLE_POSET)
    assert code == 0 and out.strip() == "true"
    bad = tmp_path / "bad.poset"
    bad.write_text("a < b < c\nd\n")
    code, out, _ = run_cli(capsys, "ab-free", "--poset", str(bad))
    assert code == 0 and out.strip() == "false"
    pairs = tmp_path / "pairs.poset"
    pairs.write_text("a < b\nc < d\n")
    code, out, _ = run_cli(capsys, "ab-free", "--poset", str(pairs))
    assert code == 0 and out.strip() == "true"
    code, out, _ = run_cli(capsys, "ab-free", "--poset", str(pairs), "--a", "2", "--b", "2")
    assert code == 0 and out.strip() == "false"


# --------------------------------------------------------------- corpus


def test_corpus_sweep_passes_and_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "corpus", "--max-elements", "3")
    code2, out2, _ = run_cli(capsys, "corpus", "--max-elements", "3")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "total (3+1)-free posets: 8" in out1
    assert out1.rstrip("\n").endswith("all checks passed")


def test_corpus_json_rows(capsys):
    code, out, _ = run_cli(capsys, "corpus", "--max-elements", "3", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["n"] for r in rows] == [1, 2, 3]
    assert [r["posets"] for r in rows] == [1, 2, 5]
    assert all(r["failures"] == 0 for r in rows)


def test_corpus_beyond_the_bound_is_refused(capsys):
    # 9 elements would mean growing all 183,231 posets; refused at once
    code, out, err = run_cli(capsys, "corpus", "--max-elements", str(MAX_CORPUS_N + 1))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert f"--max-elements must be at most {MAX_CORPUS_N}" in err


# ----------------------------------------------------------- exit codes


def test_parse_errors_exit_2(capsys):
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "kostka", "--bogus")[0] == 2
    assert run_cli(capsys, "verify")[0] == 2
    assert run_cli(capsys, "no-such-command")[0] == 2


def test_a_parse_failure_leaves_the_next_request_unchanged(capsys):
    request = ("csf", "--poset", EXAMPLE_POSET, "--format", "json")
    build_parser.cache_clear()
    alone = run_cli(capsys, *request)
    assert run_cli(capsys, "no-such-command")[0] == 2
    assert run_cli(capsys, "csf", "--format", "json")[0] == 2
    assert run_cli(capsys, *request) == alone
    assert alone[0] == 0


def test_a_flag_does_not_carry_over_to_the_next_request(capsys):
    trace = ("trace", "--shape", "[2,1,1,1]", "--type", "[3,2]", "--root", "1,2", "--format", "json")
    first = run_cli(capsys, *trace, "--index", "0")
    second = run_cli(capsys, *trace, "--index", "1")
    assert first[0] == second[0] == 0 and first != second
    assert run_cli(capsys, *trace) == first


def test_help_twice_prints_the_same(capsys):
    once = run_cli(capsys, "--help")
    assert once[0] == 0 and "csf" in once[1]
    assert run_cli(capsys, "--help") == once


def test_one_parser_per_process():
    assert build_parser() is build_parser()


def test_missing_file_exits_1(capsys):
    code, _, err = run_cli(capsys, "csf", "--poset", "/no/such/file.poset")
    assert code == 1
    assert err.startswith("error:")


def test_bad_partition_exits_1(capsys):
    code, _, err = run_cli(capsys, "kostka", "--shape", "[1,2]", "--content", "[1,1,1]")
    assert code == 1
    assert err.startswith("error:")


# ------------------------------------------------------ installed binary


def test_console_script_smoke():
    # The installed console script when there is one; otherwise the same
    # entry point from this checkout through `python -m rimhook`, with the
    # imported package's directory first on the child's PYTHONPATH so the
    # child runs the code the in-process tests ran.
    exe = shutil.which("rimhook")
    env = None
    if exe:
        argv = [exe]
    else:
        argv = [sys.executable, "-m", "rimhook"]
        source_root = str(Path(rimhook.__file__).parents[1])
        path = filter(None, [source_root, os.environ.get("PYTHONPATH")])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        argv + ["csf", "--poset", EXAMPLE_POSET],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "4 e[4] + 2 e[3,1] + 2 e[2,2]"


def test_console_script_maps_to_cli_main():
    # `python -m rimhook` stands in for the installed script only while the
    # script still names `rimhook.cli:main`.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    config = tomllib.loads(pyproject.read_text())
    assert config["project"]["scripts"]["rimhook"] == "rimhook.cli:main"


# ------------------------------------------------------------ JSON output


def test_json_output_is_the_compact_form(capsys, tmp_path):
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(json.dumps(load_fixture("opening_pair.json")["input"]))
    state_file = tmp_path / "state.json"
    state_file.write_text(json.dumps(load_fixture("six_step_state.json")["initial"]))
    for argv in (
        ["kostka", "--n", "4"],
        ["inv-kostka", "--n", "4"],
        ["verify", "--n", "3"],
        ["involve", "--pair", str(pair_file)],
        ["trace", "--input", str(state_file)],
        ["csf", "--poset", EXAMPLE_POSET],
        ["ss-involution", "--poset", EXAMPLE_POSET],
        ["corpus", "--max-elements", "3"],
    ):
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert code == 0 and err == "", argv
        assert out == json.dumps(json.loads(out), separators=(",", ":")) + "\n", argv


def test_ss_involution_json_is_the_census(capsys):
    code, out, err = run_cli(capsys, "ss-involution", "--poset", EXAMPLE_POSET, "--format", "json")
    assert code == 0 and err == ""
    poset = parse_poset(Path(EXAMPLE_POSET).read_text())
    assert json.loads(out) == stanley_stembridge_involution(poset).to_json()


def _ends_cleanly(argv) -> int:
    """Run `argv` through `main`: it must exit 0 with an answer or 1 with
    `error:`.  Returns the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1), argv
    if code == 1:
        assert err.startswith("error:") and "Traceback" not in err
    else:
        assert err == "" and out
    return code


# ----------------------------------------------------------- pair file fuzz


_cells = st.lists(st.lists(st.integers(-1, 4) | st.integers(), min_size=2, max_size=2), max_size=4)
_tableau_like = st.fixed_dictionaries(
    {
        "shape": st.lists(st.integers(-1, 4) | st.integers(), max_size=3) | json_values,
        "hooks": st.lists(_cells, max_size=3) | json_values,
    }
)
_filling_like = st.fixed_dictionaries(
    {
        "rows": st.lists(st.lists(st.integers(-1, 5) | st.integers(), max_size=3), max_size=3)
        | json_values
    }
)
_pair_like = st.fixed_dictionaries(
    {
        "tableau": st.just(_OPENING["tableau"]) | _tableau_like | json_values,
        "filling": st.just(_OPENING["filling"]) | _filling_like | json_values,
    }
)


@settings(deadline=1000)
@given(data=json_values | _pair_like)
@example(data=_OPENING)
def test_pair_files_end_in_an_answer_or_an_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "pair.json"
    path.write_text(json.dumps(data))
    _ends_cleanly(["involve", "--pair", str(path)])


# --------------------------------------------------------- poset file fuzz


_names = st.sampled_from("abcdef")  # six names bound the csf cost
_gaps = st.sampled_from(["", " ", "  ", "\t"])


# A chain `x < y < ...` with any spacing, mostly well formed; some lines
# are a soup of names, `<` and `#` with no structure.
_chains = st.lists(_names, min_size=1, max_size=4).flatmap(
    lambda names: st.lists(_gaps, min_size=2 * len(names), max_size=2 * len(names)).map(
        lambda gaps: "".join(map("".join, zip(gaps, " < ".join(names).split(" ")))) + gaps[-1]
    )
)
_soups = st.lists(_names.map(lambda name: name + " ") | st.sampled_from("<# "), max_size=6).map(
    "".join
)
_poset_lines = st.tuples(
    st.one_of(_chains, _chains, _soups, st.just("")),
    st.one_of(st.just(""), _soups.map(lambda text: "#" + text)),
).map("".join)
_poset_texts = st.lists(_poset_lines, max_size=8).map("\n".join)


def _poset_commands_end_cleanly(path) -> list[int]:
    """Run the three poset commands on `path`; returns the exit codes."""
    return [_ends_cleanly([c, "--poset", str(path)]) for c in ("csf", "ss-involution", "ab-free")]


@settings(deadline=1000, max_examples=60)
@given(text=_poset_texts)
def test_poset_files_end_in_an_answer_or_an_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "p.poset"
    path.write_text(text)
    _poset_commands_end_cleanly(path)


def test_a_poset_file_that_is_not_utf8_is_an_error(tmp_path):
    path = tmp_path / "p.poset"
    path.write_bytes(b"a < b\n\xff\xfe < c\n")
    assert _poset_commands_end_cleanly(path) == [1, 1, 1]
