import hashlib
import shutil
import subprocess
import time
import tracemalloc

import pytest

import qck.axioms
import qck.cli
import qck.mutation
import qck.wordmodel
from qck import graphcore
from qck.cli import main
from qck.graphcore import AxiomReport, QuasiCrystalGraph, dumps, read_graph, write_graph
from qck.structure import components

from corpus import qpow


@pytest.fixture
def q33_file(tmp_path):
    path = str(tmp_path / "q33")
    assert main(["build", "qtensor-power", "--n", "3", "--k", "3", "-o", path]) == 0
    return path


@pytest.fixture
def q32_file(tmp_path):
    path = str(tmp_path / "q32")
    assert main(["build", "qtensor-power", "--n", "3", "--k", "2", "-o", path]) == 0
    return path


@pytest.fixture
def t32_file(tmp_path):
    path = str(tmp_path / "t32")
    assert main(["build", "tensor-power", "--n", "3", "--k", "2", "-o", path]) == 0
    return path


# --- build -----------------------------------------------------------------


def test_build_std_matches_library(tmp_path, capsys):
    path = str(tmp_path / "b3")
    assert main(["build", "std", "--n", "3", "-o", path]) == 0
    assert capsys.readouterr().out == ""
    g = read_graph(path)
    assert sorted(g.vertex_ids()) == ["1", "2", "3"]


def test_build_writes_requested_format(q33_file, q32_file, tmp_path):
    jpath = str(tmp_path / "q32.json")
    assert main(["build", "qtensor-power", "--n", "3", "--k", "2", "--format", "json", "-o", jpath]) == 0
    with open(jpath, encoding="utf-8") as fh:
        assert fh.read().lstrip().startswith("{")
    assert read_graph(jpath) == read_graph(q32_file)
    assert read_graph(q33_file) == qpow(3, 3)


def test_build_stdout_is_deterministic(capsys):
    assert main(["build", "tensor-power", "--n", "3", "--k", "2"]) == 0
    first = capsys.readouterr().out
    assert main(["build", "tensor-power", "--n", "3", "--k", "2"]) == 0
    assert capsys.readouterr().out == first
    assert first  # something was actually printed


def test_build_size_cap_refuses_blowup(capsys):
    assert main(["build", "tensor-power", "--n", "3", "--k", "20", "--size-cap", "100"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


@pytest.mark.parametrize("what, n, k", [("qtensor-power", 2, 20_000), ("tensor-power", 3, 300_000)])
def test_build_refuses_a_power_too_large_to_print_at_once(monkeypatch, capsys, what, n, k):
    # n**k has more digits than Python turns into a string, and at large k
    # takes seconds to compute: the cap is checked without it
    monkeypatch.delenv("QCK_SIZE_CAP", raising=False)
    started = time.monotonic()
    assert main(["build", what, "--n", str(n), "--k", str(k)]) == 2
    elapsed = time.monotonic() - started
    captured = capsys.readouterr()
    assert captured == ("", f"error: {n}^{k} vertices exceeds the size cap 1000000\n")
    assert elapsed < 1.0, f"refusing took {elapsed:.2f}s"


def test_build_std_respects_the_size_cap(capsys):
    assert main(["build", "std", "--n", "5", "--size-cap", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 5*4 = 20 string lengths exceeds the size cap 10\n"
    assert main(["build", "std", "--n", "5", "--size-cap", "20"]) == 0
    assert capsys.readouterr().out.count("\nvertex ") == 5


def test_build_std_over_the_default_cap_refuses_before_building(monkeypatch, capsys):
    monkeypatch.delenv("QCK_SIZE_CAP", raising=False)

    def no_graph(n):
        raise AssertionError("built a graph past the size cap")

    monkeypatch.setattr(qck.wordmodel, "QuasiCrystalGraph", no_graph)
    assert main(["build", "std", "--n", "1001"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "raw,err",
    [
        ("abc", "error: QCK_SIZE_CAP must be an integer, got 'abc'\n"),
        ("0", "error: QCK_SIZE_CAP must be positive\n"),
        (" 10 ", "error: QCK_SIZE_CAP must be an integer, got ' 10 '\n"),
        ("+10", "error: QCK_SIZE_CAP must be an integer, got '+10'\n"),
    ],
)
def test_build_with_a_bad_size_cap_variable_is_an_input_error(monkeypatch, capsys, raw, err):
    monkeypatch.setenv("QCK_SIZE_CAP", raw)
    assert main(["build", "std", "--n", "3"]) == 2
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_build_with_a_bad_size_cap_flag_is_an_input_error(capsys, cap):
    assert main(["build", "std", "--n", "3", "--size-cap", cap]) == 2
    assert capsys.readouterr() == ("", "error: --size-cap must be positive\n")


# --- integer arguments ----------------------------------------------------
#
# The CLI reads integers by the file readers' rule: ASCII digits, no "_".


@pytest.mark.parametrize(
    "argv,flag,value",
    [
        (["build", "std", "--n", "\u0663"], "--n", "\u0663"),
        (["build", "tensor-power", "--n", "2", "--k", "1_0"], "--k", "1_0"),
        (["build", "std", "--n", "3", "--size-cap", "1_0"], "--size-cap", "1_0"),
        (["count", "--shape", "1", "--n", "\u00b3"], "--n", "\u00b3"),
        (["verify", "schur", "--shape", "1", "--n", "1_0"], "--n", "1_0"),
        (["fuzz", "graph.txt", "--count", "1_0"], "--count", "1_0"),
        (["fuzz", "graph.txt", "--seed", "\u0663"], "--seed", "\u0663"),
        (["build", "std", "--n", "+3"], "--n", "+3"),
        (["fuzz", "graph.txt", "--seed", " 3"], "--seed", " 3"),
        (["count", "--shape", "1", "--n", "3 "], "--n", "3 "),
    ],
)
def test_integer_flags_refuse_what_the_readers_refuse(capsys, argv, flag, value):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"error: argument {flag}: invalid int value: {value!r}\n")


def test_integer_flags_are_refused_as_a_plain_int_refuses(capsys):
    assert main(["build", "std", "--n", "x"]) == 2
    plain = capsys.readouterr().err.splitlines()[-1]
    assert main(["build", "std", "--n", "1_0"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == plain.replace("'x'", "'1_0'")


@pytest.mark.parametrize("command", ["count", "verify"])
@pytest.mark.parametrize("shape", ["2_1", "\u0662,1", "2,\u00b9", "+2, 1", "2, 1", "+2,1"])
def test_shapes_refuse_what_the_readers_refuse(capsys, command, shape):
    argv = ["count"] if command == "count" else ["verify", "schur"]
    assert main(argv + ["--shape", shape, "--n", "3"]) == 2
    expected = f"error: bad shape {shape!r}; expected comma-separated ints like 2,1\n"
    assert capsys.readouterr() == ("", expected)


@pytest.mark.parametrize("index", ["\u0661", "\u00b2", "1_0", "-1", "+1", " 1", "", "0", "1.0"])
def test_component_indices_refuse_what_the_readers_refuse(q33_file, capsys, index):
    ref = f"{q33_file}#{index}"
    assert main(["iso", ref, f"{q33_file}#1"]) == 2
    expected = f"error: bad component reference {ref!r}; expected FILE#INDEX with INDEX >= 1\n"
    assert capsys.readouterr() == ("", expected)


def test_a_component_index_with_a_leading_zero_reads_as_its_value(q33_file, capsys):
    # int() reads 01 as 1, as the text reader reads a rank or an edge label
    assert main(["iso", f"{q33_file}#01", f"{q33_file}#2"]) == 1
    padded = capsys.readouterr()
    assert main(["iso", f"{q33_file}#1", f"{q33_file}#2"]) == 1
    assert capsys.readouterr() == padded


def test_size_cap_variable_refuses_what_the_readers_refuse(monkeypatch, capsys):
    monkeypatch.setenv("QCK_SIZE_CAP", "1_0")
    assert main(["build", "std", "--n", "3"]) == 2
    assert capsys.readouterr() == ("", "error: QCK_SIZE_CAP must be an integer, got '1_0'\n")


def test_a_negative_seed_is_still_an_integer(q32_file, capsys):
    assert main(["fuzz", q32_file, "--count", "4", "--seed", "-3"]) == 0
    assert capsys.readouterr().out.startswith("total\t4\n")


# --- check -----------------------------------------------------------------


def test_check_all_clean_graphs_exit_zero(q33_file, t32_file, tmp_path, capsys):
    b3 = str(tmp_path / "b3")
    assert main(["build", "std", "--n", "3", "-o", b3]) == 0
    for path in (b3, q33_file, t32_file):
        assert main(["check", path, "--axioms", "all"]) == 0
    capsys.readouterr()


def test_check_explicit_key_can_cross_class(t32_file, capsys):
    # a classical tensor square genuinely violates the frozen-string axioms,
    # and asking for them by name reports that honestly
    assert main(["check", t32_file, "--axioms", "lq1"]) == 1
    out = capsys.readouterr().out
    assert out
    assert all("\t" in ln for ln in out.splitlines())


def test_check_corrupted_file_exits_one(q32_file, tmp_path, capsys):
    g = read_graph(q32_file)
    g.set_epsilon("12", 1, 3)
    bad = str(tmp_path / "bad")
    write_graph(g, bad)
    assert main(["check", bad, "--axioms", "all"]) == 1
    out = capsys.readouterr().out
    assert any("Q2" in ln for ln in out.splitlines())


def test_check_unknown_axiom_key(q32_file, capsys):
    assert main(["check", q32_file, "--axioms", "nope"]) == 2
    assert "unknown axiom keys" in capsys.readouterr().err


@pytest.mark.parametrize("keys", ["", " ", ",", " , ,"])
def test_check_without_axiom_keys_is_a_usage_error(q32_file, tmp_path, capsys, keys):
    # a graph that fails Q1 must not pass because no checker ran
    g = read_graph(q32_file)
    g.set_epsilon("12", 1, 3)
    bad = str(tmp_path / "bad")
    write_graph(g, bad)
    assert main(["check", bad, "--axioms", keys]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no axiom keys" in captured.err


def test_check_missing_and_malformed_files(tmp_path, capsys):
    assert main(["check", str(tmp_path / "absent"), "--axioms", "all"]) == 2
    junk = tmp_path / "junk"
    junk.write_text("not a graph\n", encoding="utf-8")
    assert main(["check", str(junk), "--axioms", "all"]) == 2
    stray = tmp_path / "stray-byte.json"  # not UTF-8, so refused before either reader runs
    stray.write_bytes(b"\xff{}")
    assert main(["check", str(stray), "--axioms", "all"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == captured.err.count("\n") == 3


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"format": ' + "[" * 200_000 + "]" * 200_000 + "}\n", encoding="utf-8")
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid JSON:") and captured.err.count("\n") == 1


def test_boolean_rank_in_json_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "bool-rank.json"
    path.write_text(
        '{"format": "qck-graph", "version": 1, "n": true, "vertices": [], "edges": []}\n',
        encoding="utf-8",
    )
    assert main(["decompose", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "tail",
    [
        '"vertices": 5, "edges": []',
        '"vertices": [], "edges": 7',
        '"vertices": [], "edges": [{"from": [1], "to": "1", "label": 1}]',
    ],
)
def test_hostile_json_sections_are_input_errors(tmp_path, capsys, tail):
    path = tmp_path / "hostile.json"
    path.write_text('{"format": "qck-graph", "version": 1, "n": 2, ' + tail + "}\n", encoding="utf-8")
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_check_refuses_a_byte_deep_in_a_file_that_is_not_utf8(fmt, tmp_path, capsys):
    # the file is read a chunk at a time; the position still counts from its start
    data = dumps(qpow(4, 6), fmt).encode()
    at = 3 * graphcore._CHUNK + 10
    bad = tmp_path / "bad"
    bad.write_bytes(data[:at] + b"\xff" + data[at:])
    assert main(["check", str(bad), "--axioms", "all"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: 'utf-8' codec can't decode byte 0xff in position {at}: invalid start byte\n"


def test_check_reads_a_json_file_that_starts_with_a_byte_order_mark(tmp_path, capsys):
    # it was read as text and refused with "error: bad header '\ufeff{'"
    doc = dumps(qpow(3, 3), "json")
    plain, bom = tmp_path / "plain.json", tmp_path / "bom.json"
    plain.write_text(doc, encoding="utf-8")
    bom.write_text(doc, encoding="utf-8-sig")
    assert main(["check", str(plain), "--axioms", "all"]) == 0
    want = capsys.readouterr()
    assert main(["check", str(bom), "--axioms", "all"]) == 0
    assert capsys.readouterr() == want


# --- decompose ---------------------------------------------------------------


def test_decompose_lists_components(q33_file, capsys):
    assert main(["decompose", q33_file]) == 0
    assert capsys.readouterr().out == (
        "component\t1\tsize\t10\thw\t111\twt\t3,0,0\tranks\t0:1 1:1 2:2 3:2 4:2 5:1 6:1\n"
        "component\t2\tsize\t4\thw\t121\twt\t2,1,0\tranks\t0:1 1:1 2:1 3:1\n"
        "component\t3\tsize\t4\thw\t211\twt\t2,1,0\tranks\t0:1 1:1 2:1 3:1\n"
        "component\t4\tsize\t4\thw\t212\twt\t1,2,0\tranks\t0:1 1:1 2:1 3:1\n"
        "component\t5\tsize\t4\thw\t221\twt\t1,2,0\tranks\t0:1 1:1 2:1 3:1\n"
        "component\t6\tsize\t1\thw\t321\twt\t1,1,1\tranks\t0:1\n"
    )


def test_decompose_flags_multiple_highest_weights(tmp_path, capsys):
    # coherent lengths/weights but two sources lowering onto one sink
    g = QuasiCrystalGraph(3)
    g.add_vertex("a", (0, 2, 1), (2, 0), (0, 1))
    g.add_vertex("b", (1, 0, 2), (0, 2), (1, 0))
    g.add_vertex("c", (0, 1, 2), (1, 1), (0, 0))
    g.add_edge("a", 2, "c")
    g.add_edge("b", 1, "c")
    path = str(tmp_path / "twohw")
    write_graph(g, path)
    assert main(["decompose", path]) == 1
    assert capsys.readouterr().out == "component\t1\tsize\t3\thw\ta|b\twt\t-\tranks\t-\n"


def test_decompose_rejects_incoherent_input(q32_file, tmp_path, capsys):
    g = read_graph(q32_file)
    g.set_weight("12", (5, 0, 0))
    bad = str(tmp_path / "badwt")
    write_graph(g, bad)
    assert main(["decompose", bad]) == 1
    assert capsys.readouterr().out


# --- quasify -----------------------------------------------------------------


def test_quasify_std_is_identity(tmp_path, capsys):
    b4 = str(tmp_path / "b4")
    out = str(tmp_path / "b4q")
    assert main(["build", "std", "--n", "4", "-o", b4]) == 0
    assert main(["quasify", b4, "-o", out]) == 0
    assert read_graph(out) == read_graph(b4)
    capsys.readouterr()


def test_quasify_demands_connected_input(t32_file, capsys):
    assert main(["quasify", t32_file]) == 2
    assert "decompose first" in capsys.readouterr().err


# --- count -------------------------------------------------------------------


def test_count_matches_tableaux(capsys):
    assert main(["count", "--shape", "2,1,1", "--n", "3"]) == 0
    assert capsys.readouterr().out == "components\t3\nstandard-tableaux\t3\nstatus\tPASS\n"


def test_count_on_a_high_rank_standard_crystal_is_quick(capsys):
    # the standard crystal B(300): 300 vertices and 299 indices
    started = time.monotonic()
    assert main(["count", "--shape", "1", "--n", "300"]) == 0
    elapsed = time.monotonic() - started
    assert capsys.readouterr().out == "components\t1\nstandard-tableaux\t1\nstatus\tPASS\n"
    assert elapsed < 10.0, f"count took {elapsed:.1f}s"


@pytest.mark.parametrize("command", ["count", "verify"])
def test_count_past_the_cap_on_string_lengths_refuses_at_once(monkeypatch, capsys, command):
    # B(1001) stores 1001 rows of 1000 string lengths, past the default cap,
    # though its walk of 1001 one-letter words is not; `build std` refuses it too
    monkeypatch.delenv("QCK_SIZE_CAP", raising=False)
    argv = ["count"] if command == "count" else ["verify", "schur"]
    started = time.monotonic()
    assert main(argv + ["--shape", "1", "--n", "1001"]) == 2
    elapsed = time.monotonic() - started
    expected = (
        "error: content (1,) at n=1001 stores 1*1001 rows of 1000 string lengths,"
        " more than the size cap 1000000\n"
    )
    assert capsys.readouterr() == ("", expected)
    assert elapsed < 1.0, f"refusing took {elapsed:.2f}s"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["count", "--shape", "1"], "content (1,) at n=1000000 stores 1*1000000 rows of 999999 string lengths"),
        (["verify", "schur", "--shape", "1"], "content (1,) at n=1000000 stores 1*1000000 rows of 999999 string lengths"),
        (["build", "qtensor-power", "--k", "2"], "1000000^2 = 1000000000000 vertices exceeds"),
    ],
    ids=["count", "verify", "build"],
)
def test_a_refused_rank_allocates_nothing_of_its_size(monkeypatch, capsys, argv, err):
    # a row of n = 10**6 entries takes 8 MB; a refusal must hold none, or a
    # large enough --n runs out of memory instead of exiting 2
    monkeypatch.delenv("QCK_SIZE_CAP", raising=False)
    tracemalloc.start()
    try:
        assert main(argv + ["--n", "1000000"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {err}")
    assert peak < 1_000_000, f"peak {peak / 1e6:.1f} MB"


def test_count_rejects_bad_shape(capsys):
    assert main(["count", "--shape", "1,2", "--n", "3"]) == 2
    assert main(["count", "--shape", "spam", "--n", "3"]) == 2
    capsys.readouterr()


def test_count_over_the_size_cap_is_an_input_error(monkeypatch, capsys):
    monkeypatch.setenv("QCK_SIZE_CAP", "10")
    assert main(["count", "--shape", "2,1", "--n", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


# --- char --------------------------------------------------------------------


def test_char_whole_graph(q32_file, capsys):
    assert main(["char", q32_file]) == 0
    assert capsys.readouterr().out == "x1^2 + 2*x1*x2 + 2*x1*x3 + x2^2 + 2*x2*x3 + x3^2\n"


def test_char_per_component(q32_file, capsys):
    assert main(["char", q32_file, "--per-component"]) == 0
    assert capsys.readouterr().out == (
        "component\t1\tx1^2 + x1*x2 + x1*x3 + x2^2 + x2*x3 + x3^2\n"
        "component\t2\tx1*x2 + x1*x3 + x2*x3\n"
    )


# --- verify ------------------------------------------------------------------


def test_verify_schur_passes(capsys):
    assert main(["verify", "schur", "--shape", "2,1", "--n", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "shape\t2,1\tn\t3"
    assert "identity\tPASS" in out
    assert "component\t121\tF(2,1)\tPASS" in out
    assert "component\t221\tF(1,2)\tPASS" in out
    assert out[-1] == "result\tPASS"


def test_verify_schur_without_variables_is_an_input_error(capsys):
    assert main(["verify", "schur", "--shape", "2,1", "--n", "0"]) == 2
    assert capsys.readouterr() == ("", "error: shape (2, 1) has more than n=0 parts\n")


def test_verify_refuses_an_unknown_property(capsys):
    assert main(["verify", "other", "--shape", "2,1", "--n", "3"]) == 2
    assert "invalid choice: 'other'" in capsys.readouterr().err


# --- iso ---------------------------------------------------------------------


def test_iso_equal_components(q33_file, capsys):
    assert main(["iso", f"{q33_file}#2", f"{q33_file}#3"]) == 0
    assert capsys.readouterr().out == "121\t211\n131\t311\n132\t312\n232\t322\n"


def test_iso_across_two_files(q33_file, tmp_path, capsys):
    copy = str(tmp_path / "q33copy")
    shutil.copy(q33_file, copy)
    assert main(["iso", f"{q33_file}#4", f"{copy}#5"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4


def test_iso_different_weights_prints_none(q33_file, capsys):
    assert main(["iso", f"{q33_file}#1", f"{q33_file}#2"]) == 1
    assert capsys.readouterr().out == "NONE\n"


def test_iso_in_one_file_builds_the_components_once(q33_file, tmp_path, monkeypatch, capsys):
    calls = []

    def counted(g):
        calls.append(g)
        return components(g)

    monkeypatch.setattr(qck.cli, "components", counted)
    assert main(["iso", f"{q33_file}#2", f"{q33_file}#3"]) == 0
    assert capsys.readouterr().out == "121\t211\n131\t311\n132\t312\n232\t322\n"
    assert len(calls) == 1
    copy = str(tmp_path / "q33copy")
    shutil.copy(q33_file, copy)
    assert main(["iso", f"{q33_file}#2", f"{copy}#3"]) == 0
    assert capsys.readouterr().out == "121\t211\n131\t311\n132\t312\n232\t322\n"
    assert len(calls) == 3


def test_iso_of_a_component_with_two_tops_is_a_theorem_violation(tmp_path, capsys):
    path = tmp_path / "two-tops"
    path.write_text(
        "qck-graph v1\nn 3\n"
        "vertex a 1,0,0 0,0 1,0\nvertex b 0,1,0 0,0 0,1\nvertex c 0,0,1 1,1 0,0\n"
        "edge a c 1\nedge b c 2\n",
        encoding="utf-8",
    )
    assert main(["iso", f"{path}#1", f"{path}#1"]) == 1
    assert capsys.readouterr() == (
        "component at 'a' has 2 highest-weight vertices\nhighest-weight\ta\nhighest-weight\tb\n",
        "",
    )


def test_iso_bad_references(q33_file, capsys):
    assert main(["iso", q33_file, f"{q33_file}#2"]) == 2
    assert main(["iso", f"{q33_file}#0", f"{q33_file}#2"]) == 2
    assert main(["iso", f"{q33_file}#99", f"{q33_file}#2"]) == 2
    capsys.readouterr()


# --- stdout pinned -----------------------------------------------------------

# sha256 of the stdout of each pipeline command on q(3,6) as text and t(3,5)
# as JSON, with the exit codes, and of the two files the builds write. The
# digests were computed before the graph readers read rows directly.
PIPELINE_DIGESTS = {
    "build q36": (0, "874fd9b12f45ed781853794d79ad6160a3e90bf882cb545d068443a8199b3338"),
    "build t35": (0, "029398ebcb7194b986e27d8d37f9d088a5e8e9f09fc883161e90b5e54536aa8a"),
    "check q36": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "decompose q36": (0, "8f59fc76e49ed29e20ef64bed6f899c4795ed518f56a8fe8bfa43121e1441d5a"),
    "char q36": (0, "277ba205c9e193af91d3de742e8c4325f4ef0e93f1f586773f219fe667396239"),
    "iso q36": (0, "d5bf7566dfed6497f8819bc9e449cdb451f1fa892fe5ac2c94c579e64ca712eb"),
    "iso-none q36": (1, "51cfd463b6af8a57b3380487f986abf10f137073e9be453e44a7e9a5b4c0e72b"),
    "check t35": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "decompose t35": (0, "cf7c17066eedf99a9fd67ccd40d0c373e432f92c0bb2317dcd0e06024d33d152"),
    "char t35": (0, "7ff2ab02c828e7ef193a441631b1973f2cf25ced9f7daa836a564831b2f8bf27"),
    "iso t35": (0, "08afb80facdfe3c3636a6a48791fc35357fb192a4676dbfc189c8c8fcf3cb92a"),
    "iso-none t35": (1, "51cfd463b6af8a57b3380487f986abf10f137073e9be453e44a7e9a5b4c0e72b"),
    "check t35 quasi keys": (1, "4b0c240cc31ff04acb0c67f92aaebe511762c60c05b99a3ad22fa05173b816f7"),
    "check q36cut": (1, "d505f57a2af64518110d6895d1d03f577766a7a8fb5d91db01d9f1d9de7a50c1"),
}


def pipeline_outputs(tmp_path, capsys) -> dict:
    """{label: (exit code, sha256 of stdout or of the written file)}."""
    q, t, cut = tmp_path / "q36", tmp_path / "t35.json", tmp_path / "q36cut"
    out = {}

    def run(label, argv, written=None):
        rc = main([str(a) for a in argv])
        data = capsys.readouterr().out.encode()
        if written is not None:
            data = written.read_bytes()
        out[label] = (rc, hashlib.sha256(data).hexdigest())

    run("build q36", ["build", "qtensor-power", "--n", "3", "--k", "6", "-o", q], q)
    run("build t35", ["build", "tensor-power", "--n", "3", "--k", "5", "--format", "json", "-o", t], t)
    for tag, path in (("q36", q), ("t35", t)):
        run(f"check {tag}", ["check", path, "--axioms", "all"])
        run(f"decompose {tag}", ["decompose", path])
        run(f"char {tag}", ["char", "--per-component", path])
        run(f"iso {tag}", ["iso", f"{path}#2", f"{path}#3"])
        run(f"iso-none {tag}", ["iso", f"{path}#1", f"{path}#2"])
    run("check t35 quasi keys", ["check", t, "--axioms", "lq1,lq2,lq3,lq3p,cases,infs,lemij"])
    # q(3,6) without its first edge line: seminormal witnesses
    lines = q.read_text(encoding="utf-8").splitlines(keepends=True)
    first_edge = next(k for k, ln in enumerate(lines) if ln.startswith("edge "))
    cut.write_text("".join(lines[:first_edge] + lines[first_edge + 1 :]), encoding="utf-8")
    run("check q36cut", ["check", cut, "--axioms", "all"])
    return out


def test_pipeline_stdout_is_pinned(tmp_path, capsys):
    assert pipeline_outputs(tmp_path, capsys) == PIPELINE_DIGESTS


# sha256 of each writing command's document, with its exit code, computed
# before the writers streamed to the output; q(3,8) is more pieces than one
# write takes. Each command runs twice, writing to -o FILE and to stdout,
# and both must give the same bytes.
WRITER_DIGESTS = {
    "build q38": (0, "1958f25d9d5f6ffca795ad23bd37a7d9e909a68c7cc110087eae12f3ab6d9752"),
    "build t35 json": (0, "029398ebcb7194b986e27d8d37f9d088a5e8e9f09fc883161e90b5e54536aa8a"),
    "build std4": (0, "456f4b97b6074efaa592634f80b8797f2c41e9d4a6fd17a81d53e420aca8abe8"),
    "export text q38": (0, "1958f25d9d5f6ffca795ad23bd37a7d9e909a68c7cc110087eae12f3ab6d9752"),
    "export text t35": (0, "4cc2bd19f67058132601291be3275ac2112ac3d67e771fe148f2a674502a28fa"),
    "export json q38": (0, "590fb6b9e6ed0e40a7f9a70cf60f1327a527fd39788b117a1675d8402de92f00"),
    "export json t35": (0, "029398ebcb7194b986e27d8d37f9d088a5e8e9f09fc883161e90b5e54536aa8a"),
    "export dot q38": (0, "87cc5d26b17f05067f6a376cb2fd1d6b976030ae79ca6f357e9ede1c735590c3"),
    "export dot t35": (0, "c30d184dde2d847535c6a04657e3496849d222371ac2f1a3cd069aabd0bdf514"),
    "quasify text std4": (0, "456f4b97b6074efaa592634f80b8797f2c41e9d4a6fd17a81d53e420aca8abe8"),
    "quasify json std4": (0, "fdfc13f38bb89b8491f87621ba26e0a70bef1a497c43346c3b2cc96b63dd76c6"),
}


def writer_outputs(tmp_path, capsys) -> dict:
    q38, t35, std4 = tmp_path / "q38", tmp_path / "t35.json", tmp_path / "std4"
    out = {}

    def run(label, argv, path):
        rc = main([str(a) for a in argv + ["-o", path]])
        assert capsys.readouterr().out == ""
        written = path.read_bytes()
        assert main([str(a) for a in argv]) == rc
        assert capsys.readouterr().out.encode() == written, label
        out[label] = (rc, hashlib.sha256(written).hexdigest())

    run("build q38", ["build", "qtensor-power", "--n", "3", "--k", "8"], q38)
    run("build t35 json", ["build", "tensor-power", "--n", "3", "--k", "5", "--format", "json"], t35)
    run("build std4", ["build", "std", "--n", "4"], std4)
    for fmt in ("text", "json", "dot"):
        run(f"export {fmt} q38", ["export", fmt, q38], tmp_path / f"q38.{fmt}")
        run(f"export {fmt} t35", ["export", fmt, t35], tmp_path / f"t35.{fmt}")
    for fmt in ("text", "json"):
        run(f"quasify {fmt} std4", ["quasify", std4, "--format", fmt], tmp_path / f"q4.{fmt}")
    return out


def test_writer_outputs_are_pinned(tmp_path, capsys):
    assert writer_outputs(tmp_path, capsys) == WRITER_DIGESTS


# --- export ------------------------------------------------------------------


def test_export_round_trip_preserves_graph(q33_file, tmp_path, capsys):
    as_json = str(tmp_path / "as_json")
    as_text = str(tmp_path / "as_text")
    assert main(["export", "json", q33_file, "-o", as_json]) == 0
    assert main(["export", "text", as_json, "-o", as_text]) == 0
    assert read_graph(as_text) == read_graph(q33_file)
    capsys.readouterr()


def test_export_dot(q33_file, capsys):
    assert main(["export", "dot", q33_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert '"321" -> "321"' in out


# --- fuzz --------------------------------------------------------------------


def test_fuzz_reports_rate(q32_file, capsys):
    assert main(["fuzz", q32_file, "--count", "25", "--seed", "9"]) == 0
    assert capsys.readouterr().out == "total\t25\ndetected\t25\nsilent\t0\nrate\t1.0000\n"


def test_fuzz_rate_leaves_out_valid_mutants(tmp_path, capsys):
    # the 17 silent mutants here are all weight edits of fully frozen
    # vertices, which are themselves coherent seminormal quasi-crystals
    q38 = str(tmp_path / "q38")
    assert main(["build", "qtensor-power", "--n", "3", "--k", "8", "-o", q38]) == 0
    assert main(["fuzz", q38, "--count", "64", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == ["total\t64", "detected\t47", "silent\t17", "rate\t1.0000"]
    assert len(lines) == 4 + 17
    assert all(ln.endswith("\tmutant is itself a coherent seminormal quasi-crystal") for ln in lines[4:])


def test_fuzz_exits_1_when_the_battery_misses_damage(q32_file, monkeypatch, capsys):
    monkeypatch.setattr(qck.mutation, "family", lambda g: {})
    monkeypatch.setitem(qck.axioms.CORE, "seminormal", lambda g, around=None: AxiomReport("seminormal"))
    monkeypatch.setitem(qck.axioms.CORE, "q", lambda g, around=None: AxiomReport("validate"))
    assert main(["fuzz", q32_file, "--count", "25", "--seed", "9"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == ["total\t25", "detected\t0", "silent\t25", "rate\t0.0000"]
    assert all(ln.endswith("\tunclassified gap") for ln in lines[4:])


def test_fuzz_is_deterministic(q32_file, capsys):
    assert main(["fuzz", q32_file, "--count", "40", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["fuzz", q32_file, "--count", "40", "--seed", "3"]) == 0
    assert capsys.readouterr().out == first


def test_fuzz_negative_count_is_a_usage_error(q32_file, capsys):
    assert main(["fuzz", q32_file, "--count", "-5", "--seed", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "count" in captured.err


@pytest.mark.parametrize("count", ["3", "0"])
def test_fuzz_with_nothing_to_mutate_is_an_input_error(tmp_path, capsys, count):
    one = str(tmp_path / "s1")
    assert main(["build", "std", "--n", "1", "-o", one]) == 0
    empty = tmp_path / "empty.json"
    empty.write_text(
        '{"format": "qck-graph", "version": 1, "n": 2, "vertices": [], "edges": []}\n', encoding="utf-8"
    )
    for path in (one, str(empty)):
        assert main(["fuzz", path, "--count", count]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: fuzz needs a graph with a vertex and an index to mutate\n"


def test_fuzz_rejects_incoherent_start(q32_file, tmp_path, capsys):
    g = read_graph(q32_file)
    g.set_epsilon("12", 1, 3)
    bad = str(tmp_path / "bad")
    write_graph(g, bad)
    assert main(["fuzz", bad, "--count", "5", "--seed", "0"]) == 2
    assert "coherent seminormal" in capsys.readouterr().err


# --- argument handling --------------------------------------------------------


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_console_script_is_installed():
    exe = shutil.which("qck")
    assert exe, "console script qck not on PATH"
    proc = subprocess.run(
        [exe, "count", "--shape", "2,1", "--n", "3"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "status\tPASS"
