"""Differential gate for the whole-graph readers.

validate, is_seminormal, components and the text/JSON writers read the
vertex rows directly. The oracles in oracles.py are the same readers written
over the guarded per-entry accessors; both must agree on every mutant of the
mutated corpus. The file readers must refuse hostile input with the same
error type and message as before they stopped going through add_vertex.
"""

import gc
import io
import json
import math
import os
import random
import threading
import tracemalloc
from collections import Counter
from unittest import mock

from hypothesis import given, settings, strategies as st
import pytest

from qck import graphcore
from qck.graphcore import (
    NEG_INF,
    POS_INF,
    GraphFormatError,
    QuasiCrystalGraph,
    dumps,
    from_json,
    from_text,
    is_seminormal,
    loads,
    read_graph,
    to_dot,
    to_json,
    to_text,
    validate,
    write_graph,
)
from qck.structure import components
from qck.quasify import crystal_of_content, quasify
from qck.wordmodel import quasi_tensor, quasi_tensor_power, tensor, tensor_power

import oracles
from corpus import content_quasi, crystal_corpus, qpow, quasi_corpus, std, tpow, witness_plan


@pytest.fixture(scope="module")
def mutants():
    return list(witness_plan())


def test_validate_matches_the_accessor_oracle(mutants):
    for tag, g in mutants:
        assert validate(g).lines() == oracles.validate_via_accessors(g).lines(), tag


def test_seminormal_matches_the_accessor_oracle(mutants):
    for tag, g in mutants:
        assert is_seminormal(g).lines() == oracles.seminormal_via_accessors(g).lines(), tag


def test_around_keeps_the_oracle_witnesses_anchored_there(mutants):
    rng = random.Random(6)
    for tag, g in mutants[::7]:
        near = set(rng.sample(g.vertex_ids(), len(g) // 3))
        for fast, oracle in (
            (validate, oracles.validate_via_accessors),
            (is_seminormal, oracles.seminormal_via_accessors),
        ):
            want = [w.line() for w in oracle(g).witnesses if w.vertices[0] in near]
            assert fast(g, around=near).lines() == want, tag


def test_components_match_the_accessor_oracle(mutants):
    for tag, g in mutants:
        got = [(c.vertices, c.hw_vertices) for c in components(g)]
        assert got == oracles.components_via_accessors(g), tag


def reread(reader, payload) -> str:
    """The text of the graph the reader loads from payload, or its refusal."""
    try:
        return to_text(reader(payload))
    except GraphFormatError as exc:
        return f"refused: {exc}"


class Writes(io.StringIO):
    """A text file that counts its write calls."""

    calls = 0

    def write(self, text):
        self.calls += 1
        return super().write(text)


def streamed(write, g) -> str:
    """What write(g, out) writes to a text file; it returns None."""
    out = io.StringIO()
    assert write(g, out) is None
    return out.getvalue()


def test_writers_match_the_accessor_oracles_and_round_trip(mutants):
    # the files keep f only, so a mutant whose e-table disagrees reloads as
    # another graph, or is refused when two f edges meet; either way the
    # two formats must load alike
    loaded = 0
    for tag, g in mutants:
        text, doc = to_text(g), to_json(g)
        assert text == oracles.text_via_accessors(g) == streamed(to_text, g) == dumps(g, "text"), tag
        assert doc == oracles.json_via_accessors(g) == streamed(to_json, g) == dumps(g, "json"), tag
        back = reread(from_text, text)
        assert back == reread(from_json, doc), tag
        assert back == text or back.startswith("refused: "), tag
        loaded += back == text
    assert loaded > len(mutants) // 2


def edge_case_graphs():
    """(tag, graph) for the corners of the writers' layout."""
    out = [(f"no vertices, n={n}", QuasiCrystalGraph(n)) for n in (1, 3)]
    one = QuasiCrystalGraph(1)
    for vid, c in (("b", 2), ("a", -1), ("c", 2)):
        one.add_vertex(vid, (c,), [], [])
    out.append(("n=1", one))
    lone = QuasiCrystalGraph(3)
    lone.add_vertex("x", (1, 1, 1), [POS_INF, 0], [POS_INF, 0])
    lone.add_vertex("y", (2, 0, 1), [0, 0], [2, -1])
    out.append(("vertices but no edges", lone))
    odd = QuasiCrystalGraph(2)
    for k, vid in enumerate(['q"uote', "back\\slash", "\u00e9t\u00e9", "ctl\x01", "emoji\U0001f600", "plain"]):
        odd.add_vertex(vid, (k, 0), [NEG_INF if k % 2 else -k], [POS_INF if k % 3 else k - 7])
    odd.add_edge("plain", 1, 'q"uote')
    odd.add_edge("emoji\U0001f600", 1, "ctl\x01")
    out.append(("escaped ids, negative and infinite lengths", odd))
    return out


@pytest.mark.parametrize("tag, g", edge_case_graphs(), ids=[tag for tag, _ in edge_case_graphs()])
def test_writers_match_the_accessor_oracles_on_edge_cases(tag, g):
    text, doc = to_text(g), to_json(g)
    assert text == oracles.text_via_accessors(g) == streamed(to_text, g) == dumps(g, "text")
    assert doc == oracles.json_via_accessors(g) == streamed(to_json, g) == dumps(g, "json")
    assert streamed(to_dot, g) == to_dot(g) == dumps(g, "dot")
    assert from_json(doc) == g == from_text(text)


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
def test_writers_stream_a_large_graph_in_several_writes(fmt):
    g = qpow(3, 8)  # 6,561 vertices: more pieces than one write takes
    out = Writes()
    assert dumps(g, fmt, out) is None
    assert out.calls > 1 and out.getvalue() == dumps(g, fmt)


def test_write_graph_refuses_an_unknown_format_before_making_the_file(tmp_path):
    path = tmp_path / "g"
    with pytest.raises(ValueError, match="unknown format 'yaml'"):
        write_graph(std(2), str(path), "yaml")
    assert not path.exists()


@pytest.mark.parametrize("write, read", [(to_text, from_text), (to_json, from_json)])
def test_read_edge_ends_are_the_stored_ids(write, read):
    # each id string is held once: every e and f target is the stored key itself
    targets = 0
    for tag, g in quasi_corpus() + crystal_corpus():
        h = read(write(g))
        stored = {x: x for x in h._wt}
        for rows in (h._e, h._f):
            for row in rows.values():
                for y in row:
                    if y is not None:
                        assert y is stored[y], tag
                        targets += 1
    assert targets > 1000


def held_bytes(make):
    """make()'s result and the bytes it still holds, by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        made = make()
        gc.collect()
        return made, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "build, write, read",
    [
        (quasi_tensor_power, to_text, from_text),
        (tensor_power, to_json, from_json),
        (tensor_power, to_text, from_text),
        (quasi_tensor_power, to_json, from_json),
    ],
)
def test_a_graph_read_from_its_file_is_no_larger_than_the_built_one(build, write, read):
    g, built = held_bytes(lambda: build(3, 5))
    payload = write(g)
    read(payload)  # the first read fills the interpreter's own caches
    h, loaded = held_bytes(lambda: read(payload))
    assert h == g
    assert loaded <= 1.05 * built, (loaded, built)


def held_and_peak(make):
    """make()'s result, the bytes it still holds and the most it held while
    it ran, by tracemalloc; a first call fills the interpreter's own caches."""
    make()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        made = make()
        gc.collect()
        return (made, *(m - before for m in tracemalloc.get_traced_memory()))
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("build", [tensor_power, quasi_tensor_power])
def test_a_json_read_peaks_near_the_graph_it_holds(build):
    # the reader holds no whole parsed document, with which a read peaked
    # at 2.9 times the graph it returned
    payload = to_json(build(4, 5))
    h, held, peak = held_and_peak(lambda: from_json(payload))
    assert len(h) == 4**5
    assert peak <= 1.6 * held, (peak, held)


@pytest.mark.parametrize("build", [tensor_power, quasi_tensor_power])
def test_a_text_read_peaks_near_the_graph_it_holds(build):
    # the reader walks the text a chunk at a time, twice; with the list of
    # every line held until its second pass ended, a read of these files
    # peaked at 1.69-1.83 times the graph it returned (1.34 without)
    payload = to_text(build(4, 6))
    h, held, peak = held_and_peak(lambda: from_text(payload))
    assert len(h) == 4**6
    assert peak <= 1.5 * held, (peak, held)


@pytest.fixture(scope="module", params=[tensor_power, quasi_tensor_power], ids=lambda build: build.__name__)
def power_4_6(request):
    """build(4, 6) as held_and_peak measures it, built once for the tests below."""
    return held_and_peak(lambda: request.param(4, 6))


def test_a_power_build_peaks_near_the_graph_it_holds(power_4_6):
    # besides the graph, the build holds a level's distinct rows, the ids and
    # one row index per word, and no word-keyed map: it peaks at 1.48-1.64
    # times the graph (1.75 with a map from every word tuple to its id, and
    # 1.98-1.99 with a list of every row and a memo of every word as well)
    g, held, peak = power_4_6
    assert len(g) == 4**6
    assert peak <= 1.9 * held, (peak, held)


def test_a_file_write_holds_one_piece_at_a_time(power_4_6, tmp_path):
    # the pieces go to the file's writelines as they are made, and a write
    # peaks at 0.05-0.16 times the graph, mostly the rows it renders once
    # each; joined 4,096 pieces at a time, a write peaked at 0.51-1.15 times
    g, graph, _ = power_4_6
    path = str(tmp_path / "g")
    for fmt in ("text", "json", "dot"):
        _, _, peak = held_and_peak(lambda: write_graph(g, path, fmt))
        assert peak <= 0.3 * graph, (fmt, peak, graph)


@pytest.mark.parametrize("write, read", [(to_text, from_text), (to_json, from_json)])
def test_vertices_read_from_one_field_text_hold_their_own_rows(write, read):
    # fuzz edits a graph in place through the setters; vertices with equal
    # rows share them, so an edit must give its vertex a new row
    g = QuasiCrystalGraph(3)
    for vid in ("a", "b"):
        g.add_vertex(vid, (1, 1, 1), [POS_INF, 0], [POS_INF, 0])
    h = read(write(g))
    assert h == g
    h.set_epsilon("a", 2, 5)
    h.set_phi("a", 1, 7)
    assert (h.eps("b", 2), h.phi("b", 1)) == (0, POS_INF)
    assert h._eps["a"] is not h._eps["b"] and h._phi["a"] is not h._phi["b"]


# ------------------------------------------------------------ canonical infinities


def stores_two_infinities(g) -> bool:
    """Every stored string length of g is an int, or POS_INF or NEG_INF itself."""
    return all(
        type(v) is int or v is POS_INF or v is NEG_INF
        for table in (g._eps, g._phi)
        for row in table.values()
        for v in row
    )


class _Float(float):
    pass


# fresh float infinities, none of them POS_INF or NEG_INF
FRESH_POS = (float("inf"), float("1e309"), _Float("inf"))
FRESH_NEG = (float("-inf"), -float("inf"), _Float("-inf"))


def tuple_rows(g) -> bool:
    """Every stored weight, eps and phi row of g is a tuple."""
    return all(type(row) is tuple for table in (g._wt, g._eps, g._phi) for row in table.values())


def test_every_constructor_and_reader_stores_tuple_rows():
    added = QuasiCrystalGraph(3)
    added.add_vertex("a", [1, 0, 0], [0, POS_INF], [1, POS_INF])
    content = crystal_of_content((2, 1), 3)
    made = {
        "add_vertex": added,
        "tensor_power": tensor_power(3, 3),
        "quasi_tensor_power": quasi_tensor_power(3, 3),
        "standard_crystal": std(4),
        "tensor": tensor(tpow(3, 2), std(3)),
        "quasi_tensor": quasi_tensor(qpow(3, 2), qpow(3, 2)),
        "crystal_of_content": content,
        "quasify": quasify(content),
        "copy": qpow(3, 3).copy(),
        "subgraph": components(qpow(3, 3))[1].subgraph(),
        "from_text": from_text(to_text(qpow(3, 3))),
        "from_json": from_json(to_json(qpow(3, 3))),
    }
    for name, g in made.items():
        assert len(g) and tuple_rows(g), name
    added.set_epsilon("a", 2, 3)
    added.set_phi("a", 2, 4)
    assert tuple_rows(added) and (added._eps["a"], added._phi["a"]) == ((0, 3), (1, 4))


# build, and the divisor d of its vertex count that bounds its distinct
# (wt, eps, phi) row triples: the quasified crystal has 132 for 175 vertices
ROW_BUILDS = {
    "tensor_power": (lambda: tensor_power(3, 5), 4),
    "quasi_tensor_power": (lambda: quasi_tensor_power(3, 5), 4),
    "tensor": (lambda: tensor(tpow(3, 2), tpow(3, 3)), 4),
    "quasi_tensor": (lambda: quasi_tensor(qpow(4, 3), qpow(4, 3)), 4),
    "quasify": (lambda: quasify(crystal_of_content((4, 3, 1), 4)), 1),
}


@pytest.mark.parametrize("build,d", ROW_BUILDS.values(), ids=list(ROW_BUILDS))
def test_the_powers_and_their_reads_store_each_distinct_row_once(build, d):
    # one (wt, eps, phi) object triple per distinct row value triple; the
    # build also holds one object per distinct weight, eps or phi row
    g = build()
    for table in (g._wt, g._eps, g._phi):
        assert len({id(row) for row in table.values()}) == len(set(table.values()))
    assert len(set(g._eps.values())) < len(g) // 4
    for tag, h in (("build", g), ("text", from_text(to_text(g))), ("json", from_json(to_json(g)))):
        rows = [(h._wt[x], h._eps[x], h._phi[x]) for x in h.vertex_ids()]
        objects = {tuple(map(id, row)) for row in rows}
        assert len(objects) == len(set(rows)) < len(h) // d, tag


def test_stored_infinities_are_the_two_singletons():
    for pos, neg in zip(FRESH_POS, FRESH_NEG):
        assert pos is not POS_INF and neg is not NEG_INF
        g = QuasiCrystalGraph(3)
        g.add_vertex("a", (1, 1, 0), [pos, neg], [pos, 0])
        assert g.eps("a", 1) is POS_INF and g.eps("a", 2) is NEG_INF and g.phi("a", 1) is POS_INF
        g.set_epsilon("a", 2, pos)
        g.set_phi("a", 2, neg)
        assert g.eps("a", 2) is POS_INF and g.phi("a", 2) is NEG_INF
        g.set_epsilon("a", 1, -math.inf)
        assert g.eps("a", 1) is NEG_INF and stores_two_infinities(g)


def test_fresh_infinities_validate_like_the_singletons():
    fresh = QuasiCrystalGraph(2)
    fresh.add_vertex("v", (1, 1), (float("inf"),), (float("-inf"),))
    fresh.add_vertex("w", (1, 0), (-math.inf,), (0,))
    same = QuasiCrystalGraph(2)
    same.add_vertex("v", (1, 1), (POS_INF,), (NEG_INF,))
    same.add_vertex("w", (1, 0), (NEG_INF,), (0,))
    assert fresh == same
    assert validate(fresh).lines() == validate(same).lines() == oracles.validate_via_accessors(same).lines()
    assert validate(fresh).lines()  # the mixed infinities break Q2


def test_the_corpora_and_their_reads_store_two_infinities():
    for tag, g in quasi_corpus() + crystal_corpus():
        assert stores_two_infinities(g), tag
        for write, read in ((to_text, from_text), (to_json, from_json)):
            h = read(write(g))
            assert h == g and stores_two_infinities(h), (tag, read.__name__)


def test_quasify_stores_two_infinities():
    for shape, n in (((2, 1), 3), ((3, 1), 4), ((2, 2), 3)):
        assert stores_two_infinities(quasify(crystal_of_content(shape, n))), (shape, n)
    for comp in components(tensor_power(3, 3)):
        assert stores_two_infinities(quasify(comp.subgraph())), comp


def lone_vertex(n: int, wt, length):
    """A one-vertex graph with every string length equal to ``length``."""
    g = QuasiCrystalGraph(n)
    g.add_vertex("v", wt, [length] * (n - 1), [length] * (n - 1))
    return g


def test_products_store_two_infinities():
    # every product shifts lengths of its factors by <wt, alpha_i>; a shifted
    # infinity must not be stored as a new float
    for a, b in ((2, 2), (2, 3), (3, 2)):
        assert stores_two_infinities(quasi_tensor(qpow(3, a), qpow(3, b)))
    for n, wt in ((2, (1, 0)), (2, (0, 0)), (3, (2, 0, 1))):
        for left in (POS_INF, NEG_INF, 0):
            for right in (POS_INF, NEG_INF):
                for a, b in ((left, right), (right, left)):
                    h = quasi_tensor(lone_vertex(n, wt, a), lone_vertex(n, wt, b))
                    assert stores_two_infinities(h), (n, wt, a, b)
        assert stores_two_infinities(quasi_tensor(lone_vertex(n, wt, POS_INF), qpow(n, 2)))
        assert stores_two_infinities(tensor(lone_vertex(n, wt, NEG_INF), tpow(n, 2)))
    # the case that needs the -inf guard: eps = phi = -inf on both sides
    h = quasi_tensor(lone_vertex(2, (0, 0), NEG_INF), lone_vertex(2, (0, 0), NEG_INF))
    assert h.eps("vv", 1) is NEG_INF and h.phi("vv", 1) is NEG_INF


def test_copy_is_equal_and_independent_on_the_mutated_corpus(mutants):
    for tag, g in mutants:
        h = g.copy()
        assert h == g and h.raising_edges() == g.raising_edges(), tag
        for table in ("_e", "_f"):
            rows, copied = getattr(g, table), getattr(h, table)
            assert not any(copied[x] is rows[x] for x in rows), (tag, table)
        # the weight and length rows are immutable, so the copy may share them
        assert tuple_rows(h), tag
        x = g.vertex_ids()[0]
        before = (g.eps(x, 1), g.phi(x, 1), g.f(x, 1))
        h.set_epsilon(x, 1, 99)
        h.set_phi(x, 1, 98)
        h.set_lowering(x, 1, None if before[2] is not None else x)
        assert h != g and (g.eps(x, 1), g.phi(x, 1), g.f(x, 1)) == before, tag


# ------------------------------------------------------------ hostile input


BIG = "9" * 5000
INT_LIMIT = (
    "Exceeds the limit (4300 digits) for integer string conversion: value has 5000 digits;"
    " use sys.set_int_max_str_digits() to increase the limit"
)


def hostile_reads():
    """(label, reader, payload) for every refusal the file readers make."""
    text = to_text(std(2))
    vertex = next(ln for ln in text.splitlines() if ln.startswith("vertex"))
    cases = [
        ("text no header", from_text, "n 3\n"),
        ("text empty", from_text, "# nothing\n"),
        ("text version", from_text, "qck-graph v99\nn 3\n"),
        ("text rank", from_text, "qck-graph v1\nn x\n"),
        ("text duplicate vertex", from_text, text + vertex + "\n"),
        ("text dangling edge", from_text, text + "edge 2 9 1\n"),
        ("text edge from an unknown vertex", from_text, text + "edge 9 2 1\n"),
        ("text label out of range", from_text, text + "edge 1 2 7\n"),
        ("text label not an int", from_text, text + "edge 1 2 a\n"),
        ("text edge set twice", from_text, text + "edge 1 2 1\n"),
        ("text short vertex line", from_text, text + "vertex 9 1,0\n"),
        ("text weight length", from_text, text + "vertex 9 1,0,0 0 1\n"),
        ("text infinite weight", from_text, text + "vertex 9 +inf,0 0 1\n"),
        ("text bad eps", from_text, text + "vertex 9 1,0 x 1\n"),
        ("text eps count", from_text, text + "vertex 9 1,0 0,0 1\n"),
        ("text unknown record", from_text, text + "arc 1 2 1\n"),
        ("text no rank line", from_text, "qck-graph v1\n" + vertex + "\n"),
        ("text short edge line", from_text, text + "edge 1 2\n"),
        ("text rank line with junk", from_text, "qck-graph v1\nn 3 junk more\n"),
        ("text rank with an underscore", from_text, "qck-graph v1\nn 1_0\n"),
        ("text weight with an underscore", from_text, text + "vertex 9 1_0,0 0 1\n"),
        ("text weight with a non-ASCII digit", from_text, text + "vertex 9 0,\u0661 1 0\n"),
        ("text phi with an underscore", from_text, text + "vertex 9 1,0 0 1_0\n"),
        ("text label with a non-ASCII digit", from_text, text + "edge 1 2 \u0661\n"),
        ("text rank zero", from_text, "qck-graph v1\nn 0\n"),
        ("text negative rank", from_text, "qck-graph v1\nn -3\n"),
        ("text rank with a plus sign", from_text, "qck-graph v1\nn +3\n"),
        ("text weight with a plus sign", from_text, text + "vertex 9 +1,0 0 1\n"),
        ("text eps with a plus sign", from_text, text + "vertex 9 1,0 +0 1\n"),
        ("text label with a plus sign", from_text, text + "edge 1 2 +1\n"),
        ("text one bad weight on two vertices", from_text, text + "vertex 8 1,0,0 0 1\nvertex 9 1,0,0 0 1\n"),
        # rows that share fields with the good rows 1,0 0 1 and 0,1 1 0 above
        ("text seen weight and eps with a bad phi", from_text, text + "vertex 9 1,0 0 x\n"),
        ("text seen eps and phi with a weight of the wrong length", from_text, text + "vertex 9 0,1,0 1 0\n"),
        ("text duplicate id on a seen row", from_text, text + "vertex 2 1,0 0 1\n"),
        ("text seen weight with the wrong eps count", from_text, text + "vertex 9 0,1 1,1 0\n"),
        # every line's record shape is checked before the first edge is added
        ("text edge set twice before a short vertex line", from_text, text + "edge 1 2 1\nvertex 9 1,0\n"),
        ("text short edge line before a short vertex line", from_text, text + "edge 1 2\nvertex 9 1,0\n"),
    ]
    doc = json.loads(to_json(std(2)))

    def edit(change):
        d = json.loads(json.dumps(doc))
        change(d)
        return json.dumps(d)

    def vertex_field(key, value):
        return lambda d: d["vertices"][0].__setitem__(key, value)

    cases += [
        ("json format", from_json, edit(lambda d: d.__setitem__("format", "something-else"))),
        ("json version", from_json, edit(lambda d: d.__setitem__("version", 2))),
        ("json boolean rank", from_json, edit(lambda d: d.__setitem__("n", True))),
        ("json vertices not a list", from_json, edit(lambda d: d.__setitem__("vertices", 5))),
        ("json edges not a list", from_json, edit(lambda d: d.__setitem__("edges", 7))),
        ("json vertices null", from_json, edit(lambda d: d.__setitem__("vertices", None))),
        ("json boolean length", from_json, edit(lambda d: d["vertices"][0]["eps"].__setitem__(0, True))),
        ("json bad length", from_json, edit(lambda d: d["vertices"][0]["eps"].__setitem__(0, "x"))),
        ("json id with a space", from_json, edit(vertex_field("id", "a b"))),
        ("json empty id", from_json, edit(vertex_field("id", ""))),
        ("json int id", from_json, edit(vertex_field("id", 7))),
        ("json duplicate id", from_json, edit(vertex_field("id", "2"))),
        ("json weight length", from_json, edit(vertex_field("wt", [1, 0, 0]))),
        ("json boolean weight", from_json, edit(vertex_field("wt", [True, 0]))),
        ("json eps count", from_json, edit(vertex_field("eps", [0, 0]))),
        ("json missing phi", from_json, edit(lambda d: d["vertices"][0].pop("phi"))),
        ("json edge without label", from_json, edit(lambda d: d["edges"][0].pop("label"))),
        ("json edge end a list", from_json, edit(lambda d: d["edges"][0].__setitem__("from", [1]))),
        ("json edge end a dict", from_json, edit(lambda d: d["edges"][0].__setitem__("to", {"a": 1}))),
        ("json edge to a list", from_json, edit(lambda d: d["edges"][0].__setitem__("to", [2]))),
        ("json boolean label", from_json, edit(lambda d: d["edges"][0].__setitem__("label", True))),
        ("json label out of range", from_json, edit(lambda d: d["edges"][0].__setitem__("label", 3))),
        ("json edge set twice", from_json, edit(lambda d: d["edges"].append(dict(d["edges"][0])))),
        ("json invalid", from_json, "{oops"),
        ("json eps a string", from_json, edit(vertex_field("eps", "0"))),
        ("json phi a dict", from_json, edit(vertex_field("phi", {"1": 0}))),
        ("json length with a non-ASCII digit", from_json, edit(vertex_field("eps", ["\u0661"]))),
        ("json nested too deeply", from_json, '{"format": ' + "[" * 200_000 + "]" * 200_000 + "}"),
        ("json rank zero", from_json, edit(lambda d: d.__setitem__("n", 0))),
        ("json negative rank", from_json, edit(lambda d: d.__setitem__("n", -3))),
        ("json length with a plus sign and spaces", from_json, edit(vertex_field("eps", [" +0 "]))),
        ("json length with a plus sign", from_json, edit(vertex_field("eps", ["+0"]))),
        ("json length with a space", from_json, edit(vertex_field("phi", ["1 "]))),
    ]
    # bare JSON numbers that json.loads reads as floats: the readers take
    # +inf and -inf only as the strings the writers write
    def bare(change, token):
        """edit(change), with the number 12345 that change wrote replaced by token."""
        return edit(change).replace("12345", token)

    for key in ("eps", "phi"):
        for token in ("Infinity", "-Infinity", "NaN", "1e309"):
            cases.append((f"json {key} {token}", from_json, bare(vertex_field(key, [12345]), token)))
    cases += [
        ("json weight Infinity", from_json, bare(vertex_field("wt", [1, 12345]), "Infinity")),
        ("json rank Infinity", from_json, bare(lambda d: d.__setitem__("n", 12345), "Infinity")),
        ("json label Infinity", from_json, bare(lambda d: d["edges"][0].__setitem__("label", 12345), "Infinity")),
    ]
    # integers past int()'s limit of 4,300 digits for a string
    cases += [
        ("json rank of 5,000 digits", from_json, bare(lambda d: d.__setitem__("n", 12345), BIG)),
        ("json weight entry of 5,000 digits", from_json, bare(vertex_field("wt", [1, 12345]), BIG)),
        ("json label of 5,000 digits", from_json, bare(lambda d: d["edges"][0].__setitem__("label", 12345), BIG)),
        ("text rank of 5,000 digits", from_text, f"qck-graph v1\nn {BIG}\n"),
        ("text weight entry of 5,000 digits", from_text, text + f"vertex 9 1,{BIG} 0 1\n"),
        ("text label of 5,000 digits", from_text, text + f"edge 1 2 {BIG}\n"),
    ]
    # tokens that float() reads but the text format never writes
    for token in ("inf", "infinity", "nan", "1e309"):
        cases.append((f"text eps {token}", from_text, text + f"vertex 9 1,0 {token} 1\n"))
    return cases


# (error type, message) of each hostile read, recorded before the readers
# stopped calling add_vertex per vertex. The rank line with junk and the
# eps/phi that are not lists were read silently before they were refused.
# So were integers with underscores, non-ASCII digits, a plus sign or
# surrounding spaces, which int() reads but the writers never write; deep
# JSON nesting raised RecursionError.
HOSTILE_REFUSALS = {
    "text no header": ("GraphFormatError", "bad header 'n 3'; expected 'qck-graph v1'"),
    "text empty": ("GraphFormatError", "empty graph file"),
    "text version": ("GraphFormatError", "unsupported format version 'v99'"),
    "text rank": ("GraphFormatError", "bad rank line 'n x'"),
    "text duplicate vertex": ("GraphFormatError", "duplicate vertex id '1'"),
    "text dangling edge": ("GraphFormatError", "edge references unknown vertex: 2 -> 9"),
    "text label out of range": ("GraphFormatError", "operator index 7 out of range 1..1"),
    "text label not an int": ("GraphFormatError", "bad edge label 'a'"),
    "text edge set twice": ("GraphFormatError", "f_1('1') already set"),
    "text short vertex line": ("GraphFormatError", "bad vertex line 'vertex 9 1,0'"),
    "text weight length": ("GraphFormatError", "weight of '9' must be 2 ints, got (1, 0, 0)"),
    "text infinite weight": ("GraphFormatError", "9: weight entries must be finite ints"),
    "text bad eps": ("GraphFormatError", "9: bad eps: not an extended integer: 'x'"),
    "text eps count": ("GraphFormatError", "'9': need 1 eps and phi entries"),
    "text unknown record": ("GraphFormatError", "unknown record 'arc'"),
    "json format": ("GraphFormatError", "not a qck-graph document"),
    "json version": ("GraphFormatError", "unsupported format version 2"),
    "json boolean rank": ("GraphFormatError", "missing integer field 'n'"),
    "json vertices not a list": ("GraphFormatError", "fields 'vertices' and 'edges' must be lists"),
    "json edges not a list": ("GraphFormatError", "fields 'vertices' and 'edges' must be lists"),
    "json vertices null": ("GraphFormatError", "fields 'vertices' and 'edges' must be lists"),
    "json boolean length": ("GraphFormatError", "1: expected int or '+inf'/'-inf', got True"),
    "json bad length": ("GraphFormatError", "1: not an extended integer: 'x'"),
    "json id with a space": ("GraphFormatError", "vertex id must be a non-empty string without spaces: 'a b'"),
    "json empty id": ("GraphFormatError", "vertex id must be a non-empty string without spaces: ''"),
    "json int id": ("GraphFormatError", "vertex id must be a non-empty string without spaces: 7"),
    "json duplicate id": ("GraphFormatError", "duplicate vertex id '2'"),
    "json weight length": ("GraphFormatError", "weight of '1' must be 2 ints, got (1, 0, 0)"),
    "json boolean weight": ("GraphFormatError", "1: weight entries must be finite ints"),
    "json eps count": ("GraphFormatError", "'1': need 1 eps and phi entries"),
    "json missing phi": ("GraphFormatError", "bad vertex record {'id': '1', 'wt': [1, 0], 'eps': [0]}: 'phi'"),
    "json edge without label": ("GraphFormatError", "bad edge record {'from': '1', 'to': '2'}: 'label'"),
    "json edge end a list": ("GraphFormatError", "edge references unknown vertex: [1] -> 2"),
    "json edge end a dict": ("GraphFormatError", "edge references unknown vertex: 1 -> {'a': 1}"),
    "json boolean label": ("GraphFormatError", "bad edge label True"),
    "json label out of range": ("GraphFormatError", "operator index 3 out of range 1..1"),
    "json edge set twice": ("GraphFormatError", "f_1('1') already set"),
    "text no rank line": ("GraphFormatError", "missing 'n <rank>' line"),
    "text short edge line": ("GraphFormatError", "bad edge line 'edge 1 2'"),
    "text rank line with junk": ("GraphFormatError", "bad rank line 'n 3 junk more'"),
    "json invalid": (
        "GraphFormatError",
        "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
    ),
    "json eps a string": ("GraphFormatError", "1: eps and phi must be lists"),
    "json phi a dict": ("GraphFormatError", "1: eps and phi must be lists"),
    "text rank with an underscore": ("GraphFormatError", "bad rank line 'n 1_0'"),
    "text weight with an underscore": ("GraphFormatError", "9: bad weight: not an extended integer: '1_0,0'"),
    "text weight with a non-ASCII digit": ("GraphFormatError", "9: bad weight: not an extended integer: '0,\u0661'"),
    "text phi with an underscore": ("GraphFormatError", "9: bad phi: not an extended integer: '1_0'"),
    "text label with a non-ASCII digit": ("GraphFormatError", "bad edge label '\u0661'"),
    "json length with a non-ASCII digit": ("GraphFormatError", "1: not an extended integer: '\u0661'"),
    "json nested too deeply": (
        "GraphFormatError",
        "invalid JSON: maximum recursion depth exceeded while decoding a JSON array from a unicode string",
    ),
    "text rank zero": ("GraphFormatError", "n must be a positive integer"),
    "text negative rank": ("GraphFormatError", "n must be a positive integer"),
    "json rank zero": ("GraphFormatError", "n must be a positive integer"),
    "json negative rank": ("GraphFormatError", "n must be a positive integer"),
    "text rank with a plus sign": ("GraphFormatError", "bad rank line 'n +3'"),
    "text weight with a plus sign": ("GraphFormatError", "9: bad weight: not an extended integer: '+1,0'"),
    "text eps with a plus sign": ("GraphFormatError", "9: bad eps: not an extended integer: '+0'"),
    "text label with a plus sign": ("GraphFormatError", "bad edge label '+1'"),
    "json length with a plus sign and spaces": ("GraphFormatError", "1: not an extended integer: ' +0 '"),
    "json length with a plus sign": ("GraphFormatError", "1: not an extended integer: '+0'"),
    "json length with a space": ("GraphFormatError", "1: not an extended integer: '1 '"),
    "text one bad weight on two vertices": ("GraphFormatError", "weight of '8' must be 2 ints, got (1, 0, 0)"),
    "text seen weight and eps with a bad phi": ("GraphFormatError", "9: bad phi: not an extended integer: 'x'"),
    "text seen eps and phi with a weight of the wrong length": (
        "GraphFormatError",
        "weight of '9' must be 2 ints, got (0, 1, 0)",
    ),
    "text duplicate id on a seen row": ("GraphFormatError", "duplicate vertex id '2'"),
    "text seen weight with the wrong eps count": ("GraphFormatError", "'9': need 1 eps and phi entries"),
    # the edge ends are printed as the file has them, before any id lookup
    "text edge from an unknown vertex": ("GraphFormatError", "edge references unknown vertex: 9 -> 2"),
    "json edge to a list": ("GraphFormatError", "edge references unknown vertex: 1 -> [2]"),
    "json eps Infinity": ("GraphFormatError", "1: expected int or '+inf'/'-inf', got inf"),
    "json eps -Infinity": ("GraphFormatError", "1: expected int or '+inf'/'-inf', got -inf"),
    "json eps NaN": ("GraphFormatError", "1: expected int or '+inf'/'-inf', got nan"),
    "json eps 1e309": ("GraphFormatError", "1: expected int or '+inf'/'-inf', got inf"),
    "json phi Infinity": ("GraphFormatError", "1: expected int or '+inf'/'-inf', got inf"),
    "json phi -Infinity": ("GraphFormatError", "1: expected int or '+inf'/'-inf', got -inf"),
    "json phi NaN": ("GraphFormatError", "1: expected int or '+inf'/'-inf', got nan"),
    "json phi 1e309": ("GraphFormatError", "1: expected int or '+inf'/'-inf', got inf"),
    "json weight Infinity": ("GraphFormatError", "1: weight entries must be finite ints"),
    "json rank Infinity": ("GraphFormatError", "missing integer field 'n'"),
    "json label Infinity": ("GraphFormatError", "bad edge label inf"),
    "text eps inf": ("GraphFormatError", "9: bad eps: not an extended integer: 'inf'"),
    "text eps infinity": ("GraphFormatError", "9: bad eps: not an extended integer: 'infinity'"),
    "text eps nan": ("GraphFormatError", "9: bad eps: not an extended integer: 'nan'"),
    "text eps 1e309": ("GraphFormatError", "9: bad eps: not an extended integer: '1e309'"),
    "text edge set twice before a short vertex line": ("GraphFormatError", "bad vertex line 'vertex 9 1,0'"),
    "text short edge line before a short vertex line": ("GraphFormatError", "bad edge line 'edge 1 2'"),
    # json's scanner raised int()'s plain ValueError, which no reader caught
    "json rank of 5,000 digits": ("GraphFormatError", f"invalid JSON: {INT_LIMIT}"),
    "json weight entry of 5,000 digits": ("GraphFormatError", f"invalid JSON: {INT_LIMIT}"),
    "json label of 5,000 digits": ("GraphFormatError", f"invalid JSON: {INT_LIMIT}"),
    "text rank of 5,000 digits": ("GraphFormatError", f"bad rank line 'n {BIG}'"),
    "text weight entry of 5,000 digits": ("GraphFormatError", f"9: bad weight: not an extended integer: '{BIG}'"),
    "text label of 5,000 digits": ("GraphFormatError", f"bad edge label '{BIG}'"),
}


def test_hostile_reads_keep_their_refusals():
    got = {}
    for label, reader, payload in hostile_reads():
        with pytest.raises(GraphFormatError) as exc:
            reader(payload)
        got[label] = (type(exc.value).__name__, str(exc.value))
    assert got == HOSTILE_REFUSALS


def test_text_reader_parses_each_distinct_row_once(monkeypatch):
    g = qpow(3, 4)
    rows = {(g._wt[x], tuple(g._eps[x]), tuple(g._phi[x])) for x in g.vertex_ids()}
    calls = []
    parse = graphcore._parse_csv
    monkeypatch.setattr(graphcore, "_parse_csv", lambda *args: calls.append(args) or parse(*args))
    assert from_text(to_text(g)) == g
    assert len(rows) < len(g) and len(calls) == 3 * len(rows)


def test_text_reader_takes_edge_lines_before_vertex_lines():
    moved = 0
    for tag, g in quasi_corpus() + crystal_corpus():
        lines = to_text(g).splitlines(keepends=True)
        edges = [ln for ln in lines[2:] if ln.startswith("edge")]
        vertices = [ln for ln in lines[2:] if ln.startswith("vertex")]
        assert len(edges) + len(vertices) == len(lines) - 2, tag
        assert from_text("".join(lines[:2] + edges + vertices)) == from_text("".join(lines)) == g, tag
        moved += len(edges)
    assert moved > 500


# ------------------------------------------------------------ the streamed text reader


# every boundary at which str.splitlines cuts a line
LINE_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def test_line_breaks_are_those_of_splitlines():
    cut = {chr(c) for c in range(0x110000) if len(f"a{chr(c)}b".splitlines()) == 2}
    assert cut | {"\r\n"} == set(LINE_BREAKS) and "a\r\nb".splitlines() == ["a", "b"]


# lines a text file may hold besides its graph's records: blanks, comments
# (some after whitespace that is no line break, \x1f), and bad records
SKIPPED_LINES = ["", "   ", "\t", "\x1f", "# a comment", "  # indented", "#", "\x1f# after a separator"]
BAD_RECORDS = [
    "vertex 9 1,0,0 0,0 0,0", "vertex 9 1,0", "edge 11 99 1", "edge 11 12", "edge 11 12 1", "arc 1 2 1",
    "qck-graph v1", "n 3",
]
SMALL_RECORDS = to_text(qpow(3, 2)).splitlines()


@st.composite
def text_files(draw):
    """(text, chunk): a file of the records of a small graph and extra
    ones, cut by every kind of line break, and a chunk size; about half the
    chunk sizes are within two characters of where a line break ends."""
    records = SMALL_RECORDS[draw(st.sampled_from([0, 0, 0, 0, 1, 2])):]  # sometimes without the header or rank line
    if draw(st.booleans()):  # edge lines before vertex lines, among others
        records = records[:2] + draw(st.permutations(records[2:]))
    extras = st.sampled_from(SKIPPED_LINES * 3 + BAD_RECORDS)
    for _ in range(draw(st.integers(0, 8))):
        at = draw(st.integers(0, len(records)))
        padded = draw(st.sampled_from(["{}", " {} ", "\t{}\x1f"])).format(draw(extras))
        records = records[:at] + [padded] + records[at:]
    breaks = draw(st.lists(st.sampled_from(LINE_BREAKS), min_size=len(records), max_size=len(records)))
    text = "".join(ln + br for ln, br in zip(records, breaks))
    if draw(st.booleans()):
        text = text[: -len(breaks[-1])]  # no break after the last line
    ends = [i + 1 for i, ch in enumerate(text) if ch in "".join(LINE_BREAKS)]
    if ends and draw(st.booleans()):
        chunk = max(1, draw(st.sampled_from(ends)) + draw(st.integers(-2, 2)))
    else:
        chunk = draw(st.integers(1, 40))
    return text, chunk


@settings(deadline=None, max_examples=300)
@given(text_files())
def test_text_reader_walks_the_text_as_the_list_of_its_lines(drawn):
    # the chunk walk must store the graph the old reader stored, or refuse
    # with the same text, wherever a chunk ends
    text, chunk = drawn
    want = outcome(oracles.from_text_via_lines, text)
    with mock.patch.object(graphcore, "_CHUNK", chunk):
        assert outcome(from_text, text) == want


@pytest.mark.parametrize("br", ["\n", "\r\n", "\r", "\u2028"])
def test_text_reader_reads_a_file_of_many_chunks(br):
    # a chunk ends after a "\n"; a file with none is one chunk
    g = qpow(4, 6)
    text = to_text(g).replace("\n", br)
    assert len(text) > 4 * graphcore._CHUNK
    assert from_text(text) == oracles.from_text_via_lines(text) == g


@pytest.mark.parametrize("value, shown", [(True, "True"), (1.0, "1.0")])
def test_json_reader_refuses_a_length_equal_to_a_string_already_read(value, shown):
    # true and 1.0 equal 1: each is refused although "1" was read as a length before
    doc = {
        "format": "qck-graph",
        "version": 1,
        "n": 2,
        "vertices": [
            {"id": "a", "wt": [1, 0], "eps": ["1"], "phi": [2]},
            {"id": "b", "wt": [1, 0], "eps": [value], "phi": [2]},
        ],
        "edges": [],
    }
    with pytest.raises(GraphFormatError, match=rf"^b: expected int or '\+inf'/'-inf', got {shown}$"):
        from_json(json.dumps(doc))


# ------------------------------------------------------------ the JSON scan


def outcome(read, text):
    """The graph read(text) stores, or the type and text of its refusal."""
    try:
        return read(text)
    except Exception as exc:
        return type(exc).__name__, str(exc)


# what a corruption inserts: JSON tokens, whole or broken, and characters
# the scan treats specially
JSON_TOKENS = [
    "{", "}", "[", "]", ",", ":", '"', " ", "\n", "\t", "\\", "\x01", "\ufeff",
    '"id"', '"wt"', '"eps"', '"phi"', '"from"', '"to"', '"label"', '"vertices"', '"edges"', '"n"',
    '"format"', "1", "0", "-1", "1.0", "1e309", "NaN", "Infinity", "true", "null",
    '"+inf"', '"1"', '"\\u0041"', "[]", "{}",
]


def shuffled_fields(text: str, rng: random.Random) -> str:
    """text's top-level fields in a random order, some of them twice with
    another value, written with one of several spacings."""
    items = [(k, json.dumps(v, indent=rng.choice([None, 2]))) for k, v in json.loads(text).items()]
    rng.shuffle(items)
    for _ in range(rng.randrange(3)):
        key, value = rng.choice(items)
        other = rng.choice([value, "[]", "1", '"qck-graph"', "null", '[{"id": "9"}]'])
        items.insert(rng.randrange(len(items) + 1), (key, other))
    return "{" + rng.choice([", ", ",\n  ", ","]).join(f'"{k}": {v}' for k, v in items) + "}"


def corrupted(text: str, rng: random.Random) -> str:
    """text with one random deletion, insertion, copied or moved block, or a
    BOM or trailing text."""
    kind = rng.randrange(5)
    a = rng.randrange(len(text) + 1)
    b = min(len(text), a + rng.choice([1, 1, 2, 3, 8, 30, 200]))
    if kind == 0:
        return text[:a] + text[b:]
    if kind == 1:
        return text[:a] + rng.choice(JSON_TOKENS) + text[a:]
    if kind == 2:
        c = rng.randrange(len(text) + 1)
        return text[:c] + text[a:b] + text[c:]
    if kind == 3:
        block, rest = text[a:b], text[:a] + text[b:]
        c = rng.randrange(len(rest) + 1)
        return rest[:c] + block + rest[c:]
    return rng.choice(["\ufeff" + text, text + rng.choice([" ", "\n", "x", "}", "{}"])])


def corrupted_files(count: int = 2000, graphs=None):
    """Documents of small graphs, by default std(2), q(2,2), t(3,2) and the
    last edge case, some with their fields shuffled, each with one to three
    corruptions; the same ones on every call."""
    rng = random.Random(26)
    graphs = graphs or (std(2), qpow(2, 2), tpow(3, 2), edge_case_graphs()[-1][1])
    bases = [to_json(g) for g in graphs]
    for _ in range(count):
        text = rng.choice(bases)
        if rng.random() < 0.3:
            text = shuffled_fields(text, rng)
        for _ in range(rng.randint(1, 3)):
            text = corrupted(text, rng)
        yield text


def test_json_reader_matches_the_whole_document_reader_on_corrupted_files():
    # the scan decodes the top-level object itself and each record as it
    # comes: any document must load as the same graph, or be refused with
    # the same text, as when json.loads decoded it whole
    seen = Counter()
    for text in corrupted_files():
        want = outcome(oracles.from_json_via_loads, text)
        assert outcome(from_json, text) == want, text
        seen["graph" if isinstance(want, QuasiCrystalGraph) else want[1].split(":")[0]] += 1
    # every stage is reached: the scan, the document checks and both record readers
    assert seen["graph"] > 50 and seen["invalid JSON"] < 1900, seen
    assert seen["not a qck-graph document"] and seen["edge references unknown vertex"], seen
    assert seen["bad vertex record {'id'"] > 5 and seen["bad edge record {'from'"] > 5, seen


def test_json_reader_takes_the_top_level_fields_in_any_order():
    for tag, g in quasi_corpus()[:3] + crystal_corpus()[:3]:
        fields = json.loads(to_json(g))
        backwards = json.dumps(dict(reversed(fields.items())))
        twice = "{" + '"vertices": [], "n": 0, ' + to_json(g)[1:]  # the last value of a key counts
        assert from_json(backwards) == from_json(twice) == g, tag


def test_json_reader_reads_bytes_as_json_loads_does():
    # bytes are decoded in the encoding json.detect_encoding finds, BOM and all
    text = to_json(qpow(2, 2))
    for data in (text.encode(), text.encode("utf-8-sig"), text.encode("utf-16"), bytearray(text.encode("utf-32-le"))):
        assert from_json(data) == from_json(text), data[:4]
    for data in (text.encode()[:-3], b'{"n": 2}', ("\ufeff" + text).encode("utf-16-le")):
        assert outcome(from_json, data) == outcome(oracles.from_json_via_loads, data), data[:4]
    # json.loads lets UnicodeDecodeError out; from_json refuses the byte as invalid JSON
    data = b"\xff" + text.encode()
    kind, message = outcome(oracles.from_json_via_loads, data)
    assert kind == "UnicodeDecodeError"
    assert outcome(from_json, data) == ("GraphFormatError", "invalid JSON: " + message)
    assert outcome(from_json, 7)[0] == outcome(oracles.from_json_via_loads, 7)[0] == "TypeError"


@pytest.mark.parametrize(
    "data",
    [
        b'{"n": "\xc3("}',
        "{}".encode("utf-16-le") + b"\x00",
        "{}".encode("utf-32-le") + b"\x00\x00\x11\x00",
    ],
    ids=["utf-8", "utf-16", "utf-32"],
)
def test_json_reader_refuses_undecodable_bytes_as_invalid_json(data):
    # whatever codec json.detect_encoding picks, its own message follows "invalid JSON: "
    kind, message = outcome(oracles.from_json_via_loads, data)
    assert kind == "UnicodeDecodeError"
    assert outcome(from_json, data) == ("GraphFormatError", "invalid JSON: " + message)


DEEP = "[" * 100_000 + "]" * 100_000
HEAD = '{"format": "qck-graph", "version": 1, "n": 2, '


@pytest.mark.parametrize(
    "text",
    [
        DEEP,
        HEAD + '"vertices": [' + DEEP + '], "edges": []}',
        HEAD + '"vertices": [], "edges": [' + DEEP + "]}",
        HEAD + '"vertices": [{"id": "a", "wt": ' + DEEP + ', "eps": [0], "phi": [0]}], "edges": []}',
    ],
    ids=["top level", "in vertices", "in edges", "in a record field"],
)
def test_json_reader_refuses_deep_nesting_anywhere(text):
    expected = "invalid JSON: maximum recursion depth exceeded while decoding a JSON array from a unicode string"
    assert outcome(from_json, text) == outcome(oracles.from_json_via_loads, text) == ("GraphFormatError", expected)


# ------------------------------------------------------------ files read a chunk at a time

# read_graph feeds both readers from the open file, a chunk of about _CHUNK
# characters at a time; oracles.read_graph_via_whole_text decodes the whole
# file first, as read_graph did before.


def file_of(directory, text: str, name: str = "g") -> str:
    """The path of a new file holding text in UTF-8, its line breaks as given."""
    path = directory / name
    path.write_text(text, encoding="utf-8", newline="")
    return str(path)


@pytest.mark.parametrize("chunk", [1, 2, 7, 64])
def test_json_reader_matches_the_whole_document_reader_through_any_window(chunk):
    # the scan widens its window where a value may run past its end; a small
    # chunk puts that end inside every record and between every token; std(3)
    # stands for t(3,2), with the same rank and kinds of token in a third of the text
    graphs = (std(2), qpow(2, 2), std(3), edge_case_graphs()[-1][1])
    with mock.patch.object(graphcore, "_CHUNK", chunk):
        for text in corrupted_files(graphs=graphs):
            assert outcome(from_json, text) == outcome(oracles.from_json_via_loads, text), text


@pytest.mark.parametrize("chunk", [3, 64])
def test_file_reader_matches_the_whole_text_reader_on_corrupted_files(chunk, tmp_path):
    # both skip one byte order mark at the start of the file: read_graph as
    # it decodes, the whole text reader as loads reads the text
    with mock.patch.object(graphcore, "_CHUNK", chunk):
        for k, text in enumerate(corrupted_files(300)):
            path = file_of(tmp_path, text)
            assert outcome(read_graph, path) == outcome(oracles.read_graph_via_whole_text, path), (k, text)


@settings(deadline=None, max_examples=200)
@given(text_files())
def test_file_reader_walks_a_text_file_as_the_whole_text_reader(tmp_path_factory, drawn):
    # the same graph, or the same refusal, wherever a chunk ends; "\r" and
    # "\r\n" are read as "\n", as a whole read of the file reads them
    text, chunk = drawn
    path = file_of(tmp_path_factory.mktemp("text"), text)
    want = outcome(oracles.read_graph_via_whole_text, path)
    with mock.patch.object(graphcore, "_CHUNK", chunk):
        assert outcome(read_graph, path) == want


@pytest.mark.parametrize("chunk", [1, 7, graphcore._CHUNK])
def test_hostile_files_keep_their_refusals(chunk, tmp_path):
    payloads = [payload for _, _, payload in hostile_reads() if isinstance(payload, str)]
    assert len(payloads) > 40
    with mock.patch.object(graphcore, "_CHUNK", chunk):
        for payload in payloads:
            path = file_of(tmp_path, payload)
            assert outcome(read_graph, path) == outcome(oracles.read_graph_via_whole_text, path), payload[:80]


@pytest.mark.parametrize("build, k, fmt, bound", [(tensor_power, 5, "json", 1.6), (quasi_tensor_power, 6, "text", 1.5)])
def test_a_file_read_peaks_near_the_graph_it_holds(build, k, fmt, bound, tmp_path):
    # the file's text is counted: read whole, it took a t(4,5) JSON read to
    # 2.29 times the graph it returned and a q(4,6) text read to 1.53
    path = str(tmp_path / "g")
    write_graph(build(4, k), path, fmt)
    h, held, peak = held_and_peak(lambda: read_graph(path))
    assert len(h) == 4**k
    assert peak <= bound * held, (peak, held)


def bad_byte_files(directory, fmt: str):
    """(path, position) of files of several chunks with the byte 0xff at the
    position, some after a record that the reader would refuse."""
    doc = dumps(qpow(3, 4), fmt)
    broken = doc.replace("n 3\n", "n 3\narc 1 2 1\n", 1) if fmt == "text" else doc.replace('"id"', '"di"', 1)
    assert broken != doc and len(doc) > 20 * 64
    for k, (text, at) in enumerate((t, at) for t in (doc, broken) for at in (5, 3 * 64 + 5, 12 * 64, len(doc) - 2)):
        data = text.encode()
        path = directory / f"bad{k}"
        path.write_bytes(data[:at] + b"\xff" + data[at:])
        yield str(path), at


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_undecodable_bytes_are_refused_at_their_place_in_the_file(fmt, tmp_path):
    # first, before any other refusal, with the position counted from the
    # file's start, as when the whole file was decoded at once
    with mock.patch.object(graphcore, "_CHUNK", 64):
        for path, at in bad_byte_files(tmp_path, fmt):
            want = ("UnicodeDecodeError", f"'utf-8' codec can't decode byte 0xff in position {at}: invalid start byte")
            assert outcome(read_graph, path) == outcome(oracles.read_graph_via_whole_text, path) == want


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_file_that_starts_with_a_byte_order_mark_reads_as_without(fmt, tmp_path):
    # such a JSON file was read as text and refused as "bad header '\ufeff{'";
    # from_json of its bytes read it, and now loads of its whole text does
    g = qpow(3, 2)
    path = tmp_path / "bom"
    path.write_text(dumps(g, fmt), encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert oracles.read_graph_via_whole_text(str(path)) == g
    for chunk in (1, 7, graphcore._CHUNK):
        with mock.patch.object(graphcore, "_CHUNK", chunk):
            assert read_graph(str(path)) == g
    assert fmt == "text" or from_json(path.read_bytes()) == g


@pytest.mark.parametrize("br", ["\r\n", "\r"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_file_line_breaks_read_as_newlines_wherever_a_chunk_ends(fmt, br, tmp_path):
    # an open text file decodes 8,192 bytes at a time for small reads, and a
    # "\r" that ends them waits for the next byte to tell "\r\n" from "\r";
    # leading blanks, which both readers skip, move a "\r" onto that end; the
    # files of these small graphs (8,513 and 10,461 characters) pass that end
    # and put a "\r" there for 2 to 4 pads
    g = content_quasi((4, 2), 4) if fmt == "text" else qpow(2, 6)
    doc = dumps(g, fmt).replace("\n", br)
    cut = 0
    for pad in range(48):
        text = " " * pad + doc
        cut += text[8191] == "\r"
        path = file_of(tmp_path, text)
        for chunk in (1, 7, 64, graphcore._CHUNK):
            with mock.patch.object(graphcore, "_CHUNK", chunk):
                assert read_graph(path) == g, (pad, chunk)
    assert cut


@pytest.mark.parametrize("chunk", [16, graphcore._CHUNK])
def test_json_after_whitespace_longer_than_a_chunk_reads_as_json(chunk, tmp_path):
    g = qpow(3, 2)
    text = " \n\t\r" * chunk + to_json(g)
    path = file_of(tmp_path, text)
    with mock.patch.object(graphcore, "_CHUNK", chunk):
        assert read_graph(path) == loads(text) == from_json(text) == g


def read_pipe(data: bytes):
    """read_graph's outcome on a pipe that data is written into."""
    r, w = os.pipe()

    def write():
        with os.fdopen(w, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        return outcome(read_graph, f"/dev/fd/{r}")
    finally:
        writer.join()
        os.close(r)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_read_graph_reads_a_pipe(fmt):
    # a pipe cannot be read twice, so it is read whole
    g = qpow(4, 6)
    data = dumps(g, fmt).encode()
    assert len(data) > 2 * graphcore._CHUNK
    assert read_pipe(data) == g


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_loads_reads_a_str_past_one_byte_order_mark(fmt, tmp_path):
    # such a str was refused as "bad header '\ufeff{'" (text: '\ufeffqck-graph
    # v1'); from_json and from_text still refuse it, from_json as json.loads does
    g = qpow(3, 2)
    doc = dumps(g, fmt)
    for chunk in (1, 7, graphcore._CHUNK):
        with mock.patch.object(graphcore, "_CHUNK", chunk):
            assert loads("\ufeff" + doc) == g
    head = doc.splitlines()[0]
    assert outcome(from_text, "\ufeff" + doc) == ("GraphFormatError", f"bad header {chr(0xFEFF) + head!r}; expected 'qck-graph v1'")
    assert outcome(from_json, "\ufeff" + doc) == outcome(oracles.from_json_via_loads, "\ufeff" + doc)
    assert outcome(from_json, "\ufeff" + doc)[1].startswith("invalid JSON: Unexpected UTF-8 BOM")
    # one mark only, as a file or a pipe of the same bytes is read
    twice = "\ufeff\ufeff" + doc
    want = ("GraphFormatError", f"bad header {chr(0xFEFF) + head!r}; expected 'qck-graph v1'")
    path = file_of(tmp_path, twice)
    assert outcome(loads, twice) == outcome(read_graph, path) == read_pipe(twice.encode()) == want


def test_a_pipe_counts_an_undecodable_byte_from_its_start_as_a_file_does(tmp_path):
    # the pipe was decoded past its byte order mark, so the position read 3 short (17 here)
    data = ("\ufeff" + dumps(qpow(2, 2), "text")).encode()
    data = data[:20] + b"\xff" + data[20:]
    path = tmp_path / "bad"
    path.write_bytes(data)
    want = ("UnicodeDecodeError", "'utf-8' codec can't decode byte 0xff in position 20: invalid start byte")
    assert read_pipe(data) == outcome(read_graph, str(path)) == want
