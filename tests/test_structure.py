import itertools
import random

import pytest

from qck.graphcore import QuasiCrystalGraph, validate
from qck.structure import (
    Component,
    IsoWitness,
    TheoremViolation,
    components,
    isomorphic,
    rank_table,
    unique_highest_weight,
)

from corpus import content_crystal, crystal_corpus, qpow, quasi_corpus, std, tpow

import oracles


def test_component_sizes_frozen():
    assert sorted(c.size for c in components(qpow(3, 2))) == [3, 6]
    assert sorted(c.size for c in components(qpow(3, 3))) == [1, 4, 4, 4, 4, 10]
    assert sorted(c.size for c in components(tpow(3, 3))) == [1, 8, 8, 10]
    assert [c.size for c in components(std(4))] == [4]


def test_components_sorted_and_disjoint():
    comps = components(qpow(3, 3))
    assert [c.min_vertex for c in comps] == sorted(c.min_vertex for c in comps)
    seen = list(itertools.chain.from_iterable(c.vertices for c in comps))
    assert sorted(seen) == qpow(3, 3).vertex_ids()
    for c in comps:
        assert c.vertices == tuple(sorted(c.vertices))


@pytest.mark.parametrize("name,graph", quasi_corpus())
def test_components_match_brute_force_partition(name, graph):
    arrows = {(x, i): y for x, i, y in graph.edges() if x != y}
    expected = oracles.component_partition(graph.vertex_ids(), arrows)
    got = sorted(c.vertices for c in components(graph))
    assert got == expected


# Decomposition oracles from the words alone, with no product rule: in the
# tensor power two words share a component exactly when they have the same
# RSK recording tableau, and in the quasi power exactly when they have the
# same standardization.
DECOMPOSITION_SIZES = [(2, 5), (3, 4), (3, 5), (4, 4), (4, 5), (5, 4)]


def _word(vid: str) -> tuple[int, ...]:
    return tuple(map(int, vid))  # ids are digit strings for n <= 9


def _classes(g, key) -> list[tuple[str, ...]]:
    """g's vertex ids grouped by key of their words, each group sorted."""
    groups: dict = {}
    for x in g.vertex_ids():
        groups.setdefault(key(_word(x)), []).append(x)
    return sorted(tuple(group) for group in groups.values())


@pytest.mark.parametrize("n,k", DECOMPOSITION_SIZES)
def test_tensor_power_components_are_the_rsk_recording_classes(n, k):
    g = tpow(n, k)
    assert sorted(c.vertices for c in components(g)) == _classes(g, oracles.rsk_recording)


@pytest.mark.parametrize("n,k", DECOMPOSITION_SIZES)
def test_quasi_power_components_are_the_standardization_classes(n, k):
    g = qpow(n, k)
    assert sorted(c.vertices for c in components(g)) == _classes(g, oracles.standardize)


@pytest.mark.parametrize("shape,n", [((2, 1), 3), ((2, 2), 3), ((3, 1), 4), ((2, 1, 1), 4), ((3, 2), 3)])
def test_content_crystal_is_one_rsk_recording_class(shape, n):
    c = content_crystal(shape, n)
    q = oracles.rsk_recording(_word(c.vertex_ids()[0]))
    words = itertools.product(range(1, n + 1), repeat=sum(shape))
    assert sorted("".join(map(str, w)) for w in words if oracles.rsk_recording(w) == q) == c.vertex_ids()


def _inverse_descent_composition(word) -> tuple[int, ...]:
    """The descent composition of std(word)^-1."""
    sigma = oracles.standardize(word)
    inverse = sorted(range(1, len(sigma) + 1), key=lambda p: sigma[p - 1])
    descents = [j for j in range(1, len(inverse)) if inverse[j - 1] > inverse[j]]
    bounds = [0, *descents, len(inverse)]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


@pytest.mark.parametrize("n,k", DECOMPOSITION_SIZES)
def test_quasi_highest_weight_is_the_inverse_descent_composition(n, k):
    g = qpow(n, k)
    for c in components(g):
        (top,) = c.hw_vertices
        alpha = _inverse_descent_composition(_word(top))
        assert g.wt(top) == alpha + (0,) * (n - len(alpha)), top


def test_isolated_fully_frozen_vertex_is_its_own_component():
    comps = components(qpow(3, 3))
    singles = [c for c in comps if c.size == 1]
    assert len(singles) == 1
    assert singles[0].vertices == ("321",)
    assert singles[0].hw_vertices == ("321",)


def test_subgraph_restricts_faithfully():
    comp = next(c for c in components(qpow(3, 3)) if c.size == 10)
    sub = comp.subgraph()
    assert sorted(sub.vertex_ids()) == list(comp.vertices)
    assert validate(sub).passed
    g = comp.graph
    for x in comp.vertices:
        assert sub.wt(x) == g.wt(x)
        for i in g.index_set:
            assert sub.eps(x, i) == g.eps(x, i)
            assert sub.f(x, i) == g.f(x, i)


@pytest.mark.parametrize("name,graph", quasi_corpus() + crystal_corpus())
def test_subgraph_matches_the_replay_oracle(name, graph):
    # every component, then a third of the vertices, whose e and f targets
    # outside it are dropped
    ids = graph.vertex_ids()
    part = tuple(sorted(random.Random(len(ids)).sample(ids, len(ids) // 3)))
    for comp in components(graph) + [Component(graph, part, ())]:
        sub = comp.subgraph()
        want = oracles.subgraph_via_replay(comp)
        assert sub == want, (name, comp.min_vertex)
        assert sub.raising_edges() == want.raising_edges(), (name, comp.min_vertex)


def test_subgraph_keeps_an_e_f_disagreement_visible():
    # drop e_i(y) = x and keep f_i(x) = y: f still joins x and y into one
    # component, and its subgraph must not rebuild the dropped e entry
    g = qpow(3, 3).copy()
    x, i, y = next((x, i, y) for x, i, y in g.edges() if x != y)
    g.set_raising(y, i, None)
    whole = validate(g).witnesses
    assert any(w.axiom == "Q1" and w.vertices == (x, y) for w in whole)
    comp = next(c for c in components(g) if x in c.vertices)
    assert validate(comp.subgraph()).witnesses == [w for w in whole if w.vertices[0] in comp.vertices]


def test_unique_highest_weight_on_corpus():
    for name, graph in quasi_corpus():
        for comp in components(graph):
            hw = unique_highest_weight(comp)
            assert hw in comp.vertices
            assert all(comp.graph.e(hw, i) is None for i in comp.graph.index_set)


def test_unique_highest_weight_violations():
    # two sources lowering onto one sink: two highest-weight vertices
    g = QuasiCrystalGraph(3)
    g.add_vertex("a", (1, 1, 0), (0, 0), (0, 1))
    g.add_vertex("b", (1, 0, 1), (0, 1), (1, 0))
    g.add_vertex("c", (0, 1, 1), (1, 1), (0, 0))
    g.add_edge("a", 2, "c")
    g.add_edge("b", 1, "c")
    (comp,) = components(g)
    assert len(comp.hw_vertices) == 2
    with pytest.raises(TheoremViolation) as info:
        unique_highest_weight(comp)
    assert info.value.lines()

    # a two-cycle has no highest-weight vertex at all
    h = QuasiCrystalGraph(2)
    h.add_vertex("x", (1, 0), (1,), (1,))
    h.add_vertex("y", (1, 0), (1,), (1,))
    h.set_lowering("x", 1, "y")
    h.set_raising("y", 1, "x")
    h.set_lowering("y", 1, "x")
    h.set_raising("x", 1, "y")
    (cyc,) = components(h)
    with pytest.raises(TheoremViolation):
        unique_highest_weight(cyc)


def test_is_bounded_above_on_corpus():
    # every vertex is reached from the highest-weight set by lowering edges
    for name, graph in quasi_corpus():
        for comp in components(graph):
            arrows = {(x, i): y for x, i, y in comp.subgraph().edges() if x != y}
            reached = set()
            for hw in comp.hw_vertices:
                reached |= oracles.bfs_distances(arrows, hw).keys()
            assert reached >= set(comp.vertices), (name, comp.min_vertex)


def test_rank_zero_at_highest_weight_and_steps_of_one():
    for graph in (qpow(3, 3), tpow(3, 2), qpow(2, 4)):
        for comp in components(graph):
            hw = unique_highest_weight(comp)
            ranks = rank_table(comp)
            assert ranks[hw] == 0
            for x in comp.vertices:
                for i in comp.graph.index_set:
                    y = comp.graph.f(x, i)
                    if y is not None and y != x:
                        assert ranks[y] == ranks[x] + 1


def test_rank_matches_edge_distance_from_highest_weight():
    # a vertex the top cannot reach by lowering edges has no distance, so this
    # also fails on any component that is not bounded above
    for name, graph in quasi_corpus() + crystal_corpus():
        for comp in components(graph):
            hw = unique_highest_weight(comp)
            arrows = {(x, i): y for x, i, y in comp.subgraph().edges() if x != y}
            assert rank_table(comp) == oracles.bfs_distances(arrows, hw), (name, comp.min_vertex)


def test_rank_table_frozen_for_big_component():
    comp = next(c for c in components(qpow(3, 3)) if c.size == 10)
    table = rank_table(comp)
    profile = {}
    for r in table.values():
        profile[r] = profile.get(r, 0) + 1
    assert profile == {0: 1, 1: 1, 2: 2, 3: 2, 4: 2, 5: 1, 6: 1}


def test_rank_of_rejects_vertex_above_highest_weight():
    g = QuasiCrystalGraph(2)
    g.add_vertex("top", (2, 0), (0,), (2,))
    g.add_vertex("down", (4, -2), (1,), (5,))
    g.add_edge("top", 1, "down")
    (comp,) = components(g)
    # "down" hangs below "top" by edges, yet its weight sits strictly higher
    with pytest.raises(TheoremViolation):
        rank_table(comp)


def test_isomorphic_pairs_in_quasi_cube():
    comps = components(qpow(3, 3))
    by_min = {c.min_vertex: c for c in comps}
    w = isomorphic(by_min["121"], by_min["211"])
    assert w is not None
    assert w.verify(by_min["121"], by_min["211"]) == []
    assert w.mapping["121"] == "211"
    assert len(w.mapping) == 4


def test_isomorphic_square_components_frozen_mapping():
    comps = components(qpow(3, 2))
    big = next(c for c in comps if c.size == 6)
    small = next(c for c in comps if c.size == 3)
    assert isomorphic(big, small) is None  # different highest weights
    w = isomorphic(small, small)
    assert w is not None and all(k == v for k, v in w.mapping.items())


def test_isomorphic_reports_structural_failure():
    # same highest weight, different shapes: the build must blow up
    a = QuasiCrystalGraph(2)
    a.add_vertex("x", (1, 0), (0,), (1,))
    b = QuasiCrystalGraph(2)
    b.add_vertex("x", (1, 0), (0,), (1,))
    b.add_vertex("y", (0, 1), (1,), (0,))
    b.add_edge("x", 1, "y")
    (ca,) = components(a)
    (cb,) = components(b)
    with pytest.raises(TheoremViolation) as info:
        isomorphic(ca, cb)
    assert info.value.lines() == ["equal highest weights but mismatched lowering edges", "stuck\tx\tx\t1\tNone vs y"]


def _graph(n, weights, edges):
    """A rank-n graph with the given vertex weights, zero string lengths and lowering edges."""
    g = QuasiCrystalGraph(n)
    for x, wt in weights.items():
        g.add_vertex(x, wt, (0,) * (n - 1), (0,) * (n - 1))
    for x, i, y in edges:
        g.add_edge(x, i, y)
    return g


def test_isomorphic_names_each_way_the_construction_fails():
    zero = (0, 0, 0)
    # a diamond u -> p, q -> r against one whose two sides end apart, at r1 and r2
    diamond = _graph(3, dict.fromkeys("upqr", zero), [("u", 1, "p"), ("u", 2, "q"), ("p", 2, "r"), ("q", 1, "r")])
    split = _graph(
        3, dict.fromkeys(["u", "p", "q", "r1", "r2"], zero), [("u", 1, "p"), ("u", 2, "q"), ("p", 2, "r1"), ("q", 1, "r2")]
    )
    (c1,), (c2,) = components(diamond), components(split)
    with pytest.raises(TheoremViolation) as info:
        isomorphic(c1, c2)
    assert info.value.lines() == ["lowering edges disagree with an earlier assignment", "conflict\tr\tr1 vs r2"]

    # u's one lowering edge reaches a; z and w, a cycle under f_1, lower onto a by f_2
    hanging = _graph(3, dict.fromkeys("uazw", zero), [("u", 1, "a"), ("z", 2, "a"), ("z", 1, "w"), ("w", 1, "z")])
    (c,) = components(hanging)
    assert c.hw_vertices == ("u",)
    with pytest.raises(TheoremViolation) as info:
        isomorphic(c, c)
    assert info.value.lines() == [
        "component not reachable from its highest weight by lowering edges",
        "covered 2 of 4 vertices",
    ]

    # the same edges, but the lower vertex's weight differs
    (c1,) = components(_graph(2, {"u": (1, 0), "a": (0, 1)}, [("u", 1, "a")]))
    (c2,) = components(_graph(2, {"u": (1, 0), "a": (0, 2)}, [("u", 1, "a")]))
    with pytest.raises(TheoremViolation) as info:
        isomorphic(c1, c2)
    assert info.value.lines() == ["constructed vertex map fails verification", "wt\ta\ta\t(0, 1) vs (0, 2)"]


def test_iso_witness_verify_catches_corruption():
    comps = components(qpow(3, 3))
    by_min = {c.min_vertex: c for c in comps}
    w = isomorphic(by_min["121"], by_min["211"])
    broken = dict(w.mapping)
    ks = sorted(broken)
    broken[ks[0]], broken[ks[1]] = broken[ks[1]], broken[ks[0]]
    assert IsoWitness(broken).verify(by_min["121"], by_min["211"]) != []


def test_iso_witness_verify_catches_wrong_domain():
    comps = components(qpow(3, 3))
    by_min = {c.min_vertex: c for c in comps}
    w = IsoWitness({"bogus": "211"})
    assert w.verify(by_min["121"], by_min["211"]) != []


def test_all_equal_weight_components_of_corpus_are_isomorphic():
    for name, graph in [("qpow(3,3)", qpow(3, 3)), ("tpow(3,3)", tpow(3, 3))]:
        comps = components(graph)
        for c1, c2 in itertools.combinations(comps, 2):
            w1 = graph.wt(unique_highest_weight(c1))
            w2 = graph.wt(unique_highest_weight(c2))
            got = isomorphic(c1, c2)
            if w1 == w2:
                assert got is not None and got.verify(c1, c2) == []
            else:
                assert got is None
