import random

import pytest

import qck.axioms
import qck.mutation
from qck.axioms import CRYSTAL_AXIOMS, QUASI_AXIOMS, family, run_checks, uncounted_length
from qck.graphcore import NEG_INF, POS_INF, AxiomReport, QuasiCrystalGraph, is_seminormal, validate
from qck.mutation import (
    _Sampler,
    RADIUS,
    GAP_NOTE,
    VALID_NOTE,
    FuzzResult,
    Mutation,
    fuzz_graph,
    random_mutation,
    region,
    run_detectors,
)
from qck.structure import components

from corpus import content_quasi, qpow, std, tpow
from oracles import bfs_distances, fuzz_via_copies


def test_run_detectors_quiet_on_clean_graphs():
    # unfrozen graphs are held to the local crystal axioms, frozen ones to
    # the quasi family; either way a clean corpus graph raises nothing
    assert run_detectors(qpow(3, 3)) == []
    assert run_detectors(std(4)) == []
    assert run_detectors(tpow(3, 2)) == []
    assert run_detectors(tpow(3, 3)) == []
    assert run_detectors(content_quasi((2, 1), 3)) == []


def test_run_detectors_orders_core_first():
    g = std(3).copy()
    g.set_epsilon("3", 2, 2)
    failing = run_detectors(g)
    assert failing[0] == "validate"
    assert "seminormal" in failing


def test_run_detectors_core_break_short_circuits_stembridge():
    # a one-sided eps edit breaks the phi/eps/weight relation before the
    # Stembridge comparisons ever run, so the battery stops at the core
    g = std(3).copy()
    g.set_epsilon("2", 1, 2)
    failing = run_detectors(g)
    assert failing == ["validate", "seminormal"]


def cross_wired_tpow33():
    # cross-wire the top color-1 rungs of the two isomorphic 8-vertex
    # components: every stored length and weight is untouched, so the core
    # checks stay green, but zigzag paths now hop between the copies and
    # the commutation comparisons object
    g = tpow(3, 3).copy()
    eights = [c for c in components(g) if c.size == 8]
    assert len(eights) == 2
    (hw1,), (hw2,) = (c.hw_vertices for c in eights)
    d1, d2 = g.f(hw1, 1), g.f(hw2, 1)
    g.set_lowering(hw1, 1, d2)
    g.set_raising(d2, 1, hw1)
    g.set_lowering(hw2, 1, d1)
    g.set_raising(d1, 1, hw2)
    return g


def test_run_detectors_reaches_stembridge_when_core_is_clean():
    g = cross_wired_tpow33()
    assert run_detectors(g) == ["stembridge"]


def test_run_detectors_flags_deep_quasi_breaks():
    # freezing one string end at an edge target trips the frozen-pair
    # corollary, which only the extended quasi battery inspects
    g = qpow(3, 2).copy()
    target = g.e("12", 1)
    assert target == "11"
    g.set_epsilon(target, 2, POS_INF)
    g.set_phi(target, 2, POS_INF)
    g.set_raising(target, 2, None)
    g.set_lowering(target, 2, None)
    failing = run_detectors(g)
    assert "infs" in failing


def test_random_mutation_leaves_original_untouched():
    g = qpow(3, 2)
    before = g.copy()
    rng = random.Random(5)
    for _ in range(30):
        mutant, m = random_mutation(g, rng)
        assert mutant != g or m.kind == "noop"
    assert g == before


def test_random_mutation_is_seeded():
    g = qpow(3, 2)
    a_mutant, a = random_mutation(g, random.Random(42))
    b_mutant, b = random_mutation(g, random.Random(42))
    assert a.describe() == b.describe()
    assert a_mutant == b_mutant


def test_mutation_describe_shape():
    g = qpow(3, 2)
    _, m = random_mutation(g, random.Random(0))
    parts = m.describe().split("\t")
    assert len(parts) == 4
    assert m.kind in {"eps", "phi", "edge-e", "edge-f", "weight"}
    assert m.vertex in g.vertex_ids()


def test_fuzz_detects_almost_everything():
    result = fuzz_graph(qpow(3, 3), count=150, seed=11)
    assert result.total == 150
    assert result.detected + len(result.silent) == 150
    assert result.rate >= 0.99
    for m, note in result.silent:
        assert note == "mutant is itself a coherent seminormal quasi-crystal"


def test_fuzz_is_deterministic():
    a = fuzz_graph(qpow(3, 2), count=60, seed=3)
    b = fuzz_graph(qpow(3, 2), count=60, seed=3)
    assert a.detected == b.detected
    assert [m.describe() for m, _ in a.silent] == [m.describe() for m, _ in b.silent]


def test_fuzz_result_lines():
    result = FuzzResult(10, 9, [(Mutation("weight", "321", 1, "(1,1,1)->(2,1,1)"), "note")])
    lines = result.lines()
    assert lines[0] == "total\t10"
    assert lines[1] == "detected\t9"
    assert lines[2] == "silent\t1"
    assert lines[3] == "rate\t0.9000"
    assert lines[4].startswith("silent-case\tweight\t321")


def test_fuzz_rate_is_over_the_mutants_that_are_not_valid_graphs():
    valid = (Mutation("weight", "321", 1, "(1,1,1)->(2,1,1)"), VALID_NOTE)
    result = FuzzResult(10, 8, [valid, valid])
    assert result.lines()[:4] == ["total\t10", "detected\t8", "silent\t2", "rate\t1.0000"]
    assert FuzzResult(10, 7, [valid, valid, (valid[0], "unclassified gap")]).rate == 7 / 8
    assert FuzzResult(3, 0, [valid] * 3).rate == 1.0


def _blind_battery(monkeypatch):
    # validate and seminormal pass everything, and no axiom runs
    monkeypatch.setitem(qck.axioms.CORE, "q", lambda g, around=None: AxiomReport("validate"))
    monkeypatch.setitem(qck.axioms.CORE, "seminormal", lambda g, around=None: AxiomReport("seminormal"))
    monkeypatch.setattr(qck.mutation, "family", lambda g: {})


def test_fuzz_rate_counts_damage_the_battery_misses(monkeypatch):
    g = qpow(3, 8)
    _blind_battery(monkeypatch)
    result = fuzz_graph(g, count=64, seed=1)
    assert result.detected == 0 and len(result.silent) == 64
    frozen = {x for x in g.vertex_ids() if all(g.eps(x, i) == POS_INF == g.phi(x, i) for i in g.index_set)}
    valid = [m for m, note in result.silent if note == VALID_NOTE]
    assert valid and all(m.kind == "weight" and m.vertex in frozen for m in valid)
    assert all(note == GAP_NOTE for m, note in result.silent if m not in valid)
    assert result.rate == 0.0


@pytest.mark.parametrize(
    "seed, weight",
    [(12, "2\t(1, 1, 1)->(1, 0, 1)"), (16, "3\t(1, 1, 1)->(1, 1, -1)")],
)
def test_fuzz_calls_a_frozen_vertex_weight_the_theorem_rules_out_valid(seed, weight):
    # the open question of test_axioms.py's
    # test_battery_passes_frozen_weights_the_theorem_rules_out: the battery
    # passes these mutants of q(3,3), so fuzz notes them valid and leaves
    # them out of the rate
    result = fuzz_graph(qpow(3, 3), count=20, seed=seed)
    assert [(m.describe(), note) for m, note in result.silent] == [(f"weight\t321\t{weight}", VALID_NOTE)]
    assert (result.total, result.detected, result.rate) == (20, 19, 1.0)


def test_fuzz_rejects_a_negative_count():
    with pytest.raises(ValueError, match="count"):
        fuzz_graph(qpow(2, 2), count=-1, seed=0)


def test_fuzz_rejects_a_boolean_count():
    with pytest.raises(ValueError, match="^fuzz count must be >= 0, got True$"):
        fuzz_graph(qpow(2, 2), count=True, seed=0)


@pytest.mark.parametrize("count, shown", [(2.5, "2.5"), ("3", "'3'")])
def test_fuzz_rejects_a_count_that_is_not_an_int(count, shown):
    # range() and < would raise TypeError; a library caller gets the CLI's ValueError
    with pytest.raises(ValueError, match=f"^fuzz count must be >= 0, got {shown}$"):
        fuzz_graph(qpow(2, 2), count=count, seed=0)


def test_fuzz_empty_run():
    result = fuzz_graph(qpow(2, 2), count=0, seed=0)
    assert result.total == 0
    assert result.rate == 1.0


@pytest.mark.parametrize("count", [3, 0])
@pytest.mark.parametrize("g", [std(1), QuasiCrystalGraph(2)], ids=["no index", "no vertex"])
def test_fuzz_refuses_a_graph_with_nothing_to_mutate(g, count):
    with pytest.raises(ValueError, match="^fuzz needs a graph with a vertex and an index to mutate$"):
        fuzz_graph(g, count=count, seed=0)
    with pytest.raises(ValueError, match="^fuzz needs a graph with a vertex and an index to mutate$"):
        random_mutation(g, random.Random(0))


# --- fuzz by in-place edits, checked against the copy-and-full-battery path ---

ACCEPTANCE_PLAN = [
    ("qpow(3,3)", lambda: qpow(3, 3), 150),
    ("qpow(3,2)", lambda: qpow(3, 2), 100),
    ("qpow(4,2)", lambda: qpow(4, 2), 100),
    ("content_quasi((2,1),3)", lambda: content_quasi((2, 1), 3), 100),
    ("tpow(3,2)", lambda: tpow(3, 2), 100),
]
def crystal_beside_frozen_vertex():
    # coherent and seminormal, but one frozen vertex makes it answer to the
    # quasi axioms, which the crystal part breaks
    g = tpow(3, 2).copy()
    g.add_vertex("z", (1, 1, 1), [POS_INF, POS_INF], [POS_INF, POS_INF])
    return g


def _drawn(g, count, seed):
    rng = random.Random(seed)
    return [random_mutation(g, rng)[1] for _ in range(count)]


DIFFERENTIAL_PLAN = ACCEPTANCE_PLAN + [
    ("tpow(4,3)", lambda: tpow(4, 3), 100),
    ("qpow(2,5)", lambda: qpow(2, 5), 100),
    ("qpow(3,4)", lambda: qpow(3, 4), 100),
    ("cross-wired tpow(3,3)", cross_wired_tpow33, 100),
    ("tpow(2,6)", lambda: tpow(2, 6), 100),  # strings longer than RADIUS
    ("tpow(3,2) beside a frozen vertex", crystal_beside_frozen_vertex, 100),
]


@pytest.mark.parametrize("name,build,count", DIFFERENTIAL_PLAN, ids=[p[0] for p in DIFFERENTIAL_PLAN])
def test_fuzz_matches_copy_and_full_battery(name, build, count):
    g = build()
    for seed in (20260816, 1, 2):
        assert fuzz_graph(g, count, seed).lines() == fuzz_via_copies(g, count, seed).lines(), seed


def test_fuzz_counts_start_witnesses_outside_the_region():
    # a weight edit of the lone frozen vertex is itself valid, so only the
    # LQ witnesses the crystal part carried from the start can flag it
    g = crystal_beside_frozen_vertex()
    assert run_detectors(g) and validate(g).passed and is_seminormal(g).passed
    result = fuzz_graph(g, count=100, seed=3)
    assert result.detected == 100
    assert any(m.kind == "weight" and m.vertex == "z" for m in _drawn(g, 100, 3))


def _ungated_reports(g):
    reports = [("validate", validate(g)), ("seminormal", is_seminormal(g))]
    if uncounted_length(g) is None:
        reports += list(run_checks(g, family(g)))
    return reports


@pytest.mark.parametrize("name,build,count", DIFFERENTIAL_PLAN, ids=[p[0] for p in DIFFERENTIAL_PLAN])
def test_edits_only_move_witnesses_anchored_in_the_region(name, build, count):
    # the locality fuzz relies on: a mutant's full witnesses anchored outside
    # region(g, x) are exactly the start graph's, for every checker
    g = build()
    start = dict(_ungated_reports(g))
    rng = random.Random(20260816)
    for _ in range(count):
        mutant, m = random_mutation(g, rng)
        if family(mutant) is not family(g):
            assert not validate(mutant, around={m.vertex}).passed, m.describe()
            continue
        _assert_same_outside(start, mutant, region(g, m.vertex), m.describe())


def _assert_same_outside(start, mutant, near, what):
    for key, rep in _ungated_reports(mutant):
        outside = [w for w in rep.witnesses if w.vertices[0] not in near]
        assert outside == [w for w in start[key].witnesses if w.vertices[0] not in near], (key, what)


@pytest.mark.parametrize("g", [tpow(2, 6), qpow(3, 3)], ids=["tpow(2,6)", "qpow(3,3)"])
def test_a_cut_edge_only_moves_witnesses_in_the_region(g):
    # cutting f_i(x) = y on either side changes the chain lengths seen from
    # every anchor on that i-string, however far along it
    start = dict(_ungated_reports(g))
    for x, i, y in g.edges():
        for v, setter in ((x, "set_lowering"), (y, "set_raising")):
            mutant = g.copy()
            getattr(mutant, setter)(v, i, None)
            _assert_same_outside(start, mutant, region(g, v), (v, i, setter))


@pytest.mark.parametrize("g", [qpow(3, 3), tpow(2, 6)], ids=["qpow(3,3)", "tpow(2,6)"])
def test_region_covers_the_ball_and_the_strings(g):
    # S3 walks 4 steps from its anchor; tpow(2,6) has strings longer than that
    assert RADIUS == 4
    both_ways = {}
    for x, i, y in g.edges():
        both_ways[(x, i)] = y
        both_ways[(y, -i)] = x
    for x in g.vertex_ids()[::3]:
        near = region(g, x)
        ball = {v for v, d in bfs_distances(both_ways, x).items() if d <= 4}
        assert ball <= near
        for i in g.index_set:
            for step in (g.e, g.f):
                z = step(x, i)
                while z is not None:
                    assert z in near
                    z = step(z, i)


def test_fuzz_leaves_its_input_unchanged():
    g = qpow(3, 3).copy()
    before = g.copy()
    fuzz_graph(g, count=80, seed=5)
    assert g == before


def test_fuzz_restores_its_input_when_a_checker_raises(monkeypatch):
    g = qpow(3, 3).copy()
    before = g.copy()
    calls = []

    def flaky(graph, around=None):
        if around is not None:
            calls.append(around)
            if len(calls) == 7:
                assert graph != before  # the seventh mutant is in place
                raise RuntimeError("checker failed mid-run")
        return validate(graph, around=around)

    monkeypatch.setitem(qck.axioms.CORE, "q", flaky)
    with pytest.raises(RuntimeError, match="mid-run"):
        fuzz_graph(g, count=20, seed=5)
    assert g == before


def test_fuzz_rejects_an_incoherent_start():
    g = qpow(3, 2).copy()
    g.set_epsilon("12", 1, 3)
    with pytest.raises(ValueError, match="fuzz needs a coherent seminormal graph to start from"):
        fuzz_graph(g, count=5, seed=0)
    # coherent but not seminormal: a lone vertex claiming a string of length 1
    g = QuasiCrystalGraph(2)
    g.add_vertex("a", (0, 0), [1], [1])
    assert validate(g).passed and not is_seminormal(g).passed
    with pytest.raises(ValueError, match="coherent seminormal"):
        fuzz_graph(g, count=5, seed=0)


def test_silent_mutants_carry_the_valid_note():
    result = fuzz_graph(qpow(2, 5), count=60, seed=1)
    assert result.silent
    assert all(note == VALID_NOTE for _, note in result.silent)


def test_family_by_graph_class():
    assert family(tpow(3, 2)) is CRYSTAL_AXIOMS
    assert family(std(4)) is CRYSTAL_AXIOMS
    assert family(qpow(3, 2)) is QUASI_AXIOMS
    assert list(QUASI_AXIOMS) == ["lq1", "lq2", "lq3", "lq3p", "cases", "infs", "lemij"]
    names = [name for name, _ in run_checks(tpow(3, 2), CRYSTAL_AXIOMS)]
    assert names == ["stembridge"]


def test_uncounted_length_finds_the_first_bad_entry():
    assert uncounted_length(qpow(3, 3)) is None
    g = qpow(3, 2).copy()
    g.set_phi("21", 2, -1)
    assert uncounted_length(g) == ("21", 2, -1)
    assert uncounted_length(g, around={"11", "12"}) is None
    assert run_detectors(g)[:2] == ["validate", "seminormal"]
    assert "cases" not in run_detectors(g)
    g.set_epsilon("11", 1, NEG_INF)
    assert uncounted_length(g) == ("11", 1, NEG_INF)


def _damaged(base, *edits):
    g = base.copy()
    for setter, *args in edits:
        getattr(g, setter)(*args)
    return g


def damaged_graphs():
    """The corrupted graphs of the run_detectors tests above, plus a few
    hand-damaged corpus graphs."""
    frozen = qpow(3, 2).copy()
    for setter, value in (("set_epsilon", POS_INF), ("set_phi", POS_INF), ("set_raising", None), ("set_lowering", None)):
        getattr(frozen, setter)("11", 2, value)
    return [
        ("std(3) eps_2(3)=2", _damaged(std(3), ("set_epsilon", "3", 2, 2))),
        ("std(3) eps_1(2)=2", _damaged(std(3), ("set_epsilon", "2", 1, 2))),
        ("cross-wired tpow(3,3)", cross_wired_tpow33()),
        ("qpow(3,2) frozen edge target", frozen),
        ("qpow(3,3) one-sided e", _damaged(qpow(3, 3), ("set_raising", "221", 1, "111"))),
        ("qpow(4,2) edge cut", _damaged(qpow(4, 2), ("set_raising", "12", 1, None), ("set_lowering", "11", 1, None))),
        ("tpow(3,2) weight", _damaged(tpow(3, 2), ("set_weight", "21", (1, 2, 0)))),
        ("content_quasi phi", _damaged(content_quasi((2, 1), 3), ("set_phi", content_quasi((2, 1), 3).vertex_ids()[1], 1, 3))),
    ]


def test_around_reports_the_full_witnesses_anchored_there():
    rng = random.Random(7)
    for name, g in damaged_graphs():
        checkers = {"validate": validate, "seminormal": is_seminormal, **QUASI_AXIOMS}
        if family(g) is CRYSTAL_AXIOMS:
            checkers.update(CRYSTAL_AXIOMS)
        full = list(run_checks(g, checkers))
        assert any(not rep.passed for _, rep in full), name
        ids = g.vertex_ids()
        subsets = [{x} for x in ids] + [set(rng.sample(ids, len(ids) // 3)) for _ in range(5)] + [set(ids)]
        for around in subsets:
            local = list(run_checks(g, checkers, around=around))
            assert [key for key, _ in local] == [key for key, _ in full]
            for (key, got), (_, want) in zip(local, full):
                assert got.witnesses == [w for w in want.witnesses if w.vertices[0] in around], (name, key, around)


def test_around_counting_guard_reads_only_the_anchors():
    g = qpow(3, 2).copy()
    g.set_epsilon("21", 1, -1)
    with pytest.raises(ValueError, match="vertex '21' index 1 has -1"):
        QUASI_AXIOMS["cases"](g)
    with pytest.raises(ValueError, match="vertex '21'"):
        QUASI_AXIOMS["infs"](g, around={"21", "11"})
    assert QUASI_AXIOMS["cases"](g, around={"11"}).witnesses == []


def test_edge_draws_match_a_choice_from_every_other_vertex_then_none():
    # _edge draws one randrange where the copy-per-mutant code built the pool
    # and called choice on it; both consume the same random bits
    g = qpow(3, 3)
    sampler = _Sampler(g)
    ids = g.vertex_ids()
    drawn, replay = random.Random(7), random.Random(7)
    news = []
    for _ in range(300):
        edit = sampler._edge(drawn)
        x, i, side = replay.choice(sampler.entries)
        old = g.e(x, i) if side == "e" else g.f(x, i)
        new = replay.choice([v for v in ids if v != old] + [None])
        assert (edit.key, edit.old, edit.new) == ((x, i), old, new)
        news.append((new, old))
    assert any(new is None for new, _ in news)
    assert any(new is not None and new < old for new, old in news)
    assert any(new is not None and new > old for new, old in news)


def test_random_mutation_draws_are_pinned():
    # the draws fuzz output depends on; recorded from the copy-per-mutant code
    rng = random.Random(42)
    g = qpow(3, 2)
    assert [random_mutation(g, rng)[1].describe() for _ in range(8)] == [
        "weight\t12\t1\t(1, 1, 0)->(2, 1, 0)",
        "eps\t21\t1\t+inf->-1",
        "eps\t31\t1\t0->1",
        "eps\t21\t1\t+inf->-1",
        "edge-e\t22\t1\t12->33",
        "weight\t22\t1\t(0, 2, 0)->(-1, 2, 0)",
        "weight\t31\t2\t(1, 0, 1)->(1, 1, 1)",
        "eps\t21\t2\t0->1",
    ]
