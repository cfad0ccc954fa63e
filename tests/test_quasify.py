import time
import tracemalloc

from hypothesis import assume, given, settings, strategies as st
import pytest

from qck.characters import verify_schur_decomposition
from qck.graphcore import POS_INF, is_crystal, is_seminormal, validate
from qck.quasify import (
    count_quasi_components,
    crystal_of_content,
    quasify,
)
from qck.structure import components, unique_highest_weight
from qck.weightlattice import entry_rows, enumerate_syt
from qck.wordmodel import SIZE_CAP_ENV, SizeCapExceeded, WordCrystal, word_to_id

from corpus import (
    content_cases,
    content_crystal,
    content_quasi,
    crystal_corpus,
    qpow,
    std,
    swap_index_rows,
    tpow,
)

import oracles


# ----------------------------------------------------------------- quasify


def test_quasify_fixes_the_standard_crystal():
    for n in (2, 3, 4, 5):
        assert quasify(std(n)) == std(n)


def test_quasify_keeps_weights_and_vertex_set():
    c = content_crystal((2, 1), 3)
    q = content_quasi((2, 1), 3)
    assert q.vertex_ids() == c.vertex_ids()
    for x in c.vertex_ids():
        assert q.wt(x) == c.wt(x)


def test_quasify_freezes_exactly_the_unsaturated_strings():
    c = content_crystal((2, 1), 3)
    q = content_quasi((2, 1), 3)
    for x in c.vertex_ids():
        for i in c.index_set:
            if c.eps(x, i) == c.wt(x)[i]:
                assert q.eps(x, i) == c.eps(x, i)
                assert q.phi(x, i) != POS_INF
            else:
                assert q.eps(x, i) == POS_INF
                assert q.phi(x, i) == POS_INF
                assert q.e(x, i) is None and q.f(x, i) is None


@pytest.mark.parametrize("shape,n", content_cases())
def test_quasify_output_is_coherent(shape, n):
    q = content_quasi(shape, n)
    assert validate(q).passed
    assert is_seminormal(q).passed


def test_quasify_never_adds_or_retargets_edges():
    c = content_crystal((2, 1, 1), 3)
    q = content_quasi((2, 1, 1), 3)
    c_edges = set(c.edges())
    q_edges = set(q.edges())
    assert q_edges <= c_edges


def test_quasify_rejects_disconnected_input():
    with pytest.raises(ValueError, match="decompose first"):
        quasify(tpow(3, 2))


def test_quasify_rejects_frozen_input():
    with pytest.raises(ValueError, match="crystals"):
        quasify(qpow(3, 2))


def test_quasify_rejects_negative_weights():
    g = std(3).copy()
    for x in g.vertex_ids():
        g.set_weight(x, tuple(w - 1 for w in g.wt(x)))
    with pytest.raises(ValueError, match=r"translate by a multiple of \(1,...,1\)"):
        quasify(g)


def test_quasify_rejects_incoherent_input():
    g = std(3).copy()
    g.set_epsilon("3", 2, 2)
    with pytest.raises(ValueError):
        quasify(g)


def test_quasify_rejects_non_seminormal_input():
    # shift one eps/phi pair together: the phi relation survives, chains do not
    g = std(3).copy()
    g.set_epsilon("1", 2, 1)
    g.set_phi("1", 2, 1)
    with pytest.raises(ValueError, match="seminormal"):
        quasify(g)


def test_quasify_rejects_non_local_input():
    # coherent, seminormal and connected, but not a Stembridge crystal
    g = swap_index_rows(content_crystal((3, 1), 3), "1132", "1231", 1)
    assert validate(g).passed and is_seminormal(g).passed and len(components(g)) == 1
    with pytest.raises(ValueError, match="local crystal axioms; failing: S1, S2, S2p, S3, S3p"):
        quasify(g)


def quasify_refusal_inputs():
    """The inputs of the test_quasify_rejects_* tests above."""
    shifted = std(3).copy()
    for x in shifted.vertex_ids():
        shifted.set_weight(x, tuple(w - 1 for w in shifted.wt(x)))
    incoherent = std(3).copy()
    incoherent.set_epsilon("3", 2, 2)
    not_seminormal = std(3).copy()
    not_seminormal.set_epsilon("1", 2, 1)
    not_seminormal.set_phi("1", 2, 1)
    not_local = swap_index_rows(content_crystal((3, 1), 3), "1132", "1231", 1)
    return [tpow(3, 2), qpow(3, 2), shifted, incoherent, not_seminormal, not_local]


def test_quasify_matches_the_accessor_oracle():
    for name, g in crystal_corpus():
        for comp in components(g):
            c = comp.subgraph()
            q, want = quasify(c), oracles.quasify_via_accessors(c)
            assert q == want and q.raising_edges() == want.raising_edges(), (name, comp.min_vertex)


def test_quasify_refusals_match_the_accessor_oracle():
    refusals = set()
    for g in quasify_refusal_inputs():
        with pytest.raises(ValueError) as got:
            quasify(g)
        with pytest.raises(ValueError) as want:
            oracles.quasify_via_accessors(g)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
        refusals.add(str(got.value))
    assert len(refusals) == 6


# --------------------------------------------------------- content crystals


def test_content_crystal_known_sizes():
    assert len(content_crystal((2, 1), 3)) == 8
    assert len(content_crystal((3,), 2)) == 4
    assert len(content_crystal((1, 1, 1), 3)) == 1
    assert len(content_crystal((2, 2), 4)) == 20


@pytest.mark.parametrize("shape,n", content_cases())
def test_content_crystal_contract(shape, n):
    c = content_crystal(shape, n)
    assert validate(c).passed
    assert is_crystal(c)
    assert is_seminormal(c).passed
    comps = components(c)
    assert len(comps) == 1
    hw = unique_highest_weight(comps[0])
    assert c.wt(hw) == shape + (0,) * (n - len(shape))
    # size equals the number of semistandard fillings
    assert len(c) == sum(oracles.schur_monomials(shape, n).values())


def test_content_crystal_vertices_carry_their_content():
    c = content_crystal((2, 1), 3)
    for x in c.vertex_ids():
        assert c.wt(x) == tuple(x.count(a) for a in "123")


def test_content_crystal_picks_least_qualifying_vertex():
    c = content_crystal((2, 1, 1), 3)
    comps = components(tpow(3, 4))
    qualifying = [
        comp
        for comp in comps
        if len(comp.hw_vertices) == 1
        and tpow(3, 4).wt(comp.hw_vertices[0]) == (2, 1, 1)
    ]
    assert len(qualifying) == 3
    assert min(q.min_vertex for q in qualifying) == "1321"
    assert sorted(c.vertex_ids()) == list(qualifying[0].vertices)


def test_rank_one_content_crystal_is_one_word():
    c = crystal_of_content((3,), 1)
    assert c.vertex_ids() == ["111"] and c.wt("111") == (3,)
    assert c == oracles.content_component_via_power((3,), 1)
    assert quasify(c) == c and count_quasi_components((3,), 1) == 1


# n = 10 checks the dash-separated ids, whose order is not the word order
DIFFERENTIAL_CASES = content_cases(6, (2, 3, 4)) + [
    ((4, 3, 1), 4),
    ((3, 2, 1), 5),
    ((2, 2, 1), 3),
    ((2, 1), 10),
    ((1, 1, 1), 10),
]


@pytest.mark.parametrize("shape,n", DIFFERENTIAL_CASES)
def test_content_crystal_matches_power_then_pick(shape, n):
    fast = crystal_of_content(shape, n)
    slow = oracles.content_component_via_power(shape, n)
    assert fast == slow
    assert fast.edges() == slow.edges()
    assert fast.raising_edges() == slow.raising_edges()


# for n <= 9 only the least top word's component is walked; the oracle walks them all
ALL_WALKS_CASES = content_cases(6, (2, 3, 4)) + [
    ((3, 3, 3), 5),
    ((4, 2, 1), 5),
    ((2, 2, 2, 2), 8),
    ((2, 1), 10),
    ((1, 1, 1), 10),
]


@pytest.mark.parametrize("shape,n", ALL_WALKS_CASES)
def test_content_crystal_matches_all_walks(shape, n):
    fast = crystal_of_content(shape, n)
    slow = oracles.content_component_all_walks(shape, n)
    assert fast == slow
    assert fast.edges() == slow.edges()
    assert fast.raising_edges() == slow.raising_edges()


@pytest.mark.parametrize("shape,n", sorted(set(DIFFERENTIAL_CASES + ALL_WALKS_CASES)))
def test_content_rows_match_the_suffix_memo(shape, n):
    # crystal_of_content's walk: the least top word's component for n <= 9, each top's beyond
    tops = sorted(entry_rows(t)[::-1] for t in enumerate_syt(shape))
    words, memo = WordCrystal(n), oracles.RowsViaSuffixMemo(n)
    for top in tops[:1] if n <= 9 else tops:
        for word, row in words.component(top).items():
            assert row == memo.row(word), word
    # one _pair_row call per memo entry, and no more than one per distinct suffix
    assert 0 < len(words._next) <= memo.calls


@settings(deadline=None)
@given(st.sampled_from([p for m in range(1, 7) for p in oracles.partitions_brute(m)]), st.integers(2, 5))
def test_content_rows_match_the_suffix_memo_everywhere(shape, n):
    assume(len(shape) <= n)
    test_content_rows_match_the_suffix_memo(shape, n)


def test_one_row_content_crystal_holds_no_row_per_suffix_slice():
    # (300) at n = 2 has 301 words; a memo keyed by every suffix tuple held
    # about 300^3 / 3 tuple slots, a peak of 83-87 MB here
    crystal_of_content((3,), 2)  # a first call fills the interpreter's own caches
    tracemalloc.start()
    try:
        c = crystal_of_content((300,), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(c) == 301
    assert peak < 25e6


@pytest.mark.parametrize("shape,n", sorted(set(DIFFERENTIAL_CASES + ALL_WALKS_CASES)))
def test_top_words_are_reversed_tableaux(shape, n):
    # the tops that the product rule's rows find are the standard tableaux read backwards
    found = oracles.highest_weight_words_via_rule(WordCrystal(n), shape + (0,) * (n - len(shape)))
    assert sorted(found) == sorted(entry_rows(t)[::-1] for t in enumerate_syt(shape))


@settings(deadline=None)
@given(st.sampled_from([p for m in range(1, 8) for p in oracles.partitions_brute(m)]), st.integers(2, 5))
def test_top_words_are_reversed_tableaux_everywhere(shape, n):
    assume(len(shape) <= n)
    test_top_words_are_reversed_tableaux(shape, n)


@pytest.mark.parametrize("k", range(2, 13))
def test_column_content_is_the_decreasing_word(k):
    c = crystal_of_content((1,) * k, k)
    assert c == oracles.content_component_all_walks((1,) * k, k)
    assert c.vertex_ids() == [word_to_id(tuple(range(k, 0, -1)), k)]


def test_long_column_builds_quickly():
    # the size cap charges a column k letters; its build must not grow like k^3
    start = time.perf_counter()
    c = crystal_of_content((1,) * 200, 200)
    assert time.perf_counter() - start < 1.0
    assert len(c) == 1


@pytest.mark.parametrize(
    "shape,n", [((1, 2), 3), ((1, 1, 1, 1), 3), ((), 3), ((2, 1), 1), ((2, 0), 3), ((1,), 0), ((1,), "3")]
)
def test_content_crystal_errors_match_power_then_pick(shape, n):
    with pytest.raises(Exception) as fast:
        crystal_of_content(shape, n)
    with pytest.raises(Exception) as slow:
        oracles.content_component_via_power(shape, n)
    assert fast.type is slow.type


def test_content_crystal_beyond_the_old_power_cap():
    # 5^9 words would exceed the default cap; the cap is charged 42 * 175 words
    c = crystal_of_content((3, 3, 3), 5)
    assert len(c) == 175
    assert validate(c).passed and is_seminormal(c).passed


def test_content_crystal_size_cap_counts_the_walk(monkeypatch):
    # (2,1) at n=3: f^(2,1) = 2 highest-weight words, 8 words each, 3 letters
    monkeypatch.setenv(SIZE_CAP_ENV, "47")
    with pytest.raises(SizeCapExceeded):
        crystal_of_content((2, 1), 3)
    monkeypatch.setenv(SIZE_CAP_ENV, "48")
    assert len(crystal_of_content((2, 1), 3)) == 8
    # a long row has few words but long ones: 11 words of 10 letters
    monkeypatch.setenv(SIZE_CAP_ENV, "109")
    with pytest.raises(SizeCapExceeded):
        crystal_of_content((10,), 2)


def test_content_crystal_size_cap_counts_the_string_lengths(monkeypatch):
    # (1) at n=11 walks 11 one-letter words but stores 11 rows of 10 lengths,
    # as many as standard_crystal(11)
    monkeypatch.setenv(SIZE_CAP_ENV, "109")
    with pytest.raises(SizeCapExceeded, match=r"stores 1\*11 rows of 10 string lengths"):
        crystal_of_content((1,), 11)
    monkeypatch.setenv(SIZE_CAP_ENV, "110")
    assert crystal_of_content((1,), 11) == std(11)
    # the letters are still checked first: (2,1) at n=3 walks 48 letters, stores 32 lengths
    monkeypatch.setenv(SIZE_CAP_ENV, "40")
    with pytest.raises(SizeCapExceeded, match="words of 3 letters"):
        crystal_of_content((2, 1), 3)


def test_content_crystal_rejects_bad_shapes():
    with pytest.raises(ValueError):
        crystal_of_content((1, 2), 3)
    with pytest.raises(ValueError):
        crystal_of_content((1, 1, 1, 1), 3)
    with pytest.raises(ValueError):
        crystal_of_content((), 3)
    with pytest.raises(ValueError, match=r"^not a partition \(weakly decreasing positive parts\): \(True,\)$"):
        crystal_of_content((True,), 2)


@pytest.mark.parametrize("build", [crystal_of_content, count_quasi_components, verify_schur_decomposition])
def test_content_crystal_refuses_a_rank_that_is_not_an_int(build):
    # len(parts) > n would raise TypeError on a string, and a bool passes for an int
    for n in ("3", True, False):
        with pytest.raises(ValueError, match=f"^n must be an integer, got {n!r}$"):
            build((2, 1), n)


# ------------------------------------------------------------------ counting


def test_count_matches_standard_tableaux_small():
    for n in (3, 4):
        for m in range(1, 5):
            for shape in oracles.partitions_brute(m, max_parts=n):
                assert count_quasi_components(shape, n) == len(enumerate_syt(shape))


def test_count_known_instance():
    assert count_quasi_components((2, 1, 1), 3) == 3
    assert count_quasi_components((2, 1), 3) == 2
    assert count_quasi_components((3,), 4) == 1


def test_quasi_component_highest_weights_for_library_pick():
    # the component picked for content (2,1,1) splits into three singletons
    q = content_quasi((2, 1, 1), 3)
    hw_words = sorted(unique_highest_weight(c) for c in components(q))
    assert hw_words == ["1321", "2321", "3321"]
    # their weights differ; only the crystal's own highest weight keeps the content
    contents = sorted(tuple(w.count(a) for a in "123") for w in hw_words)
    assert contents == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
