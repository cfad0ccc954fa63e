import importlib
import itertools
import random
import re

from hypothesis import given, settings, strategies as st
import pytest

from qck import wordmodel
from qck.graphcore import POS_INF, QuasiCrystalGraph, is_crystal, is_seminormal, to_json, to_text, validate
from qck.weightlattice import entry_rows, enumerate_syt
from qck.wordmodel import (
    DEFAULT_SIZE_CAP,
    SIZE_CAP_ENV,
    SizeCapExceeded,
    WordCrystal,
    default_size_cap,
    positive_cap,
    quasi_tensor,
    quasi_tensor_power,
    standard_crystal,
    tensor,
    tensor_power,
    word_to_id,
)

from corpus import content_crystal, content_quasi, qpow, std, tpow

import oracles


def test_word_id_digit_and_dash_forms():
    assert word_to_id((1, 2, 3), 3) == "123"
    assert word_to_id((10, 2), 12) == "10-2"
    # without the dash, (1, 11) and (11, 1) would both read "111"
    assert word_to_id((1, 11), 12) == "1-11"
    assert word_to_id((11, 1), 12) == "11-1"


@pytest.mark.parametrize("word,n", [((1, 4), 3), ((0, 1), 3), ((13,), 12)])
def test_word_to_id_refuses_a_letter_out_of_range(word, n):
    with pytest.raises(ValueError, match=rf"^word letters must lie in 1\.\.{n}: {re.escape(str(word))}$"):
        word_to_id(word, n)


def test_standard_crystal_tables():
    for n in range(2, 7):
        g = standard_crystal(n)
        assert len(g) == n
        assert g.vertex_ids() == [word_to_id((j,), n) for j in range(1, n + 1)]
        for j in range(1, n + 1):
            vid = word_to_id((j,), n)
            expected_wt = tuple(1 if c == j else 0 for c in range(1, n + 1))
            assert g.wt(vid) == expected_wt
            for i in g.index_set:
                assert g.eps(vid, i) == (1 if i + 1 == j else 0)
                assert g.phi(vid, i) == (1 if i == j else 0)
                target = g.f(vid, i)
                if i == j:
                    assert target == word_to_id((j + 1,), n)
                else:
                    assert target is None
        assert validate(g).passed
        assert is_seminormal(g).passed
        assert is_crystal(g)


def test_standard_crystal_degenerate_ranks():
    with pytest.raises(ValueError):
        standard_crystal(0)
    trivial = standard_crystal(1)
    assert len(trivial) == 1
    assert list(trivial.index_set) == []


def test_tensor_square_rank_two_table():
    t = tensor(standard_crystal(2), standard_crystal(2))
    assert t.vertex_ids() == ["11", "12", "21", "22"]
    rows = {
        x: (t.wt(x), t.eps(x, 1), t.phi(x, 1), t.f(x, 1), t.e(x, 1))
        for x in t.vertex_ids()
    }
    assert rows == {
        "11": ((2, 0), 0, 2, "12", None),
        "12": ((1, 1), 1, 1, "22", "11"),
        "21": ((1, 1), 0, 0, None, None),
        "22": ((0, 2), 2, 0, None, "12"),
    }


def test_quasi_tensor_square_blocks_the_inversion():
    q = quasi_tensor(standard_crystal(2), standard_crystal(2))
    assert q.eps("21", 1) is POS_INF
    assert q.phi("21", 1) is POS_INF
    assert q.e("21", 1) is None and q.f("21", 1) is None
    # the other three vertices keep their classical data
    t = tensor(standard_crystal(2), standard_crystal(2))
    for x in ("11", "12", "22"):
        assert q.wt(x) == t.wt(x)
        assert q.eps(x, 1) == t.eps(x, 1)
        assert q.phi(x, 1) == t.phi(x, 1)
        assert q.f(x, 1) == t.f(x, 1)


def test_pair_id_keeps_newest_letter_first():
    # the left factor is the newer letter, so it leads the id string
    q = quasi_tensor(standard_crystal(3), standard_crystal(3))
    assert set(q.vertex_ids()) == {f"{a}{b}" for a in "123" for b in "123"}
    # 1 then 2 then 3 builds the fully frozen vertex "321"
    q3 = qpow(3, 3)
    assert all(q3.eps("321", i) is POS_INF is q3.phi("321", i) for i in q3.index_set)


def test_power_sizes_and_ids():
    for n, k in [(2, 3), (3, 2), (3, 3), (4, 2)]:
        g = qpow(n, k)
        assert len(g) == n**k
        assert all(len(x) == k for x in g.vertex_ids())


def test_power_matches_manual_iteration():
    manual = quasi_tensor(
        quasi_tensor(standard_crystal(3), standard_crystal(3)), standard_crystal(3)
    )
    assert qpow(3, 3) == manual
    manual_t = tensor(tensor(standard_crystal(3), standard_crystal(3)), standard_crystal(3))
    assert tpow(3, 3) == manual_t


def test_power_weight_is_word_content():
    g = qpow(3, 3)
    for x in g.vertex_ids():
        assert g.wt(x) == tuple(x.count(a) for a in "123")


def test_tensor_requires_crystals():
    with pytest.raises(ValueError):
        tensor(qpow(2, 2), standard_crystal(2))  # left factor holds a loop


def test_quasi_powers_are_not_crystals_but_tensor_powers_are():
    assert not is_crystal(qpow(2, 2))
    assert is_crystal(tpow(3, 3))


def test_power_argument_validation():
    with pytest.raises(ValueError):
        tensor_power(3, 0)
    with pytest.raises(ValueError, match="^n must be a positive integer$"):
        quasi_tensor_power(0, 2)


def test_rank_one_powers_are_one_word():
    # B(1) is the one vertex 1 of weight (1): its k-th power is the word 1...1
    for power in (tensor_power, quasi_tensor_power):
        g = power(1, 3)
        assert g.vertex_ids() == ["111"] and g.wt("111") == (3,) and not g.edges()


def test_bool_is_not_a_rank_or_a_power():
    with pytest.raises(ValueError, match="^n must be a positive integer$"):
        standard_crystal(True)
    for power in (tensor_power, quasi_tensor_power):
        with pytest.raises(ValueError, match="^k must be a positive integer$"):
            power(2, True)


def test_size_cap_blocks_large_builds():
    with pytest.raises(SizeCapExceeded):
        quasi_tensor_power(10, 7)
    with pytest.raises(SizeCapExceeded):
        tensor_power(2, 4, size_cap=8)
    assert len(tensor_power(2, 3, size_cap=8)) == 8


def test_size_cap_bounds_the_standard_crystal(monkeypatch):
    # it stores n * (n - 1) string lengths
    with pytest.raises(SizeCapExceeded, match="20 string lengths"):
        standard_crystal(5, size_cap=19)
    assert len(standard_crystal(5, size_cap=20)) == 5
    with pytest.raises(SizeCapExceeded):
        tensor_power(5, 1, size_cap=19)  # the power passes its cap on
    monkeypatch.delenv(SIZE_CAP_ENV, raising=False)
    with pytest.raises(SizeCapExceeded):
        standard_crystal(1001)
    assert len(standard_crystal(2)) == 2


@pytest.mark.parametrize("cap", [True, False, 2.5, b"10", [10]])
def test_positive_cap_refuses_what_is_not_an_integer(cap):
    with pytest.raises(ValueError, match=rf"^x must be an integer, got {re.escape(repr(cap))}$"):
        positive_cap(cap, "x")


@pytest.mark.parametrize("power", [tensor_power, quasi_tensor_power])
@pytest.mark.parametrize(
    "cap,err", [(True, "an integer, got True"), (0, "positive"), (-3, "positive"), ("1_0", "an integer, got '1_0'")]
)
def test_library_size_cap_is_checked(power, cap, err):
    for build in (lambda: power(2, 1, size_cap=cap), lambda: power(2, 3, size_cap=cap)):
        with pytest.raises(ValueError, match=rf"^size_cap must be {re.escape(err)}$"):
            build()
    with pytest.raises(ValueError, match=rf"^size_cap must be {re.escape(err)}$"):
        standard_crystal(3, size_cap=cap)


def test_library_size_cap_reads_a_plain_integer_string():
    assert len(standard_crystal(3, size_cap="10")) == 3
    assert len(tensor_power(2, 3, size_cap="8")) == 8
    with pytest.raises(SizeCapExceeded, match=r"^2\^4 = 16 vertices exceeds the size cap 8$"):
        quasi_tensor_power(2, 4, size_cap="8")


def test_size_cap_env_override(monkeypatch):
    monkeypatch.setenv(SIZE_CAP_ENV, "10")
    assert default_size_cap() == 10
    with pytest.raises(SizeCapExceeded):
        quasi_tensor_power(2, 4)
    monkeypatch.delenv(SIZE_CAP_ENV)
    assert default_size_cap() == DEFAULT_SIZE_CAP


def test_all_corpus_powers_validate():
    for n, k in [(2, 4), (3, 3), (4, 2)]:
        assert validate(qpow(n, k)).passed
        assert is_seminormal(qpow(n, k)).passed
        assert validate(tpow(n, k)).passed
        assert is_seminormal(tpow(n, k)).passed


# --- one product rule, checked against the retired pairwise products --------

# n = 10 and 11 check the dash-separated ids, whose order is not the word order;
# (10, 3) joins three of them, and (2, 8) and (3, 6) reach each edge's target
# n**p words away for every position p of a long word
POWER_CASES = [(n, k) for n in (1, 2, 3, 4) for k in range(1, 6)] + [(10, 2), (11, 2), (10, 3), (2, 8), (3, 6)]


@pytest.mark.parametrize("blocking", [False, True], ids=["tensor", "quasi"])
@pytest.mark.parametrize("n,k", POWER_CASES)
def test_power_matches_pairwise_products(n, k, blocking):
    fast = (quasi_tensor_power if blocking else tensor_power)(n, k)
    slow = oracles.power_via_products(n, k, blocking)
    assert fast == slow
    assert fast.raising_edges() == slow.raising_edges()


# --- the word rules of the literature, which do not restate _pair_row -------


@pytest.mark.parametrize(
    "blocking,n,k",
    [(True, n, k) for n, k in [(2, 3), (3, 3), (3, 4), (4, 3), (2, 5), (5, 2)]]
    + [(False, n, k) for n, k in [(2, 4), (3, 3), (3, 4), (4, 3), (5, 2), (2, 6)]]
    + [(blocking, n, k) for n, k in [(10, 3), (2, 8), (3, 6)] for blocking in (True, False)],
)
def test_power_matches_the_word_rule(blocking, n, k):
    fast = (quasi_tensor_power if blocking else tensor_power)(n, k)
    slow = oracles.power_via_word_rule(n, k, blocking)
    assert fast == slow
    assert fast.raising_edges() == slow.raising_edges()


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4), st.booleans())
def test_power_matches_the_word_rule_everywhere(n, k, blocking):
    test_power_matches_the_word_rule(blocking, n, k)


@pytest.mark.parametrize("power", [tensor_power, quasi_tensor_power])
def test_power_builds_each_suffix_row_once(monkeypatch, power):
    calls = []
    pair_row = wordmodel._pair_row
    monkeypatch.setattr(wordmodel, "_pair_row", lambda *args: calls.append(1) or pair_row(*args))
    power(3, 4)
    assert len(calls) == 3 + 9 + 27 + 81  # one per nonempty word of at most 4 letters


@pytest.mark.parametrize("power, count", [(quasi_tensor_power, 114), (tensor_power, 266)])
def test_power_builds_each_distinct_row_once_per_letter(monkeypatch, power, count):
    # a level of L letters makes n rows per distinct row of L - 1 letters, not
    # one per word: 2 + 4 + ... + 256 = 510 words for n = 2, k = 8. In the quasi
    # power a word of L letters over {1, 2} is 1^a 2^b (L + 1 rows) or frozen,
    # one row per weight with both letters (L - 1), so 2 * (1 + 2 + 4 + 6 + ... + 14)
    calls = []
    pair_row = wordmodel._pair_row
    monkeypatch.setattr(wordmodel, "_pair_row", lambda *args: calls.append(1) or pair_row(*args))
    power(2, 8)
    assert len(calls) == count


def test_content_crystal_builds_each_row_once(monkeypatch):
    calls, made = [], []
    pair_row = wordmodel._pair_row
    monkeypatch.setattr(wordmodel, "_pair_row", lambda *args: calls.append(1) or pair_row(*args))

    class Recorded(WordCrystal):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    quasify = importlib.import_module("qck.quasify")  # the package's quasify is the function
    monkeypatch.setattr(quasify, "WordCrystal", Recorded)
    # each call stores one row under (row of rest, letter): as many calls as
    # the walk meets distinct suffixes, which the memo once kept one by one
    for shape, n, size, count in [((3, 2, 1), 5, 280, 404), ((4, 3, 1), 4, 175, 305), ((200,), 2, 201, 20_300)]:
        calls.clear()
        assert len(quasify.crystal_of_content(shape, n)) == size
        assert len(calls) == len(made[-1]._next) == count


@pytest.mark.parametrize(
    "n,words,expected",
    [
        (3, list(itertools.product(range(1, 4), repeat=4)), lambda: tpow(3, 4)),
        (
            4,
            [tuple(map(int, x)) for x in content_crystal((3, 2, 1), 4).vertex_ids()],
            lambda: content_crystal((3, 2, 1), 4),
        ),
    ],
    ids=["tensor-power", "content-crystal"],
)
def test_word_crystal_graph_does_not_depend_on_word_order(n, words, expected):
    # the whole power's words give _power's graph, a component's its content crystal
    shuffled = words[:]
    random.Random(7).shuffle(shuffled)
    crystal = WordCrystal(n)
    got = crystal.graph({x: crystal.row(x) for x in shuffled})
    assert list(got._wt) != sorted(got._wt)  # stored in the shuffled order
    assert got == expected()
    assert to_text(got) == to_text(expected())
    assert to_json(got) == to_json(expected())


@pytest.mark.parametrize("blocking", [False, True], ids=["tensor", "quasi"])
@pytest.mark.parametrize(
    "n,k,cap",
    [(0, 2, None), ("3", 0, None), (3, 0, None), (2, 4, 8), (5, 1, 19), (10, 7, None), (2, 5000, None)]
    # several faults at once: n is refused before k, and k before the cap
    + [(0, 0, 1), (1, 0, 1), (True, 3, 1), (3, 0, 1), (3, True, 1)],
)
def test_power_refusals_match_pairwise_products(monkeypatch, n, k, cap, blocking):
    monkeypatch.delenv(SIZE_CAP_ENV, raising=False)
    with pytest.raises(Exception) as fast:
        (quasi_tensor_power if blocking else tensor_power)(n, k, size_cap=cap)
    with pytest.raises(Exception) as slow:
        oracles.power_via_products(n, k, blocking, size_cap=cap)
    assert (fast.type, str(fast.value)) == (slow.type, str(slow.value))


PRODUCT_CASES = [
    # a loop in the left factor (quasi only: tensor refuses it)
    ("quasi", lambda: qpow(2, 2), lambda: std(2)),
    ("quasi", lambda: qpow(3, 2), lambda: qpow(3, 1)),
    # a quasified content crystal, on either side
    ("quasi", lambda: content_quasi((2, 1), 3), lambda: std(3)),
    ("quasi", lambda: std(3), lambda: content_quasi((2, 1), 3)),
    ("tensor", lambda: content_crystal((2, 1), 3), lambda: std(3)),
    # factors of unequal size
    ("tensor", lambda: std(3), lambda: tpow(3, 2)),
    ("tensor", lambda: tpow(2, 3), lambda: std(2)),
    ("quasi", lambda: qpow(2, 3), lambda: qpow(2, 2)),
    ("quasi", lambda: std(1), lambda: std(1)),
    # from n = 10 on, a pair's id joins its factors' ids with a dash
    ("tensor", lambda: tpow(10, 2), lambda: std(10)),
    ("quasi", lambda: qpow(10, 2), lambda: std(10)),
]


@pytest.mark.parametrize("kind,left,right", PRODUCT_CASES)
def test_product_matches_pairwise_products(kind, left, right):
    a, b = left(), right()
    fast = (quasi_tensor if kind == "quasi" else tensor)(a, b)
    slow = oracles.product_via_pairs(a, b, kind == "quasi")
    assert fast == slow
    assert fast.raising_edges() == slow.raising_edges()


@pytest.mark.parametrize(
    "kind,left,right",
    [
        ("tensor", lambda: std(2), lambda: std(3)),  # rank mismatch
        ("quasi", lambda: std(3), lambda: std(2)),
        ("tensor", lambda: qpow(2, 2), lambda: std(2)),  # not a crystal
        ("tensor", lambda: std(2), lambda: qpow(2, 2)),
    ],
)
def test_product_refusals_match_pairwise_products(kind, left, right):
    a, b = left(), right()
    with pytest.raises(Exception) as fast:
        (quasi_tensor if kind == "quasi" else tensor)(a, b)
    with pytest.raises(Exception) as slow:
        oracles.product_via_pairs(a, b, kind == "quasi")
    assert (fast.type, str(fast.value)) == (slow.type, str(slow.value))


@pytest.mark.parametrize("product", [tensor, quasi_tensor])
def test_product_refuses_colliding_pair_ids(product):
    # at rank 2 a pair's id is the two ids joined, so ("23", "1") and ("3", "12")
    # would both be "123"; the product refuses rather than keep one of the two
    def weightless(*ids):
        g = QuasiCrystalGraph(2)
        for x in ids:
            g.add_vertex(x, (0, 0), [0], [0])
        return g

    with pytest.raises(ValueError, match=r"^pair id '123' is given to two pairs of vertices$"):
        product(weightless("3", "23"), weightless("1", "12"))


@pytest.mark.parametrize("n,k", [(2, 1), (2, 4), (3, 3), (3, 4), (4, 3), (4, 4)])
def test_highest_weight_words_match_the_power(n, k):
    # every content of k letters against the power's tops of that weight: a
    # partition's are its standard tableaux read backwards, any other has none
    power = oracles.power_via_products(n, k, blocking=False)
    tops = [x for x in power.vertex_ids() if all(power.e(x, i) is None for i in power.index_set)]
    for content in {power.wt(x) for x in power.vertex_ids()}:
        expected = {x for x in tops if power.wt(x) == content}
        if list(content) == sorted(content, reverse=True):
            shape = tuple(c for c in content if c)
            assert {word_to_id(entry_rows(t)[::-1], n) for t in enumerate_syt(shape)} == expected
        else:
            assert not expected


def test_quasi_power_has_tops_of_a_content_that_is_no_partition():
    # the tableau rule holds for the classical power only: the quasi power's
    # tops of content (1, 2) at n = 2 are 212 and 221, and the rule finds none
    q = qpow(2, 3)
    assert {x for x in q.vertex_ids() if q.wt(x) == (1, 2) and q.e(x, 1) is None} == {"212", "221"}
