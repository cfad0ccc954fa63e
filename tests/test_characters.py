import importlib
import itertools
from collections import Counter

from hypothesis import given, strategies as st
import pytest

import qck.characters

from qck.characters import (
    IntPolynomial,
    SchurDecompositionReport,
    character,
    fundamental_qsym,
    verify_schur_decomposition,
)
from qck.structure import components, unique_highest_weight
from qck.weightlattice import enumerate_syt
from qck.wordmodel import SizeCapExceeded, standard_crystal

from corpus import content_crystal, qpow, std, tpow

import oracles


@st.composite
def small_polys(draw, n=3):
    count = draw(st.integers(min_value=0, max_value=4))
    p = IntPolynomial.zero(n)
    for _ in range(count):
        expo = tuple(draw(st.integers(min_value=0, max_value=3)) for _ in range(n))
        coeff = draw(st.integers(min_value=-4, max_value=4))
        p = p + IntPolynomial.monomial(n, expo, coeff)
    return p


# ------------------------------------------------------------- polynomial ring


def test_constructors():
    assert IntPolynomial.zero(3).terms() == ()
    assert dict(IntPolynomial.one(3).terms()) == {(0, 0, 0): 1}
    assert dict(IntPolynomial.monomial(3, (2, 0, 1), 5).terms()) == {(2, 0, 1): 5}


def test_zero_coefficients_are_dropped():
    p = IntPolynomial.monomial(2, (1, 0), 3) - IntPolynomial.monomial(2, (1, 0), 3)
    assert list(p.terms()) == []
    assert p == IntPolynomial.zero(2)


@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p - p == IntPolynomial.zero(3)
    assert p * IntPolynomial.one(3) == p
    assert p * IntPolynomial.zero(3) == IntPolynomial.zero(3)


@given(small_polys())
def test_integer_scaling(p):
    assert p * 3 == p + p + p
    assert p * 0 == IntPolynomial.zero(3)


@given(small_polys(), st.integers(min_value=0, max_value=5))
def test_pow_matches_repeated_multiplication(p, k):
    expected = IntPolynomial.one(3)
    for _ in range(k):
        expected = expected * p
    assert p**k == expected


def test_pow_rejects_negative():
    with pytest.raises(ValueError):
        character(standard_crystal(2)) ** -1


@pytest.mark.parametrize("k", [True, False])
def test_pow_refuses_a_bool_exponent(k):
    with pytest.raises(ValueError, match="^exponent must be a non-negative int$"):
        character(standard_crystal(2)) ** k


@pytest.mark.parametrize("expo", [(1.5, 0), (-1, 0), (True, 0), (0, False), ("1", 0)])
def test_constructor_refuses_an_exponent_entry_that_is_not_a_non_negative_int(expo):
    with pytest.raises(ValueError, match=r"^exponent entries must be non-negative ints, got \(.*\)$"):
        IntPolynomial(2, {expo: 1})


@pytest.mark.parametrize(
    "terms,message",
    [
        ({(1,): 1}, r"^exponent vector \(1,\) has length != 2$"),
        ({(1, 0, 0): 1}, r"^exponent vector \(1, 0, 0\) has length != 2$"),
        ({(1, 0): 1.0}, r"^coefficient must be int, got 1\.0$"),
        ({(1, 0): True}, r"^coefficient must be int, got True$"),
        ({(1, 0): "1"}, r"^coefficient must be int, got '1'$"),
    ],
)
def test_constructor_refuses_a_wrong_length_exponent_or_a_coefficient_that_is_not_an_int(terms, message):
    with pytest.raises(ValueError, match=message):
        IntPolynomial(2, terms)


@pytest.mark.parametrize("n", [True, False, 2.0, "2", 0])
def test_constructor_refuses_a_rank_that_is_not_a_positive_int(n):
    with pytest.raises(ValueError, match=r"^n must be a positive integer$"):
        IntPolynomial(n)


def test_rank_mismatch_raises():
    with pytest.raises(ValueError):
        IntPolynomial.zero(2) + IntPolynomial.zero(3)


@given(small_polys(), small_polys())
def test_equal_polys_share_hash(p, q):
    if p == q:
        assert hash(p) == hash(q)


def test_str_ordering_frozen():
    s = IntPolynomial(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    assert str(s) == "x1 + x2 + x3"
    assert (
        str(s**2)
        == "x1^2 + 2*x1*x2 + 2*x1*x3 + x2^2 + 2*x2*x3 + x3^2"
    )
    assert str(IntPolynomial.zero(3)) == "0"
    p = IntPolynomial.monomial(2, (1, 0), -2) + IntPolynomial.one(2)
    assert str(p) == "-2*x1 + 1"


# ------------------------------------------------------------------ characters


def test_character_of_standard_crystal():
    for n in (2, 3, 5):
        assert str(character(std(n))) == " + ".join(f"x{j}" for j in range(1, n + 1))


def test_character_of_powers_is_the_power():
    for n, k in [(2, 3), (3, 2), (3, 3), (4, 2)]:
        expected = character(standard_crystal(n)) ** k
        assert character(qpow(n, k)) == expected
        assert character(tpow(n, k)) == expected


def test_character_splits_over_components():
    g = qpow(3, 3)
    total = IntPolynomial.zero(3)
    for comp in components(g):
        total = total + character(comp)
    assert total == character(g)


def test_character_rejects_negative_weights():
    g = standard_crystal(2)
    h = g.copy()
    h.set_weight("1", (-1, 2))
    with pytest.raises(ValueError):
        character(h)


# ----------------------------------------------------------------- symmetric


def test_schur_21_frozen_table():
    p = character(content_crystal((2, 1), 3))
    expected = {
        (2, 1, 0): 1,
        (2, 0, 1): 1,
        (1, 2, 0): 1,
        (0, 2, 1): 1,
        (1, 0, 2): 1,
        (0, 1, 2): 1,
        (1, 1, 1): 2,
    }
    assert dict(p.terms()) == {k: v for k, v in expected.items()}
    assert sum(v for _, v in p.terms()) == 8


def test_schur_matches_semistandard_enumeration():
    for n in (3, 4):
        for m in range(1, 6):
            for shape in oracles.partitions_brute(m, max_parts=n):
                got = Counter(dict(character(content_crystal(shape, n)).terms()))
                assert got == oracles.schur_monomials(shape, n), (shape, n)


def test_schur_single_row_is_complete_homogeneous():
    for m in range(1, 5):
        assert character(content_crystal((m,), 3)) == fundamental_qsym((m,), 3)


def test_fundamental_matches_brute_force():
    for n in (3, 4):
        for m in range(1, 6):
            for alpha in all_compositions(m):
                got = Counter(dict(fundamental_qsym(alpha, n).terms()))
                assert got == oracles.fundamental_monomials(alpha, n), (alpha, n)


def all_compositions(m):
    out = []
    for cuts in itertools.product([0, 1], repeat=m - 1):
        comp = []
        run = 1
        for cut in cuts:
            if cut:
                comp.append(run)
                run = 1
            else:
                run += 1
        comp.append(run)
        out.append(tuple(comp))
    return out


def test_fundamental_terms_over_permutations_sum_to_the_full_power():
    # one term per permutation, indexed by its descent composition
    for m in range(1, 5):
        total = IntPolynomial.zero(3)
        for sigma in itertools.permutations(range(1, m + 1)):
            descents = [j for j in range(1, m) if sigma[j - 1] > sigma[j]]
            bounds = [0] + descents + [m]
            alpha = tuple(bounds[t + 1] - bounds[t] for t in range(len(bounds) - 1))
            total = total + fundamental_qsym(alpha, 3)
        assert total == character(standard_crystal(3)) ** m


def test_fundamental_of_a_long_composition_needs_no_deep_recursion():
    # 1100 letters; a strict rise after the first 600 leaves one word over {1, 2}
    assert fundamental_qsym((600, 500), 2) == IntPolynomial.monomial(2, (600, 500))


def test_fundamental_grows_only_words_that_can_finish():
    # without dropping dead words this grows 2^30 strictly increasing prefixes; one finishes
    assert fundamental_qsym((1,) * 30, 30) == IntPolynomial.monomial(30, (1,) * 30)


def test_fundamental_rejects_bad_compositions():
    with pytest.raises(ValueError):
        fundamental_qsym((1, 0, 2), 3)
    with pytest.raises(ValueError):
        fundamental_qsym((), 3)
    with pytest.raises(ValueError, match=r"^not a composition \(positive parts\): \(True,\)$"):
        fundamental_qsym((True,), 2)


@pytest.mark.parametrize("n", [True, False, 2.0, "2", 0])
def test_fundamental_refuses_a_rank_that_is_not_a_positive_int(n):
    with pytest.raises(ValueError, match=r"^n must be a positive integer$"):
        fundamental_qsym((1,), n)


# -------------------------------------------------------------- decomposition


@pytest.mark.parametrize("n,k", [(2, 3), (3, 3), (3, 4), (4, 4), (3, 5), (2, 5), (4, 5), (5, 4)])
def test_quasi_power_decomposes_by_descent_compositions(n, k):
    # one component per permutation with at most n descent runs, of character F_alpha
    g = qpow(n, k)
    comps = components(g)
    tops = [unique_highest_weight(comp) for comp in comps]
    assert Counter(g.wt(x) for x in tops) == oracles.quasi_power_highest_weights(n, k)
    for comp, top in zip(comps, tops):
        alpha = tuple(c for c in g.wt(top) if c)
        assert character(comp) == fundamental_qsym(alpha, n)


def test_schur_decomposition_passes_small():
    for n in (3, 4):
        for m in range(1, 5):
            for shape in oracles.partitions_brute(m, max_parts=n):
                report = verify_schur_decomposition(shape, n)
                assert report.passed, (shape, n, report.mismatches)
                assert report.identity_ok and report.multiset_ok


def test_schur_decomposition_term_compositions():
    report = verify_schur_decomposition((2, 1, 1), 3)
    assert report.term_compositions == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    assert len(report.component_records) == 3
    assert all(ok for _, _, ok in report.component_records)


def test_schur_decomposition_lines_format():
    report = verify_schur_decomposition((2, 1), 3)
    lines = report.lines()
    assert lines[0].startswith("shape\t2,1\tn\t3")
    assert "identity\tPASS" in lines
    assert lines[-1] == "result\tPASS"
    assert any(line.startswith("component\t") for line in lines)


def test_schur_decomposition_report_failure_paths():
    # a hand-built report with problems renders FAIL lines
    report = SchurDecompositionReport(
        shape=(2,),
        n=3,
        identity_ok=False,
        multiset_ok=False,
        term_compositions=[(2,)],
        component_records=[("11", None, False)],
        mismatches=["component 11: character differs from F((2,))"],
    )
    assert not report.passed
    lines = report.lines()
    assert "identity\tFAIL" in lines
    assert "multiset\tFAIL" in lines
    assert lines[-1] == "result\tFAIL"
    assert any(line.startswith("mismatch\t") for line in lines)


def test_schur_decomposition_over_the_cap_lists_no_tableau(monkeypatch):
    def no_tableaux(shape):
        raise AssertionError("listed standard tableaux past the size cap")

    monkeypatch.setattr(qck.characters, "enumerate_syt", no_tableaux)
    monkeypatch.setenv("QCK_SIZE_CAP", "100")
    with pytest.raises(SizeCapExceeded):
        verify_schur_decomposition((4, 4, 4, 4), 4)


def test_schur_decomposition_lists_the_standard_tableaux_once(monkeypatch):
    listed = []

    def counted(shape):
        listed.append(shape)
        return enumerate_syt(shape)

    expected = verify_schur_decomposition((4, 3, 1), 4).lines()
    monkeypatch.setattr(qck.characters, "enumerate_syt", counted)
    quasify = importlib.import_module("qck.quasify")  # the package's quasify is the function
    monkeypatch.setattr(quasify, "enumerate_syt", counted)
    assert verify_schur_decomposition((4, 3, 1), 4).lines() == expected
    assert listed == [(4, 3, 1)]
