import hashlib
import re

import pytest

import qck.axioms
from qck.axioms import (
    QUASI_AXIOMS,
    battery,
    check_cor_infs,
    check_lemma_ij,
    check_local_ax_cases,
    check_lq1,
    check_lq2,
    check_lq3,
    check_lq3p,
    check_stembridge,
)
from qck.graphcore import NEG_INF, POS_INF, QuasiCrystalGraph, validate, is_seminormal
from qck.quasify import quasify
from qck.wordmodel import quasi_tensor_power, standard_crystal, tensor_power

from corpus import content_cases, content_crystal, content_quasi, qpow, quasi_corpus, std, tpow, witness_plan


LQ_CHECKS = (
    check_lq1,
    check_lq2,
    check_lq3,
    check_lq3p,
    check_local_ax_cases,
    check_cor_infs,
    check_lemma_ij,
)


# ---------------------------------------------------------- corpus is clean


@pytest.mark.parametrize("name,graph", quasi_corpus())
def test_quasi_corpus_passes_every_local_check(name, graph):
    for fn in LQ_CHECKS:
        report = fn(graph)
        assert report.passed, f"{name}: {fn.__name__} -> {report.lines()[:3]}"


@pytest.mark.parametrize("n,k", [(3, 2), (3, 3), (4, 2)])
def test_tensor_powers_pass_stembridge(n, k):
    for report in check_stembridge(tpow(n, k)).values():
        assert report.passed


@pytest.mark.parametrize("shape,n", content_cases())
def test_content_crystals_pass_stembridge(shape, n):
    for report in check_stembridge(content_crystal(shape, n)).values():
        assert report.passed


def test_stembridge_rejects_graphs_with_frozen_indices():
    with pytest.raises(ValueError):
        check_stembridge(qpow(3, 3))


def test_classical_powers_generally_fail_the_quasi_axioms():
    # classical tensor squares are crystals, not quasi-crystal structures
    assert not check_lq1(tpow(3, 2)).passed
    assert not check_lq2(tpow(3, 2)).passed
    assert not check_local_ax_cases(tpow(3, 2)).passed


# ------------------------------------------------- one surgical break per axiom


def first_raising_edge(g, color, **conds):
    for x, i, y in g.raising_edges():
        if i != color:
            continue
        if conds.get("finite_eps_next") and (
            g.eps(x, i + 1) == POS_INF or g.eps(y, i + 1) == POS_INF
        ):
            continue
        if conds.get("finite_phi_prev") and (
            g.phi(y, i - 1) == POS_INF or g.phi(x, i - 1) == POS_INF
        ):
            continue
        return x, i, y
    raise AssertionError("no edge fits the recipe")


def test_lq1_detects_zero_mismatch():
    g = qpow(3, 2).copy()
    assert g.eps("11", 1) == 0 and g.phi("11", 2) == 0
    g.set_epsilon("11", 2, 1)
    g.set_phi("11", 2, 1)
    report = check_lq1(g)
    assert not report.passed
    assert report.witnesses[0].axiom == "LQ1"
    assert report.witnesses[0].vertices == ("11",)


def test_lq2_detects_distant_index_drift():
    g = qpow(4, 2).copy()
    x, _, y = first_raising_edge(g, 1)
    g.set_epsilon(y, 3, g.eps(y, 3) + 1)
    g.set_phi(y, 3, g.phi(y, 3) + 1)
    assert {w.axiom for w in check_lq2(g).witnesses} == {"LQ2.1"}


def test_lq2_detects_unexplained_change_above():
    g = qpow(3, 2).copy()
    x, _, y = first_raising_edge(g, 1, finite_eps_next=True)
    g.set_epsilon(y, 2, g.eps(y, 2) + 1)
    g.set_phi(y, 2, g.phi(y, 2) + 1)
    assert {w.axiom for w in check_lq2(g).witnesses} == {"LQ2.2"}


def test_lq2_detects_unexplained_change_below():
    g = qpow(3, 2).copy()
    x, _, y = first_raising_edge(g, 2, finite_phi_prev=True)
    g.set_phi(x, 1, g.phi(x, 1) + 1)
    g.set_epsilon(x, 1, g.eps(x, 1) + 1)
    assert {w.axiom for w in check_lq2(g).witnesses} == {"LQ2.3"}


def test_lq3_detects_broken_raising_commutation():
    g = qpow(3, 3).copy()
    x = next(v for v in g.vertex_ids() if g.e(v, 1) and g.e(v, 2))
    g.set_raising(x, 1, x)
    report = check_lq3(g)
    assert not report.passed
    assert all(w.axiom == "LQ3" for w in report.witnesses)


def test_lq3p_detects_broken_lowering_commutation():
    g = qpow(3, 3).copy()
    x = next(v for v in g.vertex_ids() if g.f(v, 1) and g.f(v, 2))
    g.set_lowering(x, 1, x)
    report = check_lq3p(g)
    assert not report.passed
    assert all(w.axiom == "LQ3'" for w in report.witnesses)


def test_cases_detects_wrong_adjacent_bookkeeping():
    g = qpow(3, 2).copy()
    x, _, y = first_raising_edge(g, 1, finite_eps_next=True)
    g.set_epsilon(y, 2, g.eps(y, 2) + 1)
    g.set_phi(y, 2, g.phi(y, 2) + 1)
    report = check_local_ax_cases(g)
    assert not report.passed
    assert {w.axiom for w in report.witnesses} == {"case-2a"}


def test_cases_rejects_negative_lengths():
    g = qpow(3, 2).copy()
    g.set_epsilon("11", 1, -3)
    with pytest.raises(ValueError):
        check_local_ax_cases(g)


def test_infs_detects_freeze_that_fails_to_propagate():
    g = qpow(3, 3).copy()
    x, _, y = first_raising_edge(g, 1, finite_eps_next=True)
    g.set_epsilon(y, 2, POS_INF)
    g.set_phi(y, 2, POS_INF)
    report = check_cor_infs(g)
    assert not report.passed
    assert "infs.1" in {w.axiom for w in report.witnesses}


def test_infs_rejects_negative_lengths():
    g = qpow(3, 2).copy()
    g.set_epsilon("11", 1, -3)
    with pytest.raises(ValueError):
        check_cor_infs(g)


@pytest.mark.parametrize(
    "chk, who", [(check_local_ax_cases, "case analysis"), (check_cor_infs, "freeze propagation")]
)
def test_counting_lemmas_called_alone_keep_their_refusal_text(chk, who):
    g = qpow(3, 2).copy()
    g.set_phi("21", 2, -1)
    g.set_epsilon("22", 1, NEG_INF)
    with pytest.raises(ValueError) as exc:
        chk(g)
    assert str(exc.value) == f"{who} needs string lengths in Z>=0 or +inf; vertex '21' index 2 has -1"
    with pytest.raises(ValueError) as exc:
        chk(g, around={"22"})
    assert str(exc.value) == f"{who} needs string lengths in Z>=0 or +inf; vertex '22' index 1 has -inf"


def test_battery_sweeps_no_counting_guard(monkeypatch):
    # the seminormal gate already refuses every length outside Z>=0 and +inf
    def no_sweep(g, around=None):
        raise AssertionError("battery swept the counting-length guard")

    monkeypatch.setattr(qck.axioms, "uncounted_length", no_sweep)
    g = qpow(3, 3)
    assert all(rep.passed for _, rep in battery(g))
    assert all(rep.passed for _, rep in battery(g, around=set(g.vertex_ids()[:5])))
    with pytest.raises(AssertionError, match="swept"):
        check_local_ax_cases(g)
    # a string of length -1 where there is no edge: coherent, but not seminormal
    x, s = next(
        (x, s)
        for x in g.vertex_ids()
        for s in range(g.n - 1)
        if g._eps[x][s] == 0 == g._phi[x][s] and g._e[x][s] is None is g._f[x][s]
    )
    bad = g.copy()
    bad.set_epsilon(x, s + 1, -1)
    bad.set_phi(x, s + 1, -1)
    reports = list(battery(bad))
    assert [name for name, _ in reports] == ["q", "seminormal"]
    assert reports[0][1].passed and not reports[1][1].passed


def _reweighted(wt):
    g = qpow(3, 3).copy()
    g.set_weight("321", wt)  # 321 is the one vertex of q(3,3) frozen at both indices
    return g


def _lone_frozen(wt):
    g = QuasiCrystalGraph(3)
    g.add_vertex("z", wt, [POS_INF, POS_INF], [POS_INF, POS_INF])
    return g


# An open question, pinned as it stands. By the classification theorem every
# component of a graph that satisfies the axioms is the quasi-ribbon crystal of
# a composition: its highest weight is positive parts then zeros, and at a
# frozen index i, wt_i > 0 and wt_{i+1} > 0. So none of these graphs can be a
# component, yet the battery passes each. Either the battery lacks a weight
# condition at frozen indices, or the theorem has a hypothesis the battery
# does not state; the abstract alone cannot settle which, so the verdict stays.
@pytest.mark.parametrize(
    "make, wt",
    [
        (_reweighted, (1, 0, 1)),
        (_reweighted, (0, 1, 2)),
        (_reweighted, (1, 1, -1)),
        (_lone_frozen, (0, 0, 3)),
        (_lone_frozen, (-1, -1, -1)),
    ],
)
def test_battery_passes_frozen_weights_the_theorem_rules_out(make, wt):
    reports = list(battery(make(wt)))
    assert [name for name, _ in reports] == ["q", "seminormal", *QUASI_AXIOMS]
    assert all(rep.passed for _, rep in reports)


def test_lemij_detects_unpaired_distant_move():
    g = qpow(4, 2).copy()
    x, _, y = first_raising_edge(g, 1)
    g.set_epsilon(y, 3, g.eps(y, 3) + 1)
    assert "lemij.1" in {w.axiom for w in check_lemma_ij(g).witnesses}


def test_lemij_detects_unpaired_move_above():
    g = qpow(3, 2).copy()
    x, _, y = first_raising_edge(g, 1, finite_eps_next=True)
    g.set_epsilon(y, 2, g.eps(y, 2) + 1)
    assert "lemij.2" in {w.axiom for w in check_lemma_ij(g).witnesses}


def test_lemij_detects_unpaired_move_below():
    g = qpow(3, 2).copy()
    candidates = (
        (x, i, y) for x, i, y in g.raising_edges() if i == 2 and g.eps(x, 1) != POS_INF
    )
    x, _, y = next(candidates)
    g.set_phi(y, 1, g.phi(y, 1) + 1)
    assert "lemij.3" in {w.axiom for w in check_lemma_ij(g).witnesses}


def test_s1_detects_eps_jump_of_two():
    g = standard_crystal(3).copy()
    g.set_epsilon("2", 1, 2)
    reports = check_stembridge(g)
    assert not reports["S1"].passed
    for name in ("S2", "S2p", "S3", "S3p"):
        assert reports[name].passed


def test_s2_detects_missing_raising_square():
    g = tensor_power(3, 2).copy()
    hit = next(
        (x, i, j)
        for x in g.vertex_ids()
        for i in g.index_set
        for j in g.index_set
        if i != j
        and g.e(x, i) is not None
        and g.eps(g.e(x, i), j) == g.eps(x, j)
        and g.eps(x, j) > 0
    )
    x, i, j = hit
    g.set_raising(g.e(x, i), j, None)
    reports = check_stembridge(g)
    assert not reports["S2"].passed
    for name in ("S1", "S2p", "S3", "S3p"):
        assert reports[name].passed


def test_s2p_detects_missing_lowering_square():
    g = tensor_power(3, 2).copy()
    hit = next(
        (x, i, j)
        for x in g.vertex_ids()
        for i in g.index_set
        for j in g.index_set
        if i != j
        and g.f(x, i) is not None
        and g.phi(g.f(x, i), j) == g.phi(x, j)
        and g.phi(x, j) > 0
    )
    x, i, j = hit
    g.set_lowering(g.f(x, i), j, None)
    reports = check_stembridge(g)
    assert not reports["S2p"].passed
    for name in ("S1", "S2", "S3", "S3p"):
        assert reports[name].passed


def test_s3_detects_broken_double_chain():
    g = tensor_power(3, 3).copy()
    mid = g.e(g.e("323", 1), 2)
    g.set_raising(mid, 2, None)
    reports = check_stembridge(g)
    assert not reports["S3"].passed
    for name in ("S1", "S2", "S2p", "S3p"):
        assert reports[name].passed


def test_s3p_detects_broken_double_chain():
    g = tensor_power(3, 3).copy()
    mid = g.f(g.f("121", 1), 2)
    g.set_lowering(mid, 2, None)
    reports = check_stembridge(g)
    assert not reports["S3p"].passed
    for name in ("S1", "S2", "S2p", "S3"):
        assert reports[name].passed


# ------------------------------------------------------ structural invariants


@pytest.mark.parametrize("shape,n", content_cases())
def test_freezing_agrees_across_surviving_strings(shape, n):
    c = content_crystal(shape, n)
    q = content_quasi(shape, n)
    for x, i, y in c.raising_edges():
        assert (q.eps(x, i) == POS_INF) == (q.eps(y, i) == POS_INF)


@pytest.mark.parametrize("shape,n", content_cases())
def test_string_lengths_bounded_by_weight_entries(shape, n):
    c = content_crystal(shape, n)
    for x in c.vertex_ids():
        wt = c.wt(x)
        for i in c.index_set:
            assert c.eps(x, i) <= wt[i]
            assert c.phi(x, i) <= wt[i - 1]


@pytest.mark.parametrize("shape,n", content_cases())
def test_saturation_is_two_sided(shape, n):
    c = content_crystal(shape, n)
    for x in c.vertex_ids():
        wt = c.wt(x)
        for i in c.index_set:
            assert (c.eps(x, i) == wt[i]) == (c.phi(x, i) == wt[i - 1])


@pytest.mark.parametrize("name,graph", quasi_corpus())
def test_frozen_indices_need_positive_weight_entries(name, graph):
    for x in graph.vertex_ids():
        wt = graph.wt(x)
        for i in graph.index_set:
            if graph.eps(x, i) == POS_INF and min(wt) >= 0:
                assert wt[i - 1] > 0, f"{name}: {x} index {i}"
                assert wt[i] > 0, f"{name}: {x} index {i}"


def test_quasified_output_passes_core_checks():
    for n in (2, 3, 4):
        q = quasify(std(n))
        assert validate(q).passed
        assert is_seminormal(q).passed
    for fn in LQ_CHECKS:
        assert fn(content_quasi((2, 1), 3)).passed


# ------------------------------------------------------- witness text pinned

# Every witness line (and every refusal) of every checker on 40 seeded
# mutants of 12 corpus graphs. The digest pins the text byte for byte.
WITNESS_DIGEST = "da6a90192f5d08427b9c833c4452e9f9378b4870cd6b2bd289ba6e6c09e5fc7e"

# (axiom, required text with its numbers stripped): every witness text the
# checkers can print. The plan must reach each of them.
WITNESS_TEXTS = {
    "LQ1": ("eps_i= iff phi_{i}=",),
    "LQ2.1": ("unchanged for |i-j|>",),
    "LQ2.2": ("change iff eps_{i}(x)=+inf and eps_i(y)=", "finite positive after an unfreezing step"),
    "LQ2.3": ("change iff phi_{i}(y)=+inf and phi_i(x)=", "finite positive before a freezing step"),
    "LQ3": ("equal and defined composites",),
    "LQ3'": ("equal and defined composites",),
    "case-1": ("both unchanged at distance > ",),
    "case-2a": ("eps unchanged, phi drops by ",),
    "case-2b": ("all +inf while the chain continues",),
    "case-2c": ("eps(y)=-<wt(y),alpha_>=> and phi(y)=",),
    "case-3a": ("eps rises by , phi unchanged",),
    "case-3b": ("all +inf while the chain continues",),
    "case-3c": ("eps(x)= and phi(x)=<wt(x),alpha_>=>",),
    "infs.1": ("+inf must propagate down the edge", "some e_i^k(y) with finite positive eps_{i}"),
    "infs.2": ("+inf must propagate up the edge", "some f_i^k(x) with finite positive phi_{i}"),
    "lemij.1": ("eps unchanged iff phi unchanged",),
    "lemij.2": ("eps unchanged iff phi drops by ",),
    "lemij.3": ("eps rises by  iff phi unchanged",),
    "S1": ("unchanged, or  across an adjacent index",),
    "S2": ("equal and defined", "phi_(x)="),
    "S2'": ("equal and defined", "eps_(x)="),
    "S3": ("equal and defined", "phi_i preserved across the double step", "phi_j preserved across the double step"),
    "S3'": ("equal and defined", "eps_i preserved across the double step", "eps_j preserved across the double step"),
}


def test_witness_text_is_pinned():
    lines, texts = [], set()
    for tag, g in witness_plan():
        for fn in (*LQ_CHECKS, check_stembridge):
            try:
                report = fn(g)
            except ValueError as exc:
                lines.append(f"{tag}\t{fn.__name__}\t{type(exc).__name__}: {exc}")
                continue
            for rep in report.values() if isinstance(report, dict) else (report,):
                for w in rep.witnesses:
                    lines.append(f"{tag}\t{w.line()}")
                    texts.add((w.axiom, re.sub(r"[-+]?\d+", "", w.required)))
    assert texts == {(axiom, t) for axiom, ts in WITNESS_TEXTS.items() for t in ts}
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == WITNESS_DIGEST
