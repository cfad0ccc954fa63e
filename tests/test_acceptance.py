"""End-to-end gate: sweep the whole corpus and check every advertised result.

Everything here is exact integer arithmetic — no tolerances. The two timed
sweeps carry generous wall-clock budgets so a slow box doesn't flake.
"""

import time
from collections import Counter
from itertools import combinations

from qck.axioms import (
    check_cor_infs,
    check_lemma_ij,
    check_local_ax_cases,
    check_lq1,
    check_lq2,
    check_lq3,
    check_lq3p,
    check_stembridge,
)
from qck.characters import character, verify_schur_decomposition
from qck.graphcore import is_seminormal, validate
from qck.mutation import fuzz_graph
from qck.quasify import count_quasi_components, quasify
from qck.structure import components, isomorphic
from qck.weightlattice import enumerate_syt

from corpus import (
    QUASI_POWERS,
    content_quasi,
    crystal_corpus,
    qpow,
    quasi_corpus,
    std,
    tpow,
)
from oracles import component_partition, hook_length_count, partitions_brute

LOCAL_CHECKS = (
    validate,
    is_seminormal,
    check_lq1,
    check_lq2,
    check_lq3,
    check_lq3p,
    check_local_ax_cases,
    check_cor_infs,
    check_lemma_ij,
)


def test_every_quasi_graph_passes_every_local_check_quickly():
    started = time.monotonic()
    swept = 0
    for name, g in quasi_corpus():
        for chk in LOCAL_CHECKS:
            report = chk(g)
            assert report.passed, f"{name} / {chk.__name__}: {report.lines()[:3]}"
            swept += 1
    elapsed = time.monotonic() - started
    assert swept == len(quasi_corpus()) * len(LOCAL_CHECKS)
    assert elapsed < 10.0, f"corpus sweep took {elapsed:.1f}s"


def test_every_component_has_one_top_with_at_most_one_downward_edge():
    for name, g in quasi_corpus():
        for comp in components(g):
            assert len(comp.hw_vertices) == 1, (name, comp.hw_vertices)
            hw = comp.hw_vertices[0]
            outgoing = [i for i in g.index_set if g.f(hw, i) is not None]
            assert len(outgoing) <= 1, (name, hw, outgoing)


def test_quasi_component_counts_match_standard_tableaux():
    # Components correspond to tableaux whose descent composition fits in n
    # letters; a composition with more than n parts has no component to
    # carry it. The smallest shape admitting one is (2,2,1) at n=3 — its
    # crystal has only three vertices, so the count cannot reach five.
    # The sweep asserts the unrestricted equality and records every
    # violation, leaving that boundary case visible instead of filtering it.
    mismatches = []
    for n in (3, 4, 5):
        for m in range(1, 6):
            for shape in partitions_brute(m, max_parts=n):
                got = count_quasi_components(shape, n)
                expected = len(enumerate_syt(shape))
                if got != expected:
                    mismatches.append(
                        f"shape={shape} n={n}: {got} components vs {expected} tableaux"
                    )
    assert mismatches == [], "; ".join(mismatches)


def test_content_211_quasi_component_words():
    assert count_quasi_components((2, 1, 1), 3) == 3

    # the component of B_3^x4 whose top word is 3121 splits into the three
    # single-word quasi components 3121, 3221, 3231
    big = tpow(3, 4)
    comp = next(c for c in components(big) if "3121" in c.vertices)
    assert list(comp.hw_vertices) == ["3121"]
    assert sorted(comp.vertices) == ["3121", "3221", "3231"]
    q = quasify(comp.subgraph())
    tops = sorted(hw for c in components(q) for hw in c.hw_vertices)
    assert tops == ["3121", "3221", "3231"]

    # the library's own pick is the component of the least qualifying top
    lex = content_quasi((2, 1, 1), 3)
    tops = sorted(hw for c in components(lex) for hw in c.hw_vertices)
    assert tops == ["1321", "2321", "3321"]


def _oracle_parts(g):
    arrows = {(x, i): y for x, i, y in g.raising_edges()}
    return component_partition(g.vertex_ids(), arrows)


def test_quasi_cube_component_count_three_ways():
    via_library = len(components(qpow(3, 3)))
    via_oracle = len(_oracle_parts(qpow(3, 3)))

    # third route: classical multiplicities times tableau counts
    classical = tpow(3, 3)
    multiplicity = Counter()
    for part in _oracle_parts(classical):
        tops = [
            v
            for v in part
            if all(classical.e(v, i) is None for i in classical.index_set)
        ]
        assert len(tops) == 1
        shape = tuple(sorted((c for c in classical.wt(tops[0]) if c), reverse=True))
        multiplicity[shape] += 1
    assert multiplicity == {(3,): 1, (2, 1): 2, (1, 1, 1): 1}
    via_formula = sum(
        mult * hook_length_count(shape) for shape, mult in multiplicity.items()
    )

    assert via_library == via_oracle == via_formula == 6


def test_tops_of_equal_weight_give_verified_isomorphisms():
    by_rank: dict[int, list] = {}
    for name, g in quasi_corpus():
        for comp in components(g):
            rank = len(g.wt(comp.hw_vertices[0]))
            by_rank.setdefault(rank, []).append((name, g, comp))

    same = diff = 0
    for items in by_rank.values():
        for (name1, g1, c1), (name2, g2, c2) in combinations(items, 2):
            w1 = g1.wt(c1.hw_vertices[0])
            w2 = g2.wt(c2.hw_vertices[0])
            witness = isomorphic(c1, c2)
            if w1 == w2:
                assert witness is not None, (name1, name2)
                assert witness.verify(c1, c2) == [], (name1, name2)
                same += 1
            else:
                assert witness is None, (name1, name2)
                diff += 1
    assert same > 0 and diff > 0


def test_schur_equals_descent_fundamental_sum_everywhere():
    # The polynomial identity holds everywhere (vanishing fundamentals do
    # not disturb the sum), but the term-vs-component multiset comparison
    # hits the same (2,2,1)/n=3 boundary as the counting sweep: two of the
    # five terms are the zero polynomial in three variables and no
    # nonempty component can match them.
    failures = []
    for n in (3, 4):
        for m in range(1, 6):
            for shape in partitions_brute(m, max_parts=n):
                report = verify_schur_decomposition(shape, n)
                if not report.passed:
                    failures.append(
                        f"shape={shape} n={n}: identity="
                        f"{'PASS' if report.identity_ok else 'FAIL'} multiset="
                        f"{'PASS' if report.multiset_ok else 'FAIL'}"
                    )
    assert failures == [], "; ".join(failures)


def test_quasi_power_characters_expand_the_variable_sum():
    for n, k in QUASI_POWERS:
        assert character(qpow(n, k)) == character(std(n)) ** k, (n, k)


def test_classical_powers_pass_stembridge():
    for n, k in ((3, 3), (4, 2)):
        for name, report in sorted(check_stembridge(tpow(n, k)).items()):
            assert report.passed, (n, k, name, report.lines()[:3])


def test_crystals_satisfying_the_quasi_locals_also_satisfy_s1_s2():
    lq_family = (check_lq1, check_lq2, check_lq3, check_lq3p)
    passers = 0
    for name, g in crystal_corpus():
        if all(chk(g).passed for chk in lq_family):
            passers += 1
            stem = check_stembridge(g)
            assert stem["S1"].passed, name
            assert stem["S2"].passed, name
    # plenty of corpus crystals (chains, rank-2 powers, single-row/column
    # contents) satisfy the quasi locals, so the implication is not vacuous
    assert passers >= 10, passers


def test_mutation_fuzz_detects_injected_damage():
    started = time.monotonic()
    plan = [
        (qpow(3, 3), 150),
        (qpow(3, 2), 100),
        (qpow(4, 2), 100),
        (content_quasi((2, 1), 3), 100),
        (tpow(3, 2), 100),
    ]
    total = detected = 0
    silent = []
    for g, count in plan:
        result = fuzz_graph(g, count=count, seed=20260816)
        total += result.total
        detected += result.detected
        silent.extend(result.silent)
    for m, note in silent:
        print(f"silent mutation for triage: {m.describe()} ({note})")
    elapsed = time.monotonic() - started
    assert total >= 500
    assert detected / total >= 0.99, f"{detected}/{total}"
    assert elapsed < 60.0, f"fuzz sweep took {elapsed:.1f}s"
