"""Checkers for the local quasi-crystal axioms and the Stembridge axioms.

Every checker sweeps the whole graph, reports *all* violations as sorted
witness lines, and never stops at the first hit. Raising edges are read off
the e-table directly, so the checkers stay meaningful on corrupted graphs
where e and f disagree. Like validate, every checker takes an optional
``around`` set of anchors and then sweeps only those (see graphcore).

``family`` is the one definition of which of these checkers a graph answers
to; the CLI's ``check --axioms all``, ``mutation.run_detectors`` and
``mutation.fuzz_graph`` all read it.
"""

from __future__ import annotations

from .graphcore import (
    AxiomReport,
    POS_INF,
    NEG_INF,
    QuasiCrystalGraph,
    Witness,
    ext_str,
    is_crystal,
    is_finite,
)
from .weightlattice import pairing, simple_root


def check_lq1(g: QuasiCrystalGraph, around=None) -> AxiomReport:
    """eps_i(x) = 0 exactly when phi_{i+1}(x) = 0, for consecutive indices."""
    ws = []
    for x in g.anchors(around):
        for i in g.index_set:
            if i + 1 not in g.index_set:
                continue
            lhs = g.eps(x, i) == 0
            rhs = g.phi(x, i + 1) == 0
            if lhs != rhs:
                ws.append(
                    Witness(
                        "LQ1",
                        (x,),
                        (i, i + 1),
                        f"eps_{i}={ext_str(g.eps(x, i))},phi_{i + 1}={ext_str(g.phi(x, i + 1))}",
                        "eps_i=0 iff phi_{i+1}=0",
                    )
                )
    return AxiomReport("lq1", ws)


def check_lq2(g: QuasiCrystalGraph, around=None) -> AxiomReport:
    """Behaviour of neighbouring string lengths across each raising edge."""
    ws = []
    for x, i, y in g.raising_edges(around):
        for j in g.index_set:
            if abs(i - j) > 1:
                if g.eps(x, j) != g.eps(y, j):
                    ws.append(
                        Witness(
                            "LQ2.1",
                            (x, y),
                            (i, j),
                            f"eps_{j}: {ext_str(g.eps(x, j))} -> {ext_str(g.eps(y, j))}",
                            "unchanged for |i-j|>1",
                        )
                    )
        if i + 1 in g.index_set:
            j = i + 1
            cond = g.eps(x, j) == POS_INF and g.eps(y, i) == 0
            changed = g.eps(x, j) != g.eps(y, j)
            if changed != cond:
                ws.append(
                    Witness(
                        "LQ2.2",
                        (x, y),
                        (i, j),
                        f"eps_{j}: {ext_str(g.eps(x, j))} -> {ext_str(g.eps(y, j))}, eps_{i}(y)={ext_str(g.eps(y, i))}",
                        "change iff eps_{i+1}(x)=+inf and eps_i(y)=0",
                    )
                )
            if cond and (g.eps(y, j) == 0 or g.eps(y, j) == POS_INF):
                ws.append(
                    Witness(
                        "LQ2.2",
                        (x, y),
                        (i, j),
                        f"eps_{j}(y)={ext_str(g.eps(y, j))}",
                        "finite positive after an unfreezing step",
                    )
                )
        if i - 1 in g.index_set:
            j = i - 1
            cond = g.phi(y, j) == POS_INF and g.phi(x, i) == 0
            changed = g.phi(x, j) != g.phi(y, j)
            if changed != cond:
                ws.append(
                    Witness(
                        "LQ2.3",
                        (x, y),
                        (i, j),
                        f"phi_{j}: {ext_str(g.phi(x, j))} -> {ext_str(g.phi(y, j))}, phi_{i}(x)={ext_str(g.phi(x, i))}",
                        "change iff phi_{i-1}(y)=+inf and phi_i(x)=0",
                    )
                )
            if cond and (g.phi(x, j) == 0 or g.phi(x, j) == POS_INF):
                ws.append(
                    Witness(
                        "LQ2.3",
                        (x, y),
                        (i, j),
                        f"phi_{j}(x)={ext_str(g.phi(x, j))}",
                        "finite positive before a freezing step",
                    )
                )
    return AxiomReport("lq2", ws)


def _commutes(g: QuasiCrystalGraph, x: str, i: int, j: int, step, label: str) -> Witness | None:
    a = step(x, i)
    b = step(x, j)
    ab = step(a, j) if a is not None else None
    ba = step(b, i) if b is not None else None
    if ab is None or ab != ba:
        return Witness(
            label,
            (x,),
            (i, j),
            f"{ab} vs {ba}",
            "equal and defined composites",
        )
    return None


def check_lq3(g: QuasiCrystalGraph, around=None) -> AxiomReport:
    """Defined raising operators at distinct indices commute."""
    ws = []
    for x in g.anchors(around):
        for i in g.index_set:
            if g.e(x, i) is None:
                continue
            for j in g.index_set:
                if j <= i or g.e(x, j) is None:
                    continue
                bad = _commutes(g, x, i, j, g.e, "LQ3")
                if bad is not None:
                    ws.append(bad)
    return AxiomReport("lq3", ws)


def check_lq3p(g: QuasiCrystalGraph, around=None) -> AxiomReport:
    """Defined lowering operators at distinct indices commute."""
    ws = []
    for x in g.anchors(around):
        for i in g.index_set:
            if g.f(x, i) is None:
                continue
            for j in g.index_set:
                if j <= i or g.f(x, j) is None:
                    continue
                bad = _commutes(g, x, i, j, g.f, "LQ3'")
                if bad is not None:
                    ws.append(bad)
    return AxiomReport("lq3p", ws)


def uncounted_length(g: QuasiCrystalGraph, around=None):
    """The first (vertex, index, length) whose length is neither in Z>=0 nor
    +inf, or None when every string length counts a string."""
    for x in g.anchors(around):
        for i in g.index_set:
            for v in (g.eps(x, i), g.phi(x, i)):
                if v == NEG_INF or (is_finite(v) and v < 0):
                    return x, i, v
    return None


def _require_counting_lengths(g: QuasiCrystalGraph, who: str, around) -> None:
    bad = uncounted_length(g, around)
    if bad is not None:
        x, i, v = bad
        raise ValueError(
            f"{who} needs string lengths in Z>=0 or +inf; "
            f"vertex {x!r} index {i} has {ext_str(v)}"
        )


def check_local_ax_cases(g: QuasiCrystalGraph, around=None) -> AxiomReport:
    """Per raising edge and per other index, exactly one of the seven
    interaction cases must apply, with its predicted string lengths."""
    _require_counting_lengths(g, "case analysis", around)
    ws = []

    def bad(case, x, y, i, j, observed, required):
        ws.append(Witness(f"case-{case}", (x, y), (i, j), observed, required))

    for x, i, y in g.raising_edges(around):
        for j in g.index_set:
            if j == i:
                continue
            if abs(i - j) > 1:
                if g.eps(y, j) != g.eps(x, j) or g.phi(y, j) != g.phi(x, j):
                    bad(
                        "1",
                        x,
                        y,
                        i,
                        j,
                        f"eps: {ext_str(g.eps(x, j))}->{ext_str(g.eps(y, j))} "
                        f"phi: {ext_str(g.phi(x, j))}->{ext_str(g.phi(y, j))}",
                        "both unchanged at distance > 1",
                    )
            elif j == i + 1:
                if g.eps(x, j) != POS_INF:
                    if not (g.eps(y, j) == g.eps(x, j) and g.phi(y, j) == g.phi(x, j) - 1):
                        bad(
                            "2a",
                            x,
                            y,
                            i,
                            j,
                            f"eps: {ext_str(g.eps(x, j))}->{ext_str(g.eps(y, j))} "
                            f"phi: {ext_str(g.phi(x, j))}->{ext_str(g.phi(y, j))}",
                            "eps unchanged, phi drops by 1",
                        )
                elif g.eps(y, i) > 0:
                    if not (g.eps(y, j) == POS_INF and g.phi(x, j) == POS_INF and g.phi(y, j) == POS_INF):
                        bad(
                            "2b",
                            x,
                            y,
                            i,
                            j,
                            f"eps(y)={ext_str(g.eps(y, j))} phi(x)={ext_str(g.phi(x, j))} phi(y)={ext_str(g.phi(y, j))}",
                            "all +inf while the chain continues",
                        )
                else:  # eps_{i+1}(x) = +inf and eps_i(y) = 0
                    predicted = -pairing(g.wt(y), simple_root(j, g.n))
                    if not (g.eps(y, j) == predicted and predicted > 0 and g.phi(y, j) == 0):
                        bad(
                            "2c",
                            x,
                            y,
                            i,
                            j,
                            f"eps(y)={ext_str(g.eps(y, j))} phi(y)={ext_str(g.phi(y, j))}",
                            f"eps(y)=-<wt(y),alpha_{j}>={predicted}>0 and phi(y)=0",
                        )
            else:  # j == i - 1
                if g.phi(y, j) != POS_INF:
                    if not (g.eps(x, j) == g.eps(y, j) - 1 and g.phi(x, j) == g.phi(y, j)):
                        bad(
                            "3a",
                            x,
                            y,
                            i,
                            j,
                            f"eps: {ext_str(g.eps(x, j))}->{ext_str(g.eps(y, j))} "
                            f"phi: {ext_str(g.phi(x, j))}->{ext_str(g.phi(y, j))}",
                            "eps rises by 1, phi unchanged",
                        )
                elif g.phi(x, i) > 0:
                    if not (g.eps(x, j) == POS_INF and g.eps(y, j) == POS_INF and g.phi(x, j) == POS_INF):
                        bad(
                            "3b",
                            x,
                            y,
                            i,
                            j,
                            f"eps(x)={ext_str(g.eps(x, j))} eps(y)={ext_str(g.eps(y, j))} phi(x)={ext_str(g.phi(x, j))}",
                            "all +inf while the chain continues",
                        )
                else:  # phi_{i-1}(y) = +inf and phi_i(x) = 0
                    predicted = pairing(g.wt(x), simple_root(j, g.n))
                    if not (g.eps(x, j) == 0 and g.phi(x, j) == predicted and predicted > 0):
                        bad(
                            "3c",
                            x,
                            y,
                            i,
                            j,
                            f"eps(x)={ext_str(g.eps(x, j))} phi(x)={ext_str(g.phi(x, j))}",
                            f"eps(x)=0 and phi(x)=<wt(x),alpha_{j}>={predicted}>0",
                        )
    return AxiomReport("cases", ws)


def check_cor_infs(g: QuasiCrystalGraph, around=None) -> AxiomReport:
    """A frozen neighbouring index propagates along the edge, and unfreezes
    after finitely many raising (resp. lowering) steps."""
    _require_counting_lengths(g, "freeze propagation", around)
    ws = []
    limit = len(g) + 1
    for x, i, y in g.raising_edges(around):
        if i + 1 in g.index_set and g.eps(y, i + 1) == POS_INF:
            if g.eps(x, i + 1) != POS_INF:
                ws.append(
                    Witness(
                        "infs.1",
                        (x, y),
                        (i, i + 1),
                        f"eps_{i + 1}(x)={ext_str(g.eps(x, i + 1))}",
                        "+inf must propagate down the edge",
                    )
                )
            z = y
            found = False
            for _ in range(limit):
                if g.eps(z, i) == 0 or g.eps(z, i) == POS_INF:
                    break
                nxt = g.e(z, i)
                if nxt is None:
                    break
                z = nxt
                if g.eps(z, i + 1) != 0 and g.eps(z, i + 1) != POS_INF:
                    found = True
                    break
            if not found:
                ws.append(
                    Witness(
                        "infs.1",
                        (x, y),
                        (i, i + 1),
                        "no unfreezing vertex up the chain",
                        "some e_i^k(y) with finite positive eps_{i+1}",
                    )
                )
        if i - 1 in g.index_set and g.phi(x, i - 1) == POS_INF:
            if g.phi(y, i - 1) != POS_INF:
                ws.append(
                    Witness(
                        "infs.2",
                        (x, y),
                        (i, i - 1),
                        f"phi_{i - 1}(y)={ext_str(g.phi(y, i - 1))}",
                        "+inf must propagate up the edge",
                    )
                )
            z = x
            found = False
            for _ in range(limit):
                if g.phi(z, i) == 0 or g.phi(z, i) == POS_INF:
                    break
                nxt = g.f(z, i)
                if nxt is None:
                    break
                z = nxt
                if g.phi(z, i - 1) != 0 and g.phi(z, i - 1) != POS_INF:
                    found = True
                    break
            if not found:
                ws.append(
                    Witness(
                        "infs.2",
                        (x, y),
                        (i, i - 1),
                        "no unfreezing vertex down the chain",
                        "some f_i^k(x) with finite positive phi_{i-1}",
                    )
                )
    return AxiomReport("infs", ws)


def check_lemma_ij(g: QuasiCrystalGraph, around=None) -> AxiomReport:
    """Paired eps/phi movement across a raising edge, as three biconditionals."""
    ws = []
    for x, i, y in g.raising_edges(around):
        for j in g.index_set:
            if abs(i - j) > 1:
                lhs = g.eps(y, j) == g.eps(x, j)
                rhs = g.phi(y, j) == g.phi(x, j)
                if lhs != rhs:
                    ws.append(
                        Witness(
                            "lemij.1",
                            (x, y),
                            (i, j),
                            f"eps same: {lhs}, phi same: {rhs}",
                            "eps unchanged iff phi unchanged",
                        )
                    )
        if i + 1 in g.index_set and g.eps(x, i + 1) != POS_INF:
            j = i + 1
            lhs = g.eps(y, j) == g.eps(x, j)
            rhs = g.phi(y, j) == g.phi(x, j) - 1
            if lhs != rhs:
                ws.append(
                    Witness(
                        "lemij.2",
                        (x, y),
                        (i, j),
                        f"eps same: {lhs}, phi dropped: {rhs}",
                        "eps unchanged iff phi drops by 1",
                    )
                )
        if i - 1 in g.index_set and g.eps(x, i - 1) != POS_INF:
            j = i - 1
            lhs = g.eps(y, j) == g.eps(x, j) + 1
            rhs = g.phi(y, j) == g.phi(x, j)
            if lhs != rhs:
                ws.append(
                    Witness(
                        "lemij.3",
                        (x, y),
                        (i, j),
                        f"eps rose: {lhs}, phi same: {rhs}",
                        "eps rises by 1 iff phi unchanged",
                    )
                )
    return AxiomReport("lemij", ws)


def check_stembridge(g: QuasiCrystalGraph, around=None) -> dict[str, AxiomReport]:
    """The five local crystal axioms; only meaningful for crystals."""
    if not is_crystal(g, around):
        raise ValueError("Stembridge checks apply to crystals only (no +inf lengths)")
    n = g.n
    roots = {i: simple_root(i, n) for i in g.index_set}
    s1, s2, s2p, s3, s3p = [], [], [], [], []

    for x, i, y in g.raising_edges(around):
        for j in g.index_set:
            if j == i:
                continue
            ex, ey = g.eps(x, j), g.eps(y, j)
            if ey == ex:
                continue
            if ey == ex + 1 and pairing(roots[i], roots[j]) == -1:
                continue
            s1.append(
                Witness(
                    "S1",
                    (x, y),
                    (i, j),
                    f"eps_{j}: {ext_str(ex)} -> {ext_str(ey)}",
                    "unchanged, or +1 across an adjacent index",
                )
            )

    for x in g.anchors(around):
        for i in g.index_set:
            for j in g.index_set:
                if i == j:
                    continue
                y = g.e(x, i)
                if y is not None and g.eps(y, j) == g.eps(x, j) and g.eps(x, j) > 0:
                    z = g.e(x, j)
                    ij = g.e(z, i) if z is not None else None
                    ji = g.e(y, j)
                    if ij is None or ij != ji:
                        s2.append(
                            Witness(
                                "S2",
                                (x,),
                                (i, j),
                                f"e_i e_j={ij} e_j e_i={ji}",
                                "equal and defined",
                            )
                        )
                    elif g.phi(x, i) != g.phi(z, i):
                        s2.append(
                            Witness(
                                "S2",
                                (x,),
                                (i, j),
                                f"phi_{i}(e_{j}x)={ext_str(g.phi(z, i))}",
                                f"phi_{i}(x)={ext_str(g.phi(x, i))}",
                            )
                        )
                y = g.f(x, i)
                if y is not None and g.phi(y, j) == g.phi(x, j) and g.phi(x, j) > 0:
                    z = g.f(x, j)
                    ij = g.f(z, i) if z is not None else None
                    ji = g.f(y, j)
                    if ij is None or ij != ji:
                        s2p.append(
                            Witness(
                                "S2'",
                                (x,),
                                (i, j),
                                f"f_i f_j={ij} f_j f_i={ji}",
                                "equal and defined",
                            )
                        )
                    elif g.eps(x, i) != g.eps(z, i):
                        s2p.append(
                            Witness(
                                "S2'",
                                (x,),
                                (i, j),
                                f"eps_{i}(f_{j}x)={ext_str(g.eps(z, i))}",
                                f"eps_{i}(x)={ext_str(g.eps(x, i))}",
                            )
                        )

    def chain(start, seq, step):
        z = start
        for idx in seq:
            if z is None:
                return None
            z = step(z, idx)
        return z

    for x in g.anchors(around):
        for i in g.index_set:
            for j in g.index_set:
                if j <= i:
                    continue
                y, z = g.e(x, i), g.e(x, j)
                if (
                    y is not None
                    and z is not None
                    and g.eps(y, j) == g.eps(x, j) + 1
                    and g.eps(z, i) == g.eps(x, i) + 1
                ):
                    left = chain(x, (i, j, j, i), g.e)
                    right = chain(x, (j, i, i, j), g.e)
                    mid_l = chain(x, (i, j, j), g.e)
                    mid_r = chain(x, (j, i, i), g.e)
                    if left is None or left != right:
                        s3.append(
                            Witness(
                                "S3",
                                (x,),
                                (i, j),
                                f"e_i e_j^2 e_i={left} e_j e_i^2 e_j={right}",
                                "equal and defined",
                            )
                        )
                    else:
                        if g.phi(z, i) != g.phi(mid_l, i):
                            s3.append(
                                Witness(
                                    "S3",
                                    (x,),
                                    (i, j),
                                    f"phi_{i}(e_{j}x)={ext_str(g.phi(z, i))} vs {ext_str(g.phi(mid_l, i))}",
                                    "phi_i preserved across the double step",
                                )
                            )
                        if g.phi(y, j) != g.phi(mid_r, j):
                            s3.append(
                                Witness(
                                    "S3",
                                    (x,),
                                    (i, j),
                                    f"phi_{j}(e_{i}x)={ext_str(g.phi(y, j))} vs {ext_str(g.phi(mid_r, j))}",
                                    "phi_j preserved across the double step",
                                )
                            )
                y, z = g.f(x, i), g.f(x, j)
                if (
                    y is not None
                    and z is not None
                    and g.phi(y, j) == g.phi(x, j) + 1
                    and g.phi(z, i) == g.phi(x, i) + 1
                ):
                    left = chain(x, (i, j, j, i), g.f)
                    right = chain(x, (j, i, i, j), g.f)
                    mid_l = chain(x, (i, j, j), g.f)
                    mid_r = chain(x, (j, i, i), g.f)
                    if left is None or left != right:
                        s3p.append(
                            Witness(
                                "S3'",
                                (x,),
                                (i, j),
                                f"f_i f_j^2 f_i={left} f_j f_i^2 f_j={right}",
                                "equal and defined",
                            )
                        )
                    else:
                        if g.eps(z, i) != g.eps(mid_l, i):
                            s3p.append(
                                Witness(
                                    "S3'",
                                    (x,),
                                    (i, j),
                                    f"eps_{i}(f_{j}x)={ext_str(g.eps(z, i))} vs {ext_str(g.eps(mid_l, i))}",
                                    "eps_i preserved across the double step",
                                )
                            )
                        if g.eps(y, j) != g.eps(mid_r, j):
                            s3p.append(
                                Witness(
                                    "S3'",
                                    (x,),
                                    (i, j),
                                    f"eps_{j}(f_{i}x)={ext_str(g.eps(y, j))} vs {ext_str(g.eps(mid_r, j))}",
                                    "eps_j preserved across the double step",
                                )
                            )

    return {
        "S1": AxiomReport("S1", s1),
        "S2": AxiomReport("S2", s2),
        "S2p": AxiomReport("S2'", s2p),
        "S3": AxiomReport("S3", s3),
        "S3p": AxiomReport("S3'", s3p),
    }


# The local axioms a graph answers to, by its class. Keys are the CLI's
# --axioms names.
CRYSTAL_AXIOMS = {"stembridge": check_stembridge}
QUASI_AXIOMS = {
    "lq1": check_lq1,
    "lq2": check_lq2,
    "lq3": check_lq3,
    "lq3p": check_lq3p,
    "cases": check_local_ax_cases,
    "infs": check_cor_infs,
    "lemij": check_lemma_ij,
}
# The quasi lemmas read string lengths as counts (Z>=0 or +inf).
COUNTING_LEMMAS = ("cases", "infs", "lemij")


def family(g: QuasiCrystalGraph) -> dict:
    """A crystal (no +inf length) answers to Stembridge's axioms; any other
    graph to the local quasi-crystal axioms."""
    return CRYSTAL_AXIOMS if is_crystal(g) else QUASI_AXIOMS


def run_checks(g: QuasiCrystalGraph, checkers: dict, around=None):
    """Yield (name, report) per checker in table order; the Stembridge
    checker yields its five axioms under their sorted keys."""
    for key, chk in checkers.items():
        rep = chk(g, around=around)
        if isinstance(rep, dict):
            yield from sorted(rep.items())
        else:
            yield key, rep
