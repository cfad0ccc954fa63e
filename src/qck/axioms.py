"""Checkers for the local quasi-crystal axioms and the Stembridge axioms.

Every checker sweeps the whole graph, reports *all* violations as sorted
witness lines, and never stops at the first hit. Raising edges are read off
the e-table directly, so the checkers stay meaningful on corrupted graphs
where e and f disagree. Like validate, every checker takes an optional
``around`` set of anchors and then sweeps only those (see graphcore).

Most axioms come in dual pairs: LQ3/LQ3', LQ2.2/LQ2.3, cases 2a-2c/3a-3c,
infs.1/infs.2, S2/S2' and S3/S3'. The primed rule is its partner read with
(f, phi, eps) in place of (e, eps, phi), so each pair is written once and
run in two senses (``_Sense``): ``up`` reads (e, eps, phi), ``down`` reads
(f, phi, eps). A rule over a raising edge x -> y = e_i x looks from its
near end to its far end at the index j next to i: up, near is x, far is y
and j = i + 1; down, near is y, far is x and j = i - 1. The lemij rules are
not such a pair (lemij.3 guards on eps_{i-1}(x), where the mirror of
lemij.2 would read phi_{i-1}(y)), so ``check_lemma_ij`` is written out.

``family`` is the one definition of which of these checkers a graph answers
to; the CLI's ``check --axioms all``, ``mutation.run_detectors`` and
``mutation.fuzz_graph`` all read it.
"""

from __future__ import annotations

from types import SimpleNamespace

from .graphcore import (
    AxiomReport,
    POS_INF,
    QuasiCrystalGraph,
    Witness,
    ext_str,
    is_crystal,
)
from .weightlattice import pairing, simple_root

# The text each sense prints, as (up, down).
_WORDS = {
    "e": ("e", "f"),
    "eps": ("eps", "phi"),
    "phi": ("phi", "eps"),
    "near": ("x", "y"),
    "far": ("y", "x"),
    "pm": ("+", "-"),  # the sign of j - i
    "neg": ("-", ""),  # the sign of case c's predicted length, -d
    "move": ("drops", "rises"),  # how the sense's phi moves from x to y in case a
    "step": ("after an unfreezing", "before a freezing"),
    "chain": ("up", "down"),  # the way infs walks the i-string
    "edge": ("down", "up"),  # the way infs carries +inf along the edge
    "prime": ("", "'"),
    "lq2": ("LQ2.2", "LQ2.3"),
    "lq3": ("lq3", "lq3p"),
    "case": ("case-2", "case-3"),
    "infs": ("infs.1", "infs.2"),
}
_UP_WORDS, _DOWN_WORDS = (SimpleNamespace(**{k: p[d] for k, p in _WORDS.items()}) for d in (0, 1))


class _Sense:
    """One reading direction of a dual pair of rules on g: ``e``, ``eps``
    and ``phi`` are g's (e, eps, phi) up and its (f, phi, eps) down, ``d`` is
    the step from i to j, and ``w`` the text the sense prints. A checker
    holds ``senses = (up, down)``, so ``senses[j < i]`` reads j from i."""

    def __init__(self, g: QuasiCrystalGraph, up: bool):
        self.up = up
        self.d = 1 if up else -1
        self.e, self.eps, self.phi = (g.e, g.eps, g.phi) if up else (g.f, g.phi, g.eps)
        self.w = _UP_WORDS if up else _DOWN_WORDS

    def pair(self, a, b):
        """(a, b) up and (b, a) down: an edge's (x, y) as its (near, far),
        or a pair of clauses about the sense's (eps, phi) in g's order."""
        return (a, b) if self.up else (b, a)


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
    """Behaviour of neighbouring string lengths across each raising edge:
    LQ2.1 at distant indices, LQ2.2 (up) and LQ2.3 (down) at adjacent ones."""
    senses = (_Sense(g, True), _Sense(g, False))
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
                continue
            if j == i:
                continue
            s = senses[j < i]
            w = s.w
            near, far = s.pair(x, y)
            cond = s.eps(near, j) == POS_INF and s.eps(far, i) == 0
            if (s.eps(x, j) != s.eps(y, j)) != cond:
                ws.append(
                    Witness(
                        w.lq2,
                        (x, y),
                        (i, j),
                        f"{w.eps}_{j}: {ext_str(s.eps(x, j))} -> {ext_str(s.eps(y, j))}, "
                        f"{w.eps}_{i}({w.far})={ext_str(s.eps(far, i))}",
                        f"change iff {w.eps}_{{i{w.pm}1}}({w.near})=+inf and {w.eps}_i({w.far})=0",
                    )
                )
            if cond and (s.eps(far, j) == 0 or s.eps(far, j) == POS_INF):
                ws.append(
                    Witness(
                        w.lq2,
                        (x, y),
                        (i, j),
                        f"{w.eps}_{j}({w.far})={ext_str(s.eps(far, j))}",
                        f"finite positive {w.step} step",
                    )
                )
    return AxiomReport("lq2", ws)


def _check_lq3(g: QuasiCrystalGraph, around, s: _Sense) -> AxiomReport:
    """Defined operators of the sense at distinct indices commute."""
    step = s.e
    ws = []
    for x in g.anchors(around):
        for i in g.index_set:
            a = step(x, i)
            if a is None:
                continue
            for j in range(i + 1, g.n):
                b = step(x, j)
                if b is None:
                    continue
                ab, ba = step(a, j), step(b, i)
                if ab is None or ab != ba:
                    ws.append(
                        Witness(
                            "LQ3" + s.w.prime,
                            (x,),
                            (i, j),
                            f"{ab} vs {ba}",
                            "equal and defined composites",
                        )
                    )
    return AxiomReport(s.w.lq3, ws)


def check_lq3(g: QuasiCrystalGraph, around=None) -> AxiomReport:
    """Defined raising operators at distinct indices commute."""
    return _check_lq3(g, around, _Sense(g, True))


def check_lq3p(g: QuasiCrystalGraph, around=None) -> AxiomReport:
    """Defined lowering operators at distinct indices commute: LQ3 read down."""
    return _check_lq3(g, around, _Sense(g, False))


def uncounted_length(g: QuasiCrystalGraph, around=None):
    """The first (vertex, index, length) whose length is neither in Z>=0 nor
    +inf, or None when every string length counts a string."""
    for x in g.anchors(around):
        for i in g.index_set:
            for v in (g.eps(x, i), g.phi(x, i)):
                # a stored length is an int or +-inf: only -inf and ints < 0 are < 0
                if v < 0:
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
    interaction cases must apply, with its predicted string lengths: case 1
    at distant indices, cases 2a-2c (up) and 3a-3c (down) at adjacent ones."""
    _require_counting_lengths(g, "case analysis", around)
    senses = (_Sense(g, True), _Sense(g, False))
    ws = []

    def bad(case, x, y, i, j, observed, required):
        ws.append(Witness(case, (x, y), (i, j), observed, required))

    for x, i, y in g.raising_edges(around):
        for j in g.index_set:
            if abs(i - j) > 1:
                if g.eps(y, j) != g.eps(x, j) or g.phi(y, j) != g.phi(x, j):
                    bad(
                        "case-1",
                        x,
                        y,
                        i,
                        j,
                        f"eps: {ext_str(g.eps(x, j))}->{ext_str(g.eps(y, j))} "
                        f"phi: {ext_str(g.phi(x, j))}->{ext_str(g.phi(y, j))}",
                        "both unchanged at distance > 1",
                    )
                continue
            if j == i:
                continue
            s = senses[j < i]
            eps, phi, w = s.eps, s.phi, s.w
            near, far = s.pair(x, y)
            if eps(near, j) != POS_INF:
                if not (eps(far, j) == eps(near, j) and phi(far, j) == phi(near, j) - 1):
                    bad(
                        w.case + "a",
                        x,
                        y,
                        i,
                        j,
                        f"eps: {ext_str(g.eps(x, j))}->{ext_str(g.eps(y, j))} "
                        f"phi: {ext_str(g.phi(x, j))}->{ext_str(g.phi(y, j))}",
                        ", ".join(s.pair(f"{w.eps} unchanged", f"{w.phi} {w.move} by 1")),
                    )
            elif eps(far, i) > 0:
                # every length at j but L(near, j) must be +inf as well
                if not (eps(far, j) == POS_INF and phi(near, j) == POS_INF and phi(far, j) == POS_INF):
                    rest = {
                        f"{name}({end})": get(v, j)
                        for name, get in (("eps", g.eps), ("phi", g.phi))
                        for end, v in (("x", x), ("y", y))
                    }
                    del rest[f"{w.eps}({w.near})"]
                    bad(
                        w.case + "b",
                        x,
                        y,
                        i,
                        j,
                        " ".join(f"{k}={ext_str(v)}" for k, v in rest.items()),
                        "all +inf while the chain continues",
                    )
            else:  # L(near, j) = +inf and L(far, i) = 0, L the sense's eps
                predicted = -s.d * pairing(g.wt(far), simple_root(j, g.n))
                if not (eps(far, j) == predicted and predicted > 0 and phi(far, j) == 0):
                    bad(
                        w.case + "c",
                        x,
                        y,
                        i,
                        j,
                        f"eps({w.far})={ext_str(g.eps(far, j))} phi({w.far})={ext_str(g.phi(far, j))}",
                        " and ".join(
                            s.pair(
                                f"{w.eps}({w.far})={w.neg}<wt({w.far}),alpha_{j}>={predicted}>0",
                                f"{w.phi}({w.far})=0",
                            )
                        ),
                    )
    return AxiomReport("cases", ws)


def check_cor_infs(g: QuasiCrystalGraph, around=None) -> AxiomReport:
    """A frozen neighbouring index propagates along the edge, and unfreezes
    after finitely many raising (infs.1) resp. lowering (infs.2) steps."""
    _require_counting_lengths(g, "freeze propagation", around)
    senses = (_Sense(g, True), _Sense(g, False))
    ws = []
    limit = len(g) + 1
    for x, i, y in g.raising_edges(around):
        for s in senses:
            j = i + s.d
            if j not in g.index_set:
                continue
            eps, w = s.eps, s.w
            near, far = s.pair(x, y)
            if eps(far, j) != POS_INF:
                continue
            if eps(near, j) != POS_INF:
                ws.append(
                    Witness(
                        w.infs,
                        (x, y),
                        (i, j),
                        f"{w.eps}_{j}({w.near})={ext_str(eps(near, j))}",
                        f"+inf must propagate {w.edge} the edge",
                    )
                )
            z = far
            found = False
            for _ in range(limit):
                if eps(z, i) == 0 or eps(z, i) == POS_INF:
                    break
                nxt = s.e(z, i)
                if nxt is None:
                    break
                z = nxt
                if eps(z, j) != 0 and eps(z, j) != POS_INF:
                    found = True
                    break
            if not found:
                ws.append(
                    Witness(
                        w.infs,
                        (x, y),
                        (i, j),
                        f"no unfreezing vertex {w.chain} the chain",
                        f"some {w.e}_i^k({w.far}) with finite positive {w.eps}_{{i{w.pm}1}}",
                    )
                )
    return AxiomReport("infs", ws)


# Not a dual pair: lemij.3 guards on eps_{i-1}(x), not phi_{i-1}(y), and prints eps first.
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


def _chain(start, seq, step):
    z = start
    for idx in seq:
        if z is None:
            return None
        z = step(z, idx)
    return z


def check_stembridge(g: QuasiCrystalGraph, around=None) -> dict[str, AxiomReport]:
    """The five local crystal axioms; only meaningful for crystals. S2 and S3
    read up, S2' and S3' read down."""
    if not is_crystal(g, around):
        raise ValueError("Stembridge checks apply to crystals only (no +inf lengths)")
    roots = {i: simple_root(i, g.n) for i in g.index_set}
    senses = (_Sense(g, True), _Sense(g, False))
    found = {axiom: [] for axiom in ("S1", "S2", "S2'", "S3", "S3'")}

    def bad(axiom, vertices, i, j, observed, required):
        found[axiom].append(Witness(axiom, vertices, (i, j), observed, required))

    for x, i, y in g.raising_edges(around):
        for j in g.index_set:
            if j == i:
                continue
            ex, ey = g.eps(x, j), g.eps(y, j)
            if ey == ex:
                continue
            if ey == ex + 1 and pairing(roots[i], roots[j]) == -1:
                continue
            bad(
                "S1",
                (x, y),
                i,
                j,
                f"eps_{j}: {ext_str(ex)} -> {ext_str(ey)}",
                "unchanged, or +1 across an adjacent index",
            )

    for x in g.anchors(around):
        for i in g.index_set:
            for j in g.index_set:
                if i == j:
                    continue
                for s in senses:
                    e, eps, phi, w = s.e, s.eps, s.phi, s.w
                    y, z = e(x, i), e(x, j)
                    if y is not None and eps(y, j) == eps(x, j) and eps(x, j) > 0:
                        ij = e(z, i) if z is not None else None
                        ji = e(y, j)
                        if ij is None or ij != ji:
                            bad(
                                "S2" + w.prime,
                                (x,),
                                i,
                                j,
                                f"{w.e}_i {w.e}_j={ij} {w.e}_j {w.e}_i={ji}",
                                "equal and defined",
                            )
                        elif phi(x, i) != phi(z, i):
                            bad(
                                "S2" + w.prime,
                                (x,),
                                i,
                                j,
                                f"{w.phi}_{i}({w.e}_{j}x)={ext_str(phi(z, i))}",
                                f"{w.phi}_{i}(x)={ext_str(phi(x, i))}",
                            )
                    if j < i or y is None or z is None:
                        continue
                    if eps(y, j) != eps(x, j) + 1 or eps(z, i) != eps(x, i) + 1:
                        continue
                    left = _chain(x, (i, j, j, i), e)
                    right = _chain(x, (j, i, i, j), e)
                    if left is None or left != right:
                        bad(
                            "S3" + w.prime,
                            (x,),
                            i,
                            j,
                            f"{w.e}_i {w.e}_j^2 {w.e}_i={left} {w.e}_j {w.e}_i^2 {w.e}_j={right}",
                            "equal and defined",
                        )
                        continue
                    mid_l = _chain(x, (i, j, j), e)
                    mid_r = _chain(x, (j, i, i), e)
                    if phi(z, i) != phi(mid_l, i):
                        bad(
                            "S3" + w.prime,
                            (x,),
                            i,
                            j,
                            f"{w.phi}_{i}({w.e}_{j}x)={ext_str(phi(z, i))} vs {ext_str(phi(mid_l, i))}",
                            f"{w.phi}_i preserved across the double step",
                        )
                    if phi(y, j) != phi(mid_r, j):
                        bad(
                            "S3" + w.prime,
                            (x,),
                            i,
                            j,
                            f"{w.phi}_{j}({w.e}_{i}x)={ext_str(phi(y, j))} vs {ext_str(phi(mid_r, j))}",
                            f"{w.phi}_j preserved across the double step",
                        )

    return {axiom.replace("'", "p"): AxiomReport(axiom, ws) for axiom, ws in found.items()}


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
