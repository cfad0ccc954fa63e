"""Checkers for the local quasi-crystal axioms and the Stembridge axioms.

Every checker sweeps the whole graph, reports *all* violations as sorted
witness lines, and never stops at the first hit. A checker's body is a
generator of its Witness objects; ``graphcore._report`` (or the checker's own
last line) collects them into its AxiomReport. Raising edges are read off
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
to, and ``battery`` the one definition of the gated verdict: validate, then
seminormal (``CORE``), then the family. The CLI's ``check --axioms all`` and
``mutation.fuzz_graph`` run ``battery``; ``mutation.run_detectors`` reads
``family`` ungated.
"""

from __future__ import annotations

from types import SimpleNamespace

from .graphcore import (
    AxiomReport,
    POS_INF,
    QuasiCrystalGraph,
    Witness,
    _report,
    ext_str,
    is_crystal,
    is_seminormal,
    validate,
)

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
    "case": ("case-2", "case-3"),
    "infs": ("infs.1", "infs.2"),
}
_UP_WORDS, _DOWN_WORDS = (SimpleNamespace(**{k: p[d] for k, p in _WORDS.items()}) for d in (0, 1))


class _Sense:
    """One reading direction of a dual pair of rules on g: ``e``, ``eps``
    and ``phi`` are g's row tables (g._e, g._eps, g._phi) up and
    (g._f, g._phi, g._eps) down, so ``s.eps[x][i - 1]`` is the sense's eps_i(x).
    ``d`` is the step from i to j, and ``w`` the text the sense prints. A
    checker holds ``senses = (up, down)``, so ``senses[j < i]`` reads j from i."""

    def __init__(self, g: QuasiCrystalGraph, up: bool):
        self.up = up
        self.d = 1 if up else -1
        self.e, self.eps, self.phi = (g._e, g._eps, g._phi) if up else (g._f, g._phi, g._eps)
        self.w = _UP_WORDS if up else _DOWN_WORDS

    def pair(self, a, b):
        """(a, b) up and (b, a) down: an edge's (x, y) as its (near, far),
        or a pair of clauses about the sense's (eps, phi) in g's order."""
        return (a, b) if self.up else (b, a)


@_report("lq1")
def check_lq1(g: QuasiCrystalGraph, around=None) -> AxiomReport:
    """eps_i(x) = 0 exactly when phi_{i+1}(x) = 0, for consecutive indices."""
    EPS, PHI = g._eps, g._phi
    for x in g.anchors(around):
        ex, px = EPS[x], PHI[x]
        for s in range(g.n - 2):  # i = s + 1 and i + 1 both indices
            if (ex[s] == 0) != (px[s + 1] == 0):
                i = s + 1
                yield Witness(
                    "LQ1",
                    (x,),
                    (i, i + 1),
                    f"eps_{i}={ext_str(ex[s])},phi_{i + 1}={ext_str(px[s + 1])}",
                    "eps_i=0 iff phi_{i+1}=0",
                )


@_report("lq2")
def check_lq2(g: QuasiCrystalGraph, around=None) -> AxiomReport:
    """Behaviour of neighbouring string lengths across each raising edge:
    LQ2.1 at distant indices, LQ2.2 (up) and LQ2.3 (down) at adjacent ones."""
    senses = (_Sense(g, True), _Sense(g, False))
    EPS, indices = g._eps, g.index_set
    for x, i, y in g.raising_edges(around):
        for j in indices:
            t = j - 1
            if abs(i - j) > 1:
                if EPS[x][t] != EPS[y][t]:
                    yield Witness(
                        "LQ2.1",
                        (x, y),
                        (i, j),
                        f"eps_{j}: {ext_str(EPS[x][t])} -> {ext_str(EPS[y][t])}",
                        "unchanged for |i-j|>1",
                    )
                continue
            if j == i:
                continue
            s = senses[j < i]
            L, w = s.eps, s.w
            near, far = s.pair(x, y)
            cond = L[near][t] is POS_INF and L[far][i - 1] == 0
            if (L[x][t] != L[y][t]) != cond:
                yield Witness(
                    w.lq2,
                    (x, y),
                    (i, j),
                    f"{w.eps}_{j}: {ext_str(L[x][t])} -> {ext_str(L[y][t])}, "
                    f"{w.eps}_{i}({w.far})={ext_str(L[far][i - 1])}",
                    f"change iff {w.eps}_{{i{w.pm}1}}({w.near})=+inf and {w.eps}_i({w.far})=0",
                )
            if cond and (L[far][t] == 0 or L[far][t] is POS_INF):
                yield Witness(
                    w.lq2,
                    (x, y),
                    (i, j),
                    f"{w.eps}_{j}({w.far})={ext_str(L[far][t])}",
                    f"finite positive {w.step} step",
                )


def _lq3(g: QuasiCrystalGraph, around, s: _Sense):
    """Defined operators of the sense at distinct indices commute."""
    E = s.e
    for x in g.anchors(around):
        row = E[x]
        for i in range(1, g.n):
            a = row[i - 1]
            if a is None:
                continue
            for j in range(i + 1, g.n):
                b = row[j - 1]
                if b is None:
                    continue
                ab, ba = E[a][j - 1], E[b][i - 1]
                if ab is None or ab != ba:
                    yield Witness(
                        "LQ3" + s.w.prime,
                        (x,),
                        (i, j),
                        f"{ab} vs {ba}",
                        "equal and defined composites",
                    )


def check_lq3(g: QuasiCrystalGraph, around=None) -> AxiomReport:
    """Defined raising operators at distinct indices commute."""
    return AxiomReport("lq3", _lq3(g, around, _Sense(g, True)))


def check_lq3p(g: QuasiCrystalGraph, around=None) -> AxiomReport:
    """Defined lowering operators at distinct indices commute: LQ3 read down."""
    return AxiomReport("lq3p", _lq3(g, around, _Sense(g, False)))


def uncounted_length(g: QuasiCrystalGraph, around=None):
    """The first (vertex, index, length) whose length is neither in Z>=0 nor
    +inf, or None when every string length counts a string."""
    EPS, PHI = g._eps, g._phi
    for x in g.anchors(around):
        for s, pair in enumerate(zip(EPS[x], PHI[x])):
            for v in pair:
                # a stored length is an int or +-inf: only -inf and ints < 0 are < 0
                if v < 0:
                    return x, s + 1, v
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
    return _cases(g, around)


@_report("cases")
def _cases(g: QuasiCrystalGraph, around) -> AxiomReport:
    senses = (_Sense(g, True), _Sense(g, False))
    W, EPS, PHI, indices = g._wt, g._eps, g._phi, g.index_set

    def moves(x, y, t):
        return (
            f"eps: {ext_str(EPS[x][t])}->{ext_str(EPS[y][t])} "
            f"phi: {ext_str(PHI[x][t])}->{ext_str(PHI[y][t])}"
        )

    for x, i, y in g.raising_edges(around):
        for j in indices:
            t = j - 1
            if abs(i - j) > 1:
                if EPS[y][t] != EPS[x][t] or PHI[y][t] != PHI[x][t]:
                    yield Witness("case-1", (x, y), (i, j), moves(x, y, t), "both unchanged at distance > 1")
                continue
            if j == i:
                continue
            s = senses[j < i]
            w = s.w
            near, far = s.pair(x, y)
            L_near, L_far, R_near, R_far = s.eps[near], s.eps[far], s.phi[near], s.phi[far]
            if L_near[t] is not POS_INF:
                if not (L_far[t] == L_near[t] and R_far[t] == R_near[t] - 1):
                    yield Witness(
                        w.case + "a",
                        (x, y),
                        (i, j),
                        moves(x, y, t),
                        ", ".join(s.pair(f"{w.eps} unchanged", f"{w.phi} {w.move} by 1")),
                    )
            elif L_far[i - 1] > 0:
                # every length at j but L(near, j) must be +inf as well
                if not (L_far[t] is POS_INF and R_near[t] is POS_INF and R_far[t] is POS_INF):
                    rest = {
                        f"{name}({end})": rows[v][t]
                        for name, rows in (("eps", EPS), ("phi", PHI))
                        for end, v in (("x", x), ("y", y))
                    }
                    del rest[f"{w.eps}({w.near})"]
                    yield Witness(
                        w.case + "b",
                        (x, y),
                        (i, j),
                        " ".join(f"{k}={ext_str(v)}" for k, v in rest.items()),
                        "all +inf while the chain continues",
                    )
            else:  # L(near, j) = +inf and L(far, i) = 0, L the sense's eps
                wf = W[far]
                predicted = -s.d * (wf[t] - wf[j])
                if not (L_far[t] == predicted and predicted > 0 and R_far[t] == 0):
                    yield Witness(
                        w.case + "c",
                        (x, y),
                        (i, j),
                        f"eps({w.far})={ext_str(EPS[far][t])} phi({w.far})={ext_str(PHI[far][t])}",
                        " and ".join(
                            s.pair(
                                f"{w.eps}({w.far})={w.neg}<wt({w.far}),alpha_{j}>={predicted}>0",
                                f"{w.phi}({w.far})=0",
                            )
                        ),
                    )


def check_cor_infs(g: QuasiCrystalGraph, around=None) -> AxiomReport:
    """A frozen neighbouring index propagates along the edge, and unfreezes
    after finitely many raising (infs.1) resp. lowering (infs.2) steps."""
    _require_counting_lengths(g, "freeze propagation", around)
    return _infs(g, around)


@_report("infs")
def _infs(g: QuasiCrystalGraph, around) -> AxiomReport:
    senses = (_Sense(g, True), _Sense(g, False))
    indices, anchors = g.index_set, g.anchors(around)
    for i in indices:
        for s in senses:
            j = i + s.d
            if j not in indices:
                continue
            E, L, w = s.e, s.eps, s.w
            # whether a walk that reaches a vertex finds j unfrozen there or further along
            # the i-string; False till that walk ends, so a walk round a cycle finds nothing
            unfreezes = {}
            for x in anchors:
                y = g._e[x][i - 1]
                if y is None:
                    continue
                near, far = s.pair(x, y)
                if L[far][j - 1] is not POS_INF:
                    continue
                if L[near][j - 1] is not POS_INF:
                    yield Witness(
                        w.infs,
                        (x, y),
                        (i, j),
                        f"{w.eps}_{j}({w.near})={ext_str(L[near][j - 1])}",
                        f"+inf must propagate {w.edge} the edge",
                    )
                path, z = [], far
                while z is not None and z not in unfreezes:
                    path.append(z)
                    unfreezes[z] = L[z][j - 1] != 0 and L[z][j - 1] is not POS_INF
                    if unfreezes[z]:
                        break
                    z = None if L[z][i - 1] == 0 or L[z][i - 1] is POS_INF else E[z][i - 1]
                found = z is not None and unfreezes[z]
                unfreezes.update(dict.fromkeys(path, found))
                if not found:
                    yield Witness(
                        w.infs,
                        (x, y),
                        (i, j),
                        f"no unfreezing vertex {w.chain} the chain",
                        f"some {w.e}_i^k({w.far}) with finite positive {w.eps}_{{i{w.pm}1}}",
                    )


# Not a dual pair: lemij.3 guards on eps_{i-1}(x), not phi_{i-1}(y), and prints eps first.
@_report("lemij")
def check_lemma_ij(g: QuasiCrystalGraph, around=None) -> AxiomReport:
    """Paired eps/phi movement across a raising edge, as three biconditionals."""
    EPS, PHI, indices = g._eps, g._phi, g.index_set
    for x, i, y in g.raising_edges(around):
        ex, ey, px, py = EPS[x], EPS[y], PHI[x], PHI[y]
        for j in indices:
            if abs(i - j) > 1:
                t = j - 1
                lhs = ey[t] == ex[t]
                rhs = py[t] == px[t]
                if lhs != rhs:
                    yield Witness(
                        "lemij.1",
                        (x, y),
                        (i, j),
                        f"eps same: {lhs}, phi same: {rhs}",
                        "eps unchanged iff phi unchanged",
                    )
        # slot i is index j = i + 1, slot i - 2 is index j = i - 1
        if i + 1 in indices and ex[i] is not POS_INF:
            lhs = ey[i] == ex[i]
            rhs = py[i] == px[i] - 1
            if lhs != rhs:
                yield Witness(
                    "lemij.2",
                    (x, y),
                    (i, i + 1),
                    f"eps same: {lhs}, phi dropped: {rhs}",
                    "eps unchanged iff phi drops by 1",
                )
        if i - 1 in indices and ex[i - 2] is not POS_INF:
            lhs = ey[i - 2] == ex[i - 2] + 1
            rhs = py[i - 2] == px[i - 2]
            if lhs != rhs:
                yield Witness(
                    "lemij.3",
                    (x, y),
                    (i, i - 1),
                    f"eps rose: {lhs}, phi same: {rhs}",
                    "eps rises by 1 iff phi unchanged",
                )


def _chain(rows: dict, start, seq):
    """The vertex reached from start by the operators of rows at the indices
    of seq, applied in order; None once one is undefined."""
    z = start
    for idx in seq:
        if z is None:
            return None
        z = rows[z][idx - 1]
    return z


def check_stembridge(g: QuasiCrystalGraph, around=None) -> dict[str, AxiomReport]:
    """The five local crystal axioms; only meaningful for crystals. S2 and S3
    read up, S2' and S3' read down."""
    if not is_crystal(g, around):
        raise ValueError("Stembridge checks apply to crystals only (no +inf lengths)")
    found = {axiom: [] for axiom in ("S1", "S2", "S2'", "S3", "S3'")}
    for w in _stembridge(g, around):
        found[w.axiom].append(w)
    return {axiom.replace("'", "p"): AxiomReport(axiom, hits) for axiom, hits in found.items()}


def _stembridge(g: QuasiCrystalGraph, around):
    """The witnesses of all five axioms, for check_stembridge to sort by axiom."""
    senses = (_Sense(g, True), _Sense(g, False))
    EPS, indices = g._eps, g.index_set
    for x, i, y in g.raising_edges(around):
        for j in indices:
            if j == i:
                continue
            ex, ey = EPS[x][j - 1], EPS[y][j - 1]
            if ey == ex:
                continue
            # <alpha_i, alpha_j> = -1 exactly for adjacent indices
            if ey == ex + 1 and abs(i - j) == 1:
                continue
            yield Witness(
                "S1",
                (x, y),
                (i, j),
                f"eps_{j}: {ext_str(ex)} -> {ext_str(ey)}",
                "unchanged, or +1 across an adjacent index",
            )

    for x in g.anchors(around):
        for s in senses:
            E, L, R, w = s.e, s.eps, s.phi, s.w
            for i in indices:
                y = E[x][i - 1]
                if y is None:  # S2 and S3 both start from e_i x
                    continue
                for j in indices:
                    if i == j:
                        continue
                    z = E[x][j - 1]
                    if L[y][j - 1] == L[x][j - 1] and L[x][j - 1] > 0:
                        ij = E[z][i - 1] if z is not None else None
                        ji = E[y][j - 1]
                        if ij is None or ij != ji:
                            yield Witness(
                                "S2" + w.prime,
                                (x,),
                                (i, j),
                                f"{w.e}_i {w.e}_j={ij} {w.e}_j {w.e}_i={ji}",
                                "equal and defined",
                            )
                        elif R[x][i - 1] != R[z][i - 1]:
                            yield Witness(
                                "S2" + w.prime,
                                (x,),
                                (i, j),
                                f"{w.phi}_{i}({w.e}_{j}x)={ext_str(R[z][i - 1])}",
                                f"{w.phi}_{i}(x)={ext_str(R[x][i - 1])}",
                            )
                    if j < i or z is None:
                        continue
                    if L[y][j - 1] != L[x][j - 1] + 1 or L[z][i - 1] != L[x][i - 1] + 1:
                        continue
                    left = _chain(E, x, (i, j, j, i))
                    right = _chain(E, x, (j, i, i, j))
                    if left is None or left != right:
                        yield Witness(
                            "S3" + w.prime,
                            (x,),
                            (i, j),
                            f"{w.e}_i {w.e}_j^2 {w.e}_i={left} {w.e}_j {w.e}_i^2 {w.e}_j={right}",
                            "equal and defined",
                        )
                        continue
                    mid_l = _chain(E, x, (i, j, j))
                    mid_r = _chain(E, x, (j, i, i))
                    if R[z][i - 1] != R[mid_l][i - 1]:
                        yield Witness(
                            "S3" + w.prime,
                            (x,),
                            (i, j),
                            f"{w.phi}_{i}({w.e}_{j}x)={ext_str(R[z][i - 1])} vs {ext_str(R[mid_l][i - 1])}",
                            f"{w.phi}_i preserved across the double step",
                        )
                    if R[y][j - 1] != R[mid_r][j - 1]:
                        yield Witness(
                            "S3" + w.prime,
                            (x,),
                            (i, j),
                            f"{w.phi}_{j}({w.e}_{i}x)={ext_str(R[y][j - 1])} vs {ext_str(R[mid_r][j - 1])}",
                            f"{w.phi}_j preserved across the double step",
                        )


# The coherence gates every battery runs first, in order.
CORE = {"q": validate, "seminormal": is_seminormal}
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
# The guarded counting lemmas' bodies, which battery runs without the guard's
# sweep: its seminormal gate has already refused every length outside Z>=0
# and +inf among the same anchors.
_UNGUARDED = {check_local_ax_cases: _cases, check_cor_infs: _infs}


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


def battery(g: QuasiCrystalGraph, checkers=None, around=None):
    """Yield (name, report) for each CORE gate in order, stopping after the
    first that fails; then run_checks over ``checkers``, by default the
    graph's family. Later checkers assume the earlier gates hold, so the
    counting lemmas run without their guard's sweep."""
    for key, rep in run_checks(g, CORE, around):
        yield key, rep
        if not rep.passed:
            return
    checkers = family(g) if checkers is None else checkers
    yield from run_checks(g, {k: _UNGUARDED.get(chk, chk) for k, chk in checkers.items()}, around)
