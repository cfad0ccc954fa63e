"""Turning a connected seminormal crystal into a quasi-crystal by freezing
every index where the raising string falls short of the weight entry.

Also: the abstract crystal with a given content (a component of a tensor
power of the standard crystal, walked word by word) and the component count
of its quasification.
"""

from __future__ import annotations

import enum

from .axioms import check_stembridge
from .graphcore import POS_INF, QuasiCrystalGraph, is_crystal, is_seminormal, validate
from .structure import components
from .weightlattice import check_partition, ssyt_count, syt_count
from .wordmodel import SizeCapExceeded, WordCrystal, default_size_cap, word_to_id


class OperatorClass(enum.Enum):
    QUASI = "quasi"
    STRICT = "strict"
    UNDEFINED = "undefined"


def _require_compliant_crystal(c: QuasiCrystalGraph) -> None:
    rep = validate(c)
    if not rep.passed:
        raise ValueError("quasify needs a coherent graph; validation found witnesses")
    if not is_crystal(c):
        raise ValueError("quasify applies to crystals (no +inf lengths)")
    if not is_seminormal(c).passed:
        raise ValueError("quasify needs a seminormal crystal")
    if len(components(c)) != 1:
        raise ValueError("quasify needs a connected crystal; decompose first")
    for x in c.vertex_ids():
        if any(w < 0 for w in c.wt(x)):
            raise ValueError(
                "quasify needs non-negative weights; translate by a multiple of (1,...,1) first"
            )
    stem = check_stembridge(c)
    bad = [name for name, rep in sorted(stem.items()) if not rep.passed]
    if bad:
        raise ValueError(f"quasify needs the local crystal axioms; failing: {', '.join(bad)}")


def quasify(c: QuasiCrystalGraph) -> QuasiCrystalGraph:
    """Freeze each (vertex, index) whose raising string is shorter than the
    (i+1)-th weight entry; elsewhere keep the crystal operators."""
    _require_compliant_crystal(c)
    q = QuasiCrystalGraph(c.n)
    kept: dict[tuple[str, int], bool] = {}
    for x in c.vertex_ids():
        eps_row, phi_row = [], []
        for i in c.index_set:
            keep = c.eps(x, i) == c.wt(x)[i]
            kept[(x, i)] = keep
            eps_row.append(c.eps(x, i) if keep else POS_INF)
            phi_row.append(c.phi(x, i) if keep else POS_INF)  # phi = eps + <wt, alpha_i>, as validate checked
        q.add_vertex(x, c.wt(x), eps_row, phi_row)
    for x in c.vertex_ids():
        for i in c.index_set:
            if kept[(x, i)]:
                y = c.e(x, i)
                if y is not None:
                    q.set_raising(x, i, y)
                    q.set_lowering(y, i, x)
    return q


def classify_operators(
    c: QuasiCrystalGraph, q: QuasiCrystalGraph | None = None
) -> dict[tuple[str, int], OperatorClass]:
    """Per (vertex, index): how the lowering operator survives quasification."""
    if q is None:
        q = quasify(c)
    if q.n != c.n or q.vertex_ids() != c.vertex_ids():
        raise ValueError("the two graphs must share their vertex set")
    out: dict[tuple[str, int], OperatorClass] = {}
    for x in c.vertex_ids():
        for i in c.index_set:
            fc, fq = c.f(x, i), q.f(x, i)
            if fc is None:
                if fq is not None:
                    raise ValueError(f"quasified graph adds an edge at ({x!r}, {i})")
                out[(x, i)] = OperatorClass.UNDEFINED
            elif fq is None:
                out[(x, i)] = OperatorClass.STRICT
            else:
                if fq != fc:
                    raise ValueError(f"quasified edge at ({x!r}, {i}) changed target")
                out[(x, i)] = OperatorClass.QUASI
    return out


def crystal_of_content(shape, n: int) -> QuasiCrystalGraph:
    """The connected crystal whose highest weight is the given partition: of
    the components of the |shape|-th tensor power of the standard crystal
    with that highest weight, the one with the least vertex id.

    Only those components are walked, from their highest-weight words: the
    walk visits f^shape * #SSYT(shape, n) words of |shape| letters, rather
    than all n^|shape| words, and that letter count is held to the size cap
    before it starts.
    """
    parts = check_partition(shape)
    if len(parts) > n:
        raise ValueError(f"shape {parts} has more than n={n} parts")
    words = WordCrystal(n)
    tops, fillings, m = syt_count(parts), ssyt_count(parts, n), sum(parts)
    cap = default_size_cap()
    if tops * fillings * m > cap:
        raise SizeCapExceeded(
            f"content {parts} at n={n} walks {tops}*{fillings} words of {m} letters,"
            f" more than the size cap {cap}"
        )
    target = parts + (0,) * (n - len(parts))
    comps = [words.component(top) for top in words.highest_weight_words(target)]
    return words.graph(min(comps, key=lambda comp: min(word_to_id(words.word(x), n) for x in comp)))


def count_quasi_components(shape, n: int) -> int:
    """Number of connected components after quasifying the content crystal."""
    return len(components(quasify(crystal_of_content(shape, n))))
