"""Turning a connected seminormal crystal into a quasi-crystal by freezing
every index where the raising string falls short of the weight entry; inputs
that are not such crystals are refused.

Also: the abstract crystal with a given content (a component of a tensor
power of the standard crystal, walked word by word from the shape's standard
tableaux) and the component count of its quasification.
"""

from __future__ import annotations

from .axioms import check_stembridge
from .graphcore import POS_INF, QuasiCrystalGraph, is_crystal, is_seminormal, validate
from .structure import components
from .weightlattice import check_partition, entry_rows, enumerate_syt, ssyt_count, syt_count
from .wordmodel import SizeCapExceeded, WordCrystal, default_size_cap, word_to_id


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
    if any(w < 0 for wt in c._wt.values() for w in wt):
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
    share = {}.setdefault  # one tuple per distinct weight or length row
    for x in c.vertex_ids():
        wt = c._wt[x]
        # validate checked that eps_i - wt_{i+1} is constant along each i-string,
        # so both ends of an edge agree on keeping it and the e and f rows are
        # each filtered at their own vertex; phi = eps + <wt, alpha_i> goes with eps
        keep = [v == wt[s + 1] for s, v in enumerate(c._eps[x])]
        eps = tuple(v if k else POS_INF for v, k in zip(c._eps[x], keep))
        phi = tuple(v if k else POS_INF for v, k in zip(c._phi[x], keep))
        e = [y if k else None for y, k in zip(c._e[x], keep)]
        f = [y if k else None for y, k in zip(c._f[x], keep)]
        q._put_vertex(x, share(wt, wt), share(eps, eps), share(phi, phi), e, f)
    return q


def crystal_of_content(shape, n: int) -> QuasiCrystalGraph:
    """The connected crystal whose highest weight is the given partition: of
    the components of the |shape|-th tensor power of the standard crystal
    with that highest weight, the one with the least vertex id.

    A word is highest weight iff each suffix has partition content: the top
    words are the shape's standard tableaux read backwards, row of entry m first.
    For n <= 9 an id is the word itself and each f_i raises one letter, so a
    component's least id is its top word: only the component of the least
    highest-weight word is walked. For n >= 10 all of them are. The size cap
    is held, before any walk, to f^shape * #SSYT(shape, n) words of |shape|
    letters, an upper bound on the walk, and to n - 1 string lengths per word.
    """
    parts, words = _content_words(shape, n)
    return _content_graph(words, enumerate_syt(parts))


def _content_words(shape, n: int) -> tuple[tuple[int, ...], WordCrystal]:
    """The partition and the power of rank n that crystal_of_content(shape, n)
    walks, refused unless the size cap allows the walk; no tableau is listed."""
    parts = check_partition(shape)
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"n must be an integer, got {n!r}")
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
    if tops * fillings * (n - 1) > cap:  # for shape (1,), standard_crystal's n * (n - 1)
        raise SizeCapExceeded(
            f"content {parts} at n={n} stores {tops}*{fillings} rows of {n - 1} string lengths,"
            f" more than the size cap {cap}"
        )
    return parts, words


def _content_graph(words: WordCrystal, tableaux) -> QuasiCrystalGraph:
    """crystal_of_content's graph, from every standard tableau of its shape."""
    top_words = [entry_rows(t)[::-1] for t in tableaux]
    if words.n <= 9:  # word tuples of one length sort as their ids
        return words.graph(words.component(min(top_words)))
    # dash-joined ids do not sort as words ("10" < "2"): the least id may lie in any component
    comps = [words.component(top) for top in top_words]
    return words.graph(min(comps, key=lambda comp: min(word_to_id(x, words.n) for x in comp)))


def count_quasi_components(shape, n: int) -> int:
    """Number of connected components after quasifying the content crystal."""
    return len(components(quasify(crystal_of_content(shape, n))))
