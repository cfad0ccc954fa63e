"""Exact multivariate characters: graph characters (a content crystal's is
the Schur polynomial) and fundamental quasisymmetric polynomials, with the
decomposition verifier.

Polynomials are sparse dicts from exponent vectors to nonzero ints; no floats
anywhere, so equality is honest equality.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import accumulate

from .quasify import _content_graph, _content_words, quasify
from .structure import Component, components
from .weightlattice import check_composition, check_rank, descent_composition, enumerate_syt


class IntPolynomial:
    """Polynomial in x1..xn with int coefficients, exponent-vector keyed."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms=None):
        self.n = check_rank(n)
        clean: dict[tuple[int, ...], int] = {}
        for expo, coeff in (terms or {}).items():
            expo = tuple(expo)
            if len(expo) != n:
                raise ValueError(f"exponent vector {expo} has length != {n}")
            if any(isinstance(a, bool) or not isinstance(a, int) or a < 0 for a in expo):
                raise ValueError(f"exponent entries must be non-negative ints, got {expo!r}")
            if not isinstance(coeff, int) or isinstance(coeff, bool):
                raise ValueError(f"coefficient must be int, got {coeff!r}")
            if coeff:
                clean[expo] = clean.get(expo, 0) + coeff
                if not clean[expo]:
                    del clean[expo]
        self._terms = clean

    @classmethod
    def zero(cls, n: int) -> "IntPolynomial":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "IntPolynomial":
        return cls.monomial(n, (0,) * n)

    @classmethod
    def monomial(cls, n: int, expo, coeff: int = 1) -> "IntPolynomial":
        return cls(n, {tuple(expo): coeff})

    def terms(self):
        """Canonical (exponent, coefficient) pairs, leading monomial first."""
        return tuple(sorted(self._terms.items(), key=lambda kv: kv[0], reverse=True))

    def _check_rank(self, other: "IntPolynomial") -> None:
        if self.n != other.n:
            raise ValueError(f"variable count mismatch: {self.n} vs {other.n}")

    def _merge(self, other, fold):
        """self with other's terms folded in: Counter.update adds, Counter.subtract subtracts."""
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        self._check_rank(other)
        out = Counter(self._terms)
        fold(out, other._terms)
        return IntPolynomial(self.n, out)

    def __add__(self, other):
        return self._merge(other, Counter.update)

    def __sub__(self, other):
        return self._merge(other, Counter.subtract)

    def __mul__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            return IntPolynomial(self.n, {e: other * c for e, c in self._terms.items()})
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        self._check_rank(other)
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return IntPolynomial(self.n, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if isinstance(k, bool) or not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative int")
        result = IntPolynomial.one(self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self):
        return hash((self.n, frozenset(self._terms.items())))

    def __str__(self):
        if not self._terms:
            return "0"
        chunks = []
        for expo, coeff in self.terms():
            vars_part = "*".join(
                f"x{k + 1}" if p == 1 else f"x{k + 1}^{p}"
                for k, p in enumerate(expo)
                if p
            )
            if not vars_part:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = vars_part
            else:
                body = f"{abs(coeff)}*{vars_part}"
            if not chunks:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self):
        return f"IntPolynomial({self.n}, {dict(self.terms())!r})"


def character(obj) -> IntPolynomial:
    """Sum of x^wt over the vertices of a graph or component."""
    if isinstance(obj, Component):
        g = obj.graph
        vertices = obj.vertices
    else:
        g = obj
        vertices = g.vertex_ids()
    W = g._wt
    terms: dict[tuple[int, ...], int] = {}
    for x in vertices:
        wt = W[x]
        if any(c < 0 for c in wt):
            raise ValueError(
                f"character needs non-negative weights; vertex {x!r} has {wt}"
            )
        terms[wt] = terms.get(wt, 0) + 1
    return IntPolynomial(g.n, terms)


def fundamental_qsym(alpha, n: int) -> IntPolynomial:
    """Gessel's fundamental quasisymmetric polynomial F_alpha in n variables:
    weakly increasing words of length |alpha| with a strict rise at every
    descent position (the partial sums of alpha except the last)."""
    comp = check_composition(alpha)
    check_rank(n)
    descents = set(accumulate(comp[:-1]))
    level = [(1, (0,) * n)]  # (last letter, exponents) of each word so far
    for pos in range(sum(comp)):
        top = n - sum(d > pos for d in descents)  # leaves room for the rises still to come
        level = [
            (v, expo[: v - 1] + (expo[v - 1] + 1,) + expo[v:])
            for prev, expo in level
            for v in range(prev + (pos in descents), top + 1)
        ]
    return IntPolynomial(n, Counter(expo for _, expo in level))


class SchurDecompositionReport(
    namedtuple(
        "SchurDecompositionReport",
        "shape n identity_ok multiset_ok term_compositions component_records mismatches",
    )
):
    """Everything the decomposition identity asserts, checked exactly: the
    shape and n, whether the polynomial identity and the term-by-component
    pairing hold, the sorted F-term compositions, one (highest-weight id,
    composition or None, matched) record per component, and the mismatch notes."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.identity_ok and self.multiset_ok and not self.mismatches

    def lines(self) -> list[str]:
        out = [
            f"shape\t{','.join(map(str, self.shape))}\tn\t{self.n}",
            f"identity\t{'PASS' if self.identity_ok else 'FAIL'}",
        ]
        for comp in self.term_compositions:
            out.append(f"term\tF({','.join(map(str, comp))})")
        for hw, alpha, ok in self.component_records:
            shown = ",".join(map(str, alpha)) if alpha is not None else "-"
            out.append(f"component\t{hw}\tF({shown})\t{'PASS' if ok else 'FAIL'}")
        out.append(f"multiset\t{'PASS' if self.multiset_ok else 'FAIL'}")
        out.extend(f"mismatch\t{m}" for m in self.mismatches)
        out.append(f"result\t{'PASS' if self.passed else 'FAIL'}")
        return out


def verify_schur_decomposition(shape, n: int) -> SchurDecompositionReport:
    """Check that the content character equals the sum of fundamental terms
    over standard tableaux, and that the quasified components realize those
    terms one-for-one."""
    parts, words = _content_words(shape, n)  # the size cap, before any tableau is listed
    tableaux = enumerate_syt(parts)  # listed once, for the content crystal and the F-terms
    content = _content_graph(words, tableaux)
    term_comps = sorted(descent_composition(t) for t in tableaux)
    f_terms = [fundamental_qsym(a, n) for a in term_comps]
    identity_ok = character(content) == sum(f_terms, IntPolynomial.zero(n))

    q = quasify(content)
    comps = components(q)
    mismatches: list[str] = []
    records: list[tuple[str, tuple[int, ...] | None, bool]] = []
    comp_chars: list[IntPolynomial] = []
    for comp in comps:
        ch = character(comp)
        comp_chars.append(ch)
        hw = comp.hw_vertices[0] if len(comp.hw_vertices) == 1 else comp.min_vertex
        if len(comp.hw_vertices) != 1:
            mismatches.append(f"component {comp.min_vertex} has {len(comp.hw_vertices)} highest weights")
            records.append((hw, None, False))
            continue
        wt = q.wt(hw)
        trimmed = list(wt)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        if not trimmed or any(c <= 0 for c in trimmed):
            mismatches.append(f"highest weight {wt} of {hw} is not a composition")
            records.append((hw, None, False))
            continue
        alpha = tuple(trimmed)
        ok = fundamental_qsym(alpha, n) == ch
        if not ok:
            mismatches.append(f"component {hw}: character differs from F({alpha})")
        records.append((hw, alpha, ok))

    multiset_ok = Counter(f_terms) == Counter(comp_chars)

    return SchurDecompositionReport(
        shape=parts,
        n=n,
        identity_ok=identity_ok,
        multiset_ok=multiset_ok,
        term_compositions=term_comps,
        component_records=records,
        mismatches=mismatches,
    )
