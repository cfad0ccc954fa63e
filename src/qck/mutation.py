"""Single-entry graph corruption and the detector battery run against it.

Each mutation changes exactly one stored entry of one vertex x: a string
length, one side of one edge, or one weight coordinate. Detection means at
least one checker reports a witness.

``random_mutation`` edits a copy of the graph. ``fuzz_graph`` edits the
caller's graph in place, re-checks only the anchors that can read x (see
``region``), and undoes the edit before drawing the next one. It checks with
``axioms.battery``, the gated verdict of ``check --axioms all``;
``run_detectors`` runs the same checkers ungated and names every one that flags.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import namedtuple

from .axioms import COUNTING_LEMMAS, CORE, CRYSTAL_AXIOMS, battery, family, run_checks, uncounted_length
from .graphcore import POS_INF, QuasiCrystalGraph, ext_str

_LENGTH_POOL = [0, 1, 2, 3, -1, POS_INF]

# The notes for a mutant no checker flags. It is a valid graph when it moves
# the weight of a vertex whose string lengths are all +inf, which no axiom
# constrains; any other one is a gap in the battery and lowers the rate.
VALID_NOTE = "mutant is itself a coherent seminormal quasi-crystal"
GAP_NOTE = "unclassified gap"

# How far, in e/f steps, a local rule walks from its anchor (S3's e_i e_j^2 e_i).
RADIUS = 4


class Mutation(namedtuple("Mutation", "kind vertex index detail")):
    """What one edit changed: its kind, the vertex, the index (or weight
    coordinate) and the old and new values."""

    __slots__ = ()

    def describe(self) -> str:
        return f"{self.kind}\t{self.vertex}\t{self.index}\t{self.detail}"


class _Edit(namedtuple("_Edit", "mutation put key old new")):
    """One drawn mutation: put(*key, new) applies it, put(*key, old) undoes it."""

    __slots__ = ()

    def apply(self) -> None:
        self.put(*self.key, self.new)

    def undo(self) -> None:
        self.put(*self.key, self.old)


class _Sampler:
    """Draws single-entry edits of one graph. The pools are built once, so
    every draw on the same (restored) graph costs O(1)."""

    def __init__(self, g: QuasiCrystalGraph):
        if not len(g) or g.n < 2:
            raise ValueError("fuzz needs a graph with a vertex and an index to mutate")
        self.g = g
        self.ids = g.vertex_ids()
        E, F = g._e, g._f
        self.entries = [
            (x, s + 1, side)
            for x in self.ids
            for s in range(g.n - 1)
            for side, rows in (("e", E), ("f", F))
            if rows[x][s] is not None
        ]

    def draw(self, rng: random.Random) -> _Edit:
        kind = rng.choice(["length", "edge", "weight"])
        # graphs without edges fall back to a length poke
        if kind == "edge" and self.entries:
            return self._edge(rng)
        if kind == "weight":
            return self._weight(rng)
        return self._length(rng)

    def _length(self, rng: random.Random) -> _Edit:
        g = self.g
        x = rng.choice(self.ids)
        i = rng.choice(g.index_set)
        which = rng.choice(["eps", "phi"])
        get, put = (g.eps, g.set_epsilon) if which == "eps" else (g.phi, g.set_phi)
        old = get(x, i)
        pool = [v for v in _LENGTH_POOL if v != old]
        if isinstance(old, int):
            pool.extend([old + 1, old - 1])
        new = rng.choice(pool)
        return _Edit(Mutation(which, x, i, f"{ext_str(old)}->{ext_str(new)}"), put, (x, i), old, new)

    def _edge(self, rng: random.Random) -> _Edit:
        g = self.g
        x, i, side = rng.choice(self.entries)
        get, put = (g.e, g.set_raising) if side == "e" else (g.f, g.set_lowering)
        old = get(x, i)
        # rng.choice([v for v in ids if v != old] + [None]), with the same draw, unbuilt
        k = rng.randrange(len(self.ids))
        new = None if k == len(self.ids) - 1 else self.ids[k + (k >= bisect_left(self.ids, old))]
        return _Edit(Mutation(f"edge-{side}", x, i, f"{old}->{new}"), put, (x, i), old, new)

    def _weight(self, rng: random.Random) -> _Edit:
        g = self.g
        x = rng.choice(self.ids)
        coord = rng.randrange(g.n)
        delta = rng.choice([-2, -1, 1, 2])
        old = g.wt(x)
        wt = list(old)
        wt[coord] += delta
        new = tuple(wt)
        return _Edit(Mutation("weight", x, coord + 1, f"{old}->{new}"), g.set_weight, (x,), old, new)


def random_mutation(
    g: QuasiCrystalGraph, rng: random.Random
) -> tuple[QuasiCrystalGraph, Mutation]:
    """One uniformly chosen single-entry corruption of a copy of g."""
    mutant = g.copy()
    edit = _Sampler(mutant).draw(rng)
    edit.apply()
    return mutant, edit.mutation


def run_detectors(g: QuasiCrystalGraph) -> list[str]:
    """Names of the checkers that flag this graph, in battery order.

    The battery is validate, seminormal, then the family of the graph's
    class (axioms.family). The Stembridge comparisons run only on a clean
    core; the quasi lemmas only where every string length is a count.
    """
    failing = [rep.name for _, rep in run_checks(g, CORE) if not rep.passed]
    checkers = family(g)
    if checkers is CRYSTAL_AXIOMS and failing:
        return failing
    if uncounted_length(g) is not None:
        checkers = {k: c for k, c in checkers.items() if k not in COUNTING_LEMMAS}
    failing.extend(name for name, rep in run_checks(g, checkers) if not rep.passed)
    return failing


def region(g: QuasiCrystalGraph, x: str) -> set[str]:
    """The anchors whose rules can read vertex x's row, on a coherent
    seminormal graph: the ball of radius RADIUS around x over e and f, plus
    x's whole i-string for every i.

    How far each rule anchored at a reads, in e/f steps from a:
    - lq1 reads a's row only; validate, lq2, cases, lemij and S1 read the
      rows of a and of its e/f targets: 1 step;
    - lq3, lq3', S2 and S2' read the rows of e_i a and e_j a and compare the
      ids stored there: 2 steps;
    - S3 and S3' walk e_i e_j e_j e_i (resp. f): they read rows 3 steps out
      and compare the ids 4 steps out, so RADIUS = 4 bounds every walk;
    - seminormal walks a's i-strings up and down, infs walks up the
      i-string from e_i a and down from a: whole i-strings.
    A walk from a reaches x over rows other than x's, so over pointers of
    the unedited graph. There e and f are mutually inverse, so x reaches a
    back over the same number of steps, and a shares x's i-string.
    """
    E, F = g._e, g._f
    near = {x}
    frontier = {x}
    for _ in range(RADIUS):
        step = {y for z in frontier for y in E[z] + F[z]}
        step.discard(None)
        frontier = step - near
        near |= frontier
    for s in range(g.n - 1):
        for rows in (E, F):
            z = rows[x][s]
            while z is not None:
                near.add(z)
                z = rows[z][s]
    return near


class FuzzResult(namedtuple("FuzzResult", "total detected silent")):
    """How many mutants were scored and detected, and each silent one with its note."""

    __slots__ = ()

    @property
    def rate(self) -> float:
        """Detected over the mutants that are not themselves valid graphs."""
        scored = self.total - sum(note == VALID_NOTE for _, note in self.silent)
        return self.detected / scored if scored else 1.0

    def lines(self) -> list[str]:
        out = [
            f"total\t{self.total}",
            f"detected\t{self.detected}",
            f"silent\t{len(self.silent)}",
            f"rate\t{self.rate:.4f}",
        ]
        for m, note in self.silent:
            out.append(f"silent-case\t{m.describe()}\t{note}")
        return out


def fuzz_graph(g: QuasiCrystalGraph, count: int, seed: int) -> FuzzResult:
    """Mutate count times with a seeded generator and run the battery.

    Scores the same as run_detectors on a mutated copy of g, for the same
    draws as random_mutation. Each mutant is instead g edited in place,
    re-checked on region(g, x) only, and restored, also when a checker
    raises. Witnesses of the unedited g anchored outside the region still
    stand, so they count as a detection.
    """
    if isinstance(count, bool) or not isinstance(count, int) or count < 0:
        raise ValueError(f"fuzz count must be >= 0, got {count!r}")
    # a class change (+inf gained or lost) breaks Q2 at x, so while local
    # validate passes the mutant keeps g's family
    checkers = family(g)
    reports = list(battery(g, checkers))
    if not all(rep.passed for _, rep in reports[: len(CORE)]):
        raise ValueError("fuzz needs a coherent seminormal graph to start from")
    flagged = {w.vertices[0] for _, rep in reports for w in rep.witnesses}
    sampler = _Sampler(g)
    rng = random.Random(seed)
    detected = 0
    silent: list[tuple[Mutation, str]] = []
    for _ in range(count):
        edit = sampler.draw(rng)
        near = region(g, edit.mutation.vertex)
        edit.apply()
        try:
            caught = not flagged <= near or any(
                not rep.passed for _, rep in battery(g, checkers, around=near)
            )
        finally:
            edit.undo()
        if caught:
            detected += 1
        else:
            m = edit.mutation
            frozen = all(g.eps(m.vertex, i) == POS_INF == g.phi(m.vertex, i) for i in g.index_set)
            silent.append((m, VALID_NOTE if m.kind == "weight" and frozen else GAP_NOTE))
    return FuzzResult(count, detected, silent)
