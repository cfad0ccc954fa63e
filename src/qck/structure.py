"""Connected components, their unique highest weight and rank grading, and
weight-determined isomorphism of components.

The isomorphism construction follows the uniqueness argument: starting from
the two highest-weight vertices it extends the map down lowering edges, and
only claims success after an independent re-verification of the finished map.
Inputs that break the underlying theorems raise TheoremViolation instead of
returning wrong answers.
"""

from __future__ import annotations

from collections import deque, namedtuple
from operator import mul

from .graphcore import QuasiCrystalGraph, ext_str


class TheoremViolation(Exception):
    """The input contradicts a theorem the caller relied on."""

    def __init__(self, message: str, details: list[str] | None = None):
        super().__init__(message)
        self.details = details or []

    def lines(self) -> list[str]:
        return [str(self)] + self.details


class Component(namedtuple("Component", "graph vertices hw_vertices")):
    """One connected component, with its highest-weight data precomputed: its
    graph, its sorted vertex ids and its highest-weight vertex ids."""

    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.vertices)

    @property
    def min_vertex(self) -> str:
        return self.vertices[0]

    def subgraph(self) -> QuasiCrystalGraph:
        """These vertices' stored rows, e and f targets outside them dropped: a
        restriction, not a repair, so validate still sees where e and f disagree."""
        g = self.graph
        members = set(self.vertices)
        sub_g = QuasiCrystalGraph(g.n)
        for x in self.vertices:
            e = [y if y in members else None for y in g._e[x]]
            f = [y if y in members else None for y in g._f[x]]
            sub_g._put_vertex(x, g._wt[x], g._eps[x], g._phi[x], e, f)
        return sub_g


def components(g: QuasiCrystalGraph) -> list[Component]:
    """Connected components under e and f jointly, ordered by least vertex id."""
    E, F = g._e, g._f
    seen: set[str] = set()
    comps: list[Component] = []
    for start in g.vertex_ids():
        if start in seen:
            continue
        block = []
        queue = deque([start])
        seen.add(start)
        while queue:
            x = queue.popleft()
            block.append(x)
            for nbr in E[x] + F[x]:
                if nbr is not None and nbr not in seen:
                    seen.add(nbr)
                    queue.append(nbr)
        block.sort()
        hw = tuple(x for x in block if all(y is None for y in E[x]))
        comps.append(Component(g, tuple(block), hw))
    # starts go in id order and claim whole blocks: each is its block's least id
    return comps


def unique_highest_weight(c: Component) -> str:
    """The single highest-weight vertex; anything else breaks the theorem."""
    if len(c.hw_vertices) == 1:
        return c.hw_vertices[0]
    raise TheoremViolation(
        f"component at {c.min_vertex!r} has {len(c.hw_vertices)} highest-weight vertices",
        [f"highest-weight\t{x}" for x in c.hw_vertices],
    )


def rank_table(c: Component) -> dict[str, int]:
    """Lowering steps below the highest weight u of each vertex x: <wt(u), rho> - <wt(x), rho>."""
    u = unique_highest_weight(c)
    W = c.graph._wt
    heights = range(c.graph.n - 1, -1, -1)  # rho = (n-1, ..., 1, 0)
    top = sum(map(mul, W[u], heights))
    out = {}
    for x in c.vertices:
        r = top - sum(map(mul, W[x], heights))
        if r < 0:
            raise TheoremViolation(
                f"vertex {x!r} sits above the highest weight of its component",
                [f"wt({u})={W[u]} wt({x})={W[x]}"],
            )
        out[x] = r
    return out


class IsoWitness(namedtuple("IsoWitness", "mapping")):
    """A vertex bijection, a dict from the first component's ids to the
    second's, claimed to preserve all structure; self-checking."""

    __slots__ = ()

    def verify(self, c1: Component, c2: Component) -> list[str]:
        """Re-check the claim from scratch; returns problems, empty when good."""
        g1, g2 = c1.graph, c2.graph
        problems = []
        if sorted(self.mapping) != list(c1.vertices):
            problems.append("domain does not cover the first component")
        img = sorted(self.mapping.values())
        if img != list(c2.vertices):
            problems.append("image does not cover the second component exactly once")
        if problems:
            return problems
        if g1.n != g2.n:
            return [f"rank mismatch: {g1.n} vs {g2.n}"]
        W1, EPS1, PHI1, E1, F1 = g1._wt, g1._eps, g1._phi, g1._e, g1._f
        W2, EPS2, PHI2, E2, F2 = g2._wt, g2._eps, g2._phi, g2._e, g2._f
        for x, y in sorted(self.mapping.items()):
            if W1[x] != W2[y]:
                problems.append(f"wt\t{x}\t{y}\t{W1[x]} vs {W2[y]}")
            for s in range(g1.n - 1):
                i = s + 1
                if EPS1[x][s] != EPS2[y][s]:
                    problems.append(f"eps_{i}\t{x}\t{y}\t{ext_str(EPS1[x][s])} vs {ext_str(EPS2[y][s])}")
                if PHI1[x][s] != PHI2[y][s]:
                    problems.append(f"phi_{i}\t{x}\t{y}\t{ext_str(PHI1[x][s])} vs {ext_str(PHI2[y][s])}")
                for tag, rows1, rows2 in (("e", E1, E2), ("f", F1, F2)):
                    a, b = rows1[x][s], rows2[y][s]
                    a_img = self.mapping.get(a) if a is not None else None
                    if a_img != b:
                        problems.append(f"{tag}_{i}\t{x}\t{y}\t{a}->{a_img} vs {b}")
        return problems


def isomorphic(c1: Component, c2: Component) -> IsoWitness | None:
    """Equal highest weights force an isomorphism; build and verify it.

    Returns None when the highest weights differ. Raises TheoremViolation when
    the construction gets stuck or the finished map fails verification, since
    for compliant components neither can happen.
    """
    g1, g2 = c1.graph, c2.graph
    u1 = unique_highest_weight(c1)
    u2 = unique_highest_weight(c2)
    if g1.n != g2.n or g1._wt[u1] != g2._wt[u2]:
        return None

    F1, F2 = g1._f, g2._f
    theta = {u1: u2}
    queue = deque([u1])
    while queue:
        x = queue.popleft()
        y = theta[x]
        for i, (a, b) in enumerate(zip(F1[x], F2[y]), start=1):
            if (a is None) != (b is None):
                raise TheoremViolation(
                    "equal highest weights but mismatched lowering edges",
                    [f"stuck\t{x}\t{y}\t{i}\t{a} vs {b}"],
                )
            if a is None:
                continue
            if a in theta:
                if theta[a] != b:
                    raise TheoremViolation(
                        "lowering edges disagree with an earlier assignment",
                        [f"conflict\t{a}\t{theta[a]} vs {b}"],
                    )
            else:
                theta[a] = b
                queue.append(a)

    if len(theta) != c1.size:
        raise TheoremViolation(
            "component not reachable from its highest weight by lowering edges",
            [f"covered {len(theta)} of {c1.size} vertices"],
        )
    witness = IsoWitness(theta)
    problems = witness.verify(c1, c2)
    if problems:
        raise TheoremViolation(
            "constructed vertex map fails verification", problems
        )
    return witness
