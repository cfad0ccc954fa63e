"""Shared graph builders, cached so the suite constructs each object once.

The cached graphs are mutable; tests that want to damage one must work on a
``.copy()``.
"""

from __future__ import annotations

import random
from functools import lru_cache

from qck import (
    POS_INF,
    QuasiCrystalGraph,
    crystal_of_content,
    quasi_tensor_power,
    quasify,
    standard_crystal,
    tensor_power,
)
from qck.mutation import random_mutation

from oracles import partitions_brute

# (n, k) pairs kept small enough that every axiom check stays fast.
QUASI_POWERS = (
    [(2, k) for k in range(1, 6)]
    + [(3, k) for k in range(1, 5)]
    + [(4, k) for k in range(1, 4)]
)

TENSOR_POWERS = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2)]


def content_cases(max_cells: int = 4, ranks: tuple[int, ...] = (3, 4)):
    """(shape, n) pairs with at most ``max_cells`` cells and <= n parts."""
    out = []
    for n in ranks:
        for m in range(1, max_cells + 1):
            for shape in partitions_brute(m, max_parts=n):
                out.append((shape, n))
    return out


@lru_cache(maxsize=None)
def std(n: int):
    return standard_crystal(n)


@lru_cache(maxsize=None)
def qpow(n: int, k: int):
    return quasi_tensor_power(n, k)


@lru_cache(maxsize=None)
def tpow(n: int, k: int):
    return tensor_power(n, k)


@lru_cache(maxsize=None)
def content_crystal(shape: tuple[int, ...], n: int):
    return crystal_of_content(shape, n)


@lru_cache(maxsize=None)
def content_quasi(shape: tuple[int, ...], n: int):
    return quasify(content_crystal(shape, n))


def quasi_corpus():
    """Every quasi-crystal the acceptance gate sweeps: quasi tensor powers
    plus quasified content crystals."""
    graphs = [(f"qpow({n},{k})", qpow(n, k)) for n, k in QUASI_POWERS]
    graphs += [
        (f"quasify(content({shape},{n}))", content_quasi(shape, n))
        for shape, n in content_cases()
    ]
    return graphs


def crystal_corpus():
    """Every classical crystal in the corpus."""
    graphs = [(f"std({n})", std(n)) for n in (2, 3, 4, 5)]
    graphs += [(f"tpow({n},{k})", tpow(n, k)) for n, k in TENSOR_POWERS]
    graphs += [
        (f"content({shape},{n})", content_crystal(shape, n))
        for shape, n in content_cases()
    ]
    return graphs


# Seeds per graph of the mutated corpus.
WITNESS_SEEDS = 40


def witness_plan():
    """The mutated corpus: 40 seeded mutants, of 1-3 random_mutation edits
    each, of 12 corpus graphs, as (tag, mutant) pairs."""
    graphs = [(f"qpow{nk}", qpow(*nk)) for nk in ((2, 4), (3, 3), (3, 4), (4, 2), (4, 3))]
    graphs += [(f"tpow{nk}", tpow(*nk)) for nk in ((2, 4), (3, 3), (4, 2))]
    graphs += [("std(4)", std(4)), ("std(5)", std(5))]
    graphs += [("content((2,1),3)", content_crystal((2, 1), 3))]
    graphs += [("quasify(content((3,1),4))", content_quasi((3, 1), 4))]
    for name, g in graphs:
        for seed in range(WITNESS_SEEDS):
            yield f"{name}\t{seed}", seeded_mutant(g, seed)


def seeded_mutant(g, seed: int):
    """g after 1-3 random_mutation edits drawn from random.Random(seed)."""
    rng = random.Random(seed)
    mutant = g
    for _ in range(rng.randint(1, 3)):
        mutant, _ = random_mutation(mutant, rng)
    return mutant


def swap_index_rows(g, u, v, i):
    """A copy of g in which u and v, of equal weight, trade their i-th string
    lengths and i-edges, edited through the guarded setters."""
    h = g.copy()
    eps, phi = {x: h.eps(x, i) for x in (u, v)}, {x: h.phi(x, i) for x in (u, v)}
    ups, downs = {x: h.e(x, i) for x in (u, v)}, {x: h.f(x, i) for x in (u, v)}
    for x, y in ((u, v), (v, u)):
        h.set_epsilon(x, i, eps[y])
        h.set_phi(x, i, phi[y])
        h.set_raising(x, i, ups[y])
        h.set_lowering(x, i, downs[y])
    for x in (u, v):
        if h.e(x, i) is not None:
            h.set_lowering(h.e(x, i), i, x)
        if h.f(x, i) is not None:
            h.set_raising(h.f(x, i), i, x)
    return h


def long_string(m: int, frozen: int | None = None):
    """B(m) of rank 2, one f_1-string v0 -> v1 -> ... -> v<m>, where v<j>
    has weight (m - j, j), eps_1 = j and phi_1 = m - j. With ``frozen`` 2
    (or 1), the same string at rank 3 runs at index 1 (or 2) beside a frozen
    index: +inf lengths there and a 0 weight entry, so no vertex up or down
    the string unfreezes it and infs fails on every edge."""
    g = QuasiCrystalGraph(2 if frozen is None else 3)
    for j in range(m + 1):
        wt, eps, phi = (m - j, j), (j,), (m - j,)
        if frozen == 2:
            wt, eps, phi = wt + (0,), eps + (POS_INF,), phi + (POS_INF,)
        elif frozen == 1:
            wt, eps, phi = (0,) + wt, (POS_INF,) + eps, (POS_INF,) + phi
        g.add_vertex(f"v{j}", wt, eps, phi)
    for j in range(m):
        g.add_edge(f"v{j}", 2 if frozen == 1 else 1, f"v{j + 1}")
    return g
