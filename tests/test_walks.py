"""The i-string walks of is_seminormal and check_cor_infs.

Each index's strings are walked once: a walk stops where an earlier walk
passed. Both checkers must report what a walk from every vertex reports
(oracles.seminormal_via_accessors and oracles.cor_infs_via_walks), also with
``around``, and read a number of rows linear in the graph. The oracles are
quadratic in a string's length, so the strings they see are short.
"""

import random

import pytest

from qck.axioms import _infs, check_cor_infs
from qck.graphcore import QuasiCrystalGraph, is_seminormal
from qck.mutation import fuzz_graph

import oracles
from corpus import long_string, witness_plan


def cyclic_chains():
    """(tag, graph): frozen strings of 31 vertices whose e- or f-chain is
    bent into a cycle, whole or behind a tail, some with a vertex that
    unfreezes on the cycle or on the tail."""
    whole = long_string(30, frozen=2)
    whole.set_raising("v0", 1, "v30")  # e_1: v30 -> ... -> v0 -> v30
    whole.set_epsilon("v0", 1, 4)
    yield "whole e-cycle", whole
    for tag, unfrozen in (("", None), (" unfrozen on the cycle", "v15"), (" unfrozen on the tail", "v25")):
        g = long_string(30, frozen=2)
        g.set_raising("v10", 1, "v20")  # e_1: v30 -> ... -> v21, then v20 -> ... -> v10 -> v20
        if unfrozen:
            g.set_epsilon(unfrozen, 2, 2)
        yield "tailed e-cycle" + tag, g
    down = long_string(30, frozen=1)
    down.set_lowering("v30", 2, "v0")  # f_2: v0 -> ... -> v30 -> v0
    down.set_phi("v30", 2, 3)
    yield "whole f-cycle", down


def walk_cases():
    yield from witness_plan()
    yield "n=2 string", long_string(300)
    yield "n=3 frozen at 2", long_string(300, frozen=2)
    yield "n=3 frozen at 1", long_string(300, frozen=1)
    yield from cyclic_chains()


@pytest.fixture(scope="module")
def cases():
    return list(walk_cases())


def test_walks_round_a_cycle_exceed_the_vertex_count_and_never_unfreeze():
    # (vertices whose chain exceeds the 31 vertices, infs witnesses): every
    # edge fails infs but those whose walk meets the unfrozen vertex first
    want = {
        "whole e-cycle": (31, 31),
        "tailed e-cycle": (21, 30),
        "tailed e-cycle unfrozen on the cycle": (21, 10),
        "tailed e-cycle unfrozen on the tail": (21, 26),
        "whole f-cycle": (31, 30),
    }
    got = {}
    for tag, g in cyclic_chains():
        exceeds = [w for w in is_seminormal(g).witnesses if w.observed.endswith("chain exceeds 31 vertices")]
        got[tag] = (len(exceeds), len(_infs(g, None).witnesses))
    assert got == want


def test_walks_match_the_walk_from_every_vertex(cases):
    infs = 0
    for tag, g in cases:
        assert is_seminormal(g).lines() == oracles.seminormal_via_accessors(g).lines(), tag
        want = oracles.cor_infs_via_walks(g).lines()
        assert _infs(g, None).lines() == want, tag
        infs += bool(want)
    assert infs == 27  # 20 of the mutated corpus and the 7 frozen strings


def test_walks_around_anchors_keep_the_witnesses_anchored_there(cases):
    rng = random.Random(32)
    for tag, g in cases[::10] + cases[-8:]:
        for fast, oracle in ((is_seminormal, oracles.seminormal_via_accessors), (_infs, oracles.cor_infs_via_walks)):
            full = oracle(g).witnesses
            for size in (1, len(g) // 3):
                near = set(rng.sample(g.vertex_ids(), size))
                want = [w.line() for w in full if w.vertices[0] in near]
                assert fast(g, around=near).lines() == want, (tag, fast.__name__)


class Reads(dict):
    """A row table that counts its lookups by key."""

    count = 0

    def __getitem__(self, key):
        self.count += 1
        return dict.__getitem__(self, key)


def counted(g: QuasiCrystalGraph) -> QuasiCrystalGraph:
    g._e, g._f = Reads(g._e), Reads(g._f)
    return g


def reads(g: QuasiCrystalGraph) -> int:
    """The e and f rows read since the last call."""
    got = g._e.count + g._f.count
    g._e.count = g._f.count = 0
    return got


@pytest.mark.parametrize("frozen", [None, 2, 1])
def test_a_long_string_is_walked_in_reads_linear_in_its_length(frozen):
    # a walk from every vertex read about |V|^2 / 2 rows: 4.5 million here
    g = counted(long_string(3000, frozen))
    bound = 8 * len(g) * (g.n - 1)
    reads(g)
    assert is_seminormal(g).passed
    assert reads(g) <= bound
    assert check_cor_infs(g).passed is (frozen is None)
    assert reads(g) <= bound
    # the same bound per battery: the start graph's, then one per mutant,
    # whose region is the whole string
    assert fuzz_graph(g, 4, seed=1).total == 4
    assert reads(g) <= (1 + 4) * bound
