"""Type A weight lattice helpers plus the tableau combinatorics used for counting.

Weights are plain int tuples of length n, kept as raw vectors; nothing here
quotients by (1,...,1).
"""

from __future__ import annotations

from collections import Counter
from math import prod

Weight = tuple[int, ...]
Partition = tuple[int, ...]
Composition = tuple[int, ...]
# A standard tableau is stored as a tuple of rows, each row a tuple of ints.
Tableau = tuple[tuple[int, ...], ...]


def check_rank(n) -> int:
    """n itself when it is a positive int; a bool is not a rank."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    return n


def is_partition(shape) -> bool:
    parts = tuple(shape)
    if not parts or any(isinstance(p, bool) or not isinstance(p, int) or p <= 0 for p in parts):
        return False
    return all(parts[k] >= parts[k + 1] for k in range(len(parts) - 1))


def check_partition(shape) -> Partition:
    parts = tuple(shape)
    if not is_partition(parts):
        raise ValueError(f"not a partition (weakly decreasing positive parts): {parts}")
    return parts


def check_composition(alpha) -> Composition:
    parts = tuple(alpha)
    if not parts or any(isinstance(p, bool) or not isinstance(p, int) or p <= 0 for p in parts):
        raise ValueError(f"not a composition (positive parts): {parts}")
    return parts


def enumerate_syt(shape) -> list[Tableau]:
    """All standard fillings of a partition shape, entries 1..m.

    Grown one entry at a time: entry k goes at the end of every row that is
    shorter than its part and, below the first row, shorter than the row
    above. Rows increase left to right, columns top to bottom, each of 1..m
    used once; the output is sorted.
    """
    parts = check_partition(shape)
    level: list[Tableau] = [((),) * len(parts)]
    for k in range(1, sum(parts) + 1):
        level = [
            t[:r] + (t[r] + (k,),) + t[r + 1:]
            for t in level
            for r in range(len(parts))
            if len(t[r]) < parts[r] and (r == 0 or len(t[r]) < len(t[r - 1]))
        ]
    return sorted(level)


def _cells_with_hooks(parts: Partition) -> list[tuple[int, int, int]]:
    """(row, column, hook length) of every cell, rows and columns from 0."""
    conj = [sum(1 for row in parts if row > c) for c in range(parts[0])]
    return [
        (r, c, parts[r] - c + conj[c] - r - 1) for r in range(len(parts)) for c in range(parts[r])
    ]


def _quotient(num, den) -> int:
    """prod(num) // prod(den) for an exact quotient, equal factors cancelled
    first: the hook formulas divide |shape|!-sized products."""
    num, den = Counter(num), Counter(den)
    return prod(a**k for a, k in (num - den).items()) // prod(b**k for b, k in (den - num).items())


def syt_count(shape) -> int:
    """Number of standard tableaux of a partition shape (hook-length formula)."""
    parts = check_partition(shape)
    return _quotient(range(1, sum(parts) + 1), (h for _, _, h in _cells_with_hooks(parts)))


def ssyt_count(shape, n: int) -> int:
    """Number of semistandard tableaux of a partition shape with entries in
    1..n (hook-content formula)."""
    cells = _cells_with_hooks(check_partition(shape))
    check_rank(n)
    return _quotient((n + c - r for r, c, _ in cells), (h for _, _, h in cells))


def entry_rows(t: Tableau) -> tuple[int, ...]:
    """The row, counted from 1, of each entry 1..m of a standard tableau."""
    m = sum(len(row) for row in t)
    if m == 0:
        raise ValueError("empty tableau")
    row_of = {entry: r for r, row in enumerate(t, start=1) for entry in row}
    if sorted(row_of) != list(range(1, m + 1)):
        raise ValueError("tableau entries must be exactly 1..m")
    return tuple(row_of[j] for j in range(1, m + 1))


def descent_composition(t: Tableau) -> Composition:
    """Composition of m recording the descents of a standard tableau.

    j is a descent when j+1 sits in a strictly lower row; the composition's
    partial sums are exactly the descent positions.
    """
    rows = entry_rows(t)
    m = len(rows)
    descents = [j for j in range(1, m) if rows[j] > rows[j - 1]]
    bounds = [0] + descents + [m]
    comp = tuple(bounds[k + 1] - bounds[k] for k in range(len(bounds) - 1))
    assert sum(comp) == m
    return comp
