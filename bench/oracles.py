"""Independent verdict oracles for the qck benchmark.

Nothing here imports qck: every expected value is derived from closed
formulas (multinomial coefficients, the hook-length and hook-content
formulas) or from a separate enumeration of standard Young tableaux, so a
wrong verdict from the program cannot also corrupt its reference.

Run ``python3 bench/oracles.py`` to self-check the oracles on small cases
against brute force.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter

# Verdicts the seed commit prints for the schur workload's shapes. (2,2,1)/3
# is the documented boundary of README "A boundary worth knowing about";
# (4,3,1)/4 lies below the same boundary (n < |shape| - shape[0] + 1).
KNOWN_SCHUR = {((4, 3, 1), 4): "FAIL", ((3, 2, 1), 5): "PASS", ((2, 2, 1), 3): "FAIL"}


def compositions(total: int, parts: int):
    """All tuples of `parts` non-negative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def multinomial_expansion(n: int, k: int) -> dict[tuple[int, ...], int]:
    """Coefficients of (x1 + ... + xn)^k: k! / prod(a_i!)."""
    return {
        a: math.factorial(k) // math.prod(math.factorial(p) for p in a)
        for a in compositions(k, n)
    }


_MONOMIAL = re.compile(r"^(?:(\d+)\*)?(x\d+(?:\^\d+)?(?:\*x\d+(?:\^\d+)?)*)$")


def parse_polynomial(text: str, n: int) -> dict[tuple[int, ...], int]:
    """Parse the printed form 'x1^2 + 2*x1*x2 - x3 + 4' into {exponent: coeff}."""
    terms: dict[tuple[int, ...], int] = {}
    text = text.strip()
    if text == "0":
        return terms
    tokens = text.split(" ")
    signs = ["+"] + tokens[1::2]
    bodies = tokens[0::2]
    if len(signs) != len(bodies):
        raise ValueError(f"malformed polynomial {text!r}")
    for sign, body in zip(signs, bodies):
        if sign not in "+-":
            raise ValueError(f"malformed polynomial {text!r}")
        negative = body.startswith("-")
        if negative:
            body = body[1:]
        expo = [0] * n
        if body.isdigit():
            coeff = int(body)
        else:
            m = _MONOMIAL.match(body)
            if m is None:
                raise ValueError(f"malformed monomial {body!r}")
            coeff = int(m.group(1) or 1)
            for factor in m.group(2).split("*"):
                var, _, power = factor.partition("^")
                expo[int(var[1:]) - 1] += int(power or 1)
        if (sign == "-") != negative:
            coeff = -coeff
        key = tuple(expo)
        terms[key] = terms.get(key, 0) + coeff
    return {e: c for e, c in terms.items() if c}


def _cells(shape):
    return [(r, c) for r, row in enumerate(shape) for c in range(row)]


def _conjugate(shape):
    return [sum(1 for row in shape if row > c) for c in range(shape[0])] if shape else []


def hook_length_count(shape) -> int:
    """f^shape, the number of standard Young tableaux, by the hook-length formula."""
    conj = _conjugate(shape)
    hooks = math.prod(shape[r] - c + conj[c] - r - 1 for r, c in _cells(shape))
    return math.factorial(sum(shape)) // hooks


def hook_content_count(shape, n: int) -> int:
    """#SSYT(shape) with entries in 1..n, by the hook-content formula."""
    conj = _conjugate(shape)
    num = math.prod(n + c - r for r, c in _cells(shape))
    den = math.prod(shape[r] - c + conj[c] - r - 1 for r, c in _cells(shape))
    return num // den


def standard_tableaux(shape) -> list[tuple[tuple[int, ...], ...]]:
    """Every SYT of the shape, by placing m, m-1, ..., 1 into removable corners."""
    m = sum(shape)
    out = []

    def place(rows: list[int], filled: dict, value: int) -> None:
        if value == 0:
            out.append(tuple(tuple(filled[(r, c)] for c in range(shape[r])) for r in range(len(shape))))
            return
        for r, length in enumerate(rows):
            below = rows[r + 1] if r + 1 < len(rows) else 0
            if length > below:
                rows[r] -= 1
                filled[(r, length - 1)] = value
                place(rows, filled, value - 1)
                del filled[(r, length - 1)]
                rows[r] += 1

    place(list(shape), {}, m)
    return out


def descent_composition(tableau) -> tuple[int, ...]:
    """i is a descent when i+1 sits in a strictly lower row than i."""
    row_of = {v: r for r, row in enumerate(tableau) for v in row}
    m = len(row_of)
    parts, last = [], 0
    for i in range(1, m):
        if row_of[i + 1] > row_of[i]:
            parts.append(i - last)
            last = i
    parts.append(m - last)
    return tuple(parts)


def schur_expectation(shape, n: int) -> dict:
    """What `verify schur` and `count` must report for (shape, n).

    Fundamental quasisymmetric polynomials with more than n parts vanish in
    n variables, so only tableaux whose descent composition has at most n
    parts give a component of the quasified content crystal.
    """
    shape = tuple(shape)
    comps = sorted(descent_composition(t) for t in standard_tableaux(shape))
    realized = sorted(a for a in comps if len(a) <= n)
    return {
        "terms": comps,
        "components": realized,
        "f": hook_length_count(shape),
        "verdict": "PASS" if len(realized) == len(comps) else "FAIL",
    }


def partitions(m: int, max_parts: int, cap: int | None = None):
    cap = m if cap is None else cap
    if m == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(min(m, cap), 0, -1):
        for rest in partitions(m - first, max_parts - 1, first):
            yield (first,) + rest


def word_content(word: str, n: int) -> tuple[int, ...]:
    """Weight of a word vertex id of a tensor power of the standard crystal (n <= 9)."""
    counts = Counter(int(ch) for ch in word)
    return tuple(counts[a] for a in range(1, n + 1))


# -- self-check --------------------------------------------------------------


def _brute_expansion(n: int, k: int) -> dict:
    return dict(Counter(word_content("".join(map(str, w)), n) for w in itertools.product(range(1, n + 1), repeat=k)))


def _brute_ssyt(shape, n: int) -> int:
    cells = _cells(shape)
    count = 0
    for values in itertools.product(range(1, n + 1), repeat=len(cells)):
        t = dict(zip(cells, values))
        rows_ok = all(t[(r, c)] <= t[(r, c + 1)] for r, c in cells if (r, c + 1) in t)
        cols_ok = all(t[(r, c)] < t[(r + 1, c)] for r, c in cells if (r + 1, c) in t)
        count += rows_ok and cols_ok
    return count


def self_check() -> None:
    """Raise AssertionError when an oracle disagrees with brute force."""
    for n, k in [(1, 3), (2, 4), (3, 3), (3, 4), (4, 2)]:
        if multinomial_expansion(n, k) != _brute_expansion(n, k):
            raise AssertionError(f"multinomial oracle wrong for n={n}, k={k}")
    for text, n, want in [
        ("x1^2 + 2*x1*x2 + x2^2", 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1}),
        ("-x3 + 4 - 3*x1^10*x3", 3, {(0, 0, 1): -1, (0, 0, 0): 4, (10, 0, 1): -3}),
        ("0", 2, {}),
    ]:
        if parse_polynomial(text, n) != want:
            raise AssertionError(f"polynomial parser wrong on {text!r}")
    for m in range(1, 7):
        for shape in partitions(m, m):
            tableaux = standard_tableaux(shape)
            if len(set(tableaux)) != len(tableaux) or len(tableaux) != hook_length_count(shape):
                raise AssertionError(f"hook-length oracle wrong for {shape}")
            for n in range(len(shape), 5):
                exp = schur_expectation(shape, n)
                boundary = n >= m - shape[0] + 1
                if (exp["verdict"] == "PASS") != boundary:
                    raise AssertionError(f"boundary rule disagrees for {shape}, n={n}")
                if m <= 4 and n <= 3 and hook_content_count(shape, n) != _brute_ssyt(shape, n):
                    raise AssertionError(f"hook-content oracle wrong for {shape}, n={n}")
    if descent_composition(((1, 3), (2, 4), (5,))) != (1, 2, 1, 1):
        raise AssertionError("descent composition convention changed")
    for (shape, n), verdict in KNOWN_SCHUR.items():
        if schur_expectation(shape, n)["verdict"] != verdict:
            raise AssertionError(f"known verdict for {shape}/{n} disagrees with the boundary rule")


if __name__ == "__main__":
    self_check()
    print("oracle self-check passed")
