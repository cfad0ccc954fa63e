"""Standard rank-n crystal, tensor and quasi-tensor products, and their powers.

The product rule is written once, in ``_pair_row``: it gives the row of a
pair from the rows of its two factors. ``_product`` applies it to every pair
of vertices of two graphs. The powers and the content crystals apply it to
one letter prepended to a word: ``_power`` to every distinct row of the
shorter words at once, a level at a time, and ``WordCrystal`` word by word.

Vertices of products are identified with words over {1..n}: the pair (x, y)
with x on the left carries the word of y followed by the word of x, so the
left-iterated k-th power has the length-k words as vertex ids (digit strings
for n <= 9, dash-separated otherwise).
"""

from __future__ import annotations

import itertools
import os
from operator import add, mul

from .graphcore import POS_INF, QuasiCrystalGraph, _plain, is_crystal
from .weightlattice import check_rank

Word = tuple[int, ...]

DEFAULT_SIZE_CAP = 10**6
SIZE_CAP_ENV = "QCK_SIZE_CAP"


class SizeCapExceeded(ValueError):
    """A requested construction would be larger than the size cap allows."""


def positive_cap(raw, source: str) -> int:
    """raw (an int, or a string read by the readers' plain-integer rule) as a size
    cap, an int of at least 1; ``source`` names the setting in the one-line refusal."""
    try:
        cap = int(_plain(raw)) if isinstance(raw, str) else raw
    except ValueError:
        cap = None
    if isinstance(cap, bool) or not isinstance(cap, int):
        raise ValueError(f"{source} must be an integer, got {raw!r}")
    if cap < 1:
        raise ValueError(f"{source} must be positive")
    return cap


def default_size_cap() -> int:
    raw = os.environ.get(SIZE_CAP_ENV)
    return DEFAULT_SIZE_CAP if raw is None else positive_cap(raw, SIZE_CAP_ENV)


def _size_cap(size_cap) -> int:
    """A constructor's ``size_cap`` argument, the default when it is None."""
    return default_size_cap() if size_cap is None else positive_cap(size_cap, "size_cap")


def _id_sep(n: int) -> str:
    """What joins the letters of a word id: nothing while every letter is one digit."""
    return "" if n <= 9 else "-"


def word_to_id(word: Word, n: int) -> str:
    if any(not 1 <= a <= n for a in word):
        raise ValueError(f"word letters must lie in 1..{n}: {word}")
    return _id_sep(n).join(str(a) for a in word)


def _join_ids(left_id: str, right_id: str, n: int) -> str:
    # the pair (left, right) reads as the word "right then left"
    return right_id + _id_sep(n) + left_id


def _letter_row(c: int, n: int, up=None, down=None) -> tuple:
    """The row (wt, eps, phi, e, f) of the letter c: wt = e_c, eps_i = [c = i + 1],
    phi_i = [c = i], and e_i and f_i, where they act, name ``up`` and ``down``."""
    wt = tuple(1 if a == c else 0 for a in range(1, n + 1))
    eps = tuple(1 if c == i + 1 else 0 for i in range(1, n))
    phi = tuple(1 if c == i else 0 for i in range(1, n))
    return wt, eps, phi, [up if v else None for v in eps], [down if v else None for v in phi]


def standard_crystal(n: int, size_cap: int | None = None) -> QuasiCrystalGraph:
    """The n-vertex chain: wt(j) = e_j, lowering edges j -> j+1 labelled j.

    It stores n * (n - 1) string lengths, which the size cap bounds."""
    check_rank(n)
    cap = _size_cap(size_cap)
    if n * (n - 1) > cap:
        raise SizeCapExceeded(f"{n}*{n - 1} = {n * (n - 1)} string lengths exceeds the size cap {cap}")
    g = QuasiCrystalGraph(n)
    ids = [None] + [word_to_id((j,), n) for j in range(1, n + 1)] + [None]
    for j in range(1, n + 1):
        g._put_vertex(ids[j], *_letter_row(j, n, ids[j - 1], ids[j + 1]))
    return g


def _pair_row(left: tuple, right: tuple, blocking: bool) -> tuple:
    """The row (wt, eps, phi, e, f) of the pair (left, right) from the rows of
    its factors, whose e and f entries already name targets in the product.
    blocking=True gives the quasi version.

    Per index i:
      - with blocking, phi_i(left) > 0 and eps_i(right) > 0 freezes the
        index: both string lengths become +inf and neither e nor f acts;
      - otherwise eps = max(eps_i(left), eps_i(right) - <wt(left), alpha_i>),
        phi = max(phi_i(left) + <wt(right), alpha_i>, phi_i(right)),
        e acts on the left iff phi_i(left) >= eps_i(right), f on the left iff
        phi_i(left) > eps_i(right).
    The e and f entries are picked independently by those rules; their
    mutual inverseness is a checked property, not an assumption. Only finite
    lengths are shifted: an infinite one (a float) is kept as the stored
    object, so every infinity in the row is POS_INF or NEG_INF itself.
    """
    wt_l, eps_l, phi_l, e_l, f_l = left
    wt_r, eps_r, phi_r, e_r, f_r = right
    eps, phi, e, f = [], [], [], []
    for s in range(len(eps_l)):  # slot s is index i = s + 1
        phi_s, eps_s = phi_l[s], eps_r[s]
        if blocking and phi_s > 0 and eps_s > 0:
            eps.append(POS_INF)
            phi.append(POS_INF)
            e.append(None)
            f.append(None)
            continue
        eps.append(max(eps_l[s], eps_s if type(eps_s) is float else eps_s - (wt_l[s] - wt_l[s + 1])))
        phi.append(max(phi_s if type(phi_s) is float else phi_s + (wt_r[s] - wt_r[s + 1]), phi_r[s]))
        e.append(e_l[s] if phi_s >= eps_s else e_r[s])
        f.append(f_l[s] if phi_s > eps_s else f_r[s])
    return tuple(map(add, wt_l, wt_r)), tuple(eps), tuple(phi), tuple(e), tuple(f)


def _product(a: QuasiCrystalGraph, b: QuasiCrystalGraph, blocking: bool) -> QuasiCrystalGraph:
    """Every pair of a vertex of a and a vertex of b, by ``_pair_row`` on the
    factors' stored rows; blocking=True gives the quasi version."""
    if a.n != b.n:
        raise ValueError(f"rank mismatch: {a.n} vs {b.n}")
    n = a.n

    def row(h, x, target):
        """x's row in h, with its e and f entries mapped into the product."""
        e = [None if y is None else target(y) for y in h._e[x]]
        f = [None if y is None else target(y) for y in h._f[x]]
        return h._wt[x], h._eps[x], h._phi[x], e, f

    g = QuasiCrystalGraph(n)
    share = {}.setdefault  # one tuple per distinct weight or length row
    for xa in a.vertex_ids():
        for xb in b.vertex_ids():
            left = row(a, xa, lambda y: _join_ids(y, xb, n))
            right = row(b, xb, lambda y: _join_ids(xa, y, n))
            wt, eps, phi, e, f = _pair_row(left, right, blocking)
            vid = _join_ids(xa, xb, n)
            if vid in g:  # ids of unequal length can join to one id, as "23"+"1" and "3"+"12"
                raise ValueError(f"pair id {vid!r} is given to two pairs of vertices")
            g._put_vertex(vid, share(wt, wt), share(eps, eps), share(phi, phi), list(e), list(f))
    return g


def _check_power_rank(n) -> int:
    """n, refused unless it is an int of at least 2, the least rank with an edge."""
    if not isinstance(n, int) or n < 2:
        raise ValueError("power constructions need n >= 2")
    return n


def _step(word: Word, p: int, d: int) -> Word:
    """word with its letter at position p from the end changed by d: f_i acts
    there with d = 1 and e_i with d = -1."""
    q = len(word) - 1 - p
    return word[:q] + (word[q] + d,) + word[q + 1:]


class WordCrystal:
    """The left-iterated power of the standard crystal, evaluated on words.

    The word ``(c,) + rest`` is the pair (rest, c), so its row is
    ``_pair_row`` of the rows of rest and of the letter c. A row's weight sums
    to its word's length, which fixes the letter's row, so rows are memoized
    per (row of rest, letter): a word's row is a fold over its letters from
    the end. e and f entries are the position, counted from the end of the
    word, of the letter they change, so a suffix's entries hold in every word
    that ends with it. Equal row entries are one object, which graphs store
    as it is. The content crystals walk it; ``_power`` builds whole powers by
    the same rule without it.
    """

    def __init__(self, n: int):
        self.n = _check_power_rank(n)
        self._zero = None  # the empty word's row, made with the first word's
        self._next: dict[tuple[tuple, int], tuple] = {}  # (row of rest, c) -> row of (c,) + rest
        self._letters: dict[tuple[int, int], tuple] = {}  # (length of rest, c) -> the letter's row
        self._shared: dict[tuple, tuple] = {}  # each distinct entry of a row, once

    def row(self, word: Word) -> tuple:
        """The row (wt, eps, phi, e, f) of word."""
        if self._zero is None:  # made here, so a construction refused for its size holds no row of length n
            self._zero = tuple(map(tuple, _letter_row(0, self.n)))  # no letter is 0: the zero row
        row, memo = self._zero, self._next
        for c in reversed(word):
            new = memo.get((row, c))
            if new is None:
                p = sum(row[0])  # the length of rest, the position of c from the end
                if (p, c) not in self._letters:
                    self._letters[(p, c)] = _letter_row(c, self.n, p, p)
                new = _pair_row(row, self._letters[(p, c)], False)
                new = memo[(row, c)] = tuple(map(self._shared.setdefault, new, new))
            row = new
        return row

    def component(self, top: Word) -> dict[Word, tuple]:
        """Each word reached from ``top`` by lowering operators, with its row."""
        rows = {top: self.row(top)}
        todo = [top]
        while todo:
            word = todo.pop()
            for p in rows[word][4]:
                if p is not None:
                    y = _step(word, p, 1)
                    if y not in rows:
                        rows[y] = self.row(y)
                        todo.append(y)
        return rows

    def graph(self, rows: dict[Word, tuple]) -> QuasiCrystalGraph:
        """The subgraph of the power on the words of ``rows``, each mapped to
        its row. Its e and f tables are both read off the rows' positions, so
        ``validate`` still tests each against the other."""
        ids = {x: word_to_id(x, self.n) for x in rows}

        def targets(x, positions, d):
            return [None if p is None else ids.get(_step(x, p, d)) for p in positions]

        g = QuasiCrystalGraph(self.n)
        for x, vid in ids.items():
            wt, eps, phi, e, f = rows[x]
            g._put_vertex(vid, wt, eps, phi, targets(x, e, -1), targets(x, f, 1))
        return g


def tensor(a: QuasiCrystalGraph, b: QuasiCrystalGraph) -> QuasiCrystalGraph:
    """Classical tensor product; both operands must be crystals."""
    if not is_crystal(a) or not is_crystal(b):
        raise ValueError("classical tensor requires crystal operands (no +inf lengths)")
    return _product(a, b, blocking=False)


def quasi_tensor(a: QuasiCrystalGraph, b: QuasiCrystalGraph) -> QuasiCrystalGraph:
    """Quasi-tensor product (the blocking clause may introduce loops)."""
    return _product(a, b, blocking=True)


def _power(n: int, k: int, size_cap, blocking: bool) -> QuasiCrystalGraph:
    """The graph of all n^k words, built a level at a time.

    Word w of k letters is the w-th of ``itertools.product`` in word order,
    so its letter at position p from the end weighs n**p in w: f acting there
    gives word w + n**p, and e gives w - n**p. The words of L + 1 letters are
    each letter c prepended to the words of L, and the row of (c,) + rest is
    ``_pair_row`` of rest's row and c's, as in ``WordCrystal``. Equal rows are
    one object, so ``_pair_row`` runs once per distinct row and letter of a level.
    """
    _check_power_rank(n)
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ValueError("k must be a positive integer")
    cap = _size_cap(size_cap)
    # n, n^2, ..., n^k up to the first past the cap: n**k itself may take seconds
    if any(size > cap for size in itertools.accumulate(itertools.repeat(n, k), mul)):
        # n**k < 2**(k * n.bit_length()): at most 3,011 digits, within Python's int-to-string limit
        shown = f" = {n**k}" if k * n.bit_length() <= 10_000 else ""
        raise SizeCapExceeded(f"{n}^{k}{shown} vertices exceeds the size cap {cap}")
    if k == 1:  # for k > 1, n * (n - 1) < n**k: the standard crystal's cap holds too
        return standard_crystal(n, size_cap=cap)
    shared = {}  # each distinct tuple in a row, once
    rows = [_letter_row(0, n)]  # a level's distinct rows; no letter is 0: the empty word's zero row
    row_of = [0]  # each word's index into rows
    for p in range(k):
        index = {}  # each distinct row of the new level -> its index in the new rows
        tables = []  # per letter c, the index of (c,) + rest's row by the index of rest's
        for c in range(1, n + 1):
            letter = _letter_row(c, n, p, p)
            table = []
            for row in rows:
                new = _pair_row(row, letter, blocking)
                table.append(index.setdefault(tuple(map(shared.setdefault, new, new)), len(index)))
            tables.append(table)
        rows = list(index)
        row_of = [table[r] for table in tables for r in row_of]
    ids = list(map(_id_sep(n).join, itertools.product([str(c) for c in range(1, n + 1)], repeat=k)))
    place = [n**p for p in range(k)]  # what the letter at position p from the end weighs in w
    g = QuasiCrystalGraph(n)
    for w, (vid, r) in enumerate(zip(ids, row_of)):
        wt, eps, phi, e, f = rows[r]
        e = [None if p is None else ids[w - place[p]] for p in e]
        f = [None if p is None else ids[w + place[p]] for p in f]
        g._put_vertex(vid, wt, eps, phi, e, f)
    return g


def tensor_power(n: int, k: int, size_cap: int | None = None) -> QuasiCrystalGraph:
    """Left-iterated classical power of the standard crystal."""
    return _power(n, k, size_cap, blocking=False)


def quasi_tensor_power(n: int, k: int, size_cap: int | None = None) -> QuasiCrystalGraph:
    """Left-iterated quasi power; vertex ids are the length-k words."""
    return _power(n, k, size_cap, blocking=True)
