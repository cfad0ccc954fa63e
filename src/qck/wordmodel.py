"""Standard rank-n crystal, tensor and quasi-tensor products, and their powers.

Vertices of products are identified with words over {1..n}: the pair (x, y)
with x on the left carries the word of y followed by the word of x, so the
left-iterated k-th power has the length-k words as vertex ids (digit strings
for n <= 9, dash-separated otherwise).
"""

from __future__ import annotations

import os

from .graphcore import POS_INF, QuasiCrystalGraph, is_crystal
from .weightlattice import Weight, pairing, simple_root

Word = tuple[int, ...]

DEFAULT_SIZE_CAP = 10**6
SIZE_CAP_ENV = "QCK_SIZE_CAP"


class SizeCapExceeded(ValueError):
    """A requested construction would be larger than the size cap allows."""


def default_size_cap() -> int:
    raw = os.environ.get(SIZE_CAP_ENV)
    if raw is None:
        return DEFAULT_SIZE_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{SIZE_CAP_ENV} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"{SIZE_CAP_ENV} must be positive")
    return cap


def word_to_id(word: Word, n: int) -> str:
    if any(not 1 <= a <= n for a in word):
        raise ValueError(f"word letters must lie in 1..{n}: {word}")
    if n <= 9:
        return "".join(str(a) for a in word)
    return "-".join(str(a) for a in word)


def id_to_word(vid: str, n: int) -> Word:
    if n <= 9:
        letters = tuple(int(c) for c in vid)
    else:
        letters = tuple(int(c) for c in vid.split("-"))
    if any(not 1 <= a <= n for a in letters):
        raise ValueError(f"id {vid!r} is not a word over 1..{n}")
    return letters


def word_content(word: Word, n: int) -> Weight:
    wt = [0] * n
    for a in word:
        wt[a - 1] += 1
    return tuple(wt)


def _join_ids(left_id: str, right_id: str, n: int) -> str:
    # the pair (left, right) reads as the word "right then left"
    if n <= 9:
        return right_id + left_id
    return f"{right_id}-{left_id}"


def standard_crystal(n: int, size_cap: int | None = None) -> QuasiCrystalGraph:
    """The n-vertex chain: wt(j) = e_j, lowering edges j -> j+1 labelled j.

    It stores n * (n - 1) string lengths, which the size cap bounds."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    cap = default_size_cap() if size_cap is None else size_cap
    if n * (n - 1) > cap:
        raise SizeCapExceeded(f"{n}*{n - 1} = {n * (n - 1)} string lengths exceeds the size cap {cap}")
    g = QuasiCrystalGraph(n)
    for j in range(1, n + 1):
        wt = [0] * n
        wt[j - 1] = 1
        eps = [1 if i + 1 == j else 0 for i in range(1, n)]
        phi = [1 if i == j else 0 for i in range(1, n)]
        g.add_vertex(word_to_id((j,), n), wt, eps, phi)
    for j in range(1, n):
        g.add_edge(word_to_id((j,), n), j, word_to_id((j + 1,), n))
    return g


def _product(a: QuasiCrystalGraph, b: QuasiCrystalGraph, blocking: bool) -> QuasiCrystalGraph:
    """Shared product core; blocking=True gives the quasi version.

    Per index i on a pair (x, x'):
      - with blocking, phi_i(x) > 0 and eps_i(x') > 0 freezes the index: both
        string lengths become +inf and no edge exists there;
      - otherwise eps = max(eps_i(x), eps_i(x') - <wt(x), alpha_i>),
        phi = max(phi_i(x) + <wt(x'), alpha_i>, phi_i(x')),
        e acts on the left iff phi_i(x) >= eps_i(x'), f on the left iff
        phi_i(x) > eps_i(x').
    Raising/lowering tables are built independently from those rules; their
    mutual inverseness is a checked property, not an assumption.
    """
    if a.n != b.n:
        raise ValueError(f"rank mismatch: {a.n} vs {b.n}")
    n = a.n
    g = QuasiCrystalGraph(n)
    roots = {i: simple_root(i, n) for i in range(1, n)}

    pairs = [(xa, xb) for xa in a.vertex_ids() for xb in b.vertex_ids()]
    ids = {(xa, xb): _join_ids(xa, xb, n) for xa, xb in pairs}

    actions: dict[tuple[str, str], list] = {}
    for xa, xb in pairs:
        wt_a, wt_b = a.wt(xa), b.wt(xb)
        eps_row, phi_row, acts = [], [], []
        for i in range(1, n):
            phi_a, eps_b = a.phi(xa, i), b.eps(xb, i)
            if blocking and phi_a > 0 and eps_b > 0:
                eps_row.append(POS_INF)
                phi_row.append(POS_INF)
                acts.append((None, None))
                continue
            eps_row.append(max(a.eps(xa, i), eps_b - pairing(wt_a, roots[i])))
            phi_row.append(max(phi_a + pairing(wt_b, roots[i]), b.phi(xb, i)))
            if phi_a >= eps_b:
                ea = a.e(xa, i)
                e_target = (ea, xb) if ea is not None else None
            else:
                eb = b.e(xb, i)
                e_target = (xa, eb) if eb is not None else None
            if phi_a > eps_b:
                fa = a.f(xa, i)
                f_target = (fa, xb) if fa is not None else None
            else:
                fb = b.f(xb, i)
                f_target = (xa, fb) if fb is not None else None
            acts.append((e_target, f_target))
        g.add_vertex(
            ids[(xa, xb)],
            tuple(p + q for p, q in zip(wt_a, wt_b)),
            eps_row,
            phi_row,
        )
        actions[(xa, xb)] = acts

    for pair, acts in actions.items():
        for slot, (e_target, f_target) in enumerate(acts):
            i = slot + 1
            if e_target is not None:
                g.set_raising(ids[pair], i, ids[e_target])
            if f_target is not None:
                g.set_lowering(ids[pair], i, ids[f_target])
    return g


class WordCrystal:
    """The left-iterated power ``tensor_power(n, k)``, evaluated lazily on words.

    This is the same product as ``_product(rest, standard_crystal(n),
    blocking=False)``, applied to one word at a time instead of to every
    word: the word ``(c,) + rest`` is the pair (rest, c), so its weight is
    wt(rest) + e_c and per index i it takes eps/phi and the side e and f act
    on from exactly the rule in ``_product``'s docstring.

    Words are interned as nodes, a node being a first letter plus the node
    of the rest (node 0 is the empty word), and the rule is memoized per
    node, that is over suffixes. A row records the position of the letter
    e_i/f_i would change rather than the target word, so a new node costs
    O(n) given the row of its rest, and f_i at position p makes at most
    p + 1 new nodes.
    """

    def __init__(self, n: int):
        if not isinstance(n, int) or n < 2:
            raise ValueError("power constructions need n >= 2")
        self.n = n
        none = (None,) * (n - 1)
        self._cells: list[tuple[int, int]] = [(0, 0)]  # node -> (letter, rest node)
        self._nodes: dict[tuple[int, int], int] = {}
        # node -> (wt, eps, phi, e position, f position)
        self._rows: list[tuple] = [((0,) * n, (0,) * (n - 1), (0,) * (n - 1), none, none)]

    def _rule(self, c: int, rest_row: tuple) -> tuple:
        """The row of ``(c,) + rest`` from the row of rest."""
        wt_r, eps_r, phi_r, e_r, f_r = rest_row
        wt = list(wt_r)
        wt[c - 1] += 1
        eps, phi, e_at, f_at = [], [], [], []
        for s in range(self.n - 1):  # slot s is index i = s + 1
            eps_c = 1 if c == s + 2 else 0
            phi_c = 1 if c == s + 1 else 0
            eps.append(max(eps_r[s], eps_c - (wt_r[s] - wt_r[s + 1])))
            phi.append(max(phi_r[s] + phi_c - eps_c, phi_c))
            if phi_r[s] >= eps_c:
                e_at.append(None if e_r[s] is None else e_r[s] + 1)
            else:
                e_at.append(0 if eps_c else None)
            if phi_r[s] > eps_c:
                f_at.append(None if f_r[s] is None else f_r[s] + 1)
            else:
                f_at.append(0 if phi_c else None)
        return tuple(wt), tuple(eps), tuple(phi), tuple(e_at), tuple(f_at)

    def _prepend(self, c: int, rest: int) -> int:
        """The node of the word ``(c,) + word(rest)``."""
        node = self._nodes.get((c, rest))
        if node is None:
            node = len(self._cells)
            self._nodes[(c, rest)] = node
            self._cells.append((c, rest))
            self._rows.append(self._rule(c, self._rows[rest]))
        return node

    def word(self, node: int) -> Word:
        letters = []
        while node:
            c, node = self._cells[node]
            letters.append(c)
        return tuple(letters)

    def f(self, node: int, i: int) -> int | None:
        """The node of f_i applied to the node's word, or None."""
        p = self._rows[node][4][i - 1]
        if p is None:
            return None
        head = []
        for _ in range(p):
            c, node = self._cells[node]
            head.append(c)
        c, node = self._cells[node]
        node = self._prepend(c + 1, node)
        for c in reversed(head):
            node = self._prepend(c, node)
        return node

    def highest_weight_words(self, content) -> list[int]:
        """The nodes of every highest-weight word of the given content.

        Grown by prepending letters: by the product rule every suffix of a
        highest-weight word is highest weight, so a prefix that is not can
        be dropped with everything it would grow into.
        """
        out = []
        stack = [(0, tuple(content))]
        while stack:
            rest, left = stack.pop()
            if not any(left):
                out.append(rest)
                continue
            for c in range(1, self.n + 1):
                if left[c - 1]:
                    node = self._prepend(c, rest)
                    if all(p is None for p in self._rows[node][3]):
                        stack.append((node, left[: c - 1] + (left[c - 1] - 1,) + left[c:]))
        return out

    def component(self, top: int) -> set[int]:
        """The nodes reached from ``top`` by lowering operators."""
        seen = {top}
        todo = [top]
        while todo:
            node = todo.pop()
            for i in range(1, self.n):
                y = self.f(node, i)
                if y is not None and y not in seen:
                    seen.add(y)
                    todo.append(y)
        return seen

    def graph(self, nodes) -> QuasiCrystalGraph:
        """The subgraph of the power on the given nodes, built edge by edge
        from the lowering operators as ``Component.subgraph`` does."""
        n = self.n
        g = QuasiCrystalGraph(n)
        ids = {x: word_to_id(self.word(x), n) for x in nodes}
        for x, vid in sorted(ids.items(), key=lambda item: item[1]):
            wt, eps, phi, _, _ = self._rows[x]
            g.add_vertex(vid, wt, eps, phi)
        for x, vid in ids.items():
            for i in range(1, n):
                y = self.f(x, i)
                if y is not None and y in ids:
                    g.add_edge(vid, i, ids[y])
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
    if not isinstance(n, int) or n < 2:
        raise ValueError("power constructions need n >= 2")
    if not isinstance(k, int) or k < 1:
        raise ValueError("k must be a positive integer")
    cap = default_size_cap() if size_cap is None else size_cap
    if n**k > cap:
        raise SizeCapExceeded(f"{n}^{k} = {n**k} vertices exceeds the size cap {cap}")
    base = standard_crystal(n, size_cap=cap)
    g = base
    for _ in range(k - 1):
        g = _product(g, base, blocking=blocking)
    return g


def tensor_power(n: int, k: int, size_cap: int | None = None) -> QuasiCrystalGraph:
    """Left-iterated classical power of the standard crystal."""
    return _power(n, k, size_cap, blocking=False)


def quasi_tensor_power(n: int, k: int, size_cap: int | None = None) -> QuasiCrystalGraph:
    """Left-iterated quasi power; vertex ids are the length-k words."""
    return _power(n, k, size_cap, blocking=True)
