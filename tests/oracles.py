"""Independent brute-force cross-checks used by the test suite.

Each function recomputes a quantity from first principles (usually by
exhaustive enumeration) so the tests can compare two unrelated code paths.
Nothing here imports qck at module level. Retired slow paths are kept as
differential oracles and import qck inside their bodies:
``product_via_pairs`` and ``power_via_products`` (tensor products per pair
of vertex ids through the guarded accessors, and powers as k - 1 products
of whole graphs), ``power_via_word_rule`` (the powers from the word rules
of the literature: the quasi rule of Cain and Malheiro and the classical
signature rule, neither of which restates the product rule),
``content_component_via_power`` (content crystals by power-then-pick, the
power from the signature rule), ``RowsViaSuffixMemo`` (the content
crystals' word rows memoized per suffix tuple),
``content_component_all_walks`` (content crystals by a walk of every
component with the wanted highest weight, whose top words
``highest_weight_words_via_rule`` finds by the product rule's rows),
``fuzz_via_copies`` (fuzz by copy and full battery), and the whole-graph
readers as they were written over the guarded per-entry accessors
(``validate_via_accessors``, ``seminormal_via_accessors``,
``components_via_accessors``, ``text_via_accessors``,
``json_via_accessors``), and ``quasify_via_accessors`` (quasify through the
accessors and the guarded setters), ``subgraph_via_replay`` (a
component's subgraph replayed through add_vertex and add_edge, which
rebuilds e from f), ``from_json_via_loads`` (the JSON reader over the
whole document that json.loads makes), ``from_text_via_lines`` (the text
reader over the list of every line), ``read_graph_via_whole_text`` (the file
reader over the file's whole decoded text), ``add_edge_via_guards`` (add_edge
through the guarded slot and vertex checks) and ``cor_infs_via_walks`` (the
freeze walk of check_cor_infs from every raising edge on its own; with
``seminormal_via_accessors``, quadratic in an i-string's length). Keep
everything small-input only.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from math import factorial


def hook_length_count(shape: tuple[int, ...]) -> int:
    """Number of standard fillings of a partition shape, by the hook product."""
    if not shape:
        return 1
    conj = [sum(1 for row in shape if row > c) for c in range(shape[0])]
    prod = 1
    for r, row in enumerate(shape):
        for c in range(row):
            arm = row - c - 1
            leg = conj[c] - r - 1
            prod *= arm + leg + 1
    return factorial(sum(shape)) // prod


def brute_force_syt(shape: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    """All standard fillings, found by filtering every permutation."""
    m = sum(shape)
    out = []
    for perm in itertools.permutations(range(1, m + 1)):
        grid = []
        pos = 0
        for row in shape:
            grid.append(perm[pos : pos + row])
            pos += row
        ok = all(
            grid[r][c] < grid[r][c + 1]
            for r in range(len(shape))
            for c in range(shape[r] - 1)
        ) and all(
            grid[r][c] < grid[r + 1][c]
            for r in range(len(shape) - 1)
            for c in range(shape[r + 1])
        )
        if ok:
            out.append(tuple(grid))
    return sorted(out)


def syt_descent_composition(tableau: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Composition recording maximal runs of entries that stay weakly north."""
    row_of = {v: r for r, row in enumerate(tableau) for v in row}
    m = len(row_of)
    descents = [j for j in range(1, m) if row_of[j + 1] > row_of[j]]
    bounds = [0] + descents + [m]
    return tuple(bounds[t + 1] - bounds[t] for t in range(len(bounds) - 1))


def schur_monomials(shape: tuple[int, ...], n: int) -> Counter:
    """Schur polynomial as Counter {exponent tuple: coefficient}, by filtering
    every assignment of 1..n to the cells for semistandardness."""
    cells = [(r, c) for r, row in enumerate(shape) for c in range(row)]
    out: Counter = Counter()
    if len(shape) > n:
        return out
    for values in itertools.product(range(1, n + 1), repeat=len(cells)):
        grid = dict(zip(cells, values))
        ok = True
        for (r, c), v in grid.items():
            right = grid.get((r, c + 1))
            below = grid.get((r + 1, c))
            if (right is not None and v > right) or (below is not None and v >= below):
                ok = False
                break
        if ok:
            exp = [0] * n
            for v in values:
                exp[v - 1] += 1
            out[tuple(exp)] += 1
    return out


def fundamental_monomials(alpha: tuple[int, ...], n: int) -> Counter:
    """Fundamental quasisymmetric polynomial as Counter {exponent tuple: coeff}:
    weakly increasing words with a strict rise after each part boundary."""
    m = sum(alpha)
    descents = set(itertools.accumulate(alpha[:-1]))
    out: Counter = Counter()
    for word in itertools.combinations_with_replacement(range(1, n + 1), m):
        if all(word[d - 1] < word[d] for d in descents):
            exp = [0] * n
            for v in word:
                exp[v - 1] += 1
            out[tuple(exp)] += 1
    return out


def partitions_brute(m: int, max_parts: int | None = None) -> list[tuple[int, ...]]:
    """All partitions of m, by filtering weakly decreasing compositions."""
    out = []

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(m, m, ())
    if max_parts is not None:
        out = [p for p in out if len(p) <= max_parts]
    return sorted(out, reverse=True)


def component_partition(
    vertices: list[str], arrows: dict[tuple[str, int], str]
) -> list[tuple[str, ...]]:
    """Connected pieces of the undirected view of an arrow table."""
    adj: dict[str, set[str]] = {v: set() for v in vertices}
    for (v, _i), w in arrows.items():
        adj[v].add(w)
        adj[w].add(v)
    seen: set[str] = set()
    comps = []
    for start in sorted(vertices):
        if start in seen:
            continue
        seen.add(start)
        comp = []
        queue = deque([start])
        while queue:
            u = queue.popleft()
            comp.append(u)
            for w in sorted(adj[u]):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        comps.append(tuple(sorted(comp)))
    return sorted(comps)


def bfs_distances(arrows: dict[tuple[str, int], str], start: str) -> dict[str, int]:
    """Shortest number of arrow steps from start to each vertex it reaches,
    forward edges only."""
    forward: dict[str, list[str]] = {}
    for (v, _i), w in arrows.items():
        forward.setdefault(v, []).append(w)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in forward.get(u, []):
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def product_via_pairs(a, b, blocking: bool):
    """tensor(a, b) (blocking=False) or quasi_tensor(a, b) (blocking=True),
    computed per pair of vertex ids through the guarded accessors; <wt, alpha_i>
    is read off the weight as wt[i-1] - wt[i]."""
    from qck.graphcore import POS_INF, QuasiCrystalGraph, is_crystal

    if not blocking and (not is_crystal(a) or not is_crystal(b)):
        raise ValueError("classical tensor requires crystal operands (no +inf lengths)")
    if a.n != b.n:
        raise ValueError(f"rank mismatch: {a.n} vs {b.n}")
    n = a.n
    g = QuasiCrystalGraph(n)

    def join(xa, xb):
        # the pair (xa, xb) reads as the word "xb then xa"
        return xb + xa if n <= 9 else f"{xb}-{xa}"

    pairs = [(xa, xb) for xa in a.vertex_ids() for xb in b.vertex_ids()]
    actions = {}
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
            eps_row.append(max(a.eps(xa, i), eps_b - (wt_a[i - 1] - wt_a[i])))
            phi_row.append(max(phi_a + (wt_b[i - 1] - wt_b[i]), b.phi(xb, i)))
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
        g.add_vertex(join(xa, xb), tuple(p + q for p, q in zip(wt_a, wt_b)), eps_row, phi_row)
        actions[(xa, xb)] = acts
    for (xa, xb), acts in actions.items():
        for i, (e_target, f_target) in enumerate(acts, start=1):
            if e_target is not None:
                g.set_raising(join(xa, xb), i, join(*e_target))
            if f_target is not None:
                g.set_lowering(join(xa, xb), i, join(*f_target))
    return g


def power_via_products(n: int, k: int, blocking: bool, size_cap: int | None = None):
    """tensor_power(n, k) (blocking=False) or quasi_tensor_power(n, k)
    (blocking=True) as k - 1 left-iterated products of whole graphs, with
    the same refusals in the same order."""
    from qck.wordmodel import SizeCapExceeded, default_size_cap, standard_crystal

    if not isinstance(n, int) or n < 2:
        raise ValueError("power constructions need n >= 2")
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ValueError("k must be a positive integer")
    cap = default_size_cap() if size_cap is None else size_cap
    if n**k > cap:
        raise SizeCapExceeded(f"{n}^{k} = {n**k} vertices exceeds the size cap {cap}")
    base = standard_crystal(n, size_cap=cap)
    g = base
    for _ in range(k - 1):
        g = product_via_pairs(g, base, blocking)
    return g


def _quasi_rule(word, i):
    """(eps_i, phi_i, position f_i raises, position e_i lowers) of a word by
    the quasi rule of Cain and Malheiro, None for a frozen index: i is frozen
    when some i+1 stands left of some i; otherwise eps_i counts the i+1's and
    phi_i the i's, f_i raises the rightmost i and e_i lowers the leftmost i+1."""
    ups = [p for p, a in enumerate(word) if a == i + 1]
    downs = [p for p, a in enumerate(word) if a == i]
    if ups and downs and ups[0] < downs[-1]:
        return None
    return len(ups), len(downs), downs[-1] if downs else None, ups[0] if ups else None


def _signature_rule(word, i):
    """(eps_i, phi_i, position f_i raises, position e_i lowers) of a word by
    the signature rule: each i+1 is matched with the nearest free i to its
    right; eps_i and phi_i count the unmatched i+1's and i's, f_i raises the
    rightmost unmatched i and e_i lowers the leftmost unmatched i+1."""
    ups, downs = [], []  # unmatched i+1's, unmatched i's, left to right
    for p, a in enumerate(word):
        if a == i + 1:
            ups.append(p)
        elif a == i:
            if ups:
                ups.pop()
            else:
                downs.append(p)
    return len(ups), len(downs), downs[-1] if downs else None, ups[0] if ups else None


def power_via_word_rule(n: int, k: int, blocking: bool):
    """quasi_tensor_power(n, k) (blocking=True) by the quasi rule or
    tensor_power(n, k) (blocking=False) by the signature rule, word by word
    through add_vertex, set_raising and set_lowering; neither rule is the
    product rule."""
    from qck.graphcore import POS_INF, QuasiCrystalGraph

    if not isinstance(n, int) or n < 2:
        raise ValueError("power constructions need n >= 2")
    rule = _quasi_rule if blocking else _signature_rule
    sep = "" if n <= 9 else "-"
    ids = {word: sep.join(map(str, word)) for word in itertools.product(range(1, n + 1), repeat=k)}
    g = QuasiCrystalGraph(n)
    raising, lowering = [], []
    for word, x in ids.items():
        eps, phi = [], []
        for i in range(1, n):
            found = rule(word, i)
            if found is None:
                eps.append(POS_INF)
                phi.append(POS_INF)
                continue
            eps.append(found[0])
            phi.append(found[1])
            for edges, p, a in ((lowering, found[2], i + 1), (raising, found[3], i)):
                if p is not None:
                    edges.append((x, i, ids[word[:p] + (a,) + word[p + 1 :]]))
        g.add_vertex(x, [word.count(a) for a in range(1, n + 1)], eps, phi)
    for x, i, y in raising:
        g.set_raising(x, i, y)
    for x, i, y in lowering:
        g.set_lowering(x, i, y)
    return g


def content_component_via_power(shape: tuple[int, ...], n: int):
    """The content crystal the slow way: build all n^|shape| words of the
    tensor power by the signature rule, split it into components, and keep
    the one with the least vertex id among those whose single highest weight
    is the shape."""
    from qck.structure import components
    from qck.weightlattice import check_partition, check_rank

    parts = check_partition(shape)
    check_rank(n)
    if len(parts) > n:
        raise ValueError(f"shape {parts} has more than n={n} parts")
    target = parts + (0,) * (n - len(parts))
    g = power_via_word_rule(n, sum(parts), blocking=False)
    for comp in components(g):
        if len(comp.hw_vertices) == 1 and g.wt(comp.hw_vertices[0]) == target:
            return comp.subgraph()
    raise RuntimeError(f"no component with highest weight {target} found")


class RowsViaSuffixMemo:
    """The rows of ``WordCrystal(n)`` as its memo once kept them, one per
    suffix tuple: a word's row comes from the row of its longest suffix with
    a row, each shorter suffix's row is made by ``_pair_row`` and stored under
    its own slice. ``calls`` counts those ``_pair_row`` calls, one per
    distinct nonempty suffix of the words asked for. It holds memory cubic in
    the length of a one-row shape, so keep the words short.
    """

    def __init__(self, n: int):
        from qck.wordmodel import _letter_row

        self.n = n
        self.rows = {(): _letter_row(0, n)}
        self.calls = 0

    def row(self, word: tuple[int, ...]) -> tuple:
        from qck.wordmodel import _letter_row, _pair_row

        new = 0
        while word[new:] not in self.rows:
            new += 1
        row = self.rows[word[new:]]
        for j in reversed(range(new)):
            p = len(word) - 1 - j
            row = _pair_row(row, _letter_row(word[j], self.n, p, p), False)
            self.calls += 1
            self.rows[word[j:]] = row
        return row


def highest_weight_words_via_rule(words, content) -> list[tuple[int, ...]]:
    """Every highest-weight word of the given content in the classical power
    ``words`` (a ``WordCrystal``), read off the product rule's rows.

    Grown by prepending letters: by the product rule every suffix of a
    highest-weight word is highest weight, and ``(c,) + rest`` with rest
    highest weight is so iff c = 1 or phi_{c-1}(rest) > 0. The quasi power
    breaks that pruning, since a frozen index hides a suffix's raising edge.
    """
    out = []
    stack = [((), tuple(content))]
    while stack:
        rest, left = stack.pop()
        if not any(left):
            out.append(rest)
            continue
        phi = words.row(rest)[2]
        for c in range(1, words.n + 1):
            if left[c - 1] and (c == 1 or phi[c - 2] > 0):
                stack.append(((c,) + rest, left[: c - 1] + (left[c - 1] - 1,) + left[c:]))
    return out


def content_component_all_walks(shape: tuple[int, ...], n: int):
    """The content crystal by walking the component of every highest-weight
    word of content shape, then keeping the one with the least vertex id."""
    from qck.weightlattice import check_partition
    from qck.wordmodel import WordCrystal, word_to_id

    parts = check_partition(shape)
    if len(parts) > n:
        raise ValueError(f"shape {parts} has more than n={n} parts")
    words = WordCrystal(n)
    target = parts + (0,) * (n - len(parts))
    comps = [words.component(top) for top in highest_weight_words_via_rule(words, target)]
    return words.graph(min(comps, key=lambda comp: min(word_to_id(x, n) for x in comp)))


def quasi_power_highest_weights(n: int, k: int) -> Counter:
    """The highest weights of the components of the quasi power q(n, k), from
    the decomposition of (x_1 + ... + x_n)^k into fundamentals: one component
    of highest weight alpha, padded to n, for each permutation of 1..k whose
    descent composition alpha has at most n parts."""
    out = Counter()
    for sigma in itertools.permutations(range(1, k + 1)):
        descents = [j for j in range(1, k) if sigma[j - 1] > sigma[j]]
        if len(descents) < n:
            bounds = [0] + descents + [k]
            alpha = tuple(bounds[t + 1] - bounds[t] for t in range(len(bounds) - 1))
            out[alpha + (0,) * (n - len(alpha))] += 1
    return out


def rsk_recording(word) -> tuple[tuple[int, ...], ...]:
    """The recording tableau Q(word) of RSK row insertion, the letters
    inserted left to right; the crystal operators keep it (Lascoux and
    Schuetzenberger), so it names a word's component in a tensor power."""
    insertion: list[list[int]] = []
    recording: list[list[int]] = []
    for step, a in enumerate(word, start=1):
        r = 0
        while r < len(insertion):
            row = insertion[r]
            j = next((j for j, b in enumerate(row) if b > a), None)
            if j is None:
                break
            row[j], a = a, row[j]  # bump the least entry greater than a
            r += 1
        if r == len(insertion):
            insertion.append([])
            recording.append([])
        insertion[r].append(a)
        recording[r].append(step)
    return tuple(map(tuple, recording))


def standardize(word) -> tuple[int, ...]:
    """std(word): the permutation that numbers the letters of word 1, 2, ...
    from the least letter up, equal letters left to right; the quasi
    operators keep it, so it names a word's component in a quasi power."""
    order = sorted(range(len(word)), key=lambda p: (word[p], p))
    std = [0] * len(word)
    for rank, p in enumerate(order, start=1):
        std[p] = rank
    return tuple(std)


def fuzz_via_copies(g, count: int, seed: int):
    """Fuzz the slow way: every mutant is a fresh copy of g run through the
    whole battery. A silent one is valid only if it re-validates in full and
    it moves the weight of a vertex whose string lengths are all +inf."""
    import random

    from qck.graphcore import POS_INF, is_seminormal, validate
    from qck.mutation import FuzzResult, random_mutation, run_detectors

    rng = random.Random(seed)
    detected = 0
    silent = []
    for _ in range(count):
        mutant, m = random_mutation(g, rng)
        x = m.vertex
        frozen = all(mutant.eps(x, i) == POS_INF == mutant.phi(x, i) for i in mutant.index_set)
        if run_detectors(mutant):
            detected += 1
        elif validate(mutant).passed and is_seminormal(mutant).passed and m.kind == "weight" and frozen:
            silent.append((m, "mutant is itself a coherent seminormal quasi-crystal"))
        else:
            silent.append((m, "unclassified gap"))
    return FuzzResult(count, detected, silent)


def validate_via_accessors(g):
    """graphcore.validate, reading every entry through g.eps(x, i) and the
    other guarded accessors; <wt, alpha_i> and wt + alpha_i are read off the
    weight's entries i-1 and i."""
    from qck.graphcore import NEG_INF, POS_INF, AxiomReport, Witness, ext_str

    ws = []
    ids = g._wt.keys()
    for x in g.vertex_ids():
        for i in g.index_set:
            eps, phi = g.eps(x, i), g.phi(x, i)
            ex, fx = g.e(x, i), g.f(x, i)
            for tag, target in (("e", ex), ("f", fx)):
                if target is not None and target not in ids:
                    ws.append(
                        Witness("structural", (x,), (i,), f"{tag}->{target}", "target must be a vertex")
                    )
            wt = g.wt(x)
            expected_phi = eps + (wt[i - 1] - wt[i])
            if phi != expected_phi:
                ws.append(
                    Witness(
                        "Q2", (x,), (i,), f"phi={ext_str(phi)}", f"eps+<wt,alpha>={ext_str(expected_phi)}"
                    )
                )
            if eps == NEG_INF or phi == NEG_INF:
                if ex is not None or fx is not None:
                    ws.append(
                        Witness("Q3", (x,), (i,), "edge at -inf index", "no e/f where a length is -inf")
                    )
            if eps == POS_INF or phi == POS_INF:
                if ex is not None or fx is not None:
                    ws.append(
                        Witness("Q4", (x,), (i,), "edge at +inf index", "no e/f where a length is +inf")
                    )
            if ex is not None and ex in ids:
                y = ex
                if g.f(y, i) != x:
                    ws.append(
                        Witness("Q1", (x, y), (i,), f"f_{i}({y})={g.f(y, i)}", f"inverse of e_{i}({x})={y}")
                    )
                if g.wt(y) != wt[:i - 1] + (wt[i - 1] + 1, wt[i] - 1) + wt[i + 1:]:
                    ws.append(Witness("Q1", (x, y), (i,), f"wt({y})={g.wt(y)}", f"wt({x})+alpha_{i}"))
                if g.eps(y, i) != eps - 1:
                    ws.append(
                        Witness(
                            "Q1",
                            (x, y),
                            (i,),
                            f"eps_{i}({y})={ext_str(g.eps(y, i))}",
                            f"eps_{i}({x})-1={ext_str(eps - 1)}",
                        )
                    )
                if g.phi(y, i) != phi + 1:
                    ws.append(
                        Witness(
                            "Q1",
                            (x, y),
                            (i,),
                            f"phi_{i}({y})={ext_str(g.phi(y, i))}",
                            f"phi_{i}({x})+1={ext_str(phi + 1)}",
                        )
                    )
            if fx is not None and fx in ids and g.e(fx, i) != x:
                ws.append(
                    Witness("Q1", (x, fx), (i,), f"e_{i}({fx})={g.e(fx, i)}", f"inverse of f_{i}({x})={fx}")
                )
    return AxiomReport("validate", ws)


def seminormal_via_accessors(g):
    """graphcore.is_seminormal, walking each chain through g.e and g.f."""
    from qck.graphcore import POS_INF, AxiomReport, Witness, ext_str

    ws = []
    for x in g.vertex_ids():
        for i in g.index_set:
            for field_name, length, step in (("eps", g.eps(x, i), g.e), ("phi", g.phi(x, i), g.f)):
                if length == POS_INF:
                    continue
                k, z, cyclic = 0, x, False
                while True:
                    nxt = step(z, i)
                    if nxt is None:
                        break
                    k += 1
                    if k > len(g):
                        cyclic = True
                        break
                    z = nxt
                if cyclic:
                    ws.append(
                        Witness(
                            "seminormal",
                            (x,),
                            (i,),
                            f"{field_name} chain exceeds {len(g)} vertices",
                            "finite acyclic chain",
                        )
                    )
                elif length != k:
                    ws.append(
                        Witness("seminormal", (x,), (i,), f"{field_name}={ext_str(length)}", f"chain length {k}")
                    )
    return AxiomReport("seminormal", ws)


def cor_infs_via_walks(g, around=None):
    """axioms.check_cor_infs without its guard, as it was before it walked each
    i-string once: every raising edge walks its own way up the string, for at
    most len(g) + 1 steps."""
    from qck.axioms import _Sense
    from qck.graphcore import POS_INF, AxiomReport, Witness, ext_str

    ws = []
    senses = (_Sense(g, True), _Sense(g, False))
    indices = g.index_set
    limit = len(g) + 1
    for x, i, y in g.raising_edges(around):
        for s in senses:
            j = i + s.d
            if j not in indices:
                continue
            E, L, w = s.e, s.eps, s.w
            near, far = s.pair(x, y)
            if L[far][j - 1] is not POS_INF:
                continue
            if L[near][j - 1] is not POS_INF:
                ws.append(
                    Witness(
                        w.infs,
                        (x, y),
                        (i, j),
                        f"{w.eps}_{j}({w.near})={ext_str(L[near][j - 1])}",
                        f"+inf must propagate {w.edge} the edge",
                    )
                )
            z = far
            found = False
            for _ in range(limit):
                if L[z][i - 1] == 0 or L[z][i - 1] is POS_INF:
                    break
                nxt = E[z][i - 1]
                if nxt is None:
                    break
                z = nxt
                if L[z][j - 1] != 0 and L[z][j - 1] is not POS_INF:
                    found = True
                    break
            if not found:
                ws.append(
                    Witness(
                        w.infs,
                        (x, y),
                        (i, j),
                        f"no unfreezing vertex {w.chain} the chain",
                        f"some {w.e}_i^k({w.far}) with finite positive {w.eps}_{{i{w.pm}1}}",
                    )
                )
    return AxiomReport("infs", ws)


def components_via_accessors(g) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """(vertices, highest-weight vertices) of each component, in the order of
    structure.components, found through g.e and g.f."""
    seen: set[str] = set()
    comps = []
    for start in g.vertex_ids():
        if start in seen:
            continue
        block = []
        queue = deque([start])
        seen.add(start)
        while queue:
            x = queue.popleft()
            block.append(x)
            for i in g.index_set:
                for nbr in (g.e(x, i), g.f(x, i)):
                    if nbr is not None and nbr not in seen:
                        seen.add(nbr)
                        queue.append(nbr)
        block.sort()
        hw = tuple(x for x in block if all(g.e(x, i) is None for i in g.index_set))
        comps.append((tuple(block), hw))
    comps.sort(key=lambda c: c[0][0])
    return comps


def subgraph_via_replay(comp):
    """structure.Component.subgraph, replaying each member's row through
    add_vertex and each f edge between members through add_edge."""
    from qck.graphcore import QuasiCrystalGraph

    g = comp.graph
    sub_g = QuasiCrystalGraph(g.n)
    members = set(comp.vertices)
    for x in comp.vertices:
        sub_g.add_vertex(x, g._wt[x], g._eps[x], g._phi[x])
    for x in comp.vertices:
        for i, y in enumerate(g._f[x], start=1):
            if y is not None and y in members:
                sub_g.add_edge(x, i, y)
    return sub_g


def text_via_accessors(g) -> str:
    """graphcore.to_text through the accessors."""
    from qck.graphcore import FORMAT_NAME, FORMAT_VERSION, ext_str

    def csv(values):
        values = list(values)
        return ",".join(values) if values else "-"

    lines = [f"{FORMAT_NAME} v{FORMAT_VERSION}", f"n {g.n}"]
    for x in g.vertex_ids():
        lines.append(
            "vertex {} {} {} {}".format(
                x,
                csv(str(c) for c in g.wt(x)),
                csv(ext_str(g.eps(x, i)) for i in g.index_set),
                csv(ext_str(g.phi(x, i)) for i in g.index_set),
            )
        )
    for x in g.vertex_ids():
        for i in g.index_set:
            if g.f(x, i) is not None:
                lines.append(f"edge {x} {g.f(x, i)} {i}")
    return "\n".join(lines) + "\n"


def json_via_accessors(g) -> str:
    """graphcore.to_json through the accessors."""
    import json

    from qck.graphcore import FORMAT_NAME, FORMAT_VERSION, NEG_INF, POS_INF

    def ext(v):
        return "+inf" if v == POS_INF else "-inf" if v == NEG_INF else v

    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "n": g.n,
        "vertices": [
            {
                "id": x,
                "wt": list(g.wt(x)),
                "eps": [ext(g.eps(x, i)) for i in g.index_set],
                "phi": [ext(g.phi(x, i)) for i in g.index_set],
            }
            for x in g.vertex_ids()
        ],
        "edges": [
            {"from": x, "to": g.f(x, i), "label": i}
            for x in g.vertex_ids()
            for i in g.index_set
            if g.f(x, i) is not None
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def quasify_via_accessors(c):
    """quasify.quasify reading c through the guarded accessors and writing
    its result through add_vertex, set_raising and set_lowering."""
    from qck.graphcore import POS_INF, QuasiCrystalGraph
    from qck.quasify import _require_compliant_crystal

    _require_compliant_crystal(c)
    q = QuasiCrystalGraph(c.n)
    kept = {}
    for x in c.vertex_ids():
        eps_row, phi_row = [], []
        for i in c.index_set:
            keep = c.eps(x, i) == c.wt(x)[i]
            kept[(x, i)] = keep
            eps_row.append(c.eps(x, i) if keep else POS_INF)
            phi_row.append(c.phi(x, i) if keep else POS_INF)
        q.add_vertex(x, c.wt(x), eps_row, phi_row)
    for x in c.vertex_ids():
        for i in c.index_set:
            if kept[(x, i)]:
                y = c.e(x, i)
                if y is not None:
                    q.set_raising(x, i, y)
                    q.set_lowering(y, i, x)
    return q


def from_json_via_loads(text: str):
    """graphcore.from_json as it was before it read each record as it was
    decoded: json.loads makes the whole document, then the same checks run
    in the same order, and each record is stored through add_vertex or
    add_edge."""
    import json

    from qck.graphcore import FORMAT_NAME, FORMAT_VERSION, GraphFormatError, QuasiCrystalGraph, _ext_from_json

    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise GraphFormatError(f"not a {FORMAT_NAME} document")
    if doc.get("version") != FORMAT_VERSION:
        raise GraphFormatError(f"unsupported format version {doc.get('version')!r}")
    if type(doc.get("n")) is not int:
        raise GraphFormatError("missing integer field 'n'")
    vertices, edges = doc.get("vertices", []), doc.get("edges", [])
    if not isinstance(vertices, list) or not isinstance(edges, list):
        raise GraphFormatError("fields 'vertices' and 'edges' must be lists")
    if doc["n"] < 1:
        raise GraphFormatError("n must be a positive integer")
    g = QuasiCrystalGraph(doc["n"])
    for rec in vertices:
        try:
            vid = rec["id"]
            wt = rec["wt"]
            eps, phi = rec["eps"], rec["phi"]
        except (KeyError, TypeError) as exc:
            raise GraphFormatError(f"bad vertex record {rec!r}: {exc}") from None
        if not isinstance(eps, list) or not isinstance(phi, list):
            raise GraphFormatError(f"{vid}: eps and phi must be lists")
        eps = [v if type(v) is int else _ext_from_json(v, vid) for v in eps]
        phi = [v if type(v) is int else _ext_from_json(v, vid) for v in phi]
        if not isinstance(wt, list) or any(type(c) is not int for c in wt):
            raise GraphFormatError(f"{vid}: weight entries must be finite ints")
        try:
            g.add_vertex(vid, wt, eps, phi)
        except ValueError as exc:
            raise GraphFormatError(str(exc)) from None
    for rec in edges:
        try:
            src, dst, label = rec["from"], rec["to"], rec["label"]
        except (KeyError, TypeError) as exc:
            raise GraphFormatError(f"bad edge record {rec!r}: {exc}") from None
        if not (isinstance(src, str) and src in g and isinstance(dst, str) and dst in g):
            raise GraphFormatError(f"edge references unknown vertex: {src} -> {dst}")
        if type(label) is not int:
            raise GraphFormatError(f"bad edge label {label!r}")
        try:
            g.add_edge(src, label, dst)
        except ValueError as exc:
            raise GraphFormatError(str(exc)) from None
    return g


def from_text_via_lines(text: str):
    """graphcore.from_text as it was before it walked the text in chunks:
    the list of every stripped line that is not blank or a comment is made
    first and held until the second pass, which adds the edges, ends."""
    from qck.graphcore import FORMAT_NAME, FORMAT_VERSION, GraphFormatError, QuasiCrystalGraph, _parse_csv, _plain

    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise GraphFormatError("empty graph file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != FORMAT_NAME:
        raise GraphFormatError(f"bad header {lines[0]!r}; expected '{FORMAT_NAME} v{FORMAT_VERSION}'")
    if head[1] != f"v{FORMAT_VERSION}":
        raise GraphFormatError(f"unsupported format version {head[1]!r}")
    if len(lines) < 2 or not lines[1].startswith("n "):
        raise GraphFormatError("missing 'n <rank>' line")
    try:
        _, rank = lines[1].split()
        n = int(_plain(rank))
    except ValueError:
        raise GraphFormatError(f"bad rank line {lines[1]!r}") from None
    if n < 1:
        raise GraphFormatError("n must be a positive integer")
    g = QuasiCrystalGraph(n)
    ids: dict[str, str] = {}
    rows: dict[tuple[str, str, str], tuple] = {}
    for ln in lines[2:]:
        parts = ln.split()
        if parts[0] == "vertex":
            if len(parts) != 5:
                raise GraphFormatError(f"bad vertex line {ln!r}")
            _, vid, wt_tok, eps_tok, phi_tok = parts
            row = rows.get((wt_tok, eps_tok, phi_tok))
            if row is None:
                wt = _parse_csv(wt_tok, "weight", vid)
                if any(not isinstance(c, int) for c in wt):
                    raise GraphFormatError(f"{vid}: weight entries must be finite ints")
                eps, phi = _parse_csv(eps_tok, "eps", vid), _parse_csv(phi_tok, "phi", vid)
                row = rows[wt_tok, eps_tok, phi_tok] = (wt, eps, phi)
            wt, eps, phi = row
            try:
                g._new_id(vid)
                g._put_vertex(vid, wt, eps, phi)
            except ValueError as exc:
                raise GraphFormatError(str(exc)) from None
            ids[vid] = vid
        elif parts[0] == "edge":
            if len(parts) != 4:
                raise GraphFormatError(f"bad edge line {ln!r}")
        else:
            raise GraphFormatError(f"unknown record {parts[0]!r}")
    labels: dict[str, int] = {}
    for _, src, dst, label in (ln.split() for ln in lines[2:] if ln.startswith("edge")):
        i = labels.get(label)
        if i is None:
            try:
                i = labels[label] = int(_plain(label))
            except ValueError:
                raise GraphFormatError(f"bad edge label {label!r}") from None
        x, y = ids.get(src), ids.get(dst)
        if x is None or y is None:
            raise GraphFormatError(f"edge references unknown vertex: {src} -> {dst}")
        try:
            add_edge_via_guards(g, x, i, y)
        except ValueError as exc:
            raise GraphFormatError(str(exc)) from None
    return g


def read_graph_via_whole_text(path: str):
    """graphcore.read_graph as it was before it read a file a chunk at a
    time: the whole file is decoded as UTF-8 at once, a byte order mark
    kept, and loads reads the text, past that mark."""
    from qck.graphcore import loads

    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def add_edge_via_guards(g, x, i, y) -> None:
    """QuasiCrystalGraph.add_edge as it was before it looked up each end's
    rows once: the slot and both ends pass the guarded checks, then each
    row is looked up again to test for an edge already set."""
    s = g._slot(i)
    g._known(x)
    g._known(y)
    if g._f[x][s] is not None:
        raise ValueError(f"f_{i}({x!r}) already set")
    if g._e[y][s] is not None:
        raise ValueError(f"e_{i}({y!r}) already set")
    g._f[x][s] = y
    g._e[y][s] = x
