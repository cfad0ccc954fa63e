"""Quasi-crystal graph container, coherence checks, and file formats.

A graph holds, per vertex: a weight vector of length n, raising/lowering string
lengths (eps/phi: ints, or the float infinities POS_INF and NEG_INF) per index
1..n-1, and partial raising/lowering maps (e/f) per index. The weight and the
string lengths are tuples, which vertices with equal rows may share; e and f
are each vertex's own lists. Loops are a derived notion (both string lengths
+inf at an index), never stored as edges.
"""

from __future__ import annotations

import io
import json
import math
from collections import namedtuple
from functools import wraps
from itertools import islice

from .weightlattice import Weight, check_rank

FORMAT_NAME = "qck-graph"
FORMAT_VERSION = 1


# +-inf are Python's float infinities, which order and shift against ints.
# Every stored infinity is one of these two objects, so the checkers may test
# a stored length by identity (``v is POS_INF``): _check_ext maps any float
# infinity to them, and the readers and constructors store no other.
POS_INF = math.inf
NEG_INF = -math.inf


def ext_str(v) -> str:
    """v as the file formats write it: an int, "+inf" or "-inf"."""
    return "+inf" if v == POS_INF else "-inf" if v == NEG_INF else str(v)


class GraphFormatError(ValueError):
    """Malformed interchange text/JSON."""


def _ext(tok: str):
    if tok == "+inf":
        return POS_INF
    if tok == "-inf":
        return NEG_INF
    try:
        return int(tok)
    except ValueError:
        raise GraphFormatError(f"not an extended integer: {tok!r}") from None


def _plain(tok: str) -> str:
    """tok, refused where int() would read a form the writers never write:
    underscores (1_0), non-ASCII digits, surrounding whitespace (" 1") and a
    plus sign outside +inf (+1). A comma-separated field without whitespace,
    as the text reader's are, passes when each of its tokens does, so that
    reader checks a field once."""
    if not tok.isascii() or "_" in tok or tok.strip() != tok or "+" in tok.replace("+inf", ""):
        raise GraphFormatError(f"not an extended integer: {tok!r}")
    return tok


def parse_ext(tok: str):
    return _ext(_plain(tok))


def _check_ext(v):
    """v as stored: an int, or POS_INF/NEG_INF for any float infinity."""
    if isinstance(v, float) and math.isinf(v):
        return POS_INF if v > 0 else NEG_INF
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"expected int or +-inf, got {v!r}")
    return v


class Witness(namedtuple("Witness", "axiom vertices indices observed required")):
    """One concrete axiom violation, printable as a single tab-separated line.
    Witnesses sort as their fields, in this order."""

    __slots__ = ()

    def line(self) -> str:
        return "\t".join(
            [
                self.axiom,
                ",".join(self.vertices),
                ",".join(str(i) for i in self.indices),
                self.observed,
                self.required,
            ]
        )


class AxiomReport:
    """Result of one checker: its name and every witness found, sorted."""

    def __init__(self, name: str, witnesses=()):
        self.name = name
        self.witnesses = sorted(witnesses)

    def __repr__(self) -> str:
        return f"AxiomReport(name={self.name!r}, witnesses={self.witnesses!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.witnesses) == (other.name, other.witnesses)

    @property
    def passed(self) -> bool:
        return not self.witnesses

    def __bool__(self) -> bool:
        return self.passed

    def lines(self) -> list[str]:
        return [w.line() for w in self.witnesses]


def _report(name: str):
    """Make a generator of a checker's witnesses the checker: the decorated
    function returns them as the AxiomReport called ``name``."""

    def decorate(witnesses):
        @wraps(witnesses)
        def checker(*args, **kwargs):
            return AxiomReport(name, witnesses(*args, **kwargs))

        return checker

    return decorate


class QuasiCrystalGraph:
    """Mutable container for a finite quasi-crystal graph of rank n.

    The container enforces shape (lengths, known targets) but not the
    coherence axioms; those live in validate() so that broken graphs can be
    represented, loaded, and reported on.
    """

    def __init__(self, n: int):
        self.n = check_rank(n)
        self._wt: dict[str, Weight] = {}
        self._eps: dict[str, tuple] = {}
        self._phi: dict[str, tuple] = {}
        self._e: dict[str, list] = {}
        self._f: dict[str, list] = {}

    @property
    def index_set(self) -> range:
        return range(1, self.n)

    def __len__(self) -> int:
        return len(self._wt)

    def __contains__(self, vid) -> bool:
        return vid in self._wt

    def vertex_ids(self) -> list[str]:
        return sorted(self._wt)

    def anchors(self, around=None) -> list[str]:
        """The vertices a checker sweeps: all of them, or those in ``around``, sorted."""
        return self.vertex_ids() if around is None else sorted(around)

    def add_vertex(self, vid: str, wt, eps, phi) -> None:
        self._new_id(vid)
        wt = self._weight(vid, wt)
        self._put_vertex(vid, wt, tuple(map(_check_ext, eps)), tuple(map(_check_ext, phi)))

    # add_vertex in parts, split around its per-entry checks of wt, eps and
    # phi, which the file readers and the constructors skip: their rows hold
    # only ints and the two infinities. The readers check each vertex's id,
    # after their own test of the weight's entries.

    def _new_id(self, vid) -> None:
        """Refuse an id that is not a non-empty string without spaces, or is taken."""
        # split() cuts at exactly the characters isspace() accepts
        if not isinstance(vid, str) or vid.split() != [vid]:
            raise ValueError(f"vertex id must be a non-empty string without spaces: {vid!r}")
        if vid in self._wt:
            raise ValueError(f"duplicate vertex id {vid!r}")

    def _weight(self, vid, wt) -> Weight:
        """wt as a tuple, refused unless it is n ints."""
        wt = tuple(wt)
        if len(wt) != self.n or any(isinstance(c, bool) or not isinstance(c, int) for c in wt):
            raise ValueError(f"weight of {vid!r} must be {self.n} ints, got {wt!r}")
        return wt

    def _put_vertex(self, vid: str, wt: Weight, eps: tuple, phi: tuple, e=None, f=None) -> None:
        """Store a vertex with checked entries, once its rows have the right length:
        the one path by which rows enter a graph. The rows are stored as given,
        not copied: wt, eps and phi are tuples, which other vertices may share;
        e and f, the vertex's own lists of ids or None, default to no edge."""
        if len(wt) != self.n:
            raise ValueError(f"weight of {vid!r} must be {self.n} ints, got {wt!r}")
        if len(eps) != self.n - 1 or len(phi) != self.n - 1:
            raise ValueError(f"{vid!r}: need {self.n - 1} eps and phi entries")
        self._wt[vid] = wt
        self._eps[vid] = eps
        self._phi[vid] = phi
        self._e[vid] = [None] * (self.n - 1) if e is None else e
        self._f[vid] = [None] * (self.n - 1) if f is None else f

    def _slot(self, i: int) -> int:
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"operator index {i} out of range 1..{self.n - 1}")
        return i - 1

    def _known(self, vid: str) -> str:
        if vid not in self._wt:
            raise KeyError(f"unknown vertex {vid!r}")
        return vid

    # -- accessors ---------------------------------------------------------

    def wt(self, x: str) -> Weight:
        return self._wt[self._known(x)]

    def eps(self, x: str, i: int):
        return self._eps[self._known(x)][self._slot(i)]

    def phi(self, x: str, i: int):
        return self._phi[self._known(x)][self._slot(i)]

    def e(self, x: str, i: int):
        return self._e[self._known(x)][self._slot(i)]

    def f(self, x: str, i: int):
        return self._f[self._known(x)][self._slot(i)]

    def edges(self) -> list[tuple[str, int, str]]:
        """All lowering edges (x, i, f_i(x)), sorted."""
        return list(_edges_from(self.vertex_ids(), self._f))

    def raising_edges(self, around=None) -> list[tuple[str, int, str]]:
        """All raising edges (x, i, e_i(x)), sorted; the e-table's own view.
        With ``around``, only the edges whose source is in it."""
        return list(_edges_from(self.anchors(around), self._e))

    # -- low-level mutation (used by constructors and the fuzz harness) ----

    def set_raising(self, x: str, i: int, y) -> None:
        if y is not None:
            self._known(y)
        self._e[self._known(x)][self._slot(i)] = y

    def set_lowering(self, x: str, i: int, y) -> None:
        if y is not None:
            self._known(y)
        self._f[self._known(x)][self._slot(i)] = y

    def _replace(self, rows: dict, x: str, i: int, v) -> None:
        """x's row in rows (g._eps or g._phi) becomes a new tuple with entry i set to v."""
        v, row, s = _check_ext(v), rows[self._known(x)], self._slot(i)
        rows[x] = row[:s] + (v,) + row[s + 1 :]

    def set_epsilon(self, x: str, i: int, v) -> None:
        self._replace(self._eps, x, i, v)

    def set_phi(self, x: str, i: int, v) -> None:
        self._replace(self._phi, x, i, v)

    def set_weight(self, x: str, wt) -> None:
        self._wt[self._known(x)] = self._weight(x, wt)

    def add_edge(self, x: str, i: int, y: str) -> None:
        """Record f_i(x) = y together with its inverse e_i(y) = x."""
        s = self._slot(i)
        f = self._f.get(x)  # a vertex's e and f rows are stored with it: no row, no vertex
        if f is None:
            raise KeyError(f"unknown vertex {x!r}")
        e = self._e.get(y)
        if e is None:
            raise KeyError(f"unknown vertex {y!r}")
        if f[s] is not None:
            raise ValueError(f"f_{i}({x!r}) already set")
        if e[s] is not None:
            raise ValueError(f"e_{i}({y!r}) already set")
        f[s] = y
        e[s] = x

    def copy(self) -> "QuasiCrystalGraph":
        g = QuasiCrystalGraph(self.n)
        for v, wt in self._wt.items():
            g._put_vertex(v, wt, self._eps[v], self._phi[v], list(self._e[v]), list(self._f[v]))
        return g

    def __eq__(self, other):
        if not isinstance(other, QuasiCrystalGraph):
            return NotImplemented
        return (
            self.n == other.n
            and self._wt == other._wt
            and self._eps == other._eps
            and self._phi == other._phi
            and self._e == other._e
            and self._f == other._f
        )

    def __repr__(self):
        return f"QuasiCrystalGraph(n={self.n}, vertices={len(self)})"


def _edges_from(ids, rows):
    """(x, i, rows[x][i - 1]) for each x of ids and each index with a target, in order."""
    for x in ids:
        for i, y in enumerate(rows[x], start=1):
            if y is not None:
                yield x, i, y


# -- coherence ---------------------------------------------------------------


# Every check below and in axioms.py takes an optional ``around``, a set of
# anchor vertices. With None it sweeps the whole graph. With a set it sweeps
# only those vertices and the raising edges leaving them, so it reports
# exactly the full report's witnesses anchored (witness.vertices[0]) in the
# set. A caller that passes ``around`` vouches that no vertex outside it has
# changed since a full check passed; mutation.fuzz_graph relies on this.


@_report("validate")
def validate(g: QuasiCrystalGraph, around=None) -> AxiomReport:
    """Check the defining coherence conditions of a quasi-crystal graph.

    Covers: e/f mutually inverse with the weight/string-length bookkeeping
    across each edge; phi = eps + <wt, alpha_i> everywhere; indices with an
    infinite string length carry no edge. Dangling targets are reported
    rather than raised.
    """
    W, EPS, PHI, E, F = g._wt, g._eps, g._phi, g._e, g._f
    for x in g.anchors(around):
        wx = W[x]
        for s, (eps, phi, ex, fx) in enumerate(zip(EPS[x], PHI[x], E[x], F[x])):
            i = s + 1
            if ex is not None and ex not in W:
                yield Witness("structural", (x,), (i,), f"e->{ex}", "target must be a vertex")
            if fx is not None and fx not in W:
                yield Witness("structural", (x,), (i,), f"f->{fx}", "target must be a vertex")
            # phi = eps + <wt, alpha_i>; an int plus +-inf is always defined
            expected_phi = eps + (wx[s] - wx[s + 1])
            if phi != expected_phi:
                yield Witness(
                    "Q2",
                    (x,),
                    (i,),
                    f"phi={ext_str(phi)}",
                    f"eps+<wt,alpha>={ext_str(expected_phi)}",
                )
            if ex is None and fx is None:
                continue
            # infinite string lengths forbid edges
            if eps is NEG_INF or phi is NEG_INF:
                yield Witness("Q3", (x,), (i,), "edge at -inf index", "no e/f where a length is -inf")
            if eps is POS_INF or phi is POS_INF:
                yield Witness("Q4", (x,), (i,), "edge at +inf index", "no e/f where a length is +inf")
            # mutual inverse + bookkeeping along the raising edge
            if ex is not None and ex in W:
                y = ex
                if F[y][s] != x:
                    yield Witness(
                        "Q1",
                        (x, y),
                        (i,),
                        f"f_{i}({y})={F[y][s]}",
                        f"inverse of e_{i}({x})={y}",
                    )
                # wt(x) + alpha_i: coordinate i up by one, i + 1 down by one
                if W[y] != wx[:s] + (wx[s] + 1, wx[s + 1] - 1) + wx[s + 2 :]:
                    yield Witness(
                        "Q1",
                        (x, y),
                        (i,),
                        f"wt({y})={W[y]}",
                        f"wt({x})+alpha_{i}",
                    )
                if EPS[y][s] != eps - 1:
                    yield Witness(
                        "Q1",
                        (x, y),
                        (i,),
                        f"eps_{i}({y})={ext_str(EPS[y][s])}",
                        f"eps_{i}({x})-1={ext_str(eps - 1)}",
                    )
                if PHI[y][s] != phi + 1:
                    yield Witness(
                        "Q1",
                        (x, y),
                        (i,),
                        f"phi_{i}({y})={ext_str(PHI[y][s])}",
                        f"phi_{i}({x})+1={ext_str(phi + 1)}",
                    )
            if fx is not None and fx in W and E[fx][s] != x:
                yield Witness(
                    "Q1",
                    (x, fx),
                    (i,),
                    f"e_{i}({fx})={E[fx][s]}",
                    f"inverse of f_{i}({x})={fx}",
                )


@_report("seminormal")
def is_seminormal(g: QuasiCrystalGraph, around=None) -> AxiomReport:
    """Finite string lengths must equal actual operator chain lengths; each index's chains are walked once."""
    limit, anchors = len(g), g.anchors(around)
    for s in range(g.n - 1):
        for field_name, lengths, rows in (("eps", g._eps, g._e), ("phi", g._phi, g._f)):
            chain = {}  # the chain length at s of each vertex walked through
            for x in anchors:
                length = lengths[x][s]
                if length is POS_INF:
                    continue
                z = rows[x][s]
                k = 0 if z is None else 1 if rows[z][s] is None else None
                if k is None:  # two steps or more: walk on to where an earlier walk passed
                    path, z = [], x
                    while z is not None and z not in chain and len(path) <= limit:
                        path.append(z)
                        z = rows[z][s]
                    k = -1 if z is None else chain.get(z, POS_INF)  # past len(g) steps: a cycle
                    for u in reversed(path):
                        k += 1
                        chain[u] = k
                if k > limit:
                    yield Witness(
                        "seminormal",
                        (x,),
                        (s + 1,),
                        f"{field_name} chain exceeds {limit} vertices",
                        "finite acyclic chain",
                    )
                elif length != k:
                    yield Witness(
                        "seminormal",
                        (x,),
                        (s + 1,),
                        f"{field_name}={ext_str(length)}",
                        f"chain length {k}",
                    )


def is_crystal(g: QuasiCrystalGraph, around=None) -> bool:
    """True when no string length is +inf (hence no loops anywhere)."""
    EPS, PHI = g._eps, g._phi
    return not any(
        v is POS_INF for x in g.anchors(around) for row in (EPS[x], PHI[x]) for v in row
    )


# -- interchange formats -------------------------------------------------------


def _csv(values) -> str:
    values = list(values)
    if not values:
        return "-"
    return ",".join(values)


def _parse_csv(tok: str, what: str, where: str) -> tuple:
    if tok == "-":
        return ()
    try:
        return tuple(map(_ext, _plain(tok).split(",")))
    except ValueError as exc:
        raise GraphFormatError(f"{where}: bad {what}: {exc}") from None


def _by_row(g: QuasiCrystalGraph, render):
    """(id, render(wt, eps, phi)) per vertex in id order, render called once
    per distinct row: a graph has few (q(5,6): 15,625 vertices, 685 rows)."""
    W, EPS, PHI = g._wt, g._eps, g._phi
    memo: dict[tuple, str] = {}
    for x in g.vertex_ids():
        row = (W[x], EPS[x], PHI[x])
        text = memo.get(row)
        if text is None:
            text = memo[row] = render(*row)
        yield x, text


def _stream(pieces, out):
    """The pieces of a document joined, or, with ``out``, handed to that
    text file's writelines one at a time as they are made, and None."""
    return "".join(pieces) if out is None else out.writelines(pieces)


def _text_row(wt, eps, phi) -> str:
    return f"{_csv(map(str, wt))} {_csv(map(ext_str, eps))} {_csv(map(ext_str, phi))}"


def _text_pieces(g: QuasiCrystalGraph):
    yield f"{FORMAT_NAME} v{FORMAT_VERSION}\nn {g.n}\n"
    for x, row in _by_row(g, _text_row):
        yield f"vertex {x} {row}\n"
    for x, i, y in _edges_from(g.vertex_ids(), g._f):
        yield f"edge {x} {y} {i}\n"


def to_text(g: QuasiCrystalGraph, out=None) -> str | None:
    """The graph's text document; with ``out``, written to that file instead."""
    return _stream(_text_pieces(g), out)


# Characters the readers take at a time: a chunk ends just after the first
# "\n" this far past its start, so no "\r\n" is cut in two.
_CHUNK = 1 << 16


def _chunks(text):
    """text, a str or a text file read from its start, a chunk at a time; a
    (str, start) pair, which loads makes, is the str from index start on."""
    if isinstance(text, io.TextIOBase):
        text.seek(0)
        yield from iter(lambda: text.read(_CHUNK) + text.readline(), "")
        return
    text, end = text if isinstance(text, tuple) else (text, 0)
    while end < len(text):
        start, end = end, text.find("\n", end + _CHUNK) + 1 or len(text)
        yield text[start:end]


def _records(text):
    """text.splitlines(), stripped, without blanks and comments, made a chunk of lines at a time."""
    for chunk in _chunks(text):
        yield from [ln for ln in map(str.strip, chunk.splitlines()) if ln and ln[0] != "#"]


def from_text(text: str | io.TextIOBase) -> QuasiCrystalGraph:
    records = _records(text)
    header = next(records, None)
    if header is None:
        raise GraphFormatError("empty graph file")
    head = header.split()
    if len(head) != 2 or head[0] != FORMAT_NAME:
        raise GraphFormatError(f"bad header {header!r}; expected '{FORMAT_NAME} v{FORMAT_VERSION}'")
    if head[1] != f"v{FORMAT_VERSION}":
        raise GraphFormatError(f"unsupported format version {head[1]!r}")
    rank_line = next(records, "")
    if not rank_line.startswith("n "):
        raise GraphFormatError("missing 'n <rank>' line")
    try:
        _, rank = rank_line.split()
        n = int(_plain(rank))
    except ValueError:
        raise GraphFormatError(f"bad rank line {rank_line!r}") from None
    if n < 1:
        raise GraphFormatError("n must be a positive integer")
    g = QuasiCrystalGraph(n)
    ids: dict[str, str] = {}  # each id as stored, for the edge ends to share
    # Each distinct row text (weight, eps, phi: the unit _by_row writes) is
    # parsed and checked at its first sight, so a bad field refuses at the
    # vertex where it first appears; every vertex runs the store checks and
    # stores the row's tuples, shared with the vertices of the same row.
    rows: dict[tuple[str, str, str], tuple] = {}
    # The first pass stores the vertices and checks every record's shape, so
    # only edge records start with "edge"; the second walks the text again to add them.
    for ln in records:
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
    for _, src, dst, label in (ln.split() for ln in islice(_records(text), 2, None) if ln.startswith("edge")):
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
            g.add_edge(x, i, y)
        except ValueError as exc:
            raise GraphFormatError(str(exc)) from None
    return g


def _ext_from_json(v, where: str):
    """v, a JSON value that is not an int, as an extended integer."""
    if not isinstance(v, str):
        raise GraphFormatError(f"{where}: expected int or '+inf'/'-inf', got {v!r}")
    try:
        return parse_ext(v)
    except ValueError as exc:
        raise GraphFormatError(f"{where}: {exc}") from None


# json.dumps writes a string with this under its default ensure_ascii=True
_json_str = json.encoder.encode_basestring_ascii


def _json_list(values: list) -> str:
    """json.dumps(values, indent=2) nested as deep as a vertex record's fields."""
    return json.dumps(values, indent=2).replace("\n", "\n      ")


def _json_row(wt, eps, phi) -> str:
    """What follows the id in to_json's record of a vertex with these rows,
    the infinities (the only floats) written as strings."""
    eps, phi = ([ext_str(v) if isinstance(v, float) else v for v in row] for row in (eps, phi))
    return (
        f',\n      "wt": {_json_list(list(wt))}'
        f',\n      "eps": {_json_list(eps)}'
        f',\n      "phi": {_json_list(phi)}\n    }}'
    )


def _json_items(records):
    """The pieces of a top-level field's list of records."""
    sep = "[\n"
    for record in records:
        yield sep
        yield record
        sep = ",\n"
    yield "[]" if sep == "[\n" else "\n  ]"


def _json_pieces(g: QuasiCrystalGraph):
    yield (
        f'{{\n  "format": {_json_str(FORMAT_NAME)},\n  "version": {FORMAT_VERSION},\n  "n": {json.dumps(g.n)},\n'
        '  "vertices": '
    )
    yield from _json_items(f'    {{\n      "id": {_json_str(x)}{row}' for x, row in _by_row(g, _json_row))
    yield ',\n  "edges": '
    yield from _json_items(
        f'    {{\n      "from": {_json_str(x)},\n      "to": {_json_str(y)},\n      "label": {i}\n    }}'
        for x, i, y in _edges_from(g.vertex_ids(), g._f)
    )
    yield "\n}\n"


def to_json(g: QuasiCrystalGraph, out=None) -> str | None:
    """The graph's document as json.dumps(doc, indent=2) writes it, byte for
    byte, plus a newline; with ``out``, written to that file instead. With
    indent set, CPython's encoder runs in pure Python, so the document is
    assembled here from one encoding per distinct row."""
    return _stream(_json_pieces(g), out)


def _vertex_fields(rec, share) -> tuple:
    """A JSON vertex record's (id, wt, eps, phi), its rows checked entry by
    entry; the rows and a str id are shared through ``share``."""
    try:
        vid, wt, eps, phi = rec["id"], rec["wt"], rec["eps"], rec["phi"]
    except (KeyError, TypeError) as exc:
        raise GraphFormatError(f"bad vertex record {rec!r}: {exc}") from None
    if not isinstance(eps, list) or not isinstance(phi, list):
        raise GraphFormatError(f"{vid}: eps and phi must be lists")
    eps = tuple([v if type(v) is int else _ext_from_json(v, vid) for v in eps])
    phi = tuple([v if type(v) is int else _ext_from_json(v, vid) for v in phi])
    if not isinstance(wt, list) or any(type(c) is not int for c in wt):
        raise GraphFormatError(f"{vid}: weight entries must be finite ints")
    wt = tuple(wt)
    return share(vid, vid) if type(vid) is str else vid, share(wt, wt), share(eps, eps), share(phi, phi)


def _edge_fields(rec, share) -> tuple:
    """A JSON edge record's (from, to, label); str ends are shared through ``share``."""
    try:
        src, dst, label = rec["from"], rec["to"], rec["label"]
    except (KeyError, TypeError) as exc:
        raise GraphFormatError(f"bad edge record {rec!r}: {exc}") from None
    return share(src, src) if type(src) is str else src, share(dst, dst) if type(dst) is str else dst, label


def _json_doc(src, share) -> tuple:
    """(doc, refused): src's document as json.loads reads it, except that a top-level object's
    "vertices" or "edges" list is the flat list of what its reader reads from each record as it
    is decoded. A list ends at its first refused record, whose GraphFormatError is refused[key]."""
    ws, scan = json.decoder.WHITESPACE.match, json.scanner.make_scanner(json.JSONDecoder())
    readers = {"vertices": _vertex_fields, "edges": _edge_fields}
    # The window of src's text that the scan decodes: what reaches index end may go on past it. It ends
    # just after a "\n" or with the text, and no JSON token holds a raw "\n": only a cut list or object fails.
    chunks, text, end = _chunks(src), "", 0

    def step(parse, i: int, *args) -> tuple:
        """parse(i, *args), ending with the index it reaches; the window widens while it fails or reaches end."""
        nonlocal text, end
        while True:
            try:
                got = parse(i, *args)
                if got[-1] < end:
                    return got
            except (ValueError, StopIteration):
                if end > len(text):
                    raise
            added = "".join(islice(chunks, 1 + (len(text) - i) // _CHUNK))  # outgrows text[i:], or ends the text
            text, end, i = text[i:] + added, len(text) - i + len(added) + (not added), 0

    def first(i: int, close: str) -> tuple[bool, int]:
        """Past the opening bracket at i: whether there is a first item, and where it starts."""
        i = ws(text, i + 1).end()
        return (False, i + 1) if text.startswith(close, i) else (True, i)

    def then(i: int, close: str) -> tuple[bool, int]:
        """Past the comma or ``close`` after an item that ends at i: as ``first``."""
        if not text.startswith(",", i):  # the writers put each comma right after its item
            i = ws(text, i).end()
            if text.startswith(close, i):
                return False, i + 1
            if not text.startswith(",", i):
                raise ValueError(close)
        return True, ws(text, i + 1).end()

    def member(i: int) -> tuple[str, int]:
        """The key at i, and where its value starts, past the colon."""
        if not text.startswith('"', i):
            raise ValueError('"')
        key, i = json.decoder.scanstring(text, i + 1)
        i = ws(text, i).end()
        if not text.startswith(":", i):
            raise ValueError(":")
        return key, ws(text, i + 1).end()

    # scan_once decodes each value from fewer frames than json.loads would
    i = step(lambda i: (ws(text, i).end(),), 0)[0]
    if text.startswith("{", i):
        doc, refused = {}, {}
        try:
            more, i = step(first, i, "}")
            while more:
                key, i = step(member, i)
                read = readers.get(key)
                refused.pop(key, None)
                if read and text.startswith("[", i):
                    out = doc[key] = []
                    items, i = step(first, i, "]")
                    while items:
                        try:
                            rec, j = scan(text, i)
                            items, i = then(j, "]")
                        except (ValueError, StopIteration):  # perhaps cut by the window's end
                            rec, j = step(lambda i: scan(text, ws(text, i).end()), i)
                            items, i = step(then, j, "]")
                        if key not in refused:
                            try:
                                out += read(rec, share)
                            except GraphFormatError as exc:
                                refused[key] = exc.with_traceback(None)
                else:
                    doc[key], i = step(lambda i: scan(text, i), i)
                more, i = step(then, i, "}")
            if step(lambda i: (ws(text, i).end(),), i)[0] == len(text):
                return doc, refused
        except (ValueError, StopIteration, RecursionError):
            json.loads("".join(_chunks(src)))  # fails too, with json's own error
            raise  # unless a record's reader recursed too deeply, as a repr can
    return json.loads("".join(_chunks(src))), {}  # not an object, or text after it


def from_json(text: str | bytes | io.TextIOBase) -> QuasiCrystalGraph:
    share = {}.setdefault  # one object per distinct id, weight row or length row
    try:
        if isinstance(text, (bytes, bytearray)):  # decoded as json.loads decodes them
            text = text.decode(json.detect_encoding(text), "surrogatepass")
        doc, refused = _json_doc(text, share)
    except (ValueError, RecursionError) as exc:  # bad bytes, json's errors, int()'s past 4,300 digits, too deep a nesting
        raise GraphFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise GraphFormatError(f"not a {FORMAT_NAME} document")
    if doc.get("version") != FORMAT_VERSION:
        raise GraphFormatError(f"unsupported format version {doc.get('version')!r}")
    # json.loads makes no int subclass but bool, so `type(v) is int` is the
    # finite-int test.
    if type(doc.get("n")) is not int:
        raise GraphFormatError("missing integer field 'n'")
    vertices, edges = doc.get("vertices", []), doc.get("edges", [])
    if not isinstance(vertices, list) or not isinstance(edges, list):
        raise GraphFormatError("fields 'vertices' and 'edges' must be lists")
    if doc["n"] < 1:
        raise GraphFormatError("n must be a positive integer")
    g = QuasiCrystalGraph(doc["n"])
    # a list ends at its refused record, if any, refused after the records before it
    fields = iter(vertices)
    for vid, wt, eps, phi in zip(fields, fields, fields, fields):
        try:
            g._new_id(vid)
            g._put_vertex(vid, wt, eps, phi)
        except ValueError as exc:
            raise GraphFormatError(str(exc)) from None
    if "vertices" in refused:
        raise refused["vertices"]
    ids, fields = g._wt, iter(edges)
    for src, dst, label in zip(fields, fields, fields):
        # a str end is the stored id itself, shared; a list or dict end takes no dict lookup
        if not (type(src) is str and src in ids and type(dst) is str and dst in ids):
            raise GraphFormatError(f"edge references unknown vertex: {src} -> {dst}")
        if type(label) is not int:
            raise GraphFormatError(f"bad edge label {label!r}")
        try:
            g.add_edge(src, label, dst)
        except ValueError as exc:
            raise GraphFormatError(str(exc)) from None
    if "edges" in refused:
        raise refused["edges"]
    return g


_DOT_PALETTE = [
    "#e41a1c",
    "#377eb8",
    "#4daf4a",
    "#984ea3",
    "#ff7f00",
    "#a65628",
    "#f781bf",
    "#999999",
]


def _dot_quote(vid: str) -> str:
    return vid.replace("\\", "\\\\").replace('"', '\\"')


def _dot_pieces(g: QuasiCrystalGraph):
    yield "digraph quasicrystal {\n  rankdir=TB;\n"
    W, EPS, PHI = g._wt, g._eps, g._phi
    for x in g.vertex_ids():
        qx = _dot_quote(x)
        wt = ",".join(str(c) for c in W[x])
        yield f'  "{qx}" [label="{qx}\\n({wt})"];\n'
    for x, i, y in _edges_from(g.vertex_ids(), g._f):
        color = _DOT_PALETTE[(i - 1) % len(_DOT_PALETTE)]
        yield f'  "{_dot_quote(x)}" -> "{_dot_quote(y)}" [label="{i}", color="{color}"];\n'
    for x in g.vertex_ids():
        for i, (eps, phi) in enumerate(zip(EPS[x], PHI[x]), start=1):
            if eps is POS_INF and phi is POS_INF:  # a loop
                color = _DOT_PALETTE[(i - 1) % len(_DOT_PALETTE)]
                qx = _dot_quote(x)
                yield f'  "{qx}" -> "{qx}" [label="{i}", color="{color}", style=dashed];\n'
    yield "}\n"


def to_dot(g: QuasiCrystalGraph, out=None) -> str | None:
    """Graphviz digraph: lowering edges labelled/coloured by index, loops as
    dashed self-edges, vertex labels carrying the weight. With ``out``,
    written to that file instead."""
    return _stream(_dot_pieces(g), out)


def loads(text: str | io.TextIOBase) -> QuasiCrystalGraph:
    """Parse either interchange format: JSON if its first character that is not isspace() is "{".
    A str is read past one leading byte order mark."""
    if isinstance(text, str) and text.startswith("\ufeff"):
        text = (text, 1)  # read by _chunks past the mark, with no copy made
    head = next((chunk.lstrip()[0] for chunk in _chunks(text) if not chunk.isspace()), "")
    return (from_json if head == "{" else from_text)(text)


def read_graph(path: str) -> QuasiCrystalGraph:
    """loads of the file's text, past a UTF-8 byte order mark; bytes that are not UTF-8 are refused first."""
    with open(path, encoding="utf-8-sig") as fh:
        if not fh.seekable():  # a pipe is read once, whole, and loads skips its mark
            fh.reconfigure(encoding="utf-8")
            return loads(fh.read())
        try:
            return loads(fh)
        except ValueError:
            fh.seek(0)
            fh.buffer.read().decode("utf-8")  # a file that is not UTF-8 is refused for that, first
            raise


def _writer(fmt: str):
    if fmt == "text":
        return to_text
    if fmt == "json":
        return to_json
    if fmt == "dot":
        return to_dot
    raise ValueError(f"unknown format {fmt!r}")


def dumps(g: QuasiCrystalGraph, fmt: str = "text", out=None) -> str | None:
    """Serialize g as "text", "json" or "dot"; the writer side of ``loads``.
    With ``out``, a text file, the document is written there piece by piece
    and None is returned."""
    return _writer(fmt)(g, out)


def write_graph(g: QuasiCrystalGraph, path: str, fmt: str = "text") -> None:
    writer = _writer(fmt)  # an unknown format makes no file
    with open(path, "w", encoding="utf-8") as fh:
        writer(g, fh)
