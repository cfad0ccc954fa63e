"""A vertex's rows enter a graph by one path: QuasiCrystalGraph._put_vertex,
called by the constructors, ``copy``, ``quasify`` and ``Component.subgraph``
with finished rows, edges included, and by the readers with rows without
edges, whose f edges they then add through ``add_edge``. Outside graphcore
no code writes the row tables, and the constructors do not replay their
rows through the guarded public API. Only graphcore names the float
infinity that POS_INF and NEG_INF are."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qck"
ROW_TABLES = {"_wt", "_eps", "_phi", "_e", "_f"}
GUARDED_WRITERS = {"add_vertex", "add_edge", "set_raising", "set_lowering"}


def _table(target) -> str | None:
    """The row table a store target writes into: g._e, g._e[x] or g._e[x][s]."""
    while isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Attribute) and target.attr in ROW_TABLES:
        return target.attr
    return None


def row_table_writes(source: str) -> list[tuple[int, str]]:
    """(line, table) of every assignment, augmented assignment or del into a row table."""
    return sorted(
        (node.lineno, table)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Attribute, ast.Subscript))
        and isinstance(node.ctx, (ast.Store, ast.Del))
        and (table := _table(node)) is not None
    )


def guarded_writer_calls(source: str) -> list[tuple[int, str]]:
    """(line, method) of every call of add_vertex, add_edge, set_raising or set_lowering."""
    return sorted(
        (node.lineno, node.func.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in GUARDED_WRITERS
    )


def test_finders_read_every_form():
    source = (
        "g._wt = {}\n"
        "g._e[x][s] = y\n"
        "h._phi[x] += [1]\n"
        "del g._f[x]\n"
        "a, g._eps[x] = 1, 2\n"
        "rows = g._e\n"
        "g._e[x].append(1)\n"
        "g.wt = 3\n"
        "g.add_vertex(x, wt, eps, phi)\n"
        "q.set_raising(x, 1, y)\n"
        "g.set_epsilon(x, 1, 0)\n"
        "g._put_vertex(x, wt, eps, phi)\n"
        "for g._f[x] in rows:\n    q.add_edge(x, 1, y)\n    self.set_lowering(y, 1, x)\n"
    )
    writes = [(1, "_wt"), (2, "_e"), (3, "_phi"), (4, "_f"), (5, "_eps"), (13, "_f")]
    assert row_table_writes(source) == writes
    calls = [(9, "add_vertex"), (10, "set_raising"), (14, "add_edge"), (15, "set_lowering")]
    assert guarded_writer_calls(source) == calls


def test_only_graphcore_writes_the_row_tables():
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) >= 10
    writes = {
        (path.name, line, table)
        for path in sources
        if path.name != "graphcore.py"
        for line, table in row_table_writes(path.read_text(encoding="utf-8"))
    }
    assert writes == set()


def test_constructors_hand_finished_rows_to_the_store_path():
    for name in ("wordmodel.py", "quasify.py", "structure.py"):
        source = (SRC / name).read_text(encoding="utf-8")
        assert guarded_writer_calls(source) == [], name
        assert "_put_vertex" in source, name


def test_readers_store_rows_only_through_put_vertex():
    """A file holds each vertex's rows and its f edges only: the readers hand
    _put_vertex rows without edges and add each f edge, with its e inverse,
    through add_edge."""
    source = (SRC / "graphcore.py").read_text(encoding="utf-8")
    bodies = {
        node.name: ast.get_source_segment(source, node)
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name in ("from_text", "from_json")
    }
    assert sorted(bodies) == ["from_json", "from_text"]
    for name, body in bodies.items():
        assert row_table_writes(body) == [], name
        assert {method for _, method in guarded_writer_calls(body)} == {"add_edge"}, name
        assert "._put_vertex(" in body, name


def infinity_makers(source: str) -> list[tuple[int, str]]:
    """(line, form) of every ``math.inf``, ``from math import inf`` and call of float()."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "inf" and getattr(node.value, "id", None) == "math":
            found.append((node.lineno, "math.inf"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math" and any(a.name == "inf" for a in node.names):
            found.append((node.lineno, "from math import inf"))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            found.append((node.lineno, "float()"))
    return sorted(found)


def test_infinity_finder_reads_every_form():
    source = (
        "x = math.inf\n"
        "from math import inf, pi\n"
        "y = float(tok)\n"
        "z = -math.inf + float('inf')\n"
        "isinstance(v, float) and math.isinf(v)\n"
    )
    assert infinity_makers(source) == [
        (1, "math.inf"),
        (2, "from math import inf"),
        (3, "float()"),
        (4, "float()"),
        (4, "math.inf"),
    ]


def test_graphcore_owns_the_two_infinities():
    """Only graphcore names math.inf, so POS_INF and NEG_INF are the only
    infinities a module can store; no module calls float(), which would read
    "nan", "1e309" or "infinity" as a number."""
    found = {
        (path.name, line, form)
        for path in sorted(SRC.glob("*.py"))
        for line, form in infinity_makers(path.read_text(encoding="utf-8"))
    }
    assert {form for name, _, form in found if name == "graphcore.py"} == {"math.inf"}
    assert {f for f in found if f[0] != "graphcore.py"} == set()
