"""qck imports nothing outside the standard library at runtime."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qck"


def top_level_imports(path: Path) -> set[str]:
    """The top-level module of every absolute import in one source file;
    relative imports are qck's own modules."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            found.add("qck" if node.level else node.module.split(".")[0])
    return found


def test_top_level_imports_reads_every_form(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "import os.path, json as j\nfrom numpy import array\nfrom . import graphcore\n"
        "from .axioms import family\ndef f():\n    import networkx\n",
        encoding="utf-8",
    )
    assert top_level_imports(src) == {"os", "json", "numpy", "qck", "networkx"}


def test_runtime_imports_are_stdlib_only():
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) >= 10
    bad = {
        (path.name, module)
        for path in sources
        for module in top_level_imports(path)
        if module != "qck" and module not in sys.stdlib_module_names
    }
    assert bad == set()


RESOLVE_TRACED_NAMES = """
import importlib, sys
sys.path.insert(0, sys.argv[1])
import tracing
missing = []
for module, attr, _name, _count in tracing.TARGETS:
    obj = importlib.import_module(f"qck.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part, None)
    if not callable(obj):
        missing.append(f"qck.{module}.{attr}")
print(len(tracing.TARGETS), *missing)
"""


def test_every_traced_bench_target_names_a_qck_function():
    # bench/tracing.py wraps qck functions by name; a deleted or renamed one
    # would otherwise only break the traced bench run. A child process keeps
    # bench's modules (its own oracles among them) out of this test session.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", RESOLVE_TRACED_NAMES, str(ROOT / "bench")],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    count, *missing = proc.stdout.split()
    assert int(count) > 0 and missing == []


def names_read(path: Path) -> set[str]:
    """Every name, attribute and string constant in one source file."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_names_read_finds_names_attributes_and_strings(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "from .weightlattice import check_rank\nx = qck.syt_count(check_rank)\nTARGETS = [('mutation', 'fuzz_graph')]\n",
        encoding="utf-8",
    )
    # an imported name counts only where it is used
    assert names_read(src) == {"x", "qck", "syt_count", "check_rank", "TARGETS", "mutation", "fuzz_graph"}


# The exports that no module or bench script reads, kept on purpose:
# partitions_of lists the shapes the tests range over, and tensor and
# quasi_tensor are the paper's two products of graphs. A name that gains a
# reader leaves this list.
UNREAD_EXPORTS = {"partitions_of", "tensor", "quasi_tensor"}


def test_every_export_is_read_by_the_package_or_the_bench():
    init = SRC / "__init__.py"
    exported = {
        alias.asname or alias.name
        for node in ast.parse(init.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    sources = [p for p in SRC.glob("*.py") if p != init] + sorted((ROOT / "bench").glob("*.py"))
    read = set().union(*map(names_read, sources))
    assert sorted(exported - read) == sorted(UNREAD_EXPORTS)


def public_definitions(path: Path) -> set[str]:
    """The public names a source file defines at module level: each def,
    class and assigned name that does not start with an underscore."""
    found = set()
    for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {name for name in found if not name.startswith("_")}


def names_loaded(path: Path) -> set[str]:
    """Every name a source file loads, every attribute it names and every
    name it imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= {alias.name for alias in node.names}
    return found


def test_every_public_module_name_is_exported_or_read():
    init = SRC / "__init__.py"
    modules = [p for p in sorted(SRC.glob("*.py")) if p != init]
    read = set().union(*map(names_loaded, modules + [init]))
    unread = {(p.name, name) for p in modules for name in public_definitions(p) - read}
    assert sorted(unread) == []
