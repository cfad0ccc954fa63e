"""What qck imports: nothing outside the standard library at runtime, and no
submodule before the first use of one of its names."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qck

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


def run_child(code: str, *args: str) -> str:
    """Run code in a fresh interpreter on the checkout's sources; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


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
    count, *missing = run_child(RESOLVE_TRACED_NAMES, str(ROOT / "bench")).split()
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


# The exports that no module or bench script reads, kept on purpose: tensor
# and quasi_tensor are the paper's two products of graphs. A name that gains a
# reader leaves this list.
UNREAD_EXPORTS = {"tensor", "quasi_tensor"}


def test_every_export_is_read_by_the_package_or_the_bench():
    # the exported names come from the package's export table
    init = SRC / "__init__.py"
    sources = [p for p in SRC.glob("*.py") if p != init] + sorted((ROOT / "bench").glob("*.py"))
    read = set().union(*map(names_read, sources))
    assert sorted(qck._MODULE_OF.keys() - read) == sorted(UNREAD_EXPORTS)


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
    read = set().union(qck._MODULE_OF, *map(names_loaded, modules + [init]))
    unread = {(p.name, name) for p in modules for name in public_definitions(p) - read}
    assert sorted(unread) == []


# The library surface `import qck` binds: each submodule and the names the
# package re-exports from it, pinned here apart from the package's own table
# so that a name dropped there fails below.
SURFACE = {
    "graphcore": "AxiomReport GraphFormatError NEG_INF POS_INF QuasiCrystalGraph Witness dumps from_json"
    " from_text is_crystal is_seminormal loads read_graph to_dot to_json to_text validate write_graph",
    "weightlattice": "descent_composition enumerate_syt",
    "wordmodel": "SizeCapExceeded default_size_cap quasi_tensor quasi_tensor_power standard_crystal tensor"
    " tensor_power",
    "axioms": "check_cor_infs check_lemma_ij check_local_ax_cases check_lq1 check_lq2 check_lq3 check_lq3p"
    " check_stembridge",
    "structure": "Component IsoWitness TheoremViolation components isomorphic rank_table unique_highest_weight",
    "quasify": "count_quasi_components crystal_of_content quasify",
    "characters": "IntPolynomial SchurDecompositionReport character fundamental_qsym verify_schur_decomposition",
    "mutation": "FuzzResult Mutation fuzz_graph random_mutation run_detectors",
}
# What `from qck import *` binds: every export and every submodule name, where
# quasify names the function.
STAR_NAMES = sorted({name for names in SURFACE.values() for name in names.split()} | SURFACE.keys())


@pytest.mark.parametrize("first_use, loaded", [
    ("", []),
    ("qck.read_graph", ["qck.graphcore", "qck.weightlattice"]),
    ("qck.graphcore", ["qck.graphcore", "qck.weightlattice"]),
])
def test_import_qck_loads_a_submodule_at_the_first_use_of_its_names(first_use, loaded):
    out = run_child(f"import sys, qck\n{first_use}\nprint(*sorted(m for m in sys.modules if m.startswith('qck.')))")
    assert out.split() == loaded


def test_cli_start_loads_neither_dataclasses_nor_inspect():
    # qck's records are namedtuples and one plain class: importing dataclasses,
    # which imports inspect, cost every command about 9-10 ms of its start
    out = run_child("import sys, qck.cli\nprint('dataclasses' in sys.modules, 'inspect' in sys.modules)")
    assert out.split() == ["False", "False"]


# Each record from its fields, and the repr that the dataclass it replaced printed.
RECORDS = [
    (
        "graphcore.Witness",
        ("LQ1", ("11",), (1,), "o", "r"),
        "Witness(axiom='LQ1', vertices=('11',), indices=(1,), observed='o', required='r')",
    ),
    (
        "mutation.Mutation",
        ("weight", "321", 1, "(1, 1, 1)->(2, 1, 1)"),
        "Mutation(kind='weight', vertex='321', index=1, detail='(1, 1, 1)->(2, 1, 1)')",
    ),
    ("mutation.FuzzResult", (3, 2, []), "FuzzResult(total=3, detected=2, silent=[])"),
    ("structure.IsoWitness", ({"1": "2"},), "IsoWitness(mapping={'1': '2'})"),
    (
        "characters.SchurDecompositionReport",
        ((1,), 2, True, False, [(1,)], [("1", (1,), True)], ["m"]),
        "SchurDecompositionReport(shape=(1,), n=2, identity_ok=True, multiset_ok=False,"
        " term_compositions=[(1,)], component_records=[('1', (1,), True)], mismatches=['m'])",
    ),
]


@pytest.mark.parametrize("record, fields, shown", RECORDS, ids=[r[0] for r in RECORDS])
def test_records_keep_their_dataclass_reprs_and_equality(record, fields, shown):
    module, name = record.split(".")
    make = getattr(importlib.import_module(f"qck.{module}"), name)
    rec = make(*fields)
    assert repr(rec) == shown
    assert rec == make(*fields) and rec != make("other", *fields[1:])


LIBRARY_SURFACE_CHECK = """
import importlib, json, sys
import qck
surface = json.loads(sys.argv[1])
got = {name: getattr(qck, name) for names in surface.values() for name in names.split()}
got.update((module, getattr(qck, module)) for module in surface if module not in got)
bad = []
for module, names in surface.items():
    defining = importlib.import_module(f"qck.{module}")
    if module not in names.split() and got[module] is not defining:
        bad.append(module)
    bad += [name for name in names.split() if got[name] is not getattr(defining, name)]
print(qck.__version__, *bad)
"""


def test_every_export_and_submodule_is_the_defining_object():
    # read from the package first, then from each defining module
    assert run_child(LIBRARY_SURFACE_CHECK, json.dumps(SURFACE)).split() == ["0.1.0"]


@pytest.mark.parametrize("first_step", [
    "",
    "import qck.cli",
    "import qck.characters",
    "from qck.quasify import crystal_of_content",
    "qck.crystal_of_content",
])
def test_qck_quasify_stays_the_function_whatever_loads_its_module(first_step):
    # Loading the submodule qck/quasify.py binds it on the package under the
    # function's name; the function must keep the name either way.
    out = run_child(
        f"import sys, qck\n{first_step}\n"
        "print(qck.quasify is sys.modules['qck.quasify'].quasify)\n"
        "import qck.cli, qck.quasify\n"
        "print(qck.quasify is sys.modules['qck.quasify'].quasify)\n"
    )
    assert out.split() == ["True", "True"]


def test_star_import_dir_and_unknown_names():
    out = run_child(
        "import qck\nns = {}\nexec('from qck import *', ns)\n"
        "star = sorted(set(ns) - {'__builtins__'})\n"
        "print(*star)\n"
        "print(set(star) <= set(dir(qck)), hasattr(qck, 'nope'), hasattr(qck, 'cli'))\n"
    )
    star, checks = out.splitlines()
    assert star.split() == STAR_NAMES and len(STAR_NAMES) == 62
    # dir lists them; an unknown name, and the CLI before it is imported, raise AttributeError
    assert checks.split() == ["True", "False", "False"]


def test_readme_library_tour_runs_and_prints_what_its_comments_show():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    sizes = ["10 ('111',)", "4 ('121',)", "4 ('211',)", "4 ('212',)", "4 ('221',)", "1 ('321',)"]
    # the lines the tour's comments say it prints
    assert f"# {'   '.join(sizes)}\n" in tour and "# x1*x2*x3\n" in tour
    assert run_child(tour).splitlines() == [*sizes, "x1*x2*x3"]
