"""qck — quasi-crystal graph kit.

Finite type-A quasi-crystal graphs: constructors (standard crystal, tensor
and quasi-tensor powers, quasification), exhaustive axiom checkers with
witness reporting, component structure and weight-determined isomorphism,
and exact character/decomposition verification.

``import qck`` loads no submodule. Each one loads the first time one of its
names is read from the package (PEP 562), so ``qck.read_graph`` loads only
``graphcore`` and what it imports.
"""

import importlib
import sys
import types

# Each submodule and the names the package exports from it.
_EXPORTS = {
    "graphcore": (
        "AxiomReport", "GraphFormatError", "NEG_INF", "POS_INF", "QuasiCrystalGraph", "Witness",
        "dumps", "from_json", "from_text", "is_crystal", "is_seminormal", "loads", "read_graph",
        "to_dot", "to_json", "to_text", "validate", "write_graph",
    ),
    "weightlattice": ("descent_composition", "enumerate_syt"),
    "wordmodel": (
        "SizeCapExceeded", "default_size_cap", "quasi_tensor", "quasi_tensor_power",
        "standard_crystal", "tensor", "tensor_power",
    ),
    "axioms": (
        "check_cor_infs", "check_lemma_ij", "check_local_ax_cases", "check_lq1", "check_lq2",
        "check_lq3", "check_lq3p", "check_stembridge",
    ),
    "structure": (
        "Component", "IsoWitness", "TheoremViolation", "components", "isomorphic", "rank_table",
        "unique_highest_weight",
    ),
    "quasify": ("count_quasi_components", "crystal_of_content", "quasify"),
    "characters": (
        "IntPolynomial", "SchurDecompositionReport", "character", "fundamental_qsym",
        "verify_schur_decomposition",
    ),
    "mutation": ("FuzzResult", "Mutation", "fuzz_graph", "random_mutation", "run_detectors"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
# Every export and every submodule; quasify is both, and names the function.
__all__ = sorted(_MODULE_OF.keys() | _EXPORTS.keys())
__version__ = "0.1.0"


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | set(__all__))


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # Loading qck.quasify binds the submodule on the package, whoever imports it
        # first; the exported function keeps the name.
        if name not in _MODULE_OF or not isinstance(value, types.ModuleType):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
