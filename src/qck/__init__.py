"""qck — quasi-crystal graph kit.

Finite type-A quasi-crystal graphs: constructors (standard crystal, tensor
and quasi-tensor powers, quasification), exhaustive axiom checkers with
witness reporting, component structure and weight-determined isomorphism,
and exact character/decomposition verification.
"""

from .graphcore import (
    AxiomReport,
    GraphFormatError,
    NEG_INF,
    POS_INF,
    QuasiCrystalGraph,
    Witness,
    dumps,
    from_json,
    from_text,
    is_crystal,
    is_seminormal,
    loads,
    read_graph,
    to_dot,
    to_json,
    to_text,
    validate,
    write_graph,
)
from .weightlattice import (
    descent_composition,
    enumerate_syt,
    partitions_of,
)
from .wordmodel import (
    SizeCapExceeded,
    default_size_cap,
    quasi_tensor,
    quasi_tensor_power,
    standard_crystal,
    tensor,
    tensor_power,
)
from .axioms import (
    check_cor_infs,
    check_lemma_ij,
    check_local_ax_cases,
    check_lq1,
    check_lq2,
    check_lq3,
    check_lq3p,
    check_stembridge,
)
from .structure import (
    Component,
    IsoWitness,
    TheoremViolation,
    components,
    isomorphic,
    rank_table,
    unique_highest_weight,
)
from .quasify import (
    count_quasi_components,
    crystal_of_content,
    quasify,
)
from .characters import (
    IntPolynomial,
    SchurDecompositionReport,
    character,
    fundamental_qsym,
    verify_schur_decomposition,
)
from .mutation import FuzzResult, Mutation, fuzz_graph, random_mutation, run_detectors

__version__ = "0.1.0"
