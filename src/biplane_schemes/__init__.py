"""Exact verification and search for biplanes, PBIBDs, and association schemes.

The package is organized like the underlying mathematics:

  binmat     bit-packed (0,1)-matrices, named constructors, block
             assembly, permutation equivalence, text format
  incidence  regularity, uniformity, pairwise balance, and the
             counting identities of incidence structures
  biplane    biplane verification, the forced canonical head, and the
             assembled order-4 biplane with full trace
  pbibd      concurrence-based classification into associate classes
  scheme     the four association scheme axioms, intersection numbers,
             and Bose-Mesner closure
  extract    the principal-core pipeline: line-sum lemma, two-neighbor
             lemma, core extraction, and the doubled design family
  search     exhaustive row-at-a-time backtracking over symmetric
             canonical completions, with parallel subtrees and checkpoints
  fixtures   b9e, the built-in reference tables and their on-disk writer
  cli        the command-line front end
"""

from .binmat import (
    BinaryMatrix,
    DimensionError,
    PermutationError,
    ShapeError,
    WitnessError,
    anti_diagonal,
    assemble,
    border,
    constant,
    disjoint_cycles,
    doubled,
    format_matrix,
    identity,
    is_perm_equivalent,
    parse_matrix,
    path_loop,
)
from .incidence import (
    DesignParameters,
    IncidenceStructure,
    StructureError,
    balance,
    derive_parameters,
    regularity,
    uniformity,
)
from .biplane import (
    BiplaneCertificate,
    ParameterError,
    VerificationError,
    assemble_b4c,
    canonical_head,
    has_canonical_form,
    head_width,
    verify_biplane,
)
from .pbibd import (
    InconsistencyError,
    NotPbibdError,
    PairClassification,
    classify,
    concurrence,
    verify_pbibd,
)
from .scheme import (
    AssociationScheme,
    AxiomError,
    InternalInconsistencyError,
    NotASchemeError,
    associate_matrices,
    bose_mesner_check,
    format_relation,
    from_classification,
    from_relation_matrix,
    parse_relation,
    relation_matrix,
)
from .extract import (
    CounterexampleError,
    ExtractionReport,
    HypothesisError,
    Lemma2Report,
    PreconditionError,
    check_core_sums,
    check_lemma1,
    check_lemma2,
    extract_design,
    extraction_indices,
    family_generate,
)
from .search import (
    CheckpointError,
    SearchBugError,
    SearchConfig,
    SearchOutcome,
    enumerate_reference,
    search_symmetric_canonical,
)
from .fixtures import (
    ASSOC_6,
    ASSOC_16,
    AUT_ORDERS,
    CORES_12,
    CORES_16,
    RELATION_6,
    b9e,
    write_fixtures,
)

__version__ = "0.1.0"

__all__ = [
    "ASSOC_16",
    "ASSOC_6",
    "AUT_ORDERS",
    "AssociationScheme",
    "AxiomError",
    "BinaryMatrix",
    "BiplaneCertificate",
    "CORES_12",
    "CORES_16",
    "CheckpointError",
    "CounterexampleError",
    "DesignParameters",
    "DimensionError",
    "ExtractionReport",
    "HypothesisError",
    "IncidenceStructure",
    "InconsistencyError",
    "InternalInconsistencyError",
    "Lemma2Report",
    "NotASchemeError",
    "NotPbibdError",
    "ParameterError",
    "PairClassification",
    "PermutationError",
    "PreconditionError",
    "RELATION_6",
    "SearchBugError",
    "SearchConfig",
    "SearchOutcome",
    "ShapeError",
    "StructureError",
    "VerificationError",
    "WitnessError",
    "anti_diagonal",
    "assemble",
    "assemble_b4c",
    "associate_matrices",
    "b9e",
    "balance",
    "border",
    "bose_mesner_check",
    "canonical_head",
    "check_core_sums",
    "check_lemma1",
    "check_lemma2",
    "classify",
    "concurrence",
    "constant",
    "derive_parameters",
    "disjoint_cycles",
    "doubled",
    "enumerate_reference",
    "extract_design",
    "extraction_indices",
    "family_generate",
    "format_matrix",
    "format_relation",
    "from_classification",
    "from_relation_matrix",
    "has_canonical_form",
    "head_width",
    "identity",
    "is_perm_equivalent",
    "parse_matrix",
    "parse_relation",
    "path_loop",
    "regularity",
    "relation_matrix",
    "search_symmetric_canonical",
    "uniformity",
    "verify_biplane",
    "verify_pbibd",
    "write_fixtures",
    "__version__",
]
