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

Importing the package loads none of these modules. Each public name is
looked up in its module on first access (PEP 562), which imports that
module and the ones it depends on, so a process compiles and loads only
the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "binmat": (
        "BinaryMatrix", "DimensionError", "PermutationError", "ShapeError",
        "WitnessError", "anti_diagonal", "assemble", "border", "constant",
        "disjoint_cycles", "doubled", "format_matrix", "identity",
        "is_perm_equivalent", "parse_matrix", "path_loop",
    ),
    "incidence": (
        "DesignParameters", "IncidenceStructure", "InconsistencyError",
        "StructureError", "balance", "derive_parameters", "regularity",
        "uniformity",
    ),
    "biplane": (
        "BiplaneCertificate", "ParameterError", "VerificationError",
        "assemble_b4c", "canonical_head", "has_canonical_form", "head_width",
        "verify_biplane",
    ),
    "pbibd": (
        "NotPbibdError", "PairClassification", "classify", "concurrence",
        "verify_pbibd",
    ),
    "scheme": (
        "AssociationScheme", "AxiomError", "InternalInconsistencyError",
        "NotASchemeError", "associate_matrices", "bose_mesner_check",
        "format_relation", "from_classification", "from_relation_matrix",
        "parse_relation", "relation_matrix",
    ),
    "extract": (
        "CounterexampleError", "ExtractionReport", "HypothesisError",
        "Lemma2Report", "PreconditionError", "check_core_sums", "check_lemma1",
        "check_lemma2", "extract_design", "extraction_indices",
        "family_generate",
    ),
    "search": (
        "CheckpointError", "SearchBugError", "SearchConfig", "SearchOutcome",
        "enumerate_reference", "search_symmetric_canonical",
    ),
    "fixtures": (
        "ASSOC_6", "ASSOC_16", "AUT_ORDERS", "CORES_12", "CORES_16",
        "RELATION_6", "b9e", "write_fixtures",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF) + ["__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
