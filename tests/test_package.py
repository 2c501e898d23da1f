"""The package's public names, loaded on first access."""

import importlib
import inspect

import pytest

import biplane_schemes

PUBLIC = {
    "ASSOC_16", "ASSOC_6", "AUT_ORDERS", "AssociationScheme", "AxiomError",
    "BinaryMatrix", "BiplaneCertificate", "CORES_12", "CORES_16", "CheckpointError",
    "CounterexampleError", "DesignParameters", "DimensionError", "ExtractionReport",
    "HypothesisError", "IncidenceStructure", "InconsistencyError",
    "InternalInconsistencyError", "Lemma2Report", "NotASchemeError", "NotPbibdError",
    "ParameterError", "PairClassification", "PermutationError", "PreconditionError",
    "RELATION_6", "SearchBugError", "SearchConfig", "SearchOutcome", "ShapeError",
    "StructureError", "VerificationError", "WitnessError", "anti_diagonal", "assemble",
    "assemble_b4c", "associate_matrices", "b9e", "balance", "border",
    "bose_mesner_check", "canonical_head", "check_core_sums", "check_lemma1",
    "check_lemma2", "classify", "concurrence", "constant", "derive_parameters",
    "disjoint_cycles", "doubled", "enumerate_reference", "extract_design",
    "extraction_indices", "family_generate", "format_matrix", "format_relation",
    "from_classification", "from_relation_matrix", "has_canonical_form", "head_width",
    "identity", "is_perm_equivalent", "parse_matrix", "parse_relation", "path_loop",
    "regularity", "relation_matrix", "search_symmetric_canonical", "uniformity",
    "verify_biplane", "verify_pbibd", "write_fixtures", "__version__",
}


def test_all_lists_the_public_names_once():
    assert len(biplane_schemes.__all__) == len(PUBLIC)
    assert set(biplane_schemes.__all__) == PUBLIC


@pytest.mark.parametrize("module,names", biplane_schemes._EXPORTS.items())
def test_each_name_is_the_object_of_its_defining_module(module, names):
    home = importlib.import_module(f"biplane_schemes.{module}")
    for name in names:
        value = getattr(biplane_schemes, name)
        assert value is getattr(home, name), name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == home.__name__, name


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from biplane_schemes import *", namespace)
    assert PUBLIC <= set(namespace)
    assert PUBLIC <= set(dir(biplane_schemes))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        biplane_schemes.no_such_name


def test_a_submodule_import_still_gives_the_module():
    from biplane_schemes import search
    assert search is importlib.import_module("biplane_schemes.search")
