"""Regularity, uniformity and the double count; pair balance is a
one-class classification."""

import pytest

from biplane_schemes.binmat import BinaryMatrix, constant, doubled, identity
from biplane_schemes.incidence import IncidenceStructure, StructureError, _regular_uniform
from biplane_schemes.pbibd import classify, verify_pbibd


def struct(rows):
    return IncidenceStructure(BinaryMatrix.from_rows(rows))


def test_regularity_and_uniformity():
    assert _regular_uniform(IncidenceStructure(constant(3, 4, 1))) == (4, 3)
    assert _regular_uniform(struct([[1, 0], [0, 1]])) == (1, 1)


def test_balance():
    # a pair-balanced design is the one-class (d = 1) classification
    rep = verify_pbibd(IncidenceStructure(constant(4, 4, 1)))
    assert (rep["r"], rep["d"], rep["lambda"], rep["n"]) == (4, 1, [4], [3])
    rep = verify_pbibd(IncidenceStructure(constant(3, 4, 1)))
    assert (rep["r"], rep["k"], rep["d"], rep["lambda"]) == (4, 3, 1, [4])
    assert classify(IncidenceStructure(doubled(4))).d == 3  # pair counts differ


def test_derive_parameters_witnesses():
    # the first irregular point, or the first non-uniform block once
    # every point has the same degree, is the witness
    with pytest.raises(StructureError) as err:
        _regular_uniform(struct([[1, 1], [1, 0]]))
    assert err.value.kind == "point"
    assert err.value.index == 1

    with pytest.raises(StructureError) as err:
        _regular_uniform(struct([[1, 1], [0, 1], [1, 0], [0, 0]]))
    assert err.value.kind == "point"

    # rows regular, columns not
    with pytest.raises(StructureError) as err:
        _regular_uniform(struct([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 0, 0]]))
    assert err.value.kind == "block"
    assert err.value.index == 2


def test_balance_single_point():
    # one point has no pair, so no class and no lambda
    c = classify(struct([[1, 1, 0]]))
    assert (c.d, c.lambdas, c.n) == (0, (), ())


def test_identity_design():
    rep = verify_pbibd(IncidenceStructure(identity(4)))
    assert (rep["r"], rep["k"], rep["d"], rep["lambda"], rep["n"]) == (1, 1, 1, [0], [3])
