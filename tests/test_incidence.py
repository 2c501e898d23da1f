"""Regularity, uniformity, balance, and the counting identities."""

import pytest

from biplane_schemes.binmat import BinaryMatrix, constant, doubled, identity
from biplane_schemes.biplane import assemble_b4c
from biplane_schemes.incidence import (
    IncidenceStructure,
    StructureError,
    balance,
    derive_parameters,
    regularity,
    uniformity,
)


def struct(rows):
    return IncidenceStructure(BinaryMatrix.from_rows(rows))


def test_regularity_and_uniformity():
    s = IncidenceStructure(constant(3, 4, 1))
    assert regularity(s) == 4
    assert uniformity(s) == 3
    ragged = struct([[1, 1], [1, 0]])
    assert regularity(ragged) is None
    assert uniformity(ragged) is None
    assert uniformity(struct([[1, 0], [0, 1]])) == 1


def test_balance():
    s = IncidenceStructure(constant(4, 4, 1))
    assert regularity(s) == 4
    assert balance(s) == 4
    assert balance(IncidenceStructure(identity(4))) == 0
    assert balance(IncidenceStructure(doubled(4))) is None  # pair counts differ


def test_balance_single_point():
    assert balance(struct([[1, 1, 0]])) is None


def test_derive_parameters_biplane():
    params = derive_parameters(IncidenceStructure(assemble_b4c()))
    assert (params.t, params.v, params.b, params.r, params.k) == (2, 16, 16, 6, 6)
    assert params.lam == 2
    assert params.order == 4
    assert params.symmetric
    rep = params.report()
    assert rep["lambda"] == 2
    assert rep["order"] == 4


def test_derive_parameters_unbalanced():
    params = derive_parameters(IncidenceStructure(doubled(5)))
    assert params.t == 1
    assert params.lam is None
    assert params.order is None
    assert (params.v, params.r, params.k) == (10, 3, 3)
    rep = params.report()
    assert "lambda" not in rep and "order" not in rep


def test_derive_parameters_witnesses():
    with pytest.raises(StructureError) as err:
        derive_parameters(struct([[1, 1], [1, 0]]))
    assert err.value.kind == "point"
    assert err.value.index == 1

    with pytest.raises(StructureError) as err:
        derive_parameters(struct([[1, 1], [0, 1], [1, 0], [0, 0]]))
    assert err.value.kind == "point"

    # rows regular, columns not
    with pytest.raises(StructureError) as err:
        derive_parameters(struct([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 0, 0]]))
    assert err.value.kind == "block"
    assert err.value.index == 2


def test_identity_design():
    params = derive_parameters(IncidenceStructure(identity(4)))
    assert (params.r, params.k, params.lam) == (1, 1, 0)
    assert params.order == 1
