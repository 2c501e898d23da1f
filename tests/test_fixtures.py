"""Integrity of the built-in reference tables and their on-disk form."""

import hashlib
import json

import numpy as np
import pytest

from biplane_schemes.binmat import identity, parse_matrix
from biplane_schemes.biplane import assemble_b4c
from biplane_schemes.extract import check_core_sums
from biplane_schemes.fixtures import (
    ASSOC_6,
    ASSOC_16,
    AUT_ORDERS,
    CORES_12,
    CORES_16,
    RELATION_6,
    b9e,
    write_fixtures,
)
from biplane_schemes.incidence import IncidenceStructure
from biplane_schemes.pbibd import classify, verify_pbibd
from biplane_schemes.scheme import parse_relation


def test_cores_16_are_symmetric_pbibd3():
    assert len(CORES_16) == 4
    for core in CORES_16:
        assert (core.rows, core.cols) == (16, 16)
        assert core.is_symmetric()
        assert core.trace() == 16
        rep = verify_pbibd(IncidenceStructure(core))
        assert rep["d"] == 3
        assert rep["lambda"] == [0, 1, 2]
        assert rep["n"] == [11, 2, 2]
        assert rep["r"] == rep["k"] == 3


def test_cores_16_are_distinct():
    seen = {core.bits for core in CORES_16}
    assert len(seen) == 4


def test_cores_12():
    ok, witness = check_core_sums(CORES_12[0])
    assert ok and witness is None
    assert CORES_12[0].col_sums() == [3] * 12
    assert CORES_12[1].row_sums() == [1] + [3] * 10 + [1]


def test_assoc_6_displays():
    a0, a1, a2, a3 = ASSOC_6
    assert a0 == identity(6)
    assert a1.to_lists() == [
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1],
        [1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
    ]
    total = sum(m.to_numpy() for m in ASSOC_6)
    assert (total == 1).all()
    rel = sum(i * m.to_numpy() for i, m in enumerate(ASSOC_6))
    assert np.array_equal(rel, RELATION_6)


def test_assoc_16_partition_and_symmetry():
    assert ASSOC_16[0] == identity(16)
    total = sum(m.to_numpy() for m in ASSOC_16)
    assert (total == 1).all()
    for m in ASSOC_16:
        assert m.is_symmetric()
    assert [m.count_ones() for m in ASSOC_16] == [16, 176, 32, 32]


def test_assoc_16_matches_second_core_classification():
    c = classify(IncidenceStructure(CORES_16[1]))
    for label in range(4):
        assert c.associate_matrix(label) == ASSOC_16[label]


def test_aut_orders_metadata():
    assert AUT_ORDERS == {"b4c": 11520, "b9e": 80640}


def test_write_fixtures_round_trip(tmp_path):
    entries = write_fixtures(str(tmp_path))
    expected = {
        "b4c.txt", "b9e.txt", "relation6.txt", "metadata.json",
        "core12_regular.txt", "core12_boundary.txt",
    }
    expected |= {f"assoc6_a{i}.txt" for i in range(4)}
    expected |= {f"assoc16_a{i}.txt" for i in range(4)}
    expected |= {f"core16_{i}.txt" for i in range(1, 5)}
    assert set(entries) == expected

    assert parse_matrix(open(entries["b4c.txt"]).read()) == assemble_b4c()
    assert parse_matrix(open(entries["b9e.txt"]).read()) == b9e()
    assert np.array_equal(
        parse_relation(open(entries["relation6.txt"]).read()), RELATION_6)
    for i in range(1, 5):
        back = parse_matrix(open(entries[f"core16_{i}.txt"]).read())
        assert back == CORES_16[i - 1]
    for i in range(4):
        assert parse_matrix(open(entries[f"assoc16_a{i}.txt"]).read()) == ASSOC_16[i]

    meta = json.loads(open(entries["metadata.json"]).read())
    assert meta["schema_version"] == 1
    assert meta["aut_orders"] == AUT_ORDERS


# sha256 of every file write_fixtures writes; the round trip above ties
# b9e.txt to b9e() and core16_*.txt to CORES_16, which are computed from
# b9e, and these pin them to the tables once transcribed
FIXTURE_SHA256 = {
    "assoc16_a0.txt": "1f1e6f225ecd9a6b9dfe930be7d4a5d10bb1135f382369af5a488504c969db9d",
    "assoc16_a1.txt": "0e1c9274ed7e14be2c888a7b5a313e41d5a7efe2bf7c53a38cb92ca39594d2d1",
    "assoc16_a2.txt": "fe4219f6fed1a4635056b2c185341a3fc588085bfa9f4c8871338a0d01ceb5fc",
    "assoc16_a3.txt": "79a282284a603041392355704c9b547b73812205f09b63732bbad681c636082e",
    "assoc6_a0.txt": "bedf2fe262ed54a89daa0eaf924f87ba1f93e83c04078342f1f00e24d28685a1",
    "assoc6_a1.txt": "a4422eb83529de233525798895458a67843ea6b6632f22a644654d10cb03ce76",
    "assoc6_a2.txt": "4725603b561d00fb56bf67d1788f1d44d69f3262d966578d8d9327005342c85f",
    "assoc6_a3.txt": "5ee9e114cf9fa526759a490f986d985034df026c1b0ec4439f4f071ec7866e86",
    "b4c.txt": "5818cd5289d93040bc5c405a1ec2077a45a6a1e0258b702ba40d8a7fb82c35a9",
    "b9e.txt": "21d08a38f8def7da62660d35f44ff07fc8ef003db1efceb4cdf2a2aaf2d4fd79",
    "core12_boundary.txt": "62689073fcc5d7cfb0eddf57bf6fdea2bf6c86dbb72eff33b7a0a1ca6243cda1",
    "core12_regular.txt": "5f0ba50a5feef0e3899354a4870eb6c5f1df5e57788e4a37ef7e4ac027ebefde",
    "core16_1.txt": "637c554856d28ecc51333fbb3168d3a60b638418f1e3721f33d577c04388d890",
    "core16_2.txt": "a891dedba5d5270da2ac8b9fb2c43f7dffc95f025440d51fc85c5b52e6ecd711",
    "core16_3.txt": "b57c0aef6e3ca2cb8cdc62bfa81b372348363e138acbb5547c54b1f4037b01c1",
    "core16_4.txt": "e912527ee2a4120fb02e17432e73d977ba8049e96684046d6c5695837914ee1a",
    "metadata.json": "7e04e6365301cedf9bb296831b2af8ab9e53feab8bfd8f52422ca4e9c622f726",
    "relation6.txt": "0b393568e88e24e571a1e1917c52cebfc3df9fa946e8631cb1055cb99458beaf",
}


def test_fixture_bytes_are_pinned(tmp_path):
    entries = write_fixtures(str(tmp_path))
    written = {name: hashlib.sha256(open(path, "rb").read()).hexdigest()
               for name, path in entries.items()}
    assert written == FIXTURE_SHA256
