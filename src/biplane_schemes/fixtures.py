"""Built-in reference tables.

Four 16-point symmetric designs with line sums 3 (cores arising from
the order-9 biplane b9e), two 12-point near-miss tables for the core
line-sum check, the 6-point relation table with its four associate
matrices, and the block-built 16-point associate matrices matching the
second core table under the identity labeling. write_fixtures puts the
whole set on disk in the package text formats.

The 16-point associate matrices ASSOC_16 are not closed under
multiplication: ASSOC_16[2]^2 is 2 on some ASSOC_16[1] pairs and 0 on
others, so they span no Bose-Mesner algebra; the 16-point tables are
PBIBDs, not association schemes.

Automorphism group orders of the two source biplanes are carried as
metadata only; nothing here computes groups.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .binmat import (
    BinaryMatrix,
    anti_diagonal,
    assemble,
    border,
    constant,
    format_matrix,
    identity,
    parse_matrix,
    path_loop,
)
from .biplane import assemble_b4c
from .scheme import format_relation

AUT_ORDERS = {"b4c": 11520, "b9e": 80640}


RELATION_6 = np.array([
    [0, 2, 2, 1, 3, 3],
    [2, 0, 2, 3, 1, 3],
    [2, 2, 0, 3, 3, 1],
    [1, 3, 3, 0, 2, 2],
    [3, 1, 3, 2, 0, 2],
    [3, 3, 1, 2, 2, 0],
], dtype=np.int64)


_CORE16_TEXTS = (
    """
    1 . . . . . . . . . . . 1 1 . .
    . 1 . . . . . . . . . . 1 . 1 .
    . . 1 . . . . . . . . . . 1 . 1
    . . . 1 . . . . . . . . . . 1 1
    . . . . 1 . . . . . 1 1 . . . .
    . . . . . 1 . . . 1 . 1 . . . .
    . . . . . . 1 . 1 . 1 . . . . .
    . . . . . . . 1 1 1 . . . . . .
    . . . . . . 1 1 1 . . . . . . .
    . . . . . 1 . 1 . 1 . . . . . .
    . . . . 1 . 1 . . . 1 . . . . .
    . . . . 1 1 . . . . . 1 . . . .
    1 1 . . . . . . . . . . 1 . . .
    1 . 1 . . . . . . . . . . 1 . .
    . 1 . 1 . . . . . . . . . . 1 .
    . . 1 1 . . . . . . . . . . . 1
    """,
    """
    1 . . . . . . . . . . . . . 1 1
    . 1 . . . . . . . . . . . 1 . 1
    . . 1 . . . . . . . . . 1 . 1 .
    . . . 1 . . . . . . . . 1 1 . .
    . . . . 1 . . . 1 1 . . . . . .
    . . . . . 1 . . 1 . 1 . . . . .
    . . . . . . 1 . . 1 . 1 . . . .
    . . . . . . . 1 . . 1 1 . . . .
    . . . . 1 1 . . 1 . . . . . . .
    . . . . 1 . 1 . . 1 . . . . . .
    . . . . . 1 . 1 . . 1 . . . . .
    . . . . . . 1 1 . . . 1 . . . .
    . . 1 1 . . . . . . . . 1 . . .
    . 1 . 1 . . . . . . . . . 1 . .
    1 . 1 . . . . . . . . . . . 1 .
    1 1 . . . . . . . . . . . . . 1
    """,
    """
    1 . . . . . . . . 1 . 1 . . . .
    . 1 . . . . . . . . 1 . 1 . . .
    . . 1 . . . . . . . . 1 . 1 . .
    . . . 1 . . . . . . . . 1 . 1 .
    . . . . 1 . . . . . . . . 1 . 1
    . . . . . 1 . . 1 . . . . . 1 .
    . . . . . . 1 . . 1 . . . . . 1
    . . . . . . . 1 1 . 1 . . . . .
    . . . . . 1 . 1 1 . . . . . . .
    1 . . . . . 1 . . 1 . . . . . .
    . 1 . . . . . 1 . . 1 . . . . .
    1 . 1 . . . . . . . . 1 . . . .
    . 1 . 1 . . . . . . . . 1 . . .
    . . 1 . 1 . . . . . . . . 1 . .
    . . . 1 . 1 . . . . . . . . 1 .
    . . . . 1 . 1 . . . . . . . . 1
    """,
    """
    1 . . . . . . . . . . . . 1 . 1
    . 1 . . . . . . 1 . . . . . 1 .
    . . 1 . . . . . . 1 . . . . . 1
    . . . 1 . . . . 1 . 1 . . . . .
    . . . . 1 . . . . 1 . 1 . . . .
    . . . . . 1 . . . . 1 . 1 . . .
    . . . . . . 1 . . . . 1 . 1 . .
    . . . . . . . 1 . . . . 1 . 1 .
    . 1 . 1 . . . . 1 . . . . . . .
    . . 1 . 1 . . . . 1 . . . . . .
    . . . 1 . 1 . . . . 1 . . . . .
    . . . . 1 . 1 . . . . 1 . . . .
    . . . . . 1 . 1 . . . . 1 . . .
    1 . . . . . 1 . . . . . . 1 . .
    . 1 . . . . . 1 . . . . . . 1 .
    1 . 1 . . . . . . . . . . . . 1
    """,
)

# Two 12-point tables: the first has every line sum equal to 3, the
# second breaks the count in its first and last rows.
_CORE12_TEXTS = (
    """
    1 . . . . . . 1 1 . . .
    . 1 . . . . 1 . . 1 . .
    . . 1 . . . . . . 1 1 .
    . . . 1 . . . . 1 . . 1
    . . . . 1 . 1 . . . . 1
    . . . . . 1 . 1 . . 1 .
    . . 1 1 . . 1 . . . . .
    . . . 1 1 . . 1 . . . .
    . . . . 1 1 . . 1 . . .
    1 . . . . 1 . . . 1 . .
    1 1 . . . . . . . . 1 .
    . 1 1 . . . . . . . . 1
    """,
    """
    . . . . . . . . 1 . . .
    . . 1 . . . . 1 . 1 . .
    . . . . . 1 1 . . . 1 .
    . 1 . . . . 1 . . . . 1
    . . . 1 . . . 1 . . 1 .
    . . . . 1 . . . 1 1 . .
    . . . 1 . 1 . . . 1 . .
    . . 1 . 1 . 1 . . . . .
    . 1 . . . 1 . 1 . . . .
    1 . . . 1 . . . . . 1 .
    . 1 . 1 . . . . 1 . . .
    . . 1 . . . . . . . . .
    """,
)

CORES_16 = tuple(parse_matrix("16 16\n" + t) for t in _CORE16_TEXTS)
CORES_12 = tuple(parse_matrix("12 12\n" + t) for t in _CORE12_TEXTS)


def _assoc_6() -> tuple[BinaryMatrix, ...]:
    i3 = identity(3)
    z3 = constant(3, 3, 0)
    lc3 = path_loop(3).permute((0, 1, 2), (2, 1, 0))
    return (
        identity(6),
        assemble([[z3, i3], [i3, z3]]),
        assemble([[lc3, z3], [z3, lc3]]),
        assemble([[z3, lc3], [lc3, z3]]),
    )


def _assoc_16() -> tuple[BinaryMatrix, ...]:
    j4 = constant(4, 4, 1)
    z4 = constant(4, 4, 0)
    c4 = anti_diagonal(4)
    l4 = path_loop(4)
    lc4 = l4.permute((0, 1, 2, 3), (3, 2, 1, 0))
    t4 = border(4)
    return (
        identity(16),
        assemble([
            [c4, j4, j4, l4],
            [j4, c4, lc4, j4],
            [j4, lc4, c4, j4],
            [l4, j4, j4, c4],
        ]),
        assemble([
            [t4, z4, z4, z4],
            [z4, t4, z4, z4],
            [z4, z4, t4, z4],
            [z4, z4, z4, t4],
        ]),
        assemble([
            [z4, z4, z4, lc4],
            [z4, z4, l4, z4],
            [z4, l4, z4, z4],
            [lc4, z4, z4, z4],
        ]),
    )


ASSOC_6 = _assoc_6()
ASSOC_16 = _assoc_16()


def write_fixtures(directory: str) -> dict[str, str]:
    """Write every built-in table under directory; return name -> path."""
    os.makedirs(directory, exist_ok=True)
    entries: dict[str, str] = {}

    def put(name: str, content: str) -> None:
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
        entries[name] = path

    put("b4c.txt", format_matrix(assemble_b4c()))
    put("relation6.txt", format_relation(RELATION_6))
    for i, mat in enumerate(ASSOC_6):
        put(f"assoc6_a{i}.txt", format_matrix(mat))
    for i, mat in enumerate(ASSOC_16):
        put(f"assoc16_a{i}.txt", format_matrix(mat))
    for i, mat in enumerate(CORES_16, start=1):
        put(f"core16_{i}.txt", format_matrix(mat))
    put("core12_regular.txt", format_matrix(CORES_12[0]))
    put("core12_boundary.txt", format_matrix(CORES_12[1]))
    put("metadata.json", json.dumps(
        {"schema_version": 1, "aut_orders": AUT_ORDERS}, indent=2,
    ) + "\n")
    return entries
