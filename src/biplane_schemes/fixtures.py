"""Built-in reference tables.

The order-9 biplane b9e; four 16-point symmetric designs with line
sums 3, each b9e's core under a stored permutation of its labels 3..10
(extract on b9e reports "scheme": null); two 12-point near-miss tables
for the core line-sum check; the 6-point relation table with its four
associate matrices; and the block-built 16-point associate matrices
matching the second core table under the identity labeling.
write_fixtures puts the whole set on disk in the package text formats.

The 16-point associate matrices ASSOC_16 are not closed under
multiplication: ASSOC_16[2]^2 is 2 on some ASSOC_16[1] pairs and 0 on
others, so they span no Bose-Mesner algebra; the 16-point tables are
PBIBDs, not association schemes.

Automorphism group orders of the two source biplanes are carried as
metadata only; nothing here computes groups.
"""

from __future__ import annotations

import functools
import json
import os

import numpy as np

from .binmat import (
    BinaryMatrix,
    _rewrite,
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
from .extract import extraction_indices
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


@functools.cache
def b9e() -> BinaryMatrix:
    """The order-9 biplane b9e (k = 11, 56 points) as a symmetric
    canonical matrix, built from the extended binary Golay code.

    The octads through coordinates 0 and 1, less those two, are the 77
    hexads of S(3,6,22); the 56 that avoid coordinate 2, adjacent when
    disjoint, form the Gewirtz graph SRG(56,10,0,2), unique by Brouwer
    and Haemers, and its adjacency matrix plus I is the biplane.
    Relabelling around vertex 0 (first itself, then its 10 neighbours,
    then the other common neighbour of each pair of them, pairs in
    lexicographic order) gives the canonical form, so index s is the
    pair (0, s) and index 11 on the pairs of labels 1..10 in order.
    """
    g = 0b110001110101  # 1 + x^2 + x^4 + x^5 + x^6 + x^10 + x^11
    # g ends 0b101, so a word starts 0b011 exactly when its message ends
    # 0b111; words[n] is the word whose message has bits 3.. equal to n
    n = np.arange(1 << 9)
    words = np.full(1 << 9, g ^ g << 1 ^ g << 2)
    for i in range(9):
        words ^= (n >> i & 1) * (g << i + 3)
    parity = (np.bitwise_count(words) & 1).astype(words.dtype)
    octads = words | parity << 23  # coordinate 23 makes the weight even
    hexads = octads[np.bitwise_count(octads) == 8] >> 3
    adjacent = (hexads[:, None] & hexads) == 0
    neighbours = np.flatnonzero(adjacent[0])
    near = adjacent[neighbours]
    a, b = np.triu_indices(10, 1)  # the pairs of neighbours, in order
    # the common neighbours of a pair are vertex 0 and one more
    order = [0, *neighbours, *(near[a] & near[b])[:, 1:].argmax(axis=1) + 1]
    return BinaryMatrix.from_numpy(
        adjacent[np.ix_(order, order)] | np.eye(56, dtype=bool))


# CORES_16[i] is b9e's core with label 3 + j renamed _CORE16_RELABELS[i][j]
# (0..2 fixed); core position j is pair (1, 3 + j), and 8 + j pair (2, 3 + j)
_CORE16_RELABELS = ((3, 6, 7, 8, 10, 9, 5, 4), (3, 6, 9, 10, 8, 7, 4, 5),
                    (3, 7, 4, 6, 8, 10, 5, 9), (3, 7, 8, 10, 4, 6, 5, 9))


def _cores_16() -> tuple[BinaryMatrix, ...]:
    idx = extraction_indices(11)
    # table position p holds the core position renamed to it
    picks = ([idx[p // 8 * 8 + relabels.index(p % 8 + 3)] for p in range(16)]
             for relabels in _CORE16_RELABELS)
    return tuple(b9e().submatrix(pick, pick) for pick in picks)


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

CORES_12 = tuple(parse_matrix("12 12\n" + t) for t in _CORE12_TEXTS)
CORES_16 = _cores_16()


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
        _rewrite(path, (content.encode("utf-8"),))
        entries[name] = path

    put("b4c.txt", format_matrix(assemble_b4c()))
    put("b9e.txt", format_matrix(b9e()))
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
