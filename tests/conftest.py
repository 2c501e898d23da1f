"""Fixtures shared by the test modules."""

import itertools

import pytest

from biplane_schemes.binmat import BinaryMatrix


@pytest.fixture(scope="session")
def gewirtz_b9e() -> BinaryMatrix:
    """The order-9 biplane b9e as a symmetric canonical matrix, built
    from the extended binary Golay code.

    The octads through coordinates 0 and 1, less those two, are the 77
    hexads of S(3,6,22); the 56 that avoid coordinate 2, adjacent when
    disjoint, form the Gewirtz graph SRG(56,10,0,2), and its adjacency
    matrix plus I is the biplane. Relabelling around vertex 0 (first
    itself, then its 10 neighbours, then the other common neighbour of
    each pair of them, pairs in lexicographic order) gives the canonical
    form.
    """
    g = 0b110001110101  # 1 + x^2 + x^4 + x^5 + x^6 + x^10 + x^11
    octads = []
    for msg in range(1 << 12):
        word = 0
        for d in range(12):
            if msg >> d & 1:
                word ^= g << d
        word |= (word.bit_count() & 1) << 23
        if word.bit_count() == 8:
            octads.append(word)
    assert len(octads) == 759
    hexads = [w >> 2 for w in octads if w & 0b11 == 0b11]
    vertices = [h for h in hexads if not h & 1]
    assert (len(hexads), len(vertices)) == (77, 56)
    adjacent = [[a != b and not a & b for b in vertices] for a in vertices]
    neighbours = [y for y in range(56) if adjacent[0][y]]
    order = [0] + neighbours
    for a, b in itertools.combinations(neighbours, 2):
        (z,) = [z for z in range(1, 56) if adjacent[a][z] and adjacent[b][z]]
        order.append(z)
    return BinaryMatrix.from_rows(
        [[int(a == b or adjacent[a][b]) for b in order] for a in order])
