"""Biplane verification, the canonical head, and the assembled order-4 biplane."""

import itertools

import numpy as np
import pytest

from biplane_schemes.binmat import (
    BinaryMatrix,
    ShapeError,
    constant,
    identity,
    path_loop,
)
from biplane_schemes import biplane
from biplane_schemes.biplane import (
    ParameterError,
    VerificationError,
    assemble_b4c,
    block_size_for,
    canonical_head,
    has_canonical_form,
    head_width,
    symmetric_canonical_defect,
    verify_biplane,
)
from biplane_schemes.fixtures import b9e
from biplane_schemes.search import SearchConfig, search_symmetric_canonical

# 2-(7,4,2): rows are points, columns are the complements of the seven
# triples {0,1,2},{0,3,4},{0,5,6},{1,3,5},{1,4,6},{2,3,6},{2,4,5}
TRIPLES_7 = [
    (0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5),
]


def order_2_biplane() -> BinaryMatrix:
    rows = [[0 if p in blk else 1 for blk in TRIPLES_7] for p in range(7)]
    return BinaryMatrix.from_rows(rows)


def test_head_width():
    assert [head_width(k) for k in range(1, 8)] == [1, 2, 4, 7, 11, 16, 22]
    assert head_width(11) == 56


def test_block_size_for():
    for k in range(1, 12):
        assert block_size_for(head_width(k)) == k
    for v in (3, 5, 6, 8, 9, 10, 12):
        with pytest.raises(ShapeError):
            block_size_for(v)
    with pytest.raises(ShapeError):
        block_size_for(0)


def test_canonical_head_structure():
    for k in range(3, 9):
        h = canonical_head(k)
        assert (h.rows, h.cols) == (k, head_width(k))
        assert h.col_sum(0) == k
        assert all(h.col_sum(j) == 2 for j in range(1, h.cols))
        assert h.row_sums() == [k] * k
        for i in range(k):
            for j in range(i + 1, k):
                assert h.row_dot(i, j) == 2


def test_canonical_head_small_k():
    assert canonical_head(3).to_lists() == [
        [1, 1, 1, 0],
        [1, 1, 0, 1],
        [1, 0, 1, 1],
    ]
    with pytest.raises(ParameterError):
        canonical_head(2)


def test_assemble_b4c_certificate():
    m = assemble_b4c()
    cert = verify_biplane(m)
    assert (cert.k, cert.v, cert.order) == (6, 16, 4)
    assert cert.canonical and cert.full_trace and cert.symmetric
    assert m.trace() == 16
    assert m.is_symmetric()
    assert cert.report() == {
        "k": 6, "v": 16, "order": 4,
        "canonical": True, "full_trace": True, "symmetric": True,
    }


def test_assemble_b4c_checks_the_diagonals_are_disjoint(monkeypatch):
    # an explicit check, so python -O keeps it
    monkeypatch.setattr(biplane, "anti_diagonal", identity)
    with pytest.raises(RuntimeError, match="overlap"):
        assemble_b4c()


def test_verify_order_2_biplane():
    cert = verify_biplane(order_2_biplane())
    assert (cert.k, cert.v, cert.order) == (4, 7, 2)
    assert not cert.canonical


def test_verify_trivial_biplane():
    # complement of I4 is the four-triangle biplane on 4 points
    m = BinaryMatrix.from_rows([
        [0, 1, 1, 1],
        [1, 0, 1, 1],
        [1, 1, 0, 1],
        [1, 1, 1, 0],
    ])
    cert = verify_biplane(m)
    assert (cert.k, cert.order) == (3, 1)
    assert not cert.canonical and not cert.full_trace
    # J_2 is the only biplane with k <= 2
    cert = verify_biplane(constant(2, 2, 1))
    assert (cert.k, cert.v, cert.order) == (2, 2, 0)


def test_verify_rejections():
    with pytest.raises(VerificationError) as err:
        verify_biplane(constant(2, 3, 1))
    assert err.value.axiom == "square"

    with pytest.raises(VerificationError) as err:
        verify_biplane(identity(4))
    assert err.value.axiom == "point-count"

    # no pair of points witnesses lambda = 2, so [1] has no order -1
    with pytest.raises(VerificationError) as err:
        verify_biplane(constant(1, 1, 1))
    assert (err.value.axiom, err.value.witness) == ("point-count", (1, 1))
    assert str(err.value) == "1 point: no pair of points witnesses lambda = 2"

    with pytest.raises(VerificationError) as err:
        verify_biplane(BinaryMatrix.from_rows([[1, 1], [1, 0]]))
    assert err.value.axiom == "row-regularity"

    with pytest.raises(VerificationError) as err:
        verify_biplane(BinaryMatrix.from_rows([
            [1, 1, 0, 0],
            [1, 1, 0, 0],
            [0, 1, 1, 0],
            [0, 0, 1, 1],
        ]))
    assert err.value.axiom == "column-regularity"

    with pytest.raises(VerificationError) as err:
        verify_biplane(constant(1, 1, 0))
    assert err.value.axiom == "row-regularity"


def test_verify_names_the_first_bad_column():
    # columns 1 (sum 3) and 3 (sum 1) both break regularity
    with pytest.raises(VerificationError) as err:
        verify_biplane(BinaryMatrix.from_rows([
            [1, 1, 0, 0],
            [1, 1, 0, 0],
            [0, 1, 1, 0],
            [0, 0, 1, 1],
        ]))
    assert err.value.axiom == "column-regularity"
    assert err.value.witness == (1, 3)
    assert str(err.value) == "column 1 sums to 3, rows sum to 2"


def swapped_order_2_biplane() -> BinaryMatrix:
    """order_2_biplane with its first 2x2 pattern [[1, 0], [0, 1]]
    turned into [[0, 1], [1, 0]]: every line sum stays, but pair
    balance breaks somewhere."""
    rows = order_2_biplane().to_lists()
    i1, i2, j1, j2 = next(
        (i1, i2, j1, j2)
        for i1, i2 in itertools.combinations(range(7), 2)
        for j1, j2 in itertools.combinations(range(7), 2)
        if (rows[i1][j1], rows[i1][j2], rows[i2][j1], rows[i2][j2]) == (1, 0, 0, 1)
    )
    rows[i1][j1], rows[i1][j2], rows[i2][j1], rows[i2][j2] = 0, 1, 1, 0
    return BinaryMatrix.from_rows(rows)


def test_verify_balance_rejection():
    swapped = swapped_order_2_biplane()
    with pytest.raises(VerificationError) as err:
        verify_biplane(swapped)
    assert err.value.axiom == "row-balance"
    # the first bad pair i < j in row-major order
    assert err.value.witness == (0, 1, 3)
    assert str(err.value) == "rows 0,1 share 3 columns, want 2"


def test_verify_rejects_a_wide_circulant_at_row_0():
    # rows of 45 consecutive ones on 1 + C(45,2) = 991 points: regular,
    # of biplane width, but neighbouring rows share 44 columns
    k, v = 45, 991
    block, full = (1 << k) - 1, (1 << v) - 1
    rows = tuple(((block << r) | (block >> (v - r))) & full for r in range(v))
    with pytest.raises(VerificationError) as err:
        verify_biplane(BinaryMatrix(v, v, rows))
    assert err.value.axiom == "row-balance"
    assert err.value.witness == (0, 1, 44)
    assert str(err.value) == "rows 0,1 share 44 columns, want 2"


def test_verify_names_a_first_bad_pair_past_row_0():
    # swap a [[1, 0], [0, 1]] pattern below row 0 in two columns where
    # row 0 holds the same entry: line sums and row 0's pairs all stay
    rows = assemble_b4c().to_lists()
    i1, i2, j1, j2 = next(
        (i1, i2, j1, j2)
        for i1, i2 in itertools.combinations(range(1, 16), 2)
        for j1, j2 in itertools.combinations(range(16), 2)
        if rows[0][j1] == rows[0][j2]
        and (rows[i1][j1], rows[i1][j2], rows[i2][j1], rows[i2][j2]) == (1, 0, 0, 1)
    )
    rows[i1][j1], rows[i1][j2], rows[i2][j1], rows[i2][j2] = 0, 1, 1, 0
    bad = [
        (i, j, d)
        for i, j in itertools.combinations(range(16), 2)
        if (d := sum(a & b for a, b in zip(rows[i], rows[j]))) != 2
    ]
    assert bad and bad[0][0] > 0
    with pytest.raises(VerificationError) as err:
        verify_biplane(BinaryMatrix.from_rows(rows))
    assert err.value.axiom == "row-balance"
    assert err.value.witness == bad[0]


def oracle_row_balance(m: BinaryMatrix) -> None:
    """The pair-balance check verify_biplane made before it looped over
    the packed rows, kept as its oracle: a scan of row 0, then the whole
    row_dots table. Raises VerificationError for the first bad pair."""
    v = m.rows
    first = m.bits[0]
    for j in range(1, v):
        d = (first & m.bits[j]).bit_count()
        if d != 2:
            raise VerificationError(
                "row-balance", (0, j, d), f"rows 0,{j} share {d} columns, want 2"
            )
    dots = m.row_dots()
    np.fill_diagonal(dots, 2)
    bad = np.argwhere(dots != 2)
    if len(bad):
        i, j = bad[0].tolist()
        d = int(dots[i, j])
        raise VerificationError(
            "row-balance", (i, j, d), f"rows {i},{j} share {d} columns, want 2"
        )


def interchanges(m: BinaryMatrix) -> list[tuple[int, int, int]]:
    """(i1, i2, flip) for every 2x2 pattern [[1, 0], [0, 1]] in rows
    i1 < i2 and columns j1, j2 in any order, with flip the mask of j1
    and j2: XORing flip into both rows swaps the pattern for
    [[0, 1], [1, 0]] and keeps all line sums."""
    def ones(row):
        return [1 << j for j in range(row.bit_length()) if row >> j & 1]

    bits = m.bits
    return [(i1, i2, one1 | one2)
            for i1, i2 in itertools.combinations(range(m.rows), 2)
            for one1 in ones(bits[i1] & ~bits[i2])
            for one2 in ones(bits[i2] & ~bits[i1])]


def interchanged(m: BinaryMatrix, i1: int, i2: int, flip: int) -> BinaryMatrix:
    bits = list(m.bits)
    bits[i1] ^= flip
    bits[i2] ^= flip
    return BinaryMatrix(m.rows, m.cols, tuple(bits))


def test_pair_balance_matches_the_row_dots_oracle():
    # verify_biplane passes, or names the same axiom, witness and
    # message, exactly when the oracle does, on every single
    # interchange of the order-2 biplane and of b4c, a few seeded ones
    # of b9e, and a wide circulant
    def outcome(check, m):
        try:
            check(m)
        except VerificationError as exc:
            return exc.axiom, exc.witness, str(exc)
        return None

    small = (order_2_biplane(), assemble_b4c())
    corpus = [*small, *(interchanged(m, *at) for m in small for at in interchanges(m))]
    big = b9e()
    spots = interchanges(big)
    rng = np.random.default_rng(39)
    corpus += [big, *(interchanged(big, *spots[i])
                      for i in rng.choice(len(spots), size=12, replace=False))]
    k, v = 45, 991
    block, full = (1 << k) - 1, (1 << v) - 1
    corpus.append(BinaryMatrix(v, v, tuple(((block << r) | (block >> (v - r))) & full
                                           for r in range(v))))
    seen = set()
    for m in corpus:
        got = outcome(verify_biplane, m)
        assert got == outcome(oracle_row_balance, m)
        seen.add(got is None or (got[0], got[1][0] > 0))
    # passes, rejections at row 0 and rejections past it
    assert seen == {True, ("row-balance", False), ("row-balance", True)}


def is_srg_plus_identity(m: BinaryMatrix) -> bool:
    """A - I is the adjacency matrix of an SRG(1 + C(k,2), k-1, 0, 2),
    with k the first row sum: symmetric with zero diagonal, and
    (A - I)^2 = (k-1)I + 2(J - I - (A - I)). Plain numpy products, so
    it shares no code with verify_biplane or row_dots."""
    a = m.to_numpy()
    v, k = len(a), int(a[0].sum())
    i = np.eye(v, dtype=np.int64)
    g = a - i
    return (
        np.array_equal(g, g.T)
        and not np.diagonal(g).any()
        and np.array_equal(g @ g, (k - 1) * i + 2 * (np.ones_like(g) - i - g))
    )


def test_srg_oracle_agrees_with_verify_biplane():
    (k6,) = search_symmetric_canonical(SearchConfig(k=6)).solutions
    # the Clebsch graph twice, then the Gewirtz graph
    for m, k in ((assemble_b4c(), 6), (k6, 6), (b9e(), 11)):
        assert is_srg_plus_identity(m)
        cert = verify_biplane(m)
        assert cert.k == k and cert.symmetric and cert.full_trace

    swapped = swapped_order_2_biplane()
    assert not is_srg_plus_identity(swapped)
    with pytest.raises(VerificationError):
        verify_biplane(swapped)


def test_has_canonical_form():
    m = assemble_b4c()
    assert has_canonical_form(m)
    shuffled = m.permute(
        list(range(14)) + [15, 14], list(range(16)))
    assert not has_canonical_form(shuffled)
    # the head rows are right, but tail row 10 has a 1 in head column 0
    rows = m.to_lists()
    rows[10][0] = 1
    assert not has_canonical_form(BinaryMatrix.from_rows(rows))
    with pytest.raises(ShapeError):
        has_canonical_form(constant(3, 4, 1))
    with pytest.raises(ShapeError):
        has_canonical_form(identity(5))
    with pytest.raises(ShapeError):
        has_canonical_form(identity(2))  # width gives k = 2, below 3


def test_has_canonical_form_matches_the_row_int_definition():
    # the head's rows, then its transpose's rows, as row ints; a
    # perturbed copy changes one row or one column pair in or out of
    # the head, or the head itself
    def by_row_ints(m):
        head = canonical_head(biplane.block_size_for(m.rows))
        return m.bits[:head.rows] == head.bits and m.transpose().bits[:head.rows] == head.bits

    rng = np.random.default_rng(34)
    seen = set()
    for m in (assemble_b4c(), b9e()):
        v = m.rows
        copies = [m, BinaryMatrix.from_numpy(m.to_numpy())]
        for _ in range(40):
            a, b = sorted(rng.choice(v, size=2, replace=False).tolist())
            swap = list(range(v))
            swap[a], swap[b] = b, a
            copies += [m.permute(swap, range(v)), m.permute(range(v), swap), m.permute(swap, swap)]
            flipped = m.to_numpy()
            flipped[rng.integers(v), rng.integers(v)] ^= 1
            copies.append(BinaryMatrix.from_numpy(flipped))
        for copy in copies:
            assert has_canonical_form(copy) == by_row_ints(copy)
            seen.add(by_row_ints(copy))
    assert seen == {True, False}


def test_symmetric_canonical_defect_names_the_first_failed_property():
    b4c = assemble_b4c()
    swap = list(range(14)) + [15, 14]
    cases = [
        (b4c, None),
        (b9e(), None),
        (identity(16), "not a biplane: 16 points but 1 + C(1,2) = 1"),
        (b4c.permute(swap, range(16)), "matrix is not symmetric"),
        # J - I: the trivial biplane with an empty diagonal
        (BinaryMatrix(4, 4, tuple(15 ^ 1 << i for i in range(4))),
         "trace 0 is below the point count 4"),
        (b4c.permute(swap, swap), "matrix is not in canonical form"),
    ]
    for m, defect in cases:
        assert symmetric_canonical_defect(m) == defect


def test_b4c_head_rows():
    m = assemble_b4c()
    head = canonical_head(6)
    assert m.submatrix(range(6), range(16)) == head
    assert m.submatrix(range(16), range(6)) == head.transpose()
