"""Bit-packed matrix kernel: construction, algebra, equivalence, text format."""

import pickle
import random
import tracemalloc
from collections import defaultdict
from typing import Optional

import numpy as np
import pytest

from biplane_schemes import binmat, fixtures
from biplane_schemes.binmat import (
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
from biplane_schemes.biplane import assemble_b4c
from biplane_schemes.extract import extract_design


def test_from_rows_round_trip():
    rows = [[1, 0, 1], [0, 1, 1]]
    m = BinaryMatrix.from_rows(rows)
    assert (m.rows, m.cols) == (2, 3)
    assert m.to_lists() == rows
    assert m[0, 0] == 1 and m[0, 1] == 0 and m[1, 2] == 1


def test_construction_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        BinaryMatrix.from_rows([])
    with pytest.raises(DimensionError):
        BinaryMatrix.from_rows([[1, 0], [1]])
    with pytest.raises(ValueError):
        BinaryMatrix.from_rows([[1, 2]])
    with pytest.raises(DimensionError):
        BinaryMatrix(2, 2, (0b100, 0))  # bit outside the declared width
    with pytest.raises(DimensionError, match="row 1 has bits outside 2 columns"):
        BinaryMatrix(2, 2, (0b11, 0b100))  # the first bit past the last column
    with pytest.raises(DimensionError, match="row 0 has bits outside 2 columns"):
        BinaryMatrix(2, 2, (-1, 0))  # a negative row has bits in every column
    with pytest.raises(DimensionError):
        BinaryMatrix(2, 2, (0,))


def test_from_numpy_rejects_bad_entries_and_shapes():
    with pytest.raises(ValueError, match="entry 2 is not 0 or 1"):
        BinaryMatrix.from_numpy(np.array([[1, 0], [2, -1]]))
    with pytest.raises(DimensionError):
        BinaryMatrix.from_numpy(np.zeros((0, 3), dtype=np.int64))
    with pytest.raises(DimensionError):
        BinaryMatrix.from_numpy(np.array([1, 0]))


def test_indexing_bounds():
    m = identity(3)
    with pytest.raises(IndexError):
        m[3, 0]
    with pytest.raises(IndexError):
        m[0, -1]


def test_sums_dots_count_trace():
    m = BinaryMatrix.from_rows([
        [1, 1, 0, 1],
        [0, 1, 1, 1],
        [1, 0, 1, 0],
    ])
    assert m.row_sums() == [3, 3, 2]
    assert m.col_sums() == [2, 2, 2, 2]
    assert m.row_dot(0, 1) == 2
    assert m.row_dot(0, 2) == 1
    assert m.count_ones() == 8
    with pytest.raises(ShapeError):
        m.trace()
    assert identity(5).trace() == 5
    assert anti_diagonal(4).trace() == 0


def test_symmetry():
    assert identity(4).is_symmetric()
    assert path_loop(5).is_symmetric()
    assert border(4).is_symmetric()
    assert not disjoint_cycles([3]).is_symmetric()
    with pytest.raises(ShapeError):
        constant(2, 3, 1).is_symmetric()


def test_transpose_involution_and_numpy_agreement():
    rng = random.Random(7)
    for _ in range(20):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        m = BinaryMatrix.from_rows(
            [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
        )
        assert m.transpose().transpose() == m
        assert np.array_equal(m.transpose().to_numpy(), m.to_numpy().T)


def test_submatrix():
    m = BinaryMatrix.from_rows([
        [1, 0, 1, 0],
        [0, 1, 0, 1],
        [1, 1, 0, 0],
    ])
    s = m.submatrix((0, 2), (1, 2, 3))
    assert s.to_lists() == [[0, 1, 0], [1, 0, 0]]
    with pytest.raises(IndexError):
        m.submatrix((0, 3), (0,))
    with pytest.raises(DimensionError):
        m.submatrix((), (0,))


def test_permute_definition():
    # entry (p(i), q(j)) of the image equals entry (i, j) of the source
    rng = random.Random(11)
    m = BinaryMatrix.from_rows(
        [[rng.randint(0, 1) for _ in range(5)] for _ in range(4)]
    )
    p = [2, 0, 3, 1]
    q = [4, 2, 0, 1, 3]
    out = m.permute(p, q)
    for i in range(4):
        for j in range(5):
            assert out[p[i], q[j]] == m[i, j]


def test_permute_validation():
    m = identity(3)
    with pytest.raises(PermutationError):
        m.permute([0, 1], [0, 1, 2])
    with pytest.raises(PermutationError):
        m.permute([0, 0, 1], [0, 1, 2])
    with pytest.raises(PermutationError):
        m.permute([0, 1, 3], [0, 1, 2])


def test_named_constructors():
    assert constant(2, 3, 1).to_lists() == [[1, 1, 1], [1, 1, 1]]
    assert constant(2, 2, 0).count_ones() == 0
    assert identity(3).to_lists() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert anti_diagonal(3).to_lists() == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    assert path_loop(2).to_lists() == [[1, 1], [1, 1]]
    assert path_loop(4).to_lists() == [
        [1, 1, 0, 0],
        [1, 0, 1, 0],
        [0, 1, 0, 1],
        [0, 0, 1, 1],
    ]
    assert border(3).to_lists() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    assert border(4).to_lists() == [
        [0, 1, 1, 0],
        [1, 0, 0, 1],
        [1, 0, 0, 1],
        [0, 1, 1, 0],
    ]


def test_constructor_degenerate_sizes():
    with pytest.raises(DimensionError):
        path_loop(1)
    with pytest.raises(DimensionError):
        border(2)
    with pytest.raises(DimensionError):
        doubled(2)
    with pytest.raises(DimensionError):
        disjoint_cycles([])
    with pytest.raises(DimensionError):
        disjoint_cycles([3, 2])
    with pytest.raises(ValueError):
        constant(2, 2, 2)


def test_line_sums_of_families():
    for n in range(2, 9):
        lp = path_loop(n)
        assert lp.row_sums() == [2] * n
        assert lp.col_sums() == [2] * n
    for n in range(3, 9):
        t = border(n)
        assert t.row_sums() == [n - 2] + [2] * (n - 2) + [n - 2]
    c = disjoint_cycles([3, 4, 5])
    assert c.row_sums() == [2] * 12
    assert c.col_sums() == [2] * 12


def test_doubled_block_structure():
    for m in (3, 5, 8):
        d = doubled(m)
        assert d.rows == d.cols == 2 * m
        i_m, l_m = identity(m), path_loop(m)
        assert d.submatrix(range(m), range(m)) == i_m
        assert d.submatrix(range(m), range(m, 2 * m)) == l_m
        assert d.submatrix(range(m, 2 * m), range(m)) == l_m
        assert d.submatrix(range(m, 2 * m), range(m, 2 * m)) == i_m
        assert d.is_symmetric()
        assert d.row_sums() == [3] * (2 * m)


def test_disjoint_cycles_blocks():
    c = disjoint_cycles([3, 4])
    assert c.submatrix(range(3), range(3)) == disjoint_cycles([3])
    assert c.submatrix(range(3, 7), range(3, 7)) == disjoint_cycles([4])
    assert c.submatrix(range(3), range(3, 7)).count_ones() == 0


def test_assemble():
    a = assemble([[identity(2), constant(2, 3, 1)], [constant(1, 2, 0), constant(1, 3, 0)]])
    assert a.to_lists() == [
        [1, 0, 1, 1, 1],
        [0, 1, 1, 1, 1],
        [0, 0, 0, 0, 0],
    ]
    with pytest.raises(DimensionError):
        assemble([[identity(2), identity(3)]])
    with pytest.raises(DimensionError):
        assemble([[identity(2)], [identity(3)]])
    with pytest.raises(DimensionError):
        assemble([])


def test_perm_equivalent_recovers_random_relabelings():
    rng = random.Random(23)
    for trial in range(15):
        rows, cols = rng.randint(2, 7), rng.randint(2, 7)
        a = BinaryMatrix.from_rows(
            [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
        )
        p = list(range(rows))
        q = list(range(cols))
        rng.shuffle(p)
        rng.shuffle(q)
        b = a.permute(p, q)
        witness = is_perm_equivalent(a, b)
        assert witness is not None
        wp, wq = witness
        assert a.permute(wp, wq) == b


def test_perm_equivalent_negatives():
    assert is_perm_equivalent(identity(3), identity(4)) is None
    assert is_perm_equivalent(identity(3), anti_diagonal(3)) is not None
    assert is_perm_equivalent(constant(2, 2, 1), identity(2)) is None
    # same line sums, different bipartite cycle structure
    assert is_perm_equivalent(disjoint_cycles([6]), disjoint_cycles([3, 3])) is None


def test_perm_equivalent_traps_a_witness_that_fails(monkeypatch):
    # the recheck of the found witness is an explicit error, so python -O keeps it
    monkeypatch.setattr(BinaryMatrix, "permute", lambda self, rows, cols: identity(self.rows))
    with pytest.raises(WitnessError):
        is_perm_equivalent(identity(3), anti_diagonal(3))


# is_perm_equivalent as it was before it matched columns in its backtrack:
# a row backtrack on the row-dot table, then a column completion at each
# leaf. The search must give its result, None or the same witness, on
# the corpus below
def oracle_perm_equivalent(
    a: BinaryMatrix, b: BinaryMatrix
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Search for (row_perm, col_perm) with a.permute(...) == b.

    Returns the witnessing pair, or None when the matrices are not
    equivalent. Row scalar products are invariant under column
    permutations, so candidate row maps must carry the whole row-dot
    table of ``a`` onto that of ``b``; that plus row/column-sum multiset
    pre-filters prunes the backtracking hard. Intended for orders up to
    a few dozen.
    """
    if (a.rows, a.cols) != (b.rows, b.cols):
        return None
    if sorted(a.row_sums()) != sorted(b.row_sums()):
        return None
    if sorted(a.col_sums()) != sorted(b.col_sums()):
        return None

    n = a.rows
    dots_a = a.row_dots().tolist()
    dots_b = b.row_dots().tolist()

    def signature(dots, sums, i):
        profile = sorted(dots[i][j] for j in range(n) if j != i)
        return (sums[i], tuple(profile))

    sums_a, sums_b = a.row_sums(), b.row_sums()
    sig_b: dict = defaultdict(list)
    for r in range(n):
        sig_b[signature(dots_b, sums_b, r)].append(r)
    candidates = []
    for i in range(n):
        cand = sig_b.get(signature(dots_a, sums_a, i), [])
        if not cand:
            return None
        candidates.append(cand)

    # assign the most constrained rows first
    order = sorted(range(n), key=lambda i: len(candidates[i]))
    assigned: list[Optional[int]] = [None] * n
    used = [False] * n

    def complete_columns() -> Optional[tuple[int, ...]]:
        # pull b's columns back through the row map, then match equal columns
        pulled = BinaryMatrix(n, b.cols, tuple(b.bits[r] for r in assigned))
        pool: dict = defaultdict(list)
        for c, vec in enumerate(pulled.transpose().bits):
            pool[vec].append(c)
        col_perm = [0] * a.cols
        for j, vec in enumerate(a.transpose().bits):
            bucket = pool.get(vec)
            if not bucket:
                return None
            col_perm[j] = bucket.pop()
        return tuple(col_perm)

    def backtrack(pos: int) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
        if pos == n:
            col_perm = complete_columns()
            if col_perm is None:
                return None
            return tuple(assigned), col_perm  # type: ignore[arg-type]
        i = order[pos]
        for r in candidates[i]:
            if used[r]:
                continue
            ok = True
            for earlier in order[:pos]:
                if dots_a[i][earlier] != dots_b[r][assigned[earlier]]:
                    ok = False
                    break
            if not ok:
                continue
            assigned[i] = r
            used[r] = True
            found = backtrack(pos + 1)
            if found is not None:
                return found
            assigned[i] = None
            used[r] = False
        return None

    witness = backtrack(0)
    if witness is None:
        return None
    row_perm, col_perm = witness
    if a.permute(row_perm, col_perm) != b:
        raise WitnessError(f"witness {row_perm}, {col_perm} does not carry a onto b")
    return row_perm, col_perm


def relabelled(m: BinaryMatrix, rng: random.Random) -> BinaryMatrix:
    return m.permute(rng.sample(range(m.rows), m.rows), rng.sample(range(m.cols), m.cols))


def random_matrix(rng: random.Random, rows: int, cols: int, density: float) -> BinaryMatrix:
    return BinaryMatrix.from_rows(
        [[int(rng.random() < density) for _ in range(cols)] for _ in range(rows)])


def equivalence_corpus() -> list[tuple[BinaryMatrix, BinaryMatrix]]:
    """Seeded pairs: random matrices up to 9 x 9 against a relabelling,
    a relabelling with one entry flipped and a random partner of the same
    density; relabellings of the bundled cores and relation matrices and
    of the named designs; and every pair of those of one shape."""
    rng = random.Random(38)
    pairs = []
    for _ in range(1_000):
        rows, cols, density = rng.randint(1, 9), rng.randint(1, 9), rng.random()
        a = random_matrix(rng, rows, cols, density)
        flipped = relabelled(a, rng).to_lists()
        flipped[rng.randrange(rows)][rng.randrange(cols)] ^= 1
        pairs += [(a, relabelled(a, rng)), (a, BinaryMatrix.from_rows(flipped)),
                  (a, random_matrix(rng, rows, cols, density))]
    zero = constant(8, 8, 0)
    members = [*fixtures.CORES_16, *fixtures.CORES_12, *fixtures.ASSOC_16[1:],
               *fixtures.ASSOC_6[1:], *map(doubled, range(3, 11)),
               extract_design(assemble_b4c()).core, extract_design(fixtures.b9e()).core,
               assemble([[doubled(4), zero], [zero, doubled(4)]])]
    for m in members:
        pairs += [(m, relabelled(m, rng)) for _ in range(3)]
    pairs += [(a, b) for a in members for b in members if (a.rows, a.cols) == (b.rows, b.cols)]
    return pairs


def test_perm_equivalent_finds_the_oracles_witness():
    found = 0
    for a, b in equivalence_corpus():
        witness = is_perm_equivalent(a, b)
        assert witness == oracle_perm_equivalent(a, b), (a, b)
        found += witness is not None
    # the 1,069 relabellings and 200 other pairs, 23 of them a member
    # against itself
    assert found == 1_269


def test_perm_equivalent_finds_relabelled_b4c():
    # on a biplane every two rows meet twice, so the row dots prune
    # nothing; the oracle did not finish any of these in 30 s
    b4c = assemble_b4c()
    for seed in (1, 2, 3):
        copy = relabelled(b4c, random.Random(seed))
        row_perm, col_perm = is_perm_equivalent(b4c, copy)
        assert b4c.permute(row_perm, col_perm) == copy


def rebuilt_grid(m: BinaryMatrix) -> np.ndarray:
    """The byte grid built afresh from m's row ints."""
    return BinaryMatrix(m.rows, m.cols, m.bits)._grid


def test_the_cached_grid_is_read_only():
    m = doubled(5)
    for grid in (m._grid, m.transpose()._grid):
        with pytest.raises(ValueError):
            grid[0, 0] = 1


def same_entries_two_ways(m: BinaryMatrix) -> tuple[BinaryMatrix, BinaryMatrix]:
    """Fresh copies of m, one built from row ints and one from its byte grid."""
    return BinaryMatrix(m.rows, m.cols, m.bits), binmat._from_grid(m._grid.copy(), m.cols)


def test_equality_and_hash_ignore_the_cached_grid():
    # a grid-built and an int-built matrix with the same entries agree on
    # ==, hash, repr, pickle and bits, whichever form is read first
    for first in ("bits", "_grid"):
        for m in (doubled(20), border(9).submatrix(range(9), range(1, 7)), constant(3, 8, 1)):
            by_ints, by_grid = same_entries_two_ways(m)
            assert "_grid" not in vars(by_ints) and "bits" not in vars(by_grid)
            for got in (by_ints, by_grid):
                getattr(got, first)
            assert by_ints == by_grid and hash(by_ints) == hash(by_grid)
            assert repr(by_ints) == repr(by_grid) and by_ints.bits == by_grid.bits
            assert np.array_equal(by_ints._grid, by_grid._grid)
            assert pickle.dumps(by_ints) == pickle.dumps(by_grid)
            assert pickle.loads(pickle.dumps(by_grid)) == m


def test_a_grid_built_matrix_builds_its_row_ints_only_when_read():
    _, m = same_entries_two_ways(doubled(30))
    assert (m.row_sums(), m.col_sums(), m.count_ones()) == ([3] * 60, [3] * 60, 180)
    m.nonzero(), m.row_dots(), m.transpose(), format_matrix(m)
    assert "bits" not in vars(m)
    assert m.bits is vars(m)["bits"] == doubled(30).bits


def test_matrices_are_immutable():
    for m in same_entries_two_ways(identity(3)):
        with pytest.raises(AttributeError):
            m.rows = 4
        with pytest.raises(AttributeError):
            del m.cols


def test_a_grid_with_a_bit_outside_cols_is_refused_as_row_ints_are():
    raw = np.zeros((4, 2), dtype=np.uint8)
    raw[2, 1] = 0b100  # column 10 of 10 columns
    raw[3, 1] = 0b1000
    with pytest.raises(DimensionError) as by_grid:
        binmat._from_grid(raw, 10)
    with pytest.raises(DimensionError) as by_ints:
        BinaryMatrix(4, 10, (0, 0, 1 << 10, 1 << 11))
    assert str(by_grid.value) == str(by_ints.value) == "row 2 has bits outside 10 columns"
    raw[2:, 1] = 0b11
    assert binmat._from_grid(raw, 10) == BinaryMatrix(4, 10, (0, 0, 0b11 << 8, 0b11 << 8))
    with pytest.raises(DimensionError, match="dimensions must be positive, got 0x3"):
        binmat._from_grid(np.zeros((0, 1), dtype=np.uint8), 3)


def test_col_sums_are_counted_once_and_returned_fresh(monkeypatch):
    m = doubled(6)
    calls = []
    unpacked = BinaryMatrix._unpacked
    monkeypatch.setattr(BinaryMatrix, "_unpacked", lambda self: calls.append(1) or unpacked(self))
    first = m.col_sums()
    first.sort(reverse=True)
    first[0] = 99
    assert m.col_sums() == [3] * 12 and len(calls) == 1


def test_constructors_store_the_grid_they_packed():
    m = doubled(40)
    rng = random.Random(3)
    p, q = list(range(m.rows)), list(range(m.cols))
    rng.shuffle(p)
    rng.shuffle(q)
    made = (parse_matrix(format_matrix(m)), parse_matrix(format_matrix(m).encode("ascii")),
            m.transpose(), m.permute(p, q), m.submatrix(p[:13], q[:70]), m,
            BinaryMatrix.from_numpy(m.to_numpy()))
    for got in made:
        assert "_grid" in vars(got) and "bits" not in vars(got)
        assert not got._grid.flags.writeable
        assert np.array_equal(got._grid, rebuilt_grid(got))


@pytest.mark.parametrize("m", [*range(3, 65), 500])
def test_doubled_is_its_blocks_assembled(m):
    ell = path_loop(m)
    blocks = assemble([[identity(m), ell], [ell, identity(m)]])
    d = doubled(m)
    assert d == blocks
    assert format_matrix(d) == format_matrix(blocks)


def test_pickle_round_trip_drops_the_grid():
    m = doubled(9).transpose()
    copy = pickle.loads(pickle.dumps(m))
    assert copy == m and hash(copy) == hash(m)
    assert "_grid" not in vars(copy)
    assert np.array_equal(copy._grid, m._grid)


def test_col_sums_past_255_rows():
    # a uint8 reduction would wrap these sums; the shapes drawn by the
    # property tests stay below 256 rows
    one_column = BinaryMatrix(257, 3, (0b010,) * 257)
    d = doubled(500)
    rng = random.Random(500)
    p = list(range(d.rows))
    rng.shuffle(p)
    for m in (constant(300, 9, 1), one_column, d.permute(p, p)):
        assert m.col_sums() == [m.col_sum(j) for j in range(m.cols)]
    assert one_column.col_sums() == [0, 257, 0]


def test_format_parse_round_trip():
    rng = random.Random(5)
    for _ in range(10):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = BinaryMatrix.from_rows(
            [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
        )
        assert parse_matrix(format_matrix(m)) == m


def test_parse_accepts_dots():
    assert parse_matrix("2 2\n1 .\n. 1\n") == identity(2)


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_matrix("")
    with pytest.raises(ValueError):
        parse_matrix("x y\n1 0")
    with pytest.raises(ValueError):
        parse_matrix("2 2\n1 0 1 0 1")
    # a lone surrogate, which no UTF-8 encodes, is a bad token
    with pytest.raises(ValueError, match=r"bad entry token '\\ud800' at row 0, column 1"):
        parse_matrix("1 2\n1 \ud800")
    with pytest.raises(ValueError):
        parse_matrix("1 2\n1 2")


def test_parse_error_names_the_first_bad_token_in_row_major_order():
    # column-major order would meet 'x' (row 1, column 0) first
    with pytest.raises(ValueError) as err:
        parse_matrix("2 3\n1 0 2\nx 1 0\n")
    assert str(err.value) == "bad entry token '2' at row 0, column 2"


def test_parse_names_a_token_of_several_valid_characters():
    # '00' is made of valid characters; only its length makes it bad
    with pytest.raises(ValueError) as err:
        parse_matrix("1 2\n00 1\n")
    assert str(err.value) == "bad entry token '00' at row 0, column 0"
    with pytest.raises(ValueError) as err:
        parse_matrix("2 2\n1 0\n0 1.\n")
    assert str(err.value) == "bad entry token '1.' at row 1, column 1"


def test_parse_of_a_header_of_more_entries_than_the_text_holds_allocates_nothing():
    # the header alone would ask for 10^10 entries
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            parse_matrix("100000 100000\n0 1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == "expected 10000000000 entries for a 100000x100000 matrix, got 2"
    assert peak < 1 << 20


def test_parse_checks_dimensions_before_tokens():
    # rows * cols = 1 entry, so the header passes the count check
    with pytest.raises(DimensionError, match="dimensions must be positive, got -1x-1"):
        parse_matrix("-1 -1\n2\n")
    with pytest.raises(DimensionError, match="got 3x0"):
        parse_matrix("3 0\n")
