"""Property tests: the whole-matrix kernels of BinaryMatrix against the
per-entry oracles (to_lists, col_sum, row_dot), and the text round trip.

Shapes run from 1 to 70 rows and columns, so they cross the byte (8)
and word (64) boundaries of the packed rows. Every pair of sizes in
BOUNDARY also runs as an explicit example, whatever hypothesis draws.
Uniform random bits leave almost no 64-bit word position with half its
rows zero, so row_dots is also checked on sparse rows (0 to 3 ones in
up to 200 columns) and relabelled D_m, where it adds blocks of rows.
"""

import random

from hypothesis import example, given, settings, strategies as st

from biplane_schemes.binmat import BinaryMatrix, doubled, format_matrix, parse_matrix
from biplane_schemes.incidence import IncidenceStructure, balance

BOUNDARY = (7, 8, 9, 63, 64, 65)
SIZES = st.one_of(st.sampled_from(BOUNDARY), st.integers(1, 70))

kernel_settings = settings(deadline=None, derandomize=True, database=None)


@st.composite
def matrices(draw) -> BinaryMatrix:
    rows, cols = draw(SIZES), draw(SIZES)
    bits = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    return BinaryMatrix(rows, cols, tuple(bits))


@st.composite
def sparse_matrices(draw) -> BinaryMatrix:
    rows, cols = draw(SIZES), draw(st.integers(1, 200))
    row_ones = st.lists(st.integers(0, cols - 1), max_size=3)
    bits = draw(st.lists(row_ones, min_size=rows, max_size=rows))
    return BinaryMatrix(rows, cols, tuple(sum(1 << j for j in set(js)) for js in bits))


def sparse_examples(test):
    """Add seeded relabellings of D_m, and a matrix whose first word is
    nonzero in every row and whose second is nonzero in row 5 only."""
    for m in (3, 20, 40, 70):
        d = doubled(m)
        rng = random.Random(m)
        p, q = list(range(d.rows)), list(range(d.cols))
        rng.shuffle(p)
        rng.shuffle(q)
        test = example(d.permute(p, q))(test)
    rng = random.Random(128)
    mixed = [rng.getrandbits(64) | 1 for _ in range(9)]
    mixed[5] |= 1 << 100
    return example(BinaryMatrix(9, 128, tuple(mixed)))(test)


def boundary_examples(test):
    """Add a seeded random matrix of every BOUNDARY x BOUNDARY shape as an example."""
    for rows in BOUNDARY:
        for cols in BOUNDARY:
            rng = random.Random(1000 * rows + cols)
            m = BinaryMatrix(rows, cols, tuple(rng.getrandbits(cols) for _ in range(rows)))
            test = example(m)(test)
    return test


@kernel_settings
@given(matrices())
@boundary_examples
def test_to_numpy_matches_to_lists(m):
    assert m.to_numpy().tolist() == m.to_lists()


@kernel_settings
@given(matrices())
@boundary_examples
def test_from_numpy_inverts_to_numpy(m):
    assert BinaryMatrix.from_numpy(m.to_numpy()) == m
    assert BinaryMatrix.from_numpy(m.to_numpy().astype(bool)) == m


@kernel_settings
@given(matrices())
@boundary_examples
def test_col_sums_match_col_sum(m):
    assert m.col_sums() == [m.col_sum(j) for j in range(m.cols)]


@kernel_settings
@given(matrices())
@boundary_examples
def test_row_dots_match_row_dot(m):
    expected = [[m.row_dot(i, j) for j in range(m.rows)] for i in range(m.rows)]
    assert m.row_dots().tolist() == expected


@kernel_settings
@given(sparse_matrices())
@sparse_examples
def test_row_dots_match_row_dot_on_sparse_words(m):
    expected = [[m.row_dot(i, j) for j in range(m.rows)] for i in range(m.rows)]
    assert m.row_dots().tolist() == expected


@kernel_settings
@given(matrices())
@boundary_examples
def test_balance_matches_row_dot_pairs(m):
    pairs = {m.row_dot(p, q) for p in range(m.rows) for q in range(p + 1, m.rows)}
    assert balance(IncidenceStructure(m), 2) == (pairs.pop() if len(pairs) == 1 else None)


@kernel_settings
@given(matrices())
@boundary_examples
def test_parse_format_round_trip_with_dots(m):
    text = format_matrix(m)
    assert parse_matrix(text) == m
    # about half of the '0' tokens written as the synonym '.', in a
    # pattern seeded by the matrix text
    rng = random.Random(text)
    header, *lines = text.splitlines()
    dotted = [
        " ".join("." if tok == "0" and rng.random() < 0.5 else tok for tok in line.split())
        for line in lines
    ]
    assert parse_matrix("\n".join([header, *dotted]) + "\n") == m


@kernel_settings
@given(matrices())
@boundary_examples
def test_format_matrix_matches_an_entrywise_oracle(m):
    expected = f"{m.rows} {m.cols}\n" + "".join(
        " ".join(map(str, row)) + "\n" for row in m.to_lists()
    )
    assert format_matrix(m) == expected
