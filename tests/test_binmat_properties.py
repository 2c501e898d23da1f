"""Property tests: the whole-matrix kernels and rearrangements of
BinaryMatrix against the per-entry oracles (to_lists, col_sum, row_dot),
and the text round trip.

Shapes run from 1 to 70 rows and columns, so they cross the byte (8)
and word (64) boundaries of the packed rows. Every pair of sizes in
BOUNDARY also runs as an explicit example, whatever hypothesis draws.
Uniform random bits leave almost no 64-bit word position with half its
rows zero, so row_dots is also checked on sparse rows (0 to 3 ones in
up to 200 columns) and relabelled D_m, where it adds blocks of rows;
nonzero, which unpacks only the nonzero bytes, is checked on both.

parse_matrix is checked against the str.split() tokenizer it replaced,
on grids with every kind of whitespace run, glued and bad tokens, wrong
entry counts and bad headers, each as a str and as its UTF-8 bytes.
"""

import random
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from biplane_schemes import binmat
from biplane_schemes.binmat import (
    BinaryMatrix,
    DimensionError,
    ShapeError,
    doubled,
    format_matrix,
    parse_matrix,
)

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


def seeded(m: BinaryMatrix) -> random.Random:
    return random.Random(str((m.rows, m.cols, m.bits)))


@kernel_settings
@given(matrices())
@boundary_examples
def test_transpose_matches_to_lists(m):
    assert m.transpose().to_lists() == [list(col) for col in zip(*m.to_lists())]


@kernel_settings
@given(matrices())
@boundary_examples
def test_permute_matches_to_lists(m):
    rng = seeded(m)
    p, q = list(range(m.rows)), list(range(m.cols))
    rng.shuffle(p)
    rng.shuffle(q)
    expected = [[0] * m.cols for _ in range(m.rows)]
    for i, row in enumerate(m.to_lists()):
        for j, entry in enumerate(row):
            expected[p[i]][q[j]] = entry
    assert m.permute(p, q).to_lists() == expected


@kernel_settings
@given(matrices())
@boundary_examples
def test_submatrix_matches_to_lists(m):
    # random index lists, in any order and with repeats
    rng = seeded(m)
    rows = [rng.randrange(m.rows) for _ in range(rng.randint(1, m.rows + 3))]
    cols = [rng.randrange(m.cols) for _ in range(rng.randint(1, m.cols + 3))]
    entries = m.to_lists()
    expected = [[entries[i][j] for j in cols] for i in rows]
    assert m.submatrix(rows, cols).to_lists() == expected


@kernel_settings
@given(matrices())
@boundary_examples
def test_is_symmetric_matches_to_lists(m):
    def oracle(s):
        entries = s.to_lists()
        return entries == [list(col) for col in zip(*entries)]

    if m.rows != m.cols:
        with pytest.raises(ShapeError):
            m.is_symmetric()
    else:
        assert m.is_symmetric() == oracle(m)
    # the upper triangle of m's leading square mirrored, and the same
    # with one entry off the diagonal flipped
    n = min(m.rows, m.cols)
    entries = m.to_lists()
    mirrored = [[entries[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    assert BinaryMatrix.from_rows(mirrored).is_symmetric()
    if n > 1:
        i, j = seeded(m).sample(range(n), 2)
        mirrored[i][j] ^= 1
        flipped = BinaryMatrix.from_rows(mirrored)
        assert not flipped.is_symmetric()
        assert not oracle(flipped)


@kernel_settings
@given(sparse_matrices())
@sparse_examples
def test_row_dots_match_row_dot_on_sparse_words(m):
    expected = [[m.row_dot(i, j) for j in range(m.rows)] for i in range(m.rows)]
    assert m.row_dots().tolist() == expected


def ones_in_row_major_order(m: BinaryMatrix) -> list[tuple[int, int]]:
    return [(i, j) for i, row in enumerate(m.to_lists()) for j, entry in enumerate(row) if entry]


@kernel_settings
@given(matrices())
@boundary_examples
def test_nonzero_matches_to_lists(m):
    rows, cols = m.nonzero()
    assert list(zip(rows.tolist(), cols.tolist())) == ones_in_row_major_order(m)


@kernel_settings
@given(sparse_matrices())
@sparse_examples
def test_nonzero_matches_to_lists_on_sparse_words(m):
    rows, cols = m.nonzero()
    assert list(zip(rows.tolist(), cols.tolist())) == ones_in_row_major_order(m)


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
    assert binmat._format_bytes(m) == expected.encode("ascii")


# every character str.split() splits on below 0x80, CRLF, and three
# non-ASCII ones: NEL, no-break space and the ideographic space
ASCII_SEPARATORS = ("\t", "\n", "\x0b", "\x0c", "\r", "\x1c", "\x1d", "\x1e", "\x1f",
                    " ", "\r\n")
SEPARATORS = ASCII_SEPARATORS + ("\x85", "\xa0", "\u3000")
FS_TO_US = set("\x1c\x1d\x1e\x1f")
BAD_TOKENS = ("00", "1.", "10", "..", "2", "x", "-1", "\x00", "\x1b", "0\x1b", "\xe9", "\uff11")
BAD_HEADERS = ("", "3", "x y", "2 x", "1.5 2", "-1 -1", "-2 3", "3 0", "0 0", "+2 1", "1_0 1",
               "\u0662 1", "- 1", "--1 1")


def split_oracle(text: str) -> BinaryMatrix:
    """parse_matrix as one str.split() token at a time, with its messages."""
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("missing 'rows cols' header")
    # ASCII digits after at most one minus sign: int() alone would also
    # take a plus sign, an underscore or another script's digits
    if not all(re.fullmatch("-?[0-9]+", t) for t in tokens[:2]):
        raise ValueError(f"malformed header {tokens[:2]!r}")
    rows, cols = int(tokens[0]), int(tokens[1])
    body = tokens[2:]
    if len(body) != rows * cols:
        raise ValueError(
            f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(body)}"
        )
    if rows < 1 or cols < 1:
        raise DimensionError(f"dimensions must be positive, got {rows}x{cols}")
    values = {"0": 0, ".": 0, "1": 1}
    for index, tok in enumerate(body):
        if tok not in values:
            i, j = divmod(index, cols)
            raise ValueError(f"bad entry token {tok!r} at row {i}, column {j}")
    return BinaryMatrix.from_rows(
        [[values[tok] for tok in body[i * cols:(i + 1) * cols]] for i in range(rows)]
    )


@st.composite
def grid_texts(draw) -> str:
    """A grid text: valid, or spoilt in one way (glued or bad tokens, too
    few or too many entries, a bad header)."""
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    spoil = draw(st.sampled_from(("none", "glued", "token", "count", "header")))
    alphabet = draw(st.sampled_from((ASCII_SEPARATORS, SEPARATORS)))
    run = st.lists(st.sampled_from(alphabet), min_size=1, max_size=3).map("".join)
    count = rows * cols
    if spoil == "count":
        count = draw(st.integers(0, rows * cols + 3).filter(lambda n: n != rows * cols))
    elif spoil == "header":
        count = draw(st.integers(0, 4))
    tokens = draw(st.lists(st.sampled_from("01."), min_size=count, max_size=count))
    if spoil == "token" and tokens:
        for _ in range(draw(st.integers(1, 2))):
            tokens[draw(st.integers(0, count - 1))] = draw(st.sampled_from(BAD_TOKENS))
    header = f"{rows} {cols}"
    if spoil == "header":
        header = draw(st.sampled_from(BAD_HEADERS))
    gaps = [draw(run) for _ in tokens]
    if spoil == "glued" and len(tokens) > 1:
        # join neighbours into tokens of several characters: the text
        # still holds rows * cols characters of 0, 1 and '.'
        for index in draw(st.sets(st.integers(1, len(tokens) - 1), min_size=1)):
            gaps[index] = ""
    body = "".join(gap + tok for gap, tok in zip(gaps, tokens))
    return draw(st.sampled_from(("", " ", "\n"))) + header + body + draw(run)


def outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(deadline=None, derandomize=True, database=None, max_examples=300)
@given(grid_texts())
@example("2 2\r\n1\t0\r\n.\t1\r\n")
@example("2 2\n1\x1c0\x1d.\x1e1\x1f")
@example("2\x1c2\n1 0\n0 1")
@example("2 2\x1f1 0\n0 1")
@example("1 2\n00")
@example("2 2\n1\u30000\n0\xa01\x85")
@example("1 1")
@example("-1 -1\n2\n")
def test_parse_matrix_matches_the_split_tokenizer(text):
    with mock.patch.object(binmat, "_parse_tokens", wraps=binmat._parse_tokens) as slow:
        got = outcome(parse_matrix, text)
    expected = outcome(split_oracle, text)
    assert got == expected
    if isinstance(expected, BinaryMatrix) and text.isascii():
        # an ASCII grid that parses never needs the token-by-token path
        assert not slow.called
    # the same text as a file's bytes; bytes.split() does not split on
    # \x1c-\x1f, so only a text holding one of them may need the token path
    with mock.patch.object(binmat, "_parse_tokens", wraps=binmat._parse_tokens) as slow:
        assert outcome(parse_matrix, text.encode("utf-8")) == expected
    if isinstance(expected, BinaryMatrix) and text.isascii() and not FS_TO_US & set(text):
        assert not slow.called
