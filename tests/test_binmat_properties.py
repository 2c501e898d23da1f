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
The layout format_matrix writes is read in place, and each near miss
of it is left to the old way with the tokenizer's outcome.
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
    assert b"".join(binmat._format_parts(m)) == expected.encode("ascii")


# every character str.split() splits on below 0x80, CRLF, and four
# non-ASCII ones: NEL, no-break space, the ideographic space and the
# line separator
ASCII_SEPARATORS = ("\t", "\n", "\x0b", "\x0c", "\r", "\x1c", "\x1d", "\x1e", "\x1f",
                    " ", "\r\n")
SEPARATORS = ASCII_SEPARATORS + ("\x85", "\xa0", "\u3000", "\u2028")
# the same without "\n": a text made of these is one line to the reader
ONE_LINE = tuple(sep for sep in SEPARATORS if "\n" not in sep)
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
    few or too many entries, a bad header). Its separators break rows
    across lines at random, or keep it all on one line, or end each
    line with a carriage return only; it may have no final newline."""
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    spoil = draw(st.sampled_from(("none", "glued", "token", "count", "header")))
    alphabet = draw(st.sampled_from((ASCII_SEPARATORS, SEPARATORS, ONE_LINE, ("\r",))))
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
    end = draw(st.one_of(st.sampled_from(("", "\n", "\r\n")), run))
    return draw(st.sampled_from(("", " ", "\n"))) + header + body + end


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
@example("2 2\r1 0\r. 1\r")
@example("2 2 1 0 . 1")
@example("2 2\n1\n0 .\n1")
@example("2 2\u20281\u20280\u2028.\u20281")
@example("2 2\n1 0\n. x\n1 1 1")
@example("1 1")
@example("-1 -1\n2\n")
def test_parse_matrix_matches_the_split_tokenizer(text):
    expected = outcome(split_oracle, text)
    assert outcome(parse_matrix, text) == expected
    # the same text as a file's bytes
    assert outcome(parse_matrix, text.encode("utf-8")) == expected


def layout_examples(test):
    """Add a 3x3 and a 10x3 matrix: their headers, "3 3\\n" and "10 3\\n",
    have even and odd lengths, so the uint16 view of the body starts at
    an even and at an odd offset."""
    for rows, cols in ((3, 3), (10, 3)):
        rng = random.Random(rows)
        test = example(BinaryMatrix(rows, cols, tuple(rng.getrandbits(cols) for _ in range(rows))))(test)
    return test


@kernel_settings
@given(matrices())
@boundary_examples
@layout_examples
def test_format_matrix_text_is_read_in_place(m):
    # the layout format_matrix writes never reaches the line reader, whole
    # or in blocks of 7 entries (a block is one row when a row is longer)
    text = format_matrix(m)
    with mock.patch.object(binmat, "_read_grid") as tokens:
        assert parse_matrix(text) == m
        assert parse_matrix(text.encode("ascii")) == m
        with mock.patch.object(binmat, "_LAYOUT_BLOCK", 7):
            assert parse_matrix(text) == m
    assert not tokens.called


def near_misses(text: str) -> dict[str, str]:
    """A format_matrix text of at least two columns, by name, changed
    in each one way that leaves the layout."""
    header, body = text.split("\n", 1)
    rows, cols = header.split()
    last_space = len(header) + 1 + body.rindex(" ")
    zero = len(header) + 1 + body.index("0")
    return {
        "no final newline": text[:-1],
        "CRLF": text.replace("\n", "\r\n"),
        "tab": text[:last_space] + "\t" + text[last_space + 1:],
        "trailing space": text + " ",
        "space before a newline": text[:-1] + " \n",
        "double space": text[:last_space] + "  " + text[last_space + 1:],
        "dot": text[:zero] + "." + text[zero + 1:],
        "space before the header": " " + text,
        "newline before the header": "\n" + text,
        "leading zero in rows": f"0{rows} {cols}\n{body}",
        "leading zero in cols": f"{rows} 0{cols}\n{body}",
        "plus sign": f"+{rows} {cols}\n{body}",
        "one entry short": text[:-3] + "\n",
        "one entry long": text[:-1] + " 0\n",
        "0xff token": text[:zero] + "\xff" + text[zero + 1:],
    }


@pytest.mark.parametrize("shape", [(1, 2), (2, 2), (3, 3), (10, 3)])
def test_near_misses_of_the_layout_take_the_old_path(shape):
    # "1 2\n" to "3 3\n" have an even length, "10 3\n" an odd one; the
    # headers include "01 2" and "+2 2". In blocks of 6 entries the last
    # tab or double space of a 10x3 grid is in the last block, and in its
    # second row
    rows, cols = shape
    # column 0 holds the zeros, the others the ones
    m = BinaryMatrix(rows, cols, tuple((1 << cols) - 2 for _ in range(rows)))
    misses = near_misses(format_matrix(m))
    with mock.patch.object(binmat, "_LAYOUT_BLOCK", 6):
        for name, text in misses.items():
            data = text.encode("utf-8")
            if name == "0xff token":
                # as bytes: the one byte 0xff, which is not UTF-8
                data = text.encode("latin-1")
            assert binmat._parse_layout(text) is None, name
            assert binmat._parse_layout(data) is None, name
            expected = outcome(split_oracle, text)
            with mock.patch.object(binmat, "_read_grid", wraps=binmat._read_grid) as tokens:
                assert outcome(parse_matrix, text) == expected, name
                if name == "0xff token":
                    expected = outcome(lambda b: b.decode("utf-8"), data)
                    assert expected[0] is UnicodeDecodeError
                assert outcome(parse_matrix, data) == expected, name
            # every near miss goes to the line reader, as str and as
            # bytes; bytes that are not UTF-8 fail there, as they decode
            assert tokens.call_count == 2, name
