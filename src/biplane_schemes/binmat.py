"""Exact (0,1)-matrix kernel with bit-packed rows.

A matrix is an immutable tuple of Python ints, one int per row, bit j
holding the entry in column j. The scalar product of two rows is then a
single AND plus popcount, which is where verification and search spend
nearly all of their time. Whole-matrix work starts from one packed
byte grid per matrix, _grid: row i as its little-endian bytes, in a
read-only uint8 array built from the row ints on first use and kept
(it is no field, so ==, hash, repr and pickle ignore it). Numpy
conversions, column sums, the positions of the ones, the table of all
row dots and the text grid all read it, so a matrix is turned into
bytes at most once. The rearrangements (transpose, submatrix,
permute, and is_symmetric as a transpose) go through one bridge:
_unpacked() turns the grid into a uint8 array of entries, numpy moves
the entries, and _pack() packs them into the new matrix and keeps the
packed bytes as its grid, as it does for from_numpy and an ASCII grid
text. Matrix files are read and written as bytes: an ASCII file is
never decoded, and format_matrix is the ASCII decode of the bytes the
CLI writes. Only the per-entry oracles that the tests compare
these kernels against (to_lists, col_sum, row_dot) and from_rows,
which checks outside input, loop over single entries in Python; a grid
text that is not ASCII, or that the byte check rejects, is split into
one string per token, to parse it or to name its first error. The
table of row dots reads each 64-bit word position's occupancy: a
sparse matrix such as D_m costs work in proportion to its nonzero
words, not to rows^2 x words. nonzero() unpacks only the nonzero
bytes, so for D_m it costs rows x cols / 8 byte reads and no table.

Constructors cover the named matrix families used throughout the
package: J (constant), I (identity), C- (anti-diagonal), L (path with
end loops), T (border), D (doubled), and disjoint unions of cycle
blocks. Block assembly, principal submatrices, permutations, and
permutation-equivalence testing live here too.

Indexing is 0-based everywhere in this module.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np


class DimensionError(ValueError):
    """Empty or inconsistent matrix dimensions."""


class ShapeError(ValueError):
    """Operation requires a shape the input does not have."""


class PermutationError(ValueError):
    """Permutation has the wrong length, duplicates, or bad indices."""


class _Trap(Exception):
    """Marker base of the bug traps: a consequence that should follow from
    verified hypotheses failed. The CLI reports every trap with exit 3."""


class WitnessError(_Trap, RuntimeError):
    """A found permutation witness does not carry one matrix onto the
    other; this is a bug trap."""


# ---------------------------------------------------------------------------
# core type
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BinaryMatrix:
    """Dense (0,1) matrix; ``bits[i]`` packs row i with bit j = column j."""

    rows: int
    cols: int
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise DimensionError(
                f"dimensions must be positive, got {self.rows}x{self.cols}"
            )
        if len(self.bits) != self.rows:
            raise DimensionError(
                f"expected {self.rows} packed rows, got {len(self.bits)}"
            )
        for i, row in enumerate(self.bits):
            if row < 0 or row >> self.cols:
                raise DimensionError(f"row {i} has bits outside {self.cols} columns")

    def __reduce__(self):
        # pickle the fields only, not the cached _grid
        return BinaryMatrix, (self.rows, self.cols, self.bits)

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int]]) -> "BinaryMatrix":
        packed = []
        width = None
        for row in rows:
            row = list(row)
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise DimensionError("ragged rows")
            acc = 0
            for j, entry in enumerate(row):
                if entry not in (0, 1):
                    raise ValueError(f"entry {entry!r} is not 0 or 1")
                acc |= entry << j
            packed.append(acc)
        if not packed or not width:
            raise DimensionError("matrix must have at least one row and one column")
        return BinaryMatrix(len(packed), width, tuple(packed))

    @staticmethod
    def from_numpy(a) -> "BinaryMatrix":
        """Inverse of to_numpy: a 2-d array of 0/1 entries (any dtype, bool too)."""
        a = np.asarray(a)
        if a.ndim != 2 or 0 in a.shape:
            raise DimensionError(f"need a non-empty 2-d array, got shape {a.shape}")
        bad = np.argwhere((a != 0) & (a != 1))
        if len(bad):
            entry = a[tuple(bad[0])].item()
            raise ValueError(f"entry {entry!r} is not 0 or 1")
        return _pack(a.astype(np.uint8))

    # -- element access ------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        self._check_row(i)
        self._check_col(j)
        return (self.bits[i] >> j) & 1

    def _check_row(self, i: int) -> None:
        if not 0 <= i < self.rows:
            raise IndexError(f"row index {i} out of range 0..{self.rows - 1}")

    def _check_col(self, j: int) -> None:
        if not 0 <= j < self.cols:
            raise IndexError(f"column index {j} out of range 0..{self.cols - 1}")

    # -- scalar queries ------------------------------------------------------

    def col_sum(self, j: int) -> int:
        self._check_col(j)
        return sum((row >> j) & 1 for row in self.bits)

    def row_sums(self) -> list[int]:
        return [row.bit_count() for row in self.bits]

    def col_sums(self) -> list[int]:
        # uint32 is exact below 2**32 rows and half the work of int64
        return self._unpacked().sum(axis=0, dtype=np.uint32).tolist()

    def row_dot(self, i: int, j: int) -> int:
        """Number of columns where rows i and j are both 1."""
        self._check_row(i)
        self._check_row(j)
        return (self.bits[i] & self.bits[j]).bit_count()

    def row_dots(self) -> np.ndarray:
        """The rows x rows int64 table whose entry (i, j) is row_dot(i, j).

        Each row is cut into 64-bit words, and entry (i, j) sums the
        popcounts of the ANDs of the two rows' words, one word position
        at a time. That is integer arithmetic with sums of at most cols,
        so the table is exact. A float64 BLAS product M M^T is exact as
        well, but BLAS runs it on a thread pool: on a 2-core host that
        stalled it by 8 to 16 ms from 100 rows up.

        A word position adds nonzero terms only between the rows that
        are nonzero there. When more than half the rows are, the whole
        outer popcount is added; otherwise only the block of those rows,
        through np.ix_, and an all-zero word adds nothing. Skipping zero
        terms leaves the table unchanged. The half is where the two cost
        the same: per entry, the np.ix_ scatter costs about 3.5x a
        full-row add. At 1000 rows that is 2.2 ms for D_500 (at most
        130 rows nonzero in any word), 3.9 ms for a relabelled D_500
        (at most about 190) and 35 ms, as before, for dense random bits
        (2-vCPU host, numpy 2.4).
        """
        words = np.zeros((self.rows, 8 * ((self.cols + 63) // 64)), dtype=np.uint8)
        words[:, :self._grid.shape[1]] = self._grid
        words = words.view("<u8")
        dots = np.zeros((self.rows, self.rows), dtype=np.int64)
        for word in words.T:
            idx = np.flatnonzero(word)
            if 2 * len(idx) > self.rows:
                dots += np.bitwise_count(np.bitwise_and.outer(word, word))
            elif len(idx):
                w = word[idx]
                dots[np.ix_(idx, idx)] += np.bitwise_count(np.bitwise_and.outer(w, w))
        return dots

    def count_ones(self) -> int:
        return sum(row.bit_count() for row in self.bits)

    def trace(self) -> int:
        if self.rows != self.cols:
            raise ShapeError("trace requires a square matrix")
        return sum((self.bits[i] >> i) & 1 for i in range(self.rows))

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            raise ShapeError("is_symmetric requires a square matrix")
        return self.transpose() == self

    # -- derived matrices ----------------------------------------------------

    def transpose(self) -> "BinaryMatrix":
        return _pack(self._unpacked().T)

    def submatrix(
        self, row_idx: Sequence[int], col_idx: Sequence[int]
    ) -> "BinaryMatrix":
        """Entries copied in index order; principal submatrix when the sets agree."""
        row_idx = list(row_idx)
        col_idx = list(col_idx)
        for i in row_idx:
            self._check_row(i)
        for j in col_idx:
            self._check_col(j)
        return _pack(self._unpacked()[np.ix_(row_idx, col_idx)])

    def permute(
        self, row_perm: Sequence[int], col_perm: Sequence[int]
    ) -> "BinaryMatrix":
        """Return B with B[row_perm[i], col_perm[j]] = self[i, j]."""
        rp = _validated_perm(row_perm, self.rows, "row")
        cp = _validated_perm(col_perm, self.cols, "column")
        grid = np.empty((self.rows, self.cols), dtype=np.uint8)
        grid[np.ix_(rp, cp)] = self._unpacked()
        return _pack(grid)

    # -- conversions ---------------------------------------------------------

    def to_lists(self) -> list[list[int]]:
        return [
            [(row >> j) & 1 for j in range(self.cols)] for row in self.bits
        ]

    def to_numpy(self) -> np.ndarray:
        return self._unpacked().astype(np.int64)

    def nonzero(self) -> tuple[np.ndarray, np.ndarray]:
        """The row and column indices of the 1 entries, in row-major
        order, as np.nonzero gives them for the grid. Only the nonzero
        bytes of the packed rows are unpacked, so a sparse matrix costs
        rows x cols / 8 byte reads plus 8 per nonzero byte."""
        width = self._grid.shape[1]
        data = self._grid.ravel()
        # flatnonzero is several times faster on bools than on uint8
        at = np.flatnonzero(data != 0)
        bits = np.flatnonzero(np.unpackbits(data[at], bitorder="little").view(bool))
        at = at[bits >> 3]
        return at // width, (at % width) * 8 + (bits & 7)

    def _unpacked(self) -> np.ndarray:
        """The entries as a rows x cols uint8 array of 0s and 1s."""
        return np.unpackbits(self._grid, axis=1, count=self.cols, bitorder="little")

    @functools.cached_property
    def _grid(self) -> np.ndarray:
        """Row i as its (cols + 7) // 8 little-endian bytes, in row i of a
        read-only uint8 array; built on first use and kept."""
        width = (self.cols + 7) // 8
        raw = b"".join(row.to_bytes(width, "little") for row in self.bits)
        return np.frombuffer(raw, dtype=np.uint8).reshape(self.rows, width)

    def __str__(self) -> str:
        return format_matrix(self)


def _pack(grid: np.ndarray) -> BinaryMatrix:
    """The matrix of a 2-d grid of 0s and 1s, the inverse of
    BinaryMatrix._unpacked(); it keeps the packed bytes as its _grid."""
    raw = np.packbits(grid, axis=1, bitorder="little")
    raw.flags.writeable = False
    width = raw.shape[1]
    data = raw.tobytes()
    m = BinaryMatrix(grid.shape[0], grid.shape[1], tuple(
        int.from_bytes(data[i * width:(i + 1) * width], "little")
        for i in range(raw.shape[0])
    ))
    m.__dict__["_grid"] = raw
    return m


def _validated_perm(perm: Sequence[int], n: int, which: str) -> list[int]:
    perm = list(perm)
    if len(perm) != n:
        raise PermutationError(f"{which} permutation has length {len(perm)}, need {n}")
    if sorted(perm) != list(range(n)):
        raise PermutationError(f"{which} permutation is not a bijection on 0..{n - 1}")
    return perm


# ---------------------------------------------------------------------------
# named constructors
# ---------------------------------------------------------------------------


def constant(m: int, n: int, v: int) -> BinaryMatrix:
    """The all-v matrix J (v=1) or zero matrix (v=0) of shape m x n."""
    if v not in (0, 1):
        raise ValueError("fill value must be 0 or 1")
    if m < 1 or n < 1:
        raise DimensionError(f"dimensions must be positive, got {m}x{n}")
    row = (1 << n) - 1 if v else 0
    return BinaryMatrix(m, n, (row,) * m)


def identity(n: int) -> BinaryMatrix:
    if n < 1:
        raise DimensionError("identity needs n >= 1")
    return BinaryMatrix(n, n, tuple(1 << i for i in range(n)))


def anti_diagonal(n: int) -> BinaryMatrix:
    """C-: entry (i, j) = 1 iff i + j = n - 1."""
    if n < 1:
        raise DimensionError("anti_diagonal needs n >= 1")
    return BinaryMatrix(n, n, tuple(1 << (n - 1 - i) for i in range(n)))


def path_loop(n: int) -> BinaryMatrix:
    """L_n: a path on the rows with a loop at each end.

    Row 0 has ones at columns {0, 1}, row n-1 at {n-2, n-1}, and every
    interior row i at {i-1, i+1}. Symmetric, all row and column sums 2,
    and for n >= 3 no two rows share more than one column.
    """
    if n < 2:
        raise DimensionError("path_loop needs n >= 2")
    packed = [0b11]
    for i in range(1, n - 1):
        packed.append((1 << (i - 1)) | (1 << (i + 1)))
    packed.append((0b11 << (n - 2)))
    return BinaryMatrix(n, n, tuple(packed))


def border(n: int) -> BinaryMatrix:
    """T_n: entry (i, j) = 1 iff exactly one of i, j lies on the boundary {0, n-1}."""
    if n < 3:
        raise DimensionError("border needs n >= 3")
    boundary = 1 | (1 << (n - 1))
    interior = ((1 << n) - 1) ^ boundary
    packed = [interior]
    packed.extend(boundary for _ in range(n - 2))
    packed.append(interior)
    return BinaryMatrix(n, n, tuple(packed))


def doubled(m: int) -> BinaryMatrix:
    """D_m = [[I_m, L_m], [L_m, I_m]]: symmetric, trace 2m, all sums 3."""
    if m < 3:
        raise DimensionError("doubled needs m >= 3")
    ell = path_loop(m)
    return assemble([[identity(m), ell], [ell, identity(m)]])


def disjoint_cycles(lengths: Sequence[int]) -> BinaryMatrix:
    """Block-diagonal union of cycle blocks.

    A cycle block of size n has row i with ones at columns i and
    (i+1) mod n, so each block's bipartite row-column graph is a single
    cycle of length 2n. Row and column sums are all 2.
    """
    lengths = list(lengths)
    if not lengths:
        raise DimensionError("need at least one cycle length")
    if any(n < 3 for n in lengths):
        raise DimensionError("cycle blocks need length >= 3")
    packed = []
    offset = 0
    for n in lengths:
        for i in range(n):
            packed.append((1 << (offset + i)) | (1 << (offset + (i + 1) % n)))
        offset += n
    total = sum(lengths)
    return BinaryMatrix(total, total, tuple(packed))


def assemble(blocks: Sequence[Sequence[BinaryMatrix]]) -> BinaryMatrix:
    """Concatenate a grid of blocks in row-major order."""
    if not blocks or any(not band for band in blocks):
        raise DimensionError("block grid must be non-empty")
    widths = [blk.cols for blk in blocks[0]]
    packed: list[int] = []
    for band in blocks:
        if [blk.cols for blk in band] != widths:
            raise DimensionError("block column widths differ between bands")
        height = band[0].rows
        if any(blk.rows != height for blk in band):
            raise DimensionError("blocks in one band have differing row counts")
        for i in range(height):
            acc = 0
            shift = 0
            for blk in band:
                acc |= blk.bits[i] << shift
                shift += blk.cols
            packed.append(acc)
    return BinaryMatrix(len(packed), sum(widths), tuple(packed))


# ---------------------------------------------------------------------------
# permutation equivalence
# ---------------------------------------------------------------------------


def is_perm_equivalent(
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
    if a.count_ones() != b.count_ones():
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


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

_TOKENS = frozenset("01.")


def format_matrix(m: BinaryMatrix) -> str:
    """First line "rows cols", then one line of 0/1 tokens per row."""
    return _format_bytes(m).decode("ascii")


def _format_bytes(m: BinaryMatrix) -> bytes:
    """format_matrix as ASCII bytes, ready for a file opened in binary mode."""
    # row i is ASCII bytes: a digit in each even column, a space in each
    # odd one, and the newline in place of the last space
    grid = np.full((m.rows, 2 * m.cols), ord(" "), dtype=np.uint8)
    grid[:, 0::2] = m._unpacked() + ord("0")
    grid[:, -1] = ord("\n")
    return b"".join((f"{m.rows} {m.cols}\n".encode("ascii"), grid))


def _header(rows: str | bytes, cols: str | bytes) -> Optional[tuple[int, int]]:
    """The "rows cols" header as ints, or None unless each token is ASCII
    digits after at most one minus sign: int() alone would also take a
    plus sign, an underscore or another script's digits."""
    # a bytes token's first item is the byte's value
    digits = [t[1:] if t[0] in ("-", ord("-")) else t for t in (rows, cols)]
    if all(d.isascii() and d.isdigit() for d in digits):
        return int(rows), int(cols)
    return None


def _grid_tokens(text: str, what: str) -> tuple[int, int, list[str]]:
    """Split the "rows cols" header off a token grid and check the entry
    count, then that both dimensions are positive; ``what`` names the
    grid in the error message."""
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("missing 'rows cols' header")
    dims = _header(tokens[0], tokens[1])
    if dims is None:
        raise ValueError(f"malformed header {tokens[:2]!r}")
    rows, cols = dims
    body = tokens[2:]
    if len(body) != rows * cols:
        raise ValueError(
            f"expected {rows * cols} entries for a {rows}x{cols} {what}, got {len(body)}"
        )
    if rows < 1 or cols < 1:
        raise DimensionError(f"dimensions must be positive, got {rows}x{cols}")
    return rows, cols, body


def parse_matrix(text: str | bytes) -> BinaryMatrix:
    """Inverse of format_matrix; '.' is accepted as a synonym for 0.

    Tokens are separated as by str.split(): by runs of any whitespace,
    Unicode included. Bytes are read as UTF-8; ASCII bytes are never
    decoded. A body that is ASCII is checked and packed as bytes
    (_pack_grid), with no Python object per entry. Any other text, and
    any text that check rejects, goes to the token-by-token diagnosis,
    which packs a valid body with non-ASCII whitespace and otherwise
    raises the first error, in this order: header, entry count,
    dimensions, then the first bad token in row-major order.
    """
    if isinstance(text, bytes) and not text.isascii():
        text = text.decode("utf-8")
    # bytes.split() does not split on \x1c-\x1f as str.split() does, but
    # a header token holding one fails _header and takes the token path
    head = text.split(None, 2)
    if len(head) == 3 and head[2].isascii():
        rows, cols = _header(head[0], head[1]) or (0, 0)
        if rows >= 1 and cols >= 1:
            body = head[2] if isinstance(head[2], bytes) else head[2].encode("ascii")
            m = _pack_grid(body, rows, cols)
            if m is not None:
                return m
    if isinstance(text, bytes):
        text = text.decode("ascii")
    return _parse_tokens(text)


# the ASCII characters that str.split() treats as whitespace
_WHITESPACE = b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "


def _pack_grid(body: bytes, rows: int, cols: int) -> Optional[BinaryMatrix]:
    """The matrix of an ASCII grid body, or None unless it holds exactly
    rows * cols tokens, each a single 0, 1 or '.'."""
    digits = body.translate(None, _WHITESPACE)
    if len(digits) != rows * cols or digits.translate(None, b"01."):
        return None
    # what is left are token bytes (all above ' ') and whitespace bytes
    # (all at or below it); two token bytes side by side would be one
    # token of several characters
    is_token = np.frombuffer(body, dtype=np.uint8) > ord(" ")
    if np.any(is_token[1:] & is_token[:-1]):
        return None
    return _pack(np.frombuffer(digits, dtype=np.uint8).reshape(rows, cols) == ord("1"))


def _parse_tokens(text: str) -> BinaryMatrix:
    """parse_matrix one str.split() token at a time."""
    rows, cols, body = _grid_tokens(text, "matrix")
    # valid tokens are ASCII, so a body with other characters has a bad one
    joined = " ".join(body)
    m = _pack_grid(joined.encode("ascii"), rows, cols) if joined.isascii() else None
    if m is None:
        index = next(n for n, tok in enumerate(body) if tok not in _TOKENS)
        i, j = divmod(index, cols)
        raise ValueError(f"bad entry token {body[index]!r} at row {i}, column {j}")
    return m
