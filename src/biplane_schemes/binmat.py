"""Exact (0,1)-matrix kernel with bit-packed rows.

An immutable matrix is held packed in one of two forms, and keeps the
one it was built from. The row ints, bits: one Python int per row,
bit j holding the entry in column j, so that the scalar product of
two rows is a single AND plus popcount. BinaryMatrix(rows, cols, bits)
builds these, as from_rows, the search and the named constructors but
doubled do. The byte grid, _grid: row i as its little-endian bytes,
in a read-only uint8 array. _from_grid builds these, and with it
parsing, from_numpy, doubled, transpose, permute and submatrix. The
other form is built on first read and kept, so a v=1000 matrix that
is parsed, checked and written never makes its 1000 row ints. ==,
hash, repr and pickle read bits. Whole-matrix work reads the grid:
row and column sums, the count of ones, numpy conversions, the
positions of the ones, the table of all row dots and the text grid.
Column sums unpack the grid and are kept, so a matrix is unpacked for
them at most once. The rearrangements (transpose, submatrix, permute)
go through one bridge: _unpacked() turns the grid into a uint8 array
of entries, numpy moves the entries, and _pack() packs them into the
new matrix's grid, as it does for from_numpy and a grid text;
is_symmetric compares the entries with their transpose.
Matrix files are read and written as bytes: a file in the layout the
CLI writes is never decoded, and format_matrix is the ASCII decode of
the two buffers the CLI writes, the header line and an array of the
rows (_format_parts). Every such file, and every fixture, is written
by _rewrite, in place over an existing file. parse_matrix and
scheme.parse_relation view that layout in place, one uint16 per entry
and its separator (_layout_pairs); any other text goes a line at a
time through one reader, _read_grid. Only its lines of longer or bad tokens, the
per-entry oracles the tests compare these kernels against (to_lists,
col_sum, row_dot) and from_rows, which checks outside input, loop over
single entries in Python. The table of row dots adds a rows x rows
popcount table per 64-bit word position. nonzero()
unpacks only the nonzero bytes, so for D_m it costs rows x cols / 8
byte reads and no table.

Constructors cover the named matrix families used throughout the
package: J (constant), I (identity), C- (anti-diagonal), L (path with
end loops), T (border), D (doubled), and disjoint unions of cycle
blocks. Block assembly, principal submatrices, permutations, and
permutation-equivalence testing live here too.

Indexing is 0-based everywhere in this module.
"""

from __future__ import annotations

import functools
import os
import re
from collections import defaultdict
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


class BinaryMatrix:
    """Dense (0,1) matrix; ``bits[i]`` packs row i with bit j = column j.

    A matrix keeps the packed form it was built from: bits when built
    as BinaryMatrix(rows, cols, bits), which checks them, or the
    read-only byte grid _grid when built by _from_grid. The other form
    is built on first read and kept. Equality, hash, repr and pickle
    read bits, so they do not depend on the form. A matrix cannot be
    changed: assigning or deleting an attribute raises AttributeError.
    """

    rows: int
    cols: int

    def __init__(self, rows: int, cols: int, bits: tuple[int, ...]) -> None:
        _check_dimensions(rows, cols)
        if len(bits) != rows:
            raise DimensionError(f"expected {rows} packed rows, got {len(bits)}")
        for i, row in enumerate(bits):
            if row < 0 or row >> cols:
                raise DimensionError(f"row {i} has bits outside {cols} columns")
        vars(self).update(rows=rows, cols=cols, bits=bits)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rows, self.cols, self.bits) == (other.rows, other.cols, other.bits)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.bits))

    def __repr__(self) -> str:
        return f"BinaryMatrix(rows={self.rows!r}, cols={self.cols!r}, bits={self.bits!r})"

    def __reduce__(self):
        # pickle the row ints only, not the cached forms
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
        return np.bitwise_count(self._grid).sum(axis=1).tolist()

    def col_sums(self) -> list[int]:
        # a fresh list, which a caller may sort
        return list(self._col_sums)

    @functools.cached_property
    def _col_sums(self) -> tuple[int, ...]:
        """The column sums; the one unpacking of the grid they cost is
        made on first use and kept."""
        # uint32 is exact below 2**32 rows and half the work of int64
        return tuple(self._unpacked().sum(axis=0, dtype=np.uint32).tolist())

    def row_dot(self, i: int, j: int) -> int:
        """Number of columns where rows i and j are both 1."""
        self._check_row(i)
        self._check_row(j)
        return (self.bits[i] & self.bits[j]).bit_count()

    def row_dots(self) -> np.ndarray:
        """The rows x rows int64 table whose entry (i, j) is row_dot(i, j).

        Each row is cut into 64-bit words, and for each word position
        the outer popcount of the ANDs of the rows' words there is added
        to the table. That is integer arithmetic with sums of at most
        cols, so the table is exact. A float64 BLAS product M M^T is
        exact as well, but BLAS runs it on a thread pool: on a 2-core
        host that stalled it by 8 to 16 ms from 100 rows up.

        Every word position costs a rows x rows add, zero words too: 59
        ms for D_500 at 1000 rows (2-vCPU host, numpy 2.4). The CLI
        never builds D_500's table: classify takes it by block pairs,
        and verify_biplane rejects its point count first. On the bundled
        fixtures and the benchmark's inputs every table built has 6 to
        56 rows.
        """
        words = np.zeros((self.rows, 8 * ((self.cols + 63) // 64)), dtype=np.uint8)
        words[:, :self._grid.shape[1]] = self._grid
        dots = np.zeros((self.rows, self.rows), dtype=np.int64)
        for word in words.view("<u8").T:
            dots += np.bitwise_count(np.bitwise_and.outer(word, word))
        return dots

    def count_ones(self) -> int:
        return int(np.bitwise_count(self._grid).sum())

    def trace(self) -> int:
        if self.rows != self.cols:
            raise ShapeError("trace requires a square matrix")
        return sum((self.bits[i] >> i) & 1 for i in range(self.rows))

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            raise ShapeError("is_symmetric requires a square matrix")
        entries = self._unpacked()
        return bool((entries == entries.T).all())

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
        read-only uint8 array; built from bits on first use and kept."""
        width = (self.cols + 7) // 8
        raw = b"".join(row.to_bytes(width, "little") for row in self.bits)
        return np.frombuffer(raw, dtype=np.uint8).reshape(self.rows, width)

    @functools.cached_property
    def bits(self) -> tuple[int, ...]:
        """Row i as a Python int, bit j = column j; built from _grid on
        first read and kept."""
        width = self._grid.shape[1]
        data = self._grid.tobytes()
        return tuple(int.from_bytes(data[i * width:(i + 1) * width], "little")
                     for i in range(self.rows))

    def __str__(self) -> str:
        return format_matrix(self)


def _pack(grid: np.ndarray) -> BinaryMatrix:
    """The matrix of a 2-d grid of 0s and 1s, the inverse of
    BinaryMatrix._unpacked(); it keeps the packed bytes as its _grid."""
    return _from_grid(np.packbits(grid, axis=1, bitorder="little"), grid.shape[1])


def _from_grid(raw: np.ndarray, cols: int) -> BinaryMatrix:
    """The matrix with cols columns whose row i is the little-endian
    bytes raw[i]; it keeps raw, made read-only, as its _grid and builds
    no row ints. As BinaryMatrix() does, it refuses a bit outside cols."""
    _check_dimensions(raw.shape[0], cols)
    if cols % 8:
        outside = np.flatnonzero(raw[:, -1] >> (cols % 8))
        if outside.size:
            raise DimensionError(f"row {outside[0]} has bits outside {cols} columns")
    raw.flags.writeable = False
    m = object.__new__(BinaryMatrix)
    vars(m).update(rows=raw.shape[0], cols=cols, _grid=raw)
    return m


def _check_dimensions(rows: int, cols: int) -> None:
    if rows < 1 or cols < 1:
        raise DimensionError(f"dimensions must be positive, got {rows}x{cols}")


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
    _check_dimensions(m, n)
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
    """D_m = [[I_m, L_m], [L_m, I_m]]: symmetric, trace 2m, all sums 3.

    Built as its byte grid from the 3 ones of each row. Row i of L_m has
    its ones at max(i-1, 0) and min(i+1, m-1), so row i of D_m has them
    at i and at m plus those two, and row m + i at those two and m + i.
    """
    if m < 3:
        raise DimensionError("doubled needs m >= 3")
    v = 2 * m
    i = np.arange(m)
    ell = (np.maximum(i - 1, 0), np.minimum(i + 1, m - 1))
    rows = np.concatenate([i, i, i, i + m, i + m, i + m])
    cols = np.concatenate([i, ell[0] + m, ell[1] + m, ell[0], ell[1], i + m])
    width = (v + 7) // 8
    raw = np.zeros(v * width, dtype=np.uint8)
    # two ones of a row may share a byte; distinct bits add as they or
    np.add.at(raw, rows * width + (cols >> 3), (1 << (cols & 7)).astype(np.uint8))
    return _from_grid(raw.reshape(v, width), v)


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


def _row_components(m: BinaryMatrix) -> list[list[int]]:
    """The components of the graph on m's rows in which two rows are
    adjacent when they share a column, each as a list of row indices.
    A zero row is a component of its own."""
    # merged a row at a time, keyed by the columns of their rows
    parts: dict[int, list[int]] = {}
    alone = []
    for i, row in enumerate(m.bits):
        if not row:
            alone.append([i])
            continue
        rows = [i]
        for cols in [c for c in parts if c & row]:
            row |= cols
            rows += parts.pop(cols)
        parts[row] = rows
    return [*parts.values(), *alone]


def is_perm_equivalent(
    a: BinaryMatrix, b: BinaryMatrix
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Search for (row_perm, col_perm) with a.permute(...) == b.

    Returns the witnessing pair, or None when the matrices are not
    equivalent. Column permutations leave the row-dot table unchanged,
    and with it two invariants of each row: the size of its component in
    the graph of rows that meet (a dot above 0), and its sorted dots,
    the last of which is its sum, since no row meets another in more
    columns than its own. A row of a may map only to the rows of b with its
    invariants, in ascending order, so the two sorted lists of
    invariants must agree, as must the column sums.

    One backtrack maps the rows, the most constrained first, and
    matches the columns as it goes. Each column has a key, the depths of
    the mapped rows with a 1 in it. The keys under the ones of a
    candidate row of b must equal, as a multiset, the keys under the
    ones of the row of a it takes. Its dot with the row mapped at depth
    p counts its keys with bit p set, so it then carries the dots to
    the rows mapped before it too. That keeps the multisets of a's and
    b's keys equal, so when the last row is mapped the columns pair off
    by key; and it cuts only row maps that no column matching completes.
    The found witness is checked with permute, and a failure raises
    WitnessError.

    On a biplane every off-diagonal dot is 2, so every row of b is a
    candidate for every row of a. A relabelled b4c takes under 1 ms,
    and b9e with its points renamed 0.06 to 0.5 s; a uniformly random
    row and column relabelling of b9e can take over a minute (2-vCPU
    host).
    """
    if (a.rows, a.cols) != (b.rows, b.cols):
        return None
    if sorted(a.col_sums()) != sorted(b.col_sums()):
        return None
    n = a.rows

    def invariants(m: BinaryMatrix) -> list[tuple[int, ...]]:
        dots = m.row_dots()
        sizes = [0] * m.rows
        for rows in _row_components(m):
            for i in rows:
                sizes[i] = len(rows)
        table = np.column_stack([sizes, np.sort(dots, axis=1)])
        return list(map(tuple, table.tolist()))

    def row_ones(m: BinaryMatrix) -> list[list[int]]:
        ones = []
        for row in m.bits:
            ones.append([])
            while row:
                low = row & -row
                ones[-1].append(low.bit_length() - 1)
                row ^= low
        return ones

    sig_a, sig_b = invariants(a), invariants(b)
    if sorted(sig_a) != sorted(sig_b):
        return None
    rows_of: dict = defaultdict(list)
    for r, sig in enumerate(sig_b):
        rows_of[sig].append(r)
    candidates = [rows_of[sig] for sig in sig_a]
    # map the most constrained rows first
    order = sorted(range(n), key=lambda i: len(candidates[i]))
    ones_a, ones_b = row_ones(a), row_ones(b)
    # a's keys, and the keys under the ones of the row mapped at each
    # depth, depend only on the order
    keys_a = [0] * a.cols
    wanted = []
    for pos, i in enumerate(order):
        wanted.append(sorted(keys_a[j] for j in ones_a[i]))
        for j in ones_a[i]:
            keys_a[j] |= 1 << pos
    assigned = [0] * n
    used = [False] * n

    def backtrack(pos: int, keys: list[int]) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
        if pos == n:
            pool: dict = defaultdict(list)
            for c, key in enumerate(keys):
                pool[key].append(c)
            row_perm, col_perm = tuple(assigned), tuple(pool[key].pop() for key in keys_a)
            if a.permute(row_perm, col_perm) != b:
                raise WitnessError(f"witness {row_perm}, {col_perm} does not carry a onto b")
            return row_perm, col_perm
        i = order[pos]
        for r in candidates[i]:
            if used[r] or sorted(map(keys.__getitem__, ones_b[r])) != wanted[pos]:
                continue
            moved = keys.copy()
            for c in ones_b[r]:
                moved[c] |= 1 << pos
            assigned[i] = r
            used[r] = True
            found = backtrack(pos + 1, moved)
            if found is not None:
                return found
            used[r] = False
        return None

    return backtrack(0, [0] * b.cols)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def format_matrix(m: BinaryMatrix) -> str:
    """First line "rows cols", then one line of 0/1 tokens per row."""
    return b"".join(_format_parts(m)).decode("ascii")


def _format_parts(m: BinaryMatrix) -> tuple[bytes, np.ndarray]:
    """format_matrix as ASCII in two buffers, the header line and then
    the rows as a rows x 2*cols uint8 array, so that a file opened in
    binary mode takes each as it is, with no copy of the whole text."""
    # entry n of a row and its separator are the little-endian uint16
    # of a token 0 in that column (see _layout_pairs) plus the entry
    pairs = np.add(m._unpacked(), _layout_zeros(m.cols), dtype="<u2")
    return f"{m.rows} {m.cols}\n".encode("ascii"), pairs.view(np.uint8)


def _rewrite(path: str, parts: Iterable) -> None:
    """Write the buffers to path, rewriting an existing file in place.

    The file is opened without O_TRUNC and cut to the bytes written only
    when it was longer, so an existing file keeps its inode and mode, a
    symlink writes its target, and a FIFO or /dev/null (size 0) is never
    truncated. Truncating a file to 0 and writing it again makes ext4
    flush the whole file to storage at close; writing over the old bytes
    does not.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        written = sum(map(fh.write, parts))
        fh.flush()
        if os.fstat(fh.fileno()).st_size > written:
            fh.truncate(written)


def parse_matrix(text: str | bytes) -> BinaryMatrix:
    """Inverse of format_matrix; '.' is accepted as a synonym for 0.

    Tokens are separated as by str.split(): by runs of any whitespace,
    Unicode included. Bytes are read as UTF-8. The exact layout
    format_matrix writes is read in place (_parse_layout); any other
    text, or one the layout refuses, a line at a time (_read_grid),
    which raises the first error: header, entry count, dimensions, then
    the first bad token in row-major order.
    """
    m = _parse_layout(text)
    if m is not None:
        return m
    return _pack(_read_grid(text, "matrix", 1))


# the "rows cols\n" header as format_matrix writes it: no sign and no
# leading zero, and at most 19 digits each, so int() reads no long string
_LAYOUT_HEADER = rb"([1-9][0-9]{0,18}) ([1-9][0-9]{0,18})\n"
# entries checked and packed per block of rows, so that no temporary
# grows with the file. Blocks of 2**18 parsed a relabelled doubled(500)
# in 1.0 ms against 1.9 ms for 2**20, and left a fresh verify of
# doubled(2500) at 250 MB peak RSS against 253: the larger temporaries
# fall out of cache, and glibc keeps more freed heap after them
_LAYOUT_BLOCK = 1 << 18


def _layout_pairs(text: str | bytes) -> Optional[np.ndarray]:
    """The entries of a text whose header and length are those of the
    layout format_matrix writes, as a rows x cols array of uint16 viewed
    in place, or None if they are not; the caller checks every entry.

    Past the header each entry is two bytes: its token, one ASCII digit,
    then a space (0x20), or a newline (0x0A) at the end of a row, and
    nothing follows the last row. Read as a little-endian uint16, a
    token 0 is _layout_zeros(cols)[n] in column n: 0x2030, or 0x0A30 in
    the last column.
    """
    if isinstance(text, str):
        if not text.isascii():
            return None
        text = text.encode("ascii")
    head = re.match(_LAYOUT_HEADER, text)
    if head is None:
        return None
    rows, cols = int(head[1]), int(head[2])
    if len(text) != head.end() + 2 * rows * cols:
        return None
    return np.frombuffer(text, "<u2", offset=head.end()).reshape(rows, cols)


def _layout_zeros(cols: int) -> np.ndarray:
    """The uint16 of a token 0 in each column of the layout."""
    zeros = np.full(cols, 0x2030, dtype="<u2")
    zeros[-1] = 0x0A30
    return zeros


def _parse_layout(text: str | bytes) -> Optional[BinaryMatrix]:
    """The matrix of a text in exactly the layout format_matrix writes,
    or None if any byte differs from it.

    Entry n of _layout_pairs with its low bit set is that of a token 1,
    0x2031, or 0x0A31 in the last column, and its low bit is the entry.
    """
    pairs = _layout_pairs(text)
    if pairs is None:
        return None
    rows, cols = pairs.shape
    expected = _layout_zeros(cols) | 1
    raw = np.empty((rows, (cols + 7) // 8), dtype=np.uint8)
    step = max(1, _LAYOUT_BLOCK // cols)
    for start in range(0, rows, step):
        block = pairs[start:start + step]
        if not ((block | 1) == expected).all():
            return None
        # packbits is several times slower on uint16 than on uint8
        entries = (block & 1).astype(np.uint8)
        raw[start:start + step] = np.packbits(entries, axis=1, bitorder="little")
    return _from_grid(raw, cols)


_INT64_MAX = np.iinfo(np.int64).max


def _read_grid(text: str | bytes, what: str, top: int) -> np.ndarray:
    """The entries of a "rows cols" grid text as a rows x cols array:
    uint8 where top, the largest entry, is 1 (a matrix), else int64 (a
    relation table, top the largest int64). ``what`` names the grid in
    the entry-count message. Bytes are read as UTF-8.

    Tokens are split as by str.split(). Header tokens are ASCII digits
    after at most one minus sign; an entry is '.' for 0 or ASCII digits,
    one character in a matrix. The text is decoded once and split a line
    at a time into one array, so at most one line of str objects is
    alive. Errors come in this order: header, entry count, dimensions,
    then the first bad token in row-major order; tokens after it are
    only counted. n tokens take 2n - 1 characters, so a header of more
    entries than the text holds allocates nothing.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    # the first two tokens, as str.split() gives them: \s is str.isspace()
    head = re.match(r"\s*(\S+)\s+(\S+)", text)
    if head is None:
        raise ValueError("missing 'rows cols' header")
    if not all(re.fullmatch("-?[0-9]+", t) for t in head.groups()):
        raise ValueError(f"malformed header {list(head.groups())!r}")
    rows, cols = map(int, head.groups())
    fits = 0 <= rows * cols <= (len(text) - head.end() + 1) // 2
    out = np.empty(rows * cols if fits else 0, dtype=np.uint8 if top < 10 else np.int64)
    count, bad = 0, None
    # one line a match, as "." is anything but "\n"
    for line in re.compile(".*").finditer(text, head.end()):
        tokens = line[0].split()
        at, count = count, count + len(tokens)
        if bad is not None or count > out.size:
            continue
        joined = "".join(tokens)
        if joined.isascii() and len(joined) == len(tokens):
            # one character a token: a digit, or '.' for 0
            digits = np.frombuffer(joined.encode().replace(b".", b"0"), np.uint8) - ord("0")
            if (digits <= min(top, 9)).all():
                out[at:count] = digits
                continue
        elif top > 9 and joined.isascii() and joined.isdigit():
            # int() refuses over 4300 digits, and int64 a value above it
            try:
                out[at:count] = list(map(int, tokens))
                continue
            except (ValueError, OverflowError):
                pass
        for j, tok in enumerate(tokens, at):
            digits = "0" if tok == "." else tok.lstrip("0") or "0"
            if not (digits.isascii() and digits.isdigit()) or (
                    top < 10 and (len(tok) > 1 or int(digits) > top)):
                bad = f"bad entry token {tok!r} at row {j // cols}, column {j % cols}"
                break
            if len(digits) > 19 or int(digits) > _INT64_MAX:
                bad = f"entry token {tok!r} is above the largest int64, {_INT64_MAX}"
                break
            out[j] = int(digits)
    if count != rows * cols:
        raise ValueError(f"expected {rows * cols} entries for a {rows}x{cols} {what}, got {count}")
    _check_dimensions(rows, cols)
    if bad is not None:
        raise ValueError(bad)
    return out.reshape(rows, cols)
