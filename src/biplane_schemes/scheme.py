"""Symmetric association schemes: axioms, intersection tensor, closure.

A d-class symmetric association scheme on a set X partitions X x X into
the diagonal class 0 and symmetric classes 1..d such that for every
(x, y) in class h the count of z with (x, z) in class i and (z, y) in
class j depends only on (h, i, j). Those counts are the intersection
numbers p[h][i][j]; constancy of every one of them is the axiom that
actually fails in the wild.

The class indicator matrices A_0 = I, A_1, ..., A_d sum to the all-ones
matrix, and the count for (x, y) and (i, j) is entry (x, y) of the
product A_i A_j. from_relation_matrix reads p[h] off the first pair of
each class with one bincount, then computes every product A_i A_j at
once, block by block of rows (1, 2, 4, ... rows, so that a table that
fails in its first rows stops there) and of columns, as one float64
matrix product of the indicators of the block's rows and columns. Each
entry is a sum of at most v terms 0 or 1, and v < 2**53, so every count
is exact. No temporary grows past a fixed number of bytes, and a table
whose tensor p would pass a fixed number of entries is refused before
anything is built. bose_mesner_check runs the same products against the
closure A_i A_j = sum_h p[h][i][j] A_h and against A_j A_i.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .binmat import _INT64_MAX, _Trap, _layout_pairs, _layout_zeros, _read_grid


class AxiomError(ValueError):
    """The relation matrix breaks a structural axiom (named in .axiom)."""

    def __init__(self, axiom: str, message: str):
        super().__init__(message)
        self.axiom = axiom


class NotASchemeError(Exception):
    """Intersection counts are not constant on some class; carries a witness."""

    def __init__(self, h: int, i: int, j: int,
                 pair_a: tuple[int, int], count_a: int,
                 pair_b: tuple[int, int], count_b: int):
        super().__init__(
            f"p[{h}][{i}][{j}] is not well defined: pair {pair_a} gives "
            f"{count_a} but pair {pair_b} gives {count_b}"
        )
        self.h = h
        self.i = i
        self.j = j
        self.pair_a = pair_a
        self.count_a = count_a
        self.pair_b = pair_b
        self.count_b = count_b

    def witness(self) -> dict:
        return {
            "h": self.h, "i": self.i, "j": self.j,
            "pair_a": list(self.pair_a), "count_a": self.count_a,
            "pair_b": list(self.pair_b), "count_b": self.count_b,
        }


class TooManyClassesError(ValueError):
    """The relation has more classes than the intersection tensor is built for."""


class InternalInconsistencyError(_Trap, RuntimeError):
    """Closure failed for a verified scheme; impossible unless there is a bug."""


@dataclass(eq=False)
class AssociationScheme:
    """A verified scheme: relation matrix, tensor p[h][i][j], valencies n_0..n_d."""

    size: int
    d: int
    relation: np.ndarray = field(repr=False)
    p: np.ndarray = field(repr=False)
    n: tuple[int, ...]

    def report(self) -> dict:
        return {
            "size": self.size,
            "d": self.d,
            "n": list(self.n),
            "p": self.p.tolist(),
        }


# bytes per temporary array of the blocked counts: the indicators of a
# block of rows, those of a block of columns, their product and the
# values it is compared with
_BLOCK_BYTES = 1 << 24
# the largest intersection tensor p, in entries: (d + 1)**3 int64, 16 MB
_MAX_TENSOR = 1 << 21


def _products(rel: np.ndarray, d: int, rows: int):
    """Yield (x0, y0, counts) over the table: rows in blocks of rows,
    2 * rows, 4 * rows, ... rows, and each block of rows in blocks of
    columns, so that no temporary exceeds _BLOCK_BYTES (except for one
    row against one column, (d + 1) * v entries). counts[a, b, i, j]
    is entry (x0 + a, y0 + b) of A_i A_j, the number of z with
    rel[x0 + a, z] = i and rel[z, y0 + b] = j. Every label of rel is
    in 0..d.

    Each block is one float64 product of the class indicators of its
    rows, [(a, i), z], with those of its columns, [z, (b, j)]. Every
    term is 0 or 1 and every sum at most v < 2**53, so the product is
    exact.
    """
    v = rel.shape[0]
    # row h of the identity is the indicator vector of label h
    eye = np.eye(d + 1)
    per_point = 8 * (d + 1) * v
    cols = max(1, min(v, _BLOCK_BYTES // per_point))
    rows_cap = max(1, min(_BLOCK_BYTES // per_point,
                          _BLOCK_BYTES // (8 * (d + 1) ** 2 * cols)))
    right = None
    x0, rows = 0, min(rows, rows_cap)
    while x0 < v:
        x1 = min(v, x0 + rows)
        left = eye.take(rel[x0:x1], axis=0).transpose(0, 2, 1).reshape(-1, v)
        for y0 in range(0, v, cols):
            y1 = min(v, y0 + cols)
            if right is None or cols < v:
                right = eye.take(rel[:, y0:y1], axis=0).reshape(v, -1)
            counts = (left @ right).reshape(x1 - x0, d + 1, y1 - y0, d + 1)
            yield x0, y0, counts.transpose(0, 2, 1, 3)
        x0, rows = x1, min(2 * rows, rows_cap)


def _pair_counts(rel: np.ndarray, d: int, xs, ys) -> np.ndarray:
    """The (len(xs), d + 1, d + 1) int64 counts of the pairs (xs[k], ys[k]):
    entry [k, i, j] is the number of z with rel[xs[k], z] = i and
    rel[z, ys[k]] = j, one bincount of the codes i * (d + 1) + j."""
    width = (d + 1) ** 2
    codes = rel.take(xs, axis=0) * (d + 1) + rel.take(ys, axis=1).T
    codes += np.arange(len(xs))[:, None] * width
    return np.bincount(codes.ravel(), minlength=len(xs) * width).reshape(-1, d + 1, d + 1)


def _first_pairs(rel: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows and columns of the first pair of each label 0..d in
    row-major order, read in blocks of rows until every label is seen."""
    v = rel.shape[0]
    first = np.full(d + 1, v * v)
    step = max(1, _BLOCK_BYTES // (8 * v))
    for x0 in range(0, v, step):
        block = rel[x0:x0 + step].ravel()
        np.minimum.at(first, block, np.arange(x0 * v, x0 * v + block.size))
        if (first < v * v).all():
            break
    return np.divmod(first, v)


def from_relation_matrix(r) -> AssociationScheme:
    """Verify a relation matrix and build the scheme.

    Structural gates first: square and not empty, zero diagonal,
    symmetric, and off-diagonal labels exactly 1..d with no gaps and d
    at most v - 1 (AxiomError names the failed gate). A table of more
    than 127 classes, whose tensor p would exceed _MAX_TENSOR entries,
    then raises TooManyClassesError before anything is built.

    p[h] is counted directly on the first pair of class h in row-major
    order. The counts of every pair come from _products, in blocks of
    1, 2, 4, ... rows, and each block is compared with p of its pairs'
    classes before the next is counted. The first pair in row-major
    order whose counts differ from p[h] of its class h, and the first
    (i, j) in row-major order where they differ, raise NotASchemeError
    with both pairs as witness, recounted directly: the same witness as
    a loop over the pairs in row-major order. A table that fails in its
    first rows stops there, and one whose first bad pair is in the first
    row of a block of rows stops at that pair's block of columns.
    """
    rel = np.asarray(r, dtype=np.int64)
    if rel.ndim != 2 or rel.shape[0] != rel.shape[1]:
        raise AxiomError("shape", f"relation matrix must be square, got {rel.shape}")
    v = int(rel.shape[0])
    if v == 0:
        raise AxiomError("shape", "relation matrix has no points")
    if np.diagonal(rel).any():
        x = int(np.flatnonzero(np.diagonal(rel))[0])
        raise AxiomError("diagonal", f"diagonal entry ({x},{x}) is {rel[x, x]}, not 0")
    if (rel != rel.T).any():
        x, y = map(int, np.argwhere(rel != rel.T)[0])
        raise AxiomError(
            "symmetry", f"entry ({x},{y})={rel[x, y]} but ({y},{x})={rel[y, x]}"
        )
    # the diagonal is 0, so d is the largest off-diagonal label (0 if
    # v = 1), and more than v entries below 1 mean an off-diagonal one
    d = int(rel.max())
    if np.count_nonzero(rel < 1) > v:
        x, y = map(int, np.argwhere((rel < 1) & ~np.eye(v, dtype=bool))[0])
        raise AxiomError(
            "partition",
            f"off-diagonal entry ({x},{y}) is {rel[x, y]}; labels must be 1..d"
        )
    # every class has valency at least 1 at every point, and the
    # valencies of classes 1..d sum to v - 1
    if d > v - 1:
        raise AxiomError(
            "labels",
            f"largest label {d} exceeds v - 1 = {v - 1}: "
            f"a scheme on {v} points has at most {v - 1} classes",
        )
    # np.bincount, not np.unique: the first np.unique call imports numpy.ma
    missing = np.flatnonzero(np.bincount(rel.ravel(), minlength=d + 1)[1:] == 0) + 1
    if missing.size:
        raise AxiomError(
            "labels", f"class labels {missing.tolist()} are absent below max {d}"
        )
    if (d + 1) ** 3 > _MAX_TENSOR:
        raise TooManyClassesError(
            f"{d} classes: the intersection numbers p[h][i][j] would be"
            f" (d + 1)^3 = {(d + 1) ** 3} entries, above the cap of {_MAX_TENSOR}"
        )

    first_x, first_y = _first_pairs(rel, d)
    p = _pair_counts(rel, d, first_x, first_y)
    for x0, y0, counts in _products(rel, d, 1):
        rows, cols = counts.shape[:2]
        if y0 == 0:
            bad = np.empty((rows, v), dtype=bool)
        expected = p.take(rel[x0:x0 + rows, y0:y0 + cols], axis=0)
        bad[:, y0:y0 + cols] = (counts != expected).any(axis=(2, 3))
        # every pair of the rows before this block passed, and so did the
        # first row's pairs in the column blocks before this one; so a bad
        # pair here in the first row is the first in row-major order
        if bad[0, y0:y0 + cols].any() or (y0 + cols == v and bad.any()):
            # the entries not yet counted are all past the first bad one
            x, y = divmod(int(np.argmax(bad)), v)
            x += x0
            h = int(rel[x, y])
            count = _pair_counts(rel, d, [x], [y])[0]
            i, j = divmod(int(np.argmax(count != p[h])), d + 1)
            raise NotASchemeError(
                h, i, j,
                (int(first_x[h]), int(first_y[h])), int(p[h, i, j]),
                (x, y), int(count[i, j]),
            )
    valencies = tuple(int(p[0, i, i]) for i in range(d + 1))
    return AssociationScheme(size=v, d=d, relation=rel.copy(), p=p, n=valencies)


def bose_mesner_check(s: AssociationScheme) -> dict:
    """Recheck closure A_i A_j = sum_h p[h][i][j] A_h with exact products.

    Also confirms that the indicators A_0, ..., A_d sum to the
    all-ones matrix, and commutativity of every product. The products
    are the float64 blocks of _products, exact since every sum is at
    most v < 2**53; each block is compared with its p-expansion, which
    at pair (x, y) is p[rel[x, y]], and with its transpose in (i, j).
    The blocks run to the end, and the first (i, j) in row-major order
    that fails either check is named, the closure first. All three are
    theorems once the intersection tensor is constant, so failure
    raises InternalInconsistencyError rather than reporting bad input.
    """
    rel, d = s.relation, s.d
    # the indicators of 0..d sum to all-ones iff every label is in 0..d
    if ((rel < 0) | (rel > d)).any():
        raise InternalInconsistencyError("class indicators do not sum to all-ones")
    closure = np.zeros((d + 1, d + 1), dtype=bool)
    commute = np.zeros((d + 1, d + 1), dtype=bool)
    for x0, y0, counts in _products(rel, d, s.size):
        rows, cols = counts.shape[:2]
        # entry (x, y) of sum_h p[h][i][j] A_h is p[rel[x, y]][i][j]
        expect = s.p.take(rel[x0:x0 + rows, y0:y0 + cols], axis=0)
        closure |= (counts != expect).any(axis=(0, 1))
        commute |= (counts != counts.swapaxes(2, 3)).any(axis=(0, 1))
    failed = closure | commute
    if failed.any():
        i, j = divmod(int(np.argmax(failed)), d + 1)
        if closure[i, j]:
            raise InternalInconsistencyError(f"A_{i} A_{j} deviates from its p-expansion")
        raise InternalInconsistencyError(f"A_{i} and A_{j} do not commute")
    return {"closure": True, "commutative": True, "sum_to_all_ones": True}


# ---------------------------------------------------------------------------
# text format for relation matrices
# ---------------------------------------------------------------------------


def format_relation(r) -> str:
    """Same grid layout as the matrix format, with entries 0..d."""
    rel = np.asarray(r, dtype=np.int64)
    lines = [f"{rel.shape[0]} {rel.shape[1]}"]
    for row in rel:
        lines.append(" ".join(map(str, row.tolist())))
    return "\n".join(lines) + "\n"


def parse_relation(text: str | bytes) -> np.ndarray:
    """Inverse of format_relation; '.' is accepted as 0. Other entries
    are ASCII digits; any label an int64 holds is read, and
    from_relation_matrix bounds the labels. Bytes are read as UTF-8. A
    table of single-digit labels in the layout format_relation writes is
    viewed in place, as parse_matrix views its layout; any other text is
    read a line at a time by parse_matrix's reader, binmat._read_grid.
    """
    pairs = _layout_pairs(text)
    if pairs is not None:
        # a digit's pair less that of a 0 is the digit; any other pair
        # leaves more than 9, as uint16 arithmetic wraps below 0
        labels = pairs - _layout_zeros(pairs.shape[1])
        if (labels <= 9).all():
            return labels.astype(np.int64)
    return _read_grid(text, "table", _INT64_MAX)
