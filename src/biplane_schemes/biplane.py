"""Biplane verification, canonical form, and the explicit order-4 instance.

A biplane with block size k is a symmetric 2-(1 + k(k-1)/2, k, 2)
design: every point lies on k blocks, every block holds k points, and
any two distinct points (dually, blocks) are together in exactly two.
Its incidence matrix is in canonical form when the first k rows equal
the forced head matrix and the first k columns equal that head's
transpose. A matrix has full trace when its whole diagonal is ones.

A (0,1) matrix A is a symmetric biplane matrix with full trace exactly
when A - I is the adjacency matrix of a strongly regular graph
SRG(1 + C(k,2), k-1, 0, 2): with A symmetric, A^2 = (k-2)I + 2J is the
same statement as (A - I)^2 = (k-1)I + 2(J - I - (A - I)). At k = 6
that graph is the Clebsch graph, at k = 11 the Gewirtz graph.

assemble_b4c() builds the classical order-4 biplane on 16 points from
its block pieces; it is symmetric, canonical, and has full trace.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .binmat import (
    BinaryMatrix,
    ShapeError,
    anti_diagonal,
    assemble,
    constant,
    identity,
    path_loop,
)


class ParameterError(ValueError):
    """Parameter outside the supported range."""


class VerificationError(Exception):
    """A biplane axiom failed; names the axiom and witness indices."""

    def __init__(self, axiom: str, witness: tuple, message: str):
        super().__init__(message)
        self.axiom = axiom
        self.witness = witness


@dataclass(frozen=True)
class BiplaneCertificate:
    k: int
    v: int
    order: int
    canonical: bool
    full_trace: bool
    symmetric: bool

    def report(self) -> dict:
        return {
            "k": self.k,
            "v": self.v,
            "order": self.order,
            "canonical": self.canonical,
            "full_trace": self.full_trace,
            "symmetric": self.symmetric,
        }


def head_width(k: int) -> int:
    """Point count of a biplane with block size k: 1 + k(k-1)/2."""
    return 1 + k * (k - 1) // 2


def block_size_for(v: int) -> int:
    """The k with v = 1 + k(k-1)/2, or a ShapeError if v is not of that form."""
    if v < 1:
        raise ShapeError(f"point count {v} is not positive")
    k = (1 + math.isqrt(8 * v - 7)) // 2
    for cand in (k - 1, k, k + 1):
        if cand >= 1 and head_width(cand) == v:
            return cand
    raise ShapeError(f"{v} is not of the form 1 + k(k-1)/2")


def verify_biplane(m: BinaryMatrix) -> BiplaneCertificate:
    """Certify m as a biplane incidence matrix or raise VerificationError.

    Checks, in order: squareness, constant row sums k, constant column
    sums k, v = 1 + k(k-1)/2 and v >= 2 (one point has no pair to
    witness lambda = 2), and all distinct row pairs meeting in exactly
    2 columns. The certificate also records whether m is canonical,
    full-trace, and symmetric.

    Column pairs then meet in exactly 2 rows as well, so they are not
    checked. The row checks give M M^T = (k-2)I + 2J. For k >= 3 that
    matrix is nonsingular, so M is too, and with JM = MJ = kJ,
    M^T M = M^-1 (M M^T) M = (k-2)I + 2 M^-1 J M = (k-2)I + 2J. For
    k <= 2 the only such matrix is J_2, a biplane of order 0 on 2 points.
    """
    if m.rows != m.cols:
        raise VerificationError(
            "square", (m.rows, m.cols), f"matrix is {m.rows}x{m.cols}, not square"
        )
    v = m.rows
    sums = m.row_sums()
    k = sums[0]
    if k < 1:
        raise VerificationError("row-regularity", (0, 0), "row 0 is all zeros")
    for i, s in enumerate(sums):
        if s != k:
            raise VerificationError(
                "row-regularity", (i, s), f"row {i} sums to {s}, row 0 to {k}"
            )
    for j, s in enumerate(m.col_sums()):
        if s != k:
            raise VerificationError(
                "column-regularity", (j, s), f"column {j} sums to {s}, rows sum to {k}"
            )
    if v != head_width(k):
        raise VerificationError(
            "point-count", (v, k), f"{v} points but 1 + C({k},2) = {head_width(k)}"
        )
    if v == 1:
        raise VerificationError(
            "point-count", (v, k), "1 point: no pair of points witnesses lambda = 2"
        )
    # a bad pair in row 0 is the first in row-major order, and scanning
    # row 0 rejects most non-biplanes before the whole table is built
    first = m.bits[0]
    for j in range(1, v):
        d = (first & m.bits[j]).bit_count()
        if d != 2:
            raise VerificationError(
                "row-balance", (0, j, d), f"rows 0,{j} share {d} columns, want 2"
            )
    # the table is symmetric, so its first bad entry in row-major order
    # is the first bad pair i < j
    dots = m.row_dots()
    np.fill_diagonal(dots, 2)
    bad = np.argwhere(dots != 2)
    if len(bad):
        i, j = bad[0].tolist()
        d = int(dots[i, j])
        raise VerificationError(
            "row-balance", (i, j, d), f"rows {i},{j} share {d} columns, want 2"
        )
    return BiplaneCertificate(
        k=k,
        v=v,
        order=k - 2,
        canonical=has_canonical_form(m) if k >= 3 else False,
        full_trace=(m.trace() == v),
        symmetric=m.is_symmetric(),
    )


def symmetric_canonical_defect(m: BinaryMatrix) -> Optional[str]:
    """Why m is not a symmetric canonical biplane matrix with full trace,
    naming the first property it fails of: biplane, symmetric, full
    trace, canonical form; None if it is one."""
    try:
        cert = verify_biplane(m)
    except VerificationError as exc:
        return f"not a biplane: {exc}"
    if not cert.symmetric:
        return "matrix is not symmetric"
    if not cert.full_trace:
        return f"trace {m.trace()} is below the point count {cert.v}"
    if not cert.canonical:
        return "matrix is not in canonical form"
    return None


@functools.lru_cache(maxsize=None)
def canonical_head(k: int) -> BinaryMatrix:
    """The forced first k rows of a canonical biplane matrix, built once per k.

    Column 0 is all ones. The remaining k(k-1)/2 columns are the
    unordered pairs {s, t} with s < t, grouped into bands by s: the
    band for s occupies a run of k-1-s columns, within which row s is
    all ones (the J header) and rows t = s+1..k-1 carry an identity
    staircase. Any two of the k rows then meet in exactly two columns:
    column 0 and their own pair column.
    """
    if k < 3:
        raise ParameterError(f"canonical head needs k >= 3, got {k}")
    v = head_width(k)
    packed = [1] * k
    col = 1
    for s in range(k):
        for t in range(s + 1, k):
            packed[s] |= 1 << col
            packed[t] |= 1 << col
            col += 1
    return BinaryMatrix(k, v, tuple(packed))


def has_canonical_form(m: BinaryMatrix) -> bool:
    """True iff the first k rows equal canonical_head(k) and the first
    k columns equal its transpose. Raises ShapeError when the matrix is
    not square of width 1 + k(k-1)/2 for any k >= 3."""
    if m.rows != m.cols:
        raise ShapeError(f"matrix is {m.rows}x{m.cols}, not square")
    k = block_size_for(m.rows)
    if k < 3:
        raise ShapeError(f"width {m.rows} gives block size {k}, below 3")
    entries, head = m._unpacked(), canonical_head(k)._unpacked()
    return bool((entries[:k] == head).all() and (entries[:, :k] == head.T).all())


def assemble_b4c() -> BinaryMatrix:
    """The order-4 biplane on 16 points, assembled from its block pieces.

    The bottom-right 10x10 block is [[I4, B], [B^T, I6 + C6-]] where
    B = [[0_{1,3}, J_{1,3}], [L3 C3-, C3-]]; the head and its transpose
    fill the first six rows and columns. The diagonal and anti-diagonal
    of order 6 are disjoint, which the construction checks before
    fusing them.
    """
    lc3 = path_loop(3).permute((0, 1, 2), (2, 1, 0))  # reverse the columns of L3
    b = assemble([[constant(1, 3, 0), constant(1, 3, 1)], [lc3, anti_diagonal(3)]])
    i6, c6 = identity(6), anti_diagonal(6)
    if any(i6.bits[i] & c6.bits[i] for i in range(6)):
        raise RuntimeError("the diagonal and anti-diagonal of order 6 overlap")
    ic6 = BinaryMatrix(6, 6, tuple(i6.bits[i] | c6.bits[i] for i in range(6)))
    bprime = assemble([[identity(4), b], [b.transpose(), ic6]])

    head = canonical_head(6)
    h0 = head.submatrix(range(6), range(6))
    h1 = head.submatrix(range(6), range(6, 16))
    return assemble([[h0, h1], [h1.transpose(), bprime]])
