"""Concurrence tables and partially balanced incomplete block designs.

A regular uniform structure is a PBIBD with d associate classes when
its point pairs split into classes such that pairs in class i lie on
exactly lambda_i common blocks and every point has exactly n_i i-th
associates. classify() groups pairs by their concurrence value, labels
classes by ascending lambda (the diagonal keeps the reserved label 0),
and verifies the per-point constancy of each n_i; that constancy is the
actual PBIBD condition, not an assumption. It builds the relation in
one pass over the concurrence table: one histogram of all entries less
that of the diagonal gives the lambdas, a lookup table from lambda to
label maps the whole table at once, and the diagonal is then set to 0.

Two double counts tie the parameters together: v*r = b*k, and
sum_i n_i * lambda_i = r(k-1). Both are theorems for valid inputs, so
their failure is reported as an internal inconsistency, not bad data.

The concurrence table M M^T is BinaryMatrix.row_dots: popcounts of
the ANDed 64-bit words of two packed rows, summed in int64. Every
entry is an integer count of at most b blocks, computed without any
floating point, so the table is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .binmat import BinaryMatrix
from .incidence import InconsistencyError, IncidenceStructure, _regular_uniform


class NotPbibdError(Exception):
    """Some class count n_i varies between points; carries a witness."""

    def __init__(self, label: int, lam: int, point_a: int, count_a: int,
                 point_b: int, count_b: int):
        super().__init__(
            f"class {label} (concurrence {lam}) is not balanced: "
            f"point {point_a} has {count_a} associates, point {point_b} has {count_b}"
        )
        self.label = label
        self.lam = lam
        self.point_a = point_a
        self.count_a = count_a
        self.point_b = point_b
        self.count_b = count_b


class ExpectationError(ValueError):
    """The classification disagrees with an expected class count."""


@dataclass(eq=False)
class PairClassification:
    """Associate classes of a point set, labeled 1..d by ascending lambda.

    relation[p][q] is the class label of the pair {p, q}; the diagonal
    carries the reserved label 0. lambdas[i-1] is the concurrence of
    class i and n[i-1] the (constant) count of i-th associates per point.
    """

    v: int
    lambdas: tuple[int, ...]
    n: tuple[int, ...]
    relation: np.ndarray = field(repr=False)

    @property
    def d(self) -> int:
        return len(self.lambdas)

    def relation_of(self, p: int, q: int) -> int:
        return int(self.relation[p, q])

    def associate_matrix(self, label: int) -> BinaryMatrix:
        """(0,1) indicator of class ``label`` (0 gives the identity)."""
        if not 0 <= label <= self.d:
            raise IndexError(f"class label {label} out of range 0..{self.d}")
        return BinaryMatrix.from_numpy(self.relation == label)


def concurrence(s: IncidenceStructure) -> np.ndarray:
    """The v x v int64 table M M^T: entry (p, q) counts blocks through both points.

    Exact: each entry is a sum of integer popcounts over the packed
    rows, at most b, with no floating point involved.
    """
    return s.matrix.row_dots()


def classify(s: IncidenceStructure) -> PairClassification:
    """Partition point pairs by concurrence value.

    Class labels are assigned in ascending lambda order. Equal
    concurrences are never split into separate classes: a finer
    partition cannot be recovered from the incidence matrix alone, so
    callers needing one must hand the scheme module an explicit
    relation matrix. Raises NotPbibdError when some class size varies
    between points.
    """
    v = s.v
    if v == 1:
        return PairClassification(
            v=1, lambdas=(), n=(), relation=np.zeros((1, 1), dtype=np.int64)
        )
    conc = concurrence(s)
    # the distinct off-diagonal concurrences in ascending order; np.unique
    # would do, but its first call imports numpy.ma (15 ms with numpy
    # 2.4), a cost every fresh process would pay
    hist = np.bincount(conc.ravel())
    hist -= np.bincount(conc.diagonal(), minlength=hist.size)
    present = np.flatnonzero(hist)
    lambdas = tuple(present.tolist())
    label_of = np.zeros(hist.size, dtype=np.int64)
    label_of[present] = np.arange(1, present.size + 1)
    relation = label_of[conc]
    np.fill_diagonal(relation, 0)
    counts_per_class = []
    for label in range(1, len(lambdas) + 1):
        counts = np.count_nonzero(relation == label, axis=1)
        low, high = int(counts.argmin()), int(counts.argmax())
        if counts[low] != counts[high]:
            raise NotPbibdError(
                label, lambdas[label - 1],
                high, int(counts[high]), low, int(counts[low]),
            )
        counts_per_class.append(int(counts[0]))
    return PairClassification(
        v=v, lambdas=lambdas, n=tuple(counts_per_class), relation=relation
    )


def verify_pbibd(s: IncidenceStructure, expect_d: Optional[int] = None) -> dict:
    """Classify and check the PBIBD identities; returns a JSON-able report.

    Requires regularity and uniformity (StructureError otherwise).
    Checks v*r = b*k and sum_i n_i lambda_i = r(k-1) exactly, raising
    InconsistencyError on failure, and ExpectationError when expect_d
    disagrees with the classified class count.
    """
    return _pbibd_report(s, None, expect_d)


def _pbibd_report(
    s: IncidenceStructure, c: Optional[PairClassification], expect_d: Optional[int]
) -> dict:
    """verify_pbibd for a caller that may already hold classify(s) as c."""
    r, k = _regular_uniform(s)
    if c is None:
        c = classify(s)
    v, b = s.v, s.b
    if v > 1:
        weighted = sum(n_i * lam_i for n_i, lam_i in zip(c.n, c.lambdas))
        if weighted != r * (k - 1):
            raise InconsistencyError(
                f"sum n_i lambda_i = {weighted} but r(k-1) = {r * (k - 1)}"
            )
    if expect_d is not None and c.d != expect_d:
        raise ExpectationError(f"expected {expect_d} classes, classified {c.d}")
    return {
        "v": v,
        "b": b,
        "r": r,
        "k": k,
        "d": c.d,
        "lambda": list(c.lambdas),
        "n": list(c.n),
        "parameters": f"2-({v},{b},{r},{k},({','.join(str(l) for l in c.lambdas)}))",
        "identities": {"vr_bk": True, "sum_nl": True},
    }
