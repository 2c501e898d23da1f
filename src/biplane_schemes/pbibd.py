"""Concurrence tables and partially balanced incomplete block designs.

The functions here take the incidence matrix as a BinaryMatrix: rows are
points, columns are blocks, and point p lies on block L iff entry (p, L)
is 1. A regular uniform structure is a PBIBD with d associate classes
when its point pairs split into classes such that pairs in class i lie
on exactly lambda_i common blocks and every point has exactly n_i i-th
associates. classify() groups pairs by their concurrence value, labels
classes by ascending lambda (the diagonal keeps the reserved label 0),
and verifies the per-point constancy of each n_i; that constancy is the
PBIBD condition checked here, not an assumption.

This PBIBD is weaker than Bose and Shimamoto's (1952), whose classes
must also form an association scheme (scheme.from_relation_matrix of the
relation checks that apart): the 16-point cores at k = 11, and D_m at
least for m = 4, 5 and 6, are PBIBDs only in the weaker sense. With
d = 1 the design is a 2-design, pair balanced with lambda = lambdas[0].

classify() finds the concurrences in one of two ways, with the same
result either way: the same lambdas, counts and relation, or the same
NotPbibdError with the same witness points.

- From the table: its diagonal is set to top, one past the largest
  concurrence, so that one histogram of the whole table, cut at top,
  gives the lambdas, and each class count is a count of one value per
  row. The table is kept, and the first read of the relation maps it in
  place through a lookup table from lambda to label that sends top to
  0, so the classification holds one v x v table before and after that
  read; verify_pbibd never reads it. Its work grows with v^2 times the
  64-bit words per row.
- From the block pairs: the pairs p < q of points inside each block,
  sum_b k_b(k_b - 1)/2 in all, sorted once and run-length counted, give
  each nonzero concurrence; a point's concurrence-0 associates are the
  v - 1 others less those. It never forms the table, and it keeps only
  the pairs that meet and their labels: the v x v relation is filled
  from them the first time a caller reads it, and verify_pbibd never
  does. For D_500 that is 3,000 pairs against 1,000,000 table entries.

The rule that picks one is read off the input: the block pairs when v is
at least 96 and sum_b k_b^2 < v^2, the table otherwise. sum_b k_b^2
counts the ordered point pairs inside blocks, diagonal included, as
the table's v^2 entries count all ordered pairs. Both limits are
measured crossovers (2-vCPU host, numpy 2.4). Below 96 points the
block-pair way's fixed cost of about 50 numpy calls (150-250 us) loses
to the table: at 80 points the two tie, at 16 the table takes 40-70 us
against 130-170 us. From 96 points on, on every input timed with
sum_b k_b^2 < v^2 (doubled, circulant and random, relabelled or not),
the block pairs were faster or within 10%: a relabelled D_500 takes
2.7 ms against 28-33 ms from the table. With sum_b k_b^2 above v^2 the
table wins at 100-200 points; at 1000 points the pairs still win up to
about 4 v^2, but past v^2 they hold more memory than the table, so the
table is kept there. Biplanes, with sum_b k_b^2 = v k^2 > v^2, always
take the table.

_regular_uniform checks that every point lies on r blocks and every
block holds k points, naming the first that does not. Two double
counts tie the parameters together: v*r = b*k, and
sum_i n_i * lambda_i = r(k-1). Both are theorems for valid inputs, so
their failure is reported as an internal inconsistency, not bad data.

The concurrence table M M^T is BinaryMatrix.row_dots: popcounts of
the ANDed 64-bit words of two packed rows, summed in int64. Every
entry is an integer count of at most b blocks, computed without any
floating point, so the table is exact. The block pairs are counted in
int64 from the positions of the 1 entries (BinaryMatrix.nonzero), so
they are exact too.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .binmat import BinaryMatrix, _Trap

# classify() counts block pairs, instead of reading the concurrence
# table, from this many points on (see the module docstring)
_PAIRS_MIN_POINTS = 96


class StructureError(ValueError):
    """Structure lacks regularity or uniformity; carries the offending index."""

    def __init__(self, kind: str, index: int, message: str):
        super().__init__(message)
        self.kind = kind  # "point" or "block"
        self.index = index


class InconsistencyError(_Trap, RuntimeError):
    """A counting identity that is a theorem failed; this is a bug trap."""


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


@dataclass(eq=False)
class PairClassification:
    """Associate classes of a point set, labeled 1..d by ascending lambda.

    relation[p][q] is the class label of the pair {p, q}; the diagonal
    carries the reserved label 0. lambdas[i-1] is the concurrence of
    class i and n[i-1] the (constant) count of i-th associates per point.

    relation, a v x v int64 table, is built by _build on first read,
    whichever way classified, and then kept: the table way maps its
    concurrence table in place, the block-pair way fills it from the
    pairs p < q that meet in some block, their labels, and the label of
    every other pair.
    """

    v: int
    lambdas: tuple[int, ...]
    n: tuple[int, ...]
    _build: Callable[[], np.ndarray] = field(repr=False)

    @functools.cached_property
    def relation(self) -> np.ndarray:
        return self._build()

    @property
    def d(self) -> int:
        return len(self.lambdas)

    def associate_matrix(self, label: int) -> BinaryMatrix:
        """(0,1) indicator of class ``label`` (0 gives the identity)."""
        if not 0 <= label <= self.d:
            raise IndexError(f"class label {label} out of range 0..{self.d}")
        return BinaryMatrix.from_numpy(self.relation == label)


def _regular_uniform(m: BinaryMatrix) -> tuple[int, int]:
    """(r, k) of a regular uniform structure, with v*r = b*k rechecked.

    Raises StructureError naming the first irregular point or
    non-uniform block, and InconsistencyError if the double count fails.
    """
    sums = m.row_sums()
    r = sums[0]
    if sums.count(r) != len(sums):
        bad = next(p for p, total in enumerate(sums) if total != r)
        raise StructureError("point", bad, f"point {bad} degree {sums[bad]} != {r}")
    sums = m.col_sums()
    k = sums[0]
    if sums.count(k) != len(sums):
        bad = next(j for j, total in enumerate(sums) if total != k)
        raise StructureError("block", bad, f"block {bad} size {sums[bad]} != {k}")
    if m.rows * r != m.cols * k:
        raise InconsistencyError(f"v*r = {m.rows * r} but b*k = {m.cols * k}")
    return r, k


def classify(m: BinaryMatrix) -> PairClassification:
    """Partition point pairs by concurrence value.

    Class labels are assigned in ascending lambda order. Equal
    concurrences are never split into separate classes: a finer
    partition cannot be recovered from the incidence matrix alone, so
    callers needing one must hand the scheme module an explicit
    relation matrix. Raises NotPbibdError when some class size varies
    between points.

    Sparse structures of at least _PAIRS_MIN_POINTS points, those whose
    blocks hold fewer point pairs (sum_b k_b^2) than the v^2 entries of
    the concurrence table, are classified from their block pairs;
    everything else from the table. Both give the same result.
    """
    v = m.rows
    if v >= _PAIRS_MIN_POINTS:
        sizes = np.array(m.col_sums())
        if int(sizes @ sizes) < v * v:
            return _classify_pairs(v, _block_points(m), sizes)
    return _classify_table(m)


def _classify_table(m: BinaryMatrix) -> PairClassification:
    """classify() from the whole concurrence table."""
    conc = m.row_dots()
    # no concurrence exceeds a diagonal entry, so with the diagonal at top
    # the histogram below top counts the pairs p != q; np.unique would
    # do, but its first call imports numpy.ma (15 ms with numpy 2.4), a
    # cost every fresh process would pay
    top = int(conc.diagonal().max()) + 1
    conc.flat[::m.rows + 1] = top
    present = np.flatnonzero(np.bincount(conc.ravel())[:top])
    lambdas = tuple(present.tolist())
    counts = (np.count_nonzero(conc == lam, axis=1) for lam in lambdas)
    n = _class_sizes(lambdas, counts)
    label_of = np.zeros(top + 1, dtype=np.int64)
    label_of[present] = np.arange(1, present.size + 1)
    # mode="raise" would map through a v x v copy
    return PairClassification(m.rows, lambdas, n,
                              lambda: np.take(label_of, conc, out=conc, mode="clip"))


def _block_points(m: BinaryMatrix) -> np.ndarray:
    """The points of every block, block after block and each block's in
    ascending order."""
    points, blocks = m.nonzero()
    return np.sort(blocks * m.rows + points) % m.rows


def _classify_pairs(v: int, points: np.ndarray, sizes: np.ndarray) -> PairClassification:
    """classify() from the point pairs inside each block, given by
    _block_points and the block sizes: it never forms the concurrence
    table."""
    # member i of a block pairs with the later members of its block,
    # which sit at i + 1 .. i + later[i] in points
    member = np.arange(points.size)
    later = np.repeat(np.cumsum(sizes), sizes) - member - 1
    shift = np.cumsum(later) - later - member - 1
    keys = np.repeat(points, later) * v + points[np.arange(later.sum()) - np.repeat(shift, later)]
    # run lengths of the sorted keys: each pair p < q that meets in some
    # block, with its concurrence
    keys.sort()
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    conc = np.diff(first, append=keys.size)
    p, q = np.divmod(keys[first], v)
    zero_count = (v - 1) - np.bincount(p, minlength=v) - np.bincount(q, minlength=v)
    zero = int(zero_count.any())
    hist = np.bincount(conc)
    present = np.flatnonzero(hist)
    lambdas = (0,) * zero + tuple(present.tolist())
    label_of = np.zeros(hist.size, dtype=np.int64)
    label_of[present] = np.arange(1 + zero, len(lambdas) + 1)
    labels = label_of[conc]
    counts = np.bincount(
        np.concatenate((labels * v + p, labels * v + q)), minlength=(len(lambdas) + 1) * v
    ).reshape(-1, v)
    if zero:
        counts[1] = zero_count

    def build() -> np.ndarray:
        relation = np.full((v, v), zero, dtype=np.int64)
        relation[p, q] = labels
        relation[q, p] = labels
        np.fill_diagonal(relation, 0)
        return relation

    return PairClassification(v, lambdas, _class_sizes(lambdas, counts[1:]), build)


def _class_sizes(lambdas: tuple[int, ...], counts) -> tuple[int, ...]:
    """n_1..n_d, where counts[i][p] is the number of associates of point
    p in class i + 1; raises NotPbibdError, with the first points of
    most and fewest associates, for the first class whose count
    varies."""
    sizes = []
    for label, row in enumerate(counts, start=1):
        low, high = int(row.argmin()), int(row.argmax())
        if row[low] != row[high]:
            raise NotPbibdError(
                label, lambdas[label - 1], high, int(row[high]), low, int(row[low])
            )
        sizes.append(int(row[0]))
    return tuple(sizes)


def verify_pbibd(m: BinaryMatrix) -> dict:
    """Classify and check the PBIBD identities; returns a JSON-able report.

    Requires regularity and uniformity (StructureError otherwise).
    Checks v*r = b*k and sum_i n_i lambda_i = r(k-1) exactly, raising
    InconsistencyError on failure; for d = 1 the second is the 2-design
    identity r(k-1) = lambda(v-1). extract_design and family_generate,
    which expect particular classes, compare this report with them
    through extract._expect.
    """
    return _pbibd_report(m, None)


def _pbibd_report(m: BinaryMatrix, c: Optional[PairClassification]) -> dict:
    """verify_pbibd for a caller that may already hold classify(m) as c."""
    r, k = _regular_uniform(m)
    if c is None:
        c = classify(m)
    v, b = m.rows, m.cols
    if v > 1:
        weighted = sum(n_i * lam_i for n_i, lam_i in zip(c.n, c.lambdas))
        if weighted != r * (k - 1):
            raise InconsistencyError(
                f"sum n_i lambda_i = {weighted} but r(k-1) = {r * (k - 1)}"
            )
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
