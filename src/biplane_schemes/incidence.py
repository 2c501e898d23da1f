"""Point-block incidence structures and their counting identities.

Rows of the carrier matrix are points, columns are blocks. Point p is
incident with block L iff entry (p, L) is 1. Regularity (regularity())
means every point lies on the same number r of blocks; uniformity
(uniformity()) means every block contains the same number k of points;
2-balance (balance()) means every unordered point pair lies on the same
number lambda of blocks.

For any regular uniform structure the double count v*r = b*k holds, and
for 2-balanced ones additionally r(k-1) = lambda(v-1). Both identities
are recomputed, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .binmat import BinaryMatrix, _Trap


class StructureError(ValueError):
    """Structure lacks regularity or uniformity; carries the offending index."""

    def __init__(self, kind: str, index: int, message: str):
        super().__init__(message)
        self.kind = kind  # "point" or "block"
        self.index = index


class InconsistencyError(_Trap, RuntimeError):
    """A counting identity that is a theorem failed; this is a bug trap."""


@dataclass(frozen=True)
class IncidenceStructure:
    matrix: BinaryMatrix

    @property
    def v(self) -> int:
        return self.matrix.rows

    @property
    def b(self) -> int:
        return self.matrix.cols


@dataclass(frozen=True)
class DesignParameters:
    """Derived t-(v,b,r,k,lambda) parameters; lam is None in the PBIBD case."""

    t: int
    v: int
    b: int
    r: int
    k: int
    lam: Optional[int]
    order: Optional[int]
    symmetric: bool

    def report(self) -> dict:
        out = {"t": self.t, "v": self.v, "b": self.b, "r": self.r, "k": self.k}
        if self.lam is not None:
            out["lambda"] = self.lam
        if self.order is not None:
            out["order"] = self.order
        out["symmetric"] = self.symmetric
        return out


def regularity(s: IncidenceStructure) -> Optional[int]:
    """r if every point lies on exactly r blocks, else None."""
    sums = s.matrix.row_sums()
    return sums[0] if len(set(sums)) == 1 else None


def uniformity(s: IncidenceStructure) -> Optional[int]:
    """k if every block contains exactly k points, else None."""
    sums = s.matrix.col_sums()
    return sums[0] if len(set(sums)) == 1 else None


def balance(s: IncidenceStructure) -> Optional[int]:
    """lambda if every pair of points lies on equally many blocks, else None.

    Computed from the concurrence table M M^T (BinaryMatrix.row_dots),
    whose off-diagonal entry (p, q) counts blocks through both points.
    regularity() is the same question for single points.
    """
    v = s.v
    if v == 1:
        return None  # no point pairs to witness a lambda
    pairs = s.matrix.row_dots()[~np.eye(v, dtype=bool)]
    return int(pairs[0]) if (pairs == pairs[0]).all() else None


def _regular_uniform(s: IncidenceStructure) -> tuple[int, int]:
    """(r, k) of a regular uniform structure, with v*r = b*k rechecked.

    Raises StructureError naming the first irregular point or
    non-uniform block, and InconsistencyError if the double count fails.
    """
    sums = s.matrix.row_sums()
    r = sums[0]
    if sums.count(r) != len(sums):
        bad = next(p for p, total in enumerate(sums) if total != r)
        raise StructureError("point", bad, f"point {bad} degree {sums[bad]} != {r}")
    sums = s.matrix.col_sums()
    k = sums[0]
    if sums.count(k) != len(sums):
        bad = next(j for j, total in enumerate(sums) if total != k)
        raise StructureError("block", bad, f"block {bad} size {sums[bad]} != {k}")
    if s.v * r != s.b * k:
        raise InconsistencyError(f"v*r = {s.v * r} but b*k = {s.b * k}")
    return r, k


def derive_parameters(s: IncidenceStructure) -> DesignParameters:
    """Parameters of a regular uniform structure, with identities rechecked.

    Raises StructureError naming the first irregular point or
    non-uniform block. When the structure is 2-balanced the result
    carries lambda and the order r - lambda; otherwise both are None
    and the concurrence spectrum is the business of the pbibd module.
    """
    r, k = _regular_uniform(s)
    v, b = s.v, s.b
    lam = balance(s)
    order = None
    if lam is not None and v > 1:
        if r * (k - 1) != lam * (v - 1):
            raise InconsistencyError(
                f"pair count broken: r(k-1) = {r * (k - 1)} but lambda(v-1) = {lam * (v - 1)}"
            )
        order = r - lam
    return DesignParameters(
        t=2 if lam is not None else 1,
        v=v,
        b=b,
        r=r,
        k=k,
        lam=lam,
        order=order,
        symmetric=(v == b),
    )
