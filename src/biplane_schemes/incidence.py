"""Point-block incidence structures and their double count.

Rows of the carrier matrix are points, columns are blocks; point p is
incident with block L iff entry (p, L) is 1. _regular_uniform checks
that every point lies on r blocks and every block holds k points,
naming the first that does not, and rechecks v*r = b*k. Pair balance
and the associate classes belong to the pbibd module.
"""

from __future__ import annotations

from dataclasses import dataclass

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
