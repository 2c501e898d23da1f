"""The name IncidenceStructure, kept for perfbench/inputs.py only.

The design layers take the incidence matrix itself, a BinaryMatrix, so
IncidenceStructure(matrix) returns its argument. This module goes, with
that import, at the next change to the benchmark (ROADMAP item 9).
"""

from __future__ import annotations

from .binmat import BinaryMatrix


def IncidenceStructure(matrix: BinaryMatrix) -> BinaryMatrix:
    """The matrix itself: classify(IncidenceStructure(m)) is classify(m)."""
    return matrix
