"""Symmetric association schemes: axioms, intersection tensor, closure.

A d-class symmetric association scheme on a set X partitions X x X into
the diagonal class 0 and symmetric classes 1..d such that for every
(x, y) in class h the count of z with (x, z) in class i and (z, y) in
class j depends only on (h, i, j). Those counts are the intersection
numbers p[h][i][j]; constancy of every one of them is the axiom that
actually fails in the wild, and from_relation_matrix verifies it by
direct counting with bitset neighborhoods.

The class indicator matrices A_0 = I, A_1, ..., A_d sum to the all-ones
matrix and satisfy the closure A_i A_j = sum_h p[h][i][j] A_h over the
integers; bose_mesner_check recomputes that identity per pair (i, j)
with exact integer products.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .binmat import _grid_tokens, _pack, _Trap


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


def from_relation_matrix(r) -> AssociationScheme:
    """Verify a relation matrix and build the scheme.

    Structural gates first: square and not empty, zero diagonal,
    symmetric, and off-diagonal labels exactly 1..d with no gaps and d
    at most v - 1 (AxiomError names the failed gate). Then the
    intersection count for every (h, i, j) is computed for every ordered
    pair and compared against the first pair of its class; the first
    disagreement raises NotASchemeError with both pairs as witness.
    """
    rel = np.asarray(r, dtype=np.int64)
    if rel.ndim != 2 or rel.shape[0] != rel.shape[1]:
        raise AxiomError("shape", f"relation matrix must be square, got {rel.shape}")
    v = int(rel.shape[0])
    if v == 0:
        raise AxiomError("shape", "relation matrix has no points")
    if np.any(np.diag(rel) != 0):
        x = int(np.flatnonzero(np.diag(rel))[0])
        raise AxiomError("diagonal", f"diagonal entry ({x},{x}) is {rel[x, x]}, not 0")
    if np.any(rel != rel.T):
        x, y = map(int, np.argwhere(rel != rel.T)[0])
        raise AxiomError(
            "symmetry", f"entry ({x},{y})={rel[x, y]} but ({y},{x})={rel[y, x]}"
        )
    off = rel[~np.eye(v, dtype=bool)]
    d = int(off.max()) if off.size else 0
    if off.size and off.min() < 1:
        x, y = map(int, np.argwhere((rel == 0) & ~np.eye(v, dtype=bool))[0])
        raise AxiomError(
            "partition", f"off-diagonal entry ({x},{y}) is 0; labels must be 1..d"
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
    missing = np.flatnonzero(np.bincount(off, minlength=d + 1)[1:] == 0) + 1
    if missing.size:
        raise AxiomError(
            "labels", f"class labels {missing.tolist()} are absent below max {d}"
        )

    # class-i neighborhoods as bit rows: bit z of masks[i][x] <=> rel[x,z] == i;
    # past the gates, rel == 0 is the identity
    masks = [_pack(rel == i).bits for i in range(d + 1)]

    p = np.full((d + 1, d + 1, d + 1), -1, dtype=np.int64)
    first_pair: list[tuple[int, int] | None] = [None] * (d + 1)
    for x in range(v):
        for y in range(v):
            h = int(rel[x, y]) if x != y else 0
            if first_pair[h] is None:
                for i in range(d + 1):
                    for j in range(d + 1):
                        p[h, i, j] = (masks[i][x] & masks[j][y]).bit_count()
                first_pair[h] = (x, y)
            else:
                for i in range(d + 1):
                    for j in range(d + 1):
                        count = (masks[i][x] & masks[j][y]).bit_count()
                        if count != p[h, i, j]:
                            raise NotASchemeError(
                                h, i, j,
                                first_pair[h], int(p[h, i, j]),
                                (x, y), count,
                            )
    valencies = tuple(int(p[0, i, i]) for i in range(d + 1))
    return AssociationScheme(size=v, d=d, relation=rel.copy(), p=p, n=valencies)


def bose_mesner_check(s: AssociationScheme) -> dict:
    """Recheck closure A_i A_j = sum_h p[h][i][j] A_h with integer products.

    Also confirms commutativity of every product and that the
    indicators sum to the all-ones matrix. All three are theorems once
    the intersection tensor is constant, so failure raises
    InternalInconsistencyError rather than reporting bad input.
    """
    # past the gates of from_relation_matrix, class 0 is the identity
    mats = [(s.relation == h).astype(np.int64) for h in range(s.d + 1)]
    total = sum(mats)
    if not np.array_equal(total, np.ones((s.size, s.size), dtype=np.int64)):
        raise InternalInconsistencyError("class indicators do not sum to all-ones")
    for i in range(s.d + 1):
        for j in range(s.d + 1):
            prod = mats[i] @ mats[j]
            expect = sum(int(s.p[h, i, j]) * mats[h] for h in range(s.d + 1))
            if not np.array_equal(prod, expect):
                raise InternalInconsistencyError(
                    f"A_{i} A_{j} deviates from its p-expansion"
                )
            if not np.array_equal(prod, mats[j] @ mats[i]):
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
        lines.append(" ".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"


def parse_relation(text: str) -> np.ndarray:
    """Inverse of format_relation; '.' is accepted as 0. Other entries
    are ASCII digits, as format_relation writes them: int() would also
    take a sign, an underscore or another script's digits."""
    rows, cols, body = _grid_tokens(text, "table")
    # the labels 1..d all occur, so d is at most the number of entries
    largest = rows * cols
    values = []
    for tok in body:
        if tok == ".":
            values.append(0)
            continue
        if not (tok.isascii() and tok.isdigit()):
            raise ValueError(f"bad entry token {tok!r}")
        value = int(tok)
        if value > largest:
            raise ValueError(
                f"entry token {tok!r} cannot be a class label of a {rows}x{cols} table"
            )
        values.append(value)
    return np.array(values, dtype=np.int64).reshape(rows, cols)
