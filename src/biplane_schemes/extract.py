"""Principal-core extraction from symmetric canonical biplane matrices.

For a biplane matrix of block size k in canonical form with full
diagonal, the principal submatrix on rows and columns k+2..3k-5
(1-based; k+1..3k-6 internally) has every row and column sum equal to 3
(check_lemma1). When the whole matrix is symmetric with full trace,
that core is itself symmetric and classifies as a 3-class PBIBD with
lambda = (0, 1, 2) and class sizes (2k-11, 2, 2); extract_design runs
the whole pipeline and reports everything it verified. Whether that
classification is also an association scheme is reported, not assumed:
it is at k = 6, and at k = 11 no 16-point classification with class
sizes (11, 2, 2) can be one.

check_lemma2 handles the related structure result: a square (0,1)
matrix with all line sums 2 and no 2x2 all-ones block decomposes, as a
bipartite row-column graph, into cycles of even length >= 6, and each
row then has scalar product 1 with exactly two other rows and 0 with
the rest.

family_generate(m) returns the doubled matrix D_m = [[I, L_m], [L_m, I]]
as an incidence matrix: one 3-class PBIBD on 2m points for every m >= 3,
verified rather than asserted.

"PBIBD" means constant class sizes, as in the pbibd module, without the
association scheme of Bose and Shimamoto (1952): of these designs only
the k = 6 core (D_3) has one, and family_generate does not check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .binmat import BinaryMatrix, _Trap, doubled, is_perm_equivalent
from .biplane import has_canonical_form, symmetric_canonical_defect
from .pbibd import (
    NotPbibdError,
    PairClassification,
    StructureError,
    _pbibd_report,
    classify,
    verify_pbibd,
)
from .scheme import AssociationScheme, NotASchemeError, from_relation_matrix


class PreconditionError(Exception):
    """Input does not satisfy the hypotheses of the pipeline step."""


class HypothesisError(Exception):
    """Matrix fails the line-sum-2 / no-2x2-block hypothesis."""


class CounterexampleError(_Trap):
    """A consequence that is a theorem for valid inputs failed.

    Reaching this means the input satisfied every hypothesis yet broke
    a derived property; such an input falsifies the underlying result
    and deserves loud reporting, not a quiet error code.
    """


def _expect(report: dict, want: dict, what: str) -> None:
    """Raise CounterexampleError naming the first key of want whose value
    in the verify_pbibd report differs."""
    for key, value in want.items():
        if report[key] != value:
            raise CounterexampleError(f"{what}: {key} = {report[key]}, want {value}")


def extraction_indices(k: int) -> tuple[int, ...]:
    """Core row/column indices for block size k, 0-based: k+1..3k-6.

    Reports use the 1-based form k+2..3k-5. The set has 2k-6 elements.
    Below k = 6 no nontrivial symmetric canonical biplane matrix exists
    and the set degenerates, so smaller k is rejected.
    """
    if k < 6:
        raise PreconditionError(
            f"extraction needs block size k >= 6, got {k}: no nontrivial "
            "symmetric canonical biplane matrices exist below k = 6"
        )
    return tuple(range(k + 1, 3 * k - 5))


def check_core_sums(core: BinaryMatrix) -> tuple[bool, Optional[dict]]:
    """All row and column sums of a core equal 3? Witness names the first miss.

    This is the lenient entry point for cores supplied directly,
    without the surrounding canonical matrix.
    """
    for i, s in enumerate(core.row_sums()):
        if s != 3:
            return False, {"axis": "row", "index": i, "sum": s}
    for j, s in enumerate(core.col_sums()):
        if s != 3:
            return False, {"axis": "column", "index": j, "sum": s}
    return True, None


def check_lemma1(m: BinaryMatrix, k: int) -> tuple[bool, Optional[dict]]:
    """Row/column sums of the principal core of a canonical matrix are 3.

    Hypotheses checked here: m is square in canonical form and its
    diagonal is 1 at least through position 3k-5 (1-based). Violations
    raise PreconditionError; the sum condition itself is returned as a
    flag plus witness.
    """
    indices = extraction_indices(k)
    if m.rows != m.cols:
        raise PreconditionError(f"matrix is {m.rows}x{m.cols}, not square")
    if m.rows < 3 * k - 5:
        raise PreconditionError(
            f"matrix of width {m.rows} cannot contain the core through index {3 * k - 5}"
        )
    if not has_canonical_form(m):
        raise PreconditionError("matrix is not in canonical form")
    for i in range(3 * k - 5):
        if m[i, i] != 1:
            raise PreconditionError(
                f"diagonal entry {i} is 0; ones are required through position {3 * k - 5}"
            )
    return check_core_sums(m.submatrix(indices, indices))


@dataclass(frozen=True)
class Lemma2Report:
    m: int
    cycle_lengths: tuple[int, ...]  # bipartite cycle lengths, each even and >= 6

    def report(self) -> dict:
        return {"m": self.m, "cycle_lengths": list(self.cycle_lengths)}


def check_lemma2(a: BinaryMatrix) -> Lemma2Report:
    """Verify the two-neighbors conclusion for a line-sum-2 matrix.

    Hypotheses (HypothesisError with witness on failure): square of
    order m >= 3, every row and column sums to 2, and no two rows share
    two columns (no 2x2 all-ones submatrix). Conclusion verified: every
    row has scalar product 1 with exactly two other rows and 0 with the
    remaining m-3. The report carries the cycle decomposition of the
    bipartite row-column graph; a conclusion failure would raise
    CounterexampleError, but none is mathematically possible.
    """
    if a.rows != a.cols:
        raise HypothesisError(f"matrix is {a.rows}x{a.cols}, not square")
    m = a.rows
    if m < 3:
        raise HypothesisError(f"order {m} below 3; a 2x2 line-sum-2 matrix is all ones")
    for i, s in enumerate(a.row_sums()):
        if s != 2:
            raise HypothesisError(f"row {i} sums to {s}, want 2")
    for j, s in enumerate(a.col_sums()):
        if s != 2:
            raise HypothesisError(f"column {j} sums to {s}, want 2")
    # the table is symmetric, so its first shared pair in row-major
    # order is the first pair i < j
    dots = a.row_dots()
    np.fill_diagonal(dots, 0)
    shared = np.argwhere(dots >= 2)
    if len(shared):
        i, j = shared[0].tolist()
        raise HypothesisError(
            f"rows {i} and {j} share {dots[i, j]} columns; "
            "a 2x2 all-ones block is excluded"
        )

    meets = dots == 1
    for i, ones in enumerate(meets.sum(axis=1).tolist()):
        if ones != 2:
            raise CounterexampleError(
                f"row {i} has scalar product 1 with {ones} rows, want exactly 2"
            )

    # the rows that share a column form a 2-regular graph, and each of
    # its cycles, of L rows, is a cycle of L rows and L columns in the
    # bipartite row-column graph
    near = np.nonzero(meets)[1].reshape(m, 2).tolist()
    seen = [False] * m
    lengths = []
    for start in range(m):
        if seen[start]:
            continue
        x, size = start, 0
        while x is not None:
            seen[x] = True
            size += 1
            x = next((y for y in near[x] if not seen[y]), None)
        lengths.append(2 * size)
    return Lemma2Report(m=m, cycle_lengths=tuple(sorted(lengths)))


@dataclass(eq=False)
class ExtractionReport:
    """Everything extract_design verified, plus the core and its scheme.

    scheme is None when the core classification is not an association
    scheme; scheme_witness then holds the NotASchemeError witness.
    """

    k: int
    indices: tuple[int, ...]  # 0-based
    core: BinaryMatrix
    pbibd: dict
    classification: PairClassification = field(repr=False)
    scheme: Optional[AssociationScheme] = field(repr=False)
    d_equivalence: Optional[tuple[tuple[int, ...], tuple[int, ...]]]
    scheme_witness: Optional[dict] = None

    def report(self) -> dict:
        out = {
            "k": self.k,
            "indices": [i + 1 for i in self.indices],
            "core": self.core.to_lists(),
            "pbibd": self.pbibd,
            "scheme": None if self.scheme is None else self.scheme.report(),
        }
        if self.scheme_witness is not None:
            out["scheme_witness"] = self.scheme_witness
        if self.d_equivalence is not None:
            rp, cp = self.d_equivalence
            out["d_equivalence"] = {"row_perm": list(rp), "col_perm": list(cp)}
        return out


def extract_design(m: BinaryMatrix) -> ExtractionReport:
    """Extract and verify the 3-class design inside a symmetric canonical
    biplane matrix with full trace.

    Preconditions (PreconditionError): m verifies as a biplane, is
    symmetric, has trace v, and is in canonical form. Consequences
    (CounterexampleError if ever violated): core sums 3, core symmetric,
    classification d=3 with lambda (0,1,2) and n (2k-11, 2, 2), and the
    PBIBD identities. The classification is then checked as a 3-class
    association scheme, which is data, not a consequence: the scheme of
    the 6-point core at k = 6, or scheme None with the NotASchemeError
    witness (no scheme with valencies (11, 2, 2) exists on 16 points, so
    every core at k = 11 lands here). The report also carries a
    permutation witness against doubled(k-3) when one exists; its
    absence is normal at some orders.
    """
    defect = symmetric_canonical_defect(m)
    if defect:
        raise PreconditionError(defect)
    k = m.bits[0].bit_count()  # a biplane's row sum

    # the preconditions stand for check_lemma1's hypotheses: m is square,
    # canonical and has a full diagonal
    indices = extraction_indices(k)
    core = m.submatrix(indices, indices)
    sums_ok, witness = check_core_sums(core)
    if not sums_ok:
        raise CounterexampleError(f"core line sums are not all 3: {witness}")
    if not core.is_symmetric():
        raise CounterexampleError("core of a symmetric matrix is not symmetric")

    # the core's regularity and its balanced classes are theorems too
    try:
        classification = classify(core)
        pbibd_report = _pbibd_report(core, classification)
    except (StructureError, NotPbibdError) as exc:
        raise CounterexampleError(f"core at k={k}: {exc}") from exc
    _expect(pbibd_report, {"lambda": [0, 1, 2], "n": [2 * k - 11, 2, 2]}, f"core at k={k}")
    core_scheme, scheme_witness = None, None
    try:
        core_scheme = from_relation_matrix(classification.relation)
    except NotASchemeError as exc:
        scheme_witness = exc.witness()

    witness_pair = is_perm_equivalent(core, doubled(k - 3))
    return ExtractionReport(
        k=k,
        indices=indices,
        core=core,
        pbibd=pbibd_report,
        classification=classification,
        scheme=core_scheme,
        d_equivalence=witness_pair,
        scheme_witness=scheme_witness,
    )


def family_generate(m: int) -> tuple[BinaryMatrix, dict]:
    """The doubled matrix D_m as a verified 3-class PBIBD on 2m points.

    For every m >= 3 the matrix is symmetric with v = b = 2m and
    r = k = 3, concurrences (0, 1, 2), and class sizes (2m-5, 2, 2).
    All of that is verified on the generated matrix; a failure would
    raise CounterexampleError (none is possible).
    """
    if m < 3:
        raise PreconditionError(f"family needs m >= 3, got {m}")
    matrix = doubled(m)
    try:
        report = verify_pbibd(matrix)
    except (StructureError, NotPbibdError) as exc:
        raise CounterexampleError(f"family member m={m}: {exc}") from exc
    _expect(report, {"lambda": [0, 1, 2], "n": [2 * m - 5, 2, 2], "v": 2 * m, "b": 2 * m,
                     "r": 3, "k": 3}, f"family member m={m}")
    report["m"] = m
    return matrix, report
