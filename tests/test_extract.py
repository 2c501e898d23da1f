"""Principal-core extraction pipeline and the doubled design family."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from biplane_schemes import extract
from biplane_schemes.binmat import (
    BinaryMatrix,
    constant,
    disjoint_cycles,
    doubled,
    identity,
    is_perm_equivalent,
    path_loop,
)
from biplane_schemes.biplane import assemble_b4c, verify_biplane
from biplane_schemes.extract import (
    CounterexampleError,
    HypothesisError,
    PreconditionError,
    check_core_sums,
    check_lemma1,
    check_lemma2,
    extract_design,
    extraction_indices,
    family_generate,
    to_one_based,
)
from biplane_schemes.fixtures import CORES_12, CORES_16, b9e
from biplane_schemes.scheme import NotASchemeError

SIX_POINT_CORE = BinaryMatrix.from_rows([
    [1, 0, 0, 0, 1, 1],
    [0, 1, 0, 1, 0, 1],
    [0, 0, 1, 1, 1, 0],
    [0, 1, 1, 1, 0, 0],
    [1, 0, 1, 0, 1, 0],
    [1, 1, 0, 0, 0, 1],
])


def test_extraction_indices():
    assert extraction_indices(6) == (7, 8, 9, 10, 11, 12)
    assert extraction_indices(7) == tuple(range(8, 16))
    for k in range(6, 12):
        assert len(extraction_indices(k)) == 2 * k - 6
    assert to_one_based(extraction_indices(6)) == (8, 9, 10, 11, 12, 13)
    for k in (3, 4, 5):
        with pytest.raises(PreconditionError):
            extraction_indices(k)


def test_check_core_sums():
    ok, witness = check_core_sums(CORES_12[0])
    assert ok and witness is None
    ok, witness = check_core_sums(CORES_12[1])
    assert not ok
    assert witness == {"axis": "row", "index": 0, "sum": 1}
    ok, witness = check_core_sums(identity(4))
    assert not ok and witness["sum"] == 1


def test_check_lemma1_on_b4c():
    ok, witness = check_lemma1(assemble_b4c(), 6)
    assert ok and witness is None


def test_check_lemma1_preconditions():
    m = assemble_b4c()
    with pytest.raises(PreconditionError):
        check_lemma1(constant(3, 4, 1), 6)
    with pytest.raises(PreconditionError):
        check_lemma1(m, 8)  # core indices would leave the matrix
    with pytest.raises(PreconditionError):
        check_lemma1(m.permute(list(range(14)) + [15, 14], list(range(16))), 6)

    rows = m.to_lists()
    rows[7][7] = 0
    rows[7][14] = 1  # keep the row sum; the diagonal hole is the point
    with pytest.raises(PreconditionError) as err:
        check_lemma1(BinaryMatrix.from_rows(rows), 6)
    assert "diagonal" in str(err.value)


def test_check_lemma2_cycles():
    rep = check_lemma2(disjoint_cycles([5]))
    assert rep.conclusion_ok
    assert rep.cycle_lengths == (10,)
    assert rep.report() == {"m": 5, "cycle_lengths": [10], "conclusion_ok": True}

    rep = check_lemma2(disjoint_cycles([5, 3, 4]))
    assert rep.cycle_lengths == (6, 8, 10)

    for m in range(3, 10):
        rep = check_lemma2(path_loop(m))
        assert rep.conclusion_ok
        assert rep.cycle_lengths == (2 * m,)


def test_check_lemma2_hypotheses():
    excluded = "a 2x2 all-ones block is excluded"
    cases = [
        (constant(2, 3, 1), "matrix is 2x3, not square"),
        (path_loop(2), "order 2 below 3; a 2x2 line-sum-2 matrix is all ones"),
        (identity(4), "row 0 sums to 1, want 2"),
        (BinaryMatrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 1, 0]]),
         "row 2 sums to 1, want 2"),
        (BinaryMatrix.from_rows([[1, 1, 0], [1, 0, 1], [1, 1, 0]]),
         "column 0 sums to 3, want 2"),
        (BinaryMatrix.from_rows([
            [1, 1, 0, 0],
            [1, 1, 0, 0],
            [0, 0, 1, 1],
            [0, 0, 1, 1],
        ]), f"rows 0 and 1 share 2 columns; {excluded}"),
        # line sums 2; rows 1 and 3 are the one pair that shares two columns
        (BinaryMatrix.from_rows([
            [1, 1, 0, 0, 0],
            [0, 0, 1, 1, 0],
            [1, 0, 0, 0, 1],
            [0, 0, 1, 1, 0],
            [0, 1, 0, 0, 1],
        ]), f"rows 1 and 3 share 2 columns; {excluded}"),
    ]
    for a, message in cases:
        with pytest.raises(HypothesisError) as err:
            check_lemma2(a)
        assert str(err.value) == message


def test_extract_design_full_pipeline():
    result = extract_design(assemble_b4c())
    assert result.k == 6
    assert result.indices == (7, 8, 9, 10, 11, 12)
    assert result.indices_one_based == (8, 9, 10, 11, 12, 13)
    assert result.core == SIX_POINT_CORE
    assert result.lemma1_ok and result.symmetric_ok
    assert result.pbibd["parameters"] == "2-(6,6,3,3,(0,1,2))"
    assert result.pbibd["n"] == [1, 2, 2]
    assert result.classification.lambdas == (0, 1, 2)
    assert result.scheme.n == (1, 1, 2, 2)
    assert result.d_equivalence is not None
    row_perm, col_perm = result.d_equivalence
    assert result.core.permute(row_perm, col_perm) == doubled(3)


def test_extract_report_keys():
    rep = extract_design(assemble_b4c()).report()
    assert rep["k"] == 6
    assert rep["indices"] == [8, 9, 10, 11, 12, 13]  # 1-based in reports
    assert rep["core"] == SIX_POINT_CORE.to_lists()
    assert rep["scheme"]["n"] == [1, 1, 2, 2]
    assert "scheme_witness" not in rep
    assert rep["d_equivalence"] is not None


def test_extract_design_reports_a_core_that_is_not_a_scheme(monkeypatch):
    # a PBIBD core need not be a scheme (no 16-point core at k = 11 is),
    # so the scheme verdict is data: scheme None plus the witness, and
    # nothing else in the report changes
    expected = extract_design(assemble_b4c()).report()

    def reject(classification):
        raise NotASchemeError(1, 1, 1, (0, 3), 8, (0, 4), 6)

    monkeypatch.setattr(extract, "from_classification", reject)
    result = extract_design(assemble_b4c())
    assert result.scheme is None
    rep = result.report()
    assert rep.pop("scheme") is None
    assert rep.pop("scheme_witness") == {
        "h": 1, "i": 1, "j": 1,
        "pair_a": [0, 3], "count_a": 8, "pair_b": [0, 4], "count_b": 6,
    }
    expected.pop("scheme")
    assert rep == expected


def test_extract_design_preconditions():
    with pytest.raises(PreconditionError):
        extract_design(identity(16))

    # a real biplane, but shuffled out of canonical form
    shuffled = assemble_b4c().permute(
        list(range(14)) + [15, 14], list(range(14)) + [15, 14])
    assert shuffled.is_symmetric()
    with pytest.raises(PreconditionError):
        extract_design(shuffled)

    # the canonical trivial biplane is symmetric with full trace, but
    # its block size is below the extraction threshold
    trivial = BinaryMatrix.from_rows([
        [1, 1, 1, 0],
        [1, 1, 0, 1],
        [1, 0, 1, 1],
        [0, 1, 1, 1],
    ])
    with pytest.raises(PreconditionError) as err:
        extract_design(trivial)
    assert "k >= 6" in str(err.value)


def test_extract_design_traps_core_line_sums(monkeypatch):
    # Lemma 1 is a theorem for the inputs extract_design accepts, so a
    # core line sum other than 3 is a counterexample, not bad input
    monkeypatch.setattr(
        extract, "check_core_sums", lambda core: (False, {"axis": "row", "index": 0, "sum": 2}))
    with pytest.raises(CounterexampleError, match="core line sums are not all 3"):
        extract_design(assemble_b4c())


def test_family_generate():
    for m in range(3, 9):
        structure, rep = family_generate(m)
        assert structure.matrix == doubled(m)
        assert rep["m"] == m
        assert rep["v"] == rep["b"] == 2 * m
        assert rep["r"] == rep["k"] == 3
        assert rep["lambda"] == [0, 1, 2]
        assert rep["n"] == [2 * m - 5, 2, 2]
        assert rep["identities"] == {"vr_bk": True, "sum_nl": True}
    with pytest.raises(PreconditionError):
        family_generate(2)


B9E_WITNESS = {"h": 1, "i": 1, "j": 1, "pair_a": [0, 1], "count_a": 8,
               "pair_b": [0, 2], "count_b": 6}


def test_b9e_core_is_each_sixteen_point_table():
    # b9e is the paper's case at k = 11: its core is a PBIBD but not a
    # scheme, and every bundled 16-point table is that core relabelled
    # (found by search, not by the stored relabellings)
    cert = verify_biplane(b9e())
    assert (cert.k, cert.v, cert.order) == (11, 56, 9)
    assert cert.canonical and cert.full_trace and cert.symmetric
    report = extract_design(b9e())
    assert report.pbibd["parameters"] == "2-(16,16,3,3,(0,1,2))"
    assert report.scheme is None and report.scheme_witness == B9E_WITNESS
    for table in CORES_16:
        assert is_perm_equivalent(table, report.core) is not None


B9E_PAIRS = list(itertools.combinations(range(1, 11), 2))


def relabelled_b9e(sigma):
    """b9e with labels 1..10 renamed s -> sigma[s - 1], label 0 fixed:
    index s is the pair (0, s) and index 11 + i the pair B9E_PAIRS[i]."""
    label = [0, *sigma]
    at = {pair: 11 + i for i, pair in enumerate(B9E_PAIRS)}
    moved = label + [at[tuple(sorted((label[s], label[t])))] for s, t in B9E_PAIRS]
    return b9e().permute(moved, moved)


@given(st.permutations(range(1, 11)))
@settings(max_examples=30, deadline=None)
def test_b9e_relabelled_keeps_certificate_and_core(sigma):
    m = relabelled_b9e(sigma)
    assert verify_biplane(m) == verify_biplane(b9e())
    report, base = extract_design(m), extract_design(b9e())
    assert report.pbibd == base.pbibd and report.scheme is None
    assert is_perm_equivalent(report.core, base.core) is not None
