"""Principal-core extraction pipeline and the doubled design family."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from biplane_schemes import extract
from biplane_schemes.binmat import (
    BinaryMatrix,
    assemble,
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
)
from biplane_schemes.fixtures import CORES_12, CORES_16, b9e
from biplane_schemes.pbibd import NotPbibdError, classify
from biplane_schemes.scheme import NotASchemeError, from_relation_matrix

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


def test_check_core_sums_names_the_first_bad_column():
    # every row sums to 3, but the columns sum to 4, 4, 4, 0
    ok, witness = check_core_sums(BinaryMatrix(4, 4, (0b0111,) * 4))
    assert not ok
    assert witness == {"axis": "column", "index": 0, "sum": 4}


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
    assert rep.cycle_lengths == (10,)
    assert rep.report() == {"m": 5, "cycle_lengths": [10]}

    rep = check_lemma2(disjoint_cycles([5, 3, 4]))
    assert rep.cycle_lengths == (6, 8, 10)

    for m in range(3, 10):
        rep = check_lemma2(path_loop(m))
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
    assert result.report()["indices"] == [8, 9, 10, 11, 12, 13]
    assert result.core == SIX_POINT_CORE
    assert set(result.report()) == {"k", "indices", "core", "pbibd", "scheme", "d_equivalence"}
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

    def reject(relation):
        raise NotASchemeError(1, 1, 1, (0, 3), 8, (0, 4), 6)

    monkeypatch.setattr(extract, "from_relation_matrix", reject)
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


def test_check_lemma2_traps_its_conclusion(monkeypatch):
    # once the hypotheses hold, every row meets exactly two others; a
    # row_dots table doctored so that rows 0 and 1 no longer meet trips it
    real = BinaryMatrix.row_dots

    def doctored(m):
        dots = real(m)
        assert dots[0, 1] == dots[1, 0] == 1
        dots[0, 1] = dots[1, 0] = 0
        return dots

    monkeypatch.setattr(BinaryMatrix, "row_dots", doctored)
    with pytest.raises(CounterexampleError) as err:
        check_lemma2(path_loop(5))
    assert str(err.value) == "row 0 has scalar product 1 with 1 rows, want exactly 2"


def test_extract_design_traps_an_asymmetric_core(monkeypatch):
    # the core is a principal submatrix of a symmetric matrix, so it is
    # symmetric; a core with its first two rows swapped is not
    real = BinaryMatrix.submatrix
    indices = extraction_indices(6)

    def swapped(m, rows, cols):
        rows = list(rows)
        if rows == list(indices):
            rows[:2] = rows[1::-1]
        return real(m, rows, cols)

    monkeypatch.setattr(BinaryMatrix, "submatrix", swapped)
    assert not swapped(assemble_b4c(), indices, indices).is_symmetric()
    with pytest.raises(CounterexampleError) as err:
        extract_design(assemble_b4c())
    assert str(err.value) == "core of a symmetric matrix is not symmetric"


def test_extract_design_traps_core_line_sums(monkeypatch):
    # Lemma 1 is a theorem for the inputs extract_design accepts, so a
    # core line sum other than 3 is a counterexample, not bad input. A
    # window of b4c's rows and columns moved off the core is still
    # symmetric, but its line sums are not all 3 (and mostly not even
    # constant); the PBIBD checks on the core must trap each such window
    m = assemble_b4c()
    trapped = []
    for start in range(11):
        window = tuple(range(start, start + 6))
        core = m.submatrix(window, window)
        assert core.is_symmetric()
        monkeypatch.setattr(extract, "extraction_indices", lambda k, window=window: window)
        try:
            extract_design(m)
        except CounterexampleError as exc:
            assert str(exc).startswith("core at k=6: ")
            trapped.append(start)
        assert (start in trapped) == (not check_core_sums(core)[0])
    assert trapped == [0, 1, 2, 3, 4, 5, 6, 8, 9, 10]


def test_extract_and_family_trap_unexpected_parameters(monkeypatch):
    # both compare the verify_pbibd report with the parameters their
    # theorems give and name the first key that differs
    real = extract._pbibd_report

    def off(matrix, classification):
        return {**real(matrix, classification), "lambda": [0, 1, 3], "n": [9, 2, 2]}

    monkeypatch.setattr(extract, "_pbibd_report", off)
    with pytest.raises(CounterexampleError) as err:
        extract_design(assemble_b4c())
    assert str(err.value) == "core at k=6: lambda = [0, 1, 3], want [0, 1, 2]"
    monkeypatch.setattr(extract, "_pbibd_report",
                        lambda matrix, classification: {**real(matrix, classification), "r": 4})
    with pytest.raises(CounterexampleError) as err:
        extract_design(assemble_b4c())
    assert str(err.value) == "core at k=6: r = 4, want 3"
    monkeypatch.setattr(extract, "verify_pbibd", lambda m: {**real(m, None), "r": 4})
    with pytest.raises(CounterexampleError) as err:
        family_generate(5)
    assert str(err.value) == "family member m=5: r = 4, want 3"


def irregular_doubled(m):
    """D_m with entry (1, 1) cleared, so that point 1 lies on 2 blocks."""
    rows = doubled(m).to_lists()
    rows[1][1] = 0
    return BinaryMatrix.from_rows(rows)


def unbalanced(core):
    raise NotPbibdError(1, 0, 0, 9, 1, 10)


def test_extract_and_family_trap_a_design_check_that_fails(monkeypatch):
    # an irregular family member and a core of unbalanced classes
    # falsify theorems, so they are traps, not errors of the input
    monkeypatch.setattr(extract, "doubled", irregular_doubled)
    with pytest.raises(CounterexampleError) as err:
        family_generate(5)
    assert str(err.value) == "family member m=5: point 1 degree 2 != 3"
    monkeypatch.setattr(extract, "classify", unbalanced)
    with pytest.raises(CounterexampleError) as err:
        extract_design(assemble_b4c())
    assert str(err.value) == (
        "core at k=6: class 1 (concurrence 0) is not balanced: "
        "point 0 has 9 associates, point 1 has 10")


def test_family_generate():
    for m in range(3, 9):
        matrix, rep = family_generate(m)
        assert matrix == doubled(m)
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


def cycle_adjacency(n):
    """The adjacency matrix of the n-cycle: symmetric, no loops, sums 2
    (disjoint_cycles is I + P, which is not symmetric)."""
    return BinaryMatrix(n, n, tuple(1 << (i - 1) % n | 1 << (i + 1) % n for i in range(n)))


def line_sum_two_types(m, least=(2, "path")):
    """Every type of a symmetric line-sum-2 L of order m, as a sorted
    tuple of its components (n, "path") for path_loop(n), n >= 2, and
    (n, "cycle") for cycle_adjacency(n), n >= 3."""
    if m == 0:
        yield ()
    for n in range(least[0], m + 1):
        for part in ((n, "path"), (n, "cycle")):
            if part >= least and part != (2, "cycle"):
                for rest in line_sum_two_types(m - n, part):
                    yield (part, *rest)


def superclass_design(parts):
    """[[I, L], [L, I]] for L the block-diagonal union of parts."""
    rows, offset = [], 0
    for n, kind in parts:
        block = path_loop(n) if kind == "path" else cycle_adjacency(n)
        rows.extend(bits << offset for bits in block.bits)
        offset += n
    ell = BinaryMatrix(offset, offset, tuple(rows))
    return assemble([[identity(offset), ell], [ell, identity(offset)]])


def test_the_superclass_by_the_type_of_l():
    # [[I, L], [L, I]] has 3 classes, of sizes (2m - 5, 2, 2), exactly
    # when no component of L is P_2 or C_4; of those only m = 3 is a
    # scheme, and up to equivalence they are one design per partition
    # of m into parts >= 3
    kinds, classes = 0, []
    for m in range(3, 11):
        members = []
        for parts in line_sum_two_types(m):
            kinds += 1
            design = superclass_design(parts)
            try:
                c = classify(design)
                got = (c.lambdas, c.n)
            except NotPbibdError:
                got = None
            balanced = not {(2, "path"), (4, "cycle")} & set(parts)
            assert (got == ((0, 1, 2), (2 * m - 5, 2, 2))) == balanced, parts
            if not balanced:
                continue
            if m == 3:
                from_relation_matrix(c.relation)
            else:
                with pytest.raises(NotASchemeError):
                    from_relation_matrix(c.relation)
            if all(is_perm_equivalent(design, other) is None for other in members):
                members.append(design)
        classes.append(len(members))
    assert kinds == 104
    assert classes == [1, 1, 1, 2, 2, 3, 4, 5]


def test_the_sixteen_point_cores_are_two_disjoint_d4():
    zero = constant(8, 8, 0)
    d4_d4 = assemble([[doubled(4), zero], [zero, doubled(4)]])
    for core in (*CORES_16, extract_design(b9e()).core):
        assert is_perm_equivalent(core, d4_d4) is not None
        assert is_perm_equivalent(core, doubled(8)) is None


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
