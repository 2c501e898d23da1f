"""Regularity, uniformity, concurrence classification and PBIBD verification.

classify() has two ways, from the concurrence table and from the point
pairs inside each block; the differential tests run both on the same
inputs and require the same classification or the same NotPbibdError.
"""

import dataclasses
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from biplane_schemes import pbibd
from biplane_schemes.binmat import (
    BinaryMatrix,
    assemble,
    constant,
    doubled,
    identity,
    path_loop,
)
from biplane_schemes.biplane import VerificationError, assemble_b4c, verify_biplane
from biplane_schemes.extract import extraction_indices, family_generate
from biplane_schemes.fixtures import CORES_12, CORES_16
from biplane_schemes.pbibd import (
    InconsistencyError,
    NotPbibdError,
    StructureError,
    _block_points,
    _classify_pairs,
    _classify_table,
    _regular_uniform,
    classify,
    verify_pbibd,
)


def test_concurrence_matrix():
    c = doubled(3).row_dots()
    assert c.shape == (6, 6)
    assert all(c[i, i] == 3 for i in range(6))
    assert c[0, 5] == 0  # opposite corners never concur
    assert c[0, 1] == 1
    assert c[0, 3] == 2
    expected = BinaryMatrix.from_rows([[1, 0], [1, 1]])
    assert np.array_equal(expected.row_dots(), np.array([[1, 1], [1, 2]]))


def test_classify_doubled_three():
    c = classify(doubled(3))
    assert c.d == 3
    assert c.lambdas == (0, 1, 2)
    assert c.n == (1, 2, 2)
    assert c.relation[0, 0] == 0
    assert c.relation[0, 5] == 1  # concurrence 0
    assert c.relation[0, 1] == 2  # concurrence 1
    assert c.relation[0, 3] == 3  # concurrence 2
    a0 = c.associate_matrix(0)
    assert a0 == identity(6)
    total = sum(
        c.associate_matrix(i).to_numpy() for i in range(c.d + 1)
    )
    assert (total == 1).all()
    with pytest.raises(IndexError):
        c.associate_matrix(4)


def test_classify_label_order_follows_concurrence():
    # labels 1..d in ascending concurrence order
    for m in (3, 4, 7):
        c = classify(doubled(m))
        assert c.lambdas == (0, 1, 2)
        assert c.n == (2 * m - 5, 2, 2)


def test_classify_complete_and_trivial():
    c = classify(constant(4, 4, 1))
    assert c.d == 1
    assert c.lambdas == (4,)
    assert c.n == (3,)

    c = classify(identity(5))
    assert c.d == 1
    assert c.lambdas == (0,)
    assert c.n == (4,)

    c = classify(constant(1, 3, 1))
    assert c.d == 0
    assert c.lambdas == ()


def test_classify_two_classes_without_splitting():
    # the line-sum-2 path-with-loops matrix on 6 points has pair
    # concurrences 0 and 1 only; equal values are never split apart
    c = classify(path_loop(6))
    assert c.lambdas == (0, 1)
    assert c.n == (3, 2)


def test_classify_rejects_uneven_class_sizes():
    p3 = BinaryMatrix.from_rows([[1, 0], [1, 1], [0, 1]])
    with pytest.raises(NotPbibdError) as err:
        classify(p3)
    e = err.value
    assert e.lam == 0
    assert {e.count_a, e.count_b} == {0, 1}


def test_not_pbibd_witness_is_the_first_extreme_points():
    # class 1 (concurrence 0) holds only the pair {0, 2}: point 0 is the
    # first with the most such associates, point 1 the first with the fewest
    p3 = BinaryMatrix.from_rows([[1, 0], [1, 1], [0, 1]])
    with pytest.raises(NotPbibdError) as err:
        classify(p3)
    e = err.value
    assert (e.label, e.lam) == (1, 0)
    assert (e.point_a, e.count_a, e.point_b, e.count_b) == (0, 1, 1, 0)
    assert str(e) == (
        "class 1 (concurrence 0) is not balanced: "
        "point 0 has 1 associates, point 1 has 0"
    )


def refuse_row_dots(monkeypatch):
    def refuse(m):
        raise AssertionError("the concurrence table was built")
    monkeypatch.setattr(BinaryMatrix, "row_dots", refuse)


def test_classify_doubled_at_v1000(monkeypatch):
    # D_500 and a relabelled copy are classified from their block pairs,
    # without the 1000 x 1000 concurrence table
    d = doubled(500)
    relabelled, _ = relabel(d, 500)
    with monkeypatch.context() as patch:
        refuse_row_dots(patch)
        c = classify(d)
        r = classify(relabelled)
    assert (c.v, c.lambdas, c.n) == (1000, (0, 1, 2), (995, 2, 2))
    assert (r.v, r.lambdas, r.n) == (c.v, c.lambdas, c.n)
    conc = d.row_dots()
    rng = random.Random(2000)
    for _ in range(2000):
        p, q = rng.randrange(1000), rng.randrange(1000)
        assert conc[p, q] == d.row_dot(p, q)
        for m, classes in ((d, c), (relabelled, r)):
            label = classes.relation[p, q]
            if p == q:
                assert label == 0
            else:
                assert classes.lambdas[label - 1] == m.row_dot(p, q)


def test_pairs_way_fills_the_relation_on_first_read():
    # the block-pair way keeps the pairs that meet; the 1000 x 1000
    # relation is filled when it is first read, equal to the table's
    d = doubled(500)
    c = classify(d)
    assert "relation" not in c.__dict__
    table = _classify_table(d)
    assert (c.v, c.lambdas, c.n) == (table.v, table.lambdas, table.n)
    assert "relation" not in c.__dict__
    assert c.relation.dtype == np.int64 and np.array_equal(c.relation, table.relation)
    assert c.__dict__["relation"] is c.relation
    for label in range(c.d + 1):
        assert c.associate_matrix(label) == table.associate_matrix(label)


def circulant(v: int, width: int) -> BinaryMatrix:
    return BinaryMatrix(v, v, tuple(
        sum(1 << ((i + j) % v) for j in range(width)) for i in range(v)))


@pytest.mark.parametrize("make", [
    lambda: assemble_b4c().submatrix(extraction_indices(6), extraction_indices(6)),
    lambda: CORES_16[0],
    lambda: circulant(101, 11),  # dense: sum k_b^2 = 12,221 >= v^2 = 10,201
])
def test_table_way_fills_the_relation_on_first_read(make, monkeypatch):
    # the table way keeps its concurrence table, diagonal at top, and maps
    # it in place on first read: no second v x v table is held
    m = make()
    v = m.rows
    c = classify(m)
    assert "relation" not in c.__dict__
    made = []
    monkeypatch.setattr(pbibd, "classify", lambda m: made.append(classify(m)) or made[-1])
    verify_pbibd(m)
    assert len(made) == 1 and "relation" not in made[0].__dict__
    conc = m.row_dots()
    label_of = np.zeros(conc.max() + 1, dtype=np.int64)
    off = ~np.eye(v, dtype=bool)
    present = np.flatnonzero(np.bincount(conc[off]))
    label_of[present] = np.arange(1, present.size + 1)
    expected = label_of[conc]
    np.fill_diagonal(expected, 0)
    assert c.lambdas == tuple(present.tolist())
    # a second int64 table would take 8 v^2 bytes; a kilobyte is the read's own
    assert traced_peak(lambda: c.relation) < 4 * v * v + 1024
    assert c.relation.dtype == np.int64 and np.array_equal(c.relation, expected)
    assert c.__dict__["relation"] is c.relation


def traced_peak(run) -> int:
    """Peak bytes tracemalloc sees while run() runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_family_and_verify_pbibd_leave_the_relation_unbuilt():
    # neither reads the relation, so at v = 1000 neither fills its 8 MB
    relabelled, _ = relabel(doubled(500), 501)
    assert traced_peak(lambda: family_generate(500)) < 2 * 2**20
    assert traced_peak(lambda: verify_pbibd(relabelled)) < 2 * 2**20


def test_family_and_verify_of_a_relabelled_copy_build_no_row_ints(monkeypatch):
    # both work on the byte grid they were built from, and unpack its
    # entries once, for the column sums, however many checks read them
    relabelled, _ = relabel(doubled(500), 501)
    unpacked = BinaryMatrix._unpacked
    calls = []

    def no_row_ints(m):
        raise AssertionError("a matrix built its row ints")

    monkeypatch.setattr(BinaryMatrix, "bits", property(no_row_ints))
    monkeypatch.setattr(BinaryMatrix, "_unpacked",
                        lambda m: calls.append(m) or unpacked(m))
    family_generate(500)
    assert len(calls) == 1
    calls.clear()
    with pytest.raises(VerificationError, match="1000 points"):
        verify_biplane(relabelled)
    verify_pbibd(relabelled)
    assert len(calls) == 1 and calls[0] is relabelled


def relabel(m, seed):
    """m with its points and its blocks relabelled by seeded permutations,
    and the point permutation p (point i becomes point p[i])."""
    rng = random.Random(seed)
    p, q = list(range(m.rows)), list(range(m.cols))
    rng.shuffle(p)
    rng.shuffle(q)
    return m.permute(p, q), p


RELABEL_CASES = [*CORES_16, CORES_12[0], *(doubled(m) for m in range(3, 41))]


@pytest.mark.parametrize("index", range(len(RELABEL_CASES)))
def test_classify_is_invariant_under_relabelling(index):
    m = RELABEL_CASES[index]
    c = classify(m)
    for seed in range(3):
        relabelled, p = relabel(m, 100 * index + seed)
        r = classify(relabelled)
        assert (r.lambdas, r.n) == (c.lambdas, c.n)
        moved = np.empty_like(c.relation)
        moved[np.ix_(p, p)] = c.relation
        assert np.array_equal(r.relation, moved)


def test_classify_rejects_every_relabelling_of_the_boundary_core():
    with pytest.raises(NotPbibdError) as err:
        classify(CORES_12[1])
    e = err.value
    for seed in range(5):
        with pytest.raises(NotPbibdError) as again:
            classify(relabel(CORES_12[1], seed)[0])
        f = again.value
        assert (f.label, f.lam, f.count_a, f.count_b) == (
            e.label, e.lam, e.count_a, e.count_b
        )


def test_verify_pbibd_report():
    rep = verify_pbibd(doubled(3))
    assert rep["v"] == rep["b"] == 6
    assert rep["r"] == rep["k"] == 3
    assert rep["d"] == 3
    assert rep["lambda"] == [0, 1, 2]
    assert rep["n"] == [1, 2, 2]
    assert rep["parameters"] == "2-(6,6,3,3,(0,1,2))"
    assert rep["identities"] == {"vr_bk": True, "sum_nl": True}


def test_verify_pbibd_expectation():
    s = doubled(4)
    assert verify_pbibd(s)["d"] == 3


# (rows, kind, index, message) of the first irregular point or
# non-uniform block; the second and fourth inputs fail past line 1
IRREGULAR = (
    ([[1, 1], [1, 0]], "point", 1, "point 1 degree 1 != 2"),
    ([[1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 0, 0], [1, 1, 1]],
     "point", 3, "point 3 degree 1 != 2"),
    ([[1, 1, 0, 0], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]],
     "block", 1, "block 1 size 3 != 2"),
    ([[1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, 0]], "block", 3, "block 3 size 0 != 2"),
)


def test_verify_pbibd_requires_regular_uniform():
    # the check names the first bad line and its sum
    for rows, kind, index, message in IRREGULAR:
        with pytest.raises(StructureError) as err:
            verify_pbibd(BinaryMatrix.from_rows(rows))
        assert (err.value.kind, err.value.index, str(err.value)) == (kind, index, message)


def test_regularity_and_uniformity():
    assert _regular_uniform(constant(3, 4, 1)) == (4, 3)
    assert _regular_uniform(BinaryMatrix.from_rows([[1, 0], [0, 1]])) == (1, 1)


def test_derive_parameters_witnesses():
    # the first irregular point, or the first non-uniform block once
    # every point has the same degree, is the witness
    with pytest.raises(StructureError) as err:
        _regular_uniform(BinaryMatrix.from_rows([[1, 1], [1, 0]]))
    assert err.value.kind == "point"
    assert err.value.index == 1

    with pytest.raises(StructureError) as err:
        _regular_uniform(BinaryMatrix.from_rows([[1, 1], [0, 1], [1, 0], [0, 0]]))
    assert err.value.kind == "point"

    # rows regular, columns not
    with pytest.raises(StructureError) as err:
        _regular_uniform(BinaryMatrix.from_rows(
            [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 0, 0]]))
    assert err.value.kind == "block"
    assert err.value.index == 2


def test_balance():
    # a pair-balanced design is the one-class (d = 1) classification
    rep = verify_pbibd(constant(4, 4, 1))
    assert (rep["r"], rep["d"], rep["lambda"], rep["n"]) == (4, 1, [4], [3])
    rep = verify_pbibd(constant(3, 4, 1))
    assert (rep["r"], rep["k"], rep["d"], rep["lambda"]) == (4, 3, 1, [4])
    assert classify(doubled(4)).d == 3  # pair counts differ


def test_balance_single_point():
    # one point has no pair, so no class and no lambda
    c = classify(BinaryMatrix.from_rows([[1, 1, 0]]))
    assert (c.d, c.lambdas, c.n) == (0, (), ())
    assert c.relation.dtype == np.int64 and c.relation.tolist() == [[0]]


def test_identity_design():
    rep = verify_pbibd(identity(4))
    assert (rep["r"], rep["k"], rep["d"], rep["lambda"], rep["n"]) == (1, 1, 1, [0], [3])


def test_double_count_trap_is_shared(monkeypatch):
    # v*r = b*k is a theorem for a regular uniform structure; fake block
    # sizes that break it, and the check that verify_pbibd, extract and
    # family share hits its trap
    monkeypatch.setattr(BinaryMatrix, "col_sums", lambda m: [m.rows + 1] * m.cols)
    with pytest.raises(InconsistencyError, match=r"v\*r = 24 but b\*k = 72"):
        verify_pbibd(doubled(4))


def test_a_biplane_is_one_class():
    # lambda = 2 is b4c's only concurrence, and its order is r - lambda
    m = assemble_b4c()
    c = classify(m)
    assert (c.lambdas, c.n) == ((2,), (15,))
    assert verify_biplane(m).order == 4 == verify_pbibd(m)["r"] - c.lambdas[0]


def test_sum_identity_trap(monkeypatch):
    # sum_i n_i lambda_i = r(k-1) is a double count; a doctored n trips it
    monkeypatch.setattr(pbibd, "classify", lambda m: dataclasses.replace(classify(m), n=(1, 2, 3)))
    with pytest.raises(InconsistencyError, match=r"sum n_i lambda_i = 8 but r\(k-1\) = 6"):
        verify_pbibd(doubled(3))


def test_sum_identity_values():
    # sum of n_i * lambda_i equals r(k-1) on the doubled family
    for m in range(3, 12):
        rep = verify_pbibd(doubled(m))
        total = sum(n * l for n, l in zip(rep["n"], rep["lambda"]))
        assert total == rep["r"] * (rep["k"] - 1) == 6


# -- the two ways of classify() ------------------------------------------------


def outcome(run) -> tuple:
    """What a classify path returns: (v, lambdas, n, relation), or the
    fields and message of its NotPbibdError."""
    try:
        c = run()
    except NotPbibdError as e:
        return ("not a PBIBD", e.label, e.lam, e.point_a, e.count_a, e.point_b, e.count_b,
                str(e))
    assert c.relation.dtype == np.int64 and c.relation.shape == (c.v, c.v)
    return (c.v, c.lambdas, c.n, c.relation)


def both_ways(m: BinaryMatrix) -> tuple:
    """The common outcome of both classify paths on m; fails unless they agree."""
    table = outcome(lambda: _classify_table(m))
    pairs = outcome(lambda: _classify_pairs(m.rows, _block_points(m), np.array(m.col_sums())))
    if table[0] == "not a PBIBD":
        assert pairs == table
    else:
        assert pairs[:3] == table[:3]
        assert np.array_equal(pairs[3], table[3])
    return table


@st.composite
def incidence_matrices(draw) -> BinaryMatrix:
    """Up to 40 x 40; each row's ones are uniform bits or at most three
    columns, so blocks run from empty to full."""
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    sparse = st.lists(st.integers(0, cols - 1), max_size=3).map(
        lambda js: sum(1 << j for j in set(js)))
    row = draw(st.sampled_from((st.integers(0, (1 << cols) - 1), sparse)))
    return BinaryMatrix(rows, cols, tuple(draw(st.lists(row, min_size=rows, max_size=rows))))


@settings(deadline=None, derandomize=True, database=None, max_examples=300)
@given(incidence_matrices())
@example(BinaryMatrix(1, 5, (0b10110,)))  # a single point
@example(BinaryMatrix(6, 1, (1, 0, 1, 1, 0, 1)))  # a single block
@example(BinaryMatrix(4, 3, (0b001, 0b001, 0b100, 0b100)))  # an empty block
@example(BinaryMatrix(3, 2, (0, 0, 0)))  # no incidences at all
@example(BinaryMatrix(3, 2, (0b11, 0b11, 0b11)))  # no pair of concurrence 0
def test_classify_paths_agree_on_drawn_matrices(m):
    both_ways(m)


@pytest.mark.parametrize("index", range(len(RELABEL_CASES)))
def test_classify_paths_agree_on_relabel_cases(index):
    m = RELABEL_CASES[index]
    for case in (m, relabel(m, index)[0]):
        assert both_ways(case)[0] == case.rows


def test_classify_paths_reject_the_boundary_core_alike():
    assert both_ways(CORES_12[1])[0] == "not a PBIBD"


def test_classify_paths_agree_on_a_large_witness(monkeypatch):
    # D_497 + J_3 is regular and uniform on 997 points but no PBIBD:
    # the J_3 points miss 994 points, the others 992
    m = assemble([[doubled(497), constant(994, 3, 0)],
                  [constant(3, 994, 0), constant(3, 3, 1)]])
    m = relabel(m, 997)[0]
    expected = both_ways(m)
    assert expected[:3] == ("not a PBIBD", 1, 0)
    assert {expected[4], expected[6]} == {994, 992}
    with monkeypatch.context() as patch:
        refuse_row_dots(patch)
        assert outcome(lambda: classify(m)) == expected


def test_classify_picks_its_way_from_the_input(monkeypatch):
    taken = []
    for way in ("_classify_table", "_classify_pairs"):
        run = getattr(pbibd, way)
        monkeypatch.setattr(pbibd, way, lambda *a, way=way, run=run: taken.append(way) or run(*a))

    def way_of(m):
        taken.clear()
        outcome(lambda: classify(m))
        return taken

    low = pbibd._PAIRS_MIN_POINTS
    single_block = BinaryMatrix(low, low, (1,) * low)  # sum k_b^2 = v^2
    for m in (doubled(3), *CORES_12, *CORES_16, assemble_b4c(),  # small tables
              doubled(low // 2 - 1),  # sparse, but below the point floor
              circulant(low, 10),  # 10 x 10 pairs per point: not below v^2
              single_block):  # sparse by its ones, not by its pairs
        assert way_of(m) == ["_classify_table"], m.rows
    for m in (doubled(low // 2), circulant(low, 9), doubled(500)):
        assert way_of(m) == ["_classify_pairs"], m.rows
