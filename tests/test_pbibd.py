"""Concurrence classification and PBIBD verification.

classify() has two ways, from the concurrence table and from the point
pairs inside each block; the differential tests run both on the same
inputs and require the same classification or the same NotPbibdError.
"""

import random

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
from biplane_schemes.biplane import assemble_b4c
from biplane_schemes.fixtures import CORES_12, CORES_16
from biplane_schemes.incidence import IncidenceStructure, StructureError, derive_parameters
from biplane_schemes.pbibd import (
    InconsistencyError,
    NotPbibdError,
    _block_members,
    _classify_pairs,
    _classify_table,
    classify,
    concurrence,
    verify_pbibd,
)


def struct(m):
    return IncidenceStructure(m)


def test_concurrence_matrix():
    c = concurrence(struct(doubled(3)))
    assert c.shape == (6, 6)
    assert all(c[i, i] == 3 for i in range(6))
    assert c[0, 5] == 0  # opposite corners never concur
    assert c[0, 1] == 1
    assert c[0, 3] == 2
    expected = BinaryMatrix.from_rows([[1, 0], [1, 1]])
    assert np.array_equal(
        concurrence(struct(expected)), np.array([[1, 1], [1, 2]])
    )


def test_classify_doubled_three():
    c = classify(struct(doubled(3)))
    assert c.d == 3
    assert c.lambdas == (0, 1, 2)
    assert c.n == (1, 2, 2)
    assert c.relation_of(0, 0) == 0
    assert c.relation_of(0, 5) == 1  # concurrence 0
    assert c.relation_of(0, 1) == 2  # concurrence 1
    assert c.relation_of(0, 3) == 3  # concurrence 2
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
        c = classify(struct(doubled(m)))
        assert c.lambdas == (0, 1, 2)
        assert c.n == (2 * m - 5, 2, 2)


def test_classify_complete_and_trivial():
    c = classify(struct(constant(4, 4, 1)))
    assert c.d == 1
    assert c.lambdas == (4,)
    assert c.n == (3,)

    c = classify(struct(identity(5)))
    assert c.d == 1
    assert c.lambdas == (0,)
    assert c.n == (4,)

    c = classify(struct(constant(1, 3, 1)))
    assert c.d == 0
    assert c.lambdas == ()


def test_classify_two_classes_without_splitting():
    # the line-sum-2 path-with-loops matrix on 6 points has pair
    # concurrences 0 and 1 only; equal values are never split apart
    c = classify(struct(path_loop(6)))
    assert c.lambdas == (0, 1)
    assert c.n == (3, 2)


def test_classify_rejects_uneven_class_sizes():
    p3 = BinaryMatrix.from_rows([[1, 0], [1, 1], [0, 1]])
    with pytest.raises(NotPbibdError) as err:
        classify(struct(p3))
    e = err.value
    assert e.lam == 0
    assert {e.count_a, e.count_b} == {0, 1}


def test_not_pbibd_witness_is_the_first_extreme_points():
    # class 1 (concurrence 0) holds only the pair {0, 2}: point 0 is the
    # first with the most such associates, point 1 the first with the fewest
    p3 = BinaryMatrix.from_rows([[1, 0], [1, 1], [0, 1]])
    with pytest.raises(NotPbibdError) as err:
        classify(struct(p3))
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
        c = classify(struct(d))
        r = classify(struct(relabelled))
    assert (c.v, c.lambdas, c.n) == (1000, (0, 1, 2), (995, 2, 2))
    assert (r.v, r.lambdas, r.n) == (c.v, c.lambdas, c.n)
    conc = concurrence(struct(d))
    rng = random.Random(2000)
    for _ in range(2000):
        p, q = rng.randrange(1000), rng.randrange(1000)
        assert conc[p, q] == d.row_dot(p, q)
        for m, classes in ((d, c), (relabelled, r)):
            label = classes.relation_of(p, q)
            if p == q:
                assert label == 0
            else:
                assert classes.lambdas[label - 1] == m.row_dot(p, q)


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
    c = classify(struct(m))
    for seed in range(3):
        relabelled, p = relabel(m, 100 * index + seed)
        r = classify(struct(relabelled))
        assert (r.lambdas, r.n) == (c.lambdas, c.n)
        moved = np.empty_like(c.relation)
        moved[np.ix_(p, p)] = c.relation
        assert np.array_equal(r.relation, moved)


def test_classify_rejects_every_relabelling_of_the_boundary_core():
    with pytest.raises(NotPbibdError) as err:
        classify(struct(CORES_12[1]))
    e = err.value
    for seed in range(5):
        with pytest.raises(NotPbibdError) as again:
            classify(struct(relabel(CORES_12[1], seed)[0]))
        f = again.value
        assert (f.label, f.lam, f.count_a, f.count_b) == (
            e.label, e.lam, e.count_a, e.count_b
        )


def test_verify_pbibd_report():
    rep = verify_pbibd(struct(doubled(3)))
    assert rep["v"] == rep["b"] == 6
    assert rep["r"] == rep["k"] == 3
    assert rep["d"] == 3
    assert rep["lambda"] == [0, 1, 2]
    assert rep["n"] == [1, 2, 2]
    assert rep["parameters"] == "2-(6,6,3,3,(0,1,2))"
    assert rep["identities"] == {"vr_bk": True, "sum_nl": True}


def test_verify_pbibd_expectation():
    s = struct(doubled(4))
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
    # verify_pbibd and derive_parameters share one check, so both name
    # the same line with the same message
    for rows, kind, index, message in IRREGULAR:
        s = struct(BinaryMatrix.from_rows(rows))
        for check in (verify_pbibd, derive_parameters):
            with pytest.raises(StructureError) as err:
                check(s)
            assert (err.value.kind, err.value.index, str(err.value)) == (kind, index, message)


def test_double_count_trap_is_shared(monkeypatch):
    # v*r = b*k is a theorem for a regular uniform structure; fake block
    # sizes that break it and both entry points hit the same trap
    monkeypatch.setattr(BinaryMatrix, "col_sums", lambda m: [m.rows + 1] * m.cols)
    s = struct(doubled(4))
    for check in (verify_pbibd, derive_parameters):
        with pytest.raises(InconsistencyError, match=r"v\*r = 24 but b\*k = 72"):
            check(s)


def test_sum_identity_values():
    # sum of n_i * lambda_i equals r(k-1) on the doubled family
    for m in range(3, 12):
        rep = verify_pbibd(struct(doubled(m)))
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
    table = outcome(lambda: _classify_table(struct(m)))
    pairs = outcome(lambda: _classify_pairs(m.rows, *_block_members(m)))
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
        assert outcome(lambda: classify(struct(m))) == expected


def circulant(v: int, width: int) -> BinaryMatrix:
    return BinaryMatrix(v, v, tuple(
        sum(1 << ((i + j) % v) for j in range(width)) for i in range(v)))


def test_classify_picks_its_way_from_the_input(monkeypatch):
    taken = []
    for way in ("_classify_table", "_classify_pairs"):
        run = getattr(pbibd, way)
        monkeypatch.setattr(pbibd, way, lambda *a, way=way, run=run: taken.append(way) or run(*a))

    def way_of(m):
        taken.clear()
        outcome(lambda: classify(struct(m)))
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
