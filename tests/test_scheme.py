"""Association scheme axioms, intersection numbers, Bose-Mesner closure."""

import random
import re

import numpy as np
import pytest

from biplane_schemes.fixtures import CORES_16, RELATION_6
from biplane_schemes.pbibd import classify
from biplane_schemes.scheme import (
    AxiomError,
    NotASchemeError,
    bose_mesner_check,
    format_relation,
    from_relation_matrix,
    parse_relation,
)


def cyclic_distance_relation(n: int) -> np.ndarray:
    rel = np.zeros((n, n), dtype=np.int64)
    for x in range(n):
        for y in range(n):
            delta = abs(x - y)
            rel[x, y] = min(delta, n - delta)
    return rel


def test_six_point_scheme():
    s = from_relation_matrix(RELATION_6)
    assert s.size == 6
    assert s.d == 3
    assert s.n == (1, 1, 2, 2)
    # the diagonal slice of p is the valency diagonal
    for i in range(4):
        for j in range(4):
            expected = s.n[i] if i == j else 0
            assert s.p[0, i, j] == expected


def test_intersection_number_identities():
    for rel in (RELATION_6, cyclic_distance_relation(7)):
        s = from_relation_matrix(rel)
        for h in range(s.d + 1):
            # symmetric classes give a commutative scheme
            assert np.array_equal(s.p[h], s.p[h].T)
            for i in range(s.d + 1):
                assert s.p[h, i].sum() == s.n[i]


def test_cyclic_distance_schemes():
    for n in range(3, 10):
        s = from_relation_matrix(cyclic_distance_relation(n))
        assert s.d == n // 2
        expected = tuple([1] + [2] * (s.d - 1) + [1 if n % 2 == 0 else 2])
        assert s.n == expected
        bose_mesner_check(s)


def test_relation_matrix_round_trip():
    rel = RELATION_6.copy()
    s = from_relation_matrix(rel)
    # the scheme keeps its own copy
    rel[0, 1] = 9
    assert np.array_equal(s.relation, RELATION_6)
    assert np.array_equal(from_relation_matrix(s.relation).relation, RELATION_6)


def test_associate_matrices_partition():
    # the class indicators A_0 = I, A_1, ..., A_d partition the pairs
    s = from_relation_matrix(RELATION_6)
    mats = [s.relation == h for h in range(s.d + 1)]
    assert len(mats) == 4
    assert np.array_equal(mats[0], np.eye(6, dtype=bool))
    assert (sum(m.astype(np.int64) for m in mats) == 1).all()


def test_bose_mesner_closure():
    s = from_relation_matrix(RELATION_6)
    rep = bose_mesner_check(s)
    assert rep == {"closure": True, "commutative": True, "sum_to_all_ones": True}
    # spell the closure out once by hand
    mats = [(s.relation == h).astype(np.int64) for h in range(4)]
    for i in range(4):
        for j in range(4):
            product = mats[i] @ mats[j]
            expansion = sum(int(s.p[h, i, j]) * mats[h] for h in range(4))
            assert np.array_equal(product, expansion)


def test_axiom_gates():
    with pytest.raises(AxiomError) as err:
        from_relation_matrix(np.zeros((2, 3), dtype=int))
    assert err.value.axiom == "shape"
    with pytest.raises(AxiomError) as err:
        from_relation_matrix(np.zeros((0, 0), dtype=int))
    assert (err.value.axiom, str(err.value)) == ("shape", "relation matrix has no points")

    bad = cyclic_distance_relation(5)
    bad[2, 2] = 1
    with pytest.raises(AxiomError) as err:
        from_relation_matrix(bad)
    assert err.value.axiom == "diagonal"

    bad = cyclic_distance_relation(5)
    bad[0, 1] = 2
    with pytest.raises(AxiomError) as err:
        from_relation_matrix(bad)
    assert err.value.axiom == "symmetry"

    bad = cyclic_distance_relation(5)
    bad[0, 1] = bad[1, 0] = 0
    with pytest.raises(AxiomError) as err:
        from_relation_matrix(bad)
    assert err.value.axiom == "partition"

    bad = cyclic_distance_relation(5)
    bad[bad == 1] = 3
    with pytest.raises(AxiomError) as err:
        from_relation_matrix(bad)
    assert err.value.axiom == "labels"


def test_huge_label_is_rejected_without_listing_gaps():
    # 5 points carry at most 4 classes, not 10**6; the message stays short
    bad = cyclic_distance_relation(5)
    bad[0, 1] = bad[1, 0] = 10**6
    with pytest.raises(AxiomError) as err:
        from_relation_matrix(bad)
    assert err.value.axiom == "labels"
    assert str(err.value) == (
        "largest label 1000000 exceeds v - 1 = 4: a scheme on 5 points has at most 4 classes")


def test_single_point_scheme():
    s = from_relation_matrix(np.zeros((1, 1), dtype=int))
    assert s.d == 0
    assert s.n == (1,)


def test_path_distance_is_not_a_scheme():
    rel = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    with pytest.raises(NotASchemeError) as err:
        from_relation_matrix(rel)
    w = err.value.witness()
    assert set(w) == {"h", "i", "j", "pair_a", "count_a", "pair_b", "count_b"}
    assert w["count_a"] != w["count_b"]


def test_sixteen_point_classifications_fail_axiom_four():
    # all four tables classify into constant-size classes, yet the
    # triple counts depend on the pair chosen, so no scheme arises
    for core in CORES_16:
        c = classify(core)
        assert c.n == (11, 2, 2)
        with pytest.raises(NotASchemeError):
            from_relation_matrix(c.relation)


def test_sixteen_point_witness_detail():
    c = classify(CORES_16[1])
    with pytest.raises(NotASchemeError) as err:
        from_relation_matrix(c.relation)
    w = err.value.witness()
    assert (w["h"], w["i"], w["j"]) == (1, 1, 1)
    assert tuple(w["pair_a"]) == (0, 3) and w["count_a"] == 8
    assert tuple(w["pair_b"]) == (0, 4) and w["count_b"] == 6


def _cycle_types(total: int, smallest: int = 3):
    """Partitions of total into parts >= smallest, parts non-decreasing."""
    if total == 0:
        yield ()
        return
    for first in range(smallest, total + 1):
        remainder = total - first
        if remainder == 0 or remainder >= first:
            for rest in _cycle_types(remainder, first):
                yield (first,) + rest


def _cycles_adjacency(parts: tuple[int, ...]) -> np.ndarray:
    v = sum(parts)
    adj = np.zeros((v, v), dtype=np.int64)
    offset = 0
    for length in parts:
        for step in range(length):
            x, y = offset + step, offset + (step + 1) % length
            adj[x, y] = adj[y, x] = 1
        offset += length
    return adj


def _forced_relation(parts: tuple[int, ...]):
    """The only relation a 3-class scheme with valencies (v-5, 2, 2) could
    have if one valency-2 class has this cycle type; None if it has none.

    Let A be that class (a union of cycles). p[A][A][A] must be constant
    on A-edges: it is 1 on a triangle edge and 0 on any longer cycle, so
    a triangle forces every cycle to be a triangle, and then v is a
    multiple of 3; the caller rules that case out, and this returns None
    for any triangle. Without triangles the off-diagonal support of A^2
    (pairs at distance 2) is a union of classes; every point has at most
    two such partners, so that support must be the other valency-2 class
    B, and 2-regular. The remaining pairs form the last class.
    """
    a = _cycles_adjacency(parts)
    square = a @ a
    if square[a == 1].any():
        return None
    v = a.shape[0]
    support = (square > 0) & ~np.eye(v, dtype=bool)
    if not (support.sum(axis=1) == 2).all():
        return None
    rel = np.where(a == 1, 2, np.where(support, 3, 1))
    np.fill_diagonal(rel, 0)
    return rel


def test_no_scheme_with_valencies_11_2_2_on_16_points():
    # a 3-class scheme on 16 points with valencies (11, 2, 2) has a
    # valency-2 class that is a union of cycles of lengths >= 3 summing
    # to 16. A triangle forces every cycle to be a triangle (3 does not
    # divide 16), and 4-cycles leave a point one distance-2 partner, so
    # 15 of the 21 cycle types fail outright; the other 6 each force one
    # relation matrix, and the intersection counts of each depend on the
    # pair. Hence no 16-point table with n (11, 2, 2) is a scheme.
    assert 16 % 3 != 0
    types = list(_cycle_types(16))
    assert len(types) == 21
    survivors = []
    for parts in types:
        rel = _forced_relation(parts)
        if rel is None:
            continue
        survivors.append(parts)
        with pytest.raises(NotASchemeError) as err:
            from_relation_matrix(rel)
        assert err.value.count_a != err.value.count_b
    assert survivors == [(5, 5, 6), (5, 11), (6, 10), (7, 9), (8, 8), (16,)]

    # control: on 6 points the same construction gives the distance
    # scheme of the hexagon, valencies (1, 2, 2) like the 6-point core
    assert _forced_relation((3, 3)) is None
    s = from_relation_matrix(_forced_relation((6,)))
    assert sorted(s.n) == [1, 1, 2, 2]
    bose_mesner_check(s)


def test_scheme_of_the_doubled_core_classification():
    from biplane_schemes.binmat import doubled

    c = classify(doubled(3))
    s = from_relation_matrix(c.relation)
    assert s.n == (1, 1, 2, 2)
    bose_mesner_check(s)


def test_doubled_family_schemes_fail_beyond_three():
    from biplane_schemes.binmat import doubled

    for m in (4, 5, 6):
        c = classify(doubled(m))
        with pytest.raises(NotASchemeError):
            from_relation_matrix(c.relation)


def test_axiom_four_agrees_with_closure_on_random_relations():
    # brute closure check: stack the indicator matrices and test whether
    # every product lies in their span with constant coefficients
    rng = random.Random(97)

    def random_symmetric_relation(v: int, d: int) -> np.ndarray:
        rel = np.zeros((v, v), dtype=np.int64)
        labels = list(range(1, d + 1))
        for x in range(v):
            for y in range(x + 1, v):
                rel[x, y] = rel[y, x] = rng.choice(labels)
        return rel

    def closure_holds(rel: np.ndarray) -> bool:
        v = rel.shape[0]
        labels = sorted(set(int(t) for t in rel[~np.eye(v, dtype=bool)]))
        mats = [np.eye(v, dtype=np.int64)]
        mats += [(rel == t).astype(np.int64) for t in labels]
        for a in mats:
            for b in mats:
                product = a @ b
                residue = product.copy()
                for m in mats:
                    where = m == 1
                    if not where.any():
                        return False
                    vals = residue[where]
                    if vals.min() != vals.max():
                        return False
                    residue = residue - int(vals[0]) * m
                if residue.any():
                    return False
        return True

    seen_valid = seen_invalid = 0
    for _ in range(60):
        v = rng.randint(3, 7)
        d = rng.randint(1, 3)
        rel = random_symmetric_relation(v, d)
        if len(set(int(t) for t in rel[~np.eye(v, dtype=bool)])) < d:
            continue
        try:
            from_relation_matrix(rel)
            valid = True
        except NotASchemeError:
            valid = False
        except AxiomError as err:
            # more labels than v - 1: seed 97 draws one with v = 3, d = 3
            assert err.axiom == "labels"
            valid = False
        assert valid == closure_holds(rel)
        seen_valid += valid
        seen_invalid += not valid
    assert seen_invalid > 0  # the corpus is not vacuous


def test_relation_text_round_trip():
    text = format_relation(RELATION_6)
    back = parse_relation(text)
    assert np.array_equal(back, RELATION_6)
    assert parse_relation("2 2\n. 1\n1 .\n").tolist() == [[0, 1], [1, 0]]
    with pytest.raises(ValueError):
        parse_relation("2 2\n0 1\n1")
    # only '.' and ASCII digits, the tokens format_relation writes; int()
    # alone would take a sign, an underscore or Arabic-Indic three
    for bad in ("-1", "+1", "1_0", "\u0663"):
        with pytest.raises(ValueError, match=re.escape(f"bad entry token {bad!r}")):
            parse_relation(f"2 2\n0 {bad}\n{bad} 0")
    # any label an int64 holds is read, however many points the table
    # has: from_relation_matrix bounds the labels by v - 1
    top = str(2**63 - 1)
    for label in ("4", "5", "10" * 9, top, "0" * 5000 + "7"):
        value = int(label.lstrip("0"))
        assert parse_relation(f"2 2\n0 {label}\n{label} 0").tolist() == [[0, value], [value, 0]]
    for huge in (str(2**63), "10" * 10, "1" * 5000):
        with pytest.raises(ValueError, match=f"entry token '{huge}' is above the largest int64, {top}"):
            parse_relation(f"2 2\n0 {huge}\n{huge} 0")
