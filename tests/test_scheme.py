"""Association scheme axioms, intersection numbers, Bose-Mesner closure."""

import random
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from biplane_schemes.binmat import DimensionError
from biplane_schemes.fixtures import CORES_16, RELATION_6
from biplane_schemes import scheme
from biplane_schemes.pbibd import classify
from biplane_schemes.scheme import (
    AssociationScheme,
    AxiomError,
    InternalInconsistencyError,
    NotASchemeError,
    TooManyClassesError,
    bose_mesner_check,
    format_relation,
    from_relation_matrix,
    parse_relation,
)


WITNESS_KEYS = ("h", "i", "j", "pair_a", "count_a", "pair_b", "count_b")


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
    # the full scheme check of every m in 4..64, witness by witness
    from biplane_schemes.binmat import doubled

    for m in range(4, 65):
        c = classify(doubled(m))
        with pytest.raises(NotASchemeError) as err:
            from_relation_matrix(c.relation)
        if m == 4:
            expected = (1, 1, 2, [0, 3], 0, [0, 6], 1)
        elif m == 5:
            expected = (1, 1, 1, [0, 3], 1, [0, 7], 2)
        else:
            expected = (1, 1, 1, [0, 3], 2 * m - 9, [0, 5], 2 * m - 10)
        w = err.value.witness()
        assert tuple(w[key] for key in WITNESS_KEYS) == expected, m


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


# ---------------------------------------------------------------------------
# differential oracle: the scheme check as one loop over the pairs
# ---------------------------------------------------------------------------


def oracle_from_relation_matrix(r):
    """The scheme check pair by pair: the same gates, then for every pair
    (x, y) in row-major order and every (i, j) one popcount of two class
    neighbourhoods as bit rows. p[h] is set at the first pair of class h
    and compared at every later one; returns (p, n)."""
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
            "symmetry", f"entry ({x},{y})={rel[x, y]} but ({y},{x})={rel[y, x]}")
    off = rel[~np.eye(v, dtype=bool)]
    d = int(off.max()) if off.size else 0
    if off.size and off.min() < 1:
        x, y = map(int, np.argwhere((rel < 1) & ~np.eye(v, dtype=bool))[0])
        raise AxiomError(
            "partition", f"off-diagonal entry ({x},{y}) is {rel[x, y]}; labels must be 1..d")
    if d > v - 1:
        raise AxiomError(
            "labels",
            f"largest label {d} exceeds v - 1 = {v - 1}: "
            f"a scheme on {v} points has at most {v - 1} classes")
    missing = sorted(set(range(1, d + 1)) - set(off.tolist()))
    if missing:
        raise AxiomError("labels", f"class labels {missing} are absent below max {d}")
    masks = [[sum(1 << z for z in range(v) if rel[x, z] == i) for x in range(v)]
             for i in range(d + 1)]
    p = np.full((d + 1, d + 1, d + 1), -1, dtype=np.int64)
    first_pair = [None] * (d + 1)
    for x in range(v):
        for y in range(v):
            h = int(rel[x, y])
            for i in range(d + 1):
                for j in range(d + 1):
                    count = (masks[i][x] & masks[j][y]).bit_count()
                    if first_pair[h] is None:
                        p[h, i, j] = count
                    elif count != p[h, i, j]:
                        raise NotASchemeError(h, i, j, first_pair[h], int(p[h, i, j]),
                                              (x, y), count)
            if first_pair[h] is None:
                first_pair[h] = (x, y)
    return p, tuple(int(p[0, i, i]) for i in range(d + 1))


def oracle_bose_mesner_check(s):
    """Closure, commutativity and the all-ones sum, one product at a time."""
    mats = [(s.relation == h).astype(np.int64) for h in range(s.d + 1)]
    if not (sum(mats) == 1).all():
        return "class indicators do not sum to all-ones"
    for i in range(s.d + 1):
        for j in range(s.d + 1):
            prod = mats[i] @ mats[j]
            if not np.array_equal(prod, sum(int(s.p[h, i, j]) * mats[h]
                                            for h in range(s.d + 1))):
                return f"A_{i} A_{j} deviates from its p-expansion"
            if not np.array_equal(prod, mats[j] @ mats[i]):
                return f"A_{i} and A_{j} do not commute"
    return {"closure": True, "commutative": True, "sum_to_all_ones": True}


def scheme_outcome(check, rel):
    """What a scheme check gives on rel, in a form == can compare."""
    try:
        result = check(rel)
    except AxiomError as err:
        return "axiom", err.axiom, str(err)
    except NotASchemeError as err:
        return "witness", err.witness(), str(err)
    return "scheme", result


def fast_scheme(rel):
    s = from_relation_matrix(rel)
    try:
        algebra = bose_mesner_check(s)
    except InternalInconsistencyError as err:
        algebra = str(err)
    return s.p.tolist(), s.n, s.size, s.d, s.relation.tolist(), algebra


def slow_scheme(rel):
    p, n = oracle_from_relation_matrix(rel)
    s = AssociationScheme(size=len(rel), d=len(p) - 1, relation=np.asarray(rel), p=p, n=n)
    return p.tolist(), n, s.size, s.d, s.relation.tolist(), oracle_bose_mesner_check(s)


def random_relations(count: int, seed: int):
    """Seeded tables on at most 10 points: random symmetric labels, with
    and without gaps or labels above v - 1; cyclic distance schemes
    relabelled by a point and a class permutation; and such schemes with
    one entry or one mirrored pair of entries rewritten."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        v = int(rng.integers(1, 11))
        kind = int(rng.integers(0, 4))
        if kind == 0:
            d = int(rng.integers(1, v + 2))
            upper = np.triu(rng.integers(1, d + 1, size=(v, v)), 1)
            yield upper + upper.T
            continue
        base = cyclic_distance_relation(v)
        d = int(base.max())
        classes = np.concatenate(([0], rng.permutation(d) + 1))
        perm = rng.permutation(v)
        rel = classes[base[np.ix_(perm, perm)]]
        if kind >= 2 and v > 1:
            x, y = (int(t) for t in rng.integers(0, v, size=2))
            rel[x, y] = int(rng.integers(0, v + 1))
            if kind == 2:
                rel[y, x] = rel[x, y]
        yield rel


def differential_corpus():
    from biplane_schemes.binmat import doubled

    yield RELATION_6
    for core in CORES_16:
        yield classify(core).relation
    for m in range(3, 65):
        yield classify(doubled(m)).relation
    for n in range(2, 30):
        yield cyclic_distance_relation(n)
    yield from random_relations(2400, seed=30)


def test_scheme_check_matches_the_pair_loop(monkeypatch):
    # each table also in blocks of 1000 bytes, which cut every table of
    # more than a few points into blocks of a few columns, and its rows
    # into blocks of at most a few rows
    seen = {"axiom": 0, "witness": 0, "scheme": 0}
    for rel in differential_corpus():
        expected = scheme_outcome(slow_scheme, rel)
        assert scheme_outcome(fast_scheme, rel) == expected, rel.tolist()
        with monkeypatch.context() as small:
            small.setattr(scheme, "_BLOCK_BYTES", 1000)
            assert scheme_outcome(fast_scheme, rel) == expected, rel.tolist()
        seen[expected[0]] += 1
    # every outcome is well represented
    assert min(seen.values()) >= 300, seen


def test_a_bad_pair_in_the_first_row_of_a_block_ends_the_check_at_its_column_block(monkeypatch):
    # in blocks of 1000 bytes, where most witness tables have several
    # column blocks: the last block counted holds the loop's witness
    # pair, and ends its row block's columns early when the pair is in
    # the block's first row
    products, last = scheme._products, []

    def recording(rel, d, rows):
        for x0, y0, counts in products(rel, d, rows):
            last[:] = [x0, y0, *counts.shape[:2]]
            yield x0, y0, counts

    monkeypatch.setattr(scheme, "_products", recording)
    monkeypatch.setattr(scheme, "_BLOCK_BYTES", 1000)
    stops = {"early": 0, "at the last column": 0}
    for rel in differential_corpus():
        expected = scheme_outcome(oracle_from_relation_matrix, rel)
        if expected[0] != "witness":
            continue
        assert scheme_outcome(from_relation_matrix, rel) == expected, rel.tolist()
        x0, y0, rows, cols = last
        x, y = expected[1]["pair_b"]
        assert x0 <= x < x0 + rows
        if x == x0:
            assert y0 <= y < y0 + cols
        else:
            assert y0 + cols == len(rel)
        stops["early" if y0 + cols < len(rel) else "at the last column"] += 1
    assert min(stops.values()) >= 100, stops


def test_bose_mesner_traps_match_the_product_loop():
    # schemes no gate would pass: a p entry off by one, a label outside
    # 0..d, and the thin scheme of S_3, closed but not commutative
    def trap(s):
        try:
            return bose_mesner_check(s)
        except InternalInconsistencyError as err:
            return str(err)

    rng = np.random.default_rng(31)
    broken = []
    for n in range(3, 12):
        s = from_relation_matrix(cyclic_distance_relation(n))
        for _ in range(4):
            p = s.p.copy()
            p[tuple(rng.integers(0, s.d + 1, size=3))] += 1
            broken.append(AssociationScheme(s.size, s.d, s.relation, p, s.n))
        relation = s.relation.copy()
        relation[0, 1] = s.d + 1
        broken.append(AssociationScheme(s.size, s.d, relation, s.p, s.n))
    group = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]

    def compose(f, g):
        return tuple(f[g[k]] for k in range(3))

    def inverse(f):
        return tuple(sorted(range(3), key=f.__getitem__))

    relation = np.array([[group.index(compose(inverse(f), g)) for g in group] for f in group])
    p = np.zeros((6, 6, 6), dtype=np.int64)
    for i, f in enumerate(group):
        for j, g in enumerate(group):
            p[group.index(compose(f, g)), i, j] = 1
    broken.append(AssociationScheme(6, 5, relation, p, (1,) * 6))
    outcomes = [trap(s) for s in broken]
    assert outcomes == [oracle_bose_mesner_check(s) for s in broken]
    assert "A_1 and A_2 do not commute" in outcomes
    assert "class indicators do not sum to all-ones" in outcomes
    assert sum("p-expansion" in str(out) for out in outcomes) >= 30


def test_a_negative_label_fails_the_partition_gate():
    with pytest.raises(AxiomError) as err:
        from_relation_matrix(np.array([[0, -1], [-1, 0]]))
    assert (err.value.axiom, str(err.value)) == (
        "partition", "off-diagonal entry (0,1) is -1; labels must be 1..d")


def test_too_many_classes_are_refused_before_the_tensor(monkeypatch):
    # (d + 1)^3 entries of p at most: 128 classes pass, 129 do not
    rel = cyclic_distance_relation(257)
    with pytest.raises(TooManyClassesError) as err:
        from_relation_matrix(rel)
    assert str(err.value) == (
        "128 classes: the intersection numbers p[h][i][j] would be (d + 1)^3 = 2146689"
        " entries, above the cap of 2097152")
    # the boundary, on a smaller cap: d = 3 makes 64 entries, d = 4 makes 125
    monkeypatch.setattr(scheme, "_MAX_TENSOR", 64)
    assert from_relation_matrix(cyclic_distance_relation(7)).d == 3
    with pytest.raises(TooManyClassesError):
        from_relation_matrix(cyclic_distance_relation(9))


def oracle_parse_relation(text):
    """parse_relation as one str.split() token at a time, for str input,
    with its messages."""
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("missing 'rows cols' header")
    if not all(re.fullmatch("-?[0-9]+", t) for t in tokens[:2]):
        raise ValueError(f"malformed header {tokens[:2]!r}")
    rows, cols = int(tokens[0]), int(tokens[1])
    body = tokens[2:]
    if len(body) != rows * cols:
        raise ValueError(
            f"expected {rows * cols} entries for a {rows}x{cols} table, got {len(body)}")
    if rows < 1 or cols < 1:
        raise DimensionError(f"dimensions must be positive, got {rows}x{cols}")
    values = []
    for index, tok in enumerate(body):
        if tok == ".":
            values.append(0)
            continue
        if not (tok.isascii() and tok.isdigit()):
            i, j = divmod(index, cols)
            raise ValueError(f"bad entry token {tok!r} at row {i}, column {j}")
        digits = tok.lstrip("0") or "0"
        if (len(digits), int(digits[:19])) > (19, 2**63 - 1):
            raise ValueError(
                f"entry token {tok!r} is above the largest int64, {2**63 - 1}")
        values.append(int(digits))
    return np.array(values, dtype=np.int64).reshape(rows, cols)


def parse_outcome(parse, text):
    try:
        return parse(text).tolist()
    except ValueError as exc:
        return type(exc), str(exc)


def relation_texts(count: int, seed: int):
    """format_relation texts of random tables, with labels of one digit
    (the layout), more, or 19, each possibly changed in one way that
    leaves the layout or the grammar, then laid out in one of several
    ways: other line ends, rows broken across lines at random, all on
    one line, other separators, no final newline."""
    rng = random.Random(seed)
    tokens = ["0", "7", "12", ".", "-1", "+1", "1_0", "\u0663", "x", "1.", ".1", "..",
              "1" * 18, "9" * 19, "0" * 30 + "5", str(2**63 - 1), str(2**63),
              "0" * 4400 + "8", "9" * 4400]
    layouts = (
        lambda text: text,
        lambda text: text.replace("\n", "\r\n"),
        lambda text: text.replace("\n", "\r"),
        lambda text: text.replace("\n", " "),
        lambda text: text[:-1],
        lambda text: "".join(rng.choice((c, "\n")) if c == " " else c for c in text),
        lambda text: "".join(rng.choice(" \u3000\u2028\x1c") if c == " " else c for c in text),
    )
    for _ in range(count):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        top = rng.choice((1, 9, 60, 10**6, 2**63 - 1))
        grid = [[rng.randint(0, top) for _ in range(cols)] for _ in range(rows)]
        text = f"{rows} {cols}\n" + "".join(" ".join(map(str, row)) + "\n" for row in grid)
        change = rng.randrange(5)
        if change == 1:
            text = text.replace(" ", "\t", 1)
        elif change >= 2:
            # one entry token replaced
            parts = text.split(" ")
            at = rng.randrange(len(parts))
            tail = parts[at][-1] if parts[at].endswith("\n") else ""
            if at > 0:
                parts[at] = rng.choice(tokens) + tail
            text = " ".join(parts)
        yield rng.choice(layouts)(text)


def test_parse_relation_matches_the_token_loop():
    # as str and as a file's bytes; a text in the layout never reaches
    # the tokens
    for text in relation_texts(3000, seed=30):
        expected = parse_outcome(oracle_parse_relation, text)
        assert parse_outcome(parse_relation, text) == expected, text
        assert parse_outcome(parse_relation, text.encode("utf-8")) == expected, text
    text = format_relation(cyclic_distance_relation(19))
    with mock.patch.object(scheme, "_read_grid") as tokens:
        for data in (text, text.encode("ascii")):
            assert np.array_equal(parse_relation(data), cyclic_distance_relation(19))
    assert not tokens.called


def test_a_header_of_more_entries_than_the_text_holds_allocates_nothing():
    # 10^10 int64 entries would be 80 GB; the header alone allocates none
    for text in ("100000 100000\n0 1", "100000 100000\n" + "7 " * 1000):
        count = len(text.split()) - 2
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as err:
                parse_relation(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == (
            f"expected 10000000000 entries for a 100000x100000 table, got {count}")
        assert peak < 1 << 20


def test_a_table_is_read_a_line_at_a_time():
    # 300 x 300 two-digit labels: one str per entry (90,000 of them) would
    # take about 5 MB, the int64 table takes 0.7 MB and a line 2,400 bytes
    x = np.arange(300)
    rel = (x[:, None] + x[None, :]) % 50 + 10
    text = format_relation(rel)
    tracemalloc.start()
    try:
        back = parse_relation(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, rel)
    assert peak < rel.nbytes + (300 << 10)


def test_format_relation_matches_an_entrywise_loop():
    rng = np.random.default_rng(34)
    for top in (9, 99):
        for _ in range(50):
            rows, cols = rng.integers(1, 12, size=2)
            rel = rng.integers(0, top + 1, size=(rows, cols))
            lines = [f"{rel.shape[0]} {rel.shape[1]}"]
            for row in rel:
                lines.append(" ".join(str(int(x)) for x in row))
            assert format_relation(rel) == "\n".join(lines) + "\n"
