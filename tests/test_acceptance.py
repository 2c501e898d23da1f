"""End-to-end acceptance checks.

Each criterion is one test that prints a single verdict line of the form

    criterion N: PASS (elapsed)

directly to the terminal (capture is suspended for the print), so the
verdicts survive into piped pytest output. A failing criterion prints
FAIL and then fails the test with the concrete witness; nothing here is
marked xfail.

All eight criteria pass. Criterion 4 asserts the proven answer for the
16-point tables: they are PBIBDs, but no 3-class association scheme
with valencies (11, 2, 2) exists on 16 points, so the scheme check must
reject each of them with a witness. tests/test_scheme.py holds the
proof for every such table, not only the bundled four.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from biplane_schemes.binmat import (
    assemble,
    border,
    constant,
    disjoint_cycles,
    doubled,
    is_perm_equivalent,
    parse_matrix,
    path_loop,
)
from biplane_schemes.biplane import assemble_b4c, verify_biplane
from biplane_schemes.extract import check_lemma2, extract_design, family_generate
from biplane_schemes.fixtures import ASSOC_6, CORES_12, CORES_16, RELATION_6, write_fixtures
from biplane_schemes.incidence import IncidenceStructure
from biplane_schemes.pbibd import NotPbibdError, classify, verify_pbibd
from biplane_schemes.scheme import NotASchemeError, bose_mesner_check, from_classification
from biplane_schemes.search import SearchConfig, search_symmetric_canonical


@pytest.fixture()
def verdict(capfd):
    @contextmanager
    def criterion(n):
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            with capfd.disabled():
                print(f"criterion {n}: FAIL "
                      f"({time.perf_counter() - start:.2f}s)", flush=True)
            raise
        with capfd.disabled():
            print(f"criterion {n}: PASS "
                  f"({time.perf_counter() - start:.2f}s)", flush=True)

    return criterion


def test_criterion_1_b4c_reproduction(tmp_path, verdict):
    # assembled matrix round-trips through the fixture writer and verifies
    # as a biplane 2-(16,16,6,6,2) of order 4: symmetric, canonical, trace 16
    with verdict(1):
        start = time.perf_counter()
        write_fixtures(tmp_path)
        mat = parse_matrix((tmp_path / "b4c.txt").read_text())
        assert mat == assemble_b4c()
        assert mat.rows == mat.cols == 16
        cert = verify_biplane(mat)
        assert cert.k == 6 and cert.v == 16 and cert.order == 4
        assert cert.symmetric and cert.canonical and cert.full_trace
        assert mat.trace() == 16
        assert mat.row_sums() == [6] * 16 and mat.col_sums() == [6] * 16
        assert all(
            mat.row_dot(i, j) == 2 for i in range(16) for j in range(i + 1, 16)
        )
        assert time.perf_counter() - start < 1.0


def test_criterion_2_six_point_core(verdict):
    # the principal submatrix on the tail block of b4c is the 6-point
    # design: line sums 3, symmetric, PBIBD(3) with lambda (0,1,2) and
    # n (1,2,2), and permutation-equivalent to doubled(3)
    with verdict(2):
        start = time.perf_counter()
        rep = extract_design(assemble_b4c())
        core = rep.core
        assert core.rows == core.cols == 6
        assert core.row_sums() == [3] * 6 and core.col_sums() == [3] * 6
        assert core.is_symmetric()
        assert rep.pbibd["v"] == rep.pbibd["b"] == 6
        assert rep.pbibd["r"] == rep.pbibd["k"] == 3
        assert rep.pbibd["d"] == 3
        assert rep.pbibd["lambda"] == [0, 1, 2]
        assert rep.pbibd["n"] == [1, 2, 2]
        assert rep.d_equivalence is not None
        row_perm, col_perm = rep.d_equivalence
        assert core.permute(row_perm, col_perm) == doubled(3)
        assert time.perf_counter() - start < 1.0


def test_criterion_3_six_point_scheme(verdict):
    # the extracted classification is a genuine 3-class scheme whose
    # relation matrix and associate matrices equal the stored displays,
    # with exact Bose-Mesner closure
    with verdict(3):
        start = time.perf_counter()
        rep = extract_design(assemble_b4c())
        scheme = rep.scheme
        assert np.array_equal(scheme.relation, np.asarray(RELATION_6))
        for i in range(4):
            assert rep.classification.associate_matrix(i) == ASSOC_6[i]
        checks = bose_mesner_check(scheme)
        assert checks == {
            "closure": True, "commutative": True, "sum_to_all_ones": True,
        }
        mats = [a.to_numpy() for a in ASSOC_6]
        for i in range(4):
            for j in range(4):
                lhs = mats[i] @ mats[j]
                rhs = sum(scheme.p[h, i, j] * mats[h] for h in range(4))
                assert np.array_equal(lhs, rhs)
        assert time.perf_counter() - start < 1.0


def test_criterion_4_sixteen_point_tables(verdict):
    # every bundled 16-point table (b9e's core, relabelled) is a
    # symmetric PBIBD(3) with parameters 2-(16,16,3,3,(0,1,2)), n
    # (11,2,2), and its concurrence-1 class relabels onto four diagonal
    # T4 blocks. Its classification is not an association scheme, and
    # no (11,2,2) classification on 16 points can be
    # (tests/test_scheme.py), so the scheme check must reject it with a
    # pair-dependent p[1][1][1], and a closure check in plain numpy on
    # the table itself must fail the same way
    with verdict(4):
        t4 = border(4)
        z4 = constant(4, 4, 0)
        target = assemble(
            [[t4, z4, z4, z4], [z4, t4, z4, z4],
             [z4, z4, t4, z4], [z4, z4, z4, t4]]
        )
        for table in CORES_16:
            start = time.perf_counter()
            assert table.is_symmetric()
            report = verify_pbibd(IncidenceStructure(table))
            assert report["d"] == 3
            assert report["v"] == report["b"] == 16
            assert report["r"] == report["k"] == 3
            assert report["lambda"] == [0, 1, 2]
            assert report["n"] == [11, 2, 2]

            classification = classify(IncidenceStructure(table))
            ones = classification.associate_matrix(2)
            cycles = _cycle_walks(ones.to_numpy())
            assert [len(walk) for walk in cycles] == [4, 4, 4, 4]
            dest = [0] * 16
            for block, walk in enumerate(cycles):
                for position, vertex in zip((0, 1, 3, 2), walk):
                    dest[vertex] = 4 * block + position
            assert ones.permute(dest, dest) == target

            # independent oracle: concurrence classes straight from the
            # incidence matrix, closure tested on concurrence-0 pairs
            m = table.to_numpy()
            conc = m @ m.T
            off = ~np.eye(16, dtype=bool)
            a0 = ((conc == 0) & off).astype(np.int64)
            a1 = ((conc == 1) & off).astype(np.int64)
            apart = a0 == 1
            # in a scheme A1^2 and A0^2 would be constant on each class
            assert set((a1 @ a1)[apart].tolist()) == {0, 2}
            assert set((a0 @ a0)[apart].tolist()) == {6, 8}

            assert classification.lambdas[0] == 0  # class 1 is A0
            with pytest.raises(NotASchemeError) as err:
                from_classification(classification)
            w = err.value
            assert (w.h, w.i, w.j) == (1, 1, 1)
            assert {w.count_a, w.count_b} == {6, 8}
            # the witness pairs are concurrence-0 pairs, recounted by numpy
            square = a0 @ a0
            for pair, count in ((w.pair_a, w.count_a), (w.pair_b, w.count_b)):
                assert a0[pair] == 1
                assert square[pair] == count
            assert time.perf_counter() - start < 1.0


def _cycle_walks(adjacency):
    """Walks of the disjoint cycles of a 2-regular symmetric 0/1 matrix."""
    n = adjacency.shape[0]
    seen: set[int] = set()
    walks = []
    for start in range(n):
        if start in seen:
            continue
        walk, previous, current = [start], None, start
        seen.add(start)
        while True:
            nxt = next(
                (int(j) for j in np.flatnonzero(adjacency[current])
                 if j != previous and int(j) not in seen),
                None,
            )
            if nxt is None:
                break
            walk.append(nxt)
            seen.add(nxt)
            previous, current = current, nxt
        walks.append(walk)
    return walks


def test_criterion_5_infinite_family(verdict):
    # doubled(m) passes every PBIBD(3) check for m = 3..64 with
    # n = (2m-5, 2, 2) and the weighted-concurrence identity equal to 6
    with verdict(5):
        start = time.perf_counter()
        for m in range(3, 65):
            structure, info = family_generate(m)
            assert info["v"] == info["b"] == 2 * m
            assert info["r"] == info["k"] == 3
            assert info["d"] == 3
            assert info["lambda"] == [0, 1, 2]
            assert info["n"] == [2 * m - 5, 2, 2]
            assert info["identities"] == {"vr_bk": True, "sum_nl": True}
            weighted = sum(n * l for n, l in zip(info["n"], info["lambda"]))
            assert weighted == 6 == info["r"] * (info["k"] - 1)
        assert time.perf_counter() - start < 10.0


def test_criterion_6_two_neighbor_property(verdict):
    # every disjoint-cycle matrix with parts >= 3 up to size 10, and 1000
    # random row/column permutations of path_loop, satisfy the
    # two-neighbor conclusion with zero counterexamples
    with verdict(6):
        start = time.perf_counter()
        for m in range(3, 11):
            for parts in _partitions_min3(m):
                report = check_lemma2(disjoint_cycles(parts))
                assert report.conclusion_ok
                assert report.m == m
                assert report.cycle_lengths == tuple(
                    sorted(2 * p for p in parts)
                )
        rng = np.random.default_rng(20260815)
        for _ in range(1000):
            m = int(rng.integers(3, 13))
            row_perm = [int(x) for x in rng.permutation(m)]
            col_perm = [int(x) for x in rng.permutation(m)]
            shuffled = path_loop(m).permute(row_perm, col_perm)
            report = check_lemma2(shuffled)
            assert report.conclusion_ok
            assert report.cycle_lengths == (2 * m,)
        assert time.perf_counter() - start < 30.0


def _partitions_min3(total, smallest=3):
    if total == 0:
        yield ()
        return
    for first in range(smallest, total + 1):
        remainder = total - first
        if remainder == 0 or remainder >= first:
            for rest in _partitions_min3(remainder, first):
                yield (first,) + rest


def test_criterion_7_search_nonexistence_and_rediscovery(verdict):
    # no symmetric canonical full-trace matrix exists at k = 4 or 5; at
    # k = 6 the search finds a solution permutation-equivalent to b4c
    with verdict(7):
        start = time.perf_counter()
        for k in (4, 5):
            outcome = search_symmetric_canonical(SearchConfig(k=k))
            assert outcome.exhausted
            assert outcome.solutions == ()
        assert time.perf_counter() - start < 10.0

        start = time.perf_counter()
        outcome = search_symmetric_canonical(SearchConfig(k=6))
        assert outcome.exhausted
        assert len(outcome.solutions) >= 1
        reference = assemble_b4c()
        for solution in outcome.solutions:
            rep = extract_design(solution)
            assert rep.pbibd["parameters"] == "2-(6,6,3,3,(0,1,2))"
        assert any(
            is_perm_equivalent(solution, reference) is not None
            for solution in outcome.solutions
        )
        assert time.perf_counter() - start < 600.0


def test_criterion_8_counting_identities(verdict):
    # v*r = b*k everywhere; r(k-1) = lambda(v-1) on the biplane; the
    # weighted-concurrence identity on every classified fixture and on
    # every generated family member
    with verdict(8):
        b4c = assemble_b4c()
        v = b = 16
        r = k = 6
        lam = 2
        assert v * r == b * k == b4c.count_ones()
        assert r * (k - 1) == lam * (v - 1)

        classified = [extract_design(b4c).core, doubled(3), CORES_12[0]]
        classified.extend(CORES_16)
        for m in range(3, 17):
            classified.append(family_generate(m)[0].matrix)
        for mat in classified:
            c = classify(IncidenceStructure(mat))
            rows = mat.row_sums()
            cols = mat.col_sums()
            assert rows == [rows[0]] * mat.rows
            assert cols == [cols[0]] * mat.cols
            assert c.v * rows[0] == mat.cols * cols[0] == mat.count_ones()
            weighted = sum(n * l for n, l in zip(c.n, c.lambdas))
            assert weighted == rows[0] * (cols[0] - 1)

        # non-regular fixtures still satisfy the raw incidence count
        boundary = CORES_12[1]
        with pytest.raises(NotPbibdError):
            classify(IncidenceStructure(boundary))
        assert sum(boundary.row_sums()) == sum(boundary.col_sums())
        assert sum(boundary.row_sums()) == boundary.count_ones()
