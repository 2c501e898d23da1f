"""Backtracking search: soundness, completeness, determinism, plumbing."""

import concurrent.futures
import functools
import hashlib
import io
import itertools
import json
import re
import time
from collections import Counter
from pathlib import Path

import pytest

import biplane_schemes.biplane as biplane_mod
import biplane_schemes.search as search_mod
from biplane_schemes.binmat import BinaryMatrix
from biplane_schemes import fixtures
from biplane_schemes.biplane import (
    VerificationError,
    assemble_b4c,
    canonical_head,
    head_width,
    verify_biplane,
)
from biplane_schemes.search import (
    CheckpointError,
    SearchBugError,
    SearchConfig,
    enumerate_reference,
    search_symmetric_canonical,
)

TRIVIAL_SOLUTION = BinaryMatrix.from_rows([
    [1, 1, 1, 0],
    [1, 1, 0, 1],
    [1, 0, 1, 1],
    [0, 1, 1, 1],
])


# nodes of the exhausted search on every run path, and the profile of
# its log: {nodes under a first-row branch: branches with that many}
FINGERPRINTS = {
    6: (10, {9: 1}),
    7: (3, {0: 3}),
    8: (12, {0: 12}),
    9: (190, {0: 10, 2: 60}),
    10: (7845, {12: 105, 17: 360}),
}

# (k, node limit) -> (log profile, solutions) of runs stopped deep in
# trees that no exhausted tier-1 run reaches; at k=11 the first 3,507
# nodes place the first row
NODE_LIMIT_FINGERPRINTS = {
    (10, 5_000): ({12: 63, 17: 222}, 0),
    (11, 10_000): ({106: 13, 400: 5, 920: 3}, 24),
}


def run(k, **kwargs):
    checkpoint = kwargs.pop("checkpoint", None)
    return search_symmetric_canonical(SearchConfig(k=k, **kwargs), checkpoint=checkpoint)


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(k=2)
    with pytest.raises(ValueError):
        SearchConfig(k=4, max_solutions=0)
    with pytest.raises(ValueError):
        SearchConfig(k=4, node_limit=0)
    with pytest.raises(ValueError):
        SearchConfig(k=4, threads=0)


def test_k3_unique_trivial_solution():
    out = run(3)
    assert out.exhausted
    assert len(out.solutions) == 1
    assert out.solutions[0] == TRIVIAL_SOLUTION
    assert out.v == 4


def test_small_k_nonexistence():
    for k in (4, 5):
        out = run(k)
        assert out.exhausted
        assert out.solutions == ()


def test_k6_rediscovers_the_assembled_biplane():
    out = run(6)
    assert out.exhausted
    assert len(out.solutions) == 1
    assert out.solutions[0] == assemble_b4c()


def test_k7_exhausts_empty():
    out = run(7)
    assert out.exhausted
    assert out.solutions == ()


def test_k10_exhausts_empty():
    out = run(10)
    assert out.exhausted
    assert out.solutions == ()
    assert out.nodes_visited == 7_845
    assert out.prunes_by_rule == {}


def test_reference_agreement():
    for k in (3, 4, 5):
        ref = enumerate_reference(k)
        out = run(k)
        assert len(out.solutions) == len(ref)
        assert [m.bits for m in out.solutions] == [m.bits for m in ref]
    with pytest.raises(ValueError):
        enumerate_reference(6)
    with pytest.raises(ValueError):
        enumerate_reference(2)


def test_determinism():
    a = run(6)
    b = run(6)
    assert a.nodes_visited == b.nodes_visited
    assert [m.bits for m in a.solutions] == [m.bits for m in b.solutions]


def test_two_factor_counts():
    # 2-regular graphs on m labels, OEIS A001205
    counts = [1, 0, 0, 1, 3, 12, 70, 465, 3507]
    assert [len(search_mod._two_factors(m)) for m in range(9)] == counts
    for m in range(9):
        pairs = list(itertools.combinations(range(m), 2))
        for edges in search_mod._two_factors(m):
            assert list(edges) == sorted(set(edges))
            degree = [0] * m
            for a, b in map(pairs.__getitem__, edges):
                degree[a] += 1
                degree[b] += 1
            assert degree == [2] * m


def two_factors_by_copies(m):
    """_two_factors as a recursion that copies the path, the labels left
    and the edges at every step: the order the branch indices and the
    checkpoint headers rest on."""
    index = {edge: n for n, edge in enumerate(itertools.combinations(range(m), 2))}
    found = []

    def cycles(path, left, edges):
        if len(path) >= 3 and path[1] < path[-1]:
            closed = zip(path, path[1:] + path[:1])
            rest(left, edges + [index[min(a, b), max(a, b)] for a, b in closed])
        for n, x in enumerate(left):
            cycles(path + [x], left[:n] + left[n + 1:], edges)

    def rest(left, edges):
        if not left:
            found.append(tuple(sorted(edges)))
        else:
            cycles([left[0]], left[1:], edges)

    rest(tuple(range(m)), [])
    return found


def test_two_factors_keep_the_order_of_the_copying_recursion():
    for m in range(10):
        assert search_mod._two_factors(m) == two_factors_by_copies(m), m


@functools.lru_cache(maxsize=None)
def candidates(k, i):
    """Tail row i's candidates, built from the shared 2-factors and the
    row's column bits, in factor order."""
    factors, tables = search_mod._completion_tables(k)
    bits = tables[i - k][0]
    return tuple(sum(bits[e] for e in edges) for edges in factors)


def test_candidates_are_the_brute_force_completions():
    # every way to put k - 3 ones into a tail row's tail columns that
    # meets each head row exactly twice is a candidate, and no other is
    for k in range(3, 9):
        v = head_width(k)
        head = canonical_head(k).bits
        base = search_mod._base_rows(k)
        for i, (_, has, columns) in enumerate(search_mod._completion_tables(k)[1], start=k):
            cands = candidates(k, i)
            free = [c for c in range(k, v) if c != i]
            found = set()
            for cells in itertools.combinations(free, k - 3):
                bits = sum(1 << c for c in cells)
                if all(((base[i] | bits) & h).bit_count() == 2 for h in head):
                    found.add(bits)
            assert sorted(cands) == sorted(found), (k, i)
            assert len(set(cands)) == len(cands)
            for c in range(v):
                assert has[c] == sum(1 << j for j, bits in enumerate(cands) if bits >> c & 1)
            assert columns == sum(1 << c for c in range(v) if has[c])


# sha256 of json.dumps(branches) for the branch list of a log's header,
# as the search wrote it when each row kept its own candidate tuples: a
# log written then still resumes
BRANCH_LIST_SHA256 = {
    6: "7a086fe3c5fb822f4969b442c44d61fc50da9689bf16cf63524a805812cfcc9b",
    7: "fb133a5db911d16afe314b3e135b1423bec2f0383ee7d049c5ee9171ce8eb984",
    8: "bde127c9f460ae709b9de9e580df988e6a4b5751328c0995c6d901558680689c",
    9: "526e7e50354822009840861db26534ed71d83a2eff6b6a0e30d6960043d66611",
    10: "2ca505317d4d737ab2d700797663dbfa20698a286c5ac28df3fa4e3d4ae48854",
    11: "ef3a3b152859bee0db8733bd771c45c88247e16de3f0dc9c848a72dd15420f0d",
}


def test_branch_lists_are_pinned(tmp_path):
    for k, digest in BRANCH_LIST_SHA256.items():
        # k=11 logs its first subtrees, and its limit trips in a later one
        path = tmp_path / f"progress{k}.json"
        run(k, node_limit=5_000 if k == 11 else None, checkpoint=str(path))
        branches = read_log(path)[0]["branches"]
        assert branches == [search_mod._base_rows(k)[k] | c for c in candidates(k, k)]
        assert hashlib.sha256(json.dumps(branches).encode()).hexdigest() == digest, k


def seeded_searcher(b9e, depth):
    """A k=11 searcher whose first depth tail rows keep only b9e's
    candidate, run from b9e's first tail row, placed as one node."""
    k = 11
    searcher = search_mod._Searcher(k, None, None)
    v, everything = searcher.v, (1 << len(searcher.factors)) - 1
    masks = dict.fromkeys(range(k + 1, v), everything)
    for i in range(k + 1, k + depth):
        columns = searcher.tables[i - k][2]
        masks[i] = 1 << candidates(k, i).index(b9e.bits[i] & columns)
    searcher.nodes = 1  # row k keeps one candidate, b9e's
    searcher.rows[k] = b9e.bits[k]
    searcher.place(k, masks, (1 << v) - (2 << k))
    return searcher


# tail rows of b9e fixed -> (nodes, solutions) of the completion, the
# seeded rows' nodes included. Two rows fix b9e; its first row alone has
# 8 completions
SEEDED_B9E = {
    4: (45, 1),
    3: (46, 1),
    2: (51, 1),
    1: (921, 8),
}


def test_seeded_b9e_completes_to_itself():
    b9e = fixtures.b9e()
    cert = verify_biplane(b9e)
    assert (cert.k, cert.v) == (11, 56)
    assert cert.canonical and cert.full_trace and cert.symmetric

    for depth, (nodes, solutions) in SEEDED_B9E.items():
        searcher = seeded_searcher(b9e, depth)
        assert b9e.bits in searcher.solutions, depth
        assert len(set(searcher.solutions)) == solutions, depth
        assert searcher.nodes == nodes, depth


class DefinitionCheckedSearcher(search_mod._Searcher):
    """Checks every node by brute force over the candidates. Once a row
    is placed, each unplaced row's mask must keep exactly the candidates
    that agree with the fixed entries and meet every placed tail row
    exactly twice, or, at a dead end, some unplaced row must keep none.
    And the row chosen to be placed next must be the unplaced row with
    the fewest kept candidates, the lowest one on a tie.

    The expected rows are rebuilt from the base rows and a stack of the
    placed candidates kept here, each read once as it is placed and
    checked to be one of its row's candidates; the searcher's rows must
    equal them, so a mirrored bit that place leaves behind fails."""

    checked = 0

    def __init__(self, *args):
        super().__init__(*args)
        self.placed = []  # (row, candidate) in the order they were placed

    def place(self, i, masks, free):
        # row i holds its base bits, the bits mirrored from the rows
        # placed before it, and its candidate, which agrees with those
        candidate = self.rows[i] & self.tables[i - self.k][2]
        assert candidate in candidates(self.k, i)
        self.placed.append((i, candidate))
        super().place(i, masks, free)
        self.placed.pop()

    def _narrow(self, i, masks, free):
        # a subtree's first placed row is its branch, a candidate of the
        # root's choice, row k: at the root every row keeps every candidate
        root = dict.fromkeys(range(self.k + 1, self.v), (1 << len(self.factors)) - 1)
        assert (i == self.k) == (masks == root)
        assert {p for p, _ in self.placed} == {
            p for p in range(self.k, self.v) if not free >> p & 1}
        narrowed = super()._narrow(i, masks, free)
        rows = list(search_mod._base_rows(self.k))
        for p, candidate in self.placed:
            rows[p] |= candidate
            for j in masks:
                if candidate >> j & 1:
                    rows[j] |= 1 << p
        # the searcher's rows are the base rows, the placed candidates and
        # their mirror, and nothing left behind by an earlier subtree
        assert self.rows == rows
        placed = [rows[p] for p, _ in self.placed]

        def definition(j):
            columns = self.tables[j - self.k][2]
            row, fixed = rows[j], columns & ~free
            return sum(1 << n for n, cand in enumerate(candidates(self.k, j)) if (
                cand & fixed == row & fixed
                and all(((row | cand) & p).bit_count() == 2 for p in placed)))

        if narrowed is None:
            assert any(definition(j) == 0 for j in masks)
        else:
            chosen, kept = narrowed
            assert kept == {j: definition(j) for j in masks}
            fewest = min((mask.bit_count() for mask in kept.values()), default=None)
            assert chosen == next(
                (j for j in sorted(kept) if kept[j].bit_count() == fewest), None)
        DefinitionCheckedSearcher.checked += 1
        return narrowed


def test_kept_candidates_match_the_definition(monkeypatch):
    monkeypatch.setattr(search_mod, "_Searcher", DefinitionCheckedSearcher)
    # one check per placed row, so one per node of an exhausted search;
    # at k=10 the 465 first-row nodes are counted first, and the limit
    # trips after 98 subtrees have placed their first row and 1,534 more
    for k, limit, checks in ((7, None, 3), (8, None, 12), (9, None, 190),
                             (10, 2_000, 1632)):
        DefinitionCheckedSearcher.checked = 0
        out = run(k, node_limit=limit)
        if k in FINGERPRINTS and limit is None:
            assert out.nodes_visited == FINGERPRINTS[k][0]
        assert DefinitionCheckedSearcher.checked == checks, k


def test_the_memo_stores_at_most_its_cap_per_row(tmp_path, monkeypatch):
    search_mod._meeting_masks.cache_clear()
    run(10)
    sizes = list(map(len, search_mod._meeting_masks(10)))
    assert (sum(sizes), max(sizes)) == (15_372, 1_729)
    assert max(sizes) <= search_mod._MEMO_MASKS_PER_ROW

    # a full memo computes its misses without storing them, and the
    # search is the same, down to no memo at all
    nodes, profile = FINGERPRINTS[10]
    for cap in (1_000, 0):
        monkeypatch.setattr(search_mod, "_MEMO_MASKS_PER_ROW", cap)
        search_mod._meeting_masks.cache_clear()
        path = tmp_path / f"cap{cap}.json"
        out = run(10, checkpoint=str(path))
        assert max(map(len, search_mod._meeting_masks(10))) == cap
        assert (out.nodes_visited, branch_profile(path)) == (nodes, profile)
        assert out.exhausted and out.solutions == ()
    search_mod._meeting_masks.cache_clear()


def test_deep_node_limited_counts_are_unchanged(tmp_path):
    for (k, limit), (profile, solutions) in NODE_LIMIT_FINGERPRINTS.items():
        path = tmp_path / f"k{k}.json"
        out = run(k, node_limit=limit, checkpoint=str(path))
        assert not out.exhausted
        assert out.nodes_visited == limit
        assert branch_profile(path) == profile
        assert len(out.solutions) == solutions


def cycle_type(m, edges):
    """The sorted cycle lengths of a 2-factor on m labels, given as the
    indices of its edges in combinations(range(m), 2)."""
    pairs = list(itertools.combinations(range(m), 2))
    near = {x: [] for x in range(m)}
    for a, b in map(pairs.__getitem__, edges):
        near[a].append(b)
        near[b].append(a)
    lengths, seen = [], set()
    for start in range(m):
        size, x = 0, start
        while x not in seen:
            seen.add(x)
            size += 1
            x = next((y for y in near[x] if y not in seen), start)
        if size:
            lengths.append(size)
    return tuple(sorted(lengths))


def test_first_row_orbits_share_a_subtree_size(tmp_path):
    # relabeling the generic labels maps a first-row branch onto any other
    # of its cycle type and its subtree onto the other's, so the log's
    # subtree sizes are a function of the branch's 2-factor cycle type
    sizes_by_type = {
        9: {(3, 3): 0, (6,): 2},
        10: {(3, 4): 12, (7,): 17},
    }
    for k, expected in sizes_by_type.items():
        path = tmp_path / f"k{k}.json"
        run(k, checkpoint=str(path))
        factors = search_mod._completion_tables(k)[0]
        sizes = {}
        for index, nodes, _ in read_log(path)[1]:
            sizes.setdefault(cycle_type(k - 3, factors[index]), set()).add(nodes)
        assert sizes == {t: {n} for t, n in expected.items()}, k


def test_parallel_matches_sequential(tmp_path, monkeypatch):
    # with LONG_RUN_K at 7, the runs on two threads at k=7..10 each start
    # a pool; k=6 has one first-row branch, which runs in process
    monkeypatch.setattr(search_mod, "LONG_RUN_K", 7)
    pools = counting_pools(monkeypatch)
    for k, (nodes, profile) in FINGERPRINTS.items():
        pools.clear()
        paths = {
            "sequential": run(k),
            "checkpoint": run(k, checkpoint=str(tmp_path / f"seq{k}.json")),
            "pool": run(k, threads=2),
            "pool+checkpoint": run(k, threads=2, checkpoint=str(tmp_path / f"pool{k}.json")),
        }
        assert pools == ([] if k == 6 else [(2,), (2,)]), k
        seq = paths["sequential"]
        for name, out in paths.items():
            assert out.exhausted, name
            assert out.nodes_visited == nodes, name
            assert out.prunes_by_rule == {}, name
            assert [m.bits for m in out.solutions] == [m.bits for m in seq.solutions], name
        for name in ("seq", "pool"):
            assert branch_profile(tmp_path / f"{name}{k}.json") == profile, (name, k)
        pooled = (tmp_path / f"pool{k}.json").read_bytes()
        assert pooled == (tmp_path / f"seq{k}.json").read_bytes(), k


# (k, node limit) -> (nodes, log profile). The first tail row's
# candidates are the branches and count one node each (k=8 has 12 of
# them, k=9 70, k=10 465, k=3 one and k=11 3,507), so most of these
# runs stop at or just past that row and finish no subtree
NODE_LIMITS = {
    (8, 5): (5, {}),
    (8, 12): (12, {}),
    (9, 70): (70, {}),
    (9, 73): (73, {0: 1, 2: 1}),
    (9, 100): (100, {0: 3, 2: 14}),
    (10, 500): (500, {12: 2}),
    (3, 1): (1, {}),
    (11, 100): (100, {}),
}


def test_node_limit(tmp_path):
    for (k, limit), (nodes, profile) in NODE_LIMITS.items():
        for threads in (1, 2):  # a node limit runs in process either way
            path = tmp_path / f"k{k}-{limit}-{threads}.json"
            out = run(k, node_limit=limit, threads=threads, checkpoint=str(path))
            assert not out.exhausted, (k, limit)
            assert out.nodes_visited == nodes, (k, limit)
            assert branch_profile(path) == profile, (k, limit)
            assert out.solutions == ()


def test_max_solutions_stops_early():
    out = run(6, max_solutions=1)
    assert len(out.solutions) == 1
    assert not out.exhausted  # stopped before covering the space


def test_the_thread_count_changes_no_in_process_result(monkeypatch):
    # each of these runs is below LONG_RUN_K or has a budget, so every
    # subtree runs in process and stops at the limits whatever the
    # thread count: a pooled subtree would run to completion
    pools = counting_pools(monkeypatch)
    cases = [{"k": k} for k in FINGERPRINTS]
    cases += [{"k": k, "node_limit": limit} for k, limit in NODE_LIMITS]
    cases += [{"k": 6, "max_solutions": 1}, {"k": search_mod.LONG_RUN_K, "max_solutions": 1}]
    for case in cases:
        reports = []
        for threads in (1, 2):
            report = run(threads=threads, **case).report()
            del report["elapsed_seconds"]
            reports.append(report)
        assert reports[0] == reports[1], case
    assert pools == []


def counting_pools(monkeypatch):
    """Record the arguments of every process pool the search creates.

    The search imports ProcessPoolExecutor from concurrent.futures when
    it starts a pool, so the patched class is the one it finds.
    """
    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    return pools


def read_log(path):
    """The header and the records of a checkpoint log."""
    header, *records = map(json.loads, Path(path).read_bytes().splitlines())
    return header, records


def branch_profile(path):
    """The log's {nodes under a first-row branch: branches with that
    many}, or {} where the search logged nothing."""
    if not Path(path).exists():
        return {}
    return dict(Counter(r[1] for r in read_log(path)[1]))


def logged_nodes(path):
    """The node count a rerun on the log starts from: one per branch,
    plus each record's."""
    header, records = read_log(path)
    return len(header["branches"]) + sum(r[1] for r in records)


def watch_log_writes(monkeypatch, before_write):
    """Call before_write(data) ahead of each write to the checkpoint log.
    It may raise to fail the write, or return the part of data that
    reaches the file."""

    class WatchedLog(io.FileIO):
        def write(self, data):
            part = before_write(data)
            return super().write(data if part is None else part)

    def watched_open(path, mode="r", **kwargs):
        return WatchedLog(path, mode) if mode == "ab" else open(path, mode, **kwargs)

    # the search finds open in its module before the builtins
    monkeypatch.setattr(search_mod, "open", watched_open, raising=False)


def test_checkpoint_keeps_the_pool(tmp_path, monkeypatch):
    monkeypatch.setattr(search_mod, "LONG_RUN_K", 7)
    pools = counting_pools(monkeypatch)
    run(7, threads=2, checkpoint=str(tmp_path / "progress.json"))
    assert pools == [(2,)]
    run(7, threads=2, node_limit=10**6)
    assert pools == [(2,)]


def test_a_pooled_log_holds_one_record_per_branch(tmp_path, monkeypatch):
    # the pool's results are merged and logged in branch order, so its
    # log is the sequential one, byte for byte
    seq_path = tmp_path / "sequential.log"
    run(8, checkpoint=str(seq_path))
    monkeypatch.setattr(search_mod, "LONG_RUN_K", 8)
    pools = counting_pools(monkeypatch)
    path = tmp_path / "progress.log"
    out = run(8, threads=2, checkpoint=str(path))
    nodes, profile = FINGERPRINTS[8]
    assert pools == [(2,)]
    assert out.exhausted
    assert (out.nodes_visited, branch_profile(path)) == (nodes, profile)
    header, records = read_log(path)
    assert [r[0] for r in records] == list(range(len(header["branches"]))) == list(range(12))
    assert path.read_bytes() == seq_path.read_bytes()


def test_a_lone_subtree_skips_the_pool(monkeypatch):
    monkeypatch.setattr(search_mod, "LONG_RUN_K", 6)
    pools = counting_pools(monkeypatch)
    out = run(6, threads=2)  # k=6 has one first-row branch
    nodes, _ = FINGERPRINTS[6]
    assert out.exhausted
    assert out.nodes_visited == nodes
    assert out.solutions == (assemble_b4c(),)
    assert pools == []


def test_small_searches_skip_the_pool(monkeypatch):
    # k=7 to k=10 are below LONG_RUN_K: they exhaust sooner than a pool starts
    pools = counting_pools(monkeypatch)
    for k in (7, 8, 9, 10):
        nodes, _ = FINGERPRINTS[k]
        out = run(k, threads=2)
        assert out.exhausted
        assert out.nodes_visited == nodes
        assert out.solutions == ()
    assert pools == []


_RUN_BRANCH = search_mod._run_branch


def slow_after_the_first_branch(job):
    """_run_branch, with a 0.2 s sleep in every subtree but the first.

    Defined at module level, so that pool workers can unpickle it.
    """
    k, branch_bits = job[:2]
    if branch_bits != search_mod._base_rows(k)[k] | candidates(k, k)[0]:
        time.sleep(0.2)
    return _RUN_BRANCH(job)


def test_failed_checkpoint_write_cancels_queued_subtrees(tmp_path, monkeypatch):
    # the slow subtrees are still queued when the first result fails its
    # append to the log
    monkeypatch.setattr(search_mod, "_run_branch", slow_after_the_first_branch)
    futures = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def submit(self, *args, **kwargs):
            futures.append(super().submit(*args, **kwargs))
            return futures[-1]

    def full_disk(data):
        raise OSError("no space left on device")

    monkeypatch.setattr(search_mod, "LONG_RUN_K", 8)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    watch_log_writes(monkeypatch, full_disk)
    with pytest.raises(OSError):
        run(8, threads=2, checkpoint=str(tmp_path / "progress.json"))
    assert len(futures) == 12
    assert any(f.cancelled() for f in futures)


def test_checkpoint_resume(tmp_path):
    clean = run(9)
    for threads in (1, 2):
        path = str(tmp_path / f"progress{threads}.json")
        partial = run(9, node_limit=100, checkpoint=path)
        assert not partial.exhausted
        header, records = read_log(path)
        assert header["schema_version"] == 8
        assert 0 < len(records) < len(header["branches"])

        resumed = run(9, threads=threads, checkpoint=path)
        assert resumed.exhausted
        assert resumed.nodes_visited == clean.nodes_visited
        assert branch_profile(path) == FINGERPRINTS[9][1]
        assert [m.bits for m in resumed.solutions] == [m.bits for m in clean.solutions]
        header, records = read_log(path)
        assert [r[0] for r in records] == list(range(len(header["branches"])))


def test_interrupted_pool_checkpoint_resumes(tmp_path, monkeypatch):
    path = str(tmp_path / "progress.json")
    writes = []

    class Killed(Exception):
        pass

    def write_once_then_die(data):
        writes.append(data)
        if len(writes) > 1:
            raise Killed

    monkeypatch.setattr(search_mod, "LONG_RUN_K", 7)
    watch_log_writes(monkeypatch, write_once_then_die)
    with pytest.raises(Killed):
        run(7, threads=2, checkpoint=path)
    header, records = read_log(path)
    assert [r[0] for r in records] == [0]
    assert len(header["branches"]) == 3

    monkeypatch.delattr(search_mod, "open")
    resumed = run(7, threads=2, checkpoint=path)
    nodes, profile = FINGERPRINTS[7]
    assert resumed.exhausted
    assert (resumed.nodes_visited, branch_profile(path)) == (nodes, profile)
    assert resumed.solutions == ()


def test_an_exhausted_search_logs_one_record_per_subtree(tmp_path, monkeypatch):
    writes = []
    watch_log_writes(monkeypatch, writes.append)
    for k, (nodes, profile) in FINGERPRINTS.items():
        files = []
        for threads in (1, 2):
            path = tmp_path / f"k{k}-{threads}.json"
            writes.clear()
            out = run(k, threads=threads, checkpoint=str(path))
            assert out.exhausted
            assert out.nodes_visited == nodes
            # one write a record, the first with the header
            header, records = read_log(path)
            assert len(writes) == len(records) and b"".join(writes) == path.read_bytes()
            assert [r[0] for r in records] == list(range(len(header["branches"]))), k
            assert logged_nodes(path) == nodes
            assert branch_profile(path) == profile, k
            files.append(path.read_bytes())
        assert files[0] == files[1], k


def test_a_tripped_limit_keeps_the_counts_before_its_subtree(tmp_path, monkeypatch):
    writes = []
    watch_log_writes(monkeypatch, writes.append)
    path = tmp_path / "progress.json"
    # the fifth subtree holds 17 nodes and trips the limit
    out = run(10, node_limit=520, checkpoint=str(path))
    assert out.nodes_visited == 520
    assert len(writes) == 4
    assert [r[0] for r in read_log(path)[1]] == [0, 1, 2, 3]
    assert logged_nodes(path) == 465 + 4 * 12

    # with no subtree finished there is nothing to write: a limit among
    # the 465 first-row nodes, or one inside the first subtree
    for limit in (100, 470):
        writes.clear()
        fresh = tmp_path / f"limit{limit}.json"
        run(10, node_limit=limit, checkpoint=str(fresh))
        assert writes == [] and not fresh.exists(), limit


def test_an_interrupted_search_keeps_its_finished_subtrees(tmp_path, monkeypatch):
    run_branch = search_mod._run_branch
    jobs = []

    def interrupted_fifth(job):
        jobs.append(job)
        if len(jobs) == 5:
            raise KeyboardInterrupt
        return run_branch(job)

    monkeypatch.setattr(search_mod, "_run_branch", interrupted_fifth)
    path = tmp_path / "progress.json"
    with pytest.raises(KeyboardInterrupt):
        run(8, checkpoint=str(path))
    assert [r[0] for r in read_log(path)[1]] == [0, 1, 2, 3]

    monkeypatch.setattr(search_mod, "_run_branch", run_branch)
    resumed = run(8, checkpoint=str(path))
    nodes, profile = FINGERPRINTS[8]
    assert resumed.exhausted
    assert (resumed.nodes_visited, branch_profile(path)) == (nodes, profile)


def test_a_failed_write_is_not_retried(tmp_path, monkeypatch):
    calls = []

    def full_disk(data):
        calls.append(data)
        raise OSError("no space left on device")

    watch_log_writes(monkeypatch, full_disk)
    # the append after the first subtree fails and ends the search
    with pytest.raises(OSError):
        run(8, checkpoint=str(tmp_path / "progress.json"))
    assert len(calls) == 1


def test_a_short_write_ends_the_search_and_its_line_is_redone(tmp_path, monkeypatch):
    whole = tmp_path / "whole.json"
    run(8, checkpoint=str(whole))
    writes = []

    def short_second_write(data):
        # a full disk can take the first part of a write
        writes.append(data)
        return data[:len(data) // 2] if len(writes) == 2 else data

    watch_log_writes(monkeypatch, short_second_write)
    path = tmp_path / "progress.json"
    with pytest.raises(OSError, match="short write"):
        run(8, checkpoint=str(path))
    assert len(writes) == 2

    monkeypatch.delattr(search_mod, "open")
    resumed = run(8, checkpoint=str(path))
    nodes, _ = FINGERPRINTS[8]
    assert resumed.exhausted
    assert resumed.nodes_visited == nodes
    assert path.read_bytes() == whole.read_bytes()


def test_a_torn_final_record_is_dropped_and_redone(tmp_path):
    for k in (6, 8):
        nodes, _ = FINGERPRINTS[k]
        path = tmp_path / f"k{k}.json"
        run(k, checkpoint=str(path))
        whole = path.read_bytes()
        last = len(whole.splitlines()[-1]) + 1
        # a record without its newline, cut inside, or gone whole
        for cut in (1, 2, last - 1, last):
            path.write_bytes(whole[:-cut])
            out = run(k, checkpoint=str(path))
            assert out.exhausted
            assert out.nodes_visited == nodes
            assert path.read_bytes() == whole, (k, cut)


def test_a_log_without_a_complete_header_line_is_refused(tmp_path):
    path = tmp_path / "progress.json"
    run(8, checkpoint=str(path))
    header = path.read_bytes().splitlines()[0]
    for text in (header, header[:10]):
        path.write_bytes(text)
        with pytest.raises(CheckpointError, match="no complete header line") as info:
            run(8, checkpoint=str(path))
        assert str(path) in str(info.value)


def test_a_zero_byte_log_is_no_log(tmp_path):
    # a kill between the log's open and its first write leaves an empty
    # file: it holds no finished subtree, so the search starts afresh
    for k in (6, 8):
        fresh = tmp_path / f"fresh{k}.json"
        run(k, checkpoint=str(fresh))
        path = tmp_path / f"empty{k}.json"
        path.write_bytes(b"")
        out = run(k, checkpoint=str(path))
        nodes, _ = FINGERPRINTS[k]
        assert out.exhausted
        assert out.nodes_visited == nodes
        assert path.read_bytes() == fresh.read_bytes(), k

    # a node limit stops among the branches as with no file, which stays empty
    path.write_bytes(b"")
    out = run(8, node_limit=5, checkpoint=str(path))
    assert (out.exhausted, out.nodes_visited) == (False, 5)
    assert path.read_bytes() == b""


def test_a_schema_6_checkpoint_is_refused(tmp_path):
    # what the search wrote up to schema 6: one JSON object, rewritten
    # whole and with no newline
    path = tmp_path / "progress.json"
    run(6, checkpoint=str(path))
    header, (record,) = read_log(path)
    state = {"schema_version": 6, "k": 6, "branches": header["branches"], "done": [0],
             "nodes": 10, "solutions": record[2]}
    for text, message in ((json.dumps(state), "no complete header line"),
                          (json.dumps(state) + "\n", "schema 6, expected 8")):
        path.write_text(text)
        with pytest.raises(CheckpointError, match=message):
            run(6, checkpoint=str(path))


def test_a_node_limit_reads_a_checkpoint_of_the_same_search(tmp_path):
    # the stored branch list does not depend on the node limit: a limit
    # below the first-row branch count reads a finished k=8 checkpoint
    # as any other limit does
    path = str(tmp_path / "progress.json")
    full = run(8, checkpoint=path)
    for limit in (1, 5, 12, 13, 100):
        again = run(8, node_limit=limit, checkpoint=path)
        assert again.exhausted, limit
        assert again.nodes_visited == full.nodes_visited == FINGERPRINTS[8][0]

    # on an unfinished checkpoint, such a limit stops the search before
    # its next subtree, with the checkpoint's counts
    partial_path = tmp_path / "partial.json"
    partial = run(9, node_limit=100, checkpoint=str(partial_path))
    header, records = read_log(partial_path)
    assert 0 < len(records) < len(header["branches"])
    logged = partial_path.read_bytes()
    stopped = run(9, node_limit=5, checkpoint=str(partial_path))
    assert not stopped.exhausted
    assert stopped.nodes_visited == logged_nodes(partial_path) < partial.nodes_visited
    assert partial_path.read_bytes() == logged


def test_checkpoint_completed_run_short_circuits(tmp_path):
    path = str(tmp_path / "progress.json")
    first = run(6, checkpoint=path)
    again = run(6, checkpoint=path)
    assert again.exhausted
    assert [m.bits for m in again.solutions] == [m.bits for m in first.solutions]
    assert again.nodes_visited == first.nodes_visited


def test_a_rerun_checks_each_solution_once(tmp_path, monkeypatch):
    # a fresh solution is checked when its subtree is merged, a logged one
    # when the log is read, and neither again before it is emitted
    checked = []

    def counted(m):
        checked.append(m.bits)
        return biplane_mod.symmetric_canonical_defect(m)

    monkeypatch.setattr(search_mod, "symmetric_canonical_defect", counted)
    path = str(tmp_path / "progress.json")
    first = run(6, checkpoint=path)
    assert checked == [assemble_b4c().bits]
    checked.clear()
    again = run(6, checkpoint=path)
    assert checked == [assemble_b4c().bits]
    first_report, again_report = first.report(), again.report()
    first_report.pop("elapsed_seconds")
    again_report.pop("elapsed_seconds")
    assert again_report == first_report


def test_checkpoint_mismatch_rejected(tmp_path):
    path = str(tmp_path / "progress.json")
    run(6, checkpoint=path)
    with pytest.raises(CheckpointError, match="different search"):
        run(7, checkpoint=path)


# a k=6 log is its header and one record, [0, 9, [b4c's rows]]. The
# cases keep the names of the schema-6 checks they replace: "done" held
# the finished branch indices, now each record's first field, and
# "prunes" the counters, which records no longer hold
def put(key, value):
    return lambda log: log[0].__setitem__(key, value)


def drop(key):
    return lambda log: log[0].pop(key)


def put_field(n, value):
    # field n of the record: branch index, nodes, solutions
    return lambda log: log[1].__setitem__(n, value)


def schema_7(log):
    # what the search wrote at schema 7: a counter after each record's nodes
    log[0]["schema_version"] = 7
    for record in log[1:]:
        record.insert(2, 0)


BAD_CHECKPOINTS = {
    **{f"schema {n}": (put("schema_version", n), f"schema {n}, expected 8")
       for n in range(1, 7)},
    "schema 7 log": (schema_7, "schema 7, expected 8"),
    "no schema": (drop("schema_version"), "schema None"),
    "no done": (drop("branches"), "lacks the keys ['branches']"),
    "no k": (drop("k"), "lacks the keys ['k']"),
    "other k": (put("k", 7), "belongs to a different search"),
    "other branches": (put("branches", [0]), "branch list does not match"),
    "header not an object": (lambda log: log.__setitem__(0, []), "header is not a JSON object"),
    "no header": (lambda log: log.pop(0), "header is not a JSON object"),
    "no prunes": (lambda log: log[1].pop(2), "is not [branch, nodes, solutions]"),
    "extra prune key": (lambda log: log[1].append(0), "is not [branch, nodes"),
    "a schema 7 record": (lambda log: log[1].insert(2, 0), "is not [branch, nodes, solutions]"),
    "nodes not a count": (put_field(1, "9"), "line 2 node count is not a count"),
    "negative nodes": (put_field(1, -1), "line 2 node count is not a count"),
    "done repeats": (lambda log: log.append(log[1]), "line 3 branch is not a new branch index"),
    "done out of range": (put_field(0, 1), "branch is not a new branch index in 0..0"),
    "done negative": (put_field(0, -1), "branch is not a new branch index"),
    "done not an int": (put_field(0, "0"), "branch is not a new branch index"),
    "done a bool": (put_field(0, True), "branch is not a new branch index"),
    "done not a list": (lambda log: log.__setitem__(1, 0), "is not [branch, nodes"),
    "solutions not a list": (put_field(2, 0), "solutions are not 16-row"),
    "solution too short": (put_field(2, [[1, 2]]), "solutions are not 16-row"),
    "solution too wide": (put_field(2, [[1 << 16] * 16]), "solutions are not 16-row"),
    "solution not a biplane": (put_field(2, [[0] * 16]), "rejected solution: not a biplane"),
}


@pytest.mark.parametrize("case", sorted(BAD_CHECKPOINTS))
def test_malformed_checkpoint_rejected(tmp_path, case):
    path = tmp_path / "progress.json"
    run(6, checkpoint=str(path))
    log = [json.loads(line) for line in path.read_bytes().splitlines()]
    spoil, message = BAD_CHECKPOINTS[case]
    spoil(log)
    path.write_text("".join(json.dumps(line) + "\n" for line in log))
    with pytest.raises(CheckpointError, match=re.escape(message)) as info:
        run(6, checkpoint=str(path))
    assert str(path) in str(info.value)


@pytest.mark.parametrize("text", [
    "{not json", "[]", '{"schema_version":1,"k":6}', "[" * 100_000,
    pytest.param("\n", id="empty header line"),
    pytest.param("{not json\n", id="header line not json"),
    pytest.param("[]\n", id="header line a list"),
    pytest.param("[" * 100_000 + "\n", id="header line nested too deep"),
])
def test_checkpoint_that_is_not_a_search_state_rejected(tmp_path, text):
    path = tmp_path / "progress.json"
    path.write_text(text)
    with pytest.raises(CheckpointError) as info:
        run(6, checkpoint=str(path))
    assert str(path) in str(info.value)


def test_outcome_report():
    out = run(4)
    rep = out.report()
    assert rep["k"] == 4
    assert rep["v"] == head_width(4)
    assert rep["solution_count"] == 0
    assert rep["exhausted"] is True
    assert rep["prunes_by_rule"] == {}
    assert rep["solutions"] == []


def test_emitted_solutions_are_independently_verified(monkeypatch):
    def broken_verify(m):
        raise VerificationError("square", (0, 0), "forced failure")

    monkeypatch.setattr(biplane_mod, "verify_biplane", broken_verify)
    with pytest.raises(SearchBugError, match="must reject: not a biplane: forced failure"):
        search_mod.search_symmetric_canonical(SearchConfig(k=3))
