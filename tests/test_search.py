"""Backtracking search: soundness, completeness, determinism, plumbing."""

import concurrent.futures
import itertools
import json
import os
import re
import time

import pytest

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


COUNTERS = ("complete_dot",)

# nodes and prunes per counter of the exhausted search, on every run path
FINGERPRINTS = {
    6: (10, (0,)),
    7: (3, (29,)),
    8: (12, (912,)),
    9: (190, (75353,)),
    10: (7845, (7019475,)),
}

# (k, node limit) -> (complete_dot, solutions) of runs stopped deep in
# trees that no exhausted tier-1 run reaches; at k=11 the first 3,507
# nodes place the first row
NODE_LIMIT_FINGERPRINTS = {
    (10, 5_000): (4416111, 0),
    (11, 10_000): (30783522, 24),
}


def prunes(*counts):
    return dict(zip(COUNTERS, counts))


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
    assert out.prunes_by_rule == prunes(7_019_475)


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
    assert a.prunes_by_rule == b.prunes_by_rule
    assert [m.bits for m in a.solutions] == [m.bits for m in b.solutions]


def test_two_factor_counts():
    # 2-regular graphs on m labels, OEIS A001205
    counts = [1, 0, 0, 1, 3, 12, 70, 465, 3507]
    assert [len(search_mod._two_factors(m)) for m in range(9)] == counts
    for m in range(9):
        for edges in search_mod._two_factors(m):
            degree = [0] * m
            for a, b in edges:
                degree[a] += 1
                degree[b] += 1
            assert degree == [2] * m


def test_candidates_are_the_brute_force_completions():
    # every way to put k - 3 ones into a tail row's tail columns that
    # meets each head row exactly twice is a candidate, and no other is
    for k in range(3, 9):
        v = head_width(k)
        head = canonical_head(k).bits
        base = search_mod._base_rows(k)
        for i, (cands, has, columns) in enumerate(search_mod._completion_tables(k), start=k):
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


def seeded_searcher(b9e, depth):
    """A k=11 searcher whose first depth tail rows keep only b9e's
    candidate, explored from the root."""
    k = 11
    searcher = search_mod._Searcher(k)
    masks, free = searcher.root()
    for i in range(k, k + depth):
        cands, _, columns = searcher.tables[i - k]
        masks[i] = 1 << cands.index(b9e.bits[i] & columns)
    searcher.explore(k, masks, free)  # row k keeps one candidate, the fewest
    return searcher


# tail rows of b9e fixed -> (nodes, complete_dot, solutions) of the
# completion, the seeded rows' nodes included. Two rows fix b9e; its
# first row alone has 8 completions
SEEDED_B9E = {
    4: (45, 94369, 1),
    3: (46, 97986, 1),
    2: (51, 103737, 1),
    1: (921, 2267567, 8),
}


def test_seeded_b9e_completes_to_itself():
    b9e = fixtures.b9e()
    cert = verify_biplane(b9e)
    assert (cert.k, cert.v) == (11, 56)
    assert cert.canonical and cert.full_trace and cert.symmetric

    for depth, (nodes, complete_dot, solutions) in SEEDED_B9E.items():
        searcher = seeded_searcher(b9e, depth)
        assert b9e.bits in searcher.solutions, depth
        assert len(set(searcher.solutions)) == solutions, depth
        assert searcher.nodes == nodes, depth
        assert searcher.prunes == {"complete_dot": complete_dot}, depth


class DefinitionCheckedSearcher(search_mod._Searcher):
    """Checks every node by brute force over the candidates. Once a row
    is placed, each unplaced row's mask must keep exactly the candidates
    that agree with the fixed entries and meet every placed tail row
    exactly twice, or, at a dead end, some unplaced row must keep none.
    And the row placed next must be the unplaced row with the fewest
    kept candidates, the lowest one on a tie."""

    checked = 0

    def __init__(self, k):
        super().__init__(k)
        self.choices = []  # the row each unfinished explore must place

    def _narrow(self, i, masks, free):
        narrowed = super()._narrow(i, masks, free)
        placed = [self.rows[p] for p in range(self.k, self.v) if not free >> p & 1]

        def definition(j):
            cands, _, columns = self.tables[j - self.k]
            row, fixed = self.rows[j], columns & ~free
            return sum(1 << n for n, cand in enumerate(cands) if (
                cand & fixed == row & fixed
                and all(((row | cand) & p).bit_count() == 2 for p in placed)))

        if narrowed is None:
            assert any(definition(j) == 0 for j in masks)
        else:
            assert narrowed[1] == {j: definition(j) for j in masks}
        DefinitionCheckedSearcher.checked += 1
        return narrowed

    def explore(self, i, masks, free):
        fewest = min((mask.bit_count() for mask in masks.values()), default=None)
        self.choices.append(next(
            (j for j in sorted(masks) if masks[j].bit_count() == fewest), None))
        super().explore(i, masks, free)
        self.choices.pop()

    def _descend(self, i, masks, free):
        # a subtree's first placed row is its branch, a candidate of the
        # root's choice: at the root every row keeps every candidate
        assert i == (self.choices[-1] if self.choices else self.k)
        super()._descend(i, masks, free)


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
            assert (out.nodes_visited, out.prunes_by_rule) == (
                FINGERPRINTS[k][0], prunes(*FINGERPRINTS[k][1]))
        assert DefinitionCheckedSearcher.checked == checks, k


def test_the_memo_stores_at_most_its_cap_per_row(monkeypatch):
    search_mod._meeting_masks.cache_clear()
    run(10)
    sizes = list(map(len, search_mod._meeting_masks(10)))
    assert (sum(sizes), max(sizes)) == (15_372, 1_729)
    assert max(sizes) <= search_mod._MEMO_MASKS_PER_ROW

    # a full memo computes its misses without storing them, and the
    # search is the same, down to no memo at all
    nodes, counts = FINGERPRINTS[10]
    for cap in (1_000, 0):
        monkeypatch.setattr(search_mod, "_MEMO_MASKS_PER_ROW", cap)
        search_mod._meeting_masks.cache_clear()
        out = run(10)
        assert max(map(len, search_mod._meeting_masks(10))) == cap
        assert (out.nodes_visited, out.prunes_by_rule) == (nodes, prunes(*counts))
        assert out.exhausted and out.solutions == ()
    search_mod._meeting_masks.cache_clear()


def test_deep_node_limited_counts_are_unchanged():
    for (k, limit), (complete_dot, solutions) in NODE_LIMIT_FINGERPRINTS.items():
        out = run(k, node_limit=limit)
        assert not out.exhausted
        assert out.nodes_visited == limit
        assert out.prunes_by_rule == prunes(complete_dot)
        assert len(out.solutions) == solutions


def test_parallel_matches_sequential(tmp_path):
    for k, (nodes, counts) in FINGERPRINTS.items():
        paths = {
            "sequential": run(k),
            "checkpoint": run(k, checkpoint=str(tmp_path / f"seq{k}.json")),
            "pool": run(k, threads=2),
            "pool+checkpoint": run(k, threads=2, checkpoint=str(tmp_path / f"pool{k}.json")),
        }
        seq = paths["sequential"]
        for name, out in paths.items():
            assert out.exhausted, name
            assert out.nodes_visited == nodes, name
            assert out.prunes_by_rule == prunes(*counts), name
            assert [m.bits for m in out.solutions] == [m.bits for m in seq.solutions], name


# (k, node limit) -> (nodes, complete_dot). The first tail row's
# candidates are the branches and count one node each (k=8 has 12 of
# them, k=9 70, k=10 465, k=3 one and k=11 3,507), so most of these
# runs stop at or just past that row
NODE_LIMITS = {
    (8, 5): (5, 0),
    (8, 12): (12, 0),
    (9, 70): (70, 0),
    (9, 73): (73, 2759),
    (9, 100): (100, 19477),
    (10, 500): (500, 44209),
    (3, 1): (1, 0),
    (11, 100): (100, 0),
}


def test_node_limit():
    for (k, limit), (nodes, complete_dot) in NODE_LIMITS.items():
        for threads in (1, 2):  # a node limit runs in process either way
            out = run(k, node_limit=limit, threads=threads)
            assert not out.exhausted, (k, limit)
            assert out.nodes_visited == nodes, (k, limit)
            assert out.prunes_by_rule == prunes(complete_dot), (k, limit)
            assert out.solutions == ()


def test_max_solutions_stops_early():
    out = run(6, max_solutions=1)
    assert len(out.solutions) == 1
    assert not out.exhausted  # stopped before covering the space


def test_the_thread_count_changes_no_in_process_result():
    # none of these runs passes _POOL_AFTER_NODES, so every subtree runs
    # in process and stops at the limits whatever the thread count
    cases = [{"k": k} for k in FINGERPRINTS]
    cases += [{"k": k, "node_limit": limit} for k, limit in NODE_LIMITS]
    cases.append({"k": 6, "max_solutions": 1})
    for case in cases:
        reports = []
        for threads in (1, 2):
            report = run(threads=threads, **case).report()
            del report["elapsed_seconds"]
            reports.append(report)
        assert reports[0] == reports[1], case


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


def pools_at_writes(monkeypatch, pools):
    """Record, at each checkpoint write, how many pools have started."""
    seen = []
    write = search_mod._write_checkpoint

    def recording_write(target, state):
        seen.append(len(pools))
        write(target, state)

    monkeypatch.setattr(search_mod, "_write_checkpoint", recording_write)
    return seen


def test_checkpoint_keeps_the_pool(tmp_path, monkeypatch):
    monkeypatch.setattr(search_mod, "_POOL_AFTER_NODES", 0)
    pools = counting_pools(monkeypatch)
    run(7, threads=2, checkpoint=str(tmp_path / "progress.json"))
    assert pools == [(2,)]
    run(7, threads=2, node_limit=10**6)
    assert pools == [(2,)]


def test_a_lone_subtree_skips_the_pool(monkeypatch):
    pools = counting_pools(monkeypatch)
    out = run(6, threads=2)  # k=6 has one first-row branch
    nodes, counts = FINGERPRINTS[6]
    assert out.exhausted
    assert out.nodes_visited == nodes
    assert out.prunes_by_rule == prunes(*counts)
    assert out.solutions == (assemble_b4c(),)
    assert pools == []


def test_small_searches_skip_the_pool(monkeypatch):
    # k=7 to k=10 exhaust in fewer nodes than a pool is worth
    pools = counting_pools(monkeypatch)
    for k in (7, 8, 9, 10):
        nodes, counts = FINGERPRINTS[k]
        out = run(k, threads=2)
        assert out.exhausted
        assert out.nodes_visited == nodes
        assert out.prunes_by_rule == prunes(*counts)
        assert out.solutions == ()
    assert pools == []


def test_the_pool_starts_once_the_search_is_big(tmp_path, monkeypatch):
    # one checkpoint write after every subtree
    monkeypatch.setattr(search_mod, "_CHECKPOINT_EVERY_S", 0)
    seq_path = str(tmp_path / "sequential.json")
    seq = run(10, checkpoint=seq_path)
    monkeypatch.setattr(search_mod, "_POOL_AFTER_NODES", 480)
    pools = counting_pools(monkeypatch)
    seen = pools_at_writes(monkeypatch, pools)
    path = str(tmp_path / "progress.json")
    out = run(10, threads=2, checkpoint=path)
    # 465 first-row nodes and 12 in each of the first subtrees: 477
    # after the first subtree, 489 after the second, so the other 463
    # go to the pool
    assert pools == [(2,)]
    assert seen == [0, 0] + [1] * 463
    assert out.exhausted
    assert out.nodes_visited == seq.nodes_visited
    assert out.prunes_by_rule == seq.prunes_by_rule
    assert [m.bits for m in out.solutions] == [m.bits for m in seq.solutions]
    assert json.loads(open(path).read())["done"] == json.loads(open(seq_path).read())["done"]


def test_a_resumed_big_search_pools_at_once(tmp_path, monkeypatch):
    # one checkpoint write after every subtree
    monkeypatch.setattr(search_mod, "_CHECKPOINT_EVERY_S", 0)
    path = str(tmp_path / "progress.json")
    run(10, node_limit=520, checkpoint=path)
    state = json.loads(open(path).read())
    # the fifth subtree holds 17 nodes and trips the limit
    assert state["nodes"] == 465 + 4 * 12
    assert state["done"] == [0, 1, 2, 3]

    monkeypatch.setattr(search_mod, "_POOL_AFTER_NODES", 500)
    pools = counting_pools(monkeypatch)
    seen = pools_at_writes(monkeypatch, pools)
    out = run(10, threads=2, checkpoint=path)
    assert pools == [(2,)]
    assert seen == [1] * 461  # every remaining subtree ran on the pool
    nodes, counts = FINGERPRINTS[10]
    assert out.exhausted
    assert out.nodes_visited == nodes
    assert out.prunes_by_rule == prunes(*counts)
    assert out.solutions == ()


_RUN_BRANCH = search_mod._run_branch


def slow_after_the_first_branch(job):
    """_run_branch, with a 0.2 s sleep in every subtree but the first.

    Defined at module level, so that pool workers can unpickle it.
    """
    k, branch_bits = job[:2]
    if branch_bits != search_mod._base_rows(k)[k] | search_mod._completion_tables(k)[0][0][0]:
        time.sleep(0.2)
    return _RUN_BRANCH(job)


def test_failed_checkpoint_write_cancels_queued_subtrees(tmp_path, monkeypatch):
    # one checkpoint write after every subtree; the slow subtrees are
    # still queued when the first result fails its write
    monkeypatch.setattr(search_mod, "_CHECKPOINT_EVERY_S", 0)
    monkeypatch.setattr(search_mod, "_run_branch", slow_after_the_first_branch)
    futures = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def submit(self, *args, **kwargs):
            futures.append(super().submit(*args, **kwargs))
            return futures[-1]

    def full_disk(target, state):
        raise OSError("no space left on device")

    monkeypatch.setattr(search_mod, "_POOL_AFTER_NODES", 0)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(search_mod, "_write_checkpoint", full_disk)
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
        state = json.loads(open(path).read())
        assert state["schema_version"] == 6
        assert 0 < len(state["done"]) < len(state["branches"])

        resumed = run(9, threads=threads, checkpoint=path)
        assert resumed.exhausted
        assert resumed.nodes_visited == clean.nodes_visited
        assert resumed.prunes_by_rule == clean.prunes_by_rule
        assert [m.bits for m in resumed.solutions] == [m.bits for m in clean.solutions]
        final = json.loads(open(path).read())
        assert len(final["done"]) == len(final["branches"])


def test_interrupted_pool_checkpoint_resumes(tmp_path, monkeypatch):
    # one checkpoint write after every subtree
    monkeypatch.setattr(search_mod, "_CHECKPOINT_EVERY_S", 0)
    path = str(tmp_path / "progress.json")
    write = search_mod._write_checkpoint

    class Killed(Exception):
        pass

    def write_once_then_die(target, state):
        if os.path.exists(target):
            raise Killed
        write(target, state)

    monkeypatch.setattr(search_mod, "_POOL_AFTER_NODES", 0)
    monkeypatch.setattr(search_mod, "_write_checkpoint", write_once_then_die)
    with pytest.raises(Killed):
        run(7, threads=2, checkpoint=path)
    state = json.loads(open(path).read())
    assert state["done"] == [0]
    assert len(state["branches"]) == 3

    monkeypatch.setattr(search_mod, "_write_checkpoint", write)
    resumed = run(7, threads=2, checkpoint=path)
    nodes, counts = FINGERPRINTS[7]
    assert resumed.exhausted
    assert resumed.nodes_visited == nodes
    assert resumed.prunes_by_rule == prunes(*counts)
    assert resumed.solutions == ()


def recording_writes(monkeypatch):
    """Record the done list of every checkpoint write."""
    written = []
    write = search_mod._write_checkpoint

    def recording_write(target, state):
        written.append(list(state["done"]))
        write(target, state)

    monkeypatch.setattr(search_mod, "_write_checkpoint", recording_write)
    return written


def test_an_exhausted_search_writes_its_checkpoint_once(tmp_path, monkeypatch):
    written = recording_writes(monkeypatch)
    for k, (nodes, counts) in FINGERPRINTS.items():
        for threads in (1, 2):
            files = {}
            for every in (0, float("inf")):
                monkeypatch.setattr(search_mod, "_CHECKPOINT_EVERY_S", every)
                path = tmp_path / f"k{k}-{threads}-{every}.json"
                written.clear()
                out = run(k, threads=threads, checkpoint=str(path))
                assert out.exhausted
                assert (out.nodes_visited, out.prunes_by_rule) == (nodes, prunes(*counts))
                files[every] = path.read_bytes()
            # the one write leaves the file a write after every subtree does
            branches = list(range(len(json.loads(files[0])["branches"])))
            assert written == [branches], (k, threads)
            assert files[float("inf")] == files[0], (k, threads)


def test_a_tripped_limit_keeps_the_counts_before_its_subtree(tmp_path, monkeypatch):
    monkeypatch.setattr(search_mod, "_CHECKPOINT_EVERY_S", float("inf"))
    written = recording_writes(monkeypatch)
    path = tmp_path / "progress.json"
    # the fifth subtree holds 17 nodes and trips the limit
    out = run(10, node_limit=520, checkpoint=str(path))
    assert out.nodes_visited == 520
    assert written == [[0, 1, 2, 3]]
    state = json.loads(path.read_text())
    assert (state["done"], state["nodes"]) == ([0, 1, 2, 3], 465 + 4 * 12)

    # with no subtree finished there is nothing to write: a limit among
    # the 465 first-row nodes, or one inside the first subtree
    for limit in (100, 470):
        written.clear()
        fresh = tmp_path / f"limit{limit}.json"
        run(10, node_limit=limit, checkpoint=str(fresh))
        assert written == [] and not fresh.exists(), limit


def test_an_interrupted_search_keeps_its_finished_subtrees(tmp_path, monkeypatch):
    monkeypatch.setattr(search_mod, "_CHECKPOINT_EVERY_S", float("inf"))
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
    assert json.loads(path.read_text())["done"] == [0, 1, 2, 3]

    monkeypatch.setattr(search_mod, "_run_branch", run_branch)
    resumed = run(8, checkpoint=str(path))
    nodes, counts = FINGERPRINTS[8]
    assert resumed.exhausted
    assert (resumed.nodes_visited, resumed.prunes_by_rule) == (nodes, prunes(*counts))


def test_a_failed_write_is_not_retried(tmp_path, monkeypatch):
    calls = []

    def full_disk(target, state):
        calls.append(target)
        raise OSError("no space left on device")

    monkeypatch.setattr(search_mod, "_write_checkpoint", full_disk)
    # the write after the first subtree, or the one when the loop ends
    for every in (0, float("inf")):
        monkeypatch.setattr(search_mod, "_CHECKPOINT_EVERY_S", every)
        calls.clear()
        with pytest.raises(OSError):
            run(8, checkpoint=str(tmp_path / "progress.json"))
        assert len(calls) == 1, every


def test_a_node_limit_reads_a_checkpoint_of_the_same_search(tmp_path):
    # the stored branch list does not depend on the node limit: a limit
    # below the first-row branch count reads a finished k=8 checkpoint
    # as any other limit does
    path = str(tmp_path / "progress.json")
    full = run(8, checkpoint=path)
    nodes, _ = FINGERPRINTS[8]
    for limit in (1, 5, 12, 13, 100):
        again = run(8, node_limit=limit, checkpoint=path)
        assert again.exhausted, limit
        assert (again.nodes_visited, again.prunes_by_rule) == (nodes, full.prunes_by_rule)

    # on an unfinished checkpoint, such a limit stops the search before
    # its next subtree, with the checkpoint's counts
    partial_path = str(tmp_path / "partial.json")
    partial = run(9, node_limit=100, checkpoint=partial_path)
    state = json.loads(open(partial_path).read())
    assert 0 < len(state["done"]) < len(state["branches"])
    stopped = run(9, node_limit=5, checkpoint=partial_path)
    assert not stopped.exhausted
    assert stopped.nodes_visited == state["nodes"] < partial.nodes_visited
    assert json.loads(open(partial_path).read()) == state


def test_checkpoint_completed_run_short_circuits(tmp_path):
    path = str(tmp_path / "progress.json")
    first = run(6, checkpoint=path)
    again = run(6, checkpoint=path)
    assert again.exhausted
    assert [m.bits for m in again.solutions] == [m.bits for m in first.solutions]
    assert again.nodes_visited == first.nodes_visited


def test_checkpoint_mismatch_rejected(tmp_path):
    path = str(tmp_path / "progress.json")
    run(6, checkpoint=path)
    with pytest.raises(CheckpointError, match="different search"):
        run(7, checkpoint=path)


def schema_1(state):
    # what the search wrote before the deficit rule had a counter
    schema_2(state)
    state["schema_version"] = 1
    del state["prunes"]["deficit"]


def schema_2(state):
    # what the search wrote before the mirror_dot rule had a counter
    schema_3(state)
    state["schema_version"] = 2
    del state["prunes"]["mirror_dot"]


def schema_3(state):
    # what the search wrote while it still had the row_fill rule
    schema_4(state)
    state["schema_version"] = 3
    state["prunes"]["row_fill"] = 0


def schema_4(state):
    # what the cell-by-cell search wrote, with its three pruning rules
    state["schema_version"] = 4
    state["disabled_rules"] = []
    state["prunes"].update(partial_dot=0, deficit=0, mirror_dot=0)


def schema_5(state):
    # what the fixed top-to-bottom row order wrote: the same keys, but
    # the nodes and prunes of another tree
    state["schema_version"] = 5


def drop(key):
    return lambda state: state.pop(key)


def put(key, value):
    return lambda state: state.__setitem__(key, value)


def put_prune(key, value):
    return lambda state: state["prunes"].__setitem__(key, value)


BAD_CHECKPOINTS = {
    "schema 1": (schema_1, "schema 1, expected 6"),
    "schema 2": (schema_2, "schema 2, expected 6"),
    "schema 3": (schema_3, "schema 3, expected 6"),
    "schema 4": (schema_4, "schema 4, expected 6"),
    "schema 5": (schema_5, "schema 5, expected 6"),
    "no schema": (drop("schema_version"), "schema None"),
    "no done": (drop("done"), "lacks the keys ['done']"),
    "no prunes": (drop("prunes"), "lacks the keys ['prunes']"),
    "prunes lack complete_dot": (lambda s: s["prunes"].pop("complete_dot"), "prune counters"),
    "extra prune key": (put_prune("deficit", 0), "prune counters"),
    "negative prune": (put_prune("complete_dot", -1), "prune counters"),
    "prunes not a dict": (put("prunes", [0]), "prune counters"),
    "nodes not a count": (put("nodes", "51"), "node count"),
    "done repeats": (put("done", [0, 0]), "done list"),
    "done out of range": (put("done", [1]), "done list"),
    "done negative": (put("done", [-1]), "done list"),
    "done not an int": (put("done", ["0"]), "done list"),
    "done a bool": (put("done", [True]), "done list"),
    "done not a list": (put("done", 0), "done list"),
    "solution too short": (put("solutions", [[1, 2]]), "solutions are not 16-row"),
    "solution too wide": (put("solutions", [[1 << 16] * 16]), "solutions are not 16-row"),
    "solution not a biplane": (put("solutions", [[0] * 16]), "fails verification"),
}


@pytest.mark.parametrize("case", sorted(BAD_CHECKPOINTS))
def test_malformed_checkpoint_rejected(tmp_path, case):
    path = tmp_path / "progress.json"
    run(6, checkpoint=str(path))
    state = json.loads(path.read_text())
    spoil, message = BAD_CHECKPOINTS[case]
    spoil(state)
    path.write_text(json.dumps(state))
    with pytest.raises(CheckpointError, match=re.escape(message)) as info:
        run(6, checkpoint=str(path))
    assert str(path) in str(info.value)


@pytest.mark.parametrize("text", ["{not json", "", "[]", '{"schema_version":1,"k":6}',
                                  "[" * 100_000])
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
    assert set(rep["prunes_by_rule"]) == set(COUNTERS)
    assert rep["solutions"] == []


def test_emitted_solutions_are_independently_verified(monkeypatch):
    def broken_verify(m):
        raise VerificationError("square", (0, 0), "forced failure")

    monkeypatch.setattr(search_mod, "verify_biplane", broken_verify)
    with pytest.raises(SearchBugError):
        search_mod.search_symmetric_canonical(SearchConfig(k=3))
