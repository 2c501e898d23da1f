"""Backtracking search: soundness, completeness, determinism, plumbing."""

import itertools
import json
import os
import re

import pytest

import biplane_schemes.search as search_mod
from biplane_schemes.binmat import BinaryMatrix
from biplane_schemes.biplane import VerificationError, assemble_b4c, head_width
from biplane_schemes.search import (
    DISABLEABLE_RULES,
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


COUNTERS = ("partial_dot", "deficit", "mirror_dot", "complete_dot")

# nodes and prunes per counter of the exhausted search, on every run path
FINGERPRINTS = {
    6: (51, (25, 16, 0, 0)),
    7: (563, (338, 185, 14, 0)),
    8: (33784, (22366, 8908, 1683, 42)),
}

# the same with mirror_dot disabled: the counts of the search without it
NO_MIRROR_FINGERPRINTS = {
    6: (51, (25, 16, 0, 0)),
    7: (673, (424, 221, 0, 0)),
    8: (48280, (34703, 12750, 0, 42)),
}

# with deficit disabled as well: partial_dot is then the only pruning
# rule, and nothing cuts a row short that can no longer reach sum k
NO_DEFICIT_FINGERPRINTS = {
    6: (130, (58, 0, 0, 0)),
    7: (3209, (1797, 0, 0, 0)),
    8: (336000, (218795, 0, 0, 84)),
}

# with partial_dot disabled: a 1 may then give the row a third meeting
# with an earlier row, and only the three plane shows complete_dot that
# meeting; without it these trees grow (k=7 to 1,145 nodes)
NO_PARTIAL_DOT_FINGERPRINTS = {
    7: (696, (0, 210, 330, 65)),
    8: (74181, (0, 16634, 33484, 11660)),
}

# runs stopped at 300,000 nodes with mirror_dot disabled: deep trees for
# the dot planes, with the counts of the dots-per-row loop they replaced
NO_MIRROR_NODE_LIMIT_FINGERPRINTS = {
    9: (230984, 66465, 0, 552),
    10: (236593, 60840, 0, 659),
    11: (236102, 56425, 0, 160),
}


def prunes(*counts):
    return dict(zip(COUNTERS, counts))


def run(k, **kwargs):
    disabled = kwargs.pop("disabled_rules", frozenset())
    checkpoint = kwargs.pop("checkpoint", None)
    return search_symmetric_canonical(
        SearchConfig(k=k, **kwargs),
        disabled_rules=disabled,
        checkpoint=checkpoint,
    )


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(k=2)
    with pytest.raises(ValueError):
        SearchConfig(k=4, max_solutions=0)
    with pytest.raises(ValueError):
        SearchConfig(k=4, node_limit=0)
    with pytest.raises(ValueError):
        SearchConfig(k=4, threads=0)
    with pytest.raises(ValueError):
        search_symmetric_canonical(SearchConfig(k=4), disabled_rules=frozenset({"bogus"}))


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


def rule_subsets():
    return [
        frozenset(subset)
        for size in range(len(DISABLEABLE_RULES) + 1)
        for subset in itertools.combinations(DISABLEABLE_RULES, size)
    ]


def test_monotone_pruning():
    subsets = rule_subsets()
    assert len(subsets) == 8
    for k in (3, 4, 5, 6, 7):
        base = run(k)
        for disabled in subsets:
            relaxed = run(k, disabled_rules=disabled)
            assert relaxed.exhausted
            assert [m.bits for m in relaxed.solutions] == [m.bits for m in base.solutions]
            assert relaxed.nodes_visited >= base.nodes_visited
            assert all(relaxed.prunes_by_rule[rule] == 0 for rule in disabled)


def test_without_mirror_dot_the_counts_are_unchanged():
    for k, (nodes, counts) in NO_MIRROR_FINGERPRINTS.items():
        out = run(k, disabled_rules=frozenset({"mirror_dot"}))
        assert out.exhausted
        assert out.nodes_visited == nodes
        assert out.prunes_by_rule == prunes(*counts)


def test_without_deficit_only_partial_dot_prunes():
    for k, (nodes, counts) in NO_DEFICIT_FINGERPRINTS.items():
        out = run(k, disabled_rules=frozenset({"deficit", "mirror_dot"}))
        assert out.exhausted
        assert out.nodes_visited == nodes
        assert out.prunes_by_rule == prunes(*counts)


def test_without_partial_dot_complete_dot_sees_third_meetings():
    for k, (nodes, counts) in NO_PARTIAL_DOT_FINGERPRINTS.items():
        out = run(k, disabled_rules=frozenset({"partial_dot"}))
        assert out.exhausted
        assert out.nodes_visited == nodes
        assert out.prunes_by_rule == prunes(*counts)


def test_deep_node_limited_counts_are_unchanged():
    for k, counts in NO_MIRROR_NODE_LIMIT_FINGERPRINTS.items():
        out = run(k, node_limit=300_000, disabled_rules=frozenset({"mirror_dot"}))
        assert not out.exhausted
        assert out.nodes_visited == 300_000
        assert out.prunes_by_rule == prunes(*counts)


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


def test_node_limit():
    for threads in (1, 2):  # a node limit runs in process either way
        out = run(7, node_limit=100, threads=threads)
        assert not out.exhausted
        assert out.nodes_visited == 100
        assert out.prunes_by_rule == prunes(54, 21, 1, 0)
        assert out.solutions == ()


def test_max_solutions_stops_early():
    out = run(6, max_solutions=1)
    assert len(out.solutions) == 1
    assert not out.exhausted  # stopped before covering the space

    # pool subtrees run to completion; the merged result is truncated
    pooled = run(6, max_solutions=1, threads=2)
    nodes, counts = FINGERPRINTS[6]
    assert pooled.exhausted
    assert pooled.nodes_visited == nodes
    assert pooled.prunes_by_rule == prunes(*counts)
    assert pooled.solutions == (assemble_b4c(),)


def counting_pools(monkeypatch):
    """Record the arguments of every process pool the search creates."""
    pools = []

    class CountingPool(search_mod.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(search_mod, "ProcessPoolExecutor", CountingPool)
    return pools


def test_checkpoint_keeps_the_pool(tmp_path, monkeypatch):
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


def test_failed_checkpoint_write_cancels_queued_subtrees(tmp_path, monkeypatch):
    futures = []

    class RecordingPool(search_mod.ProcessPoolExecutor):
        def submit(self, *args, **kwargs):
            futures.append(super().submit(*args, **kwargs))
            return futures[-1]

    def full_disk(target, state):
        raise OSError("no space left on device")

    monkeypatch.setattr(search_mod, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(search_mod, "_write_checkpoint", full_disk)
    with pytest.raises(OSError):
        run(8, threads=2, checkpoint=str(tmp_path / "progress.json"))
    assert len(futures) == 12
    assert any(f.cancelled() for f in futures)


def test_checkpoint_resume(tmp_path):
    clean = run(7)
    for threads in (1, 2):
        path = str(tmp_path / f"progress{threads}.json")
        partial = run(7, node_limit=400, checkpoint=path)
        assert not partial.exhausted
        state = json.loads(open(path).read())
        assert state["schema_version"] == 4
        assert 0 < len(state["done"]) < len(state["branches"])

        resumed = run(7, threads=threads, checkpoint=path)
        assert resumed.exhausted
        assert resumed.nodes_visited == clean.nodes_visited
        assert resumed.prunes_by_rule == clean.prunes_by_rule
        assert [m.bits for m in resumed.solutions] == [m.bits for m in clean.solutions]
        final = json.loads(open(path).read())
        assert len(final["done"]) == len(final["branches"])


def test_interrupted_pool_checkpoint_resumes(tmp_path, monkeypatch):
    path = str(tmp_path / "progress.json")
    write = search_mod._write_checkpoint

    class Killed(Exception):
        pass

    def write_once_then_die(target, state):
        if os.path.exists(target):
            raise Killed
        write(target, state)

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
    with pytest.raises(CheckpointError, match="different search"):
        run(6, checkpoint=path, disabled_rules=frozenset({"deficit"}))


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
    state["schema_version"] = 3
    state["prunes"]["row_fill"] = 0


def drop(key):
    return lambda state: state.pop(key)


def put(key, value):
    return lambda state: state.__setitem__(key, value)


def put_prune(key, value):
    return lambda state: state["prunes"].__setitem__(key, value)


BAD_CHECKPOINTS = {
    "schema 1": (schema_1, "schema 1, expected 4"),
    "schema 2": (schema_2, "schema 2, expected 4"),
    "schema 3": (schema_3, "schema 3, expected 4"),
    "no schema": (drop("schema_version"), "schema None"),
    "no done": (drop("done"), "lacks the keys ['done']"),
    "no prunes": (drop("prunes"), "lacks the keys ['prunes']"),
    "prunes lack deficit": (lambda s: s["prunes"].pop("deficit"), "prune counters"),
    "prunes lack mirror_dot": (lambda s: s["prunes"].pop("mirror_dot"), "prune counters"),
    "extra prune key": (put_prune("row_fill", 0), "prune counters"),
    "negative prune": (put_prune("deficit", -1), "prune counters"),
    "prunes not a dict": (put("prunes", [0, 0, 0, 0]), "prune counters"),
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
    assert set(rep["prunes_by_rule"]) >= set(DISABLEABLE_RULES)
    assert rep["solutions"] == []
    assert "solutions" not in out.report(include_solutions=False)


def test_emitted_solutions_are_independently_verified(monkeypatch):
    def broken_verify(m):
        raise VerificationError("square", (0, 0), "forced failure")

    monkeypatch.setattr(search_mod, "verify_biplane", broken_verify)
    with pytest.raises(SearchBugError):
        search_mod.search_symmetric_canonical(SearchConfig(k=3))
