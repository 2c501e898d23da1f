"""Exhaustive search for symmetric canonical biplane matrices with full trace.

The head rows and columns of a canonical matrix are forced, and so is
the diagonal once full trace is required, so the only freedom is the
upper triangle of the tail block. Tail row i belongs to pair column
i = {s, t} of the labels 1..k-1. Its forced entries, head columns s and
t and the diagonal, already meet head rows 0, s and t twice each, and
every other head row u has its ones in column 0 and the pair columns
that contain u. So the row's k - 3 free ones are pair columns that
avoid s and t and hold each of the other k - 3 labels exactly twice:
the edges of a 2-factor (a 2-regular graph) on those labels. Conversely
each such 2-factor completes the row to sum k, meeting every head row
exactly twice.

The search therefore places whole tail rows and mirrors each placed
row across the diagonal. A row's candidates are its 2-factors mapped to
its pair columns, built once per k; has[c] holds, as the bits of one
integer, the candidates with a 1 in column c.

Each unplaced tail row keeps a mask, the bitset of its candidates that
agree with the entries placed rows have fixed in it and meet every
placed row exactly twice. Placing row i narrows the mask of every
unplaced row j in two steps. The entry (i, j) is now fixed, so the mask
keeps has[i] or its complement. And rows i and j must meet twice: if
they meet d times in the columns already fixed in row j, and rest is
row i's ones in j's still-free columns, the mask keeps the candidates
with exactly owed = 2 - d ones in rest. Those ones are counted for all
candidates at once in three bit planes (candidates with at least 1, 2
and 3 of them): a column c turns them into ones | has[c],
twos | (ones & has[c]) and three | (twos & has[c]). owed < 0, or a mask
left empty, is a dead end.

The masks stay exact. The meeting mask ANDed in when row i is placed is
a condition on row j's whole row, and later placements only fix entries
of that row, so it never needs checking again: every pair of tail rows
is checked exactly once, when the first of the two is placed, and no
pruning rule is needed. The next row placed is the unplaced one whose
mask keeps the fewest candidates, the lowest row on a tie. A node is
one placed row. complete_dot counts, summed over every mask update, the
candidates that agreed with the fixed entries but were removed by the
meeting mask. Exhausting k=8 takes 12 nodes, k=9 190 and k=10 7,845.
Emitted solutions are re-verified through the independent biplane
verifier; disagreement raises SearchBugError.

A meeting mask depends only on its row j, rest and owed, so each tail
row has a memo from rest << 2 | owed to the mask, filled on a miss by
the plane loop. The memos live per process, like the tables: nothing
is built at import, the first search at a k makes them, and each pool
worker fills its own. A memo stores at most _MEMO_MASKS_PER_ROW masks;
once full, misses are computed and not stored. Exhausting k=10 stores
15,372 masks, at most 1,729 in one row. At k=11 a mask has up to 3,507
bits, and 100,000 nodes fill the capped memos with 175,904 masks, at
about 140 MB peak RSS against 216 MB with no cap.

At the root no row is placed, so every tail row keeps all of its
candidates and the tie puts row k first. Its candidates partition the
space into disjoint subtrees, the branches, each counted as one node;
a node limit that trips among them stops the search before any
subtree runs.
One loop runs the subtrees in order and merges their counters and
solutions. It records the finished subtrees in the checkpoint file at
most once every _CHECKPOINT_EVERY_S seconds, once more when it ends,
and when an interrupt or a worker error escapes a subtree. The
subtrees run in this process, under the node and solution budgets,
until the search has visited _POOL_AFTER_NODES nodes. With several
threads and no node limit the rest, if two or more, then go to a pool
of worker processes and run to completion. So a small search never pays
to start workers, a resumed big one starts them at once, and the thread
count changes no result of a search that stays in process.
Checkpoints have schema 6: the counts of a schema-5 file come from the
fixed top-to-bottom row order, another tree, so it is refused.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import dataclass
from itertools import product
from typing import Optional

from .binmat import BinaryMatrix, _Trap
from .biplane import (
    VerificationError,
    canonical_head,
    head_width,
    verify_biplane,
)

_COUNTER_KEYS = ("complete_dot",)

CHECKPOINT_SCHEMA = 6

# nodes a search visits in process before it hands its remaining
# subtrees to worker processes. Starting 2 workers costs 15-45 ms on 2
# cores, and each builds its own tables; the search visits 40-80k
# nodes/s at k=10 and about 10k at k=11. So k <= 10 (7,845 nodes) never
# pools: k=10 on 2 threads takes 0.18-0.22 s in process, against
# 0.27-0.32 s with the pool started at once. k=11 pools after about 1 s
_POOL_AFTER_NODES = 10_000

# seconds between checkpoint writes. A write dumps the whole state: the
# branch list (84 KB at k=11, 846 KB at k=12) and every solution so far
# (2.5 MB by the end of k=11). Written after each of its 3,507 subtrees,
# an unbroken k=11 run spent more time writing than searching. A hard
# kill loses at most this much finished work
_CHECKPOINT_EVERY_S = 1.0

# masks a tail row's memo stores: at k <= 10 every mask fits, and at
# k=11, where a mask takes about 0.5 kB, an unbroken run fills the 44
# memos that can be read (180,224 masks) and peaks at 144 MB RSS
_MEMO_MASKS_PER_ROW = 4096


class SearchBugError(_Trap, RuntimeError):
    """An emitted solution failed independent re-verification."""


class CheckpointError(ValueError):
    """A checkpoint file is malformed or belongs to another search."""


@dataclass(frozen=True)
class SearchConfig:
    k: int
    max_solutions: Optional[int] = None
    node_limit: Optional[int] = None
    threads: int = 1

    def __post_init__(self) -> None:
        if self.k < 3:
            raise ValueError(f"search needs k >= 3, got {self.k}")
        if self.max_solutions is not None and self.max_solutions < 1:
            raise ValueError("max_solutions must be at least 1")
        if self.node_limit is not None and self.node_limit < 1:
            raise ValueError("node_limit must be at least 1")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")


@dataclass(eq=False)
class SearchOutcome:
    k: int
    v: int
    solutions: tuple[BinaryMatrix, ...]
    exhausted: bool
    nodes_visited: int
    prunes_by_rule: dict
    elapsed_seconds: float

    def report(self) -> dict:
        return {
            "k": self.k,
            "v": self.v,
            "solution_count": len(self.solutions),
            "exhausted": self.exhausted,
            "nodes_visited": self.nodes_visited,
            "prunes_by_rule": dict(self.prunes_by_rule),
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "solutions": [m.to_lists() for m in self.solutions],
        }


@functools.lru_cache(maxsize=None)
def _base_rows(k: int) -> tuple[int, ...]:
    """The forced part of every row: the head rows, then each tail row's
    head-column prefix (the head's transpose) and its diagonal bit."""
    head = canonical_head(k)
    prefixes = head.transpose().bits[k:]
    return head.bits + tuple(p | (1 << i) for i, p in enumerate(prefixes, start=k))


def _two_factors(m: int) -> list[tuple[tuple[int, int], ...]]:
    """Every 2-regular graph on the labels 0..m-1, as sorted edge tuples.

    The cycle through the lowest label left is chosen first; its second
    label is below its last, so each cycle is listed once.
    """
    found: list[tuple[tuple[int, int], ...]] = []

    def cycles(path: list[int], left: tuple[int, ...], edges: list) -> None:
        if len(path) >= 3 and path[1] < path[-1]:
            closed = zip(path, path[1:] + path[:1])
            rest(left, edges + [(min(a, b), max(a, b)) for a, b in closed])
        for n, x in enumerate(left):
            cycles(path + [x], left[:n] + left[n + 1:], edges)

    def rest(left: tuple[int, ...], edges: list) -> None:
        if not left:
            found.append(tuple(sorted(edges)))
        else:
            cycles([left[0]], left[1:], edges)

    rest(tuple(range(m)), [])
    return found


@functools.lru_cache(maxsize=None)
def _completion_tables(k: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]:
    """For each tail row k..v-1: its candidates (its 2-factors as bits
    over its pair columns), has[c] (the bitset of candidates with a 1 in
    column c) and the bitmask of the columns any candidate uses."""
    pairs = [(s, t) for s in range(k) for t in range(s + 1, k)]
    column = {pair: 1 + n for n, pair in enumerate(pairs)}
    factors = _two_factors(k - 3)
    # one edge of the generic labels 0..k-4 -> the factors that hold it
    holding: dict[tuple[int, int], int] = {}
    for j, edges in enumerate(factors):
        for e in edges:
            holding[e] = holding.get(e, 0) | (1 << j)
    v = head_width(k)
    tables = []
    for s, t in pairs[k - 1:]:
        labels = [u for u in range(1, k) if u not in (s, t)]
        has = [0] * v
        for (a, b), held in holding.items():
            has[column[labels[a], labels[b]]] = held
        # candidate j's columns are bit j of each has[c]; k = 4 and 5 have none
        cands = BinaryMatrix(v, len(factors), tuple(has)).transpose().bits if factors else ()
        tables.append((cands, tuple(has), sum(1 << c for c, held in enumerate(has) if held)))
    return tuple(tables)


@functools.lru_cache(maxsize=None)
def _meeting_masks(k: int) -> tuple[dict[int, int], ...]:
    """One memo per tail row, filled by the searches of this process up
    to _MEMO_MASKS_PER_ROW entries: rest << 2 | owed ->
    _meeting_mask(has, rest, owed). A value depends only on its key and
    k, so sharing the memos cannot change a result."""
    return tuple({} for _ in range(head_width(k) - k))


def _meeting_mask(has: tuple[int, ...], rest: int, owed: int) -> int:
    """The bitset of candidates with exactly owed ones in the columns of
    rest, for owed in 0..2."""
    ones = twos = three = 0
    while rest:
        low = rest & -rest
        rest ^= low
        a = has[low.bit_length() - 1]
        three |= twos & a
        twos |= ones & a
        ones |= a
    return (~ones, ones & ~twos, twos & ~three)[owed]


class _Searcher:
    """Mutable depth-first state for one subtree of the search."""

    def __init__(self, k: int):
        self.k = k
        self.v = head_width(k)
        self.rows = list(_base_rows(k))
        self.tables = _completion_tables(k)
        self.memo = _meeting_masks(k)
        self.nodes = 0
        self.prunes = dict.fromkeys(_COUNTER_KEYS, 0)
        self.solutions: list[tuple[int, ...]] = []
        self.node_limit: Optional[int] = None
        self.max_solutions: Optional[int] = None
        self.stopped = False

    def root(self) -> tuple[dict[int, int], int]:
        """The masks of the root, where every tail row keeps all of its
        candidates, and the bits of the unplaced rows."""
        everything = (1 << len(self.tables[0][0])) - 1
        tail = range(self.k, self.v)
        return dict.fromkeys(tail, everything), sum(1 << i for i in tail)

    # -- depth-first search, one row per node --------------------------------

    def explore(self, i: Optional[int], masks: dict[int, int], free: int) -> None:
        """Place row i in each way its mask keeps; i is the unplaced row
        with the fewest kept candidates, the lowest one on a tie, or None
        once every row is placed. masks maps each unplaced row, i
        included, to its kept candidates, and loses i here; free holds
        the unplaced rows' bits."""
        if i is None:
            self._record_solution()
            return
        alive = masks.pop(i)
        free ^= 1 << i
        rows = self.rows
        row = rows[i]
        cands = self.tables[i - self.k][0]
        limit = self.node_limit
        while alive:
            low = alive & -alive
            alive ^= low
            self.nodes += 1
            if limit is not None and self.nodes >= limit:
                self.stopped = True
                return
            rows[i] = row | cands[low.bit_length() - 1]
            self._descend(i, masks, free)
            rows[i] = row
            if self.stopped:
                return

    def _descend(self, i: int, masks: dict[int, int], free: int) -> None:
        """Mirror the placed row i into the unplaced rows, narrow their
        masks and explore them, then undo the mirror."""
        rows, bit = self.rows, 1 << i
        later = rows[i] & free
        mirrored = []
        while later:
            low = later & -later
            later ^= low
            c = low.bit_length() - 1
            rows[c] |= bit
            mirrored.append(c)
        narrowed = self._narrow(i, masks, free)
        if narrowed is not None:
            self.explore(*narrowed, free)
        for c in mirrored:
            rows[c] ^= bit

    def _narrow(
        self, i: int, masks: dict[int, int], free: int
    ) -> Optional[tuple[Optional[int], dict[int, int]]]:
        """Once row i is placed: the unplaced row with the fewest kept
        candidates (the lowest on a tie, as masks run in row order) and
        the narrowed masks of the unplaced rows, or None when some row
        keeps no candidate."""
        rows, k, tables, memos = self.rows, self.k, self.tables, self.memo
        placed = rows[i]
        narrowed = {}
        rejected = 0
        fewest = chosen = None
        for j, mask in masks.items():
            _, has, columns = tables[j - k]
            # the entry (i, j) is now fixed
            if columns >> i & 1:
                mask &= has[i] if placed >> j & 1 else ~has[i]
            # and row j must meet row i owed more times in its free columns
            owed = 2 - (placed & rows[j]).bit_count()
            if owed < 0:
                meeting = 0
            else:
                rest = placed & columns & free
                key = rest << 2 | owed
                memo = memos[j - k]
                meeting = memo.get(key)
                if meeting is None:
                    meeting = _meeting_mask(has, rest, owed)
                    if len(memo) < _MEMO_MASKS_PER_ROW:
                        memo[key] = meeting
            agreeing = mask.bit_count()
            mask &= meeting
            kept = mask.bit_count()
            rejected += agreeing - kept
            if not kept:
                narrowed = None
                break
            if fewest is None or kept < fewest:
                fewest, chosen = kept, j
            narrowed[j] = mask
        self.prunes["complete_dot"] += rejected
        return None if narrowed is None else (chosen, narrowed)

    def _record_solution(self) -> None:
        self.solutions.append(tuple(self.rows))
        if (
            self.max_solutions is not None
            and len(self.solutions) >= self.max_solutions
        ):
            self.stopped = True


def _run_branch(job: tuple) -> tuple:
    """Run the subtree under one placement of the first tail row.

    job is (k, branch_bits, node_budget, solution_budget). A budget of
    None is unlimited; one at or below 0 stops the branch before its
    first node. Returns (nodes, prunes, solutions, stopped).
    """
    k, branch_bits, node_budget, solution_budget = job
    searcher = _Searcher(k)
    searcher.node_limit = node_budget
    searcher.max_solutions = solution_budget
    searcher.stopped = any(b is not None and b <= 0 for b in (node_budget, solution_budget))
    masks, free = searcher.root()
    del masks[k]
    searcher.rows[k] = branch_bits
    if not searcher.stopped:
        searcher._descend(k, masks, free ^ 1 << k)
    return searcher.nodes, searcher.prunes, searcher.solutions, searcher.stopped


def _solution_defect(m: BinaryMatrix) -> Optional[str]:
    """Why m is not a symmetric canonical biplane matrix with full trace,
    or None if it is one."""
    try:
        cert = verify_biplane(m)
    except VerificationError as exc:
        return f"fails verification: {exc}"
    if not (cert.symmetric and cert.full_trace and cert.canonical):
        return "lacks symmetry, full trace, or canonical form"
    return None


def _load_checkpoint(path: str, fresh: dict) -> dict:
    """Read the checkpoint of the search whose initial state is fresh.

    Raises CheckpointError, naming the file, if it is not JSON, lacks a
    key, belongs to another search, or holds counters, finished
    subtrees or solutions that this search could not have written.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            state = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise CheckpointError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if not isinstance(state, dict):
        raise CheckpointError(f"checkpoint {path} is not a JSON object")
    if state.get("schema_version") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"checkpoint {path} has schema {state.get('schema_version')!r},"
            f" expected {CHECKPOINT_SCHEMA}"
        )
    missing = sorted(set(fresh) - set(state))
    if missing:
        raise CheckpointError(f"checkpoint {path} lacks the keys {missing}")
    if state["k"] != fresh["k"]:
        raise CheckpointError(f"checkpoint {path} belongs to a different search")
    if state["branches"] != fresh["branches"]:
        raise CheckpointError(f"checkpoint {path} branch list does not match this search")

    def count(x) -> bool:
        return type(x) is int and x >= 0

    prunes = state["prunes"]
    if not (isinstance(prunes, dict) and set(prunes) == set(_COUNTER_KEYS)
            and all(map(count, prunes.values()))):
        raise CheckpointError(
            f"checkpoint {path} prune counters are not counts of {list(_COUNTER_KEYS)}"
        )
    if not count(state["nodes"]):
        raise CheckpointError(f"checkpoint {path} node count is not a count")
    done = state["done"]
    if not (isinstance(done, list) and len(set(done)) == len(done) and all(
            type(d) is int and 0 <= d < len(fresh["branches"]) for d in done)):
        raise CheckpointError(
            f"checkpoint {path} done list is not distinct branch indices"
            f" in 0..{len(fresh['branches']) - 1}"
        )
    v = head_width(fresh["k"])
    solutions = state["solutions"]
    if not (isinstance(solutions, list) and all(
            isinstance(rows, list) and len(rows) == v
            and all(count(r) and r < 1 << v for r in rows) for rows in solutions)):
        raise CheckpointError(f"checkpoint {path} solutions are not {v}-row bit lists")
    for rows in solutions:
        defect = _solution_defect(BinaryMatrix(v, v, tuple(rows)))
        if defect:
            raise CheckpointError(f"checkpoint {path} holds a solution that {defect}")
    return state


def _write_checkpoint(path: str, state: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        # the same text as json.dump, which encodes in pure Python and
        # took 4-6 times as long on a k=11 state
        fh.write(json.dumps(state))
    os.replace(tmp, path)


def search_symmetric_canonical(
    cfg: SearchConfig,
    *,
    checkpoint: Optional[str] = None,
) -> SearchOutcome:
    """Run the search described by cfg and return a verified outcome.

    Subtrees run in this process, in branch order, and stop at the node
    and solution budgets left, whatever the thread count. With several
    threads and no node_limit, once the search has visited
    _POOL_AFTER_NODES nodes (a resumed search counts its checkpoint's),
    the remaining subtrees, if two or more, run on at most one worker
    process each. Those run to completion, so max_solutions then
    truncates the merged result instead of stopping early; counters
    still add up to the sequential totals. A checkpoint works either
    way: it lists the finished subtrees and their merged counts, and
    a rerun on the same file skips the subtrees it lists. It is written
    at most once every _CHECKPOINT_EVERY_S seconds, once when the loop
    ends, and once when an exception other than a failed write escapes a
    subtree, and only when some subtree finished since the last write;
    a subtree that trips a limit leaves it with the counts from before
    that subtree. A hard kill loses at most the subtrees finished since
    the last write. A file that is malformed or belongs to another
    search raises CheckpointError.

    exhausted is True only when every subtree ran to completion with no
    limit tripping.
    """
    start = time.perf_counter()

    row = _base_rows(cfg.k)[cfg.k]
    branches = [row | cand for cand in _completion_tables(cfg.k)[0][0]]
    state = {
        "schema_version": CHECKPOINT_SCHEMA,
        "k": cfg.k,
        "branches": branches,
        "done": [],
        "nodes": len(branches),
        "prunes": dict.fromkeys(_COUNTER_KEYS, 0),
        "solutions": [],
    }
    stopped = False
    if checkpoint is not None and os.path.exists(checkpoint):
        # the branch list is the search's, whatever the node limit; the
        # limit applies to the nodes the checkpoint has counted
        state = _load_checkpoint(checkpoint, state)
    elif cfg.node_limit is not None and cfg.node_limit <= len(branches):
        # each branch is a node, so a fresh search stops at branch L
        stopped = True
        state["nodes"] = cfg.node_limit
    done = set(state["done"])
    todo = [] if stopped else [i for i in range(len(branches)) if i not in done]
    pooling = cfg.threads > 1 and cfg.node_limit is None

    def job(index: int) -> tuple:
        # the budgets see the running totals, as each in-process job is
        # made only after the previous result is merged
        node_budget = solution_budget = None
        if cfg.node_limit is not None:
            node_budget = cfg.node_limit - state["nodes"]
        if cfg.max_solutions is not None:
            solution_budget = cfg.max_solutions - len(state["solutions"])
        return cfg.k, branches[index], node_budget, solution_budget

    pool = None
    saved_at = time.perf_counter()

    def save(force: bool) -> None:
        # write only when some subtree finished since the last write, as
        # state["done"] holds the subtrees the file lists
        nonlocal saved_at
        if checkpoint is None or len(done) == len(state["done"]):
            return
        if not force and time.perf_counter() - saved_at < _CHECKPOINT_EVERY_S:
            return
        state["done"] = sorted(done)
        _write_checkpoint(checkpoint, state)
        saved_at = time.perf_counter()

    def results():
        nonlocal pool
        try:
            for n, index in enumerate(todo):
                # a pool pays off only for a big search with two subtrees
                # or more left to share
                if pooling and len(todo) - n > 1 and state["nodes"] >= _POOL_AFTER_NODES:
                    # imported here, as the pool machinery (multiprocessing,
                    # logging) costs a fresh process 20-30 ms to import
                    from concurrent.futures import ProcessPoolExecutor

                    # the pool takes every job up front, so none has a budget
                    rest = todo[n:]
                    jobs = [(cfg.k, branches[i], None, None) for i in rest]
                    pool = ProcessPoolExecutor(min(cfg.threads, len(rest)))
                    yield from zip(rest, pool.map(_run_branch, jobs))
                    return
                yield index, _run_branch(job(index))
        except (Exception, KeyboardInterrupt):
            # a subtree failed or was interrupted: keep the finished ones.
            # A failed write is raised by the loop below, not here, so it
            # is not retried
            save(force=True)
            raise

    try:
        for index, (nodes, prunes, solutions, branch_stopped) in results():
            if branch_stopped:
                # the file keeps the counts from before this subtree
                stopped = True
                save(force=True)
            state["nodes"] += nodes
            for key in _COUNTER_KEYS:
                state["prunes"][key] += prunes[key]
            state["solutions"].extend(solutions)
            if branch_stopped:
                break
            done.add(index)
            save(force=False)
        else:
            save(force=True)
    finally:
        if pool is not None:
            # after a failure, drop the queued subtrees instead of running them
            pool.shutdown(cancel_futures=True)

    exhausted = not stopped and len(done) == len(branches)

    ordered = sorted({tuple(bits) for bits in state["solutions"]})
    if cfg.max_solutions is not None:
        ordered = ordered[: cfg.max_solutions]

    v = head_width(cfg.k)
    verified = []
    for bits in ordered:
        m = BinaryMatrix(v, v, bits)
        defect = _solution_defect(m)
        if defect:
            raise SearchBugError(f"emitted matrix {defect}")
        verified.append(m)

    return SearchOutcome(
        k=cfg.k,
        v=v,
        solutions=tuple(verified),
        exhausted=exhausted,
        nodes_visited=state["nodes"],
        prunes_by_rule=state["prunes"],
        elapsed_seconds=time.perf_counter() - start,
    )


def enumerate_reference(k: int) -> list[BinaryMatrix]:
    """Brute-force enumeration for cross-checking the search at k <= 5.

    Every assignment of the free upper triangle is generated; the only
    shortcut is discarding assignments with a wrong row sum before the
    full verification. 2^15 cases at k=5 is the practical ceiling.
    """
    if not 3 <= k <= 5:
        raise ValueError(f"reference enumeration is feasible only for k in 3..5, got {k}")
    v = head_width(k)
    base = _base_rows(k)
    cells = [(i, j) for i in range(k, v) for j in range(i + 1, v)]
    found = []
    for assignment in product((0, 1), repeat=len(cells)):
        rows = list(base)
        for (i, j), bit in zip(cells, assignment):
            if bit:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        if any(r.bit_count() != k for r in rows):
            continue
        m = BinaryMatrix(v, v, tuple(rows))
        try:
            cert = verify_biplane(m)
        except VerificationError:
            continue
        if cert.symmetric and cert.full_trace and cert.canonical:
            found.append(m)
    found.sort(key=lambda m: m.bits)
    return found
