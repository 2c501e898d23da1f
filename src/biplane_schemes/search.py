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

The search therefore places whole tail rows, top to bottom, and mirrors
each placed row across the diagonal. A row's candidates are its
2-factors mapped to its pair columns, built once per k; has[c] holds,
as the bits of one integer, the candidates with a 1 in column c. When
the search reaches row i, symmetry has fixed its entries left of the
diagonal, and each earlier tail row p already meets it d times. A
candidate is kept when it agrees with the fixed entries and has exactly
2 - d ones in p's columns right of the diagonal, for every p. Those
ones are counted for all candidates at once in three bit planes
(candidates with at least 1, 2 and 3 of them): a column c turns them
into ones | has[c], twos | (ones & has[c]) and three | (twos & has[c]).

Right of row p's diagonal its entries are one of p's own candidates, so
the planes for p depend only on i and on rest, p's ones in row i's
columns right of the diagonal, and the plane that is kept only on
owed = 2 - d. Each tail row therefore has a memo from (rest, owed) to
the kept mask, filled on a miss by the plane loop. The memos live per
process, like the tables: nothing is built at import, the first search
at a k makes them, and each pool worker fills its own. owed < 0 keeps
nothing and is not stored, so a memo holds at most 3 masks per rest
that its row can meet. Counted from the tables, those rests number 367
at k=8, 2,811 at k=9, 23,876 at k=10 and 224,147 at k=11, where a mask
has up to 3,507 bits: a worst case of about 0.3 GB at k=11. Exhausting
k=9 fills 1,612 masks.

Every filter is exact, so no pruning rule is needed and every pair of
tail rows is checked exactly once, when the later one is placed. A node
is one placed row; complete_dot counts the candidates that agreed with
the fixed entries but would meet some earlier row other than twice.
Emitted solutions are re-verified through the independent biplane
verifier; disagreement raises SearchBugError.

The first tail row's candidates partition the space into disjoint
subtrees, the branches. That row has no earlier tail row to meet and
no fixed entry among its columns, so every candidate fits: the
branches are its candidates, each counted as one node, and a node
limit that trips among them stops the search before any subtree runs.
One loop runs the subtrees in order, merges their counters and
solutions, and after each one records the finished subtrees in the
checkpoint file. With several threads the subtrees run in this process
until the search has visited _POOL_AFTER_NODES nodes; the rest, if two
or more, then go to a pool of worker processes. So a small search never
pays to start workers, and a resumed big one starts them at once.
"""

from __future__ import annotations

import functools
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product
from typing import Optional

from .binmat import BinaryMatrix
from .biplane import (
    VerificationError,
    canonical_head,
    head_width,
    verify_biplane,
)

_COUNTER_KEYS = ("complete_dot",)

CHECKPOINT_SCHEMA = 5

# nodes a search visits in process before it hands its remaining
# subtrees to worker processes. Starting 2 workers costs 15-45 ms on 2
# cores; the row search visits 120-170k nodes/s at k=9, so k <= 8 (744
# nodes) never pools and k=9 pools after 0.06-0.08 s of its 0.6-0.9 s
_POOL_AFTER_NODES = 10_000


class SearchBugError(RuntimeError):
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

    def report(self, include_solutions: bool = True) -> dict:
        out = {
            "k": self.k,
            "v": self.v,
            "solution_count": len(self.solutions),
            "exhausted": self.exhausted,
            "nodes_visited": self.nodes_visited,
            "prunes_by_rule": dict(self.prunes_by_rule),
            "elapsed_seconds": round(self.elapsed_seconds, 6),
        }
        if include_solutions:
            out["solutions"] = [m.to_lists() for m in self.solutions]
        return out


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
    tables = []
    for s, t in pairs[k - 1:]:
        labels = [u for u in range(1, k) if u not in (s, t)]
        where = {(a, b): column[labels[a], labels[b]] for a, b in holding}
        bit = {e: 1 << c for e, c in where.items()}
        cands = tuple(sum(map(bit.__getitem__, edges)) for edges in factors)
        has = [0] * head_width(k)
        for e, c in where.items():
            has[c] = holding[e]
        tables.append((cands, tuple(has), sum(bit.values())))
    return tuple(tables)


@functools.lru_cache(maxsize=None)
def _meeting_masks(k: int) -> tuple[dict[int, int], ...]:
    """One memo per tail row, filled by the searches of this process:
    rest << 2 | owed -> _meeting_mask(has, rest, owed). A value depends
    only on its key and k, so sharing the memos cannot change a result."""
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

    # -- depth-first search, one row per node --------------------------------

    def explore_row(self, i: int) -> None:
        if self.stopped:
            return
        if i == self.v:
            self._record_solution()
            return
        rows = self.rows
        row = rows[i]
        cands = self.tables[i - self.k][0]
        alive, agreeing = self._kept(i)
        self.prunes["complete_dot"] += agreeing - alive.bit_count()

        limit = self.node_limit
        while alive:
            low = alive & -alive
            alive ^= low
            self.nodes += 1
            if limit is not None and self.nodes >= limit:
                self.stopped = True
                return
            rows[i] = row | cands[low.bit_length() - 1]
            self._descend(i)
            rows[i] = row
            if self.stopped:
                return

    def _kept(self, i: int) -> tuple[int, int]:
        """The bitset of row i's candidates that fit the rows above it,
        and how many of them agree with the fixed entries."""
        rows, k = self.rows, self.k
        cands, has, columns = self.tables[i - k]
        memo = self.memo[i - k]
        row = rows[i]
        alive = (1 << len(cands)) - 1
        # entries left of the diagonal are the mirrors of earlier rows;
        # outside the row's own columns both sides hold only zeros
        fixed = columns & ((1 << i) - 1)
        while fixed:
            low = fixed & -fixed
            fixed ^= low
            c = low.bit_length() - 1
            alive &= has[c] if row & low else ~has[c]
        agreeing = alive.bit_count()
        right = columns & ~((2 << i) - 1)
        for p in range(k, i):
            if not alive:
                break
            owed = 2 - (row & rows[p]).bit_count()
            if owed < 0:
                return 0, agreeing
            rest = rows[p] & right
            key = rest << 2 | owed
            mask = memo.get(key)
            if mask is None:
                mask = memo[key] = _meeting_mask(has, rest, owed)
            alive &= mask
        return alive, agreeing

    def _descend(self, i: int) -> None:
        """Mirror the placed row i into the later rows, explore row
        i + 1, then undo the mirror."""
        rows, bit = self.rows, 1 << i
        later = rows[i] >> (i + 1)
        mirrored = []
        while later:
            low = later & -later
            later ^= low
            c = i + low.bit_length()
            rows[c] |= bit
            mirrored.append(c)
        self.explore_row(i + 1)
        for c in mirrored:
            rows[c] ^= bit

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
    searcher.rows[k] = branch_bits
    searcher._descend(k)
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
        json.dump(state, fh)
    os.replace(tmp, path)


def search_symmetric_canonical(
    cfg: SearchConfig,
    *,
    checkpoint: Optional[str] = None,
) -> SearchOutcome:
    """Run the search described by cfg and return a verified outcome.

    With several threads, subtrees run to completion, so max_solutions
    then truncates the merged result instead of stopping early; counters
    still add up to the sequential totals. They run in this process, in
    branch order, until the search has visited _POOL_AFTER_NODES nodes
    (a resumed search counts its checkpoint's); the remaining ones, if
    two or more, then run on at most one worker process each. A
    node_limit forces in-process execution. A checkpoint works with
    either: it is rewritten after each finished subtree, in branch
    order, and a rerun on the same file skips the subtrees it lists; a
    file that is malformed or belongs to another search raises
    CheckpointError.

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
    budgeted = cfg.threads == 1 or cfg.node_limit is not None

    def job(index: int) -> tuple:
        # in-process budgets see the running totals, as each job is made
        # only after the previous result is merged; threaded runs give
        # no budgets, as their pool takes every job up front
        node_budget = solution_budget = None
        if budgeted and cfg.node_limit is not None:
            node_budget = cfg.node_limit - state["nodes"]
        if budgeted and cfg.max_solutions is not None:
            solution_budget = cfg.max_solutions - len(state["solutions"])
        return cfg.k, branches[index], node_budget, solution_budget

    pool = None

    def results():
        nonlocal pool
        for n, index in enumerate(todo):
            # a pool pays off only for a big search with two subtrees or
            # more left to share
            if not budgeted and len(todo) - n > 1 and state["nodes"] >= _POOL_AFTER_NODES:
                rest = todo[n:]
                pool = ProcessPoolExecutor(min(cfg.threads, len(rest)))
                yield from zip(rest, pool.map(_run_branch, map(job, rest)))
                return
            yield index, _run_branch(job(index))

    try:
        for index, (nodes, prunes, solutions, branch_stopped) in results():
            state["nodes"] += nodes
            for key in _COUNTER_KEYS:
                state["prunes"][key] += prunes[key]
            state["solutions"].extend(solutions)
            if branch_stopped:
                stopped = True
                break
            done.add(index)
            if checkpoint is not None:
                state["done"] = sorted(done)
                _write_checkpoint(checkpoint, state)
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
