"""Exhaustive search for symmetric canonical biplane matrices with full trace.

The head rows and columns of a canonical matrix are forced, and so is
the diagonal once full trace is required, so the only freedom is the
upper triangle of the tail block. The search fills tail rows top to
bottom, cell by cell, and mirrors a finished row across the diagonal.

While row i is filled, its meetings with the earlier (complete) rows
are three bit planes over those rows, passed down by value: ones,
twos and three hold the rows that meet row i at least 1, 2 and 3
times (three saturates). A 1 in column c, with a the earlier rows
that have a 1 there, turns them into ones | a, twos | (ones & a) and
three | (twos & a), so every node costs a constant number of integer
operations and nothing is undone. When a row starts, one scan over
the columns from the right gives h1[c] and h2[c], the earlier rows
with at least 1 and at least 2 ones right of column c. The search
prunes on:

  partial_dot  a 1 in column c would make some earlier row meet the
               row 3 times (twos & a); also checked when a row starts
  deficit      some earlier row p can no longer meet the row twice:
               it meets it d < 2 times and has fewer than 2 - d ones
               right of the current column, read off h1 and h2; checked
               for every p when a row starts, then on each 0 entry for
               the rows in a (a 1 entry never makes a deficit worse)
  mirror_dot   a 1 at (i, c) becomes a 1 at (c, i), which meets every
               earlier row p with a 1 in column i; row c's entries left
               of column i and its diagonal are already final, so if
               they meet such a p twice, the 1 is pruned. The columns
               this blocks are found once per row

No rule checks that a row can still reach sum k: every column but
column 0 holds two head ones and no tail row has a 1 in column 0, so
the head rows still owe the row twice the ones it needs, and a row
that cannot reach k leaves some head row to deficit (or, past k,
gives one a third meeting, which partial_dot sees).

Any subset can be disabled (the solution set never changes, only the
node count). Two further checks are correctness, not pruning, and
cannot be disabled: completed rows must sum to exactly k, and every
completed row pair must meet in exactly 2 columns. Emitted solutions
are re-verified through the independent biplane verifier; disagreement
raises SearchBugError.

The first tail row's completions partition the space into disjoint
subtrees. One loop runs them in order, in this process or on worker
processes, merges their counters and solutions, and after each one
records the finished subtrees in the checkpoint file.
"""

from __future__ import annotations

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

DISABLEABLE_RULES = ("partial_dot", "deficit", "mirror_dot")
_COUNTER_KEYS = DISABLEABLE_RULES + ("complete_dot",)

CHECKPOINT_SCHEMA = 4


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


def _base_rows(k: int) -> list[int]:
    """The forced part of every row: the head rows, then each tail row's
    head-column prefix (the head's transpose) and its diagonal bit."""
    head = canonical_head(k).bits
    rows = list(head)
    for i in range(k, head_width(k)):
        prefix = sum(((head[j] >> i) & 1) << j for j in range(k))
        rows.append(prefix | (1 << i))
    return rows


class _Searcher:
    """Mutable depth-first state for one search (or one subtree of it)."""

    def __init__(self, k: int, disabled: frozenset[str]):
        self.k = k
        self.v = head_width(k)
        self.rows = _base_rows(k)
        # bit p of colmask[c]: completed row p has a 1 in column c
        self.colmask = [
            sum(((self.rows[p] >> c) & 1) << p for p in range(k)) for c in range(self.v)
        ]
        self.partial_dot = "partial_dot" not in disabled
        self.deficit = "deficit" not in disabled
        self.mirror_dot = "mirror_dot" not in disabled
        self.nodes = 0
        self.prunes = dict.fromkeys(_COUNTER_KEYS, 0)
        self.solutions: list[tuple[int, ...]] = []
        self.node_limit: Optional[int] = None
        self.max_solutions: Optional[int] = None
        self.stopped = False
        # branch collection: when set, completions of the first tail row
        # are appended here instead of being explored further
        self.branch_sink: Optional[list[int]] = None

    # -- depth-first fill ----------------------------------------------------

    def explore_row(self, i: int) -> None:
        if self.stopped:
            return
        if i == self.v:
            self._record_solution()
            return
        rows, colmask, v = self.rows, self.colmask, self.v
        base = rows[i]
        need = self.k - base.bit_count()
        # the dot planes: earlier rows meeting row i at least 1, 2, 3 times
        ones = twos = three = 0
        for p in range(i):
            d = (base & rows[p]).bit_count()
            if d:
                ones |= 1 << p
                if d > 1:
                    twos |= 1 << p
                    if d > 2:
                        three |= 1 << p
        if self.partial_dot and three:
            self.prunes["partial_dot"] += 1
            return
        # h1[c], h2[c]: earlier rows with at least 1, 2 ones right of column c
        h1 = [0] * v
        h2 = [0] * v
        right1 = right2 = 0
        for c in range(v - 1, i - 1, -1):
            h1[c] = right1
            h2[c] = right2
            right2 |= right1 & colmask[c]
            right1 |= colmask[c]
        if self.deficit and ((1 << i) - 1) & ~(twos | (h1[i] & (ones | h2[i]))):
            self.prunes["deficit"] += 1
            return
        # mirror: the columns c > i where a 1 at (i, c) is doomed. Its
        # mirror at (c, i) meets every earlier row p in colmask[i], and
        # row c's final entries may already meet such a p twice: at
        # column c, where rows[p] has a 1, and at each j < i where rows[p]
        # has a 1 and, by symmetry, rows[j] has a 1 at column c. Counted
        # for every c at once, as bit planes over the columns.
        mirror = 0
        if self.mirror_dot:
            below = (1 << i) - 1
            for p in range(i):
                if (colmask[i] >> p) & 1:
                    once = rows[p]
                    js = rows[p] & below
                    while js:
                        j = (js & -js).bit_length() - 1
                        js &= js - 1
                        mirror |= once & rows[j]
                        once |= rows[j]
            mirror &= ~((2 << i) - 1)
        self._fill(i, i + 1, need, ones, twos, three, h1, h2, mirror)

    def _fill(self, i: int, c: int, need: int, ones: int, twos: int, three: int,
              h1: list[int], h2: list[int], mirror: int) -> None:
        """Decide entries (i, c), (i, c+1), ... of row i; each pass of the
        loop is one node, whose 0-branch is the next pass."""
        v, colmask, prunes, limit = self.v, self.colmask, self.prunes, self.node_limit
        while True:
            self.nodes += 1
            if limit is not None and self.nodes >= limit:
                self.stopped = True
                return
            if need == 0:
                self._complete_row(i, twos, three)
                return
            if c == v:
                return
            a = colmask[c]

            # branch: entry (i, c) = 1, mirrored later at (c, i); it adds
            # a meeting with every earlier row in a
            if self.partial_dot and twos & a:
                prunes["partial_dot"] += 1
            elif self.mirror_dot and (mirror >> c) & 1:
                prunes["mirror_dot"] += 1
            else:
                bit = 1 << c
                self.rows[i] |= bit
                self._fill(i, c + 1, need - 1, ones | a, twos | (ones & a), three | (twos & a),
                           h1, h2, mirror)
                self.rows[i] ^= bit
                if self.stopped:
                    return

            # branch: entry (i, c) = 0. An earlier row p in a can still
            # meet row i twice if it already does, or if it has a one
            # right of c and either one meeting or two such ones
            if self.deficit and a & ~(twos | (h1[c] & (ones | h2[c]))):
                prunes["deficit"] += 1
                return
            c += 1

    def _complete_row(self, i: int, twos: int, three: int) -> None:
        # correctness gate, never disabled: every earlier row meets row i
        # exactly twice
        if three or twos != (1 << i) - 1:
            self.prunes["complete_dot"] += 1
            return

        if self.branch_sink is not None and i == self.k:
            self.branch_sink.append(self.rows[i])
            return

        self._descend(i)

    def _descend(self, i: int) -> None:
        """Mirror the finished row i into the later rows and columns,
        explore row i + 1, then undo the mirror."""
        row_bits = self.rows[i]
        mirrored = [c for c in range(i + 1, self.v) if (row_bits >> c) & 1]
        for c in mirrored:
            self.rows[c] |= 1 << i
            self.colmask[c] |= 1 << i
        self.explore_row(i + 1)
        for c in mirrored:
            self.rows[c] &= ~(1 << i)
            self.colmask[c] &= ~(1 << i)

    def _record_solution(self) -> None:
        self.solutions.append(tuple(self.rows))
        if (
            self.max_solutions is not None
            and len(self.solutions) >= self.max_solutions
        ):
            self.stopped = True

    # -- branch plumbing -----------------------------------------------------

    def collect_branches(self) -> list[int]:
        """Enumerate completions of the first tail row without descending."""
        sink: list[int] = []
        self.branch_sink = sink
        self.explore_row(self.k)
        self.branch_sink = None
        return sink


def _run_branch(job: tuple) -> tuple:
    """Run the subtree under one completion of the first tail row.

    job is (k, branch_bits, disabled, node_budget, solution_budget). A
    budget of None is unlimited; one at or below 0 stops the branch
    before its first node. Returns (nodes, prunes, solutions, stopped).
    """
    k, branch_bits, disabled, node_budget, solution_budget = job
    searcher = _Searcher(k, disabled)
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
    if state["k"] != fresh["k"] or state["disabled_rules"] != fresh["disabled_rules"]:
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
    disabled_rules: frozenset[str] = frozenset(),
    checkpoint: Optional[str] = None,
) -> SearchOutcome:
    """Run the search described by cfg and return a verified outcome.

    disabled_rules may name any of DISABLEABLE_RULES; correctness
    checks stay on regardless. With several threads, subtrees run to
    completion, on at most one worker process per subtree (in this
    process when there is only one), so max_solutions then truncates
    the merged result instead of stopping early; counters still add up
    to the sequential totals. A node_limit forces in-process execution. A
    checkpoint works with either: it is rewritten after each finished
    subtree, in branch order, and a rerun on the same file skips the
    subtrees it lists; a file that is malformed or belongs to another
    search raises CheckpointError.

    exhausted is True only when every subtree ran to completion with no
    limit tripping.
    """
    unknown = set(disabled_rules) - set(DISABLEABLE_RULES)
    if unknown:
        raise ValueError(f"unknown pruning rules: {sorted(unknown)}")
    disabled = frozenset(disabled_rules)
    start = time.perf_counter()

    enumerator = _Searcher(cfg.k, disabled)
    enumerator.node_limit = cfg.node_limit
    branches = enumerator.collect_branches()
    state = {
        "schema_version": CHECKPOINT_SCHEMA,
        "k": cfg.k,
        "disabled_rules": sorted(disabled),
        "branches": branches,
        "done": [],
        "nodes": enumerator.nodes,
        "prunes": enumerator.prunes,
        "solutions": [],
    }
    if checkpoint is not None and os.path.exists(checkpoint):
        state = _load_checkpoint(checkpoint, state)
    done = set(state["done"])
    todo = [] if enumerator.stopped else [i for i in range(len(branches)) if i not in done]
    budgeted = cfg.threads == 1 or cfg.node_limit is not None

    def jobs():
        # builtin map asks for each job only after the previous result is
        # merged, so in-process budgets see the running totals; the pool
        # takes every job up front, so its jobs get no budgets, and
        # neither do they when a lone subtree skips the pool
        for index in todo:
            node_budget = solution_budget = None
            if budgeted and cfg.node_limit is not None:
                node_budget = cfg.node_limit - state["nodes"]
            if budgeted and cfg.max_solutions is not None:
                solution_budget = cfg.max_solutions - len(state["solutions"])
            yield cfg.k, branches[index], disabled, node_budget, solution_budget

    stopped = enumerator.stopped
    # a pool pays off only with two subtrees or more to share
    pool = None if budgeted or len(todo) < 2 else ProcessPoolExecutor(min(cfg.threads, len(todo)))
    try:
        results = (map if pool is None else pool.map)(_run_branch, jobs())
        for index, (nodes, prunes, solutions, branch_stopped) in zip(todo, results):
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
