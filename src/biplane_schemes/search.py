"""Exhaustive search for symmetric canonical biplane matrices with full trace.

The head rows and columns of a canonical matrix are forced, and so is
the diagonal once full trace is required, so the only freedom is the
upper triangle of the tail block. The search fills tail rows top to
bottom, mirroring every chosen bit across the diagonal immediately, and
prunes on:

  row_fill     a row cannot reach sum k with the positions left to it
  partial_dot  a partially filled row already meets some earlier row
               in 3 or more columns
  deficit      some earlier row p, which meets the partial row in
               dots[p] columns so far, has fewer than 2 - dots[p] ones
               left among the row's undecided columns, so the two rows
               can no longer meet in 2 columns; checked for every p
               when a row starts, then on each 0 entry for the rows p
               with a 1 in that column (a 1 entry takes one undecided
               column and adds one meeting, so it never hurts)

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

DISABLEABLE_RULES = ("row_fill", "partial_dot", "deficit")
_COUNTER_KEYS = DISABLEABLE_RULES + ("complete_dot",)

CHECKPOINT_SCHEMA = 2


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
        self.row_fill = "row_fill" not in disabled
        self.partial_dot = "partial_dot" not in disabled
        self.deficit = "deficit" not in disabled
        # after[c]: the columns to the right of column c
        self.after = [((1 << self.v) - 1) >> (c + 1) << (c + 1) for c in range(self.v)]
        self.nodes = 0
        self.prunes = dict.fromkeys(_COUNTER_KEYS, 0)
        self.solutions: list[tuple[int, ...]] = []
        self.node_limit: Optional[int] = None
        self.max_solutions: Optional[int] = None
        self.stopped = False
        # branch collection: when set, completions of the first tail row
        # are appended here instead of being explored further
        self.branch_sink: Optional[list[int]] = None

    # -- bookkeeping ---------------------------------------------------------

    def _prune(self, rule: str) -> None:
        self.prunes[rule] += 1

    # -- depth-first fill ----------------------------------------------------

    def explore_row(self, i: int) -> None:
        if self.stopped:
            return
        if i == self.v:
            self._record_solution()
            return
        base = self.rows[i]
        need = self.k - base.bit_count()
        free = list(range(i + 1, self.v))
        if (need < 0 or need > len(free)) and self.row_fill:
            self._prune("row_fill")
            return
        dots = [(base & self.rows[p]).bit_count() for p in range(i)]
        if self.partial_dot and any(d > 2 for d in dots):
            self._prune("partial_dot")
            return
        after = self.after[i]
        if self.deficit and any(
            d < 2 and (self.rows[p] & after).bit_count() < 2 - d
            for p, d in enumerate(dots)
        ):
            self._prune("deficit")
            return
        self._fill(i, free, 0, need, dots)

    def _fill(self, i: int, free: list[int], idx: int, need: int,
              dots: list[int]) -> None:
        self.nodes += 1
        if self.node_limit is not None and self.nodes >= self.node_limit:
            self.stopped = True
        if self.stopped:
            return
        if need == 0:
            self._complete_row(i, dots)
            return
        remaining = len(free) - idx
        if remaining < need and self.row_fill:
            self._prune("row_fill")
            return
        if idx == len(free):
            return
        c = free[idx]
        rows = self.rows

        # branch: entry (i, c) = 1, mirrored later at (c, i)
        over = False
        affected = self.colmask[c]
        mm = affected
        while mm:
            p = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            dots[p] += 1
            if dots[p] > 2:
                over = True
        if over and self.partial_dot:
            self._prune("partial_dot")
        else:
            rows[i] |= 1 << c
            self._fill(i, free, idx + 1, need - 1, dots)
            rows[i] &= ~(1 << c)
        # deficit: after a 0 at (i, c), each earlier row p with a 1 in
        # column c still needs 2 - dots[p] ones right of c
        short = False
        after = self.after[c]
        mm = affected
        while mm:
            p = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            d = dots[p] - 1
            dots[p] = d
            if d < 2 and (rows[p] & after).bit_count() < 2 - d:
                short = True
        if self.stopped:
            return
        if short and self.deficit:
            self._prune("deficit")
            return

        # branch: entry (i, c) = 0
        self._fill(i, free, idx + 1, need, dots)

    def _complete_row(self, i: int, dots: list[int]) -> None:
        # correctness gate, never disabled
        if any(d != 2 for d in dots):
            self._prune("complete_dot")
            return

        if self.branch_sink is not None and i == self.k:
            self.branch_sink.append(self.rows[i])
            return

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

    def apply_branch(self, branch_bits: int) -> None:
        """Fix the first tail row to an enumerated completion."""
        self.rows[self.k] = branch_bits
        for c in range(self.k + 1, self.v):
            if (branch_bits >> c) & 1:
                self.rows[c] |= 1 << self.k
                self.colmask[c] |= 1 << self.k


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
    searcher.apply_branch(branch_bits)
    searcher.explore_row(k + 1)
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
    checks stay on regardless. With several threads, subtrees run in
    worker processes to completion, so max_solutions then truncates the
    merged result instead of stopping early; counters still add up to
    the sequential totals. A node_limit forces in-process execution. A
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
    in_process = cfg.threads == 1 or cfg.node_limit is not None

    def jobs():
        # builtin map asks for each job only after the previous result is
        # merged, so in-process budgets see the running totals; the pool
        # takes every job up front, so its jobs get no budgets
        for index in todo:
            node_budget = solution_budget = None
            if in_process and cfg.node_limit is not None:
                node_budget = cfg.node_limit - state["nodes"]
            if in_process and cfg.max_solutions is not None:
                solution_budget = cfg.max_solutions - len(state["solutions"])
            yield cfg.k, branches[index], disabled, node_budget, solution_budget

    stopped = enumerator.stopped
    pool = None if in_process else ProcessPoolExecutor(cfg.threads)
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
