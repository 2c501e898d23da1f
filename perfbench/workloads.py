"""Workload call lists and the exact output check of every call.

Each workload is a closed loop: one client in one process, each call
waiting for the previous one. A round is the workload's fixed multiset
of calls; the seed only shuffles their order. The expected answers are
the paper's exact results, restated here from their definitions; only
the b4c matrix the k=6 search must return is the library's own
assemble_b4c():

  b4c          verifies as k=6, v=16, order 4, symmetric, canonical,
               full trace; its core is a 2-(6,6,3,3,(0,1,2)) design with
               scheme valencies (1,1,2,2), carried onto doubled(3)
  core16_*     symmetric PBIBDs with lambda (0,1,2) and n (11,2,2)
  core12_*     the regular table is a PBIBD with lambda (0,1) and n (5,6),
               the boundary table is rejected as a PBIBD
  relation16,  not association schemes: p[1][1][1] differs between two
  core16_rel*  pairs of class 1, and the benchmark recounts both pairs
  doubled(m)   lambda (0,1,2) and n (2m-5,2,2) on v = 2m points
  search       k=6 gives exactly the b4c matrix; k=7 and k=8 exhaust
               with no solution
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from biplane_schemes import cli
from biplane_schemes.biplane import assemble_b4c
from biplane_schemes import search as search_module
from biplane_schemes.search import SearchConfig

from inputs import NOT_A_SCHEME_TABLES, VERIFY_TABLES

# run loop -> (worker count, fresh checkpoint file per search)
SEARCH_LOOPS = {"sequential": (1, False), "checkpoint": (1, True), "pool2": (2, False)}
B4C_CERT = {"k": 6, "v": 16, "order": 4, "canonical": True, "full_trace": True,
            "symmetric": True}
CORE12_REGULAR = {"lambda": [0, 1], "n": [5, 6]}


class Mismatch(Exception):
    """A call's exit code or output differs from the known exact answer."""


def need(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


@dataclass
class Call:
    """One closed-loop call: run() is timed, check() is not."""

    label: str
    group: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    # the CLI arguments, for calls that are one CLI verb
    argv: Optional[list[str]] = None


def verb(label: str, argv: list[str], check: Callable[[Any], None]) -> Call:
    """A fixture-pipeline call: one CLI verb, in this process."""
    return Call(label, "pipeline", lambda: cli_call(argv), check, argv)


@dataclass
class Context:
    inputs: str
    work: str
    large_m: int
    search_ks: tuple[int, ...]
    # k -> (nodes, prunes) of the first search seen at that k; every later
    # search at that k, in any run loop, must repeat them exactly
    search_counts: dict = field(default_factory=dict)
    checkpoint_bytes: dict = field(default_factory=dict)
    _family_text: dict = field(default_factory=dict)

    def family_text(self, m: int) -> str:
        if m not in self._family_text:
            self._family_text[m] = matrix_text(doubled_rows(m), 2 * m)
        return self._family_text[m]


# -- independent oracles -----------------------------------------------------


def doubled_rows(m: int) -> list[set[int]]:
    """Rows of D_m = [[I, L], [L, I]], where L is the path with end loops."""
    def path_loop(i: int) -> set[int]:
        if i == 0:
            return {0, 1}
        if i == m - 1:
            return {m - 2, m - 1}
        return {i - 1, i + 1}
    top = [{i} | {m + j for j in path_loop(i)} for i in range(m)]
    bottom = [set(path_loop(i)) | {m + i} for i in range(m)]
    return top + bottom


def matrix_text(rows: list[set[int]], cols: int) -> str:
    lines = [f"{len(rows)} {cols}"]
    lines += [" ".join("1" if j in row else "0" for j in range(cols)) for row in rows]
    return "\n".join(lines) + "\n"


def read_grid(path: str) -> list[list[int]]:
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    rows, cols = int(tokens[0]), int(tokens[1])
    body = [0 if t == "." else int(t) for t in tokens[2:]]
    need(len(body) == rows * cols, f"{path}: {len(body)} entries for {rows}x{cols}")
    return [body[i * cols:(i + 1) * cols] for i in range(rows)]


def recount(rel: list[list[int]], i: int, j: int, pair: list[int]) -> tuple[int, int]:
    """(class of pair, number of z with rel(x,z) = i and rel(z,y) = j)."""
    def label(a: int, b: int) -> int:
        return 0 if a == b else rel[a][b]
    x, y = pair
    return label(x, y), sum(1 for z in range(len(rel)) if label(x, z) == i and label(z, y) == j)


# -- in-process and cold CLI calls ---------------------------------------------


def cli_call(argv: list[str]) -> tuple[int, str, str]:
    """Run the CLI in this process; cli.main is looked up at call time."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def report_of(obs: tuple[int, str, str], rc: int) -> dict:
    code, out, err = obs
    need(code == rc, f"exit {code}, want {rc}; stderr {err.strip()[:200]!r}")
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise Mismatch(f"stdout is not one JSON report: {exc}") from exc


# -- checks --------------------------------------------------------------------


def check_verify_b4c(obs) -> None:
    rep = report_of(obs, 0)
    need(rep.get("kind") == "biplane", f"kind {rep.get('kind')!r}")
    need(rep.get("design") == B4C_CERT, f"certificate {rep.get('design')}")


def check_extract_b4c(core_path: str) -> Callable[[Any], None]:
    def check(obs) -> None:
        rep = report_of(obs, 0)
        need(rep["pbibd"]["parameters"] == "2-(6,6,3,3,(0,1,2))",
             f"core parameters {rep['pbibd']['parameters']}")
        need(rep["scheme"]["n"] == [1, 1, 2, 2], f"scheme n {rep['scheme']['n']}")
        core = read_grid(core_path)
        need(core == rep["core"], "--core-out file differs from the reported core")
        witness = rep.get("d_equivalence")
        need(witness is not None, "no permutation witness onto doubled(3)")
        rp, cp = witness["row_perm"], witness["col_perm"]
        moved = [set() for _ in core]
        for i, row in enumerate(core):
            moved[rp[i]] = {cp[j] for j, x in enumerate(row) if x}
        need(moved == doubled_rows(3), "witness does not carry the core onto doubled(3)")
    return check


def check_pbibd(lam: list[int], n: list[int], v: int) -> Callable[[Any], None]:
    def check(obs) -> None:
        rep = report_of(obs, 0)
        need(rep.get("kind") == "pbibd", f"kind {rep.get('kind')!r}")
        d = rep["design"]
        need((d["lambda"], d["n"], d["v"]) == (lam, n, v),
             f"lambda {d['lambda']} n {d['n']} v {d['v']}, want {lam} {n} {v}")
    return check


def check_not_pbibd(obs) -> None:
    rep = report_of(obs, 1)
    need(rep.get("verified") is False, "boundary table verified")
    need("pbibd" in rep.get("reasons", {}), "no pbibd rejection reason")


def check_scheme_valid(obs) -> None:
    rep = report_of(obs, 0)
    need(rep.get("valid") is True, "relation6 rejected")
    need(rep["scheme"]["n"] == [1, 1, 2, 2], f"valencies {rep['scheme']['n']}")
    need(all(rep["bose_mesner"].values()), f"bose-mesner {rep['bose_mesner']}")


def check_not_a_scheme(relation_path: str) -> Callable[[Any], None]:
    def check(obs) -> None:
        rep = report_of(obs, 1)
        need(rep.get("axiom") == "intersection-numbers", f"axiom {rep.get('axiom')!r}")
        w = rep["witness"]
        need((w["h"], w["i"], w["j"]) == (1, 1, 1), f"witness p[{w['h']}][{w['i']}][{w['j']}]")
        need(w["count_a"] != w["count_b"], "witness counts agree")
        rel = read_grid(relation_path)
        for pair, count in ((w["pair_a"], w["count_a"]), (w["pair_b"], w["count_b"])):
            need(recount(rel, 1, 1, pair) == (1, count),
                 f"pair {pair} does not recount to class 1 with {count}")
    return check


def check_family(m: int, out_path: Optional[str], ctx: Context) -> Callable[[Any], None]:
    def check(obs) -> None:
        rep = report_of(obs, 0)
        got = [rep[key] for key in ("lambda", "n", "v", "b", "r", "k")]
        want = [[0, 1, 2], [2 * m - 5, 2, 2], 2 * m, 2 * m, 3, 3]
        need(got == want, f"family m={m}: {got}, want {want}")
        if out_path is not None:
            with open(out_path, "r", encoding="utf-8") as fh:
                need(fh.read() == ctx.family_text(m), f"{out_path} is not D_{m}")
    return check


def check_search(ctx: Context, k: int, outcome, via_cli: bool = False) -> None:
    """Exact answer at k, and counts equal to the first search at this k."""
    if via_cli:
        rep = outcome
        solutions = rep["solutions"]
        exhausted, nodes, prunes = rep["exhausted"], rep["nodes_visited"], rep["prunes_by_rule"]
    else:
        solutions = [s.to_lists() for s in outcome.solutions]
        exhausted, nodes, prunes = outcome.exhausted, outcome.nodes_visited, outcome.prunes_by_rule
    need(exhausted, f"k={k} search did not exhaust")
    if k == 6:
        need(solutions == [assemble_b4c().to_lists()], f"k=6 gave {len(solutions)} solutions, not b4c")
    else:
        need(solutions == [], f"k={k} gave {len(solutions)} solutions, want none")
    counts = (nodes, dict(prunes))
    first = ctx.search_counts.setdefault(k, counts)
    need(counts == first, f"k={k} counts {counts} differ from {first}")


# -- workloads -------------------------------------------------------------------


def pipeline_round(ctx: Context) -> list[Call]:
    b4c = os.path.join(ctx.inputs, "fixtures", "b4c.txt")
    core_out = os.path.join(ctx.work, "core.txt")
    calls = [
        verb("verify b4c", ["verify", b4c], check_verify_b4c),
        verb("extract b4c", ["extract", b4c, "--core-out", core_out],
             check_extract_b4c(core_out)),
    ]
    for name in VERIFY_TABLES:
        if name.startswith("core16"):
            check = check_pbibd([0, 1, 2], [11, 2, 2], 16)
        elif name == "core12_regular":
            check = check_pbibd(CORE12_REGULAR["lambda"], CORE12_REGULAR["n"], 12)
        else:
            check = check_not_pbibd
        calls.append(verb(f"verify {name}", ["verify", os.path.join(ctx.inputs, f"{name}.txt")],
                          check))
    calls.append(verb("scheme relation6", ["scheme", os.path.join(ctx.inputs, "relation6.txt")],
                      check_scheme_valid))
    for name in NOT_A_SCHEME_TABLES:
        path = os.path.join(ctx.inputs, f"{name}.txt")
        calls.append(verb(f"scheme {name}", ["scheme", path], check_not_a_scheme(path)))
    calls.append(verb("family m50", ["family", "--m", "50"], check_family(50, None, ctx)))

    def check_k6(obs) -> None:
        check_search(ctx, 6, report_of(obs, 0), via_cli=True)
    calls.append(verb("search k6", ["search", "--k", "6"], check_k6))
    return calls


COLD_CALLS = ("verify b4c", "extract b4c", "scheme relation6", "family m50", "search k6")


def cold_runs(ctx: Context) -> list[tuple[list[str], Callable[[Any], None]]]:
    """One fresh-process run of each verb on a fixture; mostly start-up and import."""
    return [(c.argv, c.check) for c in pipeline_round(ctx) if c.label in COLD_CALLS]


def search_call(ctx: Context, loop: str, k: int) -> Call:
    """Exhaust k through one run loop; the checkpointed loop starts a fresh file."""
    threads, checkpointed = SEARCH_LOOPS[loop]
    ckpt = os.path.join(ctx.work, f"search-k{k}.ckpt.json") if checkpointed else None

    def run():
        if ckpt is not None and os.path.exists(ckpt):
            os.remove(ckpt)
        # through the module, so the traced run's wrapper is the one called
        outcome = search_module.search_symmetric_canonical(
            SearchConfig(k=k, threads=threads), checkpoint=ckpt)
        if ckpt is not None:
            ctx.checkpoint_bytes[k] = os.path.getsize(ckpt)
        return outcome

    return Call(f"search {loop} k{k}", "search", run,
                lambda outcome: check_search(ctx, k, outcome))


def search_probe_call(k: int, budget: int) -> Call:
    """A search stopped by a node budget, for the node rate at a k too large to exhaust."""
    def check(outcome) -> None:
        need(not outcome.exhausted and outcome.nodes_visited == budget,
             f"k={k} probe visited {outcome.nodes_visited} nodes, budget {budget}")
    return Call(f"search probe k{k}", "search-probe",
                lambda: search_module.search_symmetric_canonical(
                    SearchConfig(k=k, node_limit=budget)), check)


def large_family_call(ctx: Context) -> Call:
    m = ctx.large_m
    out = os.path.join(ctx.work, "family.txt")
    return Call(f"family m{m}", "large-family",
                lambda: cli_call(["family", "--m", str(m), "--out", out]),
                check_family(m, out, ctx))


def large_verify_call(ctx: Context) -> Call:
    m = ctx.large_m
    check_design = check_pbibd([0, 1, 2], [2 * m - 5, 2, 2], 2 * m)

    def check(obs) -> None:
        check_design(obs)
        reason = report_of(obs, 0).get("not_a_biplane", "")
        need(reason.startswith(f"{2 * m} points"), f"biplane rejection {reason!r}, "
             "want the point-count check")
    path = os.path.join(ctx.inputs, "large.txt")
    return Call(f"verify v{2 * m}", "large-verify", lambda: cli_call(["verify", path]), check)


def shuffled(calls: list, rng: random.Random) -> list:
    rng.shuffle(calls)
    return calls


@dataclass
class Workload:
    name: str
    # one round of timed calls, in the order the seed gives
    round: Callable[[Context, random.Random], list[Call]]


WORKLOADS = {w.name: w for w in (
    # one call per CLI verb invocation
    Workload("fixtures-pipeline", lambda ctx, rng: shuffled(pipeline_round(ctx), rng)),
    # every k through every run loop
    Workload("search-exhaust", lambda ctx, rng: shuffled(
        [search_call(ctx, loop, k) for loop in SEARCH_LOOPS for k in ctx.search_ks], rng)),
    # write the v=1000 family member, verify the relabeled copy
    Workload("large-structure", lambda ctx, rng: shuffled(
        [large_family_call(ctx), large_verify_call(ctx)], rng)),
)}
