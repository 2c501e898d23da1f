"""Tests of the benchmark itself.

    python -m pytest perfbench

The smoke test runs every workload once at minimal size with all output
checks on. The others show that the checks reject wrong answers, that
self time subtracts children, that the reference kernel computes what
it should and divides each call's time, and that the benchmark refuses
to run without the package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def _scratch() -> Path:
    """A temporary directory inside the checkout, like the benchmark's own."""
    base = ROOT / ".perfbench" / "work"
    base.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="test-", dir=base))


def test_smoke_runs_every_workload_with_all_checks_passing():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])["smoke"]
    assert set(summary) == set(wl.WORKLOADS) | {"trace"}
    for name, result in summary.items():
        assert result["correct"] and result["failed"] == 0, (name, result)
        assert result["attempted"] >= 1


def _cli_obs(report: dict, rc: int = 0) -> tuple[int, str, str]:
    return rc, json.dumps(report), ""


def test_checks_reject_wrong_answers():
    good = {"kind": "pbibd", "design": {"lambda": [0, 1, 2], "n": [11, 2, 2], "v": 16}}
    check = wl.check_pbibd([0, 1, 2], [11, 2, 2], 16)
    check(_cli_obs(good))
    with pytest.raises(wl.Mismatch):
        check(_cli_obs({**good, "design": {**good["design"], "n": [10, 3, 2]}}))
    with pytest.raises(wl.Mismatch):
        check(_cli_obs(good, rc=1))
    with pytest.raises(wl.Mismatch):
        wl.check_verify_b4c(_cli_obs({"kind": "biplane",
                                      "design": {**wl.B4C_CERT, "canonical": False}}))


def test_search_counts_must_repeat_across_loops():
    ctx = wl.Context(inputs="", work="", large_m=20, search_ks=(7,))
    first = {"k": 7, "solutions": [], "exhausted": True, "nodes_visited": 2452,
             "prunes_by_rule": {"row_fill": 526}}
    wl.check_search(ctx, 7, first, via_cli=True)
    wl.check_search(ctx, 7, first, via_cli=True)
    with pytest.raises(wl.Mismatch):
        wl.check_search(ctx, 7, {**first, "nodes_visited": 2451}, via_cli=True)
    with pytest.raises(wl.Mismatch):
        wl.check_search(ctx, 7, {**first, "exhausted": False}, via_cli=True)


def test_not_a_scheme_witness_is_recounted():
    work = _scratch()
    try:
        path = work / "rel.txt"
        # a 4-cycle: class 1 = adjacent, class 2 = opposite; a valid scheme
        path.write_text("4 4\n0 1 2 1\n1 0 1 2\n2 1 0 1\n1 2 1 0\n", encoding="utf-8")
        check = wl.check_not_a_scheme(str(path))
        forged = {"axiom": "intersection-numbers",
                  "witness": {"h": 1, "i": 1, "j": 1, "pair_a": [0, 1], "count_a": 0,
                              "pair_b": [1, 2], "count_b": 1}}
        with pytest.raises(wl.Mismatch):
            check(_cli_obs(forged, rc=1))
    finally:
        shutil.rmtree(work)


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    with tracer.span("call"):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
    own = tracer.self_ns()
    call, outer, inner = tracer.spans
    duration = {s["id"]: s["end_ns"] - s["start_ns"] for s in tracer.spans}
    assert own[inner["id"]] == duration[inner["id"]]
    assert own[outer["id"]] == duration[outer["id"]] - duration[inner["id"]]
    assert outer["parent"] == call["id"] and inner["call"] == call["id"]


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(i) for i in range(1000)])["percentile"] == 99.0
    assert run.tail([float(i) for i in range(100)])["percentile"] == 90.0
    assert run.tail([1.0] * 5)["percentile"] is None


def test_reference_kernel_checks_its_own_answer():
    assert [reference.queens(n) for n in (4, 5, 6)] == [2, 10, 4]
    assert reference.kernel() > 0


def test_call_cost_divides_by_the_kernel_time_around_the_call():
    costs = run.Costs(before=2.0)
    costs.pending += [("a", 3.0), ("b", 6.0)]
    costs.settle(4.0)
    costs.pending.append(("a", 8.0))
    costs.settle(4.0)
    assert costs.by_label == {"a": [1.0, 2.0], "b": [2.0]}
    assert costs.pending == []


def test_refuses_to_run_without_the_package_source():
    bare = _scratch()
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "fixtures-pipeline", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare)
