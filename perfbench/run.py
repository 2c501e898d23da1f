"""Benchmark for biplane-schemes: CLI verbs on the fixtures, exhaustive
search, and v=1000 designs, timed end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from the root of a source checkout; it imports the package from
`src/` and installs nothing. It writes only under `.perfbench/` in the
checkout. Every workload is a closed loop: one client in one process,
each call waiting for the previous one. The only parallelism is the
search's own 2-process pool. The seed shuffles the call order and
relabels the inputs whose verdict does not change under relabeling
(see inputs.py); the search takes no seeded input. Every call's exit
code and output is checked against the known exact answer (see
workloads.py); a call fails when either is wrong.

Workloads, each measured for S seconds of wall time. A round is the
workload's calls, one each, in the order the seed gives:

  fixtures-pipeline  one in-process CLI verb per call on a bundled
                     fixture: verify and extract on b4c, verify on the
                     core16_* and core12_* tables, scheme on relation6,
                     relation16 and the core16 relation tables, family
                     --m 50, search --k 6
  search-exhaust     one exhaust per call of k=6, 7 and 8 through each
                     run loop of search_symmetric_canonical: sequential,
                     checkpointed (a fresh file per search) and 2 workers
  large-structure    family --m 500 --out (v=1000), and verify on a
                     seed-relabeled copy of that matrix

End-to-end metrics (`--trace 0`), the same three on every workload:

  setup_s            median of SETUP_REPEATS set-ups, each a fresh
                     interpreter importing the package and writing the
                     workload's inputs
  round_cost_p50     cost of one round: the sum over the round's calls
                     of each call's median cost, where a call's cost is
                     its time divided by that of the reference kernel
                     (reference.kernel) timed around it (see Costs)
  cli_cold_cost_p50  median cost of a fresh CLI process running one
                     fixture verb (workloads.cold_runs): its wall time
                     divided by that of a fresh interpreter importing
                     numpy (reference.cold_start) run right after it

The shared host changes speed by up to 1.7x, in spells of seconds to
minutes, so raw times mostly read the host; reference.py says how the
division cancels it. The detail line keeps the raw times.

The set-up repeats and cold runs are spread evenly over the measuring,
so a burst of load on the machine reaches only some samples of each
kind. `failed`/`attempted` in the result line is the share of failed
calls. The line before it holds the detail: machine context, sample
counts, calls per second, quartiles and the tail percentile (the
highest with at least ten samples beyond it) of all calls, the median
time and cost of each call, the raw cold-run times, and the search
counts. The same record goes to `.perfbench/results/`.

Per-layer metrics (`--trace 1`) come from one traced pass over the
inputs of all three workloads, whichever workload is named, so every
traced run reports every layer. The pass wraps a span around each call
into the functions in tracing.TRACED. A layer time is the median self
time per call, in ms, over the calls LAYER_TIMES names. The pass
alternates untraced and traced pipeline rounds; the difference of their
median call latencies is `trace.overhead_ms_per_call`. Search counts
are exact, and a run fails its checks unless every search at one k, in
every run loop, repeats the same node and per-rule prune counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

COLD_SNIPPET = ("import sys; from biplane_schemes.cli import main; "
                "sys.exit(main(sys.argv[1:]))")
IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import biplane_schemes.cli; "
                  "print(time.perf_counter() - t)")
TAIL_CANDIDATES = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0)
# reference kernel time per second of call time, run between calls
KERNEL_SHARE = 0.15
KERNEL_WARMUP = 5
# share of --seconds the traced pass spends on pipeline rounds
TRACE_PIPELINE_SHARE = 0.25


@dataclass(frozen=True)
class Sizes:
    search_ks: tuple[int, ...] = (6, 7, 8)
    large_m: int = 500
    k11_budget: int = 300_000
    setup_repeats: int = 5
    # passes over workloads.cold_runs
    cold_passes: int = 3


FULL = Sizes()
SMOKE = Sizes(search_ks=(6, 7), large_m=20, k11_budget=2_000, setup_repeats=1, cold_passes=1)


class Runner:
    """Runs calls, times run(), checks outputs, counts failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, label: str, exc: BaseException) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")

    def timed(self, label: str, run, check) -> float | None:
        """Seconds run() took, or None when it raised or check() rejected its result."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            obs = run()
            elapsed = time.perf_counter() - start
            check(obs)
        except Exception as exc:  # a call that crashes or answers wrong has failed
            self.fail(label, exc)
            return None
        return elapsed

    def call(self, call) -> float | None:
        return self.timed(call.label, call.run, call.check)

    def cold(self, argv: list[str], check) -> float | None:
        """A fresh CLI process; its output is checked like the in-process call's."""
        def run() -> tuple[int, str, str]:
            proc = subprocess.run([sys.executable, "-c", COLD_SNIPPET, *argv], env=child_env(),
                                  capture_output=True, text=True, timeout=120)
            return proc.returncode, proc.stdout, proc.stderr
        return self.timed("cold " + " ".join(argv), run, check)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_setup(workload: str, seed: int, outdir: Path, sizes: Sizes) -> float:
    """Seconds for inputs.py, in a fresh interpreter, to write the workload's inputs."""
    start = time.perf_counter()
    # captured output makes subprocess wait on the pipes instead of polling
    subprocess.run([sys.executable, str(HERE / "inputs.py"), workload, str(seed),
                    str(outdir), str(sizes.large_m)],
                   env=child_env(), check=True, capture_output=True, timeout=120)
    return time.perf_counter() - start


def tail(values: list[float]) -> dict:
    """The highest candidate percentile with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    for q in TAIL_CANDIDATES:
        rank = max(1, math.ceil(round(q * n / 100, 9)))
        if n - rank >= 10:
            return {"percentile": q, "value": ordered[rank - 1], "samples": n}
    return {"percentile": None, "value": None, "samples": n}


def quartiles(values: list[float]) -> list[float] | None:
    return statistics.quantiles(values, n=4) if len(values) > 1 else None


def machine_context() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "biplane_schemes").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "platform": platform.platform(),
        "src_sha256": digest.hexdigest(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- untraced run ----------------------------------------------------------------


class Costs:
    """Each call's time in units of the reference kernel's time around it.

    Kernels run in batches between calls; the calls since the last batch
    are divided by the mean of the median kernel time of the batch before
    them and of the batch after them.
    """

    def __init__(self, before: float) -> None:
        self.before = before
        self.pending: list[tuple[str, float]] = []
        self.by_label: dict[str, list[float]] = {}

    def settle(self, after: float) -> None:
        ref = (self.before + after) / 2
        for label, t in self.pending:
            self.by_label.setdefault(label, []).append(t / ref)
        self.pending.clear()
        self.before = after


def measure_workload(name: str, seed: int, seconds: float, sizes: Sizes, work: Path,
                     runner: Runner) -> tuple[dict, dict]:
    """Closed-loop rounds for `seconds` of wall time, checks and cold runs included.

    The set-up repeats after the first and the cold runs are spread evenly
    over the measuring, so that a burst of load on the machine reaches
    only some samples of each kind.
    """
    import reference
    import workloads as wl

    workload = wl.WORKLOADS[name]
    rng = random.Random(seed)
    setup_times = [run_setup(name, seed, work / "inputs", sizes)]
    ctx = wl.Context(inputs=str(work / "inputs"), work=str(work), large_m=sizes.large_m,
                     search_ks=sizes.search_ks)
    labels = []
    for call in workload.round(ctx, rng):  # warm-up round: checked, not timed
        runner.call(call)
        labels.append(call.label)
    kernel_ms = [reference.kernel() * 1000 for _ in range(KERNEL_WARMUP)]
    costs = Costs(statistics.median(kernel_ms))

    events = [("cold", argv, check) for argv, check in wl.cold_runs(ctx) * sizes.cold_passes]
    events += [("setup", r, None) for r in range(1, sizes.setup_repeats)]
    rng.shuffle(events)
    cold_ms: list[float] = []
    cold_costs: list[float] = []

    def run_event(kind, arg, check) -> None:
        if kind == "setup":
            setup_times.append(run_setup(name, seed, work / f"inputs{arg}", sizes))
        else:
            elapsed = runner.cold(arg, check)
            if elapsed is not None:
                cold_ms.append(elapsed * 1000)
                cold_costs.append(elapsed / reference.cold_start())

    ms: dict[str, list[float]] = {}
    call_busy = kernel_busy = 0.0
    start = time.perf_counter()
    next_event = 0
    while True:
        for call in workload.round(ctx, rng):
            elapsed = runner.call(call)
            if elapsed is not None:
                ms.setdefault(call.label, []).append(elapsed * 1000)
                costs.pending.append((call.label, elapsed * 1000))
                call_busy += elapsed
            batch = []
            while kernel_busy < KERNEL_SHARE * call_busy:
                batch.append(reference.kernel() * 1000)
                kernel_busy += batch[-1] / 1000
            if batch:
                costs.settle(statistics.median(batch))
                kernel_ms += batch
        share = (time.perf_counter() - start) / max(seconds, 1e-9)
        while next_event < len(events) and share >= (next_event + 1) / (len(events) + 1):
            run_event(*events[next_event])
            next_event += 1
        if share >= 1:
            break
    for event in events[next_event:]:
        run_event(*event)
    if costs.pending:
        kernel_ms.append(reference.kernel() * 1000)
        costs.settle(kernel_ms[-1])
    wall = time.perf_counter() - start

    metrics = {}
    if cold_costs and all(label in ms for label in labels):
        metrics = {
            "setup_s": metric(statistics.median(setup_times), "s"),
            "round_cost_p50": metric(
                sum(statistics.median(costs.by_label[label]) for label in labels), "ref"),
            "cli_cold_cost_p50": metric(statistics.median(cold_costs), "ref"),
        }
    pooled = [t for values in ms.values() for t in values]
    detail = {
        "setup_s_samples": setup_times,
        "calls": len(pooled),
        "wall_s": wall,
        "calls_per_s": len(pooled) / wall,
        "round_ms_p50": sum(statistics.median(v) for v in ms.values()) if ms else None,
        "kernel_ms_p50": statistics.median(kernel_ms),
        "kernels": len(kernel_ms),
        "call_ms_p50": statistics.median(pooled) if pooled else None,
        "call_ms_quartiles": quartiles(pooled),
        "call_ms_tail": tail(pooled) if pooled else None,
        "by_label": {label: {"samples": len(v), "ms_p50": statistics.median(v),
                             "cost_p50": statistics.median(costs.by_label[label])}
                     for label, v in sorted(ms.items())},
        "cold_ms_samples": cold_ms,
        "cold_cost_samples": cold_costs,
        **search_detail(ctx),
        "checkpoint_bytes": ctx.checkpoint_bytes,
    }
    return metrics, detail


def search_detail(ctx) -> dict:
    """Node and prune counts per k, and a digest to compare runs at a glance."""
    counts = {str(k): {"nodes": n, "prunes": p} for k, (n, p) in sorted(ctx.search_counts.items())}
    digest = hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()[:16]
    return {"search_counts": counts, "search_fingerprint": digest}


# -- traced run ------------------------------------------------------------------

# metric -> (span name, call groups, call label prefixes or None for all)
LARGE = ("large-family", "large-verify")
LAYER_TIMES = {
    "binmat.parse_matrix_ms.fixtures": ("binmat.parse_matrix", ("pipeline",), None),
    "binmat.parse_matrix_ms.v1000": ("binmat.parse_matrix", ("large-verify",), None),
    "binmat.format_matrix_ms.v1000": ("binmat.format_matrix", ("large-family",), None),
    "binmat.to_numpy_ms.v1000": ("binmat.to_numpy", LARGE, None),
    "binmat.col_sums_ms.v1000": ("binmat.col_sums", LARGE, None),
    "binmat.is_perm_equivalent_ms.b4c_core": ("binmat.is_perm_equivalent", ("pipeline",),
                                              ("extract b4c",)),
    "biplane.verify_biplane_ms.accept_b4c": ("biplane.verify_biplane", ("pipeline",),
                                             ("verify b4c",)),
    "biplane.verify_biplane_ms.reject_v1000": ("biplane.verify_biplane", ("large-verify",),
                                               None),
    "pbibd.concurrence_ms.v1000": ("pbibd.concurrence", LARGE, None),
    "pbibd.classify_ms.v1000": ("pbibd.classify", LARGE, None),
    "pbibd.verify_pbibd_ms.v1000": ("pbibd.verify_pbibd", LARGE, None),
    "pbibd.classify_ms.core16": ("pbibd.classify", ("pipeline",), ("verify core16",)),
    "scheme.from_relation_matrix_ms.valid": ("scheme.from_relation_matrix", ("pipeline",),
                                             ("scheme relation6",)),
    "scheme.from_relation_matrix_ms.witness": ("scheme.from_relation_matrix", ("pipeline",),
                                               ("scheme relation16", "scheme core16_rel")),
    "scheme.bose_mesner_check_ms": ("scheme.bose_mesner_check", ("pipeline",),
                                    ("scheme relation6",)),
    "extract.extract_design_ms": ("extract.extract_design", ("pipeline",), ("extract b4c",)),
    "extract.family_generate_ms.m500": ("extract.family_generate", ("large-family",), None),
    "fixtures.write_fixtures_ms": ("fixtures.write_fixtures", ("setup",), None),
    "cli.overhead_ms": ("cli.main", ("pipeline",), None),
}
SEARCH_RULES = ("row_fill", "partial_dot", "future_row", "core_sum", "complete_dot")


def layer_times(tracer, roots: dict[int, tuple[str, str]]) -> tuple[dict, dict]:
    own = tracer.self_ns()
    metrics, samples = {}, {}
    for key, (span_name, groups, prefixes) in LAYER_TIMES.items():
        values = []
        for s in tracer.spans:
            if s["name"] != span_name:
                continue
            label, group = roots[s["call"]]
            if group in groups and (prefixes is None or label.startswith(prefixes)):
                values.append(own[s["id"]] / 1e6)
        # a function the program no longer calls on this path took no time
        metrics[key] = metric(statistics.median(values) if values else 0.0, "ms")
        samples[key] = len(values)
    return metrics, samples


def import_ms(sizes: Sizes) -> list[float]:
    out = []
    for _ in range(sizes.setup_repeats):
        proc = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], env=child_env(),
                              capture_output=True, text=True, check=True, timeout=120)
        out.append(float(proc.stdout.strip()) * 1000)
    return out


def trace_pass(seed: int, seconds: float, sizes: Sizes, work: Path,
               runner: Runner) -> tuple[dict, dict, list[dict]]:
    import inputs as inp
    import tracing
    import workloads as wl

    rng = random.Random(seed)
    indir = work / "inputs"
    inp.make_inputs("fixtures-pipeline", seed, str(indir), sizes.large_m)
    inp.make_inputs("large-structure", seed, str(indir), sizes.large_m)
    ctx = wl.Context(inputs=str(indir), work=str(work), large_m=sizes.large_m,
                     search_ks=sizes.search_ks)
    tracer = tracing.Tracer()
    roots: dict[int, tuple[str, str]] = {}

    def traced(calls: list) -> list[float]:
        """Run calls under spans; return the seconds of those that passed."""
        times = []
        with tracing.instrumented(tracer):
            for call in calls:
                with tracer.span("call", label=call.label, group=call.group) as root:
                    elapsed = runner.call(call)
                roots[root["id"]] = (call.label, call.group)
                if elapsed is not None:
                    times.append(elapsed)
        return times

    imports = import_ms(sizes)
    fixtures_dir = str(work / "traced-fixtures")
    traced([wl.Call("fixtures", "setup",
                    lambda: wl.cli_call(["fixtures", "--out", fixtures_dir]),
                    lambda obs: wl.report_of(obs, 0))])

    # alternate untraced and traced pipeline rounds, so load drift hits both alike
    plain_ms, traced_ms = [], []
    deadline = time.perf_counter() + seconds * TRACE_PIPELINE_SHARE
    while True:
        for call in wl.shuffled(wl.pipeline_round(ctx), rng):
            t = runner.call(call)
            if t is not None:
                plain_ms.append(t * 1000)
        traced_ms += [t * 1000 for t in traced(wl.shuffled(wl.pipeline_round(ctx), rng))]
        if time.perf_counter() >= deadline:
            break

    # one call per (loop, k), so each search span is one exhaust
    search_ms: dict[tuple[str, int], float] = {}
    for loop in wl.shuffled(list(wl.SEARCH_LOOPS), rng):
        for k in wl.shuffled(list(sizes.search_ks), rng):
            done = traced([wl.search_call(ctx, loop, k)])
            if done:
                search_ms[(loop, k)] = done[0] * 1000
    probe_s = traced([wl.search_probe_call(11, sizes.k11_budget)])
    traced(wl.shuffled([wl.large_family_call(ctx), wl.large_verify_call(ctx)], rng))

    metrics, samples = layer_times(tracer, roots)
    metrics["cli.import_ms"] = metric(statistics.median(imports), "ms")
    if plain_ms and traced_ms:
        metrics["trace.overhead_ms_per_call"] = metric(
            statistics.median(traced_ms) - statistics.median(plain_ms), "ms")
    if runner.failed == 0:
        metrics.update(search_metrics(ctx, search_ms, sizes.k11_budget / probe_s[0]))

    detail = {
        "span_samples": samples,
        "import_ms_samples": imports,
        "pipeline_untraced_ms_p50": statistics.median(plain_ms) if plain_ms else None,
        "pipeline_traced_ms_p50": statistics.median(traced_ms) if traced_ms else None,
        "pipeline_calls_each": len(traced_ms),
        **search_detail(ctx),
        "search_ms": {f"{loop} k{k}": t for (loop, k), t in sorted(search_ms.items())},
    }
    spans = [{**s, "label": roots[s["call"]][0]} for s in tracer.spans]
    return metrics, detail, spans


def search_metrics(ctx, search_ms: dict[tuple[str, int], float], k11_rate: float) -> dict:
    """Exact counts per k, prunes per rule and exhaust time per loop at the largest k."""
    import workloads as wl

    k = max(ctx.search_counts)
    nodes, prunes = ctx.search_counts[k]
    out = {f"search.nodes_k{j}": metric(n, "count") for j, (n, _) in sorted(ctx.search_counts.items())}
    # a rule the search no longer has prunes nothing
    out.update({f"search.prunes_k{k}.{rule}": metric(prunes.get(rule, 0), "count")
                for rule in SEARCH_RULES})
    out[f"search.prune_ratio_k{k}"] = metric(sum(prunes.values()) / nodes, "ratio")
    out.update({f"search.exhaust_ms_k{k}.{loop}": metric(search_ms[(loop, k)], "ms")
                for loop in wl.SEARCH_LOOPS})
    sequential = search_ms[("sequential", k)]
    out[f"search.nodes_per_s_k{k}"] = metric(nodes / sequential * 1000, "1/s")
    out["search.pool2_speedup"] = metric(sequential / search_ms[("pool2", k)], "ratio")
    out["search.checkpoint_bytes"] = metric(ctx.checkpoint_bytes[k], "bytes")
    out["search.nodes_per_s_k11"] = metric(k11_rate, "1/s")
    return out


# -- entry points ----------------------------------------------------------------


def run_once(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes) -> dict:
    """Measure one workload; returns the result record (last-line fields + detail)."""
    runner = Runner()
    context = {**machine_context(), "workload": workload, "seed": seed, "seconds": seconds,
               "trace": trace, "loadavg_start": os.getloadavg()}
    work = Path(tempfile.mkdtemp(prefix="run-", dir=STATE / "work"))
    spans: list[dict] = []
    try:
        if trace:
            metrics, detail, spans = trace_pass(seed, seconds, sizes, work, runner)
        else:
            metrics, detail = measure_workload(workload, seed, seconds, sizes, work, runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    context["loadavg_end"] = os.getloadavg()
    result = {"correct": runner.failed == 0 and bool(metrics), "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    record = {**result, "context": context, "detail": detail, "failures": runner.failures}
    out = STATE / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps({**record, "spans": spans}) + "\n", encoding="utf-8")
    record["spans_file"] = str(out.relative_to(ROOT))
    return record


def smoke() -> int:
    """Each workload once at minimal size, then a minimal traced pass; all checks on."""
    import workloads as wl

    summary = {}
    for name, trace in [(name, False) for name in wl.WORKLOADS] + [("fixtures-pipeline", True)]:
        record = run_once(name, 0, 0.0, trace, SMOKE)
        summary["trace" if trace else name] = {
            k: record[k] for k in ("correct", "attempted", "failed", "failures")}
    print(json.dumps({"smoke": summary}))
    return 0 if all(r["correct"] for r in summary.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload once, minimal size")
    args = parser.parse_args(argv)

    if not (SRC / "biplane_schemes" / "__init__.py").is_file():
        print(f"error: no package source at {SRC.relative_to(ROOT)}/biplane_schemes; "
              "run from the root of a biplane-schemes checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    (STATE / "work").mkdir(parents=True, exist_ok=True)
    (STATE / "results").mkdir(parents=True, exist_ok=True)
    if args.smoke:
        return smoke()

    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")
    record = run_once(args.workload, args.seed, args.seconds, bool(args.trace), FULL)
    print(json.dumps({k: v for k, v in record.items()
                      if k not in ("correct", "attempted", "failed", "metrics")}))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
