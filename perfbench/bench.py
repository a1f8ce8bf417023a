#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the sdar planner.

Run from the repository root:

    python3 perfbench/bench.py --workload default --seed 42 --seconds 15 --trace 0

Each row drives the public API exactly as one `sdar bench` row does: plan
(`sim.run_instance`), check (`sim.verify_trace`), serialize
(`sim.dumps_trace`), the single-arm oracle
(`baseline.single_arm_optimal_actions`) and the forced-sequential replay of
the same plan.  Rows run one at a time in one process (a closed loop with a
single client).  A run makes as many whole passes over the workload's
instances as end nearest to `--seconds` (at least one), and the last line it
prints is one JSON object: end-to-end metrics with `--trace 0`, per-layer
metrics from a traced run with `--trace 1`.  `--full` runs every instance of
the workload once, and on `default` at seed 42 that reproduces the behaviour
digest of ROADMAP.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPS = 3
DIGEST_SEED = 42
# (workload, --full) -> (first 12 hex digits of the behaviour digest, actions)
# of one pass at DIGEST_SEED; the full default pass is the ROADMAP.md digest.
EXPECTED_DIGESTS = {
    ("default", True): ("744ba62d9603", 1889),
    ("default", False): ("bfde4bfb4dc7", 373),
}

# Timings are also reported in reference seconds: wall seconds rescaled to the
# machine speed at which reference_block() takes REF_SECONDS, measured next to
# each row.  On a shared host the speed of pure-Python code drifts by up to
# 1.6x over minutes; the rescaled timings cancel that drift (see BASELINE.md).
REF_ITERATIONS = 20_000
REF_SECONDS = 0.004
_REF_POINTS = [(math.cos(0.1 * i), math.sin(0.13 * i)) for i in range(64)]

ACYCLIC_SIZES = (6, 8, 10, 12)
ACYCLIC_PER_SIZE = 25
DENSE_SIZES = (14, 16, 18, 20, 22)
DENSE_SEEDS = 4

sim = baseline = instances = depgraph = motion = taskplan = None


def load_sdar() -> float:
    """Import the planner from this checkout's `src`; returns seconds taken."""
    global sim, baseline, instances, depgraph, motion, taskplan
    if not (SRC / "sdar" / "__init__.py").is_file():
        raise SystemExit(f"error: no sdar sources under {SRC}")
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from sdar import baseline, depgraph, instances, motion, sim, taskplan

    return time.perf_counter() - t0


# ------------------------------------------------------------- workloads


def default_workload(seed: int) -> tuple[list, int]:
    """The 200-instance default suite (R/S/D/M) in suite order, planned at
    the run's seed."""
    return instances.default_suite(), seed


def acyclic_pairs(seed: int) -> tuple[list, int]:
    """For each size, the first instances in generator-seed order whose start
    dependency graph has no cycle and no complex SCC: only independent pairs
    and chains, so buffer sampling is almost never reached.  The run's seed
    is the plan seed.  The instances stay fixed: shifting the generator seeds
    with the run's seed moved the rows per second by about 20% between seeds,
    because a few slow instances enter or leave the set."""
    out = []
    for n in ACYCLIC_SIZES:
        s = got = 0
        while got < ACYCLIC_PER_SIZE:
            inst = instances.gen_random(n, s * 131 + n)
            s += 1
            d = depgraph.decompose(inst.graph())
            if not d.cycles and not d.complex_sccs:
                out.append(inst)
                got += 1
    return out, seed


def dense(seed: int) -> tuple[list, int]:
    """Crowded random tables with complex SCCs, 5 of the 20 unsolved.  Which
    of them are solved depends on the plan seed, so it stays DIGEST_SEED and
    the run's seed only orders the rows."""
    insts = [instances.gen_random(n, s) for n in DENSE_SIZES for s in range(DENSE_SEEDS)]
    random.Random(seed).shuffle(insts)
    return insts, DIGEST_SEED


@dataclass(frozen=True)
class Workload:
    build: object  # seed -> (instances, plan seed)
    stride: int  # a timed pass takes every stride-th instance


WORKLOADS = {
    "default": Workload(default_workload, 5),
    "acyclic-pairs": Workload(acyclic_pairs, 1),
    "dense": Workload(dense, 1),
}


# ------------------------------------------------------------------ rows


@dataclass
class Row:
    index: int
    solved: bool
    actions: int
    objects: int  # objects out of place at the start
    oracle_exact: Optional[int]  # single-arm optimum when the oracle is exact
    makespan: float
    seq_makespan: Optional[float]
    plan_s: float
    trace_sha: str
    error: Optional[str] = None
    row_s: float = 0.0  # wall time of the whole row
    scale: float = 1.0  # REF_SECONDS / reference block time around the row

    @property
    def plan_ref_s(self) -> float:
        return self.plan_s * self.scale


def bench_row(index: int, inst, seed: int) -> tuple[Row, str]:
    """One benchmark row; returns it with the serialized trace."""
    t0 = time.perf_counter()
    metrics, record = sim.run_instance(inst, seed)
    plan_s = time.perf_counter() - t0
    verified, why = sim.verify_trace(record.trace, inst)
    text = sim.dumps_trace(record.trace)
    try:
        oracle = baseline.single_arm_optimal_actions(inst)
        exact = oracle.single_arm_optimal_actions if oracle.assumption_holds else None
    except baseline.BudgetExceeded:
        exact = None
    error = None
    seq = None
    if metrics.success:
        if not verified:
            error = f"solved but verify_trace rejects the trace: {why}"
        forced, _ = sim.run_instance(
            inst, seed, force_sequential=True, forced_subs=record.subs
        )
        if forced.success:
            seq = forced.makespan
            if forced.sequence != metrics.sequence:
                error = "forced-sequential replay changed the plan"
    objects = sum(
        1 for i in inst.ids() if not inst.start.pose_of(i).almost_equal(inst.goal.pose_of(i))
    )
    row = Row(
        index=index,
        solved=metrics.success and verified,
        actions=metrics.actions,
        objects=objects,
        oracle_exact=exact,
        makespan=metrics.makespan,
        seq_makespan=seq,
        plan_s=plan_s,
        trace_sha=hashlib.sha256(text.encode()).hexdigest(),
        error=error,
    )
    return row, text


def failed_row(index: int, exc: Exception) -> Row:
    return Row(index, False, 0, 0, None, 0.0, None, 0.0, "", error=repr(exc))


# ------------------------------------------------------------------ passes


def reference_block() -> float:
    """Wall time of a fixed pure-Python computation that is not part of the
    planner, so no change to the planner changes it."""
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(REF_ITERATIONS):
        ax, ay = _REF_POINTS[k & 63]
        bx, by = _REF_POINTS[(k * 7) & 63]
        dx, dy = bx - ax, by - ay
        acc += math.hypot(dx, dy) if dx > dy else abs(dx) + abs(dy)
    return time.perf_counter() - t0


@dataclass
class Pass:
    rows: list[Row]
    refs: list[float]  # reference block times, one before each row and one after
    digest: str  # sha256 of the concatenated traces, in instance order
    actions: int

    @property
    def wall_s(self) -> float:
        return sum(r.row_s for r in self.rows)

    @property
    def ref_s(self) -> float:
        return sum(r.row_s * r.scale for r in self.rows)


def run_pass(insts: list, seed: int, tr: Optional[tracing.Tracer] = None) -> Pass:
    """Every instance once, in order, each row after the previous one ends,
    with a reference block before each row and after the last."""
    h = hashlib.sha256()
    rows = []
    refs = [reference_block()]
    for index, inst in insts:
        root = None
        t0 = time.perf_counter()
        if tr is not None:
            tr.request = index
            root = tr.open("row", "harness")
        try:
            row, text = bench_row(index, inst, seed)
            h.update(text.encode())
        except Exception as exc:  # a crashed row is counted as failed
            traceback.print_exc(file=sys.stderr)
            row = failed_row(index, exc)
        finally:
            if root is not None:
                tr.close(root)
        row.row_s = time.perf_counter() - t0
        rows.append(row)
        refs.append(reference_block())
    for k, row in enumerate(rows):
        # median of the blocks nearest the row, so one disturbed block does not skew it
        row.scale = REF_SECONDS / statistics.median(refs[max(0, k - 1) : k + 3])
    return Pass(rows, refs, h.hexdigest(), sum(r.actions for r in rows))


def check_repeats(passes: list[Pass]) -> list[str]:
    """Passes over the same instances at the same seed must emit the same
    traces byte for byte."""
    first = {r.index: r.trace_sha for r in passes[0].rows}
    return [
        f"row {r.index}: trace differs between passes"
        for p in passes[1:]
        for r in p.rows
        if r.trace_sha != first[r.index]
    ]


# ---------------------------------------------------------------- metrics


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) as statistics.quantiles gives it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def quality(rows: list[Row]) -> dict[str, float]:
    """Plan-quality metrics of one pass; they are deterministic per seed."""
    solved = [r for r in rows if r.solved]
    exact = [r for r in solved if r.oracle_exact is not None and r.actions > 0]
    saved = [r for r in solved if r.seq_makespan]
    moved = sum(r.objects for r in solved)

    def mean(xs):
        return sum(xs) / len(xs) if xs else float("nan")

    return {
        "success_rate": len(solved) / len(rows),
        "action_ratio": mean([r.oracle_exact / r.actions for r in exact]),
        "makespan_saving": mean([1.0 - r.makespan / r.seq_makespan for r in saved]),
        "actions_per_object": sum(r.actions for r in solved) / moved if moved else float("nan"),
        "action_ratio_n": len(exact),
        "solved": len(solved),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


E2E_UNITS = {
    "instances_per_ref_s": "1/ref_s",
    "plan_ref_s_mean": "ref_s",
    "success_rate": "ratio",
    "action_ratio": "ratio",
    "makespan_saving": "ratio",
    "actions_per_object": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def end_to_end(passes: list[Pass], setup_s: float) -> dict[str, float]:
    rows = [r for p in passes for r in p.rows]
    q = quality(passes[0].rows)
    return {
        "instances_per_ref_s": len(rows) / sum(p.ref_s for p in passes),
        "plan_ref_s_mean": sum(r.plan_ref_s for r in rows) / len(rows),
        "success_rate": q["success_rate"],
        "action_ratio": q["action_ratio"],
        "makespan_saving": q["makespan_saving"],
        "actions_per_object": q["actions_per_object"],
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }


# ----------------------------------------------------------------- tracing


def install_probes(tr: tracing.Tracer, patches: tracing.Patches) -> None:
    """Wrap each layer's public entry points where their callers look them up."""
    count = tr.count

    def run_instance(fn):
        plan = tr.spanned(fn, "sim.run_instance", "sim")
        replay = tr.spanned(fn, "sim.replay", "sim")
        return lambda *a, **k: (replay if k.get("force_sequential") else plan)(*a, **k)

    def dumps_trace(fn):
        inner = tr.spanned(fn, "sim.dumps_trace", "sim")

        def wrapper(trace):
            text = inner(trace)
            count("sim.legs", len(trace.legs))
            count("sim.trace_bytes", len(text.encode()))
            return text

        return wrapper

    def on_plan(plan):
        count("taskplan.plans")
        count("taskplan.candidates", len(plan.candidates))
        if plan.need_buffer:
            count("taskplan.buffer_plans")

    def when(exc_type, counter):
        def on_error(exc):
            if isinstance(exc, exc_type):
                count(counter)

        return on_error

    def spanned(name, layer, **hooks):
        return lambda fn: tr.spanned(fn, name, layer, **hooks)

    def folded(counter):
        return lambda fn: tr.folded(fn, counter)

    wrap = patches.wrap
    # calls the harness makes
    wrap(sim, "run_instance", run_instance)
    wrap(sim, "verify_trace", spanned("sim.verify_trace", "sim"))
    wrap(sim, "dumps_trace", dumps_trace)
    wrap(
        baseline,
        "single_arm_optimal_actions",
        spanned(
            "baseline.oracle", "baseline",
            on_error=when(baseline.BudgetExceeded, "baseline.oracle_budget_exceeded"),
        ),
    )
    # sim -> taskplan, motion, depgraph
    wrap(sim, "next_task_plan", spanned("taskplan.next_task_plan", "taskplan", on_result=on_plan))
    wrap(
        sim,
        "plan_motion",
        spanned(
            "motion.plan_motion", "motion",
            on_error=when(motion.MotionFailure, "motion.plan_motion_failures"),
        ),
    )
    wrap(sim, "arrangement_violations", spanned("depgraph.arrangement_violations", "depgraph"))
    # taskplan, instances (Instance.graph) and baseline -> depgraph
    for module in (taskplan, instances):
        wrap(module, "build_dependency_graph", spanned("depgraph.build", "depgraph"))
    for module in (taskplan, baseline):
        wrap(module, "decompose", spanned("depgraph.decompose", "depgraph"))
    # motion internals: buffer sampling, rung ladder, validation
    wrap(
        motion,
        "sample_buffers",
        spanned(
            "motion.sample_buffers", "motion",
            on_result=lambda poses: count("motion.buffer_poses", len(poses)),
            on_error=when(motion.BufferSamplingExhausted, "motion.sample_buffers_exhausted"),
        ),
    )
    wrap(
        motion,
        "validate_motion",
        spanned(
            "motion.validate", "motion",
            on_result=lambda c: c is not None and count("motion.validate_conflicts"),
        ),
    )
    wrap(
        motion,
        "plan_sync",
        spanned(
            "motion.rung_sync", "motion",
            on_result=lambda r: isinstance(r, motion.Conflict) and count("motion.rung_sync_conflicts"),
        ),
    )
    wrap(
        motion,
        "untangle",
        spanned(
            "motion.rung_untangle", "motion",
            on_result=lambda r: r is None and count("motion.rung_untangle_fails"),
        ),
    )
    wrap(
        motion,
        "sequential_fallback",
        spanned(
            "motion.rung_sequential", "motion",
            on_error=when(motion.SubTaskInfeasible, "motion.rung_sequential_fails"),
        ),
    )
    wrap(
        motion,
        "grasp_feasible",
        lambda fn: tr.counted(fn, "motion.grasp_feasible_calls", "motion.grasp_feasible_rejects"),
    )
    # geometry primitives: counted and timed on the calling span
    for module, names in (
        (motion, ("boxes_closer_than", "segment_clearance", "overlaps")),
        (sim, ("segment_clearance", "overlaps")),
        (depgraph, ("overlaps",)),
    ):
        for name in names:
            wrap(module, name, folded(f"geom.{name}_calls"))


COUNTERS = (
    "taskplan.plans",
    "taskplan.buffer_plans",
    "taskplan.candidates",
    "motion.sample_buffers_exhausted",
    "motion.buffer_poses",
    "geom.boxes_closer_than_calls",
    "geom.segment_clearance_calls",
    "geom.overlaps_calls",
    "motion.validate_conflicts",
    "motion.rung_sync_conflicts",
    "motion.rung_untangle_fails",
    "motion.rung_sequential_fails",
    "motion.grasp_feasible_calls",
    "motion.grasp_feasible_rejects",
    "motion.plan_motion_failures",
    "sim.trace_bytes",
    "sim.legs",
    "baseline.oracle_budget_exceeded",
)
SPAN_CALLS = {
    "depgraph.build_calls": "depgraph.build",
    "motion.sample_buffers_calls": "motion.sample_buffers",
    "motion.validate_calls": "motion.validate",
    "motion.rung_sync_calls": "motion.rung_sync",
    "motion.rung_untangle_calls": "motion.rung_untangle",
    "motion.rung_sequential_calls": "motion.rung_sequential",
}
SPAN_TIMES = {
    "depgraph.build_s": "depgraph.build",
    "depgraph.decompose_s": "depgraph.decompose",
    "motion.sample_buffers_s": "motion.sample_buffers",
    "motion.validate_s": "motion.validate",
    "motion.plan_motion_s": "motion.plan_motion",
    "sim.verify_s": "sim.verify_trace",
    "sim.dump_s": "sim.dumps_trace",
    "sim.replay_s": "sim.replay",
    "baseline.oracle_s": "baseline.oracle",
}
LAYERS = ("depgraph", "taskplan", "motion", "geom", "sim", "baseline")


def per_layer(tr: tracing.Tracer, traced: list[Pass], untraced: Pass, gen_s: float) -> dict:
    """Per-layer numbers per pass over the workload, from the traced passes."""
    k = len(traced)
    spans = tr.spans
    calls: dict[str, int] = {}
    for sp in spans:
        calls[sp.name] = calls.get(sp.name, 0) + 1
    totals = tracing.total_by_name(spans)
    selfs = tracing.self_times(spans)
    by_name = tracing.self_times(spans, key=lambda sp: sp.name)
    wall = sum(p.wall_s for p in traced) / k
    out: dict[str, float] = {"instances.gen_s": gen_s}
    for name in COUNTERS:
        out[name] = tr.counts.get(name, 0) / k
    for metric, name in SPAN_CALLS.items():
        out[metric] = calls.get(name, 0) / k
    for metric, name in SPAN_TIMES.items():
        out[metric] = totals.get(name, 0.0) / k
    for layer in LAYERS:
        out[f"{layer}.self_s"] = selfs.get(layer, 0.0) / k
    out["sim.execute_self_s"] = (
        by_name.get("sim.run_instance", 0.0) + by_name.get("sim.replay", 0.0)
    ) / k
    sb = out["motion.sample_buffers_calls"]
    out["motion.buffer_poses_per_call"] = out["motion.buffer_poses"] / sb if sb else 0.0
    out["harness.self_s"] = wall - sum(out[f"{layer}.self_s"] for layer in LAYERS)
    out["trace.wall_s"] = wall
    out["trace.overhead"] = sum(p.ref_s for p in traced) / k / untraced.ref_s - 1.0
    out["trace.spans"] = len(spans) / k
    return out


def self_time_gap(tr: tracing.Tracer) -> float:
    """Layer self times (the harness's row time included) less the rows'
    wall time; zero up to rounding when every span nested properly."""
    rows = sum(sp.duration for sp in tr.spans if sp.parent is None)
    return abs(sum(tracing.self_times(tr.spans).values()) - rows)


# -------------------------------------------------------------------- run


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    units: dict[str, str]
    notes: list[str]

    def json_line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    k: {"value": v, "unit": self.units[k]} for k, v in self.metrics.items()
                },
            }
        )


def setup(workload: str, seed: int, reps: int) -> tuple[list, int, list[float]]:
    """The workload's instances and plan seed, built `reps` times over to
    time the set-up."""
    build = WORKLOADS[workload].build
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        insts, plan_seed = build(seed)
        times.append(time.perf_counter() - t0)
    return insts, plan_seed, times


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    full: bool = False,
    limit: Optional[int] = None,
    setup_reps: int = SETUP_REPS,
    import_s: float = 0.0,
    spans_path: Optional[Path] = None,
) -> Result:
    insts, plan_seed, gen_times = setup(workload, seed, setup_reps)
    gen_s = statistics.median(gen_times)
    indexed = list(enumerate(insts))
    if not full:
        indexed = indexed[:: WORKLOADS[workload].stride]
    if limit is not None:
        indexed = indexed[:limit]

    def timed_passes(tr=None) -> list[Pass]:
        """Whole passes, as many as end nearest to `seconds` (at least one)."""
        passes = [run_pass(indexed, plan_seed, tr)]
        spent = passes[0].wall_s
        while not full and spent + 0.5 * spent / len(passes) < seconds:
            passes.append(run_pass(indexed, plan_seed, tr))
            spent += passes[-1].wall_s
        return passes

    problems = []  # anything here makes the run incorrect
    if trace:
        untraced = run_pass(indexed, plan_seed)
        tr = tracing.Tracer()
        with tracing.Patches() as patches:
            install_probes(tr, patches)
            traced = timed_passes(tr)
        passes = [untraced] + traced
        metrics = per_layer(tr, traced, untraced, gen_s)
        units = {k: layer_unit(k) for k in metrics}
        gap = self_time_gap(tr)
        if gap > 1e-6:
            problems.append(f"layer self times miss the rows' wall time by {gap:.3g}s")
        if spans_path is not None:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            tr.dump(spans_path)
    else:
        passes = timed_passes()
        metrics = end_to_end(passes, import_s + gen_s)
        units = dict(E2E_UNITS)

    rows = [r for p in passes for r in p.rows]
    failed = [r for r in rows if r.error]
    problems += [f"row {r.index}: {r.error}" for r in failed]
    problems += check_repeats(passes)
    q = quality(passes[0].rows)
    plan_times = [r.plan_s for r in rows]
    wall = sum(p.wall_s for p in passes)
    ref_ms = 1e3 * statistics.median(x for p in passes for x in p.refs)
    notes = [
        f"{workload}: {len(indexed)} instances per pass, {len(passes)} passes, "
        f"{q['solved']}/{len(indexed)} solved, action_ratio over "
        f"{q['action_ratio_n']} exact-oracle instances",
        digest_note(workload, plan_seed, full, limit, passes[0]),
        f"wall clock: {len(rows) / wall:.4f} rows/s, plan time mean "
        f"{sum(plan_times) / len(plan_times):.4f}s, p50 {percentile(plan_times, 50):.4f}s, "
        f"p90 {percentile(plan_times, 90):.4f}s over {len(rows)} rows; reference block "
        f"{ref_ms:.3f} ms (REF_SECONDS {1e3 * REF_SECONDS:.3f} ms)",
    ]
    return Result(
        correct=not problems,
        attempted=len(rows),
        failed=len(failed),
        metrics=metrics,
        units=units,
        notes=notes + problems,
    )


def digest_note(workload: str, seed: int, full: bool, limit, first: Pass) -> str:
    """The behaviour digest of the first pass, flagged when it differs from
    the recorded one (a changed digest is reported, not treated as an error)."""
    line = f"behaviour digest {first.digest[:12]}, {first.actions} actions"
    expected = EXPECTED_DIGESTS.get((workload, full))
    if seed != DIGEST_SEED or limit is not None or expected is None:
        return line
    if (first.digest[:12], first.actions) == expected:
        return line + " (matches the recorded digest)"
    return line + f" DIFFERS from the recorded {expected[0]}, {expected[1]} actions"


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name in ("trace.overhead", "motion.buffer_poses_per_call"):
        return "ratio"
    if name == "sim.trace_bytes":
        return "bytes"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DIGEST_SEED, help="plan seed")
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--full", action="store_true", help="one pass over every instance")
    args = ap.parse_args(argv)

    import_s = load_sdar()
    spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl" if args.trace else None
    res = run(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        full=args.full,
        import_s=import_s,
        spans_path=spans_path,
    )
    for note in res.notes:
        print(note)
    for name, value in res.metrics.items():
        print(f"  {name:36s} {value:14.6g} {res.units[name]}")
    print(res.json_line())
    return 0 if res.correct else 1


if __name__ == "__main__":
    sys.exit(main())
