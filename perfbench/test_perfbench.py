"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import tracer as tracing

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

bench.load_sdar()


def tiny(workload, trace=False, limit=2):
    return bench.run(workload, 42, seconds=0, trace=trace, limit=limit, setup_reps=1)


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_smoke_each_workload(workload):
    res = tiny(workload)
    assert res.correct, res.notes
    assert (res.attempted, res.failed) == (2, 0)
    assert list(res.metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert res.units[m["name"]] == m["unit"]
        assert not res.metrics[m["name"]] <= 0  # NaN if no tiny-run row qualifies


def test_traced_run_reports_every_layer_metric():
    res = tiny("acyclic-pairs", trace=True, limit=1)
    assert res.correct, res.notes
    assert sorted(res.metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    for m in SPEC["per_layer"]:
        assert res.units[m["name"]] == m["unit"]
    layers = sum(res.metrics[f"{layer}.self_s"] for layer in bench.LAYERS)
    assert layers + res.metrics["harness.self_s"] == pytest.approx(res.metrics["trace.wall_s"])
    assert res.metrics["motion.validate_calls"] > 0
    assert res.metrics["geom.segment_clearance_calls"] > 0


def test_deterministic_metrics_repeat_exactly():
    keys = ("success_rate", "action_ratio", "makespan_saving", "actions_per_object")
    a, b = tiny("acyclic-pairs", limit=3), tiny("acyclic-pairs", limit=3)
    assert [a.metrics[k] for k in keys] == [b.metrics[k] for k in keys]
    assert a.notes[1] == b.notes[1]  # the behaviour digest line


def test_rejected_trace_of_a_solved_row_fails_the_run(monkeypatch):
    monkeypatch.setattr(bench.sim, "verify_trace", lambda trace, inst: (False, "tampered"))
    res = tiny("acyclic-pairs", limit=1)
    assert not res.correct
    assert res.failed == 1
    assert any("verify_trace rejects" in n for n in res.notes)


def test_digest_matches_roadmap_definition():
    insts = bench.instances.default_suite()[::50]
    text = "".join(
        bench.sim.dumps_trace(bench.sim.run_instance(inst, 42)[1].trace) for inst in insts
    )
    first = bench.run_pass(list(enumerate(insts)), 42)
    assert first.digest == hashlib.sha256(text.encode()).hexdigest()
    assert first.actions == sum(bench.sim.run_instance(i, 42)[0].actions for i in insts)


def test_reference_seconds_rescale_wall_time(monkeypatch):
    monkeypatch.setattr(bench, "reference_block", lambda: 2 * bench.REF_SECONDS)
    insts = [bench.instances.gen_random(4, s) for s in range(2)]
    p = bench.run_pass(list(enumerate(insts)), 42)
    assert [r.scale for r in p.rows] == [0.5, 0.5]
    assert p.ref_s == pytest.approx(p.wall_s / 2)
    assert len(p.refs) == len(insts) + 1


def _span(tr, name, layer, start, end, parent=None, folded=0.0):
    sp = tracing.Span(len(tr), parent, 0, name, layer, start, end, folded)
    tr.append(sp)
    return sp.id


def test_self_times_on_synthetic_span_tree():
    spans = []
    row = _span(spans, "row", "harness", 0.0, 10.0)
    plan = _span(spans, "sim.run_instance", "sim", 1.0, 9.0, row)
    motion = _span(spans, "motion.plan_motion", "motion", 2.0, 7.0, plan, folded=1.5)
    _span(spans, "motion.sample_buffers", "motion", 3.0, 5.0, motion, folded=0.5)
    _span(spans, "taskplan.next_task_plan", "taskplan", 7.0, 8.0, plan)
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx(
        {"harness": 2.0, "sim": 2.0, "motion": 3.0, "geom": 2.0, "taskplan": 1.0}
    )
    assert sum(selfs.values()) == pytest.approx(10.0)
    by_name = tracing.self_times(spans, key=lambda sp: sp.name)
    assert by_name["motion.plan_motion"] == pytest.approx(1.5)
    assert by_name["motion.sample_buffers"] == pytest.approx(1.5)


def test_tracer_nests_and_folds():
    ticks = iter(range(100))
    tr = tracing.Tracer(clock=lambda: float(next(ticks)))
    leaf = tr.folded(lambda x: x, "geom.leaf_calls")
    inner = tr.spanned(lambda: leaf(1) + leaf(2), "inner", "motion")
    outer = tr.spanned(inner, "outer", "sim")
    assert outer() == 3
    assert tr.counts["geom.leaf_calls"] == 2
    assert [(s.name, s.parent) for s in tr.spans] == [("outer", None), ("inner", 0)]
    assert tr.spans[1].folded_s == 2.0  # two folded calls, one tick each
    assert sum(tracing.self_times(tr.spans).values()) == tr.spans[0].duration
    assert not tr.stack


def test_patches_restore_module_attributes():
    original = bench.sim.run_instance
    with tracing.Patches() as p:
        bench.install_probes(tracing.Tracer(), p)
        assert bench.sim.run_instance is not original
    assert bench.sim.run_instance is original


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/bench.py", "--workload", "dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
