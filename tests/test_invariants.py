"""Cross-module run invariants checked over generated instances."""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from sdar import instances, sim
from sdar.depgraph import decompose, footprint
from sdar.geom import overlaps
from sdar.motion import _iter_instantiations, default_arms, plan_motion
from sdar.taskplan import TaskComplete, next_task_plan


def step_through(inst, seed=0):
    """Drive a session round by round, yielding (session, plan) before each
    round."""
    session = sim.new_session(inst, seed)
    while True:
        try:
            plan = next_task_plan(session)
        except TaskComplete:
            return
        yield session, plan
        sub, _, goal = plan_motion(plan, session)
        session.apply_round(sub, goal)


def test_buffer_count_equals_long_cycle_count():
    cases = (
        [(instances.gen_single_cycle(n, 1), 1 if n >= 3 else 0) for n in (2, 3, 5, 8)]
        + [(instances.gen_double_cycle(n, 1), None) for n in (4, 6, 9, 12)]
        + [(instances.gen_mixed(s), 1) for s in (0, 1)]
    )
    for inst, expected in cases:
        if expected is None:
            d = decompose(inst.graph())
            expected = sum(1 for c in d.cycles if len(c) >= 3)
        metrics, _ = sim.run_instance(inst, 3)
        assert metrics.success
        assert metrics.buffers_used == expected, inst.label


def test_session_terminates_within_two_n_rounds():
    for inst in (
        instances.gen_random(12, 0),
        instances.gen_mixed(2),
        instances.gen_double_cycle(10, 0),
        instances.showcase9(),
    ):
        metrics, _ = sim.run_instance(inst, 1)
        assert metrics.success
        assert metrics.sync_steps <= 2 * inst.n


def test_candidates_never_include_solved_objects():
    for inst in (instances.showcase9(), instances.gen_mixed(3)):
        for session, plan in step_through(inst):
            for pair in plan.candidates:
                assert set(pair) <= session.remaining
            for obj, _ in plan.singles:
                assert obj in session.remaining
            if plan.need_buffer and plan.candidates:
                # every buffer-flagged pair lies on one cycle of the current graph
                d = decompose(session.graph_over_remaining())
                cyc_sets = [set(c) for c in d.cycles] + [set(c) for c in d.complex_sccs]
                for pair in plan.candidates:
                    assert any(set(pair) <= c or pair[1] in c for c in cyc_sets)


def test_selected_targets_never_overlap_live_footprints():
    for seed in range(8):
        inst = instances.gen_random(8, 500 + seed)
        for session, plan in step_through(inst, seed):
            sub = next(_iter_instantiations(plan, session), None)
            if sub is None:
                continue
            moving = {t.obj for t in sub.tasks if t.obj is not None}
            for task in sub.tasks:
                if task.obj is None:
                    continue
                box = footprint(task.obj, task.target, inst.shapes)
                for i, other in session.boxes.items():
                    if i not in moving:
                        assert not overlaps(box, other)


def test_every_successful_trace_verifies():
    for inst in (
        instances.gen_random(6, 11),
        instances.gen_single_cycle(6, 2),
        instances.gen_double_cycle(7, 3),
        instances.gen_mixed(7),
    ):
        metrics, rec = sim.run_instance(inst, 13)
        assert metrics.success
        ok, msg = sim.verify_trace(sim.dumps_trace(rec.trace), inst)
        assert ok, (inst.label, msg)


@settings(max_examples=50, deadline=None)
@given(
    table=st.one_of(
        st.tuples(st.just(instances.gen_random), st.integers(2, 8)),
        st.tuples(st.just(instances.gen_single_cycle), st.integers(2, 6)),
        st.tuples(st.just(instances.gen_double_cycle), st.integers(4, 8)),
    ),
    gen_seed=st.integers(0, 10_000),
    plan_seed=st.integers(0, 10_000),
    clearance=st.sampled_from([0.05, 0.1]),
)
def test_solved_runs_are_certified_and_replanned_byte_for_byte(table, gen_seed, plan_seed, clearance):
    generate, n = table
    inst = generate(n, gen_seed)
    arms = default_arms(inst.workspace, clearance=clearance)
    metrics, rec = sim.run_instance(inst, plan_seed, arms)
    text = sim.dumps_trace(rec.trace)
    assert sim.dumps_trace(sim.run_instance(inst, plan_seed, arms)[1].trace) == text
    # the metrics line states the run's metrics but its sequence and failure
    assert sim.loads_trace(text).metrics == replace(metrics, sequence=[], failure=None)
    if metrics.success:
        assert sim.verify_trace(text, inst, arms) == (True, "ok")
