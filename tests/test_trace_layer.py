"""The trace layer does work only where something can change.  These tests
hold it to full scans: `verify_trace` against a verifier that reads each
leg's samples off its knots by a per-time scan of its own
(`path_reference`), computes the clearance at every sample and checks the
whole table after every leg; the clearance
certificate against scans of each leg on a fine grid; the round check
of `sim._commit` against a whole-table `arrangement_violations`; and the
footprints the planner session holds against fresh ones.  A trace keeps
each path's knots bit for bit."""

import math
import random
from dataclasses import replace
from typing import Optional

import pytest

from sdar import depgraph, instances, sim, taskplan
from sdar.geom import Pose2, box_at, dist, inside, overlaps, segment_clearance
from sdar.instances import Instance, instance_hash
from sdar.motion import DT, default_arms
from sdar.taskplan import PlannerSession
from sdar.sim import (
    LegRecord,
    Trace,
    ValidationFailure,
    dumps_trace,
    loads_trace,
    run_instance,
    verify_trace,
)

from fine_grid import least_clearance, planner_steps
from path_reference import reference_point

PLAN_SEED = 42


def _samples(leg) -> list[list]:
    """Each arm's EE points at the leg's sample times, `round(1/DT)` + 1
    of them (t = 0 alone for a leg that does not move), by `reference_point`."""
    steps = round(1.0 / DT) if leg.duration > 1e-12 else 0
    times = [leg.duration * k / steps for k in range(steps + 1)] if steps else [0.0]
    return [[reference_point(knots, t) for t in times] for knots in leg.knots]


def _reference_path_fault(knots, duration) -> Optional[str]:
    if not knots:
        return "has no knots"
    times = [t for t, _, _ in knots]
    if times[0] != 0.0:
        return "path does not start at t = 0"
    if abs(times[-1] - duration) > 1e-9:
        return "path does not end at the leg's duration"
    for k in range(1, len(knots)):
        if times[k] < times[k - 1]:
            return f"knot {k} runs back in time"
        if dist(knots[k - 1][1:], knots[k][1:]) > times[k] - times[k - 1] + 1e-9:
            return f"knot {k} is reached faster than unit speed"
    return None


def _reference_non_finite(leg) -> Optional[str]:
    if not math.isfinite(leg.duration):
        return "duration"
    for a in (0, 1):
        if not all(math.isfinite(v) for knot in leg.knots[a] for v in knot):
            return f"arm {a + 1} knot"
    for arm, _, obj, t in leg.grips:
        if not math.isfinite(t):
            return f"arm {arm + 1} grip of object {obj}"
    return None


def full_scan_verify(trace, instance: Instance) -> tuple[bool, str]:
    """`verify_trace` with a sampled clearance check in place of its
    certificate: `segment_clearance` at each of a leg's `round(1/DT)` + 1
    sample times, against the clearance less 1e-6, and the whole table
    after every leg.  It adds the path rules, at the place `verify_trace`
    has them: each arm has knots, every number is finite, knot times start
    at 0, never decrease and end at the duration, no knot is reached faster
    than unit speed, even legs only close grippers and odd legs only open
    them, and each gripper event lies in the leg, where `reference_point` on
    its arm's knots gives the point it closes or opens at.  It rejects whatever
    `verify_trace` rejects, apart from clearance defects between its
    samples."""
    if isinstance(trace, str):
        trace = loads_trace(trace)
    if trace.instance_hash != instance_hash(instance):
        return False, "instance hash mismatch"
    a1, a2 = trace.arms
    clearance = max(a1.clearance, a2.clearance)
    shapes = instance.shapes
    ws = instance.workspace

    table: dict[int, Pose2] = {i: instance.start.pose_of(i) for i in instance.ids()}
    held: dict[int, Optional[int]] = {0: None, 1: None}
    prev_end = None

    def table_feasible(where: str) -> Optional[str]:
        boxes = [(i, box_at(p, *shapes[i])) for i, p in sorted(table.items())]
        for k, (i, bi) in enumerate(boxes):
            if not inside(ws, bi):
                return f"{where}: object {i} outside workspace"
            for j, bj in boxes[k + 1 :]:
                if overlaps(bi, bj):
                    return f"{where}: objects {i} and {j} overlap"
        return None

    for leg in trace.legs:
        where = f"leg {leg.index}"
        bad = _reference_non_finite(leg)
        if bad:
            return False, f"{where}: non-finite {bad}"
        for a in (0, 1):
            bad = _reference_path_fault(leg.knots[a], leg.duration)
            if bad:
                return False, f"{where}: arm {a + 1} {bad}"
        if prev_end is not None:
            for a in (0, 1):
                if dist(leg.knots[a][0][1:], prev_end[a]) > 1e-6:
                    return False, f"{where}: arm {a + 1} path discontinuity"
        for arm, action, obj, t in leg.grips:
            if leg.index % 2 == 0 and action == "open":
                return False, f"{where}: arm {arm + 1} opens on a grasp leg"
            if leg.index % 2 == 1 and action == "close":
                return False, f"{where}: arm {arm + 1} closes on a place leg"
            if not 0.0 <= t <= leg.duration:
                return False, f"{where}: arm {arm + 1} event time outside the leg"
            point = reference_point(leg.knots[arm], t)
            if action == "close":
                if obj not in table:
                    return False, f"{where}: grasping object {obj} not on the table"
                if held[arm] is not None:
                    return False, f"{where}: arm {arm + 1} already holds an object"
                if dist(point, table[obj].xy) > 1e-9:
                    return False, f"{where}: arm {arm + 1} closed away from object {obj}"
                del table[obj]
                held[arm] = obj
            else:
                if held[arm] != obj:
                    return False, f"{where}: arm {arm + 1} released unheld object {obj}"
                placed = [p for o, p, _ in leg.places if o == obj]
                if not placed or dist(point, placed[0].xy) > 1e-9:
                    return False, f"{where}: arm {arm + 1} opened away from its placement"
        for obj, pose, kind in leg.places:
            arm = 0 if held[0] == obj else (1 if held[1] == obj else None)
            if arm is None:
                return False, f"{where}: placing object {obj} that is not held"
            box = box_at(pose, *shapes[obj])
            if not inside(ws, box):
                return False, f"{where}: placement of {obj} outside workspace"
            for j, pj in table.items():
                if overlaps(box, box_at(pj, *shapes[j])):
                    return False, f"{where}: placement of {obj} overlaps object {j}"
            if kind == "goal" and not pose.almost_equal(instance.goal.pose_of(obj)):
                return False, f"{where}: goal placement of {obj} at the wrong pose"
            table[obj] = pose
            held[arm] = None
        for k, (p1, p2) in enumerate(zip(*_samples(leg))):
            c = segment_clearance(a1.base, p1, a2.base, p2)
            if c < clearance - 1e-6:
                return False, f"{where}: clearance {c:.4f} at sample {k}"
        bad = table_feasible(where)
        if bad:
            return False, bad
        prev_end = [leg.knots[a][-1][1:] for a in (0, 1)]

    if held[0] is not None or held[1] is not None:
        return False, "run ended with an object still held"
    for i in instance.ids():
        if i not in table or not table[i].almost_equal(instance.goal.pose_of(i)):
            return False, f"object {i} not at its goal pose at the end"
    return True, "ok"


def _acyclic_tables() -> list[Instance]:
    # the benchmark's acyclic-pairs tables: per size, the first random
    # tables whose dependency graph has no cycle and no complex SCC
    out = []
    for n in (6, 8, 10, 12):
        s = got = 0
        while got < 25:
            inst = instances.gen_random(n, s * 131 + n)
            s += 1
            d = depgraph.decompose(inst.graph())
            if not d.cycles and not d.complex_sccs:
                out.append(inst)
                got += 1
    return out


@pytest.fixture(scope="module")
def workload_runs():
    """(workload, instance, trace) for the benchmark's three workloads at
    plan seed 42: every 5th default-suite instance, the 20 dense tables
    (5 of them unsolved) and the 100 acyclic-pairs tables."""
    tables = {
        "default": instances.default_suite()[::5],
        "dense": [instances.gen_random(n, s) for n in (14, 16, 18, 20, 22) for s in range(4)],
        "acyclic-pairs": _acyclic_tables(),
    }
    return [
        (name, inst, run_instance(inst, PLAN_SEED)[1].trace)
        for name, insts in tables.items()
        for inst in insts
    ]


def test_verify_matches_full_scan_on_workload_traces(workload_runs):
    seen = set()
    for name, inst, trace in workload_runs:
        got = verify_trace(trace, inst)
        assert got == full_scan_verify(trace, inst), (name, inst.label)
        seen.add(got[0])
    assert seen == {True, False}  # dense has unsolved runs


def test_verify_checks_fewer_samples_than_a_full_scan(workload_runs, monkeypatch):
    calls = []
    real = sim.segment_clearance
    monkeypatch.setattr(sim, "segment_clearance", lambda *a: calls.append(1) or real(*a))
    samples = 0
    for name, inst, trace in workload_runs:
        if name == "acyclic-pairs":
            verify_trace(trace, inst)
            samples += sum(len(_samples(leg)[0]) for leg in trace.legs)
    assert 0 < len(calls) < samples / 4


def _one_leg_trace(knots0, knots1) -> tuple[Trace, Instance]:
    """A trace of a table whose objects start at their goals: one
    start-bound leg with no grips, in which the default arms' end-effectors
    follow the given (t, x, y) knots."""
    inst = instances.identity_instance(3, 0)
    leg = LegRecord(
        index=0, mode="synchronous", angles=(None, None), candidates=[],
        duration=knots0[-1][0], knots=[knots0, knots1], grips=[], places=[],
    )
    return Trace(instance_hash(inst), 0, default_arms(inst.workspace), legs=[leg]), inst


def _parked(x, duration) -> list:
    return [(0.0, x, 0.25), (duration, x, 0.25)]


def test_dash_between_two_sample_times_is_rejected():
    # at y = 0.25 the arms' segments are closest at their end-effectors, so
    # the clearance is the gap between them: 0.104, except while arm 1
    # dashes 0.009 towards arm 2 and back at unit speed, within the sample
    # times 0.10 and 0.12 of the 1 s leg, down to 0.095
    dash = [(0.0, 0.4, 0.25), (0.101, 0.4, 0.25), (0.11, 0.409, 0.25), (0.119, 0.4, 0.25), (1.0, 0.4, 0.25)]
    trace, inst = _one_leg_trace(dash, _parked(0.504, 1.0))
    assert full_scan_verify(trace, inst) == (True, "ok")
    assert verify_trace(trace, inst) == (False, "leg 0: clearance not certified at t=0.1050")
    c, t = least_clearance(trace.legs[0].knots, trace.arms, 1.0, 4)
    assert c == pytest.approx(0.095) and 0.101 < t < 0.119


def _gliding(x, duration) -> list:
    return [(0.0, x, 0.25), (duration, x + duration / 2, 0.25)]


def test_clearance_scan_is_exact_at_the_edge_of_its_bound(monkeypatch):
    # arms gliding side by side at half speed for a 0.05 s leg, at half a
    # floor above the certified threshold, are not certified at the first
    # read; at one and a half floors above they pass.  With the arms' speeds
    # summing to 1, each takes at most 2 * duration / floor + 1 reads.
    floor = sim.CERTIFY_FLOOR
    threshold = 0.1 - 1e-6 - floor
    duration = 0.05
    calls = []
    real = sim.segment_clearance
    monkeypatch.setattr(sim, "segment_clearance", lambda *a: calls.append(1) or real(*a))
    for above, want in ((0.5, (False, "leg 0: clearance not certified at t=0.0000")), (1.5, (True, "ok"))):
        gap = threshold + above * floor
        trace, inst = _one_leg_trace(_gliding(0.4, duration), _gliding(0.4 + gap, duration))
        calls.clear()
        assert verify_trace(trace, inst) == want
        assert 0 < len(calls) <= 2 * duration / floor + 1
    assert len(calls) > 1000


def test_clearance_scan_passes_a_still_stretch_in_one_read(monkeypatch):
    # both arms parked at the same edge take one read whatever the leg's
    # length; the last leg of a showcase9 trace, padded with 1,000 s of both
    # arms standing still, keeps its verdict and adds only a few reads
    floor = sim.CERTIFY_FLOOR
    threshold = 0.1 - 1e-6 - floor
    calls = []
    real = sim.segment_clearance
    monkeypatch.setattr(sim, "segment_clearance", lambda *a: calls.append(1) or real(*a))
    for duration in (0.05, 1e6):
        trace, inst = _one_leg_trace(_parked(0.4, duration), _parked(0.4 + threshold + 1.5 * floor, duration))
        calls.clear()
        assert verify_trace(trace, inst) == (True, "ok")
        assert len(calls) == 1
    inst = instances.showcase9()
    _, rec = run_instance(inst, 42)
    trace = rec.trace
    calls.clear()
    assert verify_trace(trace, inst) == (True, "ok")
    unpadded = len(calls)
    last = trace.legs[-1]
    end = last.duration + 1000.0
    last.knots = [knots + [(end, *knots[-1][1:])] for knots in last.knots]
    last.duration = end
    trace.metrics.makespan = sim._metrics(trace.legs, None).makespan  # the padded legs' makespan
    calls.clear()
    assert verify_trace(trace, inst) == (True, "ok")
    assert len(calls) <= unpadded + 2


def test_clearance_scan_matches_full_scan_on_random_walks():
    # both end-effectors wander near each other at no more than unit speed:
    # the certificate rejects every leg on which a scan on 10x the planner's
    # grid crosses the threshold, and passes every leg that the scan keeps
    # clear of the floor by more than its spacing
    rng = random.Random(7)
    arms = default_arms()
    seen = {"crossed": 0, "clear": 0}
    for _ in range(200):
        threshold = rng.uniform(0.02, 0.1)
        walks = []
        for x in (rng.uniform(0.25, 0.45), rng.uniform(0.55, 0.75)):
            t, y = 0.0, rng.uniform(0.1, 0.5)
            knots = [(t, x, y)]
            for _ in range(rng.randint(1, 6)):
                dx, dy = rng.uniform(-0.08, 0.08) + (0.08 if x < 0.5 else -0.08), rng.uniform(-0.08, 0.08)
                t += math.hypot(dx, dy) / rng.uniform(0.5, 1.0)
                x, y = x + dx, y + dy
                knots.append((t, x, y))
            walks.append(knots)
        duration = max(knots[-1][0] for knots in walks)
        for knots in walks:
            knots.append((duration, *knots[-1][1:]))
        got = sim._uncertified(*walks, arms[0].base, arms[1].base, duration, threshold)
        c, _ = least_clearance(walks, arms, duration, 10)
        spacing = duration / (10 * planner_steps(duration))
        if c < threshold:
            assert got is not None, walks
            seen["crossed"] += 1
        elif c - spacing >= threshold + sim.CERTIFY_FLOOR:
            assert got is None, walks
            seen["clear"] += 1
    assert seen["crossed"] > 50 and seen["clear"] > 50, seen


def test_overlapping_start_table_fails_at_the_first_leg():
    inst = instances.showcase9()
    _, rec = run_instance(inst, 0)
    trace = rec.trace
    first = {obj for _, _, obj, _ in trace.legs[0].grips}
    still = [i for i in inst.ids() if i not in first]
    mover, victim = still[0], still[1]
    start = dict(inst.start.poses)
    start[mover] = start[victim]
    bad = replace(inst, start=depgraph.Arrangement(start))
    trace.instance_hash = instance_hash(bad)
    got = verify_trace(trace, bad)
    assert got == full_scan_verify(trace, bad)
    lo, hi = sorted((mover, victim))
    assert got == (False, f"leg 0: objects {lo} and {hi} overlap")


def test_later_placement_overlap(workload_runs):
    # turn a placement after the first round until its footprint meets an
    # object on the table; its gripper point stays where it was.  Crowded
    # tables come first.
    for name, inst, trace in sorted(workload_runs, key=lambda run: run[0] != "dense"):
        for leg in trace.legs[3:]:
            for p, (obj, pose, kind) in enumerate(leg.places):
                try:
                    for eighth in (1, 2, 3):
                        turned = Pose2(pose.x, pose.y, pose.theta + eighth * math.pi / 4)
                        leg.places[p] = (obj, turned, kind)
                        want = full_scan_verify(trace, inst)
                        if f"leg {leg.index}: placement of {obj} overlaps object" in want[1]:
                            assert verify_trace(trace, inst) == want
                            return
                finally:
                    leg.places[p] = (obj, pose, kind)
    pytest.fail("no turned placement overlaps a neighbour")


def test_nan_sample_is_rejected_naming_its_leg():
    inst = instances.showcase9()
    _, rec = run_instance(inst, 0)
    trace = rec.trace
    assert verify_trace(trace, inst) == (True, "ok")
    leg = trace.legs[2]
    t, _, _ = leg.knots[0][1]
    leg.knots[0][1] = (t, math.nan, math.nan)
    want = (False, "leg 2: non-finite arm 1 knot")
    assert verify_trace(trace, inst) == want == full_scan_verify(trace, inst)
    # the same trace as text
    assert verify_trace(dumps_trace(trace), inst) == want


@pytest.mark.parametrize(
    "field, value, reason",
    [
        ("duration", math.nan, "duration"),
        ("time", math.nan, "arm 2 knot"),
        ("y", math.inf, "arm 2 knot"),
        ("grip time", math.nan, "grip"),
    ],
)
def test_non_finite_leg_numbers_are_rejected(field, value, reason):
    inst = instances.showcase9()
    _, rec = run_instance(inst, 0)
    leg = rec.trace.legs[3]
    if field == "duration":
        leg.duration = value
    elif field in ("time", "y"):
        t, x, y = leg.knots[1][-1]
        leg.knots[1][-1] = (value, x, y) if field == "time" else (t, x, value)
    else:
        leg.grips[0] = (*leg.grips[0][:3], value)
    ok, msg = verify_trace(rec.trace, inst)
    assert not ok and msg.startswith("leg 3: non-finite ") and reason in msg, msg
    assert (ok, msg) == full_scan_verify(rec.trace, inst)


def test_grip_forged_with_an_inflated_duration_is_rejected():
    # a grip moved to t = 0 finds its arm far from the object, and
    # stretching the leg's duration and both arms' final knots to 1e6 cannot
    # bring it back: the point is read off the path at the grip's own time
    inst = instances.showcase9()
    trace = run_instance(inst, PLAN_SEED)[1].trace
    leg = trace.legs[0]
    assert leg.grips[0][:3] == (0, "close", 8)
    leg.grips[0] = (*leg.grips[0][:3], 0.0)
    far = dumps_trace(trace)
    leg.duration = 1e6
    longer = dumps_trace(trace)
    for knots in leg.knots:
        knots[-1] = (1e6, *knots[-1][1:])
    forged = dumps_trace(trace)
    for verify in (verify_trace, full_scan_verify):
        assert verify(far, inst) == (False, "leg 0: arm 1 closed away from object 8")
        assert verify(longer, inst) == (False, "leg 0: arm 1 path does not end at the leg's duration")
        assert verify(forged, inst) == (False, "leg 0: arm 1 closed away from object 8")


def _retimed(knots, k, t):
    knots[k] = (t, *knots[k][1:])


def _shifted_grip(leg, g, dt):
    arm, action, obj, t = leg.grips[g]
    leg.grips[g] = (arm, action, obj, t + dt)


def _swapped_arms(leg):
    leg.grips = [(1 - arm, *rest) for arm, *rest in leg.grips]


# showcase9 at plan seed 42, leg 0: arm 1 goes straight to its pick of
# object 8 in 0.3396; arm 2 reaches its pick of object 7 at 0.2546 (knot 1)
# and waits there
@pytest.mark.parametrize(
    "tamper, want",
    [
        (lambda leg: _retimed(leg.knots[0], 0, 1e-6), "arm 1 path does not start at t = 0"),
        (lambda leg: _retimed(leg.knots[0], 1, leg.duration + 1e-6),
         "arm 1 path does not end at the leg's duration"),
        (lambda leg: _retimed(leg.knots[1], 1, leg.knots[1][1][0] / 2),
         "arm 2 knot 1 is reached faster than unit speed"),
        (lambda leg: _retimed(leg.knots[1], 1, leg.duration + 1e-3), "arm 2 knot 2 runs back in time"),
        (lambda leg: _shifted_grip(leg, 1, -1e-3), "arm 2 closed away from object 7"),
        (lambda leg: _shifted_grip(leg, 0, 1e-3), "arm 1 event time outside the leg"),
        (_swapped_arms, "arm 2 closed away from object 8"),
    ],
    ids=["late-start", "late-end", "too-fast", "backwards", "early-grip", "grip-after-leg", "swapped-arms"],
)
def test_tampered_path_is_rejected(tamper, want):
    inst = instances.showcase9()
    trace = run_instance(inst, PLAN_SEED)[1].trace
    leg = trace.legs[0]
    assert [len(knots) for knots in leg.knots] == [2, 3] and leg.knots[1][1][0] < leg.duration
    tamper(leg)
    text = dumps_trace(trace)
    for verify in (verify_trace, full_scan_verify):
        assert verify(trace, inst) == verify(text, inst) == (False, f"leg 0: {want}")


@pytest.mark.parametrize(
    "k, action, want",
    [(0, "open", "leg 0: arm 1 opens on a grasp leg"), (1, "close", "leg 1: arm 1 closes on a place leg")],
)
def test_grip_against_its_leg_parity_is_rejected(k, action, want):
    # even legs grasp and odd legs place: a grip line that says otherwise
    # is rejected before the table is read
    inst = instances.showcase9()
    trace = run_instance(inst, PLAN_SEED)[1].trace
    leg = trace.legs[k]
    assert leg.grips[0][0] == 0 and leg.grips[0][1] != action
    leg.grips[0] = (0, action, *leg.grips[0][2:])
    text = dumps_trace(trace)
    for verify in (verify_trace, full_scan_verify):
        assert verify(trace, inst) == verify(text, inst) == (False, want)


def _named(trace, inst, **fields):
    """A `replace` copy of `inst` with `fields`, which the trace now names."""
    edited = replace(inst, **fields)
    trace.instance_hash = instance_hash(edited)
    return edited


def _moved(arrangement, obj, pose):
    return depgraph.Arrangement({**arrangement.poses, obj: pose})


def _discontinuous(trace, inst):
    # leg 1's arm 1 sets out 1e-3 of its first segment from where leg 0
    # left it, so the segment stays below unit speed
    knots = trace.legs[1].knots[0]
    (t0, x0, y0), (_, x1, y1) = knots[:2]
    knots[0] = (t0, x0 + (x1 - x0) * 1e-3, y0 + (y1 - y0) * 1e-3)
    return inst


def _regripped(k, g, arm, obj):
    """Leg k's grip g given to `arm` on `obj`, at its own action and time."""

    def forge(trace, inst):
        leg = trace.legs[k]
        _, action, _, t = leg.grips[g]
        leg.grips[g] = (arm, action, obj, t)
        return inst

    return forge


def _unheld_place(trace, inst):
    trace.legs[1].places.insert(0, (3, inst.goal.pose_of(3), "goal"))
    return inst


# showcase9 at plan seed 42: in leg 0 arm 1 closes on object 8 and arm 2 on
# object 7; in leg 1 they open at their goals, 8 placed first.  Object 6
# stays on the table through leg 0, whose end checks the start table.
@pytest.mark.parametrize(
    "forge, want",
    [
        (lambda trace, inst: _named(trace, inst, start=_moved(inst.start, 6, Pose2(1.05, 0.12))),
         "leg 0: object 6 outside workspace"),
        (_discontinuous, "leg 1: arm 1 path discontinuity"),
        (_regripped(0, 1, 1, 8), "leg 0: grasping object 8 not on the table"),
        (_regripped(0, 1, 0, 7), "leg 0: arm 1 already holds an object"),
        (_regripped(1, 0, 0, 7), "leg 1: arm 1 released unheld object 7"),
        (_unheld_place, "leg 1: placing object 3 that is not held"),
        (lambda trace, inst: _named(trace, inst, shapes={**inst.shapes, 8: (0.5, 0.03)}),
         "leg 1: placement of 8 outside workspace"),
        (lambda trace, inst: _named(trace, inst, goal=_moved(inst.goal, 8, Pose2(0.55, 0.45, 0.1))),
         "leg 1: goal placement of 8 at the wrong pose"),
    ],
    ids=["start-outside", "discontinuity", "grasp-off-table", "second-grasp", "unheld-open",
         "unheld-place", "place-outside", "wrong-goal"],
)
def test_forged_table_events_are_rejected(forge, want):
    inst = instances.showcase9()
    trace = run_instance(inst, PLAN_SEED)[1].trace
    leg0, leg1 = trace.legs[:2]
    assert [grip[:3] for grip in leg0.grips] == [(0, "close", 8), (1, "close", 7)]
    assert [obj for obj, _, _ in leg1.places] == [8, 7]
    inst = forge(trace, inst)
    text = dumps_trace(trace)
    for verify in (verify_trace, full_scan_verify):
        assert verify(trace, inst) == verify(text, inst) == (False, want)


def test_non_finite_placement_cannot_be_parsed():
    inst = instances.showcase9()
    _, rec = run_instance(inst, 0)
    lines = dumps_trace(rec.trace).splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.startswith("place "))
    parts = lines[k].split()
    parts[3] = "nan"
    lines[k] = " ".join(parts)
    with pytest.raises(ValueError) as err:
        verify_trace("\n".join(lines) + "\n", inst)
    # the parse error names the line
    assert str(err.value) == (
        f"malformed sdar-trace/3 trace: line {k + 1}: non-finite pose (nan, {parts[4]}, {parts[5]})"
    )


def _round_tables():
    return [
        instances.showcase9(),
        instances.gen_mixed(5),
        instances.gen_random(18, 0),
        instances.gen_random(22, 1),  # unsolved at plan seed 42
    ]


def _checked_rounds(monkeypatch):
    """Record (what sim._commit got, what a whole-table scan of fresh
    footprints gives, the set of moved objects it passed) at every round
    check."""
    rounds = []
    real = sim.arrangement_violations
    new_session = sim.new_session
    sessions = []

    def opened(*args):
        sessions.append(new_session(*args))
        return sessions[-1]

    def checked(boxes, ws, involving=None):
        got = real(boxes, ws, involving)
        session = sessions[-1]
        assert boxes is session.boxes
        shapes = session.instance.shapes
        fresh = {i: depgraph.footprint(i, b.center, shapes) for i, b in boxes.items()}
        rounds.append((got, real(fresh, ws), involving))
        return got

    monkeypatch.setattr(sim, "new_session", opened)
    monkeypatch.setattr(sim, "arrangement_violations", checked)
    return rounds


def test_round_check_matches_full_scan(monkeypatch):
    rounds = _checked_rounds(monkeypatch)
    solved = []
    for inst in _round_tables():
        rounds.clear()
        metrics, _ = run_instance(inst, PLAN_SEED)
        solved.append(metrics.success)
        assert len(rounds) == metrics.sync_steps > 1
        assert [involving is None for *_, involving in rounds] == [True] + [False] * (len(rounds) - 1)
        for got, full, _ in rounds:
            assert got == full == []
    assert solved == [True, True, True, False]


def test_round_check_reports_an_overlapping_round_as_a_full_scan_does(monkeypatch):
    rounds = _checked_rounds(monkeypatch)
    plan_motion = sim.plan_motion
    planned = []  # the rounds planned so far in this run

    def third_round_overlaps(plan, session, **kwargs):
        sub, start, goal = plan_motion(plan, session, **kwargs)
        planned.append(sub)
        if len(planned) == 3:
            moving = {t.obj for t in sub if t.obj is not None}
            task = next(t for t in sub if t.obj is not None)
            victim = next(i for i in session.boxes if i not in moving)
            onto = replace(task, target=session.boxes[victim].center)
            sub = tuple(onto if t is task else t for t in sub)
        return sub, start, goal

    monkeypatch.setattr(sim, "plan_motion", third_round_overlaps)
    for inst in _round_tables():
        rounds.clear()
        planned.clear()
        with pytest.raises(ValidationFailure) as err:
            run_instance(inst, PLAN_SEED)
        got, full, involving = rounds[-1]
        assert len(rounds) == 3 and involving
        assert got == full and any("overlap" in issue for issue in got)
        assert str(err.value) == f"infeasible arrangement after round 3: {full}"


def test_held_boxes_match_fresh_footprints_after_every_round(monkeypatch):
    # the session holds each object's footprint at its current pose and at
    # its goal, and rebuilds only the moved objects' boxes in a round: after
    # every round each moved object's box sits at its target, both maps hold
    # each object's footprint at the box's own centre, and the graph it
    # keeps (re-testing only the edges into what moved) is what fresh
    # footprints give.  The dense tables at four plan seeds park objects and
    # bring them home, and fail at every kind of round.
    apply_round = PlannerSession.apply_round
    rounds = []

    def checked(session, sub, goal_motion):
        was_buffered = set(session.buffered)
        apply_round(session, sub, goal_motion)
        inst = session.instance
        shapes = inst.shapes
        assert all(session.boxes[t.obj].center == t.target for t in sub if t.obj is not None)
        fresh = [(i, depgraph.footprint(i, b.center, shapes)) for i, b in session.boxes.items()]
        assert list(session.boxes.items()) == fresh and list(session.boxes) == inst.ids()
        goals = [(i, depgraph.footprint(i, p, shapes)) for i, p in inst.goal.on_table()]
        assert list(session.goal_boxes.items()) == goals
        left = sorted(session.remaining)
        graph = depgraph.build_dependency_graph(
            depgraph.footprints(
                depgraph.Arrangement({i: session.boxes[i].center for i in left}), shapes
            ),
            depgraph.footprints(depgraph.Arrangement({i: inst.goal.pose_of(i) for i in left}), shapes),
        )
        assert session.graph_over_remaining() == graph
        parks = any(t.to_buffer for t in sub)
        homes = any(t.obj in was_buffered and not t.to_buffer for t in sub)
        rounds.append((parks, homes))

    monkeypatch.setattr(PlannerSession, "apply_round", checked)
    dense = [instances.gen_random(n, s) for n in (14, 16, 18, 20, 22) for s in range(4)]
    runs = [(inst, PLAN_SEED) for inst in instances.default_suite()[::5]]
    runs += [(inst, seed) for seed in (PLAN_SEED, 1, 2, 3) for inst in dense]
    solved = [run_instance(inst, seed)[0].success for inst, seed in runs]
    # the dense tables solve 17, 14, 16 and 15 of 20 at these plan seeds
    assert sum(solved) == len(runs) - 3 - 6 - 4 - 5
    assert len(rounds) > 900
    assert any(parks for parks, _ in rounds) and any(homes for _, homes in rounds)


def test_a_run_builds_one_graph_and_its_replay_none(monkeypatch):
    # the session keeps its graph across rounds: a planned run with two or
    # more objects out of place builds it once, and the forced-sequential
    # replay, which plans no task, builds none
    builds = []
    build = taskplan.build_dependency_graph
    monkeypatch.setattr(taskplan, "build_dependency_graph", lambda *a: builds.append(1) or build(*a))
    tables = [instances.showcase9(), instances.gen_mixed(5), instances.gen_random(20, 1)]
    tables += instances.default_suite()[::40]
    for inst in tables:
        builds.clear()
        metrics, record = run_instance(inst, PLAN_SEED)
        assert len(sim.new_session(inst, PLAN_SEED).remaining) >= 2
        assert len(builds) == 1 and metrics.sync_steps > 1
        if metrics.success:
            builds.clear()
            forced, _ = run_instance(inst, PLAN_SEED, force_sequential=True, forced_subs=record.subs)
            assert forced.success and builds == []


def _bits(trace) -> list:
    return [
        (leg.duration.hex(), [[tuple(v.hex() for v in knot) for knot in knots] for knots in leg.knots])
        for leg in trace.legs
    ]


def test_dump_roundtrip_keeps_every_knot_bit_for_bit(workload_runs):
    for name, inst, trace in workload_runs:
        again = loads_trace(dumps_trace(trace))
        assert _bits(again) == _bits(trace), (name, inst.label)
        assert [leg.grips for leg in again.legs] == [leg.grips for leg in trace.legs]


def test_dump_roundtrip_keeps_negative_zero_and_nan():
    inst = instances.showcase9()
    _, rec = run_instance(inst, 0)
    trace = rec.trace
    leg = trace.legs[1]
    (_, x0, y0), (t1, _, y1) = leg.knots[0][:2]
    leg.knots[0][0] = (-0.0, x0, y0)
    leg.knots[0][1] = (t1, -0.0, y1)
    t2, x2, _ = leg.knots[1][1]
    leg.knots[1][1] = (t2, x2, math.nan)
    text = dumps_trace(trace)
    assert f"k 1 0 -0.0 {x0!r} {y0!r}\n" in text
    assert f"k 1 0 {t1!r} -0.0 {y1!r}\n" in text
    assert f"k 1 1 {t2!r} {x2!r} nan\n" in text
    assert dumps_trace(loads_trace(text)) == text
