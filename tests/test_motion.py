import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdar import geom, instances, motion, sim
from sdar.depgraph import Arrangement, footprint, footprints
from sdar.geom import (
    MIN_GAP,
    Pose2,
    Workspace,
    box_at,
    boxes_closer_than,
    dist,
    inside,
    overlaps,
    segment_clearance,
)
from sdar.motion import (
    DT,
    FULL_SET,
    PAD_NEAR_SLACK,
    TOP_DOWN_SET,
    VALIDATE_GUARD,
    VALIDATE_REFINE,
    ArmModel,
    ArmTask,
    BufferSamplingExhausted,
    Conflict,
    GraspAngle,
    Mode,
    MotionFailure,
    Stage,
    SubTaskInfeasible,
    SyncMotion,
    default_arms,
    grasp_feasible,
    plan_motion,
    plan_sync,
    sample_buffers,
    sequential_fallback,
    untangle,
    validate_motion,
    _leg_endpoints,
    _pad,
    _phases,
    _timed,
)
from sdar.taskplan import BUFFER, GOAL, RELAY, TaskComplete, next_task_plan

from fine_grid import least_clearance
from grasp_reference import circles_meet, grasp_feasible_reference, pad_reach, reference_pads
from geom_reference import box_clearance, grid_cell
from ladder_reference import ladder_reference
from path_reference import reference_point

ARMS = default_arms()


def pair_leg(e1, t1, e2, t2):
    sub = (
        ArmTask(obj=0, pick=e1, target=Pose2(*t1)),
        ArmTask(obj=1, pick=e2, target=Pose2(*t2)),
    )
    return sub, [e1, e2]


def untangle_kind(motion: SyncMotion) -> str:
    delayed = any(len(k) > 2 and k[0][1:] == k[1][1:] and k[1][0] > 0 for k in motion.paths)
    return "delay" if delayed else "via"


# --------------------------------------------------------- grasp feasibility

def test_isolated_object_top_down_feasible():
    obj = box_at(Pose2(0.5, 0.3), 0.05, 0.03)
    assert grasp_feasible(obj, GraspAngle.TOP_DOWN_LONG, [], ARMS[0])


def test_flush_neighbor_blocks_long_grasp_and_facing_corridor():
    # neighbor flush against the +y long face of a wide box
    obj = box_at(Pose2(0.5, 0.3), 0.05, 0.03)
    neighbor = box_at(Pose2(0.5, 0.36), 0.05, 0.03)
    scene = [neighbor]
    assert grasp_feasible(obj, GraspAngle.TOP_DOWN_SHORT, scene, ARMS[0])
    assert not grasp_feasible(obj, GraspAngle.TOP_DOWN_LONG, scene, ARMS[0])
    assert not grasp_feasible(obj, GraspAngle.SIDE_PLANE0_POS, scene, ARMS[0])
    assert grasp_feasible(obj, GraspAngle.SIDE_PLANE0_NEG, scene, ARMS[0])


def test_out_of_reach_fails_all_angles():
    tiny = ArmModel(base=(0.0, 0.3), reach=0.2, retract=(-0.06, 0.3), via=(0.08, 0.54))
    obj = box_at(Pose2(0.9, 0.3), 0.04, 0.04)
    for angle in GraspAngle:
        assert not grasp_feasible(obj, angle, [], tiny)


def test_pads_thinner_than_their_inset_make_the_angle_infeasible():
    # an object thinner than the pads' inset: its short top-down pads would
    # have a negative half length, so that angle is infeasible, with or
    # without a neighbour to test them against, and nothing raises
    thin = box_at(Pose2(0.5, 0.3), 5e-7, 0.03)
    beside = box_at(Pose2(0.53, 0.3), 0.015, 0.015)
    for scene in ([], [beside]):
        assert not grasp_feasible(thin, GraspAngle.TOP_DOWN_SHORT, scene, ARMS[0])
    assert grasp_feasible(thin, GraspAngle.TOP_DOWN_LONG, [], ARMS[0])
    assert not grasp_feasible(thin, GraspAngle.TOP_DOWN_LONG, [beside], ARMS[0])
    assert grasp_feasible(thin, GraspAngle.SIDE_PLANE0_NEG, [beside], ARMS[0])
    # likewise a gripper no wider than the inset has no top-down grasp
    obj = box_at(Pose2(0.5, 0.3), 0.05, 0.03)
    for ee in (1e-6, 5e-7):
        arm = replace(ARMS[0], ee_radius=ee)
        top_down = [grasp_feasible(obj, angle, [], arm) for angle in TOP_DOWN_SET]
        side = [grasp_feasible(obj, angle, [], arm) for angle in FULL_SET[2:]]
        assert top_down == [False, False] and all(side)


_HALF = st.floats(0.005, 0.07)
_THIN = st.floats(1e-7, 2e-6)  # below the pads' inset


@st.composite
def _grasp_scenes(draw):
    """A box (either half extent the larger, now and then one thinner than
    the pads' inset), a gripper radius below or above its half extents, and
    obstacles about it: some overlapping the pads, some just inside and some
    just outside the broad phase's bound for a drawn angle."""
    hw = draw(st.one_of(_HALF, _HALF, _HALF, _THIN))
    hh = draw(st.one_of(_HALF, _HALF, _HALF, _THIN))
    box = box_at(
        Pose2(draw(st.floats(0.1, 0.9)), draw(st.floats(0.1, 0.5)), draw(st.floats(-math.pi, math.pi))),
        hw,
        hh,
    )
    arm = replace(ARMS[0], ee_radius=draw(st.one_of(st.floats(0.005, 0.08), _THIN)))
    obstacles = []
    for _ in range(draw(st.integers(0, 6))):
        ob_shape = (draw(_HALF), draw(_HALF))
        angle = draw(st.sampled_from(GraspAngle))
        bound = pad_reach(box, angle, arm.ee_radius) if reference_pads(box, angle, arm.ee_radius) else 0.05
        where = draw(
            st.one_of(
                st.floats(-0.06, 0.0),  # within reach of the angle's pads
                st.floats(-1e-5, 1e-5),  # at the pads' bounding circles
                st.floats(PAD_NEAR_SLACK - 1e-6, PAD_NEAR_SLACK + 1e-6),  # at the bound
                st.floats(PAD_NEAR_SLACK + 1e-9, 0.05),  # beyond it
            )
        )
        phi = draw(st.floats(-math.pi, math.pi))
        d = max(bound + math.hypot(*ob_shape) + where, 0.0)
        at = Pose2(box.center.x + d * math.cos(phi), box.center.y + d * math.sin(phi), draw(st.floats(-math.pi, math.pi)))
        obstacles.append(box_at(at, *ob_shape))
    return box, arm, obstacles


@settings(max_examples=300, deadline=None)
@given(_grasp_scenes())
def test_grasp_feasible_matches_the_whole_table_reference(scene):
    # the same verdict at every angle; on a feasible one, every obstacle the
    # check never tested fails the bounding-circle prefilter against every pad
    box, arm, obstacles = scene
    tested = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(motion, "overlaps", lambda pad, ob: tested.append(ob) or overlaps(pad, ob))
        for angle in GraspAngle:
            tested.clear()
            got = grasp_feasible(box, angle, obstacles, arm)
            assert got == grasp_feasible_reference(box, angle, obstacles, arm)
            if got:
                skipped = [ob for ob in obstacles if not any(ob is t for t in tested)]
                pads = reference_pads(box, angle, arm.ee_radius)
                assert not any(circles_meet(pad, ob) for pad in pads for ob in skipped)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_grasp_feasible_builds_no_pad_when_nothing_is_within_reach(data):
    # obstacles beyond the angle's bound cannot touch a pad: the check builds
    # none, and the angle is feasible
    box, arm, _ = data.draw(_grasp_scenes())
    angle = data.draw(st.sampled_from(GraspAngle))
    if reference_pads(box, angle, arm.ee_radius) is None:
        return
    bound = pad_reach(box, angle, arm.ee_radius)
    obstacles = []
    for _ in range(data.draw(st.integers(1, 6))):
        shape = (data.draw(_HALF), data.draw(_HALF))
        d = bound + math.hypot(*shape) + data.draw(st.floats(PAD_NEAR_SLACK + 1e-9, 0.05))
        phi = data.draw(st.floats(-math.pi, math.pi))
        at = Pose2(box.center.x + d * math.cos(phi), box.center.y + d * math.sin(phi), data.draw(st.floats(-math.pi, math.pi)))
        obstacles.append(box_at(at, *shape))
    built = []
    finger_pads = motion._finger_pads
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(motion, "_finger_pads", lambda *args: built.append(args) or finger_pads(*args))
        assert grasp_feasible(box, angle, obstacles, arm)
    assert built == []
    assert grasp_feasible_reference(box, angle, obstacles, arm)


def test_grasp_ladder_order_is_top_down_first():
    ladder = list(GraspAngle)
    assert ladder[0] == GraspAngle.TOP_DOWN_LONG
    assert ladder[1] == GraspAngle.TOP_DOWN_SHORT


# -------------------------------------------------------------- buffers

def test_sample_buffers_on_empty_table():
    ws = Workspace()
    rng = random.Random(0)
    poses = sample_pass([], 5, rng, (0.04, 0.04), ws)
    assert len(poses) == 5
    for p in poses:
        assert 0 <= p.x <= ws.width and 0 <= p.y <= ws.height


def test_sample_buffers_exhausted_on_saturated_table():
    ws = Workspace(0.3, 0.3)
    shapes = {}
    poses = {}
    k = 0
    for i in range(2):
        for j in range(2):
            shapes[k] = (0.074, 0.074)
            poses[k] = Pose2(0.075 + 0.15 * i, 0.075 + 0.15 * j)
            k += 1
    with pytest.raises(BufferSamplingExhausted):
        sample_pass(
            [*footprints(Arrangement(poses), shapes).values()], 3, random.Random(1), (0.05, 0.05), ws
        )


def test_buffer_samples_pass_overlap_audit():
    inst = instances.showcase9()
    session = sim.new_session(inst, 5)
    pending = [footprint(i, inst.goal.pose_of(i), inst.shapes) for i in inst.ids()]
    live = list(session.boxes.values())
    poses = sample_pass(live + pending, 20, random.Random(5), (0.03, 0.03), inst.workspace)
    for pose in poses:
        box = box_at(pose, 0.03, 0.03)
        for other in live + pending:
            assert not overlaps(box, other)
            assert box_clearance(box, other) >= MIN_GAP - 1e-12


def sample_pass(obstacles, k, rng, buffered_shape, workspace, min_gap=MIN_GAP):
    """A fresh listing's first pass at `min_gap`, drawn by `sample_buffers`
    calls until the listing holds k poses or a call finds none: up to k
    poses, or BufferSamplingExhausted, as one eager pass drew them."""
    listing = motion.BufferStream(obstacles, rng, buffered_shape, workspace)
    listing.gap = min_gap
    while len(listing.poses) < k and sample_buffers(listing):
        pass
    return listing.poses


def sample_buffers_reference(obstacles, k, rng, buffered_shape, workspace, min_gap=MIN_GAP):
    """sample_buffers without the broad phase: every draw is tested against
    every fixed obstacle with the exact predicate."""
    hw, hh = buffered_shape
    margin = math.hypot(hw, hh)
    found = []
    for _ in range(motion.BUFFER_DRAWS):
        if len(found) == k:
            break
        pose = Pose2(
            rng.uniform(margin, workspace.width - margin),
            rng.uniform(margin, workspace.height - margin),
            rng.uniform(-math.pi, math.pi),
        )
        box = box_at(pose, hw, hh)
        if not inside(workspace, box):
            continue
        if min_gap > 0.0:
            if any(boxes_closer_than(box, ob, min_gap) for ob in obstacles):
                continue
        elif any(overlaps(box, ob) for ob in obstacles):
            continue
        found.append(pose)
    if not found:
        raise BufferSamplingExhausted(
            f"no buffer pose found within {motion.BUFFER_DRAWS} draws for shape {buffered_shape}"
        )
    return found


def _saturated_table():
    obstacles = [
        box_at(Pose2(0.075 + 0.15 * i, 0.075 + 0.15 * j), 0.074, 0.074)
        for i, j in [(0, 0), (0, 1), (1, 0), (1, 1)]
    ]
    return obstacles, (0.05, 0.05), Workspace(0.3, 0.3)


def _crowded_table(n, seed):
    """The start boxes of every object but 0, then their goal boxes."""
    inst = instances.gen_random(n, seed)
    on_table = [footprint(i, p, inst.shapes) for i, p in inst.start.on_table() if i != 0]
    pending = [footprint(i, inst.goal.pose_of(i), inst.shapes) for i in inst.ids() if i != 0]
    return on_table + pending, inst.shapes[0], inst.workspace


def _random_table(seed, n, obstacle_halves, shape, ws=Workspace()):
    """n boxes of random size and pose, overlaps allowed: the sampler only
    reads their footprints.  Every third one stands for a pending goal and
    is listed after the others."""
    rng = random.Random(seed)
    on_table, pending = [], []
    for i in range(n):
        half = (rng.uniform(*obstacle_halves), rng.uniform(*obstacle_halves))
        pose = Pose2(rng.uniform(0.0, ws.width), rng.uniform(0.0, ws.height), rng.uniform(-3.2, 3.2))
        (pending if i % 3 == 2 else on_table).append(box_at(pose, *half))
    return on_table + pending, shape, ws


def test_sample_buffers_matches_reference_without_broad_phase():
    wide = _random_table(3, 8, (0.08, 0.2), (0.004, 0.006))
    tiny = _random_table(4, 6, (1e-9, 2e-9), (1e-8, 3e-9))
    cases = [
        ([], (0.04, 0.04), Workspace()),
        _crowded_table(12, 3),
        _crowded_table(20, 1),
        _crowded_table(22, 2),
        _saturated_table(),
        _random_table(1, 30, (0.02, 0.05), (0.03, 0.02)),
        _random_table(2, 10, (0.005, 0.12), (0.08, 0.004)),  # elongated
        wide,
        tiny,
    ]
    # discs many grid cells wide, and inner bounds of zero at min_gap 0
    side = motion.BufferGrid(wide[1], 0.0, wide[2]).side
    assert min(min(b.half_width, b.half_height) for b in wide[0]) > 4 * side
    assert all(motion.blocked_within2(min(tiny[1]), b, 0.0) == 0.0 for b in tiny[0])
    outcomes = set()
    for obstacles, shape, ws in cases:
        for min_gap in (MIN_GAP, 0.0):
            for seed, k in ((0, 20), (1, 3), (2, 20)):
                results = []
                for sampler in (sample_pass, sample_buffers_reference):
                    rng = random.Random(seed)
                    try:
                        got = sampler(obstacles, k, rng, shape, ws, min_gap)
                    except BufferSamplingExhausted as exc:
                        got = str(exc)
                    results.append((got, rng.getstate()))
                assert results[0] == results[1], (len(obstacles), min_gap, seed, k)
                outcomes.add(type(results[0][0]))
    assert outcomes == {list, str}


class ScriptedRng:
    """Stands in for random.Random: random() returns the scripted units,
    uniform(a, b) scales the next one as random.Random's does, and the state
    is the units not yet used."""

    def __init__(self, units):
        self.units = list(units)
        self.used = 0

    def random(self):
        self.used += 1
        return self.units[self.used - 1]

    def uniform(self, a, b):
        return a + (b - a) * self.random()

    def getstate(self):
        return tuple(self.units[self.used:])


def unit_for(lo, hi, value):
    """The unit that uniform(lo, hi) scales nearest to `value`, searched over
    8 ulps either side of (value - lo) / (hi - lo).  Its image is `value`
    or, at worst, a neighbouring float: where lo sits half an ulp off the
    grid of the sums, ties to even leave every other float with no unit
    (0.367999 on the default table, for a box of half sides 0.02 and 0.06)."""
    span = hi - lo
    u = (value - lo) / span
    for _ in range(8):
        u = math.nextafter(u, -math.inf)
    units = [u]
    for _ in range(16):
        units.append(math.nextafter(units[-1], math.inf))
    best = min(units, key=lambda unit: abs(lo + span * unit - value))
    assert abs(lo + span * best - value) <= math.ulp(value), (lo, hi, value)
    return best


def scripted(draws, shape, ws):
    """(units, poses): the units whose draws for a buffered `shape` on `ws`
    are nearest the (x, y, theta) of `draws`, and the poses they yield.  A
    yaw's unit is (theta + pi) / 2pi; x and y have the units of `unit_for`.
    A test that needs a draw exactly where it scripts it asserts its pose."""
    m = math.hypot(*shape)
    units, poses = [], []
    x_hi, y_hi = ws.width - m, ws.height - m
    for x, y, theta in draws:
        draw = [unit_for(m, x_hi, x), unit_for(m, y_hi, y), (theta + math.pi) / (2 * math.pi)]
        units += draw
        rng = ScriptedRng(draw)
        poses.append(
            Pose2(rng.uniform(m, x_hi), rng.uniform(m, y_hi), rng.uniform(-math.pi, math.pi))
        )
    return units, poses


class CountingRng(random.Random):
    """random.Random that counts its random() calls."""

    calls = 0

    def random(self):
        self.calls += 1
        return super().random()


def test_sample_buffers_budget_does_not_grow_with_k():
    # a pass draws BUFFER_DRAWS times at most, however many poses are read
    # from it: on a table with no room, one pass, or a listing's two, use
    # their budgets once
    obstacles, shape, ws = _saturated_table()
    for k in (1, 10**5):
        rng = CountingRng(1)
        with pytest.raises(BufferSamplingExhausted, match=f"within {motion.BUFFER_DRAWS} draws"):
            sample_pass(obstacles, k, rng, shape, ws)
        assert rng.calls == 3 * motion.BUFFER_DRAWS, k
    for read in (1, motion.K_BUFFERS + 1):
        rng = CountingRng(1)
        listing = motion.BufferStream(obstacles, rng, shape, ws)
        assert [listing.pose(i) for i in range(read)] == [None] * read
        assert rng.calls == 2 * 3 * motion.BUFFER_DRAWS, read


def _listing_calls(monkeypatch, listing, read):
    """(gap, poses or "exhausted", rng units used) of each `sample_buffers`
    call that reading poses 0 to read - 1 of `listing` makes."""
    calls = []
    real = motion.sample_buffers

    def recorded(arg):
        gap, used = arg.gap, arg.rng.used
        try:
            got = real(arg)
        except BufferSamplingExhausted:
            got = "exhausted"
            raise
        finally:
            calls.append((gap, got, arg.rng.used - used))
        return got

    monkeypatch.setattr(motion, "sample_buffers", recorded)
    for i in range(read):
        listing.pose(i)
    monkeypatch.undo()
    return calls


def test_stream_call_sequence(monkeypatch):
    # one call per pose, and none past K_BUFFERS poses
    shape, ws = (0.05, 0.05), Workspace()
    units, (free,) = scripted([(0.8, 0.3, 0.0)], shape, ws)
    listing = motion.BufferStream([], ScriptedRng(units * motion.K_BUFFERS), shape, ws)
    calls = _listing_calls(monkeypatch, listing, motion.K_BUFFERS + 2)
    assert calls == [(MIN_GAP, [free], 3)] * motion.K_BUFFERS
    # a pass that spends its last draw on an accept: the next read makes one
    # call that draws nothing and finds nothing, and completes the listing
    obstacles = [box_at(Pose2(0.3, 0.3), 0.05, 0.05)]
    blocked, _ = scripted([(0.3, 0.3, 0.0)], shape, ws)
    script = blocked * (motion.BUFFER_DRAWS - 1) + units
    listing = motion.BufferStream(obstacles, ScriptedRng(script), shape, ws)
    calls = _listing_calls(monkeypatch, listing, 4)
    assert calls == [(MIN_GAP, [free], 3 * motion.BUFFER_DRAWS), (MIN_GAP, [], 0)]
    assert listing.poses == [free]
    # a pass that finds nothing hands over to the gap-0 pass; when that
    # finds nothing either, the listing is complete and empty
    obstacles, shape, ws = _saturated_table()
    script = [0.5] * (2 * 3 * motion.BUFFER_DRAWS)
    listing = motion.BufferStream(obstacles, ScriptedRng(script), shape, ws)
    calls = _listing_calls(monkeypatch, listing, 3)
    draws = 3 * motion.BUFFER_DRAWS
    assert calls == [(MIN_GAP, "exhausted", draws), (0.0, "exhausted", draws)]
    assert listing.poses == []


def test_sample_buffers_poses_are_alternatives():
    # one free draw repeated k times is accepted k times: the call's own
    # poses are not obstacles
    units, pose = scripted([(0.5, 0.3, 0.2)], (0.05, 0.05), Workspace())
    for k in (1, 4):
        poses = sample_pass([], k, ScriptedRng(units * k), (0.05, 0.05), Workspace())
        assert poses == pose * k


def test_sample_buffers_broad_phase_keeps_boundary_draws():
    # a square turned 45 degrees has its corners on the axes, so the draw
    # whose corner touches the obstacle's sits exactly at the summed
    # circumradii, the edge of both exact tests' bounding-circle prefilters
    r = math.hypot(0.05, 0.05)
    obstacles = [box_at(Pose2(0.3, 0.3, math.pi / 4), 0.05, 0.05)]
    for min_gap, x in ((0.0, 0.3 + 2 * r), (MIN_GAP, 0.3 + 2 * r + MIN_GAP - 1e-6)):
        units, (at, far) = scripted(
            [(x, 0.3, math.pi / 4), (0.8, 0.3, 0.0)], (0.05, 0.05), Workspace()
        )
        if min_gap == 0.0:  # exactly at the summed circumradii
            assert at == Pose2(x, 0.3, math.pi / 4)
        for sampler in (sample_pass, sample_buffers_reference):
            poses = sampler(
                obstacles, 1, ScriptedRng(units), (0.05, 0.05), Workspace(), min_gap=min_gap
            )
            assert poses == [far], (sampler.__name__, min_gap)


def test_sample_buffers_inner_bound_keeps_boundary_draws():
    # elongated boxes with their short axes on the centre line: their gap is
    # the inscribed discs' gap, so a draw 1e-6 beyond the inner bound passes
    # the exact test and one 1e-6 inside fails it
    obstacle, shape = (0.09, 0.025), (0.02, 0.06)
    far = (0.9, 0.5, 0.0)
    for alpha in (0.0, 0.4, math.pi / 2, -2.2):
        obstacles = [box_at(Pose2(0.5, 0.3, alpha), *obstacle)]
        # the obstacle's short axis, and the draw turned to match it
        ux, uy = -math.sin(alpha), math.cos(alpha)
        for min_gap in (MIN_GAP, 0.0):
            bound = 0.025 + 0.02 + min_gap
            for sign in (1.0, -1.0):
                for offset in (1e-6, -1e-6):
                    s = sign * (bound + offset)
                    draw = (0.5 + s * ux, 0.3 + s * uy, alpha + math.pi / 2)
                    units, (near, clear) = scripted([draw, far], shape, Workspace())
                    expect = near if offset > 0.0 else clear
                    for sampler in (sample_pass, sample_buffers_reference):
                        poses = sampler(
                            obstacles, 1, ScriptedRng(units), shape, Workspace(),
                            min_gap=min_gap,
                        )
                        assert poses == [expect], (sampler.__name__, alpha, min_gap, s)


def _same_as_reference(obstacles, shape, ws, rng_for, k, min_gap):
    """Run sample_buffers and sample_buffers_reference from equal rngs; the
    poses (or the exhaustion message) and the rng states after must match."""
    results = []
    for sampler in (sample_pass, sample_buffers_reference):
        rng = rng_for()
        try:
            got = sampler(obstacles, k, rng, shape, ws, min_gap)
        except BufferSamplingExhausted as exc:
            got = str(exc)
        results.append((got, rng.getstate()))
    assert results[0] == results[1], (len(obstacles), shape, min_gap, k)
    return results[0][0]


def test_sample_buffers_draws_on_cell_edges():
    # squares turned 45 degrees touch corner to corner at the summed
    # circumradii (less the gap); a draw sits exactly on a cell edge in the
    # draw domain with an obstacle touching it from each side, and again
    # just clear of it
    ws = Workspace()
    shape = (0.03, 0.03)
    r = math.hypot(*shape)
    for min_gap in (0.0, MIN_GAP):
        side = motion.BufferGrid(shape, min_gap, ws).side
        touch = 2 * r + max(min_gap - 1e-6, 0.0)
        for mx, my in ((8, 5), (11, 4), (13, 2)):
            x, y = mx * side, my * side
            assert r <= x <= ws.width - r and r <= y <= ws.height - r
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                for extra, blocked in ((0.0, True), (2e-6, False)):
                    d = touch + extra
                    obstacles = [box_at(Pose2(x + dx * d, y + dy * d, math.pi / 4), *shape)]
                    units, (at, far) = scripted([(x, y, math.pi / 4), (0.85, 0.45, 0.0)], shape, ws)
                    assert at == Pose2(x, y, math.pi / 4)
                    got = _same_as_reference(
                        obstacles, shape, ws, lambda: ScriptedRng(units), 1, min_gap
                    )
                    assert got == [far if blocked else at]


def test_sample_buffers_rectangle_bound_keeps_boundary_draws():
    # draws facing an elongated obstacle's short face or a corner, where the
    # inner disc test cannot reach: 1e-6 inside the rectangle bound (the
    # draw's inscribed radius plus the gap) both exact tests reject the draw,
    # 1e-6 beyond it the draw, turned to face the obstacle, passes, and on
    # the bound the exact test decides
    obstacle, shape = (0.09, 0.025), (0.02, 0.06)
    far = (0.9, 0.5, 0.0)
    ws = Workspace()
    for alpha in (0.0, 0.4, math.pi / 2, -2.2, 2.9, -0.7):
        ob = box_at(Pose2(0.5, 0.3, alpha), *obstacle)
        (ux, uy), (vx, vy) = ob.axes()
        # (rim point, outward direction in which it is the nearest point)
        rims = [
            ((0.5 + sg * 0.09 * ux, 0.3 + sg * 0.09 * uy), (sg * ux, sg * uy)) for sg in (1, -1)
        ]
        corner = (0.5 + 0.09 * ux + 0.025 * vx, 0.3 + 0.09 * uy + 0.025 * vy)
        for phi in (math.pi / 6, math.pi / 4, math.pi / 3):
            c, s = math.cos(phi), math.sin(phi)
            rims.append((corner, (c * ux + s * vx, c * uy + s * vy)))
        for min_gap in (MIN_GAP, 0.0):
            grid = motion.BufferGrid(shape, min_gap, ws)
            for (px, py), (dx, dy) in rims:
                for offset in (1e-6, 0.0, -1e-6):
                    d = min(shape) + min_gap + offset
                    draw = (px + d * dx, py + d * dy, math.atan2(dy, dx))
                    inner2 = motion.blocked_within2(grid.inner_radius, ob, min_gap)
                    assert dist(draw[:2], ob.center.xy) ** 2 > inner2  # out of its reach
                    units, (at, clear) = scripted([draw, far], shape, ws)
                    got = _same_as_reference(
                        [ob], shape, ws, lambda: ScriptedRng(units), 1, min_gap
                    )
                    if offset:
                        assert got == [at if offset > 0.0 else clear], (alpha, min_gap, offset)


def test_sample_buffers_builds_no_box_for_a_draw_with_nothing_in_reach(monkeypatch):
    # draws at the corners of the draw domain, turned so that a corner of
    # the box reaches furthest towards the table's edge, pass as they pass
    # the reference's `inside`, with no box built when nothing is in reach;
    # a draw the domain does not prove inside the table gets its box
    built = []
    real_box_at = motion.box_at
    monkeypatch.setattr(motion, "box_at", lambda *args: built.append(args) or real_box_at(*args))
    shape = (0.05, 0.02)
    m = math.hypot(*shape)
    diag = math.atan2(shape[1], shape[0])
    hair = math.nextafter(m, 0.0)
    for ws, boxes, lo in (
        (Workspace(), False, m),
        (Workspace(0.4, 0.11), False, m),
        (Workspace(), True, hair),  # a unit just below 0: a hair outside the domain
        (Workspace(2e3, 1e3), True, m),  # too large for the rounding bound
        (Workspace(0.09, 0.3), True, m),  # narrower than the box: no domain
    ):
        draws = []
        for x in (lo, ws.width - m):
            for y in (lo, ws.height - m):
                for theta in (diag, -diag, math.pi - diag, diag - math.pi, 0.0, math.pi / 2):
                    draws.append((x, y, theta))
        units, poses = scripted(draws, shape, ws)
        assert [(p.x, p.y) for p in poses] == [(x, y) for x, y, _ in draws]
        if lo == hair:
            assert units[0] < 0.0
        k = len(draws)
        # repeated for a call that accepts none of them and runs its budget
        script = units * (motion.BUFFER_DRAWS // k)
        built.clear()
        got = _same_as_reference([], shape, ws, lambda: ScriptedRng(script), k, MIN_GAP)
        assert bool(built) == boxes, ws
        if not boxes:
            assert len(got) == k


def _draw_table(data):
    """(obstacles, shape, workspace, seed): random obstacle sets (some
    reaching over the table's edge, some elongated, some larger than the
    table) on a random table, for a buffered object that is square-ish,
    elongated or larger than the table, and the seed that drew them."""
    ws = Workspace(data.draw(st.floats(0.2, 1.5), label="w"), data.draw(st.floats(0.2, 1.0), label="h"))
    kind = data.draw(st.sampled_from(["box", "elongated", "huge"]), label="kind")
    if kind == "box":
        shape = (data.draw(st.floats(0.005, 0.08)), data.draw(st.floats(0.005, 0.08)))
    elif kind == "elongated":
        shape = (data.draw(st.floats(0.002, 0.01)), data.draw(st.floats(0.05, 0.25)))
        shape = shape[:: data.draw(st.sampled_from([1, -1]))]
    else:
        big = max(ws.width, ws.height)
        shape = (data.draw(st.floats(0.3 * big, 1.2 * big)), data.draw(st.floats(0.01, 1.2 * big)))
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    n = data.draw(st.integers(0, 14), label="n")
    table = random.Random(seed)
    obstacles = []
    for _ in range(n):
        half = [table.uniform(0.003, 0.12), table.uniform(0.003, 0.12)]
        if table.random() < 0.2:
            half[0] *= 4.0  # elongated
        if table.random() < 0.05:
            half = [1.1 * ws.width, 1.1 * ws.height]  # larger than the table
        pose = Pose2(
            table.uniform(-0.05, ws.width + 0.05),
            table.uniform(-0.05, ws.height + 0.05),
            table.uniform(-math.pi, math.pi),
        )
        obstacles.append(box_at(pose, *half))
    return obstacles, shape, ws, seed


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_sample_buffers_matches_reference_on_random_tables(data):
    obstacles, shape, ws, seed = _draw_table(data)
    min_gap = data.draw(st.sampled_from([0.0, MIN_GAP]), label="min_gap")
    k = data.draw(st.sampled_from([1, 3, 40]), label="k")
    _same_as_reference(obstacles, shape, ws, lambda: random.Random(seed + 1), k, min_gap)


def listing_reference(obstacles, k, rng, shape, ws):
    """A listing's first k poses as the eager sampler drew them: the
    `MIN_GAP` pass, then, only if it found nothing, the gap-0 pass."""
    for min_gap in (MIN_GAP, 0.0):
        try:
            return sample_buffers_reference(obstacles, k, rng, shape, ws, min_gap)
        except BufferSamplingExhausted:
            continue
    return []


def listing_calls_reference(obstacles, read, rng, shape, ws):
    """The `sample_buffers` calls that reading `read` poses of a listing
    makes: one per pose read, one that finds none when the reads pass the
    end of a listing short of K_BUFFERS, and one per pass that finds
    nothing."""
    calls = 0
    for min_gap in (MIN_GAP, 0.0):
        try:
            found = len(sample_buffers_reference(obstacles, motion.K_BUFFERS, rng, shape, ws, min_gap))
        except BufferSamplingExhausted:
            calls += 1
            continue
        return calls + min(read, found) + (read > found and found < motion.K_BUFFERS)
    return calls


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_stream_reads_a_prefix_of_the_eager_listing(data):
    # a listing's stream, read to any prefix (or past its end), gives that
    # prefix of the eager two-pass listing, having used the rng units the
    # eager loop used up to its last pose, in the calls the reference
    # counts; a pass that finds nothing uses its whole budget before the
    # gap-0 pass draws.  The crowded tables have listings of every kind:
    # full, partial, from the gap-0 pass, none
    if data.draw(st.booleans(), label="crowded"):
        n = data.draw(st.sampled_from([14, 16, 18, 20, 22]), label="n")
        obstacles, shape, ws = _crowded_table(n, data.draw(st.integers(0, 3), label="table"))
    else:
        obstacles, shape, ws, _ = _draw_table(data)
    key = repr(data.draw(st.tuples(st.integers(0, 99), st.integers(0, 40), st.integers(-1, 3)), label="key"))
    # poses to read: any prefix, or one past a full listing
    read = data.draw(st.just(motion.K_BUFFERS + 1) | st.integers(1, motion.K_BUFFERS), label="read")
    passes = []
    real = motion.sample_buffers

    def recorded(listing):
        gap = listing.gap
        try:
            return real(listing)
        finally:
            passes.append((gap, listing.left, len(listing.poses)))

    rng = CountingRng(key)
    stream = motion.BufferStream(obstacles, rng, shape, ws)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(motion, "sample_buffers", recorded)
        got = [stream.pose(i) for i in range(read)]
    eager = CountingRng(key)
    expect = listing_reference(obstacles, min(read, motion.K_BUFFERS), eager, shape, ws)
    assert got == expect + [None] * (read - len(expect))
    assert stream.poses == expect
    assert rng.calls == eager.calls
    assert len(passes) == listing_calls_reference(obstacles, read, random.Random(key), shape, ws)
    if any(gap == 0.0 for gap, _, _ in passes):
        last_gap = max(i for i, (gap, _, _) in enumerate(passes) if gap > 0.0)
        assert passes[last_gap] == (MIN_GAP, 0, 0)
        assert all(gap > 0.0 for gap, _, _ in passes[:last_gap])


def _inside(disc, px, py, strict):
    ox, oy, r2 = disc[:3]
    dx = ox - px
    dy = oy - py
    d2 = dx * dx + dy * dy
    return d2 < r2 if strict else d2 <= r2


def _discs(cells):
    return {disc for listed in cells for disc in listed}


def _domain(grid, ws):
    """The x and y ranges of the draws: uniform(margin, size - margin) lies
    between its bounds in either order."""
    m = grid.margin
    return sorted((m, ws.width - m)), sorted((m, ws.height - m))


def _assert_listed(grid, points):
    """Every disc whose own test puts a point inside is in the point's cell:
    the inner test is strict (`sample_buffers`' first pass), the reach test
    is not (its second pass)."""
    for cells, strict in ((grid.inner, True), (grid.reach, False)):
        discs = _discs(cells)
        for px, py in points:
            listed = cells[grid_cell(grid, px, py)]
            for disc in discs:
                if _inside(disc, px, py, strict):
                    assert disc in listed, (disc, px, py, strict)


def _ulps(v, n):
    out = [v]
    for step in (math.inf, -math.inf):
        w = v
        for _ in range(n):
            w = math.nextafter(w, step)
            out.append(w)
    return out


def test_buffer_grid_lists_each_disc_in_every_cell_it_reaches():
    # the grid covers only the draw domain (plus a cell of slack), so the
    # rim of every disc is swept where it lies in the domain, and so are the
    # domain's own edges where they cross a disc: discs centred near the
    # table's edge are clipped there
    ws = Workspace()
    rng = random.Random(7)
    clipped = 0
    for min_gap in (MIN_GAP, 0.0):
        for shape in ((0.03, 0.02), (0.004, 0.005), (0.1, 0.01)):
            grid = motion.BufferGrid(shape, min_gap, ws)
            (x_lo, x_hi), (y_lo, y_hi) = _domain(grid, ws)
            for _ in range(6):
                half = (rng.uniform(0.003, 0.15), rng.uniform(0.003, 0.15))
                grid.add(box_at(Pose2(rng.uniform(0, 1), rng.uniform(0, 0.6), rng.uniform(-3, 3)), *half))
            # the rim of every disc along the axes and diagonals, a few ulps
            # either way in each coordinate, and the domain's edges level
            # with the disc's centre
            rims = set()
            for cells in (grid.inner, grid.reach):
                for ox, oy, r2, *_ in _discs(cells):
                    rad = math.sqrt(r2)
                    clipped += ox - rad < x_lo or ox + rad > x_hi or oy - rad < y_lo
                    for ux, uy in ((1, 0), (-1, 0), (0, 1), (0, -1), (0.6, 0.8), (-0.8, 0.6)):
                        for px in _ulps(ox + ux * rad, 3):
                            for py in _ulps(oy + uy * rad, 3):
                                rims.add((px, py))
                    for ex in (x_lo, x_hi):
                        for py in _ulps(oy, 3):
                            rims.add((ex, py))
                    for ey in (y_lo, y_hi):
                        for px in _ulps(ox, 3):
                            rims.add((px, ey))
            drawn = [(px, py) for px, py in rims if x_lo <= px <= x_hi and y_lo <= py <= y_hi]
            assert len(drawn) > len(rims) / 4
            _assert_listed(grid, drawn)
    assert clipped > 10


def test_buffer_grid_covers_the_draw_domain_and_one_cell_more():
    # a point of the domain, or a few ulps beyond its edges, has a cell of
    # the grid; the domain itself lies in the columns and rows between the
    # slack ones.  Shapes wider than half the table turn the domain round
    # (uniform(margin, size - margin) has its bounds swapped), and shapes
    # larger than the table take it below zero
    for shape, ws in (
        ((0.03, 0.02), Workspace()),
        ((0.004, 0.005), Workspace()),
        ((0.3, 0.1), Workspace(0.5, 0.9)),
        ((0.9, 0.7), Workspace()),
        ((1e-4, 1e-4), Workspace(3.0, 0.2)),
    ):
        for min_gap in (MIN_GAP, 0.0):
            grid = motion.BufferGrid(shape, min_gap, ws)
            assert len(grid.inner) == len(grid.reach) == grid.cols * grid.rows
            (x_lo, x_hi), (y_lo, y_hi) = _domain(grid, ws)
            for lo, hi, index, count in (
                (x_lo, x_hi, grid._col, grid.cols),
                (y_lo, y_hi, grid._row, grid.rows),
            ):
                assert index(lo) == 1 and index(hi) == count - 2
                for v in _ulps(lo, 4) + _ulps(hi, 4) + [(lo + hi) / 2]:
                    assert 0 <= index(v) < count
            for x in (x_lo, x_hi):
                for y in (y_lo, y_hi):
                    assert 0 <= grid_cell(grid, x, y) < len(grid.reach)


def test_buffer_grid_pad_covers_rounding_of_the_square():
    # the reach disc at min_gap 0 has r² = reach² + EPS, whose root is
    # rounded.  b is the edge between the domain's first two columns, and
    # the disc is centred at the least x whose square's left edge x - r
    # rounds to b or beyond, so without the pad the square would start in
    # the second column; where the rounded root squares to no more than r²,
    # a point a hair left of b, in the first column, is inside the disc.
    # The buffered shape, and so the cell side and b, varies per case
    ws = Workspace()
    found = 0
    for shape in ((0.03 + 0.0003 * i, 0.02) for i in range(40)):
        grid = motion.BufferGrid(shape, 0.0, ws)
        r2 = geom.prefilter_reach2(grid.margin, box_at(Pose2(0.5, 0.3), 0.02, 0.09), 0.0)
        r = math.sqrt(r2)
        b = (2 + grid.gx) * grid.side
        while grid._col(b) >= 2:
            b = math.nextafter(b, -math.inf)
        while grid._col(b) < 2:
            b = math.nextafter(b, math.inf)
        ox = b + r
        while ox - r < b:
            ox = math.nextafter(ox, math.inf)
        while math.nextafter(ox, -math.inf) - r >= b:
            ox = math.nextafter(ox, -math.inf)
        grid.add(box_at(Pose2(ox, 0.3), 0.02, 0.09))
        (disc,) = _discs(grid.reach)
        px = math.nextafter(b, -math.inf)
        assert grid._col(px) == 1 and grid._col(ox - r) == 2
        assert px >= _domain(grid, ws)[0][0]  # a draw can land there
        if _inside(disc, px, 0.3, strict=False):
            _assert_listed(grid, [(px, 0.3)])
            found += 1
    assert found > 5


# ---------------------------------------------------------- task selection

def _step_rounds(inst, seed=42, arms=None, max_rounds=50):
    """Plan and apply a run round by round; yields the session before each
    round.  A run that has not ended after `max_rounds` rounds fails the
    test."""
    session = sim.new_session(inst, seed, arms)
    for _ in range(max_rounds):
        yield session
        try:
            plan = next_task_plan(session)
        except TaskComplete:
            return
        sub, _, goal = plan_motion(plan, session)
        session.apply_round(sub, goal)
    raise AssertionError(f"{inst.label} not done after {max_rounds} rounds")


def bind_arm_reference(session, arm_idx, obj, target, level, partner, partner_target):
    """motion._bind_arm with every footprint and grasp verdict built afresh
    from the poses of the session's held boxes."""
    shapes = session.instance.shapes
    arms = session.arms
    arm, other = arms[arm_idx], arms[1 - arm_idx]
    keepout = max(a.clearance for a in arms) + motion.BASE_KEEPOUT_MARGIN
    cur_pose = session.boxes[obj].center
    cur_box = footprint(obj, cur_pose, shapes)
    target_box = footprint(obj, target, shapes)
    if dist(cur_pose.xy, other.base) < keepout or dist(target.xy, other.base) < keepout:
        return None
    if not inside(session.instance.workspace, target_box) or dist(arm.base, target.xy) > arm.reach:
        return None
    table = [(i, footprint(i, b.center, shapes)) for i, b in session.boxes.items()]
    grasp_obstacles = [b for i, b in table if i != obj]
    place_obstacles = [b for i, b in table if i not in (obj, partner)]
    if partner is not None and partner_target is not None:
        place_obstacles.append(footprint(partner, partner_target, shapes))
    if any(overlaps(target_box, ob) for ob in place_obstacles):
        return None
    for angle in level:
        if grasp_feasible(cur_box, angle, grasp_obstacles, arm) and grasp_feasible(
            target_box, angle, place_obstacles, arm
        ):
            return ArmTask(obj=obj, angle=angle, pick=cur_pose.xy, target=target)
    return None


def test_scene_box_memo_matches_fresh_footprints_every_round():
    # the held boxes a selection binds against: each object's box, in id
    # order, is its footprint at the box's own centre
    for inst in (instances.showcase9(), instances.gen_mixed(3)):
        parked = set()  # every object seen at a buffer between rounds
        for rounds, session in enumerate(_step_rounds(inst)):
            parked |= session.buffered
            fresh = [(i, footprint(i, b.center, inst.shapes)) for i, b in session.boxes.items()]
            assert list(session.boxes.items()) == fresh, rounds
            assert list(session.boxes) == inst.ids(), rounds
        assert parked and rounds == sim.run_instance(inst, 42)[0].sync_steps > 0
        assert not session.remaining


def _checking_bind_arm(monkeypatch, check):
    """Wrap motion._bind_arm so that every call also runs `check(session,
    args, call, result)`, where `call(boxes)` binds again with `boxes` held
    in place of the session's own.

    The enumerator binds lazily, so a round would bind only the options up
    to the one it commits; it is drained once before it yields, so that
    every option of every selection is bound and checked.  The round then
    enumerates lazily again: buffer draws are keyed, so the sub-tasks are
    unchanged by this."""
    bind = motion._bind_arm
    enumerate_all = motion._iter_instantiations

    def drained(plan, session):
        list(enumerate_all(plan, session))
        yield from enumerate_all(plan, session)

    def checked(session, *args):
        result = bind(session, *args)

        def call(boxes):
            held, session.boxes = session.boxes, boxes
            try:
                return bind(session, *args)
            finally:
                session.boxes = held

        check(session, args, call, result)
        return result

    monkeypatch.setattr(motion, "_bind_arm", checked)
    monkeypatch.setattr(motion, "_iter_instantiations", drained)


def test_binding_memo_matches_fresh_memo_at_every_selection(monkeypatch):
    tables = []  # per run, the held boxes of each selection, in order
    bound = []

    def check(session, args, call, result):
        shapes = session.instance.shapes
        fresh = {i: footprint(i, b.center, shapes) for i, b in session.boxes.items()}
        assert result == call(fresh) == bind_arm_reference(session, *args)
        selections = tables[-1]
        if not selections or selections[-1] != session.boxes:
            selections.append(dict(session.boxes))
        bound.append(result)

    _checking_bind_arm(monkeypatch, check)
    # the last two need top-down short and side grasps at times
    for inst in (
        instances.showcase9(), instances.gen_mixed(3), _escalation_instance(),
        instances.gen_random(14, 1),
    ):
        # default arms reach the whole table; shorter ones make the grasp
        # verdict depend on the arm
        short = tuple(replace(a, reach=0.8) for a in default_arms(inst.workspace))
        for arms in (None, short):
            tables.append([])
            for rounds, session in enumerate(_step_rounds(inst, arms=arms)):
                pass
            assert not session.remaining
            # one table per selection, each selection being one round
            assert len(tables[-1]) == rounds > 0
    angles = {t.angle for t in bound if t is not None}
    assert None in bound and len(angles) >= 3, angles


def test_stale_binding_memo_gives_wrong_binding(monkeypatch):
    # the held boxes of the previous selection, kept into the next one, bind
    # differently: boxes that went stale across rounds would fail the check
    # above
    tables = []  # each selection's held boxes, copied when it starts
    differ = []

    def check(session, args, call, result):
        if not tables or tables[-1] != session.boxes:
            tables.append(dict(session.boxes))
        if len(tables) > 1:
            differ.append(call(tables[-2]) != result)

    _checking_bind_arm(monkeypatch, check)
    for inst in (instances.showcase9(), instances.gen_mixed(3)):
        tables.clear()
        for _ in _step_rounds(inst):
            pass
    assert sum(differ) > 10, (sum(differ), len(differ))


DENSE_TABLES = [(n, s) for n in (14, 16, 18, 20, 22) for s in range(4)]


def test_sampler_reads_the_held_boxes_then_the_pending_goals(monkeypatch):
    # on the dense tables, every sampling call of every pass gets the
    # session's own box objects, in id order, then the goal boxes of the
    # remaining objects, none of them built again
    sample = motion.sample_buffers
    new_session = sim.new_session
    sessions, passes = [], []

    def opened(*args):
        sessions.append(new_session(*args))
        return sessions[-1]

    def checked(listing):
        session = sessions[-1]
        assert list(session.boxes) == sorted(session.boxes)
        held = [*session.boxes.values()]
        held += [session.goal_boxes[i] for i in sorted(session.remaining)]
        assert len(listing.obstacles) == len(held)
        assert all(got is box for got, box in zip(listing.obstacles, held))
        if listing.grid is None:  # the pass's first draw
            passes.append(len(held))
        return sample(listing)

    monkeypatch.setattr(sim, "new_session", opened)
    monkeypatch.setattr(motion, "sample_buffers", checked)
    for n, s in DENSE_TABLES:
        sim.run_instance(instances.gen_random(n, s), 42)
    assert len(passes) > 100


def test_dense_tables_draw_the_pinned_poses_and_exhausted_passes(monkeypatch):
    # sample_buffers wrapped as the benchmark's traced probe wraps it (poses
    # are the len() of each result, an exhausted pass is the exception) over
    # the 20 dense tables at plan seed 42: a sampler the probe could not see
    # into, or draws that turn eager, move these counts (656 poses when each
    # listing drew all its poses at once)
    sample = motion.sample_buffers
    counts = {"poses": 0, "exhausted": 0}

    def probed(*args, **kwargs):
        try:
            poses = sample(*args, **kwargs)
        except BufferSamplingExhausted:
            counts["exhausted"] += 1
            raise
        counts["poses"] += len(poses)
        return poses

    monkeypatch.setattr(motion, "sample_buffers", probed)
    for n, s in DENSE_TABLES:
        sim.run_instance(instances.gen_random(n, s), 42)
    assert counts == {"poses": 278, "exhausted": 65}


def iter_instantiations_reference(plan, session):
    """The eager enumeration: every pair option bound at each angle level,
    the bound ones sorted by (max-arm travel, candidate, buffer), then each
    one-arm move of the plan, nearest arm first, bound at each angle level;
    repeats dropped.  Every parked candidate's poses are drawn up front,
    under the pair listing, and each one-arm move's under its index."""
    goal_of = session.instance.goal.pose_of
    buffers_for = {}
    if plan.need_buffer:
        for _, b in plan.candidates:
            if b not in buffers_for:
                buffers_for[b] = motion._buffer_options(session, b, motion.PAIR_LISTING)
    out = []
    for level in (motion.TOP_DOWN_SET, motion.FULL_SET):
        scored = []
        for idx, (i, j) in enumerate(plan.candidates):
            o1, o2 = motion.assign_arms((i, j), session.boxes, session.arms)
            if plan.need_buffer:
                opts = [(goal_of(i), b) for b in buffers_for[j]]
            else:
                opts = [(goal_of(i), goal_of(j))]
            for b_idx, (ti, tj) in enumerate(opts):
                tmap = {i: ti, j: tj}
                t1 = motion._bind_arm(session, 0, o1, tmap[o1], level, o2, tmap[o2])
                if t1 is None:
                    continue
                t2 = motion._bind_arm(session, 1, o2, tmap[o2], level, o1, tmap[o1])
                if t2 is None:
                    continue
                if plan.need_buffer:
                    if t1.obj == j:
                        t1 = replace(t1, to_buffer=True)
                    else:
                        t2 = replace(t2, to_buffer=True)
                travel = max(
                    dist(tuple(session.ee[a]), t.pick) + dist(t.pick, t.target.xy)
                    for a, t in enumerate((t1, t2))
                )
                scored.append((travel, idx, b_idx, (t1, t2)))
        out += [tasks for *_, tasks in sorted(scored, key=lambda s: s[:3])]
    for listing, (obj, kind) in enumerate(plan.singles):
        if kind == GOAL:
            targets = [goal_of(obj)]
        elif kind == BUFFER:
            targets = motion._buffer_options(session, obj, listing)
        else:
            keepout = max(a.clearance for a in session.arms) + motion.BASE_KEEPOUT_MARGIN
            targets = [
                p for p in motion._buffer_options(session, obj, listing)
                if all(dist(p.xy, arm.base) >= keepout for arm in session.arms)
            ]
        pose = session.boxes[obj].center
        order = sorted((0, 1), key=lambda a: dist(session.arms[a].base, pose.xy))
        for level in (motion.TOP_DOWN_SET, motion.FULL_SET):
            for arm_idx in order:
                for target in targets:
                    task = motion._bind_arm(session, arm_idx, obj, target, level, None, None)
                    if task is not None:
                        tasks = [ArmTask(), ArmTask()]
                        tasks[arm_idx] = replace(task, to_buffer=kind != GOAL)
                        out.append(tuple(tasks))
    return list(dict.fromkeys(out))


def test_lazy_enumeration_matches_eager_reference_at_every_round(monkeypatch):
    # every selection is enumerated twice: the lazy enumerator, drained, must
    # yield the eager reference's sub-tasks in the same order; the round then
    # enumerates lazily again, as an unchecked run does
    lazy = motion._iter_instantiations
    kinds = []

    def compared(plan, session):
        expect = iter_instantiations_reference(plan, session)
        got = list(lazy(plan, session))
        assert got == expect, (session.instance.label, sorted(session.remaining))
        kinds.append(
            "single" if not plan.candidates else "buffer" if plan.need_buffer else "pair"
        )
        yield from lazy(plan, session)

    monkeypatch.setattr(motion, "_iter_instantiations", compared)
    # the last is a dense table the planner does not solve
    cases = (
        (instances.showcase9(), True), (instances.gen_mixed(3), True),
        (instances.gen_random(14, 1), True), (instances.gen_random(18, 0), True),
        (instances.gen_random(22, 1), False),
    )
    for inst, solved in cases:
        metrics, _ = sim.run_instance(inst, 42)
        assert metrics.success == solved, inst.label
    assert set(kinds) == {"single", "buffer", "pair"}, kinds
    assert len(kinds) > 30


def test_drained_stream_never_repeats_a_sub_task(monkeypatch):
    # every selection's whole stream, pairs and one-arm moves, drained; the
    # round then runs as usual
    lazy = motion._iter_instantiations
    singles = []

    def drained(plan, session):
        subs = list(lazy(plan, session))
        assert len(set(subs)) == len(subs), (session.instance.label, sorted(session.remaining))
        singles.extend(sub for sub in subs if ArmTask() in sub)
        yield from lazy(plan, session)

    monkeypatch.setattr(motion, "_iter_instantiations", drained)
    for inst in (
        instances.showcase9(), instances.gen_mixed(3), instances.gen_random(14, 1),
        instances.gen_random(20, 0), instances.gen_random(22, 3),
    ):
        sim.run_instance(inst, 42)
    assert len(singles) > 100


def test_buffer_draws_are_keyed_by_round_object_and_listing():
    inst = instances.showcase9()
    session = sim.new_session(inst, 42)
    obj = inst.ids()[0]
    def listing(session, obj, listing):
        return list(motion._buffer_options(session, obj, listing))

    poses = listing(session, obj, 0)
    assert len(poses) == motion.K_BUFFERS
    # the same key gives the same poses, whatever was drawn in between
    listing(session, inst.ids()[1], 0)
    assert listing(session, obj, 0) == poses
    # another listing, object or round is another key
    for other in (listing(session, obj, 1),
                  listing(session, obj, motion.PAIR_LISTING),
                  listing(session, inst.ids()[1], 0)):
        assert other != poses
    session.round += 1
    assert listing(session, obj, 0) != poses
    # and another plan seed
    assert listing(sim.new_session(inst, 43), obj, 0) != poses


def test_a_candidates_poses_do_not_depend_on_earlier_draws():
    # every option of a buffer plan's pair stream parks its object at a pose
    # that object draws alone, in a fresh session, under the pair listing
    inst = instances.gen_single_cycle(6, 0)
    session = sim.new_session(inst, 42)
    plan = next_task_plan(session)
    parked = {j for _, j in plan.candidates}
    assert plan.need_buffer and len(parked) == 6
    alone = {j: list(motion._buffer_options(sim.new_session(inst, 42), j, motion.PAIR_LISTING)) for j in parked}
    stream = list(motion._pair_options(plan, session))
    seen = set()
    for option in stream:
        [(obj, target, _)] = [move for move in option if move[2]]
        assert target in alone[obj]
        seen.add(obj)
    assert seen == parked and len(stream) == sum(map(len, alone.values()))


def test_first_ranked_buffer_option_draws_for_its_object_alone(monkeypatch):
    # a six-cycle's buffer plan parks one of six objects; its first-ranked
    # option commits, so only that candidate's parked object is sampled, and
    # only as far as the ranking reads.  On the second cycle the goal-bound
    # arm travels farther than the parking arm, so the first pose ranks
    # first and is the only pose drawn; on the first the parking arm's
    # travel decides, and the poses up to the chosen one's bound are drawn
    drawn, poses = [], []
    real = motion._buffer_options
    sample = motion.sample_buffers

    def recorded(session, obj, listing):
        drawn.append((obj, listing))
        return real(session, obj, listing)

    def counted(listing):
        got = sample(listing)
        poses.extend(got)
        return got

    monkeypatch.setattr(motion, "_buffer_options", recorded)
    monkeypatch.setattr(motion, "sample_buffers", counted)
    for cycle_seed, drawn_poses in ((0, 15), (7, 1)):
        inst = instances.gen_single_cycle(6, cycle_seed)
        session = sim.new_session(inst, 42)
        plan = next_task_plan(session)
        assert plan.need_buffer and len({j for _, j in plan.candidates}) == 6
        first = iter_instantiations_reference(plan, session)[0]
        drawn.clear()
        poses.clear()
        sub, _, _ = plan_motion(plan, session)
        assert sub == first
        (parked,) = (t for t in sub if t.to_buffer)
        assert drawn == [(parked.obj, motion.PAIR_LISTING)]
        assert len(poses) == drawn_poses < motion.K_BUFFERS and parked.target in poses
    assert poses == [parked.target]


def test_no_buffer_pose_lies_within_its_objects_pose_free_radius(monkeypatch):
    # every pose a listing draws, at gap MIN_GAP or 0, lies at least
    # `_pose_free_radius` from its object's centre at the draw, so the
    # parking arm's leg in a candidate's bound is no longer than any of its
    # options'; the nearest poses come within twice the radius, so it cuts
    real = motion._buffer_options
    listings = []

    def recorded(session, obj, listing):
        stream = real(session, obj, listing)
        listings.append((session.boxes[obj].center.xy, motion._pose_free_radius(session, obj), stream))
        return stream

    monkeypatch.setattr(motion, "_buffer_options", recorded)
    for inst in (instances.showcase9(), instances.gen_mixed(3), *(instances.gen_random(n, s) for n, s in DENSE_TABLES)):
        sim.run_instance(inst, 42)
    ratios = [dist(pick, pose.xy) / radius for pick, radius, stream in listings for pose in stream.poses]
    assert len(ratios) > 100
    assert 1.0 <= min(ratios) < 2.0
    # a corridor table 0.01 too narrow for finger room beside its one
    # square object: only the gap-0 pass finds room, some poses lie inside
    # the object's inner disc at MIN_GAP, and none within the radius
    start = Arrangement({0: Pose2(0.05, 0.15, 0.0)})
    inst = instances.Instance(Workspace(0.23, 0.3), {0: (0.05, 0.05)}, start, start, "C1", 0)
    session = sim.new_session(inst, 42)
    box = session.boxes[0]
    near = [dist(box.center.xy, pose.xy) for pose in real(session, 0, 0)]
    assert len(near) == motion.K_BUFFERS
    assert motion._pose_free_radius(session, 0) <= min(near)
    assert min(near) ** 2 < geom.blocked_within2(0.05, box, MIN_GAP)


def test_relay_targets_are_the_poses_outside_both_base_keepouts(monkeypatch):
    # a relay move keeps each listed pose at least clearance plus the
    # keep-out margin from both arm bases, and nothing else: a pose beyond
    # one arm's reach is kept, and binding decides it; a buffer move keeps
    # every pose
    inst = instances.showcase9()
    arms = tuple(replace(a, reach=0.7) for a in default_arms(inst.workspace))
    session = sim.new_session(inst, 42, arms)
    keepout = arms[0].clearance + motion.BASE_KEEPOUT_MARGIN
    (x0, y0), (x1, y1) = arms[0].base, arms[1].base
    poses = [
        Pose2(x0 + keepout / 2, y0, 0.0),  # in arm 0's keep-out
        Pose2(x1 - keepout / 2, y1, 0.3),  # in arm 1's keep-out
        Pose2(x0 + keepout, y0, 0.0),  # on the edge of arm 0's keep-out
        Pose2(x1 - 0.15, y1 + 0.2, 1.0),  # beyond arm 0's reach
        Pose2(0.5, 0.3, -0.5),
    ]
    assert dist(poses[3].xy, arms[0].base) > arms[0].reach
    monkeypatch.setattr(motion, "_buffer_options", lambda session, obj, listing: poses)
    obj = inst.ids()[0]
    for kind, kept in ((RELAY, poses[2:]), (BUFFER, poses)):
        options = list(motion._single_moves(session, obj, kind, 0))
        targets = [move[1] for option in options for move in option if move is not None]
        assert targets == kept * 2, kind
        assert all(move[2] for option in options for move in option if move is not None)


def first_instantiation(plan, session):
    """The sub-task that selection binds first, or None if it binds none."""
    return next(motion._iter_instantiations(plan, session), None)


def test_select_best_task_unobstructed_pair():
    inst = instances.gen_random(2, 1)
    session = sim.new_session(inst, 0)
    plan = next_task_plan(session)
    sub = first_instantiation(plan, session)
    assert {t.obj for t in sub} == {0, 1}
    assert all(t.angle == GraspAngle.TOP_DOWN_LONG for t in sub)


def _escalation_instance():
    """Goals of objects 0 and 1 are hemmed by parked neighbors so top-down
    grasps fail there; objects 2 and 3 are free."""
    ws = Workspace()
    shapes = {i: (0.03, 0.03) for i in range(8)}
    start = {
        0: Pose2(0.20, 0.10),
        1: Pose2(0.80, 0.10),
        2: Pose2(0.40, 0.12),
        3: Pose2(0.60, 0.12),
        # blockers (start == goal): around 0's and 1's goals
        4: Pose2(0.25, 0.375),
        5: Pose2(0.325, 0.30),
        6: Pose2(0.70, 0.375),
        7: Pose2(0.775, 0.30),
    }
    goal = dict(start)
    goal[0] = Pose2(0.25, 0.30)
    goal[1] = Pose2(0.70, 0.30)
    goal[2] = Pose2(0.40, 0.48)
    goal[3] = Pose2(0.60, 0.48)
    return instances.Instance(
        ws, shapes, Arrangement(start), Arrangement(goal), "X8", 0
    )


def test_select_best_task_prefers_narrow_angle_set():
    inst = _escalation_instance()
    session = sim.new_session(inst, 0)
    plan = next_task_plan(session)
    assert (2, 3) in plan.candidates and (0, 1) in plan.candidates
    sub = first_instantiation(plan, session)
    assert tuple(t.obj for t in sub) == (2, 3)
    assert all(t.angle in (GraspAngle.TOP_DOWN_LONG, GraspAngle.TOP_DOWN_SHORT) for t in sub)


def test_escalation_instance_still_solvable_with_side_grasps():
    inst = _escalation_instance()
    metrics, rec = sim.run_instance(inst, 3)
    assert metrics.success
    ok, msg = sim.verify_trace(rec.trace, inst)
    assert ok, msg
    angles = {a for leg in rec.trace.legs for a in leg.angles if a}
    assert angles & {"side_plane0_neg", "side_plane0_pos", "side_plane1_neg", "side_plane1_pos"}


def test_cycle_round_selection_returns_safe_buffer():
    inst = instances.showcase9()
    session = sim.new_session(inst, 7)
    for i in (4, 5, 6, 7, 8):
        session.remaining.discard(i)
        session.place(i, inst.goal.pose_of(i))
    plan = next_task_plan(session)
    assert plan.need_buffer
    sub = first_instantiation(plan, session)
    buffered = [t for t in sub if t.to_buffer]
    assert buffered
    buffered_obj, buffer_pose = buffered[0].obj, buffered[0].target
    box = footprint(buffered_obj, buffer_pose, inst.shapes)
    for i, other in session.boxes.items():
        if i != buffered_obj:
            assert not overlaps(box, other)
    for i in session.remaining:
        assert not overlaps(box, footprint(i, inst.goal.pose_of(i), inst.shapes))


def test_no_feasible_sub_task_yields_nothing():
    inst = instances.gen_random(2, 1)
    tiny = (
        ArmModel(base=(0.0, 0.3), reach=0.01, retract=(-0.06, 0.3), via=(0.08, 0.54)),
        ArmModel(base=(1.0, 0.3), reach=0.01, retract=(1.06, 0.3), via=(0.92, 0.54)),
    )
    session = sim.new_session(inst, 0, tiny)
    plan = next_task_plan(session)
    assert first_instantiation(plan, session) is None


# ------------------------------------------------------------- plan_sync

def test_plan_sync_lateral_targets_valid():
    sub, ee = pair_leg((0.2, 0.45), (0.3, 0.15), (0.8, 0.45), (0.7, 0.15))
    motion = plan_sync(sub, ARMS, Stage.TO_GOAL, ee)
    assert isinstance(motion, SyncMotion)
    assert motion.mode == Mode.SYNCHRONOUS
    assert motion.duration == pytest.approx(max(dist(ee[0], (0.3, 0.15)), dist(ee[1], (0.7, 0.15))))


def test_plan_sync_crossing_assignment_conflicts():
    sub, ee = pair_leg((0.30, 0.30), (0.72, 0.32), (0.70, 0.28), (0.28, 0.30))
    res = plan_sync(sub, ARMS, Stage.TO_GOAL, ee)
    assert isinstance(res, Conflict)
    # the reported sample really violates clearance
    assert 0.0 <= res.t <= 1.0


def test_plan_sync_single_arm_idle_is_a_point():
    sub = (ArmTask(obj=0, pick=(0.3, 0.3), target=Pose2(0.3, 0.5)), ArmTask())
    ee = [(0.3, 0.3), ARMS[1].retract]
    motion = plan_sync(sub, ARMS, Stage.TO_GOAL, ee)
    assert isinstance(motion, SyncMotion)
    xs = {(x, y) for _, x, y in motion.paths[1]}
    assert xs == {ARMS[1].retract}


# -------------------------------------------------------------- untangle

def test_untangle_by_departure_delay():
    sub, ee = pair_leg((0.46, 0.10), (0.46, 0.50), (0.52, 0.50), (0.58, 0.10))
    conflict = plan_sync(sub, ARMS, Stage.TO_GOAL, ee)
    assert isinstance(conflict, Conflict)
    motion = untangle(sub, ARMS, Stage.TO_GOAL, ee)
    assert motion is not None and motion.mode == Mode.UNTANGLED
    assert untangle_kind(motion) == "delay"
    sync_lower_bound = max(dist(ee[0], (0.46, 0.50)), dist(ee[1], (0.58, 0.10)))
    assert motion.duration <= 1.5 * sync_lower_bound + 1e-9
    assert validate_motion(motion.paths, ARMS, motion.duration) is None


def test_untangle_by_via_points_on_corridor_swap():
    sub, ee = pair_leg((0.44, 0.10), (0.44, 0.50), (0.52, 0.50), (0.52, 0.10))
    conflict = plan_sync(sub, ARMS, Stage.TO_GOAL, ee)
    assert isinstance(conflict, Conflict)
    motion = untangle(sub, ARMS, Stage.TO_GOAL, ee)
    assert motion is not None and motion.mode == Mode.UNTANGLED
    assert untangle_kind(motion) == "via"
    assert validate_motion(motion.paths, ARMS, motion.duration) is None


def test_untangle_fails_on_deep_crossing():
    sub, ee = pair_leg((0.30, 0.30), (0.72, 0.32), (0.70, 0.28), (0.28, 0.30))
    assert isinstance(plan_sync(sub, ARMS, Stage.TO_GOAL, ee), Conflict)
    motion = untangle(sub, ARMS, Stage.TO_GOAL, ee)
    assert motion is None


def test_untangle_and_sequential_fail_under_tight_clearance():
    tight = default_arms(clearance=0.4)
    sub, ee = pair_leg((0.30, 0.30), (0.78, 0.32), (0.70, 0.28), (0.22, 0.30))
    conflict = plan_sync(sub, tight, Stage.TO_GOAL, ee)
    assert isinstance(conflict, Conflict)
    assert untangle(sub, tight, Stage.TO_GOAL, ee) is None
    with pytest.raises(SubTaskInfeasible):
        sequential_fallback(sub, tight, Stage.TO_GOAL, ee)


# ------------------------------------------------------------ sequential

def test_sequential_succeeds_on_deep_crossing():
    sub, ee = pair_leg((0.30, 0.30), (0.72, 0.32), (0.70, 0.28), (0.28, 0.30))
    motion = sequential_fallback(sub, ARMS, Stage.TO_GOAL, ee)
    assert motion.mode == Mode.SEQUENTIAL
    assert validate_motion(motion.paths, ARMS, motion.duration) is None


def test_sequential_never_shorter_than_sync_on_random_legs():
    rng = random.Random(5)
    checked = 0
    while checked < 100:
        pts = [
            (rng.uniform(0.15, 0.85), rng.uniform(0.1, 0.5)) for _ in range(4)
        ]
        sub, ee = pair_leg(pts[0], pts[1], pts[2], pts[3])
        res = plan_sync(sub, ARMS, Stage.TO_GOAL, ee)
        if not isinstance(res, SyncMotion):
            continue
        try:
            seq = sequential_fallback(sub, ARMS, Stage.TO_GOAL, ee)
        except SubTaskInfeasible:
            continue
        assert seq.duration >= res.duration - 1e-9
        checked += 1


def test_sequential_single_arm_equals_sync_when_idle_parked():
    sub = (ArmTask(obj=0, pick=(0.3, 0.3), target=Pose2(0.3, 0.5)), ArmTask())
    ee = [(0.3, 0.3), ARMS[1].retract]
    sync = plan_sync(sub, ARMS, Stage.TO_GOAL, ee)
    seq = sequential_fallback(sub, ARMS, Stage.TO_GOAL, ee)
    assert seq.mode == Mode.SEQUENTIAL
    assert seq.duration == pytest.approx(sync.duration)
    for a in (0, 1):
        assert seq.paths[a][-1][1:] == sync.paths[a][-1][1:]


# ------------------------------------------------------------ plan_motion

def test_plan_motion_swap_completes_in_one_round():
    inst = instances.gen_single_cycle(2, 4)
    metrics, rec = sim.run_instance(inst, 0)
    assert metrics.success and metrics.actions == 2 and metrics.buffers_used == 0
    assert metrics.sync_steps == 1


def test_plan_motion_records_rungs():
    inst = instances.gen_mixed(0)
    metrics, rec = sim.run_instance(inst, 42)
    assert metrics.success
    assert set(metrics.fallback_counts) <= {"synchronous", "untangled", "sequential"}
    assert sum(metrics.fallback_counts.values()) == len(rec.trace.legs)


def test_goal_bound_leg_is_planned_once_at_selection(monkeypatch):
    inst = instances.showcase9()
    session = sim.new_session(inst, 42)
    ladder = motion._ladder
    planned = []

    def recording(sub, arms, stage, ee):
        planned.append(ladder(sub, arms, stage, ee))
        return planned[-1]

    monkeypatch.setattr(motion, "_ladder", recording)
    plan = next_task_plan(session)
    sub, start_motion, goal_motion = plan_motion(plan, session)
    # the committed legs are the last two the ladder planned, in order
    assert planned[-2] is start_motion and planned[-1] is goal_motion
    # the start leg ends at the picks and the goal leg, which starts where
    # the start leg ends, at the targets
    for a, task in enumerate(sub):
        assert start_motion.paths[a][-1][1:] == task.pick
        assert goal_motion.paths[a][0] == (0.0, *start_motion.paths[a][-1][1:])
        assert goal_motion.paths[a][-1][1:] == task.target.xy
    # recorded in order, the start leg (even) grasps and the goal leg (odd) places
    trace = sim.Trace(instances.instance_hash(inst), 42, session.arms)
    sim._record_leg(trace, sub, start_motion, plan.candidates)
    sim._record_leg(trace, sub, goal_motion, [])
    assert [{action for _, action, _, _ in leg.grips} for leg in trace.legs] == [{"close"}, {"open"}]
    assert [obj for obj, _, _ in trace.legs[1].places] == [task.obj for task in sub]
    session.apply_round(sub, goal_motion)
    assert session.ee == [knots[-1][1:] for knots in goal_motion.paths]


def test_plan_motion_moves_past_a_sub_task_the_ladder_fails(monkeypatch):
    # a sub-task whose legs fail the ladder is dropped for the next one in
    # try order; when every sub-task fails, the last message is the failure
    session = sim.new_session(instances.showcase9(), 42)
    plan = next_task_plan(session)
    subs = list(motion._iter_instantiations(plan, session))
    assert len(subs) > 2
    ladder = motion._ladder

    def first_fails(sub, arms, stage, ee):
        if sub == subs[0]:
            raise SubTaskInfeasible("sequential leg invalid at t=0.500: arm clearance 0.0100")
        return ladder(sub, arms, stage, ee)

    monkeypatch.setattr(motion, "_ladder", first_fails)
    sub, _, _ = plan_motion(plan, session)
    assert sub == subs[1]

    def all_fail(sub, arms, stage, ee):
        raise SubTaskInfeasible(f"no leg moves {[task.obj for task in sub]}")

    monkeypatch.setattr(motion, "_ladder", all_fail)
    with pytest.raises(MotionFailure) as err:
        plan_motion(plan, session)
    assert str(err.value) == f"all instantiations failed: no leg moves {[task.obj for task in subs[-1]]}"


def test_motion_determinism():
    inst = instances.gen_mixed(3)
    m1, r1 = sim.run_instance(inst, 17)
    m2, r2 = sim.run_instance(inst, 17)
    assert sim.dumps_trace(r1.trace) == sim.dumps_trace(r2.trace)
    assert m1.makespan == m2.makespan


# ------------------------------------------------- resolution robustness

def test_motions_valid_at_doubled_sampling_rate():
    # every leg of the trace keeps the bare clearance on twice the planner's grid
    for inst in (instances.showcase9(), instances.gen_mixed(1), instances.gen_double_cycle(6, 2)):
        metrics, rec = sim.run_instance(inst, 9)
        assert metrics.success
        for leg in rec.trace.legs:
            c, t = least_clearance(leg.knots, ARMS, leg.duration, 2)
            assert c >= ARMS[0].clearance, (inst.label, leg.index, c, t)


# ------------------------------------------- validation: skipped samples

def _grid_times(duration):
    """validate_motion's sample times."""
    if duration <= 1e-12:
        steps = 1
    else:
        steps = max(int(round(VALIDATE_REFINE / DT)), int(math.ceil(duration / VALIDATE_GUARD)))
    return [duration * k / steps for k in range(steps + 1)]


def full_scan_validate(paths, arms, duration):
    """validate_motion's grid and threshold with every sample checked in order."""
    clearance = max(arms[0].clearance, arms[1].clearance)
    for t in _grid_times(duration):
        p1, p2 = (reference_point(knots, t) for knots in paths)
        c = segment_clearance(arms[0].base, p1, arms[1].base, p2)
        if c < clearance + VALIDATE_GUARD - 1e-9:
            return Conflict(t / duration if duration > 0 else 0.0, f"arm clearance {c:.4f}")
    return None


# shifts of the arms' clearance that move validate_motion's threshold: the
# planner's own, 0.02 lower, the bare clearance and 1e-6 below it
CLEARANCE_SHIFTS = (0.0, -0.02, -VALIDATE_GUARD, -VALIDATE_GUARD - 1e-6)


def assert_validators_agree(paths, duration, arms) -> set:
    """Outcomes (True for None) of both validators, which must be equal."""
    outcomes = set()
    for shift in CLEARANCE_SHIFTS:
        shifted = tuple(replace(a, clearance=a.clearance + shift) for a in arms)
        got = validate_motion(paths, shifted, duration)
        want = full_scan_validate(paths, shifted, duration)
        assert got == want, (paths, duration, shift)
        outcomes.add(want is None)
    return outcomes


def _padded(paths):
    duration = max(knots[-1][0] for knots in paths)
    return (_pad(paths[0], duration), _pad(paths[1], duration)), duration


def test_validate_skipping_matches_full_scan_on_random_legs(monkeypatch):
    outcomes = set()
    calls = []

    def checked(paths, arms, duration):
        calls.append(duration)
        outcomes.update(assert_validators_agree(paths, duration, arms))
        return validate_motion(paths, arms, duration)

    monkeypatch.setattr(motion, "validate_motion", checked)
    rng = random.Random(8)
    for arms in (ARMS, default_arms(clearance=0.25)):
        for _ in range(40):
            pts = [(rng.uniform(0.1, 0.9), rng.uniform(0.05, 0.55)) for _ in range(4)]
            sub, ee = pair_leg(*pts)
            if rng.random() < 0.3:  # one idle arm, parked or on its way to retract
                sub = (sub[0], ArmTask())
                if rng.random() < 0.5:
                    ee[1] = arms[1].retract
            for stage in (Stage.TO_START, Stage.TO_GOAL):
                res = plan_sync(sub, arms, stage, ee)
                if isinstance(res, Conflict) and untangle(sub, arms, stage, ee) is None:
                    try:
                        sequential_fallback(sub, arms, stage, ee)
                    except SubTaskInfeasible:
                        pass
            if sub[1].obj is not None:
                legs = _leg_endpoints(sub, Stage.TO_GOAL, ee, arms)
                for serial in (False, True):
                    for first in (0, 1):
                        paths, duration = _padded(_phases(legs, arms, first, serial)[0])
                        outcomes.update(assert_validators_agree(paths, duration, arms))
    assert len(calls) > 100
    assert outcomes == {True, False}


def test_validate_skipping_matches_full_scan_on_planned_runs(monkeypatch):
    calls = []

    def checked(paths, arms, duration):
        calls.append(assert_validators_agree(paths, duration, arms))
        return validate_motion(paths, arms, duration)

    monkeypatch.setattr(motion, "validate_motion", checked)
    for inst in (instances.showcase9(), instances.gen_mixed(0), instances.gen_double_cycle(6, 2)):
        assert sim.run_instance(inst, 42)[0].success
    assert set().union(*calls) == {True, False}


def test_validate_skipping_on_delays_vias_padding_and_zero_length_legs():
    left, right = ARMS
    outcomes = set()
    legs = [
        # departure delay and via point
        (_timed([(0.3, 0.2), (0.6, 0.4)], depart=0.3), _timed([(0.8, 0.4), right.via, (0.4, 0.3)])),
        (_timed([(0.3, 0.2), left.via, (0.6, 0.4)]), _timed([(0.7, 0.2), (0.7, 0.5)], depart=0.2)),
        # one padded leg, one zero-length leg
        (_timed([(0.2, 0.3), (0.5, 0.3)]), _timed([right.retract, right.retract])),
        (_timed([(0.3, 0.3), (0.3, 0.3)]), _timed([(0.9, 0.3), (0.35, 0.3)])),
        # both legs zero-length: apart, then too close
        (_timed([(0.3, 0.3), (0.3, 0.3)]), _timed([(0.8, 0.3), (0.8, 0.3)])),
        (_timed([(0.3, 0.3), (0.3, 0.3)]), _timed([(0.35, 0.3), (0.35, 0.3)])),
    ]
    for paths in legs:
        outcomes.update(assert_validators_agree(*_padded(paths), ARMS))
    assert outcomes == {True, False}


def test_validate_skipping_on_fast_and_jumping_paths():
    parked = [(0.0, 0.3, 0.3), (1.0, 0.3, 0.3)]
    far, near = (0.9, 0.3), (0.35, 0.3)
    # a dash 18x faster than unit speed: a unit-speed bound would skip it
    dash = [(0.0, *far), (0.5, *far), (0.53, *near), (0.56, *near), (0.59, *far), (1.0, *far)]
    # zero-time jumps into conflict and out again 0.003 later
    jump = [(0.0, *far), (0.5, *far), (0.5, *near), (0.503, *near), (0.503, *far), (1.0, *far)]
    # knot times that run backwards
    backwards = [(0.0, *far), (0.6, *far), (0.4, *near), (1.0, *near)]
    for path in (dash, jump, backwards):
        assert assert_validators_agree((parked, path), 1.0, ARMS) == {False}
    bad = validate_motion((parked, jump), ARMS, 1.0)
    assert bad == Conflict(0.5025, bad.detail)


# scales and offsets that take a scene's coordinates up to 1e3, where the
# base-axis bound's rounding margin grows with them
SCENE_SCALES = (1.0, 10.0, 1e3)
SCENE_OFFSETS = ((0.0, 0.0), (1e3, -1e3), (-700.0, 300.0))


def _unit_point(data, label):
    return data.draw(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), label=label)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_validate_matches_full_scan_on_random_arm_pairs(data):
    # bases on the usual sides, swapped, off a horizontal line or
    # coincident; each arm a straight path, a delayed one or one through a
    # via point, at any speed once the scene is scaled (times are not); the
    # ends either anywhere or on the base axis, where the bound is the exact
    # distance; the threshold anywhere or on the least sampled clearance
    scale = data.draw(st.sampled_from(SCENE_SCALES), label="scale")
    ox, oy = data.draw(st.sampled_from(SCENE_OFFSETS), label="offset")
    kind = data.draw(st.sampled_from(("default", "swapped", "anywhere", "coincident")), label="bases")
    if kind == "default":
        bases = [(0.0, 0.3), (1.0, 0.3)]
    elif kind == "swapped":
        bases = [(1.0, 0.3), (0.0, 0.3)]
    else:
        bases = [_unit_point(data, "base 0"), _unit_point(data, "base 1")]
        if kind == "coincident":
            bases[1] = bases[0]
    on_axis = data.draw(st.booleans(), label="on axis")
    paths = []
    for a in (0, 1):
        if on_axis:
            (x0, y0), (x1, y1) = bases
            lams = [data.draw(st.floats(0.5 * a, 0.5 + 0.5 * a), label="along") for _ in range(2)]
            pts = [(x0 + lam * (x1 - x0), y0 + lam * (y1 - y0)) for lam in lams]
        else:
            pts = [_unit_point(data, "start"), _unit_point(data, "goal")]
        shape = data.draw(st.sampled_from(("straight", "delayed", "via")), label="path")
        if shape == "via":
            pts.insert(1, _unit_point(data, "via"))
        paths.append(_timed(pts, depart=0.3 if shape == "delayed" else 0.0))

    def placed(xy):
        return (ox + scale * xy[0], oy + scale * xy[1])

    paths = [[(t, *placed((x, y))) for t, x, y in knots] for knots in paths]
    bases = [placed(b) for b in bases]
    paths, duration = _padded(paths)
    arms = tuple(ArmModel(base=b, reach=10.0 * scale) for b in bases)
    if data.draw(st.booleans(), label="on the least clearance"):
        least = min(
            segment_clearance(bases[0], reference_point(paths[0], t), bases[1], reference_point(paths[1], t))
            for t in _grid_times(duration)
        )
        delta = data.draw(st.sampled_from((-2e-9, -1e-12, 0.0, 1e-12, 2e-9)), label="delta")
        clearance = least - VALIDATE_GUARD + 1e-9 + delta * scale
    else:
        clearance = scale * data.draw(st.floats(0.0, 0.4), label="clearance")
    arms = tuple(replace(a, clearance=clearance) for a in arms)
    assert validate_motion(paths, arms, duration) == full_scan_validate(paths, arms, duration)
    assert_validators_agree(paths, duration, arms)


def test_validate_on_the_base_axis_with_the_threshold_at_the_gap():
    # arms standing on the base axis, which points anywhere, in scenes with
    # coordinates up to 1e3: the axis gap is then their distance, and its
    # rounding puts it a few ulps above or below the exact clearance.  With
    # the threshold swept over the ulps around the exact clearance, a bound
    # that claimed a pass its margin does not cover would disagree with the
    # full scan
    rng = random.Random(3)
    outcomes = set()
    for _ in range(40):
        scale = rng.choice(SCENE_SCALES)
        ox, oy = rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)
        turn = rng.uniform(-math.pi, math.pi)
        base0, base1 = (ox, oy), (ox + scale * math.cos(turn), oy + scale * math.sin(turn))

        def along(lam):
            return (ox + lam * (base1[0] - ox), oy + lam * (base1[1] - oy))

        point0, point1 = along(rng.uniform(0.0, 0.5)), along(rng.uniform(0.5, 1.0))
        still = ([(0.0, *point0)], [(0.0, *point1)])
        gap = segment_clearance(base0, point0, base1, point1)
        for ulps in range(-3, 4):
            clearance = gap - VALIDATE_GUARD + 1e-9 + ulps * math.ulp(gap)
            arms = tuple(ArmModel(base=b, reach=10.0 * scale, clearance=clearance) for b in (base0, base1))
            got = validate_motion(still, arms, 0.0)
            assert got == full_scan_validate(still, arms, 0.0), (base0, base1, point0, point1, ulps)
            outcomes.add(got is None)
    assert outcomes == {True, False}


# ------------------------------------------- the ladder's end-configuration proof

def ladder_outcome(ladder, sub, arms, stage, ee):
    """What a ladder makes of a leg: the motion's mode, knots, duration and
    event times, or the SubTaskInfeasible message."""
    try:
        res = ladder(sub, arms, stage, ee)
    except SubTaskInfeasible as exc:
        return str(exc)
    return res.mode, list(res.paths), res.duration, res.event_times


def _table_point(data, label):
    return data.draw(st.tuples(st.floats(0.05, 0.95), st.floats(0.02, 0.58)), label=label)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_ladder_matches_the_reference_ladder(data):
    # random legs of either stage: two working arms, or one idle arm parked
    # at its retract pose or on its way there; any working arm's leg may be
    # of zero length.  The arms' clearance is shifted as the validator tests
    # shift it, or set so that the leg's end configuration lies a few ulps
    # or a few 1e-9 from the sampled limit, on either side of the proof's
    # cut-off
    stage = data.draw(st.sampled_from(tuple(Stage)), label="stage")
    base_arms = data.draw(st.sampled_from((ARMS, default_arms(clearance=0.25))), label="arms")
    idle = data.draw(st.sampled_from((None, 0, 1)), label="idle arm")
    tasks, ee = [], []
    for a in (0, 1):
        start = _table_point(data, "ee")
        if a == idle:
            tasks.append(ArmTask())
            ee.append(base_arms[a].retract if data.draw(st.booleans(), label="parked") else start)
            continue
        pick, target = _table_point(data, "pick"), _table_point(data, "target")
        if data.draw(st.booleans(), label="zero-length"):
            if stage == Stage.TO_START:
                pick = start
            else:
                target = start
        tasks.append(ArmTask(obj=a, pick=pick, target=Pose2(*target)))
        ee.append(start)
    sub = tuple(tasks)
    if data.draw(st.booleans(), label="end at the limit"):
        (_, g0, _), (_, g1, _) = _leg_endpoints(sub, stage, ee, base_arms)
        end = segment_clearance(base_arms[0].base, g0, base_arms[1].base, g1)
        deltas = (-3e-9, -1e-9, 1e-9, 2e-9, 3e-9, *(k * math.ulp(end) for k in range(-4, 5)))
        clearance = end - VALIDATE_GUARD + 1e-9 + data.draw(st.sampled_from(deltas), label="delta")
    else:
        clearance = base_arms[0].clearance + data.draw(st.sampled_from(CLEARANCE_SHIFTS), label="shift")
    arms = tuple(replace(a, clearance=clearance) for a in base_arms)
    got = ladder_outcome(motion._ladder, sub, arms, stage, ee)
    assert got == ladder_outcome(ladder_reference, sub, arms, stage, ee)


def test_ladder_goes_straight_to_sequential_when_the_end_breaks_clearance(monkeypatch):
    # a deep crossing ends with the arm segments overlapping: the ladder
    # tries neither the synchronous nor the untangled rung, and returns the
    # reference's sequential leg.  A leg that conflicts mid-way but ends
    # clear climbs the rungs as before.  On the last leg the validator's
    # last sample reads the end clearance 3e-17 high (its point is
    # interpolated), and the limit lies in between: the end is below the
    # limit, but by less than the proof's rounding margin, and the leg
    # stays synchronous
    tried = []
    for name in ("plan_sync", "untangle"):
        real = getattr(motion, name)
        monkeypatch.setattr(motion, name, lambda *args, real=real, name=name: tried.append(name) or real(*args))
    at_the_limit = tuple(replace(a, clearance=0.24158797785247008) for a in ARMS)
    legs = (
        ((0.30, 0.30), (0.72, 0.32), (0.70, 0.28), (0.28, 0.30), ARMS, [], Mode.SEQUENTIAL),
        ((0.46, 0.10), (0.46, 0.50), (0.52, 0.50), (0.58, 0.10), ARMS, ["plan_sync", "untangle"], Mode.UNTANGLED),
        ((0.129, 0.32), (0.159, 0.397), (0.724, 0.114), (0.231, 0.155), at_the_limit, ["plan_sync"], Mode.SYNCHRONOUS),
    )
    for *points, arms, rungs, mode in legs:
        sub, ee = pair_leg(*points)
        tried.clear()
        got = ladder_outcome(motion._ladder, sub, arms, Stage.TO_GOAL, ee)
        assert tried == rungs and got[0] == mode
        assert got == ladder_outcome(ladder_reference, sub, arms, Stage.TO_GOAL, ee)
    (_, g0, _), (_, g1, _) = _leg_endpoints(sub, Stage.TO_GOAL, ee, arms)
    assert 0.0 < motion._limit(arms) - segment_clearance(arms[0].base, g0, arms[1].base, g1) < 1e-15
