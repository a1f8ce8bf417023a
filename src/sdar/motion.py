"""Layered synchronous motion planning on a 2-D arm surrogate.

Each arm is a base->end-effector segment with a disc gripper.  Transit is
above-plane (carried objects collide with nothing); what is checked is
arm-arm segment clearance along sampled trajectories plus endpoint grasp and
placement feasibility.  The rung ladder per leg: straight synchronous motion,
rule-based untangling (departure delays, then home-side via points), and
finally sequential execution with one arm parked at its retract pose.  Each
rung is an ordered list of path variants, and `_first_valid` keeps the first
that validates.  A round is two legs, start-bound (grasp) then goal-bound
(place); its sub-task is committed only when both legs climb the ladder, and
`plan_motion` returns both motions at once.  The task plan decides which
objects move and where; `_iter_instantiations` binds its pair options and
then its one-arm moves to arms, grasp angles and poses, as one stream that
yields each sub-task once.  `sequential_round` plans the same two legs on
the sequential rung alone, for the forced-sequential replay.
"""

from __future__ import annotations

import enum
import math
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Optional

from .depgraph import Arrangement, footprint
from .geom import (
    MIN_GAP,
    OrientedBox,
    Point,
    Pose2,
    Workspace,
    blocked,
    blocked_within2,
    blocked_within_box,
    box_at,
    boxes_closer_than,
    dist,
    inside,
    overlaps,
    prefilter_reach2,
    segment_clearance,
    surely_blocked,
)
from .taskplan import GOAL, RELAY, PlannerSession, TaskPlan, assign_arms

# The planner's fixed resolutions: a leg validates at DT / VALIDATE_REFINE
# (and `sdar render` draws a leg at round(1/DT) + 1 times), and a buffer
# sampling call returns at most K_BUFFERS poses.
DT = 0.02
K_BUFFERS = 40
# Draws per `sample_buffers` call, whatever k: the cap of a call that finds
# little or no room.
BUFFER_DRAWS = 2000
DEFAULT_EE_RADIUS = 0.04
DEFAULT_CLEARANCE = 0.10
PAD_HALF_THICKNESS = 0.01
BASE_KEEPOUT_MARGIN = 0.01
VALIDATE_REFINE = 8  # validator samples at DT / VALIDATE_REFINE
# Sampled clearance threshold above the limit.  EEs move at unit speed, so
# clearance is 2-Lipschitz in time: samples >= clearance + GUARD at spacing
# <= GUARD certify the continuous trajectory, and a leg ending at
# clearance + GUARD always satisfies the next leg's entry sample.  The same
# Lipschitz bound lets the validator skip grid samples a previous sample's
# clearance already proves to pass; every sample it does not skip is
# checked as before, so the verdict is that of the full grid.
VALIDATE_GUARD = 0.0025
# Clearance kept in reserve before skipping samples: far above the rounding
# in sample times and segment distances, far below the grid's clearance step.
VALIDATE_SLACK = 1e-9


class BufferSamplingExhausted(Exception):
    pass


class SubTaskInfeasible(Exception):
    pass


class MotionFailure(Exception):
    pass


class Stage(enum.Enum):
    """The leg of a round: arms heading to the picks, then to the places."""

    TO_START = "tostart"
    TO_GOAL = "togoal"


class Mode(enum.Enum):
    SYNCHRONOUS = "synchronous"
    UNTANGLED = "untangled"
    SEQUENTIAL = "sequential"


class GraspAngle(enum.Enum):
    """Approach ladder: two top-down grasps, then tilted side approaches."""

    TOP_DOWN_LONG = "top_down_long"
    TOP_DOWN_SHORT = "top_down_short"
    SIDE_PLANE0_POS = "side_plane0_pos"
    SIDE_PLANE0_NEG = "side_plane0_neg"
    SIDE_PLANE1_POS = "side_plane1_pos"
    SIDE_PLANE1_NEG = "side_plane1_neg"


TOP_DOWN_SET = (GraspAngle.TOP_DOWN_LONG, GraspAngle.TOP_DOWN_SHORT)
FULL_SET = tuple(GraspAngle)


@dataclass(frozen=True)
class ArmModel:
    base: Point
    reach: float
    ee_radius: float = DEFAULT_EE_RADIUS
    clearance: float = DEFAULT_CLEARANCE
    retract: Point = (0.0, 0.0)
    via: Point = (0.0, 0.0)


def default_arms(
    workspace: Workspace | None = None, clearance: float = DEFAULT_CLEARANCE
) -> tuple[ArmModel, ArmModel]:
    ws = workspace or Workspace()
    reach = ws.diagonal + 0.1
    mid = ws.height / 2.0
    left = ArmModel(
        base=(0.0, mid),
        reach=reach,
        clearance=clearance,
        retract=(-0.06, mid),
        via=(0.08 * ws.width, 0.9 * ws.height),
    )
    right = ArmModel(
        base=(ws.width, mid),
        reach=reach,
        clearance=clearance,
        retract=(ws.width + 0.06, mid),
        via=(0.92 * ws.width, 0.9 * ws.height),
    )
    return left, right


# ------------------------------------------------------------------ paths


@dataclass
class ArmPath:
    """Piecewise-linear EE path over [0, duration] in absolute time."""

    knots: list[tuple[float, Point]]

    @property
    def duration(self) -> float:
        return self.knots[-1][0]

    @property
    def end(self) -> Point:
        return self.knots[-1][1]

    def pos(self, t: float) -> Point:
        return self.positions((t,))[0]

    def positions(self, times) -> list[Point]:
        """The positions at nondecreasing `times`, in one walk over the
        knots; `pos` is the single-time case.  The position at t lies on the
        first segment whose end time is at least t (the first knot before
        the path starts, the last one after it ends).  A segment passed over
        for some t is passed over for every later one, even where knot times
        run backwards, so the walk never steps back and gives each t the
        segment, and the arithmetic, of a walk of its own."""
        knots = self.knots
        t_first, p_first = knots[0]
        last = len(knots) - 1
        seg = 1  # index of the segment's end knot
        out = []
        for t in times:
            if t <= t_first:
                out.append(p_first)
                continue
            while seg <= last and t > knots[seg][0]:
                seg += 1
            if seg > last:
                out.append(knots[-1][1])
                continue
            t0, p0 = knots[seg - 1]
            t1, p1 = knots[seg]
            if t1 - t0 <= 1e-12:
                out.append(p1)
            else:
                a = (t - t0) / (t1 - t0)
                out.append((p0[0] + a * (p1[0] - p0[0]), p0[1] + a * (p1[1] - p0[1])))
        return out


def _timed(points: list[Point], depart: float = 0.0) -> ArmPath:
    """Unit-speed path through points, departing at `depart`."""
    knots = [(0.0, points[0])]
    if depart > 0.0:
        knots.append((depart, points[0]))
    t = depart
    for a, b in zip(points, points[1:]):
        t += dist(a, b)
        knots.append((t, b))
    return ArmPath(knots)


def _pad(path: ArmPath, duration: float) -> ArmPath:
    if path.duration < duration - 1e-12:
        return ArmPath(path.knots + [(duration, path.end)])
    return path


@dataclass
class SyncMotion:
    """A synchronized pair of timed EE paths for one leg."""

    stage: Stage
    mode: Mode
    paths: tuple[ArmPath, ArmPath]
    duration: float
    # per-arm time at which the gripper event (CLOSE/OPEN) fires
    event_times: tuple[Optional[float], Optional[float]]


@dataclass(frozen=True)
class Conflict:
    t: float
    detail: str


def _max_speed(path: ArmPath) -> float:
    """Largest knot-to-knot speed of a path; inf if `pos` jumps anywhere
    (a move in no time, or knot times that run backwards)."""
    fastest = 0.0
    for (t0, p0), (t1, p1) in zip(path.knots, path.knots[1:]):
        span = t1 - t0
        if span > 1e-12:
            fastest = max(fastest, dist(p0, p1) / span)
        elif span < 0.0 or p0[0] != p1[0] or p0[1] != p1[1]:
            return math.inf
    return fastest


def validate_motion(
    paths: tuple[ArmPath, ArmPath], arms: tuple[ArmModel, ArmModel], duration: float
) -> Optional[Conflict]:
    """First arm-arm clearance violation on the planner's grid, or None.

    The threshold is clearance + VALIDATE_GUARD at sample spacing <=
    VALIDATE_GUARD, which certifies the continuous trajectory keeps the
    bare clearance.

    Samples proven safe are skipped.  Moving a segment endpoint by d moves
    the segment distance by at most d, so clearance changes by at most
    L = (sum of the two paths' top speeds) per unit time, and a sample with
    clearance c passes every grid sample within (c - threshold - slack) / L
    after it.  The grid is unchanged, so the result (None, or the first
    failing sample's Conflict) is the one a full scan would return.
    """
    clearance = max(arms[0].clearance, arms[1].clearance)
    if duration <= 1e-12:
        steps = 1
    else:
        steps = max(int(round(VALIDATE_REFINE / DT)), int(math.ceil(duration / VALIDATE_GUARD)))
    limit = clearance + VALIDATE_GUARD - 1e-9
    speed = _max_speed(paths[0]) + _max_speed(paths[1])
    # bound on the clearance change between neighbouring samples (inf*0 is nan)
    per_step = math.inf if speed == math.inf else speed * (duration / steps)
    k = 0
    while k <= steps:
        t = duration * k / steps
        p1 = paths[0].pos(t)
        p2 = paths[1].pos(t)
        c = segment_clearance(arms[0].base, p1, arms[1].base, p2)
        if c < limit:
            return Conflict(t / duration if duration > 0 else 0.0, f"arm clearance {c:.4f}")
        # the slack absorbs rounding in the sample times and the clearance
        spare = c - limit - VALIDATE_SLACK
        if spare > 0.0:
            k += int(min(spare / per_step, steps)) if per_step > 0.0 else steps
        k += 1
    return None


# ------------------------------------------------------- grasp feasibility


def _face_frames(box: OrientedBox):
    """(long_axis_unit, short_axis_unit, long_half, short_half): the long
    faces are the pair of faces with the longer side length."""
    (ux, uy), (vx, vy) = box.axes()
    if box.half_width >= box.half_height:
        return (ux, uy), (vx, vy), box.half_width, box.half_height
    return (vx, vy), (ux, uy), box.half_height, box.half_width


def _offset_box(box: OrientedBox, axis: Point, offset: float, half_along: float, half_across: float, across_axis: Point) -> OrientedBox:
    cx = box.center.x + axis[0] * offset
    cy = box.center.y + axis[1] * offset
    theta = math.atan2(across_axis[1], across_axis[0])
    return box_at(Pose2(cx, cy, theta), half_along, half_across)


def _finger_pads(box: OrientedBox, angle: GraspAngle, ee_radius: float) -> list[OrientedBox]:
    """Footprints the gripper needs free: finger pads for top-down grasps,
    an approach corridor for tilted side grasps."""
    long_ax, short_ax, long_h, short_h = _face_frames(box)
    inset = 1e-6  # avoid measure-zero corner contact with flush neighbors
    if angle == GraspAngle.TOP_DOWN_LONG:
        # fingers close across the short dimension, contacting the long faces
        half_along = min(long_h, ee_radius) - inset
        return [
            _offset_box(box, short_ax, sgn * (short_h + PAD_HALF_THICKNESS), half_along, PAD_HALF_THICKNESS, long_ax)
            for sgn in (1.0, -1.0)
        ]
    if angle == GraspAngle.TOP_DOWN_SHORT:
        half_along = min(short_h, ee_radius) - inset
        return [
            _offset_box(box, long_ax, sgn * (long_h + PAD_HALF_THICKNESS), half_along, PAD_HALF_THICKNESS, short_ax)
            for sgn in (1.0, -1.0)
        ]
    corr_half = ee_radius  # corridor: gripper width wide, 2x gripper depth long
    if angle in (GraspAngle.SIDE_PLANE0_POS, GraspAngle.SIDE_PLANE0_NEG):
        sgn = 1.0 if angle == GraspAngle.SIDE_PLANE0_POS else -1.0
        return [
            _offset_box(box, short_ax, sgn * (short_h + corr_half), ee_radius, corr_half, long_ax)
        ]
    sgn = 1.0 if angle == GraspAngle.SIDE_PLANE1_POS else -1.0
    return [
        _offset_box(box, long_ax, sgn * (long_h + corr_half), ee_radius, corr_half, short_ax)
    ]


def grasp_feasible(
    obj_box: OrientedBox,
    angle: GraspAngle,
    obstacles: list[OrientedBox],
    arm: ArmModel,
) -> bool:
    """Reach plus free finger pads / approach corridor against the obstacles
    (the grasped object itself must not be in the obstacle list)."""
    if dist(arm.base, obj_box.center.xy) > arm.reach:
        return False
    for pad in _finger_pads(obj_box, angle, arm.ee_radius):
        if any(overlaps(pad, ob) for ob in obstacles):
            return False
    return True


# ------------------------------------------------------------- buffers


def sample_buffers(
    scene: Arrangement,
    shapes,
    pending_goals: list[OrientedBox],
    k: int,
    rng,
    buffered_shape: tuple[float, float],
    workspace: Workspace,
    min_gap: float = MIN_GAP,
) -> list[Pose2]:
    """Up to k poses whose footprint avoids all on-table objects and all
    pending goals.  The poses are independent alternatives, not a packing:
    a round parks at most one object, so no pose is tested against the
    call's own earlier poses, and the same pose may come back more than
    once.  Rejection sampling stops at k accepts or after a fixed budget of
    BUFFER_DRAWS draws, whatever k is; each draw takes three `rng.uniform`
    values (x, y, theta) whatever its fate.  A draw nearer to an obstacle's
    rectangle than the draw's inscribed radius plus the gap is rejected
    before its box is built.  While that bound is positive it rejects every
    draw centred within an obstacle's inner disc (`blocked_within2`), so the
    inner discs are kept only as a cheaper first pass.  Both tests are sure
    rejections, so neither changes a result.  The obstacles are listed once
    in a grid (`BufferGrid`), so these broad-phase tests visit only the
    obstacles of the draw's own cell.

    min_gap > 0 additionally keeps finger room around the parked object;
    min_gap == 0 is the bare non-overlap contract."""
    if k < 1:
        raise ValueError("k must be >= 1")
    hw, hh = buffered_shape
    grid = BufferGrid(buffered_shape, min_gap, workspace)
    for i, p in scene.on_table():
        grid.add(footprint(i, p, shapes))
    for ob in pending_goals:
        grid.add(ob)
    margin = grid.margin
    uniform = rng.uniform
    x_hi = workspace.width - margin
    y_hi = workspace.height - margin
    inner_of = grid.inner.get
    reach_of = grid.reach.get
    sure = blocked_within_box(grid.inner_radius, min_gap)
    found: list[Pose2] = []
    for _ in range(BUFFER_DRAWS):
        if len(found) == k:
            break
        x = uniform(margin, x_hi)
        y = uniform(margin, y_hi)
        theta = uniform(-math.pi, math.pi)
        cell = grid.cell(x, y)
        for ox, oy, inner2 in inner_of(cell, ()):
            dx = ox - x
            dy = oy - y
            if dx * dx + dy * dy < inner2:
                break  # centred within an inner disc: surely rejected
        else:
            near = reach_of(cell, ())
            if surely_blocked(x, y, near, sure):
                continue
            pose = Pose2(x, y, theta)
            box = box_at(pose, hw, hh)
            # this module's names for the exact tests, so that the probes
            # perfbench installs on `motion` see their calls
            if inside(workspace, box) and not blocked(
                box, near, min_gap, boxes_closer_than, overlaps
            ):
                found.append(pose)
    if not found:
        raise BufferSamplingExhausted(
            f"no buffer pose found within {BUFFER_DRAWS} draws for shape {buffered_shape}"
        )
    return found


# Cells across the workspace diagonal, at most: with cells no smaller than
# that, than the draw's circumradius and than the gap, a disc spans a bounded
# number of cells whatever the shapes.
GRID_MAX_CELLS = 64
# Pad on a disc's bounding square, relative to its radius and coordinates:
# far above the rounding in a square root or a cell index, far below a cell.
GRID_PAD = 1e-9


class BufferGrid:
    """The fixed obstacles of one `sample_buffers` call (on-table objects
    and pending goals) in a uniform grid of square cells, cell (0, 0) at the
    origin.

    Each obstacle has an inner disc of squared radius `blocked_within2`
    (a draw centred inside is surely rejected) and a reach disc of squared
    radius `prefilter_reach2` (one centred outside is cleared by the exact
    test's own prefilter).  A disc is listed in every cell its padded
    bounding square touches, in the order the obstacles were added.  Cell
    indices are monotone in the coordinates and the pad covers the rounding
    in the square's edges, so a point that a disc's own test puts inside
    finds the disc in its cell."""

    def __init__(self, buffered_shape: tuple[float, float], min_gap: float, workspace: Workspace):
        hw, hh = buffered_shape
        self.margin = math.hypot(hw, hh)
        self.inner_radius = min(hw, hh)
        self.min_gap = min_gap
        self.side = max(self.margin, min_gap, workspace.diagonal / GRID_MAX_CELLS)
        self.inv = 1.0 / self.side
        self.inner: defaultdict[tuple[int, int], list] = defaultdict(list)  # (x, y, inner²)
        self.reach: defaultdict[tuple[int, int], list] = defaultdict(list)  # (x, y, reach², box)

    def cell(self, x: float, y: float) -> tuple[int, int]:
        inv = self.inv
        return (math.floor(x * inv), math.floor(y * inv))

    def add(self, ob: OrientedBox) -> None:
        """List an obstacle's discs; an inner disc that is not positive
        rejects nothing and is left out."""
        x, y = ob.center.x, ob.center.y
        inner2 = blocked_within2(self.inner_radius, ob, self.min_gap)
        if inner2 > 0.0:
            self._list(self.inner, x, y, inner2, (x, y, inner2))
        reach2 = prefilter_reach2(self.margin, ob, self.min_gap)
        self._list(self.reach, x, y, reach2, (x, y, reach2, ob))

    def _list(self, cells, x: float, y: float, r2: float, entry) -> None:
        r = math.sqrt(r2)
        h = r + GRID_PAD * (r + abs(x) + abs(y))
        lo_x, lo_y = self.cell(x - h, y - h)
        hi_x, hi_y = self.cell(x + h, y + h)
        rows = range(lo_y, hi_y + 1)
        for ix in range(lo_x, hi_x + 1):
            for iy in rows:
                cells[ix, iy].append(entry)


# ------------------------------------------------------ sub-task binding


@dataclass(frozen=True)
class ArmTask:
    obj: Optional[int] = None
    angle: Optional[GraspAngle] = None
    pick: Optional[Point] = None
    target: Optional[Pose2] = None
    to_buffer: bool = False


@dataclass(frozen=True)
class InstantiatedSubTask:
    tasks: tuple[ArmTask, ArmTask]

    @property
    def buffer_pose(self) -> Optional[Pose2]:
        for t in self.tasks:
            if t.to_buffer:
                return t.target
        return None


def _other_base_ok(point: Point, other: ArmModel, clearance: float) -> bool:
    return dist(point, other.base) >= clearance + BASE_KEEPOUT_MARGIN


def _table_boxes(session: PlannerSession) -> list[tuple[int, OrientedBox]]:
    """(object, footprint) of every on-table object, in id order.  The scene
    does not change while a sub-task selection runs, so a selection builds
    this list once, when it starts, and binds every option against it."""
    shapes = session.instance.shapes
    return [(i, footprint(i, p, shapes)) for i, p in session.current.on_table()]


def _bind_arm(
    session: PlannerSession,
    table: list[tuple[int, OrientedBox]],
    arm_idx: int,
    obj: int,
    target: Pose2,
    level,
    partner: Optional[int],
    partner_target: Optional[Pose2],
) -> Optional[ArmTask]:
    """First angle in the ladder level feasible for both the grasp at the
    object's current pose and the placement at the target pose.  `table` is
    the selection's `_table_boxes`."""
    shapes = session.instance.shapes
    ws = session.instance.workspace
    arms = session.arms
    arm = arms[arm_idx]
    other = arms[1 - arm_idx]
    clearance = max(a.clearance for a in arms)
    cur_pose = session.current.pose_of(obj)
    target_box = footprint(obj, target, shapes)

    if not _other_base_ok(cur_pose.xy, other, clearance):
        return None
    if not _other_base_ok(target.xy, other, clearance):
        return None
    if not inside(ws, target_box):
        return None
    if dist(arm.base, target.xy) > arm.reach:
        return None

    place_obstacles = [b for i, b in table if i != obj and i != partner]
    if partner_target is not None and partner is not None:
        place_obstacles.append(footprint(partner, partner_target, shapes))
    if any(overlaps(target_box, ob) for ob in place_obstacles):
        return None

    cur_box = footprint(obj, cur_pose, shapes)
    grasp_obstacles = [b for i, b in table if i != obj]
    for angle in level:
        if grasp_feasible(cur_box, angle, grasp_obstacles, arm) and grasp_feasible(
            target_box, angle, place_obstacles, arm
        ):
            return ArmTask(obj=obj, angle=angle, pick=cur_pose.xy, target=target)
    return None


def _travel(session: PlannerSession, arm_idx: int, pick: Point, target: Pose2) -> float:
    start = tuple(session.ee[arm_idx])
    return dist(start, pick) + dist(pick, target.xy)


def _pending_goal_boxes(session: PlannerSession) -> list[OrientedBox]:
    shapes = session.instance.shapes
    return [
        footprint(i, session.instance.goal.pose_of(i), shapes)
        for i in sorted(session.remaining)
    ]


def _iter_instantiations(plan: TaskPlan, session: PlannerSession, table):
    """The round's sub-tasks in try order, each yielded once: the pair
    options, then the plan's one-arm moves, each group bound at the top-down
    angles, then at every angle, in option order.  Options are bound one at
    a time, so a caller that stops at the first sub-task binds no later
    option and draws no buffer poses for a later one-arm move."""
    seen = set()
    for options in _option_groups(plan, session):
        for level in (TOP_DOWN_SET, FULL_SET):
            for option in options:
                sub = _bind(session, table, option, level)
                if sub is not None and sub not in seen:
                    seen.add(sub)
                    yield sub


def _option_groups(plan: TaskPlan, session: PlannerSession):
    """Options are per-arm moves `(obj, target, to_buffer)`, None for an idle
    arm.  A group's buffer poses are drawn when the group is reached."""
    yield _pair_options(plan, session)
    for obj, kind in plan.singles:
        yield _single_moves(session, obj, kind)


def _pair_options(plan: TaskPlan, session: PlannerSession):
    """Pair options ranked by max-arm travel, then candidate, then buffer.
    The first object of a pair goes to its goal, the second to its goal or,
    on a buffer plan, to each buffer pose drawn for it."""
    goal_of = session.instance.goal.pose_of
    pose_of = session.current.pose_of
    # on a buffer plan, deterministic per-object draws in candidate order
    parked = dict.fromkeys(b for _, b in plan.candidates if plan.need_buffer)
    buffers_for = {b: _buffer_options(session, b) for b in parked}
    ranked = []
    for idx, (i, j) in enumerate(plan.candidates):
        o1, o2 = assign_arms((i, j), session.current, session.arms)
        pick1, pick2 = pose_of(o1).xy, pose_of(o2).xy
        first = (i, goal_of(i), False)
        targets = buffers_for[j] if plan.need_buffer else [goal_of(j)]
        for b_idx, target in enumerate(targets):
            second = (j, target, plan.need_buffer)
            m1, m2 = (first, second) if o1 == i else (second, first)
            travel = max(_travel(session, 0, pick1, m1[1]), _travel(session, 1, pick2, m2[1]))
            ranked.append(((travel, idx, b_idx), (m1, m2)))
    ranked.sort(key=lambda r: r[0])
    return [option for _, option in ranked]


def _single_moves(session: PlannerSession, obj: int, kind: str):
    """One-arm options moving `obj` to its goal, to buffer poses, or to relay
    buffer poses either arm can reach (to hand an object across the zone
    around an arm base): the arm nearest the object first, then target
    order."""
    arms = session.arms
    targets = [session.instance.goal.pose_of(obj)] if kind == GOAL else _buffer_options(session, obj)
    if kind == RELAY:
        clearance = max(a.clearance for a in arms)
        targets = [p for p in targets if all(_other_base_ok(p.xy, arm, clearance) for arm in arms)]
    pose = session.current.pose_of(obj)
    order = sorted((0, 1), key=lambda a: dist(arms[a].base, pose.xy))
    options = []
    for arm_idx in order:
        for target in targets:
            move = (obj, target, kind != GOAL)
            options.append((move, None) if arm_idx == 0 else (None, move))
    return options


def _bind(session: PlannerSession, table, option, level) -> Optional[InstantiatedSubTask]:
    """Bind an option arm by arm at the first angle of `level` that suits
    each, or None."""
    tasks = []
    for arm_idx, move in enumerate(option):
        if move is None:
            tasks.append(ArmTask())
            continue
        obj, target, to_buffer = move
        partner, partner_target, _ = option[1 - arm_idx] or (None, None, None)
        task = _bind_arm(session, table, arm_idx, obj, target, level, partner, partner_target)
        if task is None:
            return None
        tasks.append(replace(task, to_buffer=True) if to_buffer else task)
    return InstantiatedSubTask(tuple(tasks))


def _buffer_options(session: PlannerSession, obj: int) -> list[Pose2]:
    """Buffer poses for one object: finger-room sampling first, then the bare
    non-overlap contract on crowded tables (pad checks re-filter at bind)."""
    goals = _pending_goal_boxes(session)
    for min_gap in (MIN_GAP, 0.0):
        try:
            return sample_buffers(
                session.current,
                session.instance.shapes,
                goals,
                K_BUFFERS,
                session.rng,
                session.instance.shapes[obj],
                session.instance.workspace,
                min_gap=min_gap,
            )
        except BufferSamplingExhausted:
            continue
    return []


# ------------------------------------------------------------------ legs


def _leg_endpoints(sub: InstantiatedSubTask, stage: Stage, ee, arms):
    """Per-arm (start, goal_point, carried) for one leg of the round."""
    out = []
    for a in (0, 1):
        task = sub.tasks[a]
        start = tuple(ee[a])
        if task.obj is None:
            out.append((start, arms[a].retract, None))
        elif stage == Stage.TO_START:
            out.append((start, task.pick, task.obj))
        else:
            out.append((start, task.target.xy, task.obj))
    return out


def _arriving(paths, pts):
    """(paths, arrival): a carrying arm's gripper event ends its path."""
    return paths, [p.duration if c is not None else None for p, (_, _, c) in zip(paths, pts)]


def _straight(pts, delays=(0.0, 0.0)):
    """Straight paths, each arm departing after its delay."""
    return _arriving([_timed([s, g], depart=d) for (s, g, _), d in zip(pts, delays)], pts)


def _phases(pts, arms, first: int, serial: bool):
    """Arm `first` retreats while the other works, then roles swap.  With
    `serial` one arm moves at a time: retreat, other works, other retreats,
    work."""
    second = 1 - first
    s_f, g_f, _ = pts[first]
    s_s, g_s, _ = pts[second]
    r_f, r_s = arms[first].retract, arms[second].retract
    retreat = _timed([s_f, r_f])
    work = _timed([s_s, g_s], depart=retreat.duration if serial else 0.0)
    if serial:
        turn = work.duration
        swap = turn + dist(g_s, r_s)
    else:
        turn = swap = max(retreat.duration, work.duration)
    paths = [None, None]
    arrival = [None, None]
    paths[first] = ArmPath(_pad(retreat, swap).knots + _shift(_timed([r_f, g_f]).knots[1:], swap))
    paths[second] = ArmPath(_pad(work, turn).knots + _shift(_timed([g_s, r_s]).knots[1:], turn))
    arrival[first] = swap + dist(r_f, g_f)
    arrival[second] = work.duration
    return paths, arrival


def _shift(knots: list[tuple[float, Point]], offset: float):
    return [(t + offset, p) for t, p in knots]


def _first_valid(sub, arms, stage: Stage, mode: Mode, variants) -> SyncMotion | Conflict:
    """Pad each (paths, arrival) variant to a common duration, wrap it as a
    SyncMotion and validate it: the first valid motion, else the last
    Conflict."""
    bad = None
    for paths, arrival in variants:
        duration = max(paths[0].duration, paths[1].duration)
        padded = (_pad(paths[0], duration), _pad(paths[1], duration))
        bad = validate_motion(padded, arms, duration)
        if bad is None:
            return SyncMotion(stage, mode, padded, duration, tuple(arrival))
    return bad


def plan_sync(sub: InstantiatedSubTask, arms, stage: Stage, ee) -> SyncMotion | Conflict:
    """Straight-line synchronized motion for one leg, validated by sampling."""
    pts = _leg_endpoints(sub, stage, ee, arms)
    return _first_valid(sub, arms, stage, Mode.SYNCHRONOUS, [_straight(pts)])


def untangle(sub: InstantiatedSubTask, arms, stage: Stage, ee) -> Optional[SyncMotion]:
    """Departure delays for the shorter-path arm (25% then 50%), then
    home-side via-point routing; first variant that validates wins."""
    pts = _leg_endpoints(sub, stage, ee, arms)
    lens = [dist(s, g) for s, g, _ in pts]
    yielder = 0 if lens[0] < lens[1] else 1
    variants = []
    for frac in (0.25, 0.5):
        delays = [0.0, 0.0]
        delays[yielder] = frac * max(lens)
        variants.append(_straight(pts, delays))
    via = [
        _timed([s, g] if dist(s, g) < 1e-12 else [s, arms[a].via, g])
        for a, (s, g, _) in enumerate(pts)
    ]
    variants.append(_arriving(via, pts))
    res = _first_valid(sub, arms, stage, Mode.UNTANGLED, variants)
    return res if isinstance(res, SyncMotion) else None


def sequential_fallback(sub: InstantiatedSubTask, arms, stage: Stage, ee) -> SyncMotion:
    """Arm 1 retreats while arm 2 completes its task, then arm 2 retreats
    while arm 1 completes; if that choreography still conflicts, the mirrored
    and fully serial variants are tried before giving up.  A lone working arm
    sets out once the idle arm is parked."""
    pts = _leg_endpoints(sub, stage, ee, arms)
    active = [a for a in (0, 1) if sub.tasks[a].obj is not None]
    if len(active) == 2:
        variants = (_phases(pts, arms, first, serial) for serial in (False, True) for first in (0, 1))
    else:
        # the idle arm parks first
        delays = [dist(*pts[1 - a][:2]) if a in active else 0.0 for a in (0, 1)]
        variants = [_straight(pts, delays)]
    res = _first_valid(sub, arms, stage, Mode.SEQUENTIAL, variants)
    if isinstance(res, Conflict):
        raise SubTaskInfeasible(f"sequential leg invalid at t={res.t:.3f}: {res.detail}")
    return res


def _ladder(sub, arms, stage, ee) -> SyncMotion:
    res = plan_sync(sub, arms, stage, ee)
    if isinstance(res, SyncMotion):
        return res
    res = untangle(sub, arms, stage, ee)
    if res is not None:
        return res
    return sequential_fallback(sub, arms, stage, ee)


def _legs(sub, arms, ee, rung) -> tuple[SyncMotion, SyncMotion]:
    """A round's two legs on `rung`: the start-bound leg from `ee`, then the
    goal-bound leg from where the start leg ends.  SubTaskInfeasible if the
    rung cannot plan either."""
    start = rung(sub, arms, Stage.TO_START, ee)
    goal = rung(sub, arms, Stage.TO_GOAL, [p.end for p in start.paths])
    return start, goal


def sequential_round(sub: InstantiatedSubTask, arms, ee) -> tuple[SyncMotion, SyncMotion]:
    """Both legs of a recorded round on the sequential rung alone: the step
    of the forced-sequential replay."""
    return _legs(sub, arms, ee, sequential_fallback)


def plan_motion(plan: TaskPlan, session: PlannerSession) -> tuple[InstantiatedSubTask, SyncMotion, SyncMotion]:
    """Select the round's sub-task and plan both of its legs.

    The sub-tasks of `_iter_instantiations` are tried in order; the first
    whose two legs both pass the rung ladder, the goal-bound leg planned
    from where the start leg ends, is returned as (sub, start, goal)."""
    last_error = "no feasible instantiation"
    for sub in _iter_instantiations(plan, session, _table_boxes(session)):
        try:
            start, goal = _legs(sub, session.arms, session.ee, _ladder)
        except SubTaskInfeasible as exc:
            last_error = str(exc)
            continue
        return sub, start, goal
    raise MotionFailure(f"all instantiations failed: {last_error}")
