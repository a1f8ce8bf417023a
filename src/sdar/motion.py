"""Layered synchronous motion planning on a 2-D arm surrogate.

Each arm is a base->end-effector segment with a disc gripper.  Transit is
above-plane (carried objects collide with nothing); what is checked is
arm-arm segment clearance along sampled trajectories plus endpoint grasp and
placement feasibility.  The rung ladder per leg: straight synchronous motion,
rule-based untangling (departure delays, then home-side via points), and
finally sequential execution with one arm parked at its retract pose.  Each
rung is an ordered list of path variants, and `_first_valid` keeps the first
that validates.  Every synchronous and untangled variant ends with both arms
at the leg's goal points, so a leg whose end configuration already breaks
clearance goes straight to the sequential rung (`_ladder`).  The validator
bounds each sample's clearance from below by the gap between the arms'
projections on the axis through the two bases, and reads the exact segment
distance only where that bound does not clear the threshold.  A round is
two legs, start-bound (grasp) then goal-bound (place); its sub-task is
committed only when both legs climb the ladder, and `plan_motion` returns
both motions at once.  The task plan decides which objects move and where;
`_iter_instantiations` binds its pair options and then its one-arm moves to
arms, grasp angles and poses, as one stream that yields each sub-task once.
Each buffer listing is one `BufferStream`, keyed (plan seed, round, object,
listing) so that no pose depends on earlier draws, whose current pass draws
one pose at a time, only as far as the option ranking reads the listing.
`sequential_round` plans the same two legs on the sequential rung alone,
for the forced-sequential replay.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, replace
from heapq import heapify, heappop, heappush
from itertools import count, takewhile, tee
from typing import Optional

from .geom import (
    EPS,
    MIN_GAP,
    OrientedBox,
    PathWalker,
    Point,
    Pose2,
    Workspace,
    blocked_within2,
    blocked_within_box,
    box_at,
    boxes_closer_than,
    dist,
    in_reach,
    inside,
    max_speed,
    overlaps,
    reach_entry,
    segment_clearance,
)
from .taskplan import GOAL, RELAY, PlannerSession, TaskPlan, assign_arms

# The planner's fixed resolutions: a leg validates at DT / VALIDATE_REFINE
# (and `sdar render` draws a leg at round(1/DT) + 1 times), and a buffer
# listing holds at most K_BUFFERS poses.
DT = 0.02
K_BUFFERS = 40
# Draws per pass of a listing (gap `MIN_GAP`, then gap 0), however many
# poses are read: the cap of a pass that finds little or no room.
BUFFER_DRAWS = 2000
# The listing a buffer plan's pair draws are keyed by; a one-arm move's is
# its index in the plan's singles.
PAIR_LISTING = -1
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
# Bound on the rounding in a base-axis projection gap, relative to the
# largest coordinate of the bases and knots: it is a few dozen ulps of that
# size, far below this.
AXIS_ROUNDING = 2.0**-40


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
    """Piecewise-linear EE path of (t, x, y) knots over [0, duration] in
    absolute time, read with `geom.PathWalker`."""

    knots: list[tuple[float, float, float]]

    @property
    def duration(self) -> float:
        return self.knots[-1][0]

    @property
    def end(self) -> Point:
        return self.knots[-1][1:]


def _timed(points: list[Point], depart: float = 0.0) -> ArmPath:
    """Unit-speed path through points, departing at `depart`."""
    knots = [(0.0, *points[0])]
    if depart > 0.0:
        knots.append((depart, *points[0]))
    t = depart
    for a, b in zip(points, points[1:]):
        t += dist(a, b)
        knots.append((t, *b))
    return ArmPath(knots)


def _pad(path: ArmPath, duration: float) -> ArmPath:
    if path.duration < duration - 1e-12:
        return ArmPath(path.knots + [(duration, *path.end)])
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


def _limit(arms: tuple[ArmModel, ArmModel]) -> float:
    """The sampled clearance a leg must keep: clearance + VALIDATE_GUARD,
    less 1e-9 of rounding."""
    return arms[0].clearance + VALIDATE_GUARD - 1e-9


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
    after it.

    A sample's clearance c is first bounded from below on the unit axis
    from base 0 to base 1: projecting is 1-Lipschitz, so the gap between
    the two segments' projections, min(proj base 1, proj q) - max(proj
    base 0, proj p), is at most their distance.  Less AXIS_ROUNDING of the
    coordinates' size, a gap that clears the threshold is taken as c, both
    for the pass test and for the skip; any other sample, and every sample
    when the bases coincide, gets the exact `segment_clearance`.  A bound
    passes only samples whose exact clearance passes, and skips less than
    the exact value would.  The grid is unchanged, so the result (None, or
    the first failing sample's Conflict, its clearance exact) is the one a
    full scan would return.
    """
    if duration <= 1e-12:
        steps = 1
    else:
        steps = max(int(round(VALIDATE_REFINE / DT)), int(math.ceil(duration / VALIDATE_GUARD)))
    limit = _limit(arms)
    speed = max_speed(paths[0].knots) + max_speed(paths[1].knots)
    # bound on the clearance change between neighbouring samples (inf*0 is nan)
    per_step = math.inf if speed == math.inf else speed * (duration / steps)
    base0, base1 = arms[0].base, arms[1].base
    bx, by = base0
    span = dist(base0, base1)
    if span > 0.0:
        ux = (base1[0] - bx) / span
        uy = (base1[1] - by) / span
        # a sample's point lies in the hull of its path's knots
        size = max(map(abs, (*base0, *base1)))
        for path in paths:
            for _, x, y in path.knots:
                size = max(size, abs(x), abs(y))
        margin = size * AXIS_ROUNDING
    else:
        ux = uy = 0.0
        margin = math.inf  # no axis: every sample takes the exact distance
    # the sample times never decrease, so each arm's walker reads on
    point0 = PathWalker(paths[0].knots).point
    point1 = PathWalker(paths[1].knots).point
    k = 0
    while k <= steps:
        t = duration * k / steps
        p = point0(t)
        q = point1(t)
        # arm 1's nearest and arm 0's farthest projection on the base axis
        near = (q[0] - bx) * ux + (q[1] - by) * uy
        far = (p[0] - bx) * ux + (p[1] - by) * uy
        c = (near if near < span else span) - (far if far > 0.0 else 0.0) - margin
        if c < limit:
            c = segment_clearance(base0, p, base1, q)
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


def _pad_layout(box: OrientedBox, angle: GraspAngle, ee_radius: float):
    """(axis, offsets, half_along, half_across, across_axis) of the footprints
    the gripper needs free at `angle`: each pad is centred `offset` along
    `axis` from the box centre, with half extents `half_along` on
    `across_axis` and `half_across` on `axis`.  Finger pads for top-down
    grasps, an approach corridor for tilted side grasps."""
    long_ax, short_ax, long_h, short_h = _face_frames(box)
    inset = 1e-6  # avoid measure-zero corner contact with flush neighbors
    if angle == GraspAngle.TOP_DOWN_LONG:
        # fingers close across the short dimension, contacting the long faces
        off = short_h + PAD_HALF_THICKNESS
        return short_ax, (off, -off), min(long_h, ee_radius) - inset, PAD_HALF_THICKNESS, long_ax
    if angle == GraspAngle.TOP_DOWN_SHORT:
        off = long_h + PAD_HALF_THICKNESS
        return long_ax, (off, -off), min(short_h, ee_radius) - inset, PAD_HALF_THICKNESS, short_ax
    corr_half = ee_radius  # corridor: gripper width wide, 2x gripper depth long
    if angle in (GraspAngle.SIDE_PLANE0_POS, GraspAngle.SIDE_PLANE0_NEG):
        off = short_h + corr_half
        sign_off = off if angle == GraspAngle.SIDE_PLANE0_POS else -off
        return short_ax, (sign_off,), ee_radius, corr_half, long_ax
    off = long_h + corr_half
    sign_off = off if angle == GraspAngle.SIDE_PLANE1_POS else -off
    return long_ax, (sign_off,), ee_radius, corr_half, short_ax


def _finger_pads(box: OrientedBox, layout) -> list[OrientedBox]:
    """The pad boxes of a `_pad_layout` about `box`."""
    axis, offsets, half_along, half_across, across_axis = layout
    theta = math.atan2(across_axis[1], across_axis[0])
    cx, cy = box.center.x, box.center.y
    return [
        box_at(Pose2(cx + axis[0] * off, cy + axis[1] * off, theta), half_along, half_across)
        for off in offsets
    ]


# Kept beyond a pad's reach: far above the rounding in the centre distances,
# and its square is above `overlaps`' EPS, so every obstacle left out fails
# that function's bounding-circle prefilter against every pad.
PAD_NEAR_SLACK = 1e-4


def grasp_feasible(
    obj_box: OrientedBox,
    angle: GraspAngle,
    obstacles: list[OrientedBox],
    arm: ArmModel,
) -> bool:
    """Reach plus free finger pads / approach corridor against the obstacles
    (the grasped object itself must not be in the obstacle list).  An angle
    whose pads would have a non-positive half extent (an object or gripper
    thinner than the pads' inset) is infeasible whatever the neighbours.

    Pads are built only when an obstacle can touch them: an obstacle whose
    centre lies farther from the box centre than the farthest point of any
    pad's bounding circle, plus its own circumradius and PAD_NEAR_SLACK,
    fails `overlaps`' own bounding-circle test against every pad, so
    leaving it out keeps the verdict."""
    if dist(arm.base, obj_box.center.xy) > arm.reach:
        return False
    layout = _pad_layout(obj_box, angle, arm.ee_radius)
    _, offsets, half_along, half_across, _ = layout
    if not (half_along > 0.0 and half_across > 0.0):
        return False
    pad_reach = abs(offsets[0]) + math.hypot(half_along, half_across) + PAD_NEAR_SLACK
    cx, cy = obj_box.center.x, obj_box.center.y
    near = []
    for ob in obstacles:
        dx = ob.center.x - cx
        dy = ob.center.y - cy
        r = pad_reach + ob.circumradius
        if dx * dx + dy * dy <= r * r:
            near.append(ob)
    if not near:
        return True
    for pad in _finger_pads(obj_box, layout):
        if any(overlaps(pad, ob) for ob in near):
            return False
    return True


# ------------------------------------------------------------- buffers


class BufferStream:
    """One keyed listing of buffer poses, drawn one at a time as they are
    read and kept for every later read.  It holds the fixed obstacles (the
    on-table objects, then the pending goals), the rng, the buffered shape,
    the workspace, the current pass and the poses drawn so far.  The
    `MIN_GAP` pass (finger room) ends at K_BUFFERS poses or at a
    `sample_buffers` call that finds none; the gap-0 pass (bare non-overlap,
    for crowded tables; pad checks re-filter at bind) draws, from the same
    rng, only when the `MIN_GAP` pass found no pose.  So the poses, and the
    rng units used up to each, are those of drawing the whole listing at
    once."""

    def __init__(self, obstacles: list[OrientedBox], rng, buffered_shape, workspace: Workspace):
        self.obstacles = obstacles
        self.rng = rng
        self.buffered_shape = buffered_shape
        self.workspace = workspace
        # the current pass: its gap (None once the listing is complete), its
        # draws left and its obstacle grid, built at its first draw
        self.gap: Optional[float] = MIN_GAP
        self.left = BUFFER_DRAWS
        self.grid: Optional[BufferGrid] = None
        self.poses: list[Pose2] = []

    def pose(self, index: int) -> Optional[Pose2]:
        """Pose `index` of the listing, drawn if need be, or None past its
        last pose."""
        poses = self.poses
        while len(poses) <= index and self.gap is not None:
            try:
                if not sample_buffers(self) or len(poses) == K_BUFFERS:
                    self.gap = None  # the listing is complete
            except BufferSamplingExhausted:
                # the pass found nothing: the gap-0 pass draws next, or none after it
                self.gap = 0.0 if self.gap else None
                self.left, self.grid = BUFFER_DRAWS, None
        return poses[index] if index < len(poses) else None

    def __iter__(self):
        return takewhile(lambda pose: pose is not None, map(self.pose, count()))


def sample_buffers(listing: BufferStream) -> list[Pose2]:
    """The listing's next pose from its current pass, whose footprint avoids
    every obstacle box: `[pose]`, also appended to `listing.poses`, or `[]`
    once the pass has used its BUFFER_DRAWS draws; a call resumes the pass
    where the last one stopped.  The poses are alternatives, not a packing:
    a round parks at most one object, so no pose is tested against the
    listing's others, and a pose may come back.  A call that ends the pass
    with no pose in the listing raises BufferSamplingExhausted.  Each draw
    takes three `rng.random()` values in [0, 1] (x, y, theta) whatever its
    fate, and scales each with the arithmetic of `random.Random.uniform`,
    `a + (b - a) * u`: x in [margin, width - margin] (margin the shape's
    circumradius), y likewise and theta in [-pi, pi].  So the poses and the
    rng's state are those of three `rng.uniform(a, b)` calls per draw; theta
    is scaled only for a draw that the sure tests below do not reject.

    The obstacles are listed once per pass in a grid (`BufferGrid`), and a
    draw reads only its own cell.  A draw centred within an obstacle's inner
    disc (`blocked_within2`) is surely rejected.  Otherwise one pass over
    the cell's reach entries (`in_reach`) skips each obstacle beyond its
    reach disc (the exact test's own prefilter would clear it), surely
    rejects a draw nearer to an obstacle's rectangle than the draw's
    inscribed radius plus the gap (`blocked_within_box`; whenever that bound
    is positive it covers the inner discs, which are only a cheaper first
    test), and collects the obstacles in reach.  A draw with none in reach
    builds no box when it lies in the draw domain, which proves its box
    inside the workspace (`FIT_ROUNDING`); any other draw's box gets
    `inside` and the exact test against the obstacles in reach, in the order
    they were given.  Sure rejections and skips change no verdict, so the
    poses, the exact-test calls and the rng's state are those of a scan over
    every obstacle.

    A gap > 0 additionally keeps finger room around the parked object
    (`boxes_closer_than`); gap 0 is the bare non-overlap contract
    (`overlaps`)."""
    hw, hh = listing.buffered_shape
    workspace = listing.workspace
    min_gap = listing.gap
    grid = listing.grid
    if grid is None:
        grid = listing.grid = BufferGrid(listing.buffered_shape, min_gap, workspace)
        for ob in listing.obstacles:
            grid.add(ob)
    inner, reach, inv, gx, gy, rows = grid.inner, grid.reach, grid.inv, grid.gx, grid.gy, grid.rows
    sure = blocked_within_box(grid.inner_radius, min_gap)
    margin = grid.margin
    x_hi = workspace.width - margin
    y_hi = workspace.height - margin
    # a box centred in [margin, x_hi] x [margin, y_hi] is inside the
    # workspace, up to rounding that EPS covers on such a table
    fits = (workspace.width + workspace.height) * FIT_ROUNDING <= EPS
    unit = listing.rng.random
    x_span = x_hi - margin
    y_span = y_hi - margin
    pi = math.pi
    turn = pi - -pi
    # `left` counts the draws the pass has left after this one
    for left in range(listing.left - 1, -1, -1):
        x = margin + x_span * unit()
        y = margin + y_span * unit()
        t = unit()
        i = int(x * inv - gx) * rows + int(y * inv - gy)
        for ox, oy, inner2 in inner[i]:
            dx = ox - x
            dy = oy - y
            if dx * dx + dy * dy < inner2:
                break  # centred within an inner disc: surely rejected
        else:
            near = in_reach(x, y, reach[i], sure)
            if near is not None:
                pose = Pose2(x, y, -pi + turn * t)
                if near or not (fits and margin <= x <= x_hi and margin <= y <= y_hi):
                    box = box_at(pose, hw, hh)
                    if not (inside(workspace, box) and _clears(box, near, min_gap)):
                        continue
                listing.left = left
                listing.poses.append(pose)
                return [pose]
    listing.left = 0
    if not listing.poses:
        raise BufferSamplingExhausted(
            f"no buffer pose found within {BUFFER_DRAWS} draws for shape {listing.buffered_shape}"
        )
    return []


def _clears(box: OrientedBox, near: list[OrientedBox], min_gap: float) -> bool:
    """True iff the exact test (boxes_closer_than for min_gap > 0, overlaps
    otherwise) clears `box` against every obstacle in `near`.  It calls this
    module's names for the tests, so that the probes perfbench installs on
    `motion` see the calls."""
    if min_gap > 0.0:
        for ob in near:
            if boxes_closer_than(box, ob, min_gap):
                return False
    else:
        for ob in near:
            if overlaps(box, ob):
                return False
    return True


# Cells across the workspace diagonal, at most: with cells no smaller than
# that, than the draw's circumradius and than the gap, a disc spans a bounded
# number of cells whatever the shapes.
GRID_MAX_CELLS = 64
# Cell side in circumradii of the buffered object.  On a `default` pass an
# obstacle's two discs are listed in 29 cells, against 54 with cells one
# circumradius wide; a draw reads one cell, a call lists every obstacle, and
# the longer cell lists cost less than the listing saved.
GRID_CELL_RADII = 1.5
# Pad on a disc's bounding square, relative to its radius and coordinates:
# far above the rounding in a square root or a cell index, far below a cell.
GRID_PAD = 1e-9
# Bound on the rounding in a box's corners, relative to the workspace size:
# it is a few ulps of the size, far below this.  A box centred its
# circumradius or more from each edge of the table is inside it, up to that
# rounding, which `inside`'s EPS tolerance covers on tables up to
# EPS / FIT_ROUNDING (about 1,100) in width plus height; `sample_buffers`
# builds no box for such a draw with nothing in reach.
FIT_ROUNDING = 2.0**-40


class BufferGrid:
    """The fixed obstacles of one pass of a listing (on-table objects
    and pending goals) in two flat lists of square cells, `inner` and
    `reach`, that cover only the draw domain (the rectangle between
    (margin, margin) and (width - margin, height - margin)) plus one cell of
    rounding slack on each side.  A point (x, y) of it is in cell
    `int(x * inv - gx) * rows + int(y * inv - gy)`.

    Each obstacle has an inner disc of squared radius `blocked_within2`
    (a draw centred inside is surely rejected), listed as (x, y, inner²)
    unless it is not positive, and a reach disc of squared radius
    `prefilter_reach2` (a draw centred outside is cleared by the exact
    test's own prefilter), listed as its `reach_entry`.  A disc is listed
    in every cell of the grid that its padded bounding square touches, in
    the order the obstacles were added.  Cell indices are monotone in the coordinates and
    the pad covers the rounding in the square's edges, so a draw that a
    disc's own test puts inside finds the disc in its cell."""

    def __init__(self, buffered_shape: tuple[float, float], min_gap: float, workspace: Workspace):
        hw, hh = buffered_shape
        self.margin = margin = math.hypot(hw, hh)
        self.inner_radius = min(hw, hh)
        self.min_gap = min_gap
        self.side = max(GRID_CELL_RADII * margin, min_gap, workspace.diagonal / GRID_MAX_CELLS)
        self.inv = inv = 1.0 / self.side
        w, h = workspace.width, workspace.height
        # a draw scales a unit in [0, 1] as uniform(margin, w - margin) does,
        # so it lies between those bounds in either order
        x_lo, x_hi = sorted((margin, w - margin))
        y_lo, y_hi = sorted((margin, h - margin))
        self.gx = float(math.floor(x_lo * inv) - 1)
        self.gy = float(math.floor(y_lo * inv) - 1)
        self.cols = self._col(x_hi) + 2
        self.rows = self._row(y_hi) + 2
        self.inner: list = [()] * (self.cols * self.rows)
        self.reach: list = [()] * (self.cols * self.rows)

    def _col(self, x: float) -> int:
        return math.floor(x * self.inv - self.gx)

    def _row(self, y: float) -> int:
        return math.floor(y * self.inv - self.gy)

    def add(self, ob: OrientedBox) -> None:
        """List an obstacle's discs; an inner disc that is not positive
        rejects nothing and is left out."""
        x, y = ob.center.x, ob.center.y
        inner2 = blocked_within2(self.inner_radius, ob, self.min_gap)
        if inner2 > 0.0:
            self._list(self.inner, x, y, inner2, (x, y, inner2))
        entry = reach_entry(self.margin, ob, self.min_gap)
        self._list(self.reach, x, y, entry[2], entry)

    def _list(self, cells, x: float, y: float, r2: float, entry) -> None:
        """List `entry` in the cells of the grid that the padded bounding
        square of the disc about (x, y) of squared radius r2 touches."""
        r = math.sqrt(r2)
        h = r + GRID_PAD * (r + abs(x) + abs(y))
        rows = self.rows
        lo_y = max(self._row(y - h), 0)
        hi_y = min(self._row(y + h), rows - 1)
        for ix in range(max(self._col(x - h), 0), min(self._col(x + h), self.cols - 1) + 1):
            for i in range(ix * rows + lo_y, ix * rows + hi_y + 1):
                listed = cells[i]
                if listed:
                    listed.append(entry)
                else:
                    cells[i] = [entry]


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


def _other_base_ok(point: Point, other: ArmModel, clearance: float) -> bool:
    return dist(point, other.base) >= clearance + BASE_KEEPOUT_MARGIN


def _bind_arm(
    session: PlannerSession,
    arm_idx: int,
    obj: int,
    target: Pose2,
    level,
    partner: Optional[int],
    partner_target: Optional[Pose2],
) -> Optional[ArmTask]:
    """First angle in the ladder level feasible for both the grasp at the
    object's current pose and the placement at the target pose, against the
    session's held boxes."""
    ws = session.instance.workspace
    arms = session.arms
    arm = arms[arm_idx]
    other = arms[1 - arm_idx]
    clearance = arms[0].clearance
    cur_pose = session.boxes[obj].center
    target_box = session.footprint_at(obj, target)

    if not _other_base_ok(cur_pose.xy, other, clearance):
        return None
    if not _other_base_ok(target.xy, other, clearance):
        return None
    if not inside(ws, target_box):
        return None
    if dist(arm.base, target.xy) > arm.reach:
        return None

    table = session.boxes.items()
    place_obstacles = [b for i, b in table if i != obj and i != partner]
    if partner_target is not None and partner is not None:
        place_obstacles.append(session.footprint_at(partner, partner_target))
    if any(overlaps(target_box, ob) for ob in place_obstacles):
        return None

    cur_box = session.boxes[obj]
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


def _iter_instantiations(plan: TaskPlan, session: PlannerSession):
    """The round's sub-tasks in try order, each yielded once: the pair
    options, then the plan's one-arm moves, each group bound at the top-down
    angles, then at every angle, in option order.  Both passes read one
    stream of the group's options, so a caller that stops at the first
    sub-task binds no later option, draws no buffer pose the ranking has
    not reached, and none for a later one-arm move."""
    seen = set()
    for options in _option_groups(plan, session):
        for level, stream in zip((TOP_DOWN_SET, FULL_SET), tee(options)):
            for option in stream:
                sub = _bind(session, option, level)
                if sub is not None and sub not in seen:
                    seen.add(sub)
                    yield sub


def _option_groups(plan: TaskPlan, session: PlannerSession):
    """Options are per-arm moves `(obj, target, to_buffer)`, None for an idle
    arm.  A one-arm move's buffer poses are drawn as its options are read,
    keyed by its index in `plan.singles`."""
    yield _pair_options(plan, session)
    for listing, (obj, kind) in enumerate(plan.singles):
        yield _single_moves(session, obj, kind, listing)


def _pair_options(plan: TaskPlan, session: PlannerSession):
    """Pair options ranked by max-arm travel, then candidate, then buffer.
    The first object of a pair goes to its goal, the second to its goal or,
    on a buffer plan, to each buffer pose drawn for it (under the key
    `PAIR_LISTING`, which every pair parking it shares).

    A generator that draws lazily, one pose at a time.  No option of a
    candidate travels less than its bound: the goal-bound arm's whole
    travel, and the parking arm's travel to its pick plus the radius about
    the pick that holds no pose (`_pose_free_radius`).  Sums round
    monotonically, so the heap holds, beside the drawn options, one entry
    per candidate for its next undrawn pose, keyed (bound, candidate, next
    index).  No undrawn option ranks below that key, so a pose is drawn only
    when its entry comes first, and the order is that of sorting every
    option."""
    goal_of = session.instance.goal.pose_of
    pending = []
    parking = []
    for idx, (i, j) in enumerate(plan.candidates):
        o1, _ = assign_arms((i, j), session.boxes, session.arms)
        a = 0 if o1 == i else 1  # the goal-bound arm; arm 1 - a moves j
        whole = _travel(session, a, session.boxes[i].center.xy, goal_of(i))
        pick_j = session.boxes[j].center.xy
        first = (i, goal_of(i), False)
        if plan.need_buffer:
            parking.append((a, whole, pick_j, first, j))
            to_pick = dist(tuple(session.ee[1 - a]), pick_j)
            pending.append((max(whole, to_pick + _pose_free_radius(session, j)), idx, 0, None))
        else:
            second = (j, goal_of(j), False)
            travel = max(whole, _travel(session, 1 - a, pick_j, goal_of(j)))
            pending.append((travel, idx, 0, (first, second) if a == 0 else (second, first)))
    heapify(pending)
    streams = {}
    while pending:
        bound, idx, b_idx, option = heappop(pending)
        if option is not None:
            yield option
            continue
        # the candidate's next undrawn pose: draw it, rank its option
        a, whole, pick_j, first, j = parking[idx]
        if j not in streams:
            streams[j] = _buffer_options(session, j, PAIR_LISTING)
        target = streams[j].pose(b_idx)
        if target is None:
            continue
        second = (j, target, True)
        travel = max(whole, _travel(session, 1 - a, pick_j, target))
        heappush(pending, (travel, idx, b_idx, (first, second) if a == 0 else (second, first)))
        heappush(pending, (bound, idx, b_idx + 1, None))


def _pose_free_radius(session: PlannerSession, obj: int) -> float:
    """A distance from the object's current centre that none of its buffer
    poses is nearer: its current box is an obstacle of its own listings, and
    a pose centred within that box's inner disc at gap 0 (`blocked_within2`,
    which covers the `MIN_GAP` pass too) is rejected.  Rounded down far
    below any shape size and far above the rounding in the distances."""
    inner2 = blocked_within2(min(session.instance.shapes[obj]), session.boxes[obj], 0.0)
    return math.sqrt(inner2) * (1.0 - 2.0**-40)


def _single_moves(session: PlannerSession, obj: int, kind: str, listing: int):
    """One-arm options moving `obj` to its goal, to buffer poses, or to relay
    buffer poses outside both arms' base keep-outs (to hand an object across
    the zone around an arm base; reach is left to binding): the arm nearest
    the object first, then target order.  A generator: a buffer pose is
    drawn when the options reach it, and the relay filter reads each pose
    as it comes."""
    arms = session.arms
    clearance = arms[0].clearance
    goal = kind == GOAL
    targets = [session.instance.goal.pose_of(obj)] if goal else _buffer_options(session, obj, listing)
    pose = session.boxes[obj].center
    for arm_idx in sorted((0, 1), key=lambda a: dist(arms[a].base, pose.xy)):
        for target in targets:
            if kind == RELAY and not all(_other_base_ok(target.xy, arm, clearance) for arm in arms):
                continue
            move = (obj, target, not goal)
            yield (move, None) if arm_idx == 0 else (None, move)


def _bind(session: PlannerSession, option, level) -> Optional[InstantiatedSubTask]:
    """Bind an option arm by arm at the first angle of `level` that suits
    each, or None."""
    tasks = []
    for arm_idx, move in enumerate(option):
        if move is None:
            tasks.append(ArmTask())
            continue
        obj, target, to_buffer = move
        partner, partner_target, _ = option[1 - arm_idx] or (None, None, None)
        task = _bind_arm(session, arm_idx, obj, target, level, partner, partner_target)
        if task is None:
            return None
        tasks.append(replace(task, to_buffer=True) if to_buffer else task)
    return InstantiatedSubTask(tuple(tasks))


def _buffer_options(session: PlannerSession, obj: int, listing: int) -> BufferStream:
    """The buffer pose stream of one object.  The obstacles are the held
    on-table boxes in id order, then the pending goals.  The draws are keyed
    by (plan seed, round, object, listing), so they are the same whenever
    and however often the key is drawn."""
    rng = random.Random(repr((session.rng_seed, session.round, obj, listing)))
    obstacles = [*session.boxes.values()]
    obstacles += [session.goal_boxes[i] for i in sorted(session.remaining)]
    return BufferStream(obstacles, rng, session.instance.shapes[obj], session.instance.workspace)


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


def _shift(knots: list[tuple[float, float, float]], offset: float):
    return [(t + offset, x, y) for t, x, y in knots]


def _first_valid(arms, stage: Stage, mode: Mode, variants) -> SyncMotion | Conflict:
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
    return _first_valid(arms, stage, Mode.SYNCHRONOUS, [_straight(pts)])


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
    res = _first_valid(arms, stage, Mode.UNTANGLED, variants)
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
    res = _first_valid(arms, stage, Mode.SEQUENTIAL, variants)
    if isinstance(res, Conflict):
        raise SubTaskInfeasible(f"sequential leg invalid at t={res.t:.3f}: {res.detail}")
    return res


def _ladder(sub, arms, stage, ee) -> SyncMotion:
    """One leg up the rung ladder: synchronous, untangled, then sequential.

    Every synchronous and untangled variant (straight, both delays and the
    via points) ends with both arms at the leg's goal points, on the
    validator's last sample.  So when the arms at those points break the
    sampled clearance by more than VALIDATE_SLACK of rounding, each variant
    would fail there or before (a skip never passes over a failing sample),
    and the leg goes straight to the sequential rung with the same result.
    The check calls this module's `segment_clearance`, so perfbench's probe
    counts it."""
    (_, goal0, _), (_, goal1, _) = _leg_endpoints(sub, stage, ee, arms)
    if segment_clearance(arms[0].base, goal0, arms[1].base, goal1) < _limit(arms) - VALIDATE_SLACK:
        return sequential_fallback(sub, arms, stage, ee)
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
    for sub in _iter_instantiations(plan, session):
        try:
            start, goal = _legs(sub, session.arms, session.ee, _ladder)
        except SubTaskInfeasible as exc:
            last_error = str(exc)
            continue
        return sub, start, goal
    raise MotionFailure(f"all instantiations failed: {last_error}")
