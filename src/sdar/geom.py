"""Exact 2-D primitives: oriented rectangles, workspace containment, segment
clearance, and piecewise-linear paths of (t, x, y) knots.

All geometry is double precision.  Touching counts as overlapping (conservative:
a spurious dependency edge is harmless, a missed one is not).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

EPS = 1e-9

Point = tuple[float, float]


def normalize_angle(theta: float) -> float:
    """Wrap an angle to [-pi, pi)."""
    t = math.fmod(theta + math.pi, 2.0 * math.pi)
    if t < 0.0:
        t += 2.0 * math.pi
    return t - math.pi


@dataclass(frozen=True)
class Pose2:
    """Planar pose (x, y, theta) with theta normalized to [-pi, pi)."""

    x: float
    y: float
    theta: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.theta)):
            raise ValueError(f"non-finite pose ({self.x}, {self.y}, {self.theta})")
        object.__setattr__(self, "theta", normalize_angle(self.theta))

    @property
    def xy(self) -> Point:
        return (self.x, self.y)

    def almost_equal(self, other: "Pose2", tol: float = EPS) -> bool:
        dth = abs(normalize_angle(self.theta - other.theta))
        return abs(self.x - other.x) <= tol and abs(self.y - other.y) <= tol and dth <= tol


@dataclass(frozen=True)
class OrientedBox:
    """Rectangle with center pose and strictly positive half extents.

    The frame (circumradius, axes, corners) is computed once here and kept as
    plain attributes rather than dataclass fields, so equality, hashing and
    repr still see only the pose and the half extents.
    """

    center: Pose2
    half_width: float
    half_height: float

    def __post_init__(self):
        if not (self.half_width > 0.0 and self.half_height > 0.0):
            raise ValueError("half extents must be strictly positive")
        c, s = math.cos(self.center.theta), math.sin(self.center.theta)
        ux, uy, vx, vy = c, s, -s, c
        cx, cy = self.center.x, self.center.y
        w, h = self.half_width, self.half_height
        object.__setattr__(self, "circumradius", math.hypot(w, h))
        object.__setattr__(self, "_axes", ((ux, uy), (vx, vy)))
        object.__setattr__(
            self,
            "_corners",
            (
                (cx + w * ux + h * vx, cy + w * uy + h * vy),
                (cx - w * ux + h * vx, cy - w * uy + h * vy),
                (cx - w * ux - h * vx, cy - w * uy - h * vy),
                (cx + w * ux - h * vx, cy + w * uy - h * vy),
            ),
        )

    def axes(self) -> tuple[Point, Point]:
        return self._axes

    def corners(self) -> list[Point]:
        return list(self._corners)


@dataclass(frozen=True)
class Workspace:
    """Axis-aligned table rectangle with its origin at the lower-left corner."""

    width: float = 1.0
    height: float = 0.6

    def __post_init__(self):
        if not (0.0 < self.width < math.inf and 0.0 < self.height < math.inf):
            raise ValueError("workspace dimensions must be positive and finite")

    @property
    def center(self) -> Point:
        return (self.width / 2.0, self.height / 2.0)

    @property
    def diagonal(self) -> float:
        return math.hypot(self.width, self.height)

    def contains_point(self, p: Point, tol: float = EPS) -> bool:
        return -tol <= p[0] <= self.width + tol and -tol <= p[1] <= self.height + tol


def box_at(pose: Pose2, half_width: float, half_height: float) -> OrientedBox:
    return OrientedBox(pose, half_width, half_height)


def overlaps(a: OrientedBox, b: OrientedBox) -> bool:
    """Closed-rectangle intersection via the separating-axis test over 4 axes."""
    dx = b.center.x - a.center.x
    dy = b.center.y - a.center.y
    reach = a.circumradius + b.circumradius
    if dx * dx + dy * dy > reach * reach + EPS:
        return False
    aw, ah, bw, bh = a.half_width, a.half_height, b.half_width, b.half_height
    (aux, auy), (avx, avy) = a._axes
    (bux, buy), (bvx, bvy) = b._axes
    for x, y in a._axes + b._axes:
        # centre distance along the axis less both boxes' projection radii
        gap = abs(dx * x + dy * y) - (
            (aw * abs(x * aux + y * auy) + ah * abs(x * avx + y * avy))
            + (bw * abs(x * bux + y * buy) + bh * abs(x * bvx + y * bvy))
        )
        if gap > EPS:
            return False
    return True


def inside(w: Workspace, b: OrientedBox) -> bool:
    """True iff all four corners lie in the closed workspace rectangle."""
    return all(w.contains_point(p) for p in b._corners)


def point_segment_distance(p: Point, a: Point, b: Point) -> float:
    ax, ay = a
    dx, dy = b[0] - ax, b[1] - ay
    seg_len2 = dx * dx + dy * dy
    if seg_len2 <= EPS * EPS:
        return math.hypot(p[0] - ax, p[1] - ay)
    t = ((p[0] - ax) * dx + (p[1] - ay) * dy) / seg_len2
    t = max(0.0, min(1.0, t))
    return math.hypot(p[0] - (ax + t * dx), p[1] - (ay + t * dy))


def _orient(a: Point, b: Point, c: Point) -> int:
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    if v > EPS:
        return 1
    if v < -EPS:
        return -1
    return 0


def _on_segment(a: Point, b: Point, p: Point) -> bool:
    return (
        min(a[0], b[0]) - EPS <= p[0] <= max(a[0], b[0]) + EPS
        and min(a[1], b[1]) - EPS <= p[1] <= max(a[1], b[1]) + EPS
    )


def segments_intersect(p0: Point, p1: Point, q0: Point, q1: Point) -> bool:
    o1 = _orient(p0, p1, q0)
    o2 = _orient(p0, p1, q1)
    o3 = _orient(q0, q1, p0)
    o4 = _orient(q0, q1, p1)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and _on_segment(p0, p1, q0):
        return True
    if o2 == 0 and _on_segment(p0, p1, q1):
        return True
    if o3 == 0 and _on_segment(q0, q1, p0):
        return True
    if o4 == 0 and _on_segment(q0, q1, p1):
        return True
    return False


def segment_clearance(p0: Point, p1: Point, q0: Point, q1: Point) -> float:
    """Minimum Euclidean distance between two closed segments (0 iff they intersect).

    It is `segments_intersect` and then the least of the four
    `point_segment_distance` values, written out as one straight-line kernel
    with the same float operations in the same order, so every value is
    bit for bit theirs.  Only an orientation within EPS of 0 falls back to
    `segments_intersect`."""
    p0x, p0y = p0
    p1x, p1y = p1
    q0x, q0y = q0
    q1x, q1y = q1
    # the four _orient values: q0 and q1 against p0->p1, p0 and p1 against q0->q1
    dpx = p1x - p0x
    dpy = p1y - p0y
    dqx = q1x - q0x
    dqy = q1y - q0y
    q0px = q0x - p0x
    q0py = q0y - p0y
    q1px = q1x - p0x
    q1py = q1y - p0y
    p0qx = p0x - q0x
    p0qy = p0y - q0y
    p1qx = p1x - q0x
    p1qy = p1y - q0y
    o1 = dpx * q0py - dpy * q0px
    o2 = dpx * q1py - dpy * q1px
    o3 = dqx * p0qy - dqy * p0qx
    o4 = dqx * p1qy - dqy * p1qx
    if (
        (o1 > EPS or o1 < -EPS)
        and (o2 > EPS or o2 < -EPS)
        and (o3 > EPS or o3 < -EPS)
        and (o4 > EPS or o4 < -EPS)
    ):
        if (o1 > EPS) != (o2 > EPS) and (o3 > EPS) != (o4 > EPS):
            return 0.0
    elif segments_intersect(p0, p1, q0, q1):
        return 0.0
    # point_segment_distance of q0 and q1 to p0->p1, then of p0 and p1 to q0->q1
    len2 = dpx * dpx + dpy * dpy
    if len2 <= EPS * EPS:
        d1 = math.hypot(q0px, q0py)
        d2 = math.hypot(q1px, q1py)
    else:
        t = (q0px * dpx + q0py * dpy) / len2
        t = (t if t > 0.0 else 0.0) if t < 1.0 else 1.0
        d1 = math.hypot(q0x - (p0x + t * dpx), q0y - (p0y + t * dpy))
        t = (q1px * dpx + q1py * dpy) / len2
        t = (t if t > 0.0 else 0.0) if t < 1.0 else 1.0
        d2 = math.hypot(q1x - (p0x + t * dpx), q1y - (p0y + t * dpy))
    len2 = dqx * dqx + dqy * dqy
    if len2 <= EPS * EPS:
        d3 = math.hypot(p0qx, p0qy)
        d4 = math.hypot(p1qx, p1qy)
    else:
        t = (p0qx * dqx + p0qy * dqy) / len2
        t = (t if t > 0.0 else 0.0) if t < 1.0 else 1.0
        d3 = math.hypot(p0x - (q0x + t * dqx), p0y - (q0y + t * dqy))
        t = (p1qx * dqx + p1qy * dqy) / len2
        t = (t if t > 0.0 else 0.0) if t < 1.0 else 1.0
        d4 = math.hypot(p1x - (q0x + t * dqx), p1y - (q0y + t * dqy))
    return min(d1, d2, d3, d4)


def _separated_distance(a: OrientedBox, b: OrientedBox) -> float:
    """Distance between two disjoint rectangles.  Disjoint convex polygons
    attain their distance at a vertex of one of them, so the 8
    vertex-to-box distances give it exactly."""
    return min(
        [point_box_distance(p, b) for p in a._corners]
        + [point_box_distance(p, a) for p in b._corners]
    )


def box_clearance(a: OrientedBox, b: OrientedBox) -> float:
    """Exact distance between two closed rectangles (0 if they overlap)."""
    if overlaps(a, b):
        return 0.0
    return _separated_distance(a, b)


def boxes_closer_than(a: OrientedBox, b: OrientedBox, gap: float) -> bool:
    """True iff the rectangles overlap or their gap is below `gap`.  The gap
    of disjoint rectangles is the least of the 8 vertex-to-box distances of
    `_separated_distance`, and it is below `gap` iff one of them is.

    It is the bounding-circle prefilter, then `overlaps(a, b) or
    _corner_closer_than(a, b, gap)`, written out as one straight-line
    kernel: the separating-axis gaps and the vertex-to-box distances use the
    float operations of `overlaps` and `point_box_distance`, so every
    verdict is theirs.  A vertex inside the other box, where both of
    `point_box_distance`'s excesses are at most 0, is at distance 0.0
    without a `math.hypot` call."""
    ac, bc = a.center, b.center
    acx, acy, bcx, bcy = ac.x, ac.y, bc.x, bc.y
    dx = bcx - acx
    dy = bcy - acy
    d2 = dx * dx + dy * dy
    ra, rb = a.circumradius, b.circumradius
    reach = ra + rb + gap
    if d2 > reach * reach:
        return False
    aw, ah, bw, bh = a.half_width, a.half_height, b.half_width, b.half_height
    (aux, auy), (avx, avy) = a._axes
    (bux, buy), (bvx, bvy) = b._axes
    reach = ra + rb
    if not d2 > reach * reach + EPS:
        # overlaps: no separating gap above EPS on any of the four axes
        for x, y in a._axes + b._axes:
            c = dx * x + dy * y
            pa = x * aux + y * auy
            qa = x * avx + y * avy
            pb = x * bux + y * buy
            qb = x * bvx + y * bvy
            if (c if c >= 0.0 else -c) - (
                (aw * (pa if pa >= 0.0 else -pa) + ah * (qa if qa >= 0.0 else -qa))
                + (bw * (pb if pb >= 0.0 else -pb) + bh * (qb if qb >= 0.0 else -qb))
            ) > EPS:
                break
        else:
            return True
    # point_box_distance of a's vertices to b, then of b's vertices to a
    hypot = math.hypot
    for px, py in a._corners:
        qx = px - bcx
        qy = py - bcy
        lx = qx * bux + qy * buy
        ly = qx * bvx + qy * bvy
        ex = (lx if lx >= 0.0 else -lx) - bw
        ey = (ly if ly >= 0.0 else -ly) - bh
        if ex <= 0.0 and ey <= 0.0:
            if 0.0 < gap:
                return True
        elif hypot(0.0 if 0.0 > ex else ex, 0.0 if 0.0 > ey else ey) < gap:
            return True
    for px, py in b._corners:
        qx = px - acx
        qy = py - acy
        lx = qx * aux + qy * auy
        ly = qx * avx + qy * avy
        ex = (lx if lx >= 0.0 else -lx) - aw
        ey = (ly if ly >= 0.0 else -ly) - ah
        if ex <= 0.0 and ey <= 0.0:
            if 0.0 < gap:
                return True
        elif hypot(0.0 if 0.0 > ex else ex, 0.0 if 0.0 > ey else ey) < gap:
            return True
    return False


def near_miss(a: OrientedBox, b: OrientedBox, gap: float) -> bool:
    """True iff the rectangles are disjoint but closer than `gap`: the
    razor-thin near miss that generated tables must not contain.  It is
    `not overlaps(a, b) and boxes_closer_than(a, b, gap)`, with the same
    prefilter; for gap > 0 it is also `0 < box_clearance(a, b) < gap`."""
    dx = b.center.x - a.center.x
    dy = b.center.y - a.center.y
    reach = a.circumradius + b.circumradius + gap
    if dx * dx + dy * dy > reach * reach:
        return False
    return not overlaps(a, b) and _corner_closer_than(a, b, gap)


def _corner_closer_than(a: OrientedBox, b: OrientedBox, gap: float) -> bool:
    """True iff a vertex of either rectangle lies closer than `gap` to the
    other: for disjoint rectangles, iff their gap is below `gap`."""
    for p in a._corners:
        if point_box_distance(p, b) < gap:
            return True
    for p in b._corners:
        if point_box_distance(p, a) < gap:
            return True
    return False


def prefilter_reach2(radius: float, b: OrientedBox, gap: float) -> float:
    """Squared centre distance beyond which a box of circumradius `radius` is
    cleared against `b` by the bounding-circle prefilter of boxes_closer_than
    (gap > 0) or of overlaps (gap <= 0).  It is the same arithmetic, so a
    broad phase that skips such pairs keeps every verdict."""
    if gap > 0.0:
        reach = radius + b.circumradius + gap
        return reach * reach
    reach = radius + b.circumradius
    return reach * reach + EPS


# Margin taken off the sure-rejection distance of `blocked_within2`: far above
# the rounding in box corners and gaps (~1e-15), far below any shape size.
INNER_SLACK = 1e-7


def blocked_within2(inner: float, b: OrientedBox, gap: float) -> float:
    """Squared centre distance below which a box of inscribed radius `inner`
    (the smaller half extent) is rejected against `b` by boxes_closer_than
    (gap > 0) or by overlaps (gap <= 0): the inner counterpart of
    prefilter_reach2.

    A box contains the disc of its inscribed radius about its centre.  With
    the centres closer than inner + r_b + max(gap, 0) - INNER_SLACK (r_b
    being b's inscribed radius), the two discs, and hence the boxes, overlap
    by more than the slack or lie less than gap - INNER_SLACK apart.  The
    centres are then also within both bounding-circle prefilters.  Overlapping
    boxes have overlapping projections on every axis, so overlaps finds no
    separating gap above EPS; disjoint boxes get their exact distance, up to
    rounding far below the slack, from _separated_distance.  Either way both
    exact tests return True.  Returns 0.0 when the bound is not positive, so
    a strict comparison then rejects nothing."""
    reach = inner + min(b.half_width, b.half_height) + max(gap, 0.0) - INNER_SLACK
    return reach * reach if reach > 0.0 else 0.0


def blocked_within_box(inner: float, gap: float) -> float:
    """Point-to-box distance (point_box_distance from the centre) below
    which a box of inscribed radius `inner` (the smaller half extent) is
    rejected against any box b by boxes_closer_than (gap > 0) or by overlaps
    (gap <= 0): the rectangle counterpart of blocked_within2.

    A box contains the disc of its inscribed radius about its centre.  With
    the centre closer to b than inner + max(gap, 0) - INNER_SLACK, the disc,
    and hence the box, reaches into b by more than the slack or lies less
    than gap - INNER_SLACK from it.  The centre is within its distance to b
    plus b's circumradius of b's centre, so it is also within both
    bounding-circle prefilters.  Overlapping boxes have overlapping
    projections on every axis, so overlaps finds no separating gap above
    EPS; disjoint boxes get their exact distance, up to rounding far below
    the slack, from _separated_distance.  Either way both exact tests return
    True.  A bound that is not positive rejects nothing under a strict
    comparison, since distances are never negative."""
    return inner + max(gap, 0.0) - INNER_SLACK


def surely_blocked(x: float, y: float, near, sure: float) -> bool:
    """True iff a draw centred at (x, y) lies closer than `sure`
    (`blocked_within_box`) to an obstacle in `near`, a list of
    (x, y, reach², box) entries with reach² from `prefilter_reach2`, where
    the exact test is certain to reject it.  Obstacles beyond the prefilter
    reach are skipped: the bound cannot hold for them."""
    for ox, oy, reach2, ob in near:
        dx = ox - x
        dy = oy - y
        if dx * dx + dy * dy <= reach2 and point_box_distance((x, y), ob) < sure:
            return True
    return False


def blocked(box: OrientedBox, near, gap: float, closer=boxes_closer_than) -> bool:
    """True iff the exact test (boxes_closer_than for gap > 0, overlaps
    otherwise) rejects `box` against an obstacle in `near`, a list of
    (x, y, reach², box) entries with reach² from `prefilter_reach2`.
    Obstacles whose centres lie beyond the prefilter reach are skipped
    without calling it: the test's own prefilter would clear them.  A caller
    may pass another test with the same prefilter as `closer`, such as
    near_miss."""
    x, y = box.center.x, box.center.y
    for ox, oy, reach2, ob in near:
        dx = ox - x
        dy = oy - y
        if dx * dx + dy * dy > reach2:
            continue
        if closer(box, ob, gap) if gap > 0.0 else overlaps(box, ob):
            return True
    return False


# Minimum free gap kept between distinct footprints in generated arrangements
# and sampled buffer poses: finger pads extend 0.02 beyond a face, so any
# smaller gap would make an object between two neighbors ungraspable.
MIN_GAP = 0.022


def point_box_distance(p: Point, box: OrientedBox) -> float:
    """Distance from a point to a closed oriented rectangle (0 inside)."""
    (ux, uy), (vx, vy) = box._axes
    dx, dy = p[0] - box.center.x, p[1] - box.center.y
    lx = dx * ux + dy * uy
    ly = dx * vx + dy * vy
    ox = max(abs(lx) - box.half_width, 0.0)
    oy = max(abs(ly) - box.half_height, 0.0)
    return math.hypot(ox, oy)


def dist(a: Point, b: Point) -> float:
    return math.hypot(b[0] - a[0], b[1] - a[1])


class PathWalker:
    """Reads a piecewise-linear path of (t, x, y) knots at nondecreasing
    times.  The point at t lies on the first segment whose end time is at
    least t (the first knot before the path starts, the last one after it
    ends), and a segment shorter than 1e-12 in time gives its end.  Each
    read walks on from where the last one stopped: a segment passed over
    for some t is passed over for every later one, even where knot times
    run backwards, so every read gives the segment, and the arithmetic, of
    a walk of its own."""

    __slots__ = ("knots", "_seg", "_ahead")

    def __init__(self, knots):
        self.knots = knots
        self._seg = 1  # index of the end knot of the last point's segment
        self._ahead = 1  # index of the first knot after the last pace's time

    def point(self, t: float) -> Point:
        """The path's point at t."""
        knots = self.knots
        if t <= knots[0][0]:
            return knots[0][1:]
        seg = self._seg
        last = len(knots) - 1
        while seg <= last and t > knots[seg][0]:
            seg += 1
        self._seg = seg
        if seg > last:
            return knots[-1][1:]
        t0, x0, y0 = knots[seg - 1]
        t1, x1, y1 = knots[seg]
        if t1 - t0 <= 1e-12:
            return (x1, y1)
        a = (t - t0) / (t1 - t0)
        return (x0 + a * (x1 - x0), y0 + a * (y1 - y0))

    def pace(self, t: float) -> tuple[float, float]:
        """(speed, time) of the segment that ends at the path's first knot
        after t: its speed and that knot's time.  Past the last knot the
        path stands still for ever, (0.0, inf).  A segment shorter than
        1e-12 in time has speed 0, as `point` gives its end throughout."""
        knots = self.knots
        k = self._ahead
        while k < len(knots) and knots[k][0] <= t:
            k += 1
        self._ahead = k
        if k == len(knots):
            return 0.0, math.inf
        t0, x0, y0 = knots[k - 1]
        t1, x1, y1 = knots[k]
        if t1 - t0 <= 1e-12:
            return 0.0, t1
        return math.hypot(x1 - x0, y1 - y0) / (t1 - t0), t1


def max_speed(knots) -> float:
    """Largest knot-to-knot speed of a path of (t, x, y) knots; inf if its
    point jumps anywhere (a move in no time, or knot times that run
    backwards)."""
    fastest = 0.0
    for (t0, x0, y0), (t1, x1, y1) in zip(knots, knots[1:]):
        span = t1 - t0
        if span > 1e-12:
            fastest = max(fastest, math.hypot(x1 - x0, y1 - y0) / span)
        elif span < 0.0 or x0 != x1 or y0 != y1:
            return math.inf
    return fastest
