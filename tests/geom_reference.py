"""Exact distances and a grid's cell lookup, by plain formulas of their own,
for the tests to hold `sdar.geom`'s kernels and `sdar.motion.BufferGrid`
against: the distance from a point to a segment or to a rectangle, the
distance between two rectangles, and the cell a point of a buffer grid's
draw domain is in."""

import math

from sdar.geom import EPS, overlaps


def point_box_distance(p, box) -> float:
    """Distance from a point to a closed oriented rectangle (0 inside)."""
    (ux, uy), (vx, vy) = box._axes
    dx, dy = p[0] - box.center.x, p[1] - box.center.y
    lx = dx * ux + dy * uy
    ly = dx * vx + dy * vy
    ox = max(abs(lx) - box.half_width, 0.0)
    oy = max(abs(ly) - box.half_height, 0.0)
    return math.hypot(ox, oy)


def corner_closer_than(a, b, gap) -> bool:
    """True iff a vertex of either rectangle lies closer than `gap` to the
    other: for disjoint rectangles, iff their gap is below `gap`.
    `sdar.geom.boxes_closer_than` is `overlaps(a, b) or` this, after its
    bounding-circle prefilter."""
    for p in a._corners:
        if point_box_distance(p, b) < gap:
            return True
    for p in b._corners:
        if point_box_distance(p, a) < gap:
            return True
    return False


def point_segment_distance(p, a, b) -> float:
    ax, ay = a
    dx, dy = b[0] - ax, b[1] - ay
    seg_len2 = dx * dx + dy * dy
    if seg_len2 <= EPS * EPS:
        return math.hypot(p[0] - ax, p[1] - ay)
    t = ((p[0] - ax) * dx + (p[1] - ay) * dy) / seg_len2
    t = max(0.0, min(1.0, t))
    return math.hypot(p[0] - (ax + t * dx), p[1] - (ay + t * dy))


def separated_distance(a, b) -> float:
    """Distance between two disjoint rectangles.  Disjoint convex polygons
    attain their distance at a vertex of one of them, so the 8
    vertex-to-box distances give it exactly."""
    return min(
        [point_box_distance(p, b) for p in a.corners()]
        + [point_box_distance(p, a) for p in b.corners()]
    )


def box_clearance(a, b) -> float:
    """Exact distance between two closed rectangles (0 if they overlap)."""
    if overlaps(a, b):
        return 0.0
    return separated_distance(a, b)


def grid_cell(grid, x: float, y: float) -> int:
    """The index in `grid.inner` and `grid.reach` of the cell of a point of
    the draw domain of a `BufferGrid`."""
    return grid._col(x) * grid.rows + grid._row(y)
