"""Exact distances and a grid's cell lookup, by plain formulas of their own,
for the tests to hold `sdar.geom`'s kernels and `sdar.motion.BufferGrid`
against: the distance from a point to a segment, the distance between two
rectangles, and the cell a point of a buffer grid's draw domain is in."""

import math

from sdar.geom import EPS, overlaps, point_box_distance


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
