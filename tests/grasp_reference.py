"""The grasp check by a whole-table scan, for the tests to hold
`sdar.motion.grasp_feasible` against: every pad of the angle is built by a
plain formula of its own, and each is tested against every obstacle."""

import math

from sdar.geom import EPS, Pose2, box_at, dist, overlaps
from sdar.motion import PAD_HALF_THICKNESS, GraspAngle

INSET = 1e-6  # the pads' inset along the face, as the planner insets them


def reference_pads(box, angle, ee_radius):
    """The angle's pad boxes about `box`, or None when a pad would have a
    non-positive half extent: two finger pads beside the faces a top-down
    grasp closes on, one corridor of half side `ee_radius` beside the face a
    side grasp approaches."""
    (ux, uy), (vx, vy) = box._axes
    w, h = box.half_width, box.half_height
    # (long axis, short axis, long half, short half)
    if w >= h:
        long_ax, short_ax, long_h, short_h = (ux, uy), (vx, vy), w, h
    else:
        long_ax, short_ax, long_h, short_h = (vx, vy), (ux, uy), h, w
    if angle == GraspAngle.TOP_DOWN_LONG:
        axis, along, offs = short_ax, long_ax, [short_h + PAD_HALF_THICKNESS] * 2
        offs[1] = -offs[1]
        half_along, half_across = min(long_h, ee_radius) - INSET, PAD_HALF_THICKNESS
    elif angle == GraspAngle.TOP_DOWN_SHORT:
        axis, along, offs = long_ax, short_ax, [long_h + PAD_HALF_THICKNESS] * 2
        offs[1] = -offs[1]
        half_along, half_across = min(short_h, ee_radius) - INSET, PAD_HALF_THICKNESS
    else:
        plane0 = angle in (GraspAngle.SIDE_PLANE0_POS, GraspAngle.SIDE_PLANE0_NEG)
        positive = angle in (GraspAngle.SIDE_PLANE0_POS, GraspAngle.SIDE_PLANE1_POS)
        axis, along = (short_ax, long_ax) if plane0 else (long_ax, short_ax)
        off = (short_h if plane0 else long_h) + ee_radius
        offs = [off if positive else -off]
        half_along = half_across = ee_radius
    if not (half_along > 0.0 and half_across > 0.0):
        return None
    theta = math.atan2(along[1], along[0])
    cx, cy = box.center.x, box.center.y
    return [
        box_at(Pose2(cx + axis[0] * o, cy + axis[1] * o, theta), half_along, half_across)
        for o in offs
    ]


def pad_reach(box, angle, ee_radius) -> float:
    """The farthest point of any pad's bounding circle from the box centre."""
    pads = reference_pads(box, angle, ee_radius)
    return max(dist(pad.center.xy, box.center.xy) + pad.circumradius for pad in pads)


def grasp_feasible_reference(obj_box, angle, obstacles, arm) -> bool:
    """Reach, then every pad against every obstacle."""
    if dist(arm.base, obj_box.center.xy) > arm.reach:
        return False
    pads = reference_pads(obj_box, angle, arm.ee_radius)
    if pads is None:
        return False
    return not any(overlaps(pad, ob) for pad in pads for ob in obstacles)


def circles_meet(a, b) -> bool:
    """Whether `overlaps`' bounding-circle prefilter lets the pair through."""
    dx = b.center.x - a.center.x
    dy = b.center.y - a.center.y
    reach = a.circumradius + b.circumradius
    return dx * dx + dy * dy <= reach * reach + EPS
