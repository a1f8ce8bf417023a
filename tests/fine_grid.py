"""An arm-arm clearance scan of a leg's knots on a grid finer than the
planner's, independent of `motion.validate_motion` and of the trace
verifier: numpy interpolation and a vectorized segment distance at every
sample, with no sample skipped."""

import math

import numpy as np

from sdar.motion import DT, VALIDATE_GUARD, VALIDATE_REFINE


def planner_steps(duration: float) -> int:
    """The intervals of the grid `validate_motion` checks a leg on."""
    if duration <= 1e-12:
        return 1
    return max(round(VALIDATE_REFINE / DT), math.ceil(duration / VALIDATE_GUARD))


def _point_segment(p, a, b):
    ab = b - a
    length2 = (ab * ab).sum(-1)
    u = np.clip(((p - a) * ab).sum(-1) / np.where(length2 > 0.0, length2, 1.0), 0.0, 1.0)
    return np.hypot(*np.moveaxis(a + u[..., None] * ab - p, -1, 0))


def _cross(o, a, b):
    (ax, ay), (bx, by) = np.moveaxis(a - o, -1, 0), np.moveaxis(b - o, -1, 0)
    return ax * by - ay * bx


def segment_clearances(b0, p0, b1, p1):
    """Distances of the segments b0-p0[k] and b1-p1[k]: 0 where they cross,
    else the least of the four endpoint-to-segment distances."""
    b0 = np.broadcast_to(np.asarray(b0, dtype=float), p0.shape)
    b1 = np.broadcast_to(np.asarray(b1, dtype=float), p1.shape)
    d = np.minimum.reduce([
        _point_segment(b1, b0, p0), _point_segment(p1, b0, p0),
        _point_segment(b0, b1, p1), _point_segment(p0, b1, p1),
    ])
    crossing = (_cross(b0, p0, b1) * _cross(b0, p0, p1) < 0.0) & (
        _cross(b1, p1, b0) * _cross(b1, p1, p0) < 0.0
    )
    return np.where(crossing, 0.0, d)


def least_clearance(knots, arms, duration: float, refine: int) -> tuple[float, float]:
    """(least clearance, its time) of a leg's (t, x, y) knots per arm, over
    `refine` times as many intervals as the planner's grid."""
    times = np.linspace(0.0, duration, refine * planner_steps(duration) + 1)
    points = []
    for arm_knots in knots:
        k = np.asarray(arm_knots, dtype=float)
        points.append(np.stack([np.interp(times, k[:, 0], k[:, 1]), np.interp(times, k[:, 0], k[:, 2])], -1))
    c = segment_clearances(arms[0].base, points[0], arms[1].base, points[1])
    i = int(np.argmin(c))
    return float(c[i]), float(times[i])
