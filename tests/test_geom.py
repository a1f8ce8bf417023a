import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdar.geom import (
    EPS,
    MIN_GAP,
    OrientedBox,
    PathWalker,
    Pose2,
    Workspace,
    blocked_within2,
    blocked_within_box,
    box_at,
    boxes_closer_than,
    in_reach,
    inside,
    max_speed,
    near_miss,
    overlaps,
    prefilter_reach2,
    reach_entry,
    segment_clearance,
    segments_intersect,
)

from geom_reference import (
    box_clearance,
    corner_closer_than,
    point_box_distance,
    point_segment_distance,
)
from path_reference import reference_point


# ---------------------------------------------------------------- oracles

def corners_np(box: OrientedBox) -> np.ndarray:
    return np.array(box.corners())


def point_in_box_oracle(pts: np.ndarray, box: OrientedBox) -> np.ndarray:
    """Membership via inverse rotation, independent of the SAT code path."""
    c, s = math.cos(box.center.theta), math.sin(box.center.theta)
    dx = pts[:, 0] - box.center.x
    dy = pts[:, 1] - box.center.y
    lx = dx * c + dy * s
    ly = -dx * s + dy * c
    return (np.abs(lx) <= box.half_width + 1e-12) & (np.abs(ly) <= box.half_height + 1e-12)


def overlap_by_point_sampling(a: OrientedBox, b: OrientedBox, res: float = 1e-3) -> bool:
    """Dense grid over b (in its own frame) tested for membership in a."""
    us = np.arange(-b.half_width, b.half_width + res / 2, res)
    vs = np.arange(-b.half_height, b.half_height + res / 2, res)
    uu, vv = np.meshgrid(us, vs)
    c, s = math.cos(b.center.theta), math.sin(b.center.theta)
    xs = b.center.x + uu * c - vv * s
    ys = b.center.y + uu * s + vv * c
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    return bool(point_in_box_oracle(pts, a).any())


def overlap_exact_oracle(a: OrientedBox, b: OrientedBox) -> bool:
    """Corner containment or edge crossing: exact convex-polygon intersection."""
    ca, cb = a.corners(), b.corners()
    pa = np.array(ca)
    pb = np.array(cb)
    if point_in_box_oracle(pb, a).any() or point_in_box_oracle(pa, b).any():
        return True
    for i in range(4):
        for j in range(4):
            if segments_intersect(ca[i], ca[(i + 1) % 4], cb[j], cb[(j + 1) % 4]):
                return True
    return False


def clearance_by_sampling(p0, p1, q0, q1, k=100) -> float:
    ts = np.linspace(0.0, 1.0, k)
    pa = np.array(p0) + np.outer(ts, np.subtract(p1, p0))
    qa = np.array(q0) + np.outer(ts, np.subtract(q1, q0))
    d = pa[:, None, :] - qa[None, :, :]
    return float(np.sqrt((d ** 2).sum(axis=2)).min())


def random_box(rng: random.Random, span=1.0) -> OrientedBox:
    return box_at(
        Pose2(rng.uniform(-span, span), rng.uniform(-span, span), rng.uniform(-math.pi, math.pi)),
        rng.uniform(0.02, 0.4),
        rng.uniform(0.02, 0.4),
    )


# ---------------------------------------------------------------- overlaps

def test_identical_boxes_overlap():
    a = box_at(Pose2(0.3, 0.2, 0.7), 0.5, 0.5)
    assert overlaps(a, a)


def test_far_separated_boxes():
    a = box_at(Pose2(0.0, 0.0), 0.5, 0.5)
    b = box_at(Pose2(10.0, 0.0), 0.5, 0.5)
    assert not overlaps(a, b)


def test_rotated_box_poking_into_square():
    # Unit square at origin vs unit square rotated 45 deg centered at (1.2, 0):
    # the rotated corner reaches x = 1.2 - sqrt(2)/2 < 0.5, so they overlap.
    a = box_at(Pose2(0.0, 0.0), 0.5, 0.5)
    b = box_at(Pose2(1.2, 0.0, math.pi / 4), 0.5, 0.5)
    expected = overlap_by_point_sampling(a, b, res=1e-3)
    assert expected is True
    assert overlaps(a, b) == expected


def test_touching_edges_count_as_overlap():
    a = box_at(Pose2(0.0, 0.0), 0.5, 0.5)
    b = box_at(Pose2(1.0, 0.0), 0.5, 0.5)
    assert overlaps(a, b)


def test_overlaps_agrees_with_exact_oracle_on_random_pairs():
    rng = random.Random(20240)
    for _ in range(1000):
        a, b = random_box(rng), random_box(rng)
        assert overlaps(a, b) == overlap_exact_oracle(a, b), (a, b)


def test_overlaps_agrees_with_point_sampling_oracle():
    rng = random.Random(77)
    checked = 0
    while checked < 40:
        a, b = random_box(rng, span=0.5), random_box(rng, span=0.5)
        # The sampling oracle cannot resolve sub-resolution gaps; skip razor-thin cases.
        gap = abs(math.dist(a.center.xy, b.center.xy) - (a.circumradius + b.circumradius))
        if gap < 5e-3:
            continue
        assert overlaps(a, b) == overlap_by_point_sampling(a, b, res=1e-3)
        checked += 1


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_overlap_symmetry_and_rigid_invariance(data):
    def pose(label):
        return Pose2(
            data.draw(st.floats(-1, 1), label=label + "x"),
            data.draw(st.floats(-1, 1), label=label + "y"),
            data.draw(st.floats(-math.pi, math.pi), label=label + "t"),
        )

    a = OrientedBox(pose("a"), data.draw(st.floats(0.05, 0.5)), data.draw(st.floats(0.05, 0.5)))
    b = OrientedBox(pose("b"), data.draw(st.floats(0.05, 0.5)), data.draw(st.floats(0.05, 0.5)))
    assert overlaps(a, b) == overlaps(b, a)

    dx = data.draw(st.floats(-2, 2))
    dy = data.draw(st.floats(-2, 2))
    phi = data.draw(st.floats(-math.pi, math.pi))
    c, s = math.cos(phi), math.sin(phi)

    def moved(box):
        x, y = box.center.x, box.center.y
        return OrientedBox(
            Pose2(x * c - y * s + dx, x * s + y * c + dy, box.center.theta + phi),
            box.half_width,
            box.half_height,
        )

    # Skip boundary-degenerate pairs where a rigid motion's rounding can flip the verdict.
    gap_proxy = abs(
        math.dist(a.center.xy, b.center.xy) - (a.circumradius + b.circumradius)
    )
    if gap_proxy > 1e-6:
        assert overlaps(moved(a), moved(b)) == overlaps(a, b)


# ---------------------------------------------------------------- clearance

def test_crossing_segments_clearance_zero():
    assert segment_clearance((0, 0), (1, 1), (0, 1), (1, 0)) == 0.0


def test_parallel_segments_clearance():
    assert segment_clearance((0, 0), (1, 0), (0, 1), (1, 1)) == pytest.approx(1.0)


def test_clearance_matches_sampling_oracle():
    got = segment_clearance((0, 0), (1, 0), (2, 1), (3, 1))
    oracle = clearance_by_sampling((0, 0), (1, 0), (2, 1), (3, 1), k=100)
    assert abs(got - oracle) < 1e-3
    assert got == pytest.approx(math.sqrt(2.0))


def test_degenerate_segments_are_points():
    assert segment_clearance((0, 0), (0, 0), (3, 4), (3, 4)) == pytest.approx(5.0)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-5, 5, allow_nan=False, allow_infinity=False), min_size=8, max_size=8)
)
def test_clearance_symmetry_and_intersection_consistency(vals):
    p0, p1, q0, q1 = (vals[0], vals[1]), (vals[2], vals[3]), (vals[4], vals[5]), (vals[6], vals[7])
    d1 = segment_clearance(p0, p1, q0, q1)
    d2 = segment_clearance(q0, q1, p0, p1)
    assert d1 == pytest.approx(d2, abs=1e-12)
    if segments_intersect(p0, p1, q0, q1):
        assert d1 == 0.0
    else:
        assert d1 >= 0.0


def clearance_reference(p0, p1, q0, q1) -> float:
    """segment_clearance as its parts: 0 where the segments intersect, else
    the least of the four endpoint-to-segment distances."""
    if segments_intersect(p0, p1, q0, q1):
        return 0.0
    return min(
        point_segment_distance(q0, p0, p1),
        point_segment_distance(q1, p0, p1),
        point_segment_distance(p0, q0, q1),
        point_segment_distance(p1, q0, q1),
    )


_coords = st.one_of(
    st.floats(-5, 5, allow_nan=False, allow_infinity=False),
    # a coarse lattice, where collinear and touching segments are common
    st.integers(-8, 8).map(lambda k: k / 4),
    # within EPS of the lattice, where orientations round to 0 or not
    st.tuples(st.integers(-8, 8), st.sampled_from([-2e-9, -1e-9, -5e-10, 5e-10, 1e-9, 2e-9])).map(
        lambda t: t[0] / 4 + t[1]
    ),
)
_points = st.tuples(_coords, _coords)


@st.composite
def _segment_pairs(draw):
    p0, p1, q0, q1 = draw(_points), draw(_points), draw(_points), draw(_points)
    kind = draw(st.sampled_from(
        ["free", "zero p", "zero q", "both zero", "shared", "collinear", "touching"]
    ))
    if kind in ("zero p", "both zero"):
        p1 = p0
    if kind in ("zero q", "both zero"):
        q1 = q0 if kind == "zero q" else p0
    if kind == "shared":
        q0 = draw(st.sampled_from([p0, p1]))
    if kind in ("collinear", "touching"):
        s = draw(st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0]))
        q0 = (p0[0] + s * (p1[0] - p0[0]), p0[1] + s * (p1[1] - p0[1]))
        if kind == "collinear":
            s = draw(st.sampled_from([-0.5, 0.5, 0.75, 1.0, 3.0]))
            q1 = (p0[0] + s * (p1[0] - p0[0]), p0[1] + s * (p1[1] - p0[1]))
    return p0, p1, q0, q1


@settings(max_examples=600, deadline=None)
@given(_segment_pairs())
def test_segment_clearance_is_its_reference_bit_for_bit(segments):
    p0, p1, q0, q1 = segments
    for a, b in (((p0, p1), (q0, q1)), ((q0, q1), (p0, p1)), ((p1, p0), (q1, q0))):
        assert segment_clearance(*a, *b).hex() == clearance_reference(*a, *b).hex(), (a, b)


def test_segment_clearance_degenerate_cases_match_the_reference():
    cases = [
        ((0, 0), (0, 0), (0, 0), (0, 0)),  # two equal points
        ((0, 0), (0, 0), (1, 1), (1, 1)),  # two points apart
        ((0.5, 0), (0.5, 0), (0, 0), (1, 0)),  # a point on a segment
        ((0, 0), (1, 0), (1, 0), (2, 0)),  # collinear, touching end to end
        ((0, 0), (1, 0), (2, 0), (3, 0)),  # collinear, apart
        ((0, 0), (2, 0), (1, 0), (3, 0)),  # collinear, overlapping
        ((0, 0), (1, 1), (1, 1), (2, 0)),  # a shared endpoint
        ((0, 0), (2, 0), (1, 0), (1, 1)),  # a T, touching
        ((0, 0), (2, 0), (1, 1e-10), (1, 1)),  # a T, within EPS of touching
    ]
    for p0, p1, q0, q1 in cases:
        assert segment_clearance(p0, p1, q0, q1).hex() == clearance_reference(p0, p1, q0, q1).hex()


# ---------------------------------------------------------------- paths

def reference_pace(knots, t):
    """(speed, time) of the segment ending at the first knot after t, by a
    scan of its own; (0.0, inf) past the last knot."""
    for (t0, x0, y0), (t1, x1, y1) in zip(knots, knots[1:]):
        if t1 > t:
            if t1 - t0 <= 1e-12:
                return 0.0, t1
            return math.hypot(x1 - x0, y1 - y0) / (t1 - t0), t1
    return 0.0, math.inf


@st.composite
def _walks(draw):
    """(knots, times, reads): a knot list whose steps in time may be 0, 4e-13,
    backwards or forwards; times before its start, on and 2e-13 past every
    knot, between knots and past its end; and a nondecreasing subsequence of
    them for one walker to read."""
    coord = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    step = st.one_of(
        st.just(0.0), st.just(4e-13), st.floats(-0.5, -1e-3), st.floats(1e-3, 0.5)
    )
    t = draw(st.sampled_from([0.0, -0.25, 0.5]))
    knots = []
    for _ in range(draw(st.integers(1, 8))):
        knots.append((t, draw(coord), draw(coord)))
        t += draw(step)
    knot_times = [k[0] for k in knots]
    lo, hi = min(knot_times), max(knot_times)
    times = (
        [knots[0][0] - 0.1, knots[-1][0] + 1e-13, hi + 0.5]
        + knot_times
        + [t + 2e-13 for t in knot_times]
        + draw(st.lists(st.floats(lo, hi), max_size=10))
    )
    times.sort()
    keep = draw(st.lists(st.booleans(), min_size=len(times), max_size=len(times)))
    return knots, times, [t for t, k in zip(times, keep) if k]


@settings(max_examples=300, deadline=None)
@given(_walks())
def test_path_walker_is_its_reference_bit_for_bit(walk):
    knots, times, reads = walk
    for t in times:
        fresh = PathWalker(knots)
        assert _bits(fresh.point(t)) == _bits(reference_point(knots, t)), (knots, t)
        assert _bits(fresh.pace(t)) == _bits(reference_pace(knots, t)), (knots, t)
    # one walker read at nondecreasing times gives what fresh walks give
    walker = PathWalker(knots)
    for t in reads:
        assert _bits(walker.point(t)) == _bits(PathWalker(knots).point(t)), (knots, reads, t)
        assert _bits(walker.pace(t)) == _bits(PathWalker(knots).pace(t)), (knots, reads, t)


def test_max_speed_is_inf_only_where_the_point_jumps():
    assert max_speed([(0.0, 0.1, 0.1)]) == 0.0
    assert max_speed([(0.0, 0.1, 0.1), (0.5, 0.4, 0.5), (0.5, 0.4, 0.5)]) == 1.0
    # a move within 1e-12 in time, or knot times that run backwards
    assert max_speed([(0.0, 0.1, 0.1), (4e-13, 0.2, 0.1)]) == math.inf
    assert max_speed([(0.0, 0.1, 0.1), (0.5, 0.1, 0.1), (0.4, 0.1, 0.1)]) == math.inf


# ------------------------------------------------------- box frame and gaps

def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def test_box_frame_matches_direct_formulas_bit_for_bit():
    rng = random.Random(31)
    thetas = [0.0, math.pi / 2, -math.pi, math.pi / 4, -0.0] + [
        rng.uniform(-math.pi, math.pi) for _ in range(300)
    ]
    for theta in thetas:
        box = random_box(rng)
        box = box_at(Pose2(box.center.x, box.center.y, theta), box.half_width, box.half_height)
        c, s = math.cos(box.center.theta), math.sin(box.center.theta)
        (ux, uy), (vx, vy) = (c, s), (-s, c)
        cx, cy, w, h = box.center.x, box.center.y, box.half_width, box.half_height
        corners = [
            (cx + w * ux + h * vx, cy + w * uy + h * vy),
            (cx - w * ux + h * vx, cy - w * uy + h * vy),
            (cx - w * ux - h * vx, cy - w * uy - h * vy),
            (cx + w * ux - h * vx, cy + w * uy - h * vy),
        ]
        assert _bits(sum(box.axes(), ())) == _bits((ux, uy, vx, vy))
        assert _bits(sum(box.corners(), ())) == _bits(sum(corners, ()))
        assert _bits([box.circumradius]) == _bits([math.hypot(w, h)])


def test_corners_returns_a_fresh_list():
    box = box_at(Pose2(0.4, 0.2, 0.3), 0.05, 0.02)
    before = box.corners()
    got = box.corners()
    got[0] = (9.0, 9.0)
    got.append((1.0, 1.0))
    assert box.corners() == before
    assert box.corners() is not box.corners()


def test_cached_frame_is_not_part_of_eq_hash_or_repr():
    a = box_at(Pose2(0.4, 0.2, 0.3), 0.05, 0.02)
    b = box_at(Pose2(0.4, 0.2, 0.3), 0.05, 0.02)
    assert [f.name for f in dataclasses.fields(a)] == ["center", "half_width", "half_height"]
    assert a == b and hash(a) == hash(b)
    assert repr(a) == f"OrientedBox(center={a.center!r}, half_width=0.05, half_height=0.02)"
    assert dataclasses.replace(a, half_width=0.07).corners() != a.corners()


def clearance_by_edge_pairs(a: OrientedBox, b: OrientedBox) -> float:
    """Box distance as the least of the 16 edge-to-edge segment clearances."""
    if overlaps(a, b):
        return 0.0
    ca, cb = a.corners(), b.corners()
    return min(
        segment_clearance(ca[i], ca[(i + 1) % 4], cb[j], cb[(j + 1) % 4])
        for i in range(4)
        for j in range(4)
    )


def test_box_clearance_matches_edge_pair_reference():
    rng = random.Random(404)
    for _ in range(1000):
        a, b = random_box(rng), random_box(rng)
        assert box_clearance(a, b) == pytest.approx(clearance_by_edge_pairs(a, b), abs=1e-12)


def test_boxes_closer_than_matches_clearance_on_random_pairs():
    rng = random.Random(405)
    for _ in range(1000):
        a, b = random_box(rng, span=0.6), random_box(rng, span=0.6)
        for gap in (MIN_GAP, 0.1, 0.3):
            got = boxes_closer_than(a, b, gap)
            assert got == (overlaps(a, b) or box_clearance(a, b) < gap), (a, b, gap)
            assert got == (overlaps(a, b) or clearance_by_edge_pairs(a, b) < gap), (a, b, gap)


def test_pairs_beyond_prefilter_reach_are_clear():
    rng = random.Random(407)
    beyond = 0
    for _ in range(2000):
        a, b = random_box(rng, span=0.6), random_box(rng, span=0.6)
        dx, dy = b.center.x - a.center.x, b.center.y - a.center.y
        for gap in (0.0, MIN_GAP, 0.1):
            if dx * dx + dy * dy > prefilter_reach2(a.circumradius, b, gap):
                beyond += 1
                assert not boxes_closer_than(a, b, gap) if gap > 0.0 else not overlaps(a, b)
                assert box_clearance(a, b) >= gap
    assert beyond > 1000


def _short_axis_angle(direction: float, hw: float, hh: float) -> float:
    """Box angle that puts the smaller half extent's axis along `direction`."""
    return direction if hw <= hh else direction - math.pi / 2


def test_pairs_within_blocked_bound_are_rejected():
    # elongated shapes at random angles and distances under the bound; a
    # third of the pairs turn both short axes onto the centre line, where
    # the box gap equals the inscribed discs' gap, a few ulps inside it
    rng = random.Random(408)

    def elongated():
        short, long = rng.uniform(0.005, 0.03), rng.uniform(0.03, 0.12)
        return (short, long) if rng.random() < 0.5 else (long, short)

    counts = [0, 0, 0]
    for _ in range(9000):
        hw, hh = elongated()
        b = box_at(Pose2(0.5, 0.3, rng.uniform(-math.pi, math.pi)), *elongated())
        gap = rng.choice((0.0, MIN_GAP, 0.1))
        bound2 = blocked_within2(min(hw, hh), b, gap)
        mode = rng.randrange(3)
        if mode == 2:
            direction = _short_axis_angle(b.center.theta, b.half_width, b.half_height)
            direction += rng.choice((0.0, math.pi))
            theta = _short_axis_angle(direction, hw, hh) + rng.choice((0.0, math.pi))
        else:
            direction, theta = rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)
        scale = rng.random() if mode == 0 else 1.0 - rng.uniform(0.0, 2e-15)
        s = math.sqrt(bound2) * scale
        x = b.center.x + s * math.cos(direction)
        y = b.center.y + s * math.sin(direction)
        dx, dy = b.center.x - x, b.center.y - y
        if dx * dx + dy * dy >= bound2:
            continue
        counts[mode] += 1
        a = box_at(Pose2(x, y, theta), hw, hh)
        assert boxes_closer_than(a, b, gap) if gap > 0.0 else overlaps(a, b), (a, b, gap)
    assert min(counts) > 2000, counts


def test_blocked_bound_is_inscribed_radii_plus_gap_less_slack():
    b = box_at(Pose2(0.4, 0.3, 0.7), 0.09, 0.02)
    for gap, reach in ((0.0, 0.05), (-0.01, 0.05), (MIN_GAP, 0.072)):
        assert blocked_within2(0.03, b, gap) == pytest.approx((reach - 1e-7) ** 2, rel=1e-12)
    # a bound that is not positive rejects nothing
    assert blocked_within2(0.0, box_at(Pose2(0.4, 0.3), 1e-8, 1e-8), 0.0) == 0.0


def _nearest_on_box(p, box: OrientedBox):
    (ux, uy), (vx, vy) = box.axes()
    dx, dy = p[0] - box.center.x, p[1] - box.center.y
    lx = max(-box.half_width, min(box.half_width, dx * ux + dy * uy))
    ly = max(-box.half_height, min(box.half_height, dx * vx + dy * vy))
    return (box.center.x + lx * ux + ly * vx, box.center.y + lx * uy + ly * vy)


def _shifted_to_gap(a: OrientedBox, b: OrientedBox, target: float) -> OrientedBox:
    """b translated along the a-to-b witness direction so the boxes' distance
    becomes `target` (a separating direction keeps its witness points)."""
    pairs = [(p, _nearest_on_box(p, b)) for p in a.corners()]
    pairs += [(_nearest_on_box(p, a), p) for p in b.corners()]
    p, q = min(pairs, key=lambda pq: math.dist(*pq))
    d = math.dist(p, q)
    nx, ny = (q[0] - p[0]) / d, (q[1] - p[1]) / d
    shift = target - d
    return box_at(
        Pose2(b.center.x + shift * nx, b.center.y + shift * ny, b.center.theta),
        b.half_width,
        b.half_height,
    )


def test_boxes_closer_than_on_near_touching_pairs():
    rng = random.Random(406)
    checked = 0
    while checked < 300:
        a, b = random_box(rng, span=0.6), random_box(rng, span=0.6)
        if overlaps(a, b):
            continue
        for target in (MIN_GAP - 1e-6, MIN_GAP + 1e-6):
            moved = _shifted_to_gap(a, b, target)
            assert box_clearance(a, moved) == pytest.approx(target, abs=1e-12)
            assert clearance_by_edge_pairs(a, moved) == pytest.approx(target, abs=1e-12)
            assert boxes_closer_than(a, moved, MIN_GAP) == (target < MIN_GAP)
            assert boxes_closer_than(moved, a, MIN_GAP) == (target < MIN_GAP)
        checked += 1


def test_boxes_closer_than_is_strict_at_the_gap():
    # axis-aligned boxes with dyadic sizes and positions have an exact
    # clearance: a gap equal to it is not below it, a larger one is
    for gap in (2.0**-6, 2.0**-5):
        a = box_at(Pose2(0.5, 0.25), 0.0625, 0.03125)
        for dx, dy in ((1, 0), (0, 1), (-1, 0)):
            reach = (0.0625 * 2 if dx else 0.03125 * 2) + gap
            b = box_at(Pose2(0.5 + dx * reach, 0.25 + dy * reach), 0.0625, 0.03125)
            assert box_clearance(a, b) == gap
            for first, second in ((a, b), (b, a)):
                assert not boxes_closer_than(first, second, gap)
                assert boxes_closer_than(first, second, gap + 2.0**-20)


def test_boxes_closer_than_scans_the_vertices_of_both_boxes():
    # b turned 45 degrees points one corner at the middle of a's long face,
    # 0.01 away; a's corners are all farther than the gap from b, so only
    # the pass over b's vertices finds the pair too close, in either order
    a = box_at(Pose2(0.5, 0.3), 0.1, 0.02)
    b = box_at(Pose2(0.5, 0.3 + 0.02 + 0.01 + 0.03 * math.sqrt(2.0), math.pi / 4), 0.03, 0.03)
    assert not overlaps(a, b)
    assert min(point_box_distance(p, b) for p in a.corners()) > MIN_GAP
    assert min(point_box_distance(p, a) for p in b.corners()) == pytest.approx(0.01)
    assert boxes_closer_than(a, b, MIN_GAP)
    assert boxes_closer_than(b, a, MIN_GAP)


def boxes_closer_than_reference(a, b, gap):
    """boxes_closer_than as two calls: the bounding-circle prefilter, then
    overlaps and the reference's vertex-to-box scan, whose arithmetic is
    written apart from geom's vertex pass."""
    dx = b.center.x - a.center.x
    dy = b.center.y - a.center.y
    reach = a.circumradius + b.circumradius + gap
    if dx * dx + dy * dy > reach * reach:
        return False
    return overlaps(a, b) or corner_closer_than(a, b, gap)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_boxes_closer_than_matches_the_two_call_form(data):
    # random pairs; pairs flush along one of a's edge lines or corner to
    # corner along its diagonal, at or a hair from touching or the gap; pairs
    # turned 45 degrees to each other; and degenerate boxes, a hair thin or
    # far longer than wide
    half = st.floats(0.005, 0.2) | st.sampled_from([1e-12, 1e-9, 2.0**-30, 0.7])
    turn = st.floats(-math.pi, math.pi) | st.sampled_from([0.0, math.pi / 4, math.pi / 2])

    def box(label):
        x = data.draw(st.floats(-0.6, 0.6), label=label + "x")
        y = data.draw(st.floats(-0.6, 0.6), label=label + "y")
        theta = data.draw(turn, label=label + "t")
        return box_at(Pose2(x, y, theta), data.draw(half), data.draw(half))

    gaps = st.sampled_from([0.0, MIN_GAP, 2.0**-6, -0.01]) | st.floats(1e-4, 0.2)
    gap = data.draw(gaps, label="gap")
    a = box("a")
    kind = data.draw(st.sampled_from(["random", "flush", "corner", "turned"]), label="kind")
    if kind == "random":
        b = box("b")
    else:
        bw, bh = data.draw(half, label="bw"), data.draw(half, label="bh")
        hairs = [0.0, 1e-12, -1e-12, EPS, -EPS, 2 * EPS]
        offsets = hairs + [gap, gap * (1 + 1e-12), gap * (1 - 1e-12)]
        off = data.draw(st.sampled_from(offsets), label="off")
        (ux, uy), (vx, vy) = a.axes()
        theta = a.center.theta + (math.pi / 4 if kind == "turned" else 0.0)
        along = 0.0
        if kind == "corner":
            d = a.circumradius + math.hypot(bw, bh) + off
            ux, uy = (ux + vx) / math.sqrt(2.0), (uy + vy) / math.sqrt(2.0)
            theta += data.draw(st.sampled_from([0.0, math.pi / 4]), label="corner turn")
        else:
            d = a.half_width + bw + off
            along = data.draw(st.floats(-0.3, 0.3) | st.just(0.0), label="along")
        x = a.center.x + d * ux + along * vx
        y = a.center.y + d * uy + along * vy
        b = box_at(Pose2(x, y, theta), bw, bh)
    assert boxes_closer_than(a, b, gap) == boxes_closer_than_reference(a, b, gap)
    assert boxes_closer_than(b, a, gap) == boxes_closer_than_reference(b, a, gap)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_near_miss_is_a_positive_clearance_below_the_gap(data):
    # random pairs, pairs flush along a shared edge line, and pairs moved to
    # a chosen distance: zero (touching), within EPS, or about the gap
    def box(label, span=0.6):
        return box_at(
            Pose2(
                data.draw(st.floats(-span, span), label=label + "x"),
                data.draw(st.floats(-span, span), label=label + "y"),
                data.draw(st.floats(-math.pi, math.pi), label=label + "t"),
            ),
            data.draw(st.floats(0.005, 0.2), label=label + "w"),
            data.draw(st.floats(0.005, 0.2), label=label + "h"),
        )

    gap = data.draw(st.sampled_from([MIN_GAP, 2.0**-6]) | st.floats(1e-4, 0.1), label="gap")
    a = box("a")
    kind = data.draw(st.sampled_from(["random", "flush", "distance"]), label="kind")
    if kind == "random":
        b = box("b")
    elif kind == "flush":
        # b turned like a, on the far side of one of a's edge lines
        (ux, uy), (vx, vy) = a.axes()
        bw = data.draw(st.floats(0.005, 0.2), label="bw")
        bh = data.draw(st.floats(0.005, 0.2), label="bh")
        along = data.draw(st.floats(-0.4, 0.4), label="along")
        off = data.draw(st.sampled_from([0.0, 1e-12, 1e-9, 3e-9]), label="off")
        d = a.half_width + bw + off
        b = box_at(
            Pose2(a.center.x + d * ux + along * vx, a.center.y + d * uy + along * vy, a.center.theta),
            bw,
            bh,
        )
    else:
        b = box("b")
        if overlaps(a, b):
            return
        target = data.draw(
            st.sampled_from([0.0, 1e-10, 2e-9, gap * (1 - 1e-9), gap, gap * (1 + 1e-9)]),
            label="target",
        )
        b = _shifted_to_gap(a, b, target)
    want = 0.0 < box_clearance(a, b) < gap
    assert near_miss(a, b, gap) == want
    assert near_miss(b, a, gap) == (0.0 < box_clearance(b, a) < gap)


def in_reach_reference(x, y, entries, sure):
    """in_reach as its parts: each entry's reach² skip, then
    point_box_distance against the sure-rejection distance."""
    near = []
    for ox, oy, reach2, *_, ob in entries:
        dx, dy = ox - x, oy - y
        if dx * dx + dy * dy > reach2:
            continue
        if point_box_distance((x, y), ob) < sure:
            return None
        near.append(ob)
    return near


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_in_reach_is_its_reference(data):
    # random boxes, some a hair thin; sure distances above and at or below
    # zero; draws at random, inside a box's rectangle (on its edges too),
    # on a box's reach circle, or on the rim of its sure-rejection distance,
    # each a few ulps either way
    half = st.floats(0.005, 0.2) | st.sampled_from([1e-9, 0.05])
    radius = data.draw(st.floats(0.005, 0.15), label="radius")
    gap = data.draw(st.sampled_from([0.0, MIN_GAP, -0.01]), label="gap")
    boxes = [
        box_at(
            Pose2(
                data.draw(st.floats(0.0, 1.0), label="bx"),
                data.draw(st.floats(0.0, 0.6), label="by"),
                data.draw(st.floats(-math.pi, math.pi), label="bt"),
            ),
            data.draw(half, label="bw"),
            data.draw(half, label="bh"),
        )
        for _ in range(data.draw(st.integers(0, 8), label="n"))
    ]
    entries = [reach_entry(radius, b, gap) for b in boxes]
    for entry, b in zip(entries, boxes):
        assert entry[:2] == b.center.xy and entry[2] == prefilter_reach2(radius, b, gap)
        assert entry[3:5] == b.axes()[0] and entry[5:] == (b.half_width, b.half_height, b)
    sures = st.sampled_from([0.0, -0.0, -0.01, blocked_within_box(radius / 2, gap)])
    sure = data.draw(sures | st.floats(-0.05, 0.1), label="sure")
    kind = data.draw(st.sampled_from(["random", "rectangle", "circle", "rim"]), label="kind")
    if kind == "random" or not boxes:
        x = data.draw(st.floats(-0.2, 1.2), label="x")
        y = data.draw(st.floats(-0.2, 0.8), label="y")
    else:
        ox, oy, reach2, ux, uy, bw, bh, _ = data.draw(st.sampled_from(entries), label="entry")
        vx, vy = -uy, ux
        if kind == "rectangle":
            lx = data.draw(st.floats(-bw, bw) | st.sampled_from([bw, -bw]), label="lx")
            ly = data.draw(st.floats(-bh, bh) | st.sampled_from([bh, -bh]), label="ly")
        elif kind == "circle":
            phi = data.draw(st.floats(-math.pi, math.pi), label="phi")
            lx, ly = math.sqrt(reach2) * math.cos(phi), math.sqrt(reach2) * math.sin(phi)
        else:
            along = data.draw(st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)]), label="along")
            lx, ly = along[0] * (bw + sure), along[1] * (bh + sure)
        x, y = ox + lx * ux + ly * vx, oy + lx * uy + ly * vy
        steps = data.draw(st.integers(-3, 3), label="ulps")
        for _ in range(abs(steps)):
            x = math.nextafter(x, math.copysign(math.inf, steps))
    got = in_reach(x, y, entries, sure)
    want = in_reach_reference(x, y, entries, sure)
    assert (got is None) == (want is None)
    if got is not None:
        assert [id(b) for b in got] == [id(b) for b in want]


# ---------------------------------------------------------------- workspace

def test_small_box_at_center_inside():
    ws = Workspace()
    assert inside(ws, box_at(Pose2(0.5, 0.3), 0.05, 0.05))


def test_box_outside_workspace():
    ws = Workspace()
    assert not inside(ws, box_at(Pose2(1.2, 0.3), 0.05, 0.05))


def test_corner_exactly_on_boundary_is_inside():
    ws = Workspace()
    assert inside(ws, box_at(Pose2(0.05, 0.05), 0.05, 0.05))


def test_point_box_distance():
    b = box_at(Pose2(0.0, 0.0), 1.0, 0.5)
    assert point_box_distance((0.2, 0.1), b) == 0.0
    assert point_box_distance((2.0, 0.0), b) == pytest.approx(1.0)
    assert point_box_distance((0.0, 2.0), b) == pytest.approx(1.5)


def test_pose_normalization():
    assert Pose2(0, 0, math.pi).theta == pytest.approx(-math.pi)
    assert Pose2(0, 0, 3 * math.pi).theta == pytest.approx(-math.pi)
    assert abs(Pose2(0, 0, 2 * math.pi).theta) < 1e-12


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        box_at(Pose2(0, 0), 0.0, 0.1)
    with pytest.raises(ValueError):
        Pose2(float("nan"), 0, 0)
    with pytest.raises(ValueError):
        Workspace(-1.0, 0.5)
