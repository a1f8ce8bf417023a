"""Instance model, category generators (R/S/D/M), and the .inst file format.

Every generator is a builder retried with a derived sub-seed until it
returns a table (`_retried`).  The R builder proves its table by
construction; the S, D and M builders end with `_audit` (feasibility, the
induced dependency-graph structure, the gap).  So every returned instance
provably matches its category label.
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import itemgetter

from .depgraph import (
    Arrangement,
    Shapes,
    arrangement_violations,
    build_dependency_graph,
    decompose,
    footprints,
)
from .geom import (
    MIN_GAP,
    OrientedBox,
    Pose2,
    Workspace,
    blocked_within2,
    blocked_within_box,
    box_at,
    boxes_closer_than,
    in_reach,
    inside,
    near_miss,
    reach_entry,
)

INSTANCE_FORMAT = "sdar-instance/1"

# Shared generator constants (workspace units).
RAND_HALF_RANGE = (0.03, 0.06)
OVERLAP_SHIFT = 0.05


class GenerationExhausted(Exception):
    pass


class ParseError(Exception):
    pass


class FeasibilityError(Exception):
    pass


def _checked_label(label: str) -> str:
    """`label`, ValueError unless `dumps` writes it as one field that `loads`
    reads back and `instance_hash` encodes: not empty, with no character that
    `str.split` or `str.splitlines` breaks at, and encodable as UTF-8."""
    if not label or any(c.isspace() for c in label):
        raise ValueError(f"label {label!r} is empty or holds whitespace")
    label.encode()  # a lone surrogate raises UnicodeEncodeError, a ValueError
    return label


@dataclass(frozen=True)
class Instance:
    """A table to rearrange: its workspace, object shapes, start and goal
    arrangements, label and generator seed.

    An instance is never edited in place, its fields' dicts included: build
    a new one with `dataclasses.replace`.  Its `digest` is computed once, at
    first use, and kept; a replaced copy computes its own."""

    workspace: Workspace
    shapes: Shapes
    start: Arrangement
    goal: Arrangement
    label: str
    seed: int

    def __post_init__(self):
        _checked_label(self.label)

    @property
    def n(self) -> int:
        return len(self.shapes)

    @property
    def category(self) -> str:
        return self.label[0]

    def ids(self) -> list[int]:
        return sorted(self.shapes)

    def graph(self):
        """The dependency graph of the instance, which `loads` and the
        generators have already checked to be feasible."""
        return build_dependency_graph(
            footprints(self.start, self.shapes), footprints(self.goal, self.shapes)
        )

    @cached_property
    def digest(self) -> str:
        """The first 12 hex digits of the sha256 of the instance's file text
        (`dumps`), which a trace's header names.  It is kept in the
        instance's `__dict__`, outside its fields, so `==` and `repr` do not
        see it and a pickled copy carries it."""
        return hashlib.sha256(dumps(self).encode()).hexdigest()[:12]


def instance_hash(inst: Instance) -> str:
    """`inst.digest`: the planned run, its replay and the verifier of one
    instance share one computation."""
    return inst.digest


def _validate(inst: Instance, start_boxes, goal_boxes) -> list[str]:
    """Feasibility complaints about an instance, given its start and goal
    footprint maps."""
    issues = arrangement_violations(start_boxes, inst.workspace)
    return issues + ["goal: " + v for v in arrangement_violations(goal_boxes, inst.workspace)]


def _place_all(
    rng, ws, shapes, attempts_budget, cross_boxes=()
) -> tuple[Arrangement, dict[int, OrientedBox]]:
    """Rejection-sample poses keeping MIN_GAP between same-arrangement
    footprints; against `cross_boxes` a pose must either overlap cleanly
    (an intended dependency) or keep MIN_GAP (no razor-thin near misses).
    Returns the arrangement and its footprint map, the boxes the draws
    accepted, keyed in id order as `depgraph.footprints` keys them.

    Every attempt takes three `rng.random()` values in [0, 1] (x, y, theta)
    whatever its fate, scaled with the arithmetic of `random.Random.uniform`,
    `a + (b - a) * u`: x in [margin, width - margin] (margin the shape's
    circumradius), y likewise and theta in [-pi, pi], the values of three
    `rng.uniform(a, b)` calls; theta is scaled only for a draw that the sure
    tests below do not reject.  All objects share one budget of attempts.
    Before an object's draws, the boxes placed so far are listed once as
    inner discs (`blocked_within2`) and as `reach_entry`s, and `cross_boxes`
    as reach entries.  A draw centred within an inner disc is surely rejected, and
    `in_reach`, the buffer sampler's pass, surely rejects it or gives the
    placed boxes in reach before its box is built; the exact tests then skip
    every box beyond reach, where their own prefilters would clear the draw.
    So each draw gets the verdict of a full scan against every box, and the
    arrangement, the rng's state and a GenerationExhausted message are those
    of one."""
    placed: dict[int, Pose2] = {}
    accepted: dict[int, OrientedBox] = {}
    unit = rng.random
    pi = math.pi
    turn = pi - -pi
    attempts = 0
    for obj in sorted(shapes):
        hw, hh = shapes[obj]
        margin = math.hypot(hw, hh)
        inner = min(hw, hh)
        # uniform(margin, width - margin)'s b - a, and likewise for y
        x_span = ws.width - margin - margin
        y_span = ws.height - margin - margin
        discs = []  # (x, y, inner²) of the placed boxes
        for b in accepted.values():
            inner2 = blocked_within2(inner, b, MIN_GAP)
            if inner2 > 0.0:
                discs.append((b.center.x, b.center.y, inner2))
        entries = [reach_entry(margin, b, MIN_GAP) for b in accepted.values()]
        cross = [reach_entry(margin, b, MIN_GAP) for b in cross_boxes]
        sure = blocked_within_box(inner, MIN_GAP)
        while True:
            attempts += 1
            if attempts > attempts_budget:
                raise GenerationExhausted(
                    f"failed to place object {obj} after {attempts_budget} attempts"
                )
            x = margin + x_span * unit()
            y = margin + y_span * unit()
            t = unit()
            for ox, oy, inner2 in discs:
                dx = ox - x
                dy = oy - y
                if dx * dx + dy * dy < inner2:
                    break  # centred within an inner disc: surely rejected
            else:
                near = in_reach(x, y, entries, sure)
                if near is not None:
                    pose = Pose2(x, y, -pi + turn * t)
                    box = box_at(pose, hw, hh)
                    if inside(ws, box) and _clear_of(box, near, cross):
                        break
        placed[obj] = pose
        accepted[obj] = box
    return Arrangement(placed), accepted


def _clear_of(box: OrientedBox, near, cross) -> bool:
    """True iff `box` keeps MIN_GAP from every box of `near`, and is no
    `near_miss` of a box of the reach entries `cross` with its centre in reach."""
    for ob in near:
        if boxes_closer_than(box, ob, MIN_GAP):
            return False
    x, y = box.center.x, box.center.y
    for ox, oy, reach2, _, _, _, _, ob in cross:
        dx = ox - x
        dy = oy - y
        if dx * dx + dy * dy <= reach2 and near_miss(box, ob, MIN_GAP):
            return False
    return True


def _gap_audit(inst: Instance, sb, gb) -> list[str]:
    """Reachable arrangements must never put two distinct live footprints
    closer than MIN_GAP without a full overlap (gripper finger room).  `sb`
    and `gb` are the start and goal footprint maps."""
    issues = []
    for group, boxes in (("start", sb), ("goal", gb)):
        ids = sorted(boxes)
        for k, i in enumerate(ids):
            for j in ids[k + 1 :]:
                if near_miss(boxes[i], boxes[j], MIN_GAP):
                    issues.append(f"{group}: near-flush pair ({i}, {j})")
    for i in inst.ids():
        for j in inst.ids():
            if i != j and near_miss(gb[i], sb[j], MIN_GAP):
                issues.append(f"goal {i} nearly flush with start {j}")
    return issues


def gen_random(n: int, seed: int, workspace: Workspace | None = None) -> Instance:
    """Random start/goal configurations, both feasible by rejection sampling.
    No `_audit` runs: each draw `_place_all` keeps already passes its tests."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ws = workspace or Workspace()

    def build(s, attempt):
        rng = random.Random(("R", n, s, attempt).__repr__())
        shapes = {
            i: (rng.uniform(*RAND_HALF_RANGE), rng.uniform(*RAND_HALF_RANGE))
            for i in range(n)
        }
        start, start_boxes = _place_all(rng, ws, shapes, 10_000)
        goal, _ = _place_all(rng, ws, shapes, 10_000, cross_boxes=start_boxes.values())
        return Instance(ws, shapes, start, goal, f"R{n}", seed)

    return _retried(build, seed)


def _ellipse_slots(cx, cy, a, b, n, phase=0.0) -> list[tuple[float, float]]:
    """n points equally spaced by arc length on an ellipse."""
    samples = 2048
    pts = [
        (cx + a * math.cos(t), cy + b * math.sin(t))
        for t in (phase + 2.0 * math.pi * k / samples for k in range(samples + 1))
    ]
    arc = list(accumulate(map(math.dist, pts, pts[1:]), initial=0.0))
    return [pts[bisect_left(arc, arc[-1] * k / n)] for k in range(n)]


def _pulled_back(cur, nxt) -> tuple[float, float]:
    """The goal point of an object at `cur` bound for `nxt`: OVERLAP_SHIFT
    short of `nxt`, so that its footprint overlaps the one there."""
    f = OVERLAP_SHIFT / math.dist(cur, nxt)
    return nxt[0] + (cur[0] - nxt[0]) * f, nxt[1] + (cur[1] - nxt[1]) * f


def _ring_half_range(slots) -> tuple[float, float]:
    """Half-extent range small enough that a ring construction on these slots
    keeps MIN_GAP between every non-overlapping footprint pair."""
    n = len(slots)
    goals = [_pulled_back(slots[k], slots[(k + 1) % n]) for k in range(n)]
    dmin = math.inf
    for i in range(n):
        for j in range(n):
            if i < j:
                dmin = min(dmin, math.dist(goals[i], goals[j]))
                dmin = min(dmin, math.dist(slots[i], slots[j]))
            if j != i and j != (i + 1) % n:
                dmin = min(dmin, math.dist(goals[i], slots[j]))
    h_max = min(0.045, (dmin - MIN_GAP - 0.014) / (2.0 * math.sqrt(2.0)))
    h_min = max(0.027, min(0.03, 0.85 * h_max))
    if h_max <= h_min:
        raise GenerationExhausted(f"ring slots too dense for graspable objects ({dmin=:.3f})")
    return h_min, h_max


# Tries of every generator's builder, each with its own attempt number.
GENERATION_TRIES = 50


def _retried(builder, seed) -> Instance:
    """The first instance `builder(seed, attempt)` returns, retried on
    GenerationExhausted up to GENERATION_TRIES times."""
    last = "no attempt"
    for attempt in range(GENERATION_TRIES):
        try:
            return builder(seed, attempt)
        except GenerationExhausted as exc:
            last = str(exc)
    raise GenerationExhausted(f"gave up after {GENERATION_TRIES} tries: {last}")


def _audit(inst: Instance, expected) -> Instance:
    """`inst` if it passes validation, then has the `_structure` `expected`,
    then passes the gap audit; else GenerationExhausted with the problems
    found."""
    boxes = footprints(inst.start, inst.shapes), footprints(inst.goal, inst.shapes)
    problems = _validate(inst, *boxes)
    if not problems:
        got = _structure(decompose(build_dependency_graph(*boxes)))
        if got != expected:
            problems = [f"expected structure {expected}, got {got}"]
    if not problems:
        problems = _gap_audit(inst, *boxes)
    if problems:
        raise GenerationExhausted("; ".join(problems))
    return inst


def _structure(d) -> tuple:
    """The shape of a decomposition: its sorted cycle lengths, its sorted
    chain lengths, and its counts of isolated objects, complex SCCs and
    others."""
    return (
        sorted(map(len, d.cycles)),
        sorted(map(len, d.chains)),
        len(d.isolated),
        len(d.complex_sccs),
        len(d.others),
    )


def _rings(rng, rings) -> tuple[Shapes, Arrangement, Arrangement]:
    """Objects on rings of ellipse slots, numbered ring by ring.  Each ring
    is (cx, cy, a, b, count, phase bound): its slots start at a phase drawn
    below the bound, its shapes are drawn inside its `_ring_half_range`, its
    starts sit on its slots with a small jitter, and each goal sits on the
    ring's next start, pulled back so that the two footprints overlap.  Every
    ring's phase is drawn first, then each ring's shapes, then each ring's
    starts and goals."""
    slots = [
        _ellipse_slots(cx, cy, a, b, count, rng.uniform(0, bound))
        for cx, cy, a, b, count, bound in rings
    ]
    shapes: Shapes = {}
    for ring in slots:
        lo, hi = _ring_half_range(ring)
        for _ in ring:
            shapes[len(shapes)] = (rng.uniform(lo, hi), rng.uniform(lo, hi))
    start: dict[int, Pose2] = {}
    goal: dict[int, Pose2] = {}
    for ring in slots:
        ids = range(len(start), len(start) + len(ring))
        for obj, (sx, sy) in zip(ids, ring):
            jx, jy = rng.uniform(-0.004, 0.004), rng.uniform(-0.004, 0.004)
            start[obj] = Pose2(sx + jx, sy + jy, rng.uniform(-0.3, 0.3))
        for k, obj in enumerate(ids):
            nxt = start[ids[(k + 1) % len(ids)]]
            goal[obj] = Pose2(*_pulled_back(start[obj].xy, nxt.xy), rng.uniform(-0.3, 0.3))
    return shapes, Arrangement(start), Arrangement(goal)


def gen_single_cycle(n: int, seed: int) -> Instance:
    """Configurations inducing exactly one simple n-cycle."""
    if n < 2:
        raise ValueError("single cycle needs n >= 2")

    def build(s, attempt):
        rng = random.Random(("S", n, s, attempt).__repr__())
        rings = _rings(rng, [(0.5, 0.3, 0.36, 0.22, n, 2 * math.pi)])
        return _audit(Instance(Workspace(), *rings, f"S{n}", seed), ([n], [], 0, 0, 0))

    return _retried(build, seed)


def gen_double_cycle(n: int, seed: int) -> Instance:
    """Configurations inducing exactly two vertex-disjoint simple cycles."""
    if n < 4:
        raise ValueError("double cycle needs n >= 4")
    n1 = (n + 1) // 2
    n2 = n - n1

    def build(s, attempt):
        rng = random.Random(("D", n, s, attempt).__repr__())
        rings = _rings(rng, [(0.26, 0.3, 0.16, 0.16, n1, 6.28), (0.74, 0.3, 0.16, 0.16, n2, 6.28)])
        return _audit(Instance(Workspace(), *rings, f"D{n}", seed), (sorted((n1, n2)), [], 0, 0, 0))

    return _retried(build, seed)


def gen_mixed(seed: int) -> Instance:
    """12 objects: 3 isolated, one 4-chain, one 2-cycle, one 3-cycle."""

    def build(s, attempt):
        rng = random.Random(("M", s, attempt).__repr__())
        ids = list(range(12))
        rng.shuffle(ids)
        chain_ids, ring_ids, swap_ids, iso_ids = (
            ids[0:4],
            ids[4:7],
            ids[7:9],
            ids[9:12],
        )
        shapes: Shapes = {}
        for i in chain_ids:
            shapes[i] = (rng.uniform(0.028, 0.038), rng.uniform(0.028, 0.038))
        for i in ring_ids:
            shapes[i] = (rng.uniform(0.028, 0.036), rng.uniform(0.028, 0.036))
        for i in swap_ids:
            shapes[i] = (rng.uniform(0.027, 0.032), rng.uniform(0.027, 0.032))
        for i in iso_ids:
            shapes[i] = (rng.uniform(0.027, 0.033), rng.uniform(0.027, 0.033))

        def jit(x, y, r=0.006):
            return (x + rng.uniform(-r, r), y + rng.uniform(-r, r))

        start: dict[int, Pose2] = {}
        goal: dict[int, Pose2] = {}

        def th():
            return rng.uniform(-0.25, 0.25)

        # Chain c0 -> c1 -> c2 -> c3 along a row of five slots.
        slots = [jit(0.07 + 0.16 * k, 0.09) for k in range(5)]
        for k, obj in enumerate(chain_ids):
            start[obj] = Pose2(*slots[k], th())
        for k, obj in enumerate(chain_ids[:-1]):
            goal[obj] = Pose2(*_pulled_back(start[obj].xy, start[chain_ids[k + 1]].xy), th())
        goal[chain_ids[-1]] = Pose2(*slots[4], th())

        # 3-cycle on a small ring.
        ring_slots = [
            jit(0.24 + 0.13 * math.cos(a), 0.41 + 0.13 * math.sin(a), 0.004)
            for a in (math.pi / 2, math.pi / 2 + 2 * math.pi / 3, math.pi / 2 + 4 * math.pi / 3)
        ]
        for k, obj in enumerate(ring_ids):
            start[obj] = Pose2(*ring_slots[k], th())
        for k, obj in enumerate(ring_ids):
            goal[obj] = Pose2(*_pulled_back(start[obj].xy, start[ring_ids[(k + 1) % 3]].xy), th())

        # 2-cycle: a side-by-side swap.
        p, q = swap_ids
        sp, sq = jit(0.50, 0.46), jit(0.72, 0.46)
        start[p], start[q] = Pose2(*sp, th()), Pose2(*sq, th())
        goal[p] = Pose2(*_pulled_back(sp, sq), th())
        goal[q] = Pose2(*_pulled_back(sq, sp), th())

        # Isolated objects: short hops in a reserved column, touching nothing.
        iso_start = [(0.945, 0.07), (0.945, 0.25), (0.945, 0.43)]
        iso_goal = [(0.86, 0.16), (0.86, 0.345), (0.86, 0.53)]
        for k, obj in enumerate(iso_ids):
            start[obj] = Pose2(*jit(*iso_start[k], 0.005), th())
            goal[obj] = Pose2(*jit(*iso_goal[k], 0.005), th())

        inst = Instance(
            Workspace(), shapes, Arrangement(start), Arrangement(goal), f"M{seed}", seed
        )
        return _audit(inst, ([2, 3], [4], 3, 0, 0))

    return _retried(build, seed)


def showcase9() -> Instance:
    """Hand-placed 9-object fixture: a 4-cycle 0-1-2-3, a chain 6->5->4, a
    branch vertex 8 hanging off the cycle (edge 2->8), and isolated object 7."""
    h = (0.03, 0.03)
    shapes = {i: h for i in range(9)}
    start = {
        0: Pose2(0.18, 0.18),
        1: Pose2(0.38, 0.18),
        2: Pose2(0.38, 0.34),
        3: Pose2(0.18, 0.34),
        4: Pose2(0.60, 0.12),
        5: Pose2(0.74, 0.12),
        6: Pose2(0.88, 0.12),
        7: Pose2(0.88, 0.48),
        8: Pose2(0.27, 0.38),
    }
    goal = {
        0: Pose2(0.34, 0.18),
        1: Pose2(0.38, 0.30),
        2: Pose2(0.22, 0.34),
        3: Pose2(0.18, 0.22),
        4: Pose2(0.52, 0.24),
        5: Pose2(0.64, 0.12),
        6: Pose2(0.78, 0.12),
        7: Pose2(0.74, 0.48),
        8: Pose2(0.55, 0.45),
    }
    return Instance(Workspace(), shapes, Arrangement(start), Arrangement(goal), "X9", 0)


def identity_instance(n: int = 3, seed: int = 0) -> Instance:
    """Start equals goal: nothing to do."""
    inst = gen_random(n, seed)
    return Instance(
        inst.workspace, inst.shapes, inst.start, inst.start.copy(), f"I{n}", seed
    )


def default_suite() -> list[Instance]:
    """The benchmark suite: 200 instances across R/S/D/M."""
    suite = []
    for n in (4, 6, 8, 10, 12):
        for seed in range(12):
            suite.append(gen_random(n, seed * 131 + n))
    for n in range(2, 11):
        for seed in range(5):
            suite.append(gen_single_cycle(n, seed))
    for n in range(4, 13):
        for seed in range(5):
            suite.append(gen_double_cycle(n, seed))
    for seed in range(50):
        suite.append(gen_mixed(seed))
    return suite


class Layout:
    """One line kind of a text format, stated once for its writer and its
    reader: its fields, each a keyword or `_` where a value goes.
    `format(*values)` fills the slots in order, writing each value with `str`
    (a float's `repr`), and `read(parts)` returns the slot values of a split
    line, ValueError unless the line has exactly the layout's fields and
    keywords.  `kind` names the line in errors: its first keyword unless
    given."""

    __slots__ = ("kind", "format", "_size", "_keys", "_values")

    def __init__(self, text: str, kind: str = ""):
        fields = text.split()
        self.kind = kind or fields[0]
        self._size = len(fields)
        self._keys = [(k, f) for k, f in enumerate(fields) if f != "_"]
        slots = [k for k, f in enumerate(fields) if f == "_"]
        if len(slots) > 1:
            self._values = itemgetter(*slots)
        else:  # a lone slot is read as a one-item slice: `read` returns a sequence
            self._values = itemgetter(slice(slots[0], slots[0] + 1))
        # `format` is the layout's f-string, compiled once: it fills a line
        # faster than `%` or `str.format` do, and a keyword, a plain word,
        # goes into it as it is
        line = " ".join(f"{{v{k}!s}}" if f == "_" else f for k, f in enumerate(fields))
        self.format = eval(f"lambda {', '.join(f'v{k}' for k in slots)}: f{line!r}")

    def read(self, parts: list[str]):
        if len(parts) != self._size:
            raise ValueError(f"{self.kind} line has {len(parts)} fields, not {self._size}")
        for k, key in self._keys:
            if parts[k] != key:
                raise ValueError(f"{self.kind} line has {parts[k]!r} where {key!r} belongs")
        return self._values(parts)


# an instance file: INSTANCE_FORMAT, the header lines once each and in this
# order, then one row per object in id order
HEADER = (Layout("label _"), Layout("seed _"), Layout("workspace _ _"), Layout("objects _"))
# id, half width and height, start x y theta, goal x y theta
ROW = Layout("_ _ _ _ _ _ _ _ _", "object")


def dumps(inst: Instance) -> str:
    label, seed, workspace, objects = HEADER
    row = ROW.format
    lines = [
        INSTANCE_FORMAT,
        label.format(inst.label),
        seed.format(inst.seed),
        workspace.format(inst.workspace.width, inst.workspace.height),
        objects.format(inst.n),
    ]
    start, goal = inst.start.poses, inst.goal.poses
    for i in inst.ids():
        hw, hh = inst.shapes[i]
        s = start[i]
        g = goal[i]
        lines.append(row(i, hw, hh, s.x, s.y, s.theta, g.x, g.y, g.theta))
    return "\n".join(lines) + "\n"


def save(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(inst))


def _workspace(width: str, height: str) -> Workspace:
    return Workspace(float(width), float(height))


def loads(text: str, source: str = "<string>") -> Instance:
    """Parse an instance file: its format line, the `HEADER` lines in order,
    then exactly `objects` rows, blank lines aside.  ParseError names the
    first line that is not laid out or valued as `dumps` writes it, and
    FeasibilityError an infeasible table."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != INSTANCE_FORMAT:
        raise ParseError(f"{source}:1: expected header {INSTANCE_FORMAT!r}")
    filled = [(k, parts) for k, raw in enumerate(lines[1:], start=2) if (parts := raw.split())]
    if len(filled) < len(HEADER):
        raise ParseError(f"{source}:{len(lines)}: missing {HEADER[len(filled)].kind!r} line")
    header, converts = [], (_checked_label, int, _workspace, int)
    try:
        for (k, parts), layout, convert in zip(filled, HEADER, converts):
            header.append(convert(*layout.read(parts)))
    except ValueError as exc:
        raise ParseError(f"{source}:{k}: bad header value: {exc}") from exc
    label, seed, ws, n = header
    rows = filled[len(HEADER) :]
    shapes: Shapes = {}
    start: dict[int, Pose2] = {}
    goal: dict[int, Pose2] = {}
    try:
        for k, parts in rows:
            fields = ROW.read(parts)
            obj = int(fields[0])
            hw, hh, sx, sy, st, gx, gy, gt = vals = [*map(float, fields[1:])]
            if not all(map(math.isfinite, vals)):
                raise ValueError("non-finite number")
            if not (hw > 0.0 and hh > 0.0):
                raise ValueError(f"half extents must be positive, got {hw!r} {hh!r}")
            if obj in shapes:
                raise ValueError(f"duplicate object id {obj}")
            shapes[obj] = (hw, hh)
            start[obj] = Pose2(sx, sy, st)
            goal[obj] = Pose2(gx, gy, gt)
    except ValueError as exc:
        raise ParseError(f"{source}:{k}: {exc}") from exc
    if len(rows) != n:
        raise ParseError(f"{source}: object table has {len(rows)} rows, header says {n}")
    inst = Instance(ws, shapes, Arrangement(start), Arrangement(goal), label, seed)
    problems = _validate(inst, footprints(inst.start, shapes), footprints(inst.goal, shapes))
    if problems:
        raise FeasibilityError(f"{source}: " + "; ".join(problems))
    return inst


def load(path) -> Instance:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    return loads(text, source=str(path))
