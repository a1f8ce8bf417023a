"""Instance model, category generators (R/S/D/M), and the .inst file format.

Generators rejection-sample and then audit the induced dependency-graph
structure, retrying with a derived sub-seed until the audit passes, so every
returned instance provably matches its category label.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from itertools import accumulate

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
    blocked,
    blocked_within2,
    blocked_within_box,
    box_at,
    inside,
    near_miss,
    prefilter_reach2,
    surely_blocked,
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


@dataclass
class Instance:
    workspace: Workspace
    shapes: Shapes
    start: Arrangement
    goal: Arrangement
    label: str
    seed: int

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


def instance_hash(inst: Instance) -> str:
    return hashlib.sha256(dumps(inst).encode()).hexdigest()[:12]


def _validate(inst: Instance, start_boxes, goal_boxes) -> list[str]:
    """Feasibility complaints about an instance, given its start and goal
    footprint maps."""
    issues = arrangement_violations(start_boxes, inst.workspace)
    issues += ["goal: " + v for v in arrangement_violations(goal_boxes, inst.workspace)]
    if set(inst.start.poses) != set(inst.goal.poses) or set(inst.start.poses) != set(
        inst.shapes
    ):
        issues.append("id sets differ between shapes/start/goal")
    return issues


def _place_all(
    rng, ws, shapes, attempts_budget, cross_boxes=()
) -> tuple[Arrangement, dict[int, OrientedBox]]:
    """Rejection-sample poses keeping MIN_GAP between same-arrangement
    footprints; against `cross_boxes` a pose must either overlap cleanly
    (an intended dependency) or keep MIN_GAP (no razor-thin near misses).
    Returns the arrangement and its footprint map, the boxes the draws
    accepted, keyed in id order as `depgraph.footprints` keys them.

    Every attempt draws x, y and theta (three `rng.uniform` calls) whatever
    its fate, and all objects share one budget of attempts.  Before an
    object's draws, the boxes placed so far are listed once as inner discs
    (`blocked_within2`) and as reach entries (`prefilter_reach2`), and
    `cross_boxes` as reach entries.  A draw centred within an inner disc, or
    nearer to a placed box than `blocked_within_box`, is surely rejected
    before its box is built; the exact tests then skip every box beyond
    reach, where their own prefilters would clear the draw.  So each draw
    gets the verdict of a full scan against every box, and the arrangement,
    the rng's state and a GenerationExhausted message are those of one."""
    placed: dict[int, Pose2] = {}
    accepted: dict[int, OrientedBox] = {}
    uniform = rng.uniform
    attempts = 0
    for obj in sorted(shapes):
        hw, hh = shapes[obj]
        margin = math.hypot(hw, hh)
        inner = min(hw, hh)
        x_hi = ws.width - margin
        y_hi = ws.height - margin
        discs = []  # (x, y, inner²) of the placed boxes
        for b in accepted.values():
            inner2 = blocked_within2(inner, b, MIN_GAP)
            if inner2 > 0.0:
                discs.append((b.center.x, b.center.y, inner2))
        near = [_reach_entry(margin, b) for b in accepted.values()]
        cross = [_reach_entry(margin, b) for b in cross_boxes]
        sure = blocked_within_box(inner, MIN_GAP)
        while True:
            attempts += 1
            if attempts > attempts_budget:
                raise GenerationExhausted(
                    f"failed to place object {obj} after {attempts_budget} attempts"
                )
            x = uniform(margin, x_hi)
            y = uniform(margin, y_hi)
            theta = uniform(-math.pi, math.pi)
            for ox, oy, inner2 in discs:
                dx = ox - x
                dy = oy - y
                if dx * dx + dy * dy < inner2:
                    break  # centred within an inner disc: surely rejected
            else:
                if surely_blocked(x, y, near, sure):
                    continue
                pose = Pose2(x, y, theta)
                box = box_at(pose, hw, hh)
                if (
                    inside(ws, box)
                    and not blocked(box, near, MIN_GAP)
                    and not blocked(box, cross, MIN_GAP, near_miss)
                ):
                    break
        placed[obj] = pose
        accepted[obj] = box
    return Arrangement(placed), accepted


def _reach_entry(margin: float, b: OrientedBox) -> tuple:
    """The (x, y, reach², box) entry of `b` for draws of circumradius
    `margin` at MIN_GAP, as `geom.blocked` reads it."""
    return (b.center.x, b.center.y, prefilter_reach2(margin, b, MIN_GAP), b)


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
    """Random start/goal configurations, both feasible by rejection sampling."""
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
        goal, goal_boxes = _place_all(rng, ws, shapes, 10_000, cross_boxes=start_boxes.values())
        return Instance(ws, shapes, start, goal, f"R{n}", seed), (start_boxes, goal_boxes)

    return _audited(build, seed)


def _ellipse_slots(cx, cy, a, b, n, phase=0.0) -> list[tuple[float, float]]:
    """n points equally spaced by arc length on an ellipse."""
    samples = 2048
    pts = [
        (cx + a * math.cos(t), cy + b * math.sin(t))
        for t in (phase + 2.0 * math.pi * k / samples for k in range(samples + 1))
    ]
    arc = list(accumulate(map(math.dist, pts, pts[1:]), initial=0.0))
    total = arc[-1]
    slots = []
    targets = [total * k / n for k in range(n)]
    idx = 0
    for tgt in targets:
        while arc[idx] < tgt:
            idx += 1
        slots.append(pts[idx])
    return slots


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


def _ring_arrangements(rng, slots, shapes, ids):
    """Starts on the slots; each goal sits on the next slot, pulled back enough
    to guarantee footprint overlap with that slot's occupant."""
    n = len(ids)
    start = {}
    goal = {}
    for k, obj in enumerate(ids):
        sx, sy = slots[k]
        jx, jy = rng.uniform(-0.004, 0.004), rng.uniform(-0.004, 0.004)
        start[obj] = Pose2(sx + jx, sy + jy, rng.uniform(-0.3, 0.3))
    for k, obj in enumerate(ids):
        nxt = start[ids[(k + 1) % n]]
        goal[obj] = Pose2(*_pulled_back(start[obj].xy, nxt.xy), rng.uniform(-0.3, 0.3))
    return Arrangement(start), Arrangement(goal)


def _audited(builder, seed, audit=None, cap=50):
    """The first instance `builder(seed, attempt)` builds that passes
    validation, then `audit` (its complaints about the decomposition of the
    dependency graph, if given) and the gap audit.  A builder returns an
    instance, or an instance and its start and goal footprint maps when it
    has built them already; the checks all read one pair of maps."""
    last = "no attempt"
    for attempt in range(cap):
        try:
            built = builder(seed, attempt)
        except GenerationExhausted as exc:
            last = str(exc)
            continue
        if isinstance(built, Instance):
            inst = built
            boxes = footprints(inst.start, inst.shapes), footprints(inst.goal, inst.shapes)
        else:
            inst, boxes = built
        problems = _validate(inst, *boxes)
        if not problems:
            structure = audit(decompose(build_dependency_graph(*boxes))) if audit else []
            problems = structure + _gap_audit(inst, *boxes)
        if not problems:
            return inst
        last = "; ".join(problems)
    raise GenerationExhausted(f"audit never passed: {last}")


def gen_single_cycle(n: int, seed: int, workspace: Workspace | None = None) -> Instance:
    """Configurations inducing exactly one simple n-cycle."""
    if n < 2:
        raise ValueError("single cycle needs n >= 2")
    ws = workspace or Workspace()

    def build(s, attempt):
        rng = random.Random(("S", n, s, attempt).__repr__())
        slots = _ellipse_slots(
            ws.width / 2, ws.height / 2, 0.36, 0.22, n, phase=rng.uniform(0, 2 * math.pi)
        )
        lo, hi = _ring_half_range(slots)
        shapes = {i: (rng.uniform(lo, hi), rng.uniform(lo, hi)) for i in range(n)}
        start, goal = _ring_arrangements(rng, slots, shapes, list(range(n)))
        return Instance(ws, shapes, start, goal, f"S{n}", seed)

    def audit(d):
        ok = (
            len(d.cycles) == 1
            and sorted(d.cycles[0]) == list(range(n))
            and not d.chains
            and not d.isolated
            and not d.complex_sccs
            and not d.others
        )
        return [] if ok else [f"expected a single {n}-cycle, got {d}"]

    return _audited(build, seed, audit)


def gen_double_cycle(n: int, seed: int, workspace: Workspace | None = None) -> Instance:
    """Configurations inducing exactly two vertex-disjoint simple cycles."""
    if n < 4:
        raise ValueError("double cycle needs n >= 4")
    ws = workspace or Workspace()
    n1 = (n + 1) // 2
    n2 = n - n1

    def build(s, attempt):
        rng = random.Random(("D", n, s, attempt).__repr__())
        left = _ellipse_slots(0.26, ws.height / 2, 0.16, 0.16, n1, rng.uniform(0, 6.28))
        right = _ellipse_slots(0.74, ws.height / 2, 0.16, 0.16, n2, rng.uniform(0, 6.28))
        shapes = {}
        for ring, ids in ((left, range(n1)), (right, range(n1, n))):
            lo, hi = _ring_half_range(ring)
            for i in ids:
                shapes[i] = (rng.uniform(lo, hi), rng.uniform(lo, hi))
        s1, g1 = _ring_arrangements(rng, left, shapes, list(range(n1)))
        s2, g2 = _ring_arrangements(rng, right, shapes, list(range(n1, n)))
        start = Arrangement({**s1.poses, **s2.poses})
        goal = Arrangement({**g1.poses, **g2.poses})
        return Instance(ws, shapes, start, goal, f"D{n}", seed)

    def audit(d):
        ok = (
            len(d.cycles) == 2
            and sorted(len(c) for c in d.cycles) == sorted((n1, n2))
            and not d.chains
            and not d.isolated
            and not d.complex_sccs
            and not d.others
        )
        return [] if ok else [f"expected cycles of {n1} and {n2}, got {d}"]

    return _audited(build, seed, audit)


def gen_mixed(seed: int, workspace: Workspace | None = None) -> Instance:
    """12 objects: 3 isolated, one 4-chain, one 2-cycle, one 3-cycle."""
    ws = workspace or Workspace()

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

        return Instance(ws, shapes, Arrangement(start), Arrangement(goal), f"M{seed}", seed)

    def audit(d):
        ok = (
            len(d.isolated) == 3
            and len(d.chains) == 1
            and len(d.chains[0]) == 4
            and sorted(len(c) for c in d.cycles) == [2, 3]
            and not d.complex_sccs
            and not d.others
        )
        return [] if ok else [f"mixed structure audit failed: {d}"]

    return _audited(build, seed, audit)


def showcase9(workspace: Workspace | None = None) -> Instance:
    """Hand-placed 9-object fixture: a 4-cycle 0-1-2-3, a chain 6->5->4, a
    branch vertex 8 hanging off the cycle (edge 2->8), and isolated object 7."""
    ws = workspace or Workspace()
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
    return Instance(ws, shapes, Arrangement(start), Arrangement(goal), "X9", 0)


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


def dumps(inst: Instance) -> str:
    lines = [
        INSTANCE_FORMAT,
        f"label {inst.label}",
        f"seed {inst.seed}",
        f"workspace {inst.workspace.width!r} {inst.workspace.height!r}",
        f"objects {inst.n}",
    ]
    for i in inst.ids():
        hw, hh = inst.shapes[i]
        s = inst.start.pose_of(i)
        g = inst.goal.pose_of(i)
        lines.append(
            f"{i} {hw!r} {hh!r} {s.x!r} {s.y!r} {s.theta!r} {g.x!r} {g.y!r} {g.theta!r}"
        )
    return "\n".join(lines) + "\n"


def save(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(inst))


def loads(text: str, source: str = "<string>") -> Instance:
    lines = text.splitlines()

    def fail(lineno, msg):
        raise ParseError(f"{source}:{lineno}: {msg}")

    if not lines or lines[0].strip() != INSTANCE_FORMAT:
        fail(1, f"expected header {INSTANCE_FORMAT!r}")
    header: dict[str, tuple[int, list[str]]] = {}  # field -> (line, values)
    body_start = None
    for k, raw in enumerate(lines[1:], start=2):
        parts = raw.split()
        if not parts:
            continue
        if parts[0] in ("label", "seed", "workspace", "objects"):
            header[parts[0]] = (k, parts[1:])
            if parts[0] == "objects":
                body_start = k
                break
        else:
            fail(k, f"unexpected field {parts[0]!r}")
    for key in ("label", "seed", "workspace", "objects"):
        if key not in header:
            fail(body_start or len(lines), f"missing {key!r} field")

    def value(key, count, convert):
        lineno, values = header[key]
        if len(values) < count:
            fail(lineno, f"bad header value: {key} needs {count} value{'s' * (count > 1)}")
        try:
            return convert(*values[:count])
        except ValueError as exc:
            fail(lineno, f"bad header value: {exc}")

    label = value("label", 1, str)
    seed = value("seed", 1, int)
    ws = value("workspace", 2, lambda w, h: Workspace(float(w), float(h)))
    n = value("objects", 1, int)

    shapes: Shapes = {}
    start: dict[int, Pose2] = {}
    goal: dict[int, Pose2] = {}
    rows = 0
    for k, raw in enumerate(lines[body_start:], start=body_start + 1):
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 9:
            fail(k, f"expected 9 fields, got {len(parts)}")
        try:
            obj = int(parts[0])
            vals = [float(v) for v in parts[1:]]
        except ValueError as exc:
            fail(k, f"bad numeric field: {exc}")
        if not all(math.isfinite(v) for v in vals):
            fail(k, "non-finite number")
        if not (vals[0] > 0.0 and vals[1] > 0.0):
            fail(k, f"half extents must be positive, got {vals[0]!r} {vals[1]!r}")
        if obj in shapes:
            fail(k, f"duplicate object id {obj}")
        shapes[obj] = (vals[0], vals[1])
        start[obj] = Pose2(vals[2], vals[3], vals[4])
        goal[obj] = Pose2(vals[5], vals[6], vals[7])
        rows += 1
    if rows != n:
        raise ParseError(f"{source}: object table has {rows} rows, header says {n}")
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
