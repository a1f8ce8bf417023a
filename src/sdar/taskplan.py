"""Dependency-driven dual-arm task planning.

One task plan per synchronized round: the planner reads the dependency
graph over unsolved objects, which the session keeps and re-tests only where
a round moved something, and emits candidate object pairs (movable pairs,
a chain terminal pair, or cycle-breaking pairs with the buffer flag), then
the one-arm moves to try if no pair works, each an object and its target
(goal, buffer, or a relay buffer outside both arm bases' keep-out zones;
reach is left to binding).  A round reads only the structure it uses: the
graph's sinks (the objects movable now), then a lone sink's partners and
the chains into them; only a round with no sink, or a lone sink that no
object waits on alone, decomposes the graph for its cycles and complex
SCCs.  The task plan decides every move of the round; the motion layer
binds the moves to arms, grasps and poses, and plans both legs of the
round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

from .depgraph import DepGraph, build_dependency_graph, decompose, footprint, footprints, retest_moved
from .geom import OrientedBox, Pose2, dist
from .instances import Instance


class TaskComplete(Exception):
    pass


class InconsistentState(Exception):
    pass


class CycleTooShort(Exception):
    pass


# the targets of a one-arm move
GOAL, BUFFER, RELAY = "goal", "buffer", "relay"


@dataclass
class TaskPlan:
    """The object pairs to try (on a buffer plan the second object of each
    pair parks at a buffer), then the one-arm moves `(object, GOAL | BUFFER
    | RELAY)` in try order."""

    candidates: list[tuple[int, int]] = field(default_factory=list)
    need_buffer: bool = False
    singles: list[tuple[int, str]] = field(default_factory=list)


def check_arm_pair(arms) -> None:
    """ValueError unless the two arms share their reach, ee_radius and
    clearance, the values a trace's arms line states once for both."""
    for name in ("reach", "ee_radius", "clearance"):
        v1, v2 = (getattr(arm, name) for arm in arms)
        if v1 != v2:
            raise ValueError(f"the arms differ in {name}: {v1!r} and {v2!r}")


@dataclass
class PlannerSession:
    """What planning reads of one rearrangement run: the instance, the arms,
    the plan seed, and the table and arm state after the rounds so far.
    Buffer draws are keyed by the seed and `round`, the number of rounds
    applied, so no draw depends on another.

    Its two arms share their reach, ee_radius and clearance
    (`check_arm_pair`).  The session holds each object's footprint at its
    current pose (`boxes`, whose centres are the table's poses) and at its
    goal (`goal_boxes`), both keyed in id order; `place` moves an object's
    box, so a round rebuilds only the boxes of the objects it moved.  The
    dependency graph over the remaining objects is built at its first read
    and then kept: a round drops the objects it solved and re-tests only the
    edges into the objects it moved (`depgraph.retest_moved`)."""

    instance: Instance
    rng_seed: int
    arms: tuple
    remaining: set[int] = field(init=False)  # objects not yet at their goal
    buffered: set[int] = field(init=False)  # objects parked at a buffer
    boxes: dict[int, OrientedBox] = field(init=False)  # footprint at the current pose
    goal_boxes: dict[int, OrientedBox] = field(init=False)  # footprint at the goal
    ee: list = field(init=False)
    round: int = field(init=False)  # rounds applied so far
    graph: Optional[DepGraph] = field(init=False)  # over `remaining`, once read

    def __post_init__(self):
        check_arm_pair(self.arms)
        start, goal = self.instance.start, self.instance.goal
        self.remaining = {
            i for i in self.instance.ids() if not start.pose_of(i).almost_equal(goal.pose_of(i))
        }
        self.buffered = set()
        self.boxes = footprints(start, self.instance.shapes)
        self.goal_boxes = footprints(goal, self.instance.shapes)
        self.ee = [self.arms[0].retract, self.arms[1].retract]
        self.round = 0
        self.graph = None

    def apply_round(self, sub, goal_motion) -> None:
        """Update the session after a round's sub-task: the arms end where
        the goal-bound leg ends, and each moved object sits at its target."""
        self.ee = [knots[-1][1:] for knots in goal_motion.paths]
        self.round += 1
        moved = set()
        for task in sub:
            if task.obj is None:
                continue
            moved.add(task.obj)
            self.place(task.obj, task.target)
            if task.to_buffer:
                self.buffered.add(task.obj)
            else:
                self.remaining.discard(task.obj)
                self.buffered.discard(task.obj)
        if self.graph is not None:
            left = sorted(self.remaining)
            self.graph = retest_moved(
                self.graph, {i: self.boxes[i] for i in left}, self.goal_boxes, moved
            )

    def place(self, obj: int, pose: Pose2) -> None:
        """Put `obj` at `pose` on the table, with its footprint there."""
        self.boxes[obj] = self.footprint_at(obj, pose)

    def footprint_at(self, obj: int, pose: Pose2) -> OrientedBox:
        """The footprint of `obj` at `pose`: the held goal box when `pose`
        is the object's goal, else a fresh one."""
        if pose == self.instance.goal.poses[obj]:
            return self.goal_boxes[obj]
        return footprint(obj, pose, self.instance.shapes)

    def graph_over_remaining(self) -> DepGraph:
        """The dependency graph over the remaining objects, from the held
        boxes: built at the first read, kept by `apply_round` after it."""
        if self.graph is None:
            left = sorted(self.remaining)
            self.graph = build_dependency_graph(
                {i: self.boxes[i] for i in left}, {i: self.goal_boxes[i] for i in left}
            )
        return self.graph


def assign_arms(pair: tuple[int, int], boxes: dict[int, OrientedBox], arms) -> tuple[int, int]:
    """Bind a pair to arms by the centres of their boxes: smaller x goes to
    the left-base arm; ties fall to base distance, then id.  Symmetric in
    the pair order."""
    i, j = pair
    pi, pj = boxes[i].center, boxes[j].center

    def key(obj, pose):
        return (pose.x, dist(arms[0].base, pose.xy), obj)

    first, second = sorted(((i, pi), (j, pj)), key=lambda t: key(*t))
    return first[0], second[0]


def mark_buffer_target(cycle: list[int]) -> list[tuple[int, int]]:
    """Adjacent-pair choices on a cycle: the edge tail goes straight to its
    goal, the edge head must be parked at a buffer."""
    if len(cycle) < 3:
        raise CycleTooShort(f"cycle of length {len(cycle)} needs no buffer")
    return [(cycle[k], cycle[(k + 1) % len(cycle)]) for k in range(len(cycle))]


def next_task_plan(session: PlannerSession) -> TaskPlan:
    """The task plan of the next round, from the graph over the remaining
    objects (`_choose`), then its recovery moves; TaskComplete once nothing
    remains."""
    if not session.remaining:
        raise TaskComplete

    if len(session.remaining) == 1:
        (obj,) = session.remaining
        plan, movable = TaskPlan(singles=[(obj, GOAL)]), [obj]
    else:
        plan, movable = _choose(session.graph_over_remaining())
    plan.singles += _recovery_moves(plan, set(movable), session.buffered)
    return plan


def _recovery_moves(plan: TaskPlan, movable: set[int], buffered: set[int]) -> list[tuple[int, str]]:
    """The one-arm moves to try after the plan's own, in try order, over the
    plan's objects; blocked means not movable now.  A goal move is listed
    once; a buffer move listed twice draws its poses under its own key each
    time."""
    objs = list(dict.fromkeys(o for pair in plan.candidates for o in pair)) or [plan.singles[0][0]]
    parked = {b for _, b in plan.candidates} or set(objs)
    # pass 1: each object alone, a parked one to a buffer, an unblocked one
    # to its goal
    moves = []
    for obj in objs:
        if plan.need_buffer and obj in parked:
            moves.append((obj, BUFFER))
        elif obj in movable and (obj, GOAL) not in plan.singles:
            moves.append((obj, GOAL))
    # pass 2: an unblocked object no single arm can both pick and place is
    # handed across the table through a buffer outside both arm bases'
    # keep-out zones (binding checks the reach of the arm that moves it)
    if not plan.need_buffer:
        moves += [(obj, RELAY) for obj in objs if obj in movable]
    # pass 3: a blocked object nothing else frees is parked, as a single arm
    # breaks a cycle; re-parking an object already at a buffer gains nothing
    moves += [(obj, BUFFER) for obj in objs if obj not in movable and obj not in buffered]
    return moves


def _choose(dg: DepGraph) -> tuple[TaskPlan, list[int]]:
    """The round's pairs, or its lone-object move, and the objects movable
    now (the graph's sinks), from the graph over the remaining objects.
    Two or more sinks pair up; a lone sink pairs with its partners, the
    vertices whose only out-edge goes to it, longest chain first.  Only a
    round with no sink, or a lone sink with no partner, reads the graph's
    cycles and complex SCCs (`decompose`)."""
    tails = {i for i, _ in dg.edges}
    movable = sorted(v for v in dg.vertices if v not in tails)
    if len(movable) >= 2:
        return TaskPlan(candidates=list(combinations(movable, 2))), movable

    succ = dg.successors()  # each vertex's out-neighbours, read once per round
    if len(movable) == 1:
        m = movable[0]
        partners = [j for j, out in succ.items() if out == [m]]
        if partners:
            pred = {v: [] for v in succ}
            for i, out in succ.items():
                for j in out:
                    pred[j].append(i)
            partners.sort(key=lambda j: (-_chain_length(j, succ, pred), j))
            return TaskPlan(candidates=[(m, j) for j in partners]), movable
        # nothing can ride along with m this round; break a cycle first and
        # let m pair up once the break spawns new movable objects

    decomp = decompose(dg)
    # Cycle resolution: swaps are free, longer cycles cost one buffer park.
    for cyc in decomp.cycles:
        if len(cyc) != 2:
            continue
        a, b = cyc
        if succ[a] == [b] and succ[b] == [a]:
            return TaskPlan(candidates=[(a, b)]), movable
    for cyc in decomp.cycles:
        if len(cyc) < 3:
            continue
        pairs = [(a, b) for a, b in mark_buffer_target(cyc) if succ[a] == [b]]
        if pairs:
            return TaskPlan(candidates=pairs, need_buffer=True), movable
    for scc in decomp.complex_sccs:
        members = set(scc)
        out_deg = {v: sum(w in members for w in succ[v]) for v in scc}
        v = max(scc, key=lambda u: (out_deg[u], -u))
        partners = sorted(j for j, out in succ.items() if out == [v])
        if partners:
            return TaskPlan(candidates=[(x, v) for x in partners], need_buffer=True), movable
        return TaskPlan(need_buffer=True, singles=[(v, BUFFER)]), movable

    if movable:
        # a lone movable object with no partner and no breakable cycle this
        # round still makes progress on its own
        return TaskPlan(singles=[(movable[0], GOAL)]), movable

    raise InconsistentState(
        "no resolvable structure in the dependency graph; remaining="
        f"{list(dg.vertices)} edges={sorted(dg.edges)}"
    )


def _chain_length(j: int, succ: dict[int, list[int]], pred: dict[int, list[int]]) -> int:
    """The number of vertices of the chain `decompose` lists through `j`, a
    partner of the lone sink, up to `j` (1 when `j` is on no chain).  A
    chain holds vertices of in- and out-degree at most 1; walking back from
    `j` over such vertices meets no cycle, since each one's only out-edge
    leads on to the sink, which has none.  The sink itself ends the chain
    only when `j` is its one partner, where there is nothing to rank."""
    length = 1
    while len(pred[j]) == 1:
        p = pred[j][0]
        if len(succ[p]) > 1 or len(pred[p]) > 1:
            break
        length += 1
        j = p
    return length
