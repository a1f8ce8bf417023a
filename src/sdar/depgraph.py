"""Dependency graph construction and structural decomposition.

An edge (i -> j) means object i cannot be placed at its goal until object j has
left its current pose.  The decomposition sorts the vertices: those with zero
out-degree are movable immediately, chains impose a strict order, cycles need
a swap (length 2) or one buffer relocation (length >= 3), and complex SCCs
need a break.  The task planner reads it only in a round with no sink, or
with a lone sink that no vertex waits on alone: a round that breaks a cycle
if it can.  The oracle reads it only for a graph with a cycle.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .geom import OrientedBox, Pose2, Workspace, box_at, inside, overlaps


class InfeasibleArrangement(Exception):
    pass


Shapes = Mapping[int, tuple[float, float]]


@dataclass(frozen=True)
class Arrangement:
    """Object ids to table poses; `poses` is a read-only view of a copy."""

    poses: Mapping[int, Pose2]

    def __post_init__(self):
        object.__setattr__(self, "poses", MappingProxyType(dict(self.poses)))

    def __reduce__(self):  # a read-only view does not pickle; its dict does
        return Arrangement, (dict(self.poses),)

    def on_table(self) -> list[tuple[int, Pose2]]:
        return sorted(self.poses.items())

    def pose_of(self, obj: int) -> Pose2:
        return self.poses[obj]


def footprint(obj: int, pose: Pose2, shapes: Shapes) -> OrientedBox:
    hw, hh = shapes[obj]
    return box_at(pose, hw, hh)


def footprints(arr: Arrangement, shapes: Shapes) -> dict[int, OrientedBox]:
    """Each object's footprint in `arr`, keyed in id order: the scene that
    the graph, the feasibility checks and the buffer sampler read."""
    return {i: footprint(i, p, shapes) for i, p in arr.on_table()}


def arrangement_violations(
    boxes: dict[int, OrientedBox], workspace: Workspace, involving=None
) -> list[str]:
    """All feasibility violations of a footprint map keyed in id order:
    overlap pairs and out-of-workspace objects, in id order.  Given a set
    `involving`, only the violations that involve one of its objects, in the
    same order, from a scan of those objects alone against every box: each
    pair is tested once, the lower id first, as the whole-table scan tests
    it."""
    items = list(boxes.items())
    found = []  # (lower id, higher id, issue); an object's own issue is (i, i)
    for p, (i, bi) in enumerate(items):
        if involving is not None and i not in involving:
            continue
        if not inside(workspace, bi):
            found.append((i, i, f"object {i} outside workspace"))
        if involving is not None:
            # a lower box in `involving` has tested its pair with this one
            for j, bj in items[:p]:
                if j not in involving and overlaps(bj, bi):
                    found.append((j, i, f"objects {j} and {i} overlap"))
        for j, bj in items[p + 1 :]:
            if overlaps(bi, bj):
                found.append((i, j, f"objects {i} and {j} overlap"))
    found.sort()
    return [issue for *_, issue in found]


@dataclass(frozen=True)
class DepGraph:
    vertices: tuple[int, ...]
    edges: frozenset[tuple[int, int]]

    @property
    def n(self) -> int:
        return len(self.vertices)

    def successors(self) -> dict[int, list[int]]:
        succ: dict[int, list[int]] = {v: [] for v in self.vertices}
        for i, j in sorted(self.edges):
            succ[i].append(j)
        return succ


def build_dependency_graph(
    start_boxes: dict[int, OrientedBox], goal_boxes: dict[int, OrientedBox]
) -> DepGraph:
    """Edge set from pairwise goal-vs-current overlap tests (no self-edges),
    over two footprint maps of the same objects keyed in id order."""
    if start_boxes.keys() != goal_boxes.keys():
        raise InfeasibleArrangement("start and goal arrangements cover different ids")
    ids = list(start_boxes)
    starts = list(start_boxes.items())
    edges = set()
    for i in ids:
        gb = goal_boxes[i]
        for j, sb in starts:
            if i != j and overlaps(gb, sb):
                edges.add((i, j))
    return DepGraph(tuple(ids), frozenset(edges))


def retest_moved(
    g: DepGraph,
    boxes: dict[int, OrientedBox],
    goal_boxes: dict[int, OrientedBox],
    moved: set[int],
) -> DepGraph:
    """The graph `build_dependency_graph` gives over `boxes` (the current
    boxes of some of `g`'s vertices, keyed in id order) and their goal
    boxes, from `g` built before the objects in `moved` moved: `g`'s other
    edges carry over, and only the edges into the moved objects still in
    `boxes` are re-tested.  Goal boxes never move, so no edge out of a moved
    object changes."""
    ids = tuple(boxes)
    edges = {(i, j) for i, j in g.edges if i in boxes and j in boxes and j not in moved}
    for j in ids:
        if j in moved:
            edges.update((i, j) for i in ids if i != j and overlaps(goal_boxes[i], boxes[j]))
    return DepGraph(ids, frozenset(edges))


@dataclass
class Decomposition:
    movable_now: list[int]
    isolated: list[int]
    chains: list[list[int]]
    cycles: list[list[int]]
    complex_sccs: list[list[int]]
    others: list[int] = field(default_factory=list)


def _tarjan_sccs(succ: dict[int, list[int]]) -> list[list[int]]:
    """Iterative Tarjan over a graph's `successors()`, rooted in vertex
    order; components returned sorted by smallest member."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    counter = 0
    sccs: list[list[int]] = []

    for root in succ:
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(sorted(comp))
    return sorted(sccs, key=lambda c: c[0])


def _cycle_order(component: list[int], succ: dict[int, list[int]]) -> list[int]:
    """Vertices of a simple-cycle SCC listed so consecutive pairs are edges;
    `succ` is the graph's `successors()`, each list in ascending order."""
    members = set(component)
    succ_in = {v: next(j for j in succ[v] if j in members) for v in component}
    start = min(component)
    order = [start]
    cur = succ_in[start]
    while cur != start:
        order.append(cur)
        cur = succ_in[cur]
    return order


def decompose(g: DepGraph) -> Decomposition:
    out_deg = {v: 0 for v in g.vertices}
    in_deg = {v: 0 for v in g.vertices}
    for i, j in g.edges:
        out_deg[i] += 1
        in_deg[j] += 1

    succ = g.successors()
    sccs = _tarjan_sccs(succ)
    cycles: list[list[int]] = []
    complex_sccs: list[list[int]] = []
    big_scc_members: set[int] = set()
    for comp in sccs:
        if len(comp) < 2:
            continue
        members = set(comp)
        big_scc_members |= members
        intra = sum(1 for i in comp for j in succ[i] if j in members)
        if intra == len(comp):
            cycles.append(_cycle_order(comp, succ))
        else:
            complex_sccs.append(comp)

    eligible = {
        v
        for v in g.vertices
        if v not in big_scc_members and in_deg[v] <= 1 and out_deg[v] <= 1
    }
    succ_path: dict[int, int] = {}
    pred_path: dict[int, int] = {}
    for i, j in g.edges:
        if i in eligible and j in eligible:
            succ_path[i] = j
            pred_path[j] = i
    chains = []
    for head in sorted(v for v in eligible if v not in pred_path):
        path = [head]
        cur = head
        while cur in succ_path:
            cur = succ_path[cur]
            path.append(cur)
        if len(path) >= 2:
            chains.append(path)

    chain_members = {v for c in chains for v in c}
    isolated = sorted(v for v in g.vertices if in_deg[v] == 0 and out_deg[v] == 0)
    classified = big_scc_members | chain_members | set(isolated)
    others = sorted(v for v in g.vertices if v not in classified)
    movable = sorted(v for v in g.vertices if out_deg[v] == 0)
    return Decomposition(movable, isolated, chains, cycles, complex_sccs, others)


def to_dot(g: DepGraph) -> str:
    """DOT export, one `i -> j;` line per edge."""
    lines = ["digraph dg {"]
    for v in g.vertices:
        lines.append(f"  {v};")
    for i, j in sorted(g.edges):
        lines.append(f"  {i} -> {j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
