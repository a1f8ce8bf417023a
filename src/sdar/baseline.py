"""Brute-force single-arm oracle, the action-count baseline of a run.

An optimal single-arm rearrangement of an instance whose dependency structure
is a disjoint union of simple cycles and acyclic parts needs exactly one move
per object out of place plus one extra relocation per cycle: that count plus
the min-feedback-vertex-set is the exact single-arm action count there (and
a lower bound elsewhere).
The makespan baseline, a forced-sequential replay of the run, is `sim`'s:
`sim.evaluate` reports both.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .depgraph import DepGraph, decompose
from .instances import Instance


class BudgetExceeded(Exception):
    pass


@dataclass
class OracleResult:
    min_fvs: int
    single_arm_optimal_actions: int
    assumption_holds: bool


def _is_acyclic(vertices: tuple[int, ...], edges) -> bool:
    indeg = {v: 0 for v in vertices}
    succ = {v: [] for v in vertices}
    for i, j in edges:
        succ[i].append(j)
        indeg[j] += 1
    queue = [v for v in vertices if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == len(vertices)


def min_fvs(g: DepGraph) -> int:
    """Exact minimum feedback vertex set size by per-component subset search.

    FVS decomposes over strongly connected components, and only vertices on a
    cycle (inside a size->=2 SCC) can help, which prunes the enumeration."""
    if g.n > 20:
        raise BudgetExceeded(f"min_fvs limited to 20 vertices, got {g.n}")
    d = decompose(g)
    total = len(d.cycles)  # one removal always breaks a simple cycle
    for comp in d.complex_sccs:
        members = tuple(sorted(comp))
        inner = frozenset((i, j) for i, j in g.edges if i in comp and j in comp)
        for size in range(1, len(members) + 1):
            hit = None
            for subset in itertools.combinations(members, size):
                drop = set(subset)
                keep = tuple(v for v in members if v not in drop)
                kept = [(i, j) for i, j in inner if i not in drop and j not in drop]
                if _is_acyclic(keep, kept):
                    hit = size
                    break
            if hit is not None:
                total += hit
                break
    return total


def single_arm_optimal_actions(instance: Instance) -> OracleResult:
    """Objects out of place (as `PlannerSession.remaining` counts them, each
    isolated in the graph when at its goal) + min_fvs: exact when all size->=2
    SCCs are simple cycles, otherwise a lower bound (assumption_holds=False)."""
    g = instance.graph()
    d = decompose(g)
    assumption = not d.complex_sccs
    f = min_fvs(g)
    start, goal = instance.start, instance.goal
    moves = sum(not start.pose_of(i).almost_equal(goal.pose_of(i)) for i in instance.ids())
    return OracleResult(
        min_fvs=f,
        single_arm_optimal_actions=moves + f,
        assumption_holds=assumption,
    )

