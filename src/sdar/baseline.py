"""Single-arm oracle, the action-count baseline of a run.

An optimal single-arm rearrangement of an instance whose dependency structure
is a disjoint union of simple cycles and acyclic parts needs exactly one move
per object out of place plus one extra relocation per cycle: that count plus
the min-feedback-vertex-set is the exact single-arm action count there (and
a lower bound elsewhere).
The makespan baseline, a forced-sequential replay of the run, is `sim`'s:
`sim.evaluate` reports both.
"""

from __future__ import annotations

from dataclasses import dataclass

from .depgraph import Decomposition, DepGraph, decompose
from .instances import Instance

# the largest graph the oracle takes on
MAX_VERTICES = 20


class BudgetExceeded(Exception):
    pass


@dataclass
class OracleResult:
    min_fvs: int
    single_arm_optimal_actions: int
    assumption_holds: bool


def min_fvs(g: DepGraph, d: Decomposition | None = None) -> int:
    """Exact minimum feedback vertex set size; `d` is `decompose(g)` when
    the caller has it.

    FVS decomposes over strongly connected components: one removal breaks a
    simple cycle, and each complex SCC gets an exact search of its own, on
    bitmasks: member k of the component is the bit 1 << k, and `succ[k]`
    and `pred[k]` are the masks of its neighbours inside it."""
    if g.n > MAX_VERTICES:
        raise BudgetExceeded(f"min_fvs limited to {MAX_VERTICES} vertices, got {g.n}")
    if d is None:
        d = decompose(g)
    total = len(d.cycles)
    for comp in d.complex_sccs:
        index = {v: k for k, v in enumerate(comp)}
        succ = [0] * len(comp)
        pred = [0] * len(comp)
        for i, j in g.edges:
            if i in index and j in index:
                succ[index[i]] |= 1 << index[j]
                pred[index[j]] |= 1 << index[i]
        # iterative deepening: the least budget that clears every cycle
        budget = 1
        while not _breakable((1 << len(comp)) - 1, budget, succ, pred):
            budget += 1
        total += budget
    return total


def _breakable(keep: int, budget: int, succ: list[int], pred: list[int]) -> bool:
    """True iff removing at most `budget` vertices of `keep` leaves it
    acyclic.  Vertices with no in-edge or no out-edge inside the kept set
    lie on no cycle and are trimmed; any FVS holds a vertex of each cycle,
    so branching on the vertices of a shortest remaining cycle is exact."""
    keep = _trimmed(keep, succ, pred)
    if not keep:
        return True
    if not budget:
        return False
    for v in _shortest_cycle(keep, succ):
        if _breakable(keep & ~(1 << v), budget - 1, succ, pred):
            return True
    return False


def _trimmed(keep: int, succ: list[int], pred: list[int]) -> int:
    """`keep` less, repeatedly, every vertex with no in-edge or no out-edge
    inside it."""
    changed = True
    while changed:
        changed = False
        rest = keep
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            if not (succ[v] & keep and pred[v] & keep):
                keep ^= low
                changed = True
    return keep


def _shortest_cycle(keep: int, succ: list[int]) -> list[int]:
    """The vertices of a shortest cycle inside `keep` (which holds one): a
    breadth-first search from each kept vertex back to itself, the first
    shortest one found in vertex order."""
    best: list[int] = []
    rest = keep
    while rest:
        low = rest & -rest
        rest ^= low
        s = low.bit_length() - 1
        parent = {s: s}
        frontier = [s]
        depth = 0
        end = -1
        while frontier and end < 0 and (not best or depth + 1 < len(best)):
            depth += 1
            nxt = []
            for v in frontier:
                out = succ[v] & keep
                if out & low:
                    end = v
                    break
                while out:
                    w_bit = out & -out
                    out ^= w_bit
                    w = w_bit.bit_length() - 1
                    if w not in parent:
                        parent[w] = v
                        nxt.append(w)
            frontier = nxt
        if end >= 0:
            cycle = [end]
            while cycle[-1] != s:
                cycle.append(parent[cycle[-1]])
            best = cycle
            if len(best) == 2:
                break
    return best


def single_arm_optimal_actions(instance: Instance) -> OracleResult:
    """Objects out of place (as `PlannerSession.remaining` counts them, each
    isolated in the graph when at its goal) + min_fvs: exact when all size->=2
    SCCs are simple cycles, otherwise a lower bound (assumption_holds=False)."""
    g = instance.graph()
    d = decompose(g)
    f = min_fvs(g, d)
    start, goal = instance.start, instance.goal
    moves = sum(not start.pose_of(i).almost_equal(goal.pose_of(i)) for i in instance.ids())
    return OracleResult(
        min_fvs=f,
        single_arm_optimal_actions=moves + f,
        assumption_holds=not d.complex_sccs,
    )
