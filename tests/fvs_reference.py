"""Two slow minimum-feedback-vertex-set counts that `baseline.min_fvs` is
checked against: a plain subset enumeration over the whole graph, and the
per-SCC subset search the oracle ran before its branching search.  Also the
oracle as it read every graph's full decomposition, which
`baseline.single_arm_optimal_actions` must match."""

import itertools

from sdar.baseline import OracleResult, min_fvs
from sdar.depgraph import DepGraph, decompose


def oracle_reference(instance) -> OracleResult:
    """The objects out of place plus `min_fvs` of the decomposed graph,
    exact when the decomposition lists no complex SCC."""
    g = instance.graph()
    d = decompose(g)
    f = min_fvs(g, d)
    start, goal = instance.start, instance.goal
    moves = sum(not start.pose_of(i).almost_equal(goal.pose_of(i)) for i in instance.ids())
    return OracleResult(f, moves + f, not d.complex_sccs)


def naive_min_fvs(n, edges) -> int:
    """Plain subset enumeration with DFS cycle detection, no SCC shortcuts."""

    def has_cycle(keep):
        succ = {v: [] for v in keep}
        for i, j in edges:
            if i in keep and j in keep:
                succ[i].append(j)
        color = {v: 0 for v in keep}

        def dfs(v):
            color[v] = 1
            for w in succ[v]:
                if color[w] == 1 or (color[w] == 0 and dfs(w)):
                    return True
            color[v] = 2
            return False

        return any(color[v] == 0 and dfs(v) for v in keep)

    verts = list(range(n))
    for size in range(n + 1):
        for subset in itertools.combinations(verts, size):
            if not has_cycle(set(verts) - set(subset)):
                return size
    return n


def _is_acyclic(vertices, edges) -> bool:
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


def min_fvs_subset_reference(g: DepGraph) -> int:
    """Minimum FVS size by per-component subset search: one removal per
    simple cycle, and for each complex SCC the smallest subset of its
    members whose removal leaves the rest acyclic."""
    d = decompose(g)
    total = len(d.cycles)
    for comp in d.complex_sccs:
        members = tuple(sorted(comp))
        inner = frozenset((i, j) for i, j in g.edges if i in comp and j in comp)
        for size in range(1, len(members) + 1):
            for subset in itertools.combinations(members, size):
                drop = set(subset)
                keep = tuple(v for v in members if v not in drop)
                kept = [(i, j) for i, j in inner if i not in drop and j not in drop]
                if _is_acyclic(keep, kept):
                    break
            else:
                continue
            total += size
            break
    return total
