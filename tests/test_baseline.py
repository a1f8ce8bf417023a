import itertools
import random

import pytest

from sdar import instances, sim
from sdar.baseline import (
    BudgetExceeded,
    min_fvs,
    single_arm_optimal_actions,
)
from sdar.depgraph import DepGraph


def graph(n, edges):
    return DepGraph(tuple(range(n)), frozenset(edges))


# ------------------------------------------------------- independent oracle

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
                if color[w] == 1:
                    return True
                if color[w] == 0 and dfs(w):
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


def test_acyclic_graph_needs_no_removals():
    assert min_fvs(graph(5, {(0, 1), (1, 2), (3, 2)})) == 0
    assert min_fvs(graph(3, set())) == 0


def test_single_cycles_need_one():
    for k in (2, 3, 5, 8):
        edges = {(i, (i + 1) % k) for i in range(k)}
        assert min_fvs(graph(k, edges)) == 1


def test_showcase_graph_needs_one():
    edges = {(0, 1), (1, 2), (2, 3), (3, 0), (5, 4), (6, 5), (2, 8)}
    g = graph(9, edges)
    assert min_fvs(g) == 1
    assert naive_min_fvs(9, edges) == 1


def test_min_fvs_matches_naive_enumerator_on_random_graphs():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(2, 8)
        edges = {
            (i, j) for i in range(n) for j in range(n) if i != j and rng.random() < 0.3
        }
        assert min_fvs(graph(n, edges)) == naive_min_fvs(n, edges)


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        min_fvs(graph(21, set()))


# --------------------------------------------------- single-arm optimality

def single_arm_plan_search(inst) -> int:
    """Exhaustive single-arm plan over buffer choices: minimum buffer count
    via BFS on (solved, buffered) states, at graph level."""
    g = inst.graph()
    objs = frozenset(inst.ids())
    start_edges = set(g.edges)

    def placeable(i, solved, buffered):
        return all(j in solved or j in buffered for (a, j) in start_edges if a == i)

    best = {}
    frontier = [(frozenset(), frozenset(), 0)]
    best_buffers = None
    while frontier:
        nxt = []
        for solved, buffered, bufs in frontier:
            if solved == objs:
                if best_buffers is None or bufs < best_buffers:
                    best_buffers = bufs
                continue
            key = (solved, buffered)
            if key in best and best[key] <= bufs:
                continue
            best[key] = bufs
            for i in objs - solved:
                if placeable(i, solved, buffered):
                    nxt.append((solved | {i}, buffered - {i}, bufs))
                elif i not in buffered:
                    nxt.append((solved, buffered | {i}, bufs + 1))
        frontier = nxt
    return inst.n + best_buffers


def test_identity_oracle():
    inst = instances.identity_instance(4, 0)
    res = single_arm_optimal_actions(inst)
    assert res.min_fvs == 0
    assert res.single_arm_optimal_actions == 0  # every object starts at its goal
    assert res.assumption_holds


def test_five_cycle_needs_six_actions():
    inst = instances.gen_single_cycle(5, 3)
    res = single_arm_optimal_actions(inst)
    assert res.single_arm_optimal_actions == 6
    assert res.assumption_holds
    assert single_arm_plan_search(inst) == 6


def test_double_four_cycle_needs_ten_actions():
    inst = instances.gen_double_cycle(8, 1)
    res = single_arm_optimal_actions(inst)
    assert res.single_arm_optimal_actions == 10
    assert single_arm_plan_search(inst) == 10


def test_mixed_oracle_counts_only_long_cycles_and_swaps():
    inst = instances.gen_mixed(0)
    res = single_arm_optimal_actions(inst)
    # one 2-cycle and one 3-cycle: a single arm buffers once for each
    assert res.min_fvs == 2
    assert res.single_arm_optimal_actions == 14
    assert single_arm_plan_search(inst) == 14


# ------------------------------------------------------ sequential makespan

def _makespans(inst, seed):
    """(synchronous, forced-sequential) makespan of a run and its replay,
    both of which must succeed."""
    ev = sim.evaluate(inst, seed)
    assert ev.metrics.success, ev.metrics.failure
    assert ev.seq_makespan is not None, "forced sequential replay failed"
    return ev.metrics.makespan, ev.seq_makespan


def test_sequential_makespan_identity_is_zero():
    inst = instances.identity_instance(3, 1)
    assert _makespans(inst, 0) == (0.0, 0.0)


def test_sequential_roughly_doubles_unobstructed_pair():
    inst = instances.gen_random(2, 0)  # seed 0: pair round runs synchronous
    sync, seq = _makespans(inst, 0)
    assert seq > sync
    assert 1.3 <= seq / sync <= 3.5


def test_sequential_dominates_sync_on_random_instances():
    for seed in range(50):
        inst = instances.gen_random(10, 1000 + seed)
        sync, seq = _makespans(inst, 7)
        assert seq >= sync - 1e-9, (seed, sync, seq)
