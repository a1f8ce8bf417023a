import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdar import instances, sim
from sdar.baseline import (
    BudgetExceeded,
    min_fvs,
    single_arm_optimal_actions,
)
from sdar.depgraph import DepGraph

from fvs_reference import min_fvs_subset_reference, naive_min_fvs


def graph(n, edges):
    return DepGraph(tuple(range(n)), frozenset(edges))


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


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 14), st.floats(0.0, 0.5), st.integers(0, 2**32 - 1))
def test_min_fvs_matches_subset_search_on_random_digraphs(n, p, seed):
    # dense enough for complex SCCs, where the branching search does its work
    rng = random.Random(seed)
    edges = {(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < p}
    g = graph(n, edges)
    assert min_fvs(g) == min_fvs_subset_reference(g)


# The oracle of each table of the `dense` benchmark workload, gen_random(n, s)
# for n = 14..22 even and s = 0..3 in that order, as (min_fvs, single-arm
# optimal actions, assumption_holds), or None over the 20-vertex budget.  It
# reads no plan seed, so it is the same at seed 42 as at any other.
DENSE_ORACLE = [
    (1, 15, False), (2, 16, False), (2, 16, False), (1, 15, True),
    (1, 17, False), (3, 19, False), (4, 20, False), (2, 18, False),
    (2, 20, False), (2, 20, False), (2, 20, False), (3, 21, False),
    (4, 24, False), (4, 24, False), (3, 23, False), (2, 22, False),
    None, None, None, None,
]


def test_dense_oracle_values_and_subset_search():
    got = []
    for n in (14, 16, 18, 20, 22):
        for s in range(4):
            inst = instances.gen_random(n, s)
            if n > 20:
                with pytest.raises(BudgetExceeded):
                    single_arm_optimal_actions(inst)
                got.append(None)
                continue
            res = single_arm_optimal_actions(inst)
            assert res.min_fvs == min_fvs_subset_reference(inst.graph()), (n, s)
            got.append((res.min_fvs, res.single_arm_optimal_actions, res.assumption_holds))
    assert got == DENSE_ORACLE


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
