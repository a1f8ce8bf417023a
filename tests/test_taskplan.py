import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdar import baseline, depgraph, instances, sim, taskplan
from sdar.depgraph import DepGraph, decompose
from sdar.geom import Pose2, box_at
from sdar.motion import default_arms
from sdar.taskplan import (
    BUFFER,
    GOAL,
    RELAY,
    CycleTooShort,
    TaskComplete,
    assign_arms,
    mark_buffer_target,
    next_task_plan,
)

from taskplan_reference import choose_reference, task_plan_reference


def fresh_session(inst, seed=0):
    return sim.new_session(inst, seed)


def pairs_as_set(cands):
    return {frozenset(p) for p in cands}


# ------------------------------------------------------------ branch logic

def test_showcase_first_round_pairs_all_movable():
    session = fresh_session(instances.showcase9())
    plan = next_task_plan(session)
    assert pairs_as_set(plan.candidates) == {
        frozenset({4, 7}), frozenset({7, 8}), frozenset({4, 8})
    }
    assert not plan.need_buffer


def test_cycle_round_emits_adjacent_pairs_with_buffer_flag():
    inst = instances.showcase9()
    session = fresh_session(inst)
    # pretend objects 4..8 are already solved
    for i in (4, 5, 6, 7, 8):
        session.remaining.discard(i)
        session.place(i, inst.goal.pose_of(i))
    plan = next_task_plan(session)
    assert plan.need_buffer
    assert set(plan.candidates) == {(0, 1), (1, 2), (2, 3), (3, 0)}


def test_two_cycle_swap_has_no_buffer():
    session = fresh_session(instances.gen_single_cycle(2, 0))
    plan = next_task_plan(session)
    assert pairs_as_set(plan.candidates) == {frozenset({0, 1})}
    assert not plan.need_buffer


def test_single_object_left_uses_one_arm():
    inst = instances.gen_random(3, 5)
    session = fresh_session(inst)
    keep = min(session.remaining)
    for i in list(session.remaining):
        if i != keep:
            session.remaining.discard(i)
            session.place(i, inst.goal.pose_of(i))
    plan = next_task_plan(session)
    # nothing is blocked in a one-object round, and the goal move is listed once
    assert plan.singles == [(keep, GOAL), (keep, RELAY)]
    assert plan.candidates == [] and not plan.need_buffer


def test_task_complete_on_identity():
    session = fresh_session(instances.identity_instance(3, 0))
    with pytest.raises(TaskComplete):
        next_task_plan(session)


def test_chain_terminal_pair_when_one_movable():
    # 2 -> 1 -> 0: only 0 movable, partner is its chain predecessor 1
    inst = instances.showcase9()
    session = fresh_session(inst)
    session.remaining = {4, 5, 6}
    plan = next_task_plan(session)
    assert plan.candidates[0] == (4, 5)
    assert not plan.need_buffer


# ------------------------------------------------------- one-arm move list

def plan_over(monkeypatch, edges, buffered=()):
    """The task plan of a round whose dependency graph over the remaining
    objects has `edges`."""
    vertices = tuple(sorted({v for e in edges for v in e}))
    session = fresh_session(instances.showcase9())
    session.remaining = set(vertices)
    session.buffered = set(buffered)
    graph = DepGraph(vertices, frozenset(edges))
    monkeypatch.setattr(session, "graph_over_remaining", lambda: graph)
    return next_task_plan(session)


def test_single_arm_scc_break_parks_its_vertex_with_fresh_draws(monkeypatch):
    # a complete 3-vertex SCC: no vertex has a lone partner, so vertex 0
    # (largest out-degree, then smallest id) is parked by one arm
    complete = [(i, j) for i in range(3) for j in range(3) if i != j]
    plan = plan_over(monkeypatch, complete)
    assert plan.candidates == [] and plan.need_buffer
    # the plan's own move, pass 1 (the parked object alone), pass 3 (a
    # blocked object not yet at a buffer): each buffer move draws afresh
    assert plan.singles == [(0, BUFFER)] * 3
    # an object already at a buffer is never re-parked by pass 3
    assert plan_over(monkeypatch, complete, buffered={0}).singles == [(0, BUFFER)] * 2


def test_pair_plan_moves_unblocked_objects_then_parks_blocked_ones(monkeypatch):
    # 1 -> 0 and a 2-cycle 2 <-> 3: only 0 is movable, and 1 rides along
    plan = plan_over(monkeypatch, [(1, 0), (2, 3), (3, 2)])
    assert plan.candidates == [(0, 1)] and not plan.need_buffer
    # pass 1: 0 to its goal (1 is blocked); pass 2: 0 through a relay;
    # pass 3: the blocked 1 to a buffer
    assert plan.singles == [(0, GOAL), (0, RELAY), (1, BUFFER)]
    assert plan_over(monkeypatch, [(1, 0), (2, 3), (3, 2)], buffered={1}).singles == [
        (0, GOAL), (0, RELAY),
    ]


def test_buffer_pair_plan_parks_each_object_alone(monkeypatch):
    # a 3-cycle: every adjacent pair, the second object parked
    plan = plan_over(monkeypatch, [(0, 1), (1, 2), (2, 0)], buffered={2})
    assert plan.candidates == [(0, 1), (1, 2), (2, 0)] and plan.need_buffer
    # pass 1 parks every pair's second object, no relay on a buffer plan,
    # pass 3 parks the blocked objects not already at a buffer
    assert plan.singles == [(0, BUFFER), (1, BUFFER), (2, BUFFER), (0, BUFFER), (1, BUFFER)]


def test_lone_sink_partners_rank_by_chain_length_then_id():
    # sink 0 has three partners: 1 ends the chain 3 -> 2 -> 1, 4 ends 5 -> 4,
    # and 6 is on no chain; 0 has several in-edges, so it ends none of them
    edges = [(3, 2), (2, 1), (1, 0), (5, 4), (4, 0), (6, 0)]
    g = DepGraph(tuple(range(7)), frozenset(edges))
    plan, movable = taskplan._choose(g)
    assert plan.candidates == [(0, 1), (0, 4), (0, 6)] and movable == [0]
    # a second in-edge takes 1 off its chain, and a lone partner's chain ends at the sink
    plan, _ = taskplan._choose(DepGraph(tuple(range(8)), g.edges | {(7, 1)}))
    assert plan.candidates == [(0, 4), (0, 1), (0, 6)]
    plan, _ = taskplan._choose(DepGraph((0, 1, 2, 3), frozenset({(3, 2), (2, 1), (1, 0)})))
    assert plan.candidates == [(0, 1)]


# --------------------------------------- the decomposition-based reference

@st.composite
def planted_graphs(draw):
    """A random dependency graph of 1-14 vertices: planted blocks (chains,
    funnels of chains into one sink, in-trees whose paths branch and merge
    on their way to one sink, 2-cycles, longer cycles and complex SCCs), a
    few random extra edges, and a random relabelling.  On half the graphs
    the first block is a funnel or a tree and every sink but the first gets
    an out-edge, so most often that block's root is the lone sink."""
    n = draw(st.integers(1, 14))
    lone = draw(st.booleans())
    least = {"chain": 1, "funnel": 3, "tree": 2, "swap": 2, "cycle": 3, "complex": 3}
    edges = set()
    k = 0
    while k < n:
        kind = draw(st.sampled_from(["funnel", "tree"] if lone and not k else list(least)))
        if n - k < least[kind]:
            kind = "chain"
        size = 2 if kind == "swap" else draw(st.integers(least[kind], n - k))
        block = list(range(k, k + size))
        k += size
        if kind == "funnel":
            root, rest = block[0], block[1:]
            while rest:
                cut = draw(st.integers(1, len(rest)))
                path, rest = rest[:cut], rest[cut:]
                edges.update(zip(path, path[1:] + [root]))
        elif kind == "tree":
            # each vertex waits on an earlier one, most often the one just
            # before it, so chains run long and also branch and merge
            for v in block[1:]:
                edges.add((v, draw(st.sampled_from([v - 1, v - 1, *block[: v - block[0]]]))))
        else:
            edges.update(zip(block, block[1:]))
            if kind != "chain":
                edges.add((block[-1], block[0]))
            if kind == "complex":
                a, b = draw(st.lists(st.sampled_from(block), min_size=2, max_size=2, unique=True))
                edges.add((a, b) if (a, b) not in edges else (b, a))

    def other_than(v):
        return st.sampled_from([u for u in range(n) if u != v])

    if n > 1:
        edges.update(draw(st.lists(st.integers(0, n - 1).flatmap(
            lambda v: st.tuples(st.just(v), other_than(v))), max_size=4)))
    if n > 1 and lone:
        sinks = [v for v in range(n) if all(i != v for i, _ in edges)]
        edges.update((v, draw(other_than(v))) for v in sinks[1:])
    relabel = draw(st.permutations(range(n)))
    return DepGraph(tuple(range(n)), frozenset((relabel[i], relabel[j]) for i, j in edges))


@settings(max_examples=400, deadline=None)
@given(planted_graphs(), st.data())
def test_round_plan_matches_the_decomposition_reference(g, data):
    # the plan (candidates, buffer flag, the plan's own one-arm moves) and
    # the movable set, then the whole task plan with its recovery moves
    assert taskplan._choose(g) == choose_reference(g)
    buffered = data.draw(st.sets(st.sampled_from(g.vertices)))
    plans = []
    for plan_fn in (next_task_plan, task_plan_reference):
        session = fresh_session(instances.showcase9())
        session.remaining, session.buffered, session.graph = set(g.vertices), buffered, g
        plans.append(plan_fn(session))
    assert plans[0] == plans[1]


# ------------------------------------------------- what a round decomposes

@pytest.fixture
def decompose_calls(monkeypatch):
    """The graphs that planning and the oracle decompose, by module."""
    calls = {"taskplan": [], "baseline": []}
    for module in (taskplan, baseline):
        real = module.decompose

        def counted(g, real=real, name=module.__name__.rsplit(".", 1)[-1]):
            calls[name].append(g)
            return real(g)

        monkeypatch.setattr(module, "decompose", counted)
    return calls


def test_acyclic_tables_are_planned_and_judged_without_a_decomposition(decompose_calls):
    # the benchmark's acyclic-pairs tables: for each size, the first 25 random
    # tables in generator-seed order whose graph has no cycle and no complex SCC
    tables = []
    for n in (6, 8, 10, 12):
        s = 0
        while sum(inst.n == n for inst in tables) < 25:
            inst = instances.gen_random(n, s * 131 + n)
            s += 1
            d = depgraph.decompose(inst.graph())
            if not d.cycles and not d.complex_sccs:
                tables.append(inst)
    for inst in tables:
        metrics, _ = sim.run_instance(inst, 42)
        assert metrics.success
        assert baseline.single_arm_optimal_actions(inst).assumption_holds
    assert decompose_calls == {"taskplan": [], "baseline": []}


@pytest.mark.parametrize(
    "inst, planning, oracle",
    [(instances.showcase9(), 1, 1), (instances.gen_single_cycle(5, 0), 1, 1)],
    ids=["showcase9", "single_cycle_5"],
)
def test_only_rounds_that_read_cycles_decompose(decompose_calls, inst, planning, oracle):
    metrics, _ = sim.run_instance(inst, 0)
    assert metrics.success
    baseline.single_arm_optimal_actions(inst)
    assert (len(decompose_calls["taskplan"]), len(decompose_calls["baseline"])) == (planning, oracle)
    for g in decompose_calls["taskplan"]:
        succ = g.successors()
        sinks = [v for v in g.vertices if not succ[v]]
        # no sink, or a lone sink that nothing waits on alone
        assert not sinks or (len(sinks) == 1 and [sinks[0]] not in succ.values())


# ------------------------------------------------------------- assign_arms

def _boxes(*poses):
    return {i: box_at(p, 0.03, 0.03) for i, p in enumerate(poses)}


def test_assign_arms_by_x_coordinate():
    arms = default_arms()
    cur = _boxes(Pose2(0.2, 0.3), Pose2(0.8, 0.3))
    assert assign_arms((0, 1), cur, arms) == (0, 1)
    assert assign_arms((1, 0), cur, arms) == (0, 1)


def test_assign_arms_tie_breaks_on_base_distance():
    arms = default_arms()
    cur = _boxes(Pose2(0.5, 0.31), Pose2(0.5, 0.55))
    # equal x: object 0 is nearer arm 1's base (y = 0.3)
    assert assign_arms((0, 1), cur, arms) == (0, 1)


def test_assign_arms_symmetric_over_random_pairs():
    arms = default_arms()
    rng = random.Random(11)
    for _ in range(50):
        cur = _boxes(
            Pose2(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.5)),
            Pose2(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.5)),
        )
        assert assign_arms((0, 1), cur, arms) == assign_arms((1, 0), cur, arms)


# ------------------------------------------------------- mark_buffer_target

def test_mark_buffer_target_choices():
    choices = mark_buffer_target([0, 1, 2, 3])
    assert len(choices) == 4
    assert (0, 1) in choices  # mover 0, object 1 to the buffer
    for mover, buffered in choices:
        assert mover != buffered


def test_mark_buffer_target_rejects_short_cycles():
    with pytest.raises(CycleTooShort):
        mark_buffer_target([0, 1])


def test_three_cycle_break_leaves_a_chain():
    # graph-level simulation of all 3 adjacent-pair choices on a 3-cycle
    edges = {(0, 1), (1, 2), (2, 0)}
    for mover, buffered in mark_buffer_target([0, 1, 2]):
        rest = {0, 1, 2} - {mover}
        kept = {
            (i, j)
            for i, j in edges
            if i in rest and j in rest and j != buffered  # buffered start vacated
        }
        d = decompose(DepGraph(tuple(sorted(rest)), frozenset(kept)))
        assert not d.cycles and not d.complex_sccs
        assert len(d.chains) == 1 and set(d.chains[0]) == rest


# --------------------------------------------------------- removal sequence

def test_removal_sequence_showcase():
    metrics, _ = sim.run_instance(instances.showcase9(), 0)
    seq = metrics.sequence
    assert len(seq) == 10
    counts = {i: seq.count(i) for i in range(9)}
    doubled = [i for i, c in counts.items() if c == 2]
    assert len(doubled) == 1 and doubled[0] in (0, 1, 2, 3)
    assert all(counts[i] == 1 for i in range(9) if i != doubled[0])
    # independents precede the chain tail; chain order 4 then 5 then 6
    assert seq.index(7) < seq.index(6) and seq.index(8) < seq.index(6)
    assert seq.index(4) < seq.index(5) < seq.index(6)


def test_removal_sequence_identity_and_swap():
    metrics, _ = sim.run_instance(instances.identity_instance(3, 1), 0)
    assert metrics.sequence == []

    metrics, _ = sim.run_instance(instances.gen_single_cycle(2, 3), 0)
    seq = metrics.sequence
    assert sorted(seq) == [0, 1]
