import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdar import depgraph, instances
from sdar.depgraph import (
    Arrangement,
    DepGraph,
    InfeasibleArrangement,
    arrangement_violations,
    build_dependency_graph,
    decompose,
    footprint,
    footprints,
    retest_moved,
    to_dot,
)
from sdar.geom import Pose2, Workspace, box_at, inside, overlaps


def graph(n, edges):
    return DepGraph(tuple(range(n)), frozenset(edges))


SHOWCASE_EDGES = {(0, 1), (1, 2), (2, 3), (3, 0), (5, 4), (6, 5), (2, 8)}


# ------------------------------------------------------------------- build

def brute_force_edges(inst):
    """All-pairs goal-vs-start overlap audit, independent double loop."""
    edges = set()
    for i in inst.ids():
        gb = footprint(i, inst.goal.pose_of(i), inst.shapes)
        for j in inst.ids():
            if i == j:
                continue
            sb = footprint(j, inst.start.pose_of(j), inst.shapes)
            if overlaps(gb, sb):
                edges.add((i, j))
    return edges


def test_identity_instance_has_empty_graph():
    inst = instances.identity_instance(5, seed=1)
    g = inst.graph()
    assert g.edges == frozenset()


def test_showcase_fixture_realizes_expected_edges():
    inst = instances.showcase9()
    g = inst.graph()
    assert set(g.edges) == SHOWCASE_EDGES
    assert set(g.edges) == brute_force_edges(inst)


def test_random_instances_match_brute_force():
    for seed in range(100):
        inst = instances.gen_random(6, seed)
        assert set(inst.graph().edges) == brute_force_edges(inst)


def test_infeasible_input_rejected():
    # maps over different ids; an overlapping start and a goal outside the
    # workspace are rejected where instances enter (`instances.loads`)
    shapes = {0: (0.05, 0.05), 1: (0.05, 0.05)}
    fine = footprints(Arrangement({0: Pose2(0.2, 0.2), 1: Pose2(0.8, 0.4)}), shapes)
    for other in ({0: fine[0]}, {**fine, 2: fine[1]}, {0: fine[0], 2: fine[1]}):
        with pytest.raises(InfeasibleArrangement, match="cover different ids"):
            build_dependency_graph(fine, other)
        with pytest.raises(InfeasibleArrangement, match="cover different ids"):
            build_dependency_graph(other, fine)


def test_goal_overlapping_own_start_is_not_an_edge():
    shapes = {0: (0.05, 0.05)}
    start = footprints(Arrangement({0: Pose2(0.5, 0.3)}), shapes)
    goal = footprints(Arrangement({0: Pose2(0.52, 0.3)}), shapes)
    g = build_dependency_graph(start, goal)
    assert g.edges == frozenset()


def test_footprints_are_keyed_in_id_order():
    shapes = {i: (0.03, 0.02) for i in range(4)}
    arr = Arrangement({3: Pose2(0.8, 0.2), 0: Pose2(0.2, 0.2), 2: Pose2(0.5, 0.4), 1: Pose2(0.3, 0.5)})
    boxes = footprints(arr, shapes)
    assert list(boxes) == [0, 1, 2, 3]
    assert all(boxes[i] == footprint(i, p, shapes) for i, p in arr.poses.items())


# --------------------------------------------------------------- decompose

def test_showcase_decomposition():
    d = decompose(graph(9, SHOWCASE_EDGES))
    assert d.cycles == [[0, 1, 2, 3]]
    assert d.chains == [[6, 5, 4]]
    assert d.isolated == [7]
    assert d.movable_now == [4, 7, 8]
    assert d.complex_sccs == []
    assert d.others == [8]


def test_empty_graph_decomposition():
    d = decompose(graph(5, set()))
    assert d.isolated == [0, 1, 2, 3, 4]
    assert d.movable_now == [0, 1, 2, 3, 4]
    assert d.chains == [] and d.cycles == []


def test_two_disjoint_two_cycles():
    d = decompose(graph(4, {(0, 1), (1, 0), (2, 3), (3, 2)}))
    assert d.cycles == [[0, 1], [2, 3]]
    assert d.movable_now == []
    # cross-check against exhaustive SCC enumeration on the 4-vertex graph
    edges = {(0, 1), (1, 0), (2, 3), (3, 2)}
    reach = {
        v: {w for w in range(4) if _reaches(edges, v, w)} for v in range(4)
    }
    sccs = {frozenset({w for w in reach[v] if v in reach[w]}) for v in range(4)}
    assert {frozenset(c) for c in d.cycles} == {s for s in sccs if len(s) > 1}


def _reaches(edges, a, b, seen=None):
    if a == b:
        return True
    seen = seen or set()
    for i, j in edges:
        if i == a and j not in seen:
            seen.add(j)
            if _reaches(edges, j, b, seen):
                return True
    return False


def test_complex_scc_detected():
    # complete digraph on 3 vertices: 6 edges != 3 vertices -> not a simple cycle
    edges = set(itertools.permutations(range(3), 2))
    d = decompose(graph(3, edges))
    assert d.cycles == []
    assert d.complex_sccs == [[0, 1, 2]]


def test_chain_dangling_into_cycle_is_still_a_path():
    # 4 -> 3 -> 0, with 0 on the 2-cycle {0, 1}: path [4, 3] outside the SCC.
    edges = {(0, 1), (1, 0), (3, 0), (4, 3)}
    d = decompose(graph(5, edges))
    assert d.chains == [[4, 3]]
    assert d.movable_now == [2]
    assert d.isolated == [2]


def test_decomposition_partition_and_movable_properties():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(1, 9)
        edges = {
            (i, j)
            for i in range(n)
            for j in range(n)
            if i != j and rng.random() < 0.25
        }
        g = graph(n, edges)
        d = decompose(g)
        cover = (
            set(d.isolated)
            | {v for c in d.chains for v in c}
            | {v for c in d.cycles for v in c}
            | {v for c in d.complex_sccs for v in c}
            | set(d.others)
        )
        assert cover == set(range(n))
        counted = (
            len(d.isolated)
            + sum(len(c) for c in d.chains)
            + sum(len(c) for c in d.cycles)
            + sum(len(c) for c in d.complex_sccs)
            + len(d.others)
        )
        assert counted == n
        succ = g.successors()
        for v in range(n):
            assert (v in d.movable_now) == (not succ[v])
        for cyc in d.cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                assert (a, b) in edges
        # removing every movable vertex never creates a new cycle
        keep = set(range(n)) - set(d.movable_now)
        sub = DepGraph(
            tuple(sorted(keep)),
            frozenset((i, j) for i, j in edges if i in keep and j in keep),
        )
        before = {frozenset(c) for c in d.cycles} | {
            frozenset(c) for c in d.complex_sccs
        }
        after = {frozenset(c) for c in decompose(sub).cycles} | {
            frozenset(c) for c in decompose(sub).complex_sccs
        }
        assert after <= before


def test_edges_predict_placement_conflicts():
    # an edge (i -> j) means placing i at its goal while j sits at its start collides
    inst = instances.showcase9()
    g = inst.graph()
    for i in inst.ids():
        gb = footprint(i, inst.goal.pose_of(i), inst.shapes)
        for j in inst.ids():
            if i == j:
                continue
            sb = footprint(j, inst.start.pose_of(j), inst.shapes)
            assert overlaps(gb, sb) == ((i, j) in g.edges)


def test_dot_export():
    dot = to_dot(graph(3, {(0, 1), (2, 0)}))
    assert dot.startswith("digraph")
    assert "  0 -> 1;" in dot and "  2 -> 0;" in dot
    assert dot.count("->") == 2


# ------------------------------------------------- scans of what moved

def _calls_to_overlaps(run):
    """`run()`'s result and the (first, second) ids of every `overlaps`
    call `depgraph` made in it, boxes told apart by identity."""
    calls = []
    real = depgraph.overlaps
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(depgraph, "overlaps", lambda a, b: calls.append((a, b)) or real(a, b))
        got = run()
    return got, calls


@st.composite
def _footprint_maps(draw, lo=-0.15, hi=1.15):
    """Boxes keyed in id order (ids with gaps), crowded enough to overlap,
    some reaching outside the 1 x 0.6 workspace."""
    ids = sorted(draw(st.sets(st.integers(0, 30), max_size=9)))
    boxes = {}
    for i in ids:
        pose = Pose2(draw(st.floats(lo, hi)), draw(st.floats(lo, 0.6 * hi)), draw(st.floats(-3.14, 3.14)))
        boxes[i] = box_at(pose, draw(st.floats(0.01, 0.15)), draw(st.floats(0.01, 0.15)))
    return boxes


def full_scan_violations(boxes, workspace):
    """Every violation as (ids it involves, issue), in id order, and the
    id pairs a scan of every pair tests, lower id first."""
    items = list(boxes.items())
    issues, pairs = [], []
    for idx, (i, bi) in enumerate(items):
        if not inside(workspace, bi):
            issues.append(({i}, f"object {i} outside workspace"))
        for j, bj in items[idx + 1 :]:
            pairs.append((i, j))
            if overlaps(bi, bj):
                issues.append(({i, j}, f"objects {i} and {j} overlap"))
    return issues, pairs


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_round_check_matches_the_full_scan_filtered(data):
    boxes = data.draw(_footprint_maps())
    ws = Workspace()
    involving = data.draw(st.one_of(st.none(), st.sets(st.sampled_from(sorted(boxes) or [0]))))
    issues, pairs = full_scan_violations(boxes, ws)
    if involving is not None:
        issues = [(ids, issue) for ids, issue in issues if ids & involving]
        pairs = [(i, j) for i, j in pairs if i in involving or j in involving]
    got, calls = _calls_to_overlaps(lambda: arrangement_violations(boxes, ws, involving))
    assert got == [issue for _, issue in issues]
    ident = {id(b): i for i, b in boxes.items()}
    assert sorted((ident[id(a)], ident[id(b)]) for a, b in calls) == sorted(pairs)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_retest_moved_equals_a_fresh_build(data):
    # move some objects, solve some (they leave the graph): re-testing the
    # edges into the moved objects still left gives the fresh graph
    starts = data.draw(_footprint_maps(0.0, 1.0))
    ids = list(starts)
    goals = {i: box_at(Pose2(data.draw(st.floats(0, 1)), data.draw(st.floats(0, 0.6))), 0.08, 0.05) for i in ids}
    g = build_dependency_graph(starts, goals)
    moved = data.draw(st.sets(st.sampled_from(ids))) if ids else set()
    solved = data.draw(st.sets(st.sampled_from(ids))) if ids else set()
    now = dict(starts)
    for i in moved:
        now[i] = box_at(Pose2(data.draw(st.floats(0, 1)), data.draw(st.floats(0, 0.6))), 0.07, 0.04)
    left = [i for i in ids if i not in solved]
    boxes = {i: now[i] for i in left}
    got, calls = _calls_to_overlaps(lambda: retest_moved(g, boxes, goals, moved))
    assert got == build_dependency_graph(boxes, {i: goals[i] for i in left})
    assert len(calls) == len(set(left) & moved) * (len(left) - 1)
