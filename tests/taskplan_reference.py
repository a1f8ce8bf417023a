"""The round choice read off the full decomposition of the dependency graph:
every round decomposes the graph over the remaining objects, and ranks a
lone sink's partners by the chains `decompose` lists.  `taskplan._choose`
and `taskplan.next_task_plan` must return what these return, for every
graph."""

from sdar.depgraph import DepGraph, decompose
from sdar.taskplan import (
    BUFFER,
    GOAL,
    InconsistentState,
    TaskComplete,
    TaskPlan,
    _recovery_moves,
    mark_buffer_target,
)


def choose_reference(dg: DepGraph) -> tuple[TaskPlan, list[int]]:
    """The round's plan and the objects movable now, from `decompose(dg)`."""
    decomp = decompose(dg)
    movable = decomp.movable_now
    succ = dg.successors()

    if len(movable) >= 2:
        cands = [
            (movable[a], movable[b])
            for a in range(len(movable))
            for b in range(a + 1, len(movable))
        ]
        return TaskPlan(candidates=cands), movable

    if len(movable) == 1:
        m = movable[0]
        chain_len = {v: len(c) for c in decomp.chains for v in c}
        partners = sorted(
            (j for j, out in succ.items() if out == [m]),
            key=lambda j: (-chain_len.get(j, 1), j),
        )
        if partners:
            return TaskPlan(candidates=[(m, j) for j in partners]), movable

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
        return TaskPlan(singles=[(movable[0], GOAL)]), movable

    raise InconsistentState(f"no resolvable structure; edges={sorted(dg.edges)}")


def task_plan_reference(session) -> TaskPlan:
    """`next_task_plan` with the round chosen by `choose_reference`."""
    if not session.remaining:
        raise TaskComplete
    if len(session.remaining) == 1:
        (obj,) = session.remaining
        plan, movable = TaskPlan(singles=[(obj, GOAL)]), [obj]
    else:
        plan, movable = choose_reference(session.graph_over_remaining())
    plan.singles += _recovery_moves(plan, set(movable), session.buffered)
    return plan
