"""Execute planning sessions, record run traces, re-verify them, and
evaluate runs.

`evaluate` is the one step that makes a report row: the run, its verdict,
the single-arm oracle, and the makespan of its forced-sequential replay.

A trace records each leg's path knots exactly; the verifier and the
renderer read the arms' points off them with their own interpolation.
The verifier replays a trace file against the problem definition using only
the geometric primitives, independent of the planner code paths: finite
numbers, knots that form a path over the leg at no more than unit speed,
gripper events on their arm's path, arm-arm clearance over the whole
continuous leg, pick/place consistency, arrangement feasibility, and exact
goal attainment.  Clearance is certified by conservative advancement:
between knots each arm moves at a constant speed v, so a clearance c above
the threshold holds off it for about (c - threshold) / (v0 + v1), up to the
next knot, and `segment_clearance` runs once per such step.  The start
table is checked once, after the first leg; after that the table changes
only at grasps and placements, and each placement is checked against the
workspace and every object on the table.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

from .baseline import BudgetExceeded, OracleResult, single_arm_optimal_actions
from .depgraph import arrangement_violations
from .geom import Pose2, box_at, dist, inside, overlaps, segment_clearance
from .instances import Instance, instance_hash
from .motion import (
    DT,
    ArmModel,
    InstantiatedSubTask,
    MotionFailure,
    Stage,
    SubTaskInfeasible,
    SyncMotion,
    default_arms,
    plan_motion,
    sequential_round,
)
from .taskplan import PlannerSession, TaskComplete, next_task_plan

TRACE_FORMAT = "sdar-trace/2"


class ValidationFailure(Exception):
    pass


class RoundLimitExceeded(MotionFailure):
    """The run needs more rounds than the cap allows."""


@dataclass
class RunMetrics:
    n: int
    actions: int = 0
    buffers_used: int = 0
    sync_steps: int = 0
    makespan: float = 0.0
    fallback_counts: dict = field(default_factory=dict)
    success: bool = False
    sequence: list[int] = field(default_factory=list)
    failure: Optional[str] = None


@dataclass
class LegRecord:
    index: int
    stage: str
    mode: str
    objs: tuple[Optional[int], Optional[int]]
    angles: tuple[Optional[str], Optional[str]]
    buffer_pose: Optional[Pose2]
    candidates: list[tuple[int, int]]
    duration: float
    knots: list  # per arm: its path's knots, (t, x, y)
    grips: list  # (arm, action, obj, t, point)
    places: list  # (obj, Pose2, kind)


@dataclass
class Trace:
    instance_hash: str
    seed: int
    arms: tuple[ArmModel, ArmModel]
    legs: list[LegRecord] = field(default_factory=list)
    metrics: Optional[RunMetrics] = None


@dataclass
class RunRecord:
    trace: Optional[Trace] = None
    subs: list = field(default_factory=list)


def new_session(instance: Instance, seed: int, arms=None) -> PlannerSession:
    arms = arms or default_arms(instance.workspace)
    return PlannerSession(instance=instance, rng_seed=seed, arms=arms)


def _record_leg(trace, sub, motion, candidates):
    objs = tuple(t.obj for t in sub.tasks)
    angles = tuple(t.angle.value if t.angle else None for t in sub.tasks)
    grips = []
    places = []
    for a, task in enumerate(sub.tasks):
        if task.obj is None:
            continue
        ev = motion.event_times[a]
        if motion.stage == Stage.TO_START:
            grips.append((a, "close", task.obj, ev, task.pick))
        else:
            grips.append((a, "open", task.obj, ev, task.target.xy))
            places.append((task.obj, task.target, "buffer" if task.to_buffer else "goal"))
    trace.legs.append(
        LegRecord(
            index=len(trace.legs),
            stage=motion.stage.value,
            mode=motion.mode.value,
            objs=objs,
            angles=angles,
            buffer_pose=sub.buffer_pose,
            candidates=list(candidates),
            duration=motion.duration,
            knots=[[(t, x, y) for t, (x, y) in path.knots] for path in motion.paths],
            grips=grips,
            places=places,
        )
    )


def _apply_round(session: PlannerSession, sub: InstantiatedSubTask, goal_motion: SyncMotion):
    """Update the session after a round: the arms end where the goal-bound
    leg ends, and each moved object sits at its target."""
    session.ee = [goal_motion.paths[0].end, goal_motion.paths[1].end]
    for task in sub.tasks:
        if task.obj is None:
            continue
        session.current.poses[task.obj] = task.target
        session.removal_sequence.append(task.obj)
        if task.to_buffer:
            session.buffers_used += 1
            session.buffered.add(task.obj)
        else:
            session.remaining.discard(task.obj)
            session.buffered.discard(task.obj)
    session.rounds += 1


def execute(session: PlannerSession, *, record: Optional[RunRecord] = None) -> RunMetrics:
    """Plan rounds until the instance resolves, each one task plan and one
    `plan_motion` call for both legs, and commit each one as it comes.  A
    run that still has work after 2n rounds ends with RoundLimitExceeded."""
    return _commit(session, _planned_rounds(session), record or RunRecord())


def _planned_rounds(session: PlannerSession):
    n = session.instance.n
    while True:
        try:
            plan = next_task_plan(session)
        except TaskComplete:
            return
        if session.rounds >= 2 * n:
            raise RoundLimitExceeded(f"round {session.rounds + 1} exceeds the cap of 2n rounds (n = {n})")
        yield (*plan_motion(plan, session), plan.candidates)


def _replayed_rounds(session: PlannerSession, subs):
    """Recorded sub-tasks on the sequential rung, with no task planning."""
    for sub in subs:
        try:
            start, goal = sequential_round(sub, session.arms, session.ee)
        except SubTaskInfeasible as exc:
            raise MotionFailure(f"forced sub-task failed: {exc}") from exc
        yield sub, start, goal, []


def _commit(session: PlannerSession, rounds, record: RunRecord) -> RunMetrics:
    """Apply each (sub, start, goal, candidates) round, checking the arrangement
    after it and the goal at the end; a MotionFailure is the run's failure."""
    inst = session.instance
    metrics = RunMetrics(n=inst.n)
    trace = record.trace = Trace(instance_hash(inst), session.rng_seed, session.arms)
    fallbacks: dict[str, int] = {}
    checked = False  # whether a round has passed the whole-table check
    try:
        for sub, start, goal, candidates in rounds:
            record.subs.append(sub)
            _record_leg(trace, sub, start, candidates)
            _record_leg(trace, sub, goal, [])
            _apply_round(session, sub, goal)
            for motion in (start, goal):
                fallbacks[motion.mode.value] = fallbacks.get(motion.mode.value, 0) + 1
                metrics.makespan += motion.duration
            # once the table has passed, a round can only break it through
            # the objects it moved
            moved = {task.obj for task in sub.tasks if task.obj is not None} if checked else None
            issues = arrangement_violations(session.current, inst.shapes, inst.workspace, moved)
            if issues:
                raise ValidationFailure(
                    f"infeasible arrangement after round {session.rounds}: {issues}"
                )
            checked = True
    except MotionFailure as exc:
        metrics.failure = str(exc)
    else:
        for i in inst.ids():
            if not session.current.poses[i].almost_equal(inst.goal.pose_of(i), 1e-9):
                raise ValidationFailure(f"object {i} did not end at its goal pose")
        metrics.success = True
    metrics.actions = len(session.removal_sequence)
    metrics.buffers_used = session.buffers_used
    metrics.sync_steps = session.rounds
    metrics.fallback_counts = fallbacks
    metrics.sequence = list(session.removal_sequence)
    trace.metrics = metrics
    return metrics


def run_instance(
    instance: Instance,
    seed: int,
    arms=None,
    *,
    force_sequential: bool = False,
    forced_subs=None,
) -> tuple[RunMetrics, RunRecord]:
    """Plan and execute an instance, or, given `force_sequential=True` and a
    run's `RunRecord.subs` as `forced_subs`, replay them one arm at a time."""
    if bool(force_sequential) != (forced_subs is not None):
        raise ValueError("force_sequential=True and forced_subs are passed together")
    session = new_session(instance, seed, arms)
    rec = RunRecord()
    if forced_subs is None:
        return execute(session, record=rec), rec
    return _commit(session, _replayed_rounds(session, forced_subs), rec), rec


@dataclass
class Evaluation:
    """One run as the paper reports it."""

    metrics: RunMetrics
    record: RunRecord
    verdict: tuple[bool, str]  # verify_trace against the caller's arms
    oracle: Optional[OracleResult]  # None when the oracle's budget is exceeded
    seq_makespan: Optional[float]  # None unless the run and its replay succeed
    plan_s: float  # wall seconds of the planning run alone


def evaluate(instance: Instance, seed: int, arms=None) -> Evaluation:
    """Plan and execute the instance, verify the trace, run the single-arm
    oracle, and replay a solved run's sub-tasks on the sequential rung."""
    t0 = time.perf_counter()
    metrics, record = run_instance(instance, seed, arms)
    plan_s = time.perf_counter() - t0
    verdict = verify_trace(record.trace, instance, arms)
    try:
        oracle = single_arm_optimal_actions(instance)
    except BudgetExceeded:
        oracle = None
    seq_makespan = None
    if metrics.success:
        forced, _ = run_instance(
            instance, seed, arms, force_sequential=True, forced_subs=record.subs
        )
        if forced.success:
            seq_makespan = forced.makespan
    return Evaluation(metrics, record, verdict, oracle, seq_makespan, plan_s)


# -------------------------------------------------------------- trace IO


def _fmt(x: float) -> str:
    return repr(float(x))


def _arms_line(arms) -> dict:
    """What a trace's arms line states of an arm pair: both bases, arm 1's
    reach and gripper radius, and the larger clearance."""
    a1, a2 = arms
    return {
        "base1": a1.base,
        "base2": a2.base,
        "reach": a1.reach,
        "ee_radius": a1.ee_radius,
        "clearance": max(a1.clearance, a2.clearance),
    }


def dumps_trace(trace: Trace) -> str:
    stated = _arms_line(trace.arms)
    lines = [
        TRACE_FORMAT,
        f"instance {trace.instance_hash} seed {trace.seed}",
        "arms "
        f"base1 {_fmt(stated['base1'][0])} {_fmt(stated['base1'][1])} "
        f"base2 {_fmt(stated['base2'][0])} {_fmt(stated['base2'][1])} "
        f"reach {_fmt(stated['reach'])} ee_radius {_fmt(stated['ee_radius'])} "
        f"clearance {_fmt(stated['clearance'])}",
    ]
    for leg in trace.legs:
        cands = ";".join(f"{i},{j}" for i, j in leg.candidates) or "-"
        objs = " ".join("-" if o is None else str(o) for o in leg.objs)
        angles = " ".join(a or "-" for a in leg.angles)
        buf = (
            f"{_fmt(leg.buffer_pose.x)} {_fmt(leg.buffer_pose.y)} {_fmt(leg.buffer_pose.theta)}"
            if leg.buffer_pose
            else "- - -"
        )
        lines.append(
            f"leg {leg.index} stage {leg.stage} mode {leg.mode} objs {objs} "
            f"angles {angles} buffer {buf} candidates {cands} duration {_fmt(leg.duration)}"
        )
        for a, knots in enumerate(leg.knots):
            lines += [f"k {leg.index} {a} {_fmt(t)} {_fmt(x)} {_fmt(y)}" for t, x, y in knots]
        for arm, action, obj, t, point in leg.grips:
            lines.append(
                f"grip {leg.index} {arm} {action} {obj} {_fmt(t)} "
                f"{_fmt(point[0])} {_fmt(point[1])}"
            )
        for obj, pose, kind in leg.places:
            lines.append(
                f"place {leg.index} {obj} {_fmt(pose.x)} {_fmt(pose.y)} {_fmt(pose.theta)} {kind}"
            )
    m = trace.metrics
    if m is not None:
        fb = ",".join(f"{k}={v}" for k, v in sorted(m.fallback_counts.items())) or "-"
        lines.append(
            f"metrics actions {m.actions} buffers_used {m.buffers_used} "
            f"sync_steps {m.sync_steps} makespan {_fmt(m.makespan)} fallbacks {fb} "
            f"success {int(m.success)}"
        )
    return "\n".join(lines) + "\n"


def save_trace(trace: Trace, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_trace(trace))


def loads_trace(text: str) -> Trace:
    """Parse a trace; ValueError if the text is not a well-formed trace,
    naming the first line that is not."""
    lines = [(k, ln) for k, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or lines[0][1] != TRACE_FORMAT:
        raise ValueError(f"expected {TRACE_FORMAT} header")
    if len(lines) < 3:
        raise ValueError(f"malformed {TRACE_FORMAT} trace: it ends before its arms line")
    legs: dict[int, LegRecord] = {}
    try:
        k, line = lines[1]
        hdr = line.split()
        instance, seed = hdr[1], int(hdr[3])
        k, line = lines[2]
        trace = Trace(instance, seed, _parse_arms(line.split()))
        for k, line in lines[3:]:
            _parse_line(line.split(), trace, legs)
    except (IndexError, KeyError, ValueError) as exc:
        detail = str(exc) if isinstance(exc, ValueError) else repr(exc)
        raise ValueError(f"malformed {TRACE_FORMAT} trace: line {k}: {detail}") from exc
    trace.legs = [legs[i] for i in sorted(legs)]
    return trace


def _parse_arms(arm_f: list[str]) -> tuple[ArmModel, ArmModel]:
    """The arm pair of a trace's arms line; fields are looked up by name,
    so a field it does not read (the `dt` older traces carry) is passed
    over."""

    def take(key):
        return float(arm_f[arm_f.index(key) + 1])

    reach, ee_radius, clearance = take("reach"), take("ee_radius"), take("clearance")
    return tuple(
        ArmModel(base=base, reach=reach, ee_radius=ee_radius, clearance=clearance)
        for base in ((float(arm_f[2]), float(arm_f[3])), (float(arm_f[5]), float(arm_f[6])))
    )


def _arm_index(text: str) -> int:
    arm = int(text)
    if arm not in (0, 1):
        raise ValueError(f"arm index {arm} is not 0 or 1")
    return arm


def _parse_line(parts: list[str], trace: Trace, legs: dict[int, LegRecord]) -> None:
    """Add one body line to the trace being parsed."""
    if parts[0] == "leg":
        # leg I stage S mode M objs O1 O2 angles A1 A2 buffer X Y T candidates C duration D
        idx = int(parts[1])
        if idx in legs:
            raise ValueError(f"leg {idx} is given twice")
        objs = tuple(None if v == "-" else int(v) for v in (parts[7], parts[8]))
        angles = tuple(None if v == "-" else v for v in (parts[10], parts[11]))
        buf = None
        if parts[13] != "-":
            buf = Pose2(float(parts[13]), float(parts[14]), float(parts[15]))
        cands = []
        if parts[17] != "-":
            for item in parts[17].split(";"):
                i, j = item.split(",")
                cands.append((int(i), int(j)))
        legs[idx] = LegRecord(
            index=idx,
            stage=parts[3],
            mode=parts[5],
            objs=objs,
            angles=angles,
            buffer_pose=buf,
            candidates=cands,
            duration=float(parts[19]),
            knots=[[], []],
            grips=[],
            places=[],
        )
    elif parts[0] == "k":
        legs[int(parts[1])].knots[_arm_index(parts[2])].append(
            (float(parts[3]), float(parts[4]), float(parts[5]))
        )
    elif parts[0] == "grip":
        if parts[3] not in ("close", "open"):
            raise ValueError(f"grip action {parts[3]!r} is not close or open")
        legs[int(parts[1])].grips.append(
            (
                _arm_index(parts[2]),
                parts[3],
                int(parts[4]),
                float(parts[5]),
                (float(parts[6]), float(parts[7])),
            )
        )
    elif parts[0] == "place":
        legs[int(parts[1])].places.append(
            (
                int(parts[2]),
                Pose2(float(parts[3]), float(parts[4]), float(parts[5])),
                parts[6],
            )
        )
    elif parts[0] == "metrics":
        fb = {}
        if parts[10] != "-":
            for item in parts[10].split(","):
                k, v = item.split("=")
                fb[k] = int(v)
        trace.metrics = RunMetrics(
            n=0,
            actions=int(parts[2]),
            buffers_used=int(parts[4]),
            sync_steps=int(parts[6]),
            makespan=float(parts[8]),
            fallback_counts=fb,
            success=bool(int(parts[12])),
        )


def load_trace(path) -> Trace:
    with open(path, encoding="utf-8") as fh:
        return loads_trace(fh.read())


# ------------------------------------------------------------- verification


# The clearance certificate of `verify_trace` holds the arms' clearance less
# 1e-6 less CERTIFY_FLOOR, and a read must lie CERTIFY_FLOOR above that to
# advance.  So a read below the clearance less 1e-6 fails, and a leg whose
# continuous clearance is at least the arms' clearance passes.  Between
# knots a step covers at least CERTIFY_FLOOR / 2 of the arms' summed path
# length, so a leg of duration d at unit speed takes at most
# 4 * d / CERTIFY_FLOOR reads plus one per knot and one more, and a stretch
# where both arms stand still takes one.  A path may jump by up to 1e-9 at a
# knot (`_path_fault`'s slack), so the bound it certifies is lower by up to
# 1e-9 per knot met at one instant; the floor is four orders of magnitude
# above that.
CERTIFY_FLOOR = 1e-5


def _sample_times(duration: float) -> list[float]:
    """The times at which `iterate_frames` draws a leg: `round(1/DT)` + 1
    evenly spaced over a leg that moves, t = 0 alone over one that does
    not."""
    steps = round(1.0 / DT) if duration > 1e-12 else 0
    return [duration * k / steps for k in range(steps + 1)] if steps else [0.0]


def _path_points(knots, times) -> list[tuple[float, float]]:
    """The points of a path of (t, x, y) knots at nondecreasing `times`, in
    one forward walk.  The point at t lies on the first segment whose end
    time is at least t (the first knot before the path starts, the last one
    after it ends); a segment shorter than 1e-12 in time gives its end."""
    t_first, x_first, y_first = knots[0]
    last = len(knots) - 1
    seg = 1  # index of the segment's end knot
    out = []
    for t in times:
        if t <= t_first:
            out.append((x_first, y_first))
            continue
        while seg <= last and t > knots[seg][0]:
            seg += 1
        if seg > last:
            out.append(knots[-1][1:])
            continue
        t0, x0, y0 = knots[seg - 1]
        t1, x1, y1 = knots[seg]
        if t1 - t0 <= 1e-12:
            out.append((x1, y1))
        else:
            a = (t - t0) / (t1 - t0)
            out.append((x0 + a * (x1 - x0), y0 + a * (y1 - y0)))
    return out


def _uncertified(knots0, knots1, base0, base1, duration: float, threshold: float) -> Optional[str]:
    """Why the two arms' paths over a leg of `duration` are not certified
    to keep `threshold` clearance at every instant, or None.

    Conservative advancement: between two knots of either arm each
    end-effector moves along one segment at a constant speed, and moving a
    segment end by d moves the distance of the two segments by at most d.
    So a clearance c read at t stays above `threshold` + CERTIFY_FLOOR / 2
    until t + (c - threshold - CERTIFY_FLOOR / 2) / (v0 + v1), v being each
    arm's speed on its current segment, or until the next knot of either
    arm, where the next read is; with both arms still it holds until that
    knot.  A read below `threshold` fails, and so does one within
    CERTIFY_FLOOR of it, which keeps every step short of a knot at least
    CERTIFY_FLOOR / (2 * (v0 + v1)) long.  A head-on approach ends in a read
    within the floor, not on `threshold`, where rounding would pick the
    failure."""
    t = 0.0
    k0 = k1 = 1  # each arm's first knot after t
    while True:
        (p0,), (p1,) = _path_points(knots0, (t,)), _path_points(knots1, (t,))
        c = segment_clearance(base0, p0, base1, p1)
        if c < threshold:
            return f"clearance {c:.4f} at t={t:.4f}"
        if c < threshold + CERTIFY_FLOOR:
            return f"clearance not certified at t={t:.4f}"
        k0, v0, next0 = _pace(knots0, k0, t)
        k1, v1, next1 = _pace(knots1, k1, t)
        speed = v0 + v1
        step = (c - threshold - CERTIFY_FLOOR / 2.0) / speed if speed > 0.0 else math.inf
        t = min(t + step, next0, next1)
        if t >= duration:
            return None


def _pace(knots, k: int, t: float) -> tuple[int, float, float]:
    """For a path of (t, x, y) knots at time t: the index of its first knot
    after t (searched from `k` on), the speed of the segment that ends
    there, and that knot's time; past the last knot, the arm stands still
    for ever.  A segment shorter than 1e-12 in time has speed 0:
    `_path_points` puts the arm at its end throughout, a jump of at most
    1e-12 + 1e-9 (`_path_fault`) that CERTIFY_FLOOR covers."""
    while k < len(knots) and knots[k][0] <= t:
        k += 1
    if k == len(knots):
        return k, 0.0, math.inf
    t0, x0, y0 = knots[k - 1]
    t1, x1, y1 = knots[k]
    if t1 - t0 <= 1e-12:
        return k, 0.0, t1
    return k, math.hypot(x1 - x0, y1 - y0) / (t1 - t0), t1


def _non_finite(leg: LegRecord) -> Optional[str]:
    """What in a leg is not a finite number, or None.  Placements need no
    test: Pose2 refuses non-finite values."""
    if not math.isfinite(leg.duration):
        return "duration"
    for a, knots in enumerate(leg.knots):
        if not all(math.isfinite(v) for knot in knots for v in knot):
            return f"arm {a + 1} knot"
    for arm, _, obj, t, (x, y) in leg.grips:
        if not (math.isfinite(t) and math.isfinite(x) and math.isfinite(y)):
            return f"arm {arm + 1} grip of object {obj}"
    return None


def _path_fault(knots, duration: float) -> Optional[str]:
    """Why an arm's finite knots are no path of its leg, or None.  There is
    a knot, their times start at 0, never decrease and end at the leg's
    duration (to within 1e-9), and no segment is faster than the planner's
    unit EE speed."""
    if not knots:
        return "has no knots"
    if knots[0][0] != 0.0:
        return "path does not start at t = 0"
    if abs(knots[-1][0] - duration) > 1e-9:
        return "path does not end at the leg's duration"
    for k, ((t0, x0, y0), (t1, x1, y1)) in enumerate(zip(knots, knots[1:]), 1):
        if t1 < t0:
            return f"knot {k} runs back in time"
        if dist((x0, y0), (x1, y1)) > t1 - t0 + 1e-9:
            return f"knot {k} is reached faster than unit speed"
    return None


def _header_mismatch(trace: Trace, arms) -> Optional[str]:
    """The first field of the trace's arms line that disagrees with `arms`,
    or None."""
    stated = _arms_line(trace.arms)
    for name, want in _arms_line(arms).items():
        if stated[name] != want:
            return f"header {name} {stated[name]!r} differs from the arms' {want!r}"
    return None


def verify_trace(trace: Trace | str, instance: Instance, arms=None) -> tuple[bool, str]:
    """Replay a trace against the instance using only geometric primitives.

    The clearance threshold and the arm bases come from `arms`, the pair the
    run was planned with (default: `default_arms` of the instance's
    workspace), never from the trace, and a trace whose arms line states
    other arms fails.  Each arm's knots must form a path over its leg at no
    more than unit speed, continuing where the previous leg ended, and each
    gripper event must lie on its arm's path at its time, and `_uncertified`
    certifies the clearance over the whole leg.  The start table is checked
    once, after the first leg.  After that the table loses
    objects only at gripper-close events and gains them only at placements,
    and each placement is checked against the workspace and every object on
    the table."""
    if isinstance(trace, str):
        trace = loads_trace(trace)
    if trace.instance_hash != instance_hash(instance):
        return False, "instance hash mismatch"
    arms = arms or default_arms(instance.workspace)
    bad = _header_mismatch(trace, arms)
    if bad:
        return False, bad
    a1, a2 = arms
    threshold = max(a1.clearance, a2.clearance) - 1e-6 - CERTIFY_FLOOR
    shapes = instance.shapes
    ws = instance.workspace

    table: dict[int, Pose2] = {i: instance.start.pose_of(i) for i in instance.ids()}
    # each object's footprint where it last landed, built once per landing
    boxes = {i: box_at(p, *shapes[i]) for i, p in table.items()}
    held: dict[int, Optional[int]] = {0: None, 1: None}
    expect_stage = "tostart"
    prev_end = None

    def table_feasible(where: str) -> Optional[str]:
        on_table = [(i, boxes[i]) for i in sorted(table)]
        for k, (i, bi) in enumerate(on_table):
            if not inside(ws, bi):
                return f"{where}: object {i} outside workspace"
            for j, bj in on_table[k + 1 :]:
                if overlaps(bi, bj):
                    return f"{where}: objects {i} and {j} overlap"
        return None

    for leg in trace.legs:
        where = f"leg {leg.index}"
        if leg.stage != expect_stage:
            return False, f"{where}: expected stage {expect_stage}, got {leg.stage}"
        expect_stage = "togoal" if expect_stage == "tostart" else "tostart"
        bad = _non_finite(leg)
        if bad:
            return False, f"{where}: non-finite {bad}"
        for a in (0, 1):
            bad = _path_fault(leg.knots[a], leg.duration)
            if bad:
                return False, f"{where}: arm {a + 1} {bad}"
        if prev_end is not None:
            for a in (0, 1):
                if dist(leg.knots[a][0][1:], prev_end[a]) > 1e-6:
                    return False, f"{where}: arm {a + 1} path discontinuity"
        for arm, action, obj, t, point in leg.grips:
            if not 0.0 <= t <= leg.duration:
                return False, f"{where}: arm {arm + 1} event time outside the leg"
            if dist(_path_points(leg.knots[arm], (t,))[0], point) > 1e-9:
                return False, f"{where}: arm {arm + 1} event point far from its path"
            if action == "close":
                if obj not in table:
                    return False, f"{where}: grasping object {obj} not on the table"
                if held[arm] is not None:
                    return False, f"{where}: arm {arm + 1} already holds an object"
                if dist(point, table[obj].xy) > 1e-9:
                    return False, f"{where}: arm {arm + 1} closed away from object {obj}"
                del table[obj]
                held[arm] = obj
            else:
                if held[arm] != obj:
                    return False, f"{where}: arm {arm + 1} released unheld object {obj}"
                placed = [p for o, p, _ in leg.places if o == obj]
                if not placed or dist(point, placed[0].xy) > 1e-9:
                    return False, f"{where}: arm {arm + 1} opened away from its placement"
        for obj, pose, kind in leg.places:
            arm = 0 if held[0] == obj else (1 if held[1] == obj else None)
            if arm is None:
                return False, f"{where}: placing object {obj} that is not held"
            box = box_at(pose, *shapes[obj])
            if not inside(ws, box):
                return False, f"{where}: placement of {obj} outside workspace"
            for j in table:
                if overlaps(box, boxes[j]):
                    return False, f"{where}: placement of {obj} overlaps object {j}"
            if kind == "goal" and not pose.almost_equal(instance.goal.pose_of(obj), 1e-9):
                return False, f"{where}: goal placement of {obj} at the wrong pose"
            table[obj] = pose
            boxes[obj] = box
            held[arm] = None
        # the leg's last check, as its cost grows with the leg's duration
        bad = _uncertified(*leg.knots, a1.base, a2.base, leg.duration, threshold)
        if bad:
            return False, f"{where}: {bad}"
        if prev_end is None:  # the first leg checks the whole start table
            bad = table_feasible(where)
            if bad:
                return False, bad
        prev_end = [leg.knots[a][-1][1:] for a in (0, 1)]

    if held[0] is not None or held[1] is not None:
        return False, "run ended with an object still held"
    for i in instance.ids():
        if i not in table or not table[i].almost_equal(instance.goal.pose_of(i), 1e-9):
            return False, f"object {i} not at its goal pose at the end"
    return True, "ok"


def check_frames(trace: Trace, instance: Instance) -> None:
    """ValueError unless iterate_frames can replay the trace: it must record
    a run of this instance, name only the instance's objects, give each arm
    at least one knot in each leg, and give every gripper-open event its
    place line.  Unlike verify_trace it accepts unsolved and invalid runs,
    which are still drawn."""
    if trace.instance_hash != instance_hash(instance):
        raise ValueError(
            f"trace is of instance {trace.instance_hash}, not {instance_hash(instance)}"
        )
    ids = set(instance.ids())
    for leg in trace.legs:
        for a in (0, 1):
            if not leg.knots[a]:
                raise ValueError(f"leg {leg.index}: arm {a + 1} has no knots")
        placed = {obj for obj, _, _ in leg.places}
        named = placed | {obj for _, _, obj, _, _ in leg.grips}
        if not named <= ids:
            raise ValueError(f"leg {leg.index}: object {min(named - ids)} is not in the instance")
        for _, action, obj, _, _ in leg.grips:
            if action == "open" and obj not in placed:
                raise ValueError(f"leg {leg.index}: object {obj} released with no place line")


def iterate_frames(trace: Trace, instance: Instance):
    """Yield (table poses, ee points, carried ids) at each sample time of each
    leg.  An arm carries an object from its gripper-close event on, or until
    its gripper-open event, each to within 1e-12.  Placements are applied at
    their gripper-open event times, so the last frame of a successful trace
    shows the goal scene.  The trace must pass check_frames."""
    table: dict[int, Pose2] = {i: instance.start.pose_of(i) for i in instance.ids()}
    for leg in trace.legs:
        place_of = {obj: pose for obj, pose, _ in leg.places}
        opens = sorted(
            (t, obj) for _, action, obj, t, _ in leg.grips if action == "open"
        )
        times = _sample_times(leg.duration)
        points = [_path_points(knots, times) for knots in leg.knots]
        for k, now in enumerate(times):
            while opens and opens[0][0] <= now + 1e-12:
                _, obj = opens.pop(0)
                table[obj] = place_of[obj]
            carried = [None, None]
            for arm, action, obj, t, _ in leg.grips:
                if (now >= t - 1e-12) == (action == "close"):
                    carried[arm] = obj
                    table.pop(obj, None)
            yield dict(table), [points[0][k], points[1][k]], carried
        for t, obj in opens:
            table[obj] = place_of[obj]
