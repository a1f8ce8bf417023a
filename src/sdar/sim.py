"""Plan runs, replay them one arm at a time, record and re-verify their
traces, and evaluate runs.

`evaluate` is the one step that makes a report row: the run, its verdict,
the single-arm oracle, and the makespan of its forced-sequential replay.
A run's trace is its record: `_metrics` reads its metrics off the legs.
Only a planned run holds a planner session: it applies and checks each
round once the round is recorded.  The replay walks the recorded sub-tasks
from the arms' retract points and checks no round again.  The planned run,
the verifier and the replay of a row each name the instance by its digest
(`instances.instance_hash`), which the `Instance` computes once and all
three share.

A path is a list of (t, x, y) knots, and a sub-task its two arms'
`motion.ArmTask`s, as in the planner.  A trace records each leg's knots
exactly (its parity says whether it grasps or places), and the verifier
and the renderer read the arms' points off them with `geom.PathWalker`.  The verifier (`verify_trace`) replays
a trace file against the problem definition using only the geometric
primitives, independent of the planner code paths, from finite numbers to
a metrics line that `_metrics` reads off the legs again; `_uncertified`
certifies arm-arm clearance over each whole leg by conservative advancement.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Optional

from .baseline import BudgetExceeded, OracleResult, single_arm_optimal_actions
from .depgraph import arrangement_violations
from .geom import PathWalker, Pose2, box_at, dist, inside, overlaps, segment_clearance
from .instances import Instance, Layout, instance_hash
from .motion import (
    DT,
    ArmModel,
    GraspAngle,
    Mode,
    MotionFailure,
    SubTaskInfeasible,
    default_arms,
    plan_motion,
    sequential_round,
)
from .taskplan import PlannerSession, TaskComplete, check_arm_pair, next_task_plan

TRACE_FORMAT = "sdar-trace/3"


class ValidationFailure(Exception):
    pass


class RoundLimitExceeded(MotionFailure):
    """The run needs more rounds than the cap allows."""


@dataclass
class RunMetrics:
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
    """One leg of a round: even legs grasp (start-bound), odd legs place
    (goal-bound).  Its objects are those of its grips."""

    index: int
    mode: str
    angles: tuple[Optional[str], Optional[str]]
    candidates: list[tuple[int, int]]
    duration: float
    knots: list  # per arm: its path's knots, (t, x, y)
    grips: list  # (arm, action, obj, t)
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
    trace: Trace
    subs: list = field(default_factory=list)


def new_session(instance: Instance, seed: int, arms=None) -> PlannerSession:
    arms = arms or default_arms(instance.workspace)
    return PlannerSession(instance=instance, rng_seed=seed, arms=arms)


def _record_leg(trace, sub, motion, candidates):
    angles = tuple(t.angle.value if t.angle else None for t in sub)
    grasp = len(trace.legs) % 2 == 0
    grips = []
    places = []
    for a, task in enumerate(sub):
        if task.obj is None:
            continue
        grips.append((a, "close" if grasp else "open", task.obj, motion.event_times[a]))
        if not grasp:
            places.append((task.obj, task.target, "buffer" if task.to_buffer else "goal"))
    trace.legs.append(
        LegRecord(
            index=len(trace.legs),
            mode=motion.mode.value,
            angles=angles,
            candidates=list(candidates),
            duration=motion.duration,
            knots=list(motion.paths),
            grips=grips,
            places=places,
        )
    )


def _planned_rounds(session: PlannerSession):
    """Plan rounds until the instance resolves, each one task plan and one
    `plan_motion` call for both legs, and apply each once it is recorded.
    After each round the table is checked: whole after the first, then only
    at the moved objects, which alone can break a table that passed; at the
    end, every object at its goal.  A run that still has work after 2n
    rounds ends with RoundLimitExceeded."""
    inst = session.instance
    n = inst.n
    for done in itertools.count():
        try:
            plan = next_task_plan(session)
        except TaskComplete:
            break
        if done >= 2 * n:
            raise RoundLimitExceeded(f"round {done + 1} exceeds the cap of 2n rounds (n = {n})")
        sub, start, goal = plan_motion(plan, session)
        yield sub, start, goal, plan.candidates
        session.apply_round(sub, goal)
        moved = {task.obj for task in sub if task.obj is not None} if done else None
        issues = arrangement_violations(session.boxes, inst.workspace, moved)
        if issues:
            raise ValidationFailure(f"infeasible arrangement after round {done + 1}: {issues}")
    for i in inst.ids():
        if not session.boxes[i].center.almost_equal(inst.goal.pose_of(i)):
            raise ValidationFailure(f"object {i} did not end at its goal pose")


def _replayed_rounds(arms, subs):
    """Recorded sub-tasks on the sequential rung from the arms' retract
    points, with no task planning and no check: the planned run placed the
    same objects at the same targets and checked each of those rounds."""
    ee = [arms[0].retract, arms[1].retract]
    for sub in subs:
        try:
            start, goal = sequential_round(sub, arms, ee)
        except SubTaskInfeasible as exc:
            raise MotionFailure(f"forced sub-task failed: {exc}") from exc
        yield sub, start, goal, []
        ee = [knots[-1][1:] for knots in goal.paths]


def _commit(trace: Trace, rounds) -> tuple[RunMetrics, RunRecord]:
    """Record each (sub, start, goal, candidates) round into the trace; a
    MotionFailure is the run's failure.  The run's metrics are read off the
    legs it recorded."""
    record = RunRecord(trace)
    failure = None
    try:
        for sub, start, goal, candidates in rounds:
            record.subs.append(sub)
            _record_leg(trace, sub, start, candidates)
            _record_leg(trace, sub, goal, [])
    except MotionFailure as exc:
        failure = str(exc)
    metrics = trace.metrics = _metrics(trace.legs, failure)
    return metrics, record


def _metrics(legs: list[LegRecord], failure: Optional[str]) -> RunMetrics:
    """The metrics of a run with these legs, which succeeded unless it has a
    `failure`: a place line is an action, a leg pair a round."""
    places = [place for leg in legs for place in leg.places]
    makespan, modes = 0.0, {}
    for leg in legs:  # a running sum in leg order (sum() compensates on 3.12+)
        makespan += leg.duration
        modes[leg.mode] = modes.get(leg.mode, 0) + 1
    return RunMetrics(
        actions=len(places),
        buffers_used=sum(kind == "buffer" for _, _, kind in places),
        sync_steps=len(legs) // 2,
        makespan=makespan,
        fallback_counts=modes,
        success=failure is None,
        sequence=[obj for obj, _, _ in places],
        failure=failure,
    )


def run_instance(
    instance: Instance,
    seed: int,
    arms=None,
    *,
    force_sequential: bool = False,
    forced_subs=None,
) -> tuple[RunMetrics, RunRecord]:
    """Plan and execute an instance, or, given `force_sequential=True` and a
    run's `RunRecord.subs` as `forced_subs`, replay them one arm at a time
    (`_replayed_rounds`), with no planner session and no round check."""
    if bool(force_sequential) != (forced_subs is not None):
        raise ValueError("force_sequential=True and forced_subs are passed together")
    arms = arms or default_arms(instance.workspace)
    trace = Trace(instance_hash(instance), seed, arms)
    if forced_subs is None:
        return _commit(trace, _planned_rounds(new_session(instance, seed, arms)))
    check_arm_pair(arms)
    return _commit(trace, _replayed_rounds(arms, forced_subs))


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
    oracle, and replay a solved run's sub-tasks on the sequential rung,
    which re-checks none of the rounds the run checked."""
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


# each trace line kind, after the TRACE_FORMAT line: the header, the arms
# line, then per leg its leg line, knots, grips and places, and last metrics
HEADER = Layout("instance _ seed _")
ARMS = Layout("arms base1 _ _ base2 _ _ reach _ ee_radius _ clearance _")
LEG = Layout("leg _ mode _ angles _ _ candidates _ duration _")
KNOT = Layout("k _ _ _ _ _")
GRIP = Layout("grip _ _ _ _ _")
PLACE = Layout("place _ _ _ _ _ _")
METRICS = Layout("metrics actions _ buffers_used _ sync_steps _ makespan _ fallbacks _ success _")
# the body line kinds, by keyword
LAYOUTS = {layout.kind: layout for layout in (LEG, KNOT, GRIP, PLACE, METRICS)}


def _arms_line(arms) -> dict:
    """What a trace's arms line states of an arm pair: both bases, and the
    reach, gripper radius and clearance the two arms share."""
    a1, a2 = arms
    return {
        "base1": a1.base,
        "base2": a2.base,
        "reach": a1.reach,
        "ee_radius": a1.ee_radius,
        "clearance": a1.clearance,
    }


def dumps_trace(trace: Trace) -> str:
    """The trace as text, each line filled into its kind's layout; every
    number that is not a count or an index is written as the `repr` of its
    float.  ValueError if the arms line would misstate arm 2: its reach,
    ee_radius or clearance is written as other text than arm 1's."""
    for name in ("reach", "ee_radius", "clearance"):
        v1, v2 = (repr(float(getattr(arm, name))) for arm in trace.arms)
        if v1 != v2:
            raise ValueError(f"the arms differ in {name}: {v1} and {v2}")
    stated = _arms_line(trace.arms)
    shared = stated["reach"], stated["ee_radius"], stated["clearance"]
    arms = (*stated["base1"], *stated["base2"], *shared)
    lines = [
        TRACE_FORMAT,
        HEADER.format(trace.instance_hash, trace.seed),
        ARMS.format(*map(float, arms)),
    ]
    leg_line, knot, grip, place = LEG.format, KNOT.format, GRIP.format, PLACE.format
    for leg in trace.legs:
        i = leg.index
        cands = ";".join(f"{a},{b}" for a, b in leg.candidates) or "-"
        angle1, angle2 = (a or "-" for a in leg.angles)
        lines.append(leg_line(i, leg.mode, angle1, angle2, cands, float(leg.duration)))
        for a, knots in enumerate(leg.knots):
            lines += [knot(i, a, float(t), float(x), float(y)) for t, x, y in knots]
        for arm, action, obj, t in leg.grips:
            lines.append(grip(i, arm, action, obj, float(t)))
        for obj, pose, kind in leg.places:
            lines.append(place(i, obj, float(pose.x), float(pose.y), float(pose.theta), kind))
    m = trace.metrics
    if m is not None:
        fb = ",".join(f"{k}={v}" for k, v in sorted(m.fallback_counts.items())) or "-"
        lines.append(
            METRICS.format(
                m.actions, m.buffers_used, m.sync_steps, float(m.makespan), fb, int(m.success)
            )
        )
    return "\n".join(lines) + "\n"


def save_trace(trace: Trace, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_trace(trace))


def loads_trace(text: str) -> Trace:
    """Parse a trace; ValueError if the text is not a well-formed trace,
    naming the first line that is not.  Every line must be laid out as its
    kind's layout, with each count, index and seed spelled as `str(int)`
    writes it and every other number as `repr(float)` does, and a metrics
    line, if any, must be the last line.  Its legs are given in index order
    from 0, and a knot, grip or place line names the leg given last."""
    lines = [(k, ln) for k, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or lines[0][1] != TRACE_FORMAT:
        raise ValueError(f"expected {TRACE_FORMAT} header")
    if len(lines) < 3:
        raise ValueError(f"malformed {TRACE_FORMAT} trace: it ends before its arms line")
    try:
        k, line = lines[1]
        instance, text = HEADER.read(line.split())
        seed = int(text)
        if str(seed) != text:
            raise ValueError(f"header seed {text!r} is not an int as str(int) writes one")
        k, line = lines[2]
        values = ARMS.read(line.split())
        x1, y1, x2, y2, reach, ee_radius, clearance = map(_float, ARMS_FIELDS, values)
        arms = tuple(
            ArmModel(base=base, reach=reach, ee_radius=ee_radius, clearance=clearance)
            for base in ((x1, y1), (x2, y2))
        )
        trace = Trace(instance, seed, arms)
        for k, line in lines[3:]:
            if trace.metrics is not None:
                raise ValueError("a line follows the metrics line")
            _parse_line(line.split(), trace)
    except ValueError as exc:
        raise ValueError(f"malformed {TRACE_FORMAT} trace: line {k}: {exc}") from exc
    return trace


def _arm_index(text: str) -> int:
    if text not in ("0", "1"):
        raise ValueError(f"arm index {text} is not 0 or 1")
    return int(text)


# the values a trace's enumerated fields may take
MODES = tuple(m.value for m in Mode)
ANGLES = tuple(a.value for a in GraspAngle)  # or "-" for an idle arm
PLACE_KINDS = ("goal", "buffer")
# the names the arms line's values go by in errors
ARMS_FIELDS = [f"arms {name}" for name in "base1 base1 base2 base2 reach ee_radius clearance".split()]


def _one_of(field: str, value: str, allowed: tuple[str, ...]) -> str:
    if value not in allowed:
        raise ValueError(f"{field} {value!r} is not one of {', '.join(allowed)}")
    return value


def _count(field: str, text: str) -> int:
    """The count `text`, ValueError naming `field` unless `str(int)` spells it so."""
    if text.isascii() and text.isdigit() and str(int(text)) == text:
        return int(text)
    raise ValueError(f"{field} {text!r} is not a count as str(int) writes one")


def _float(field: str, text: str) -> float:
    """The float `text`, ValueError naming `field` unless `repr(float)` spells it so."""
    try:
        if repr(value := float(text)) == text:
            return value
    except ValueError:
        pass
    raise ValueError(f"{field} {text!r} is not a float as repr(float) writes one")


def _parse_line(parts: list[str], trace: Trace) -> None:
    """Add one body line to the trace being parsed."""
    kind = _one_of("line kind", parts[0], tuple(LAYOUTS))
    values = LAYOUTS[kind].read(parts)
    legs = trace.legs
    if kind in ("k", "grip", "place"):  # a line of the leg given last
        leg, *values = values
        if _count(f"{kind} leg", leg) != len(legs) - 1:
            raise ValueError(f"{kind} leg {leg} is not the leg given last")
        leg = legs[-1]
    if kind == "k":
        arm, t, x, y = values
        knot = _float("k t", t), _float("k x", x), _float("k y", y)
        leg.knots[_arm_index(arm)].append(knot)
    elif kind == "leg":
        idx, mode, angle1, angle2, cands_text, duration = values
        idx = _count("leg index", idx)
        if idx < len(legs):
            raise ValueError(f"leg {idx} is given twice")
        if idx != len(legs):
            raise ValueError(f"expected leg {len(legs)}, got leg {idx}")
        angles = tuple(None if a == "-" else _one_of("angle", a, ANGLES) for a in (angle1, angle2))
        cands = []
        if cands_text != "-":
            for item in cands_text.split(";"):
                i, j = item.split(",")
                cands.append((_count("leg candidate", i), _count("leg candidate", j)))
        leg = LegRecord(
            index=idx,
            mode=_one_of("leg mode", mode, MODES),
            angles=angles,
            candidates=cands,
            duration=_float("leg duration", duration),
            knots=[[], []],
            grips=[],
            places=[],
        )
        legs.append(leg)
    elif kind == "grip":
        arm, action, obj, t = values
        if action not in ("close", "open"):
            raise ValueError(f"grip action {action!r} is not close or open")
        grip = _arm_index(arm), action, _count("grip object", obj), _float("grip t", t)
        leg.grips.append(grip)
    elif kind == "place":
        obj, x, y, theta, place_kind = values
        pose = Pose2(_float("place x", x), _float("place y", y), _float("place theta", theta))
        place_kind = _one_of("place kind", place_kind, PLACE_KINDS)
        leg.places.append((_count("place object", obj), pose, place_kind))
    else:
        actions, buffers_used, sync_steps, makespan, fallbacks, success = values
        fb = {}
        if fallbacks != "-":
            for item in fallbacks.split(","):
                mode, _, count = item.partition("=")
                if _one_of("metrics fallback mode", mode, MODES) in fb:
                    raise ValueError(f"metrics fallback mode {mode!r} is given twice")
                fb[mode] = _count(f"metrics fallbacks {mode}", count)
        trace.metrics = RunMetrics(
            actions=_count("metrics actions", actions),
            buffers_used=_count("metrics buffers_used", buffers_used),
            sync_steps=_count("metrics sync_steps", sync_steps),
            makespan=_float("metrics makespan", makespan),
            fallback_counts=fb,
            success=_one_of("metrics success", success, ("0", "1")) == "1",
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
    failure.  A segment shorter than 1e-12 in time has speed 0 and puts the
    arm at its end throughout, a jump of at most 1e-12 + 1e-9
    (`_path_fault`) that CERTIFY_FLOOR covers.  t never decreases, so each
    arm's walker reads on."""
    walk0, walk1 = PathWalker(knots0), PathWalker(knots1)
    t = 0.0
    while True:
        c = segment_clearance(base0, walk0.point(t), base1, walk1.point(t))
        if c < threshold:
            return f"clearance {c:.4f} at t={t:.4f}"
        if c < threshold + CERTIFY_FLOOR:
            return f"clearance not certified at t={t:.4f}"
        v0, next0 = walk0.pace(t)
        v1, next1 = walk1.pace(t)
        speed = v0 + v1
        step = (c - threshold - CERTIFY_FLOOR / 2.0) / speed if speed > 0.0 else math.inf
        t = min(t + step, next0, next1)
        if t >= duration:
            return None


def _non_finite(leg: LegRecord) -> Optional[str]:
    """What in a leg is not a finite number, or None.  Placements need no
    test: Pose2 refuses non-finite values."""
    if not math.isfinite(leg.duration):
        return "duration"
    for a, knots in enumerate(leg.knots):
        if not all(math.isfinite(v) for knot in knots for v in knot):
            return f"arm {a + 1} knot"
    for arm, _, obj, t in leg.grips:
        if not math.isfinite(t):
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
    other arms fails; ValueError if the two arms of `arms` differ in reach,
    ee_radius or clearance, which an arms line states once for both.  Each
    arm's knots must form a path over its leg at no more than unit speed,
    continuing where the previous leg ended, and `_uncertified` certifies
    the clearance over the whole leg.  Legs are indexed by position from 0,
    even legs only close grippers and odd legs only open them; at each event the arm's
    point on its path must lie on the object it closes on or the placement
    it opens at, and each placement needs an open of its object by the arm
    holding it on the same leg.  The start table is checked once, after the
    first leg.  After that the table loses objects only at gripper-close
    events and gains them only at placements, and each placement is checked
    against the workspace and every object on the table.  A metrics line, checked last,
    must state a solved run with the trace's legs."""
    if isinstance(trace, str):
        trace = loads_trace(trace)
    arms = arms or default_arms(instance.workspace)
    check_arm_pair(arms)
    if trace.instance_hash != instance_hash(instance):
        return False, "instance hash mismatch"
    bad = _header_mismatch(trace, arms)
    if bad:
        return False, bad
    a1, a2 = arms
    threshold = a1.clearance - 1e-6 - CERTIFY_FLOOR
    shapes = instance.shapes
    ws = instance.workspace

    # each on-table object's footprint, built once per landing
    boxes = {i: box_at(instance.start.pose_of(i), *shapes[i]) for i in instance.ids()}
    held: dict[int, Optional[int]] = {0: None, 1: None}
    prev_end = None

    def table_feasible(where: str) -> Optional[str]:
        on_table = sorted(boxes.items())
        for k, (i, bi) in enumerate(on_table):
            if not inside(ws, bi):
                return f"{where}: object {i} outside workspace"
            for j, bj in on_table[k + 1 :]:
                if overlaps(bi, bj):
                    return f"{where}: objects {i} and {j} overlap"
        return None

    for position, leg in enumerate(trace.legs):
        if leg.index != position:
            return False, f"expected leg {position}, got leg {leg.index}"
        where = f"leg {leg.index}"
        grasping = leg.index % 2 == 0
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
        for arm, action, obj, t in leg.grips:
            if (action == "close") != grasping:
                kind = "grasp" if grasping else "place"
                return False, f"{where}: arm {arm + 1} {action}s on a {kind} leg"
            if not 0.0 <= t <= leg.duration:
                return False, f"{where}: arm {arm + 1} event time outside the leg"
            point = PathWalker(leg.knots[arm]).point(t)
            if action == "close":
                if obj not in boxes:
                    return False, f"{where}: grasping object {obj} not on the table"
                if held[arm] is not None:
                    return False, f"{where}: arm {arm + 1} already holds an object"
                if dist(point, boxes[obj].center.xy) > 1e-9:
                    return False, f"{where}: arm {arm + 1} closed away from object {obj}"
                del boxes[obj]
                held[arm] = obj
            else:
                if held[arm] != obj:
                    return False, f"{where}: arm {arm + 1} released unheld object {obj}"
                placed = [p for o, p, _ in leg.places if o == obj]
                if not placed or dist(point, placed[0].xy) > 1e-9:
                    return False, f"{where}: arm {arm + 1} opened away from its placement"
        opened = {(arm, obj) for arm, action, obj, _ in leg.grips if action == "open"}
        for obj, pose, kind in leg.places:
            arm = 0 if held[0] == obj else (1 if held[1] == obj else None)
            if arm is None:
                return False, f"{where}: placing object {obj} that is not held"
            if (arm, obj) not in opened:
                return False, f"{where}: arm {arm + 1} places object {obj} with no open"
            box = box_at(pose, *shapes[obj])
            if not inside(ws, box):
                return False, f"{where}: placement of {obj} outside workspace"
            for j, other in boxes.items():
                if overlaps(box, other):
                    return False, f"{where}: placement of {obj} overlaps object {j}"
            if kind == "goal" and not pose.almost_equal(instance.goal.pose_of(obj)):
                return False, f"{where}: goal placement of {obj} at the wrong pose"
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
        if i not in boxes or not boxes[i].center.almost_equal(instance.goal.pose_of(i)):
            return False, f"object {i} not at its goal pose at the end"
    if trace.metrics is not None:
        derived = _metrics(trace.legs, None)
        for name in ("actions", "buffers_used", "sync_steps", "makespan", "fallback_counts", "success"):
            stated, want = getattr(trace.metrics, name), getattr(derived, name)
            if stated != want:
                return False, f"metrics {name} {stated!r} disagrees with the legs' {want!r}"
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
        named = placed | {obj for _, _, obj, _ in leg.grips}
        if not named <= ids:
            raise ValueError(f"leg {leg.index}: object {min(named - ids)} is not in the instance")
        for _, action, obj, _ in leg.grips:
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
        opens = sorted((t, obj) for _, action, obj, t in leg.grips if action == "open")
        walk0, walk1 = map(PathWalker, leg.knots)
        for now in _sample_times(leg.duration):
            while opens and opens[0][0] <= now + 1e-12:
                _, obj = opens.pop(0)
                table[obj] = place_of[obj]
            carried = [None, None]
            for arm, action, obj, t in leg.grips:
                if (now >= t - 1e-12) == (action == "close"):
                    carried[arm] = obj
                    table.pop(obj, None)
            yield dict(table), [walk0.point(now), walk1.point(now)], carried
        for t, obj in opens:
            table[obj] = place_of[obj]
