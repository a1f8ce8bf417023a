"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each.  Run with `pytest tests/test_acceptance.py -v -s`."""

import hashlib
import random
import time

import pytest

from sdar import instances, sim
from sdar.baseline import min_fvs, single_arm_optimal_actions
from sdar.cli import main as cli_main
from sdar.depgraph import DepGraph, decompose, footprint
from sdar.geom import overlaps
from sdar.motion import (
    DT,
    ArmTask,
    Mode,
    Pose2,
    Stage,
    SubTaskInfeasible,
    SyncMotion,
    default_arms,
    plan_sync,
    sequential_fallback,
    untangle,
)

from fine_grid import least_clearance
from fvs_reference import naive_min_fvs
from path_reference import reference_point

ARMS = default_arms()

# sha256 prefix of the concatenated default-suite traces at plan seed 42, as
# sdar-trace/1 text (`_v1_text`), as sdar-trace/2 text (`_v2_text`) and as
# written, and their total action count: any change to a plan changes one of
# them.  The sdar-trace/1 and /2 digests read the same plans in the older
# formats; pinned across each format change, they showed it moved no plan.
BEHAVIOUR_DIGEST = "9c2f5cea024e"
BEHAVIOUR_DIGEST_V2 = "08708c18c83a"
BEHAVIOUR_DIGEST_V3 = "0820b063e381"
BEHAVIOUR_ACTIONS = 1889
# the same over the 20 crowded tables gen_random(n, s), n = 14..22 even and
# s = 0..3, per plan seed: (sdar-trace/1 digest, sdar-trace/2 digest, digest,
# actions, solved).  Their recovery moves are where the one-arm move list is
# used most.
DENSE_DIGESTS = {
    42: ("cc7d9d8d4470", "9429272fc721", "369711d5ba62", 362, 17),
    1: ("f2bb7007ab66", "394baaf396d6", "f5db9c6ed32d", 322, 14),
    2: ("c24dfb581cef", "155d08f78c2c", "d62f852ef339", 341, 16),
    3: ("941dbeee3d67", "671e500255ce", "ceec837d72a7", 350, 15),
}
# sha256 prefix of the concatenated traces, as written, of the solved
# default-suite runs' forced-sequential replays at plan seed 42, their total
# action count and the number of replays: any moved replay leg changes them
REPLAY_DIGEST = ("95b935c2c0b5", 1889, 200)


def _v1_samples(leg) -> list[str]:
    """A leg's sample lines as sdar-trace/1 wrote them: `round(1/DT)` + 1
    samples per arm (t = 0 alone for a leg that does not move), at the
    arm's points by `reference_point`, each with the object the arm holds then:
    from its gripper-close event on a start-bound (even) leg, until its
    gripper-open event on a goal-bound (odd) leg, each to within 1e-12."""
    steps = round(1.0 / DT) if leg.duration > 1e-12 else 0
    times = [leg.duration * k / steps for k in range(steps + 1)] if steps else [0.0]
    lines = []
    for a in (0, 1):
        grip = next(((obj, t) for arm, _, obj, t in leg.grips if arm == a), None)
        for t in times:
            x, y = reference_point(leg.knots[a], t)
            if grip is None:
                held = None
            elif leg.index % 2 == 0:
                held = grip[0] if t >= grip[1] - 1e-12 else None
            else:
                held = grip[0] if t < grip[1] - 1e-12 else None
            lines.append(f"s {leg.index} {a} {t!r} {x!r} {y!r} {'-' if held is None else held}")
    return lines


def _v2_text(trace, inst) -> str:
    """The trace as sdar-trace/2 text: each leg line states its stage (the
    leg's parity), its objects (its grips') and its round's buffer pose (the
    `buffer` place of the round's goal-bound leg), and each grip line its
    point: the object's last pose at a close, its placement at an open."""
    table = {i: inst.start.pose_of(i) for i in inst.ids()}
    lines = []
    for line in sim.dumps_trace(trace).splitlines():
        parts = line.split()
        if line == sim.TRACE_FORMAT:
            lines.append("sdar-trace/2")
        elif parts[0] == "leg":
            leg = trace.legs[int(parts[1])]
            objs = ["-", "-"]
            for arm, _, obj, _ in leg.grips:
                objs[arm] = str(obj)
            goal_leg = trace.legs[leg.index | 1]
            buf = next((pose for _, pose, kind in goal_leg.places if kind == "buffer"), None)
            buf = f"{buf.x!r} {buf.y!r} {buf.theta!r}" if buf else "- - -"
            stage = (Stage.TO_START, Stage.TO_GOAL)[leg.index % 2].value
            lines.append(
                f"leg {leg.index} stage {stage} mode {parts[3]} objs {' '.join(objs)} "
                f"angles {parts[5]} {parts[6]} buffer {buf} "
                f"candidates {parts[8]} duration {parts[10]}"
            )
        elif parts[0] == "grip":
            leg, obj = trace.legs[int(parts[1])], int(parts[4])
            if parts[3] == "open":
                table[obj] = next(pose for o, pose, _ in leg.places if o == obj)
            x, y = table[obj].xy
            lines.append(f"{line} {x!r} {y!r}")
        else:
            lines.append(line)
    return "\n".join(lines) + "\n"


def _v1_text(trace, v2_text: str) -> str:
    """The trace as sdar-trace/1 text: its sdar-trace/2 text with the knot
    lines turned into sample lines, and the `dt` field sdar-trace/1 wrote at
    the end of the arms line."""
    lines = []
    for line in v2_text.splitlines():
        if line == "sdar-trace/2":
            lines.append("sdar-trace/1")
        elif line.startswith("arms "):
            lines.append(f"{line} dt {DT!r}")
        elif line.startswith("leg "):
            lines += [line, *_v1_samples(trace.legs[int(line.split()[1])])]
        elif not line.startswith("k "):
            lines.append(line)
    return "\n".join(lines) + "\n"


def _digests(runs) -> tuple[str, str, str]:
    """(sdar-trace/1, sdar-trace/2, sdar-trace/3 digest) of the concatenated
    traces of the (trace, instance) runs."""
    v1, v2, v3 = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for trace, inst in runs:
        v2_text = _v2_text(trace, inst)
        v1.update(_v1_text(trace, v2_text).encode())
        v2.update(v2_text.encode())
        v3.update(sim.dumps_trace(trace).encode())
    return v1.hexdigest()[:12], v2.hexdigest()[:12], v3.hexdigest()[:12]


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def suite_results():
    """One full run of the default suite, reused across criteria."""
    results = []
    for inst in instances.default_suite():
        metrics, record = sim.run_instance(inst, 42)
        verified, msg = sim.verify_trace(record.trace, inst)
        results.append((inst, metrics, record, verified, msg))
    return results


def test_criterion_1_dependency_graph_exactness():
    t0 = time.time()
    rng = random.Random(1)
    checked = 0
    for k in range(500):
        n = rng.choice(range(4, 13))
        inst = instances.gen_random(n, 10_000 + k)
        got = set(inst.graph().edges)
        brute = set()
        for i in inst.ids():
            gb = footprint(i, inst.goal.pose_of(i), inst.shapes)
            for j in inst.ids():
                if i != j and overlaps(gb, footprint(j, inst.start.pose_of(j), inst.shapes)):
                    brute.add((i, j))
        assert got == brute, f"edge mismatch on R{n} seed {10_000 + k}"
        checked += 1
    elapsed = time.time() - t0
    _report(1, "dependency-graph exactness", checked == 500 and elapsed < 10.0,
            f"({checked} instances, {elapsed:.1f}s)")


def test_criterion_2_running_example_reproduction():
    inst = instances.showcase9()
    d = decompose(inst.graph())
    structure_ok = (
        d.cycles == [[0, 1, 2, 3]]
        and d.chains == [[6, 5, 4]]
        and d.isolated == [7]
    )
    metrics, record = sim.run_instance(inst, 0)
    verified, _ = sim.verify_trace(record.trace, inst)
    run_ok = (
        metrics.success
        and verified
        and metrics.actions == 10
        and metrics.buffers_used == 1
    )
    _report(2, "running-example reproduction", structure_ok and run_ok,
            f"(actions={metrics.actions}, buffers={metrics.buffers_used})")


def test_criterion_3_two_cycle_swap():
    bad = []
    for seed in range(100):
        inst = instances.gen_single_cycle(2, seed)
        metrics, _ = sim.run_instance(inst, seed)
        if not (metrics.success and metrics.actions == 2 and metrics.buffers_used == 0):
            bad.append(seed)
    _report(3, "2-cycle dual-arm swap", not bad, f"(100 seeds, bad={bad})")


def test_criterion_4_action_count_dominance():
    t0 = time.time()
    cases = (
        [instances.gen_single_cycle(n, 0) for n in range(2, 11)]
        + [instances.gen_double_cycle(n, 0) for n in range(4, 13)]
        + [instances.gen_mixed(s) for s in range(10)]
    )
    violations = []
    for inst in cases:
        oracle = single_arm_optimal_actions(inst)
        assert oracle.assumption_holds, inst.label
        metrics, _ = sim.run_instance(inst, 5)
        assert metrics.success, inst.label
        two_cycle = any(len(c) == 2 for c in decompose(inst.graph()).cycles)
        if metrics.actions > oracle.single_arm_optimal_actions:
            violations.append((inst.label, "dominance"))
        if two_cycle and metrics.actions >= oracle.single_arm_optimal_actions:
            violations.append((inst.label, "strictness"))
        if oracle.single_arm_optimal_actions / metrics.actions < 1.0:
            violations.append((inst.label, "ratio"))
    elapsed = time.time() - t0
    _report(4, "action-count dominance", not violations and elapsed < 60.0,
            f"({len(cases)} instances, {elapsed:.1f}s, violations={violations})")


def test_criterion_5_success_rate(suite_results):
    failures = [
        (inst.label, inst.seed, metrics.failure or msg)
        for inst, metrics, _, verified, msg in suite_results
        if not (metrics.success and verified)
    ]
    _report(
        5,
        "100% success on the default suite",
        len(suite_results) >= 200 and not failures,
        f"({len(suite_results)} instances, failures={failures[:3]})",
    )


def test_behaviour_digest_unchanged(suite_results):
    digests = _digests((record.trace, inst) for inst, _, record, _, _ in suite_results)
    actions = sum(metrics.actions for _, metrics, _, _, _ in suite_results)
    want = (BEHAVIOUR_DIGEST, BEHAVIOUR_DIGEST_V2, BEHAVIOUR_DIGEST_V3, BEHAVIOUR_ACTIONS)
    assert (*digests, actions) == want, (
        f"behaviour digests {digests} with {actions} actions; a change that "
        "alters plans must say why and record the new digests"
    )


def test_replay_digest_unchanged(suite_results):
    digest = hashlib.sha256()
    actions = replays = 0
    for inst, metrics, record, _, _ in suite_results:
        if metrics.success:
            forced, replay = sim.run_instance(
                inst, 42, force_sequential=True, forced_subs=record.subs
            )
            digest.update(sim.dumps_trace(replay.trace).encode())
            actions += forced.actions
            replays += 1
    assert (digest.hexdigest()[:12], actions, replays) == REPLAY_DIGEST, (
        "a change that moves a replay leg must say why and record the new digest"
    )


@pytest.mark.parametrize("seed", sorted(DENSE_DIGESTS))
def test_dense_digest_unchanged(seed):
    runs = []
    actions = solved = 0
    for n in (14, 16, 18, 20, 22):
        for s in range(4):
            inst = instances.gen_random(n, s)
            metrics, record = sim.run_instance(inst, seed)
            runs.append((record.trace, inst))
            actions += metrics.actions
            solved += metrics.success
            # every solved trace is certified
            assert not metrics.success or sim.verify_trace(record.trace, inst) == (True, "ok")
    assert (*_digests(runs), actions, solved) == DENSE_DIGESTS[seed], (
        "a change that alters dense plans must say why and record the new digests"
    )


def test_criterion_6_parallelism_saving(suite_results):
    t0 = time.time()
    ratios = []
    per_instance_bad = []
    for inst, metrics, record, verified, _ in suite_results:
        if inst.category != "R" or inst.n < 8:
            continue
        forced, _ = sim.run_instance(
            inst, 42, force_sequential=True, forced_subs=record.subs
        )
        assert forced.success, inst.label
        r = metrics.makespan / forced.makespan
        ratios.append(r)
        if r > 1.0 + 1e-9:
            per_instance_bad.append((inst.label, inst.seed, r))
    avg = sum(ratios) / len(ratios)
    elapsed = time.time() - t0
    ok = not per_instance_bad and avg <= 0.75 + 0.05 and elapsed < 120.0
    _report(6, "parallel vs sequential makespan", ok,
            f"({len(ratios)} instances, avg ratio {avg:.3f} <= 0.80, {elapsed:.1f}s)")


def test_criterion_7_trajectory_soundness(suite_results):
    # the verifier's certificate covers every instant of each leg; a scan of
    # each leg's knots on 4x the planner's grid, at the bare clearance, must
    # agree with it
    uncertified, violations = [], []
    closest = float("inf")
    for inst, metrics, record, verified, msg in suite_results:
        if not metrics.success:
            continue
        if not verified:
            uncertified.append((inst.label, inst.seed, msg))
        arms = default_arms(inst.workspace)
        for leg in record.trace.legs:
            c, t = least_clearance(leg.knots, arms, leg.duration, 4)
            closest = min(closest, c - arms[0].clearance)
            if c < arms[0].clearance:
                violations.append((inst.label, inst.seed, leg.index, c, t))
    _report(7, "trajectory soundness, certified and on a 4x grid", not uncertified and not violations,
            f"(uncertified={uncertified[:3]}, violations={violations[:3]}, closest {closest:+.4f})")


def _leg(e1, t1, e2, t2):
    sub = (
        ArmTask(obj=0, pick=e1, target=Pose2(*t1)),
        ArmTask(obj=1, pick=e2, target=Pose2(*t2)),
    )
    return sub, [e1, e2]


def _all_rungs(sub, ee):
    """(mode, duration) for every rung that validates on this leg."""
    rungs = []
    sync = plan_sync(sub, ARMS, Stage.TO_GOAL, ee)
    if isinstance(sync, SyncMotion):
        rungs.append((Mode.SYNCHRONOUS, sync.duration))
    unt = untangle(sub, ARMS, Stage.TO_GOAL, ee)
    if unt is not None:
        rungs.append((Mode.UNTANGLED, unt.duration))
    try:
        seq = sequential_fallback(sub, ARMS, Stage.TO_GOAL, ee)
        rungs.append((Mode.SEQUENTIAL, seq.duration))
    except SubTaskInfeasible:
        pass
    return rungs


def test_criterion_8_fallback_ladder():
    fixtures = [
        _leg((0.2, 0.45), (0.3, 0.15), (0.8, 0.45), (0.7, 0.15)),   # clean
        _leg((0.46, 0.10), (0.46, 0.50), (0.52, 0.50), (0.58, 0.10)),  # delay
        _leg((0.44, 0.10), (0.44, 0.50), (0.52, 0.50), (0.52, 0.10)),  # via
        _leg((0.30, 0.30), (0.72, 0.32), (0.70, 0.28), (0.28, 0.30)),  # sequential only
    ]
    triggered = set()
    monotone_ok = True
    details = []
    for sub, ee in fixtures:
        rungs = _all_rungs(sub, ee)
        first = rungs[0][0] if rungs else None
        # the ladder rung actually used is the first valid one
        sync = plan_sync(sub, ARMS, Stage.TO_GOAL, ee)
        if isinstance(sync, SyncMotion):
            triggered.add(Mode.SYNCHRONOUS)
        else:
            unt = untangle(sub, ARMS, Stage.TO_GOAL, ee)
            if unt is not None:
                triggered.add(Mode.UNTANGLED)
            else:
                sequential_fallback(sub, ARMS, Stage.TO_GOAL, ee)
                triggered.add(Mode.SEQUENTIAL)
        order = {Mode.SYNCHRONOUS: 0, Mode.UNTANGLED: 1, Mode.SEQUENTIAL: 2}
        durs = dict(rungs)
        seq = [durs[m] for m in sorted(durs, key=order.get)]
        if any(a > b + 1e-9 for a, b in zip(seq, seq[1:])):
            monotone_ok = False
            details.append((ee, rungs))
    # ladder monotonicity must also hold on every leg of an end-to-end run
    for inst in (instances.showcase9(), instances.gen_mixed(0)):
        metrics, record = sim.run_instance(inst, 42)
        assert metrics.success
        for k, leg in enumerate(record.trace.legs):
            sub = record.subs[k // 2]
            ee = [knots[0][1:] for knots in leg.knots]
            rungs = dict(_all_rungs(sub, ee)) if k % 2 == 1 else None
            if rungs and len(rungs) > 1:
                order = [Mode.SYNCHRONOUS, Mode.UNTANGLED, Mode.SEQUENTIAL]
                seq = [rungs[m] for m in order if m in rungs]
                if any(a > b + 1e-9 for a, b in zip(seq, seq[1:])):
                    monotone_ok = False
                    details.append((inst.label, k, rungs))
    all_rungs_hit = triggered == {Mode.SYNCHRONOUS, Mode.UNTANGLED, Mode.SEQUENTIAL}
    _report(8, "fallback ladder exercised and monotone",
            all_rungs_hit and monotone_ok,
            f"(triggered={sorted(m.value for m in triggered)}, issues={details[:2]})")


def test_criterion_9_determinism(tmp_path):
    suite = tmp_path / "suite"
    assert cli_main(["gen", "S", "4", "--count", "2", "--seed", "0", "--out", str(suite)]) == 0
    assert cli_main(["gen", "M", "--count", "2", "--seed", "0", "--out", str(suite)]) == 0
    payload = []
    for name in ("one", "two"):
        csv = tmp_path / name / "report.csv"
        traces = tmp_path / name / "traces"
        code = cli_main([
            "bench", str(suite), "--out", str(csv), "--traces", str(traces), "--seed", "11",
        ])
        assert code == 0
        payload.append(
            (csv.read_bytes(), {p.name: p.read_bytes() for p in traces.iterdir()})
        )
    _report(9, "bench determinism", payload[0] == payload[1],
            f"({len(payload[0][1])} traces compared byte-for-byte)")


def test_criterion_10_oracle_self_check():
    t0 = time.time()
    rng = random.Random(2024)
    for _ in range(1000):
        n = rng.randint(1, 10)
        edges = frozenset(
            (i, j) for i in range(n) for j in range(n) if i != j and rng.random() < 0.25
        )
        g = DepGraph(tuple(range(n)), edges)
        assert min_fvs(g) == naive_min_fvs(n, edges)
    elapsed = time.time() - t0
    _report(10, "min-FVS oracle self-check", elapsed < 30.0,
            f"(1000 graphs, {elapsed:.1f}s)")
