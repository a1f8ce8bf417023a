import math
from dataclasses import replace

import pytest

from sdar import depgraph, instances, motion, sim, taskplan
from sdar.baseline import single_arm_optimal_actions
from sdar.geom import Pose2
from sdar.motion import ArmTask, Stage, default_arms, plan_sync
from sdar.sim import (
    dumps_trace,
    iterate_frames,
    load_trace,
    loads_trace,
    run_instance,
    save_trace,
    verify_trace,
)


def test_identity_instance_executes_to_nothing():
    inst = instances.identity_instance(4, 2)
    metrics, rec = run_instance(inst, 0)
    assert metrics.success
    assert metrics.actions == 0
    assert metrics.makespan == 0.0
    assert metrics.sync_steps == 0
    ok, msg = verify_trace(rec.trace, inst)
    assert ok, msg


def test_showcase_run_matches_expected_counts():
    inst = instances.showcase9()
    metrics, rec = run_instance(inst, 0)
    assert metrics.success
    assert metrics.actions == 10
    assert metrics.buffers_used == 1
    assert metrics.makespan > 0


def test_two_cycle_swap_metrics():
    inst = instances.gen_single_cycle(2, 9)
    metrics, _ = run_instance(inst, 1)
    assert metrics.success and metrics.actions == 2 and metrics.buffers_used == 0


def test_actions_equal_n_plus_buffers_across_categories():
    cases = [
        instances.gen_random(7, 3),
        instances.gen_single_cycle(5, 1),
        instances.gen_double_cycle(7, 2),
        instances.gen_mixed(4),
    ]
    for inst in cases:
        metrics, _ = run_instance(inst, 11)
        assert metrics.success
        assert metrics.actions == inst.n + metrics.buffers_used
        assert metrics.sync_steps <= metrics.actions


def test_trace_roundtrip_and_verify():
    inst = instances.gen_mixed(2)
    metrics, rec = run_instance(inst, 5)
    text = dumps_trace(rec.trace)
    again = loads_trace(text)
    assert dumps_trace(again) == text
    ok, msg = verify_trace(again, inst)
    assert ok, msg


def test_trace_file_io(tmp_path):
    inst = instances.gen_single_cycle(3, 0)
    _, rec = run_instance(inst, 2)
    path = tmp_path / "run.trace"
    save_trace(rec.trace, path)
    assert path.read_text().startswith("sdar-trace/3\n")
    ok, msg = verify_trace(load_trace(path), inst)
    assert ok, msg


def test_verify_rejects_tampered_placement():
    inst = instances.showcase9()
    _, rec = run_instance(inst, 0)
    trace = rec.trace
    # push one goal placement onto a neighbor's footprint
    for leg in trace.legs:
        if leg.places:
            obj, pose, kind = leg.places[0]
            victim = next(i for i in inst.ids() if i != obj)
            bad = inst.goal.pose_of(victim)
            leg.places[0] = (obj, Pose2(bad.x, bad.y, bad.theta), kind)
            break
    ok, msg = verify_trace(trace, inst)
    assert not ok
    assert msg != "ok"


def test_verify_rejects_wrong_instance():
    inst = instances.gen_random(4, 1)
    other = instances.gen_random(4, 2)
    _, rec = run_instance(inst, 0)
    ok, msg = verify_trace(rec.trace, other)
    assert not ok and "hash" in msg


def test_a_trace_names_the_digest_of_its_own_instance():
    # a copy with one start pose moved computes its own digest, so the trace
    # of the original is not a trace of the copy
    inst = instances.showcase9()
    _, rec = run_instance(inst, 0)
    p = inst.start.pose_of(7)
    edited = replace(
        inst, start=depgraph.Arrangement({**inst.start.poses, 7: Pose2(p.x - 0.02, p.y)})
    )
    digest, other = instances.instance_hash(inst), instances.instance_hash(edited)
    assert rec.trace.instance_hash == digest != other
    assert verify_trace(rec.trace, inst) == (True, "ok")
    assert verify_trace(rec.trace, edited) == (False, "instance hash mismatch")
    sim.check_frames(rec.trace, inst)
    with pytest.raises(ValueError, match=f"^trace is of instance {digest}, not {other}$"):
        sim.check_frames(rec.trace, edited)


def test_a_row_hashes_its_instance_once(monkeypatch):
    # the planned run, the verifier and the replay share the instance's
    # digest, computed at its first use: one `dumps` per instance, and none
    # when the instance is evaluated again
    calls = []
    dumps = instances.dumps
    monkeypatch.setattr(instances, "dumps", lambda inst: calls.append(inst) or dumps(inst))
    inst = instances.showcase9()
    ev = sim.evaluate(inst, 42)
    assert ev.verdict == (True, "ok") and ev.seq_makespan is not None
    assert len(calls) == 1 and calls[0] is inst
    sim.evaluate(inst, 42)
    assert len(calls) == 1
    # a benchmark row's sequence: the run, its verification, the forced replay
    inst = instances.gen_mixed(5)
    metrics, rec = run_instance(inst, 21)
    assert verify_trace(rec.trace, inst) == (True, "ok")
    forced, _ = run_instance(inst, 21, force_sequential=True, forced_subs=rec.subs)
    assert metrics.success and forced.success
    assert len(calls) == 2 and calls[1] is inst


def test_verify_rejects_clearance_violation():
    inst = instances.gen_random(3, 4)
    _, rec = run_instance(inst, 0)
    trace = rec.trace
    # arm 2 follows arm 1's path through a moving leg: a path of unit speed
    # that ends where the leg ends, but the two EE points coincide.  Arm 2's
    # grip, whose point is now on arm 1's path, goes too.
    leg = next(l for l in trace.legs if l.duration > 0.0)
    leg.knots[1] = list(leg.knots[0])
    leg.grips = [g for g in leg.grips if g[0] == 0]
    assert verify_trace(trace, inst) == (False, f"leg {leg.index}: clearance 0.0000 at t=0.0000")


def _colliding_trace_text():
    """A gen_random(8, 1) trace planned by arms that keep 0.05 apart, with
    the default arms (0.1 apart) stated in its header, and its instance:
    leg 3 cannot be certified to keep 0.1 apart beyond t = 0.6738."""
    inst = instances.gen_random(8, 1)
    _, rec = run_instance(inst, 0, default_arms(inst.workspace, clearance=0.05))
    rec.trace.arms = default_arms(inst.workspace)
    text = dumps_trace(rec.trace)
    assert verify_trace(text, inst) == (False, "leg 3: clearance not certified at t=0.6738")
    return text, inst


def _with_arms_field(text, name, value):
    """The trace text with the value of one field of its arms line replaced."""
    lines = text.splitlines()
    assert lines[2].startswith("arms ")
    parts = lines[2].split()
    parts[parts.index(name) + 1] = value
    lines[2] = " ".join(parts)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("forged", ["nan", "0.0", "-1.0"])
def test_forged_header_clearance_cannot_certify_a_collision(forged):
    # the threshold comes from the caller's arms, not from the trace
    text, inst = _colliding_trace_text()
    ok, msg = verify_trace(_with_arms_field(text, "clearance", forged), inst)
    assert not ok and msg == f"header clearance {float(forged)!r} differs from the arms' 0.1", msg
    # the arms the run was planned with pass it
    near = default_arms(inst.workspace, clearance=0.05)
    assert verify_trace(_with_arms_field(text, "clearance", "0.05"), inst, near) == (True, "ok")


@pytest.mark.parametrize("name, value", [("base1", "0.001"), ("base2", "0.999"), ("reach", "9.0"), ("ee_radius", "0.05")])
def test_header_stating_other_arms_is_rejected(name, value):
    inst = instances.gen_random(3, 4)
    _, rec = run_instance(inst, 0)
    text = dumps_trace(rec.trace)
    assert verify_trace(text, inst) == (True, "ok")
    ok, msg = verify_trace(_with_arms_field(text, name, value), inst)
    assert not ok and msg.startswith(f"header {name} "), msg


def _with_metrics_field(text: str, name: str, forge) -> str:
    """The trace text with the value after `name` on its metrics line, the
    last line, passed through `forge`."""
    head, _, line = text.rstrip("\n").rpartition("\n")
    parts = line.split()
    k = parts.index(name) + 1
    parts[k] = forge(parts[k])
    return f"{head}\n{' '.join(parts)}\n"


@pytest.mark.parametrize(
    "name, field, forge",
    [
        ("actions", "actions", lambda v: str(int(v) - 1)),
        ("buffers_used", "buffers_used", lambda v: str(int(v) + 1)),
        ("sync_steps", "sync_steps", lambda v: str(int(v) + 1)),
        ("makespan", "makespan", lambda v: repr(math.nextafter(float(v), 0.0))),
        ("fallbacks", "fallback_counts", lambda v: v.replace("=", "=1", 1)),
        ("success", "success", lambda v: "0"),
    ],
    ids=["actions", "buffers_used", "sync_steps", "makespan", "fallbacks", "success"],
)
def test_forged_metrics_line_is_rejected(name, field, forge):
    # every field of the metrics line is read off the legs again, a
    # makespan one ulp off included
    inst = instances.showcase9()
    _, rec = run_instance(inst, 42)
    text = dumps_trace(rec.trace)
    assert verify_trace(text, inst) == (True, "ok")
    forged = _with_metrics_field(text, name, forge)
    assert forged != text
    ok, msg = verify_trace(forged, inst)
    assert not ok and msg.startswith(f"metrics {field} ") and " disagrees with the legs' " in msg, msg


@pytest.mark.parametrize(
    "extra", [" note x", " reach 9.0", " dt", " dt 0.02"], ids=["note", "reach", "bare_dt", "dt"]
)
def test_arms_line_with_a_field_past_its_layout_is_rejected(extra):
    # the arms line holds the bases, reach, ee_radius and clearance, each
    # once and in that order: an appended field, a second reach and the dt
    # field of sdar-trace/1 are forgeries of the layout
    inst = instances.showcase9()
    _, rec = run_instance(inst, 0)
    lines = dumps_trace(rec.trace).splitlines()
    assert lines[2].startswith("arms ") and " dt" not in lines[2]
    lines[2] += extra
    with pytest.raises(ValueError) as err:
        verify_trace("\n".join(lines) + "\n", inst)
    fields = 13 + len(extra.split())
    assert str(err.value) == f"malformed sdar-trace/3 trace: line 3: arms line has {fields} fields, not 13"


def test_verify_takes_the_arms_the_run_was_planned_with():
    inst = instances.showcase9()
    near = default_arms(inst.workspace, clearance=0.05)
    _, rec = run_instance(inst, 0, near)
    assert verify_trace(rec.trace, inst, near) == (True, "ok")
    assert verify_trace(dumps_trace(rec.trace), inst, near) == (True, "ok")
    # the default arms keep 0.1 apart: the trace's header disagrees with them
    assert verify_trace(rec.trace, inst) == (
        False, "header clearance 0.05 differs from the arms' 0.1"
    )


def test_an_arm_pair_shares_what_its_arms_line_states():
    # the arms line states one reach, ee_radius and clearance for both arms:
    # a pair whose arms differ in them is refused by the planner and by the
    # verifier, not planned or checked as the first arm's values
    inst = instances.showcase9()
    a1, a2 = arms = default_arms(inst.workspace)
    record = run_instance(inst, 0)[1]
    text = dumps_trace(record.trace)

    def verified_with(inst, seed, pair):
        return verify_trace(text, inst, pair)

    def replayed_with(inst, seed, pair):
        # the replay opens no planner session, so it checks the pair itself
        return run_instance(inst, seed, pair, force_sequential=True, forced_subs=record.subs)

    for name, other in (
        ("reach", replace(a2, reach=a2.reach + 5.0, ee_radius=0.03, clearance=0.05)),
        ("ee_radius", replace(a2, ee_radius=0.03)),
        ("clearance", replace(a2, clearance=0.05)),
    ):
        for pair in ((a1, other), (other, a1)):
            v1, v2 = (getattr(arm, name) for arm in pair)
            for call in (run_instance, verified_with, replayed_with):
                with pytest.raises(ValueError) as err:
                    call(inst, 0, pair)
                assert str(err.value) == f"the arms differ in {name}: {v1!r} and {v2!r}"
    assert verify_trace(text, inst, arms) == (True, "ok")


def test_dumps_trace_refuses_to_misstate_arm_2():
    # a hand-built trace whose arms differ in what the arms line states once
    # used to be written with arm 1's values
    inst = instances.showcase9()
    trace = run_instance(inst, 0)[1].trace
    a1, a2 = trace.arms
    for name, value in (("reach", a2.reach + 5.0), ("ee_radius", 0.03), ("clearance", 0.05)):
        forged = replace(trace, arms=(a1, replace(a2, **{name: value})))
        with pytest.raises(ValueError) as err:
            dumps_trace(forged)
        assert str(err.value) == f"the arms differ in {name}: {getattr(a1, name)!r} and {value!r}"
    # the check compares written text, so a parsed nan clearance dumps back as it was
    text = _with_arms_field(dumps_trace(trace), "clearance", "nan")
    assert dumps_trace(loads_trace(text)) == text


GRASP_ANGLES = ", ".join(a.value for a in motion.GraspAngle)
NOT_A_COUNT = "is not a count as str(int) writes one"


@pytest.mark.parametrize(
    "prefix, field, value, detail",
    [
        ("grip ", 2, "2", "arm index 2 is not 0 or 1"),
        # a knot, grip or place line naming a leg not yet given
        ("k 0 ", 1, "9", "k leg 9 is not the leg given last"),
        ("grip 0 ", 1, "9", "grip leg 9 is not the leg given last"),
        ("place 1 ", 1, "9", "place leg 9 is not the leg given last"),
        ("k 0 ", 2, "-1", "arm index -1 is not 0 or 1"),
        ("grip ", 3, "squeeze", "grip action 'squeeze' is not close or open"),
        ("place ", 6, "shelf", "place kind 'shelf' is not one of goal, buffer"),
        (
            "leg 0 ", 3, "teleport",
            "leg mode 'teleport' is not one of synchronous, untangled, sequential",
        ),
        ("leg 0 ", 5, "sideways", f"angle 'sideways' is not one of {GRASP_ANGLES}"),
        ("leg 0 ", 6, "nope", f"angle 'nope' is not one of {GRASP_ANGLES}"),
        ("instance ", 2, "sd", "instance line has 'sd' where 'seed' belongs"),
        ("instance ", 3, "x", "invalid literal for int() with base 10: 'x'"),
        ("leg 0 ", 2, "xmode", "leg line has 'xmode' where 'mode' belongs"),
        ("metrics ", 1, "moves", "metrics line has 'moves' where 'actions' belongs"),
        # the metrics lines below but the unknown mode once parsed to the
        # metrics showcase9's legs give, so the forged trace verified
        ("metrics ", 12, "2", "metrics success '2' is not one of 0, 1"),
        ("metrics ", 12, "-7", "metrics success '-7' is not one of 0, 1"),
        ("metrics ", 2, "+10", f"metrics actions '+10' {NOT_A_COUNT}"),
        ("metrics ", 2, "1_0", f"metrics actions '1_0' {NOT_A_COUNT}"),
        ("metrics ", 6, "05", f"metrics sync_steps '05' {NOT_A_COUNT}"),
        ("metrics ", 4, "\u0661", f"metrics buffers_used '\u0661' {NOT_A_COUNT}"),
        (
            "metrics ", 10, "synchronous=4,synchronous=10",
            "metrics fallback mode 'synchronous' is given twice",
        ),
        ("metrics ", 10, "synchronous=+10", f"metrics fallbacks synchronous '+10' {NOT_A_COUNT}"),
        (
            "metrics ", 10, "teleport=10",
            "metrics fallback mode 'teleport' is not one of synchronous, untangled, sequential",
        ),
    ],
    ids=[
        "grip-arm-2", "knot-unknown-leg", "grip-unknown-leg", "place-unknown-leg",
        "knot-arm-minus-1", "grip-action-squeeze", "place-kind-shelf",
        "leg-mode-teleport", "angle-sideways", "angle-nope", "header-keyword", "header-seed",
        "leg-keyword", "metrics-keyword", "success-2", "success-minus-7", "actions-plus",
        "actions-underscore", "sync-steps-zero", "buffers-arabic-indic-1", "fallbacks-twice",
        "fallbacks-plus", "fallbacks-teleport",
    ],
)
def test_trace_naming_no_arm_or_action_cannot_be_parsed(prefix, field, value, detail):
    inst = instances.showcase9()
    _, rec = run_instance(inst, 0)
    lines = dumps_trace(rec.trace).splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
    parts = lines[k].split()
    parts[field] = value
    lines[k] = " ".join(parts)
    with pytest.raises(ValueError) as err:
        verify_trace("\n".join(lines) + "\n", inst)
    assert str(err.value) == f"malformed sdar-trace/3 trace: line {k + 1}: {detail}"


def _with_extra_field(lines, prefix):
    k = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
    return lines[:k] + [lines[k] + " 0.5"] + lines[k + 1 :], k


def _moved_below(lines, prefix, leg):
    """The lines with the first one starting with `prefix` moved to just
    below the `leg` line, and its new index."""
    moved = next(ln for ln in lines if ln.startswith(prefix))
    lines = [ln for ln in lines if ln is not moved]
    k = next(i for i, ln in enumerate(lines) if ln.startswith(f"leg {leg} ")) + 1
    return lines[:k] + [moved] + lines[k:], k


@pytest.mark.parametrize(
    "forge, detail",
    [
        (
            lambda lines: (lines[:3] + ["note x"] + lines[3:], 3),
            "line kind 'note' is not one of leg, k, grip, place, metrics",
        ),
        (lambda lines: _with_extra_field(lines, "k "), "k line has 7 fields, not 6"),
        (lambda lines: _with_extra_field(lines, "grip "), "grip line has 7 fields, not 6"),
        (lambda lines: (lines + lines[-1:], len(lines)), "a line follows the metrics line"),
        (lambda lines: (lines[:3] + lines[-1:] + lines[3:-1], 4), "a line follows the metrics line"),
        # a line of an earlier leg, below a later leg line, out of dumps_trace's order
        (lambda lines: _moved_below(lines, "k 0 ", 1), "k leg 0 is not the leg given last"),
        (lambda lines: _moved_below(lines, "grip 0 ", 1), "grip leg 0 is not the leg given last"),
        (lambda lines: _moved_below(lines, "place 1 ", 2), "place leg 1 is not the leg given last"),
    ],
    ids=[
        "unknown-kind", "knot-extra-field", "grip-extra-field", "second-metrics", "metrics-first",
        "knot-of-an-earlier-leg", "grip-of-an-earlier-leg", "place-of-an-earlier-leg",
    ],
)
def test_trace_out_of_layout_cannot_be_parsed(forge, detail):
    # a line the parser would not read is an error, not passed over
    inst = instances.showcase9()
    _, rec = run_instance(inst, 42)
    text = dumps_trace(rec.trace)
    assert verify_trace(text, inst) == (True, "ok")
    lines, k = forge(text.splitlines())
    with pytest.raises(ValueError) as err:
        loads_trace("\n".join(lines) + "\n")
    assert str(err.value) == f"malformed sdar-trace/3 trace: line {k + 1}: {detail}"


def test_repeated_leg_index_cannot_be_parsed():
    # a second `leg 0` line would replace the first leg and the knots
    # already parsed for it
    inst = instances.showcase9()
    _, rec = run_instance(inst, 42)
    lines = dumps_trace(rec.trace).splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.startswith("leg 1 "))
    lines.insert(k, next(ln for ln in lines if ln.startswith("leg 0 ")))
    with pytest.raises(ValueError) as err:
        verify_trace("\n".join(lines) + "\n", inst)
    assert str(err.value) == f"malformed sdar-trace/3 trace: line {k + 1}: leg 0 is given twice"


def test_legs_out_of_index_order_cannot_be_parsed():
    # a leg's stage is its index's parity, so legs must run 0, 1, 2, ...:
    # renumbered 0, 1, 7, 8, ... the trace cannot be parsed at leg 7
    inst = instances.showcase9()
    _, rec = run_instance(inst, 42)
    lines = []
    for line in dumps_trace(rec.trace).splitlines():
        parts = line.split()
        if parts[0] in ("leg", "k", "grip", "place") and int(parts[1]) >= 2:
            parts[1] = str(int(parts[1]) + 5)
        lines.append(" ".join(parts))
    k = lines.index(next(ln for ln in lines if ln.startswith("leg 7 ")))
    with pytest.raises(ValueError) as err:
        verify_trace("\n".join(lines) + "\n", inst)
    assert str(err.value) == f"malformed sdar-trace/3 trace: line {k + 1}: expected leg 2, got leg 7"


NOT_A_FLOAT = "is not a float as repr(float) writes one"


def _forged_field(lines, prefix, field, forge):
    """The lines with field `field` of the first line starting with `prefix`
    replaced by `forge` of it, and that line's index."""
    k = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
    parts = lines[k].split()
    parts[field] = forge(parts[field])
    return lines[:k] + [" ".join(parts)] + lines[k + 1 :], k


@pytest.mark.parametrize(
    "prefix, field, forge, detail",
    [
        # the first four parsed to showcase9's own trace, which verified
        ("leg 1 ", 1, lambda v: "+" + v, f"leg index '+1' {NOT_A_COUNT}"),
        ("k 0 1 ", 1, lambda v: "0_0", f"k leg '0_0' {NOT_A_COUNT}"),
        ("metrics ", 8, lambda v: "+" + v, f"metrics makespan '+2.9924157403677514' {NOT_A_FLOAT}"),
        ("instance ", 3, lambda v: "+" + v, "header seed '+0' is not an int as str(int) writes one"),
        ("leg 0 ", 8, lambda v: v.replace("4,7", "4,07"), f"leg candidate '07' {NOT_A_COUNT}"),
        ("grip ", 4, lambda v: "+" + v, f"grip object '+8' {NOT_A_COUNT}"),
        ("grip ", 2, lambda v: "+" + v, "arm index +0 is not 0 or 1"),
        ("place ", 2, lambda v: "\u0668", f"place object '\u0668' {NOT_A_COUNT}"),
        ("place ", 5, lambda v: "0", f"place theta '0' {NOT_A_FLOAT}"),
        ("k 0 0 ", 3, lambda v: v + "0", f"k t '0.00' {NOT_A_FLOAT}"),
        ("leg 1 ", 10, lambda v: "NaN", f"leg duration 'NaN' {NOT_A_FLOAT}"),
        ("arms ", 12, lambda v: "1e-1", f"arms clearance '1e-1' {NOT_A_FLOAT}"),
        ("arms ", 2, lambda v: "zero", f"arms base1 'zero' {NOT_A_FLOAT}"),
    ],
    ids=[
        "leg-plus", "knot-leg-underscore", "makespan-plus", "seed-plus", "candidate-zero",
        "grip-object-plus", "grip-arm-plus", "place-object-arabic-indic-8", "theta-int",
        "knot-t-trailing-zero", "duration-NaN", "clearance-exponent", "base-word",
    ],
)
def test_trace_numbers_spelled_as_dumps_never_writes_cannot_be_parsed(prefix, field, forge, detail):
    # a count, index or seed is read only as str(int) writes it, and any
    # other number only as repr(float) does
    inst = instances.showcase9()
    _, rec = run_instance(inst, 0)
    lines, k = _forged_field(dumps_trace(rec.trace).splitlines(), prefix, field, forge)
    with pytest.raises(ValueError) as err:
        verify_trace("\n".join(lines) + "\n", inst)
    assert str(err.value) == f"malformed sdar-trace/3 trace: line {k + 1}: {detail}"


def test_trace_floats_and_seeds_round_trip_as_written():
    # nan, infinities, -0.0 and a negative seed are spelled as repr(float)
    # and str(int) write them, so such a trace parses and dumps back as it was
    _, rec = run_instance(instances.showcase9(), 0)
    lines = dumps_trace(rec.trace).splitlines()
    for prefix, field, value in (
        ("instance ", 3, "-3"),
        ("arms ", 12, "nan"),
        ("leg 1 ", 10, "inf"),
        ("k 0 0 ", 4, "nan"),
        ("k 0 1 ", 5, "-inf"),
        ("place ", 3, "-0.0"),
        ("metrics ", 8, "-0.0"),
    ):
        lines, _ = _forged_field(lines, prefix, field, lambda v: value)
    text = "\n".join(lines) + "\n"
    assert dumps_trace(loads_trace(text)) == text


def test_verify_refuses_a_leg_whose_index_is_not_its_position():
    # grip parity and the `leg N` names come from the index, so a Trace whose
    # legs are numbered from 2 is refused, as its text is
    inst = instances.showcase9()
    _, rec = run_instance(inst, 0)
    forged = replace(rec.trace, legs=[replace(leg, index=leg.index + 2) for leg in rec.trace.legs])
    assert verify_trace(forged, inst) == (False, "expected leg 0, got leg 2")
    with pytest.raises(ValueError) as err:
        verify_trace(dumps_trace(forged), inst)
    assert str(err.value).endswith(": expected leg 0, got leg 2")


def test_older_trace_format_cannot_be_parsed():
    # sdar-trace/2 leg and grip lines carry fields that sdar-trace/3 states
    # once elsewhere; there is no reader for them
    inst = instances.showcase9()
    _, rec = run_instance(inst, 42)
    older = dumps_trace(rec.trace).replace("sdar-trace/3\n", "sdar-trace/2\n", 1)
    with pytest.raises(ValueError) as err:
        loads_trace(older)
    assert str(err.value) == "expected sdar-trace/3 header"


def test_verify_rejects_leg_without_samples():
    # a leg's samples come from its knots: an arm with none has no samples
    inst = instances.showcase9()
    _, rec = run_instance(inst, 42)
    text = dumps_trace(rec.trace)
    for k in (0, 1):
        for a in (0, 1):
            kept = [ln for ln in text.splitlines() if not ln.startswith(f"k {k} {a} ")]
            assert verify_trace("\n".join(kept) + "\n", inst) == (
                False, f"leg {k}: arm {a + 1} has no knots"
            )


def test_verify_rejects_a_place_with_no_open():
    # showcase9's second leg places object 8 that arm 1 opens on; without
    # the open, the place line alone must not move the object
    inst = instances.showcase9()
    _, rec = run_instance(inst, 42)
    lines = dumps_trace(rec.trace).splitlines()
    assert sum(ln.startswith("grip 1 0 open 8 ") for ln in lines) == 1
    kept = [ln for ln in lines if not ln.startswith("grip 1 0 open 8 ")]
    assert verify_trace("\n".join(kept) + "\n", inst) == (
        False, "leg 1: arm 1 places object 8 with no open"
    )


def test_verify_rejects_a_close_and_a_place_on_one_grasp_leg():
    # object 8 closed on and placed on the even leg 0, its open dropped from
    # leg 1: a grasp leg opens no gripper, so it places nothing
    inst = instances.showcase9()
    _, rec = run_instance(inst, 42)
    lines = dumps_trace(rec.trace).splitlines()
    (place,) = [ln for ln in lines if ln.startswith("place 1 8 ")]
    close = lines.index(next(ln for ln in lines if ln.startswith("grip 0 0 close 8 ")))
    moved = [ln for ln in lines if not ln.startswith(("grip 1 0 open 8 ", "place 1 8 "))]
    moved.insert(close, "place 0 8 " + place[len("place 1 8 "):])
    assert verify_trace("\n".join(moved) + "\n", inst) == (
        False, "leg 0: arm 1 places object 8 with no open"
    )


def test_final_state_must_reach_goal():
    inst = instances.gen_random(3, 6)
    _, rec = run_instance(inst, 0)
    trace = rec.trace
    dropped = [leg for leg in trace.legs if not leg.places]
    trace.legs = [leg for leg in trace.legs if leg is not (trace.legs[-1])]
    ok, msg = verify_trace(trace, inst)
    assert not ok


def test_iterate_frames_counts_and_final_scene():
    # round(1/DT) + 1 frames per leg that moves, one per leg that does not
    inst = instances.gen_single_cycle(2, 6)
    metrics, rec = run_instance(inst, 0)
    frames = list(iterate_frames(rec.trace, inst))
    moving = sum(leg.duration > 0.0 for leg in rec.trace.legs)
    assert moving > 0
    assert len(frames) == moving * (round(1 / motion.DT) + 1) + len(rec.trace.legs) - moving
    table, ee, carried = frames[-1]
    for i in inst.ids():
        assert i in table
        assert table[i].almost_equal(inst.goal.pose_of(i))


def test_frames_hold_an_object_from_close_until_open():
    # an arm holds its object from the gripper-close event of a start-bound
    # leg, and until the gripper-open event of a goal-bound leg, each to
    # within 1e-12 of frame 20's time
    inst = instances.gen_single_cycle(2, 6)
    trace = run_instance(inst, 0)[1].trace
    per_leg = round(1 / motion.DT) + 1
    offsets = [-2e-12, -5e-13, 0.0, 5e-13, 2e-12]
    for k, held in ((0, [True, True, True, True, False]), (1, [False, False, False, False, True])):
        leg = trace.legs[k]
        assert leg.duration > 0.0 and leg.grips
        arm, action, obj, t = leg.grips[0]
        assert action == ("close" if k == 0 else "open")
        now = leg.duration * 20 / (per_leg - 1)
        got = []
        for off in offsets:
            leg.grips[0] = (arm, action, obj, now + off)
            frames = list(iterate_frames(trace, inst))
            got.append(frames[k * per_leg + 20][2][arm] == obj)
        leg.grips[0] = (arm, action, obj, t)
        assert got == held, k


def test_forced_sequential_replay_preserves_plan():
    inst = instances.gen_mixed(5)
    metrics, rec = run_instance(inst, 21)
    forced, frec = run_instance(inst, 21, force_sequential=True, forced_subs=rec.subs)
    assert forced.success
    assert forced.actions == metrics.actions
    assert forced.buffers_used == metrics.buffers_used
    assert forced.sequence == metrics.sequence
    assert forced.makespan >= metrics.makespan
    assert set(forced.fallback_counts) == {"sequential"}


def test_replay_plans_no_task_and_no_motion(monkeypatch):
    # the replay walks the recorded sub-tasks on the sequential rung alone:
    # it opens no planner session, builds no footprint and checks no table,
    # as the planned run checked each round it recorded
    inst = instances.gen_mixed(5)
    metrics, rec = run_instance(inst, 21)
    calls = []

    def counted(owner, name):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(name) or fn(*a, **k))

    counted(sim, "next_task_plan")
    counted(sim, "plan_motion")
    counted(sim, "arrangement_violations")
    counted(taskplan.PlannerSession, "__post_init__")
    counted(taskplan, "footprint")
    counted(depgraph, "footprint")
    forced, frec = run_instance(inst, 21, force_sequential=True, forced_subs=rec.subs)
    assert forced.success and calls == []
    # the probes see the planned run make each of these calls
    assert run_instance(inst, 21)[1].subs == rec.subs
    probed = {"next_task_plan", "plan_motion", "arrangement_violations", "__post_init__", "footprint"}
    assert set(calls) == probed
    assert frec.subs == rec.subs
    assert forced.sync_steps == metrics.sync_steps == len(frec.trace.legs) // 2
    assert all(leg.mode == "sequential" and not leg.candidates for leg in frec.trace.legs)
    assert verify_trace(frec.trace, inst) == (True, "ok")


def test_run_instance_takes_force_sequential_and_forced_subs_together():
    inst = instances.showcase9()
    _, rec = run_instance(inst, 0)
    for kwargs in ({"force_sequential": True}, {"forced_subs": rec.subs}):
        with pytest.raises(ValueError, match="together"):
            run_instance(inst, 0, **kwargs)


def test_replay_the_sequential_rung_cannot_plan_is_a_failure():
    # arms that must keep 0.3 apart cannot run showcase9's fifth round even
    # one at a time: the replay stops there with the rung's reason
    inst = instances.showcase9()
    metrics, rec = run_instance(inst, 21)
    tight = default_arms(inst.workspace, clearance=0.3)
    forced, frec = run_instance(inst, 21, tight, force_sequential=True, forced_subs=rec.subs)
    assert not forced.success
    assert forced.failure.startswith("forced sub-task failed: sequential leg invalid at t=")
    assert forced.sync_steps == 4 < metrics.sync_steps
    assert len(frec.trace.legs) == 8 and frec.trace.metrics is forced


def test_execute_plans_each_round_once(monkeypatch):
    # one task plan and one motion call per round; the trace gets both legs
    calls = {"plans": 0, "motions": 0}
    next_plan, plan_motion = sim.next_task_plan, sim.plan_motion

    def counted_plan(session):
        plan = next_plan(session)
        calls["plans"] += 1
        return plan

    def counted_motion(*args, **kwargs):
        calls["motions"] += 1
        return plan_motion(*args, **kwargs)

    monkeypatch.setattr(sim, "next_task_plan", counted_plan)
    monkeypatch.setattr(sim, "plan_motion", counted_motion)
    for inst in (instances.showcase9(), instances.gen_mixed(3)):
        calls.update(plans=0, motions=0)
        metrics, rec = run_instance(inst, 42)
        assert metrics.success
        assert calls == {"plans": metrics.sync_steps, "motions": metrics.sync_steps}
        assert len(rec.trace.legs) == 2 * metrics.sync_steps


def test_round_cap_ends_a_run_that_makes_no_progress(monkeypatch):
    # every round parks both arms and moves nothing: without the cap of 2n
    # rounds the run would never end
    idle = (ArmTask(), ArmTask())

    def idle_round(plan, session, **kwargs):
        start = plan_sync(idle, session.arms, Stage.TO_START, session.ee)
        goal = plan_sync(idle, session.arms, Stage.TO_GOAL, [knots[-1][1:] for knots in start.paths])
        return idle, start, goal

    monkeypatch.setattr(sim, "plan_motion", idle_round)
    inst = instances.showcase9()
    metrics, rec = run_instance(inst, 0)
    assert not metrics.success
    assert metrics.failure == "round 19 exceeds the cap of 2n rounds (n = 9)"
    assert metrics.sync_steps == 2 * inst.n and metrics.actions == 0
    assert len(rec.trace.legs) == 4 * inst.n
    ok, msg = verify_trace(rec.trace, inst)
    assert not ok and "not at its goal pose" in msg


def test_replay_reaches_the_sequential_rung_through_motion(monkeypatch):
    # the replay looks the rung up in motion, where a probe on
    # motion.sequential_fallback sees each of its two legs per round
    inst = instances.gen_mixed(5)
    metrics, rec = run_instance(inst, 21)
    calls = []
    rung = motion.sequential_fallback

    def counted(*args, **kwargs):
        calls.append(args[2])
        return rung(*args, **kwargs)

    monkeypatch.setattr(motion, "sequential_fallback", counted)
    forced, _ = run_instance(inst, 21, force_sequential=True, forced_subs=rec.subs)
    assert forced.success
    assert len(calls) == 2 * forced.sync_steps == 2 * metrics.sync_steps
    assert calls == [Stage.TO_START, Stage.TO_GOAL] * forced.sync_steps


def test_evaluate_matches_its_steps_run_apart():
    inst = instances.showcase9()
    arms = default_arms(inst.workspace, clearance=0.08)
    ev = sim.evaluate(inst, 42, arms)
    metrics, rec = run_instance(inst, 42, arms)
    forced, _ = run_instance(inst, 42, arms, force_sequential=True, forced_subs=rec.subs)
    assert metrics.success and forced.success
    assert ev.metrics == metrics
    assert ev.record.subs == rec.subs
    assert dumps_trace(ev.record.trace) == dumps_trace(rec.trace)
    assert ev.verdict == verify_trace(rec.trace, inst, arms) == (True, "ok")
    assert ev.oracle == single_arm_optimal_actions(inst)
    assert ev.seq_makespan == forced.makespan
    assert ev.plan_s > 0.0


def test_evaluate_of_an_unsolved_run_over_the_oracle_budget():
    # 22 objects exceed the oracle's 20-vertex budget, and plan seed 42
    # leaves this table unsolved, so there is nothing to replay
    inst = instances.gen_random(22, 3)
    ev = sim.evaluate(inst, 42)
    assert inst.n > 20 and not ev.metrics.success
    assert ev.oracle is None and ev.seq_makespan is None
    assert ev.verdict == verify_trace(ev.record.trace, inst)
    assert not ev.verdict[0]
