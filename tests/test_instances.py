import dataclasses
import hashlib
import math
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdar import instances
from sdar.depgraph import Arrangement, arrangement_violations, decompose, footprints
from sdar.geom import MIN_GAP, Pose2, Workspace, box_at, boxes_closer_than, inside, overlaps
from sdar.instances import (
    FeasibilityError,
    GenerationExhausted,
    ParseError,
    dumps,
    gen_double_cycle,
    gen_mixed,
    gen_random,
    gen_single_cycle,
    load,
    loads,
    save,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def assert_feasible(inst):
    assert not arrangement_violations(footprints(inst.start, inst.shapes), inst.workspace)
    assert not arrangement_violations(footprints(inst.goal, inst.shapes), inst.workspace)


def test_single_object_instance():
    inst = gen_random(1, 0)
    assert inst.n == 1
    assert_feasible(inst)


def test_generation_is_deterministic():
    a = gen_random(10, 7)
    b = gen_random(10, 7)
    assert dumps(a) == dumps(b)
    assert dumps(gen_mixed(3)) == dumps(gen_mixed(3))


def test_random_instances_always_feasible():
    for seed in range(100):
        assert_feasible(gen_random(10, seed))


def test_single_cycle_structures():
    d2 = decompose(gen_single_cycle(2, 5).graph())
    assert len(d2.cycles) == 1 and len(d2.cycles[0]) == 2

    inst = gen_single_cycle(7, 1)
    d = decompose(inst.graph())
    assert len(d.cycles) == 1
    assert sorted(d.cycles[0]) == inst.ids()
    assert not d.chains and not d.isolated and not d.others


def test_double_cycle_structures():
    inst = gen_double_cycle(8, 2)
    d = decompose(inst.graph())
    assert sorted(len(c) for c in d.cycles) == [4, 4]
    odd = decompose(gen_double_cycle(7, 0).graph())
    assert sorted(len(c) for c in odd.cycles) == [3, 4]


def test_mixed_structure_is_fixed():
    for seed in (0, 1):
        inst = gen_mixed(seed)
        assert inst.n == 12
        d = decompose(inst.graph())
        assert len(d.isolated) == 3
        assert [len(c) for c in d.chains] == [4]
        assert sorted(len(c) for c in d.cycles) == [2, 3]
        assert not d.complex_sccs and not d.others
    assert dumps(gen_mixed(0)) != dumps(gen_mixed(1))


@pytest.mark.parametrize(
    "make, structure",
    [
        (instances.showcase9, ([4], [3], 1, 0, 1)),
        (lambda: gen_mixed(0), ([2, 3], [4], 3, 0, 0)),
        (lambda: gen_random(13, 2), ([3], [3], 1, 1, 0)),
    ],
    ids=["showcase9", "M0", "R13-2"],
)
def test_audit_compares_every_field_of_the_structure(make, structure):
    # no generated table fails the audit on one field alone, so each field
    # is put off by one here; the retry loop ends with the audit's message
    inst = make()
    assert instances._retried(lambda seed, attempt: instances._audit(inst, structure), 0) is inst
    for k, field in enumerate(structure):
        expected = (*structure[:k], field + [9] if k < 2 else field + 1, *structure[k + 1 :])
        with pytest.raises(GenerationExhausted) as err:
            instances._retried(lambda seed, attempt: instances._audit(inst, expected), 0)
        assert str(err.value) == f"gave up after 50 tries: expected structure {expected}, got {structure}"


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 24), seed=st.integers(0, 2**31 - 1))
@example(n=1, seed=0)
@example(n=24, seed=0)
def test_random_tables_pass_the_audit_they_do_not_run(n, seed):
    # gen_random runs no audit, since its draws keep only what the audit
    # would pass: validation and the gap audit find nothing on its tables,
    # on workspaces scaled as the scale probe scales them
    scale = math.sqrt(n / 15)
    try:
        inst = gen_random(n, seed, Workspace(scale, 0.6 * scale))
    except GenerationExhausted:
        return  # no table to check
    boxes = footprints(inst.start, inst.shapes), footprints(inst.goal, inst.shapes)
    assert instances._validate(inst, *boxes) == []
    assert instances._gap_audit(inst, *boxes) == []


def test_roundtrip_bit_exact(tmp_path):
    # the fixture files, and every 5th default-suite instance below, re-dump
    # byte for byte through loads and dumps
    paths = sorted(FIXTURES.glob("*.inst"))
    assert [path.name for path in paths] == ["identity4.inst", "showcase9.inst", "thin_beside_box.inst"]
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert dumps(loads(text)) == text, path.name
    suite = instances.default_suite()[::5]
    for inst in (gen_random(6, 3), gen_single_cycle(5, 1), instances.showcase9(), *suite):
        p = tmp_path / "x.inst"
        save(inst, p)
        again = load(p)
        assert dumps(again) == dumps(inst)
        assert again.shapes == inst.shapes
        for i in inst.ids():
            assert again.start.pose_of(i) == inst.start.pose_of(i)
            assert again.goal.pose_of(i) == inst.goal.pose_of(i)


@pytest.mark.parametrize("label", ["X 9", "", "X\xa09", "X\ud800"])
def test_labels_that_would_not_survive_their_file_are_refused(label):
    # dumps wrote the first three and loads refused them; the lone surrogate
    # made instance_hash raise
    with pytest.raises(ValueError):
        dataclasses.replace(instances.showcase9(), label=label)


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(instances.Instance)])
def test_an_instance_field_cannot_be_reassigned(field):
    # the label check runs at construction, so a label set afterwards could
    # dump as a file that does not load; every field is fixed instead
    inst = instances.showcase9()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(inst, field, "X 9")
    assert loads(dumps(inst)) == inst


@settings(max_examples=200, deadline=None)
@given(st.text(st.characters(exclude_categories=()), max_size=8))
@example("R12")
@example("X\u2028")
def test_every_accepted_label_survives_its_file(label):
    base = instances.showcase9()
    try:
        inst = dataclasses.replace(base, label=label)
    except ValueError:
        surrogate = any(0xD800 <= ord(c) <= 0xDFFF for c in label)
        assert not label or any(c.isspace() for c in label) or surrogate
        return
    again = loads(dumps(inst))
    assert again.label == label
    assert instances.instance_hash(again) == instances.instance_hash(inst)


def _start_moved(inst, obj, dx):
    """A `dataclasses.replace` copy of `inst` with `obj`'s start pose moved
    by `dx` along x."""
    p = inst.start.pose_of(obj)
    start = Arrangement({**inst.start.poses, obj: Pose2(p.x + dx, p.y, p.theta)})
    return dataclasses.replace(inst, start=start)


def test_digest_is_the_sha256_of_the_file_text():
    for inst in instances.default_suite():
        digest = hashlib.sha256(dumps(inst).encode()).hexdigest()[:12]
        assert instances.instance_hash(inst) == inst.digest == digest


def test_digest_survives_pickle_and_the_file():
    # `sdar bench --jobs` pickles instances to its workers; the digest is kept
    # outside the fields, so equality and repr do not see it
    inst = instances.showcase9()
    fresh = pickle.loads(pickle.dumps(inst))  # pickled before its first digest
    digest = inst.digest
    for copy in (fresh, pickle.loads(pickle.dumps(inst)), loads(dumps(inst))):
        assert copy == inst and copy.digest == digest
    assert inst == instances.showcase9()
    assert repr(inst) == repr(instances.showcase9()) and digest not in repr(inst)


def test_a_replaced_copy_computes_its_own_digest():
    inst = instances.showcase9()
    digest = inst.digest
    edited = _start_moved(inst, 7, -0.02)
    assert loads(dumps(edited)) == edited
    assert edited.digest == hashlib.sha256(dumps(edited).encode()).hexdigest()[:12]
    assert edited.digest != digest == inst.digest
    assert dataclasses.replace(edited, start=inst.start).digest == digest


def test_load_rejects_overlapping_start():
    inst = gen_random(2, 0)
    text = dumps(inst)
    lines = text.splitlines()
    # duplicate object 0's start pose into object 1's row
    f0 = lines[5].split()
    f1 = lines[6].split()
    f1[3:6] = f0[3:6]
    lines[6] = " ".join(f1)
    with pytest.raises(FeasibilityError, match="objects 0 and 1 overlap"):
        loads("\n".join(lines))
    # an overlapping start, and a goal outside the workspace: the graph is
    # built from what `loads` has checked, and checks neither again
    shapes = {0: (0.05, 0.05), 1: (0.05, 0.05)}
    overlapping = Arrangement({0: Pose2(0.5, 0.3), 1: Pose2(0.52, 0.3)})
    fine = Arrangement({0: Pose2(0.2, 0.2), 1: Pose2(0.8, 0.4)})
    outside = Arrangement({0: Pose2(0.5, 0.3), 1: Pose2(1.5, 0.3)})
    for start, goal, issue in (
        (overlapping, fine, "<string>: objects 0 and 1 overlap"),
        (fine, outside, "<string>: goal: object 1 outside workspace"),
    ):
        bad = instances.Instance(Workspace(), shapes, start, goal, "X2", 0)
        with pytest.raises(FeasibilityError) as err:
            loads(dumps(bad))
        assert str(err.value) == issue


def test_parse_errors_carry_line_info():
    with pytest.raises(ParseError) as err:
        loads("not-a-header\n")
    assert ":1:" in str(err.value)
    inst = gen_random(2, 0)
    bad = dumps(inst).replace("0.0", "zebra", 1)
    with pytest.raises(ParseError):
        loads(bad)


@pytest.mark.parametrize(
    "line, field, value, reported",
    [(7, 3, "nan", 7), (7, 8, "inf", 7), (7, 1, "-0.03", 7), (7, 2, "0", 7), (4, 1, "inf", 4)],
)
def test_non_finite_or_non_positive_values_are_parse_errors(line, field, value, reported):
    # in object 1's row (line 7) or in the workspace size (line 4); the
    # geometry raised a bare error, or none at all for an infinite workspace
    lines = dumps(instances.showcase9()).splitlines()
    parts = lines[line - 1].split()
    parts[field] = value
    lines[line - 1] = " ".join(parts)
    with pytest.raises(ParseError, match=rf"^<string>:{reported}: "):
        loads("\n".join(lines))


@pytest.mark.parametrize(
    "line, text, message",
    [
        (2, "label", "label line has 1 fields, not 2"),
        (3, "seed x", "invalid literal for int()"),
        (3, "seed", "seed line has 1 fields, not 2"),
        (4, "workspace nan 0.6", "workspace dimensions must be positive and finite"),
        (4, "workspace 1.0", "workspace line has 2 fields, not 3"),
        (5, "objects nine", "invalid literal for int()"),
    ],
)
def test_bad_header_values_are_reported_at_their_own_line(line, text, message):
    lines = dumps(instances.showcase9()).splitlines()
    lines[line - 1] = text
    with pytest.raises(ParseError) as err:
        loads("\n".join(lines))
    assert str(err.value).startswith(f"<string>:{line}: bad header value: {message}")


def test_showcase_fixture_file(tmp_path):
    inst = instances.showcase9()
    p = tmp_path / "showcase9.inst"
    save(inst, p)
    loaded = load(p)
    d = decompose(loaded.graph())
    assert d.cycles == [[0, 1, 2, 3]]
    assert d.chains == [[6, 5, 4]]
    assert d.isolated == [7]


def test_default_suite_shape():
    # counts only; building the suite is cheap but planning it is not
    suite = instances.default_suite()
    assert len(suite) >= 200
    cats = {c: sum(1 for i in suite if i.category == c) for c in "RSDM"}
    assert all(cats[c] > 0 for c in "RSDM")
    assert all(i.n == 12 for i in suite if i.category == "M")


# ------------------------------------------------------------ placement

def place_all_reference(rng, ws, shapes, attempts_budget, cross_boxes=()):
    """_place_all without the broad phase: every draw's box is built and
    tested against every placed box and every cross box with the exact
    predicates.  Returns the arrangement and its footprint map."""
    placed = {}
    boxes = {}
    attempts = 0
    for obj in sorted(shapes):
        hw, hh = shapes[obj]
        while True:
            attempts += 1
            if attempts > attempts_budget:
                raise GenerationExhausted(
                    f"failed to place object {obj} after {attempts_budget} attempts"
                )
            margin = math.hypot(hw, hh)
            pose = Pose2(
                rng.uniform(margin, ws.width - margin),
                rng.uniform(margin, ws.height - margin),
                rng.uniform(-math.pi, math.pi),
            )
            box = box_at(pose, hw, hh)
            if not inside(ws, box):
                continue
            if any(boxes_closer_than(box, b, MIN_GAP) for b in boxes.values()):
                continue
            if any(
                not overlaps(box, b) and boxes_closer_than(box, b, MIN_GAP)
                for b in cross_boxes
            ):
                continue
            placed[obj] = pose
            boxes[obj] = box
            break
    return Arrangement(placed), boxes


def _placements(place, n, seed, budget, ws):
    """What gen_random's first attempt does with `place`: the start, then
    the goal against the start's boxes.  Each outcome is an arrangement's
    poses or an exhaustion message, with the rng's state after it; the
    boxes `place` returns must be the arrangement's footprint map."""
    rng = random.Random(("R", n, seed, 0).__repr__())
    shapes = {
        i: (rng.uniform(*instances.RAND_HALF_RANGE), rng.uniform(*instances.RAND_HALF_RANGE))
        for i in range(n)
    }
    out = []
    cross = ()
    for _ in range(2):
        try:
            arr, boxes = place(rng, ws, shapes, budget, cross_boxes=cross)
        except GenerationExhausted as exc:
            out.append((str(exc), rng.getstate()))
            break
        assert list(boxes.items()) == list(footprints(arr, shapes).items())
        out.append((arr.poses, rng.getstate()))
        cross = boxes.values()
    return out


# crowded tables (R24 exhausts its budget), a tiny budget and a small
# workspace, where the goal, placed against the start's boxes, exhausts
PLACE_ALL_EXAMPLES = [(n, seed, 10_000, Workspace()) for n in (14, 18, 22, 24) for seed in (0, 3)]
PLACE_ALL_EXAMPLES += [(n, 1, 40, Workspace()) for n in (6, 16)]
PLACE_ALL_EXAMPLES += [(n, seed, 2_000, Workspace(0.4, 0.3)) for n in (3, 5) for seed in (0, 1)]


def _with_examples(cases):
    def decorate(test):
        for n, seed, budget, ws in reversed(cases):
            test = example(n=n, seed=seed, budget=budget, ws=ws)(test)
        return test

    return decorate


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 24),
    seed=st.integers(0, 2**31 - 1),
    budget=st.sampled_from([40, 300, 2_000, 10_000]) | st.integers(1, 3_000),
    ws=st.floats(0.35, 1.5).map(lambda s: Workspace(s, 0.6 * s)),
)
@_with_examples(PLACE_ALL_EXAMPLES)
def test_place_all_matches_reference_without_broad_phase(n, seed, budget, ws):
    # the poses or the exhaustion message, the rng's state and the
    # footprint map of the start and then the goal placed against it
    got = _placements(instances._place_all, n, seed, budget, ws)
    assert got == _placements(place_all_reference, n, seed, budget, ws)


def test_place_all_examples_reach_every_outcome():
    # the fixed examples place both arrangements, exhaust on the start, and
    # exhaust on the goal
    outcomes = [
        tuple(type(result) for result, _ in _placements(instances._place_all, *case))
        for case in PLACE_ALL_EXAMPLES
    ]
    assert outcomes.count((dict, dict)) > 5
    assert (str,) in outcomes and (dict, str) in outcomes


# Taken before the broad phase entered _place_all and near_miss the gap
# audit: sha256 of the concatenated dumps of default_suite(), and of
# gen_random(n, s) for even n from 14 to 24 and s 0-3, where R24/3's
# exhaustion text stands in for its dump.  The sweep's hash was 45634f39709632b7
# while that text began "audit never passed: ", with the same tables.
SUITE_SHA256 = "4c2015b890aa4d77987e7202d9c25ce897b74a6e6ae3b731625fb01ad803cebb"
SWEEP_SHA256 = "7f908a0821375f8a90b1a674741b7acb357d6ecf0fde50872e2ded39a210d064"


def test_generated_instances_are_pinned():
    suite = "".join(dumps(inst) for inst in instances.default_suite())
    assert hashlib.sha256(suite.encode()).hexdigest() == SUITE_SHA256
    parts = []
    for n in range(14, 25, 2):
        for seed in range(4):
            try:
                parts.append(dumps(gen_random(n, seed)))
            except GenerationExhausted as exc:
                parts.append(str(exc))
    assert parts[-1] == "gave up after 50 tries: failed to place object 20 after 10000 attempts"
    assert sum(not p.startswith(instances.INSTANCE_FORMAT) for p in parts) == 1
    assert hashlib.sha256("".join(parts).encode()).hexdigest() == SWEEP_SHA256
