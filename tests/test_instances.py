import pytest

from sdar import instances
from sdar.depgraph import arrangement_violations, decompose
from sdar.instances import (
    FeasibilityError,
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


def assert_feasible(inst):
    assert not arrangement_violations(inst.start, inst.shapes, inst.workspace)
    assert not arrangement_violations(inst.goal, inst.shapes, inst.workspace)


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


def test_roundtrip_bit_exact(tmp_path):
    for inst in (gen_random(6, 3), gen_single_cycle(5, 1), instances.showcase9()):
        p = tmp_path / "x.inst"
        save(inst, p)
        again = load(p)
        assert dumps(again) == dumps(inst)
        assert again.shapes == inst.shapes
        for i in inst.ids():
            assert again.start.pose_of(i) == inst.start.pose_of(i)
            assert again.goal.pose_of(i) == inst.goal.pose_of(i)


def test_load_rejects_overlapping_start():
    inst = gen_random(2, 0)
    text = dumps(inst)
    lines = text.splitlines()
    # duplicate object 0's start pose into object 1's row
    f0 = lines[5].split()
    f1 = lines[6].split()
    f1[3:6] = f0[3:6]
    lines[6] = " ".join(f1)
    with pytest.raises(FeasibilityError):
        loads("\n".join(lines))


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
        (2, "label", "label needs 1 value"),
        (3, "seed x", "invalid literal for int()"),
        (3, "seed", "seed needs 1 value"),
        (4, "workspace nan 0.6", "workspace dimensions must be positive and finite"),
        (4, "workspace 1.0", "workspace needs 2 values"),
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
