import re
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from sdar import cli, instances
from sdar.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def run_cli(*args):
    return main([str(a) for a in args])


def test_gen_single_cycle_file(tmp_path):
    assert run_cli("gen", "S", "7", "--seed", "3", "--out", tmp_path) == 0
    files = list(tmp_path.rglob("*.inst"))
    assert len(files) == 1
    inst = instances.load(files[0])
    assert inst.label == "S7" and inst.n == 7


def test_gen_mixed_count(tmp_path):
    assert run_cli("gen", "M", "--count", "5", "--seed", "1", "--out", tmp_path) == 0
    files = sorted(tmp_path.rglob("*.inst"))
    assert len(files) == 5
    for f in files:
        assert instances.load(f).n == 12


def test_gen_regeneration_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("gen", "D", "6", "--count", "2", "--seed", "4", "--out", out) == 0
    for fa in sorted(a.rglob("*.inst")):
        fb = b / fa.relative_to(a)
        assert fa.read_bytes() == fb.read_bytes()


def test_plan_identity_fixture(tmp_path, capsys):
    assert run_cli("plan", FIXTURES / "identity4.inst") == 0
    out = capsys.readouterr().out
    assert "actions    0" in out


def test_plan_showcase_fixture(tmp_path, capsys):
    trace = tmp_path / "run.trace"
    assert run_cli("plan", FIXTURES / "showcase9.inst", "--trace-out", trace) == 0
    out = capsys.readouterr().out
    assert "actions    10" in out
    assert trace.read_text().startswith("sdar-trace/3\n")


def test_plan_thin_object_beside_a_box_ends_without_a_traceback(capsys):
    # object 0 is 1e-6 thick, 0.015 from a box that blocks its long top-down
    # pads: its short top-down pads would have a negative half length, so
    # that angle is infeasible and the run plans, or fails with its reason
    inst = instances.load(FIXTURES / "thin_beside_box.inst")
    assert inst.shapes[0] == (5e-07, 0.03)
    code = run_cli("plan", FIXTURES / "thin_beside_box.inst")
    captured = capsys.readouterr()
    assert code in (0, 1)
    assert "success    True" in captured.out if code == 0 else "failure " in captured.err


def test_plan_corrupted_instance_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.inst"
    bad.write_text("sdar-instance/1\nlabel X\nseed 0\nworkspace 1.0 0.6\nobjects 1\n0 zebra\n")
    assert run_cli("plan", bad) == 2


def test_bad_object_row_values_are_input_errors(tmp_path, capsys):
    # a nan x in object 0's row, a negative half width in object 1's
    rows = (FIXTURES / "showcase9.inst").read_text().splitlines()
    for line, field, value in ((6, 3, "nan"), (7, 1, "-0.03")):
        parts = rows[line - 1].split()
        parts[field] = value
        suite = tmp_path / f"line{line}"
        suite.mkdir()
        bad = suite / "bad.inst"
        bad.write_text("\n".join(rows[: line - 1] + [" ".join(parts)] + rows[line:]) + "\n")
        for args in (("plan", bad), ("bench", suite, "--out", tmp_path / "r.csv"),
                     ("render", bad, "--out", tmp_path / "frames")):
            assert run_cli(*args) == 2, args
            err = capsys.readouterr().err
            assert err.startswith(f"input error: {bad}:{line}: "), (args, err)


def test_bad_header_lines_are_input_errors_at_their_own_line(tmp_path, capsys):
    # an empty label (line 2) used to end in an IndexError traceback, and a
    # bad seed (line 3) or workspace (line 4) was reported at line 5
    rows = (FIXTURES / "showcase9.inst").read_text().splitlines()
    for line, text in ((2, "label"), (3, "seed zero"), (4, "workspace nan 0.6")):
        bad = tmp_path / f"line{line}.inst"
        bad.write_text("\n".join(rows[: line - 1] + [text] + rows[line:]) + "\n")
        assert run_cli("plan", bad) == 2, text
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {bad}:{line}: bad header value: "), err


@pytest.mark.parametrize(
    "forge, line, detail",
    [
        (lambda rows: rows[:2] + ["seed 0 junk"] + rows[3:], 3,
         "bad header value: seed line has 3 fields, not 2"),
        (lambda rows: rows[:3] + ["workspace 1.0 0.6 9"] + rows[4:], 4,
         "bad header value: workspace line has 4 fields, not 3"),
        (lambda rows: rows[:2] + ["label ZZ"] + rows[2:], 3,
         "bad header value: seed line has 'label' where 'seed' belongs"),
        (lambda rows: rows[:1] + [rows[2], rows[1]] + rows[3:], 2,
         "bad header value: label line has 'seed' where 'label' belongs"),
        (lambda rows: rows[:5] + [rows[5] + " 0.0"] + rows[6:], 6,
         "object line has 10 fields, not 9"),
    ],
    ids=[
        "seed-junk", "workspace-third-value", "second-label", "seed-before-label", "row-tenth-field",
    ],
)
def test_lines_dumps_never_writes_are_input_errors_at_their_own_line(
    tmp_path, capsys, forge, line, detail
):
    # the header lines come once each and in the order dumps writes them,
    # each with its layout's fields, and an object row has 9 fields
    rows = forge((FIXTURES / "showcase9.inst").read_text().splitlines())
    text = "\n".join(rows) + "\n"
    with pytest.raises(instances.ParseError) as err:
        instances.loads(text)
    assert str(err.value) == f"<string>:{line}: {detail}"
    bad = tmp_path / "forged.inst"
    bad.write_text(text)
    assert run_cli("plan", bad) == 2
    assert capsys.readouterr().err == f"input error: {bad}:{line}: {detail}\n"


def test_gen_rejects_count_below_one(tmp_path, capsys):
    for count in ("0", "-3"):
        assert run_cli("gen", "R", "5", "--count", count, "--out", tmp_path) == 2
        assert capsys.readouterr().err == f"input error: --count must be >= 1, got {count}\n"
    assert not any(tmp_path.iterdir())


def test_bench_deterministic_and_ratios(tmp_path, capsys):
    suite = tmp_path / "suite"
    run_cli("gen", "S", "3", "--count", "2", "--seed", "0", "--out", suite)
    run_cli("gen", "D", "5", "--count", "1", "--seed", "0", "--out", suite)
    outs = []
    for name in ("r1", "r2"):
        csv = tmp_path / name / "report.csv"
        traces = tmp_path / name / "traces"
        assert run_cli("bench", suite, "--out", csv, "--traces", traces, "--seed", "5") == 0
        outs.append((csv.read_bytes(), sorted(p.name for p in traces.iterdir()),
                     [p.read_bytes() for p in sorted(traces.iterdir())]))
    assert outs[0] == outs[1]
    header, *rows = outs[0][0].decode().strip().splitlines()
    assert header.startswith("instance,category,n,actions,oracle_actions")
    for row in rows:
        cols = row.split(",")
        ratio, success, verified = float(cols[6]), cols[14], cols[15]
        assert success == "1" and verified == "1"
        assert ratio >= 1.0


def test_render_instance_outputs(tmp_path):
    out = tmp_path / "render"
    assert run_cli("render", FIXTURES / "showcase9.inst", "--out", out) == 0
    for name in ("start.svg", "goal.svg"):
        tree = ET.parse(out / name)
        assert tree.getroot().tag.endswith("svg")
    dot = (out / "depgraph.dot").read_text()
    assert dot.count("->") == 7


def test_render_identity_graph_has_no_edges(tmp_path):
    out = tmp_path / "render"
    assert run_cli("render", FIXTURES / "identity4.inst", "--out", out) == 0
    assert (out / "depgraph.dot").read_text().count("->") == 0


def test_render_trace_frames(tmp_path):
    inst_path = tmp_path / "s2.inst"
    instances.save(instances.gen_single_cycle(2, 1), inst_path)
    trace = tmp_path / "run.trace"
    assert run_cli("plan", inst_path, "--trace-out", trace) == 0
    out = tmp_path / "frames"
    assert run_cli("render", trace, "--instance", inst_path, "--out", out) == 0
    frames = sorted(out.glob("frame_*.svg"))
    # round(1/DT) + 1 frames per leg that moves, one per leg that does not
    durations = [float(ln.split()[-1]) for ln in trace.read_text().splitlines() if ln.startswith("leg ")]
    assert len(frames) == sum(51 if d > 0.0 else 1 for d in durations)
    for f in (frames[0], frames[-1]):
        ET.parse(f)
    # last frame shows every object filled at its goal footprint
    last = frames[-1].read_text()
    inst = instances.load(inst_path)
    assert last.count("<polygon") >= inst.n


def test_render_rejects_trace_without_instance(tmp_path, capsys):
    inst_path = tmp_path / "s2.inst"
    instances.save(instances.gen_single_cycle(2, 1), inst_path)
    trace = tmp_path / "run.trace"
    run_cli("plan", inst_path, "--trace-out", trace)
    assert run_cli("render", trace, "--out", tmp_path / "x") == 2


def test_render_rejects_missing_instance_file(tmp_path, capsys):
    trace = tmp_path / "run.trace"
    assert run_cli("plan", FIXTURES / "showcase9.inst", "--trace-out", trace) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert run_cli("render", trace, "--instance", tmp_path / "nope.inst", "--out", out) == 2
    assert "input error:" in capsys.readouterr().err
    assert not list(out.glob("frame_*.svg"))


def test_render_unknown_header_exits_2(tmp_path):
    weird = tmp_path / "nope.txt"
    weird.write_text("hello\n")
    assert run_cli("render", weird, "--out", tmp_path / "y") == 2


def test_bench_parallel_jobs_match_serial(tmp_path):
    suite = tmp_path / "suite"
    run_cli("gen", "S", "4", "--count", "3", "--seed", "2", "--out", suite)
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert run_cli("bench", suite, "--out", serial, "--seed", "3") == 0
    assert run_cli("bench", suite, "--out", parallel, "--seed", "3", "--jobs", "2") == 0
    assert serial.read_bytes() == parallel.read_bytes()


def _exit_code(*args):
    """The exit code of a command line that argparse may refuse."""
    try:
        return run_cli(*args)
    except SystemExit as exc:
        return exc.code


def test_plan_rejects_bad_motion_flags(capsys):
    # the time step and the buffer count are constants, not flags
    for flags in (("--dt", "0.02"), ("--dt", "0"), ("--k-buffers", "5"), ("--k-buffers", "0")):
        assert _exit_code("plan", FIXTURES / "showcase9.inst", *flags) == 2, flags
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err


def test_bench_rejects_bad_dt(tmp_path, capsys):
    suite = tmp_path / "suite"
    run_cli("gen", "S", "3", "--seed", "0", "--out", suite)
    csv = tmp_path / "report.csv"
    assert _exit_code("bench", suite, "--out", csv, "--dt", "0.02") == 2
    assert "unrecognized arguments: --dt 0.02" in capsys.readouterr().err
    assert not csv.exists()


def test_non_utf8_instance_is_an_input_error(tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    bad = suite / "bad.inst"
    bad.write_bytes(b"sdar-instance/1\nlabel \xff\n")
    for args in (("plan", bad), ("bench", suite, "--out", tmp_path / "report.csv")):
        assert run_cli(*args) == 2, args
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {bad}: not UTF-8 text"), err
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("command", ["plan", "bench", "bench-out-dir", "gen", "render"])
def test_unwritable_output_path_is_an_input_error(command, tmp_path, monkeypatch, capsys):
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    a_dir = tmp_path / "a_dir"
    a_dir.mkdir()
    suite = tmp_path / "suite"
    run_cli("gen", "S", "3", "--seed", "0", "--out", suite)
    csv = tmp_path / "report.csv"
    args = {
        "plan": ("plan", FIXTURES / "showcase9.inst", "--trace-out", tmp_path / "nodir" / "x.trace"),
        "bench": ("bench", suite, "--out", csv, "--traces", a_file),
        "bench-out-dir": ("bench", suite, "--out", a_dir),
        "gen": ("gen", "S", "3", "--out", a_file),
        "render": ("render", FIXTURES / "showcase9.inst", "--out", a_file),
    }[command]
    planned = []
    monkeypatch.setattr(cli, "_bench_one", planned.append)
    capsys.readouterr()
    assert run_cli(*args) == 2
    assert capsys.readouterr().err.startswith("input error:")
    # bench checks its output path and makes its directories before it
    # plans a row
    assert planned == [] and not csv.exists()


def test_plan_rejects_bad_clearance(capsys):
    for value in ("-1", "nan", "inf"):
        assert run_cli("plan", FIXTURES / "showcase9.inst", "--clearance", value) == 2, value
        assert "input error:" in capsys.readouterr().err


def test_plan_accepts_zero_clearance(capsys):
    assert run_cli("plan", FIXTURES / "showcase9.inst", "--clearance", "0") == 0
    assert "input error:" not in capsys.readouterr().err


def test_bench_rejects_bad_jobs(tmp_path, capsys):
    suite = tmp_path / "suite"
    run_cli("gen", "S", "3", "--seed", "0", "--out", suite)
    csv = tmp_path / "report.csv"
    for value in ("0", "-2"):
        assert run_cli("bench", suite, "--out", csv, "--jobs", value) == 2, value
        assert "input error:" in capsys.readouterr().err
    assert not csv.exists()


def test_bench_pool_has_no_more_workers_than_instances(tmp_path, monkeypatch):
    # a stand-in pool that records its size and maps in this process, so no
    # worker is ever started
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    suite = tmp_path / "suite"
    run_cli("gen", "S", "3", "--count", "2", "--seed", "0", "--out", suite)
    serial = tmp_path / "serial.csv"
    pooled = tmp_path / "pooled.csv"
    assert run_cli("bench", suite, "--out", serial) == 0
    assert sizes == []
    assert run_cli("bench", suite, "--out", pooled, "--jobs", "1000") == 0
    assert sizes == [2]
    assert pooled.read_bytes() == serial.read_bytes()


def test_gen_rejects_object_count_the_generator_cannot_build(tmp_path, capsys):
    for category, n in (("R", "0"), ("S", "1")):
        assert run_cli("gen", category, n, "--out", tmp_path) == 2, category
        assert "input error:" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.inst"))


def test_render_rejects_empty_or_undecodable_file(tmp_path, capsys):
    for content in (b"", b"\xff\xfe\n"):
        path = tmp_path / "input.txt"
        path.write_bytes(content)
        assert run_cli("render", path, "--out", tmp_path / "out") == 2, content
        assert "input error:" in capsys.readouterr().err


def test_render_input_error_creates_no_out_directory(tmp_path, capsys):
    # a header with no seed line, and an input file that does not exist
    rows = (FIXTURES / "showcase9.inst").read_text().splitlines()
    bad = tmp_path / "bad.inst"
    bad.write_text("\n".join(row for row in rows if not row.startswith("seed ")) + "\n")
    for path in (bad, tmp_path / "nothere.inst"):
        out = tmp_path / "d"
        assert run_cli("render", path, "--out", out) == 2, path
        assert "input error:" in capsys.readouterr().err
        assert not out.exists(), path


def test_render_rejects_trace_with_only_its_header(tmp_path, capsys):
    inst_path = tmp_path / "s2.inst"
    instances.save(instances.gen_single_cycle(2, 1), inst_path)
    trace = tmp_path / "run.trace"
    trace.write_text("sdar-trace/3\n")
    assert run_cli("render", trace, "--instance", inst_path, "--out", tmp_path / "out") == 2
    assert "input error:" in capsys.readouterr().err


def test_bench_rejects_malformed_instance_before_planning(tmp_path, monkeypatch, capsys):
    suite = tmp_path / "suite"
    run_cli("gen", "S", "3", "--count", "2", "--seed", "0", "--out", suite)
    # sorts after the good files, so a row-by-row load would plan them first
    (suite / "zz_bad.inst").write_text(
        "sdar-instance/1\nlabel X\nseed 0\nworkspace 1.0 0.6\nobjects 1\n0 zebra\n"
    )
    planned = []
    monkeypatch.setattr(cli, "_bench_one", lambda payload: planned.append(payload))
    csv = tmp_path / "report.csv"
    assert run_cli("bench", suite, "--out", csv) == 2
    assert "input error:" in capsys.readouterr().err
    assert planned == [] and not csv.exists()


def test_bench_rejects_instances_sharing_a_name_before_planning(tmp_path, monkeypatch, capsys):
    # rows and trace files are named by the file stem: two R4_0001.inst in
    # different directories would give two rows of one name and one trace
    suite = tmp_path / "dup"
    for sub in ("a", "b"):
        assert run_cli("gen", "R", "4", "--count", "1", "--seed", "1", "--out", suite / sub) == 0
    first, second = sorted(suite.rglob("*.inst"))
    assert first.name == second.name == "R4_0001.inst"
    planned = []
    monkeypatch.setattr(cli, "_bench_one", lambda payload: planned.append(payload))
    csv = tmp_path / "report.csv"
    assert run_cli("bench", suite, "--out", csv, "--traces", tmp_path / "traces") == 2
    err = capsys.readouterr().err
    assert err == f"input error: {first} and {second} share the name R4_0001\n"
    assert planned == [] and not csv.exists()


def _showcase9_trace(tmp_path):
    trace = tmp_path / "s9.trace"
    assert run_cli("plan", FIXTURES / "showcase9.inst", "--trace-out", trace) == 0
    return trace


def test_render_rejects_trace_of_another_instance(tmp_path, capsys):
    trace = _showcase9_trace(tmp_path)
    out = tmp_path / "out"
    assert run_cli("render", trace, "--instance", FIXTURES / "identity4.inst", "--out", out) == 2
    assert "input error:" in capsys.readouterr().err
    assert not list(out.glob("frame_*.svg"))


def test_render_rejects_release_without_place_line(tmp_path, capsys):
    trace = _showcase9_trace(tmp_path)
    lines = trace.read_text().splitlines(keepends=True)
    trace.write_text("".join(ln for ln in lines if not ln.startswith("place ")))
    out = tmp_path / "out"
    assert run_cli("render", trace, "--instance", FIXTURES / "showcase9.inst", "--out", out) == 2
    assert "input error:" in capsys.readouterr().err
    assert not list(out.glob("frame_*.svg"))


def test_render_rejects_object_the_instance_lacks(tmp_path, capsys):
    # the hash matches, but one grip and its place line name object 99
    trace = _showcase9_trace(tmp_path)
    text = trace.read_text()
    leg, obj = re.search(r"^place (\d+) (\d+) ", text, re.M).groups()
    text = re.sub(rf"^(grip {leg} \d open) {obj} ", r"\1 99 ", text, flags=re.M)
    text = re.sub(rf"^place {leg} {obj} ", f"place {leg} 99 ", text, flags=re.M)
    trace.write_text(text)
    assert text.count(" 99 ") == 2
    out = tmp_path / "out"
    assert run_cli("render", trace, "--instance", FIXTURES / "showcase9.inst", "--out", out) == 2
    assert "input error:" in capsys.readouterr().err
    assert not list(out.glob("frame_*.svg"))


def test_render_names_the_trace_file_and_line_it_cannot_parse(tmp_path, capsys):
    trace = _showcase9_trace(tmp_path)
    lines = trace.read_text().splitlines(keepends=True)
    k = next(i for i, ln in enumerate(lines) if ln.startswith("place "))
    parts = lines[k].split()
    parts[3] = "nan"
    lines[k] = " ".join(parts) + "\n"
    trace.write_text("".join(lines))
    out = tmp_path / "out"
    assert run_cli("render", trace, "--instance", FIXTURES / "showcase9.inst", "--out", out) == 2
    assert capsys.readouterr().err == (
        f"input error: {trace}: malformed sdar-trace/3 trace: line {k + 1}: "
        f"non-finite pose (nan, {parts[4]}, {parts[5]})\n"
    )
    assert not list(out.glob("frame_*.svg"))


def test_render_rejects_leg_with_unequal_sample_counts(tmp_path, capsys):
    # the hash matches, but arm 2 of leg 1 has no knots, so no samples
    trace = _showcase9_trace(tmp_path)
    lines = trace.read_text().splitlines(keepends=True)
    trace.write_text("".join(ln for ln in lines if not ln.startswith("k 1 1 ")))
    out = tmp_path / "out"
    assert run_cli("render", trace, "--instance", FIXTURES / "showcase9.inst", "--out", out) == 2
    assert capsys.readouterr().err == f"input error: {trace}: leg 1: arm 2 has no knots\n"
    assert not list(out.glob("frame_*.svg"))
