"""Command-line front end: generate suites, plan instances, run benchmark
sweeps, and render scenes, dependency graphs, and trace animations.

Exit codes: 0 success, 1 planning failure, 2 input error (a bad flag, an
unreadable or malformed input file, or an output path that cannot be
written).  Flags are the only settings: no environment variable is read.
The planner's time step `motion.DT` and its buffer poses per listing
`motion.K_BUFFERS` are constants, not flags.  Traces do not record DT:
`sdar render` draws each moving leg at `round(1/DT)` + 1 frames.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import instances, sim
from .depgraph import footprint, footprints, to_dot
from .geom import Pose2
from .instances import FeasibilityError, GenerationExhausted, Instance, ParseError
from .motion import DEFAULT_CLEARANCE, default_arms

CSV_HEADER = (
    "instance,category,n,actions,oracle_actions,oracle_assumption,ratio,"
    "sync_steps,buffers_used,makespan,sequential_makespan,"
    "fb_synchronous,fb_untangled,fb_sequential,success,verified"
)


def _add_motion_flags(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--clearance", type=float, default=DEFAULT_CLEARANCE)


def _motion_flags_ok(args) -> bool:
    """Reject a --clearance value that cannot be planned with, as an input
    error."""
    if math.isfinite(args.clearance) and args.clearance >= 0.0:
        return True
    bad = f"--clearance must be a finite number >= 0, got {args.clearance!r}"
    print(f"input error: {bad}", file=sys.stderr)
    return False


# ------------------------------------------------------------------- gen


def cmd_gen(args) -> int:
    if args.count < 1:
        print(f"input error: --count must be >= 1, got {args.count}", file=sys.stderr)
        return 2
    out = Path(args.out)
    written = []
    try:
        if args.category == "default":
            made = instances.default_suite()
        else:
            made = (_generate(args.category, args.n, args.seed + k) for k in range(args.count))
        for inst in made:
            path = out / inst.category / _suite_name(inst)
            path.parent.mkdir(parents=True, exist_ok=True)
            instances.save(inst, path)
            written.append(path)
    except GenerationExhausted as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # an object count the generator cannot build
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    print(f"wrote {len(written)} instance file(s) under {out}")
    return 0


def _generate(category: str, n, seed: int) -> Instance:
    if category == "M":
        return instances.gen_mixed(seed)
    if n is None:
        raise GenerationExhausted(f"category {category} requires an object count")
    if category == "R":
        return instances.gen_random(n, seed)
    if category == "S":
        return instances.gen_single_cycle(n, seed)
    if category == "D":
        return instances.gen_double_cycle(n, seed)
    raise GenerationExhausted(f"unknown category {category!r}")


def _suite_name(inst: Instance) -> str:
    return f"{inst.label}_{inst.seed:04d}.inst"


# ------------------------------------------------------------------ plan


def cmd_plan(args) -> int:
    if not _motion_flags_ok(args):
        return 2
    inst = instances.load(args.instance)
    arms = default_arms(inst.workspace, clearance=args.clearance)
    t0 = time.perf_counter()
    metrics, record = sim.run_instance(inst, args.seed, arms)
    elapsed = time.perf_counter() - t0
    if args.trace_out:
        sim.save_trace(record.trace, args.trace_out)
    ok, msg = sim.verify_trace(record.trace, inst, arms)
    print(f"instance   {inst.label} (n={inst.n}, seed {args.seed})")
    print(f"success    {metrics.success}")
    print(f"actions    {metrics.actions}")
    print(f"buffers    {metrics.buffers_used}")
    print(f"sub-tasks  {metrics.sync_steps}")
    print(f"makespan   {metrics.makespan:.4f}")
    print(f"fallbacks  {metrics.fallback_counts}")
    print(f"verified   {ok} ({msg})")
    print(f"plan time  {elapsed:.3f}s")
    if not metrics.success:
        print(f"failure    {metrics.failure}", file=sys.stderr)
        return 1
    return 0 if ok else 1


# ----------------------------------------------------------------- bench


def _bench_one(payload):
    name, inst, seed, clearance = payload
    arms = default_arms(inst.workspace, clearance=clearance)
    ev = sim.evaluate(inst, seed, arms)
    metrics, verified = ev.metrics, ev.verdict[0]
    if ev.oracle is None:
        oracle_actions, assumption = -1, False
    else:
        oracle_actions = ev.oracle.single_arm_optimal_actions
        assumption = ev.oracle.assumption_holds
    seq_makespan = float("nan") if ev.seq_makespan is None else ev.seq_makespan
    fb = metrics.fallback_counts
    ratio = oracle_actions / metrics.actions if metrics.actions and oracle_actions > 0 else float("nan")
    row = (
        f"{name},{inst.category},{inst.n},{metrics.actions},"
        f"{oracle_actions},{int(assumption)},{ratio:.6f},"
        f"{metrics.sync_steps},{metrics.buffers_used},{metrics.makespan:.9f},"
        f"{seq_makespan:.9f},{fb.get('synchronous', 0)},{fb.get('untangled', 0)},"
        f"{fb.get('sequential', 0)},{int(metrics.success)},{int(verified)}"
    )
    return {
        "name": name,
        "category": inst.category,
        "row": row,
        "trace": sim.dumps_trace(ev.record.trace),
        "success": metrics.success and verified,
        "ratio": ratio if assumption and metrics.success else None,
        "saving": (1.0 - metrics.makespan / ev.seq_makespan)
        if ev.seq_makespan is not None and ev.seq_makespan > 0
        else None,
        "elapsed": ev.plan_s,
    }


def cmd_bench(args) -> int:
    if not _motion_flags_ok(args):
        return 2
    if args.jobs < 1:
        print(f"input error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    suite_dir = Path(args.suite)
    paths = sorted(suite_dir.rglob("*.inst"))
    if not paths:
        print(f"no .inst files under {suite_dir}", file=sys.stderr)
        return 2
    # every file is loaded and checked before any row is planned; a row and
    # its trace file are named by the file's stem, so stems must differ
    payloads = []
    stems = {}
    for p in paths:
        if p.stem in stems:
            print(
                f"input error: {stems[p.stem]} and {p} share the name {p.stem}", file=sys.stderr
            )
            return 2
        stems[p.stem] = p
        payloads.append((p.stem, instances.load(p), args.seed, args.clearance))
    # the output path is checked and its directories made before any row is
    # planned
    out = Path(args.out)
    if out.is_dir():
        print(f"input error: --out {out} is a directory", file=sys.stderr)
        return 2
    out.parent.mkdir(parents=True, exist_ok=True)
    tdir = Path(args.traces) if args.traces else None
    if tdir:
        tdir.mkdir(parents=True, exist_ok=True)
    # the pool starts all its workers at once: no more than there are rows
    workers = min(args.jobs, len(payloads))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_bench_one, payloads))
    else:
        results = [_bench_one(p) for p in payloads]
    results.sort(key=lambda r: r["name"])

    with open(out, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in results:
            fh.write(r["row"] + "\n")
    if tdir:
        for r in results:
            (tdir / f"{r['name']}.trace").write_text(r["trace"], encoding="utf-8")

    print(f"wrote {out} ({len(results)} instances)")
    for cat in sorted({r["category"] for r in results}):
        rows = [r for r in results if r["category"] == cat]
        succ = sum(1 for r in rows if r["success"]) / len(rows)
        ratios = [r["ratio"] for r in rows if r["ratio"] is not None]
        savings = [r["saving"] for r in rows if r["saving"] is not None]
        mean_ratio = sum(ratios) / len(ratios) if ratios else float("nan")
        mean_saving = sum(savings) / len(savings) if savings else float("nan")
        mean_t = sum(r["elapsed"] for r in rows) / len(rows)
        print(
            f"  {cat}: {len(rows):3d} instances, success {succ:6.1%}, "
            f"mean action ratio {mean_ratio:.3f}, mean makespan saving {mean_saving:.1%}, "
            f"mean plan time {mean_t:.3f}s"
        )
    failures = [r["name"] for r in results if not r["success"]]
    if failures:
        print(f"failures: {failures}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------- render


_SVG_SCALE = 800.0


def _svg_open(ws) -> list[str]:
    w = ws.width * _SVG_SCALE
    h = ws.height * _SVG_SCALE
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" height="{h:.0f}" '
        f'viewBox="0 0 {w:.0f} {h:.0f}">',
        f'<rect x="0" y="0" width="{w:.0f}" height="{h:.0f}" fill="#f8f8f4" '
        'stroke="#444" stroke-width="2"/>',
    ]


def _svg_pt(ws, p) -> tuple[float, float]:
    return p[0] * _SVG_SCALE, (ws.height - p[1]) * _SVG_SCALE


def _svg_box(ws, box, fill, stroke, dash="", opacity=1.0, label=None) -> str:
    pts = " ".join(f"{x:.1f},{y:.1f}" for x, y in (_svg_pt(ws, c) for c in box.corners()))
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    svg = (
        f'<polygon points="{pts}" fill="{fill}" stroke="{stroke}" '
        f'stroke-width="1.5" opacity="{opacity}"{extra}/>'
    )
    if label is not None:
        cx, cy = _svg_pt(ws, box.center.xy)
        svg += (
            f'<text x="{cx:.1f}" y="{cy + 5:.1f}" font-size="16" text-anchor="middle" '
            f'fill="#222">{label}</text>'
        )
    return svg


_PALETTE = [
    "#7db8da", "#e8a87c", "#a8d5a2", "#d5a2c8", "#e8d87c",
    "#9aa7e8", "#e87c7c", "#7cd8ce", "#c8b49a", "#b4e87c",
]


def render_scene(inst: Instance, which: str) -> str:
    """SVG panel for the start or goal arrangement; the goal panel shows the
    start footprints as white outlines for reference."""
    ws = inst.workspace
    parts = _svg_open(ws)
    if which == "goal":
        for box in footprints(inst.start, inst.shapes).values():
            parts.append(_svg_box(ws, box, "white", "#999", dash="4 3"))
    arr = inst.goal if which == "goal" else inst.start
    for i, box in footprints(arr, inst.shapes).items():
        parts.append(_svg_box(ws, box, _PALETTE[i % len(_PALETTE)], "#333", label=i))
    parts.append("</svg>")
    return "\n".join(parts)


def render_frame(inst: Instance, table, ee, carried, arms) -> str:
    ws = inst.workspace
    parts = _svg_open(ws)
    for box in footprints(inst.goal, inst.shapes).values():
        parts.append(_svg_box(ws, box, "none", "#bbb", dash="3 3"))
    for i, pose in sorted(table.items()):
        parts.append(
            _svg_box(ws, footprint(i, pose, inst.shapes),
                     _PALETTE[i % len(_PALETTE)], "#333", label=i)
        )
    for a in (0, 1):
        bx, by = _svg_pt(ws, arms[a].base)
        ex, ey = _svg_pt(ws, ee[a])
        parts.append(
            f'<line x1="{bx:.1f}" y1="{by:.1f}" x2="{ex:.1f}" y2="{ey:.1f}" '
            'stroke="#555" stroke-width="4" stroke-linecap="round" opacity="0.7"/>'
        )
        r = arms[a].ee_radius * _SVG_SCALE
        fill = "#d04040" if carried[a] is not None else "#6080d0"
        parts.append(f'<circle cx="{ex:.1f}" cy="{ey:.1f}" r="{r:.1f}" fill="{fill}"/>')
        if carried[a] is not None:
            obj = carried[a]
            box = footprint(obj, Pose2(ee[a][0], ee[a][1], 0.0), inst.shapes)
            parts.append(_svg_box(ws, box, _PALETTE[obj % len(_PALETTE)], "#d04040",
                                  opacity=0.8, label=obj))
    parts.append("</svg>")
    return "\n".join(parts)


def cmd_render(args) -> int:
    path = Path(args.path)
    out = Path(args.out)
    # --out is made only once the input has been read and parsed, so an input
    # error leaves no directory behind
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    head = lines[0].strip() if lines else ""

    if head == instances.INSTANCE_FORMAT:
        inst = instances.load(path)
        out.mkdir(parents=True, exist_ok=True)
        (out / "start.svg").write_text(render_scene(inst, "start"), encoding="utf-8")
        (out / "goal.svg").write_text(render_scene(inst, "goal"), encoding="utf-8")
        (out / "depgraph.dot").write_text(to_dot(inst.graph()), encoding="utf-8")
        print(f"wrote start.svg, goal.svg, depgraph.dot under {out}")
        return 0

    if head == sim.TRACE_FORMAT:
        if not args.instance:
            print("trace rendering needs --instance", file=sys.stderr)
            return 2
        inst = instances.load(args.instance)
        try:
            trace = sim.load_trace(path)
            sim.check_frames(trace, inst)
        except ValueError as exc:
            print(f"input error: {path}: {exc}", file=sys.stderr)
            return 2
        arms = trace.arms
        out.mkdir(parents=True, exist_ok=True)
        count = 0
        for k, (table, ee, carried) in enumerate(sim.iterate_frames(trace, inst)):
            frame = render_frame(inst, table, ee, carried, arms)
            (out / f"frame_{k:05d}.svg").write_text(frame, encoding="utf-8")
            count += 1
        print(f"wrote {count} frames under {out}")
        return 0

    print(f"input error: unrecognized file header {head!r}", file=sys.stderr)
    return 2


# ------------------------------------------------------------------ main


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sdar", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate instance files")
    g.add_argument("category", choices=["R", "S", "D", "M", "default"])
    g.add_argument("n", type=int, nargs="?", default=None, help="object count (R/S/D)")
    g.add_argument("--count", type=int, default=1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default="suites")
    g.set_defaults(func=cmd_gen)

    pl = sub.add_parser("plan", help="plan and execute one instance")
    pl.add_argument("instance")
    pl.add_argument("--trace-out", default=None)
    _add_motion_flags(pl)
    pl.set_defaults(func=cmd_plan)

    b = sub.add_parser("bench", help="run a benchmark sweep over a suite directory")
    b.add_argument("suite")
    b.add_argument("--out", default="report.csv")
    b.add_argument("--traces", default=None, help="directory for per-instance traces")
    b.add_argument("--jobs", type=int, default=1)
    _add_motion_flags(b)
    b.set_defaults(func=cmd_bench)

    r = sub.add_parser("render", help="render scenes, graphs, or trace frames")
    r.add_argument("path", help="an .inst file or a trace file")
    r.add_argument("--instance", default=None, help="instance file (for traces)")
    r.add_argument("--out", default="render")
    r.set_defaults(func=cmd_render)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # an input file it cannot read or parse, an output path it cannot write
    except (OSError, ParseError, FeasibilityError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
