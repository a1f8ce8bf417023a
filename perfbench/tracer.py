"""In-memory spans and counters for the benchmark's traced run.

The tracer wraps public functions of the planner from outside: each wrapper
replaces a name in the module that calls it, because the modules bind their
imports by name.  A span records one wrapped call; calls to cheap geometric
primitives get no span of their own but add their count and time to the span
that is open when they run.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    parent: Optional[int]
    request: int
    name: str
    layer: str
    start: float
    end: float = 0.0
    folded_s: float = 0.0  # time of folded geometry calls made directly in this span

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    clock: Callable[[], float] = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    stack: list[Span] = field(default_factory=list)
    request: int = 0

    def open(self, name: str, layer: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        sp = Span(len(self.spans), parent, self.request, name, layer, self.clock())
        self.spans.append(sp)
        self.stack.append(sp)
        return sp

    def close(self, sp: Span) -> None:
        sp.end = self.clock()
        top = self.stack.pop()
        if top is not sp:
            raise RuntimeError(f"span {sp.name} closed while {top.name} is open")

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def spanned(self, fn, name: str, layer: str, on_result=None, on_error=None):
        """`fn` wrapped in a span; `on_result(result)` / `on_error(exc)`
        update counters after the span closes."""

        def wrapper(*args, **kwargs):
            sp = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.close(sp)
                if on_error is not None:
                    on_error(exc)
                raise
            self.close(sp)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def folded(self, fn, counter: str):
        """`fn` counted under `counter`, its time added to the open span."""
        clock = self.clock
        stack = self.stack
        counts = self.counts
        counts.setdefault(counter, 0)

        def wrapper(*args):
            t0 = clock()
            result = fn(*args)
            stack[-1].folded_s += clock() - t0
            counts[counter] += 1
            return result

        return wrapper

    def counted(self, fn, calls: str, rejects: str):
        """`fn` counted under `calls`, and under `rejects` when it returns a
        false value; its time stays with the caller's span."""
        counts = self.counts
        counts.setdefault(calls, 0)
        counts.setdefault(rejects, 0)

        def wrapper(*args):
            result = fn(*args)
            counts[calls] += 1
            if not result:
                counts[rejects] += 1
            return result

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sp.id,
                            "parent": sp.parent,
                            "request": sp.request,
                            "name": sp.name,
                            "layer": sp.layer,
                            "start": sp.start,
                            "end": sp.end,
                            "folded_s": sp.folded_s,
                        }
                    )
                    + "\n"
                )


FOLD_LAYER = "geom"


def self_times(spans: list[Span], key=lambda sp: sp.layer) -> dict[str, float]:
    """Seconds spent in each group itself (by default a group is a layer):
    each span's duration less its children's durations and its folded calls,
    which go to FOLD_LAYER.  The values sum to the root spans' durations."""
    by_id = {sp.id: sp for sp in spans}
    out: dict[str, float] = {}
    for sp in spans:
        k = key(sp)
        out[k] = out.get(k, 0.0) + sp.duration - sp.folded_s
        if sp.folded_s:
            out[FOLD_LAYER] = out.get(FOLD_LAYER, 0.0) + sp.folded_s
        if sp.parent is not None:
            pk = key(by_id[sp.parent])
            out[pk] = out.get(pk, 0.0) - sp.duration
    return out


def total_by_name(spans: list[Span]) -> dict[str, float]:
    """Summed span duration per span name (inclusive of children)."""
    out: dict[str, float] = {}
    for sp in spans:
        out[sp.name] = out.get(sp.name, 0.0) + sp.duration
    return out


class Patches:
    """Module attributes replaced for the traced run, restored on exit."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, make_wrapper) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False
