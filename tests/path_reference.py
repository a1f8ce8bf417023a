"""The point of a path of (t, x, y) knots at one time, by a scan of its
own, independent of `geom.PathWalker`: the first segment whose end time is
at least t (the first knot before the path starts, the last one after it
ends), and a segment shorter than 1e-12 in time gives its end."""


def reference_point(knots, t: float) -> tuple[float, float]:
    if t <= knots[0][0]:
        return knots[0][1:]
    for (t0, x0, y0), (t1, x1, y1) in zip(knots, knots[1:]):
        if t <= t1:
            if t1 - t0 <= 1e-12:
                return (x1, y1)
            a = (t - t0) / (t1 - t0)
            return (x0 + a * (x1 - x0), y0 + a * (y1 - y0))
    return knots[-1][1:]
