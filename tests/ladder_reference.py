"""The rung ladder for one leg with no end-configuration proof: the
synchronous rung, then the untangled one, then the sequential one, each
tried in full.  `motion._ladder` must return what this returns, or raise
the same `SubTaskInfeasible`, for every leg."""

from sdar.motion import SyncMotion, plan_sync, sequential_fallback, untangle


def ladder_reference(sub, arms, stage, ee) -> SyncMotion:
    res = plan_sync(sub, arms, stage, ee)
    if isinstance(res, SyncMotion):
        return res
    res = untangle(sub, arms, stage, ee)
    if res is not None:
        return res
    return sequential_fallback(sub, arms, stage, ee)
