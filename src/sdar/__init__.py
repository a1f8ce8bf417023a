"""Dual-arm tabletop rearrangement planner on a 2-D geometric surrogate."""

from .depgraph import (
    Arrangement, DepGraph, Decomposition, build_dependency_graph, decompose, footprints
)
from .geom import OrientedBox, Pose2, Workspace
from .instances import (
    Instance,
    gen_double_cycle,
    gen_mixed,
    gen_random,
    gen_single_cycle,
    load,
    save,
)
from .motion import ArmModel, GraspAngle, SyncMotion, default_arms
from .sim import RunMetrics, new_session, run_instance, verify_trace
from .taskplan import PlannerSession, TaskPlan, next_task_plan

__version__ = "0.1.0"

__all__ = [
    "Arrangement",
    "ArmModel",
    "DepGraph",
    "Decomposition",
    "GraspAngle",
    "Instance",
    "OrientedBox",
    "PlannerSession",
    "Pose2",
    "RunMetrics",
    "SyncMotion",
    "TaskPlan",
    "Workspace",
    "build_dependency_graph",
    "decompose",
    "default_arms",
    "footprints",
    "gen_double_cycle",
    "gen_mixed",
    "gen_random",
    "gen_single_cycle",
    "load",
    "new_session",
    "next_task_plan",
    "run_instance",
    "save",
    "verify_trace",
]
