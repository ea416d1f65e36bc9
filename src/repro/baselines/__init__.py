"""Comparison algorithms: as-is evaluation, manual and greedy heuristics."""

from .asis import ASIS_BACKUP_SITE, asis_plan, asis_with_dr_plan
from .greedy import GreedyPlanError, run_greedy
from .manual import ManualPlanError, manual_plan

__all__ = [
    "ASIS_BACKUP_SITE",
    "GreedyPlanError",
    "ManualPlanError",
    "asis_plan",
    "asis_with_dr_plan",
    "manual_plan",
    "run_greedy",
]
