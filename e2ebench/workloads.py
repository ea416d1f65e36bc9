"""Workload registry: name → module with ``run`` and ``build_probe_inputs``."""

from __future__ import annotations

import online_mixed
import plan_batch
import service_open

MODULES = {
    "plan-batch": plan_batch,
    "online-mixed": online_mixed,
    "service-open": service_open,
}


def build_probe_inputs(name: str) -> None:
    MODULES[name].build_probe_inputs()
