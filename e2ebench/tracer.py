"""Outside-in spans around the program's layer entry points.

The benchmark does not edit the program.  For a traced run it replaces
each layer's public function or method with a wrapper that records a
nested span (wall time, self time, calls), then calls the original.  A
module-level function is replaced in every loaded ``repro`` module that
bound it by name, so ``from .x import f`` call sites are covered too;
methods are replaced on their class.  ``numpy.linalg.inv`` (the basis
factorization ``repro.lp`` calls) and ``scipy.optimize.linprog``/``milp``
(the HiGHS entry points) are wrapped the same way from outside.

Spans stay in memory and are summarised once, when the child ends.
"""

from __future__ import annotations

import importlib
import sys
import time

#: span name → (module, attribute path).  The span names are the layer
#: names of the per-layer metric table (README.md).
SPANS = {
    "formulation": ("repro.core.formulation", "ConsolidationModel.__init__"),
    "lp.to_matrix_form": ("repro.lp.standard_form", "to_matrix_form"),
    "lp.presolve": ("repro.lp.array_presolve", "presolve_arrays"),
    "lp.bb": ("repro.lp.branch_bound", "solve_branch_and_bound"),
    "lp.relax": ("repro.lp.matrix_lp", "RelaxationContext.solve"),
    "lp.factor": ("numpy.linalg", "inv"),
    "master.solve": ("repro.lp.master", "RestrictedMasterLP.solve"),
    "decomp.solve": ("repro.core.decomposition", "solve_decomposition"),
    "decomp.blocks": ("repro.core.decomposition", "extract_group_blocks"),
    "highs.linprog": ("scipy.optimize", "linprog"),
    "highs.milp": ("scipy.optimize", "milp"),
    "cache.solve": ("repro.lp.solvers", "SolveCache.solve"),
    "incremental.sync": ("repro.core.incremental", "RevisionedModel.sync"),
    "online.replan": ("repro.online.controller", "OnlineController.replan"),
    "online.observe": ("repro.online.controller", "OnlineController.observe"),
    "plan.finish": ("repro.core.plan", "evaluate_plan"),
    "plan.validate": ("repro.core.validation", "validate_plan"),
}

#: The hint repairer is a closure built per session; its factory is
#: wrapped so every closure it returns is wrapped in turn.
HINT_FACTORY = ("repro.core.hint_repair", "make_hint_repairer")


class Tracer:
    """Nested span accounting: total and self seconds and calls per name."""

    def __init__(self) -> None:
        self.total: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        #: Per active span: seconds covered by its direct children.
        self._stack: list[float] = []
        self.enabled = True
        #: ``(name, result)`` observers, e.g. to read a Solution's stats.
        self.on_return: dict[str, object] = {}

    def wrap(self, name: str, fn):
        tracer = self

        def span(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1] += elapsed
                tracer.total[name] = tracer.total.get(name, 0.0) + elapsed
                tracer.self_s[name] = tracer.self_s.get(name, 0.0) + elapsed - children
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
            hook = tracer.on_return.get(name)
            if hook is not None:
                hook(args, result)
            return result

        return span

    def install(self) -> None:
        """Wrap every layer entry point listed in :data:`SPANS`."""
        for name, (module_name, path) in SPANS.items():
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
            else:
                _rebind(module, attr, self.wrap(name, getattr(module, attr)))
        module_name, attr = HINT_FACTORY
        module = importlib.import_module(module_name)
        factory = getattr(module, attr)

        def wrapped_factory(*args, **kwargs):
            return self.wrap("hint.repair", factory(*args, **kwargs))

        _rebind(module, attr, wrapped_factory)

    def report(self, counters=None, bb=None, master_columns: int = 0) -> dict:
        """The JSON-safe summary ``layers.from_reports`` reads."""
        return {
            "total": self.total, "self": self.self_s, "calls": self.calls,
            "counters": counters or {}, "bb": bb or {},
            "master_columns": master_columns, "spans": sum(self.calls.values()),
        }


def _rebind(module, attr: str, replacement) -> None:
    """Point ``module.attr`` and every ``repro`` alias of it at ``replacement``."""
    original = getattr(module, attr)
    setattr(module, attr, replacement)
    for loaded in list(sys.modules.values()):
        name = getattr(loaded, "__name__", "")
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, replacement)


def per_call_overhead_s(samples: int = 20000) -> float:
    """Seconds one span adds to a call, measured on a wrapped no-op."""
    probe = Tracer()

    def noop():
        return None

    wrapped = probe.wrap("probe", noop)
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(samples):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(samples):
            wrapped()
        best = min(best, (time.perf_counter() - start - bare) / samples)
    return max(best, 0.0)


def import_layers() -> None:
    """Import every module a span lives in, so aliases exist to rebind."""
    import repro  # noqa: F401
    import repro.online.replay  # noqa: F401
    import repro.service.executor  # noqa: F401

    for module_name, _ in list(SPANS.values()) + [HINT_FACTORY]:
        importlib.import_module(module_name)
