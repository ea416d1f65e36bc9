"""Typed solver options: one validated record instead of scattered kwargs.

Historically every backend took ``**options`` and silently dropped the
flags it did not understand (``mip_rel_gap`` on ``branch_bound``,
``cover_cut_rounds`` on ``simplex``, ...).  :class:`SolveOptions` is the
replacement: a frozen dataclass carrying every knob any backend accepts,
plus a per-backend capability table so :func:`SolveOptions.validate_for`
can reject an option the chosen backend would ignore.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields
from typing import Mapping


@dataclass(frozen=True)
class SolveOptions:
    """Options for one :func:`repro.lp.solve` call.

    Attributes
    ----------
    time_limit:
        Wall-clock budget in seconds (``highs``, ``branch_bound``).
    mip_rel_gap:
        Relative optimality gap at which the MIP search may stop
        (``highs``).
    node_limit:
        Branch-and-bound node budget (``branch_bound``).
    gap_tolerance:
        Absolute incumbent/bound gap at which ``branch_bound`` declares
        optimality.
    max_iterations:
        Simplex pivot budget per LP (``simplex``, and the builtin
        relaxation engine of ``branch_bound``/``rounding``).
    relaxation_engine:
        Which LP engine solves node relaxations (``branch_bound``,
        ``rounding``): ``"highs"``, ``"builtin"`` (the sparse revised
        simplex), or ``"tableau"`` (the historical dense full-tableau
        simplex, kept for cross-checking).
    cover_cut_rounds:
        Rounds of root knapsack cover cuts (``branch_bound``).
    node_resolve:
        How warm-started branch-and-bound node re-solves run on the
        builtin engine: ``"dual"`` (default) enters the dual simplex
        from the parent basis, ``"primal"`` keeps the primal
        phase-1/phase-2 path for every node.
    presolve:
        Array-level presolve of the root relaxation (``branch_bound``,
        ``rounding``): singleton/redundant rows are dropped and bounds
        tightened once per tree.  ``True`` by default; set ``False`` to
        solve the raw arrays.
    warm_start:
        Variable-name → value hint from a previous, closely related
        solve.  ``branch_bound`` seeds its incumbent from it when the
        point is feasible; ``highs`` accepts but ignores it (SciPy's
        ``milp`` exposes no solution hint) — accepted everywhere so an
        incremental caller need not special-case backends.
    """

    time_limit: float | None = None
    mip_rel_gap: float | None = None
    node_limit: int = 200000
    gap_tolerance: float = 1e-6
    max_iterations: int = 20000
    relaxation_engine: str = "highs"
    cover_cut_rounds: int = 0
    node_resolve: str = "dual"
    presolve: bool = True
    warm_start: Mapping[str, float] | None = None

    def __post_init__(self) -> None:
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValueError("time_limit must be positive")
        if self.mip_rel_gap is not None and self.mip_rel_gap < 0:
            raise ValueError("mip_rel_gap cannot be negative")
        if self.node_limit <= 0:
            raise ValueError("node_limit must be positive")
        if self.gap_tolerance < 0:
            raise ValueError("gap_tolerance cannot be negative")
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if self.relaxation_engine not in ("highs", "builtin", "tableau"):
            raise ValueError(
                f"unknown relaxation engine {self.relaxation_engine!r}; "
                "expected 'highs', 'builtin' or 'tableau'"
            )
        if self.cover_cut_rounds < 0:
            raise ValueError("cover_cut_rounds cannot be negative")
        if self.node_resolve not in ("dual", "primal"):
            raise ValueError(
                f"unknown node_resolve {self.node_resolve!r}; "
                "expected 'dual' or 'primal'"
            )

    @classmethod
    def from_wire(cls, data: Mapping[str, object]) -> "SolveOptions":
        """Build options from an untrusted JSON object.

        An unknown key or a value of the wrong JSON type raises
        ``ValueError`` here; ``__post_init__`` then range-checks the
        values themselves.
        """
        if not isinstance(data, Mapping):
            raise ValueError("solver_options must be an object")
        unknown = sorted(set(data) - set(_WIRE_TYPES))
        if unknown:
            raise ValueError(
                f"unknown solver option(s): {', '.join(unknown)} "
                f"(accepted: {', '.join(_WIRE_TYPES)})"
            )
        for name, value in data.items():
            nullable = value is None and name in _NULLABLE
            if not nullable and not _wire_value_ok(name, value):
                raise ValueError(f"solver option {name} has a bad value {value!r}")
        return cls(**data)

    # -- per-backend validation -------------------------------------------

    def non_default_fields(self) -> dict[str, object]:
        """Fields that differ from their defaults (what the caller set)."""
        out: dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                out[f.name] = value
        return out

    def validate_for(self, backend: str) -> "SolveOptions":
        """Raise ``ValueError`` if a set option is meaningless for ``backend``.

        Unknown backends (externally registered) accept everything — the
        capability table only covers the built-in solvers.  Returns
        ``self`` so calls chain.
        """
        supported = BACKEND_OPTION_FIELDS.get(backend)
        if supported is None:
            return self
        rejected = [
            name for name in self.non_default_fields() if name not in supported
        ]
        if rejected:
            raise ValueError(
                f"option(s) {', '.join(sorted(rejected))} are not supported by "
                f"backend {backend!r}; supported options: "
                f"{', '.join(sorted(supported))}"
            )
        return self

    def replace(self, **changes) -> "SolveOptions":
        """A copy with ``changes`` applied (frozen-dataclass update)."""
        return dataclasses.replace(self, **changes)


#: Which :class:`SolveOptions` fields each built-in backend honours.
#: ``auto`` accepts the union of its delegates; when it falls back from
#: HiGHS to the builtin stack, HiGHS-only fields are dropped explicitly
#: (see ``repro.lp.solvers._solve_auto``), never silently mid-backend.
BACKEND_OPTION_FIELDS: dict[str, frozenset[str]] = {
    "highs": frozenset({"time_limit", "mip_rel_gap", "warm_start"}),
    "branch_bound": frozenset(
        {
            "time_limit",
            "node_limit",
            "gap_tolerance",
            "max_iterations",
            "relaxation_engine",
            "cover_cut_rounds",
            "node_resolve",
            "presolve",
            "warm_start",
        }
    ),
    "simplex": frozenset({"max_iterations"}),
    "rounding": frozenset(
        {"relaxation_engine", "max_iterations", "presolve", "warm_start"}
    ),
    "auto": frozenset(
        {
            "time_limit",
            "mip_rel_gap",
            "node_limit",
            "gap_tolerance",
            "max_iterations",
            "relaxation_engine",
            "cover_cut_rounds",
            "node_resolve",
            "presolve",
            "warm_start",
        }
    ),
}

#: The JSON type each field takes on the wire (see
#: :meth:`SolveOptions.from_wire`); fields defaulting to ``None`` also
#: take ``null``.
_WIRE_TYPES: dict[str, type | tuple[type, ...]] = {
    "time_limit": (int, float),
    "mip_rel_gap": (int, float),
    "node_limit": int,
    "gap_tolerance": (int, float),
    "max_iterations": int,
    "relaxation_engine": str,
    "cover_cut_rounds": int,
    "node_resolve": str,
    "presolve": bool,
    "warm_start": dict,
}
_NULLABLE = frozenset(f.name for f in fields(SolveOptions) if f.default is None)


def _wire_value_ok(name: str, value: object) -> bool:
    kind = _WIRE_TYPES[name]
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        return False
    if name == "warm_start":
        return all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in value.values()
        )
    return True
