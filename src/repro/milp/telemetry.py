"""Structured per-solve statistics.

Solver choice and instance structure interact unpredictably (strong
formulations and mixed-variable solvers behave differently per instance),
so instead of guessing, every backend records a :class:`SolveTelemetry` on
its :class:`~repro.milp.solution.Solution`.  The augmentation loop threads
these records through the floorplan trace, and ``repro-floorplan
telemetry`` / the CI benchmark jobs emit them as JSON so perf regressions
are machine-diffable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: Registered non-overlap formulations (the ``formulation`` axis).
#:
#: ``"bigm"`` is the paper's eq. (2) encoding: two binaries per pair and four
#: global big-M rows.  ``"unary"`` is the Huchette–Dey–Vielma-style unary
#: encoding: four one-hot direction indicators per pair with per-direction
#: tightened big-Ms plus valid inequalities that strengthen the LP
#: relaxation.  Both describe the same feasible geometry, so optimal
#: objectives are identical — the cross-formulation parity suite pins that
#: down.
FORMULATIONS: tuple[str, ...] = ("bigm", "unary")

#: The default encoding.  Every golden document was recorded under it, so
#: provenance treats it as the unmarked case (see :class:`SolveContext`).
DEFAULT_FORMULATION = FORMULATIONS[0]


@dataclass(frozen=True)
class SolveContext:
    """How a model was built: the facts a solve records beside the model.

    Two models that canonicalize alike can still come from different
    builds — a fixed outline or an ECO window changes which optimum the
    caller may reuse — so the context is folded into the solve-cache key
    (:meth:`key_items`) and recorded as telemetry provenance
    (:meth:`provenance`).  A new scenario axis is one more field here.

    Attributes:
        formulation: the non-overlap encoding that produced the model (one
            of :data:`FORMULATIONS`), or None for a model without one.
        outline: the fixed die ``(W, H)`` the model was built against, or
            None for an open-outline model.
        eco: ``(window size, frozen count)`` of a windowed incremental-ECO
            subform (:func:`repro.core.eco.solve_eco`), or None.
    """

    formulation: str | None = None
    outline: tuple[float, float] | None = None
    eco: tuple[int, int] | None = None

    def key_items(self) -> tuple:
        """The context's entries of the solve-cache key.

        The outline is quantized like the key's tolerance entries, so float
        noise never splits equal dies.  ``formulation=None`` and the default
        encoding stay distinct entries: on-disk cache tiers are keyed that
        way.
        """
        from repro.milp.cache import _q

        return (self.formulation,
                None if self.outline is None
                else tuple(_q(float(v)) for v in self.outline),
                None if self.eco is None else tuple(int(v) for v in self.eco))

    def provenance(self) -> dict[str, Any]:
        """The context as telemetry records it.

        One omit-at-default rule: an entry at its default — None, and the
        default encoding — is left out, so documents recorded before an
        axis existed (the committed goldens among them) keep their bytes.
        """
        doc = {
            "formulation": None if self.formulation == DEFAULT_FORMULATION
            else self.formulation,
            "outline": None if self.outline is None
            else [float(v) for v in self.outline],
            "eco": None if self.eco is None
            else {"window": int(self.eco[0]), "frozen": int(self.eco[1])},
        }
        return {name: value for name, value in doc.items()
                if value is not None}

    @classmethod
    def from_provenance(cls, doc: dict[str, Any]) -> "SolveContext":
        """Rebuild the recorded context from :meth:`provenance` output (or
        any document carrying its entries)."""
        outline, eco = doc.get("outline"), doc.get("eco")
        return cls(formulation=doc.get("formulation"),
                   outline=None if outline is None
                   else (float(outline[0]), float(outline[1])),
                   eco=None if eco is None
                   else (int(eco["window"]), int(eco["frozen"])))


@dataclass(frozen=True)
class IncumbentEvent:
    """One improvement of the incumbent during a solve."""

    seconds: float
    objective: float


@dataclass
class SolveTelemetry:
    """Machine-readable statistics of a single solve call.

    Attributes:
        backend: name of the backend that produced the solve
            (``"highs"``, ``"bnb[highs]"``, ``"bnb[simplex]"``, ...).
        status: final :class:`~repro.milp.solution.SolveStatus` value.
        lp_calls: LP relaxations solved (1 for a pure LP; HiGHS does not
            report its internal count, so the MILP path records 0).
        nodes: branch-and-bound nodes explored.
        incumbents: incumbent improvements in solve order, each stamped
            with the wall-clock offset from solve start.
        gap: final relative optimality gap (0.0 when proven optimal,
            ``inf`` when no incumbent bounds it).
        wall_seconds: wall-clock time of the solve call.
        n_variables: columns of the standard form.
        n_integer: integral columns of the standard form.
        n_constraints: rows of the standard form.
        presolve: :meth:`repro.milp.presolve.PresolveReport.to_dict` output
            when presolve ran for this solve, else None.  ``n_variables`` /
            ``n_constraints`` describe the form the backend actually saw
            (the reduced one); the presolve dict records the originals.
        cache: solve-cache provenance when the solve went through the
            canonical solve cache (:mod:`repro.milp.cache`), else None:
            ``{"hit": bool, "tier": "memory"|"disk"|None, "key": <prefix>,
            "key_seconds": float, "recertified": bool}``.  On a hit the
            other fields (nodes, LP calls, incumbents) are those of the
            original stored solve.
        frontier: branch-and-bound frontier counters when the own solver
            ran — ``{"peak_nodes": int, "rows_reclaimed": int}`` — else
            None.  Purely diagnostic; stripped by canonicalization.
        batch: batching provenance when the solve went through
            :func:`repro.milp.solvers.registry.solve_many` —
            ``{"size": int, "index": int}`` — else None.  Also stripped by
            canonicalization.
        context: how the model was built (:class:`SolveContext`), as
            :meth:`record_context` records it.
    """

    backend: str = ""
    status: str = ""
    lp_calls: int = 0
    nodes: int = 0
    incumbents: list[IncumbentEvent] = field(default_factory=list)
    gap: float = 0.0
    wall_seconds: float = 0.0
    n_variables: int = 0
    n_integer: int = 0
    n_constraints: int = 0
    presolve: dict[str, Any] | None = None
    cache: dict[str, Any] | None = None
    frontier: dict[str, Any] | None = None
    batch: dict[str, Any] | None = None
    context: SolveContext = SolveContext()

    def record_incumbent(self, seconds: float, objective: float) -> None:
        """Append one incumbent improvement."""
        self.incumbents.append(IncumbentEvent(seconds, objective))

    def record_context(self, context: SolveContext) -> None:
        """Record how the model was built, in the form a serialization
        round trip restores (the default encoding reads back as None)."""
        self.context = SolveContext.from_provenance(context.provenance())

    def to_dict(self) -> dict[str, Any]:
        """A JSON-safe representation (``inf`` gaps become ``None``)."""
        import math

        return {
            "backend": self.backend,
            "status": self.status,
            "lp_calls": self.lp_calls,
            "nodes": self.nodes,
            "incumbents": [[e.seconds, e.objective] for e in self.incumbents],
            "gap": None if not math.isfinite(self.gap) else self.gap,
            "wall_seconds": self.wall_seconds,
            "n_variables": self.n_variables,
            "n_integer": self.n_integer,
            "n_constraints": self.n_constraints,
            "presolve": self.presolve,
            "cache": self.cache,
            "frontier": self.frontier,
            "batch": self.batch,
            **self.context.provenance(),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SolveTelemetry":
        """Rebuild a record from :meth:`to_dict` output."""
        gap = data.get("gap")
        return cls(
            backend=data.get("backend", ""),
            status=data.get("status", ""),
            lp_calls=data.get("lp_calls", 0),
            nodes=data.get("nodes", 0),
            incumbents=[IncumbentEvent(float(s), float(obj))
                        for s, obj in data.get("incumbents", [])],
            gap=float("inf") if gap is None else float(gap),
            wall_seconds=data.get("wall_seconds", 0.0),
            n_variables=data.get("n_variables", 0),
            n_integer=data.get("n_integer", 0),
            n_constraints=data.get("n_constraints", 0),
            presolve=data.get("presolve"),
            cache=data.get("cache"),
            frontier=data.get("frontier"),
            batch=data.get("batch"),
            context=SolveContext.from_provenance(data),
        )
