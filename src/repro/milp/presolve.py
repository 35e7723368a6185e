"""Solver-independent MILP presolve over :class:`StandardForm`.

The paper's eq. (2) non-overlap disjunctions are the textbook case of a weak
big-M formulation: Huchette, Dey & Vielma show floor-layout MILPs tighten
dramatically under standard reductions, and the SMT floorplanners (Banerjee
et al.) win by pruning relative-position disjunctions before search.  This
module applies the generic share of those reductions to *any* standard form;
the registry runs it for the backends that gain from it (the from-scratch
branch-and-bound, the NumPy simplex, the smt search) and leaves HiGHS to
its own presolve:

* **bound propagation** — worklist-driven activity propagation tightens
  variable boxes (e.g. ``x_i + w_i <= W`` turns ``ub(x_i) = W`` into
  ``W - w_i``), with integral rounding for integer columns;
* **big-M / coefficient tightening** — Savelsbergh's rules shrink binary
  coefficients in one-sided ``<=`` rows down to what the propagated bounds
  support; combined with an objective cutoff this replaces the formulation's
  global vertical big-M by per-pair values;
* **objective cutoff** — a feasible incumbent's value ``z`` (from the
  cross-step warm start) adds the valid row ``c @ x <= z``; propagating it
  pulls the chip-height bound down and cascades into every big-M row;
* **binary fixing** — propagation plus integral rounding fixes dominated
  binaries (a relative-position branch that no box point can realize);
* **fixed-column elimination** — columns with ``lb == ub`` are substituted
  into the rows and the objective constant and dropped;
* **redundant-row removal** — rows satisfied by every point of the
  (tightened) box are dropped, with a *strict* no-tolerance test so a row
  is never mis-dropped;
* **symmetry breaking** — caller-supplied groups of interchangeable columns
  (identical window modules) get ``x_a <= x_b`` ordering rows.

Every reduction preserves the feasible set exactly — except the objective
cutoff and symmetry rows, which preserve at least one optimal point — so the
optimal objective is invariant and presolve-on/off parity is testable.  The
:class:`PresolveResult` carries the presolve→postsolve mapping: reduced-space
solutions are completed with the fixed columns so certification still runs
against the *original* standard form.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np
from scipy import sparse

from repro.milp.expr import Variable
from repro.milp.model import StandardForm
from repro.milp.solution import Solution

#: Slack added beyond every propagated continuous bound so float noise can
#: never cut off a feasible vertex.
BOUND_PAD = 1e-9
#: Rounding tolerance when snapping propagated integer bounds.
INT_PAD = 1e-6
#: Scaled violation beyond which presolve declares infeasibility.
INFEAS_TOL = 1e-7
#: Minimum scaled improvement for a tightened bound to be accepted (keeps
#: the worklist from churning on noise-level "wins").
MIN_GAIN = 1e-9
#: Minimum scaled improvement for a coefficient tightening.
COEF_GAIN = 1e-7


@dataclass
class PresolveReport:
    """What one presolve pass did to a standard form.

    Threaded into :class:`~repro.milp.telemetry.SolveTelemetry` (as a dict)
    so the per-step artifacts record rows/columns removed, binaries fixed,
    and big-M shrinkage next to the solve statistics.
    """

    rows_before: int = 0
    rows_after: int = 0
    cols_before: int = 0
    cols_after: int = 0
    ints_before: int = 0
    ints_after: int = 0
    rows_removed: int = 0
    cols_fixed: int = 0
    binaries_fixed: int = 0
    bounds_tightened: int = 0
    coeffs_tightened: int = 0
    m_shrink_total: float = 0.0
    m_shrink_max: float = 0.0
    symmetry_rows: int = 0
    objective_cutoff: float | None = None
    infeasible: bool = False

    def to_dict(self) -> dict[str, Any]:
        """A JSON-safe representation."""
        return {
            "rows_before": self.rows_before,
            "rows_after": self.rows_after,
            "cols_before": self.cols_before,
            "cols_after": self.cols_after,
            "ints_before": self.ints_before,
            "ints_after": self.ints_after,
            "rows_removed": self.rows_removed,
            "cols_fixed": self.cols_fixed,
            "binaries_fixed": self.binaries_fixed,
            "bounds_tightened": self.bounds_tightened,
            "coeffs_tightened": self.coeffs_tightened,
            "m_shrink_total": self.m_shrink_total,
            "m_shrink_max": self.m_shrink_max,
            "symmetry_rows": self.symmetry_rows,
            "objective_cutoff": self.objective_cutoff,
            "infeasible": self.infeasible,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PresolveReport":
        """Rebuild a report from :meth:`to_dict` output."""
        cutoff = data.get("objective_cutoff")
        return cls(
            rows_before=data.get("rows_before", 0),
            rows_after=data.get("rows_after", 0),
            cols_before=data.get("cols_before", 0),
            cols_after=data.get("cols_after", 0),
            ints_before=data.get("ints_before", 0),
            ints_after=data.get("ints_after", 0),
            rows_removed=data.get("rows_removed", 0),
            cols_fixed=data.get("cols_fixed", 0),
            binaries_fixed=data.get("binaries_fixed", 0),
            bounds_tightened=data.get("bounds_tightened", 0),
            coeffs_tightened=data.get("coeffs_tightened", 0),
            m_shrink_total=data.get("m_shrink_total", 0.0),
            m_shrink_max=data.get("m_shrink_max", 0.0),
            symmetry_rows=data.get("symmetry_rows", 0),
            objective_cutoff=None if cutoff is None else float(cutoff),
            infeasible=data.get("infeasible", False),
        )


@dataclass
class PresolveResult:
    """A reduced form plus the presolve→postsolve mapping back to the
    original.

    Attributes:
        original: the form presolve was applied to.
        reduced: the reduced form (None when presolve proved infeasibility).
        report: what was done.
        fixed: assignment of every eliminated column (original Variable →
            value); merged into reduced-space solutions by postsolve.
        infeasible: presolve proved the model infeasible.
    """

    original: StandardForm
    reduced: StandardForm | None
    report: PresolveReport
    fixed: dict[Variable, float] = field(default_factory=dict)
    infeasible: bool = False

    def postsolve_values(
            self, values: Mapping[Variable, float]) -> dict[Variable, float]:
        """Complete a reduced-space assignment with the fixed columns so it
        covers every variable of the original form."""
        full: dict[Variable, float] = dict(self.fixed)
        full.update(values)
        return full

    def postsolve_solution(self, solution: Solution) -> Solution:
        """Map a solution of the reduced form back to the original space.

        The objective needs no adjustment (fixed-column contributions were
        folded into the reduced constant term), so certified solutions
        verify unchanged against the *original* standard form.  The presolve
        report is attached to the solution's telemetry.
        """
        if solution.values:
            solution.values = self.postsolve_values(solution.values)
        if solution.telemetry is not None:
            solution.telemetry.presolve = self.report.to_dict()
        else:
            from repro.milp.telemetry import SolveTelemetry

            solution.telemetry = SolveTelemetry(
                backend=solution.backend, status=solution.status.value,
                presolve=self.report.to_dict())
        return solution

    def map_warm_start(
            self, warm: Mapping[Variable, float]) -> dict[Variable, float] | None:
        """Project a full-space warm start onto the reduced columns.

        Returns None when the warm start is incomplete or contradicts a
        fixed column (it cannot be feasible for the reduced form then).
        """
        if self.reduced is None:
            return None
        mapped: dict[Variable, float] = {}
        for var in self.reduced.variables:
            if var not in warm:
                return None
            mapped[var] = warm[var]
        for var, val in self.fixed.items():
            if var in warm and abs(warm[var] - val) > 1e-6 * max(1.0, abs(val)):
                return None
        return mapped


def internal_objective(form: StandardForm,
                       warm: Mapping[Variable, float]) -> float | None:
    """``c @ x`` of a full-space point in the form's internal minimize sense
    (the value an objective-cutoff row compares against); None when the
    point does not cover every variable."""
    total = 0.0
    c = np.asarray(form.c, dtype=float)
    for j, var in enumerate(form.variables):
        if var not in warm:
            return None
        total += float(c[j]) * float(warm[var])
    return total


class _Presolver:
    """Mutable working state of one presolve pass."""

    def __init__(self, form: StandardForm,
                 symmetry_groups: Sequence[Sequence[Variable]],
                 objective_cutoff: float | None) -> None:
        self.form = form
        self.n = len(form.variables)
        self.lb = np.asarray(form.lb, dtype=float).copy()
        self.ub = np.asarray(form.ub, dtype=float).copy()
        self.integer = np.asarray(form.integrality) != 0
        self._orig_fixed = np.asarray(form.lb) == np.asarray(form.ub)
        self.infeasible = False
        self.report = PresolveReport(
            rows_before=form.a_matrix.shape[0], cols_before=self.n,
            ints_before=int(self.integer.sum()))

        self.row_idx: list[np.ndarray] = []
        self.row_coef: list[np.ndarray] = []
        self.row_lb: list[float] = []
        self.row_ub: list[float] = []
        csr = form.a_matrix.tocsr()
        for r in range(form.a_matrix.shape[0]):
            lo, hi = csr.indptr[r], csr.indptr[r + 1]
            idx = csr.indices[lo:hi].astype(np.int64)
            coef = csr.data[lo:hi].astype(float)
            keep = coef != 0.0
            self._append_row(idx[keep], coef[keep],
                             float(form.row_lb[r]), float(form.row_ub[r]))

        col_pos = {var: j for j, var in enumerate(form.variables)}
        for group in symmetry_groups:
            cols = [col_pos.get(v) for v in group]
            if len(cols) < 2 or any(c is None for c in cols):
                continue
            for a, b in zip(cols, cols[1:]):
                self._append_row(np.array([a, b], dtype=np.int64),
                                 np.array([1.0, -1.0]), -math.inf, 0.0)
                self.report.symmetry_rows += 1

        if objective_cutoff is not None and math.isfinite(objective_cutoff):
            c = np.asarray(form.c, dtype=float)
            idx = np.flatnonzero(c != 0.0).astype(np.int64)
            if idx.size:
                cut = objective_cutoff + 1e-9 * max(1.0, abs(objective_cutoff))
                self._append_row(idx, c[idx].copy(), -math.inf, cut)
                self.report.objective_cutoff = cut

        self.col_rows: list[list[int]] = [[] for _ in range(self.n)]
        for r, idx in enumerate(self.row_idx):
            for j in idx:
                self.col_rows[int(j)].append(r)

    def _append_row(self, idx: np.ndarray, coef: np.ndarray,
                    lb: float, ub: float) -> None:
        # Normalize pure >= rows to <= so coefficient tightening only ever
        # sees one-sided <= rows; equality/range rows stay two-sided.
        if math.isinf(ub) and not math.isinf(lb):
            coef = -coef
            lb, ub = -math.inf, -lb
        self.row_idx.append(idx)
        self.row_coef.append(coef)
        self.row_lb.append(lb)
        self.row_ub.append(ub)

    # -- activity helpers ------------------------------------------------------

    def _contribs(self, idx: np.ndarray,
                  coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-entry (min, max) activity contributions.  Coefficients are
        nonzero, so ``coef * inf`` is ±inf and never NaN."""
        lo = self.lb[idx]
        hi = self.ub[idx]
        pos = coef > 0
        clo = np.where(pos, coef * lo, coef * hi)
        chi = np.where(pos, coef * hi, coef * lo)
        return clo, chi

    @staticmethod
    def _finite_sum(contrib: np.ndarray) -> tuple[float, int]:
        """(sum of finite entries, number of infinite entries)."""
        infinite = np.isinf(contrib)
        return float(contrib[~infinite].sum()), int(infinite.sum())

    # -- bound propagation -----------------------------------------------------

    def propagate(self, budget: int | None = None) -> bool:
        """Worklist activity propagation; returns False on infeasibility."""
        n_rows = len(self.row_idx)
        if budget is None:
            budget = 30 * n_rows + 300
        queue = deque(range(n_rows))
        queued = [True] * n_rows
        processed = 0
        while queue and processed < budget and not self.infeasible:
            r = queue.popleft()
            queued[r] = False
            processed += 1
            for j in self._process_row(r):
                for rr in self.col_rows[j]:
                    if not queued[rr]:
                        queued[rr] = True
                        queue.append(rr)
        return not self.infeasible

    def _process_row(self, r: int) -> list[int]:
        """Tighten every column of row ``r`` from its activity bounds;
        returns the columns whose bounds changed."""
        idx = self.row_idx[r]
        coef = self.row_coef[r]
        if idx.size == 0:
            return []
        rlb, rub = self.row_lb[r], self.row_ub[r]
        clo, chi = self._contribs(idx, coef)
        lo_fin, lo_inf = self._finite_sum(clo)
        hi_fin, hi_inf = self._finite_sum(chi)
        if lo_inf == 0 and math.isfinite(rub) \
                and lo_fin > rub + INFEAS_TOL * (1.0 + abs(rub)):
            self.infeasible = True
            return []
        if hi_inf == 0 and math.isfinite(rlb) \
                and hi_fin < rlb - INFEAS_TOL * (1.0 + abs(rlb)):
            self.infeasible = True
            return []
        changed: list[int] = []
        for k in range(idx.size):
            j = int(idx[k])
            a = float(coef[k])
            if lo_inf == 0:
                res_lo = lo_fin - float(clo[k])
            elif lo_inf == 1 and np.isinf(clo[k]):
                res_lo = lo_fin
            else:
                res_lo = -math.inf
            if hi_inf == 0:
                res_hi = hi_fin - float(chi[k])
            elif hi_inf == 1 and np.isinf(chi[k]):
                res_hi = hi_fin
            else:
                res_hi = math.inf
            if math.isfinite(rub) and math.isfinite(res_lo):
                limit = (rub - res_lo) / a
                hit = self._tighten_ub(j, limit) if a > 0 \
                    else self._tighten_lb(j, limit)
                if hit:
                    changed.append(j)
            if math.isfinite(rlb) and math.isfinite(res_hi):
                limit = (rlb - res_hi) / a
                hit = self._tighten_lb(j, limit) if a > 0 \
                    else self._tighten_ub(j, limit)
                if hit:
                    changed.append(j)
            if self.infeasible:
                break
        return changed

    def _tighten_ub(self, j: int, implied: float) -> bool:
        if self.integer[j]:
            cand = math.floor(implied + INT_PAD)
        else:
            cand = implied + BOUND_PAD * max(1.0, abs(implied))
        if not (self.ub[j] - cand > MIN_GAIN * max(1.0, abs(cand))):
            return False
        if cand < self.lb[j]:
            if self.lb[j] - cand > INFEAS_TOL * (
                    1.0 + max(abs(cand), abs(self.lb[j]))):
                self.infeasible = True
                return False
            cand = self.lb[j]
        self.ub[j] = cand
        self.report.bounds_tightened += 1
        return True

    def _tighten_lb(self, j: int, implied: float) -> bool:
        if self.integer[j]:
            cand = math.ceil(implied - INT_PAD)
        else:
            cand = implied - BOUND_PAD * max(1.0, abs(implied))
        if not (cand - self.lb[j] > MIN_GAIN * max(1.0, abs(cand))):
            return False
        if cand > self.ub[j]:
            if cand - self.ub[j] > INFEAS_TOL * (
                    1.0 + max(abs(cand), abs(self.ub[j]))):
                self.infeasible = True
                return False
            cand = self.ub[j]
        self.lb[j] = cand
        self.report.bounds_tightened += 1
        return True

    # -- big-M / coefficient tightening ----------------------------------------

    def tighten_coefficients(self) -> None:
        """Savelsbergh coefficient tightening for binary columns in
        one-sided ``<=`` rows.

        The rules only ever *relax* a branch that the propagated bounds
        already prove redundant, so the mixed-integer feasible set is
        preserved exactly; padded bounds make the reduction conservative.
        """
        for r in range(len(self.row_idx)):
            if not (math.isinf(self.row_lb[r])
                    and math.isfinite(self.row_ub[r])):
                continue
            idx = self.row_idx[r]
            coef = self.row_coef[r]
            for k in range(idx.size):
                j = int(idx[k])
                if not (self.integer[j]
                        and self.lb[j] == 0.0 and self.ub[j] == 1.0):
                    continue
                a = float(coef[k])
                _clo, chi = self._contribs(idx, coef)
                _hi_fin, hi_inf = self._finite_sum(chi)
                if hi_inf:
                    continue
                res_hi = float(chi.sum() - chi[k])
                b = self.row_ub[r]
                gain = COEF_GAIN * (1.0 + max(abs(b), abs(res_hi)))
                if a > 0 and b - res_hi > gain and a > b - res_hi:
                    # x_j = 0 branch is redundant: shift rhs onto it and
                    # shrink the coefficient, keeping x_j = 1 identical.
                    delta = b - res_hi
                    coef[k] = a - delta
                    self.row_ub[r] = res_hi
                elif a < 0 and b < res_hi and (b - a) - res_hi > gain:
                    # x_j = 1 branch is redundant: pull the big-M relaxation
                    # coefficient up to exactly what the bounds need.
                    delta = (b - res_hi) - a
                    coef[k] = b - res_hi
                else:
                    continue
                self.report.coeffs_tightened += 1
                self.report.m_shrink_total += delta
                self.report.m_shrink_max = max(self.report.m_shrink_max, delta)

    # -- reduction -------------------------------------------------------------

    def finalize(self) -> tuple[StandardForm | None, dict[Variable, float]]:
        """Eliminate fixed columns, drop redundant rows, build the reduced
        form; returns (None, {}) when infeasibility surfaces."""
        # Snap integer bounds to integral values (sound: the propagated box
        # contains every feasible point, and integer points need integral
        # bounds); an empty integral interval is infeasibility.
        ints = np.flatnonzero(self.integer)
        if ints.size:
            ilb = np.ceil(self.lb[ints] - INT_PAD)
            iub = np.floor(self.ub[ints] + INT_PAD)
            if np.any(ilb > iub):
                self.infeasible = True
                return None, {}
            self.lb[ints] = ilb
            self.ub[ints] = iub

        fixed_mask = self.lb == self.ub
        kept_cols = np.flatnonzero(~fixed_mask)
        fixed_cols = np.flatnonzero(fixed_mask)
        col_new = -np.ones(self.n, dtype=np.int64)
        col_new[kept_cols] = np.arange(kept_cols.size)

        new_lb: list[float] = []
        new_ub: list[float] = []
        coo_r: list[int] = []
        coo_c: list[int] = []
        coo_d: list[float] = []
        n_kept_rows = 0
        for r in range(len(self.row_idx)):
            idx = self.row_idx[r]
            coef = self.row_coef[r]
            live = ~fixed_mask[idx]
            shift = float((coef[~live] * self.lb[idx[~live]]).sum())
            rlb = self.row_lb[r] - shift if math.isfinite(self.row_lb[r]) \
                else -math.inf
            rub = self.row_ub[r] - shift if math.isfinite(self.row_ub[r]) \
                else math.inf
            kidx = idx[live]
            kcoef = coef[live]
            if kidx.size == 0:
                scale = 1.0 + max(abs(rlb) if math.isfinite(rlb) else 0.0,
                                  abs(rub) if math.isfinite(rub) else 0.0)
                if rlb > INFEAS_TOL * scale or rub < -INFEAS_TOL * scale:
                    self.infeasible = True
                    return None, {}
                self.report.rows_removed += 1
                continue
            clo, chi = self._contribs(kidx, kcoef)
            lo_fin, lo_inf = self._finite_sum(clo)
            hi_fin, hi_inf = self._finite_sum(chi)
            lo = -math.inf if lo_inf else lo_fin
            hi = math.inf if hi_inf else hi_fin
            # Strict redundancy: the row holds at every point of the box.
            if (not math.isfinite(rlb) or lo >= rlb) \
                    and (not math.isfinite(rub) or hi <= rub):
                self.report.rows_removed += 1
                continue
            row = n_kept_rows
            n_kept_rows += 1
            new_lb.append(rlb)
            new_ub.append(rub)
            coo_r.extend([row] * int(kidx.size))
            coo_c.extend(col_new[kidx].tolist())
            coo_d.extend(kcoef.tolist())

        c = np.asarray(self.form.c, dtype=float)
        fixed: dict[Variable, float] = {}
        for j in fixed_cols.tolist():
            value = float(self.lb[j])
            if self.integer[j]:
                if abs(value - round(value)) > INT_PAD:
                    self.infeasible = True
                    return None, {}
                value = float(round(value))
            fixed[self.form.variables[j]] = value

        newly_fixed = fixed_mask & ~self._orig_fixed
        self.report.cols_fixed = int(newly_fixed.sum())
        self.report.binaries_fixed = int((newly_fixed & self.integer).sum())

        reduced = StandardForm(
            c=c[kept_cols],
            c0=float(self.form.c0
                     + sum(float(c[j]) * fixed[self.form.variables[j]]
                           for j in fixed_cols.tolist())),
            a_matrix=sparse.csr_matrix(
                (coo_d, (coo_r, coo_c)), shape=(n_kept_rows, kept_cols.size)),
            row_lb=np.array(new_lb, dtype=float),
            row_ub=np.array(new_ub, dtype=float),
            lb=self.lb[kept_cols],
            ub=self.ub[kept_cols],
            integrality=np.asarray(self.form.integrality)[kept_cols],
            variables=tuple(self.form.variables[int(j)] for j in kept_cols),
            maximize=self.form.maximize)
        return reduced, fixed


def presolve_form(form: StandardForm, *,
                  symmetry_groups: Sequence[Sequence[Variable]] = (),
                  objective_cutoff: float | None = None) -> PresolveResult:
    """Run the full presolve pipeline on ``form``.

    Args:
        form: the standard form to reduce (not mutated).
        symmetry_groups: groups of interchangeable columns (e.g. the x
            variables of identical window modules); consecutive members get
            ``x_a <= x_b`` symmetry-breaking rows.  The caller is
            responsible for the groups being genuine symmetries.
        objective_cutoff: internal-minimize-sense value ``c @ x`` of a known
            feasible point; adds the valid row ``c @ x <= cutoff`` (padded)
            before propagation.

    Returns:
        The :class:`PresolveResult` with the reduced form, the fixed-column
        mapping, and the :class:`PresolveReport`.
    """
    pre = _Presolver(form, symmetry_groups, objective_cutoff)
    pre.propagate()
    if not pre.infeasible:
        # Tightened coefficients change activities, enabling another round
        # of propagation (and vice versa); two alternations capture the
        # cascade without open-ended looping.
        pre.tighten_coefficients()
        pre.propagate()
        pre.tighten_coefficients()
    reduced: StandardForm | None = None
    fixed: dict[Variable, float] = {}
    if not pre.infeasible:
        reduced, fixed = pre.finalize()
    report = pre.report
    report.infeasible = pre.infeasible
    if reduced is not None:
        report.rows_after = reduced.a_matrix.shape[0]
        report.cols_after = len(reduced.variables)
        report.ints_after = int(np.count_nonzero(reduced.integrality))
    return PresolveResult(original=form, reduced=reduced, report=report,
                          fixed=fixed, infeasible=pre.infeasible)
