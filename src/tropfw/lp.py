"""Exact rational linear programming.

A dense two-phase primal simplex over ``Fraction`` with Bland's pivoting
rule, so termination is guaranteed and no numerical tolerance exists
anywhere.  Built for desk-scale problems (tens of variables and rows).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InternalError, ValidationError
from .rationals import parse_rational

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass
class LPResult:
    status: str
    values: Optional[dict] = None
    value: Optional[Fraction] = None

    def __getitem__(self, name) -> Fraction:
        return self.values[name]


class LinearProgram:
    """Incrementally built LP; all data exact rationals.

    Variables are free unless declared ``nonneg``.  The objective is
    minimized unless ``maximize=True`` is passed to :meth:`set_objective`.
    """

    def __init__(self):
        self._vars: list[str] = []
        self._nonneg: dict[str, bool] = {}
        self._cons: list[tuple[dict, str, Fraction]] = []
        self._obj: dict = {}
        self._maximize = False

    def add_var(self, name: str, nonneg: bool = False) -> str:
        if name in self._nonneg:
            raise ValidationError(f"duplicate variable {name!r}")
        self._vars.append(name)
        self._nonneg[name] = nonneg
        return name

    def _coeffs(self, coeffs: dict) -> dict:
        out = {}
        for name, c in coeffs.items():
            if name not in self._nonneg:
                raise ValidationError(f"unknown variable {name!r}")
            c = parse_rational(c)
            if c != 0:
                out[name] = c
        return out

    def add_le(self, coeffs: dict, rhs):
        self._cons.append((self._coeffs(coeffs), "<=", parse_rational(rhs)))

    def add_ge(self, coeffs: dict, rhs):
        self._cons.append((self._coeffs(coeffs), ">=", parse_rational(rhs)))

    def add_eq(self, coeffs: dict, rhs):
        self._cons.append((self._coeffs(coeffs), "==", parse_rational(rhs)))

    def set_objective(self, coeffs: dict, maximize: bool = False):
        self._obj = self._coeffs(coeffs)
        self._maximize = maximize

    # -- simplex ---------------------------------------------------------

    def solve_sequence(self, objectives) -> list:
        """Solve the same constraint set under several objectives.

        ``objectives`` is a list of (coeffs, maximize) pairs.  Phase 1 runs
        once; each objective re-optimizes from the previous optimal basis,
        which is far cheaper than solving from scratch.
        """
        state = self._build()
        if state is None:
            return [LPResult(INFEASIBLE) for _ in objectives]
        tableau, basis, col_of_var, art_set, total_cols = state
        out = []
        for coeffs, maximize in objectives:
            obj = self._coeffs(coeffs)
            cost = [_ZERO] * total_cols
            sign = -_ONE if maximize else _ONE
            for name, c in obj.items():
                pos, neg = col_of_var[name]
                cost[pos] += sign * c
                if neg is not None:
                    cost[neg] -= sign * c
            zrow, _ = self._reduced_costs(tableau, basis, cost)
            status = self._iterate(tableau, basis, zrow, art_set)
            if status == UNBOUNDED:
                out.append(LPResult(UNBOUNDED))
                continue
            values = self._extract(tableau, basis, col_of_var)
            val = sum((c * values[name] for name, c in obj.items()), _ZERO)
            out.append(LPResult(OPTIMAL, values, val))
        return out

    def solve(self) -> LPResult:
        return self.solve_sequence([(self._obj, self._maximize)])[0]

    def _build(self):
        """Phase 1: a primal-feasible tableau and basis, or None.

        Returns (tableau, basis, col_of_var, art_set, total_cols).
        """
        # Column layout: one column per nonneg var, a (+,-) pair per free var.
        col_of_var: dict[str, tuple[int, Optional[int]]] = {}
        ncols = 0
        for name in self._vars:
            if self._nonneg[name]:
                col_of_var[name] = (ncols, None)
                ncols += 1
            else:
                col_of_var[name] = (ncols, ncols + 1)
                ncols += 2
        nstruct = ncols

        rows = []
        senses = []
        for coeffs, sense, rhs in self._cons:
            row = [_ZERO] * nstruct
            for name, c in coeffs.items():
                pos, neg = col_of_var[name]
                row[pos] += c
                if neg is not None:
                    row[neg] -= c
            rows.append((row, rhs))
            senses.append(sense)

        # Slack columns for inequalities.
        nslack = sum(1 for s in senses if s != "==")
        ncols = nstruct + nslack
        tableau = []
        slack_idx = nstruct
        slack_cols = []
        for (row, rhs), sense in zip(rows, senses):
            full = row + [_ZERO] * nslack
            if sense == "<=":
                full[slack_idx] = _ONE
                slack_cols.append(slack_idx)
                slack_idx += 1
            elif sense == ">=":
                full[slack_idx] = -_ONE
                slack_cols.append(slack_idx)
                slack_idx += 1
            else:
                slack_cols.append(None)
            full.append(rhs)
            tableau.append(full)

        # Sign-fix rows so rhs >= 0, then pick initial basis.
        basis = []
        art_cols = []
        for r, full in enumerate(tableau):
            if full[-1] < 0:
                tableau[r] = full = [-c for c in full]
            sc = slack_cols[r]
            if sc is not None and full[sc] == _ONE:
                basis.append(sc)
            else:
                basis.append(-1)  # placeholder, artificial added below

        for r in range(len(tableau)):
            if basis[r] == -1:
                art = ncols + len(art_cols)
                art_cols.append(art)
                basis[r] = art
        total_cols = ncols + len(art_cols)
        if art_cols:
            for r, full in enumerate(tableau):
                ext = [_ZERO] * len(art_cols)
                if basis[r] >= ncols:
                    ext[basis[r] - ncols] = _ONE
                tableau[r] = full[:-1] + ext + [full[-1]]

        art_set = set(art_cols)

        # Phase 1: minimize the sum of artificials.
        if art_cols:
            cost = [_ZERO] * total_cols
            for j in art_cols:
                cost[j] = _ONE
            zrow, zval = self._reduced_costs(tableau, basis, cost)
            status = self._iterate(tableau, basis, zrow, frozenset())
            if status == UNBOUNDED:  # cannot happen: phase-1 objective >= 0
                raise InternalError("phase 1 unbounded")
            phase1 = self._objective_value(tableau, basis, cost)
            if phase1 != 0:
                return None
            self._drive_out_artificials(tableau, basis, art_set)

        return tableau, basis, col_of_var, art_set, total_cols

    @staticmethod
    def _reduced_costs(tableau, basis, cost):
        zrow = list(cost)
        zval = _ZERO
        for r, b in enumerate(basis):
            cb = cost[b]
            if cb != 0:
                row = tableau[r]
                for j, a in enumerate(row[:-1]):
                    if a != 0:
                        zrow[j] -= cb * a
                zval -= cb * row[-1]
        return zrow, zval

    @staticmethod
    def _objective_value(tableau, basis, cost):
        val = _ZERO
        for r, b in enumerate(basis):
            if cost[b] != 0:
                val += cost[b] * tableau[r][-1]
        return val

    @staticmethod
    def _pivot(tableau, basis, zrow, r, j):
        prow = tableau[r]
        piv = prow[j]
        if piv != _ONE:
            inv = 1 / piv
            prow = tableau[r] = [c * inv for c in prow]
        nz = [k for k, v in enumerate(prow) if v != 0]
        for i, row in enumerate(tableau):
            if i == r:
                continue
            f = row[j]
            if f != 0:
                for k in nz:
                    row[k] -= f * prow[k]
        f = zrow[j]
        if f != 0:
            for k in nz[:-1] if nz and nz[-1] == len(prow) - 1 else nz:
                zrow[k] -= f * prow[k]
            # rhs column is not part of zrow; nothing else to update
            if zrow[j] != 0:
                zrow[j] = _ZERO
        basis[r] = j

    def _iterate(self, tableau, basis, zrow, banned):
        nrows = len(tableau)
        ncols = len(zrow)
        while True:
            enter = -1
            for j in range(ncols):
                if j in banned:
                    continue
                if zrow[j] < 0:
                    enter = j
                    break
            if enter == -1:
                return OPTIMAL
            leave = -1
            best = None
            for i in range(nrows):
                a = tableau[i][enter]
                if a > 0:
                    ratio = tableau[i][-1] / a
                    if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave == -1:
                return UNBOUNDED
            self._pivot(tableau, basis, zrow, leave, enter)

    def _drive_out_artificials(self, tableau, basis, art_set):
        r = 0
        while r < len(tableau):
            if basis[r] in art_set:
                row = tableau[r]
                pivot_col = -1
                for j in range(len(row) - 1):
                    if j not in art_set and row[j] != 0:
                        pivot_col = j
                        break
                if pivot_col == -1:
                    # Redundant row.
                    del tableau[r]
                    del basis[r]
                    continue
                zdummy = [_ZERO] * (len(row) - 1)
                self._pivot(tableau, basis, zdummy, r, pivot_col)
            r += 1

    def _extract(self, tableau, basis, col_of_var):
        col_value = {}
        for r, b in enumerate(basis):
            col_value[b] = tableau[r][-1]
        values = {}
        for name, (pos, neg) in col_of_var.items():
            v = col_value.get(pos, _ZERO)
            if neg is not None:
                v -= col_value.get(neg, _ZERO)
            values[name] = v
        return values
