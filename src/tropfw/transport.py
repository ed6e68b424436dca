"""The transportation route to the optimal cell.

Placing mass w_i on the rows and 1/n on the columns and maximizing the
payoff -v_ij yields a transportation problem whose optimal support equals
the covector graph of the Fermat-Weber cell.  This is an independent
derivation: nothing here touches the forward solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import lp
from .covector import CovectorGraph
from .errors import InternalError, ValidationError
from .points import DataSet, WeightVector


@dataclass(frozen=True)
class TransportationInstance:
    """Balanced transportation data: supplies, demands, payoff matrix."""

    supplies: tuple
    demands: tuple
    payoff: tuple  # m rows of n rationals

    def __post_init__(self):
        if sum(self.supplies) != sum(self.demands):
            raise ValidationError("unbalanced instance")
        if any(s <= 0 for s in self.supplies) or any(d <= 0 for d in self.demands):
            raise ValidationError("supplies and demands must be positive")
        for row in self.payoff:
            if len(row) != len(self.demands):
                raise ValidationError("payoff shape mismatch")

    @property
    def m(self) -> int:
        return len(self.supplies)

    @property
    def n(self) -> int:
        return len(self.demands)

    @classmethod
    def from_fw(cls, V: DataSet, w: WeightVector) -> "TransportationInstance":
        if w.m != V.m:
            raise ValidationError("one weight per data point required")
        demands = (Fraction(1, V.n),) * V.n
        payoff = tuple(tuple(-c for c in v.coords) for v in V)
        return cls(tuple(w), demands, payoff)


@dataclass(frozen=True)
class CentralCell:
    """Support usable by some optimal plan, plus the optimal value."""

    support: CovectorGraph
    optimal_value: Fraction


def _transport_lp(inst: TransportationInstance) -> lp.LinearProgram:
    prog = lp.LinearProgram()
    m, n = inst.m, inst.n
    for i in range(m):
        for j in range(n):
            prog.add_var(f"x{i}_{j}", nonneg=True)
    for i in range(m):
        prog.add_eq({f"x{i}_{j}": 1 for j in range(n)}, inst.supplies[i])
    for j in range(n):
        prog.add_eq({f"x{i}_{j}": 1 for i in range(m)}, inst.demands[j])
    prog.set_objective(
        {
            f"x{i}_{j}": inst.payoff[i][j]
            for i in range(m)
            for j in range(n)
            if inst.payoff[i][j] != 0
        },
        maximize=True,
    )
    return prog


def solve_transport(inst: TransportationInstance):
    """Maximize the payoff over the transportation polytope.

    Returns (plan, value) with the plan as an m x n tuple of rationals.
    """
    res = _transport_lp(inst).solve()
    if res.status != lp.OPTIMAL:  # polytope is nonempty and bounded
        raise InternalError(f"transportation LP ended {res.status}")
    plan = tuple(
        tuple(res[f"x{i}_{j}"] for j in range(inst.n)) for i in range(inst.m)
    )
    return plan, res.value


def central_cayley_cell(V: DataSet, w: WeightVector) -> CentralCell:
    """Edges (i,j) carried by SOME optimal plan, via per-edge LPs.

    Degenerate optima are common, so membership is decided over the whole
    optimal face, not at one vertex.
    """
    inst = TransportationInstance.from_fw(V, w)
    plan, value = solve_transport(inst)
    edges = set()
    todo = []
    for i in range(inst.m):
        for j in range(inst.n):
            if plan[i][j] > 0:
                edges.add((i, j))
            else:
                todo.append((i, j))
    # restrict to the optimal face and maximize each remaining entry,
    # warm-starting every re-solve on the same tableau
    prog = _transport_lp(inst)
    prog.add_eq(
        {
            f"x{a}_{b}": inst.payoff[a][b]
            for a in range(inst.m)
            for b in range(inst.n)
            if inst.payoff[a][b] != 0
        },
        value,
    )
    results = prog.solve_sequence(
        [({f"x{i}_{j}": 1}, True) for (i, j) in todo]
    )
    for (i, j), r in zip(todo, results):
        if r.status != lp.OPTIMAL:  # the optimal face is a polytope
            raise InternalError(f"entry LP on the optimal face ended {r.status}")
        if r.value > 0:
            edges.add((i, j))
    support = CovectorGraph(inst.m, inst.n, frozenset(edges))
    if not support.right_covered():  # every column has positive demand
        raise InternalError("optimal support misses a column")
    return CentralCell(support, value)
