"""Forward Fermat-Weber solve: exact LP minimization and identification of
the full optimal covector cell.

The optimum of the weighted objective over zero-sum vectors is attained on
a single bounded covector cell.  The LP finds one optimum; per-edge
slack-maximization LPs over the optimal face decide which ties hold at
EVERY optimum, and that tie pattern is the cell's covector graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import lp
from .covector import (CovectorCell, _point_from, cell_constraint_rows,
                       cell_dim, cell_vertices, covector_at)
from .errors import DimensionError, InternalError
from .points import DataSet, TropicalPoint, WeightVector, normalize
from .signomial import WeightedObjective, eval_objective


@dataclass
class FermatWeberResult:
    """The full solution set of a weighted Fermat-Weber problem."""

    optimal_value: Fraction
    cell: CovectorCell
    witness: TropicalPoint
    vertices: list

    @property
    def mean_distance(self) -> Fraction:
        """The optimum in the mean-of-distances convention: (n/m) * value."""
        n = self.cell.data.n
        m = self.cell.data.m
        return Fraction(n, m) * self.optimal_value


def _fw_lp(V: DataSet, w: WeightVector) -> lp.LinearProgram:
    prog = lp.LinearProgram()
    n = V.n
    for j in range(n):
        prog.add_var(f"x{j}")
    for i in range(V.m):
        prog.add_var(f"t{i}")
    prog.add_eq({f"x{j}": 1 for j in range(n)}, 0)
    for i, v in enumerate(V):
        for j in range(n):
            prog.add_ge({f"t{i}": 1, f"x{j}": -1}, -v[j])
    prog.set_objective({f"t{i}": w[i] for i in range(V.m)})
    return prog


def solve_fw(V: DataSet, w: WeightVector) -> FermatWeberResult:
    """Minimize sum_i w_i max_j (x_j - v_ij) over zero-sum x, exactly.

    Returns the optimal value together with the full optimal cell: its
    covector graph, its vertex set, and a relative-interior witness (the
    average of the vertices).
    """
    if w.m != V.m:
        raise DimensionError("one weight per data point required")
    n, m = V.n, V.m
    prog = _fw_lp(V, w)
    res = prog.solve()
    if res.status != lp.OPTIMAL:  # objective >= 0 and feasible
        raise InternalError(f"forward LP ended {res.status}")
    fstar = res.value
    xstar = _point_from(res, n)
    tstar = [res[f"t{i}"] for i in range(m)]

    # Edges tight at the found optimum; others cannot be in the cell graph.
    tight = [
        (i, j)
        for i in range(m)
        for j in range(n)
        if tstar[i] == xstar[j] - V[i][j]
    ]

    # Keep an edge iff its slack is zero over the WHOLE optimal face: one
    # slack-maximization per edge, all warm-started on the same face LP.
    # Duplicate data rows have identical slack functions, so dedupe on the
    # row's coordinates.
    face = _fw_lp(V, w)
    face.add_eq({f"t{i}": w[i] for i in range(m)}, fstar)
    todo = []
    seen_rows = set()
    for (i, j) in tight:
        key = (V[i].coords, j)
        if key not in seen_rows:
            seen_rows.add(key)
            todo.append((i, j))
    results = face.solve_sequence(
        [({f"t{i}": 1, f"x{j}": -1}, True) for (i, j) in todo]
    )
    points = [xstar]
    zero_keys = set()
    for (i, j), r in zip(todo, results):
        if r.status != lp.OPTIMAL:  # the optimal face is a polytope
            raise InternalError(f"slack LP on the optimal face ended {r.status}")
        slack = r.value + V[i][j]
        if slack == 0:
            zero_keys.add((V[i].coords, j))
        else:
            points.append(_point_from(r, n))
    edges = {(i, j) for (i, j) in tight if (V[i].coords, j) in zero_keys}

    relint = normalize(
        [sum(p[j] for p in points) / len(points) for j in range(n)]
    )
    G = covector_at(V, relint)
    if G.edges != frozenset(edges):
        raise InternalError("the face average does not carry the tight edges")
    if not G.right_covered():  # optimal cells are bounded
        raise InternalError("optimal cell is unbounded")

    eqs, ineqs = cell_constraint_rows(V, G)
    cell = CovectorCell(
        G, V, eqs, ineqs, dim=cell_dim(V, G), bounded=True, witness=relint
    )
    verts = cell_vertices(cell)
    witness = normalize(
        [sum(v[j] for v in verts) / len(verts) for j in range(n)]
    )
    return FermatWeberResult(fstar, cell, witness, verts)


def is_fw_point(V: DataSet, w: WeightVector, x: TropicalPoint) -> bool:
    """Whether x attains the optimal objective value."""
    if x.dim != V.n:
        raise DimensionError(f"dimension mismatch: {x.dim} vs {V.n}")
    value = eval_objective(WeightedObjective(V, w), x)
    return value == solve_fw(V, w).optimal_value
