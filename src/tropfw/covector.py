"""Covector graphs, covector cells, and the bounded cell complex.

A covector graph records, for each data point, which coordinates attain
the maximum of its centered linear form.  Cells sharing a covector graph
form a polyhedral decomposition; the bounded cells tile the min-tropical
convex hull of the data.

Cell enumeration and vertex computation work combinatorially: the 0-cells
(pseudovertices) are found by walking the 1-skeleton of the bounded
complex with exact arithmetic, and every bounded cell is recovered as an
intersection of its vertices' graphs.  Dimension and boundedness are read
off the graph (Develin-Sturmfels, Tropical convexity, 2004): a nonempty
cell has dimension (number of connected components) - 1, and it is bounded
iff every coordinate node has an edge.  LPs are used only for the
realizability and relative-interior checks of an arbitrary graph.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import lp
from .errors import DimensionError, InfeasibleError, ScaleGuardError, ValidationError
from .points import DataSet, TropicalPoint, normalize
from .signomial import TropicalLinearForm, argmax_set

_ZERO = Fraction(0)

CELL_SCALE_GUARD = 20


@dataclass(frozen=True)
class CovectorGraph:
    """Bipartite graph on m left (data) and n right (coordinate) nodes."""

    m: int
    n: int
    edges: frozenset
    rows: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        rows = [set() for _ in range(self.m)]
        for (i, j) in self.edges:
            if not (0 <= i < self.m and 0 <= j < self.n):
                raise ValidationError(f"edge ({i}, {j}) out of range")
            rows[i].add(j)
        for i, row in enumerate(rows):
            if not row:
                raise ValidationError(f"left node {i} has no incident edge")
        object.__setattr__(self, "rows", tuple(frozenset(r) for r in rows))

    @classmethod
    def from_rows(cls, rows) -> "CovectorGraph":
        m = len(rows)
        n_guess = 0
        edges = set()
        for i, row in enumerate(rows):
            for j in row:
                edges.add((i, j))
                n_guess = max(n_guess, j + 1)
        return cls(m, n_guess, frozenset(edges))

    def sorted_edges(self):
        return sorted(self.edges)

    def right_covered(self) -> bool:
        covered = set()
        for row in self.rows:
            covered |= row
        return len(covered) == self.n

    def _roots(self) -> list:
        """Union-find root of each node, left nodes 0..m-1 then right nodes
        m..m+n-1: two nodes share a root iff they share a component."""
        parent = list(range(self.m + self.n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for (i, j) in self.edges:
            ra, rb = find(i), find(self.m + j)
            if ra != rb:
                parent[ra] = rb
        return [find(a) for a in range(self.m + self.n)]

    def components(self) -> tuple:
        """Component id of each node, left nodes 0..m-1 then right nodes
        m..m+n-1; ids are numbered in order of first appearance."""
        ids = {}
        return tuple(ids.setdefault(r, len(ids)) for r in self._roots())

    def component_count(self) -> int:
        """Connected components, counting isolated right nodes."""
        return len(set(self._roots()))

    def right_components(self):
        """Partition of right nodes by connected component."""
        roots = self._roots()
        comps = {}
        for j in range(self.n):
            comps.setdefault(roots[self.m + j], []).append(j)
        return sorted(comps.values())

    def intersection(self, other: "CovectorGraph") -> Optional["CovectorGraph"]:
        """Edge intersection; None if some left node would lose all edges."""
        edges = self.edges & other.edges
        rows = [False] * self.m
        for (i, _) in edges:
            rows[i] = True
        if not all(rows):
            return None
        return CovectorGraph(self.m, self.n, edges)

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "edges": [[i + 1, j + 1] for (i, j) in self.sorted_edges()],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "CovectorGraph":
        try:
            m, n = int(obj["m"]), int(obj["n"])
            edges = frozenset((int(i) - 1, int(j) - 1) for i, j in obj["edges"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed covector graph JSON: {exc}") from exc
        return cls(m, n, edges)


def covector_at(V: DataSet, x: TropicalPoint) -> CovectorGraph:
    """The covector graph of x: per data point, the argmax coordinate set.

    Independent of the representative of x and of any weights.
    """
    if x.dim != V.n:
        raise DimensionError(f"dimension mismatch: {x.dim} vs {V.n}")
    rows = [argmax_set(TropicalLinearForm(v), x) for v in V]
    edges = frozenset((i, j) for i, row in enumerate(rows) for j in row)
    return CovectorGraph(V.m, V.n, edges)


# -- cell polyhedra ------------------------------------------------------


def cell_constraint_rows(V: DataSet, G: CovectorGraph):
    """Equality and inequality rows of the closed cell of G.

    Rows are (coeffs, rhs) with coeffs . x == rhs for equalities and
    coeffs . x >= rhs for inequalities, x ranging over zero-sum vectors.
    """
    n = V.n
    eqs = []
    ineqs = []
    for i, row in enumerate(G.rows):
        v = V[i].coords
        js = sorted(row)
        j0 = js[0]
        for j in js[1:]:
            coeffs = [_ZERO] * n
            coeffs[j] += 1
            coeffs[j0] -= 1
            eqs.append((tuple(coeffs), v[j] - v[j0]))
        for k in range(n):
            if k in row:
                continue
            coeffs = [_ZERO] * n
            coeffs[j0] += 1
            coeffs[k] -= 1
            ineqs.append((tuple(coeffs), v[j0] - v[k]))
    return eqs, ineqs


def _base_lp(n, eqs, ineqs):
    prog = lp.LinearProgram()
    for j in range(n):
        prog.add_var(f"x{j}")
    prog.add_eq({f"x{j}": 1 for j in range(n)}, 0)
    for coeffs, rhs in eqs:
        prog.add_eq({f"x{j}": c for j, c in enumerate(coeffs) if c != 0}, rhs)
    for coeffs, rhs in ineqs:
        prog.add_ge({f"x{j}": c for j, c in enumerate(coeffs) if c != 0}, rhs)
    return prog


def _point_from(res, n) -> TropicalPoint:
    return normalize([res[f"x{j}"] for j in range(n)])


def cell_relint_witness(V: DataSet, G: CovectorGraph):
    """A relative-interior point of the closed cell of G.

    Returns (witness, exact) where exact means the witness realizes G as
    its covector graph, or None if the closed cell is empty.
    """
    n = V.n
    eqs, ineqs = cell_constraint_rows(V, G)

    # Maximize the common slack t of all inequalities (capped at 1).
    prog = lp.LinearProgram()
    for j in range(n):
        prog.add_var(f"x{j}")
    t = prog.add_var("t")
    prog.add_eq({f"x{j}": 1 for j in range(n)}, 0)
    for coeffs, rhs in eqs:
        prog.add_eq({f"x{j}": c for j, c in enumerate(coeffs) if c != 0}, rhs)
    for coeffs, rhs in ineqs:
        d = {f"x{j}": c for j, c in enumerate(coeffs) if c != 0}
        d[t] = -1
        prog.add_ge(d, rhs)
    prog.add_le({t: 1}, 1)
    prog.set_objective({t: 1}, maximize=True)
    res = prog.solve()
    if res.status != lp.OPTIMAL or res.value < 0:
        return None
    if res.value > 0:
        return _point_from(res, n), True

    # The cell is a nonempty boundary face: some inequalities are
    # identically tight.  Average per-inequality slack maximizers to land
    # in the relative interior.
    points = [_point_from(res, n)]
    for coeffs, rhs in ineqs:
        prog = _base_lp(n, eqs, ineqs)
        s = prog.add_var("s")
        d = {f"x{j}": c for j, c in enumerate(coeffs) if c != 0}
        d[s] = -1
        prog.add_ge(d, rhs)
        prog.add_le({s: 1}, 1)
        prog.set_objective({s: 1}, maximize=True)
        r = prog.solve()
        if r.status == lp.OPTIMAL:
            points.append(_point_from(r, n))
    k = len(points)
    avg = [sum(p[j] for p in points) / k for j in range(n)]
    return normalize(avg), False


def cell_dim(V: DataSet, G: CovectorGraph) -> int:
    """Dimension of the cell of G: its graph's component count minus 1.

    The cell's equalities tie together the coordinates of each component,
    so a nonempty cell keeps one free coordinate per component, less one
    for the zero sum.
    """
    return G.component_count() - 1


@dataclass
class CovectorCell:
    """A covector cell: its graph, H-description, dimension, boundedness."""

    graph: CovectorGraph
    data: DataSet
    equalities: list
    inequalities: list
    dim: int = -1
    bounded: bool = False
    witness: Optional[TropicalPoint] = None
    is_empty: bool = False
    _vertices: Optional[list] = None

    @classmethod
    def empty(cls, V: DataSet, G: CovectorGraph) -> "CovectorCell":
        return cls(G, V, [], [], dim=-1, bounded=False, witness=None, is_empty=True)


def cell_from_graph(V: DataSet, G: CovectorGraph) -> CovectorCell:
    """Materialize the polyhedron of a covector graph.

    Returns an empty-cell marker when no point has covector graph exactly
    G (either the polyhedron is empty or every point in it carries extra
    ties).
    """
    if G.m != V.m or G.n != V.n:
        raise DimensionError("graph shape does not match data set")
    eqs, ineqs = cell_constraint_rows(V, G)
    found = cell_relint_witness(V, G)
    if found is None:
        return CovectorCell.empty(V, G)
    witness, exact = found
    if not exact and covector_at(V, witness) != G:
        return CovectorCell.empty(V, G)
    return CovectorCell(G, V, eqs, ineqs, dim=cell_dim(V, G),
                        bounded=G.right_covered(), witness=witness)


# -- walking the 1-skeleton ---------------------------------------------


def _direction_rows(G: CovectorGraph, S: frozenset):
    """Row argmax sets after an infinitesimal move in direction chi_S."""
    return tuple((row & S) or row for row in G.rows)


def _walk_to_boundary(V: DataSet, p: TropicalPoint, rows_h, S: frozenset):
    """Max step along chi_S keeping every row's argmax within rows_h.

    Returns the boundary point, or None if the ray never leaves the cell.
    """
    n = V.n
    tmax = None
    for i, row in enumerate(rows_h):
        v = V[i].coords
        jstar = next(iter(row))
        dstar = 1 if jstar in S else 0
        base = p[jstar] - v[jstar]
        for k in range(n):
            if k in row:
                continue
            dk = 1 if k in S else 0
            if dk > dstar:
                gap = base - (p[k] - v[k])
                if tmax is None or gap < tmax:
                    tmax = gap
    if tmax is None:
        return None
    return normalize([p[j] + (tmax if j in S else 0) for j in range(n)])


def _proper_right_subsets(n: int):
    nodes = list(range(n))
    for size in range(1, n):
        for S in itertools.combinations(nodes, size):
            yield frozenset(S)


def pseudovertices(V: DataSet) -> dict:
    """All 0-cells of the covector decomposition, keyed by graph.

    Breadth-first walk of the 1-skeleton of the bounded complex, seeded at
    the data points (each data point is a 0-cell).
    """
    seen = {}
    queue = deque()
    for v in V:
        G = covector_at(V, v)
        if G not in seen:
            seen[G] = v
            queue.append((G, v))
    subsets = list(_proper_right_subsets(V.n))
    while queue:
        Gp, p = queue.popleft()
        for S in subsets:
            rows_h = _direction_rows(Gp, S)
            covered = set()
            for row in rows_h:
                covered |= row
            if len(covered) != V.n:
                continue  # unbounded edge: leaves the convex hull
            H = CovectorGraph.from_rows(rows_h)
            H = CovectorGraph(V.m, V.n, H.edges)
            if H.component_count() != 2:
                continue
            q = _walk_to_boundary(V, p, rows_h, S)
            if q is None:
                continue
            Gq = covector_at(V, q)
            if Gq not in seen:
                seen[Gq] = q
                queue.append((Gq, q))
    return seen


def _descend_to_vertex(V: DataSet, x: TropicalPoint):
    """Walk from x down to a 0-cell of the complex, staying in the closure
    of x's cell."""
    G = covector_at(V, x)
    while G.component_count() > 1:
        comp = G.right_components()[0]
        S = frozenset(comp)
        q = _walk_to_boundary(V, x, G.rows, S)
        if q is None:
            S = frozenset(range(V.n)) - S
            q = _walk_to_boundary(V, x, G.rows, S)
        if q is None:
            raise InfeasibleError("cell is unbounded; it has no vertices")
        x = q
        G = covector_at(V, x)
    return x, G


def cell_vertices(cell: CovectorCell) -> list:
    """Exact vertex set of a bounded nonempty cell, in lexicographic order."""
    if cell.is_empty:
        raise InfeasibleError("empty cell has no vertices")
    if not cell.bounded:
        raise InfeasibleError("unbounded cell has no finite vertex set")
    if cell._vertices is not None:
        return list(cell._vertices)
    V = cell.data
    G = cell.graph
    v0, G0 = _descend_to_vertex(V, cell.witness)
    verts = {G0: v0}
    queue = deque([(G0, v0)])
    subsets = list(_proper_right_subsets(V.n))
    while queue:
        Gp, p = queue.popleft()
        for S in subsets:
            rows_h = _direction_rows(Gp, S)
            edges_h = frozenset(
                (i, j) for i, row in enumerate(rows_h) for j in row
            )
            if not (G.edges <= edges_h):
                continue  # not a face of this cell
            H = CovectorGraph(V.m, V.n, edges_h)
            if H.component_count() != 2:
                continue
            q = _walk_to_boundary(V, p, rows_h, S)
            if q is None:
                raise InfeasibleError("cell is unbounded; it has no vertices")
            Gq = covector_at(V, q)
            if Gq not in verts:
                verts[Gq] = q
                queue.append((Gq, q))
    out = sorted(verts.values(), key=lambda t: t.coords)
    cell._vertices = out
    return list(out)


# -- tropical convex hull ------------------------------------------------


def tropical_projection(V: DataSet, x: TropicalPoint) -> tuple:
    """Nearest min-tropical combination of the data: min_i (lambda_i + v_ij)
    with lambda_i = max_j (x_j - v_ij).  Fixes x exactly iff x lies in the
    hull."""
    if x.dim != V.n:
        raise DimensionError(f"dimension mismatch: {x.dim} vs {V.n}")
    lams = [max(x[j] - v[j] for j in range(V.n)) for v in V]
    return tuple(
        min(lam + v[j] for lam, v in zip(lams, V)) for j in range(V.n)
    )


def in_tconv(V: DataSet, x: TropicalPoint) -> bool:
    """Membership in the min-tropical convex hull of the data: x lies in
    the hull iff its covector cell is bounded."""
    return covector_at(V, x).right_covered()


def enumerate_bounded_cells(V: DataSet) -> list:
    """All bounded covector cells, with graphs, dims, and vertices.

    Desk scale only (m * n <= 20).  Cells are sorted by (dim, edge list);
    their union is the min-tropical convex hull.
    """
    if V.m * V.n > CELL_SCALE_GUARD:
        raise ScaleGuardError(
            f"m*n = {V.m * V.n} exceeds the enumeration guard {CELL_SCALE_GUARD}"
        )
    pv = pseudovertices(V)
    closure = set(pv.keys())
    frontier = deque(closure)
    while frontier:
        g = frontier.popleft()
        for h in list(closure):
            k = g.intersection(h)
            if k is None or not k.right_covered():
                continue
            if k not in closure:
                closure.add(k)
                frontier.append(k)
    cells = []
    for G in closure:
        members = [p for gp, p in pv.items() if G.edges <= gp.edges]
        k = len(members)
        avg = normalize([sum(p[j] for p in members) / k for j in range(V.n)])
        if covector_at(V, avg) != G:
            continue  # intersection pattern is not a cell of the complex
        eqs, ineqs = cell_constraint_rows(V, G)
        cell = CovectorCell(
            G,
            V,
            eqs,
            ineqs,
            dim=cell_dim(V, G),
            bounded=True,
            witness=avg,
        )
        cell._vertices = sorted(members, key=lambda t: t.coords)
        cells.append(cell)
    cells.sort(key=lambda c: (c.dim, c.graph.sorted_edges()))
    return cells
