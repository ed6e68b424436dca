"""Inverse weights: realize a prescribed bounded cell as the Fermat-Weber set.

A spanning forest of the cell's covector graph yields weights via
lambda(e) = 1/(n * deg r(e)), w_i = sum of lambda over edges at left node
i.  For a bounded cell of the data every spanning forest realizes the
cell, so one deterministic forest is built and its weights are verified
with one forward solve; a graph whose weights give another cell is not a
bounded cell of the data and is refused at once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .covector import CovectorGraph
from .errors import InfeasibleError, ValidationError
from .fw import solve_fw
from .points import DataSet, WeightVector


@dataclass(frozen=True)
class SpanningForest:
    """A maximal forest of a covector graph, same component partition.

    Nodes are numbered left 0..m-1 then right m..m+n-1.
    """

    m: int
    n: int
    edges: frozenset  # subset of the parent graph's (i, j) edges
    component_map: tuple  # node -> component id

    def __post_init__(self):
        ncomp = len(set(self.component_map))
        if len(self.edges) != self.m + self.n - ncomp:
            raise ValidationError("edge count does not match a maximal forest")

    def right_degree(self, j: int) -> int:
        return sum(1 for (_, b) in self.edges if b == j)


def spanning_forest(G: CovectorGraph) -> SpanningForest:
    """Deterministic maximal spanning forest: BFS from the lowest-indexed
    unvisited node, scanning edges in lexicographic order."""
    m, n = G.m, G.n
    adj = {a: [] for a in range(m + n)}
    for (i, j) in sorted(G.edges):
        adj[i].append((m + j, (i, j)))
        adj[m + j].append((i, (i, j)))
    for a in adj:
        adj[a].sort()
    visited = [False] * (m + n)
    forest = set()
    for start in range(m + n):
        if visited[start]:
            continue
        visited[start] = True
        queue = deque([start])
        while queue:
            a = queue.popleft()
            for b, e in adj[a]:
                if not visited[b]:
                    visited[b] = True
                    forest.add(e)
                    queue.append(b)
    return SpanningForest(m, n, frozenset(forest), G.components())


def weights_from_forest(F: SpanningForest, n: int) -> WeightVector:
    """Eqs: lambda(e) = 1/(n * deg_F r(e)); w_i = sum over e with l(e) = i.

    Requires a forest spanning all left and right nodes, so every lambda
    is defined and every w_i is positive.
    """
    if n != F.n:
        raise ValidationError("dimension mismatch with forest")
    degs = [F.right_degree(j) for j in range(F.n)]
    if any(d == 0 for d in degs):
        raise ValidationError("forest does not span all right nodes")
    w = [Fraction(0)] * F.m
    for (i, j) in F.edges:
        w[i] += Fraction(1, n * degs[j])
    if any(x == 0 for x in w):
        raise ValidationError("forest does not span all left nodes")
    return WeightVector(tuple(w))


def edge_weights(F: SpanningForest, n: int) -> dict:
    """The per-edge masses lambda(e); a transportation plan on the forest."""
    degs = [F.right_degree(j) for j in range(F.n)]
    return {(i, j): Fraction(1, n * degs[j]) for (i, j) in F.edges}


def realize_cell(V: DataSet, G: CovectorGraph):
    """Weights making G's cell the full Fermat-Weber set, verified forward.

    Returns (weights, forward result).  Raises InfeasibleError when the
    weights of G's deterministic spanning forest give another cell: then
    G is not a bounded cell of V.
    """
    w = weights_from_forest(spanning_forest(G), V.n)
    res = solve_fw(V, w)
    if res.cell.graph != G:
        raise InfeasibleError(
            f"{sorted(G.edges)} is not a bounded cell of this data set: the "
            f"weights of its spanning forest give the cell "
            f"{sorted(res.cell.graph.edges)}"
        )
    return w, res
